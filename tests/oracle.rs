//! Pin of the batched, memoized transform oracle,
//! [`OracleTarget::check`], against the scalar reference oracle,
//! [`semantics_preserving_reference`].
//!
//! The contract is an equal verdict on every pair. It is checked on the
//! suite kernels under primitive rewrites (tilings, interchanges, legal
//! and illegal parallelizations, a wrong rewrite), on every catalog step
//! at every program version the polyhedral optimizer passes through, and
//! on the simulated LLM's proposals under its one-lane oracle
//! configuration. Each kernel keeps one target for all its candidates,
//! as the optimizer does, so the per-cap memo is exercised across
//! candidates of different sampling caps. Targeted cases pin the memo
//! key, an original that exhausts its statement budget and an
//! output-set mismatch.

use looprag::looprag_dependence::{analyze_for, Purpose};
use looprag::looprag_ir::{
    adaptive_sampling_cap, compile, loop_paths, print_program, AssignOp, BinOp, Expr, Program,
};
use looprag::looprag_llm::{LanguageModel, LlmProfile, Prompt, SimLlm};
use looprag::looprag_polyopt::optimize;
use looprag::looprag_suites::{all_benchmarks, Benchmark};
use looprag::looprag_synth::SynthConfig;
use looprag::looprag_transform::{
    enumerate_steps, interchange, parallelize, perfect_band, semantics_preserving,
    semantics_preserving_reference, tile_band, OracleConfig, OracleTarget, StepGrid,
};

/// Verdict counts, so a sweep that only ever sees one answer fails.
#[derive(Debug, Default)]
struct Tally {
    pass: usize,
    fail: usize,
}

impl Tally {
    /// Checks `candidate` with both oracles, asserts they agree and
    /// returns the verdict.
    fn pin(
        &mut self,
        label: &str,
        target: &mut OracleTarget,
        original: &Program,
        candidate: &Program,
        cfg: &OracleConfig,
    ) -> bool {
        let fast = target.check(candidate);
        let reference = semantics_preserving_reference(original, candidate, cfg);
        assert_eq!(
            fast,
            reference,
            "{label}: batched oracle says {fast}, reference says {reference}\n{}",
            print_program(candidate)
        );
        if fast {
            self.pass += 1;
        } else {
            self.fail += 1;
        }
        fast
    }

    fn assert_mixed(&self, what: &str) {
        assert!(
            self.pass > 0 && self.fail > 0,
            "{what}: every verdict was the same ({self:?}); the pin is vacuous"
        );
    }
}

/// The simulated LLM's legality probe configuration: no extra images,
/// so the batched oracle runs one lane.
fn one_lane() -> OracleConfig {
    OracleConfig {
        param_cap: 6,
        rel_eps: 1e-6,
        stmt_budget: 2_000_000,
        extra_inits: Vec::new(),
    }
}

/// `p` with its first statement's right-hand side shifted by one: a
/// rewrite that changes what is computed.
fn wrong_rewrite(p: &Program) -> Program {
    let mut out = p.clone();
    let mut done = false;
    for n in &mut out.body {
        n.for_each_stmt_mut(&mut |s| {
            if !done {
                let rhs = std::mem::replace(&mut s.rhs, Expr::Num(0.0));
                s.rhs = Expr::Binary(BinOp::Add, Box::new(rhs), Box::new(Expr::Num(1.0)));
                s.op = AssignOp::Assign;
                done = true;
            }
        });
    }
    out
}

#[test]
fn suite_kernels_under_primitive_rewrites() {
    let cfg = OracleConfig::default();
    let (mut all, mut illegal_parallel) = (Tally::default(), Tally::default());
    let kernels = all_benchmarks();
    assert_eq!(kernels.len(), 134);
    for b in &kernels {
        let p = b.program();
        let deps = analyze_for(&p, Purpose::Transform);
        let mut target = OracleTarget::new(&p, &cfg);
        for path in loop_paths(&p.body) {
            let depth = perfect_band(&p, &path, 2).map_or(0, |band| band.len());
            if path.len() == 1 {
                for d in 1..=depth {
                    for size in [4, 8] {
                        if let Ok(c) = tile_band(&p, &path, d, size) {
                            let label = format!("{} tile {path:?} depth {d} size {size}", b.name);
                            all.pin(&label, &mut target, &p, &c, &cfg);
                        }
                    }
                }
            }
            if depth == 2 {
                if let Ok(c) = interchange(&p, &path) {
                    let label = format!("{} interchange {path:?}", b.name);
                    all.pin(&label, &mut target, &p, &c, &cfg);
                }
            }
            if let Ok(c) = parallelize(&p, &path) {
                let label = format!("{} parallelize {path:?}", b.name);
                let ok = all.pin(&label, &mut target, &p, &c, &cfg);
                if !deps.is_parallel_legal(&path) {
                    if ok {
                        illegal_parallel.pass += 1;
                    } else {
                        illegal_parallel.fail += 1;
                    }
                }
            }
        }
        let label = format!("{} wrong rewrite", b.name);
        all.pin(&label, &mut target, &p, &wrong_rewrite(&p), &cfg);
    }
    all.assert_mixed("primitive rewrites");
    assert!(
        illegal_parallel.fail > 0,
        "no illegal parallelization was caught: {illegal_parallel:?}"
    );
}

#[test]
fn every_step_the_optimizer_can_try() {
    // The optimizer tries steps only on the program versions it accepts,
    // drawn from the catalog's families; checking every catalog step on
    // every accepted version covers each step it tries.
    // Dataset synthesis's options (tile size 8): the optimizer's
    // heaviest user. Tile size 32 raises the sampling cap of tiled
    // gemm-like nests to 66, which makes the reference oracle take
    // minutes on this sweep.
    let opts = SynthConfig::default().polyopt;
    let grid = StepGrid {
        tile_sizes: vec![opts.tile_size],
        max_tile_depth: opts.max_tile_depth,
        skew_factors: vec![1, 2],
        retile: false,
    };
    let mut tally = Tally::default();
    let kernels: Vec<Benchmark> = all_benchmarks().into_iter().step_by(6).collect();
    for b in &kernels {
        let p = b.program();
        let result = optimize(&p, &opts);
        let mut target = OracleTarget::new(&p, &opts.oracle);
        let mut version = p.clone();
        let mut versions = vec![version.clone()];
        for step in &result.recipe.steps {
            version = step.apply(&version).expect("accepted steps replay");
            versions.push(version.clone());
        }
        assert_eq!(print_program(&version), print_program(&result.program));
        for (v, current) in versions.iter().enumerate() {
            for step in enumerate_steps(current, &grid) {
                if let Ok(c) = step.apply(current) {
                    let label = format!("{} version {v} {step}", b.name);
                    tally.pin(&label, &mut target, &p, &c, &opts.oracle);
                }
            }
        }
        // The optimizer's own output passes.
        let label = format!("{} optimized", b.name);
        assert!(tally.pin(&label, &mut target, &p, &result.program, &opts.oracle));
    }
    tally.assert_mixed("optimizer steps");
}

#[test]
fn simulated_llm_proposals_in_the_one_lane_config() {
    let cfg = one_lane();
    let mut tally = Tally::default();
    let kernels: Vec<Benchmark> = all_benchmarks().into_iter().step_by(5).collect();
    for profile in [LlmProfile::gpt4(), LlmProfile::deepseek()] {
        for seed in 0..3 {
            let mut llm = SimLlm::new(profile.clone(), seed);
            for b in &kernels {
                let p = b.program();
                let mut target = OracleTarget::new(&p, &cfg);
                for round in 0..2 {
                    let Ok(c) = compile(&llm.generate(&Prompt::base(b.source.clone())), "cand")
                    else {
                        continue;
                    };
                    let label = format!("{} seed {seed} round {round}", b.name);
                    tally.pin(&label, &mut target, &p, &c, &cfg);
                }
            }
        }
    }
    tally.assert_mixed("simulated LLM proposals");
}

fn gemm() -> Program {
    compile(
        "param N = 64;\narray C[N][N];\narray A[N][N];\narray B[N][N];\nout C;\n#pragma scop\n\
         for (i = 0; i <= N - 1; i++) for (j = 0; j <= N - 1; j++) for (k = 0; k <= N - 1; k++) \
         C[i][j] += A[i][k] * B[k][j];\n#pragma endscop\n",
        "gemm",
    )
    .unwrap()
}

#[test]
fn one_target_keys_its_memo_by_sampling_cap() {
    let p = gemm();
    let cfg = OracleConfig::default();
    let swapped = interchange(&p, &[0]).unwrap();
    let tiled8 = tile_band(&p, &[0], 3, 8).unwrap();
    let tiled4 = tile_band(&p, &[0], 2, 4).unwrap();
    let cap = |c: &Program| {
        adaptive_sampling_cap(c, cfg.param_cap, 3e6).max(adaptive_sampling_cap(
            &p,
            cfg.param_cap,
            3e6,
        ))
    };
    let caps = [cap(&swapped), cap(&tiled8), cap(&tiled4)];
    assert!(
        caps[0] != caps[1] && caps[1] != caps[2] && caps[0] != caps[2],
        "candidates must sample at three caps: {caps:?}"
    );
    // A candidate compared with the original at another cap would see
    // arrays of another length and fail, so every `true` here needs the
    // entry of its own cap.
    let mut tally = Tally::default();
    let mut target = OracleTarget::new(&p, &cfg);
    for (label, c) in [
        ("interchange", &swapped),
        ("tile 8", &tiled8),
        ("tile 4", &tiled4),
        ("interchange again", &swapped),
        ("tile 8 again", &tiled8),
    ] {
        assert!(tally.pin(label, &mut target, &p, c, &cfg), "{label}");
    }
    let wrong_tiled = wrong_rewrite(&tiled8);
    assert!(!tally.pin("wrong tile 8", &mut target, &p, &wrong_tiled, &cfg));
    // A fresh target per call (the one-shot form) agrees.
    assert!(semantics_preserving(&p, &tiled4, &cfg));
    assert!(!semantics_preserving(&p, &wrong_tiled, &cfg));
}

#[test]
fn an_original_that_exhausts_its_budget_fails_every_check() {
    let p = gemm();
    let cfg = OracleConfig {
        stmt_budget: 100,
        ..OracleConfig::default()
    };
    let mut tally = Tally::default();
    let mut target = OracleTarget::new(&p, &cfg);
    for (label, c) in [
        ("itself", p.clone()),
        ("tiled", tile_band(&p, &[0], 3, 8).unwrap()),
        ("itself again", p.clone()),
    ] {
        assert!(!tally.pin(label, &mut target, &p, &c, &cfg), "{label}");
    }
}

#[test]
fn an_output_set_mismatch_fails() {
    let p = gemm();
    let cfg = OracleConfig::default();
    let mut more = p.clone();
    more.outputs.push("A".to_string());
    let mut other = p.clone();
    other.outputs = vec!["B".to_string()];
    let mut tally = Tally::default();
    let mut target = OracleTarget::new(&p, &cfg);
    assert!(tally.pin("same", &mut target, &p, &p, &cfg));
    assert!(!tally.pin("extra output", &mut target, &p, &more, &cfg));
    assert!(!tally.pin("other output", &mut target, &p, &other, &cfg));
}

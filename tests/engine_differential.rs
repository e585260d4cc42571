//! Differential self-test of the lane engine against the reference
//! tree-walker.
//!
//! The lane engine ([`CompiledProgram::run_batched`]) is the one
//! production interpreter behind every pipeline verdict. A batch has one
//! outcome, since every lane runs the same statements; these tests pin
//! every lane of it to a reference run of that lane's input, bit-for-bit:
//! identical stores (to the last mantissa bit, the partial stores of a
//! batch that faults or exhausts its budget mid-run included), identical
//! `stmts_executed`, and identical errors — across all 134 suite
//! kernels, all parallel iteration orders, the eqcheck seed inputs, and
//! randomly synthesized programs. A single run is the one-lane case.
//! Batched `differential_test` verdicts must equal the reference oracle
//! on every kernel.

use looprag::looprag_eqcheck::{
    build_test_suite, differential_test, differential_test_reference, seed_inputs, EqCheckConfig,
    PreparedTarget, TestVerdict,
};
use looprag::looprag_exec::{
    run_with_store_reference, ArrayStore, BatchStore, CompiledProgram, ExecConfig, ExecError,
    ExecStats, InputSpec, ParallelOrder,
};
use looprag::looprag_ir::Program;
use looprag::looprag_suites::all_benchmarks;
use looprag::looprag_synth::{generate_example, LoopParams};
use looprag::looprag_transform::{parallelize, scaled_clone};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Asserts that two stores are *bit*-identical — stricter than
/// `ArrayStore`'s `PartialEq`, which would treat equal NaNs as unequal
/// and -0.0 as equal to 0.0.
fn assert_stores_bit_identical(a: &ArrayStore, b: &ArrayStore, ctx: &str) {
    assert_eq!(a.len(), b.len(), "{ctx}: store sizes differ");
    for (name, da) in a.iter() {
        let db = b
            .get(name)
            .unwrap_or_else(|| panic!("{ctx}: missing {name}"));
        assert_eq!(da.extents, db.extents, "{ctx}: {name} extents differ");
        for (i, (x, y)) in da.data.iter().zip(&db.data).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "{ctx}: {name}[{i}] differs: {x} vs {y}"
            );
        }
    }
}

/// Runs `p` batched with one lane per input and asserts every lane is
/// bit-identical (outcome and store) to a reference run of that input
/// under `cfg`. Returns the batch's one outcome.
fn assert_lanes_match_reference(
    p: &Program,
    inputs: &[InputSpec],
    cfg: &ExecConfig,
    ctx: &str,
) -> Result<ExecStats, ExecError> {
    let mut batch = BatchStore::from_inputs(p, inputs);
    let outcome = CompiledProgram::compile(p).run_batched(&mut batch, cfg);
    for (lane, input) in inputs.iter().enumerate() {
        let mut store = ArrayStore::from_program(p);
        for (name, init) in input {
            if let Some(arr) = store.get_mut(name) {
                arr.fill(init);
            }
        }
        let reference = run_with_store_reference(p, &mut store, cfg);
        assert_eq!(
            reference, outcome,
            "{ctx} lane {lane}: batched outcome diverges from the reference"
        );
        assert_stores_bit_identical(
            &batch.lane_store(lane),
            &store,
            &format!("{ctx} lane {lane}"),
        );
    }
    outcome
}

/// [`assert_lanes_match_reference`] for one lane holding the program's
/// own inits.
fn assert_one_lane_matches_reference(p: &Program, cfg: &ExecConfig, ctx: &str) {
    let _ = assert_lanes_match_reference(p, &[InputSpec::new()], cfg, ctx);
}

/// Every suite kernel, every eqcheck seed input run alone as one lane:
/// stores and statement counts must match the reference
/// walker bit-for-bit, and no kernel may fault.
#[test]
fn all_suite_kernels_match_reference_on_seed_inputs() {
    let benchmarks = all_benchmarks();
    assert!(
        benchmarks.len() >= 130,
        "suite shrank to {}",
        benchmarks.len()
    );
    let cfg = ExecConfig {
        stmt_budget: 5_000_000,
        ..Default::default()
    };
    for b in &benchmarks {
        let p = scaled_clone(&b.program(), 10);
        for (k, input) in seed_inputs(&p).into_iter().enumerate() {
            let ctx = format!("{} input {k}", b.name);
            let stats = assert_lanes_match_reference(&p, &[input], &cfg, &ctx)
                .unwrap_or_else(|e| panic!("{ctx}: kernel faulted: {e}"));
            assert!(stats.stmts_executed > 0, "{ctx}: executed nothing");
        }
    }
}

/// The lane engine over every suite kernel: the eqcheck seed inputs run
/// as lanes of one batch, under all three iteration orders, and every
/// lane must be bit-identical to the single-input reference run of that
/// input.
#[test]
fn batched_lanes_match_scalar_on_all_suite_kernels() {
    let benchmarks = all_benchmarks();
    assert!(
        benchmarks.len() >= 130,
        "suite shrank to {}",
        benchmarks.len()
    );
    for b in &benchmarks {
        let p = scaled_clone(&b.program(), 10);
        let inputs = seed_inputs(&p);
        for order in ParallelOrder::ALL {
            let cfg = ExecConfig {
                stmt_budget: 5_000_000,
                parallel_order: order,
            };
            let ctx = format!("{} order {order:?}", b.name);
            assert_lanes_match_reference(&p, &inputs, &cfg, &ctx)
                .unwrap_or_else(|e| panic!("{ctx}: kernel faulted: {e}"));
        }
    }
}

/// Parallelized kernels under all three iteration orders: the permuted
/// schedules (the illegal-parallelism probes) must also be bit-exact.
#[test]
fn parallelized_kernels_match_reference_under_all_orders() {
    let mut covered = 0;
    for b in all_benchmarks().iter().take(40) {
        let p = scaled_clone(&b.program(), 8);
        // Force-parallelize the outermost loop regardless of legality:
        // exactly the situation permuted orders exist to expose.
        let Ok(par) = parallelize(&p, &[0]) else {
            continue;
        };
        covered += 1;
        for order in ParallelOrder::ALL {
            let cfg = ExecConfig {
                stmt_budget: 5_000_000,
                parallel_order: order,
            };
            let ctx = format!("{} order {order:?}", b.name);
            assert_one_lane_matches_reference(&par, &cfg, &ctx);
        }
    }
    assert!(
        covered >= 10,
        "only {covered} kernels could be parallelized"
    );
}

/// The suite is exactly the seed inputs on every suite kernel.
#[test]
fn suite_selection_keeps_exactly_the_seed_inputs() {
    let cfg = EqCheckConfig::default();
    for b in &all_benchmarks() {
        let p = b.program();
        assert_eq!(
            build_test_suite(&p, &cfg).inputs,
            seed_inputs(&p),
            "{}: the suite is not its seed inputs",
            b.name
        );
    }
}

/// The batched `differential_test` against its oracle on every suite
/// kernel: the per-input reference tree-walker must reach bit-identical
/// verdicts, for both a passing
/// candidate (the kernel itself) and a force-parallelized one (which
/// mixes `Pass` with `IncorrectAnswer` across the permuted orders).
#[test]
fn batched_difftest_verdicts_match_oracles_on_all_suite_kernels() {
    let cfg = EqCheckConfig {
        stmt_budget: 5_000_000,
        ..Default::default()
    };
    for b in &all_benchmarks() {
        let p = b.program();
        let suite = build_test_suite(&p, &cfg);
        let mut candidates = vec![p.clone()];
        if let Ok(par) = parallelize(&p, &[0]) {
            candidates.push(par);
        }
        for (k, cand) in candidates.iter().enumerate() {
            let batched = differential_test(&p, cand, &suite, &cfg);
            let reference = differential_test_reference(&p, cand, &suite, &cfg);
            assert_eq!(
                batched, reference,
                "{} candidate {k}: batched vs reference verdicts diverge",
                b.name
            );
        }
    }
}

/// Regression (vacuous Pass): a ground truth that faults or exhausts
/// its budget on every suite input must yield a distinguishable
/// failure, not `Pass`, through the public batched entry points.
#[test]
fn ground_truth_failure_is_a_runtime_error_not_pass() {
    let compile = |src: &str| looprag::looprag_ir::compile(src, "k").unwrap();
    let ok = compile(
        "param N = 24;\narray A[N];\nout A;\n#pragma scop\nfor (i = 0; i <= N - 1; i++) A[i] = A[i] + 1.0;\n#pragma endscop\n",
    );
    let oob = compile(
        "param N = 24;\narray A[N];\nout A;\n#pragma scop\nfor (i = 0; i <= N - 1; i++) A[i + 1] = A[i] + 1.0;\n#pragma endscop\n",
    );
    // 8^4 statements at the sampling cap: over the budget below.
    let slow = compile(
        "param N = 24;\narray A[N];\nout A;\n#pragma scop\nfor (a = 0; a <= N - 1; a++) for (b = 0; b <= N - 1; b++) for (c = 0; c <= N - 1; c++) for (d = 0; d <= N - 1; d++) A[a] += 1.0;\n#pragma endscop\n",
    );
    let cfg = EqCheckConfig {
        stmt_budget: 1_000,
        ..Default::default()
    };
    let suite = build_test_suite(&ok, &cfg);
    for original in [&oob, &slow] {
        for verdict in [
            differential_test(original, &ok, &suite, &cfg),
            differential_test_reference(original, &ok, &suite, &cfg),
            PreparedTarget::prepare(original, &cfg).differential_test(&ok, &cfg),
        ] {
            assert!(
                matches!(
                    verdict,
                    TestVerdict::RuntimeError { ref message } if message.contains("ground truth failed")
                ),
                "expected ground-truth runtime error, got {verdict:?}"
            );
        }
    }
}

/// A candidate that runs more statements than its original times out
/// under a budget the original fits: the batched verdict is `Timeout`,
/// as the reference oracle's is.
#[test]
fn a_candidate_over_the_budget_times_out_like_the_reference() {
    let compile = |src: &str| looprag::looprag_ir::compile(src, "k").unwrap();
    let original = compile(
        "param N = 24;\narray A[N];\nout A;\n#pragma scop\nfor (i = 0; i <= N - 1; i++) A[i] = A[i] + 1.0;\n#pragma endscop\n",
    );
    // The original's loop plus a 4-deep nest that adds zero.
    let longer = compile(
        "param N = 24;\narray A[N];\nout A;\n#pragma scop\nfor (a = 0; a <= N - 1; a++) for (b = 0; b <= N - 1; b++) for (c = 0; c <= N - 1; c++) for (d = 0; d <= N - 1; d++) A[a] += 0.0;\nfor (i = 0; i <= N - 1; i++) A[i] = A[i] + 1.0;\n#pragma endscop\n",
    );
    let cfg = EqCheckConfig {
        stmt_budget: 1_000,
        ..Default::default()
    };
    let suite = build_test_suite(&original, &cfg);
    let reference = differential_test_reference(&original, &longer, &suite, &cfg);
    assert_eq!(reference, TestVerdict::Timeout);
    assert_eq!(
        differential_test(&original, &longer, &suite, &cfg),
        reference
    );
    let prepared = PreparedTarget::prepare(&original, &cfg);
    assert_eq!(prepared.differential_test(&longer, &cfg), reference);
    assert_eq!(
        prepared.differential_test(&original, &cfg),
        TestVerdict::Pass
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Synthesized programs (the dataset generator exercises guards,
    /// strides, reductions, local scalars and multi-dimensional
    /// subscripts) run bit-identically as one lane and on the reference.
    #[test]
    fn synthesized_programs_match_reference(seed in 0u64..10_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let params = LoopParams::sample(&mut rng);
        if let Some(p) = generate_example(&params, 0, &mut rng) {
            let small = scaled_clone(&p, 12);
            let cfg = ExecConfig {
                stmt_budget: 2_000_000,
                ..Default::default()
            };
            assert_one_lane_matches_reference(&small, &cfg, &format!("seed {seed}"));
        }
    }

    /// Error classes (budget exhaustion mid-run) surface identically,
    /// including the partially written store at the abort point.
    #[test]
    fn budget_aborts_match_reference(seed in 0u64..10_000, budget in 1u64..200) {
        let mut rng = StdRng::seed_from_u64(seed);
        let params = LoopParams::sample(&mut rng);
        if let Some(p) = generate_example(&params, 0, &mut rng) {
            let small = scaled_clone(&p, 6);
            let cfg = ExecConfig {
                stmt_budget: budget,
                ..Default::default()
            };
            let ctx = format!("seed {seed} budget {budget}");
            assert_one_lane_matches_reference(&small, &cfg, &ctx);
        }
    }

    /// Synthesized programs run with every seed input as a lane under
    /// one budget that stops the run at the first statement, mid-run, or
    /// never: in every order each lane must match its reference run
    /// bit-for-bit, the partial stores of a stopped or faulting batch
    /// included.
    #[test]
    fn batched_lanes_under_one_budget_match_scalar(seed in 0u64..10_000, budget in 1u64..400) {
        let mut rng = StdRng::seed_from_u64(seed);
        let params = LoopParams::sample(&mut rng);
        if let Some(p) = generate_example(&params, 0, &mut rng) {
            let small = scaled_clone(&p, 8);
            let inputs = seed_inputs(&small);
            for stmt_budget in [1, budget, budget * 3, u64::MAX] {
                for order in ParallelOrder::ALL {
                    let cfg = ExecConfig {
                        stmt_budget,
                        parallel_order: order,
                    };
                    let ctx = format!("seed {seed} budget {stmt_budget} order {order:?}");
                    let _ = assert_lanes_match_reference(&small, &inputs, &cfg, &ctx);
                }
            }
        }
    }
}

//! Differential self-test of the lane engine against the reference
//! tree-walker.
//!
//! The lane engine ([`CompiledProgram::run_batched`]) is the one
//! production interpreter behind every pipeline verdict; these tests pin
//! every lane of it to a reference run of that lane's input and budget,
//! bit-for-bit: identical stores (to the last mantissa bit, the partial
//! stores of lanes that fault or exhaust their budget mid-batch
//! included), identical `stmts_executed`, identical branch coverage, and
//! identical errors — across all 134 suite kernels, all parallel
//! iteration orders, the eqcheck seed inputs, and randomly synthesized
//! programs. A single run is the one-lane case. Batched
//! `differential_test` verdicts must equal the reference oracle on every
//! kernel.

use looprag::looprag_eqcheck::{
    build_test_suite, differential_test, differential_test_reference, mutate_input, seed_inputs,
    EqCheckConfig, TestVerdict,
};
use looprag::looprag_exec::{
    run_with_store_reference, ArrayStore, BatchStore, CompiledProgram, ExecConfig, ExecError,
    ExecStats, InputSpec, ParallelOrder,
};
use looprag::looprag_ir::{InitKind, Program};
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
/// with that lane's budget. Returns the per-lane outcomes.
fn assert_lanes_match_reference(
    p: &Program,
    inputs: &[InputSpec],
    order: ParallelOrder,
    budgets: &[u64],
    ctx: &str,
) -> Vec<Result<ExecStats, ExecError>> {
    let mut batch = BatchStore::from_program(p, inputs.len());
    for (lane, input) in inputs.iter().enumerate() {
        batch.fill_lane(lane, input);
    }
    let bcfg = ExecConfig {
        stmt_budget: u64::MAX,
        parallel_order: order,
    };
    let results = CompiledProgram::compile(p).run_batched(&mut batch, &bcfg, Some(budgets));
    for (lane, input) in inputs.iter().enumerate() {
        let mut store = ArrayStore::from_program(p);
        for (name, init) in input {
            if let Some(arr) = store.get_mut(name) {
                arr.fill(init);
            }
        }
        let rcfg = ExecConfig {
            stmt_budget: budgets[lane],
            parallel_order: order,
        };
        let reference = run_with_store_reference(p, &mut store, &rcfg);
        assert_eq!(
            reference, results[lane],
            "{ctx} lane {lane}: batched outcome diverges from the reference"
        );
        assert_stores_bit_identical(
            &batch.lane_store(lane),
            &store,
            &format!("{ctx} lane {lane}"),
        );
    }
    results
}

/// [`assert_lanes_match_reference`] for one lane holding the program's
/// own inits.
fn assert_one_lane_matches_reference(p: &Program, cfg: &ExecConfig, ctx: &str) {
    assert_lanes_match_reference(
        p,
        &[InputSpec::new()],
        cfg.parallel_order,
        &[cfg.stmt_budget],
        ctx,
    );
}

/// Every suite kernel, every eqcheck seed input run alone as one lane:
/// stores, statement counts and coverage must match the reference
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
            let results = assert_lanes_match_reference(
                &p,
                &[input],
                cfg.parallel_order,
                &[cfg.stmt_budget],
                &ctx,
            );
            let stats = results[0]
                .as_ref()
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
        let budgets = vec![5_000_000u64; inputs.len()];
        for order in ParallelOrder::ALL {
            let ctx = format!("{} order {order:?}", b.name);
            assert_lanes_match_reference(&p, &inputs, order, &budgets, &ctx);
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

/// Coverage-guided selection keeps exactly the seed inputs on every
/// suite kernel: control flow does not depend on array values, so no
/// mutant can cover an arm the first seed left uncovered.
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

/// Regression (vacuous Pass): a ground truth faulting on every suite
/// input must yield a distinguishable failure, not `Pass`, through the
/// public batched entry point.
#[test]
fn ground_truth_failure_is_a_runtime_error_not_pass() {
    let ok = looprag::looprag_ir::compile(
        "param N = 24;\narray A[N];\nout A;\n#pragma scop\nfor (i = 0; i <= N - 1; i++) A[i] = A[i] + 1.0;\n#pragma endscop\n",
        "ok",
    )
    .unwrap();
    let oob = looprag::looprag_ir::compile(
        "param N = 24;\narray A[N];\nout A;\n#pragma scop\nfor (i = 0; i <= N - 1; i++) A[i + 1] = A[i] + 1.0;\n#pragma endscop\n",
        "oob",
    )
    .unwrap();
    let cfg = EqCheckConfig::default();
    let suite = build_test_suite(&ok, &cfg);
    for verdict in [
        differential_test(&oob, &ok, &suite, &cfg),
        differential_test_reference(&oob, &ok, &suite, &cfg),
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

/// Regression (no-op mutation): with inputs whose every mutation arm
/// must change something (index patterns always perturb), no seed may
/// return the input unchanged — the statement arm used to draw `a == b`
/// and swap an array with itself.
#[test]
fn mutations_never_return_the_input_unchanged() {
    let spec: InputSpec = vec![
        ("A".into(), InitKind::IndexPattern { a: 7, b: 1, m: 97 }),
        ("B".into(), InitKind::IndexPattern { a: 3, b: 2, m: 51 }),
    ];
    for seed in 0..500u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let mutated = mutate_input(&spec, &mut rng);
        assert_ne!(mutated, spec, "seed {seed} produced an identity mutation");
    }
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

    /// Synthesized programs run batched with *heterogeneous* per-lane
    /// budgets: some lanes exhaust their budget (or hit a fault) and
    /// drop out mid-batch while others run to completion; every lane
    /// must still match its reference run bit-for-bit, frozen partial
    /// stores included.
    #[test]
    fn batched_lane_dropout_matches_scalar(seed in 0u64..10_000, budget in 1u64..400) {
        let mut rng = StdRng::seed_from_u64(seed);
        let params = LoopParams::sample(&mut rng);
        if let Some(p) = generate_example(&params, 0, &mut rng) {
            let small = scaled_clone(&p, 8);
            let inputs = seed_inputs(&small);
            // One tiny budget (dies almost immediately), one mid-range,
            // one that tracks the sampled value, one effectively
            // unlimited — exercising dropout at different batch depths.
            let budgets: Vec<u64> = [1, budget, budget * 3, u64::MAX]
                .into_iter()
                .cycle()
                .take(inputs.len())
                .collect();
            for order in ParallelOrder::ALL {
                let ctx = format!("seed {seed} budget {budget} order {order:?}");
                assert_lanes_match_reference(&small, &inputs, order, &budgets, &ctx);
            }
        }
    }
}

//! Pins the transform oracle's work-unit counters, `oracle.checks` and
//! `oracle.ground_truth_runs`, for the 40-example synthesis.
//!
//! This lives in its own test binary with a single test: the counters
//! are process-wide, so any concurrently running test inside the same
//! binary would pollute the deltas.

use looprag::looprag_synth::{build_dataset, SynthConfig};
use looprag::looprag_trace::metrics;
use looprag::looprag_transform::{semantics_preserving_reference, OracleConfig};

fn deltas(run: impl FnOnce()) -> (u64, u64) {
    let before = metrics().snapshot();
    run();
    let after = metrics().snapshot();
    (
        after.counter("oracle.checks") - before.counter("oracle.checks"),
        after.counter("oracle.ground_truth_runs") - before.counter("oracle.ground_truth_runs"),
    )
}

#[test]
fn work_unit_counters_are_pinned() {
    // The labelling phase runs on the pool, but every example's oracle
    // work is a function of its drawn program alone, so the totals are
    // the same at any pool size.
    let synth = |threads| {
        deltas(|| {
            build_dataset(&SynthConfig {
                count: 40,
                threads,
                ..Default::default()
            });
        })
    };
    let (checks, ground_truth_runs) = synth(1);
    assert_eq!((checks, ground_truth_runs), (346, 71));
    assert_eq!(synth(2), (checks, ground_truth_runs), "pool size 2");
    assert_eq!(synth(8), (checks, ground_truth_runs), "pool size 8");
    // One optimizer call keeps one memo, so the original runs once per
    // sampling cap, not once per check.
    assert!(ground_truth_runs < checks);

    // The reference oracle is not metered.
    let dataset = build_dataset(&SynthConfig {
        count: 4,
        threads: 1,
        ..Default::default()
    });
    let reference = deltas(|| {
        for e in &dataset.examples {
            assert!(semantics_preserving_reference(
                &e.program(),
                &e.optimized_program(),
                &OracleConfig::default()
            ));
        }
    });
    assert_eq!(reference, (0, 0));
}

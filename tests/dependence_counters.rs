//! Pins the dependence tracer's work-unit counters,
//! `dependence.analyses`, `dependence.instances_traced` and
//! `dependence.edge_pairs`, for a fixed kernel list.
//!
//! This lives in its own test binary with a single test: the counters
//! are process-wide, so any concurrently running test inside the same
//! binary would pollute the deltas.

use looprag::looprag_dependence::{analyze_with, analyze_with_reference, AnalysisConfig};
use looprag::looprag_polyopt::{optimize, PolyOptions};
use looprag::looprag_suites::find;
use looprag::looprag_trace::metrics;

const KERNELS: [&str; 6] = ["gemm", "atax", "jacobi-2d", "s235", "s1115", "lore_conv1d"];

/// `(analyses, instances traced)` and the instance pairs folded into
/// edges during `run`.
fn deltas(run: impl FnOnce()) -> ((u64, u64), u64) {
    let before = metrics().snapshot();
    run();
    let after = metrics().snapshot();
    let delta = |name| after.counter(name) - before.counter(name);
    (
        (
            delta("dependence.analyses"),
            delta("dependence.instances_traced"),
        ),
        delta("dependence.edge_pairs"),
    )
}

#[test]
fn work_unit_counters_are_pinned() {
    let programs: Vec<_> = KERNELS
        .iter()
        .map(|k| find(k).unwrap_or_else(|| panic!("no kernel {k}")).program())
        .collect();
    let cfg = AnalysisConfig::default();

    // Each call adds one analysis, its traced-instance count and the
    // instance pairs its edges count.
    let mut counted = 0;
    let direct = deltas(|| {
        for p in &programs {
            counted += analyze_with(p, &cfg)
                .deps
                .iter()
                .map(|d| d.count)
                .sum::<u64>();
        }
    });
    assert_eq!(direct, ((6, 1954), 11_782));
    assert_eq!(counted, direct.1);

    // A starved budget counts only the instances actually traced.
    let starved = AnalysisConfig {
        instance_budget: 40,
        ..cfg.clone()
    };
    let truncated = deltas(|| {
        for p in &programs {
            assert!(analyze_with(p, &starved).truncated);
        }
    });
    assert_eq!(truncated, ((6, 240), 324));

    // The reference oracle is not metered.
    let reference = deltas(|| {
        for p in &programs {
            analyze_with_reference(p, &cfg);
        }
    });
    assert_eq!(reference, ((0, 0), 0));

    // The polyhedral optimizer analyzes each program version once, not
    // once per pass or loop path that asks about it.
    let opts = PolyOptions::default();
    let polyopt = deltas(|| {
        for p in &programs {
            optimize(p, &opts);
        }
    });
    assert_eq!(polyopt.0, (24, 1317436));
}

//! Pins the cost engine's work-unit counters,
//! `cost.instances_simulated`, `cost.accesses_simulated` and
//! `cost.walks`, for a fixed kernel list, and shows they do not depend
//! on the pool size.
//!
//! This lives in its own test binary with a single test: the counters
//! are process-wide, so any concurrently running test inside the same
//! binary would pollute the deltas.

use looprag::looprag_machine::{estimate_cost_reference, CostEngine, MachineConfig};
use looprag::looprag_runtime::par_map;
use looprag::looprag_suites::find;
use looprag::looprag_trace::metrics;
use looprag::looprag_transform::parallelize;

/// `jacobi-2d` and `seidel-2d` have body-invariant time loops that the
/// steady-state memoizer fast-forwards; the rest are simulated in full.
const KERNELS: [&str; 6] = [
    "gemm",
    "atax",
    "jacobi-2d",
    "seidel-2d",
    "s235",
    "lore_conv1d",
];

/// The instances and accesses simulated while `run` runs.
fn deltas(run: impl FnOnce()) -> (u64, u64) {
    let (instances, accesses, _) = work(run);
    (instances, accesses)
}

/// The instances and accesses simulated and the walks run while `run`
/// runs.
fn work(run: impl FnOnce()) -> (u64, u64, u64) {
    let before = metrics().snapshot();
    run();
    let after = metrics().snapshot();
    let delta = |name| after.counter(name) - before.counter(name);
    (
        delta("cost.instances_simulated"),
        delta("cost.accesses_simulated"),
        delta("cost.walks"),
    )
}

#[test]
fn work_unit_counters_are_pinned_and_pool_size_invariant() {
    let programs: Vec<_> = KERNELS
        .iter()
        .map(|k| find(k).unwrap_or_else(|| panic!("no kernel {k}")).program())
        .collect();
    let cfg = MachineConfig::gcc();

    // Pool size 1: one fresh estimate per (distinct) kernel.
    let engine = CostEngine::new();
    let mut reports = Vec::new();
    let serial = deltas(|| {
        for p in &programs {
            reports.push(engine.estimate(p, &cfg).unwrap());
        }
    });
    // Elided line-run accesses are counted as L1 hits in the reports
    // but are not simulated, so they are not in the access count.
    assert_eq!(serial, (17_843_328, 10_981_888));
    let stats = engine.stats();
    assert_eq!(
        (stats.instances_simulated, stats.accesses_simulated),
        serial,
        "engine stats mirror the registry"
    );
    assert_eq!(stats.walks, KERNELS.len() as u64);

    // Replayed iterations and elided line runs are reported but not
    // simulated.
    let reported_instances: u64 = reports.iter().map(|r| r.instances).sum();
    let reported_accesses: u64 = reports
        .iter()
        .map(|r| r.l1_hits + r.l2_hits + r.mem_accesses)
        .sum();
    assert!(
        stats.steady_loops > 0,
        "no kernel fast-forwarded: {stats:?}"
    );
    assert!(
        serial.0 < reported_instances,
        "{serial:?} vs {reported_instances}"
    );
    assert!(
        serial.1 < reported_accesses,
        "{serial:?} vs {reported_accesses}"
    );

    // Cache hits and the reference oracle simulate nothing the counters
    // see.
    let repeat = deltas(|| {
        for p in &programs {
            engine.estimate(p, &cfg).unwrap();
            estimate_cost_reference(p, &cfg).unwrap();
        }
    });
    assert_eq!(repeat, (0, 0));

    // Each kernel parallelized at its first loop is priced from the
    // walk record of the original: no walk, nothing simulated.
    let marked: Vec<_> = programs
        .iter()
        .map(|p| parallelize(p, &[0]).expect("a top-level loop"))
        .collect();
    let priced = work(|| {
        for p in &marked {
            let r = engine.estimate(p, &cfg);
            assert_eq!(r, estimate_cost_reference(p, &cfg));
        }
    });
    assert_eq!(priced, (0, 0, 0));
    assert_eq!(engine.stats().walks, KERNELS.len() as u64);

    // The same work at pool sizes 1, 2 and 8 on a fresh engine.
    for threads in [1usize, 2, 8] {
        let engine = CostEngine::new();
        let pooled = deltas(|| {
            par_map(threads, &programs, |_, p| engine.estimate(p, &cfg).unwrap());
        });
        assert_eq!(pooled, serial, "pool size {threads}");
    }
}

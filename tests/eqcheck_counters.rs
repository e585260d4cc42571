//! Pins difftest's work-unit counter, `eqcheck.ground_truth_runs` (one
//! per sweep of the original over the suite), for one prepared target,
//! and shows it does not depend on the pool size.
//!
//! This lives in its own test binary with a single test: the counters
//! are process-wide, so any concurrently running test inside the same
//! binary would pollute the deltas.

use looprag::looprag_eqcheck::{
    differential_test_reference, EqCheckConfig, PreparedTarget, TestVerdict,
};
use looprag::looprag_ir::{adaptive_sampling_cap, compile, Program};
use looprag::looprag_runtime::par_map;
use looprag::looprag_trace::metrics;
use looprag::looprag_transform::{parallelize, tile_band};

const GEMM: &str = "param N = 64;\narray C[N][N];\narray A[N][N];\narray B[N][N];\nout C;\n#pragma scop\nfor (i = 0; i <= N - 1; i++) for (j = 0; j <= N - 1; j++) for (k = 0; k <= N - 1; k++) C[i][j] += A[i][k] * B[k][j];\n#pragma endscop\n";

fn ground_truth_runs(run: impl FnOnce()) -> u64 {
    let before = metrics().snapshot();
    run();
    let after = metrics().snapshot();
    after.counter("eqcheck.ground_truth_runs") - before.counter("eqcheck.ground_truth_runs")
}

#[test]
fn ground_truth_runs_once_per_sampling_cap_at_any_pool_size() {
    let cfg = EqCheckConfig::default();
    let gemm = compile(GEMM, "gemm").unwrap();
    let tile = |size| tile_band(&gemm, &[0], 3, size).unwrap();
    // Tiles of 8 and 16 widen the original's cap to two distinct values,
    // each three times; the untiled candidates stay at the original's.
    let candidates: Vec<Program> = vec![
        tile(8),
        tile(16),
        gemm.clone(),
        parallelize(&tile(8), &[0]).unwrap(),
        tile(16),
        parallelize(&gemm, &[0]).unwrap(),
        tile(8),
        parallelize(&tile(16), &[0]).unwrap(),
    ];
    let cap = |p: &Program| adaptive_sampling_cap(p, cfg.param_cap, 400_000.0);
    let mut caps: Vec<i64> = candidates.iter().map(|c| cap(c).max(cap(&gemm))).collect();
    caps.sort_unstable();
    caps.dedup();
    assert_eq!(caps.len(), 3, "caps {caps:?}");

    let mut first: Option<Vec<TestVerdict>> = None;
    for threads in [1usize, 2, 8] {
        let mut verdicts = Vec::new();
        let runs = ground_truth_runs(|| {
            let prepared = PreparedTarget::prepare(&gemm, &cfg);
            verdicts = par_map(threads, &candidates, |_, c| {
                prepared.differential_test(c, &cfg)
            });
        });
        // One sweep at `prepare`, one per widened cap.
        assert_eq!(runs, 3, "pool size {threads}");
        match &first {
            None => first = Some(verdicts),
            Some(f) => assert_eq!(&verdicts, f, "pool size {threads}"),
        }
    }
    let verdicts = first.unwrap();
    assert!(
        verdicts.iter().all(|v| *v == TestVerdict::Pass),
        "{verdicts:?}"
    );

    // The reference oracle runs no batched sweep.
    let reference = ground_truth_runs(|| {
        let prepared = PreparedTarget::prepare(&gemm, &cfg);
        for c in &candidates {
            let v = differential_test_reference(&gemm, c, prepared.suite(), &cfg);
            assert_eq!(v, TestVerdict::Pass);
        }
    });
    assert_eq!(reference, 1, "only the preparation sweep");
}

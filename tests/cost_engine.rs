//! Bitwise pin of the memoizing [`CostEngine`] against the reference
//! cost model, across every suite kernel, tiled and parallelized
//! variants, randomly synthesized programs, starved instance budgets,
//! a non-power-of-two cache geometry, and concurrent use.
//!
//! The engine's contract is *bit-for-bit* equality with
//! [`estimate_cost_reference`]: identical `cycles` and breakdown
//! mantissas, identical hit/miss counters, and identical
//! budget-exhaustion errors — whether a report comes from a fresh
//! simulation, a steady-state replay, or the cross-stage cache. These
//! tests hard-assert that contract; any drift is a correctness bug,
//! not a tolerance question.

use looprag::looprag_ir::{compile, loop_paths, parse_program, Program};
use looprag::looprag_machine::{
    estimate_cost_reference, CacheGeometry, CostEngine, CostError, CostReport, MachineConfig,
};
use looprag::looprag_runtime::par_map;
use looprag::looprag_suites::{all_benchmarks, find};
use looprag::looprag_synth::{generate_example, LoopParams};
use looprag::looprag_transform::{parallelize, shift, tile_band};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Renders a cost result as a bit-exact string: `f64`s via `to_bits`
/// (so `-0.0` vs `0.0` and NaN payloads are distinguished, unlike
/// `PartialEq`), counters and errors verbatim.
fn bits(r: &Result<CostReport, CostError>) -> String {
    match r {
        Ok(r) => format!(
            "{:016x}|{:016x},{:016x},{:016x},{:016x},{:016x}|{}|{}|{}|{}|{:?}|{}",
            r.cycles.to_bits(),
            r.breakdown.alu.to_bits(),
            r.breakdown.l1.to_bits(),
            r.breakdown.l2.to_bits(),
            r.breakdown.mem.to_bits(),
            r.breakdown.ovh.to_bits(),
            r.instances,
            r.l1_hits,
            r.l2_hits,
            r.mem_accesses,
            r.vectorized,
            r.parallel_entries,
        ),
        Err(e) => format!("err:{e:?}"),
    }
}

/// A gcc-shaped config with a starved instance budget, so simulation
/// aborts mid-program (often mid-replay) with `InstanceBudget`.
fn starved(budget: u64) -> MachineConfig {
    let mut cfg = MachineConfig::gcc();
    cfg.instance_budget = budget;
    cfg
}

/// Golden pin: every suite kernel, fresh estimate AND cache hit, both
/// bit-identical to the reference model.
#[test]
fn all_suite_kernels_pin_to_reference() {
    let cfg = MachineConfig::gcc();
    let engine = CostEngine::new();
    let kernels = all_benchmarks();
    assert!(
        kernels.len() >= 134,
        "suite shrank to {} kernels",
        kernels.len()
    );
    for b in &kernels {
        let p = b.program();
        let expect = bits(&estimate_cost_reference(&p, &cfg));
        let fresh = bits(&engine.estimate(&p, &cfg));
        assert_eq!(
            fresh, expect,
            "{}/{}: fresh estimate drifted",
            b.suite, b.name
        );
        let hit = bits(&engine.estimate(&p, &cfg));
        assert_eq!(hit, expect, "{}/{}: cache hit drifted", b.suite, b.name);
    }
    let stats = engine.stats();
    // A few suite kernels share a printed form, so the "fresh" pass
    // already hits the cache for the duplicates; only the totals are
    // exact.
    assert_eq!(
        stats.cost_hits + stats.cost_misses,
        2 * kernels.len() as u64
    );
    assert!(stats.cost_misses <= kernels.len() as u64);
    assert!(stats.cost_hits >= kernels.len() as u64);
    assert!(
        stats.steady_loops > 0,
        "no kernel triggered steady-state replay: {stats:?}"
    );
    assert!(stats.iters_replayed > 0, "replay advanced zero iterations");
}

/// Budget exhaustion must surface at the exact same statement instance
/// as the reference — including when the budget runs out inside a
/// fast-forwarded region.
#[test]
fn starved_budgets_pin_to_reference() {
    for budget in [1_000, 20_000, 300_000] {
        let cfg = starved(budget);
        let engine = CostEngine::new();
        let mut errs = 0usize;
        for (i, b) in all_benchmarks().iter().enumerate() {
            if i % 8 != 0 {
                continue;
            }
            let p = b.program();
            let expect = estimate_cost_reference(&p, &cfg);
            if expect.is_err() {
                errs += 1;
            }
            assert_eq!(
                bits(&engine.estimate(&p, &cfg)),
                bits(&expect),
                "{}/{} at budget {budget}",
                b.suite,
                b.name
            );
        }
        assert!(errs > 0, "budget {budget} starved no sampled kernel");
    }
}

/// `p` tiled at size `size`: its outer band two deep where the nest
/// allows, else one.
fn tile(p: &Program, size: i64) -> Option<Program> {
    tile_band(p, &[0], 2, size)
        .or_else(|_| tile_band(p, &[0], 1, size))
        .ok()
}

/// `p` with each of its loops marked parallel alone, then with each
/// pair of them marked.
fn mark_variants(p: &Program) -> Vec<Program> {
    let paths = loop_paths(&p.body);
    let mut out: Vec<Program> = paths
        .iter()
        .filter_map(|a| parallelize(p, a).ok())
        .collect();
    for (i, a) in paths.iter().enumerate() {
        for b in &paths[i + 1..] {
            out.extend(parallelize(p, a).and_then(|v| parallelize(&v, b)).ok());
        }
    }
    out
}

/// `jacobi-2d`, whose body-invariant time loop takes the steady-state
/// path, and the same kernel with its two nests under guards.
fn jacobi_and_shifted() -> [(String, Program); 2] {
    let jacobi = find("jacobi-2d").expect("jacobi-2d").program();
    let shifted = shift(&jacobi, &[0], 1, 1).expect("shift jacobi-2d");
    [
        ("jacobi-2d".into(), jacobi),
        ("jacobi-2d/shifted".into(), shifted),
    ]
}

/// Forms whose unmarked reference simulates more statement instances
/// than this are pinned at the starved budget only: the reference walk
/// of each of their variants takes seconds. (The full sweep passed at
/// both budgets when this test was written.)
const FULL_BUDGET_INSTANCES: u64 = 600_000;

/// Marked forms are priced from the walk record of the unmarked
/// program when their outermost marks sit at depth 0 or 1, and walked
/// otherwise (deeper marks, marks under a body-invariant time loop or
/// under a guard). Per kernel form and machine, one engine estimates the
/// unmarked program and then every mark variant; a fresh engine takes
/// the variants in reverse, so its first marked request builds the
/// record. Every report must equal the reference bit for bit.
#[test]
fn parallel_marks_pin_to_reference() {
    let mut kernels = kernel_stride(3);
    kernels.extend(jacobi_and_shifted());
    let (mut priced, mut walked) = (0u64, 0u64);
    for (name, p) in kernels {
        let forms = [Some(p.clone()), tile(&p, 4), tile(&p, 32)];
        for (f, form) in forms.into_iter().enumerate() {
            let Some(form) = form else { continue };
            let variants = mark_variants(&form);
            // Untiled jacobi-2d runs at both budgets: the steady-state
            // refusal needs a walk that completes.
            let full = (name == "jacobi-2d" && f == 0)
                || estimate_cost_reference(&form, &starved(FULL_BUDGET_INSTANCES)).is_ok();
            let cfgs = [Some(starved(20_000)), full.then(MachineConfig::gcc)];
            for cfg in cfgs.into_iter().flatten() {
                let base = bits(&estimate_cost_reference(&form, &cfg));
                let expect: Vec<String> = variants
                    .iter()
                    .map(|v| bits(&estimate_cost_reference(v, &cfg)))
                    .collect();
                let engine = CostEngine::new();
                assert_eq!(bits(&engine.estimate(&form, &cfg)), base, "{name}");
                for (i, v) in variants.iter().enumerate() {
                    let got = bits(&engine.estimate(v, &cfg));
                    assert_eq!(got, expect[i], "{name}: variant {i}");
                }
                let forward = engine.stats();
                let engine = CostEngine::new();
                for (i, v) in variants.iter().enumerate().rev() {
                    let got = bits(&engine.estimate(v, &cfg));
                    assert_eq!(got, expect[i], "{name}: variant {i}, reversed");
                }
                assert_eq!(bits(&engine.estimate(&form, &cfg)), base, "{name}");
                for stats in [forward, engine.stats()] {
                    // One walk of the unmarked program, then one per
                    // variant that was not priced.
                    let marked_walks = stats.walks - 1;
                    priced += variants.len() as u64 - marked_walks;
                    walked += marked_walks;
                }
            }
        }
    }
    assert!(
        priced > 1000 && walked > 100,
        "{priced} priced, {walked} walked"
    );
}

/// One shared engine queried from pools of 1, 2, and 8 workers must
/// produce the same bit-exact report vector every time — concurrency
/// (and who wins the compute race on a shared miss) must not leak into
/// results.
#[test]
fn shared_engine_is_deterministic_across_pool_sizes() {
    let cfg = MachineConfig::gcc();
    let programs: Vec<_> = all_benchmarks()
        .iter()
        .enumerate()
        .filter(|(i, _)| i % 5 == 0)
        .flat_map(|(_, b)| {
            let p = b.program();
            // Mark variants of the lighter kernels race their
            // unmarked program's walk record.
            let light = estimate_cost_reference(&p, &starved(FULL_BUDGET_INSTANCES)).is_ok();
            let variants = if light { mark_variants(&p) } else { Vec::new() };
            [p.clone(), p].into_iter().chain(variants) // duplicates force cache-hit/miss races
        })
        .collect();
    let expect: Vec<String> = programs
        .iter()
        .map(|p| bits(&estimate_cost_reference(p, &cfg)))
        .collect();
    for threads in [1usize, 2, 8] {
        let engine = CostEngine::new();
        let got = par_map(threads, &programs, |_, p| bits(&engine.estimate(p, &cfg)));
        assert_eq!(got, expect, "pool size {threads} drifted");
        assert!(engine.stats().cost_hits + engine.stats().cost_misses >= programs.len() as u64);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Synthesized programs (arbitrary nest shapes, strides, and
    /// access patterns) pin under both a normal and a starved budget.
    #[test]
    fn synthesized_programs_pin_to_reference(seed in 0u64..500) {
        let mut rng = StdRng::seed_from_u64(seed);
        let params = LoopParams::sample(&mut rng);
        if let Some(p) = generate_example(&params, 0, &mut rng) {
            for cfg in [MachineConfig::gcc(), starved(2_000)] {
                let engine = CostEngine::new();
                let expect = bits(&estimate_cost_reference(&p, &cfg));
                prop_assert_eq!(&bits(&engine.estimate(&p, &cfg)), &expect);
                // Cache hit must replay the identical result, Ok or Err.
                prop_assert_eq!(&bits(&engine.estimate(&p, &cfg)), &expect);
            }
        }
    }
}

/// A few suite kernels, every `stride`-th one.
fn kernel_stride(stride: usize) -> Vec<(String, Program)> {
    all_benchmarks()
        .iter()
        .enumerate()
        .filter(|(i, _)| i % stride == 0)
        .map(|(_, b)| (format!("{}/{}", b.suite, b.name), b.program()))
        .collect()
}

/// Pins a fresh estimate and a cache hit of `p` to the reference.
fn pin(engine: &CostEngine, name: &str, p: &Program, cfg: &MachineConfig) {
    let expect = bits(&estimate_cost_reference(p, cfg));
    assert_eq!(bits(&engine.estimate(p, cfg)), expect, "{name}: fresh");
    assert_eq!(bits(&engine.estimate(p, cfg)), expect, "{name}: cache hit");
}

/// The shapes the integer-exact leaf path runs on: tiled nests (short
/// leaf loops under `min`/`max`/`floord` bounds, so fractional vector
/// factors) and parallelized nests, at a normal and a starved budget.
#[test]
fn tiled_and_parallelized_kernels_pin_to_reference() {
    let mut variants = 0usize;
    for (name, p) in kernel_stride(6) {
        let shapes = [
            ("tile4", tile(&p, 4)),
            ("tile32", tile(&p, 32)),
            ("par", parallelize(&p, &[0]).ok()),
        ];
        for (shape, v) in shapes {
            let Some(v) = v else { continue };
            variants += 1;
            for cfg in [MachineConfig::gcc(), starved(20_000)] {
                pin(&CostEngine::new(), &format!("{name}/{shape}"), &v, &cfg);
            }
        }
    }
    assert!(variants >= 50, "only {variants} transformed variants");
}

/// A machine whose L1 and L2 set counts are not powers of two (12 and
/// 48 sets): the flat simulator's division fallback for set and tag.
#[test]
fn non_power_of_two_cache_geometry_pins_to_reference() {
    let mut cfg = MachineConfig::gcc();
    cfg.l1 = CacheGeometry {
        size_bytes: 3072,
        line_bytes: 64,
        assoc: 4,
    };
    cfg.l2 = CacheGeometry {
        size_bytes: 24576,
        line_bytes: 64,
        assoc: 8,
    };
    assert_eq!((cfg.l1.sets(), cfg.l2.sets()), (12, 48));
    let engine = CostEngine::new();
    for (name, p) in kernel_stride(7) {
        pin(&engine, &name, &p, &cfg);
        if let Ok(t) = tile_band(&p, &[0], 2, 8) {
            pin(&engine, &format!("{name}/tile8"), &t, &cfg);
        }
    }
}

/// Array extents whose byte layout overflows 64 bits are a clean
/// `CostError::Overflow` on both paths — not an overflow panic (debug)
/// or a wrapped, meaningless address (release). `compile` rejects such
/// declarations, so the programs are only parsed: the cost model must
/// stay safe on unvalidated input too.
#[test]
fn layout_overflow_is_a_clean_error_on_both_paths() {
    let sources = [
        "param N = 4000000000;\narray A[N][N][N];\nout A;\n#pragma scop\nfor (i = 0; i <= 3; i++) A[i][i][i] = A[i][i][i] + 1.0;\n#pragma endscop\n",
        "param N = 9223372036854775807;\narray A[N];\nout A;\n#pragma scop\nfor (i = 0; i <= 3; i++) A[i] = A[i] + 1.0;\n#pragma endscop\n",
    ];
    let cfg = MachineConfig::gcc();
    for src in sources {
        let err = compile(src, "huge").unwrap_err().to_string();
        assert!(err.contains("array 'A' is too large"), "{err}");
        let p = parse_program(src, "huge").unwrap();
        for r in [
            estimate_cost_reference(&p, &cfg),
            CostEngine::new().estimate(&p, &cfg),
        ] {
            match r {
                Err(e @ CostError::Overflow(_)) => {
                    assert!(e.to_string().contains("array 'A'"), "{e}")
                }
                other => panic!("expected an overflow error, got {other:?}"),
            }
        }
    }
}

/// Pins `src` (parsed, not validated, so out-of-range subscripts stay
/// in) and its depth-2 tiles of 4 and 8 where the nest allows them, on
/// a fresh engine under `cfg`.
fn pin_with_tiles(name: &str, src: &str, cfg: &MachineConfig) {
    let p = parse_program(src, name).unwrap();
    pin(&CostEngine::new(), name, &p, cfg);
    for size in [4, 8] {
        if let Ok(t) = tile_band(&p, &[0], 2, size) {
            pin(&CostEngine::new(), &format!("{name}/tile{size}"), &t, cfg);
        }
    }
}

/// The line-run elision's edge cases: short tiled point loops over one
/// element (the tile-4 and tile-8 probe shapes), subscripts that walk
/// backwards or run past either end of their array, and an exhausted
/// budget at a leaf that would elide.
#[test]
fn line_run_edge_cases_pin_to_reference() {
    // A triple nest over a one-element array, tiled three deep. At
    // `N = 1000` it would simulate 10^9 instances, so the starved
    // budget ends it early; `N = 40` runs to completion.
    let probe = |n: i64| {
        format!("param N = {n};\narray A[1];\nout A;\n#pragma scop\nfor (i = 0; i <= N - 1; i++) for (j = 0; j <= N - 1; j++) for (k = 0; k <= N - 1; k++) A[0] = A[0] + 1.0;\n#pragma endscop\n")
    };
    for (n, budget) in [(1000, 300_000), (40, 120_000_000)] {
        let p = compile(&probe(n), "probe").unwrap();
        for size in [4, 8] {
            let t = tile_band(&p, &[0], 3, size).unwrap();
            pin(
                &CostEngine::new(),
                &format!("probe N={n} tile{size}"),
                &t,
                &starved(budget),
            );
        }
    }

    let gcc = MachineConfig::gcc();
    // Negative coefficients: cursors that move down their lines.
    let reversed = "param N = 200;\narray A[N][N];\narray B[N];\narray C[N];\nout A;\n#pragma scop\nfor (i = 0; i <= N - 1; i++) for (j = 0; j <= N - 1; j++) A[N - 1 - i][N - 1 - j] = A[N - 1 - i][N - 1 - j] + B[N - 1 - j] * C[j];\n#pragma endscop\n";
    // Subscripts past the end and before the start of their arrays:
    // clamped cursors, some of which walk back into range.
    let clamped = "param N = 100;\narray A[N];\narray B[N];\narray C[N];\nout A;\n#pragma scop\nfor (i = 0; i <= N - 1; i++) for (j = 0; j <= N + 20; j++) A[j] = A[j] + B[j - 30] + C[2 * j + 7];\n#pragma endscop\n";
    // Point loops of five trips that start half-way into a line, so
    // the last trip is the first on a line nothing else touches.
    let partial = "param N = 64;\narray A[N][16];\narray B[N][16];\nout A;\n#pragma scop\nfor (i = 0; i <= N - 1; i++) for (j = 0; j <= 4; j++) A[i][j + 4] = A[i][j + 4] + B[i][11 - j];\n#pragma endscop\n";
    for (name, src) in [
        ("reversed", reversed),
        ("clamped", clamped),
        ("partial", partial),
    ] {
        pin_with_tiles(name, src, &gcc);
    }

    // An exhausted budget: in the first leaf execution, mid-way through
    // the nest, and in the second statement of a two-statement leaf.
    let unit = "param N = 300;\narray A[N][N];\narray B[N];\nout A;\n#pragma scop\nfor (i = 0; i <= N - 1; i++) for (j = 0; j <= N - 1; j++) { A[i][j] = A[i][j] + B[j]; B[j] = B[j] * 0.5; }\n#pragma endscop\n";
    for budget in [1, 299, 601, 45_000, 179_999, 180_000] {
        pin_with_tiles("unit", unit, &starved(budget));
    }
}

/// Five arrays spaced exactly one L1 way (1 KiB) apart, so all five
/// unit-stride cursors share an L1 set: one iteration puts five
/// distinct lines into a 4-way set, each access evicts the next, and
/// the associativity check must refuse the run.
#[test]
fn line_runs_over_a_thrashed_set_pin_to_reference() {
    let cfg = MachineConfig::gcc();
    assert_eq!(
        cfg.l1.size_bytes / cfg.l1.assoc,
        1024,
        "the arrays must be one L1 way apart"
    );
    // 120 elements are 960 bytes, laid out with a 64-byte guard.
    let src = "param N = 120;\narray A[N];\narray B[N];\narray C[N];\narray D[N];\narray E[N];\nout A;\n#pragma scop\nfor (t = 0; t <= 3; t++) for (i = 0; i <= N - 1; i++) A[i] = B[i] + C[i] + D[i] + E[i];\n#pragma endscop\n";
    let p = compile(src, "thrash").unwrap();
    let engine = CostEngine::new();
    pin(&engine, "thrash", &p, &cfg);
    let r = engine.estimate(&p, &cfg).unwrap();
    assert_eq!(r.l1_hits, 0, "every access should miss L1: {r:?}");
    // Four of the five arrays fit one set, so runs form there.
    let four = src.replace(" + E[i]", "");
    let p = compile(&four, "four").unwrap();
    pin(&engine, "four", &p, &cfg);
    assert!(engine.estimate(&p, &cfg).unwrap().l1_hits > 0);
}

/// A 96-byte L1 line: lines are not a power of two in size, so the
/// offsets the run lengths start from come from division, and
/// line-aligned arrays straddle lines at varying offsets.
#[test]
fn line_runs_on_a_non_power_of_two_line_pin_to_reference() {
    let mut cfg = MachineConfig::gcc();
    cfg.l1 = CacheGeometry {
        size_bytes: 6144,
        line_bytes: 96,
        assoc: 4,
    };
    assert_eq!(cfg.l1.sets(), 16);
    let engine = CostEngine::new();
    for (name, p) in kernel_stride(9) {
        pin(&engine, &name, &p, &cfg);
        if let Ok(t) = tile_band(&p, &[0], 2, 4) {
            pin(&engine, &format!("{name}/tile4"), &t, &cfg);
        }
    }
    let stream = "param N = 1000;\narray A[N];\narray B[N];\nout A;\n#pragma scop\nfor (i = 1; i <= N - 2; i++) A[i] = B[i - 1] + B[i + 1];\n#pragma endscop\n";
    pin_with_tiles("stream", stream, &cfg);
}

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

use looprag::looprag_ir::{compile, parse_program, Program};
use looprag::looprag_machine::{
    estimate_cost_reference, CacheGeometry, CostEngine, CostError, CostReport, MachineConfig,
};
use looprag::looprag_runtime::par_map;
use looprag::looprag_suites::all_benchmarks;
use looprag::looprag_synth::{generate_example, LoopParams};
use looprag::looprag_transform::{parallelize, tile_band};
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
            [p.clone(), p] // duplicates force cache-hit/miss races
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
    // Tile the outer band two deep where the nest allows, else one.
    let tile = |p: &Program, size| {
        tile_band(p, &[0], 2, size)
            .or_else(|_| tile_band(p, &[0], 1, size))
            .ok()
    };
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

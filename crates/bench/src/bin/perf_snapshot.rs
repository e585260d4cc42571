//! `perf_snapshot` — the committed performance snapshots.
//!
//! Each row of [`ROWS`] answers one question and writes one committed
//! `BENCH_*.json` file: the shared meta block (schema version, host
//! cores, mode) followed by the row's fields. A row first pins its fast
//! path against the reference it replaces; those pins are hard asserts
//! in every mode. Then it times both, and its gates fail a full run.
//! `--quick` shrinks corpora, strides and sample counts so CI can keep
//! the bin from bit-rotting; in quick mode a missed gate only warns.
//! The committed files come from one full run on one host.
//!
//! | section | file | pins (every mode) | gates (full mode) |
//! |---|---|---|---|
//! | `interp` | `BENCH_interp.json` | batched `differential_test` = `differential_test_reference` over a strided sweep (originals and parallelized candidates); tiled gemm and its prepared, parallelized form pass; `CostEngine` = `estimate_cost_reference` bit for bit (fresh and cached, normal and starved budgets) over strided kernels and their parallelized and tiled forms; every strided kernel passes its self-test; campaign results identical at 1 and N threads | difftest ≥ 3x, cost engine ≥ 3x, campaign ≥ 2x (hosts with ≥ 4 cores only) |
//! | `retrieval` | `BENCH_retrieval.json` | `KnowledgeBase` rankings = the seed `Retriever`'s over a strided sweep in three modes | knowledge base ≥ 3x single-threaded |
//! | `search` | `BENCH_search.json` | engine = `search_reference` (result fingerprint, admitted count) on a strided TSVC frontier | search ≥ 3x single-threaded |
//! | `serve` | `BENCH_serve.json` | warm Zipf phase all memo hits with the cold payloads and no LLM or search work; snapshot → restore → replay byte-identical | warm hit ≥ 20x cheaper than a cold miss |
//! | `trace` | `BENCH_trace.json` | pipeline, search and serve event streams identical at pool sizes 1/2/8 with untraced outcomes; canonical JSON round-trips; Chrome export parses | disabled span path ≤ 20 ns/site |
//!
//! Usage: `perf_snapshot [--quick] [--out-dir DIR] [SECTION...]`. No
//! section runs every row; files go to `DIR` (default: the working
//! directory, which must exist). An unknown flag or section prints the
//! usage line and exits 2 before anything runs; a missed full-mode gate
//! exits 1 after every selected row has written its file.

use looprag_bench::{run_campaign, snapshot_meta};
use looprag_core::{LoopRag, LoopRagConfig};
use looprag_eqcheck::{
    build_test_suite, differential_test, differential_test_reference, EqCheckConfig,
    PreparedTarget, TestVerdict,
};
use looprag_ir::Program;
use looprag_llm::LlmProfile;
use looprag_machine::{estimate_cost_reference, CostEngine, CostError, CostReport, MachineConfig};
use looprag_retrieval::{KnowledgeBase, RetrievalMode, Retriever};
use looprag_search::{search_reference, search_with_engine, SearchConfig, SearchStats};
use looprag_suites::{all_benchmarks, Benchmark, Suite};
use looprag_synth::{build_dataset, generate_example, LoopParams, SynthConfig};
use looprag_transform::{parallelize, tile_band};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt::Display;
use std::path::PathBuf;
use std::time::Instant;

/// One committed snapshot: its section name, output file and run
/// function.
struct Row {
    section: &'static str,
    file: &'static str,
    run: fn(&Ctx) -> Report,
}

const ROWS: [Row; 5] = [
    Row {
        section: "interp",
        file: "BENCH_interp.json",
        run: interp,
    },
    Row {
        section: "retrieval",
        file: "BENCH_retrieval.json",
        run: retrieval,
    },
    Row {
        section: "search",
        file: "BENCH_search.json",
        run: search,
    },
    Row {
        section: "serve",
        file: "BENCH_serve.json",
        run: serve,
    },
    Row {
        section: "trace",
        file: "BENCH_trace.json",
        run: trace,
    },
];

const USAGE: &str = "usage: perf_snapshot [--quick] [--out-dir DIR] [SECTION...] \
                     (sections: interp retrieval search serve trace)";

/// The run mode every row reads.
struct Ctx {
    quick: bool,
}

impl Ctx {
    /// `quick` in quick mode, `full` otherwise.
    fn pick<T>(&self, quick: T, full: T) -> T {
        if self.quick {
            quick
        } else {
            full
        }
    }

    /// Median ns/iter over 9 timed samples (3 in quick mode), the
    /// iteration count auto-scaled to roughly 40 ms (5 ms) per sample.
    fn bench_ns<O>(&self, mut f: impl FnMut() -> O) -> f64 {
        let (samples, target_ms) = self.pick((3, 5u128), (9, 40));
        let t0 = Instant::now();
        std::hint::black_box(f());
        let once_ns = t0.elapsed().as_nanos().max(1);
        let iters = ((target_ms * 1_000_000) / once_ns).clamp(1, 100_000) as u32;
        let mut samples: Vec<f64> = (0..samples)
            .map(|_| {
                let start = Instant::now();
                for _ in 0..iters {
                    std::hint::black_box(f());
                }
                start.elapsed().as_nanos() as f64 / iters as f64
            })
            .collect();
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        samples[samples.len() / 2]
    }
}

/// An acceptance gate: `value` must be at least `min`.
struct Gate {
    what: String,
    value: f64,
    min: f64,
    /// A non-binding gate only warns, even in full mode.
    binding: bool,
}

/// What a row measured: its JSON fields, in order, and its gates.
#[derive(Default)]
struct Report {
    fields: Vec<(&'static str, String)>,
    gates: Vec<Gate>,
}

impl Report {
    fn num(&mut self, name: &'static str, value: impl Display) {
        self.fields.push((name, value.to_string()));
    }

    fn fixed(&mut self, name: &'static str, value: f64, decimals: usize) {
        self.fields.push((name, format!("{value:.decimals$}")));
    }

    fn gate(&mut self, what: impl Into<String>, value: f64, min: f64) {
        self.gates.push(Gate {
            what: what.into(),
            value,
            min,
            binding: true,
        });
    }

    /// The snapshot file: the meta block, then the fields.
    fn json(&self, quick: bool) -> String {
        let mut out = format!("{{\n  {}", snapshot_meta(quick));
        for (name, value) in &self.fields {
            out.push_str(&format!(",\n  \"{name}\": {value}"));
        }
        out.push_str("\n}\n");
        out
    }
}

fn elapsed_ms(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

fn host_cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Every `stride`-th kernel across all suites.
fn strided(stride: usize) -> Vec<Benchmark> {
    all_benchmarks().into_iter().step_by(stride).collect()
}

/// A perfectly nested gemm: the dominant kernel shape, and one that
/// tiles cleanly.
fn gemm_nest() -> Program {
    looprag_ir::compile(
        "param N = 64;\narray C[N][N];\narray A[N][N];\narray B[N][N];\nout C;\n#pragma scop\nfor (i = 0; i <= N - 1; i++) for (j = 0; j <= N - 1; j++) for (k = 0; k <= N - 1; k++) C[i][j] += A[i][k] * B[k][j];\n#pragma endscop\n",
        "gemm_nest",
    )
    .expect("gemm nest")
}

/// The `interp` row: the eqcheck and cost-model production paths
/// against their reference oracles, the strided-suite self-test, and
/// the campaign pool's scaling.
fn interp(cx: &Ctx) -> Report {
    let mut r = Report::default();
    difftest(cx, &mut r);
    costmodel(cx, &mut r);
    suite_self_test(cx, &mut r);
    campaign(cx, &mut r);
    r
}

/// Batched `differential_test` pinned to the reference oracle, then
/// both timed on gemm vs tiled gemm, plus the pipeline's per-candidate
/// verdict through a `PreparedTarget`.
fn difftest(cx: &Ctx, r: &mut Report) {
    let eq_cfg = EqCheckConfig::default();
    let mut pinned = 0usize;
    for b in strided(cx.pick(16, 4)) {
        let p = b.program();
        let suite = build_test_suite(&p, &eq_cfg);
        // A parallelized candidate exercises all three iteration orders.
        for cand in std::iter::once(p.clone()).chain(parallelize(&p, &[0]).ok()) {
            assert_eq!(
                differential_test(&p, &cand, &suite, &eq_cfg),
                differential_test_reference(&p, &cand, &suite, &eq_cfg),
                "batched difftest diverged from the reference oracle on {}",
                b.name
            );
            pinned += 1;
        }
    }

    let gemm = gemm_nest();
    let tiled = tile_band(&gemm, &[0], 3, 8).expect("tile gemm");
    let suite = build_test_suite(&gemm, &eq_cfg);
    assert_eq!(
        differential_test(&gemm, &tiled, &suite, &eq_cfg),
        TestVerdict::Pass
    );
    let batched_ns = cx.bench_ns(|| differential_test(&gemm, &tiled, &suite, &eq_cfg));
    let reference_ns = cx.bench_ns(|| differential_test_reference(&gemm, &tiled, &suite, &eq_cfg));
    let speedup = reference_ns / batched_ns;

    // The pipeline's stage-3 shape: one PreparedTarget, a tiled and
    // parallelized candidate (the batched path's worst case: all three
    // iteration orders), a verdict per call.
    let candidate = parallelize(&tiled, &[0]).expect("parallelize tiled gemm");
    let prepared = PreparedTarget::prepare(&gemm, &eq_cfg);
    assert_eq!(
        prepared.differential_test(&candidate, &eq_cfg),
        TestVerdict::Pass
    );
    let prepared_ns = cx.bench_ns(|| prepared.differential_test(&candidate, &eq_cfg));

    r.fixed("difftest_batched_ns", batched_ns, 1);
    r.fixed("difftest_reference_ns", reference_ns, 1);
    r.fixed("difftest_speedup", speedup, 2);
    r.num("difftest_batched_pinned", pinned);
    r.num("difftest_batched_lanes", prepared.suite().inputs.len());
    r.fixed("difftest_batched_prepared_ns", prepared_ns, 1);
    r.gate("difftest speedup (x)", speedup, 3.0);
}

/// Renders every bit of a cost result — f64s via their exact bit
/// patterns — so string equality is bitwise equality of the reports.
fn cost_bits(r: &Result<CostReport, CostError>) -> String {
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

/// The memoizing `CostEngine` pinned bit for bit to
/// `estimate_cost_reference` (including `InstanceBudget` exhaustion
/// under a starved budget), then both timed on the campaign scoring
/// shape: several arms each scoring every kernel's original,
/// parallelized and tiled forms. The engine shares one cache across
/// arms; the reference re-analyzes and re-simulates every call. Each
/// original goes through the engine before its parallelized form, so
/// that form's pin (and its timed estimate) is priced from the
/// original's walk record, not walked.
fn costmodel(cx: &Ctx, r: &mut Report) {
    const ARMS: usize = 3;
    let kernels = strided(cx.pick(16, 4));
    let cfg = MachineConfig::gcc();
    let mut starved = MachineConfig::gcc();
    starved.instance_budget = 20_000;
    let variants: Vec<Vec<Program>> = kernels
        .iter()
        .map(|b| {
            let p = b.program();
            let par = parallelize(&p, &[0]).ok();
            let tiled = tile_band(&p, &[0], 2, 8).ok();
            std::iter::once(p).chain(par).chain(tiled).collect()
        })
        .collect();

    let mut pinned = 0usize;
    let pin_engine = CostEngine::new();
    for (b, programs) in kernels.iter().zip(&variants) {
        for program in programs {
            for machine in [&cfg, &starved] {
                let reference = cost_bits(&estimate_cost_reference(program, machine));
                // The second call is a cache hit and must carry the
                // exact same bits.
                for what in ["fresh", "cached"] {
                    assert_eq!(
                        cost_bits(&pin_engine.estimate(program, machine)),
                        reference,
                        "{what} cost diverged from the reference model on {}",
                        b.name
                    );
                }
                pinned += 1;
            }
        }
    }

    let estimates = ARMS * variants.iter().map(Vec::len).sum::<usize>();
    let engine = CostEngine::new();
    let t0 = Instant::now();
    for _ in 0..ARMS {
        for program in variants.iter().flatten() {
            // Parallel marks change no dependence and nothing the
            // walker simulates: the engine reuses the original's
            // analysis and prices the parallelized form from the
            // original's walk record.
            let _ = std::hint::black_box(engine.estimate(program, &cfg));
        }
    }
    let engine_ms = elapsed_ms(t0);
    let t0 = Instant::now();
    for _ in 0..ARMS {
        for program in variants.iter().flatten() {
            let _ = std::hint::black_box(estimate_cost_reference(program, &cfg));
        }
    }
    let reference_ms = elapsed_ms(t0);
    let speedup = reference_ms / engine_ms.max(1e-9);
    let stats = engine.stats();

    r.num("costmodel_kernels", kernels.len());
    r.num("costmodel_pinned", pinned);
    r.num("costmodel_arms", ARMS);
    r.num("costmodel_estimates", estimates);
    r.fixed("costmodel_engine_ms", engine_ms, 1);
    r.fixed("costmodel_reference_ms", reference_ms, 1);
    r.fixed("costmodel_speedup", speedup, 2);
    r.num("costmodel_cache_hits", stats.cost_hits);
    r.num("costmodel_steady_loops", stats.steady_loops);
    r.num("costmodel_iters_replayed", stats.iters_replayed);
    r.gate("cost-engine speedup (x)", speedup, 3.0);
}

/// Strided-suite wall time: suite building plus a self-differential
/// test per kernel, the eqcheck slice of a pipeline run.
fn suite_self_test(cx: &Ctx, r: &mut Report) {
    let stride = cx.pick(24, 8);
    let eq_cfg = EqCheckConfig::default();
    let kernels = strided(stride);
    let t0 = Instant::now();
    for b in &kernels {
        let p = b.program();
        let s = build_test_suite(&p, &eq_cfg);
        assert_eq!(
            differential_test(&p, &p, &s, &eq_cfg),
            TestVerdict::Pass,
            "{} failed self-test",
            b.name
        );
    }
    let wall_ms = elapsed_ms(t0);
    r.num("suite_stride", stride);
    r.num("suite_kernels", kernels.len());
    r.fixed("suite_wall_ms", wall_ms, 1);
}

/// Full pipeline runs over a strided kernel set, sequential vs the
/// worker pool, each from a cold `CostEngine::global()` so the
/// speedup is parallelism and not a cache the first run warmed. The
/// two runs must be bit-for-bit identical (the runtime's determinism
/// contract).
fn campaign(cx: &Ctx, r: &mut Report) {
    let cores = host_cores();
    let threads = cores.max(4);
    let kernels = strided(cx.pick(32, 16));
    let dataset = build_dataset(&SynthConfig {
        count: cx.pick(12, 40),
        ..Default::default()
    });
    let mut cfg = LoopRagConfig::new(LlmProfile::deepseek());
    // Kernel-level fan-out is the parallelism under test; candidate
    // stages stay sequential inside each worker.
    cfg.threads = 1;
    let rag = LoopRag::new(cfg, dataset);
    let timed = |pool: usize| {
        CostEngine::global().clear();
        let t0 = Instant::now();
        let results = run_campaign(&rag, &kernels, pool);
        (format!("{results:?}"), elapsed_ms(t0))
    };
    let (seq, wall_1t_ms) = timed(1);
    let (par, wall_nt_ms) = timed(threads);
    assert_eq!(
        seq, par,
        "campaign results must be identical at any thread count"
    );
    let speedup = wall_1t_ms / wall_nt_ms;
    r.num("campaign_kernels", kernels.len());
    r.num("campaign_threads", threads);
    r.fixed("campaign_wall_1t_ms", wall_1t_ms, 1);
    r.fixed("campaign_wall_nt_ms", wall_nt_ms, 1);
    r.fixed("campaign_speedup", speedup, 2);
    // A host with fewer than four cores cannot deliver 2x, so there
    // the gate only warns.
    r.gates.push(Gate {
        what: format!("campaign speedup (x) at {threads} threads on {cores} host cores"),
        value: speedup,
        min: 2.0,
        binding: cores >= 4,
    });
}

/// Synthesizes a retrieval corpus of `count` generated programs.
///
/// Goes through the parameter-driven generator directly (no polyhedral
/// optimization pass), because only the example *code* is indexed — this
/// keeps a 10k-document corpus synthesizable in seconds.
fn synth_corpus(count: usize) -> Vec<Program> {
    let mut rng = StdRng::seed_from_u64(0x0C0_2905);
    let mut out = Vec::with_capacity(count);
    while out.len() < count {
        let params = LoopParams::sample(&mut rng);
        if let Some(p) = generate_example(&params, out.len(), &mut rng) {
            out.push(p);
        }
    }
    out
}

/// The `retrieval` row: `KnowledgeBase::query` pinned to the seed
/// `Retriever`'s `(id, score)` rankings bit for bit, then both timed on
/// the pipeline's query shape (LoopAware, top 10, gemm) over a large
/// synthesized corpus. Single-threaded is the gated number, with the
/// sharded path reported alongside.
fn retrieval(cx: &Ctx) -> Report {
    let corpus_docs = cx.pick(1_500, 10_000);
    let corpus = synth_corpus(corpus_docs);
    let t0 = Instant::now();
    let retriever = Retriever::build(corpus.iter().enumerate());
    let seed_build_ms = elapsed_ms(t0);
    let t0 = Instant::now();
    let kb = KnowledgeBase::build(corpus.iter().enumerate());
    let kb_build_ms = elapsed_ms(t0);

    let bits = |ranking: Vec<(usize, f64)>| -> Vec<(usize, u64)> {
        ranking
            .into_iter()
            .map(|(id, s)| (id, s.to_bits()))
            .collect()
    };
    let mut pinned = 0usize;
    for b in strided(cx.pick(16, 4)) {
        let target = b.program();
        for mode in [
            RetrievalMode::LoopAware,
            RetrievalMode::Bm25Only,
            RetrievalMode::WeightedOnly,
        ] {
            assert_eq!(
                bits(retriever.query(&target, mode, 10)),
                bits(kb.query_with_threads(&target, mode, 10, 1)),
                "knowledge base diverged from the seed retriever on {} ({mode:?})",
                b.name
            );
            pinned += 1;
        }
    }

    let gemm = looprag_suites::find("gemm").expect("gemm kernel").program();
    let mode = RetrievalMode::LoopAware;
    let seed_query_ns = cx.bench_ns(|| retriever.query(&gemm, mode, 10));
    let kb_query_ns = cx.bench_ns(|| kb.query_with_threads(&gemm, mode, 10, 1));
    let shard_threads = host_cores().clamp(2, 4);
    let kb_sharded_ns = cx.bench_ns(|| kb.query_with_threads(&gemm, mode, 10, shard_threads));
    let kb_speedup = seed_query_ns / kb_query_ns;

    let mut r = Report::default();
    r.num("corpus_docs", corpus_docs);
    r.fixed("seed_build_ms", seed_build_ms, 1);
    r.fixed("kb_build_ms", kb_build_ms, 1);
    r.num("equivalence_queries", pinned);
    r.fixed("seed_query_ns", seed_query_ns, 1);
    r.fixed("kb_query_ns", kb_query_ns, 1);
    r.fixed("kb_speedup", kb_speedup, 2);
    r.num("shard_threads", shard_threads);
    r.fixed("kb_sharded_ns", kb_sharded_ns, 1);
    r.fixed("kb_sharded_speedup", seed_query_ns / kb_sharded_ns, 2);
    r.gate("knowledge-base speedup (x)", kb_speedup, 3.0);
    r
}

/// The `search` row: the legality-guided engine pinned to the naive
/// `search_reference` (recipe, program text and cost bits), then both
/// timed single-threaded on the same strided TSVC frontier. The full
/// frontier runs a deep budget: depth is where the node table pays.
/// Each kernel's engine search scores through a fresh `CostEngine`,
/// whose stats give the engine's dependence analyses.
fn search(cx: &Ctx) -> Report {
    let (stride, beam, depth) = cx.pick((24, 2, 3), (10, 4, 6));
    let cfg = SearchConfig {
        beam,
        depth,
        threads: 1,
        ..SearchConfig::default()
    };
    let kernels = looprag_suites::suite_strided(Suite::Tsvc, stride);
    let (mut engine_ms, mut reference_ms) = (0.0f64, 0.0f64);
    let mut engine_stats = SearchStats::default();
    let mut reference_stats = SearchStats::default();
    let mut engine_deps = 0u64;
    let mut improved = 0usize;
    for b in &kernels {
        let p = b.program();
        let engine = CostEngine::new();
        let t0 = Instant::now();
        let e = search_with_engine(&p, &cfg, &engine);
        engine_ms += elapsed_ms(t0);
        engine_deps += engine.stats().deps_computed;
        let t0 = Instant::now();
        let s = search_reference(&p, &cfg);
        reference_ms += elapsed_ms(t0);
        assert_eq!(
            e.fingerprint(),
            s.fingerprint(),
            "search engine diverged from the reference searcher on {}",
            b.name
        );
        assert_eq!(
            e.stats.admitted, s.stats.admitted,
            "candidate accounting diverged on {}",
            b.name
        );
        engine_stats += e.stats;
        reference_stats += s.stats;
        improved += usize::from(e.speedup > 1.0);
    }
    let speedup = reference_ms / engine_ms.max(1e-9);

    let mut r = Report::default();
    r.num("kernels", kernels.len());
    r.num("stride", stride);
    r.num("beam", beam);
    r.num("depth", depth);
    r.num("improved", improved);
    r.fixed("engine_ms", engine_ms, 1);
    r.fixed("reference_ms", reference_ms, 1);
    r.fixed("search_speedup", speedup, 2);
    r.num("engine_scored", engine_stats.scored);
    r.num("reference_scored", reference_stats.scored);
    r.num("engine_deps", engine_deps);
    r.num("reference_deps", reference_stats.deps_computed);
    r.num("engine_applied", engine_stats.applied);
    r.num("reference_applied", reference_stats.applied);
    r.num("engine_expanded", engine_stats.nodes_expanded);
    r.num("reference_expanded", reference_stats.nodes_expanded);
    r.num("expansions_reused", engine_stats.expansions_reused);
    r.num("pruned_illegal", engine_stats.pruned_illegal);
    r.num("admitted", engine_stats.admitted);
    r.gate("search speedup (x)", speedup, 3.0);
    r
}

/// The `serve` row: the optimization service's cold-miss vs warm-hit
/// latency under a Zipf-like repeat workload over the suite kernels.
/// `run_serve_campaign` hard-asserts the serve pins.
fn serve(cx: &Ctx) -> Report {
    let kernels = strided(cx.pick(16, 1));
    let dataset = build_dataset(&SynthConfig {
        count: cx.pick(12, 40),
        ..Default::default()
    });
    let mut cfg = LoopRagConfig::new(LlmProfile::deepseek());
    // Request-level fan-out is the service's parallelism; candidate
    // stages stay sequential inside each worker.
    cfg.threads = 1;
    let warm_requests = cx.pick(60, 1000);
    let s =
        looprag_bench::run_serve_campaign(cfg, dataset, &kernels, warm_requests, 0x5E12_7E01, 0);

    let mut r = Report::default();
    r.num("serve_kernels", s.kernels);
    r.num("serve_warm_requests", s.warm_requests);
    r.num("serve_hits", s.hits);
    r.num("serve_misses", s.misses);
    r.fixed("serve_hit_rate", s.hit_rate, 4);
    r.num("serve_memo_len", s.server.memo_len());
    r.fixed("serve_cold_ms", s.cold_ms, 1);
    r.fixed("serve_warm_ms", s.warm_ms, 3);
    r.fixed("serve_cold_ns_per_request", s.cold_ns_per_request, 1);
    r.fixed("serve_warm_ns_per_request", s.warm_ns_per_request, 1);
    r.fixed("serve_warm_speedup", s.warm_speedup, 1);
    r.num("serve_cold_llm_calls", s.cold_llm_calls);
    r.num("serve_warm_stream_delta", s.warm_stream_delta);
    r.num("serve_warm_expansion_delta", s.warm_expansion_delta);
    r.num("serve_snapshot_bytes", s.snapshot_bytes);
    r.fixed("serve_restore_ms", s.restore_ms, 1);
    r.gate("serve warm speedup (x)", s.warm_speedup, 20.0);
    r
}

/// The `trace` row: the `looprag-trace` determinism pins — each traced
/// layer's logical event stream (canonical JSON, which excludes wall
/// clock) is byte-identical at pool sizes 1, 2 and 8 and its outcome
/// equals the untraced one; the exports round-trip — then the disabled
/// (`rec: None`) span path timed.
fn trace(cx: &Ctx) -> Report {
    use looprag_trace::export::{from_canonical_json, to_canonical_json, to_chrome_json};
    use looprag_trace::{Recorder, TraceConfig};
    let mut pinned = 0usize;
    // `run(pool)` returns the traced run's canonical stream and its
    // outcome rendered for comparison.
    let mut pin =
        |layer: &str, untraced: Option<String>, run: &dyn Fn(usize) -> (String, String)| {
            let (canon1, out1) = run(1);
            if let Some(untraced) = untraced {
                assert_eq!(untraced, out1, "tracing changed the {layer} outcome");
            }
            for pool in [2usize, 8] {
                let (canon, out) = run(pool);
                assert_eq!(
                    canon1, canon,
                    "{layer} logical event stream diverged at pool size {pool}"
                );
                assert_eq!(
                    out1, out,
                    "traced {layer} outcome diverged at pool size {pool}"
                );
                pinned += 1;
            }
        };

    let mut cfg = LoopRagConfig::new(LlmProfile::deepseek());
    cfg.search = Some(SearchConfig {
        beam: 2,
        depth: 2,
        threads: 1,
        ..SearchConfig::default()
    });
    let dataset = build_dataset(&SynthConfig {
        count: 12,
        ..Default::default()
    });
    let rag = LoopRag::new(cfg, dataset);
    let gemm = looprag_suites::find("gemm").expect("gemm kernel").program();
    let untraced = format!("{:?}", rag.optimize_with_threads("gemm", &gemm, 1));
    pin("pipeline", Some(untraced), &|pool| {
        let rec = Recorder::new(TraceConfig::default());
        let outcome = rag.optimize_traced("gemm", &gemm, pool, Some(&rec));
        (to_canonical_json(&rec.finish()), format!("{outcome:?}"))
    });

    pin("search", None, &|pool| {
        let scfg = SearchConfig {
            beam: 2,
            depth: 3,
            threads: pool,
            ..SearchConfig::default()
        };
        let rec = Recorder::new(TraceConfig::default());
        let r =
            looprag_search::search_with_engine_traced(&gemm, &scfg, &CostEngine::new(), Some(&rec));
        (
            to_canonical_json(&rec.finish()),
            format!("{:?}", r.fingerprint()),
        )
    });

    let reqs: Vec<looprag_serve::Request> = looprag_suites::suite_strided(Suite::Tsvc, 40)
        .into_iter()
        .map(|b| looprag_serve::Request::new(b.name, b.source))
        .collect();
    pin("serve", None, &|pool| {
        let dataset = build_dataset(&SynthConfig {
            count: 8,
            ..Default::default()
        });
        let mut cfg = LoopRagConfig::new(LlmProfile::deepseek());
        cfg.k = 2;
        cfg.threads = 1;
        let mut server = looprag_serve::Server::new(cfg, dataset, pool);
        let rec = Recorder::new(TraceConfig::default());
        let responses = server.submit_traced(&reqs, Some(&rec));
        let payload: Vec<String> = responses.iter().map(|r| r.to_json()).collect();
        (to_canonical_json(&rec.finish()), format!("{payload:?}"))
    });

    let (events, _) = looprag_bench::representative_trace(cx.quick);
    let canonical = to_canonical_json(&events);
    let reparsed = from_canonical_json(&canonical).expect("canonical JSON must parse");
    assert_eq!(
        canonical,
        to_canonical_json(&reparsed),
        "canonical JSON round-trip is not byte-stable"
    );
    let chrome = to_chrome_json(&events);
    serde_json::from_str::<serde::Value>(&chrome).expect("Chrome trace export must be valid JSON");

    const BATCH: usize = 1000;
    let per_batch_ns = cx.bench_ns(|| {
        for i in 0..BATCH {
            let _g = looprag_trace::span(None, "noop", || format!("never evaluated {i}"));
            looprag_trace::instant(None, "noop", String::new);
            looprag_trace::value(None, "noop", i as i64, String::new);
            std::hint::black_box(looprag_trace::local(None));
        }
    });
    let disabled_ns = per_batch_ns / BATCH as f64;

    let mut r = Report::default();
    r.num("trace_pool_pins", pinned);
    r.num("trace_events", events.len());
    r.num("trace_canonical_bytes", canonical.len());
    r.num("trace_chrome_bytes", chrome.len());
    r.fixed("trace_disabled_ns_per_site", disabled_ns, 3);
    // At most 20 ns per site: on CI hardware the noise floor for a
    // branch plus a discarded closure.
    r.gate(
        "disabled-trace headroom (20 ns over measured ns/site)",
        20.0 / disabled_ns,
        1.0,
    );
    r
}

/// Parses `[--quick] [--out-dir DIR] [SECTION...]` into the mode, the
/// output directory and the selected rows in table order (no section
/// selects every row).
fn parse_args(args: &[String]) -> Result<(bool, PathBuf, Vec<&'static Row>), String> {
    let mut quick = false;
    let mut out_dir = PathBuf::from(".");
    let mut sections = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--out-dir" => match it.next() {
                Some(dir) if !dir.starts_with("--") => out_dir = dir.into(),
                _ => return Err("--out-dir needs a directory".into()),
            },
            flag if flag.starts_with('-') => return Err(format!("unknown flag {flag}")),
            name if ROWS.iter().any(|r| r.section == name) => sections.push(name),
            name => return Err(format!("unknown section {name}")),
        }
    }
    let rows = ROWS
        .iter()
        .filter(|r| sections.is_empty() || sections.contains(&r.section))
        .collect();
    if !out_dir.is_dir() {
        return Err(format!("{} is not a directory", out_dir.display()));
    }
    Ok((quick, out_dir, rows))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (quick, out_dir, rows) = parse_args(&args).unwrap_or_else(|e| {
        eprintln!("perf_snapshot: {e}\n{USAGE}");
        std::process::exit(2);
    });
    let cx = Ctx { quick };
    let mut failed = false;
    for row in rows {
        eprintln!("[perf_snapshot] {}...", row.section);
        let report = (row.run)(&cx);
        let json = report.json(quick);
        let path = out_dir.join(row.file);
        std::fs::write(&path, &json).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
        println!("{json}");
        eprintln!("[perf_snapshot] {}: wrote {}", row.section, path.display());
        for g in report.gates.iter().filter(|g| g.value < g.min) {
            if quick || !g.binding {
                eprintln!(
                    "[perf_snapshot] WARNING: {} {:.2} below {} (not gating)",
                    g.what, g.value, g.min
                );
            } else {
                eprintln!(
                    "[perf_snapshot] FAIL: {} {:.2} below {}",
                    g.what, g.value, g.min
                );
                failed = true;
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    fn parse(args: &[&str]) -> Result<(bool, PathBuf, Vec<&'static Row>), String> {
        parse_args(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn unknown_flags_sections_and_bad_out_dirs_are_rejected() {
        let missing = std::env::temp_dir().join("perf_snapshot_no_such_dir");
        let missing = missing.to_str().unwrap();
        for (args, err) in [
            (&["--quick", "--serch"][..], "unknown flag --serch"),
            (&["--quick", "bogus"], "unknown section bogus"),
            (&["--out-dir"], "--out-dir needs a directory"),
            (&["--out-dir", "--quick"], "--out-dir needs a directory"),
            (&["--out-dir", missing], "is not a directory"),
        ] {
            let got = parse(args)
                .err()
                .unwrap_or_else(|| panic!("{args:?} parsed"));
            assert!(got.contains(err), "{args:?}: {got}");
        }
    }

    #[test]
    fn sections_select_rows_in_table_order() {
        let (quick, out_dir, rows) = parse(&["trace", "--quick", "interp", "trace"]).unwrap();
        assert!(quick);
        assert_eq!(out_dir, PathBuf::from("."));
        let sections: Vec<_> = rows.iter().map(|r| r.section).collect();
        assert_eq!(sections, ["interp", "trace"]);
        let (quick, _, rows) = parse(&[]).unwrap();
        assert!(!quick);
        assert_eq!(rows.len(), ROWS.len());
    }

    #[test]
    fn every_row_writes_its_own_committed_file() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        for row in &ROWS {
            assert_eq!(row.file, format!("BENCH_{}.json", row.section));
            assert!(
                root.join(row.file).is_file(),
                "{} is not committed",
                row.file
            );
        }
        let mut sections: Vec<_> = ROWS.iter().map(|r| r.section).collect();
        sections.sort_unstable();
        sections.dedup();
        assert_eq!(sections.len(), ROWS.len());
    }

    #[test]
    fn report_json_is_the_meta_block_then_the_fields_in_order() {
        let mut r = Report::default();
        r.num("b_count", 3);
        r.fixed("a_ratio", 1.23456, 2);
        r.gate("ungated in the file", 0.5, 1.0);
        let json = r.json(true);
        let doc: serde::Value = serde_json::from_str(&json).unwrap();
        let serde::Value::Object(fields) = doc else {
            panic!("not an object: {json}");
        };
        let keys: Vec<_> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "snapshot_schema_version",
                "host_cores",
                "quick",
                "b_count",
                "a_ratio"
            ]
        );
        assert_eq!(fields[2].1, serde::Value::Bool(true));
        assert_eq!(fields[3].1, serde::Value::Int(3));
        assert_eq!(fields[4].1, serde::Value::Float(1.23));
    }
}

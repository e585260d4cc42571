//! `perf_snapshot` — the interpreter- and retrieval-perf trajectory
//! tracker.
//!
//! Measures the execution-engine hot paths (gemm-shaped interpretation,
//! `differential_test`, `Retriever::query`) on both the bytecode engine
//! and the reference tree-walker, plus end-to-end strided-suite wall
//! time and the campaign driver's wall time at 1 vs N threads, and
//! writes the numbers to `BENCH_interp.json`; a separate retrieval
//! section benchmarks `KnowledgeBase::query` against the seed
//! `Retriever` over a large synthesized corpus (asserting bit-identical
//! rankings first) and writes `BENCH_retrieval.json`. Every PR can thus
//! be compared against the last committed snapshots.
//!
//! Usage: `perf_snapshot [--quick] [--retrieval] [--search]
//! [--difftest-batched] [--costmodel] [--serve] [--rerank] [--out PATH]
//! [--retrieval-out PATH] [--search-out PATH] [--serve-out PATH]
//! [--rerank-out PATH]`
//!
//! `--retrieval` runs only the retrieval section; `--search` runs only
//! the search section (the legality-guided beam engine pinned against
//! and timed versus the naive reference searcher over a strided TSVC
//! frontier, written to `BENCH_search.json`, gated at >= 3x
//! single-threaded in full mode); `--difftest-batched` runs only the
//! batched differential-testing section (batched verdicts pinned
//! bit-for-bit against the reference oracle — hard-asserted even in
//! quick mode — then the per-candidate `PreparedTarget` verdict timed;
//! its fields land in `BENCH_interp.json` on full runs); `--costmodel` runs
//! only the cost-model section (the memoizing `CostEngine` pinned
//! bit-for-bit against `estimate_cost_reference` over a strided kernel
//! sweep, including budget-exhaustion cases — hard-asserted even in
//! quick mode — then engine vs reference timed on the campaign scoring
//! shape, gated at >= 3x in full mode; its fields also land in
//! `BENCH_interp.json` on full runs); `--serve` runs only the serve
//! section (the optimization service's cold-miss vs warm-hit latency
//! under a Zipf-like repeat workload over the suite kernels, written to
//! `BENCH_serve.json`, gated at >= 20x warm-over-cold in full mode —
//! with the all-hit/zero-work/snapshot-replay determinism pins
//! hard-asserted even in quick mode); `--rerank` runs only the learned
//! step-reranker section (`looprag-rank` trained on a trace of half
//! the TSVC frontier, then ranker-on vs ranker-off beam searches over
//! the whole frontier on fresh cost engines, written to
//! `BENCH_rerank.json`, gated in full mode at equal-or-better total
//! final cost with >= 1.5x fewer `estimate_cost` calls and >= 1.5x
//! wall — with the fit-order-invariance / JSON-round-trip / pool-size
//! 1-2-8 determinism pins hard-asserted even in quick mode).
//! `--quick` shrinks
//! sample counts, corpus size and kernel strides so CI can keep the bin
//! from bit-rotting in seconds; the committed snapshots should come
//! from full (non-quick) runs. In full mode the bin exits non-zero if
//! the batched `differential_test` fails to beat the reference oracle
//! by at least 3x, if the knowledge base
//! fails to beat the seed retriever by at least 3x on single-threaded
//! query over the >= 10k-doc corpus, or — on hosts with at least four
//! cores — if the parallel campaign fails to beat the sequential one by
//! at least 2x.

use looprag_bench::{run_campaign, snapshot_meta, train_rank_model};
use looprag_core::{LoopRag, LoopRagConfig};
use looprag_eqcheck::{
    build_test_suite, differential_test, differential_test_reference, EqCheckConfig,
    PreparedTarget, TestVerdict,
};
use looprag_exec::{run_with_store_reference, ArrayStore, CompiledProgram, ExecConfig};
use looprag_ir::Program;
use looprag_llm::LlmProfile;
use looprag_machine::{
    estimate_cost_reference, measure_locality, CacheObserver, CostEngine, CostError, CostReport,
    MachineConfig,
};
use looprag_rank::{RankConfig, RankModel};
use looprag_retrieval::{KnowledgeBase, RetrievalMode, Retriever};
use looprag_search::{
    rank_training_examples, search_reference, search_with_engine, SearchConfig, SearchStats,
};
use looprag_suites::all_benchmarks;
use looprag_synth::{build_dataset, generate_example, LoopParams, SynthConfig};
use looprag_transform::{parallelize, scaled_clone, tile_band};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

struct BenchOpts {
    samples: usize,
    target_ms: u64,
}

/// Median ns/iter over `opts.samples` timed samples, iteration count
/// auto-scaled to roughly `opts.target_ms` per sample.
fn bench_ns<O>(opts: &BenchOpts, mut f: impl FnMut() -> O) -> f64 {
    let t0 = Instant::now();
    std::hint::black_box(f());
    let once_ns = t0.elapsed().as_nanos().max(1);
    let iters = ((opts.target_ms as u128 * 1_000_000) / once_ns).clamp(1, 100_000) as u32;
    let mut samples: Vec<f64> = (0..opts.samples)
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

/// The retrieval section: equivalence pin + throughput snapshot,
/// written to `out_path`. Returns the single-thread speedup over the
/// seed retriever (the gated number).
fn retrieval_snapshot(quick: bool, opts: &BenchOpts, out_path: &str) -> f64 {
    let corpus_docs = if quick { 1_500 } else { 10_000 };
    eprintln!("[perf_snapshot] retrieval: synthesizing {corpus_docs}-doc corpus...");
    let corpus = synth_corpus(corpus_docs);
    let t0 = Instant::now();
    let retriever = Retriever::build(corpus.iter().enumerate());
    let seed_build_ms = t0.elapsed().as_secs_f64() * 1e3;
    let t0 = Instant::now();
    let kb = KnowledgeBase::build(corpus.iter().enumerate());
    let kb_build_ms = t0.elapsed().as_secs_f64() * 1e3;

    // Equivalence pin: the knowledge base must reproduce the seed
    // retriever's `(id, score)` rankings bit for bit before any of its
    // throughput numbers mean anything.
    let stride = if quick { 16 } else { 4 };
    eprintln!("[perf_snapshot] retrieval: equivalence pin (kernel stride {stride})...");
    let modes = [
        RetrievalMode::LoopAware,
        RetrievalMode::Bm25Only,
        RetrievalMode::WeightedOnly,
    ];
    let mut pinned = 0usize;
    for (i, b) in all_benchmarks().iter().enumerate() {
        if i % stride != 0 {
            continue;
        }
        let target = b.program();
        for mode in modes {
            let want: Vec<(usize, u64)> = retriever
                .query(&target, mode, 10)
                .into_iter()
                .map(|(id, s)| (id, s.to_bits()))
                .collect();
            let got: Vec<(usize, u64)> = kb
                .query_with_threads(&target, mode, 10, 1)
                .into_iter()
                .map(|(id, s)| (id, s.to_bits()))
                .collect();
            assert_eq!(
                want, got,
                "knowledge base diverged from the seed retriever on {} ({mode:?})",
                b.name
            );
            pinned += 1;
        }
    }

    // Throughput: the pipeline's query shape (LoopAware, top 10) on a
    // gemm-shaped target. Single-threaded is the gated number — the CI
    // container has one core — with the sharded path reported alongside.
    eprintln!("[perf_snapshot] retrieval: query throughput...");
    let gemm = looprag_suites::find("gemm").expect("gemm kernel").program();
    let seed_query_ns = bench_ns(opts, || {
        retriever.query(&gemm, RetrievalMode::LoopAware, 10)
    });
    let kb_query_ns = bench_ns(opts, || {
        kb.query_with_threads(&gemm, RetrievalMode::LoopAware, 10, 1)
    });
    let host_cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let shard_threads = host_cores.clamp(2, 4);
    let kb_sharded_ns = bench_ns(opts, || {
        kb.query_with_threads(&gemm, RetrievalMode::LoopAware, 10, shard_threads)
    });
    let kb_speedup = seed_query_ns / kb_query_ns;
    let kb_sharded_speedup = seed_query_ns / kb_sharded_ns;

    let meta = snapshot_meta(quick);
    let json = format!(
        "{{\n  {meta},\n  \"corpus_docs\": {corpus_docs},\n  \"seed_build_ms\": {seed_build_ms:.1},\n  \"kb_build_ms\": {kb_build_ms:.1},\n  \"equivalence_queries\": {pinned},\n  \"seed_query_ns\": {seed_query_ns:.1},\n  \"kb_query_ns\": {kb_query_ns:.1},\n  \"kb_speedup\": {kb_speedup:.2},\n  \"shard_threads\": {shard_threads},\n  \"kb_sharded_ns\": {kb_sharded_ns:.1},\n  \"kb_sharded_speedup\": {kb_sharded_speedup:.2}\n}}\n"
    );
    std::fs::write(out_path, &json).expect("write retrieval snapshot");
    println!("{json}");
    eprintln!(
        "[perf_snapshot] retrieval: {pinned} rankings pinned; knowledge base {kb_speedup:.2}x \
         (sharded {kb_sharded_speedup:.2}x at {shard_threads} threads) vs seed retriever; \
         wrote {out_path}"
    );
    kb_speedup
}

/// Applies one acceptance gate: `value` must be at least `min`. Quick
/// mode (CI smoke on noisy shared runners) only warns; full mode exits
/// non-zero.
fn gate(quick: bool, what: &str, value: f64, min: f64) {
    if value >= min {
        return;
    }
    if quick {
        eprintln!(
            "[perf_snapshot] WARNING: {what} {value:.2} below {min} (quick mode, not gating)"
        );
    } else {
        eprintln!("[perf_snapshot] FAIL: {what} {value:.2} below {min}");
        std::process::exit(1);
    }
}

/// The value of `--flag VALUE` in `args`, or `default` when absent.
fn flag_value(args: &[String], flag: &str, default: &str) -> String {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| default.to_string())
}

/// The search section: pins the optimized `looprag-search` engine
/// bit-for-bit against the naive reference searcher over a strided TSVC
/// frontier, then snapshots both searchers' single-threaded wall time
/// on that same frontier. Each kernel's engine search scores through a
/// fresh `CostEngine`, whose stats give the engine's dependence
/// analyses. Returns the engine-over-reference speedup (the gated
/// number).
fn search_snapshot(quick: bool, out_path: &str) -> f64 {
    // The full frontier runs a deep budget: depth is where the node
    // table pays (the engine fixpoints while the naive reference keeps
    // re-expanding carried frontier nodes).
    let (stride, beam, depth) = if quick { (24, 2, 3) } else { (10, 4, 6) };
    let kernels = looprag_suites::suite_strided(looprag_suites::Suite::Tsvc, stride);
    let cfg = SearchConfig {
        beam,
        depth,
        threads: 1,
        ..SearchConfig::default()
    };
    eprintln!(
        "[perf_snapshot] search: {} TSVC kernels (stride {stride}), beam {beam}, depth {depth}...",
        kernels.len()
    );
    let mut engine_ms = 0.0f64;
    let mut reference_ms = 0.0f64;
    let mut engine_stats = SearchStats::default();
    let mut reference_stats = SearchStats::default();
    let mut engine_deps = 0u64;
    let mut improved = 0usize;
    for b in &kernels {
        let p = b.program();
        let engine = CostEngine::new();
        let t0 = Instant::now();
        let e = search_with_engine(&p, &cfg, &engine);
        let kernel_engine_ms = t0.elapsed().as_secs_f64() * 1e3;
        let kernel_engine_deps = engine.stats().deps_computed;
        engine_deps += kernel_engine_deps;
        engine_ms += kernel_engine_ms;
        let t0 = Instant::now();
        let r = search_reference(&p, &cfg);
        let kernel_reference_ms = t0.elapsed().as_secs_f64() * 1e3;
        reference_ms += kernel_reference_ms;
        // The determinism pin: recipe, program text and cost bits must
        // agree before the throughput numbers mean anything.
        assert_eq!(
            e.fingerprint(),
            r.fingerprint(),
            "search engine diverged from the reference searcher on {}",
            b.name
        );
        assert_eq!(
            e.stats.admitted, r.stats.admitted,
            "candidate accounting diverged on {}",
            b.name
        );
        engine_stats += e.stats;
        reference_stats += r.stats;
        if e.speedup > 1.0 {
            improved += 1;
        }
        eprintln!(
            "[perf_snapshot] search: {:<8} engine {:7.1} ms, reference {:7.1} ms \
             (scored {} vs {}, deps {} vs {})",
            b.name,
            kernel_engine_ms,
            kernel_reference_ms,
            e.stats.scored,
            r.stats.scored,
            kernel_engine_deps,
            r.stats.deps_computed
        );
    }
    let search_speedup = reference_ms / engine_ms.max(1e-9);
    let n = kernels.len();
    let meta = snapshot_meta(quick);
    let json = format!(
        "{{\n  {meta},\n  \"kernels\": {n},\n  \"stride\": {stride},\n  \"beam\": {beam},\n  \"depth\": {depth},\n  \"improved\": {improved},\n  \"engine_ms\": {engine_ms:.1},\n  \"reference_ms\": {reference_ms:.1},\n  \"search_speedup\": {search_speedup:.2},\n  \"engine_scored\": {},\n  \"reference_scored\": {},\n  \"engine_deps\": {},\n  \"reference_deps\": {},\n  \"engine_applied\": {},\n  \"reference_applied\": {},\n  \"engine_expanded\": {},\n  \"reference_expanded\": {},\n  \"expansions_reused\": {},\n  \"pruned_illegal\": {},\n  \"admitted\": {}\n}}\n",
        engine_stats.scored,
        reference_stats.scored,
        engine_deps,
        reference_stats.deps_computed,
        engine_stats.applied,
        reference_stats.applied,
        engine_stats.nodes_expanded,
        reference_stats.nodes_expanded,
        engine_stats.expansions_reused,
        engine_stats.pruned_illegal,
        engine_stats.admitted,
    );
    std::fs::write(out_path, &json).expect("write search snapshot");
    println!("{json}");
    eprintln!(
        "[perf_snapshot] search: engine {search_speedup:.2}x vs reference ({improved}/{n} kernels \
         improved); wrote {out_path}"
    );
    search_speedup
}

/// The gemm-shaped nest used by the interpreter and difftest sections:
/// the dominant kernel shape, perfectly nested so it tiles cleanly.
fn gemm_nest() -> Program {
    looprag_ir::compile(
        "param N = 64;\narray C[N][N];\narray A[N][N];\narray B[N][N];\nout C;\n#pragma scop\nfor (i = 0; i <= N - 1; i++) for (j = 0; j <= N - 1; j++) for (k = 0; k <= N - 1; k++) C[i][j] += A[i][k] * B[k][j];\n#pragma endscop\n",
        "gemm_nest",
    )
    .expect("gemm nest")
}

/// The batched-difftest section's measured numbers.
struct DifftestBatched {
    pinned: usize,
    lanes: usize,
    batched_ns: f64,
}

impl DifftestBatched {
    /// The section's `BENCH_interp.json` fields.
    fn json_fields(&self) -> String {
        format!(
            "\"difftest_batched_pinned\": {},\n  \"difftest_batched_lanes\": {},\n  \"difftest_batched_prepared_ns\": {:.1}",
            self.pinned, self.lanes, self.batched_ns
        )
    }
}

/// The batched-difftest section: pins the batched `differential_test`
/// bit-for-bit against the tree-walking reference oracle over a strided
/// kernel sweep (hard-asserted even in quick mode — the determinism pin,
/// matching the retrieval and search sections), then times the
/// pipeline's per-candidate verdict through a `PreparedTarget`: all
/// suite inputs replayed as lanes of one sweep against cached expected
/// stores.
fn difftest_batched_snapshot(quick: bool, opts: &BenchOpts) -> DifftestBatched {
    let stride = if quick { 16 } else { 4 };
    let eq_cfg = EqCheckConfig::default();
    eprintln!("[perf_snapshot] difftest-batched: verdict pin (kernel stride {stride})...");
    let mut pinned = 0usize;
    for (i, b) in all_benchmarks().iter().enumerate() {
        if i % stride != 0 {
            continue;
        }
        let p = b.program();
        let suite = build_test_suite(&p, &eq_cfg);
        let mut candidates = vec![p.clone()];
        // A parallelized candidate exercises all three iteration orders.
        if let Ok(par) = parallelize(&p, &[0]) {
            candidates.push(par);
        }
        for cand in &candidates {
            assert_eq!(
                differential_test(&p, cand, &suite, &eq_cfg),
                differential_test_reference(&p, cand, &suite, &eq_cfg),
                "batched difftest diverged from the reference oracle on {}",
                b.name
            );
            pinned += 1;
        }
    }

    // Throughput: the pipeline's stage-3 shape — one PreparedTarget,
    // one transformed candidate, verdict per call. The candidate is
    // tiled and parallelized so the batched path has to sweep all three
    // iteration orders, the worst case for it.
    eprintln!("[perf_snapshot] difftest-batched: prepared-verdict throughput...");
    let gemm = gemm_nest();
    let tiled = tile_band(&gemm, &[0], 3, 8).expect("tile gemm");
    let candidate = parallelize(&tiled, &[0]).expect("parallelize tiled gemm");
    let prepared = PreparedTarget::prepare(&gemm, &eq_cfg);
    let lanes = prepared.suite().inputs.len();
    assert_eq!(
        prepared.differential_test(&candidate, &eq_cfg),
        TestVerdict::Pass
    );
    let batched_ns = bench_ns(opts, || prepared.differential_test(&candidate, &eq_cfg));
    eprintln!(
        "[perf_snapshot] difftest-batched: {pinned} verdicts pinned; prepared verdict \
         {batched_ns:.0} ns over {lanes} suite inputs"
    );
    DifftestBatched {
        pinned,
        lanes,
        batched_ns,
    }
}

/// The cost-model section's measured numbers.
struct CostModel {
    kernels: usize,
    pinned: usize,
    arms: usize,
    estimates: usize,
    engine_ms: f64,
    reference_ms: f64,
    speedup: f64,
    cache_hits: u64,
    steady_loops: u64,
    iters_replayed: u64,
}

impl CostModel {
    /// The section's `BENCH_interp.json` fields.
    fn json_fields(&self) -> String {
        format!(
            "\"costmodel_kernels\": {},\n  \"costmodel_pinned\": {},\n  \"costmodel_arms\": {},\n  \"costmodel_estimates\": {},\n  \"costmodel_engine_ms\": {:.1},\n  \"costmodel_reference_ms\": {:.1},\n  \"costmodel_speedup\": {:.2},\n  \"costmodel_cache_hits\": {},\n  \"costmodel_steady_loops\": {},\n  \"costmodel_iters_replayed\": {}",
            self.kernels,
            self.pinned,
            self.arms,
            self.estimates,
            self.engine_ms,
            self.reference_ms,
            self.speedup,
            self.cache_hits,
            self.steady_loops,
            self.iters_replayed
        )
    }
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

/// The cost-model section: pins the memoizing `CostEngine` bit-for-bit
/// against `estimate_cost_reference` over a strided kernel sweep and
/// the parallelized and tiled variants it times — including
/// `InstanceBudget` exhaustion under a starved budget —
/// (hard-asserted even in quick mode, matching the other determinism
/// pins), then times the campaign scoring shape on both paths: several
/// arms each scoring the original, a parallelized and a tiled variant
/// of every kernel. The engine shares one cross-stage cache across
/// arms (repeat queries are hits, and the parallelized variant reuses
/// the original's dependence set); the reference re-analyzes and
/// re-simulates every call. Returns the gated speedup and the cache /
/// steady-state counters.
fn costmodel_snapshot(quick: bool) -> CostModel {
    let stride = if quick { 16 } else { 4 };
    let arms = 3usize;
    let kernels: Vec<_> = all_benchmarks()
        .into_iter()
        .enumerate()
        .filter(|(i, _)| i % stride == 0)
        .map(|(_, b)| b)
        .collect();
    let cfg = MachineConfig::gcc();
    let mut starved = MachineConfig::gcc();
    starved.instance_budget = 20_000;

    let variants: Vec<(Program, Option<Program>, Option<Program>)> = kernels
        .iter()
        .map(|b| {
            let p = b.program();
            let par = parallelize(&p, &[0]).ok();
            let tiled = tile_band(&p, &[0], 2, 8).ok();
            (p, par, tiled)
        })
        .collect();

    eprintln!(
        "[perf_snapshot] costmodel: pin over {} kernels (stride {stride}) and their variants...",
        kernels.len()
    );
    let mut pinned = 0usize;
    let pin_engine = CostEngine::new();
    for (b, (p, par, tiled)) in kernels.iter().zip(&variants) {
        for program in std::iter::once(p).chain(par).chain(tiled) {
            for machine in [&cfg, &starved] {
                let reference = estimate_cost_reference(program, machine);
                let fresh = pin_engine.estimate(program, machine);
                assert_eq!(
                    cost_bits(&fresh),
                    cost_bits(&reference),
                    "cost engine diverged from the reference model on {}",
                    b.name
                );
                // The cached answer must carry the exact same bits.
                let hit = pin_engine.estimate(program, machine);
                assert_eq!(
                    cost_bits(&hit),
                    cost_bits(&reference),
                    "cached cost diverged from the reference model on {}",
                    b.name
                );
                pinned += 1;
            }
        }
    }

    // Throughput: the campaign scoring shape. Each arm scores every
    // kernel's original, parallelized and tiled forms — the pipeline,
    // search and baseline arms all ranking the same candidates.
    eprintln!(
        "[perf_snapshot] costmodel: {arms} arms x {} kernels x 3 variants...",
        kernels.len()
    );
    let mut estimates = 0usize;
    let engine = CostEngine::new();
    let t0 = Instant::now();
    for _arm in 0..arms {
        for (p, par, tiled) in &variants {
            let _ = std::hint::black_box(engine.estimate(p, &cfg));
            estimates += 1;
            if let Some(par) = par {
                // Parallel marks don't change dependences: the engine
                // reuses the original's analysis.
                let _ = std::hint::black_box(engine.estimate(par, &cfg));
                estimates += 1;
            }
            if let Some(tiled) = tiled {
                let _ = std::hint::black_box(engine.estimate(tiled, &cfg));
                estimates += 1;
            }
        }
    }
    let engine_ms = t0.elapsed().as_secs_f64() * 1e3;
    let t0 = Instant::now();
    for _arm in 0..arms {
        for (p, par, tiled) in &variants {
            let _ = std::hint::black_box(estimate_cost_reference(p, &cfg));
            if let Some(par) = par {
                let _ = std::hint::black_box(estimate_cost_reference(par, &cfg));
            }
            if let Some(tiled) = tiled {
                let _ = std::hint::black_box(estimate_cost_reference(tiled, &cfg));
            }
        }
    }
    let reference_ms = t0.elapsed().as_secs_f64() * 1e3;
    let speedup = reference_ms / engine_ms.max(1e-9);
    let stats = engine.stats();
    eprintln!(
        "[perf_snapshot] costmodel: {pinned} estimates pinned; engine {speedup:.2}x vs reference \
         over {estimates} estimates ({} cache hits, {} steady loops, {} iterations replayed)",
        stats.cost_hits, stats.steady_loops, stats.iters_replayed
    );
    CostModel {
        kernels: kernels.len(),
        pinned,
        arms,
        estimates,
        engine_ms,
        reference_ms,
        speedup,
        cache_hits: stats.cost_hits,
        steady_loops: stats.steady_loops,
        iters_replayed: stats.iters_replayed,
    }
}

/// The serve section: the optimization service's cold-miss vs warm-hit
/// latency under a Zipf-like repeat workload over the suite kernels.
/// The determinism pins (all-hit warm phase with byte-identical
/// payloads, zero LLM-stream/search-expansion deltas, snapshot →
/// restore → replay byte equality) are hard-asserted inside
/// `run_serve_campaign` even in quick mode; only the latency gate is
/// mode-dependent.
fn serve_snapshot(quick: bool, out_path: &str) -> f64 {
    let stride = if quick { 16 } else { 1 };
    let warm_requests = if quick { 60 } else { 1000 };
    let kernels: Vec<_> = all_benchmarks()
        .into_iter()
        .enumerate()
        .filter(|(i, _)| i % stride == 0)
        .map(|(_, b)| b)
        .collect();
    eprintln!(
        "[perf_snapshot] serve: {} kernels cold, {warm_requests} Zipf requests warm...",
        kernels.len()
    );
    let dataset = build_dataset(&SynthConfig {
        count: if quick { 12 } else { 40 },
        ..Default::default()
    });
    let mut cfg = LoopRagConfig::new(LlmProfile::deepseek());
    // Request-level fan-out is the service's parallelism; candidate
    // stages stay sequential inside each worker (as in the campaign).
    cfg.threads = 1;
    let report =
        looprag_bench::run_serve_campaign(cfg, dataset, &kernels, warm_requests, 0x5E12_7E01, 0);
    let memo_len = report.server.memo_len();
    let meta = snapshot_meta(quick);
    let json = format!(
        "{{\n  {meta},\n  \"serve_kernels\": {},\n  \"serve_warm_requests\": {},\n  \"serve_hits\": {},\n  \"serve_misses\": {},\n  \"serve_hit_rate\": {:.4},\n  \"serve_memo_len\": {memo_len},\n  \"serve_cold_ms\": {:.1},\n  \"serve_warm_ms\": {:.3},\n  \"serve_cold_ns_per_request\": {:.1},\n  \"serve_warm_ns_per_request\": {:.1},\n  \"serve_warm_speedup\": {:.1},\n  \"serve_cold_llm_calls\": {},\n  \"serve_warm_stream_delta\": {},\n  \"serve_warm_expansion_delta\": {},\n  \"serve_snapshot_bytes\": {},\n  \"serve_restore_ms\": {:.1}\n}}\n",
        report.kernels,
        report.warm_requests,
        report.hits,
        report.misses,
        report.hit_rate,
        report.cold_ms,
        report.warm_ms,
        report.cold_ns_per_request,
        report.warm_ns_per_request,
        report.warm_speedup,
        report.cold_llm_calls,
        report.warm_stream_delta,
        report.warm_expansion_delta,
        report.snapshot_bytes,
        report.restore_ms,
    );
    std::fs::write(out_path, &json).expect("write serve snapshot");
    println!("{json}");
    eprintln!(
        "[perf_snapshot] wrote {out_path}; warm hit {:.0}x faster than cold miss",
        report.warm_speedup
    );
    report.warm_speedup
}

/// The rerank section's gated numbers.
struct Rerank {
    /// `sum(cost_off) / sum(cost_on)` — >= 1.0 means the ranker-guided
    /// search ends at equal-or-better total final cost.
    cost_ratio: f64,
    /// `scored_off / scored_on` — the `estimate_cost`-invocation saving.
    scored_ratio: f64,
    /// `wall_off / wall_on`.
    wall_ratio: f64,
}

/// The rerank section: trains the feature-based step reranker
/// (`looprag-rank`) on a sequential trace of half the TSVC frontier,
/// then runs ranker-on vs ranker-off beam searches over the *whole*
/// frontier — fresh cost engines per arm, so neither side scores from
/// a cache the other warmed. The determinism pins are hard-asserted
/// even in quick mode: `RankModel::fit` is input-order invariant, the
/// model JSON round-trips byte-stably, and the ranker-on result is
/// bit-identical at pool sizes 1, 2 and 8. Full mode gates
/// equal-or-better total final cost with >= 1.5x fewer `estimate_cost`
/// calls and >= 1.5x less wall time.
fn rerank_snapshot(quick: bool, out_path: &str) -> Rerank {
    let (stride, beam, depth) = if quick { (24, 2, 3) } else { (10, 4, 6) };
    let kernels = looprag_suites::suite_strided(looprag_suites::Suite::Tsvc, stride);
    let base_cfg = SearchConfig {
        beam,
        depth,
        threads: 1,
        ..SearchConfig::default()
    };
    // Train on the full frontier — the deployment shape of the
    // feedback loop this model closes: a campaign mines winners from
    // the workload it serves, and the reranker guides later searches
    // over that same workload.
    let train_programs: Vec<Program> = kernels.iter().map(|b| b.program()).collect();
    eprintln!(
        "[perf_snapshot] rerank: tracing {} training kernels (beam {beam}, depth {depth})...",
        train_programs.len()
    );
    let t0 = Instant::now();
    let mut examples = Vec::new();
    for p in &train_programs {
        examples.extend(rank_training_examples(p, &base_cfg));
    }
    let model = RankModel::fit(&examples);
    let train_ms = t0.elapsed().as_secs_f64() * 1e3;

    // Determinism pins, hard even in quick mode.
    let mut reversed = examples.clone();
    reversed.reverse();
    assert_eq!(
        model,
        RankModel::fit(&reversed),
        "RankModel::fit depends on training-record input order"
    );
    assert_eq!(
        model,
        train_rank_model(&train_programs, &base_cfg),
        "train_rank_model diverged from the inline trace + fit"
    );
    let model_json = model.to_json().expect("rank model to_json");
    let reloaded = RankModel::from_json(&model_json).expect("rank model from_json");
    assert_eq!(
        model_json,
        reloaded.to_json().expect("reloaded rank model to_json"),
        "rank model JSON round-trip is not byte-stable"
    );
    let model_fp = model.fingerprint();
    let model_cells = model.len();
    let model_observations = model.observations();
    let train_examples = examples.len();

    let rank = RankConfig::new(model);
    let keep_fraction = rank.keep_fraction;
    let mut on_cfg = base_cfg.clone();
    on_cfg.rank = Some(rank);

    let mut off_ms = 0.0f64;
    let mut on_ms = 0.0f64;
    let mut off_stats = SearchStats::default();
    let mut on_stats = SearchStats::default();
    let mut cost_off_total = 0.0f64;
    let mut cost_on_total = 0.0f64;
    let mut improved = 0usize;
    let mut regressed = 0usize;
    for b in &kernels {
        let p = b.program();
        let t0 = Instant::now();
        let off = search_with_engine(&p, &base_cfg, &CostEngine::new());
        off_ms += t0.elapsed().as_secs_f64() * 1e3;
        let t0 = Instant::now();
        let on = search_with_engine(&p, &on_cfg, &CostEngine::new());
        on_ms += t0.elapsed().as_secs_f64() * 1e3;
        // Pool-size pin, hard even in quick: the ranker-on outcome is
        // bit-identical at 1, 2 and 8 workers.
        for pool in [2usize, 8] {
            let mut pcfg = on_cfg.clone();
            pcfg.threads = pool;
            let r = search_with_engine(&p, &pcfg, &CostEngine::new());
            assert_eq!(
                on.fingerprint(),
                r.fingerprint(),
                "ranker-on search diverged at pool size {pool} on {}",
                b.name
            );
        }
        if on.cost < off.cost {
            improved += 1;
        } else if on.cost > off.cost {
            regressed += 1;
        }
        cost_off_total += off.cost;
        cost_on_total += on.cost;
        off_stats += off.stats;
        on_stats += on.stats;
        eprintln!(
            "[perf_snapshot] rerank: {:<8} cost {:12.0} -> {:12.0}, scored {:4} -> {:4}, \
             rank-pruned {}",
            b.name, off.cost, on.cost, off.stats.scored, on.stats.scored, on.stats.rank_pruned
        );
    }
    let r = Rerank {
        cost_ratio: cost_off_total / cost_on_total.max(1e-9),
        scored_ratio: off_stats.scored as f64 / (on_stats.scored as f64).max(1.0),
        wall_ratio: off_ms / on_ms.max(1e-9),
    };
    let n = kernels.len();
    let meta = snapshot_meta(quick);
    let json = format!(
        "{{\n  {meta},\n  \"kernels\": {n},\n  \"stride\": {stride},\n  \"beam\": {beam},\n  \"depth\": {depth},\n  \"train_kernels\": {},\n  \"train_examples\": {train_examples},\n  \"train_ms\": {train_ms:.1},\n  \"model_cells\": {model_cells},\n  \"model_observations\": {model_observations},\n  \"model_fingerprint\": \"{model_fp:016x}\",\n  \"keep_fraction\": {keep_fraction},\n  \"off_ms\": {off_ms:.1},\n  \"on_ms\": {on_ms:.1},\n  \"rerank_wall_speedup\": {:.2},\n  \"off_scored\": {},\n  \"on_scored\": {},\n  \"rerank_scored_ratio\": {:.2},\n  \"on_rank_pruned\": {},\n  \"off_steps_enumerated\": {},\n  \"on_steps_enumerated\": {},\n  \"cost_off_total\": {cost_off_total:.0},\n  \"cost_on_total\": {cost_on_total:.0},\n  \"rerank_cost_ratio\": {:.4},\n  \"improved\": {improved},\n  \"regressed\": {regressed}\n}}\n",
        train_programs.len(),
        r.wall_ratio,
        off_stats.scored,
        on_stats.scored,
        r.scored_ratio,
        on_stats.rank_pruned,
        off_stats.steps_enumerated,
        on_stats.steps_enumerated,
        r.cost_ratio,
    );
    std::fs::write(out_path, &json).expect("write rerank snapshot");
    println!("{json}");
    eprintln!(
        "[perf_snapshot] rerank: {:.2}x fewer estimate_cost calls, {:.2}x wall, cost ratio \
         {:.4} ({improved} improved / {regressed} regressed of {n}); wrote {out_path}",
        r.scored_ratio, r.wall_ratio, r.cost_ratio
    );
    r
}

/// The trace section: determinism pins for the `looprag-trace`
/// subsystem, hard-asserted even in quick mode —
///
/// 1. the traced pipeline's **logical event stream** (canonical JSON,
///    which excludes wall-clock by construction) is byte-identical at
///    pool sizes 1, 2 and 8, and its outcome is byte-identical to the
///    untraced entry point;
/// 2. the same pool-size pin for `search_with_engine_traced` and for a
///    served batch through `submit_traced`;
/// 3. the canonical JSON round-trips byte-exactly through the strict
///    parser, and the Chrome export parses as valid JSON;
///
/// then times the disabled (`rec: None`) span path, which full mode
/// gates at effectively-zero overhead. Writes `BENCH_trace.json`; with
/// `trace_out` set, also writes the representative run's Chrome trace.
fn trace_snapshot(quick: bool, opts: &BenchOpts, out_path: &str, trace_out: Option<&str>) -> f64 {
    use looprag_trace::{Recorder, TraceConfig};
    let mut pinned = 0usize;

    // -- Pipeline pool-size pin ------------------------------------
    eprintln!("[perf_snapshot] trace: pipeline pool-size pin (1 vs 2 vs 8)...");
    let dataset = build_dataset(&SynthConfig {
        count: 12,
        ..Default::default()
    });
    let mut cfg = LoopRagConfig::new(LlmProfile::deepseek());
    cfg.search = Some(SearchConfig {
        beam: 2,
        depth: 2,
        threads: 1,
        ..SearchConfig::default()
    });
    let rag = LoopRag::new(cfg, dataset);
    let gemm = looprag_suites::find("gemm").expect("gemm kernel").program();
    let untraced = rag.optimize_with_threads("gemm", &gemm, 1);
    let run_at = |pool: usize| {
        let rec = Recorder::new(TraceConfig::default());
        let outcome = rag.optimize_traced("gemm", &gemm, pool, Some(&rec));
        (
            looprag_trace::export::to_canonical_json(&rec.finish()),
            outcome,
        )
    };
    let (canon1, traced) = run_at(1);
    assert_eq!(
        format!("{untraced:?}"),
        format!("{traced:?}"),
        "tracing changed the pipeline outcome"
    );
    for pool in [2usize, 8] {
        let (canon, outcome) = run_at(pool);
        assert_eq!(
            canon1, canon,
            "pipeline logical event stream diverged at pool size {pool}"
        );
        assert_eq!(
            format!("{untraced:?}"),
            format!("{outcome:?}"),
            "traced pipeline outcome diverged at pool size {pool}"
        );
        pinned += 1;
    }

    // -- Search pool-size pin --------------------------------------
    eprintln!("[perf_snapshot] trace: search pool-size pin...");
    let search_at = |pool: usize| {
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
            looprag_trace::export::to_canonical_json(&rec.finish()),
            r.fingerprint(),
        )
    };
    let (s_canon1, s_fp1) = search_at(1);
    for pool in [2usize, 8] {
        let (c, fp) = search_at(pool);
        assert_eq!(
            s_canon1, c,
            "search logical event stream diverged at pool size {pool}"
        );
        assert_eq!(
            s_fp1, fp,
            "traced search result diverged at pool size {pool}"
        );
        pinned += 1;
    }

    // -- Serve pool-size pin ---------------------------------------
    eprintln!("[perf_snapshot] trace: serve pool-size pin...");
    let serve_at = |pool: usize| {
        let dataset = build_dataset(&SynthConfig {
            count: 8,
            ..Default::default()
        });
        let mut cfg = LoopRagConfig::new(LlmProfile::deepseek());
        cfg.k = 2;
        cfg.threads = 1;
        let mut server = looprag_serve::Server::new(cfg, dataset, pool);
        let kernels = looprag_suites::suite_strided(looprag_suites::Suite::Tsvc, 40);
        let reqs: Vec<looprag_serve::Request> = kernels
            .iter()
            .map(|b| looprag_serve::Request::new(b.name.clone(), b.source.clone()))
            .collect();
        let rec = Recorder::new(TraceConfig::default());
        let responses = server.submit_traced(&reqs, Some(&rec));
        let payload: Vec<String> = responses.iter().map(|r| r.to_json()).collect();
        (
            looprag_trace::export::to_canonical_json(&rec.finish()),
            payload,
        )
    };
    let (v_canon1, v_resp1) = serve_at(1);
    for pool in [2usize, 8] {
        let (c, resp) = serve_at(pool);
        assert_eq!(
            v_canon1, c,
            "serve logical event stream diverged at pool size {pool}"
        );
        assert_eq!(
            v_resp1, resp,
            "traced serve responses diverged at pool size {pool}"
        );
        pinned += 1;
    }

    // -- Export round-trips ----------------------------------------
    eprintln!("[perf_snapshot] trace: export round-trips...");
    let (events, _) = looprag_bench::representative_trace(quick);
    let canonical = looprag_trace::export::to_canonical_json(&events);
    let reparsed =
        looprag_trace::export::from_canonical_json(&canonical).expect("canonical JSON must parse");
    assert_eq!(
        canonical,
        looprag_trace::export::to_canonical_json(&reparsed),
        "canonical JSON round-trip is not byte-stable"
    );
    let chrome = looprag_trace::export::to_chrome_json(&events);
    serde_json::from_str::<serde::Value>(&chrome).expect("Chrome trace export must be valid JSON");
    if let Some(path) = trace_out {
        looprag_bench::write_chrome_trace(path, &events);
    }

    // -- Disabled-path overhead ------------------------------------
    eprintln!("[perf_snapshot] trace: disabled-path overhead...");
    const BATCH: usize = 1000;
    let per_batch_ns = bench_ns(opts, || {
        for i in 0..BATCH {
            let _g = looprag_trace::span(None, "noop", || format!("never evaluated {i}"));
            looprag_trace::instant(None, "noop", String::new);
            looprag_trace::value(None, "noop", i as i64, String::new);
            std::hint::black_box(looprag_trace::local(None));
        }
    });
    let disabled_ns = per_batch_ns / BATCH as f64;

    let meta = snapshot_meta(quick);
    let events_n = events.len();
    let chrome_bytes = chrome.len();
    let json = format!(
        "{{\n  {meta},\n  \"trace_pool_pins\": {pinned},\n  \"trace_events\": {events_n},\n  \"trace_canonical_bytes\": {},\n  \"trace_chrome_bytes\": {chrome_bytes},\n  \"trace_disabled_ns_per_site\": {disabled_ns:.3}\n}}\n",
        canonical.len(),
    );
    std::fs::write(out_path, &json).expect("write trace snapshot");
    println!("{json}");
    eprintln!(
        "[perf_snapshot] trace: {pinned} pool pins, {events_n} events, disabled path \
         {disabled_ns:.3} ns/site; wrote {out_path}"
    );
    disabled_ns
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let has = |flag: &str| args.iter().any(|a| a == flag);
    let quick = has("--quick");
    // Section flags compose: `--retrieval --search` runs both sections
    // (each with its gate) and nothing else; no section flag runs all.
    let sections = [
        "--retrieval",
        "--search",
        "--difftest-batched",
        "--costmodel",
        "--serve",
        "--rerank",
        "--trace",
    ];
    let all = !sections.iter().any(|f| has(f));
    let run = |flag: &str| all || has(flag);
    let opts = BenchOpts {
        samples: if quick { 3 } else { 9 },
        target_ms: if quick { 5 } else { 40 },
    };
    if all {
        interp_snapshot(
            quick,
            &opts,
            &flag_value(&args, "--out", "BENCH_interp.json"),
        );
    } else {
        let meta = snapshot_meta(quick);
        if has("--difftest-batched") {
            let d = difftest_batched_snapshot(quick, &opts);
            println!("{{\n  {meta},\n  {}\n}}\n", d.json_fields());
        }
        if has("--costmodel") {
            let c = costmodel_snapshot(quick);
            println!("{{\n  {meta},\n  {}\n}}\n", c.json_fields());
            gate(quick, "cost-engine speedup (x)", c.speedup, 3.0);
        }
    }

    // Retrieval: knowledge base vs seed retriever (equivalence pin +
    // throughput). Gate 3: the interned/pruned path must beat the seed
    // retriever by at least 3x single-threaded on the large corpus.
    if run("--retrieval") {
        let out = flag_value(&args, "--retrieval-out", "BENCH_retrieval.json");
        let kb_speedup = retrieval_snapshot(quick, &opts, &out);
        gate(quick, "knowledge-base speedup (x)", kb_speedup, 3.0);
    }

    // Search: the legality-guided beam engine vs the naive reference
    // searcher (determinism pin + wall time). Gate 4: the
    // pruned+memoized engine must beat the reference by at least 3x
    // single-threaded on the same frontier.
    if run("--search") {
        let out = flag_value(&args, "--search-out", "BENCH_search.json");
        let search_speedup = search_snapshot(quick, &out);
        gate(quick, "search speedup (x)", search_speedup, 3.0);
    }

    // Serve: the optimization service's warm-hit vs cold-miss latency
    // under a Zipf repeat workload. Gate 5: a verified-winner memo hit
    // must be at least 20x cheaper than a cold pipeline run.
    if run("--serve") {
        let out = flag_value(&args, "--serve-out", "BENCH_serve.json");
        let warm_speedup = serve_snapshot(quick, &out);
        gate(quick, "serve warm speedup (x)", warm_speedup, 20.0);
    }

    // Rerank: the learned step reranker vs the unranked search over the
    // whole frontier. Gate 6: equal-or-better total final cost with
    // >= 1.5x fewer estimate_cost calls and >= 1.5x wall.
    if run("--rerank") {
        let out = flag_value(&args, "--rerank-out", "BENCH_rerank.json");
        let r = rerank_snapshot(quick, &out);
        gate(quick, "rerank cost ratio", r.cost_ratio, 1.0);
        gate(
            quick,
            "rerank estimate_cost saving (x)",
            r.scored_ratio,
            1.5,
        );
        gate(quick, "rerank wall speedup (x)", r.wall_ratio, 1.5);
    }

    // Trace: the looprag-trace pool-size/round-trip determinism pins
    // plus the disabled-path overhead. Gate 7: the disabled
    // instrumentation path stays free — at most 20 ns per site, which
    // on CI hardware is the noise floor for a branch plus a discarded
    // closure.
    if run("--trace") {
        let out = flag_value(&args, "--trace-snapshot-out", "BENCH_trace.json");
        // `--trace-out PATH` additionally writes the representative
        // run's Chrome `trace_event` JSON (load it at chrome://tracing).
        let chrome_out = flag_value(&args, "--trace-out", "");
        let chrome_out = (!chrome_out.is_empty()).then_some(chrome_out.as_str());
        let disabled_ns = trace_snapshot(quick, &opts, &out, chrome_out);
        gate(
            quick,
            "disabled-trace headroom (20 ns over measured ns/site)",
            20.0 / disabled_ns,
            1.0,
        );
    }
}

/// The interpreter snapshot written to `BENCH_interp.json`: interpreter
/// and `differential_test` engine payoffs, the batched-difftest and
/// cost-model sections, retriever query, strided-suite wall time and
/// campaign scaling, with their gates.
fn interp_snapshot(quick: bool, opts: &BenchOpts, out_path: &str) {
    // 1. Interpreter on a gemm-shaped nest (the dominant kernel shape;
    // perfectly nested so it can also be tiled for the difftest below).
    eprintln!("[perf_snapshot] interpreter: gemm nest...");
    let gemm = gemm_nest();
    let small = scaled_clone(&gemm, 16);
    let compiled = CompiledProgram::compile(&small);
    let exec_cfg = ExecConfig::default();
    let interp_compiled_ns = bench_ns(opts, || {
        let mut store = ArrayStore::from_program(&small);
        compiled
            .run_with_store(&mut store, &exec_cfg, None)
            .unwrap()
    });
    let interp_reference_ns = bench_ns(opts, || {
        let mut store = ArrayStore::from_program(&small);
        run_with_store_reference(&small, &mut store, &exec_cfg, None).unwrap()
    });
    let compile_ns = bench_ns(opts, || CompiledProgram::compile(&small));
    // Observer path: stream the engine's access trace through the cache
    // simulator. The hit rate comes from machine::measure_locality; the
    // timed loop reuses the precompiled form so interp_observed_ns
    // isolates observer overhead from per-call compile cost. Both are
    // tracked so the observer bridge and its base-address layout cannot
    // silently drift.
    let machine = MachineConfig::gcc();
    let (locality, _) =
        measure_locality(&small, &machine, &exec_cfg).expect("measure gemm locality");
    let interp_observed_ns = bench_ns(opts, || {
        let mut store = ArrayStore::from_program(&small);
        let mut obs = CacheObserver::new(&store, machine.l1.clone(), machine.l2.clone());
        compiled
            .run_with_store(&mut store, &exec_cfg, Some(&mut obs))
            .unwrap()
    });

    // 2. differential_test: the production path's payoff on the
    // per-candidate verdict — the batched one-shot `differential_test`
    // against the tree-walking reference oracle.
    eprintln!("[perf_snapshot] differential_test: gemm vs tiled gemm...");
    let tiled = tile_band(&gemm, &[0], 3, 8).expect("tile gemm");
    let eq_cfg = EqCheckConfig::default();
    let suite = build_test_suite(&gemm, &eq_cfg);
    assert_eq!(
        differential_test(&gemm, &tiled, &suite, &eq_cfg),
        TestVerdict::Pass
    );
    let difftest_batched_ns = bench_ns(opts, || differential_test(&gemm, &tiled, &suite, &eq_cfg));
    let difftest_reference_ns = bench_ns(opts, || {
        differential_test_reference(&gemm, &tiled, &suite, &eq_cfg)
    });
    let difftest_speedup = difftest_reference_ns / difftest_batched_ns;

    // 2b. Batched difftest: verdict pin plus the prepared-target verdict
    // time.
    let batched = difftest_batched_snapshot(quick, opts);

    // 2c. Cost model: bitwise pin of the memoizing CostEngine against
    // the reference model, plus engine-vs-reference wall time on the
    // campaign scoring shape.
    let costmodel = costmodel_snapshot(quick);

    // 3. Retriever::query over a synthesized corpus.
    eprintln!("[perf_snapshot] retriever query...");
    let corpus_size = if quick { 64 } else { 256 };
    let dataset = build_dataset(&SynthConfig {
        count: corpus_size,
        ..Default::default()
    });
    let programs: Vec<_> = dataset
        .examples
        .iter()
        .map(|e| (e.id, e.program()))
        .collect();
    let retriever = Retriever::build(programs.iter().map(|(i, p)| (*i, p)));
    let query_ns = bench_ns(opts, || {
        retriever.query(&gemm, RetrievalMode::LoopAware, 10)
    });

    // 4. End-to-end strided-suite wall time: suite building plus a
    // self-differential test per kernel, the eqcheck slice of a
    // pipeline run.
    let stride = if quick { 24 } else { 8 };
    eprintln!("[perf_snapshot] strided suite (stride {stride})...");
    let kernels: Vec<_> = all_benchmarks()
        .into_iter()
        .enumerate()
        .filter(|(i, _)| i % stride == 0)
        .map(|(_, b)| b)
        .collect();
    let t0 = Instant::now();
    let mut suite_kernels = 0usize;
    for b in &kernels {
        let p = b.program();
        let s = build_test_suite(&p, &eq_cfg);
        assert_eq!(
            differential_test(&p, &p, &s, &eq_cfg),
            TestVerdict::Pass,
            "{} failed self-test",
            b.name
        );
        suite_kernels += 1;
    }
    let suite_wall_ms = t0.elapsed().as_secs_f64() * 1e3;

    // 5. Campaign driver: full pipeline runs over a strided kernel set,
    // sequential vs the worker pool. The two runs must be bit-for-bit
    // identical (the runtime's determinism contract); the speedup is the
    // campaign-level parallelism payoff.
    let host_cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let campaign_threads = host_cores.max(4);
    let campaign_stride = if quick { 32 } else { 16 };
    eprintln!(
        "[perf_snapshot] campaign: stride {campaign_stride}, 1 vs {campaign_threads} threads..."
    );
    let campaign_kernels: Vec<_> = all_benchmarks()
        .into_iter()
        .enumerate()
        .filter(|(i, _)| i % campaign_stride == 0)
        .map(|(_, b)| b)
        .collect();
    let pipeline_dataset = build_dataset(&SynthConfig {
        count: if quick { 12 } else { 40 },
        ..Default::default()
    });
    let mut cfg = LoopRagConfig::new(LlmProfile::deepseek());
    // Kernel-level fan-out is the parallelism under test; candidate
    // stages stay sequential inside each worker.
    cfg.threads = 1;
    let rag = LoopRag::new(cfg, pipeline_dataset);
    let t0 = Instant::now();
    let seq = run_campaign(&rag, &campaign_kernels, 1);
    let campaign_wall_1t_ms = t0.elapsed().as_secs_f64() * 1e3;
    let t0 = Instant::now();
    let par = run_campaign(&rag, &campaign_kernels, campaign_threads);
    let campaign_wall_nt_ms = t0.elapsed().as_secs_f64() * 1e3;
    assert_eq!(
        format!("{seq:?}"),
        format!("{par:?}"),
        "campaign results must be identical at any thread count"
    );
    let campaign_speedup = campaign_wall_1t_ms / campaign_wall_nt_ms;

    let interp_speedup = interp_reference_ns / interp_compiled_ns;
    let l1_rate = locality.l1_hit_rate();
    let campaign_n = campaign_kernels.len();
    let db_fields = batched.json_fields();
    let cm_fields = costmodel.json_fields();
    let meta = snapshot_meta(quick);
    let json = format!(
        "{{\n  {meta},\n  \"interp_compiled_ns\": {interp_compiled_ns:.1},\n  \"interp_reference_ns\": {interp_reference_ns:.1},\n  \"interp_speedup\": {interp_speedup:.2},\n  \"compile_ns\": {compile_ns:.1},\n  \"interp_observed_ns\": {interp_observed_ns:.1},\n  \"gemm_l1_hit_rate\": {l1_rate:.4},\n  \"difftest_batched_ns\": {difftest_batched_ns:.1},\n  \"difftest_reference_ns\": {difftest_reference_ns:.1},\n  \"difftest_speedup\": {difftest_speedup:.2},\n  {db_fields},\n  {cm_fields},\n  \"retriever_query_ns\": {query_ns:.1},\n  \"suite_stride\": {stride},\n  \"suite_kernels\": {suite_kernels},\n  \"suite_wall_ms\": {suite_wall_ms:.1},\n  \"campaign_kernels\": {campaign_n},\n  \"campaign_threads\": {campaign_threads},\n  \"campaign_wall_1t_ms\": {campaign_wall_1t_ms:.1},\n  \"campaign_wall_nt_ms\": {campaign_wall_nt_ms:.1},\n  \"campaign_speedup\": {campaign_speedup:.2}\n}}\n"
    );
    std::fs::write(out_path, &json).expect("write snapshot");
    println!("{json}");
    eprintln!("[perf_snapshot] wrote {out_path}");
    eprintln!(
        "[perf_snapshot] interp {interp_speedup:.2}x, differential_test {difftest_speedup:.2}x vs reference, campaign {campaign_speedup:.2}x at {campaign_threads} threads"
    );

    // The acceptance gates. Quick mode (CI smoke) only warns, since
    // shared runners are too noisy to gate on.
    // Gate 1: the batched production path must beat the reference
    // oracle by at least 3x on the pipeline's dominant cost.
    gate(quick, "difftest speedup (x)", difftest_speedup, 3.0);
    // Gate 1c: the memoizing cost engine must beat the reference model
    // by at least 3x on the campaign scoring shape.
    gate(quick, "cost-engine speedup (x)", costmodel.speedup, 3.0);
    // Gate 2: the campaign pool must pay for itself by at least 2x —
    // but only where the hardware can physically deliver it (a
    // single-core host runs the pool at ~1x by construction).
    if campaign_speedup < 2.0 {
        if quick || host_cores < 4 {
            eprintln!(
                "[perf_snapshot] WARNING: campaign speedup {campaign_speedup:.2}x below 2x \
                 ({host_cores} host cores{}, not gating)",
                if quick { ", quick mode" } else { "" }
            );
        } else {
            eprintln!(
                "[perf_snapshot] FAIL: campaign speedup below 2x on a {host_cores}-core host"
            );
            std::process::exit(1);
        }
    }
}

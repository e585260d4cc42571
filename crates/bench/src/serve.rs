//! Service-mode campaign driver: runs the [`looprag_serve::Server`]
//! over a suite kernel set with a cold phase (every unique kernel once)
//! followed by a Zipf-like repeat workload (warm phase, all memo hits),
//! with the serve determinism pins hard-asserted:
//!
//! * every warm response is a memo hit whose outcome payload is
//!   byte-identical to the cold response for the same kernel;
//! * the warm phase provably never touches the simulated LLM or the
//!   beam search (process-wide counter deltas are zero);
//! * snapshot → restore → replay returns byte-identical responses.
//!
//! The wall-clock numbers (cold vs warm per-request latency) feed the
//! `perf_snapshot` serve row and its >= 20x gate.

use looprag_core::LoopRagConfig;
use looprag_ir::print_program;
use looprag_serve::{CacheStatus, Request, Response, Server};
use looprag_suites::Benchmark;
use looprag_synth::Dataset;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// A Zipf-like repeat workload: request `j` picks kernel rank `r` with
/// probability proportional to `1 / (r + 1)`, so a few hot kernels
/// dominate — the repeat-traffic shape the verified-winner memo exists
/// for. Deterministic in `seed`.
pub fn zipf_workload(kernels: &[Benchmark], requests: usize, seed: u64) -> Vec<Request> {
    assert!(!kernels.is_empty(), "workload needs at least one kernel");
    let weights: Vec<f64> = (0..kernels.len()).map(|r| 1.0 / (r as f64 + 1.0)).collect();
    let total: f64 = weights.iter().sum();
    let mut rng = StdRng::seed_from_u64(seed);
    (0..requests)
        .map(|j| {
            let mut x = rng.gen_range(0.0..total);
            let mut pick = kernels.len() - 1;
            for (r, w) in weights.iter().enumerate() {
                if x < *w {
                    pick = r;
                    break;
                }
                x -= w;
            }
            let b = &kernels[pick];
            Request::new(format!("req{j}:{}", b.name), print_program(&b.program()))
        })
        .collect()
}

/// Everything the service-mode campaign measured.
#[derive(Debug)]
pub struct ServeReport {
    /// Unique suite kernels submitted in the cold phase.
    pub kernels: usize,
    /// Warm-phase (repeat-workload) request count.
    pub warm_requests: usize,
    /// Memo hits across both phases.
    pub hits: u64,
    /// Pipeline runs across both phases (= cold-phase size).
    pub misses: u64,
    /// Hit rate over the whole run.
    pub hit_rate: f64,
    /// Cold-phase wall time.
    pub cold_ms: f64,
    /// Warm-phase wall time.
    pub warm_ms: f64,
    /// Cold per-request latency.
    pub cold_ns_per_request: f64,
    /// Warm per-request latency.
    pub warm_ns_per_request: f64,
    /// `cold_ns_per_request / warm_ns_per_request` — the gated number.
    pub warm_speedup: f64,
    /// LLM stream advances the cold phase spent (sum over outcomes).
    pub cold_llm_calls: u64,
    /// Process-wide LLM stream advances during the warm phase
    /// (hard-asserted 0).
    pub warm_stream_delta: u64,
    /// Process-wide search expansions during the warm phase
    /// (hard-asserted 0).
    pub warm_expansion_delta: u64,
    /// Snapshot size in bytes.
    pub snapshot_bytes: usize,
    /// Snapshot parse + validate + KB rebuild wall time.
    pub restore_ms: f64,
    /// The server, for further inspection or reuse.
    pub server: Server,
}

/// Runs the service-mode campaign: cold phase over `kernels`, warm
/// Zipf replay of `warm_requests`, then snapshot → restore → replay.
/// Panics if any serve determinism pin fails — these hold in quick mode
/// too; only the latency gate is the caller's (mode-dependent) decision.
pub fn run_serve_campaign(
    cfg: LoopRagConfig,
    dataset: Dataset,
    kernels: &[Benchmark],
    warm_requests: usize,
    seed: u64,
    threads: usize,
) -> ServeReport {
    let mut server = Server::new(cfg.clone(), dataset, threads);

    // Dedup by canonical printed form first: a few suite kernels are
    // textually distinct but canonicalize identically, and a duplicate
    // in the cold batch would be an in-batch repeat (a hit), not a miss.
    let mut seen = std::collections::BTreeSet::new();
    let deduped: Vec<Benchmark> = kernels
        .iter()
        .filter(|b| seen.insert(print_program(&b.program())))
        .cloned()
        .collect();
    if deduped.len() < kernels.len() {
        eprintln!(
            "serve: dropped {} duplicate kernel(s) (identical canonical form)",
            kernels.len() - deduped.len()
        );
    }
    let kernels = deduped;

    // Cold phase: every unique kernel once. All misses by construction.
    let cold_reqs: Vec<Request> = kernels
        .iter()
        .map(|b| Request::new(b.name.clone(), print_program(&b.program())))
        .collect();
    let t0 = Instant::now();
    let cold = server.submit(&cold_reqs);
    let cold_ms = t0.elapsed().as_secs_f64() * 1e3;
    assert!(
        cold.iter().all(|r| r.cache == CacheStatus::Miss),
        "cold phase must be all misses"
    );
    let cold_llm_calls: u64 = cold.iter().map(|r| r.llm_calls).sum();

    // Warm phase: Zipf replay over the same kernels — every request is
    // a memo hit, and the hit path must provably never touch the LLM or
    // the search.
    let warm_reqs = zipf_workload(&kernels, warm_requests, seed);
    let before = looprag_trace::metrics().snapshot();
    let t0 = Instant::now();
    let warm = server.submit(&warm_reqs);
    let warm_ms = t0.elapsed().as_secs_f64() * 1e3;
    let deltas = looprag_trace::metrics().snapshot().counter_deltas(&before);
    let delta = |name: &str| deltas.get(name).copied().unwrap_or(0);
    let warm_stream_delta = delta("llm.stream_advances");
    let warm_expansion_delta = delta("search.expansions");
    assert_eq!(
        warm_stream_delta, 0,
        "warm phase advanced the simulated-LLM stream"
    );
    assert_eq!(warm_expansion_delta, 0, "warm phase expanded search nodes");

    // Pin: every warm response is a hit with zero work, and its outcome
    // payload matches the cold response for the same kernel exactly.
    let by_source: std::collections::HashMap<&str, &Response> = cold_reqs
        .iter()
        .map(|r| r.source.as_str())
        .zip(&cold)
        .collect();
    for (req, resp) in warm_reqs.iter().zip(&warm) {
        assert_eq!(resp.cache, CacheStatus::Hit, "{}: not a memo hit", req.name);
        assert_eq!(
            (resp.llm_calls, resp.search_expansions),
            (0, 0),
            "{}: hit reported work",
            req.name
        );
        let cold_resp = by_source[req.source.as_str()];
        assert_eq!(resp.passed, cold_resp.passed, "{}", req.name);
        assert_eq!(
            resp.speedup.to_bits(),
            cold_resp.speedup.to_bits(),
            "{}",
            req.name
        );
        assert_eq!(resp.best, cold_resp.best, "{}", req.name);
        assert_eq!(resp.verdict, cold_resp.verdict, "{}", req.name);
    }

    // Pin: snapshot → restore → replay is byte-identical to replaying
    // on the live server.
    let snapshot = server.snapshot().expect("serve snapshot");
    let live_replay: Vec<String> = server
        .submit(&warm_reqs)
        .iter()
        .map(Response::to_json)
        .collect();
    let t0 = Instant::now();
    let mut restored = Server::restore(cfg, threads, &snapshot).expect("serve restore");
    let restore_ms = t0.elapsed().as_secs_f64() * 1e3;
    let restored_replay: Vec<String> = restored
        .submit(&warm_reqs)
        .iter()
        .map(Response::to_json)
        .collect();
    assert_eq!(
        live_replay, restored_replay,
        "restored service diverged from the live one"
    );

    let stats = server.stats();
    let cold_ns = cold_ms * 1e6 / kernels.len().max(1) as f64;
    let warm_ns = warm_ms * 1e6 / warm_requests.max(1) as f64;
    ServeReport {
        kernels: kernels.len(),
        warm_requests,
        hits: stats.hits,
        misses: stats.misses,
        hit_rate: stats.hit_rate(),
        cold_ms,
        warm_ms,
        cold_ns_per_request: cold_ns,
        warm_ns_per_request: warm_ns,
        warm_speedup: cold_ns / warm_ns.max(1e-9),
        cold_llm_calls,
        warm_stream_delta,
        warm_expansion_delta,
        snapshot_bytes: snapshot.len(),
        restore_ms,
        server,
    }
}

//! # looprag-serve
//!
//! Optimization-as-a-service: a long-lived service that owns one
//! persistent [`LoopRag`] engine (dataset + knowledge base) shared
//! across requests, with a global **verified-winner memo** — a
//! cross-request cache of whole optimization outcomes — and
//! snapshot/restore so the service survives restarts with its learned
//! state intact.
//!
//! # Request lifecycle
//!
//! ```text
//!            submit(batch)
//!                 │
//!   ┌─ sequential admission (in request order) ─┐
//!   │  compile → canonical printed form         │
//!   │  ├─ invalid        → Rejected             │
//!   │  ├─ memo has it    → Hit  (no work)       │
//!   │  ├─ first in batch → Lead (miss)          │
//!   │  └─ repeat in batch→ Hit  (served by Lead)│
//!   └────────────────────────────────────────────┘
//!                 │ Leads only
//!        par_map over the looprag-runtime pool
//!        (each lead runs the full pipeline at
//!         pool size 1 against the epoch-frozen KB)
//!                 │
//!   sequential memo commit in admission order,
//!   feedback wins staged for commit_epoch()
//!                 │
//!        responses in request order
//! ```
//!
//! # Memo key
//!
//! Conceptually the memo is keyed by the triple
//! `(MachineConfig::fingerprint(), canonical printed form of the
//! kernel, arm/config fingerprint)`. A server instance runs exactly one
//! arm — one [`LoopRagConfig`] — so the machine and arm components are
//! fixed per server ([`Server::machine_fingerprint`] /
//! [`Server::arm_fingerprint`]) and the in-memory map is keyed by the
//! third component alone: the **full canonical printed form** of the
//! kernel, not a hash of it, so a hash collision can never serve the
//! wrong program. Snapshots record all three components and
//! [`Server::restore`] refuses a snapshot whose machine or arm
//! fingerprint disagrees with the restoring server's config.
//!
//! # Determinism guarantee
//!
//! A miss outcome is a pure function of `(canonical kernel text, config
//! fingerprint, knowledge-base state at epoch start)`: the per-kernel
//! seed derives from the canonical text (never the request's display
//! name), every lead runs at pool size 1 on the worker pool, and
//! feedback wins are staged and folded in only at [`Server::commit_epoch`]
//! in canonical (sorted) order. Consequently fixed-seed responses are
//! bit-identical at any pool size and any request interleaving of the
//! same multiset of kernels within an epoch, and a restored server
//! replays a workload with byte-identical responses.
//!
//! # Snapshot format
//!
//! Compact JSON via the vendored serde shims, format version 1:
//!
//! ```json
//! {
//!   "format_version": 1,
//!   "machine_fingerprint": "...",
//!   "arm_fingerprint": "cfg:...",
//!   "kb_fingerprint": "016-hex-digit FNV fold",
//!   "dataset": { "examples": [ ... incl. mined records ... ] },
//!   "memo": [ { "kernel": "...", "passed": true, "speedup": 2.5,
//!               "best": "...", "llm_calls": 14,
//!               "search_expansions": 0, "kb_fingerprint": "..." }, ... ],
//!   "rank_model": "{...}"   // only when a reranker is configured
//! }
//! ```
//!
//! Memo entries are written sorted by kernel text (`u64` fingerprints
//! as fixed-width hex strings — the shim's integers are `i64`), so
//! save→load→save is byte-stable.

#![warn(missing_docs)]

use looprag_core::{LoopRag, LoopRagConfig, OptimizationOutcome};
use looprag_ir::{compile, parse_program, print_program, Program};
use looprag_rank::RankModel;
use looprag_runtime::{par_map, resolve_threads};
use looprag_synth::Dataset;
use looprag_trace::Recorder;
use serde::Value;
use std::collections::BTreeMap;
use std::sync::Mutex;

/// Current snapshot format version.
const SNAPSHOT_VERSION: i64 = 1;

/// One optimization request: a display name plus kernel source text.
#[derive(Debug, Clone)]
pub struct Request {
    /// Caller-chosen display name, echoed in the response. Two requests
    /// with the same source but different names are the same kernel:
    /// admission keys on the canonical printed form only.
    pub name: String,
    /// Kernel source text.
    pub source: String,
}

impl Request {
    /// Convenience constructor.
    pub fn new(name: impl Into<String>, source: impl Into<String>) -> Self {
        Request {
            name: name.into(),
            source: source.into(),
        }
    }
}

/// How a request was served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheStatus {
    /// Full pipeline run (LLM + search + differential testing).
    Miss,
    /// Served from the verified-winner memo: no LLM stream advance, no
    /// search expansion, no differential test.
    Hit,
    /// The source did not compile; nothing ran and nothing was cached.
    Rejected,
}

impl CacheStatus {
    fn as_str(self) -> &'static str {
        match self {
            CacheStatus::Miss => "miss",
            CacheStatus::Hit => "hit",
            CacheStatus::Rejected => "rejected",
        }
    }
}

/// One response. The outcome payload (`passed`/`speedup`/`best`/
/// `verdict`) is a pure function of the kernel and the server's state;
/// `cache` and the work counters are positional metadata (first
/// occurrence pays, repeats are free).
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// The request's display name, echoed back.
    pub name: String,
    /// How the request was served.
    pub cache: CacheStatus,
    /// Whether a verified (differential-test passing) candidate exists.
    pub passed: bool,
    /// Estimated speedup of the best verified candidate (0 when none).
    pub speedup: f64,
    /// Printed form of the best verified candidate, when one exists.
    pub best: Option<String>,
    /// Human-readable verdict line.
    pub verdict: String,
    /// Simulated-LLM stream advances this request consumed (0 on hits).
    pub llm_calls: u64,
    /// Beam-search node expansions this request consumed (0 on hits).
    pub search_expansions: u64,
}

impl Response {
    /// Canonical compact-JSON rendering, for byte-exact comparison of
    /// replayed workloads (fixed field order, shim float formatting).
    pub fn to_json(&self) -> String {
        let v = Value::Object(vec![
            ("name".into(), Value::Str(self.name.clone())),
            ("cache".into(), Value::Str(self.cache.as_str().into())),
            ("passed".into(), Value::Bool(self.passed)),
            ("speedup".into(), Value::Float(self.speedup)),
            (
                "best".into(),
                match &self.best {
                    Some(b) => Value::Str(b.clone()),
                    None => Value::Null,
                },
            ),
            ("verdict".into(), Value::Str(self.verdict.clone())),
            ("llm_calls".into(), int_of(self.llm_calls)),
            ("search_expansions".into(), int_of(self.search_expansions)),
        ]);
        serde_json::to_string(&v).expect("response floats are finite")
    }
}

/// One memoized whole-pipeline outcome (failures included: a kernel the
/// pipeline could not verify stays a cache hit — retrying it would
/// deterministically fail again under the same config and KB state).
#[derive(Debug, Clone, PartialEq)]
struct MemoEntry {
    passed: bool,
    speedup: f64,
    best: Option<String>,
    /// Work the original miss spent, kept for reporting.
    llm_calls: u64,
    search_expansions: u64,
    /// KB content fingerprint at compute time (provenance: which epoch
    /// state verified this entry).
    kb_fingerprint: u64,
}

impl MemoEntry {
    fn verdict(&self) -> String {
        if self.passed {
            format!("pass (speedup {:.2}x)", self.speedup)
        } else {
            "no passing candidate".to_string()
        }
    }
}

/// Cumulative service counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Requests admitted (including rejected ones).
    pub requests: u64,
    /// Requests served from the verified-winner memo.
    pub hits: u64,
    /// Requests that ran the full pipeline.
    pub misses: u64,
    /// Requests whose source did not compile.
    pub rejected: u64,
}

impl ServeStats {
    /// Hit rate over non-rejected traffic (0 when there was none).
    pub fn hit_rate(&self) -> f64 {
        let served = self.hits + self.misses;
        if served == 0 {
            0.0
        } else {
            self.hits as f64 / served as f64
        }
    }
}

/// A feedback win staged for the next [`Server::commit_epoch`].
#[derive(Debug, Clone)]
struct StagedWin {
    canonical: String,
    outcome: OptimizationOutcome,
}

/// The optimization server: one engine, one memo, one arm.
pub struct Server {
    engine: LoopRag,
    /// canonical printed kernel -> memoized outcome. A `BTreeMap` so
    /// snapshots iterate in sorted order without an extra sort.
    memo: BTreeMap<String, MemoEntry>,
    staged: Vec<StagedWin>,
    threads: usize,
    machine_fp: String,
    arm_fp: String,
    stats: ServeStats,
}

// Manual impl: the engine holds no Debug (its KB is deliberately
// opaque), so summarize the serving state instead.
impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("memo_len", &self.memo.len())
            .field("staged", &self.staged.len())
            .field("threads", &self.threads)
            .field("arm_fp", &self.arm_fp)
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

/// Sequential admission decision for one request.
enum Admission {
    Rejected(String),
    Hit(String),
    Lead { canonical: String, lead: usize },
    Follow { canonical: String },
}

/// Cached handles into the global metrics registry, mirroring
/// [`ServeStats`] plus a memo-size gauge and a per-batch lead-count
/// histogram. Observational only: never consulted by admission, memo
/// commits or responses.
struct ServeMetrics {
    requests: looprag_trace::Counter,
    hits: looprag_trace::Counter,
    misses: looprag_trace::Counter,
    rejected: looprag_trace::Counter,
    memo_len: looprag_trace::Gauge,
    batch_leads: looprag_trace::Histogram,
}

fn serve_metrics() -> &'static ServeMetrics {
    static M: std::sync::OnceLock<ServeMetrics> = std::sync::OnceLock::new();
    M.get_or_init(|| {
        let r = looprag_trace::metrics();
        ServeMetrics {
            requests: r.counter("serve.requests"),
            hits: r.counter("serve.hits"),
            misses: r.counter("serve.misses"),
            rejected: r.counter("serve.rejected"),
            memo_len: r.gauge("serve.memo_len"),
            batch_leads: r.histogram("serve.batch_leads"),
        }
    })
}

fn int_of(x: u64) -> Value {
    Value::Int(i64::try_from(x).unwrap_or(i64::MAX))
}

fn fnv64(s: &str) -> u64 {
    looprag_runtime::fnv64(s.bytes())
}

/// The pipeline kernel name for a canonical printed form. Derived from
/// the kernel *text*, never the request's display name, so the same
/// source submitted under different names gets the same per-kernel seed
/// (and therefore the same outcome) in any order.
fn serve_name(canonical: &str) -> String {
    format!("serve:{:016x}", fnv64(canonical))
}

impl Server {
    /// Builds a server over an arm configuration and a demonstration
    /// dataset. `threads` sizes the batch-admission worker pool (0 =
    /// auto); responses are bit-identical at any value.
    pub fn new(config: LoopRagConfig, dataset: Dataset, threads: usize) -> Self {
        let machine_fp = config.machine.fingerprint();
        let arm_fp = config.fingerprint();
        Server {
            engine: LoopRag::new(config, dataset),
            memo: BTreeMap::new(),
            staged: Vec::new(),
            threads,
            machine_fp,
            arm_fp,
            stats: ServeStats::default(),
        }
    }

    /// The machine-model component of the memo key.
    pub fn machine_fingerprint(&self) -> &str {
        &self.machine_fp
    }

    /// The arm/config component of the memo key (includes the machine
    /// fingerprint; excludes pool sizes).
    pub fn arm_fingerprint(&self) -> &str {
        &self.arm_fp
    }

    /// Number of memoized outcomes.
    pub fn memo_len(&self) -> usize {
        self.memo.len()
    }

    /// Cumulative request counters.
    pub fn stats(&self) -> ServeStats {
        self.stats
    }

    /// The knowledge base's content fingerprint (see
    /// [`LoopRag::kb_fingerprint`]).
    pub fn kb_fingerprint(&self) -> u64 {
        self.engine.kb_fingerprint()
    }

    /// Feedback wins staged for the next [`Server::commit_epoch`].
    pub fn staged_len(&self) -> usize {
        self.staged.len()
    }

    /// Canonicalizes a kernel source: compiles it and returns the
    /// printed form that keys the memo.
    ///
    /// # Errors
    ///
    /// Returns the compile diagnostic for invalid source.
    pub fn canonicalize(source: &str) -> Result<String, String> {
        compile(source, "request")
            .map(|p| print_program(&p))
            .map_err(|e| e.to_string())
    }

    /// Serves one batch of requests. See the module docs for the
    /// lifecycle; responses come back in request order.
    pub fn submit(&mut self, requests: &[Request]) -> Vec<Response> {
        self.submit_traced(requests, None)
    }

    /// [`Server::submit`] with an optional trace recorder capturing the
    /// batch lifecycle: one `serve.batch` span wrapping the four phase
    /// spans, per-request admission instants, and one `serve.lead` span
    /// per pipeline run holding that lead's full pipeline span tree
    /// (recorded into a child recorder per lead and absorbed in admission
    /// order, so the logical stream is bit-identical at any pool size).
    /// With `rec: None` responses are byte-identical to [`Server::submit`].
    pub fn submit_traced(&mut self, requests: &[Request], rec: Option<&Recorder>) -> Vec<Response> {
        let _span = looprag_trace::span(rec, "serve.batch", || {
            format!("requests={}", requests.len())
        });
        // Phase 1 — sequential admission, in request order.
        let mut admissions: Vec<Admission> = Vec::with_capacity(requests.len());
        let mut leads: Vec<(String, Program)> = Vec::new();
        let mut pending: BTreeMap<String, usize> = BTreeMap::new();
        {
            let _s = looprag_trace::span(rec, "serve.admit", String::new);
            for req in requests {
                self.stats.requests += 1;
                serve_metrics().requests.inc();
                let program = match compile(&req.source, "request") {
                    Ok(p) => p,
                    Err(e) => {
                        self.stats.rejected += 1;
                        serve_metrics().rejected.inc();
                        looprag_trace::instant(rec, "serve.reject", || req.name.clone());
                        admissions.push(Admission::Rejected(e.to_string()));
                        continue;
                    }
                };
                let canonical = print_program(&program);
                if self.memo.contains_key(&canonical) {
                    self.stats.hits += 1;
                    serve_metrics().hits.inc();
                    looprag_trace::instant(rec, "memo.hit", || serve_name(&canonical));
                    admissions.push(Admission::Hit(canonical));
                } else if pending.contains_key(&canonical) {
                    self.stats.hits += 1;
                    serve_metrics().hits.inc();
                    looprag_trace::instant(rec, "memo.follow", || serve_name(&canonical));
                    admissions.push(Admission::Follow { canonical });
                } else {
                    self.stats.misses += 1;
                    serve_metrics().misses.inc();
                    looprag_trace::instant(rec, "memo.miss", || serve_name(&canonical));
                    pending.insert(canonical.clone(), leads.len());
                    admissions.push(Admission::Lead {
                        canonical: canonical.clone(),
                        lead: leads.len(),
                    });
                    leads.push((canonical, program));
                }
            }
        }
        serve_metrics().batch_leads.observe(leads.len() as u64);

        // Phase 2 — leads fan out over the pool; each runs the full
        // pipeline at pool size 1 against the epoch-frozen KB, so the
        // outcome set is independent of both the outer pool size and
        // the batch composition. Each lead traces into its own child
        // recorder, absorbed in admission order below.
        let threads = resolve_threads(self.threads);
        let engine = &self.engine;
        let outcomes: Vec<OptimizationOutcome> = {
            let _s =
                looprag_trace::span(rec, "serve.optimize", || format!("leads={}", leads.len()));
            let results = par_map(threads, &leads, |_, (canonical, p)| {
                let child = looprag_trace::local(rec);
                let outcome = {
                    let name = serve_name(canonical);
                    let _lead = looprag_trace::span(child.as_ref(), "serve.lead", || name.clone());
                    let outcome = engine.optimize_traced(&name, p, 1, child.as_ref());
                    looprag_trace::value(
                        child.as_ref(),
                        "serve.lead_llm_calls",
                        outcome.llm_calls as i64,
                        String::new,
                    );
                    outcome
                };
                (outcome, child)
            });
            let (outcomes, children): (Vec<_>, Vec<_>) = results.into_iter().unzip();
            if let Some(r) = rec {
                r.absorb(children.into_iter().flatten());
            }
            outcomes
        };

        // Phase 3 — sequential memo commit in admission order, staging
        // feedback wins for the next epoch commit.
        let kb_fp = self.engine.kb_fingerprint();
        let feedback = self.engine.config().feedback;
        {
            let _s = looprag_trace::span(rec, "serve.commit", String::new);
            for ((canonical, _), outcome) in leads.iter().zip(&outcomes) {
                self.memo.insert(
                    canonical.clone(),
                    MemoEntry {
                        passed: outcome.passed,
                        speedup: outcome.speedup,
                        best: outcome.best.as_ref().map(print_program),
                        llm_calls: outcome.llm_calls,
                        search_expansions: outcome.search_expansions,
                        kb_fingerprint: kb_fp,
                    },
                );
                if feedback && outcome.passed && outcome.speedup > 1.0 {
                    looprag_trace::instant(rec, "serve.staged", || serve_name(canonical));
                    self.staged.push(StagedWin {
                        canonical: canonical.clone(),
                        outcome: outcome.clone(),
                    });
                }
            }
        }
        serve_metrics()
            .memo_len
            .set(i64::try_from(self.memo.len()).unwrap_or(i64::MAX));

        // Phase 4 — responses in request order.
        let _s = looprag_trace::span(rec, "serve.respond", String::new);
        admissions
            .into_iter()
            .zip(requests)
            .map(|(adm, req)| match adm {
                Admission::Rejected(err) => Response {
                    name: req.name.clone(),
                    cache: CacheStatus::Rejected,
                    passed: false,
                    speedup: 0.0,
                    best: None,
                    verdict: format!("rejected: {err}"),
                    llm_calls: 0,
                    search_expansions: 0,
                },
                Admission::Hit(canonical) | Admission::Follow { canonical } => {
                    let entry = &self.memo[&canonical];
                    Response {
                        name: req.name.clone(),
                        cache: CacheStatus::Hit,
                        passed: entry.passed,
                        speedup: entry.speedup,
                        best: entry.best.clone(),
                        verdict: entry.verdict(),
                        llm_calls: 0,
                        search_expansions: 0,
                    }
                }
                Admission::Lead { canonical, lead } => {
                    let entry = &self.memo[&canonical];
                    let outcome = &outcomes[lead];
                    Response {
                        name: req.name.clone(),
                        cache: CacheStatus::Miss,
                        passed: entry.passed,
                        speedup: entry.speedup,
                        best: entry.best.clone(),
                        verdict: entry.verdict(),
                        llm_calls: outcome.llm_calls,
                        search_expansions: outcome.search_expansions,
                    }
                }
            })
            .collect()
    }

    /// Folds every staged feedback win into the knowledge base, in
    /// canonical (sorted-by-kernel) order so the resulting KB state is
    /// independent of the order the wins arrived in. Starts a new
    /// epoch: subsequent misses see the enriched KB. Returns the number
    /// of records ingested.
    pub fn commit_epoch(&mut self) -> usize {
        let mut staged = std::mem::take(&mut self.staged);
        staged.sort_by(|a, b| a.canonical.cmp(&b.canonical));
        staged.dedup_by(|a, b| a.canonical == b.canonical);
        let mut ingested = 0usize;
        for win in &staged {
            let target = parse_program(&win.canonical, &serve_name(&win.canonical))
                .expect("staged kernels were compiled at admission");
            if self.engine.ingest_outcome(&target, &win.outcome) {
                ingested += 1;
            }
        }
        ingested
    }

    /// Serializes the server's learned state (dataset incl. mined
    /// records, verified-winner memo, fingerprints) to compact JSON.
    /// Commits the current epoch first, so staged feedback wins are
    /// never lost to a restart.
    ///
    /// # Errors
    ///
    /// Propagates JSON writer failures (non-finite floats; cannot occur
    /// for pipeline speedups).
    pub fn snapshot(&mut self) -> Result<String, String> {
        self.commit_epoch();
        let dataset_json = self
            .engine
            .dataset()
            .to_json()
            .map_err(|e| format!("snapshot: dataset serialization failed: {e}"))?;
        let dataset: Value = serde_json::from_str(&dataset_json)
            .map_err(|e| format!("snapshot: dataset re-parse failed: {e}"))?;
        let memo: Vec<Value> = self
            .memo
            .iter()
            .map(|(kernel, e)| {
                Value::Object(vec![
                    ("kernel".into(), Value::Str(kernel.clone())),
                    ("passed".into(), Value::Bool(e.passed)),
                    ("speedup".into(), Value::Float(e.speedup)),
                    (
                        "best".into(),
                        match &e.best {
                            Some(b) => Value::Str(b.clone()),
                            None => Value::Null,
                        },
                    ),
                    ("llm_calls".into(), int_of(e.llm_calls)),
                    ("search_expansions".into(), int_of(e.search_expansions)),
                    (
                        "kb_fingerprint".into(),
                        Value::Str(format!("{:016x}", e.kb_fingerprint)),
                    ),
                ])
            })
            .collect();
        let mut fields = vec![
            ("format_version".into(), Value::Int(SNAPSHOT_VERSION)),
            (
                "machine_fingerprint".into(),
                Value::Str(self.machine_fp.clone()),
            ),
            ("arm_fingerprint".into(), Value::Str(self.arm_fp.clone())),
            (
                "kb_fingerprint".into(),
                Value::Str(format!("{:016x}", self.engine.kb_fingerprint())),
            ),
            ("dataset".into(), dataset),
            ("memo".into(), Value::Array(memo)),
        ];
        // The rank model rides the snapshot so a restore can verify it
        // was trained on the same model the arm fingerprint promises.
        // Emitted only when a reranker is configured: ranker-free
        // snapshots stay byte-identical to pre-reranker builds.
        if let Some(rank) = &self.engine.config().rank {
            let model = rank
                .model
                .to_json()
                .map_err(|e| format!("snapshot: rank model serialization failed: {e}"))?;
            fields.push(("rank_model".into(), Value::Str(model)));
        }
        let doc = Value::Object(fields);
        serde_json::to_string(&doc).map_err(|e| format!("snapshot: JSON write failed: {e}"))
    }

    /// Rebuilds a server from a snapshot produced by
    /// [`Server::snapshot`]. Every stored program is re-validated and
    /// the rebuilt knowledge base's fingerprint is checked against the
    /// recorded one, so corruption is reported as a descriptive error,
    /// never a panic. A restored server replays a workload with
    /// byte-identical responses.
    ///
    /// # Errors
    ///
    /// Rejects malformed JSON, an unknown format version, a snapshot
    /// taken under a different machine or arm fingerprint, corrupt
    /// stored programs, and a knowledge-base fingerprint mismatch.
    pub fn restore(config: LoopRagConfig, threads: usize, json: &str) -> Result<Self, String> {
        let doc: Value =
            serde_json::from_str(json).map_err(|e| format!("restore: malformed snapshot: {e}"))?;
        let version = match doc.get("format_version") {
            Some(Value::Int(v)) => *v,
            _ => return Err("restore: snapshot missing format_version".to_string()),
        };
        if version != SNAPSHOT_VERSION {
            return Err(format!(
                "restore: unsupported snapshot format_version {version} (expected {SNAPSHOT_VERSION})"
            ));
        }
        let str_field = |key: &str| -> Result<&str, String> {
            match doc.get(key) {
                Some(Value::Str(s)) => Ok(s.as_str()),
                _ => Err(format!("restore: snapshot missing string field `{key}`")),
            }
        };
        let machine_fp = config.machine.fingerprint();
        let arm_fp = config.fingerprint();
        let snap_machine = str_field("machine_fingerprint")?;
        if snap_machine != machine_fp {
            return Err(format!(
                "restore: machine fingerprint mismatch: snapshot was taken under\n  {snap_machine}\nbut this server runs\n  {machine_fp}"
            ));
        }
        let snap_arm = str_field("arm_fingerprint")?;
        if snap_arm != arm_fp {
            return Err(format!(
                "restore: arm fingerprint mismatch: snapshot was taken under\n  {snap_arm}\nbut this server runs\n  {arm_fp}"
            ));
        }
        let snap_kb_fp = u64::from_str_radix(str_field("kb_fingerprint")?, 16)
            .map_err(|e| format!("restore: bad kb_fingerprint: {e}"))?;
        match (&config.rank, doc.get("rank_model")) {
            (None, None) => {}
            (None, Some(_)) => {
                return Err(
                    "restore: snapshot carries a rank_model but this server has no reranker configured"
                        .to_string(),
                );
            }
            (Some(_), None) => {
                return Err(
                    "restore: snapshot is missing the rank_model this server's reranker requires"
                        .to_string(),
                );
            }
            (Some(rank), Some(Value::Str(stored))) => {
                let model = RankModel::from_json(stored)
                    .map_err(|e| format!("restore: corrupt rank_model: {e}"))?;
                if model != *rank.model {
                    return Err(format!(
                        "restore: rank model mismatch: snapshot stores model {:016x} but this server is configured with {:016x}",
                        model.fingerprint(),
                        rank.model.fingerprint()
                    ));
                }
            }
            (Some(_), Some(_)) => {
                return Err("restore: rank_model must be a string".to_string());
            }
        }

        let dataset_value = doc
            .get("dataset")
            .ok_or_else(|| "restore: snapshot missing dataset".to_string())?;
        let dataset: Dataset = serde::Deserialize::from_value(dataset_value)
            .map_err(|e| format!("restore: bad dataset: {e}"))?;
        // Pre-validate every stored program: `ExampleRecord::program`
        // panics on corrupt text, so parse here and report instead.
        for e in &dataset.examples {
            parse_program(&e.source, &format!("ex_{}", e.id))
                .map_err(|err| format!("restore: corrupt source of example {}: {err}", e.id))?;
            parse_program(&e.optimized, &format!("ex_{}_opt", e.id))
                .map_err(|err| format!("restore: corrupt optimized of example {}: {err}", e.id))?;
        }

        let mut memo = BTreeMap::new();
        let entries = match doc.get("memo") {
            Some(Value::Array(items)) => items.as_slice(),
            _ => return Err("restore: snapshot missing memo array".to_string()),
        };
        for (i, item) in entries.iter().enumerate() {
            let kernel = match item.get("kernel") {
                Some(Value::Str(s)) => s.clone(),
                _ => return Err(format!("restore: memo[{i}] missing kernel")),
            };
            let parsed = parse_program(&kernel, "memo")
                .map_err(|e| format!("restore: corrupt kernel in memo[{i}]: {e}"))?;
            if print_program(&parsed) != kernel {
                return Err(format!(
                    "restore: memo[{i}] kernel is not in canonical form"
                ));
            }
            let passed = match item.get("passed") {
                Some(Value::Bool(b)) => *b,
                _ => return Err(format!("restore: memo[{i}] missing passed")),
            };
            let speedup = match item.get("speedup") {
                Some(Value::Float(f)) => *f,
                Some(Value::Int(n)) => *n as f64,
                _ => return Err(format!("restore: memo[{i}] missing speedup")),
            };
            let best = match item.get("best") {
                Some(Value::Str(s)) => {
                    parse_program(s, "memo_best")
                        .map_err(|e| format!("restore: corrupt best in memo[{i}]: {e}"))?;
                    Some(s.clone())
                }
                Some(Value::Null) | None => None,
                _ => return Err(format!("restore: memo[{i}] bad best field")),
            };
            let int_field = |key: &str| -> Result<u64, String> {
                match item.get(key) {
                    Some(Value::Int(n)) => {
                        u64::try_from(*n).map_err(|_| format!("restore: memo[{i}] negative {key}"))
                    }
                    _ => Err(format!("restore: memo[{i}] missing {key}")),
                }
            };
            let kb_fingerprint = match item.get("kb_fingerprint") {
                Some(Value::Str(s)) => u64::from_str_radix(s, 16)
                    .map_err(|e| format!("restore: memo[{i}] bad kb_fingerprint: {e}"))?,
                _ => return Err(format!("restore: memo[{i}] missing kb_fingerprint")),
            };
            let entry = MemoEntry {
                passed,
                speedup,
                best,
                llm_calls: int_field("llm_calls")?,
                search_expansions: int_field("search_expansions")?,
                kb_fingerprint,
            };
            if memo.insert(kernel, entry).is_some() {
                return Err(format!("restore: duplicate kernel in memo[{i}]"));
            }
        }

        let engine = LoopRag::new(config, dataset);
        if engine.kb_fingerprint() != snap_kb_fp {
            return Err(format!(
                "restore: knowledge-base fingerprint mismatch: snapshot records {snap_kb_fp:016x} but the rebuilt base is {:016x} (dataset corrupted or reordered)",
                engine.kb_fingerprint()
            ));
        }
        Ok(Server {
            engine,
            memo,
            staged: Vec::new(),
            threads,
            machine_fp,
            arm_fp,
            stats: ServeStats::default(),
        })
    }
}

/// A thread-safe wrapper: the whole server sits behind one mutex (the
/// *service lock*), so knowledge-base ingestion and memo commits are
/// serialized while each batch still fans out over the worker pool
/// internally.
pub struct Service {
    inner: Mutex<Server>,
}

impl Service {
    /// Wraps a server.
    pub fn new(server: Server) -> Self {
        Service {
            inner: Mutex::new(server),
        }
    }

    /// Serves one batch under the service lock.
    pub fn submit(&self, requests: &[Request]) -> Vec<Response> {
        self.inner.lock().expect("service lock").submit(requests)
    }

    /// Commits the epoch under the service lock.
    pub fn commit_epoch(&self) -> usize {
        self.inner.lock().expect("service lock").commit_epoch()
    }

    /// Snapshots under the service lock.
    ///
    /// # Errors
    ///
    /// Propagates [`Server::snapshot`] failures.
    pub fn snapshot(&self) -> Result<String, String> {
        self.inner.lock().expect("service lock").snapshot()
    }

    /// Runs `f` with the locked server, for inspection.
    pub fn with<R>(&self, f: impl FnOnce(&Server) -> R) -> R {
        f(&self.inner.lock().expect("service lock"))
    }

    /// Unwraps the inner server.
    ///
    /// # Panics
    ///
    /// Panics when the lock is poisoned.
    pub fn into_inner(self) -> Server {
        self.inner.into_inner().expect("service lock")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use looprag_llm::LlmProfile;
    use looprag_synth::{build_dataset, GeneratorKind, SynthConfig};

    const STREAM: &str = "param N = 64;\narray A[N];\narray B[N];\nout A;\n#pragma scop\nfor (i = 0; i <= N - 1; i++) A[i] = B[i] + 1.0;\n#pragma endscop\n";
    const SCALE: &str = "param N = 48;\narray A[N];\nout A;\n#pragma scop\nfor (i = 0; i <= N - 1; i++) A[i] = A[i] * 2.0;\n#pragma endscop\n";

    fn tiny_config() -> LoopRagConfig {
        LoopRagConfig {
            k: 2,
            demos: 2,
            ..LoopRagConfig::new(LlmProfile::gpt4())
        }
    }

    fn tiny_server() -> Server {
        let dataset = build_dataset(&SynthConfig {
            count: 6,
            generator: GeneratorKind::ColaGen,
            ..SynthConfig::default()
        });
        Server::new(tiny_config(), dataset, 1)
    }

    #[test]
    fn repeat_requests_hit_with_identical_payload() {
        let mut server = tiny_server();
        let cold = server.submit(&[Request::new("first", STREAM)]);
        let warm = server.submit(&[Request::new("second", STREAM)]);
        assert_eq!(cold[0].cache, CacheStatus::Miss);
        assert_eq!(warm[0].cache, CacheStatus::Hit);
        assert_eq!((warm[0].llm_calls, warm[0].search_expansions), (0, 0));
        assert_eq!(cold[0].passed, warm[0].passed);
        assert_eq!(cold[0].speedup.to_bits(), warm[0].speedup.to_bits());
        assert_eq!(cold[0].best, warm[0].best);
        assert_eq!(cold[0].verdict, warm[0].verdict);
        assert_eq!(server.memo_len(), 1);
        assert_eq!(server.stats().hits, 1);
    }

    #[test]
    fn duplicate_sources_in_one_batch_share_the_lead() {
        let mut server = tiny_server();
        let batch = server.submit(&[
            Request::new("a", STREAM),
            Request::new("b", SCALE),
            // Same kernel as "a" under a different name.
            Request::new("c", STREAM),
        ]);
        assert_eq!(batch[0].cache, CacheStatus::Miss);
        assert_eq!(batch[1].cache, CacheStatus::Miss);
        assert_eq!(batch[2].cache, CacheStatus::Hit);
        assert_eq!(batch[2].passed, batch[0].passed);
        assert_eq!(batch[2].best, batch[0].best);
        assert_eq!(server.memo_len(), 2);
    }

    #[test]
    fn outcomes_are_interleaving_invariant() {
        let mut ab = tiny_server();
        let mut ba = tiny_server();
        let r_ab = ab.submit(&[Request::new("x", STREAM), Request::new("y", SCALE)]);
        let mut r_ba = ba.submit(&[Request::new("y", SCALE), Request::new("x", STREAM)]);
        r_ba.reverse();
        assert_eq!(r_ab, r_ba, "batch order changed fixed-seed outcomes");
        // Batching must not matter either.
        let mut split = tiny_server();
        let r1 = split.submit(&[Request::new("x", STREAM)]);
        let r2 = split.submit(&[Request::new("y", SCALE)]);
        assert_eq!(r_ab, vec![r1[0].clone(), r2[0].clone()]);
    }

    #[test]
    fn invalid_source_is_rejected_not_cached() {
        let mut server = tiny_server();
        let r = server.submit(&[Request::new("bad", "for (i = 0; i < N; i++ garbage")]);
        assert_eq!(r[0].cache, CacheStatus::Rejected);
        assert!(!r[0].passed);
        assert!(r[0].verdict.starts_with("rejected: "), "{}", r[0].verdict);
        assert_eq!(server.memo_len(), 0);
        assert_eq!(server.stats().rejected, 1);
    }

    #[test]
    fn oversized_arrays_are_rejected_with_the_reason() {
        let src = "param N = 4000000000;\narray A[N][N][N];\nout A;\n#pragma scop\nA[0][0][0] = 1.0;\n#pragma endscop\n";
        let err = compile(src, "request").unwrap_err().to_string();
        assert!(err.contains("array 'A' is too large"), "{err}");
        let mut server = tiny_server();
        let r = server.submit(&[Request::new("huge", src)]);
        assert_eq!(r[0].cache, CacheStatus::Rejected);
        assert!(!r[0].passed);
        assert_eq!(r[0].verdict, format!("rejected: {err}"));
        assert_eq!(server.stats().rejected, 1);
    }

    #[test]
    fn snapshot_restore_replays_byte_identically() {
        let mut server = tiny_server();
        let reqs = [Request::new("s", STREAM), Request::new("t", SCALE)];
        server.submit(&reqs);
        let snap = server.snapshot().unwrap();
        let warm: Vec<String> = server.submit(&reqs).iter().map(Response::to_json).collect();
        let mut restored = Server::restore(tiny_config(), 1, &snap).unwrap();
        assert_eq!(restored.memo_len(), server.memo_len());
        assert_eq!(restored.kb_fingerprint(), server.kb_fingerprint());
        let replay: Vec<String> = restored
            .submit(&reqs)
            .iter()
            .map(Response::to_json)
            .collect();
        assert_eq!(warm, replay, "restored service diverged from the original");
        // Snapshot stability: save -> load -> save is byte-identical.
        assert_eq!(snap, restored.snapshot().unwrap());
    }

    #[test]
    fn restore_rejects_corruption_descriptively() {
        let mut server = tiny_server();
        server.submit(&[Request::new("s", STREAM)]);
        let snap = server.snapshot().unwrap();
        // Truncated document.
        let err = Server::restore(tiny_config(), 1, &snap[..snap.len() / 2]).unwrap_err();
        assert!(err.contains("malformed snapshot"), "{err}");
        // Wrong arm fingerprint.
        let other = LoopRagConfig {
            seed: 1,
            ..tiny_config()
        };
        let err = Server::restore(other, 1, &snap).unwrap_err();
        assert!(err.contains("arm fingerprint mismatch"), "{err}");
        // Corrupt a stored kernel body.
        let bad = snap.replace("#pragma scop", "#pragma scopp");
        let err = Server::restore(tiny_config(), 1, &bad).unwrap_err();
        assert!(err.contains("restore:"), "{err}");
    }
}

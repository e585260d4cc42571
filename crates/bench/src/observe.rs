//! Observability glue for the bench layer: the shared host-metadata
//! block stamped into every `BENCH_*.json` snapshot, and helpers that
//! capture a representative traced pipeline run and export it in Chrome
//! `trace_event` format (load the file at `chrome://tracing` or in
//! Perfetto).

use looprag_core::{LoopRag, LoopRagConfig, OptimizationOutcome};
use looprag_llm::LlmProfile;
use looprag_search::SearchConfig;
use looprag_synth::{build_dataset, SynthConfig};
use looprag_trace::{Event, Recorder, TraceConfig};

/// Version of the `BENCH_*.json` emitters' shared field layout. Bump
/// when the meta block below (or any emitter's field set) changes shape
/// so snapshot diffs across PRs are attributable.
pub const SNAPSHOT_SCHEMA_VERSION: u32 = 3;

/// The host-metadata block every `BENCH_*.json` emitter embeds as its
/// first fields: schema version, host core count, and quick/full mode.
/// Returned without surrounding braces so emitters can splice it —
/// `format!("{{\n  {meta},\n  ...")`.
pub fn snapshot_meta(quick: bool) -> String {
    let host_cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    format!(
        "\"snapshot_schema_version\": {SNAPSHOT_SCHEMA_VERSION},\n  \"host_cores\": {host_cores},\n  \"quick\": {quick}"
    )
}

/// Runs one representative traced pipeline run — the hybrid arm (LLM +
/// beam search) on the gemm suite kernel over a small synthesized
/// dataset — and returns the logical event stream plus the outcome.
/// Deterministic: fixed seeds, pool size 1 inside the pipeline.
pub fn representative_trace(quick: bool) -> (Vec<Event>, OptimizationOutcome) {
    let dataset = build_dataset(&SynthConfig {
        count: if quick { 12 } else { 40 },
        ..Default::default()
    });
    let mut cfg = LoopRagConfig::new(LlmProfile::deepseek());
    cfg.threads = 1;
    // The hybrid arm, so the trace shows search levels and expansions
    // alongside the generation/testing stages.
    cfg.search = Some(SearchConfig {
        beam: 2,
        depth: 2,
        threads: 1,
        ..SearchConfig::default()
    });
    let rag = LoopRag::new(cfg, dataset);
    let gemm = looprag_suites::find("gemm").expect("gemm kernel").program();
    let rec = Recorder::new(TraceConfig::default());
    let outcome = rag.optimize_traced("gemm", &gemm, 1, Some(&rec));
    (rec.finish(), outcome)
}

/// Writes an event stream to `path` in Chrome `trace_event` JSON.
///
/// # Panics
///
/// Panics when the file cannot be written (bench binaries treat an
/// unwritable output path as fatal).
pub fn write_chrome_trace(path: &str, events: &[Event]) {
    std::fs::write(path, looprag_trace::export::to_chrome_json(events))
        .unwrap_or_else(|e| panic!("write chrome trace to {path}: {e}"));
    eprintln!(
        "[trace] wrote Chrome trace_event JSON to {path} ({} events)",
        events.len()
    );
}

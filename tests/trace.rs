//! Tracing suite: the logical event stream of a fixed-seed run must be
//! bit-identical at pool sizes 1, 2 and 8 for the pipeline, the beam
//! search and the serve layer; a `None` recorder must leave every
//! outcome byte-identical to the untraced entry point; the canonical
//! JSON export must round-trip byte-stably; the Chrome export must be
//! valid JSON; and arbitrarily nested recording must stay well-formed.

use looprag::looprag_core::{LoopRag, LoopRagConfig};
use looprag::looprag_llm::LlmProfile;
use looprag::looprag_machine::CostEngine;
use looprag::looprag_search::{search_with_engine_traced, SearchConfig};
use looprag::looprag_serve::{Request, Server};
use looprag::looprag_suites::{find, suite, Suite};
use looprag::looprag_synth::{build_dataset, Dataset, SynthConfig};
use looprag::looprag_trace::{
    export, instant, local, span, stream_fingerprint, value, well_formed, Event, EventKind,
    Recorder, TraceConfig, TraceSummary,
};
use proptest::prelude::*;

const POOL_SIZES: [usize; 3] = [1, 2, 8];

fn dataset() -> Dataset {
    build_dataset(&SynthConfig {
        count: 12,
        ..Default::default()
    })
}

/// The hybrid arm (LLM + beam search) at a given pool size, so traces
/// cover both the generation/testing fan-out and the search levels.
fn hybrid_config(threads: usize) -> LoopRagConfig {
    let mut cfg = LoopRagConfig::new(LlmProfile::deepseek());
    cfg.threads = threads;
    cfg.search = Some(SearchConfig {
        beam: 2,
        depth: 2,
        threads,
        ..SearchConfig::default()
    });
    cfg
}

/// A traced hybrid run on the (cheap) vpv kernel — the deeper gemm run
/// is covered in release mode by the `perf_snapshot` trace row.
fn traced_pipeline_run(threads: usize) -> (Vec<Event>, String) {
    let rag = LoopRag::new(hybrid_config(threads), dataset());
    let target = find("vpv").unwrap().program();
    let rec = Recorder::new(TraceConfig::default());
    let outcome = rag.optimize_traced("vpv", &target, threads, Some(&rec));
    (rec.finish(), format!("{outcome:?}"))
}

/// The pool-1 run, shared by every test that only needs *a* trace.
fn base_run() -> &'static (Vec<Event>, String) {
    static BASE: std::sync::OnceLock<(Vec<Event>, String)> = std::sync::OnceLock::new();
    BASE.get_or_init(|| traced_pipeline_run(1))
}

// ---- pool-size invariance of the logical stream -------------------------

#[test]
fn pipeline_logical_stream_is_identical_at_any_pool_size() {
    let (base_events, base_outcome) = base_run();
    assert!(well_formed(base_events));
    assert!(!base_events.is_empty(), "traced run recorded nothing");
    let base_json = export::to_canonical_json(base_events);
    for &pool in &POOL_SIZES[1..] {
        let (events, outcome) = traced_pipeline_run(pool);
        assert_eq!(
            export::to_canonical_json(&events),
            base_json,
            "pipeline logical stream diverged at pool size {pool}"
        );
        assert_eq!(
            &outcome, base_outcome,
            "outcome diverged at pool size {pool}"
        );
    }
}

#[test]
fn search_logical_stream_is_identical_at_any_pool_size() {
    let target = find("gemm").unwrap().program();
    let streams: Vec<(String, u64)> = POOL_SIZES
        .iter()
        .map(|&pool| {
            let cfg = SearchConfig {
                beam: 2,
                depth: 3,
                threads: pool,
                ..SearchConfig::default()
            };
            // A fresh engine per run: reproducible cache behaviour.
            let rec = Recorder::new(TraceConfig::default());
            search_with_engine_traced(&target, &cfg, &CostEngine::new(), Some(&rec));
            let events = rec.finish();
            assert!(well_formed(&events));
            (
                export::to_canonical_json(&events),
                stream_fingerprint(&events),
            )
        })
        .collect();
    assert_eq!(streams[0], streams[1], "search stream diverged at pool 2");
    assert_eq!(streams[0], streams[2], "search stream diverged at pool 8");
}

/// The serve-lead nesting pin: a traced batch with several leads is
/// well-formed, each `serve.lead` span holds exactly one lead's
/// `pipeline.optimize` tree, the stream is bit-identical at every pool
/// size, and the responses are byte-identical to untraced `submit`.
#[test]
fn serve_logical_stream_is_identical_at_any_pool_size() {
    let requests: Vec<Request> = suite(Suite::Tsvc)
        .into_iter()
        .take(3)
        .map(|b| Request::new(b.name.clone(), b.source.clone()))
        .collect();
    let untraced = Server::new(hybrid_config(1), dataset(), 1).submit(&requests);
    let untraced: Vec<String> = untraced.iter().map(|r| r.to_json()).collect();
    let runs: Vec<(String, String)> = POOL_SIZES
        .iter()
        .map(|&pool| {
            let mut server = Server::new(hybrid_config(1), dataset(), pool);
            let rec = Recorder::new(TraceConfig::default());
            let responses = server.submit_traced(&requests, Some(&rec));
            let events = rec.finish();
            assert!(well_formed(&events));
            assert_eq!(
                lead_pipeline_counts(&events),
                vec![1; requests.len()],
                "each serve.lead must hold exactly one pipeline.optimize (pool {pool})"
            );
            let payload: Vec<String> = responses.iter().map(|r| r.to_json()).collect();
            assert_eq!(payload, untraced, "traced responses differ (pool {pool})");
            (export::to_canonical_json(&events), payload.join("\n"))
        })
        .collect();
    assert_eq!(runs[0], runs[1], "serve run diverged at pool 2");
    assert_eq!(runs[0], runs[2], "serve run diverged at pool 8");
}

/// The number of `pipeline.optimize` spans opened inside each
/// `serve.lead` span of a well-formed stream, in stream order.
fn lead_pipeline_counts(events: &[Event]) -> Vec<usize> {
    let mut counts = Vec::new();
    let mut depth = 0usize;
    // Depth at which the current lead was opened, if inside one.
    let mut lead_depth = None;
    for e in events {
        match e.kind {
            EventKind::Open => {
                if e.name == "serve.lead" {
                    lead_depth = Some(depth);
                    counts.push(0);
                } else if e.name == "pipeline.optimize" && lead_depth.is_some() {
                    *counts.last_mut().unwrap() += 1;
                }
                depth += 1;
            }
            EventKind::Close => {
                depth -= 1;
                if lead_depth == Some(depth) {
                    lead_depth = None;
                }
            }
            EventKind::Instant | EventKind::Value(_) => {}
        }
    }
    counts
}

// ---- the disabled path changes nothing ----------------------------------

#[test]
fn disabled_tracing_leaves_outcomes_byte_identical() {
    let target = find("vpv").unwrap().program();
    let untraced = {
        let rag = LoopRag::new(hybrid_config(2), dataset());
        format!("{:?}", rag.optimize("vpv", &target))
    };
    let none_rec = {
        let rag = LoopRag::new(hybrid_config(2), dataset());
        format!("{:?}", rag.optimize_traced("vpv", &target, 2, None))
    };
    let traced = {
        let rag = LoopRag::new(hybrid_config(2), dataset());
        let rec = Recorder::new(TraceConfig::default());
        let outcome = rag.optimize_traced("vpv", &target, 2, Some(&rec));
        rec.finish();
        format!("{outcome:?}")
    };
    assert_eq!(untraced, none_rec, "rec: None changed the outcome");
    assert_eq!(untraced, traced, "an enabled recorder changed the outcome");
}

#[test]
fn disabled_helpers_never_build_details() {
    let _g = span(None, "s", || unreachable!("detail built on disabled path"));
    instant(None, "i", || unreachable!());
    value(None, "v", 7, || unreachable!());
    assert!(local(None).is_none());
}

// ---- exports ------------------------------------------------------------

#[test]
fn canonical_json_round_trips_byte_stably() {
    let (events, _) = base_run();
    let json = export::to_canonical_json(events);
    let parsed = export::from_canonical_json(&json).expect("canonical parse");
    // The wall side channel is excluded from the export by design, so
    // the round trip recovers exactly the logical content.
    let logical: Vec<Event> = events
        .iter()
        .cloned()
        .map(|mut e| {
            e.wall_ns = None;
            e
        })
        .collect();
    assert_eq!(parsed, logical, "round trip altered the logical stream");
    assert_eq!(
        export::to_canonical_json(&parsed),
        json,
        "re-export is not byte-stable"
    );
    assert_eq!(stream_fingerprint(&parsed), stream_fingerprint(events));
}

#[test]
fn chrome_export_is_valid_json_with_one_entry_per_span_or_event() {
    let (events, _) = base_run();
    let chrome = export::to_chrome_json(events);
    let v: serde::Value = serde_json::from_str(&chrome).expect("chrome export parses");
    let trace_events = match &v {
        serde::Value::Object(fields) => match fields.iter().find(|(k, _)| k == "traceEvents") {
            Some((_, serde::Value::Array(items))) => items.len(),
            _ => panic!("chrome export lacks a traceEvents array"),
        },
        _ => panic!("chrome export is not a JSON object"),
    };
    assert_eq!(
        trace_events,
        events.len(),
        "chrome export should carry one trace_event per logical event"
    );
}

#[test]
fn summaries_of_identical_streams_diff_empty() {
    let (a, _) = base_run();
    let (b, _) = traced_pipeline_run(2);
    let sa = TraceSummary::from_events(a);
    let sb = TraceSummary::from_events(&b);
    assert!(sa.diff(&sb).is_empty(), "{}", sa.render_diff(&sb));
    assert_eq!(sa.to_canonical_json(), sb.to_canonical_json());
}

// ---- nesting well-formedness under arbitrary programs -------------------

/// A recording script: a sequence of actions replayed onto a recorder,
/// with closes only issued when a span is open (mirroring what the
/// guard API enforces statically).
#[derive(Debug, Clone)]
enum Action {
    Open(u8),
    Close,
    Instant(u8),
    Value(i8),
}

fn action_strategy() -> impl Strategy<Value = Vec<Action>> {
    let action = (0u8..4, 0u8..4, any::<i8>()).prop_map(|(choice, n, v)| match choice {
        0 => Action::Open(n),
        1 => Action::Close,
        2 => Action::Instant(n),
        _ => Action::Value(v),
    });
    prop::collection::vec(action, 0..40)
}

proptest! {
    #[test]
    fn replayed_scripts_always_produce_well_formed_streams(script in action_strategy()) {
        let rec = Recorder::new(TraceConfig { wall_clock: false });
        let mut depth = 0usize;
        for a in &script {
            match a {
                Action::Open(n) => {
                    rec.open(&format!("s{n}"), String::new());
                    depth += 1;
                }
                Action::Close => {
                    if depth > 0 {
                        rec.close();
                        depth -= 1;
                    }
                }
                Action::Instant(n) => rec.instant(&format!("i{n}"), String::new()),
                Action::Value(v) => rec.value("v", i64::from(*v), String::new()),
            }
        }
        for _ in 0..depth {
            rec.close();
        }
        let events = rec.finish();
        prop_assert!(well_formed(&events));
        // Well-formedness survives the canonical round trip too.
        let parsed = export::from_canonical_json(&export::to_canonical_json(&events)).unwrap();
        prop_assert!(well_formed(&parsed));
        prop_assert_eq!(parsed, events);
    }

    #[test]
    fn absorbed_buffers_keep_streams_well_formed(scripts in prop::collection::vec(action_strategy(), 0..6)) {
        let rec = Recorder::new(TraceConfig { wall_clock: false });
        let mut bufs = Vec::new();
        for script in &scripts {
            let buf = local(Some(&rec)).unwrap();
            let mut depth = 0usize;
            for a in script {
                match a {
                    Action::Open(n) => {
                        buf.open(&format!("s{n}"), String::new());
                        depth += 1;
                    }
                    Action::Close => {
                        if depth > 0 {
                            buf.close();
                            depth -= 1;
                        }
                    }
                    Action::Instant(n) => buf.instant(&format!("i{n}"), String::new()),
                    Action::Value(v) => buf.value("v", i64::from(*v), String::new()),
                }
            }
            for _ in 0..depth {
                buf.close();
            }
            bufs.push(buf);
        }
        rec.absorb(bufs);
        let events = rec.finish();
        prop_assert!(well_formed(&events));
        // Sequence numbers are assigned at absorb time: contiguous from 0.
        for (i, e) in events.iter().enumerate() {
            prop_assert_eq!(e.seq, i as u64);
        }
    }
}

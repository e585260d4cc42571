//! Regenerates the paper's tables and figures.
//!
//! ```text
//! cargo run --release -p looprag-bench --bin experiments -- all
//! cargo run --release -p looprag-bench --bin experiments -- table1 fig6
//! cargo run --release -p looprag-bench --bin experiments -- all --quick
//! ```
//!
//! `--quick` evaluates every third kernel with a smaller dataset (for
//! smoke-testing the harness); full runs use every kernel.
//! `--threads N` sets the campaign worker-pool size (default: the
//! `LOOPRAG_THREADS` environment variable, then available parallelism);
//! results are identical at any pool size.
//! `--docs N` overrides the demonstration-dataset size (e.g. to
//! benchmark retrieval over a large synthesized corpus).
//! `--arm search` runs the search-only campaign arm (the
//! legality-guided beam search through `run_campaign`, differential
//! testing included) with `--beam N` / `--depth D` (defaults 4 / 3).
//! `--serve` runs the service arm (a persistent server with the
//! cross-request verified-winner memo, cold phase over the strided
//! suite then a Zipf repeat workload) with `--requests N` (default
//! 200).
//! `--trace-out <path>` records a representative traced pipeline run
//! (the hybrid gemm arm) and writes it as Chrome `trace_event` JSON —
//! load at `chrome://tracing` or in Perfetto. On its own it runs only
//! the trace capture; combine with experiment ids to also run those.
//! An id not in `experiments::EXPERIMENTS` exits 2 with the list of known
//! ids, before any dataset is synthesized.

use looprag_bench::experiments;
use looprag_bench::{EvalOptions, Harness};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let threads_pos = args.iter().position(|a| a == "--threads");
    let threads = threads_pos
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(0);
    let docs_pos = args.iter().position(|a| a == "--docs");
    let docs: Option<usize> = docs_pos
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok());
    let arm_pos = args.iter().position(|a| a == "--arm");
    let arm: Option<String> = arm_pos.and_then(|i| args.get(i + 1).cloned());
    if arm_pos.is_some() && arm.is_none() {
        // Without this guard a forgotten value would fall through to
        // the default full experiment battery — hours of work.
        eprintln!("--arm requires a value (expected: search)");
        std::process::exit(2);
    }
    if let Some(a) = arm.as_deref() {
        // Validate before the harness synthesizes datasets: with no
        // experiment ids a typo'd arm would otherwise burn a minute and
        // then report success while running nothing.
        if a != "search" {
            eprintln!("unknown arm '{a}' (expected: search)");
            std::process::exit(2);
        }
    }
    // A present flag with a missing or unparseable value exits with a
    // diagnostic instead of silently running at the default.
    let numeric_flag = |flag: &str, default: usize| -> (Option<usize>, usize) {
        let pos = args.iter().position(|a| a == flag);
        let value = match pos {
            None => default,
            Some(i) => match args.get(i + 1).and_then(|v| v.parse().ok()) {
                Some(v) if v > 0 => v,
                _ => {
                    eprintln!("{flag} requires a positive integer value");
                    std::process::exit(2);
                }
            },
        };
        (pos, value)
    };
    let (beam_pos, beam) = numeric_flag("--beam", 4);
    let (depth_pos, depth) = numeric_flag("--depth", 3);
    if arm.is_none() && (beam_pos.is_some() || depth_pos.is_some()) {
        // Without this, `--beam 4 --depth 6` alone would silently fall
        // through to the default full experiment battery.
        eprintln!("--beam/--depth require --arm search");
        std::process::exit(2);
    }
    let trace_out_pos = args.iter().position(|a| a == "--trace-out");
    let trace_out: Option<String> = trace_out_pos.and_then(|i| args.get(i + 1).cloned());
    if trace_out_pos.is_some() && trace_out.as_deref().map_or(true, |v| v.starts_with("--")) {
        // Same guard as --arm: a forgotten path would either eat the
        // next flag or fall through to the default full battery.
        eprintln!("--trace-out requires a path value");
        std::process::exit(2);
    }
    let serve = args.iter().any(|a| a == "--serve");
    let (requests_pos, requests) = numeric_flag("--requests", 200);
    if !serve && requests_pos.is_some() {
        // Same guard as --beam/--depth: `--requests 500` alone would
        // silently fall through to the default full battery.
        eprintln!("--requests requires --serve");
        std::process::exit(2);
    }
    // Only the values that directly follow --threads / --docs / --arm /
    // --beam / --depth / --requests / --trace-out are consumed; every
    // other non-flag argument stays an experiment id so typos still hit
    // the unknown-id diagnostic.
    let flag_val_pos: Vec<usize> = [
        threads_pos,
        docs_pos,
        arm_pos,
        beam_pos,
        depth_pos,
        requests_pos,
        trace_out_pos,
    ]
    .iter()
    .flatten()
    .map(|i| i + 1)
    .collect();
    let ids: Vec<&str> = args
        .iter()
        .enumerate()
        .filter(|(i, a)| !a.starts_with("--") && !flag_val_pos.contains(i))
        .map(|(_, s)| s.as_str())
        .collect();
    // `--arm search` / `--serve` / `--trace-out` select their work on
    // their own; ids only default to the full battery when none is
    // given.
    let ids: Vec<&str> = if ids.is_empty() && arm.is_none() && !serve && trace_out.is_none() {
        vec!["all"]
    } else {
        ids
    };
    // Resolve every id before the harness synthesizes its datasets (about
    // a minute without --quick), so a typo or a retired id fails at once.
    let mut runs = Vec::with_capacity(ids.len());
    for id in &ids {
        match experiments::experiment(id) {
            Some(run) => runs.push(run),
            None => {
                let known: Vec<&str> = experiments::EXPERIMENTS.iter().map(|(k, _)| *k).collect();
                eprintln!("unknown experiment id '{id}'");
                eprintln!(
                    "usage: experiments [--quick] [flags] [id...]; ids: {}",
                    known.join(" ")
                );
                std::process::exit(2);
            }
        }
    }

    let mut opts = if quick {
        EvalOptions {
            dataset_size: 60,
            kernel_stride: 3,
            threads,
            ..Default::default()
        }
    } else {
        EvalOptions {
            threads,
            ..Default::default()
        }
    };
    if let Some(docs) = docs {
        opts.dataset_size = docs;
    }
    println!(
        "LOOPRAG experiment harness (dataset={}, stride={}, threads={})",
        opts.dataset_size,
        opts.kernel_stride,
        looprag_runtime::resolve_threads(opts.threads)
    );
    let h = Harness::new(opts);

    if let Some(path) = trace_out.as_deref() {
        let (events, outcome) = looprag_bench::representative_trace(quick);
        looprag_bench::write_chrome_trace(path, &events);
        println!(
            "trace run: gemm hybrid arm, {} logical events, final speedup {:.3}x",
            events.len(),
            outcome.speedup
        );
    }
    if arm.is_some() {
        experiments::search_arm(&h, beam, depth);
    }
    if serve {
        experiments::serve_arm(&h, requests);
    }

    for run in runs {
        run(&h);
    }
}

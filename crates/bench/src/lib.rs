//! # looprag-bench
//!
//! The experiment harness: every table and figure of the paper's
//! evaluation section is regenerated by a function in [`experiments`],
//! driven by the `experiments` binary
//! (`cargo run --release -p looprag-bench --bin experiments -- all`).

#![warn(missing_docs)]

pub mod experiments;
pub mod harness;
pub mod observe;
pub mod serve;

pub use harness::{run_campaign, run_feedback_campaign, EvalOptions, Harness, KernelResult};
pub use observe::{
    representative_trace, snapshot_meta, write_chrome_trace, SNAPSHOT_SCHEMA_VERSION,
};
pub use serve::{run_serve_campaign, zipf_workload, ServeReport};

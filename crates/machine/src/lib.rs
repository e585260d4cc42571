//! # looprag-machine
//!
//! The performance substrate of the reproduction: a trace-driven
//! two-level cache simulator plus vectorization, parallelization and
//! loop-overhead models, standing in for the paper's hardware testbed.
//! Speedups reported by the experiment harness are ratios of
//! [`estimate_cost`] results.
//!
//! Production estimates run through the memoizing [`CostEngine`] (a
//! flat cache simulator with integer-exact leaf loops and line runs, steady-state
//! memoization, the one dependence cache, cross-stage cost caching),
//! bit-for-bit pinned to the naive [`estimate_cost_reference`] walker,
//! which keeps the reference [`Hierarchy`] simulator.
//!
//! ```
//! use looprag_machine::{estimate_cost, MachineConfig};
//! let src = "param N = 1024;\narray A[N];\nout A;\n#pragma scop\n\
//! #pragma omp parallel for\nfor (i = 0; i <= N - 1; i++) A[i] = A[i] * 2.0;\n#pragma endscop\n";
//! let p = looprag_ir::compile(src, "scale")?;
//! let report = estimate_cost(&p, &MachineConfig::gcc())?;
//! assert!(report.cycles > 0.0);
//! assert_eq!(report.parallel_entries, 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

mod cache;
mod engine;
mod flat_cache;
mod model;

pub use cache::{CacheGeometry, CacheLevel, Hierarchy, ServiceLevel};
pub use engine::{estimate_cost, CostEngine, CostEngineStats};
pub use model::{estimate_cost_reference, CostError, CostReport, CostVec, MachineConfig};

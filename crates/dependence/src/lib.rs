//! # looprag-dependence
//!
//! Data-dependence analysis for SCoP programs: RAW/WAW/WAR classification,
//! distance and direction vectors, loop-carried vs loop-independent
//! dependences, and the legality queries (parallelization, interchange)
//! that loop transformations rely on.
//!
//! ## Purposes
//!
//! Callers ask for a dependence set by [`Purpose`], not by hand-built
//! [`AnalysisConfig`]: [`analyze_for`]`(p, purpose)` analyzes `p` under
//! [`Purpose::config`]. `Propose` serves the simulated LLM and the
//! baselines, `Transform` search legality, the cost model and the
//! polyhedral optimizer, and `Stats` the Figure 9 statistics. The crate
//! keeps no cache: the one memo of `Transform` sets is the cost
//! engine's in `looprag-machine`, which callers clear to make a
//! measurement cold.
//!
//! ## Lowered tracer and reference
//!
//! [`analyze_with`] lowers the program once per call and traces the
//! lowered form; [`analyze_with_reference`] is the direct tree walk it
//! is pinned to, bit for bit. Each `analyze_with` call bumps the
//! `dependence.analyses`, `dependence.instances_traced` and
//! `dependence.edge_pairs` (instance pairs folded into edges) counters
//! of the `looprag-trace` metrics registry.
//!
//! ```
//! use looprag_dependence::{analyze, DepKind};
//! let src = "param N = 32;\narray A[N];\nout A;\n#pragma scop\n\
//! for (i = 1; i <= N - 1; i++) A[i] = A[i - 1] * 2.0;\n#pragma endscop\n";
//! let p = looprag_ir::compile(src, "rec")?;
//! let deps = analyze(&p);
//! assert_eq!(deps.deps[0].kind, DepKind::Raw);
//! assert!(!deps.is_parallel_legal(&[0]));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

mod analysis;
mod reference;

pub use analysis::{
    analyze, analyze_for, analyze_with, scaled_params, AnalysisConfig, DepKind, Dependence,
    DependenceSet, Direction, Purpose,
};
pub use reference::analyze_with_reference;

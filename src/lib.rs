//! # looprag
//!
//! Umbrella crate for the LOOPRAG reproduction: re-exports every
//! component crate plus the most commonly used items at the top level.
//!
//! * [`looprag_ir`] — SCoP IR, C-subset parser/printer, validation
//! * [`looprag_dependence`] — dependence analysis and legality queries
//! * [`looprag_transform`] — loop transformations and recipes
//! * [`looprag_exec`] — the lane-batched interpreter and its reference tree-walker
//! * [`looprag_machine`] — cache/vector/parallel performance model
//! * [`looprag_polyopt`] — PLuTo-style auto-optimizer
//! * [`looprag_synth`] — parameter-driven dataset synthesis
//! * [`looprag_retrieval`] — BM25 + loop-aware LAScore retrieval
//! * [`looprag_runtime`] — deterministic worker pool and budgets
//! * [`looprag_llm`] — prompts and the simulated LLM
//! * [`looprag_eqcheck`] — seed test inputs and differential testing
//! * [`looprag_baselines`] — baseline compiler models
//! * [`looprag_suites`] — PolyBench/TSVC/LORE kernels
//! * [`looprag_search`] — legality-guided beam search over recipes
//! * [`looprag_core`] — the end-to-end pipeline
//! * [`looprag_serve`] — optimization-as-a-service with a verified-winner memo
//! * [`looprag_trace`] — deterministic tracing and the metrics registry
//!
//! ```
//! use looprag::prelude::*;
//! let p = compile(
//!     "param N = 16;\narray A[N];\nout A;\n#pragma scop\n\
//!      for (i = 0; i <= N - 1; i++) A[i] = A[i] * 2.0;\n#pragma endscop\n",
//!     "scale",
//! )?;
//! let tiled = tile_band(&p, &[0], 1, 8)?;
//! assert!(semantics_preserving(&p, &tiled, &OracleConfig::default()));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

pub use looprag_baselines;
pub use looprag_core;
pub use looprag_dependence;
pub use looprag_eqcheck;
pub use looprag_exec;
pub use looprag_ir;
pub use looprag_llm;
pub use looprag_machine;
pub use looprag_polyopt;
pub use looprag_retrieval;
pub use looprag_runtime;
pub use looprag_search;
pub use looprag_serve;
pub use looprag_suites;
pub use looprag_synth;
pub use looprag_trace;
pub use looprag_transform;

/// The most commonly used items, importable with one `use`.
pub mod prelude {
    pub use looprag_core::{LoopRag, LoopRagConfig, OptimizationOutcome};
    pub use looprag_dependence::{analyze, DepKind, DependenceSet};
    pub use looprag_exec::{run, ExecConfig};
    pub use looprag_ir::{compile, parse_program, print_program, Program};
    pub use looprag_llm::{LanguageModel, LlmProfile, Prompt, SimLlm};
    pub use looprag_machine::{estimate_cost, CostEngine, MachineConfig};
    pub use looprag_polyopt::{optimize, PolyOptions};
    pub use looprag_retrieval::{KnowledgeBase, RetrievalMode, Retriever};
    pub use looprag_search::{search_with_engine, SearchConfig, SearchResult};
    pub use looprag_synth::{build_dataset, SynthConfig};
    pub use looprag_transform::{semantics_preserving, tile_band, OracleConfig, Recipe, Step};
}

//! # looprag-exec
//!
//! The execution substrate for differential testing, coverage-guided
//! test selection and the machine performance model: a
//! compile-to-bytecode engine ([`CompiledProgram`]) validated against a
//! reference tree-walking interpreter
//! ([`run_with_store_reference`]).
//!
//! Programs are lowered **once** — array names interned to dense ids,
//! symbols resolved to frame slots, RHS expressions flattened to a
//! postfix op stream, coverage sites numbered — and the compiled form is
//! then reused across every input and iteration order.
//!
//! ```
//! use looprag_exec::{run, ArrayStore, CompiledProgram, ExecConfig};
//! let src = "param N = 4;\narray A[N];\nout A;\n#pragma scop\n\
//! for (i = 0; i <= N - 1; i++) A[i] = 1.0;\n#pragma endscop\n";
//! let p = looprag_ir::compile(src, "k")?;
//! // One-shot convenience (compiles internally):
//! let (store, stats) = run(&p, &ExecConfig::default())?;
//! assert_eq!(stats.stmts_executed, 4);
//! assert_eq!(store.get("A").unwrap().data, vec![1.0; 4]);
//! // Compile once, run many times:
//! let compiled = CompiledProgram::compile(&p);
//! let mut store = ArrayStore::from_program(&p);
//! compiled.run_with_store(&mut store, &ExecConfig::default())?;
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

mod batch;
mod compile;
mod coverage;
mod interp;
mod store;

pub use batch::BatchStore;
pub use compile::{run, run_with_store, CompiledProgram};
pub use coverage::Coverage;
pub use interp::{run_with_store_reference, ExecConfig, ExecError, ExecStats, ParallelOrder};
pub use store::{ArrayData, ArrayStore};

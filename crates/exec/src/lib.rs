//! # looprag-exec
//!
//! The execution substrate for differential testing and the transform
//! oracle: programs are compiled once
//! to a bytecode form ([`CompiledProgram`]) and run by one interpreter,
//! the lane engine ([`CompiledProgram::run_batched`]), which runs many
//! inputs of one program as the lanes of a [`BatchStore`]. Every lane is
//! validated against the reference tree-walking interpreter
//! ([`run_with_store_reference`]).
//!
//! Programs are lowered **once** — array names interned to dense ids,
//! symbols resolved to frame slots, RHS expressions flattened to a
//! postfix op stream — and the compiled form is
//! then reused across every input and iteration order. A lane's input is
//! an [`InputSpec`].
//!
//! ```
//! use looprag_exec::{run, BatchStore, CompiledProgram, ExecConfig};
//! use looprag_ir::InitKind;
//! let src = "param N = 4;\narray A[N];\nout A;\n#pragma scop\n\
//! for (i = 0; i <= N - 1; i++) A[i] += 1.0;\n#pragma endscop\n";
//! let p = looprag_ir::compile(src, "k")?;
//! // One-shot convenience (compiles internally, runs one lane):
//! let (store, stats) = run(&p, &ExecConfig::default())?;
//! assert_eq!(stats.stmts_executed, 4);
//! // Compile once, run many inputs as the lanes of one batch:
//! let compiled = CompiledProgram::compile(&p);
//! let inputs = [vec![], vec![("A".to_string(), InitKind::Constant(2.0))]];
//! let mut lanes = BatchStore::from_inputs(&p, &inputs);
//! for outcome in compiled.run_batched(&mut lanes, &ExecConfig::default(), None) {
//!     outcome?;
//! }
//! assert_eq!(lanes.lane_store(0), store);
//! assert_eq!(lanes.lane_store(1).get("A").unwrap().data, vec![3.0; 4]);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

mod batch;
mod compile;
mod interp;
mod store;

pub use batch::{run, BatchStore};
pub use compile::CompiledProgram;
pub use interp::{run_with_store_reference, ExecConfig, ExecError, ExecStats, ParallelOrder};
pub use store::{ArrayData, ArrayStore, InputSpec};

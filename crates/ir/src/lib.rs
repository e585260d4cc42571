//! # looprag-ir
//!
//! The SCoP intermediate representation underlying the LOOPRAG
//! reproduction: affine expressions, loop-nest trees, statements, whole
//! programs, a C-subset parser and pretty-printer, 2d+1 schedule
//! derivation, semantic validation, and the walkers' lowering ([`lower`]).
//!
//! A *Static Control Part* (SCoP) is a program region in which all loop
//! bounds, conditionals and array subscripts are affine functions of
//! surrounding loop iterators and global parameters. This crate models
//! exactly that region plus the declarations around it, in a small
//! C-flavoured surface syntax:
//!
//! ```
//! let src = "\
//! param N = 16;
//! array A[N][N];
//! out A;
//! #pragma scop
//! for (i = 0; i <= N - 1; i++) {
//!   for (j = 0; j <= i; j++) {
//!     A[i][j] = A[i][j] + 1.0;
//!   }
//! }
//! #pragma endscop
//! ";
//! let program = looprag_ir::compile(src, "demo")?;
//! assert_eq!(program.max_depth(), 2);
//! let text = looprag_ir::print_program(&program);
//! assert_eq!(looprag_ir::parse_program(&text, "demo")?, program);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

mod expr;
mod lexer;
pub mod lower;
mod parser;
mod printer;
mod program;
mod schedule;
mod validate;

pub use expr::{Access, AffineExpr, AssignOp, BinOp, Bound, CmpOp, Condition, Expr, MathFn};
pub use lexer::{lex, LexError, Pos, Tok, Token};
pub use parser::{parse_program, ParseError};
pub use printer::{print_program, print_scop};
pub use program::{
    adaptive_sampling_cap, checked_elements, element_stride, has_parallel_loop, loop_paths,
    max_floordiv_divisor, node_at, node_at_mut, ArrayDecl, InitKind, Loop, Node, NodePath,
    ParamDecl, Program, Statement,
};
pub use schedule::{padded_schedules, schedules, SchedEntry, Schedule2d1};
pub use validate::{compile, validate, CompileError, Diag};

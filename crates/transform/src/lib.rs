//! # looprag-transform
//!
//! The loop-transformation toolkit: tiling, interchange, fusion,
//! distribution, skewing, shifting, parallelization and reduction
//! scalarization over [`looprag_ir`] programs, composable as
//! [`Recipe`]s and checkable with a differential semantics
//! [`oracle`](semantics_preserving).
//!
//! ```
//! use looprag_transform::{tile_band, semantics_preserving, OracleConfig};
//! let src = "param N = 64;\narray A[N];\nout A;\n#pragma scop\n\
//! for (i = 0; i <= N - 1; i++) A[i] = A[i] * 2.0;\n#pragma endscop\n";
//! let p = looprag_ir::compile(src, "scale")?;
//! let tiled = tile_band(&p, &[0], 1, 32)?;
//! assert!(semantics_preserving(&p, &tiled, &OracleConfig::default()));
//! assert!(looprag_ir::print_program(&tiled).contains("floord"));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

mod catalog;
mod oracle;
mod primitives;
mod recipe;

pub use catalog::{enumerate_steps, enumerate_steps_into, StepGrid, StepGridPlan};
pub use oracle::{
    scaled_clone, semantics_preserving, semantics_preserving_reference, OracleConfig, OracleTarget,
};
pub use primitives::{
    distribute, fuse, interchange, parallelize, perfect_band, scalarize_reduction, serialize,
    shift, shift_fuse, skew, tile_band, TransformError, TransformErrorKind,
};
pub use recipe::{Family, Recipe, Step};

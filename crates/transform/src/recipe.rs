//! Transformation recipes — ordered compositions of primitives.
//!
//! A recipe is how the optimizer, the dataset and the simulated LLM all
//! describe "what was done to this loop nest". Step names align with the
//! paper's transformation taxonomy (Table 4).

use crate::primitives::{
    distribute, fuse, interchange, parallelize, scalarize_reduction, serialize, shift, shift_fuse,
    skew, tile_band, TransformError,
};
use looprag_ir::{NodePath, Program};
use std::fmt;

/// One transformation step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Step {
    /// Tile a perfectly nested band.
    Tile {
        /// Path to the outermost band loop (valid at application time).
        path: NodePath,
        /// Band depth.
        depth: usize,
        /// Square tile size.
        size: i64,
    },
    /// Interchange a perfect loop pair.
    Interchange {
        /// Path to the outer loop.
        path: NodePath,
    },
    /// Fuse two adjacent sibling loops.
    Fuse {
        /// Path of the container (empty for the SCoP root).
        container: NodePath,
        /// Index of the first sibling.
        index: usize,
    },
    /// Distribute a loop body into two loops.
    Distribute {
        /// Path to the loop.
        path: NodePath,
        /// Split point in the body.
        at: usize,
    },
    /// Skew the inner loop of a perfect pair.
    Skew {
        /// Path to the outer loop.
        path: NodePath,
        /// Skewing factor.
        factor: i64,
    },
    /// Shift-align and fuse two offset sibling loops.
    ShiftFuse {
        /// Path of the container (empty for the SCoP root).
        container: NodePath,
        /// Index of the first sibling.
        index: usize,
    },
    /// Shift one child of a loop by an iteration offset.
    Shift {
        /// Path to the loop.
        path: NodePath,
        /// Child index to shift.
        stmt: usize,
        /// Positive iteration offset.
        offset: i64,
    },
    /// Mark a loop parallel.
    Parallelize {
        /// Path to the loop.
        path: NodePath,
    },
    /// Remove a parallel mark.
    Serialize {
        /// Path to the loop.
        path: NodePath,
    },
    /// Scalarize a reduction target through a fresh scalar.
    Scalarize {
        /// Path to the reduction loop.
        path: NodePath,
    },
}

impl Step {
    /// Applies this step to `p`.
    ///
    /// # Errors
    ///
    /// Propagates the primitive's [`TransformError`].
    pub fn apply(&self, p: &Program) -> Result<Program, TransformError> {
        match self {
            Step::Tile { path, depth, size } => tile_band(p, path, *depth, *size),
            Step::Interchange { path } => interchange(p, path),
            Step::Fuse { container, index } => fuse(p, container, *index),
            Step::ShiftFuse { container, index } => shift_fuse(p, container, *index),
            Step::Distribute { path, at } => distribute(p, path, *at),
            Step::Skew { path, factor } => skew(p, path, *factor),
            Step::Shift { path, stmt, offset } => shift(p, path, *stmt, *offset),
            Step::Parallelize { path } => parallelize(p, path),
            Step::Serialize { path } => serialize(p, path),
            Step::Scalarize { path } => scalarize_reduction(p, path),
        }
    }

    /// The transformation family this step belongs to (Table 4 vocabulary).
    pub fn family(&self) -> Family {
        match self {
            Step::Tile { .. } => Family::Tiling,
            Step::Interchange { .. } => Family::Interchange,
            Step::Fuse { .. } => Family::Fusion,
            Step::Distribute { .. } => Family::Distribution,
            Step::Skew { .. } => Family::Skewing,
            Step::Shift { .. } | Step::ShiftFuse { .. } => Family::Shifting,
            Step::Parallelize { .. } | Step::Serialize { .. } => Family::Parallelization,
            Step::Scalarize { .. } => Family::Scalarization,
        }
    }
}

impl fmt::Display for Step {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Step::Tile { path, depth, size } => {
                write!(f, "tile(depth={depth}, size={size}) @ {path:?}")
            }
            Step::Interchange { path } => write!(f, "interchange @ {path:?}"),
            Step::Fuse { container, index } => write!(f, "fuse @ {container:?}[{index}]"),
            Step::ShiftFuse { container, index } => {
                write!(f, "shift-fuse @ {container:?}[{index}]")
            }
            Step::Distribute { path, at } => write!(f, "distribute(at={at}) @ {path:?}"),
            Step::Skew { path, factor } => write!(f, "skew(factor={factor}) @ {path:?}"),
            Step::Shift { path, stmt, offset } => {
                write!(f, "shift(stmt={stmt}, offset={offset}) @ {path:?}")
            }
            Step::Parallelize { path } => write!(f, "parallelize @ {path:?}"),
            Step::Serialize { path } => write!(f, "serialize @ {path:?}"),
            Step::Scalarize { path } => write!(f, "scalarize @ {path:?}"),
        }
    }
}

/// Transformation families, matching the columns of the paper's Table 4
/// plus the auxiliary techniques of §6.3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Family {
    /// Loop tiling.
    Tiling,
    /// Loop interchange.
    Interchange,
    /// Loop skewing.
    Skewing,
    /// Loop fusion.
    Fusion,
    /// Loop distribution.
    Distribution,
    /// Loop shifting.
    Shifting,
    /// OpenMP-style parallelization.
    Parallelization,
    /// Scalar renaming of reductions.
    Scalarization,
}

impl Family {
    /// All families in Table 4 order, then the auxiliaries.
    pub fn all() -> [Family; 8] {
        [
            Family::Tiling,
            Family::Interchange,
            Family::Skewing,
            Family::Fusion,
            Family::Distribution,
            Family::Shifting,
            Family::Parallelization,
            Family::Scalarization,
        ]
    }
}

impl fmt::Display for Family {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Family::Tiling => "Tiling",
            Family::Interchange => "Interchange",
            Family::Skewing => "Skewing",
            Family::Fusion => "Fusion",
            Family::Distribution => "Distribution",
            Family::Shifting => "Shifting",
            Family::Parallelization => "Parallelization",
            Family::Scalarization => "Scalarization",
        })
    }
}

/// An ordered composition of steps.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Recipe {
    /// Steps, applied in order; each step's paths refer to the tree shape
    /// produced by the preceding steps.
    pub steps: Vec<Step>,
}

impl Recipe {
    /// The empty recipe.
    pub fn new() -> Self {
        Recipe::default()
    }

    /// Applies all steps in order.
    ///
    /// # Errors
    ///
    /// Returns the first step error together with its index.
    pub fn apply(&self, p: &Program) -> Result<Program, (usize, TransformError)> {
        let mut cur = p.clone();
        for (i, s) in self.steps.iter().enumerate() {
            cur = s.apply(&cur).map_err(|e| (i, e))?;
        }
        Ok(cur)
    }

    /// The distinct families used, sorted.
    pub fn families(&self) -> Vec<Family> {
        let mut fams: Vec<Family> = self.steps.iter().map(Step::family).collect();
        fams.sort();
        fams.dedup();
        fams
    }
}

impl fmt::Display for Recipe {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.steps.is_empty() {
            return write!(f, "(identity)");
        }
        for (i, s) in self.steps.iter().enumerate() {
            if i > 0 {
                write!(f, "; ")?;
            }
            write!(f, "{s}")?;
        }
        Ok(())
    }
}

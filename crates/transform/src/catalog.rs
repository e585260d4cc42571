//! The step catalog: deterministic enumeration of structurally
//! applicable [`Step`]s over a program.
//!
//! This is the move-generation half of the `looprag-search` engine: for
//! every loop path (pre-order) it emits the family candidates whose
//! *shape* requirements hold, crossed with a small deterministic
//! parameter grid ([`StepGrid`]). Semantic legality is deliberately not
//! checked here — that is the searcher's pruning concern (dependence
//! queries) — but shape prefilters mirror the primitives closely enough
//! that most emitted steps apply cleanly.
//!
//! The enumeration order is part of the search determinism contract:
//! loop paths in pre-order; per path `Tile` (depth ascending × size
//! ascending), `Interchange`, `Skew` (factor order), `Distribute`
//! (split ascending), `Parallelize`/`Serialize`, `Scalarize`; then
//! fusion candidates per container (root first, then loops in
//! pre-order) and sibling index ascending.

use crate::primitives::perfect_band;
use crate::recipe::Step;
use looprag_ir::{loop_paths, node_at, AffineExpr, AssignOp, Bound, Loop, Node, NodePath, Program};

/// The deterministic parameter grid crossed with the transformation
/// families during enumeration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StepGrid {
    /// Square tile sizes to try (each must be >= 2).
    pub tile_sizes: Vec<i64>,
    /// Deepest band to tile in one step.
    pub max_tile_depth: usize,
    /// Skew factors to try (non-zero).
    pub skew_factors: Vec<i64>,
    /// When false (default), loops whose iterator looks like a generated
    /// tile iterator (`t1`, `t2`, ...) are not tiled again, which keeps
    /// the candidate space from re-tiling its own tile loops.
    pub retile: bool,
}

impl Default for StepGrid {
    fn default() -> Self {
        StepGrid {
            tile_sizes: vec![8, 32],
            max_tile_depth: 3,
            skew_factors: vec![1],
            retile: false,
        }
    }
}

/// True for iterator names the tiling primitive generates (`t<digits>`).
fn is_tile_iter(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next() == Some('t') && name.len() > 1 && chars.all(|c| c.is_ascii_digit())
}

/// The single directly nested loop of `l`, when the pair is perfect.
fn perfect_inner(l: &Loop) -> Option<&Loop> {
    match &l.body[..] {
        [Node::Loop(inner)] => Some(inner),
        _ => None,
    }
}

fn fusable(a: &Loop, b: &Loop) -> bool {
    if a.step != b.step || a.ub_inclusive != b.ub_inclusive {
        return false;
    }
    let to = AffineExpr::var(a.iter.clone());
    b.lb.substitute(&b.iter, &to) == a.lb && b.ub.substitute(&b.iter, &to) == a.ub
}

fn shift_fusable(a: &Loop, b: &Loop) -> bool {
    if a.step != 1 || b.step != 1 || a.ub_inclusive != b.ub_inclusive {
        return false;
    }
    let (Bound::Affine(alb), Bound::Affine(aub), Bound::Affine(blb), Bound::Affine(bub)) =
        (&a.lb, &a.ub, &b.lb, &b.ub)
    else {
        return false;
    };
    let Some(c) = (blb.clone() - alb.clone()).as_constant() else {
        return false;
    };
    c != 0 && (bub.clone() - aub.clone()).as_constant() == Some(c)
}

/// A [`StepGrid`] with its per-step filters hoisted out: the grid's
/// tile sizes and skew factors pre-filtered once (`size >= 2`,
/// `factor != 0`), so [`enumerate_steps_into`] runs no per-node
/// parameter filtering. The searcher builds one plan per search and
/// reuses it (plus a scratch buffer) for every expanded node, instead
/// of re-deriving the grid per expansion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StepGridPlan {
    /// Tile sizes, pre-filtered to `>= 2`, in grid order.
    tile_sizes: Vec<i64>,
    /// Deepest band to tile in one step.
    max_tile_depth: usize,
    /// Skew factors, pre-filtered to non-zero, in grid order.
    skew_factors: Vec<i64>,
    /// Whether generated tile loops may be tiled again.
    retile: bool,
}

impl StepGridPlan {
    /// Precomputes the enumeration plan for `grid`.
    pub fn new(grid: &StepGrid) -> Self {
        StepGridPlan {
            tile_sizes: grid
                .tile_sizes
                .iter()
                .copied()
                .filter(|&s| s >= 2)
                .collect(),
            max_tile_depth: grid.max_tile_depth,
            skew_factors: grid
                .skew_factors
                .iter()
                .copied()
                .filter(|&f| f != 0)
                .collect(),
            retile: grid.retile,
        }
    }
}

/// Enumerates every structurally applicable step of `p` under `grid`, in
/// the deterministic catalog order.
pub fn enumerate_steps(p: &Program, grid: &StepGrid) -> Vec<Step> {
    let mut out = Vec::new();
    enumerate_steps_into(p, &StepGridPlan::new(grid), &mut out);
    out
}

/// [`enumerate_steps`] against a precomputed [`StepGridPlan`],
/// appending into a caller-owned scratch buffer (cleared first). The
/// output is byte-identical to `enumerate_steps` on the plan's grid;
/// the split exists so a search can pay for the plan and the buffer
/// once instead of per expanded node.
pub fn enumerate_steps_into(p: &Program, plan: &StepGridPlan, out: &mut Vec<Step>) {
    out.clear();
    let paths = loop_paths(&p.body);
    for path in &paths {
        let Some(Node::Loop(l)) = node_at(&p.body, path) else {
            continue;
        };
        // Tiling: every prefix depth of the perfect band, sizes ascending.
        if (plan.retile || !is_tile_iter(&l.iter)) && !plan.tile_sizes.is_empty() {
            if let Ok(band) = perfect_band(p, path, plan.max_tile_depth) {
                let tilable_depth = band
                    .iter()
                    .take_while(|bl| {
                        bl.step == 1 && (bl.ub_inclusive || matches!(bl.ub, Bound::Affine(_)))
                    })
                    .count();
                for depth in 1..=tilable_depth {
                    for &size in &plan.tile_sizes {
                        out.push(Step::Tile {
                            path: path.clone(),
                            depth,
                            size,
                        });
                    }
                }
            }
        }
        if let Some(inner) = perfect_inner(l) {
            // Interchange: perfect non-triangular pair.
            if !inner.lb.uses(&l.iter) && !inner.ub.uses(&l.iter) {
                out.push(Step::Interchange { path: path.clone() });
            }
            // Skew: perfect pair with plain affine inner bounds.
            if matches!((&inner.lb, &inner.ub), (Bound::Affine(_), Bound::Affine(_))) {
                for &factor in &plan.skew_factors {
                    out.push(Step::Skew {
                        path: path.clone(),
                        factor,
                    });
                }
            }
        }
        // Distribution: every split point of a multi-child body.
        for at in 1..l.body.len() {
            out.push(Step::Distribute {
                path: path.clone(),
                at,
            });
        }
        // Parallelization (or its inverse on already-marked loops).
        if l.parallel {
            out.push(Step::Serialize { path: path.clone() });
        } else {
            out.push(Step::Parallelize { path: path.clone() });
        }
        // Scalar renaming of reductions.
        if let [Node::Stmt(s)] = &l.body[..] {
            if matches!(
                s.op,
                AssignOp::AddAssign | AssignOp::MulAssign | AssignOp::SubAssign
            ) && !s.lhs.indexes.iter().any(|e| e.uses(&l.iter))
            {
                out.push(Step::Scalarize { path: path.clone() });
            }
        }
    }
    // Fusion candidates, container by container.
    let mut containers: Vec<NodePath> = vec![Vec::new()];
    containers.extend(paths);
    for c in &containers {
        let children: &[Node] = if c.is_empty() {
            &p.body
        } else {
            match node_at(&p.body, c) {
                Some(n) => n.children(),
                None => continue,
            }
        };
        for i in 0..children.len().saturating_sub(1) {
            let (Node::Loop(a), Node::Loop(b)) = (&children[i], &children[i + 1]) else {
                continue;
            };
            if fusable(a, b) {
                out.push(Step::Fuse {
                    container: c.clone(),
                    index: i,
                });
            } else if shift_fusable(a, b) {
                out.push(Step::ShiftFuse {
                    container: c.clone(),
                    index: i,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recipe::Family;
    use looprag_ir::compile;

    fn steps_of(src: &str) -> Vec<Step> {
        enumerate_steps(&compile(src, "t").unwrap(), &StepGrid::default())
    }

    #[test]
    fn gemm_catalog_covers_the_expected_families() {
        let steps = steps_of(
            "param N = 64;\narray C[N][N];\narray A[N][N];\narray B[N][N];\nout C;\n#pragma scop\nfor (i = 0; i <= N - 1; i++) for (j = 0; j <= N - 1; j++) for (k = 0; k <= N - 1; k++) C[i][j] += A[i][k] * B[k][j];\n#pragma endscop\n",
        );
        let fams: Vec<Family> = steps.iter().map(Step::family).collect();
        assert!(fams.contains(&Family::Tiling));
        assert!(fams.contains(&Family::Interchange));
        assert!(fams.contains(&Family::Skewing));
        assert!(fams.contains(&Family::Parallelization));
        assert!(fams.contains(&Family::Scalarization));
        // Tile depths 1..3 at the outer loop x two sizes, plus the inner
        // bands' prefixes.
        let tiles = steps
            .iter()
            .filter(|s| matches!(s, Step::Tile { .. }))
            .count();
        assert_eq!(tiles, 12, "3 + 2 + 1 band depths x 2 sizes");
    }

    #[test]
    fn enumeration_is_deterministic_and_applies_cleanly() {
        let src = "param N = 32;\narray A[N];\narray B[N];\nout B;\n#pragma scop\nfor (i = 0; i <= N - 1; i++) A[i] = 2.0;\nfor (j = 0; j <= N - 1; j++) B[j] = A[j] + 1.0;\n#pragma endscop\n";
        let p = compile(src, "t").unwrap();
        let a = enumerate_steps(&p, &StepGrid::default());
        let b = enumerate_steps(&p, &StepGrid::default());
        assert_eq!(a, b);
        assert!(a.iter().any(|s| matches!(s, Step::Fuse { .. })));
        // Every catalog entry either applies or fails with a clean error.
        for s in &a {
            let _ = s.apply(&p);
        }
    }

    #[test]
    fn tile_loops_are_not_retiled_by_default() {
        let p = compile(
            "param N = 64;\narray A[N];\nout A;\n#pragma scop\nfor (i = 0; i <= N - 1; i++) A[i] = A[i] + 1.0;\n#pragma endscop\n",
        "t",
        )
        .unwrap();
        let tiled = crate::primitives::tile_band(&p, &[0], 1, 8).unwrap();
        let steps = enumerate_steps(&tiled, &StepGrid::default());
        assert!(!steps.iter().any(
            |s| matches!(s, Step::Tile { path, .. } if matches!(node_at(&tiled.body, path), Some(Node::Loop(l)) if is_tile_iter(&l.iter)))
        ));
        // The point loop is still tilable.
        assert!(steps.iter().any(|s| matches!(s, Step::Tile { .. })));
    }

    #[test]
    fn planned_enumeration_matches_the_unplanned_path() {
        // The plan pre-filters parameters (`size >= 2`, `factor != 0`);
        // a grid carrying junk values must enumerate identically through
        // both entry points, scratch reuse included.
        let grid = StepGrid {
            tile_sizes: vec![1, 8, 0, 32],
            skew_factors: vec![0, 1, -1],
            ..StepGrid::default()
        };
        let plan = StepGridPlan::new(&grid);
        let gemm = compile(
            "param N = 64;\narray C[N][N];\narray A[N][N];\narray B[N][N];\nout C;\n#pragma scop\nfor (i = 0; i <= N - 1; i++) for (j = 0; j <= N - 1; j++) for (k = 0; k <= N - 1; k++) C[i][j] += A[i][k] * B[k][j];\n#pragma endscop\n",
            "gemm",
        )
        .unwrap();
        let stream = compile(
            "param N = 32;\narray A[N];\narray B[N];\nout B;\n#pragma scop\nfor (i = 0; i <= N - 1; i++) A[i] = 2.0;\nfor (j = 0; j <= N - 1; j++) B[j] = A[j] + 1.0;\n#pragma endscop\n",
            "s",
        )
        .unwrap();
        let mut scratch = Vec::new();
        for p in [&gemm, &stream] {
            enumerate_steps_into(p, &plan, &mut scratch);
            assert_eq!(scratch, enumerate_steps(p, &grid));
        }
    }

    #[test]
    fn offset_siblings_enumerate_shift_fusion() {
        let steps = steps_of(
            "param N = 32;\narray A[N + 4];\narray B[N + 4];\nout B;\n#pragma scop\nfor (i = 0; i <= N - 1; i++) A[i] = 2.0;\nfor (j = 2; j <= N + 1; j++) B[j] = A[j - 2] + 1.0;\n#pragma endscop\n",
        );
        assert!(steps.iter().any(|s| matches!(s, Step::ShiftFuse { .. })));
        assert!(!steps.iter().any(|s| matches!(s, Step::Fuse { .. })));
    }
}

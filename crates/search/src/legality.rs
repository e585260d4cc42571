//! Legality pruning: a pure predicate over (program, dependence set,
//! step) deciding whether a catalog step is *semantics-preserving*
//! before it is ever applied.
//!
//! The predicate is deliberately conservative: a `true` answer is a
//! soundness claim (the suite proptests pin every admitted recipe
//! against the differential oracle), while a `false` answer may reject
//! legal-but-unprovable steps (e.g. fusions whose cross-loop
//! dependences would need alignment information the direction-vector
//! abstraction does not carry).
//!
//! Because both the optimized engine and the naive reference searcher
//! share this exact predicate, pruning can never change *what* the
//! search finds — only how much work finding it costs.

use looprag_dependence::DependenceSet;
use looprag_ir::{node_at, AssignOp, Node, NodePath, Program};
use looprag_transform::Step;

/// Statement ids contained in a subtree.
fn subtree_stmt_ids(n: &Node) -> Vec<usize> {
    let mut out = Vec::new();
    n.for_each_stmt(&mut |s| out.push(s.id));
    out
}

/// Distribution splits the loop body into `[..at]` and `[at..]`; it is
/// illegal exactly when a dependence flows from the second group back
/// into the first (its source would then run *after* its destination).
fn distribution_legal(p: &Program, deps: &DependenceSet, path: &NodePath, at: usize) -> bool {
    let Some(Node::Loop(l)) = node_at(&p.body, path) else {
        return false;
    };
    if at == 0 || at >= l.body.len() {
        return false;
    }
    let mut first = Vec::new();
    let mut second = Vec::new();
    for (i, child) in l.body.iter().enumerate() {
        let ids = subtree_stmt_ids(child);
        if i < at {
            first.extend(ids);
        } else {
            second.extend(ids);
        }
    }
    !deps.deps.iter().any(|d| {
        d.common_loops.iter().any(|cl| cl == path)
            && second.contains(&d.src)
            && first.contains(&d.dst)
    })
}

/// Fusion interleaves the two sibling loops' iterations; without
/// alignment information across sibling loops, it is admitted only when
/// no dependence connects the two loops at all (then any interleaving
/// preserves semantics) and neither sibling is parallel-marked — the
/// fused loop inherits the first sibling's mark, so fusing a legally
/// parallel loop with a sibling that carries its own dependence would
/// smuggle that recurrence under an unsound parallel header.
fn fusion_legal(p: &Program, deps: &DependenceSet, container: &NodePath, index: usize) -> bool {
    let children: &[Node] = if container.is_empty() {
        &p.body
    } else {
        match node_at(&p.body, container) {
            Some(n) => n.children(),
            None => return false,
        }
    };
    let (Some(a), Some(b)) = (children.get(index), children.get(index + 1)) else {
        return false;
    };
    if matches!(a, Node::Loop(l) if l.parallel) || matches!(b, Node::Loop(l) if l.parallel) {
        return false;
    }
    let a_ids = subtree_stmt_ids(a);
    let b_ids = subtree_stmt_ids(b);
    !deps.deps.iter().any(|d| {
        (a_ids.contains(&d.src) && b_ids.contains(&d.dst))
            || (b_ids.contains(&d.src) && a_ids.contains(&d.dst))
    })
}

/// Scalar renaming is admitted when the loop is sequential and the
/// right-hand side never reads the reduction target's array — the
/// rewrite then performs exactly the original operation sequence on a
/// register copy of the cell.
fn scalarize_legal(p: &Program, path: &NodePath) -> bool {
    let Some(Node::Loop(l)) = node_at(&p.body, path) else {
        return false;
    };
    if l.parallel {
        return false;
    }
    let [Node::Stmt(s)] = &l.body[..] else {
        return false;
    };
    if !matches!(
        s.op,
        AssignOp::AddAssign | AssignOp::MulAssign | AssignOp::SubAssign
    ) || s.lhs.indexes.iter().any(|e| e.uses(&l.iter))
    {
        return false;
    }
    let mut rhs_reads = Vec::new();
    s.rhs.collect_reads(&mut rhs_reads);
    rhs_reads.iter().all(|a| a.array != s.lhs.array)
}

/// Whether `step` provably preserves semantics on `p`, judging by `deps`
/// (the dependence set of `p` itself).
///
/// When the analysis was truncated (instance budget), only steps that
/// preserve the execution order outright are admitted.
pub fn step_legal(p: &Program, deps: &DependenceSet, step: &Step) -> bool {
    if deps.truncated {
        return matches!(
            step,
            Step::Tile { depth: 1, .. } | Step::Skew { .. } | Step::Serialize { .. }
        );
    }
    match step {
        // Strip-mining and skewing preserve the execution order exactly;
        // removing a parallel mark only restricts schedules.
        Step::Tile { depth: 1, .. } | Step::Skew { .. } | Step::Serialize { .. } => true,
        Step::Tile { path, depth, .. } => deps.is_band_permutable(path, *depth),
        Step::Interchange { path } => {
            let mut inner = path.clone();
            inner.push(0);
            deps.is_interchange_legal(path, &inner)
        }
        Step::Parallelize { path } => deps.is_parallel_legal(path),
        Step::Distribute { path, at } => distribution_legal(p, deps, path, *at),
        Step::Fuse { container, index } | Step::ShiftFuse { container, index } => {
            fusion_legal(p, deps, container, *index)
        }
        Step::Scalarize { path } => scalarize_legal(p, path),
        // Shift is not enumerated by the catalog; stay conservative.
        Step::Shift { .. } => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use looprag_dependence::{analyze_for, Purpose};
    use looprag_ir::compile;

    fn legal(src: &str, step: &Step) -> bool {
        let p = compile(src, "t").unwrap();
        let deps = analyze_for(&p, Purpose::Transform);
        step_legal(&p, &deps, step)
    }

    #[test]
    fn parallelize_respects_carried_dependences() {
        let stream = "param N = 64;\narray A[N];\narray B[N];\nout A;\n#pragma scop\nfor (i = 0; i <= N - 1; i++) A[i] = B[i] + 1.0;\n#pragma endscop\n";
        let rec = "param N = 64;\narray A[N];\nout A;\n#pragma scop\nfor (i = 1; i <= N - 1; i++) A[i] = A[i - 1] + 1.0;\n#pragma endscop\n";
        let par = Step::Parallelize { path: vec![0] };
        assert!(legal(stream, &par));
        assert!(!legal(rec, &par));
    }

    #[test]
    fn interchange_rejects_anti_diagonal_stencil() {
        let src = "param N = 8;\narray A[N][N];\nout A;\n#pragma scop\nfor (i = 1; i <= N - 1; i++) for (j = 0; j <= N - 2; j++) A[i][j] = A[i - 1][j + 1] + 1.0;\n#pragma endscop\n";
        assert!(!legal(src, &Step::Interchange { path: vec![0] }));
    }

    #[test]
    fn deep_tiling_needs_permutability() {
        let gemm = "param N = 8;\narray C[N][N];\narray A[N][N];\nout C;\n#pragma scop\nfor (i = 0; i <= N - 1; i++) for (j = 0; j <= N - 1; j++) for (k = 0; k <= N - 1; k++) C[i][j] += A[i][k] * A[j][k];\n#pragma endscop\n";
        let stencil = "param N = 8;\narray A[N][N];\nout A;\n#pragma scop\nfor (i = 1; i <= N - 1; i++) for (j = 0; j <= N - 2; j++) A[i][j] = A[i - 1][j + 1] + 1.0;\n#pragma endscop\n";
        let tile2 = Step::Tile {
            path: vec![0],
            depth: 2,
            size: 4,
        };
        assert!(legal(gemm, &tile2));
        assert!(!legal(stencil, &tile2));
        // Strip-mining stays legal even on the stencil.
        assert!(legal(
            stencil,
            &Step::Tile {
                path: vec![0],
                depth: 1,
                size: 4,
            }
        ));
    }

    #[test]
    fn distribution_blocks_backward_flow() {
        // S1 reads what S0 wrote in an earlier iteration: moving all S0
        // first is fine; the reverse split does not exist here, so build
        // the backward case: S0 reads A[i-1] written by S1.
        let fwd = "param N = 16;\narray A[N];\narray B[N];\nout B;\n#pragma scop\nfor (i = 1; i <= N - 1; i++) { A[i] = 2.0; B[i] = A[i - 1] + 1.0; }\n#pragma endscop\n";
        let bwd = "param N = 16;\narray A[N];\narray B[N];\nout B;\n#pragma scop\nfor (i = 1; i <= N - 1; i++) { B[i] = A[i - 1] + 1.0; A[i] = 2.0; }\n#pragma endscop\n";
        let d = Step::Distribute {
            path: vec![0],
            at: 1,
        };
        assert!(legal(fwd, &d));
        assert!(!legal(bwd, &d));
    }

    #[test]
    fn fusion_admits_only_independent_siblings() {
        let indep = "param N = 16;\narray A[N];\narray B[N];\nout B;\n#pragma scop\nfor (i = 0; i <= N - 1; i++) A[i] = 2.0;\nfor (j = 0; j <= N - 1; j++) B[j] = 1.0;\n#pragma endscop\n";
        let coupled = "param N = 16;\narray A[N];\narray B[N];\nout B;\n#pragma scop\nfor (i = 0; i <= N - 1; i++) A[i] = 2.0;\nfor (j = 0; j <= N - 1; j++) B[j] = A[N - 1 - j] + 1.0;\n#pragma endscop\n";
        let f = Step::Fuse {
            container: vec![],
            index: 0,
        };
        assert!(legal(indep, &f));
        assert!(!legal(coupled, &f));
    }

    #[test]
    fn fusion_rejects_parallel_marked_siblings() {
        // L1 is legally parallel; L2 is a self-recurrence with no deps
        // to L1. Fusing would put the recurrence under L1's parallel
        // header, so the pruner must refuse even though the loops are
        // mutually independent.
        let src = "param N = 16;\narray A[N];\narray B[N];\narray C[N];\nout C;\n#pragma scop\nfor (i = 1; i <= N - 1; i++) A[i] = B[i];\nfor (j = 1; j <= N - 1; j++) C[j] = C[j - 1] + 1.0;\n#pragma endscop\n";
        let p = compile(src, "t").unwrap();
        let marked = looprag_transform::parallelize(&p, &[0]).unwrap();
        let deps = analyze_for(&marked, Purpose::Transform);
        let f = Step::Fuse {
            container: vec![],
            index: 0,
        };
        assert!(!step_legal(&marked, &deps, &f));
        // The unmarked program fuses fine (the loops are independent).
        let deps = analyze_for(&p, Purpose::Transform);
        assert!(step_legal(&p, &deps, &f));
        // And the admitted chain as a whole stays oracle-sound.
        use looprag_transform::{semantics_preserving, OracleConfig, StepGrid};
        for (_, child) in crate::admissible_children(&marked, &StepGrid::default()) {
            assert!(semantics_preserving(
                &marked,
                &child,
                &OracleConfig::default()
            ));
        }
    }

    #[test]
    fn scalarize_requires_target_free_rhs() {
        let ok = "param N = 16;\nparam M = 16;\narray A[N];\narray B[N][M];\nout A;\n#pragma scop\nfor (i = 0; i <= N - 1; i++) for (k = 0; k <= M - 1; k++) A[i] += B[i][k];\n#pragma endscop\n";
        let selfref = "param N = 16;\nparam M = 16;\narray A[N];\nout A;\n#pragma scop\nfor (i = 0; i <= N - 1; i++) for (k = 0; k <= M - 1; k++) A[i] += A[0];\n#pragma endscop\n";
        let s = Step::Scalarize { path: vec![0, 0] };
        assert!(legal(ok, &s));
        assert!(!legal(selfref, &s));
    }
}

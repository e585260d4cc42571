//! Loop-property statistics over SCoPs — the eight properties of the
//! paper's Figure 9 — and their clustering into the A–D buckets.

use looprag_dependence::{analyze_for, Purpose};
use looprag_ir::{Bound, Node, Program};
use serde::{Deserialize, Serialize};

/// The eight Figure 9 properties, measured on one program.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LoopPropertyStats {
    /// Number of statements (`NStmts`).
    pub n_stmts: usize,
    /// Loop-bound shape (`Bound`): largest constant offset in any upper
    /// bound, and whether any bound references an outer iterator.
    pub bound_offset: i64,
    /// Any triangular bound present.
    pub triangular: bool,
    /// Maximum loop depth (`Depth`).
    pub depth: usize,
    /// Schedule shape (`Schedule`): true when some statement is not in
    /// the innermost loop (imperfect nest).
    pub imperfect: bool,
    /// Number of top-level loop nests.
    pub n_nests: usize,
    /// Number of dependences (`NDeps`).
    pub n_deps: usize,
    /// Number of distinct dependence kinds present, 0..=3 (`Dep Type`).
    pub n_dep_kinds: usize,
    /// Number of referenced arrays (`NArrays`).
    pub n_arrays: usize,
    /// Largest array extent (`Array Size`).
    pub array_size: i64,
}

/// Measures the Figure 9 properties of `p`.
pub fn property_stats(p: &Program) -> LoopPropertyStats {
    let deps = analyze_for(p, Purpose::Stats);
    let (raw, war, waw) = deps.kind_counts();
    let n_dep_kinds = [raw, war, waw].iter().filter(|c| **c > 0).count();

    let mut bound_offset = 0i64;
    let mut triangular = false;
    fn walk_bounds(nodes: &[Node], outer_iters: &mut Vec<String>, off: &mut i64, tri: &mut bool) {
        for n in nodes {
            if let Node::Loop(l) = n {
                if let Bound::Affine(e) = &l.ub {
                    *off = (*off).max(e.constant_term().abs());
                    for sym in e.symbols() {
                        if outer_iters.iter().any(|i| i == sym) {
                            *tri = true;
                        }
                    }
                }
                outer_iters.push(l.iter.clone());
                walk_bounds(&l.body, outer_iters, off, tri);
                outer_iters.pop();
            } else {
                match n {
                    Node::Stmt(_) => {}
                    _ => walk_bounds(n.children(), outer_iters, off, tri),
                }
            }
        }
    }
    walk_bounds(&p.body, &mut Vec::new(), &mut bound_offset, &mut triangular);

    // Imperfect (§2.1): not all statements reside in the innermost loop.
    // Structurally: some loop's body contains a nested loop alongside
    // another child (statement or second loop).
    fn has_imperfect(nodes: &[Node]) -> bool {
        for n in nodes {
            if let Node::Loop(l) = n {
                let has_loop = l.body.iter().any(|c| matches!(c, Node::Loop(_)));
                if has_loop && l.body.len() > 1 {
                    return true;
                }
                if has_imperfect(&l.body) {
                    return true;
                }
            }
        }
        false
    }

    let env = p.param_env();
    let array_size = p
        .arrays
        .iter()
        .flat_map(|a| a.dims.iter())
        .map(|d| d.eval(&env).unwrap_or(0))
        .max()
        .unwrap_or(0);

    LoopPropertyStats {
        n_stmts: p.num_statements(),
        bound_offset,
        triangular,
        depth: p.max_depth(),
        imperfect: has_imperfect(&p.body),
        n_nests: p.body.iter().filter(|n| matches!(n, Node::Loop(_))).count(),
        n_deps: deps.deps.len(),
        n_dep_kinds,
        n_arrays: p.referenced_arrays().len(),
        array_size,
    }
}

/// Cluster index (0..4 = A..D) per property, in Figure 9's property order:
/// `NStmts, Bound, Depth, Schedule, NDeps, DepType, NArrays, ArraySize`.
pub fn clusters(s: &LoopPropertyStats) -> [usize; 8] {
    let nstmts = match s.n_stmts {
        0 | 1 => 0,
        2 => 1,
        3 | 4 => 2,
        _ => 3,
    };
    let bound = match (s.triangular, s.bound_offset) {
        (false, 0 | 1) => 0,
        (false, _) => 1,
        (true, 0 | 1) => 2,
        (true, _) => 3,
    };
    let depth = (s.depth.clamp(1, 4)) - 1;
    let schedule = match (s.imperfect, s.n_nests > 1) {
        (false, false) => 0,
        (false, true) => 1,
        (true, false) => 2,
        (true, true) => 3,
    };
    // The paper's own example thresholds for NDeps.
    let ndeps = match s.n_deps {
        0..=2 => 0,
        3..=5 => 1,
        6..=10 => 2,
        _ => 3,
    };
    let dep_type = s.n_dep_kinds.min(3);
    let narrays = (s.n_arrays.clamp(1, 4)) - 1;
    let asize = match s.array_size {
        i64::MIN..=64 => 0,
        65..=128 => 1,
        129..=256 => 2,
        _ => 3,
    };
    [
        nstmts, bound, depth, schedule, ndeps, dep_type, narrays, asize,
    ]
}

/// Property names in Figure 9 order.
pub const PROPERTY_NAMES: [&str; 8] = [
    "NStmts",
    "Bound",
    "Depth",
    "Schedule",
    "NDeps",
    "Dep Type",
    "NArrays",
    "Array Size",
];

/// Aggregates cluster histograms (per property, 4 buckets) over a corpus.
pub fn cluster_histogram(stats: &[LoopPropertyStats]) -> [[usize; 4]; 8] {
    let mut hist = [[0usize; 4]; 8];
    for s in stats {
        for (prop, c) in clusters(s).into_iter().enumerate() {
            hist[prop][c] += 1;
        }
    }
    hist
}

/// Shannon-style spread score in `[0, 1]` per property: 1.0 means the
/// corpus is spread evenly over the four clusters, 0.0 means fully
/// concentrated. Used to compare LOOPRAG vs COLA-Gen diversity.
pub fn spread(hist: &[usize; 4]) -> f64 {
    let total: usize = hist.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let mut h = 0.0;
    for &c in hist {
        if c > 0 {
            let p = c as f64 / total as f64;
            h -= p * p.log2();
        }
    }
    h / 2.0 // log2(4)
}

#[cfg(test)]
mod tests {
    use super::*;
    use looprag_ir::compile;

    #[test]
    fn syrk_stats_match_structure() {
        let p = compile(
            "param N = 128;\nparam M = 128;\nparam alpha = 2;\nparam beta = 3;\narray C[N][N];\narray A[N][M];\nout C;\n#pragma scop\nfor (i = 0; i <= N - 1; i++) {\n  for (j = 0; j <= i; j++) C[i][j] *= beta;\n  for (k = 0; k <= M - 1; k++) for (j = 0; j <= i; j++) C[i][j] += alpha * A[i][k] * A[j][k];\n}\n#pragma endscop\n",
            "syrk",
        )
        .unwrap();
        let s = property_stats(&p);
        assert_eq!(s.n_stmts, 2);
        assert_eq!(s.depth, 3);
        assert!(s.triangular);
        assert!(s.imperfect);
        assert_eq!(s.n_arrays, 2);
        assert_eq!(s.n_dep_kinds, 3);
        assert!(s.n_deps >= 3);
    }

    #[test]
    fn clusters_use_paper_ndeps_thresholds() {
        let mut s = LoopPropertyStats {
            n_stmts: 1,
            bound_offset: 0,
            triangular: false,
            depth: 2,
            imperfect: false,
            n_nests: 1,
            n_deps: 4,
            n_dep_kinds: 1,
            n_arrays: 1,
            array_size: 64,
        };
        assert_eq!(clusters(&s)[4], 1); // 3-5 deps -> B
        s.n_deps = 11;
        assert_eq!(clusters(&s)[4], 3); // 11+ -> D
    }

    #[test]
    fn spread_is_zero_when_concentrated_one_when_uniform() {
        assert_eq!(spread(&[10, 0, 0, 0]), 0.0);
        assert!((spread(&[5, 5, 5, 5]) - 1.0).abs() < 1e-12);
    }
}

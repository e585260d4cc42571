//! Loop-feature extraction (Appendix D).
//!
//! Two feature types per statement, both renaming-invariant:
//!
//! * **schedule features** — the 2d+1 schedule with iterator dimensions
//!   abstracted to positions: depth and the constant (textual-order)
//!   dimensions;
//! * **array-index features** — one item per access column, recording
//!   read/write kind, the *position* of the iterator in the statement's
//!   surrounding loop order (not its name), and the constant offset.
//!   All-zero columns are dropped so arrays of different dimensionality
//!   can still match.

use looprag_ir::{schedules, Access, Program, SchedEntry};

/// The extracted features of one statement.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StmtFeatures {
    /// Schedule feature items.
    pub schedule: Vec<String>,
    /// Array-index feature items.
    pub indexes: Vec<String>,
}

impl StmtFeatures {
    /// Items of feature type `j` (0 = schedule, 1 = indexes).
    pub fn of_type(&self, j: usize) -> &[String] {
        match j {
            0 => &self.schedule,
            _ => &self.indexes,
        }
    }
}

/// Number of feature types (`NF` in the paper's equations).
pub const NUM_FEATURE_TYPES: usize = 2;

fn index_items(acc: &Access, iters: &[String], kind: char, out: &mut Vec<String>) {
    for (dim, e) in acc.indexes.iter().enumerate() {
        let mut parts = Vec::new();
        for (sym, coeff) in e.iter_terms() {
            if let Some(pos) = iters.iter().position(|i| i == sym) {
                parts.push(format!("p{pos}*{coeff}"));
            } else {
                // Global parameter in a subscript.
                parts.push(format!("g*{coeff}"));
            }
        }
        let c = e.constant_term();
        // Zero-column removal: a dimension indexed by nothing at all
        // carries no transformation-relevant information.
        if parts.is_empty() && c == 0 {
            continue;
        }
        out.push(format!("{kind}:{dim}:{}{c:+}", parts.join(",")));
    }
}

/// Extracts per-statement features, in statement-id order.
pub fn extract_features(p: &Program) -> Vec<StmtFeatures> {
    let scheds = schedules(p);
    let mut out = Vec::with_capacity(scheds.len());
    for sched in &scheds {
        let mut f = StmtFeatures::default();
        f.schedule.push(format!("depth:{}", sched.depth()));
        for (k, c) in sched.constants().iter().enumerate() {
            f.schedule.push(format!("c{k}:{c}"));
        }
        let iters: Vec<String> = sched
            .entries
            .iter()
            .filter_map(|e| match e {
                SchedEntry::Iter(s) => Some(s.clone()),
                _ => None,
            })
            .collect();
        let stmts = p.statements();
        let stmt = stmts
            .iter()
            .find(|s| s.id == sched.stmt_id)
            .expect("schedule for unknown statement");
        index_items(&stmt.lhs, &iters, 'W', &mut f.indexes);
        for r in stmt.reads() {
            index_items(&r, &iters, 'R', &mut f.indexes);
        }
        out.push(f);
    }
    out
}

/// Multiset intersection size of two item lists.
pub fn intersection_count(a: &[String], b: &[String]) -> usize {
    let mut counts = std::collections::HashMap::new();
    for item in a {
        *counts.entry(item.as_str()).or_insert(0usize) += 1;
    }
    let mut shared = 0;
    for item in b {
        if let Some(c) = counts.get_mut(item.as_str()) {
            if *c > 0 {
                *c -= 1;
                shared += 1;
            }
        }
    }
    shared
}

#[cfg(test)]
mod tests {
    use super::*;
    use looprag_ir::compile;

    fn features(src: &str) -> Vec<StmtFeatures> {
        extract_features(&compile(src, "t").unwrap())
    }

    #[test]
    fn renaming_arrays_does_not_change_features() {
        let a = features(
            "param N = 8;\narray A[N];\nout A;\n#pragma scop\nfor (i = 0; i <= N - 1; i++) A[i] = A[i] + 1.0;\n#pragma endscop\n",
        );
        let b = features(
            "param N = 8;\narray ZZZ[N];\nout ZZZ;\n#pragma scop\nfor (i = 0; i <= N - 1; i++) ZZZ[i] = ZZZ[i] + 1.0;\n#pragma endscop\n",
        );
        assert_eq!(a, b);
    }

    #[test]
    fn renaming_iterators_does_not_change_features() {
        let a = features(
            "param N = 8;\narray A[N][N];\nout A;\n#pragma scop\nfor (i = 0; i <= N - 1; i++) for (j = 0; j <= N - 1; j++) A[i][j] = 1.0;\n#pragma endscop\n",
        );
        let b = features(
            "param N = 8;\narray A[N][N];\nout A;\n#pragma scop\nfor (x = 0; x <= N - 1; x++) for (y = 0; y <= N - 1; y++) A[x][y] = 1.0;\n#pragma endscop\n",
        );
        assert_eq!(a, b);
    }

    #[test]
    fn swapped_subscripts_change_features() {
        // The paper's point: exchanging indexes in an access changes the
        // semantics entirely and must change the features.
        let a = features(
            "param N = 8;\narray A[N][N];\nout A;\n#pragma scop\nfor (i = 0; i <= N - 1; i++) for (j = 0; j <= N - 1; j++) A[i][j] = 1.0;\n#pragma endscop\n",
        );
        let b = features(
            "param N = 8;\narray A[N][N];\nout A;\n#pragma scop\nfor (i = 0; i <= N - 1; i++) for (j = 0; j <= N - 1; j++) A[j][i] = 1.0;\n#pragma endscop\n",
        );
        assert_ne!(a, b);
    }

    #[test]
    fn offsets_are_recorded() {
        let f = features(
            "param N = 8;\narray A[N];\nout A;\n#pragma scop\nfor (i = 1; i <= N - 1; i++) A[i] = A[i - 1] + 1.0;\n#pragma endscop\n",
        );
        assert!(f[0].indexes.iter().any(|s| s.contains("-1")), "{f:?}");
        assert!(f[0].indexes.iter().any(|s| s.starts_with('W')));
        assert!(f[0].indexes.iter().any(|s| s.starts_with('R')));
    }

    #[test]
    fn multiset_intersection_counts_duplicates() {
        let a = vec!["x".to_string(), "x".to_string(), "y".to_string()];
        let b = vec!["x".to_string(), "x".to_string(), "x".to_string()];
        assert_eq!(intersection_count(&a, &b), 2);
        assert_eq!(intersection_count(&b, &a), 2);
        assert_eq!(intersection_count(&a, &a), 3);
    }

    #[test]
    fn schedule_features_capture_textual_order() {
        let f = features(
            "param N = 8;\narray A[N];\nout A;\n#pragma scop\nfor (i = 0; i <= N - 1; i++) { A[i] = 0.0; A[i] += 1.0; }\n#pragma endscop\n",
        );
        assert!(f[0].schedule.contains(&"c1:0".to_string()));
        assert!(f[1].schedule.contains(&"c1:1".to_string()));
    }
}

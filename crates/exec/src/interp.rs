//! The reference SCoP tree-walking interpreter.
//!
//! Executes a [`Program`] against an [`ArrayStore`], with:
//!
//! * out-of-bounds detection (the pipeline's *runtime error* class),
//! * a statement budget (the *execution timeout* class),
//! * configurable iteration order for `parallel`-marked loops, so that
//!   illegally parallelized loops produce genuinely divergent results.
//!
//! This walker is the *semantic oracle*: the production execution path is
//! the lane engine [`crate::CompiledProgram::run_batched`], every lane of
//! which is validated differentially against [`run_with_store_reference`].

use crate::store::ArrayStore;
use looprag_ir::lower::Unevaluable;
use looprag_ir::{has_parallel_loop, Expr, Loop, Node, Program, Statement};
use std::collections::HashMap;
use std::fmt;

/// Order in which iterations of a `parallel`-marked loop run.
///
/// Sequential semantics are [`ParallelOrder::Forward`]; the other orders
/// model thread interleavings. A loop whose parallelization is legal
/// produces identical results under all of them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ParallelOrder {
    /// Original order (what a legal parallel loop must be equivalent to).
    #[default]
    Forward,
    /// Iterations in reverse.
    Reverse,
    /// Even iterations first, then odd ones (block-cyclic-ish schedule).
    EvenOdd,
}

impl ParallelOrder {
    /// Every order, [`ParallelOrder::Forward`] first.
    pub const ALL: [ParallelOrder; 3] = [
        ParallelOrder::Forward,
        ParallelOrder::Reverse,
        ParallelOrder::EvenOdd,
    ];

    /// The orders `p` must survive to count as equivalent to its
    /// sequential run: all of them when it marks any loop parallel, only
    /// [`ParallelOrder::Forward`] otherwise (the other orders would rerun
    /// the same schedule).
    pub fn probes(p: &Program) -> &'static [ParallelOrder] {
        if has_parallel_loop(p) {
            &Self::ALL
        } else {
            &[ParallelOrder::Forward]
        }
    }
}

/// Execution limits and knobs.
#[derive(Debug, Clone)]
pub struct ExecConfig {
    /// Maximum number of statement executions before aborting with
    /// [`ExecError::BudgetExceeded`]. Models the paper's wall-clock limits.
    pub stmt_budget: u64,
    /// Iteration order for parallel-marked loops.
    pub parallel_order: ParallelOrder,
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig {
            stmt_budget: 200_000_000,
            parallel_order: ParallelOrder::Forward,
        }
    }
}

/// Runtime failure.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecError {
    /// An array subscript evaluated outside the allocated extents.
    OutOfBounds {
        /// Array name.
        array: String,
        /// Concrete subscript values.
        indexes: Vec<i64>,
        /// Statement id performing the access.
        stmt: usize,
    },
    /// The statement budget was exhausted (execution timeout).
    BudgetExceeded {
        /// The configured budget.
        budget: u64,
    },
    /// A bound or subscript referenced an unbound symbol (programs that
    /// pass [`looprag_ir::validate`] never hit this).
    Unbound(String),
    /// Folding the parameters of this affine expression (a bound, guard
    /// or subscript) overflows `i64`.
    Overflow(String),
}

impl From<&Unevaluable> for ExecError {
    fn from(e: &Unevaluable) -> ExecError {
        match e {
            Unevaluable::Unbound(s) => ExecError::Unbound(s.clone()),
            Unevaluable::Overflow(s) => ExecError::Overflow(s.clone()),
        }
    }
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::OutOfBounds {
                array,
                indexes,
                stmt,
            } => write!(
                f,
                "runtime error: index {indexes:?} out of bounds for array '{array}' (statement S{stmt})"
            ),
            ExecError::BudgetExceeded { budget } => {
                write!(f, "execution timeout: statement budget of {budget} exhausted")
            }
            ExecError::Unbound(s) => write!(f, "unbound symbol '{s}' at runtime"),
            ExecError::Overflow(e) => write!(f, "parameters overflow i64 in '{e}' at runtime"),
        }
    }
}

impl std::error::Error for ExecError {}

/// Outcome of a successful run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecStats {
    /// Total statement executions.
    pub stmts_executed: u64,
}

struct Env {
    params: HashMap<String, i64>,
    iters: Vec<(String, i64)>,
}

impl Env {
    fn lookup(&self, sym: &str) -> Option<i64> {
        for (name, v) in self.iters.iter().rev() {
            if name == sym {
                return Some(*v);
            }
        }
        self.params.get(sym).copied()
    }
}

struct Interp<'s, 'c> {
    env: Env,
    store: &'s mut ArrayStore,
    cfg: &'c ExecConfig,
    executed: u64,
}

impl Interp<'_, '_> {
    fn eval_i64(&self, e: &looprag_ir::AffineExpr) -> Result<i64, ExecError> {
        let env = &self.env;
        e.eval(&|s| env.lookup(s)).map_err(ExecError::Unbound)
    }

    fn eval_bound(&self, b: &looprag_ir::Bound) -> Result<i64, ExecError> {
        let env = &self.env;
        b.eval(&|s| env.lookup(s)).map_err(ExecError::Unbound)
    }

    fn read(&mut self, acc: &looprag_ir::Access, stmt: usize) -> Result<f64, ExecError> {
        let (idx, flat) = self.flatten(acc, stmt)?;
        Ok(self.store.at(idx as usize).data[flat])
    }

    fn flatten(&self, acc: &looprag_ir::Access, stmt: usize) -> Result<(u32, usize), ExecError> {
        let mut ixs = Vec::with_capacity(acc.indexes.len());
        for e in &acc.indexes {
            ixs.push(self.eval_i64(e)?);
        }
        let idx = self
            .store
            .index_of(&acc.array)
            .ok_or_else(|| ExecError::Unbound(acc.array.clone()))?;
        let arr = self.store.at(idx);
        let flat = arr.flatten(&ixs).ok_or_else(|| ExecError::OutOfBounds {
            array: acc.array.clone(),
            indexes: ixs,
            stmt,
        })?;
        Ok((idx as u32, flat))
    }

    fn eval_expr(&mut self, e: &Expr, stmt: usize) -> Result<f64, ExecError> {
        match e {
            Expr::Num(v) => Ok(*v),
            Expr::Access(a) => self.read(a, stmt),
            Expr::Sym(s) => self
                .env
                .lookup(s)
                .map(|v| v as f64)
                .ok_or_else(|| ExecError::Unbound(s.clone())),
            Expr::Neg(e) => Ok(-self.eval_expr(e, stmt)?),
            Expr::Binary(op, a, b) => {
                let x = self.eval_expr(a, stmt)?;
                let y = self.eval_expr(b, stmt)?;
                Ok(op.apply(x, y))
            }
            Expr::Call(f, args) => {
                let mut vals = Vec::with_capacity(args.len());
                for a in args {
                    vals.push(self.eval_expr(a, stmt)?);
                }
                Ok(f.apply(&vals))
            }
        }
    }

    fn exec_stmt(&mut self, s: &Statement) -> Result<(), ExecError> {
        if self.executed >= self.cfg.stmt_budget {
            return Err(ExecError::BudgetExceeded {
                budget: self.cfg.stmt_budget,
            });
        }
        self.executed += 1;
        let rhs = self.eval_expr(&s.rhs, s.id)?;
        let (idx, flat) = self.flatten(&s.lhs, s.id)?;
        let slot = &mut self.store.at_mut(idx as usize).data[flat];
        *slot = s.op.apply(*slot, rhs);
        Ok(())
    }

    fn run_iteration(&mut self, l: &Loop, v: i64) -> Result<(), ExecError> {
        self.env.iters.last_mut().unwrap().1 = v;
        for child in &l.body {
            self.exec_node(child)?;
        }
        Ok(())
    }

    fn exec_loop(&mut self, l: &Loop) -> Result<(), ExecError> {
        let lb = self.eval_bound(&l.lb)?;
        let mut ub = self.eval_bound(&l.ub)?;
        if !l.ub_inclusive {
            ub -= 1;
        }
        if ub < lb {
            return Ok(());
        }

        let order = if l.parallel {
            self.cfg.parallel_order
        } else {
            ParallelOrder::Forward
        };
        self.env.iters.push((l.iter.clone(), 0));
        // Degenerate (non-positive) steps cannot come from the parser;
        // for hand-built trees both engines define them as a single
        // iteration at the lower bound.
        if l.step <= 0 {
            let res = self.run_iteration(l, lb);
            self.env.iters.pop();
            return res;
        }
        let res = match order {
            // The overwhelmingly common case: iterate the range directly,
            // without materializing an iteration vector.
            ParallelOrder::Forward => {
                let mut v = lb;
                loop {
                    if let Err(e) = self.run_iteration(l, v) {
                        break Err(e);
                    }
                    match v.checked_add(l.step) {
                        Some(n) if n <= ub => v = n,
                        _ => break Ok(()),
                    }
                }
            }
            // Permuted orders are rare (illegal-parallelism probes); they
            // may allocate the iteration vector.
            ParallelOrder::Reverse | ParallelOrder::EvenOdd => {
                let mut values: Vec<i64> = (lb..=ub).step_by(l.step as usize).collect();
                if order == ParallelOrder::Reverse {
                    values.reverse();
                } else {
                    let (evens, odds): (Vec<i64>, Vec<i64>) =
                        values.iter().partition(|v| (*v - lb) / l.step % 2 == 0);
                    values = evens;
                    values.extend(odds);
                }
                let mut res = Ok(());
                for v in values {
                    if let Err(e) = self.run_iteration(l, v) {
                        res = Err(e);
                        break;
                    }
                }
                res
            }
        };
        self.env.iters.pop();
        res
    }

    fn exec_node(&mut self, n: &Node) -> Result<(), ExecError> {
        match n {
            Node::Stmt(s) => self.exec_stmt(s),
            Node::Loop(l) => self.exec_loop(l),
            Node::If { conds, then } => {
                let mut taken = true;
                for c in conds {
                    let env = &self.env;
                    let v = c.eval(&|s| env.lookup(s)).map_err(ExecError::Unbound)?;
                    if !v {
                        taken = false;
                        break;
                    }
                }
                if taken {
                    for child in then {
                        self.exec_node(child)?;
                    }
                }
                Ok(())
            }
        }
    }
}

/// Runs `p` against `store` under `cfg` through the **reference
/// tree-walker**.
///
/// This path re-resolves every symbol and array name per access; use it
/// as the differential-testing oracle for the lane engine
/// ([`crate::CompiledProgram::run_batched`]), not as the production
/// execution path.
///
/// # Errors
///
/// Returns [`ExecError`] on out-of-bounds accesses, budget exhaustion, or
/// unbound symbols.
pub fn run_with_store_reference(
    p: &Program,
    store: &mut ArrayStore,
    cfg: &ExecConfig,
) -> Result<ExecStats, ExecError> {
    let mut interp = Interp {
        env: Env {
            params: p.params.iter().map(|d| (d.name.clone(), d.value)).collect(),
            iters: Vec::new(),
        },
        store,
        cfg,
        executed: 0,
    };
    for n in &p.body {
        interp.exec_node(n)?;
    }
    Ok(ExecStats {
        stmts_executed: interp.executed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run;
    use looprag_ir::compile;

    fn program(src: &str) -> Program {
        compile(src, "t").unwrap()
    }

    /// Runs through the reference walker on a fresh store.
    fn run_reference(p: &Program, cfg: &ExecConfig) -> Result<(ArrayStore, ExecStats), ExecError> {
        let mut store = ArrayStore::from_program(p);
        let stats = run_with_store_reference(p, &mut store, cfg)?;
        Ok((store, stats))
    }

    #[test]
    fn executes_simple_accumulation() {
        let p = program(
            "param N = 10;\narray A[N];\nout A;\n#pragma scop\nfor (i = 0; i <= N - 1; i++) A[i] = 2.0;\nfor (i = 0; i <= N - 1; i++) A[i] += 3.0;\n#pragma endscop\n",
        );
        for (store, stats) in [
            run(&p, &ExecConfig::default()).unwrap(),
            run_reference(&p, &ExecConfig::default()).unwrap(),
        ] {
            assert_eq!(stats.stmts_executed, 20);
            assert!(store.get("A").unwrap().data.iter().all(|&v| v == 5.0));
        }
    }

    #[test]
    fn triangular_loop_counts() {
        let p = program(
            "param N = 4;\ndouble c;\narray A[N][N];\nout A;\n#pragma scop\nfor (i = 0; i <= N - 1; i++) for (j = 0; j <= i; j++) { c = 1.0; A[i][j] = c; }\n#pragma endscop\n",
        );
        let (_, stats) = run(&p, &ExecConfig::default()).unwrap();
        assert_eq!(stats.stmts_executed, 2 * (1 + 2 + 3 + 4));
        let (_, ref_stats) = run_reference(&p, &ExecConfig::default()).unwrap();
        assert_eq!(ref_stats, stats);
    }

    #[test]
    fn detects_out_of_bounds() {
        let p = program(
            "param N = 4;\narray A[N];\nout A;\n#pragma scop\nfor (i = 0; i <= N - 1; i++) A[i + 1] = 1.0;\n#pragma endscop\n",
        );
        let err = run(&p, &ExecConfig::default()).unwrap_err();
        assert_eq!(err, run_reference(&p, &ExecConfig::default()).unwrap_err());
        match err {
            ExecError::OutOfBounds { array, indexes, .. } => {
                assert_eq!(array, "A");
                assert_eq!(indexes, vec![4]);
            }
            other => panic!("unexpected error: {other}"),
        }
    }

    #[test]
    fn enforces_budget() {
        let p = program(
            "param N = 100;\narray A[N];\nout A;\n#pragma scop\nfor (i = 0; i <= N - 1; i++) A[i] = 1.0;\n#pragma endscop\n",
        );
        let cfg = ExecConfig {
            stmt_budget: 10,
            ..Default::default()
        };
        assert!(matches!(
            run(&p, &cfg).unwrap_err(),
            ExecError::BudgetExceeded { budget: 10 }
        ));
        assert!(matches!(
            run_reference(&p, &cfg).unwrap_err(),
            ExecError::BudgetExceeded { budget: 10 }
        ));
    }

    /// The guard is followed both ways: its body runs on the iterations
    /// that take it and nowhere else, identically in both engines.
    #[test]
    fn coverage_tracks_if_both_ways() {
        let p = program(
            "param N = 4;\narray A[N];\nout A;\n#pragma scop\nfor (i = 0; i <= N - 1; i++) if (i >= 2) A[i] = 1.0;\n#pragma endscop\n",
        );
        let (store, stats) = run(&p, &ExecConfig::default()).unwrap();
        assert_eq!(stats.stmts_executed, 2);
        let (ref_store, ref_stats) = run_reference(&p, &ExecConfig::default()).unwrap();
        assert_eq!(ref_stats, stats);
        assert_eq!(ref_store, store);
    }

    #[test]
    fn legal_parallel_loop_is_order_independent() {
        let src = "param N = 8;\narray A[N];\nout A;\n#pragma scop\n#pragma omp parallel for\nfor (i = 0; i <= N - 1; i++) A[i] = A[i] * 2.0;\n#pragma endscop\n";
        let p = program(src);
        let mut results = Vec::new();
        for order in ParallelOrder::ALL {
            let cfg = ExecConfig {
                parallel_order: order,
                ..Default::default()
            };
            let (store, _) = run(&p, &cfg).unwrap();
            let (ref_store, _) = run_reference(&p, &cfg).unwrap();
            assert_eq!(store, ref_store);
            results.push(store.get("A").unwrap().data.clone());
        }
        assert_eq!(results[0], results[1]);
        assert_eq!(results[0], results[2]);
    }

    #[test]
    fn illegal_parallel_loop_diverges_under_reorder() {
        // A[i] = A[i-1] + 1 carries a dependence; parallelizing it is wrong
        // and reverse-order execution must expose that.
        let src = "param N = 8;\narray A[N];\nout A;\n#pragma scop\n#pragma omp parallel for\nfor (i = 1; i <= N - 1; i++) A[i] = A[i - 1] + 1.0;\n#pragma endscop\n";
        let p = program(src);
        let fwd = run(
            &p,
            &ExecConfig {
                parallel_order: ParallelOrder::Forward,
                ..Default::default()
            },
        )
        .unwrap()
        .0;
        let rev = run(
            &p,
            &ExecConfig {
                parallel_order: ParallelOrder::Reverse,
                ..Default::default()
            },
        )
        .unwrap()
        .0;
        assert!(fwd.element_diff(&rev, &["A".to_string()], 1e-9).is_some());
    }

    #[test]
    fn stepped_and_exclusive_bounds() {
        let p = program(
            "param N = 10;\narray A[N];\nout A;\n#pragma scop\nfor (i = 0; i < N; i += 3) A[i] = 1.0;\n#pragma endscop\n",
        );
        let (store, stats) = run(&p, &ExecConfig::default()).unwrap();
        assert_eq!(stats.stmts_executed, 4); // 0, 3, 6, 9
        assert_eq!(store.get("A").unwrap().data[9], 1.0);
        assert_ne!(store.get("A").unwrap().data[1], 1.0); // untouched by the stride-3 loop
        let (ref_store, ref_stats) = run_reference(&p, &ExecConfig::default()).unwrap();
        assert_eq!(ref_stats, stats);
        assert_eq!(ref_store, store);
    }
}

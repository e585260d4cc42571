//! The compile-to-bytecode execution engine.
//!
//! [`CompiledProgram::compile`] lowers a [`Program`] once into a form the
//! hot loop can execute with no string hashing, no per-node `match` over
//! owned expression trees, and no per-iteration allocation:
//!
//! * loop headers, `if` guards and subscripts go through the shared
//!   [`looprag_ir::lower`] lowering: iterators resolve to frame slots,
//!   parameters fold into constants, and each loop becomes an inclusive
//!   range with a positive step;
//! * array names are interned to dense ids and resolved to store indexes
//!   once per run;
//! * statement right-hand sides become a flat postfix op stream
//!   evaluated over a reusable value stack.
//!
//! A form that lowering finds unevaluable (an unbound symbol, or a
//! parameter fold that overflows) is kept with its reason and raised as
//! an [`ExecError`](crate::ExecError) only if execution reaches it, so
//! dead code behaves exactly as under the reference walker.
//!
//! The compiled form is immutable and reusable: differential testing
//! compiles the original and the candidate once and runs the same
//! [`CompiledProgram`] across every input and iteration order. It has one
//! interpreter, the lane engine [`CompiledProgram::run_batched`]; a
//! single run is a one-lane batch ([`crate::run`]). Semantics are
//! validated against the reference tree-walker
//! ([`crate::run_with_store_reference`]) by differential self-tests.

use looprag_ir::lower::{Guard, Lin, LoopBounds, Scope, Symbol, Unevaluable};
use looprag_ir::{AssignOp, BinOp, Expr, MathFn, Node, Program, Statement};
use std::collections::HashMap;

/// A lowered access: interned array id plus one linear form per
/// subscript dimension (`Err`: raised when the access is evaluated).
#[derive(Debug, Clone)]
pub(crate) struct CAccess {
    pub(crate) array: u32,
    pub(crate) dims: Result<Box<[Lin]>, Unevaluable>,
}

/// One postfix instruction of a statement's RHS stream.
#[derive(Debug, Clone)]
pub(crate) enum Op {
    /// Push a literal (or compile-time-folded parameter) value.
    Const(f64),
    /// Push the current value of a loop iterator.
    Slot(u16),
    /// Evaluate the access, push the element value.
    Load(u32),
    /// A symbol that was unbound at compile time; errors when executed.
    UnboundSym(u32),
    /// Negate the top of stack.
    Neg,
    /// Apply a binary operator to the top two values.
    Bin(BinOp),
    /// Apply a math intrinsic to the top `n` values.
    Call(MathFn, u32),
}

#[derive(Debug, Clone)]
pub(crate) struct CStmt {
    pub(crate) id: usize,
    /// Range into [`CompiledProgram::ops`].
    pub(crate) ops: (u32, u32),
    /// Index into [`CompiledProgram::accesses`] for the write target.
    pub(crate) lhs: u32,
    pub(crate) op: AssignOp,
}

#[derive(Debug, Clone)]
pub(crate) struct CLoop {
    pub(crate) slot: u16,
    pub(crate) bounds: Result<LoopBounds, Unevaluable>,
    pub(crate) parallel: bool,
    pub(crate) body: Box<[CNode]>,
}

#[derive(Debug, Clone)]
pub(crate) enum CNode {
    Stmt(CStmt),
    Loop(CLoop),
    If {
        conds: Box<[Result<Guard, Unevaluable>]>,
        then: Box<[CNode]>,
    },
}

/// A [`Program`] lowered to the bytecode form, built once and reusable
/// across stores and iteration orders.
#[derive(Debug, Clone)]
pub struct CompiledProgram {
    pub(crate) arrays: Vec<String>,
    pub(crate) ops: Vec<Op>,
    pub(crate) accesses: Vec<CAccess>,
    pub(crate) syms: Vec<String>,
    pub(crate) body: Vec<CNode>,
    pub(crate) n_slots: usize,
}

struct Compiler<'p> {
    scope: Scope<'p>,
    arrays: Vec<String>,
    array_ids: HashMap<&'p str, u32>,
    ops: Vec<Op>,
    accesses: Vec<CAccess>,
    syms: Vec<String>,
}

impl<'p> Compiler<'p> {
    fn intern_array(&mut self, name: &'p str) -> u32 {
        if let Some(&id) = self.array_ids.get(name) {
            return id;
        }
        let id = self.arrays.len() as u32;
        self.arrays.push(name.to_string());
        self.array_ids.insert(name, id);
        id
    }

    fn intern_sym(&mut self, name: &str) -> u32 {
        if let Some(pos) = self.syms.iter().position(|s| s == name) {
            return pos as u32;
        }
        self.syms.push(name.to_string());
        (self.syms.len() - 1) as u32
    }

    fn access(&mut self, a: &'p looprag_ir::Access) -> u32 {
        let array = self.intern_array(&a.array);
        let dims = self.scope.subscripts(a);
        self.accesses.push(CAccess { array, dims });
        (self.accesses.len() - 1) as u32
    }

    /// Emits `e` as postfix ops; operand order matches the reference
    /// walker's left-to-right evaluation, so error points line up
    /// exactly.
    fn expr(&mut self, e: &'p Expr) {
        match e {
            Expr::Num(v) => self.ops.push(Op::Const(*v)),
            Expr::Access(a) => {
                let id = self.access(a);
                self.ops.push(Op::Load(id));
            }
            Expr::Sym(s) => {
                let op = match self.scope.resolve(s) {
                    Symbol::Iter(slot) => Op::Slot(slot as u16),
                    Symbol::Param(v) => Op::Const(v as f64),
                    Symbol::Unbound => Op::UnboundSym(self.intern_sym(s)),
                };
                self.ops.push(op);
            }
            Expr::Neg(inner) => {
                self.expr(inner);
                self.ops.push(Op::Neg);
            }
            Expr::Binary(op, a, b) => {
                self.expr(a);
                self.expr(b);
                self.ops.push(Op::Bin(*op));
            }
            Expr::Call(f, args) => {
                for a in args {
                    self.expr(a);
                }
                self.ops.push(Op::Call(*f, args.len() as u32));
            }
        }
    }

    fn stmt(&mut self, s: &'p Statement) -> CStmt {
        let start = self.ops.len() as u32;
        self.expr(&s.rhs);
        let end = self.ops.len() as u32;
        CStmt {
            id: s.id,
            ops: (start, end),
            lhs: self.access(&s.lhs),
            op: s.op,
        }
    }

    /// Lowers a node list.
    fn nodes(&mut self, nodes: &'p [Node]) -> Box<[CNode]> {
        let mut out = Vec::with_capacity(nodes.len());
        for n in nodes {
            match n {
                Node::Stmt(s) => out.push(CNode::Stmt(self.stmt(s))),
                Node::If { conds, then } => {
                    let conds = conds.iter().map(|c| self.scope.cond(c)).collect();
                    let then = self.nodes(then);
                    out.push(CNode::If { conds, then });
                }
                Node::Loop(l) => {
                    let bounds = self.scope.loop_bounds(l);
                    let slot = self.scope.push(&l.iter) as u16;
                    let body = self.nodes(&l.body);
                    self.scope.pop();
                    out.push(CNode::Loop(CLoop {
                        slot,
                        bounds,
                        parallel: l.parallel,
                        body,
                    }));
                }
            }
        }
        out.into_boxed_slice()
    }
}

impl CompiledProgram {
    /// Lowers `p` to the bytecode form. Infallible: unevaluable forms
    /// compile to poison that raises [`ExecError::Unbound`](crate::ExecError::Unbound) or
    /// [`ExecError::Overflow`](crate::ExecError::Overflow) if (and only if) it is actually executed.
    pub fn compile(p: &Program) -> CompiledProgram {
        let params: HashMap<&str, i64> = p
            .params
            .iter()
            .map(|d| (d.name.as_str(), d.value))
            .collect();
        let env = |s: &str| params.get(s).copied();
        let mut c = Compiler {
            scope: Scope::new(&env),
            arrays: Vec::new(),
            array_ids: HashMap::new(),
            ops: Vec::new(),
            accesses: Vec::new(),
            syms: Vec::new(),
        };
        let body = c.nodes(&p.body).into_vec();
        CompiledProgram {
            arrays: c.arrays,
            ops: c.ops,
            accesses: c.accesses,
            syms: c.syms,
            body,
            n_slots: p.max_depth(),
        }
    }

    /// Array names referenced by the program, in interned-id order.
    pub fn array_names(&self) -> &[String] {
        &self.arrays
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::{
        run_with_store_reference, ExecConfig, ExecError, ExecStats, ParallelOrder,
    };
    use crate::{run, ArrayStore, BatchStore};
    use looprag_ir::{compile as compile_src, InitKind};

    fn program(src: &str) -> Program {
        compile_src(src, "t").unwrap()
    }

    /// Runs `p` as a one-lane batch and through the reference walker on
    /// fresh stores and asserts bit-identical results: the stores (the
    /// partial ones too, on errors) and stats, or identical errors. Returns the shared outcome.
    fn assert_engines_agree(p: &Program, cfg: &ExecConfig) -> Result<ExecStats, ExecError> {
        let mut s_ref = ArrayStore::from_program(p);
        let r_ref = run_with_store_reference(p, &mut s_ref, cfg);
        let mut batch = BatchStore::from_inputs(p, &[vec![]]);
        let r_new = CompiledProgram::compile(p).run_batched(&mut batch, cfg);
        assert_eq!(r_ref, r_new, "engine outcomes diverge");
        let s_new = batch.lane_store(0);
        assert_eq!(s_ref.len(), s_new.len());
        for (name, a) in s_ref.iter() {
            let b = s_new.get(name).unwrap();
            assert_eq!(a.extents, b.extents);
            for (i, (x, y)) in a.data.iter().zip(&b.data).enumerate() {
                assert_eq!(x.to_bits(), y.to_bits(), "{name}[{i}]: {x} vs {y}");
            }
        }
        r_new
    }

    #[test]
    fn matches_reference_on_gemm() {
        let p = program(
            "param N = 12;\narray C[N][N];\narray A[N][N];\narray B[N][N];\nout C;\n#pragma scop\nfor (i = 0; i <= N - 1; i++) for (j = 0; j <= N - 1; j++) for (k = 0; k <= N - 1; k++) C[i][j] += A[i][k] * B[k][j];\n#pragma endscop\n",
        );
        assert_engines_agree(&p, &ExecConfig::default()).unwrap();
    }

    #[test]
    fn matches_reference_on_guards_and_calls() {
        let p = program(
            "param N = 9;\ndouble s;\narray A[N];\nout A;\n#pragma scop\nfor (i = 0; i <= N - 1; i++) { s = sqrt(A[i] + 2.0); if (i >= 3) A[i] = fmax(s, -(A[i] / 3.0)); }\n#pragma endscop\n",
        );
        assert_engines_agree(&p, &ExecConfig::default()).unwrap();
    }

    #[test]
    fn matches_reference_under_permuted_orders() {
        let src = "param N = 10;\narray A[N];\nout A;\n#pragma scop\n#pragma omp parallel for\nfor (i = 1; i <= N - 1; i++) A[i] = A[i - 1] + 1.0;\n#pragma endscop\n";
        let p = program(src);
        for order in ParallelOrder::ALL {
            let cfg = ExecConfig {
                parallel_order: order,
                ..Default::default()
            };
            assert_engines_agree(&p, &cfg).unwrap();
        }
    }

    #[test]
    fn matches_reference_on_oob_error() {
        let p = program(
            "param N = 4;\narray A[N];\nout A;\n#pragma scop\nfor (i = 0; i <= N - 1; i++) A[i + 1] = 1.0;\n#pragma endscop\n",
        );
        // The partial stores (writes before the fault) must also agree.
        let e = assert_engines_agree(&p, &ExecConfig::default()).unwrap_err();
        assert!(matches!(e, ExecError::OutOfBounds { .. }), "{e}");
    }

    #[test]
    fn matches_reference_on_budget_error() {
        let p = program(
            "param N = 50;\narray A[N];\nout A;\n#pragma scop\nfor (i = 0; i <= N - 1; i++) A[i] = 1.0;\n#pragma endscop\n",
        );
        let cfg = ExecConfig {
            stmt_budget: 7,
            ..Default::default()
        };
        assert_eq!(
            assert_engines_agree(&p, &cfg),
            Err(ExecError::BudgetExceeded { budget: 7 })
        );
    }

    #[test]
    fn shadowed_iterator_resolves_innermost() {
        use looprag_ir::{Access, AffineExpr, Bound, Loop, ParamDecl};
        // Inner loop reuses the outer iterator name (the parser forbids
        // this, but hand-built or transformed trees can carry it); the
        // compiled frame must resolve references to the innermost live
        // binding, and a statement after the inner loop must see the
        // outer binding again.
        let mut p = Program::new("shadow");
        p.params.push(ParamDecl {
            name: "N".into(),
            value: 6,
        });
        p.arrays.push(looprag_ir::ArrayDecl::new(
            "A",
            vec![AffineExpr::var("N"), AffineExpr::var("N")],
        ));
        p.outputs.push("A".into());
        let inner_stmt = Node::stmt(
            Access::new("A", vec![AffineExpr::constant(0), AffineExpr::var("i")]),
            AssignOp::AddAssign,
            Expr::num(1.0),
        );
        let inner = Node::Loop(Loop::new(
            "i",
            Bound::constant(0),
            Bound::affine(AffineExpr::var("N") - 1),
            vec![inner_stmt],
        ));
        // After the inner loop, `i` must be the outer value again.
        let after = Node::stmt(
            Access::new("A", vec![AffineExpr::constant(1), AffineExpr::var("i")]),
            AssignOp::AddAssign,
            Expr::Sym("i".into()),
        );
        let outer = Node::Loop(Loop::new(
            "i",
            Bound::constant(0),
            Bound::affine(AffineExpr::var("N") - 1),
            vec![inner, after],
        ));
        p.body = vec![outer];
        p.renumber_statements();
        assert_engines_agree(&p, &ExecConfig::default()).unwrap();
    }

    #[test]
    fn unbound_in_dead_code_stays_silent() {
        use looprag_ir::{Access, AffineExpr, AssignOp, Bound, Expr, Loop};
        // Hand-build a program whose zero-trip loop body references an
        // undeclared symbol: the reference walker never evaluates it, so
        // the compiled engine must not error eagerly either.
        let mut p = Program::new("dead");
        p.arrays.push(looprag_ir::ArrayDecl::new(
            "A",
            vec![AffineExpr::constant(4)],
        ));
        p.outputs.push("A".into());
        let dead_stmt = Node::stmt(
            Access::new("A", vec![AffineExpr::var("ghost")]),
            AssignOp::Assign,
            Expr::Sym("ghost".into()),
        );
        p.body = vec![Node::Loop(Loop::new(
            "i",
            Bound::constant(1),
            Bound::constant(0),
            vec![dead_stmt],
        ))];
        p.renumber_statements();
        let cfg = ExecConfig::default();
        assert_engines_agree(&p, &cfg).unwrap();
        // And when the loop does trip, both engines report the same
        // unbound symbol.
        let mut live = p.clone();
        let Node::Loop(l) = &mut live.body[0] else {
            unreachable!()
        };
        l.ub = Bound::constant(0);
        l.lb = Bound::constant(0);
        let e = assert_engines_agree(&live, &cfg).unwrap_err();
        assert!(matches!(e, ExecError::Unbound(ref s) if s == "ghost"));
    }

    #[test]
    fn degenerate_steps_match_reference_under_all_orders() {
        use looprag_ir::{Access, AffineExpr, Bound, Loop};
        // Non-positive steps cannot come from the parser; hand-built
        // trees carrying them get one iteration at the lower bound,
        // identically in both engines and under every order.
        for step in [0i64, -1, -3] {
            let mut p = Program::new("degenerate");
            p.arrays.push(looprag_ir::ArrayDecl::new(
                "A",
                vec![AffineExpr::constant(8)],
            ));
            p.outputs.push("A".into());
            p.inits.push(("A".into(), looprag_ir::InitKind::Zero));
            let stmt = Node::stmt(
                Access::new("A", vec![AffineExpr::var("i")]),
                AssignOp::AddAssign,
                Expr::num(1.0),
            );
            let mut l = Loop::new("i", Bound::constant(2), Bound::constant(6), vec![stmt]);
            l.step = step;
            l.parallel = true;
            p.body = vec![Node::Loop(l)];
            p.renumber_statements();
            for order in ParallelOrder::ALL {
                let cfg = ExecConfig {
                    parallel_order: order,
                    ..Default::default()
                };
                assert_engines_agree(&p, &cfg).unwrap();
            }
            let (store, stats) = run(&p, &ExecConfig::default()).unwrap();
            assert_eq!(stats.stmts_executed, 1, "step {step}");
            assert_eq!(store.get("A").unwrap().data[2], 1.0);
        }
    }

    #[test]
    fn over_arity_calls_match_reference() {
        use looprag_ir::{Access, AffineExpr, Bound, Loop, MathFn};
        // The parser enforces intrinsic arity, but hand-built trees may
        // not; both engines must evaluate all operands and apply the
        // intrinsic to the same argument slice.
        let mut p = Program::new("arity");
        p.arrays.push(looprag_ir::ArrayDecl::new(
            "A",
            vec![AffineExpr::constant(6)],
        ));
        p.outputs.push("A".into());
        let call = Expr::Call(
            MathFn::Fmax,
            vec![
                Expr::access(Access::new("A", vec![AffineExpr::var("i")])),
                Expr::num(0.25),
                Expr::num(99.0),
                Expr::num(-1.0),
                Expr::num(7.0),
            ],
        );
        let stmt = Node::stmt(
            Access::new("A", vec![AffineExpr::var("i")]),
            AssignOp::Assign,
            call,
        );
        p.body = vec![Node::Loop(Loop::new(
            "i",
            Bound::constant(0),
            Bound::constant(5),
            vec![stmt],
        ))];
        p.renumber_statements();
        assert_engines_agree(&p, &ExecConfig::default()).unwrap();
    }

    #[test]
    fn compiled_form_is_reusable_across_stores() {
        let p = program(
            "param N = 8;\narray A[N];\nout A;\n#pragma scop\nfor (i = 0; i <= N - 1; i++) A[i] += 2.0;\n#pragma endscop\n",
        );
        let cp = CompiledProgram::compile(&p);
        let cfg = ExecConfig::default();
        for fill in [0.0, 1.5, -3.0] {
            let input = vec![("A".to_string(), InitKind::Constant(fill))];
            let mut store = BatchStore::from_inputs(&p, &[input]);
            cp.run_batched(&mut store, &cfg).unwrap();
            assert!(store
                .lane_store(0)
                .get("A")
                .unwrap()
                .data
                .iter()
                .all(|&v| v == fill + 2.0));
        }
        assert_eq!(cp.array_names(), &["A".to_string()]);
    }
}

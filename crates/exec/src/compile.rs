//! The compile-to-bytecode execution engine.
//!
//! [`CompiledProgram::compile`] lowers a [`Program`] once into a form the
//! hot loop can execute with no string hashing, no per-node `match` over
//! owned expression trees, and no per-iteration allocation:
//!
//! * array names are interned to dense ids and resolved to store indexes
//!   once per run;
//! * every `Sym` and iterator reference is resolved to a frame-slot
//!   index (parameters fold to constants at compile time);
//! * statement right-hand sides become a flat postfix op stream
//!   evaluated over a reusable value stack;
//! * affine loop bounds and `if` guards become slot-coefficient vectors
//!   ([`LinForm`]);
//! * coverage-site ids are assigned at compile time, replacing the
//!   pointer-keyed site maps of the reference walker.
//!
//! The compiled form is immutable and reusable: differential testing
//! compiles the original and the candidate once and runs the same
//! [`CompiledProgram`] across every input and iteration order.
//! Semantics are validated against the reference tree-walker
//! ([`crate::run_with_store_reference`]) by differential self-tests.

use crate::coverage::Coverage;
use crate::interp::{ExecConfig, ExecError, ExecStats, ParallelOrder};
use crate::store::ArrayStore;
use looprag_ir::{AssignOp, BinOp, Bound, CmpOp, Expr, MathFn, Node, Program, Statement};
use std::collections::HashMap;

/// A linear form `constant + sum(coeff * frame[slot])` with parameters
/// folded into the constant. Symbols that were unbound at compile time
/// are kept by name and reported only if the form is ever evaluated, so
/// dead code behaves exactly as under the reference walker.
#[derive(Debug, Clone)]
pub(crate) struct LinForm {
    constant: i64,
    terms: Box<[(u16, i64)]>,
    unbound: Option<Box<str>>,
}

impl LinForm {
    #[inline]
    pub(crate) fn eval(&self, frame: &[i64]) -> Result<i64, ExecError> {
        if let Some(s) = &self.unbound {
            return Err(ExecError::Unbound(s.to_string()));
        }
        let mut acc = self.constant;
        for &(slot, coeff) in self.terms.iter() {
            acc += coeff * frame[slot as usize];
        }
        Ok(acc)
    }
}

/// A lowered loop bound: [`Bound`] with [`LinForm`] leaves.
#[derive(Debug, Clone)]
pub(crate) enum CBound {
    Lin(LinForm),
    Min(Box<CBound>, Box<CBound>),
    Max(Box<CBound>, Box<CBound>),
    FloorDiv(Box<CBound>, i64),
}

impl CBound {
    pub(crate) fn eval(&self, frame: &[i64]) -> Result<i64, ExecError> {
        match self {
            CBound::Lin(f) => f.eval(frame),
            CBound::Min(a, b) => Ok(a.eval(frame)?.min(b.eval(frame)?)),
            CBound::Max(a, b) => Ok(a.eval(frame)?.max(b.eval(frame)?)),
            CBound::FloorDiv(e, c) => Ok(e.eval(frame)?.div_euclid(*c)),
        }
    }
}

/// A lowered access: interned array id plus one linear form per
/// subscript dimension.
#[derive(Debug, Clone)]
pub(crate) struct CAccess {
    pub(crate) array: u32,
    pub(crate) dims: Box<[LinForm]>,
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
    pub(crate) lb: CBound,
    pub(crate) ub: CBound,
    pub(crate) ub_inclusive: bool,
    pub(crate) step: i64,
    pub(crate) parallel: bool,
    pub(crate) site: u32,
    pub(crate) body: Box<[CNode]>,
}

#[derive(Debug, Clone)]
pub(crate) enum CNode {
    Stmt(CStmt),
    Loop(CLoop),
    If {
        conds: Box<[(LinForm, CmpOp, LinForm)]>,
        site: u32,
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
    pub(crate) n_ifs: usize,
    pub(crate) n_loops: usize,
}

struct Compiler<'p> {
    params: HashMap<&'p str, i64>,
    slots: Vec<&'p str>,
    max_slots: usize,
    arrays: Vec<String>,
    array_ids: HashMap<&'p str, u32>,
    ops: Vec<Op>,
    accesses: Vec<CAccess>,
    syms: Vec<String>,
    n_ifs: usize,
    n_loops: usize,
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

    fn lin(&mut self, e: &looprag_ir::AffineExpr) -> LinForm {
        let mut constant = e.constant_term();
        let mut terms = Vec::new();
        let mut unbound = None;
        // Terms iterate in sorted symbol order, matching the order in
        // which `AffineExpr::eval` would report an unbound symbol.
        for (sym, coeff) in e.iter_terms() {
            if let Some(slot) = self.slots.iter().rposition(|s| *s == sym) {
                terms.push((slot as u16, coeff));
            } else if let Some(v) = self.params.get(sym) {
                constant += coeff * v;
            } else if unbound.is_none() {
                unbound = Some(sym.into());
            }
        }
        LinForm {
            constant,
            terms: terms.into_boxed_slice(),
            unbound,
        }
    }

    fn bound(&mut self, b: &Bound) -> CBound {
        match b {
            Bound::Affine(e) => CBound::Lin(self.lin(e)),
            Bound::Min(a, c) => CBound::Min(Box::new(self.bound(a)), Box::new(self.bound(c))),
            Bound::Max(a, c) => CBound::Max(Box::new(self.bound(a)), Box::new(self.bound(c))),
            Bound::FloorDiv(e, c) => CBound::FloorDiv(Box::new(self.bound(e)), *c),
        }
    }

    fn access(&mut self, a: &'p looprag_ir::Access) -> u32 {
        let array = self.intern_array(&a.array);
        let dims: Vec<LinForm> = a.indexes.iter().map(|e| self.lin(e)).collect();
        self.accesses.push(CAccess {
            array,
            dims: dims.into_boxed_slice(),
        });
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
                if let Some(slot) = self.slots.iter().rposition(|x| *x == s.as_str()) {
                    self.ops.push(Op::Slot(slot as u16));
                } else if let Some(v) = self.params.get(s.as_str()) {
                    self.ops.push(Op::Const(*v as f64));
                } else {
                    let id = self.intern_sym(s);
                    self.ops.push(Op::UnboundSym(id));
                }
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

    /// Lowers a node list; `if`/loop sites are numbered pre-order, in the
    /// same order as the reference walker's `number_sites`.
    fn nodes(&mut self, nodes: &'p [Node]) -> Box<[CNode]> {
        let mut out = Vec::with_capacity(nodes.len());
        for n in nodes {
            match n {
                Node::Stmt(s) => out.push(CNode::Stmt(self.stmt(s))),
                Node::If { conds, then } => {
                    let site = self.n_ifs as u32;
                    self.n_ifs += 1;
                    let lconds: Vec<(LinForm, CmpOp, LinForm)> = conds
                        .iter()
                        .map(|c| (self.lin(&c.lhs), c.op, self.lin(&c.rhs)))
                        .collect();
                    let then = self.nodes(then);
                    out.push(CNode::If {
                        conds: lconds.into_boxed_slice(),
                        site,
                        then,
                    });
                }
                Node::Loop(l) => {
                    let site = self.n_loops as u32;
                    self.n_loops += 1;
                    let lb = self.bound(&l.lb);
                    let ub = self.bound(&l.ub);
                    self.slots.push(&l.iter);
                    self.max_slots = self.max_slots.max(self.slots.len());
                    let slot = (self.slots.len() - 1) as u16;
                    let body = self.nodes(&l.body);
                    self.slots.pop();
                    out.push(CNode::Loop(CLoop {
                        slot,
                        lb,
                        ub,
                        ub_inclusive: l.ub_inclusive,
                        step: l.step,
                        parallel: l.parallel,
                        site,
                        body,
                    }));
                }
            }
        }
        out.into_boxed_slice()
    }
}

impl CompiledProgram {
    /// Lowers `p` to the bytecode form. Infallible: symbols that cannot
    /// be resolved compile to poison ops that reproduce the reference
    /// walker's runtime [`ExecError::Unbound`] if (and only if) they are
    /// actually executed.
    pub fn compile(p: &Program) -> CompiledProgram {
        let mut c = Compiler {
            params: p
                .params
                .iter()
                .map(|d| (d.name.as_str(), d.value))
                .collect(),
            slots: Vec::new(),
            max_slots: 0,
            arrays: Vec::new(),
            array_ids: HashMap::new(),
            ops: Vec::new(),
            accesses: Vec::new(),
            syms: Vec::new(),
            n_ifs: 0,
            n_loops: 0,
        };
        let body = c.nodes(&p.body).into_vec();
        CompiledProgram {
            arrays: c.arrays,
            ops: c.ops,
            accesses: c.accesses,
            syms: c.syms,
            body,
            n_slots: c.max_slots,
            n_ifs: c.n_ifs,
            n_loops: c.n_loops,
        }
    }

    /// Array names referenced by the program, in interned-id order.
    pub fn array_names(&self) -> &[String] {
        &self.arrays
    }

    /// Number of `if` coverage sites.
    pub fn num_if_sites(&self) -> usize {
        self.n_ifs
    }

    /// Number of loop coverage sites.
    pub fn num_loop_sites(&self) -> usize {
        self.n_loops
    }

    /// Runs the compiled program against `store` under `cfg`.
    /// Behaviourally identical to running the source
    /// program through [`crate::run_with_store_reference`].
    ///
    /// # Errors
    ///
    /// Returns [`ExecError`] on out-of-bounds accesses, budget
    /// exhaustion, or unbound symbols.
    pub fn run_with_store(
        &self,
        store: &mut ArrayStore,
        cfg: &ExecConfig,
    ) -> Result<ExecStats, ExecError> {
        // Resolve interned array ids to dense store indexes once.
        let store_idx: Vec<Option<u32>> = self
            .arrays
            .iter()
            .map(|n| store.index_of(n).map(|i| i as u32))
            .collect();
        let mut m = Machine {
            cp: self,
            store,
            budget: cfg.stmt_budget,
            order: cfg.parallel_order,
            executed: 0,
            coverage: Coverage::with_sites(self.n_ifs, self.n_loops),
            frame: vec![0; self.n_slots],
            stack: Vec::with_capacity(16),
            dims: Vec::with_capacity(4),
            store_idx,
        };
        for n in &self.body {
            m.exec_node(n)?;
        }
        Ok(ExecStats {
            stmts_executed: m.executed,
            coverage: m.coverage,
        })
    }
}

struct Machine<'c, 's> {
    cp: &'c CompiledProgram,
    store: &'s mut ArrayStore,
    budget: u64,
    order: ParallelOrder,
    executed: u64,
    coverage: Coverage,
    /// One value per active loop-nest depth.
    frame: Vec<i64>,
    /// Postfix evaluation stack, reused across statements.
    stack: Vec<f64>,
    /// Subscript scratch buffer, reused across accesses.
    dims: Vec<i64>,
    /// Interned array id -> dense store index (`None` when absent).
    store_idx: Vec<Option<u32>>,
}

impl<'c> Machine<'c, '_> {
    /// Evaluates an access's subscripts and bounds-checks them, returning
    /// `(store_index, flat_element_index)`.
    fn resolve(&mut self, acc: &'c CAccess, stmt: usize) -> Result<(u32, usize), ExecError> {
        self.dims.clear();
        for d in acc.dims.iter() {
            let v = d.eval(&self.frame)?;
            self.dims.push(v);
        }
        let Some(idx) = self.store_idx[acc.array as usize] else {
            return Err(ExecError::Unbound(
                self.cp.arrays[acc.array as usize].clone(),
            ));
        };
        // Same bounds semantics as the reference walker, by construction:
        // both delegate to `ArrayData::flatten`.
        match self.store.at(idx as usize).flatten(&self.dims) {
            Some(flat) => Ok((idx, flat)),
            None => Err(ExecError::OutOfBounds {
                array: self.cp.arrays[acc.array as usize].clone(),
                indexes: self.dims.clone(),
                stmt,
            }),
        }
    }

    /// Evaluates a statement's postfix op stream.
    fn eval_ops(&mut self, s: &'c CStmt) -> Result<f64, ExecError> {
        let cp = self.cp;
        self.stack.clear();
        for op in &cp.ops[s.ops.0 as usize..s.ops.1 as usize] {
            match op {
                Op::Const(v) => self.stack.push(*v),
                Op::Slot(i) => self.stack.push(self.frame[*i as usize] as f64),
                Op::Load(a) => {
                    let acc = &cp.accesses[*a as usize];
                    let (idx, flat) = self.resolve(acc, s.id)?;
                    self.stack.push(self.store.at(idx as usize).data[flat]);
                }
                Op::UnboundSym(i) => {
                    return Err(ExecError::Unbound(cp.syms[*i as usize].clone()));
                }
                Op::Neg => {
                    let v = self.stack.pop().expect("stack underflow");
                    self.stack.push(-v);
                }
                Op::Bin(b) => {
                    let y = self.stack.pop().expect("stack underflow");
                    let x = self.stack.pop().expect("stack underflow");
                    self.stack.push(b.apply(x, y));
                }
                Op::Call(f, n) => {
                    // The top `n` stack values are the arguments in
                    // order; apply on the slice so any arity matches
                    // the reference walker's collected-Vec call.
                    let start = self
                        .stack
                        .len()
                        .checked_sub(*n as usize)
                        .expect("stack underflow");
                    let v = f.apply(&self.stack[start..]);
                    self.stack.truncate(start);
                    self.stack.push(v);
                }
            }
        }
        Ok(self.stack.pop().expect("empty op stream"))
    }

    fn exec_stmt(&mut self, s: &'c CStmt) -> Result<(), ExecError> {
        if self.executed >= self.budget {
            return Err(ExecError::BudgetExceeded {
                budget: self.budget,
            });
        }
        self.executed += 1;
        let rhs = self.eval_ops(s)?;
        let lhs = &self.cp.accesses[s.lhs as usize];
        let (idx, flat) = self.resolve(lhs, s.id)?;
        let slot = &mut self.store.at_mut(idx as usize).data[flat];
        *slot = s.op.apply(*slot, rhs);
        Ok(())
    }

    #[inline]
    fn iteration(&mut self, l: &'c CLoop, v: i64) -> Result<(), ExecError> {
        self.frame[l.slot as usize] = v;
        for child in l.body.iter() {
            self.exec_node(child)?;
        }
        Ok(())
    }

    fn exec_loop(&mut self, l: &'c CLoop) -> Result<(), ExecError> {
        let lb = l.lb.eval(&self.frame)?;
        let mut ub = l.ub.eval(&self.frame)?;
        if !l.ub_inclusive {
            ub -= 1;
        }
        let site = l.site as usize;
        if ub < lb {
            self.coverage.loops[site].1 = true;
            return Ok(());
        }
        self.coverage.loops[site].0 = true;
        let step = l.step;
        // The parser enforces positive steps, but hand-built trees may
        // carry degenerate ones; both engines define those as a single
        // iteration at the lower bound (see the reference walker).
        if step <= 0 {
            return self.iteration(l, lb);
        }
        let order = if l.parallel {
            self.order
        } else {
            ParallelOrder::Forward
        };
        match order {
            // The common case iterates the range directly — no
            // materialized iteration vector, no allocation.
            ParallelOrder::Forward => {
                let mut v = lb;
                loop {
                    self.iteration(l, v)?;
                    match v.checked_add(step) {
                        Some(n) if n <= ub => v = n,
                        _ => break,
                    }
                }
            }
            ParallelOrder::Reverse => {
                let trips = (ub - lb) / step + 1;
                let mut k = trips - 1;
                while k >= 0 {
                    self.iteration(l, lb + k * step)?;
                    k -= 1;
                }
            }
            ParallelOrder::EvenOdd => {
                let trips = (ub - lb) / step + 1;
                let mut k = 0;
                while k < trips {
                    self.iteration(l, lb + k * step)?;
                    k += 2;
                }
                let mut k = 1;
                while k < trips {
                    self.iteration(l, lb + k * step)?;
                    k += 2;
                }
            }
        }
        Ok(())
    }

    fn exec_node(&mut self, n: &'c CNode) -> Result<(), ExecError> {
        match n {
            CNode::Stmt(s) => self.exec_stmt(s),
            CNode::Loop(l) => self.exec_loop(l),
            CNode::If { conds, site, then } => {
                let mut taken = true;
                for (lhs, op, rhs) in conds.iter() {
                    let a = lhs.eval(&self.frame)?;
                    let b = rhs.eval(&self.frame)?;
                    if !op.eval(a, b) {
                        taken = false;
                        break;
                    }
                }
                if taken {
                    self.coverage.ifs[*site as usize].0 = true;
                    for child in then.iter() {
                        self.exec_node(child)?;
                    }
                } else {
                    self.coverage.ifs[*site as usize].1 = true;
                }
                Ok(())
            }
        }
    }
}

/// Compiles `p` and runs it against `store` under `cfg`.
///
/// This is the main execution entry point; callers that run the same
/// program repeatedly should call [`CompiledProgram::compile`] once and
/// reuse it. The uncompiled tree-walker remains available as
/// [`crate::run_with_store_reference`] for differential validation.
///
/// # Errors
///
/// Returns [`ExecError`] on out-of-bounds accesses, budget exhaustion, or
/// unbound symbols.
pub fn run_with_store(
    p: &Program,
    store: &mut ArrayStore,
    cfg: &ExecConfig,
) -> Result<ExecStats, ExecError> {
    CompiledProgram::compile(p).run_with_store(store, cfg)
}

/// Allocates the program's arrays, runs it, and returns the final store.
///
/// # Errors
///
/// Returns [`ExecError`] as in [`run_with_store`].
pub fn run(p: &Program, cfg: &ExecConfig) -> Result<(ArrayStore, ExecStats), ExecError> {
    let mut store = ArrayStore::from_program(p);
    let stats = run_with_store(p, &mut store, cfg)?;
    Ok((store, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::run_with_store_reference;
    use looprag_ir::compile as compile_src;

    fn program(src: &str) -> Program {
        compile_src(src, "t").unwrap()
    }

    /// Runs both engines on fresh stores and asserts bit-identical
    /// results (stores, stats, coverage — or identical errors).
    fn assert_engines_agree(p: &Program, cfg: &ExecConfig) {
        let mut s_ref = ArrayStore::from_program(p);
        let mut s_new = ArrayStore::from_program(p);
        let r_ref = run_with_store_reference(p, &mut s_ref, cfg);
        let r_new = CompiledProgram::compile(p).run_with_store(&mut s_new, cfg);
        assert_eq!(r_ref, r_new, "engine outcomes diverge");
        for (name, a) in s_ref.iter() {
            let b = s_new.get(name).unwrap();
            assert_eq!(a.extents, b.extents);
            for (i, (x, y)) in a.data.iter().zip(&b.data).enumerate() {
                assert_eq!(x.to_bits(), y.to_bits(), "{name}[{i}]: {x} vs {y}");
            }
        }
    }

    #[test]
    fn matches_reference_on_gemm() {
        let p = program(
            "param N = 12;\narray C[N][N];\narray A[N][N];\narray B[N][N];\nout C;\n#pragma scop\nfor (i = 0; i <= N - 1; i++) for (j = 0; j <= N - 1; j++) for (k = 0; k <= N - 1; k++) C[i][j] += A[i][k] * B[k][j];\n#pragma endscop\n",
        );
        assert_engines_agree(&p, &ExecConfig::default());
    }

    #[test]
    fn matches_reference_on_guards_and_calls() {
        let p = program(
            "param N = 9;\ndouble s;\narray A[N];\nout A;\n#pragma scop\nfor (i = 0; i <= N - 1; i++) { s = sqrt(A[i] + 2.0); if (i >= 3) A[i] = fmax(s, -(A[i] / 3.0)); }\n#pragma endscop\n",
        );
        assert_engines_agree(&p, &ExecConfig::default());
    }

    #[test]
    fn matches_reference_under_permuted_orders() {
        let src = "param N = 10;\narray A[N];\nout A;\n#pragma scop\n#pragma omp parallel for\nfor (i = 1; i <= N - 1; i++) A[i] = A[i - 1] + 1.0;\n#pragma endscop\n";
        let p = program(src);
        for order in [
            ParallelOrder::Forward,
            ParallelOrder::Reverse,
            ParallelOrder::EvenOdd,
        ] {
            let cfg = ExecConfig {
                parallel_order: order,
                ..Default::default()
            };
            assert_engines_agree(&p, &cfg);
        }
    }

    #[test]
    fn matches_reference_on_oob_error() {
        let p = program(
            "param N = 4;\narray A[N];\nout A;\n#pragma scop\nfor (i = 0; i <= N - 1; i++) A[i + 1] = 1.0;\n#pragma endscop\n",
        );
        let cfg = ExecConfig::default();
        let mut s_ref = ArrayStore::from_program(&p);
        let mut s_new = ArrayStore::from_program(&p);
        let e_ref = run_with_store_reference(&p, &mut s_ref, &cfg).unwrap_err();
        let e_new = CompiledProgram::compile(&p)
            .run_with_store(&mut s_new, &cfg)
            .unwrap_err();
        assert_eq!(e_ref, e_new);
        // The partial stores (writes before the fault) must also agree.
        assert_eq!(s_ref, s_new);
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
        let mut s_ref = ArrayStore::from_program(&p);
        let mut s_new = ArrayStore::from_program(&p);
        assert_eq!(
            run_with_store_reference(&p, &mut s_ref, &cfg),
            CompiledProgram::compile(&p).run_with_store(&mut s_new, &cfg)
        );
        assert_eq!(s_ref, s_new);
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
        assert_engines_agree(&p, &ExecConfig::default());
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
        assert_engines_agree(&p, &cfg);
        // And when the loop does trip, both engines report the same
        // unbound symbol.
        let mut live = p.clone();
        let Node::Loop(l) = &mut live.body[0] else {
            unreachable!()
        };
        l.ub = Bound::constant(0);
        l.lb = Bound::constant(0);
        let mut s_ref = ArrayStore::from_program(&live);
        let mut s_new = ArrayStore::from_program(&live);
        let e_ref = run_with_store_reference(&live, &mut s_ref, &cfg).unwrap_err();
        let e_new = CompiledProgram::compile(&live)
            .run_with_store(&mut s_new, &cfg)
            .unwrap_err();
        assert_eq!(e_ref, e_new);
        assert!(matches!(e_new, ExecError::Unbound(ref s) if s == "ghost"));
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
            for order in [
                ParallelOrder::Forward,
                ParallelOrder::Reverse,
                ParallelOrder::EvenOdd,
            ] {
                let cfg = ExecConfig {
                    parallel_order: order,
                    ..Default::default()
                };
                assert_engines_agree(&p, &cfg);
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
        assert_engines_agree(&p, &ExecConfig::default());
    }

    #[test]
    fn compiled_form_is_reusable_across_stores() {
        let p = program(
            "param N = 8;\narray A[N];\nout A;\n#pragma scop\nfor (i = 0; i <= N - 1; i++) A[i] += 2.0;\n#pragma endscop\n",
        );
        let cp = CompiledProgram::compile(&p);
        let cfg = ExecConfig::default();
        for fill in [0.0, 1.5, -3.0] {
            let mut store = ArrayStore::from_program(&p);
            store.get_mut("A").unwrap().data.fill(fill);
            cp.run_with_store(&mut store, &cfg).unwrap();
            assert!(store
                .get("A")
                .unwrap()
                .data
                .iter()
                .all(|&v| v == fill + 2.0));
        }
        assert_eq!(cp.array_names(), &["A".to_string()]);
        assert_eq!(cp.num_loop_sites(), 1);
        assert_eq!(cp.num_if_sites(), 0);
    }
}

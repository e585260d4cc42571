//! Batched (structure-of-arrays) execution: many inputs of one program
//! run as parallel *lanes* through a single decode of the compiled op
//! stream.
//!
//! Control flow in this language is data-independent — loop bounds, `if`
//! guards and subscripts are affine in iterators and parameters, never in
//! array values — so every lane follows the identical statement sequence.
//! [`CompiledProgram::run_batched`] exploits that: bounds, guards and
//! subscripts are evaluated **once** per visit, and only the `f64` data
//! work fans out across lanes. [`BatchStore`] keeps each array as dense
//! element-major stripes (`data[flat * lanes + lane]`), so the per-lane
//! inner loops walk contiguous memory.
//!
//! This is the crate's one production interpreter: a single run is a
//! one-lane batch ([`run`]). Per-lane semantics are exactly those of a
//! scalar run of the reference walker
//! ([`crate::run_with_store_reference`]) on that lane's input:
//!
//! * every lane has its own statement budget; a lane that exhausts it is
//!   latched with [`ExecError::BudgetExceeded`] and drops out, its
//!   stripes frozen at the death point — bit-for-bit the partial store a
//!   scalar run with that budget would leave — while the remaining lanes
//!   continue;
//! * faults (out-of-bounds subscripts, unbound symbols) are control-flow
//!   level and therefore hit every still-live lane at the same program
//!   point, latching the identical error a scalar run would report;
//! * the run early-exits as soon as no live lanes remain.
//!
//! Every lane's outcome (stats, error class, final store) is pinned
//! bit-for-bit against a reference run of that input and budget by
//! `tests/engine_differential.rs`.

use crate::compile::{CAccess, CLoop, CNode, CStmt, CompiledProgram, Op};
use crate::interp::{ExecConfig, ExecError, ExecStats, ParallelOrder};
use crate::store::{element_count, flatten_extents, ArrayData, ArrayStore, InputSpec};
use looprag_ir::{AssignOp, BinOp, InitKind, Program};
use std::collections::HashMap;

/// A structure-of-arrays store: `lanes` independent memory images of one
/// program, interleaved element-major so that the lane dimension is
/// contiguous (`data[flat * lanes + lane]`).
#[derive(Debug, Clone)]
pub struct BatchStore {
    lanes: usize,
    names: Vec<String>,
    index: HashMap<String, usize>,
    extents: Vec<Vec<i64>>,
    /// Per-lane element count of each array (extents product, min 1).
    lens: Vec<usize>,
    /// Per array: `lens[i] * lanes` values, element-major.
    data: Vec<Vec<f64>>,
}

impl BatchStore {
    /// One lane per input, each holding every array declared by `p`
    /// and filled once: an array the input names from the last
    /// [`InitKind`](looprag_ir::InitKind) it gives that name, any other
    /// non-local array from the program's init pattern (as
    /// [`ArrayStore::from_program`]), and the rest zeroed. Names `p`
    /// does not declare are ignored.
    ///
    /// # Panics
    ///
    /// Panics if an array extent references an undeclared parameter or
    /// an array is too large to allocate; run [`looprag_ir::validate`]
    /// first.
    pub fn from_inputs(p: &Program, inputs: &[InputSpec]) -> Self {
        let env = p.param_env();
        let lanes = inputs.len();
        let mut store = BatchStore {
            lanes,
            names: Vec::new(),
            index: HashMap::new(),
            extents: Vec::new(),
            lens: Vec::new(),
            data: Vec::new(),
        };
        for decl in &p.arrays {
            let extents = decl
                .extents(&env)
                .unwrap_or_else(|sym| panic!("unbound parameter '{sym}' in array extents"));
            let len = element_count(&extents, 1);
            let mut data = vec![0.0; element_count(&extents, lanes)];
            let own = (!decl.local).then(|| p.init_for(&decl.name));
            for (lane, input) in inputs.iter().enumerate() {
                let named = input.iter().rev().find(|(n, _)| *n == decl.name);
                match named.map(|(_, init)| init).or(own.as_ref()) {
                    None | Some(InitKind::Zero) => {}
                    Some(init) => init.fill(data.chunks_exact_mut(lanes).map(|row| &mut row[lane])),
                }
            }
            store.insert(decl.name.clone(), extents, len, data);
        }
        store
    }

    fn insert(&mut self, name: String, extents: Vec<i64>, len: usize, data: Vec<f64>) {
        match self.index.get(&name) {
            // Duplicate declarations replace, like `ArrayStore::insert`.
            Some(&i) => {
                self.extents[i] = extents;
                self.lens[i] = len;
                self.data[i] = data;
            }
            None => {
                self.index.insert(name.clone(), self.names.len());
                self.names.push(name);
                self.extents.push(extents);
                self.lens.push(len);
                self.data.push(data);
            }
        }
    }

    /// Number of lanes (independent memory images).
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Number of arrays held.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True when the store holds no arrays.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Resolves a name to its dense store index.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.index.get(name).copied()
    }

    /// Drops every array not named in `keep`; the kept arrays' lanes are
    /// untouched and keep their relative order.
    pub fn retain_arrays(&mut self, keep: &[String]) {
        let mut i = 0;
        while i < self.names.len() {
            if keep.contains(&self.names[i]) {
                i += 1;
            } else {
                self.names.remove(i);
                self.extents.remove(i);
                self.lens.remove(i);
                self.data.remove(i);
            }
        }
        self.index = self
            .names
            .iter()
            .enumerate()
            .map(|(i, n)| (n.clone(), i))
            .collect();
    }

    /// Extracts one lane as a plain [`ArrayStore`] (arrays in insertion
    /// order, so dense indexes match a store built the scalar way).
    ///
    /// # Panics
    ///
    /// Panics when `lane` is out of range.
    pub fn lane_store(&self, lane: usize) -> ArrayStore {
        assert!(lane < self.lanes, "lane {lane} out of {}", self.lanes);
        let mut out = ArrayStore::new();
        for i in 0..self.names.len() {
            let data = (0..self.lens[i])
                .map(|flat| self.data[i][flat * self.lanes + lane])
                .collect();
            out.insert(
                self.names[i].clone(),
                ArrayData {
                    extents: self.extents[i].clone(),
                    data,
                },
            );
        }
        out
    }

    /// Per-lane checksums over the named arrays, in one contiguous pass:
    /// stripe-major traversal visits each element once, accumulating all
    /// lanes simultaneously. Per lane the addition sequence (and the NaN
    /// poisoning on the first non-finite element) is that of
    /// [`ArrayStore::checksum`], so each entry is bit-identical to
    /// checksumming the extracted lane.
    pub fn checksum_lanes(&self, names: &[String]) -> Vec<f64> {
        let mut acc = vec![0.0f64; self.lanes];
        let mut poisoned = vec![false; self.lanes];
        for n in names {
            if let Some(&i) = self.index.get(n.as_str()) {
                for flat in 0..self.lens[i] {
                    let stripe = &self.data[i][flat * self.lanes..(flat + 1) * self.lanes];
                    for (lane, v) in stripe.iter().enumerate() {
                        if poisoned[lane] {
                            continue;
                        }
                        if v.is_finite() {
                            acc[lane] += v;
                        } else {
                            poisoned[lane] = true;
                        }
                    }
                }
            }
        }
        for lane in 0..self.lanes {
            if poisoned[lane] {
                acc[lane] = f64::NAN;
            }
        }
        acc
    }

    /// Element-wise comparison of one lane of `self` against one lane of
    /// `other`, with the exact semantics (missing-array and length
    /// sentinels, relative tolerance) of [`ArrayStore::element_diff`].
    /// Returns the first mismatch as `(array, flat_index, self_value,
    /// other_value)`.
    pub fn element_diff_lane(
        &self,
        lane: usize,
        other: &BatchStore,
        other_lane: usize,
        names: &[String],
        rel_eps: f64,
    ) -> Option<(String, usize, f64, f64)> {
        for n in names {
            let (Some(&a), Some(&b)) = (self.index.get(n.as_str()), other.index.get(n.as_str()))
            else {
                return Some((n.clone(), 0, f64::NAN, f64::NAN));
            };
            if self.lens[a] != other.lens[b] {
                return Some((n.clone(), 0, self.lens[a] as f64, other.lens[b] as f64));
            }
            for flat in 0..self.lens[a] {
                let x = self.data[a][flat * self.lanes + lane];
                let y = other.data[b][flat * other.lanes + other_lane];
                let close = if x.is_finite() && y.is_finite() {
                    let scale = x.abs().max(y.abs()).max(1.0);
                    (x - y).abs() <= rel_eps * scale
                } else {
                    x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan())
                };
                if !close {
                    return Some((n.clone(), flat, x, y));
                }
            }
        }
        None
    }
}

impl CompiledProgram {
    /// Runs the compiled program over every lane of `store` in one pass.
    ///
    /// Control flow (bounds, guards, subscripts, iteration order) is
    /// evaluated once and shared by all lanes; only element data differs
    /// per lane. `budgets`, when given, holds one statement budget per
    /// lane (`cfg.stmt_budget` otherwise). The returned vector has one
    /// entry per lane: surviving lanes get the shared [`ExecStats`],
    /// lanes that exhausted their budget or hit a fault get the exact
    /// [`ExecError`] a reference run of that lane would have returned,
    /// with their stripes frozen at the death point.
    ///
    /// # Panics
    ///
    /// Panics when `budgets` is given with a length other than the lane
    /// count.
    pub fn run_batched(
        &self,
        store: &mut BatchStore,
        cfg: &ExecConfig,
        budgets: Option<&[u64]>,
    ) -> Vec<Result<ExecStats, ExecError>> {
        let lanes = store.lanes();
        if lanes == 0 {
            return Vec::new();
        }
        let budgets: Vec<u64> = match budgets {
            Some(b) => {
                assert_eq!(b.len(), lanes, "one budget per lane");
                b.to_vec()
            }
            None => vec![cfg.stmt_budget; lanes],
        };
        // Resolve interned array ids to dense store indexes once.
        let store_idx: Vec<Option<u32>> = self
            .arrays
            .iter()
            .map(|n| store.index_of(n).map(|i| i as u32))
            .collect();
        let min_budget = budgets.iter().copied().min().unwrap_or(u64::MAX);
        let mut m = BatchMachine {
            cp: self,
            store,
            lanes,
            order: cfg.parallel_order,
            budgets,
            min_budget,
            executed: 0,
            live: vec![true; lanes],
            n_live: lanes,
            fault: vec![None; lanes],
            frame: vec![0; self.n_slots],
            stack: Vec::with_capacity(16 * lanes),
            args: Vec::with_capacity(4),
            dims: Vec::with_capacity(4),
            store_idx,
        };
        for n in &self.body {
            // `Halt` means every lane is dead (latched budget/fault
            // errors): stop decoding, the per-lane verdicts are final.
            if m.exec_node(n).is_err() {
                break;
            }
        }
        let stats = ExecStats {
            stmts_executed: m.executed,
        };
        m.fault
            .into_iter()
            .map(|f| match f {
                Some(e) => Err(e),
                None => Ok(stats),
            })
            .collect()
    }
}

/// Allocates the program's arrays, runs it as a one-lane batch, and
/// returns the final store: the one-shot entry point. Callers that run the
/// same program repeatedly should call [`CompiledProgram::compile`] once
/// and put their inputs in the lanes of one [`BatchStore`].
///
/// # Errors
///
/// Returns the lane's [`ExecError`] on an out-of-bounds access, budget
/// exhaustion, or an unbound symbol.
pub fn run(p: &Program, cfg: &ExecConfig) -> Result<(ArrayStore, ExecStats), ExecError> {
    let mut store = BatchStore::from_inputs(p, &[InputSpec::new()]);
    let outcome = CompiledProgram::compile(p)
        .run_batched(&mut store, cfg, None)
        .remove(0);
    outcome.map(|stats| (store.lane_store(0), stats))
}

/// Control-flow signal: every lane is dead, stop the whole run.
struct Halt;

struct BatchMachine<'c, 's> {
    cp: &'c CompiledProgram,
    store: &'s mut BatchStore,
    lanes: usize,
    order: ParallelOrder,
    /// Per-lane statement budgets.
    budgets: Vec<u64>,
    /// Minimum budget over the live lanes: until `executed` reaches it,
    /// no per-lane budget check can fire, so the per-statement latch
    /// loop reduces to one comparison.
    min_budget: u64,
    /// Shared statement counter: all lanes execute the same sequence.
    executed: u64,
    live: Vec<bool>,
    n_live: usize,
    /// Latched per-lane error; `Some` implies the lane is dead.
    fault: Vec<Option<ExecError>>,
    frame: Vec<i64>,
    /// Postfix evaluation stack in stripes of `lanes` values.
    stack: Vec<f64>,
    /// Per-lane argument scratch for intrinsic calls.
    args: Vec<f64>,
    dims: Vec<i64>,
    store_idx: Vec<Option<u32>>,
}

impl<'c> BatchMachine<'c, '_> {
    /// Latches `e` onto every live lane. Faults are raised by control
    /// flow, which all live lanes share, so they die together.
    fn halt_all(&mut self, e: ExecError) -> Halt {
        for l in 0..self.lanes {
            if self.live[l] {
                self.fault[l] = Some(e.clone());
                self.live[l] = false;
            }
        }
        self.n_live = 0;
        Halt
    }

    /// Evaluates an access's subscripts and bounds-checks them, returning
    /// `(store_index, flat_element_index)` — shared by all lanes.
    fn resolve(&mut self, acc: &'c CAccess, stmt: usize) -> Result<(usize, usize), Halt> {
        let dims = match &acc.dims {
            Ok(dims) => dims,
            Err(e) => return Err(self.halt_all(e.into())),
        };
        self.dims.clear();
        self.dims.extend(dims.iter().map(|d| d.eval(&self.frame)));
        let Some(idx) = self.store_idx[acc.array as usize] else {
            let e = ExecError::Unbound(self.cp.arrays[acc.array as usize].clone());
            return Err(self.halt_all(e));
        };
        match flatten_extents(&self.store.extents[idx as usize], &self.dims) {
            Some(flat) => Ok((idx as usize, flat)),
            None => {
                let e = ExecError::OutOfBounds {
                    array: self.cp.arrays[acc.array as usize].clone(),
                    indexes: self.dims.clone(),
                    stmt,
                };
                Err(self.halt_all(e))
            }
        }
    }

    /// Evaluates a statement's postfix op stream over all lanes, leaving
    /// the result stripe (one value per lane) on top of the stack.
    fn eval_ops(&mut self, s: &'c CStmt) -> Result<(), Halt> {
        let cp = self.cp;
        let n = self.lanes;
        self.stack.clear();
        for op in &cp.ops[s.ops.0 as usize..s.ops.1 as usize] {
            match op {
                Op::Const(v) => {
                    let len = self.stack.len();
                    self.stack.resize(len + n, *v);
                }
                Op::Slot(i) => {
                    let v = self.frame[*i as usize] as f64;
                    let len = self.stack.len();
                    self.stack.resize(len + n, v);
                }
                Op::Load(a) => {
                    let acc = &cp.accesses[*a as usize];
                    let (idx, flat) = self.resolve(acc, s.id)?;
                    let base = flat * n;
                    self.stack
                        .extend_from_slice(&self.store.data[idx][base..base + n]);
                }
                Op::UnboundSym(i) => {
                    let e = ExecError::Unbound(cp.syms[*i as usize].clone());
                    return Err(self.halt_all(e));
                }
                Op::Neg => {
                    let len = self.stack.len();
                    for v in &mut self.stack[len - n..] {
                        *v = -*v;
                    }
                }
                Op::Bin(b) => {
                    let len = self.stack.len();
                    let (xs, ys) = self.stack.split_at_mut(len - n);
                    let base = xs.len() - n;
                    let xs = &mut xs[base..];
                    // The operator match hoisted out of the stripe loop so
                    // each arm is a straight vectorizable sweep; arithmetic
                    // is identical to `BinOp::apply` per element.
                    match b {
                        BinOp::Add => {
                            for k in 0..n {
                                xs[k] += ys[k];
                            }
                        }
                        BinOp::Sub => {
                            for k in 0..n {
                                xs[k] -= ys[k];
                            }
                        }
                        BinOp::Mul => {
                            for k in 0..n {
                                xs[k] *= ys[k];
                            }
                        }
                        BinOp::Div => {
                            for k in 0..n {
                                xs[k] /= ys[k];
                            }
                        }
                    }
                    self.stack.truncate(len - n);
                }
                Op::Call(f, cnt) => {
                    let cnt = *cnt as usize;
                    if cnt == 0 {
                        let v = f.apply(&[]);
                        let len = self.stack.len();
                        self.stack.resize(len + n, v);
                        continue;
                    }
                    let base = self.stack.len() - cnt * n;
                    // Gather each lane's arguments from the stripes; the
                    // result overwrites the lane's slot in the first
                    // argument stripe (read before written, in order).
                    for lane in 0..n {
                        self.args.clear();
                        for j in 0..cnt {
                            self.args.push(self.stack[base + j * n + lane]);
                        }
                        self.stack[base + lane] = f.apply(&self.args);
                    }
                    self.stack.truncate(base + n);
                }
            }
        }
        Ok(())
    }

    fn exec_stmt(&mut self, s: &'c CStmt) -> Result<(), Halt> {
        // Per-lane budget latch, checked where the reference walker
        // checks its budget: a lane whose budget is exhausted dies exactly
        // at the statement a scalar run with that budget would abort on.
        // Until `executed` reaches the smallest live budget no lane can
        // fire, so the common case is one comparison.
        if self.executed >= self.min_budget {
            for l in 0..self.lanes {
                if self.live[l] && self.executed >= self.budgets[l] {
                    self.fault[l] = Some(ExecError::BudgetExceeded {
                        budget: self.budgets[l],
                    });
                    self.live[l] = false;
                    self.n_live -= 1;
                }
            }
            if self.n_live == 0 {
                return Err(Halt);
            }
            self.min_budget = (0..self.lanes)
                .filter(|&l| self.live[l])
                .map(|l| self.budgets[l])
                .min()
                .unwrap_or(u64::MAX);
        }
        self.executed += 1;
        self.eval_ops(s)?;
        let lhs = &self.cp.accesses[s.lhs as usize];
        let (idx, flat) = self.resolve(lhs, s.id)?;
        let n = self.lanes;
        let base = flat * n;
        let top = self.stack.len() - n;
        let col = &mut self.store.data[idx];
        if self.n_live == n {
            let dst = &mut col[base..base + n];
            let rhs = &self.stack[top..top + n];
            // Assign-op match hoisted out of the stripe loop; per element
            // identical to `AssignOp::apply`.
            match s.op {
                AssignOp::Assign => dst.copy_from_slice(rhs),
                AssignOp::AddAssign => {
                    for l in 0..n {
                        dst[l] += rhs[l];
                    }
                }
                AssignOp::SubAssign => {
                    for l in 0..n {
                        dst[l] -= rhs[l];
                    }
                }
                AssignOp::MulAssign => {
                    for l in 0..n {
                        dst[l] *= rhs[l];
                    }
                }
            }
        } else {
            // Dead lanes keep their stripes frozen at the death point.
            for l in 0..n {
                if self.live[l] {
                    let slot = &mut col[base + l];
                    *slot = s.op.apply(*slot, self.stack[top + l]);
                }
            }
        }
        self.stack.truncate(top);
        Ok(())
    }

    #[inline]
    fn iteration(&mut self, l: &'c CLoop, v: i64) -> Result<(), Halt> {
        self.frame[l.slot as usize] = v;
        for child in l.body.iter() {
            self.exec_node(child)?;
        }
        Ok(())
    }

    fn exec_loop(&mut self, l: &'c CLoop) -> Result<(), Halt> {
        let b = match &l.bounds {
            Ok(b) => b,
            Err(e) => return Err(self.halt_all(e.into())),
        };
        let (lb, ub, step) = (b.lb.eval(&self.frame), b.ub.eval(&self.frame), b.step);
        if ub < lb {
            return Ok(());
        }
        let order = if l.parallel {
            self.order
        } else {
            ParallelOrder::Forward
        };
        match order {
            ParallelOrder::Forward => {
                let mut v = lb;
                loop {
                    self.iteration(l, v)?;
                    match v.checked_add(step) {
                        Some(nv) if nv <= ub => v = nv,
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

    fn exec_node(&mut self, n: &'c CNode) -> Result<(), Halt> {
        match n {
            CNode::Stmt(s) => self.exec_stmt(s),
            CNode::Loop(l) => self.exec_loop(l),
            CNode::If { conds, then } => {
                let mut taken = true;
                for cond in conds.iter() {
                    let (lhs, op, rhs) = match cond {
                        Ok(c) => c,
                        Err(e) => return Err(self.halt_all(e.into())),
                    };
                    if !op.eval(lhs.eval(&self.frame), rhs.eval(&self.frame)) {
                        taken = false;
                        break;
                    }
                }
                if taken {
                    for child in then.iter() {
                        self.exec_node(child)?;
                    }
                }
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::run_with_store_reference;
    use looprag_ir::{compile as compile_src, InitKind};

    fn program(src: &str) -> Program {
        compile_src(src, "t").unwrap()
    }

    fn gemm() -> Program {
        program(
            "param N = 8;\narray C[N][N];\narray A[N][N];\narray B[N][N];\nout C;\n#pragma scop\nfor (i = 0; i <= N - 1; i++) for (j = 0; j <= N - 1; j++) for (k = 0; k <= N - 1; k++) C[i][j] += A[i][k] * B[k][j];\n#pragma endscop\n",
        )
    }

    /// Runs one lane per init (every non-local array filled with it)
    /// batched, and each lane's input through the reference walker with
    /// that lane's budget, and asserts bit-identical per-lane outcomes and
    /// stores.
    fn assert_lanes_match_reference(
        p: &Program,
        inits: &[InitKind],
        cfg: &ExecConfig,
        budgets: Option<&[u64]>,
    ) {
        let specs: Vec<InputSpec> = inits
            .iter()
            .map(|init| {
                p.arrays
                    .iter()
                    .filter(|d| !d.local)
                    .map(|d| (d.name.clone(), init.clone()))
                    .collect()
            })
            .collect();
        let mut batch = BatchStore::from_inputs(p, &specs);
        let results = CompiledProgram::compile(p).run_batched(&mut batch, cfg, budgets);
        for (lane, spec) in specs.iter().enumerate() {
            let mut store = ArrayStore::from_program(p);
            for (name, init) in spec {
                store.get_mut(name).unwrap().fill(init);
            }
            let rcfg = ExecConfig {
                stmt_budget: budgets.map_or(cfg.stmt_budget, |b| b[lane]),
                parallel_order: cfg.parallel_order,
            };
            let r = run_with_store_reference(p, &mut store, &rcfg);
            assert_eq!(r, results[lane], "lane {lane} outcome diverges");
            let got = batch.lane_store(lane);
            assert_eq!(got.len(), store.len(), "lane {lane} store size");
            for (name, da) in store.iter() {
                let db = got.get(name).unwrap();
                assert_eq!(da.extents, db.extents, "lane {lane} {name} extents");
                for (i, (x, y)) in da.data.iter().zip(&db.data).enumerate() {
                    assert_eq!(
                        x.to_bits(),
                        y.to_bits(),
                        "lane {lane} {name}[{i}]: {x} vs {y}"
                    );
                }
            }
        }
    }

    #[test]
    fn lanes_match_scalar_runs() {
        let p = gemm();
        let inits = [
            InitKind::default_pattern(),
            InitKind::Constant(1.0),
            InitKind::Zero,
            InitKind::IndexPattern {
                a: 31,
                b: 7,
                m: 113,
            },
        ];
        assert_lanes_match_reference(&p, &inits, &ExecConfig::default(), None);
    }

    #[test]
    fn heterogeneous_budgets_drop_lanes_independently() {
        let p = gemm();
        let inits = [
            InitKind::default_pattern(),
            InitKind::Constant(2.0),
            InitKind::Zero,
        ];
        // Lane 0 dies almost immediately, lane 1 mid-run, lane 2 survives.
        let budgets = [3u64, 100, u64::MAX];
        assert_lanes_match_reference(&p, &inits, &ExecConfig::default(), Some(&budgets));
    }

    #[test]
    fn all_lanes_exhausted_early_exits_with_per_lane_budgets() {
        let p = gemm();
        let inits = [InitKind::Zero, InitKind::Constant(1.0)];
        let budgets = [5u64, 9];
        assert_lanes_match_reference(&p, &inits, &ExecConfig::default(), Some(&budgets));
    }

    #[test]
    fn global_fault_latches_all_live_lanes() {
        let p = program(
            "param N = 4;\narray A[N];\nout A;\n#pragma scop\nfor (i = 0; i <= N - 1; i++) A[i + 1] = 1.0;\n#pragma endscop\n",
        );
        // Lane 0 exceeds its budget before the out-of-bounds access and
        // must keep the budget error; lane 1 reaches the fault.
        let inits = [InitKind::Zero, InitKind::Constant(1.0)];
        let budgets = [2u64, u64::MAX];
        assert_lanes_match_reference(&p, &inits, &ExecConfig::default(), Some(&budgets));
    }

    #[test]
    fn permuted_orders_match_scalar() {
        let p = program(
            "param N = 10;\narray A[N];\nout A;\n#pragma scop\n#pragma omp parallel for\nfor (i = 1; i <= N - 1; i++) A[i] = A[i - 1] + 1.0;\n#pragma endscop\n",
        );
        let inits = [InitKind::default_pattern(), InitKind::Constant(3.0)];
        for order in ParallelOrder::ALL {
            let cfg = ExecConfig {
                parallel_order: order,
                ..Default::default()
            };
            assert_lanes_match_reference(&p, &inits, &cfg, None);
        }
    }

    #[test]
    fn checksum_and_diff_match_scalar_store() {
        let p = gemm();
        let outputs = p.outputs.clone();
        let inputs = [vec![], vec![("A".into(), InitKind::Constant(1.5))]];
        let mut batch = BatchStore::from_inputs(&p, &inputs);
        let cp = CompiledProgram::compile(&p);
        cp.run_batched(&mut batch, &ExecConfig::default(), None);
        for lane in 0..2 {
            let store = batch.lane_store(lane);
            assert_eq!(
                batch.checksum_lanes(&outputs)[lane].to_bits(),
                store.checksum(&outputs).to_bits(),
                "lane {lane} checksum"
            );
        }
        // The two lanes genuinely differ, and the reported first
        // mismatch matches the scalar element_diff.
        let d_batch = batch
            .element_diff_lane(0, &batch, 1, &outputs, 1e-9)
            .unwrap();
        let d_scalar = batch
            .lane_store(0)
            .element_diff(&batch.lane_store(1), &outputs, 1e-9)
            .unwrap();
        assert_eq!(d_batch, d_scalar);
        assert!(batch
            .element_diff_lane(0, &batch, 0, &outputs, 1e-9)
            .is_none());
    }

    #[test]
    fn checksum_lanes_matches_per_lane_walk_including_poison() {
        // Lane 0 divides by zero (inf output, NaN-poisoned checksum);
        // lane 1 stays finite.
        let p = program(
            "param N = 6;\narray A[N];\narray B[N];\nout A;\n#pragma scop\nfor (i = 0; i <= N - 1; i++) A[i] = 1.0 / B[i];\n#pragma endscop\n",
        );
        let outputs = p.outputs.clone();
        let inputs = [
            vec![("B".into(), InitKind::Zero)],
            vec![("B".into(), InitKind::Constant(2.0))],
        ];
        let mut batch = BatchStore::from_inputs(&p, &inputs);
        CompiledProgram::compile(&p).run_batched(&mut batch, &ExecConfig::default(), None);
        let all = batch.checksum_lanes(&outputs);
        for (lane, sum) in all.iter().enumerate() {
            assert_eq!(
                sum.to_bits(),
                batch.lane_store(lane).checksum(&outputs).to_bits(),
                "lane {lane}"
            );
        }
        assert!(all[0].is_nan());
        assert!(all[1].is_finite());
    }

    #[test]
    fn retain_arrays_keeps_named_lanes_bit_for_bit() {
        let p = gemm();
        let inputs = [
            vec![],
            vec![("A".into(), InitKind::Constant(1.5))],
            vec![("B".into(), InitKind::Zero)],
        ];
        let mut batch = BatchStore::from_inputs(&p, &inputs);
        CompiledProgram::compile(&p).run_batched(&mut batch, &ExecConfig::default(), None);
        let before: Vec<ArrayStore> = (0..3).map(|lane| batch.lane_store(lane)).collect();
        let keep = vec!["C".to_string(), "B".to_string()];
        batch.retain_arrays(&keep);
        assert_eq!(batch.len(), 2);
        assert_eq!(batch.lanes(), 3);
        assert_eq!(batch.index_of("A"), None);
        for (lane, full) in before.iter().enumerate() {
            let kept = batch.lane_store(lane);
            assert_eq!(kept.get("A"), None, "lane {lane}");
            for name in &keep {
                let (a, b) = (full.get(name).unwrap(), kept.get(name).unwrap());
                assert_eq!(a.extents, b.extents, "lane {lane} {name} extents");
                assert!(
                    a.data
                        .iter()
                        .zip(&b.data)
                        .all(|(x, y)| x.to_bits() == y.to_bits()),
                    "lane {lane} {name} data"
                );
            }
            assert_eq!(
                batch.checksum_lanes(&keep)[lane].to_bits(),
                full.checksum(&keep).to_bits(),
                "lane {lane} checksum"
            );
        }
    }

    /// Each lane is filled once: from the input's last init for a name,
    /// else the program's own init (a local array zeroed), bit for bit
    /// `InitKind::value_at` of each flat index, also for patterns whose
    /// `idx·a + b` wraps and for a negative modulus.
    #[test]
    fn input_lanes_match_value_at() {
        let mut p = program(
            "param N = 12;\narray A[N][N];\narray B[N];\narray T[N];\nout A;\n#pragma scop\nfor (i = 0; i <= N - 1; i++) A[i][i] = B[i] + T[i];\n#pragma endscop\n",
        );
        p.arrays[2].local = true;
        let pattern = |a, b, m| InitKind::IndexPattern { a, b, m };
        let inputs: Vec<InputSpec> = vec![
            vec![],
            vec![
                ("A".into(), InitKind::Constant(-0.0)),
                ("A".into(), pattern(i64::MAX / 3, 5, 1_000_003)),
                ("Z".into(), InitKind::Zero),
            ],
            vec![
                ("B".into(), pattern(-7, -3, 13)),
                ("T".into(), InitKind::default_pattern()),
            ],
            vec![
                ("A".into(), InitKind::Zero),
                ("B".into(), InitKind::Constant(2.5)),
                ("T".into(), pattern(3, 1, -5)),
            ],
        ];
        let store = BatchStore::from_inputs(&p, &inputs);
        for (lane, input) in inputs.iter().enumerate() {
            let got = store.lane_store(lane);
            for decl in &p.arrays {
                let named = input.iter().rev().find(|(n, _)| *n == decl.name);
                let init = match named {
                    Some((_, init)) => init.clone(),
                    None if decl.local => InitKind::Zero,
                    None => p.init_for(&decl.name),
                };
                let data = &got.get(&decl.name).unwrap().data;
                for (flat, v) in data.iter().enumerate() {
                    assert_eq!(
                        v.to_bits(),
                        init.value_at(flat).to_bits(),
                        "lane {lane} {}[{flat}]",
                        decl.name
                    );
                }
            }
        }
    }

    #[test]
    fn zero_lanes_is_a_no_op() {
        let p = gemm();
        let mut batch = BatchStore::from_inputs(&p, &[]);
        let results =
            CompiledProgram::compile(&p).run_batched(&mut batch, &ExecConfig::default(), None);
        assert!(results.is_empty());
    }
}

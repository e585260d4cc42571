//! The analytical+simulated performance model (reference path).
//!
//! [`estimate_cost_reference`] walks a program's loop nest at
//! *cost-model* parameter scales, feeding every array access through a
//! two-level cache simulator and charging ALU and loop-header overhead,
//! then applies:
//!
//! * **vectorization** — innermost loops that are dependence-free (or
//!   clean reductions) with unit-stride accesses have their ALU and
//!   L1-hit cycles divided by the machine's effective vector width;
//!   `min`/`max`/`floord` bounds reduce the efficiency (prologue/epilogue
//!   effects), which is how over-tiled short loops genuinely lose;
//! * **parallelism** — `#pragma omp parallel for` loops have their body
//!   cycles divided by `min(threads, trip_count)` plus a fork/join charge
//!   per entry;
//! * **loop overhead** — a per-header-iteration charge that makes deep
//!   tile nests around tiny iteration spaces a measurable cost.
//!
//! The result stands in for the paper's wall-clock measurements on the
//! 2×24-core EPYC testbed; the EXPERIMENTS harness reports speedups as
//! ratios of estimated cycles.
//!
//! This module is the *reference* implementation: a straight-line
//! simulation with no caching (only an empty loop body's header charges
//! are summed in closed form), on the reference cache simulator
//! ([`Hierarchy`] / [`CacheLevel`](crate::CacheLevel), which nothing
//! else in the cost path uses any more). The production entry point is
//! [`crate::estimate_cost`], the [`crate::CostEngine`]-backed path that
//! is pinned bit-for-bit against this one. Both walk one lowered form,
//! built here on top of the shared [`looprag_ir::lower`] lowering; the
//! memoizing walker and its flat cache simulator live in `engine` and
//! `flat_cache`, so the pin cross-checks both simulators.

use crate::cache::{CacheGeometry, Hierarchy, ServiceLevel};
use looprag_dependence::{analyze_for, DependenceSet, Purpose};
use looprag_ir::lower::{Guard, Lin, LoopBounds, Scope, Unevaluable};
use looprag_ir::{element_stride, loop_paths, node_at, Bound, Node, Program};
use std::collections::HashMap;
use std::fmt;

/// A machine/compiler configuration for cost estimation.
///
/// The distinct base-compiler constructors model how much performance the
/// *unoptimized* build already extracts, which shrinks or widens the
/// headroom an optimizer can claim (the paper's GCC/Clang/ICX columns).
#[derive(Debug, Clone)]
pub struct MachineConfig {
    /// Display name.
    pub name: String,
    /// Worker threads available to parallel loops.
    pub threads: u32,
    /// Effective vector speedup for clean unit-stride innermost loops.
    pub vector_width: f64,
    /// Multiplier on vector efficiency when innermost bounds carry
    /// min/max/floord (tile prologue/epilogue effects).
    pub vector_messy_factor: f64,
    /// Multiplier on vector efficiency for reduction loops.
    pub reduction_factor: f64,
    /// L1 geometry.
    pub l1: CacheGeometry,
    /// L2 geometry.
    pub l2: CacheGeometry,
    /// L1 hit latency (cycles).
    pub lat_l1: u64,
    /// L2 hit latency (cycles).
    pub lat_l2: u64,
    /// Memory latency (cycles).
    pub lat_mem: u64,
    /// Cycles charged per loop-header iteration.
    pub loop_overhead: u64,
    /// Cycles charged per parallel-region entry (fork/join).
    pub parallel_spawn_cycles: u64,
    /// Fraction of ideal scaling a parallel loop achieves (load
    /// imbalance, memory-bandwidth sharing).
    pub parallel_efficiency: f64,
    /// Maximum statement instances to simulate.
    pub instance_budget: u64,
}

impl MachineConfig {
    fn base(name: &str) -> Self {
        MachineConfig {
            name: name.to_string(),
            threads: 48,
            vector_width: 4.0,
            vector_messy_factor: 0.5,
            reduction_factor: 0.75,
            l1: CacheGeometry {
                size_bytes: 4 * 1024,
                line_bytes: 64,
                assoc: 4,
            },
            l2: CacheGeometry {
                size_bytes: 32 * 1024,
                line_bytes: 64,
                assoc: 8,
            },
            lat_l1: 4,
            lat_l2: 14,
            lat_mem: 120,
            loop_overhead: 2,
            parallel_spawn_cycles: 3000,
            parallel_efficiency: 0.75,
            instance_budget: 120_000_000,
        }
    }

    /// GCC 15 `-O3 -fopenmp`-like configuration.
    pub fn gcc() -> Self {
        Self::base("gcc")
    }

    /// Clang 20 `-O3 -fopenmp`-like configuration (slightly better
    /// vectorizer than GCC).
    pub fn clang() -> Self {
        let mut c = Self::base("clang");
        c.vector_width = 4.4;
        c
    }

    /// ICX `-O3 -qopenmp -xHost`-like configuration (aggressive
    /// vectorizer, so less headroom for source-level optimizers).
    pub fn icx() -> Self {
        let mut c = Self::base("icx");
        c.vector_width = 5.2;
        c.vector_messy_factor = 0.65;
        c
    }

    /// A canonical fingerprint covering **every** field, used (together
    /// with the candidate's printed form) as the [`crate::CostEngine`]
    /// cache key. Floats are rendered via their exact bit patterns, so
    /// two configs collide only when every estimate they could produce
    /// is bitwise identical.
    pub fn fingerprint(&self) -> String {
        // Exhaustive destructuring: adding a field without folding it
        // into the fingerprint is a compile error, so a new knob can
        // never silently alias cache entries.
        let MachineConfig {
            name,
            threads,
            vector_width,
            vector_messy_factor,
            reduction_factor,
            l1,
            l2,
            lat_l1,
            lat_l2,
            lat_mem,
            loop_overhead,
            parallel_spawn_cycles,
            parallel_efficiency,
            instance_budget,
        } = self;
        format!(
            "{name};{threads};{:016x};{:016x};{:016x};{}/{}/{};{}/{}/{};{lat_l1};{lat_l2};{lat_mem};{loop_overhead};{parallel_spawn_cycles};{:016x};{instance_budget}",
            vector_width.to_bits(),
            vector_messy_factor.to_bits(),
            reduction_factor.to_bits(),
            l1.size_bytes,
            l1.line_bytes,
            l1.assoc,
            l2.size_bytes,
            l2.line_bytes,
            l2.assoc,
            parallel_efficiency.to_bits(),
        )
    }
}

/// Cost components, in cycles.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CostVec {
    /// Arithmetic cycles.
    pub alu: f64,
    /// L1 hit cycles.
    pub l1: f64,
    /// L2 hit cycles.
    pub l2: f64,
    /// Memory access cycles.
    pub mem: f64,
    /// Loop-header and fork/join overhead cycles.
    pub ovh: f64,
}

impl CostVec {
    /// Sum of all components.
    pub fn total(&self) -> f64 {
        self.alu + self.l1 + self.l2 + self.mem + self.ovh
    }

    pub(crate) fn add(&mut self, other: CostVec) {
        self.alu += other.alu;
        self.l1 += other.l1;
        self.l2 += other.l2;
        self.mem += other.mem;
        self.ovh += other.ovh;
    }

    pub(crate) fn scale_all(&mut self, f: f64) {
        self.alu *= f;
        self.l1 *= f;
        self.l2 *= f;
        self.mem *= f;
        self.ovh *= f;
    }
}

/// Result of a cost estimation.
#[derive(Debug, Clone, PartialEq)]
pub struct CostReport {
    /// Effective cycles after vector/parallel adjustments.
    pub cycles: f64,
    /// Component breakdown (post-adjustment).
    pub breakdown: CostVec,
    /// Statement instances simulated.
    pub instances: u64,
    /// L1 hits observed.
    pub l1_hits: u64,
    /// L2 hits observed.
    pub l2_hits: u64,
    /// Memory-level accesses observed.
    pub mem_accesses: u64,
    /// Iterator names of loops the model vectorized.
    pub vectorized: Vec<String>,
    /// Number of parallel-region entries charged.
    pub parallel_entries: u64,
}

impl CostReport {
    /// The report for a program whose cost could not be estimated:
    /// infinite cycles and empty counters, so it can never rank above
    /// (or within any `slow_factor` of) a real measurement.
    pub fn unreachable() -> CostReport {
        CostReport {
            cycles: f64::INFINITY,
            breakdown: CostVec::default(),
            instances: 0,
            l1_hits: 0,
            l2_hits: 0,
            mem_accesses: 0,
            vectorized: Vec::new(),
            parallel_entries: 0,
        }
    }

    /// Speedup of `opt` relative to this baseline report.
    ///
    /// Returns 0 when the optimized cycle count is zero, negative, NaN
    /// or infinite (an [`unreachable`](CostReport::unreachable)
    /// candidate), so a degenerate report can never inject `inf`/`NaN`
    /// into rankings.
    pub fn speedup_of(&self, opt: &CostReport) -> f64 {
        if !opt.cycles.is_finite() || opt.cycles <= 0.0 {
            return 0.0;
        }
        self.cycles / opt.cycles
    }
}

/// Cost-estimation failure.
#[derive(Debug, Clone, PartialEq)]
pub enum CostError {
    /// The instance budget was exhausted — treated as an execution timeout
    /// by the experiment harness.
    InstanceBudget,
    /// A bound referenced an unbound symbol.
    Unbound(String),
    /// An array's layout or a subscript's linear index does not fit the
    /// cost model's 64-bit address arithmetic (the payload says which).
    Overflow(String),
}

impl fmt::Display for CostError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CostError::InstanceBudget => write!(f, "cost model instance budget exhausted"),
            CostError::Unbound(s) => write!(f, "unbound symbol '{s}' in cost model"),
            CostError::Overflow(s) => {
                write!(
                    f,
                    "{s} overflows the cost model's 64-bit address arithmetic"
                )
            }
        }
    }
}

impl std::error::Error for CostError {}

/// How a loop is vectorized, precomputed per innermost loop.
#[derive(Debug, Clone, Copy, PartialEq)]
struct VecInfo {
    factor: f64,
}

// ---------------------------------------------------------------------
// Lowered cost IR: the shared `looprag_ir::lower` forms (a program with
// an unevaluable one is rejected here) plus what only the cost walk
// needs: byte bases, linearized subscripts, leaf shapes, vector factors
// and `body_invariant`. `pub(crate)` — the memoizing engine walks the
// exact same lowered tree, so the two paths cannot diverge on what they
// simulate.
// ---------------------------------------------------------------------

impl From<Unevaluable> for CostError {
    fn from(e: Unevaluable) -> CostError {
        match e {
            Unevaluable::Unbound(s) => CostError::Unbound(s),
            Unevaluable::Overflow(e) => CostError::Overflow(format!("the expression '{e}'")),
        }
    }
}

/// A lowered access: byte base plus a linear element index, clamped to
/// the allocation (the cost model measures locality, not correctness).
#[derive(Debug, Clone)]
pub(crate) struct LAccess {
    pub(crate) base: u64,
    pub(crate) linear: Lin,
    pub(crate) max_flat: i64,
}

/// The shape of a loop whose body is only statements, computed once at
/// lowering: what the engine's integer-exact leaf path needs, so one
/// execution of the loop evaluates only its trip count, the exactness
/// bound and the cursor starts.
#[derive(Debug, Clone)]
pub(crate) struct LeafShape {
    /// Statements per iteration.
    pub(crate) stmts: u64,
    /// ALU cycles per iteration.
    pub(crate) alu: u64,
    /// The most trips for which `trips × (header + Σ over statements of
    /// (alu + accesses × max latency))` stays within 2^53, the bound
    /// under which integer accumulation is exact (see the engine docs).
    pub(crate) max_trips: u64,
    /// Every statement's accesses, flattened in program order, each with
    /// its coefficient on the loop's own iterator slot.
    pub(crate) accesses: Vec<(LAccess, i64)>,
}

/// The [`LeafShape`] of a loop over `slot` with per-trip header charge
/// `header_ovh`, whose lowered body is `body`. `None` unless the body
/// is a non-empty list of statements and the ALU sum fits a `u64`.
fn leaf_shape(body: &[LNode], slot: usize, header_ovh: u64, max_lat: u64) -> Option<LeafShape> {
    if body.is_empty() {
        return None;
    }
    let mut shape = LeafShape {
        stmts: 0,
        alu: 0,
        max_trips: 0,
        accesses: Vec::new(),
    };
    let mut per_iter = u128::from(header_ovh);
    for n in body {
        let LNode::Stmt { alu, accesses } = n else {
            return None;
        };
        shape.stmts += 1;
        shape.alu = shape.alu.checked_add(*alu)?;
        per_iter = per_iter
            .saturating_add(u128::from(*alu))
            .saturating_add((accesses.len() as u128).saturating_mul(u128::from(max_lat)));
        shape
            .accesses
            .extend(accesses.iter().map(|a| (a.clone(), a.linear.coeff(slot))));
    }
    // Every statement charges at least one ALU cycle, so `per_iter > 0`.
    shape.max_trips = u64::try_from((1u128 << 53) / per_iter).unwrap_or(u64::MAX);
    Some(shape)
}

#[derive(Debug, Clone)]
pub(crate) enum LNode {
    Loop {
        slot: usize,
        bounds: LoopBounds,
        parallel: bool,
        vec_factor: Option<f64>,
        header_ovh: u64,
        /// True when nothing under this loop — subscripts, `if`
        /// conditions or nested bounds — references the loop's own
        /// iterator slot. For such loops every iteration replays the
        /// same address stream over whatever cache state it starts
        /// from, so a recurring simulator state at an iteration
        /// boundary implies exact periodicity; the engine's
        /// steady-state memoizer is only engaged here.
        body_invariant: bool,
        /// The loop's [`LeafShape`] when its body is only statements.
        leaf: Option<Box<LeafShape>>,
        body: Vec<LNode>,
    },
    If {
        conds: Vec<Guard>,
        then: Vec<LNode>,
    },
    Stmt {
        alu: u64,
        accesses: Vec<LAccess>,
    },
}

/// True when any lowered node in `nodes` references iterator slot
/// `slot` — in an access subscript, an `if` condition or a nested loop
/// bound. Nested loops occupy strictly higher slots (the candidate's
/// slot stays on the lowering stack), so a match is unambiguous.
fn references_slot(nodes: &[LNode], slot: usize) -> bool {
    nodes.iter().any(|n| match n {
        LNode::Stmt { accesses, .. } => accesses.iter().any(|a| a.linear.uses(slot)),
        LNode::If { conds, then } => {
            conds.iter().any(|(l, _, r)| l.uses(slot) || r.uses(slot))
                || references_slot(then, slot)
        }
        LNode::Loop { bounds, body, .. } => {
            bounds.lb.uses(slot) || bounds.ub.uses(slot) || references_slot(body, slot)
        }
    })
}

struct Lowerer<'a> {
    scope: Scope<'a>,
    bases: &'a HashMap<String, u64>,
    extents: &'a HashMap<String, Vec<i64>>,
    vec_info: &'a HashMap<Vec<usize>, VecInfo>,
    /// The largest of the machine's three latencies.
    max_lat: u64,
}

/// Element count of an array with extents `ext`, or `None` when the
/// product overflows `i64`.
fn element_count(ext: &[i64]) -> Option<i64> {
    ext.iter()
        .try_fold(1i64, |acc, e| acc.checked_mul(*e))
        .map(|n| n.max(1))
}

impl<'a> Lowerer<'a> {
    /// The lowered access, or `None` for an array without a layout.
    fn access(&self, a: &looprag_ir::Access) -> Result<Option<LAccess>, CostError> {
        let (Some(&base), Some(extents)) = (self.bases.get(&a.array), self.extents.get(&a.array))
        else {
            return Ok(None);
        };
        let linear = self.linear_index(a, extents)?;
        // The layout pass already rejected arrays whose element count
        // overflows.
        Ok(element_count(extents).map(|n| LAccess {
            base,
            linear,
            max_flat: n - 1,
        }))
    }

    /// Collapses multi-dimensional subscripts into one linear element
    /// index using the (constant) row strides, last dimension first.
    fn linear_index(&self, a: &looprag_ir::Access, extents: &[i64]) -> Result<Lin, CostError> {
        let (mut constant, mut terms, mut row) = (0i64, Vec::<(usize, i64)>::new(), 1i64);
        for (dim, ext) in a.indexes.iter().zip(extents).rev() {
            let f = self.scope.lin(dim)?;
            let mut merge = || {
                constant = constant.checked_add(f.constant.checked_mul(row)?)?;
                for &(slot, coeff) in f.terms.iter() {
                    let term = coeff.checked_mul(row)?;
                    match terms.iter_mut().find(|t| t.0 == slot) {
                        Some(t) => t.1 = t.1.checked_add(term)?,
                        None => terms.push((slot, term)),
                    }
                }
                row = row.checked_mul(*ext)?;
                Some(())
            };
            let subscript = || format!("a subscript of array '{}'", a.array);
            merge().ok_or_else(|| CostError::Overflow(subscript()))?;
        }
        let terms = terms.into();
        Ok(Lin { constant, terms })
    }

    fn lower(
        &mut self,
        nodes: &'a [Node],
        path: &mut Vec<usize>,
        ovh: u64,
    ) -> Result<Vec<LNode>, CostError> {
        let mut out = Vec::new();
        for (i, n) in nodes.iter().enumerate() {
            path.push(i);
            match n {
                Node::Stmt(s) => {
                    let mut reads = Vec::new();
                    s.rhs.collect_reads(&mut reads);
                    if s.op.reads_target() {
                        reads.push(&s.lhs);
                    }
                    reads.push(&s.lhs);
                    let mut accesses = Vec::new();
                    for a in reads {
                        accesses.extend(self.access(a)?);
                    }
                    out.push(LNode::Stmt {
                        alu: s.rhs.alu_cost() + 1,
                        accesses,
                    });
                }
                Node::If { conds, then } => {
                    let conds = conds
                        .iter()
                        .map(|c| self.scope.cond(c))
                        .collect::<Result<_, _>>()?;
                    let then = self.lower(then, path, ovh)?;
                    out.push(LNode::If { conds, then });
                }
                Node::Loop(l) => {
                    let bounds = self.scope.loop_bounds(l)?;
                    let slot = self.scope.push(&l.iter);
                    let body = self.lower(&l.body, path, ovh)?;
                    self.scope.pop();
                    out.push(LNode::Loop {
                        slot,
                        bounds,
                        parallel: l.parallel,
                        vec_factor: self.vec_info.get(path.as_slice()).map(|v| v.factor),
                        header_ovh: ovh,
                        body_invariant: !references_slot(&body, slot),
                        leaf: leaf_shape(&body, slot, ovh, self.max_lat).map(Box::new),
                        body,
                    });
                }
            }
            path.pop();
        }
        Ok(out)
    }
}

/// The reference walker: every statement instance and access, in
/// program order, through the reference [`Hierarchy`].
struct Model<'a> {
    cfg: &'a MachineConfig,
    iters: Vec<i64>,
    caches: Hierarchy,
    instances: u64,
    l1_hits: u64,
    l2_hits: u64,
    mem_accesses: u64,
    parallel_entries: u64,
    in_parallel: bool,
}

impl<'a> Model<'a> {
    fn new(cfg: &'a MachineConfig) -> Model<'a> {
        Model {
            cfg,
            iters: Vec::new(),
            caches: Hierarchy::new(cfg.l1.clone(), cfg.l2.clone()),
            instances: 0,
            l1_hits: 0,
            l2_hits: 0,
            mem_accesses: 0,
            parallel_entries: 0,
            in_parallel: false,
        }
    }

    /// Packages the walked breakdown into the public report.
    fn report(&self, breakdown: CostVec, vectorized: Vec<String>) -> CostReport {
        CostReport {
            cycles: breakdown.total(),
            breakdown,
            instances: self.instances,
            l1_hits: self.l1_hits,
            l2_hits: self.l2_hits,
            mem_accesses: self.mem_accesses,
            vectorized,
            parallel_entries: self.parallel_entries,
        }
    }

    #[inline]
    fn charge_access(&mut self, acc: &LAccess, cost: &mut CostVec) {
        let flat = acc.linear.eval(&self.iters).clamp(0, acc.max_flat);
        let addr = acc.base + flat as u64 * 8;
        match self.caches.access(addr) {
            ServiceLevel::L1 => {
                self.l1_hits += 1;
                cost.l1 += self.cfg.lat_l1 as f64;
            }
            ServiceLevel::L2 => {
                self.l2_hits += 1;
                cost.l2 += self.cfg.lat_l2 as f64;
            }
            ServiceLevel::Memory => {
                self.mem_accesses += 1;
                cost.mem += self.cfg.lat_mem as f64;
            }
        }
    }

    fn visit_nodes(&mut self, nodes: &[LNode]) -> Result<CostVec, CostError> {
        let mut cost = CostVec::default();
        for n in nodes {
            cost.add(self.visit_node(n)?);
        }
        Ok(cost)
    }

    fn visit_node(&mut self, n: &LNode) -> Result<CostVec, CostError> {
        match n {
            LNode::Stmt { alu, accesses } => {
                if self.instances >= self.cfg.instance_budget {
                    return Err(CostError::InstanceBudget);
                }
                self.instances += 1;
                let mut cost = CostVec::default();
                cost.alu += *alu as f64;
                for a in accesses {
                    self.charge_access(a, &mut cost);
                }
                Ok(cost)
            }
            LNode::If { conds, then } => {
                let mut cost = CostVec::default();
                cost.alu += conds.len() as f64;
                let taken = conds
                    .iter()
                    .all(|(l, op, r)| op.eval(l.eval(&self.iters), r.eval(&self.iters)));
                if taken {
                    cost.add(self.visit_nodes(then)?);
                }
                Ok(cost)
            }
            LNode::Loop {
                slot,
                bounds: LoopBounds { lb, ub, step },
                parallel,
                vec_factor,
                header_ovh,
                body_invariant: _,
                leaf: _,
                body,
            } => {
                let lbv = lb.eval(&self.iters);
                let ubv = ub.eval(&self.iters);
                let header = *header_ovh as f64;
                let mut cost = CostVec::default();
                cost.ovh += header;
                if ubv < lbv {
                    return Ok(cost);
                }
                let trips = ((ubv - lbv) / step + 1) as u64;
                let parallel_here = *parallel && !self.in_parallel;
                if parallel_here {
                    self.in_parallel = true;
                    self.parallel_entries += 1;
                }
                while self.iters.len() <= *slot {
                    self.iters.push(0);
                }
                let mut body_cost = CostVec::default();
                let mut res = Ok(());
                if let Some((ovh, last)) = empty_loop_walk(body, lbv, ubv, *step, *header_ovh) {
                    self.iters[*slot] = last;
                    body_cost.ovh = ovh;
                } else {
                    let mut v = lbv;
                    while v <= ubv {
                        self.iters[*slot] = v;
                        body_cost.ovh += header;
                        match self.visit_nodes(body) {
                            Ok(c) => body_cost.add(c),
                            Err(e) => {
                                res = Err(e);
                                break;
                            }
                        }
                        v += step;
                    }
                }
                if parallel_here {
                    self.in_parallel = false;
                }
                res?;
                if let Some(factor) = vec_factor {
                    body_cost.alu /= factor;
                    body_cost.l1 /= factor;
                    body_cost.ovh /= factor;
                }
                if parallel_here {
                    let ideal = (self.cfg.threads as f64).min(trips as f64);
                    let p_eff = (ideal * self.cfg.parallel_efficiency).max(1.0);
                    body_cost.scale_all(1.0 / p_eff);
                    body_cost.ovh += self.cfg.parallel_spawn_cycles as f64;
                }
                cost.add(body_cost);
                Ok(cost)
            }
        }
    }
}

/// The walk of an empty-bodied loop in closed form: the header charge
/// summed over its trips, and the iterator's last value. Each trip adds
/// an integer-valued `f64`, so while `trips × header` is within 2^53
/// every partial sum is exact and the walk's sum is the product. `None`
/// where it could exceed that, or where the walk's last `v += step`
/// would overflow: those loops are walked trip by trip.
fn empty_loop_walk(
    body: &[LNode],
    lbv: i64,
    ubv: i64,
    step: i64,
    header: u64,
) -> Option<(f64, i64)> {
    if !body.is_empty() || ubv.checked_add(step).is_none() {
        return None;
    }
    let steps = u64::try_from(ubv.checked_sub(lbv)? / step).ok()?;
    let total = (steps + 1).checked_mul(header).filter(|t| *t <= 1 << 53)?;
    Some((total as f64, lbv + steps as i64 * step))
}

/// True when the loop at `path` contains no nested loop.
fn is_innermost(p: &Program, path: &[usize]) -> bool {
    fn has_loop(nodes: &[Node]) -> bool {
        nodes.iter().any(|n| match n {
            Node::Loop(_) => true,
            Node::If { then, .. } => has_loop(then),
            Node::Stmt(_) => false,
        })
    }
    match node_at(&p.body, path) {
        Some(Node::Loop(l)) => !has_loop(&l.body),
        _ => false,
    }
}

fn stmts_under<'a>(n: &'a Node, out: &mut Vec<&'a looprag_ir::Statement>) {
    n.for_each_stmt(&mut |s| out.push(s));
}

fn bound_is_messy(b: &Bound) -> bool {
    !matches!(b, Bound::Affine(_))
}

/// Decides the vectorization factor of each innermost loop.
fn vectorization_map(
    p: &Program,
    deps: &DependenceSet,
    extents: &HashMap<String, Vec<i64>>,
    cfg: &MachineConfig,
) -> HashMap<Vec<usize>, VecInfo> {
    let mut out = HashMap::new();
    let mut accs: Vec<&looprag_ir::Access> = Vec::new();
    for path in loop_paths(&p.body) {
        if !is_innermost(p, &path) {
            continue;
        }
        let Some(node @ Node::Loop(l)) = node_at(&p.body, &path) else {
            continue;
        };
        // The loop's statements, collected once and shared by the
        // reduction and stride checks below.
        let mut stmts = Vec::new();
        stmts_under(node, &mut stmts);
        // Legality: dependence-free at this level, or a clean reduction
        // (every dependence carried here is a statement self-dependence on
        // a target invariant in the loop iterator).
        let carried: Vec<_> = deps.carried_by(&path).collect();
        let mut reduction = false;
        if !carried.is_empty() {
            let all_self_reductions = carried.iter().all(|d| {
                d.src == d.dst
                    && stmts.iter().any(|s| {
                        s.id == d.src
                            && s.op.reads_target()
                            && !s.lhs.indexes.iter().any(|e| e.uses(&l.iter))
                    })
            });
            if !all_self_reductions {
                continue;
            }
            reduction = true;
        }
        // Stride: every access must be unit-stride or invariant.
        let mut clean = true;
        for s in &stmts {
            accs.clear();
            s.rhs.collect_reads(&mut accs);
            if s.op.reads_target() {
                accs.push(&s.lhs);
            }
            accs.push(&s.lhs);
            for a in &accs {
                let Some(ext) = extents.get(&a.array) else {
                    continue;
                };
                if !matches!(element_stride(a, &l.iter, ext), Some(-1..=1)) {
                    clean = false;
                }
            }
        }
        if !clean {
            continue;
        }
        let mut factor = cfg.vector_width;
        if bound_is_messy(&l.lb) || bound_is_messy(&l.ub) {
            factor = 1.0 + (factor - 1.0) * cfg.vector_messy_factor;
        }
        if reduction {
            factor = 1.0 + (factor - 1.0) * cfg.reduction_factor;
        }
        if factor > 1.2 {
            out.insert(path, VecInfo { factor });
        }
    }
    out
}

/// A program lowered for cost simulation: the slot-indexed cost IR plus
/// the names of the loops the model vectorized.
pub(crate) struct Prepared {
    pub(crate) lowered: Vec<LNode>,
    pub(crate) vectorized: Vec<String>,
}

/// Shared front half of both cost paths: array layout, vectorization
/// decisions (from `deps`) and lowering to the slot-indexed cost IR.
pub(crate) fn lower_for_cost(
    p: &Program,
    cfg: &MachineConfig,
    deps: &DependenceSet,
) -> Result<Prepared, CostError> {
    // Cost estimation runs at the program's own declared parameter values;
    // benchmark kernels are authored at simulation-friendly scales, and the
    // original/optimized pair must be compared at identical sizes.
    let params: HashMap<&str, i64> = p
        .params
        .iter()
        .map(|d| (d.name.as_str(), d.value))
        .collect();
    let env = |s: &str| params.get(s).copied();
    // Array layout: sequential base addresses, line-aligned.
    let mut bases = HashMap::new();
    let mut extents = HashMap::new();
    let mut next_base = 0u64;
    for a in &p.arrays {
        // Checked: a huge declared extent must be a clean rejection, not
        // a debug-build panic or a wrapped (nonsense) address.
        let layout = a.layout_extents(&env).and_then(|ext| {
            let end = element_count(&ext)
                .and_then(|elems| (elems as u64).checked_mul(8))
                .and_then(|bytes| bytes.checked_next_multiple_of(64))
                .and_then(|bytes| next_base.checked_add(bytes)?.checked_add(64))?;
            Some((ext, end))
        });
        let Some((ext, end)) = layout else {
            return Err(CostError::Overflow(format!(
                "the layout of array '{}'",
                a.name
            )));
        };
        bases.insert(a.name.clone(), next_base);
        extents.insert(a.name.clone(), ext);
        next_base = end;
    }

    let vec_info = vectorization_map(p, deps, &extents, cfg);
    // Source (pre-order path) order, NOT map order: `HashMap` iteration
    // varies per instance, and a report served from the cost cache must
    // be byte-identical to one recomputed from scratch.
    let mut vec_paths: Vec<&Vec<usize>> = vec_info.keys().collect();
    vec_paths.sort();
    let vectorized: Vec<String> = vec_paths
        .into_iter()
        .filter_map(|path| match node_at(&p.body, path) {
            Some(Node::Loop(l)) => Some(l.iter.clone()),
            _ => None,
        })
        .collect();

    // Lower to the slot-indexed cost IR.
    let mut lowerer = Lowerer {
        scope: Scope::new(&env),
        bases: &bases,
        extents: &extents,
        vec_info: &vec_info,
        max_lat: cfg.lat_l1.max(cfg.lat_l2).max(cfg.lat_mem),
    };
    let lowered = lowerer.lower(&p.body, &mut Vec::new(), cfg.loop_overhead)?;
    Ok(Prepared {
        lowered,
        vectorized,
    })
}

/// Estimates the cost of running `p` on `cfg`, at cost-model scales —
/// the naive reference path: a fresh dependence analysis and a
/// straight-line per-access simulation, no caching of any kind.
///
/// The production entry point is [`crate::estimate_cost`], which is
/// pinned bit-for-bit against this function (tests and
/// the `perf_snapshot` interp row hard-assert the pin over the whole
/// suite).
///
/// # Errors
///
/// Returns [`CostError::InstanceBudget`] when the simulated instance
/// budget is exhausted (the harness reports this as a timeout),
/// [`CostError::Unbound`] for malformed programs and
/// [`CostError::Overflow`] for arrays or subscripts too large to lay
/// out in a 64-bit address space.
pub fn estimate_cost_reference(p: &Program, cfg: &MachineConfig) -> Result<CostReport, CostError> {
    let deps = analyze_for(p, Purpose::Transform);
    let prepared = lower_for_cost(p, cfg, &deps)?;
    let mut model = Model::new(cfg);
    let breakdown = model.visit_nodes(&prepared.lowered)?;
    Ok(model.report(breakdown, prepared.vectorized))
}

#[cfg(test)]
mod tests {
    use super::*;
    use looprag_ir::compile;
    use looprag_transform::{parallelize, tile_band};

    fn cost(src: &str) -> CostReport {
        let p = compile(src, "t").unwrap();
        estimate_cost_reference(&p, &MachineConfig::gcc()).unwrap()
    }

    #[test]
    fn parallel_loop_is_cheaper() {
        let seq = "param N = 4096;\narray A[N];\narray B[N];\nout A;\n#pragma scop\nfor (i = 0; i <= N - 1; i++) A[i] = B[i] * 2.0;\n#pragma endscop\n";
        let par = seq.replace("#pragma scop\n", "#pragma scop\n#pragma omp parallel for\n");
        let c_seq = cost(seq);
        let c_par = cost(&par);
        assert!(
            c_par.cycles < c_seq.cycles / 4.0,
            "parallel {} vs seq {}",
            c_par.cycles,
            c_seq.cycles
        );
        assert_eq!(c_par.parallel_entries, 1);
    }

    #[test]
    fn unit_stride_loop_vectorizes_but_strided_does_not() {
        let unit = cost(
            "param N = 4096;\narray A[N];\narray B[N];\nout A;\n#pragma scop\nfor (i = 0; i <= N - 1; i++) A[i] = B[i] * 2.0;\n#pragma endscop\n",
        );
        assert_eq!(unit.vectorized, vec!["i".to_string()]);
        let strided = cost(
            "param N = 64;\narray A[N][N];\narray B[N][N];\nout A;\n#pragma scop\nfor (j = 0; j <= N - 1; j++) for (i = 0; i <= N - 1; i++) A[i][j] = B[i][j] * 2.0;\n#pragma endscop\n",
        );
        assert!(strided.vectorized.is_empty());
    }

    #[test]
    fn recurrence_does_not_vectorize_but_reduction_does() {
        let rec = cost(
            "param N = 4096;\narray A[N];\nout A;\n#pragma scop\nfor (i = 1; i <= N - 1; i++) A[i] = A[i - 1] + 1.0;\n#pragma endscop\n",
        );
        assert!(rec.vectorized.is_empty());
        let red = cost(
            "param N = 64;\nparam M = 64;\ndouble s;\narray B[M];\nout B;\n#pragma scop\nfor (k = 0; k <= M - 1; k++) s += B[k];\n#pragma endscop\n",
        );
        assert_eq!(red.vectorized, vec!["k".to_string()]);
    }

    #[test]
    fn interchange_fixes_column_major_locality() {
        // Column-major traversal misses every access; row-major hits.
        let bad = cost(
            "param N = 1024;\nparam M = 1024;\narray A[N][M];\nout A;\n#pragma scop\nfor (j = 0; j <= M - 1; j++) for (i = 0; i <= N - 1; i++) A[i][j] = A[i][j] + 1.0;\n#pragma endscop\n",
        );
        let good = cost(
            "param N = 1024;\nparam M = 1024;\narray A[N][M];\nout A;\n#pragma scop\nfor (i = 0; i <= N - 1; i++) for (j = 0; j <= M - 1; j++) A[i][j] = A[i][j] + 1.0;\n#pragma endscop\n",
        );
        assert!(
            good.cycles * 1.5 < bad.cycles,
            "good {} vs bad {}",
            good.cycles,
            bad.cycles
        );
        assert!(good.mem_accesses < bad.mem_accesses);
    }

    #[test]
    fn tiling_helps_large_reuse_kernels() {
        let src = "param N = 128;\narray C[N][N];\narray A[N][N];\narray B[N][N];\nout C;\n#pragma scop\nfor (i = 0; i <= N - 1; i++) for (j = 0; j <= N - 1; j++) for (k = 0; k <= N - 1; k++) C[i][j] += A[i][k] * B[k][j];\n#pragma endscop\n";
        let p = compile(src, "gemm").unwrap();
        let cfg = MachineConfig::gcc();
        let base = estimate_cost_reference(&p, &cfg).unwrap();
        let tiled = tile_band(&p, &[0], 3, 16).unwrap();
        let t = estimate_cost_reference(&tiled, &cfg).unwrap();
        assert!(
            t.mem_accesses * 2 < base.mem_accesses,
            "tiled mem {} vs base mem {}",
            t.mem_accesses,
            base.mem_accesses
        );
    }

    #[test]
    fn tiling_tiny_loops_adds_overhead() {
        // A small stream loop gains nothing from tiling and pays headers +
        // messy-bound vector penalty: the PLuTo-on-TSVC failure mode.
        let src = "param N = 64;\narray A[N];\narray B[N];\nout A;\n#pragma scop\nfor (i = 0; i <= N - 1; i++) A[i] = B[i] * 2.0;\n#pragma endscop\n";
        let p = compile(src, "s").unwrap();
        let cfg = MachineConfig::gcc();
        let base = estimate_cost_reference(&p, &cfg).unwrap();
        let tiled = tile_band(&p, &[0], 1, 32).unwrap();
        let t = estimate_cost_reference(&tiled, &cfg).unwrap();
        assert!(
            t.cycles > base.cycles,
            "tiled {} should exceed base {}",
            t.cycles,
            base.cycles
        );
    }

    #[test]
    fn icx_base_shrinks_headroom() {
        let src = "param N = 4096;\narray A[N];\narray B[N];\nout A;\n#pragma scop\nfor (i = 0; i <= N - 1; i++) A[i] = B[i] * 2.0;\n#pragma endscop\n";
        let p = compile(src, "s").unwrap();
        let par = parallelize(&p, &[0]).unwrap();
        let gcc = MachineConfig::gcc();
        let icx = MachineConfig::icx();
        let sp_gcc = estimate_cost_reference(&p, &gcc)
            .unwrap()
            .speedup_of(&estimate_cost_reference(&par, &gcc).unwrap());
        let sp_icx = estimate_cost_reference(&p, &icx)
            .unwrap()
            .speedup_of(&estimate_cost_reference(&par, &icx).unwrap());
        assert!(sp_gcc > 1.0 && sp_icx > 1.0);
        assert!(sp_icx < sp_gcc * 1.05);
    }

    #[test]
    fn speedup_of_rejects_degenerate_optimized_reports() {
        let src = "param N = 64;\narray A[N];\nout A;\n#pragma scop\nfor (i = 0; i <= N - 1; i++) A[i] = A[i] + 1.0;\n#pragma endscop\n";
        let p = compile(src, "s").unwrap();
        let base = estimate_cost_reference(&p, &MachineConfig::gcc()).unwrap();
        // An unreachable candidate (infinite cycles) must rank at zero
        // speedup, not poison rankings with inf/NaN.
        assert_eq!(base.speedup_of(&CostReport::unreachable()), 0.0);
        for bad in [0.0, -1.0, f64::NAN, f64::NEG_INFINITY] {
            let mut opt = base.clone();
            opt.cycles = bad;
            assert_eq!(base.speedup_of(&opt), 0.0, "cycles = {bad}");
        }
        // Sanity: a real report still divides through.
        let mut opt = base.clone();
        opt.cycles = base.cycles / 2.0;
        assert_eq!(base.speedup_of(&opt), 2.0);
    }

    #[test]
    fn empty_loop_closed_form_matches_the_trip_walk() {
        let walk = |lbv: i64, ubv: i64, step: i64, header: u64| {
            let (mut ovh, mut v, mut last) = (0.0f64, lbv, lbv);
            while v <= ubv {
                last = v;
                ovh += header as f64;
                v += step;
            }
            (ovh, last)
        };
        for (lbv, ubv, step, header) in
            [(0, 0, 1, 2), (1, 510, 1, 2), (-7, 40, 3, 5), (0, 99, 32, 1)]
        {
            let got = empty_loop_walk(&[], lbv, ubv, step, header).unwrap();
            let want = walk(lbv, ubv, step, header);
            assert_eq!((got.0.to_bits(), got.1), (want.0.to_bits(), want.1));
        }
        // A body, a last increment that would overflow, or a sum past
        // 2^53 leaves the loop to the trip walk.
        let stmt = LNode::Stmt {
            alu: 1,
            accesses: Vec::new(),
        };
        assert_eq!(empty_loop_walk(&[stmt], 0, 9, 1, 2), None);
        assert_eq!(empty_loop_walk(&[], 0, i64::MAX, 1, 2), None);
        assert_eq!(empty_loop_walk(&[], 0, 1 << 52, 1, 2), None);
        assert!(empty_loop_walk(&[], 0, (1 << 52) - 1, 1, 2).is_some());
    }

    #[test]
    fn budget_exhaustion_reports_timeout() {
        let src = "param N = 64;\narray A[N];\nout A;\n#pragma scop\nfor (t = 0; t <= N - 1; t++) for (i = 0; i <= N - 1; i++) for (j = 0; j <= N - 1; j++) for (k = 0; k <= N - 1; k++) A[i] = A[i] + 1.0;\n#pragma endscop\n";
        let p = compile(src, "s").unwrap();
        let mut cfg = MachineConfig::gcc();
        cfg.instance_budget = 1000;
        assert_eq!(
            estimate_cost_reference(&p, &cfg),
            Err(CostError::InstanceBudget)
        );
    }
}

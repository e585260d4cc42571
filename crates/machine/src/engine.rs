//! The memoizing cost engine: fast cost estimation, bit-for-bit pinned
//! to [`estimate_cost_reference`](crate::estimate_cost_reference).
//!
//! Five layers make estimates cheap without changing a single bit of
//! any result:
//!
//! 1. **A flat simulator, integer-exact leaf loops and line runs.** The
//!    walker simulates on the engine-private `flat_cache` (one
//!    `Vec<u64>` of `sets × assoc` tags per level, most recently used
//!    first, shift and mask indexing where the geometry allows), not on
//!    the reference [`Hierarchy`](crate::Hierarchy), so the pin against
//!    the reference also cross-checks the two simulators. Statement
//!    costs are built once from integer hit counts.
//!
//!    *Lowered leaf shapes.* Lowering stores, for each loop whose body
//!    is only statements, its statement count, ALU sum and flattened
//!    accesses with their coefficient on the loop's own iterator
//!    (`LeafShape`). One execution of such a loop evaluates only its
//!    trip count, the exactness bound below and each access's starting
//!    index, then runs one tight loop over per-access index cursors
//!    with `u64` accumulators, converted to `f64` at the end.
//!    Exactness: below a loop's vector or parallel division — the
//!    first operation that can produce a fraction — every quantity the
//!    reference adds is an integer-valued `f64` (header charges, ALU
//!    counts, latencies). While every partial sum stays within 2^53,
//!    each of those additions is exact, so the result is the
//!    mathematical integer total whatever the order or grouping of
//!    the additions. The shape bounds every partial sum of the loop by
//!    its trip count, and loops that could reach 2^53 keep the
//!    per-statement additions.
//!
//!    *Line runs.* After one fully simulated iteration of a leaf loop,
//!    the walker skips the next `r` iterations in closed form when
//!    every cursor stays on its current L1 line for all `r` of them
//!    (from its byte offset in the line, its stride and its clamp
//!    range) and no L1 set holds more distinct lines from that
//!    iteration than its associativity. The second condition means
//!    every line the iteration touched is resident in L1 at its end:
//!    after a line's last touch, at most `assoc - 1` other lines of its
//!    set are touched. Each skipped iteration then touches the same
//!    lines in the same order, so each of its `k` accesses is an L1 hit,
//!    and hits in the iteration's own order leave each set's LRU order
//!    as the iteration left it; no fill changes, and an L1 hit never
//!    consults L2. So the skip adds `r·k` to the L1 hits, advances the
//!    cursors `r` steps, and leaves the tags, LRU order and fill of both
//!    levels exactly as the naive walk would.
//! 2. **Steady-state memoization** inside the cache simulator. At the
//!    iteration boundaries of *body-invariant* loops (loops whose body
//!    never references the loop's own iterator — outer time loops of
//!    stencils), the walker fingerprints the full simulator state (tag
//!    arrays + LRU order). When a state recurs the remaining iterations
//!    are provably periodic: the walker stops simulating accesses and
//!    instead replays the recorded per-iteration `f64` breakdown
//!    additions in the exact naive sequence and advances the integer
//!    counters by periodic prefix sums, so totals, hit counters and
//!    `InstanceBudget` exhaustion points are bitwise identical to the
//!    naive run.
//! 3. **One dependence cache.** [`CostEngine::deps`] memoizes the
//!    [`Purpose::Transform`] set of each program under its printed
//!    form with the parallel marks removed: the analyzer ignores
//!    `Loop::parallel`, so a program and all its parallelized variants
//!    share one entry. A fresh estimate takes its set from there, and
//!    the beam search asks the same engine for the sets its legality
//!    queries need, so a program that is scored and then expanded is
//!    analyzed once. The cache belongs to the engine, not to
//!    `looprag-dependence`, so [`CostEngine::clear`] or a fresh
//!    [`CostEngine::new`] makes a measurement cold.
//! 4. **Cross-stage cost caching**: results are memoized under
//!    `(MachineConfig::fingerprint(), printed program)`, shared by the
//!    pipeline's candidate batches, the search node table and campaign
//!    arms. Full keys — not hashes of them — are stored, so a hash
//!    collision can never alias two programs. The cache is thread-safe
//!    behind a mutex and deterministic by construction: a cached result
//!    is bitwise equal to a fresh one, so hit/miss timing (and pool
//!    scheduling) cannot change any outcome.
//! 5. **Mark pricing.** A program that differs from one already walked
//!    only in its `#pragma omp parallel for` marks — every
//!    `Parallelize` and `Serialize` child the beam search scores — is
//!    priced, not walked. *Exactness:* a mark is read in one place, at
//!    the end of a loop execution ([`finish_loop`]): the outermost
//!    marked loop divides its body cost by the effective thread count
//!    and adds the spawn charge, and counts one parallel entry when it
//!    ran. Nothing the walker simulates reads a mark: instance counts,
//!    budget exhaustion, cache state, the steady-state and leaf paths,
//!    vectorization and the dependence set are those of the unmarked
//!    program. So each walk of a program without marks keeps a walk
//!    record under its cost key: its result and, for every node
//!    execution at loop depth 0 and 1 in walk order, the cost the node
//!    returned or, for a loop, its trip count and its body cost before
//!    the vector and parallel adjustments. A marked program is priced
//!    from the record of its unmarked form (walked first if it has
//!    none): replay re-runs the walker's per-iteration sums and
//!    [`finish_loop`] on the recorded values, in the walker's order and
//!    on the same operand bits, marking each outermost marked loop, so
//!    the report is the walk's bit for bit. A failed walk prices every
//!    marked form as the same error. *Refusals* (the program walks as
//!    before): a mark at depth 2 or deeper with no marked loop above
//!    it, a mark under a guard, and a depth-1 mark under a top-level
//!    loop whose body was not recorded — one on the steady-state path
//!    (its body-invariant iterations are replayed, not visited) or the
//!    leaf path, or one whose body executions would take the record
//!    past [`RECORD_CAP`].
//!
//! Fresh estimates report their work units to the metrics registry:
//! `cost.walks` counts the walks actually run, and
//! `cost.instances_simulated` and `cost.accesses_simulated` the
//! statement instances and accesses they simulated, so priced estimates,
//! replayed iterations and cache hits add nothing, and accesses skipped
//! in line runs add nothing to the access count.

use crate::flat_cache::{FlatHierarchy, FlatState};
use crate::model::{
    lower_for_cost, CostError, CostReport, CostVec, LAccess, LNode, LeafShape, MachineConfig,
};
use looprag_dependence::{analyze_for, DependenceSet, Purpose};
use looprag_ir::lower::LoopBounds;
use looprag_ir::{has_parallel_loop, print_program, Node, Program};
use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

/// Minimum trip count before the steady-state machinery engages on a
/// body-invariant loop (shorter loops cannot amortize the snapshots).
const MIN_STEADY_TRIPS: u64 = 4;

/// Maximum iteration boundaries fingerprinted per loop execution. If no
/// recurrence appears within this window the loop runs naively, so the
/// worst-case overhead per execution is bounded and small.
const MAX_BOUNDARIES: usize = 64;

/// Executions of one loop node allowed to complete without a recurrence
/// before the walker stops fingerprinting that node. A loop whose
/// working set never settles (or that is executed thousands of times by
/// an outer nest) would otherwise pay the snapshot overhead on every
/// execution for nothing.
const STEADY_FAILURE_CAP: u32 = 2;

/// Cost-cache capacity before a wholesale clear (the metrics-cache
/// pattern: bounded memory, no eviction bookkeeping on the hot path).
const COST_CACHE_CAP: usize = 8192;

/// Dependence-cache capacity before a wholesale clear.
const DEPS_CACHE_CAP: usize = 2048;

/// Walk-record capacity before a wholesale clear, in recorded
/// executions (each record counting one more than it holds): at most
/// about 0.8 MB of records.
const RECORD_CACHE_CAP: usize = 16_384;

/// Body executions of top-level loops one walk record holds at most (48
/// bytes each). A top-level loop whose body executions would pass it is
/// not recorded, so marks in its body walk.
const RECORD_CAP: usize = 4096;

/// Every integer of magnitude at most 2^53 is an exact `f64`, so a sum
/// of integer-valued `f64`s whose partial sums all stay within it is
/// exact — and therefore independent of the order of its additions.
const F64_EXACT: u64 = 1 << 53;

// ---------------------------------------------------------------------
// The memoizing walker.
// ---------------------------------------------------------------------

/// Snapshot taken at one iteration boundary of a candidate loop: the
/// simulator state (with its hit counters) plus the walker's own
/// counters, so both the recurrence check and the periodic counter
/// advance are exact.
struct Boundary {
    tag_hash: u64,
    state: FlatState,
    instances: u64,
    parallel_entries: u64,
}

/// The engine's walker: the reference walker's semantics on the flat
/// simulator, plus integer-exact leaf loops and steady-state
/// memoization on body-invariant loops. Every `f64` result is the one
/// the reference's addition sequence produces — replay *re-adds* the
/// recorded per-iteration vectors rather than multiplying, because
/// float addition does not distribute, and integer sums stand in for
/// addition sequences only where every partial sum is exact.
struct MemoModel<'a> {
    cfg: &'a MachineConfig,
    iters: Vec<i64>,
    caches: FlatHierarchy,
    instances: u64,
    parallel_entries: u64,
    in_parallel: bool,
    /// Accesses per statement up to which `hits × latency` stays within
    /// [`F64_EXACT`] at every level.
    exact_accesses: u64,
    steady_loops: u64,
    iters_replayed: u64,
    /// Statement instances advanced by replay rather than simulated.
    instances_replayed: u64,
    /// Accesses advanced by replay or skipped as line runs rather than
    /// simulated.
    accesses_skipped: u64,
    /// Scratch for [`MemoModel::run_leaf`], reused across leaf loops.
    cursors: Vec<Cursor>,
    /// Scratch for the line-run associativity check.
    lines: Vec<(usize, u64)>,
    /// Per loop node (keyed by its address in the lowered tree, which
    /// is stable for the walk's lifetime): executions that completed
    /// without a recurrence. At [`STEADY_FAILURE_CAP`] the node runs
    /// naively with zero snapshot overhead forever after.
    steady_failures: HashMap<usize, u32>,
    /// The executions recorded so far by a recording walk
    /// ([`MemoModel::visit_recorded`]).
    rec: Option<Execs>,
}

/// `n` additions of `x` to a zero accumulator, in sequence.
fn repeat_add(n: u64, x: f64) -> f64 {
    let mut sum = 0.0;
    for _ in 0..n {
        sum += x;
    }
    sum
}

impl<'a> MemoModel<'a> {
    fn new(cfg: &'a MachineConfig) -> MemoModel<'a> {
        let max_lat = cfg.lat_l1.max(cfg.lat_l2).max(cfg.lat_mem).max(1);
        MemoModel {
            cfg,
            iters: Vec::new(),
            caches: FlatHierarchy::new(&cfg.l1, &cfg.l2),
            instances: 0,
            parallel_entries: 0,
            in_parallel: false,
            exact_accesses: F64_EXACT / max_lat,
            steady_loops: 0,
            iters_replayed: 0,
            instances_replayed: 0,
            accesses_skipped: 0,
            cursors: Vec::new(),
            lines: Vec::new(),
            steady_failures: HashMap::new(),
            rec: None,
        }
    }

    /// Packages the walked breakdown into the public report.
    fn report(&self, breakdown: CostVec, vectorized: Vec<String>) -> CostReport {
        CostReport {
            cycles: breakdown.total(),
            breakdown,
            instances: self.instances,
            l1_hits: self.caches.l1_hits,
            l2_hits: self.caches.l2_hits,
            mem_accesses: self.caches.mem_accesses,
            vectorized,
            parallel_entries: self.parallel_entries,
        }
    }

    #[inline]
    fn touch(&mut self, acc: &LAccess) {
        let flat = acc.linear.eval(&self.iters).clamp(0, acc.max_flat);
        self.caches.access(acc.base + flat as u64 * 8);
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
                let (l1, l2, mem) = (
                    self.caches.l1_hits,
                    self.caches.l2_hits,
                    self.caches.mem_accesses,
                );
                for a in accesses {
                    self.touch(a);
                }
                // The reference adds one latency per access to a zero
                // component. While `hits × latency` stays within
                // `F64_EXACT` every partial sum is an exact integer, so
                // one product has the same bits; past it (absurd
                // latencies) repeat the additions.
                let exact = accesses.len() as u64 <= self.exact_accesses;
                let cycles = |hits: u64, lat: u64| {
                    if exact {
                        (hits * lat) as f64
                    } else {
                        repeat_add(hits, lat as f64)
                    }
                };
                Ok(CostVec {
                    alu: *alu as f64,
                    l1: cycles(self.caches.l1_hits - l1, self.cfg.lat_l1),
                    l2: cycles(self.caches.l2_hits - l2, self.cfg.lat_l2),
                    mem: cycles(self.caches.mem_accesses - mem, self.cfg.lat_mem),
                    ovh: 0.0,
                })
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
            LNode::Loop { .. } => Ok(self.visit_loop(n, false)?.0),
        }
    }

    /// [`MemoModel::visit_nodes`] over the top-level nodes (`top`) or
    /// over one iteration of a top-level loop's body, recording each
    /// node's execution.
    fn visit_recorded(&mut self, nodes: &[LNode], top: bool) -> Result<CostVec, CostError> {
        let mut cost = CostVec::default();
        for n in nodes {
            let start = self.rec.as_ref().map_or(0, |r| r.inner.len());
            let (c, exec, body_recorded) = match n {
                LNode::Loop { .. } => self.visit_loop(n, top)?,
                _ => {
                    let c = self.visit_node(n)?;
                    (c, Exec { trips: 0, cost: c }, false)
                }
            };
            if let Some(rec) = &mut self.rec {
                if top {
                    let body = match n {
                        LNode::Loop { body, .. } if body_recorded => {
                            Some((start, body.iter().map(Kind::of).collect()))
                        }
                        _ => None,
                    };
                    rec.top.push(TopExec {
                        exec,
                        kind: Kind::of(n),
                        body,
                    });
                } else {
                    rec.inner.push(exec);
                }
            }
            cost.add(c);
        }
        Ok(cost)
    }

    /// One execution of the loop `n`: the cost it returns, its
    /// [`Exec`] (trips and body cost before the vector and parallel
    /// adjustments), and whether its body's executions were recorded:
    /// `record_body` asks for that, and only the trip-by-trip path
    /// records, within [`RECORD_CAP`].
    fn visit_loop(
        &mut self,
        n: &LNode,
        record_body: bool,
    ) -> Result<(CostVec, Exec, bool), CostError> {
        let LNode::Loop {
            slot,
            bounds: LoopBounds { lb, ub, step },
            parallel,
            vec_factor,
            header_ovh,
            body_invariant,
            leaf,
            body,
        } = n
        else {
            unreachable!("visit_loop takes a loop node")
        };
        let lbv = lb.eval(&self.iters);
        let ubv = ub.eval(&self.iters);
        let header = *header_ovh as f64;
        if ubv < lbv {
            let empty = Exec {
                trips: 0,
                cost: CostVec::default(),
            };
            return Ok((
                finish_loop(self.cfg, header, empty, *vec_factor, false),
                empty,
                record_body,
            ));
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
        let node_key = n as *const LNode as usize;
        let range = (*slot, lbv, ubv, *step);
        // Record the body only while the record stays within its cap.
        let record_body = record_body
            && self.rec.as_ref().is_some_and(|r| {
                let room = (RECORD_CAP - r.inner.len()) as u64;
                trips
                    .checked_mul(body.len() as u64)
                    .is_some_and(|n| n <= room)
            });
        let (res, body_recorded) = if *body_invariant
            && trips >= MIN_STEADY_TRIPS
            && self.steady_failures.get(&node_key).copied().unwrap_or(0) < STEADY_FAILURE_CAP
        {
            (
                self.run_loop_steady(node_key, range, trips, header, body),
                false,
            )
        } else if let Some((shape, trips)) = leaf
            .as_deref()
            .and_then(|shape| Some((shape, leaf_trips(range, shape)?)))
        {
            (self.run_leaf(range, *header_ovh, shape, trips), false)
        } else {
            (
                self.run_loop_naive(range, header, body, record_body),
                record_body,
            )
        };
        if parallel_here {
            self.in_parallel = false;
        }
        let exec = Exec { trips, cost: res? };
        let cost = finish_loop(self.cfg, header, exec, *vec_factor, parallel_here);
        Ok((cost, exec, body_recorded))
    }

    /// The trip-by-trip path; with `record` (a top-level loop of a
    /// recording walk) each body node's execution is recorded.
    fn run_loop_naive(
        &mut self,
        (slot, lbv, ubv, step): LoopRange,
        header: f64,
        body: &[LNode],
        record: bool,
    ) -> Result<CostVec, CostError> {
        let mut body_cost = CostVec::default();
        let mut v = lbv;
        while v <= ubv {
            self.iters[slot] = v;
            body_cost.ovh += header;
            body_cost.add(if record {
                self.visit_recorded(body, false)?
            } else {
                self.visit_nodes(body)?
            });
            v += step;
        }
        Ok(body_cost)
    }

    /// The integer-exact path for one execution of a loop whose body is
    /// only statements, `trips` iterations long (see [`leaf_trips`] for
    /// when it applies and the module docs for why it is exact).
    ///
    /// The naive walk sums the iterations' header charges and the
    /// statements' integer-valued cost vectors in `f64`. With every
    /// partial sum an integer within [`F64_EXACT`], each of those
    /// additions is exact, so the sums equal the mathematical integer
    /// totals — which `u64` arithmetic computes directly, converted
    /// once at the end. Vector and parallel divisions happen above this
    /// point, on the converted totals, exactly as in the reference.
    ///
    /// Only this loop's iterator changes inside it, so each access's
    /// linear index advances by a constant per iteration: one
    /// [`Cursor`] per access of the lowered [`LeafShape`] replaces
    /// re-evaluating its linear form.
    ///
    /// After each simulated iteration the walk skips, in closed form,
    /// the next `r` iterations when every cursor stays on its current
    /// L1 line for all of them ([`Cursor::run`]) and no L1 set holds
    /// more distinct lines from that iteration than its associativity.
    /// Each skipped iteration is then one L1 hit per access that leaves
    /// the simulator's state unchanged (module docs, layer 1).
    fn run_leaf(
        &mut self,
        (slot, lbv, _, step): LoopRange,
        header_ovh: u64,
        shape: &LeafShape,
        trips: u64,
    ) -> Result<CostVec, CostError> {
        // Every iteration runs every statement once, so the naive walk
        // exhausts the budget inside this loop iff the loop's instance
        // total exceeds what is left. The error discards every number,
        // so raising it before simulating anything is faithful.
        let total = trips as u128 * shape.stmts as u128;
        if self.instances as u128 + total > self.cfg.instance_budget as u128 {
            return Err(CostError::InstanceBudget);
        }
        self.iters[slot] = lbv;
        let line_bytes = self.caches.l1_line_bytes();
        let mut cursors = std::mem::take(&mut self.cursors);
        cursors.clear();
        cursors.extend(shape.accesses.iter().map(|(a, coeff)| {
            let delta = coeff.wrapping_mul(step);
            Cursor {
                flat: a.linear.eval_wrapping(&self.iters),
                delta,
                stride_bytes: delta.unsigned_abs().saturating_mul(8),
                base: a.base,
                max_flat: a.max_flat,
                addr: 0,
            }
        }));
        let (l1, l2, mem) = (
            self.caches.l1_hits,
            self.caches.l2_hits,
            self.caches.mem_accesses,
        );
        let k = cursors.len() as u64;
        let mut t = 0;
        while t < trips {
            let mut run = u64::MAX;
            for c in &mut cursors {
                let flat = c.flat.clamp(0, c.max_flat);
                c.addr = c.base + flat as u64 * 8;
                self.caches.access(c.addr);
                if run > 0 {
                    let offset = self.caches.l1_line_offset(c.addr);
                    run = run.min(c.run(flat, offset, line_bytes));
                }
                c.flat = c.flat.wrapping_add(c.delta);
            }
            t += 1;
            let r = run.min(trips - t);
            if r > 0
                && self
                    .caches
                    .l1_holds_all(cursors.iter().map(|c| c.addr), &mut self.lines)
            {
                // Hits on resident lines in the order that left them
                // where they are: no tag, LRU order or fill changes.
                self.caches.l1_hits += r * k;
                self.accesses_skipped += r * k;
                for c in &mut cursors {
                    c.flat = c.flat.wrapping_add(c.delta.wrapping_mul(r as i64));
                }
                t += r;
            }
        }
        self.cursors = cursors;
        // Leave the iterator at its last value, as the naive loop does.
        self.iters[slot] = lbv + (trips as i64 - 1) * step;
        self.instances += total as u64;
        let cfg = self.cfg;
        Ok(CostVec {
            alu: (trips * shape.alu) as f64,
            l1: ((self.caches.l1_hits - l1) * cfg.lat_l1) as f64,
            l2: ((self.caches.l2_hits - l2) * cfg.lat_l2) as f64,
            mem: ((self.caches.mem_accesses - mem) * cfg.lat_mem) as f64,
            ovh: (trips * header_ovh) as f64,
        })
    }

    /// The steady-state path for a body-invariant loop. Simulates
    /// iterations naively while fingerprinting the simulator state at
    /// each boundary; on a recurrence, fast-forwards the rest.
    ///
    /// Soundness: the body never references this loop's iterator slot,
    /// so every iteration issues the same address stream over whatever
    /// cache state it starts from. Simulator state at a boundary is
    /// therefore a complete summary of the future — if the state at
    /// boundary `k` equals the state at an earlier boundary `u`, the
    /// per-iteration cost vectors and counter deltas repeat with period
    /// `P = k - u` forever after.
    fn run_loop_steady(
        &mut self,
        node_key: usize,
        range: LoopRange,
        trips: u64,
        header: f64,
        body: &[LNode],
    ) -> Result<CostVec, CostError> {
        let (slot, lbv, ubv, step) = range;
        let mut body_cost = CostVec::default();
        let mut boundaries: Vec<Boundary> = Vec::new();
        let mut deltas: Vec<CostVec> = Vec::new();
        let mut v = lbv;
        let mut i: u64 = 0;
        while v <= ubv {
            if (i as usize) < MAX_BOUNDARIES {
                let h = self.caches.tag_hash();
                // Hash prefilter, then a full tag comparison: a hash
                // collision costs time, never correctness.
                if let Some(u) = boundaries
                    .iter()
                    .position(|b| b.tag_hash == h && self.caches.tags_eq(&b.state))
                {
                    let cycle = Cycle {
                        k: i,
                        u,
                        boundaries: &boundaries,
                        deltas: &deltas,
                    };
                    self.fast_forward(range, trips, header, cycle, &mut body_cost)?;
                    return Ok(body_cost);
                }
                boundaries.push(Boundary {
                    tag_hash: h,
                    state: self.caches.state(),
                    instances: self.instances,
                    parallel_entries: self.parallel_entries,
                });
            }
            self.iters[slot] = v;
            body_cost.ovh += header;
            let c = self.visit_nodes(body)?;
            body_cost.add(c);
            if (i as usize) < MAX_BOUNDARIES {
                deltas.push(c);
            }
            v += step;
            i += 1;
        }
        // Completed with no recurrence: charge a strike so a loop whose
        // state never settles stops paying for snapshots.
        *self.steady_failures.entry(node_key).or_insert(0) += 1;
        Ok(body_cost)
    }

    /// Replays the remaining `trips - k` iterations of a loop whose
    /// state at boundary `k` recurred from boundary `u`.
    fn fast_forward(
        &mut self,
        (slot, lbv, _, step): LoopRange,
        trips: u64,
        header: f64,
        Cycle {
            k,
            u,
            boundaries,
            deltas,
        }: Cycle<'_>,
        body_cost: &mut CostVec,
    ) -> Result<(), CostError> {
        let period = k as usize - u;
        let remaining = trips - k;
        let q = remaining / period as u64;
        let r = (remaining % period as u64) as usize;
        let b_u = &boundaries[u];
        let b_ur = &boundaries[u + r];
        // Any counter C recorded at the boundaries advances by periodic
        // prefix sums: with the live value C(k) and the snapshots,
        // C(final) = C(k) + q*(C(k) - C(u)) + (C(u+r) - C(u)).
        let advance = |cur: u64, at_u: u64, at_ur: u64| -> u128 {
            cur as u128 + q as u128 * (cur - at_u) as u128 + (at_ur - at_u) as u128
        };

        // Budget check first. The naive walker errors out of iteration
        // `m` exactly when its statement-visit count would push
        // `instances` past the budget; deltas are non-negative, so some
        // remaining iteration errors iff the final total exceeds the
        // budget. On error the whole estimate returns
        // `Err(InstanceBudget)` and every accumulated number is
        // discarded, so erroring here without materializing the partial
        // state is bitwise-faithful.
        let final_instances = advance(self.instances, b_u.instances, b_ur.instances);
        if final_instances > self.cfg.instance_budget as u128 {
            return Err(CostError::InstanceBudget);
        }
        self.instances_replayed += final_instances as u64 - self.instances;
        self.instances = final_instances as u64;
        self.parallel_entries = advance(
            self.parallel_entries,
            b_u.parallel_entries,
            b_ur.parallel_entries,
        ) as u64;

        // The hit counters advance by the same formula; the tag arrays
        // land where the periodic orbit says they must — the state at
        // boundary `u + r`.
        let accesses = self.caches.accesses();
        let (s_u, s_ur) = (&b_u.state, &b_ur.state);
        let c = &mut self.caches;
        c.l1_hits = advance(c.l1_hits, s_u.l1_hits, s_ur.l1_hits) as u64;
        c.l2_hits = advance(c.l2_hits, s_u.l2_hits, s_ur.l2_hits) as u64;
        c.mem_accesses = advance(c.mem_accesses, s_u.mem_accesses, s_ur.mem_accesses) as u64;
        c.restore_tags(s_ur);
        self.accesses_skipped += self.caches.accesses() - accesses;

        // Replay the f64 additions in the exact naive sequence. The
        // iteration that ran from boundary `j` contributed `deltas[j]`;
        // remaining iteration `m` (0-based) repeats the cycle position
        // `u + (m mod P)`. No multiplying out — float addition is not
        // associative, and the pin is bitwise.
        for m in 0..remaining as usize {
            body_cost.ovh += header;
            body_cost.add(deltas[u + (m % period)]);
        }
        // The naive loop leaves the iterator at its last value; nothing
        // after the loop can read this slot, but keep the state exact.
        self.iters[slot] = lbv + (trips as i64 - 1) * step;
        self.iters_replayed += remaining;
        self.steady_loops += 1;
        Ok(())
    }
}

/// A loop execution's iterator slot and evaluated header: `(slot,
/// first value, last value (inclusive), step)`.
type LoopRange = (usize, i64, i64, i64);

/// A recurrence found by [`MemoModel::run_loop_steady`]: the state at
/// boundary `k` equals the state at boundary `u`.
struct Cycle<'b> {
    k: u64,
    u: usize,
    boundaries: &'b [Boundary],
    deltas: &'b [CostVec],
}

/// An access's linear index inside one execution of a leaf loop,
/// advanced per iteration by `delta`, the access's own-slot coefficient
/// times the loop's step. The cursor uses wrapping arithmetic —
/// arithmetic modulo 2^64 — so it agrees with the linear form's
/// evaluation whenever that does not overflow, and with its
/// release-build wraparound when it does.
struct Cursor {
    /// The unclamped linear index of the next access.
    flat: i64,
    delta: i64,
    /// `|delta| × 8`, saturating: the bytes the access moves per
    /// iteration while unclamped.
    stride_bytes: u64,
    base: u64,
    max_flat: i64,
    /// The byte address of the last simulated access.
    addr: u64,
}

impl Cursor {
    /// How many iterations after the one just simulated, whose clamped
    /// index was `flat` at byte `offset` of its L1 line, keep this
    /// cursor on that line: the room left in the line in the direction
    /// of travel, in strides, and no further than its clamp range
    /// allows. A stride-0 cursor never leaves its line; a cursor that is
    /// currently clamped, or moves a line or more per iteration, gives 0.
    /// Called before the cursor advances.
    #[inline]
    fn run(&self, flat: i64, offset: u64, line_bytes: u64) -> u64 {
        if self.delta == 0 {
            return u64::MAX;
        }
        if flat != self.flat {
            return 0;
        }
        let (room_bytes, room_elems) = if self.delta > 0 {
            (line_bytes - 1 - offset, (self.max_flat - flat) as u64)
        } else {
            (offset, flat as u64)
        };
        let step = self.delta.unsigned_abs();
        // `room_bytes < line_bytes`, so a stride of a line or more gives 0.
        let r = room_bytes / self.stride_bytes;
        // `r × step < line_bytes / 8`, so the product cannot overflow.
        if r * step <= room_elems {
            r
        } else {
            room_elems / step
        }
    }
}

/// The trip count of one execution of a leaf loop, when the
/// integer-exact path may take it (`None` sends it to the naive walk).
///
/// The trip count must be computed without overflow and the last
/// increment must not overflow either — otherwise the naive `while`
/// loop's iteration count is not this closed form. And the trips must
/// be within the shape's [`LeafShape::max_trips`], so every partial sum
/// of the loop stays within [`F64_EXACT`].
fn leaf_trips((_, lbv, ubv, step): LoopRange, shape: &LeafShape) -> Option<u64> {
    ubv.checked_add(step)?;
    let trips = u64::try_from(ubv.checked_sub(lbv)? / step).ok()? + 1;
    (trips <= shape.max_trips).then_some(trips)
}

/// The cost one loop execution returns, from its [`Exec`]: the header
/// charge, plus — unless it ran no iteration — its body cost divided by
/// the vector factor and, for the outermost parallel loop
/// (`parallel_here`), by the effective thread count, plus the spawn
/// charge. The walker and pricing both end a loop here, so a priced
/// cost is the walker's operations on the same operands.
fn finish_loop(
    cfg: &MachineConfig,
    header: f64,
    exec: Exec,
    vec_factor: Option<f64>,
    parallel_here: bool,
) -> CostVec {
    let mut cost = CostVec::default();
    cost.ovh += header;
    if exec.trips == 0 {
        return cost;
    }
    let mut body = exec.cost;
    if let Some(factor) = vec_factor {
        body.alu /= factor;
        body.l1 /= factor;
        body.ovh /= factor;
    }
    if parallel_here {
        let ideal = (cfg.threads as f64).min(exec.trips as f64);
        let p_eff = (ideal * cfg.parallel_efficiency).max(1.0);
        body.scale_all(1.0 / p_eff);
        body.ovh += cfg.parallel_spawn_cycles as f64;
    }
    cost.add(body);
    cost
}

// ---------------------------------------------------------------------
// Walk records and mark pricing.
// ---------------------------------------------------------------------

/// One recorded node execution: for a statement or guard, the cost it
/// returned; for a loop, its trip count (0 when it ran no iteration) and
/// its body cost before the vector and parallel adjustments.
#[derive(Debug, Clone, Copy)]
struct Exec {
    trips: u64,
    cost: CostVec,
}

/// How pricing turns a recorded [`Exec`] back into the cost its node
/// returned.
#[derive(Debug, Clone, Copy)]
enum Kind {
    /// A statement or guard: the recorded cost.
    Fixed,
    /// A loop with this vector factor: [`finish_loop`].
    Loop(Option<f64>),
}

impl Kind {
    fn of(n: &LNode) -> Kind {
        match n {
            LNode::Loop { vec_factor, .. } => Kind::Loop(*vec_factor),
            _ => Kind::Fixed,
        }
    }
}

/// The one execution of a top-level node.
#[derive(Debug)]
struct TopExec {
    exec: Exec,
    kind: Kind,
    /// For a loop walked trip by trip: where its body's executions start
    /// in [`Execs::inner`] (body length × trips of them, iteration by
    /// iteration) and each body node's kind. `None` on the steady-state
    /// and leaf paths, which do not record their bodies, and for a body
    /// whose executions would pass [`RECORD_CAP`].
    body: Option<(usize, Box<[Kind]>)>,
}

/// The executions a walk recorded at depths 0 and 1.
#[derive(Debug, Default)]
struct Execs {
    top: Vec<TopExec>,
    /// The body executions of the top-level loops walked trip by trip,
    /// in walk order: at most [`RECORD_CAP`].
    inner: Vec<Exec>,
}

/// The walk record of a program without parallel marks on one machine:
/// its result and the executions its marked forms are priced from
/// (none when the walk failed).
struct WalkRecord {
    result: Result<CostReport, CostError>,
    execs: Execs,
}

/// True when any loop in `nodes` carries a parallel mark.
fn has_mark(nodes: &[Node]) -> bool {
    nodes.iter().any(|n| match n {
        Node::Loop(l) => l.parallel || has_mark(&l.body),
        Node::If { then, .. } => has_mark(then),
        Node::Stmt(_) => false,
    })
}

/// True when every outermost parallel mark in `nodes`, at loop depth
/// `depth`, is on a loop at depth 0 or 1 and under no guard: the marks
/// pricing can take.
fn priceable(nodes: &[Node], depth: u32) -> bool {
    nodes.iter().all(|n| match n {
        Node::Loop(l) => l.parallel || !has_mark(&l.body) || (depth == 0 && priceable(&l.body, 1)),
        Node::If { then, .. } => !has_mark(then),
        Node::Stmt(_) => true,
    })
}

impl WalkRecord {
    /// The record's weight against [`RECORD_CACHE_CAP`].
    fn weight(&self) -> usize {
        1 + self.execs.top.len() + self.execs.inner.len()
    }

    /// The report of `p`, a [`priceable`] marked form of the recorded
    /// program, replayed from the record (module docs, layer 5); `None`
    /// when the record cannot price it and `p` must be walked.
    fn price(&self, p: &Program, cfg: &MachineConfig) -> Option<Result<CostReport, CostError>> {
        let base = match &self.result {
            Ok(base) => base,
            // Marks change no instance count and no lowering: every
            // marked form fails the same way.
            Err(e) => return Some(Err(e.clone())),
        };
        let execs = &self.execs;
        if p.body.len() != execs.top.len() {
            return None;
        }
        let header = cfg.loop_overhead as f64;
        let mut entries = 0u64;
        let mut replay = |exec: Exec, vec_factor, parallel: bool| {
            entries += u64::from(parallel && exec.trips > 0);
            finish_loop(cfg, header, exec, vec_factor, parallel)
        };
        let mut total = CostVec::default();
        for (n, t) in p.body.iter().zip(&execs.top) {
            let cost = match (n, t.kind) {
                (Node::Loop(l), Kind::Loop(vf)) if l.parallel || !has_mark(&l.body) => {
                    replay(t.exec, vf, l.parallel)
                }
                (Node::Loop(l), Kind::Loop(vf)) => {
                    // Marks in the body: re-sum each iteration from its
                    // body's executions, as the trip-by-trip walk does.
                    let (start, kinds) = t.body.as_ref()?;
                    if kinds.len() != l.body.len() {
                        return None;
                    }
                    let len = usize::try_from(t.exec.trips)
                        .ok()?
                        .checked_mul(kinds.len())?;
                    let iters = execs.inner.get(*start..start.checked_add(len)?)?;
                    let mut body = CostVec::default();
                    for iter in iters.chunks(kinds.len()) {
                        body.ovh += header;
                        let mut c = CostVec::default();
                        for ((node, e), kind) in l.body.iter().zip(iter).zip(kinds.iter()) {
                            c.add(match (node, kind) {
                                (Node::Loop(inner), Kind::Loop(vf)) => {
                                    replay(*e, *vf, inner.parallel)
                                }
                                (Node::Loop(_), Kind::Fixed) => return None,
                                _ => e.cost,
                            });
                        }
                        body.add(c);
                    }
                    replay(
                        Exec {
                            trips: t.exec.trips,
                            cost: body,
                        },
                        vf,
                        false,
                    )
                }
                (Node::Loop(_), Kind::Fixed) => return None,
                _ => t.exec.cost,
            };
            total.add(cost);
        }
        Some(Ok(CostReport {
            cycles: total.total(),
            breakdown: total,
            parallel_entries: entries,
            ..base.clone()
        }))
    }
}

// ---------------------------------------------------------------------
// The cross-stage engine.
// ---------------------------------------------------------------------

/// Work counters for the engine's caches and the steady-state memoizer,
/// cumulative since construction (or the last [`CostEngine::clear`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CostEngineStats {
    /// Cost queries answered from the cross-stage cache.
    pub cost_hits: u64,
    /// Cost queries computed fresh.
    pub cost_misses: u64,
    /// Walks actually run: misses minus the ones priced from a walk
    /// record, plus the walks of unmarked forms that pricing needed.
    pub walks: u64,
    /// Dependence-set requests (from fresh estimates and
    /// [`CostEngine::deps`]) answered from the dependence cache.
    pub deps_reused: u64,
    /// Dependence analyses actually run.
    pub deps_computed: u64,
    /// Loops fast-forwarded by the steady-state memoizer.
    pub steady_loops: u64,
    /// Loop iterations replayed instead of simulated per-access.
    pub iters_replayed: u64,
    /// Statement instances the walker simulated (replayed ones
    /// excluded).
    pub instances_simulated: u64,
    /// Array accesses the walker fed through the cache simulator.
    /// Accesses advanced by steady-state replay or skipped in a leaf
    /// loop's line runs are excluded, though the reports count them.
    pub accesses_simulated: u64,
}

/// Cached handles into the global [`looprag_trace`] metrics registry,
/// mirroring [`CostEngineStats`]. Observational only: the counters are
/// process-wide (shared across engines) and incremented at the same
/// sites as the per-engine stats, so dashboards can attribute work
/// without querying every engine instance.
struct EngineMetrics {
    cost_hits: looprag_trace::Counter,
    cost_misses: looprag_trace::Counter,
    walks: looprag_trace::Counter,
    deps_reused: looprag_trace::Counter,
    deps_computed: looprag_trace::Counter,
    steady_loops: looprag_trace::Counter,
    iters_replayed: looprag_trace::Counter,
    instances_simulated: looprag_trace::Counter,
    accesses_simulated: looprag_trace::Counter,
}

fn engine_metrics() -> &'static EngineMetrics {
    static M: OnceLock<EngineMetrics> = OnceLock::new();
    M.get_or_init(|| {
        let r = looprag_trace::metrics();
        EngineMetrics {
            cost_hits: r.counter("cost.cache_hits"),
            cost_misses: r.counter("cost.cache_misses"),
            walks: r.counter("cost.walks"),
            deps_reused: r.counter("cost.deps_reused"),
            deps_computed: r.counter("cost.deps_computed"),
            steady_loops: r.counter("cost.steady_loops"),
            iters_replayed: r.counter("cost.iters_replayed"),
            instances_simulated: r.counter("cost.instances_simulated"),
            accesses_simulated: r.counter("cost.accesses_simulated"),
        }
    })
}

struct EngineInner {
    /// `(machine fingerprint, printed program)` → result. Full key
    /// strings, so cache hits cannot alias distinct inputs.
    costs: HashMap<(String, String), Result<CostReport, CostError>>,
    /// Printed program without parallel marks → dependence set
    /// (machine-independent).
    deps: HashMap<String, Arc<DependenceSet>>,
    /// `(machine fingerprint, printed program)` of a program without
    /// parallel marks → its walk record.
    records: HashMap<(String, String), Arc<WalkRecord>>,
    /// The records' weight against [`RECORD_CACHE_CAP`].
    record_weight: usize,
    stats: CostEngineStats,
}

/// The memoizing, cross-stage cost engine. See the module docs for the
/// five layers; the determinism contract is that every result is
/// bitwise identical to [`crate::estimate_cost_reference`], cached or
/// not, at any pool size.
pub struct CostEngine {
    inner: Mutex<EngineInner>,
}

impl Default for CostEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl CostEngine {
    /// An empty engine with its own private caches.
    pub fn new() -> CostEngine {
        CostEngine {
            inner: Mutex::new(EngineInner {
                costs: HashMap::new(),
                deps: HashMap::new(),
                records: HashMap::new(),
                record_weight: 0,
                stats: CostEngineStats::default(),
            }),
        }
    }

    /// The process-wide shared engine: the cache the pipeline, the beam
    /// search and campaign arms all score through.
    pub fn global() -> &'static CostEngine {
        static GLOBAL: OnceLock<CostEngine> = OnceLock::new();
        GLOBAL.get_or_init(CostEngine::new)
    }

    /// Estimates the cost of `p` on `cfg`; answers from the cross-stage
    /// cache when this (program, machine) pair has been scored before.
    pub fn estimate(&self, p: &Program, cfg: &MachineConfig) -> Result<CostReport, CostError> {
        let key = (cfg.fingerprint(), print_program(p));
        {
            let mut inner = self.inner.lock().expect("cost engine lock");
            if let Some(hit) = inner.costs.get(&key) {
                let hit = hit.clone();
                inner.stats.cost_hits += 1;
                engine_metrics().cost_hits.inc();
                return hit;
            }
            inner.stats.cost_misses += 1;
            engine_metrics().cost_misses.inc();
        }
        // Compute outside the lock: concurrent scorers proceed in
        // parallel, and a racing duplicate insert is harmless because
        // both values are bitwise identical.
        let report = if !has_parallel_loop(p) {
            self.walk_unmarked(p, cfg, &key).result.clone()
        } else {
            // `p`'s marks off: the dependence key, and the cost and
            // record key of the program the marks were added to.
            let q = unmarked(p);
            let base_key = (key.0.clone(), print_program(&q));
            let priced = if priceable(&p.body, 0) {
                let record = self.record(&base_key).unwrap_or_else(|| {
                    let record = self.walk_unmarked(&q, cfg, &base_key);
                    self.cache(base_key.clone(), record.result.clone());
                    record
                });
                record.price(p, cfg)
            } else {
                None
            };
            priced.unwrap_or_else(|| {
                let deps = self.deps_under(p, &base_key.1);
                walk(p, cfg, &deps, self, false).0
            })
        };
        self.cache(key, report.clone());
        report
    }

    /// Caches `report` under `key`.
    fn cache(&self, key: (String, String), report: Result<CostReport, CostError>) {
        let mut inner = self.inner.lock().expect("cost engine lock");
        if inner.costs.len() >= COST_CACHE_CAP {
            inner.costs.clear();
        }
        inner.costs.insert(key, report);
    }

    /// The walk record cached under `key`.
    fn record(&self, key: &(String, String)) -> Option<Arc<WalkRecord>> {
        let inner = self.inner.lock().expect("cost engine lock");
        inner.records.get(key).cloned()
    }

    /// Walks `p`, a program without parallel marks whose cost key is
    /// `key`, recording its executions, and keeps the record.
    fn walk_unmarked(
        &self,
        p: &Program,
        cfg: &MachineConfig,
        key: &(String, String),
    ) -> Arc<WalkRecord> {
        let deps = self.deps_under(p, &key.1);
        let (result, execs) = walk(p, cfg, &deps, self, true);
        let record = Arc::new(WalkRecord { result, execs });
        let weight = record.weight();
        let mut inner = self.inner.lock().expect("cost engine lock");
        if inner.record_weight + weight > RECORD_CACHE_CAP {
            inner.records.clear();
            inner.record_weight = 0;
        }
        inner.record_weight += weight;
        if let Some(old) = inner.records.insert(key.clone(), record.clone()) {
            inner.record_weight -= old.weight();
        }
        record
    }

    /// The [`Purpose::Transform`] dependence set of `p`: the set the
    /// cost model's vectorization decisions and the search's legality
    /// queries use. Memoized under `p`'s printed form with its parallel
    /// marks removed — the analyzer ignores `Loop::parallel`, so a
    /// program and all its parallelized variants share one entry.
    pub fn deps(&self, p: &Program) -> Arc<DependenceSet> {
        self.deps_under(p, &deps_key(p, &print_program(p)))
    }

    /// The dependence set of `p`, cached under `key`.
    fn deps_under(&self, p: &Program, key: &str) -> Arc<DependenceSet> {
        {
            let mut inner = self.inner.lock().expect("cost engine lock");
            if let Some(d) = inner.deps.get(key).cloned() {
                inner.stats.deps_reused += 1;
                engine_metrics().deps_reused.inc();
                return d;
            }
        }
        let d = Arc::new(analyze_for(p, Purpose::Transform));
        let mut inner = self.inner.lock().expect("cost engine lock");
        inner.stats.deps_computed += 1;
        engine_metrics().deps_computed.inc();
        if inner.deps.len() >= DEPS_CACHE_CAP {
            inner.deps.clear();
        }
        inner.deps.insert(key.to_string(), d.clone());
        d
    }

    /// Cumulative cache and memoizer counters.
    pub fn stats(&self) -> CostEngineStats {
        self.inner.lock().expect("cost engine lock").stats
    }

    /// Drops every cached cost, dependence set and walk record and
    /// zeroes the stats.
    pub fn clear(&self) {
        let mut inner = self.inner.lock().expect("cost engine lock");
        inner.costs.clear();
        inner.deps.clear();
        inner.records.clear();
        inner.record_weight = 0;
        inner.stats = CostEngineStats::default();
    }
}

/// `p` with every parallel mark removed.
fn unmarked(p: &Program) -> Program {
    fn unmark(nodes: &mut [Node]) {
        for n in nodes {
            match n {
                Node::Loop(l) => {
                    l.parallel = false;
                    unmark(&mut l.body);
                }
                Node::If { then, .. } => unmark(then),
                Node::Stmt(_) => {}
            }
        }
    }
    let mut q = p.clone();
    unmark(&mut q.body);
    q
}

/// The dependence-cache key of `p`, whose printed form is `printed`:
/// the printed form of `p` with every parallel mark removed.
fn deps_key<'a>(p: &Program, printed: &'a str) -> Cow<'a, str> {
    if !has_parallel_loop(p) {
        return Cow::Borrowed(printed);
    }
    Cow::Owned(print_program(&unmarked(p)))
}

/// One fresh estimate through the memoizing walker, folding the
/// steady-state and work-unit counters into the engine's stats. With
/// `record`, a successful walk also returns its executions at depths 0
/// and 1.
fn walk(
    p: &Program,
    cfg: &MachineConfig,
    deps: &DependenceSet,
    engine: &CostEngine,
    record: bool,
) -> (Result<CostReport, CostError>, Execs) {
    let prepared = match lower_for_cost(p, cfg, deps) {
        Ok(prepared) => prepared,
        Err(e) => return (Err(e), Execs::default()),
    };
    let mut model = MemoModel::new(cfg);
    let walked = if record {
        model.rec = Some(Execs::default());
        model.visit_recorded(&prepared.lowered, true)
    } else {
        model.visit_nodes(&prepared.lowered)
    };
    let instances = model.instances - model.instances_replayed;
    let accesses = model.caches.accesses() - model.accesses_skipped;
    {
        let mut inner = engine.inner.lock().expect("cost engine lock");
        let stats = &mut inner.stats;
        stats.walks += 1;
        stats.steady_loops += model.steady_loops;
        stats.iters_replayed += model.iters_replayed;
        stats.instances_simulated += instances;
        stats.accesses_simulated += accesses;
        let metrics = engine_metrics();
        metrics.walks.inc();
        metrics.steady_loops.add(model.steady_loops);
        metrics.iters_replayed.add(model.iters_replayed);
        metrics.instances_simulated.add(instances);
        metrics.accesses_simulated.add(accesses);
    }
    match walked {
        Ok(breakdown) => {
            let mut execs = model.rec.take().unwrap_or_default();
            execs.inner.shrink_to_fit();
            (Ok(model.report(breakdown, prepared.vectorized)), execs)
        }
        Err(e) => (Err(e), Execs::default()),
    }
}

/// Estimates the cost of running `p` on `cfg` through the process-wide
/// [`CostEngine`] — the production entry point, bit-for-bit pinned to
/// [`crate::estimate_cost_reference`].
///
/// # Errors
///
/// As [`crate::estimate_cost_reference`]: [`CostError::InstanceBudget`]
/// when the simulated instance budget is exhausted (the harness reports
/// this as a timeout), [`CostError::Unbound`] for malformed programs and
/// [`CostError::Overflow`] for arrays or subscripts too large to lay out.
pub fn estimate_cost(p: &Program, cfg: &MachineConfig) -> Result<CostReport, CostError> {
    CostEngine::global().estimate(p, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::estimate_cost_reference;
    use looprag_ir::compile;

    /// Renders every bit of a cost result, so equality of the strings
    /// is bitwise equality of the reports (f64s via their bit patterns).
    fn bits(r: &Result<CostReport, CostError>) -> String {
        match r {
            Ok(r) => format!(
                "{:016x}|{:016x},{:016x},{:016x},{:016x},{:016x}|{}|{}|{}|{}|{:?}|{}",
                r.cycles.to_bits(),
                r.breakdown.alu.to_bits(),
                r.breakdown.l1.to_bits(),
                r.breakdown.l2.to_bits(),
                r.breakdown.mem.to_bits(),
                r.breakdown.ovh.to_bits(),
                r.instances,
                r.l1_hits,
                r.l2_hits,
                r.mem_accesses,
                r.vectorized,
                r.parallel_entries,
            ),
            Err(e) => format!("err:{e:?}"),
        }
    }

    fn pin(src: &str, cfg: &MachineConfig) -> CostEngineStats {
        let p = compile(src, "t").unwrap();
        let engine = CostEngine::new();
        let fresh = engine.estimate(&p, cfg);
        let reference = estimate_cost_reference(&p, cfg);
        assert_eq!(bits(&fresh), bits(&reference), "fresh vs reference");
        let hit = engine.estimate(&p, cfg);
        assert_eq!(bits(&hit), bits(&reference), "cache hit vs reference");
        let stats = engine.stats();
        assert_eq!(stats.cost_hits, 1);
        assert_eq!(stats.cost_misses, 1);
        stats
    }

    /// Empty nests, which the synthesizer emits, charge only their
    /// headers: the engine replays them, the reference sums each empty
    /// body in closed form, and both agree bit for bit, also when the
    /// budget runs out after the first empty nest.
    #[test]
    fn empty_nests_pin_to_reference() {
        let src = "param N = 1024;\narray A[N];\nout A;\n#pragma scop\nfor (i = 0; i <= N - 1; i++) {\n  for (j = 0; j <= N - 1; j++) {\n    for (k = 0; k <= N - 1; k++) {\n    }\n  }\n  A[i] = A[i] + 1.0;\n}\n#pragma endscop\n";
        pin(src, &MachineConfig::gcc());
        let mut starved = MachineConfig::gcc();
        starved.instance_budget = 1;
        pin(src, &starved);
    }

    /// An outer time loop whose body never reads `t`: the canonical
    /// steady-state shape (jacobi-style).
    const TIME_STENCIL: &str = "param T = 200;\nparam N = 400;\narray A[N];\narray B[N];\nout A;\n#pragma scop\nfor (t = 0; t <= T - 1; t++) { for (i = 1; i <= N - 2; i++) B[i] = (A[i - 1] + A[i] + A[i + 1]) / 3.0; for (i = 1; i <= N - 2; i++) A[i] = B[i]; }\n#pragma endscop\n";

    /// Same shape but the body reads `fict[t]`: state recurrence no
    /// longer implies periodicity, so the memoizer must stay off.
    const TIME_DEPENDENT: &str = "param T = 200;\nparam N = 400;\narray A[N];\narray F[T];\nout A;\n#pragma scop\nfor (t = 0; t <= T - 1; t++) { for (i = 1; i <= N - 2; i++) A[i] = A[i] + F[t]; }\n#pragma endscop\n";

    #[test]
    fn steady_stencil_is_memoized_and_pinned() {
        let stats = pin(TIME_STENCIL, &MachineConfig::gcc());
        assert!(stats.steady_loops > 0, "time loop should fast-forward");
        assert!(stats.iters_replayed > 0);
    }

    #[test]
    fn iterator_dependent_body_is_not_memoized_but_pinned() {
        let stats = pin(TIME_DEPENDENT, &MachineConfig::clang());
        assert_eq!(
            stats.steady_loops, 0,
            "a body reading F[t] must not be fast-forwarded"
        );
    }

    #[test]
    fn budget_exhaustion_mid_replay_is_pinned() {
        // Budgets that exhaust before, during and after the time loop's
        // steady state all pin (Err and Ok cases both bitwise).
        for budget in [500u64, 5_000, 40_000, 100_000, 1_000_000] {
            let mut cfg = MachineConfig::gcc();
            cfg.instance_budget = budget;
            pin(TIME_STENCIL, &cfg);
        }
    }

    #[test]
    fn fingerprint_separates_configs() {
        let gcc = MachineConfig::gcc();
        assert_eq!(gcc.fingerprint(), MachineConfig::gcc().fingerprint());
        assert_ne!(gcc.fingerprint(), MachineConfig::clang().fingerprint());
        let mut tweaked = MachineConfig::gcc();
        tweaked.instance_budget -= 1;
        assert_ne!(gcc.fingerprint(), tweaked.fingerprint());
        // And the engine keys on it: same program, different budget,
        // different (cached) results.
        let p = compile(TIME_STENCIL, "t").unwrap();
        let engine = CostEngine::new();
        let full = engine.estimate(&p, &gcc);
        let mut tiny = MachineConfig::gcc();
        tiny.instance_budget = 500;
        let starved = engine.estimate(&p, &tiny);
        assert!(full.is_ok());
        assert_eq!(starved, Err(CostError::InstanceBudget));
        assert_eq!(engine.stats().cost_misses, 2);
    }

    #[test]
    fn parallel_variants_share_one_analysis() {
        let p = compile(TIME_STENCIL, "t").unwrap();
        let par = looprag_transform::parallelize(&p, &[0, 0]).unwrap();
        let cfg = MachineConfig::gcc();
        let engine = CostEngine::new();
        let plain = engine.estimate(&p, &cfg);
        assert_eq!(bits(&plain), bits(&estimate_cost_reference(&p, &cfg)));
        let marked = engine.estimate(&par, &cfg);
        assert_eq!(bits(&marked), bits(&estimate_cost_reference(&par, &cfg)));
        let deps = engine.deps(&par);
        let stats = engine.stats();
        assert_eq!(stats.cost_misses, 2);
        assert_eq!(stats.deps_computed, 1, "parallel marks must not re-analyze");
        assert_eq!(stats.deps_reused, 2);
        assert!(*deps == analyze_for(&p, Purpose::Transform));
    }

    /// Estimates `p` and then each of `marked` on one engine, pins every
    /// report to the reference, and returns the walks the marked forms
    /// added.
    fn marked_walks(p: &Program, marked: &[Program], cfg: &MachineConfig) -> u64 {
        let engine = CostEngine::new();
        let plain = engine.estimate(p, cfg);
        assert_eq!(bits(&plain), bits(&estimate_cost_reference(p, cfg)));
        let before = engine.stats().walks;
        for m in marked {
            let got = engine.estimate(m, cfg);
            assert_eq!(bits(&got), bits(&estimate_cost_reference(m, cfg)));
        }
        engine.stats().walks - before
    }

    /// An outer loop walked trip by trip over a 2-deep nest and a
    /// triangular loop that is empty for `i > 20`.
    const NEST: &str = "param N = 40;\narray A[N][N][N];\narray B[N][N];\nout A;\n#pragma scop\nfor (i = 0; i <= N - 1; i++) { for (j = 0; j <= N - 1; j++) for (k = 0; k <= N - 1; k++) A[i][j][k] = A[i][j][k] + B[j][k]; for (j = i; j <= 20; j++) B[i][j] = B[i][j] * 0.5; }\n#pragma endscop\n";

    fn par(p: &Program, paths: &[&[usize]]) -> Program {
        paths.iter().fold(p.clone(), |q, path| {
            looprag_transform::parallelize(&q, path).unwrap()
        })
    }

    #[test]
    fn shallow_marks_are_priced_and_the_rest_walk() {
        let p = compile(NEST, "nest").unwrap();
        let shallow = [
            par(&p, &[&[0]]),
            par(&p, &[&[0, 0]]),
            par(&p, &[&[0, 1]]),
            par(&p, &[&[0, 0], &[0, 1]]),
            par(&p, &[&[0], &[0, 0, 0]]),
        ];
        let gcc = MachineConfig::gcc();
        assert_eq!(marked_walks(&p, &shallow, &gcc), 0);
        // The empty executions of `[0, 1]` are no parallel entries.
        let engine = CostEngine::new();
        assert_eq!(
            engine.estimate(&shallow[2], &gcc).unwrap().parallel_entries,
            21
        );
        // A starved walk fails, and so does every marked form, unwalked.
        let mut starved = MachineConfig::gcc();
        starved.instance_budget = 5_000;
        assert_eq!(marked_walks(&p, &shallow, &starved), 0);
        // A mark at depth 2 walks.
        assert_eq!(marked_walks(&p, &[par(&p, &[&[0, 0, 0]])], &gcc), 1);
        // So does a mark under a guard.
        let shifted = looprag_transform::shift(&p, &[0], 1, 1).unwrap();
        let guarded = par(&shifted, &[&[0, 1, 0]]);
        assert_eq!(marked_walks(&shifted, &[guarded], &gcc), 1);
    }

    #[test]
    fn marks_under_a_steady_loop_or_past_the_cap_walk() {
        // The time loop takes the steady-state path, which records no
        // body: its own mark is priced, its nests' marks walk.
        let p = compile(TIME_STENCIL, "t").unwrap();
        let gcc = MachineConfig::gcc();
        assert_eq!(marked_walks(&p, &[par(&p, &[&[0]])], &gcc), 0);
        assert_eq!(marked_walks(&p, &[par(&p, &[&[0, 1]])], &gcc), 1);
        // 5000 trips of a one-loop body pass the record's cap: the
        // outer mark is priced, the inner one walks.
        let long = "param N = 5000;\narray A[N][2];\nout A;\n#pragma scop\nfor (i = 0; i <= N - 1; i++) for (j = 0; j <= 1; j++) A[i][j] = A[i][j] + 1.0;\n#pragma endscop\n";
        let p = compile(long, "long").unwrap();
        assert_eq!(marked_walks(&p, &[par(&p, &[&[0]])], &gcc), 0);
        assert_eq!(marked_walks(&p, &[par(&p, &[&[0, 0]])], &gcc), 1);
        let short = long.replace("N = 5000", "N = 4000");
        let p = compile(&short, "short").unwrap();
        assert_eq!(marked_walks(&p, &[par(&p, &[&[0, 0]])], &gcc), 0);
    }

    #[test]
    fn clear_resets_caches_and_stats() {
        let p = compile(TIME_STENCIL, "t").unwrap();
        let cfg = MachineConfig::gcc();
        let engine = CostEngine::new();
        let first = engine.estimate(&p, &cfg);
        engine.clear();
        assert_eq!(engine.stats(), CostEngineStats::default());
        let second = engine.estimate(&p, &cfg);
        assert_eq!(bits(&first), bits(&second));
        assert_eq!(engine.stats().cost_misses, 1, "post-clear call recomputes");
    }
}

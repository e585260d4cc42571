//! The memoizing cost engine: fast cost estimation, bit-for-bit pinned
//! to [`estimate_cost_reference`](crate::estimate_cost_reference).
//!
//! Four layers make estimates cheap without changing a single bit of
//! any result:
//!
//! 1. **A flat simulator and integer-exact leaf loops.** The walker
//!    simulates on the engine-private `flat_cache` (one `Vec<u64>` of
//!    `sets × assoc` tags per level, most recently used first, shift
//!    and mask indexing where the geometry allows), not on the
//!    reference [`Hierarchy`](crate::Hierarchy), so the pin against the
//!    reference also cross-checks the two simulators. Statement costs
//!    are built once from integer hit counts, and a loop whose body is
//!    only statements runs one tight loop over per-access index
//!    cursors with `u64` accumulators, converted to `f64` at the end.
//!    Exactness: below a loop's vector or parallel division — the
//!    first operation that can produce a fraction — every quantity the
//!    reference adds is an integer-valued `f64` (header charges, ALU
//!    counts, latencies). While every partial sum stays within 2^53,
//!    each of those additions is exact, so the result is the
//!    mathematical integer total whatever the order or grouping of
//!    the additions. `leaf_plan` bounds every partial sum of a leaf
//!    loop before taking the integer path, and loops whose bound could
//!    reach 2^53 keep the per-statement additions.
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
//!
//! Fresh estimates report their work units to the metrics registry:
//! `cost.instances_simulated` and `cost.accesses_simulated` count the
//! statement instances and accesses actually simulated, so replayed
//! iterations and cache hits add nothing.

use crate::flat_cache::{FlatHierarchy, FlatState};
use crate::model::{lower_for_cost, CostError, CostReport, CostVec, LAccess, LNode, MachineConfig};
use looprag_dependence::{analyze_for, DependenceSet, Purpose};
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
    /// Statement instances and accesses advanced by replay rather than
    /// simulated.
    instances_replayed: u64,
    accesses_replayed: u64,
    /// Scratch for [`MemoModel::run_leaf`], reused across leaf loops.
    cursors: Vec<Cursor>,
    /// Per loop node (keyed by its address in the lowered tree, which
    /// is stable for the walk's lifetime): executions that completed
    /// without a recurrence. At [`STEADY_FAILURE_CAP`] the node runs
    /// naively with zero snapshot overhead forever after.
    steady_failures: HashMap<usize, u32>,
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
            accesses_replayed: 0,
            cursors: Vec::new(),
            steady_failures: HashMap::new(),
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
            LNode::Loop {
                slot,
                lb,
                ub,
                inclusive,
                step,
                parallel,
                vec_factor,
                header_ovh,
                body_invariant,
                body,
            } => {
                let lbv = lb.eval(&self.iters);
                let mut ubv = ub.eval(&self.iters);
                if !inclusive {
                    ubv -= 1;
                }
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
                let node_key = n as *const LNode as usize;
                let range = (*slot, lbv, ubv, *step);
                let res = if *body_invariant
                    && trips >= MIN_STEADY_TRIPS
                    && self.steady_failures.get(&node_key).copied().unwrap_or(0)
                        < STEADY_FAILURE_CAP
                {
                    self.run_loop_steady(node_key, range, trips, header, body)
                } else if let Some(plan) = leaf_plan(self.cfg, range, *header_ovh, body) {
                    self.run_leaf(range, body, plan)
                } else {
                    self.run_loop_naive(range, header, body)
                };
                if parallel_here {
                    self.in_parallel = false;
                }
                let mut body_cost = res?;
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

    fn run_loop_naive(
        &mut self,
        (slot, lbv, ubv, step): LoopRange,
        header: f64,
        body: &[LNode],
    ) -> Result<CostVec, CostError> {
        let mut body_cost = CostVec::default();
        let mut v = lbv;
        while v <= ubv {
            self.iters[slot] = v;
            body_cost.ovh += header;
            body_cost.add(self.visit_nodes(body)?);
            v += step;
        }
        Ok(body_cost)
    }

    /// The integer-exact path for a loop whose body is only statements
    /// (see [`leaf_plan`] for when it applies and why it is exact).
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
    /// linear index advances by a constant per iteration; a cursor per
    /// access replaces re-evaluating its linear form. The cursors use
    /// wrapping arithmetic — arithmetic modulo 2^64 — so they agree with
    /// the linear form's evaluation whenever that does not overflow, and
    /// with its release-build wraparound when it does.
    fn run_leaf(
        &mut self,
        (slot, lbv, _, step): LoopRange,
        body: &[LNode],
        plan: LeafPlan,
    ) -> Result<CostVec, CostError> {
        // Every iteration runs every statement once, so the naive walk
        // exhausts the budget inside this loop iff the loop's instance
        // total exceeds what is left. The error discards every number,
        // so raising it before simulating anything is faithful.
        let total = plan.trips as u128 * plan.stmts as u128;
        if self.instances as u128 + total > self.cfg.instance_budget as u128 {
            return Err(CostError::InstanceBudget);
        }
        self.iters[slot] = lbv;
        let mut cursors = std::mem::take(&mut self.cursors);
        cursors.clear();
        for n in body {
            if let LNode::Stmt { accesses, .. } = n {
                cursors.extend(
                    accesses
                        .iter()
                        .map(|a| Cursor::new(a, &self.iters, slot, step)),
                );
            }
        }
        let (l1, l2, mem) = (
            self.caches.l1_hits,
            self.caches.l2_hits,
            self.caches.mem_accesses,
        );
        for _ in 0..plan.trips {
            for c in &mut cursors {
                let flat = c.flat.clamp(0, c.max_flat);
                self.caches.access(c.base + flat as u64 * 8);
                c.flat = c.flat.wrapping_add(c.delta);
            }
        }
        self.cursors = cursors;
        // Leave the iterator at its last value, as the naive loop does.
        self.iters[slot] = lbv + (plan.trips as i64 - 1) * step;
        self.instances += total as u64;
        let cfg = self.cfg;
        Ok(CostVec {
            alu: (plan.trips * plan.alu) as f64,
            l1: ((self.caches.l1_hits - l1) * cfg.lat_l1) as f64,
            l2: ((self.caches.l2_hits - l2) * cfg.lat_l2) as f64,
            mem: ((self.caches.mem_accesses - mem) * cfg.lat_mem) as f64,
            ovh: (plan.trips * plan.header_ovh) as f64,
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
        self.accesses_replayed += self.caches.accesses() - accesses;

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

/// One leaf-loop execution's shape: its trip count and per-iteration
/// totals.
#[derive(Clone, Copy)]
struct LeafPlan {
    trips: u64,
    /// Statements per iteration.
    stmts: u64,
    /// ALU cycles per iteration.
    alu: u64,
    /// Header cycles per iteration.
    header_ovh: u64,
}

/// An access's linear index inside a leaf loop, advanced per iteration.
struct Cursor {
    flat: i64,
    delta: i64,
    base: u64,
    max_flat: i64,
}

impl Cursor {
    /// The cursor for `a` at the current iteration vector, advancing by
    /// `step` on iterator `slot`.
    fn new(a: &LAccess, iters: &[i64], slot: usize, step: i64) -> Cursor {
        let (mut flat, mut delta) = (a.linear.constant, 0i64);
        for &(s, coeff) in &a.linear.terms {
            flat = flat.wrapping_add(coeff.wrapping_mul(iters[s]));
            if s == slot {
                delta = delta.wrapping_add(coeff.wrapping_mul(step));
            }
        }
        Cursor {
            flat,
            delta,
            base: a.base,
            max_flat: a.max_flat,
        }
    }
}

/// Plans the integer-exact path for one execution of a loop whose body
/// is only statements (`None` for any other loop).
///
/// Below the loop's vector or parallel division — the first operation
/// that can produce a fraction — every quantity the naive walk adds is
/// an integer-valued `f64`: header charges, statement ALU counts and
/// latencies. The walk's partial sums per component are bounded by the
/// component's loop total, and every loop total is at most
/// `trips × (header + Σ over statements of (alu + accesses × max
/// latency))`. When that bound is within [`F64_EXACT`], every addition
/// is exact, so integer accumulation yields the identical bits in any
/// order. The bound is computed, not configured: where it could reach
/// 2^53 — absurd latencies, trip counts or ALU weights — the loop takes
/// the per-statement path instead.
fn leaf_plan(
    cfg: &MachineConfig,
    (_, lbv, ubv, step): LoopRange,
    header_ovh: u64,
    body: &[LNode],
) -> Option<LeafPlan> {
    // The trip count, computed without overflow, and a last increment
    // that cannot overflow either — otherwise the naive `while` loop's
    // iteration count is not this closed form.
    if step <= 0 || body.is_empty() || ubv.checked_add(step).is_none() {
        return None;
    }
    let trips = u64::try_from(ubv.checked_sub(lbv)? / step).ok()? + 1;
    let max_lat = u128::from(cfg.lat_l1.max(cfg.lat_l2).max(cfg.lat_mem));
    let mut plan = LeafPlan {
        trips,
        stmts: 0,
        alu: 0,
        header_ovh,
    };
    let mut per_iter = u128::from(header_ovh);
    for n in body {
        let LNode::Stmt { alu, accesses } = n else {
            return None;
        };
        plan.stmts += 1;
        plan.alu = plan.alu.checked_add(*alu)?;
        per_iter = per_iter
            .saturating_add(u128::from(*alu))
            .saturating_add((accesses.len() as u128).saturating_mul(max_lat));
    }
    (u128::from(trips).saturating_mul(per_iter) <= u128::from(F64_EXACT)).then_some(plan)
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
    /// Array accesses the walker fed through the cache simulator
    /// (replayed ones excluded).
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
    stats: CostEngineStats,
}

/// The memoizing, cross-stage cost engine. See the module docs for the
/// four layers; the determinism contract is that every result is
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
        let deps = self.deps_under(p, &deps_key(p, &key.1));
        let report = compute_fresh(p, cfg, &deps, self);
        let mut inner = self.inner.lock().expect("cost engine lock");
        if inner.costs.len() >= COST_CACHE_CAP {
            inner.costs.clear();
        }
        inner.costs.insert(key, report.clone());
        report
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

    /// Drops every cached cost and dependence set and zeroes the stats.
    pub fn clear(&self) {
        let mut inner = self.inner.lock().expect("cost engine lock");
        inner.costs.clear();
        inner.deps.clear();
        inner.stats = CostEngineStats::default();
    }
}

/// The dependence-cache key of `p`, whose printed form is `printed`:
/// the printed form of `p` with every parallel mark removed.
fn deps_key<'a>(p: &Program, printed: &'a str) -> Cow<'a, str> {
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
    if !has_parallel_loop(p) {
        return Cow::Borrowed(printed);
    }
    let mut q = p.clone();
    unmark(&mut q.body);
    Cow::Owned(print_program(&q))
}

/// One fresh estimate through the memoizing walker, folding the
/// steady-state and work-unit counters into the engine's stats.
fn compute_fresh(
    p: &Program,
    cfg: &MachineConfig,
    deps: &DependenceSet,
    engine: &CostEngine,
) -> Result<CostReport, CostError> {
    let prepared = lower_for_cost(p, cfg, deps)?;
    let mut model = MemoModel::new(cfg);
    let walked = model.visit_nodes(&prepared.lowered);
    let instances = model.instances - model.instances_replayed;
    let accesses = model.caches.accesses() - model.accesses_replayed;
    {
        let mut inner = engine.inner.lock().expect("cost engine lock");
        let stats = &mut inner.stats;
        stats.steady_loops += model.steady_loops;
        stats.iters_replayed += model.iters_replayed;
        stats.instances_simulated += instances;
        stats.accesses_simulated += accesses;
        let metrics = engine_metrics();
        metrics.steady_loops.add(model.steady_loops);
        metrics.iters_replayed.add(model.iters_replayed);
        metrics.instances_simulated.add(instances);
        metrics.accesses_simulated.add(accesses);
    }
    let breakdown = walked?;
    Ok(model.report(breakdown, prepared.vectorized))
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

//! # looprag-search
//!
//! A deterministic, legality-guided beam search over [`Recipe`] space —
//! the explicit-search complement to the LLM pipeline (and the third
//! campaign arm next to pipeline/PLuTo/compiler baselines).
//!
//! The engine runs an **elitist beam search**: the frontier is the best
//! `beam` programs found so far (the population-carrying formulation
//! compiler autotuners use, so one bad generation cannot evict a good
//! node). Per level it expands the frontier nodes not yet expanded:
//! steps enumerate through the [`looprag_transform::enumerate_steps`]
//! catalog, are pruned with dependence legality queries **before ever
//! being applied**, survivors are deduped against every program ever
//! admitted (canonical printed form) and scored through the shared
//! [`looprag_machine::CostEngine`] (cross-stage cost cache + dependence
//! reuse, bit-for-bit pinned to the reference model); then frontier ∪
//! newcomers is re-ranked and cut back to `beam`. When every frontier
//! node has already been expanded the search has reached a fixpoint and
//! stops.
//!
//! ## Determinism contract
//!
//! Results are a pure function of `(program, SearchConfig)`:
//!
//! * frontier expansion and candidate scoring shard across the
//!   [`looprag_runtime`] pool with an order-preserving merge, and every
//!   dedup/selection decision is taken sequentially, so results are
//!   bit-identical at any pool size;
//! * ranking orders by `(cost via total_cmp, admission index)`, so
//!   float ties cannot reorder;
//! * the engine is pinned bit-for-bit against [`search_reference`], a
//!   naive searcher with the same selection semantics that re-expands
//!   every frontier node every level, applies every catalog step before
//!   knowing whether it is legal, scores every applied candidate from
//!   scratch, and re-runs the dependence analysis for every single
//!   legality query (the `perf_snapshot` search row requires the
//!   optimized engine to beat it by >= 3x on the same frontier).
//!
//! ## Memoization layers
//!
//! * **node table**: program-hash → (cost, recipe, expansion state) for
//!   every admitted program — a duplicate candidate is never re-scored,
//!   and a frontier node that survives into the next generation is
//!   never re-expanded;
//! * **dependences**: the cost engine is the one dependence cache. A
//!   node's legality queries use [`CostEngine::deps`], which returns the
//!   set the engine already computed when it scored the node, and a
//!   child of a parallelization step shares its parent's entry (the
//!   engine keys sets without parallel marks, which the analyzer
//!   ignores). The engine's [`looprag_machine::CostEngineStats`] count
//!   the analyses a search runs.
//!
//! ```
//! use looprag_machine::CostEngine;
//! use looprag_search::{search_with_engine, SearchConfig};
//! let p = looprag_ir::compile(
//!     "param N = 4096;\narray A[N];\narray B[N];\nout A;\n#pragma scop\n\
//!      for (i = 0; i <= N - 1; i++) A[i] = B[i] + 1.0;\n#pragma endscop\n",
//!     "stream",
//! )?;
//! let cfg = SearchConfig { beam: 2, depth: 1, ..SearchConfig::default() };
//! let found = search_with_engine(&p, &cfg, CostEngine::global());
//! assert!(found.speedup > 1.0, "a stream loop parallelizes");
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

mod legality;

pub use legality::step_legal;

use looprag_dependence::{analyze_for, Purpose};
use looprag_ir::{print_program, Program};
use looprag_machine::{estimate_cost_reference, CostEngine, MachineConfig};
use looprag_runtime::{par_map, resolve_threads};
use looprag_transform::{
    enumerate_steps, enumerate_steps_into, Recipe, Step, StepGrid, StepGridPlan,
};
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::OnceLock;

/// Process-wide count of node expansions performed by
/// [`search_with_engine`] and [`search_reference`] combined, registered
/// as `search.expansions` in the [`looprag_trace::metrics`] registry.
///
/// This exists so callers can *prove* a code path never ran the search:
/// snapshot the registry before and after and assert the counter's
/// delta is zero. The serve layer's verified-winner memo uses exactly
/// that assertion.
fn expansion_counter() -> &'static looprag_trace::Counter {
    static C: OnceLock<looprag_trace::Counter> = OnceLock::new();
    C.get_or_init(|| looprag_trace::metrics().counter("search.expansions"))
}

/// Search configuration.
#[derive(Debug, Clone)]
pub struct SearchConfig {
    /// Frontier width: the best `beam` programs found so far.
    pub beam: usize,
    /// Maximum number of expansion levels (so recipes grow to at most
    /// `depth` steps).
    pub depth: usize,
    /// The step-enumeration grid.
    pub grid: StepGrid,
    /// Machine model scoring the candidates. (The hybrid pipeline arm
    /// overrides this with the pipeline's own machine, so the winner is
    /// optimized for the model it will be ranked under.)
    pub machine: MachineConfig,
    /// Worker-pool size for expansion and scoring (0 = auto:
    /// `LOOPRAG_THREADS`, then available parallelism). Results are
    /// identical at any pool size. (Also pipeline-overridden in the
    /// hybrid arm.)
    pub threads: usize,
}

impl Default for SearchConfig {
    fn default() -> Self {
        SearchConfig {
            beam: 4,
            depth: 3,
            grid: StepGrid::default(),
            machine: MachineConfig::gcc(),
            threads: 0,
        }
    }
}

impl SearchConfig {
    /// A canonical fingerprint of every outcome-relevant field. The pool
    /// size is deliberately **excluded**: results are bit-identical at
    /// any `threads`, so a memo entry computed at one pool size must hit
    /// at another. The serve layer folds this into its memo key.
    pub fn fingerprint(&self) -> String {
        // Exhaustive destructuring: adding a field without deciding
        // whether it belongs in the fingerprint is a compile error.
        let SearchConfig {
            beam,
            depth,
            grid,
            machine,
            threads: _, // no effect on results, by the determinism contract
        } = self;
        let StepGrid {
            tile_sizes,
            max_tile_depth,
            skew_factors,
            retile,
        } = grid;
        let join = |xs: &[i64]| {
            xs.iter()
                .map(|x| x.to_string())
                .collect::<Vec<_>>()
                .join(",")
        };
        format!(
            "search:b{beam}|d{depth}|ts[{}]|mtd{max_tile_depth}|sk[{}]|rt{retile}|{}",
            join(tile_sizes),
            join(skew_factors),
            machine.fingerprint(),
        )
    }
}

/// Work counters, for the perf snapshot and engine/reference
/// cross-checks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Node expansions performed (the engine expands each node at most
    /// once; the reference re-expands carried frontier nodes per level).
    pub nodes_expanded: usize,
    /// Frontier slots whose re-expansion the node table skipped (always
    /// 0 for the reference searcher).
    pub expansions_reused: usize,
    /// Catalog steps enumerated over all expansions.
    pub steps_enumerated: usize,
    /// Step-grid plans built ([`looprag_transform::StepGridPlan`]):
    /// exactly one per search, not one per expanded node — pinned by a
    /// regression test so the hoist cannot silently regress.
    pub grid_plans: usize,
    /// Steps rejected by the legality predicate.
    pub pruned_illegal: usize,
    /// Steps actually applied (tree rewrites performed).
    pub applied: usize,
    /// Unique legal candidates admitted to the node table.
    pub admitted: usize,
    /// Cost-model scoring calls (engine-cached for the optimized
    /// searcher, full `estimate_cost_reference` runs for the reference).
    pub scored: usize,
    /// Candidates skipped as structural duplicates of an already-scored
    /// program (each one is a rescoring the node-table memo avoided).
    pub dedup_skips: usize,
    /// Dependence analyses the searcher ran itself: one per legality
    /// query for the reference, always 0 for [`search_with_engine`],
    /// whose sets come from the cost engine and are counted in its
    /// [`looprag_machine::CostEngineStats::deps_computed`].
    pub deps_computed: usize,
}

impl std::ops::AddAssign for SearchStats {
    fn add_assign(&mut self, rhs: SearchStats) {
        // Exhaustive destructuring: adding a counter without summing it
        // here is a compile error, so aggregations cannot drift.
        let SearchStats {
            nodes_expanded,
            expansions_reused,
            steps_enumerated,
            grid_plans,
            pruned_illegal,
            applied,
            admitted,
            scored,
            dedup_skips,
            deps_computed,
        } = rhs;
        self.nodes_expanded += nodes_expanded;
        self.expansions_reused += expansions_reused;
        self.steps_enumerated += steps_enumerated;
        self.grid_plans += grid_plans;
        self.pruned_illegal += pruned_illegal;
        self.applied += applied;
        self.admitted += admitted;
        self.scored += scored;
        self.dedup_skips += dedup_skips;
        self.deps_computed += deps_computed;
    }
}

/// Result of a search.
#[derive(Debug, Clone)]
pub struct SearchResult {
    /// The best recipe found (empty = the input program won).
    pub recipe: Recipe,
    /// The program the recipe produces (the input itself when empty).
    pub program: Program,
    /// Estimated cycles of the best program.
    pub cost: f64,
    /// Estimated cycles of the input program.
    pub base_cost: f64,
    /// `base_cost / cost` (1.0 for the identity recipe, 0.0 when the
    /// input program itself could not be costed).
    pub speedup: f64,
    /// Work counters.
    pub stats: SearchStats,
}

impl SearchResult {
    /// A canonical fingerprint covering everything the determinism
    /// contract pins: recipe, program text and exact cost bits.
    pub fn fingerprint(&self) -> String {
        format!(
            "{}\n{:016x}/{:016x}\n{}",
            self.recipe,
            self.cost.to_bits(),
            self.base_cost.to_bits(),
            print_program(&self.program)
        )
    }

    fn identity(p: &Program, cost: f64, stats: SearchStats) -> SearchResult {
        SearchResult {
            recipe: Recipe::new(),
            program: p.clone(),
            cost,
            base_cost: cost,
            speedup: if cost.is_finite() { 1.0 } else { 0.0 },
            stats,
        }
    }
}

/// Reference-path scoring: a fresh analysis and a naive simulation per
/// call, no caching of any kind.
fn cycles_of_reference(p: &Program, machine: &MachineConfig) -> f64 {
    estimate_cost_reference(p, machine)
        .map(|r| r.cycles)
        .unwrap_or(f64::INFINITY)
}

struct SearchNode {
    program: Program,
    recipe: Recipe,
    cost: f64,
    expanded: bool,
}

/// One node's expansion: the legal applied children (step, program,
/// printed form) plus the enumerated and legality-pruned step counts.
type Expansion = (Vec<(Step, Program, String)>, usize, usize);

thread_local! {
    /// Per-worker scratch for step enumeration: the family × param grid
    /// buffer is reused across every node a worker expands, so the
    /// per-node `Vec<Step>` allocation of the old `enumerate_steps`
    /// call is paid once per worker instead of once per expansion.
    static STEP_SCRATCH: RefCell<Vec<Step>> = const { RefCell::new(Vec::new()) };
}

/// Ranks `pool` (node indices) by `(cost, admission index)` and keeps
/// the best `beam`. Shared verbatim by engine and reference so the
/// selection semantics cannot drift apart.
fn select_frontier(pool: &mut Vec<usize>, costs: impl Fn(usize) -> f64, beam: usize) {
    pool.retain(|&i| costs(i).is_finite());
    pool.sort_by(|&a, &b| costs(a).total_cmp(&costs(b)).then(a.cmp(&b)));
    pool.truncate(beam);
}

/// The optimized engine: legality-pruned, memoized, sharded elitist
/// beam search, scoring through `engine`.
///
/// Pass [`CostEngine::global`] so repeated searches (and the pipeline
/// scoring the same candidates) share one cross-stage cache; the
/// legality queries read the dependence sets the engine computed while
/// scoring. An isolated [`CostEngine::new`] instance exists for fair
/// timing (the `perf_snapshot` search row gives each kernel a fresh
/// engine, so no search scores against a cache an earlier one warmed).
/// Results are bit-identical either way — cached and fresh engine
/// estimates are pinned equal.
pub fn search_with_engine(p: &Program, cfg: &SearchConfig, engine: &CostEngine) -> SearchResult {
    search_with_engine_traced(p, cfg, engine, None)
}

/// [`search_with_engine`] with tracing: level spans, per-node expansion
/// events and admission/prune measurements recorded into `rec`. `None`
/// is a guaranteed no-op and the result is byte-identical either way —
/// tracing only observes.
pub fn search_with_engine_traced(
    p: &Program,
    cfg: &SearchConfig,
    engine: &CostEngine,
    rec: Option<&looprag_trace::Recorder>,
) -> SearchResult {
    let threads = resolve_threads(cfg.threads);
    let beam = cfg.beam.max(1);
    let mut stats = SearchStats::default();
    // The enumeration grid is planned once per search and shared by
    // every expansion (a per-node cost before).
    let plan = StepGridPlan::new(&cfg.grid);
    stats.grid_plans += 1;
    let base_cost = engine
        .estimate(p, &cfg.machine)
        .map(|r| r.cycles)
        .unwrap_or(f64::INFINITY);
    stats.scored += 1;
    looprag_trace::instant(rec, "search.root", || {
        format!("beam={beam} depth={} base_cost={base_cost:.4}", cfg.depth)
    });
    if !base_cost.is_finite() {
        return SearchResult::identity(p, base_cost, stats);
    }
    // Node table: every program ever admitted, in admission order. The
    // index doubles as the ranking tie-break; `by_printed` is the
    // program-hash → node (and thus → cost) memo.
    let mut nodes: Vec<SearchNode> = vec![SearchNode {
        program: p.clone(),
        recipe: Recipe::new(),
        cost: base_cost,
        expanded: false,
    }];
    let mut by_printed: HashMap<String, usize> = HashMap::new();
    by_printed.insert(print_program(p), 0);
    let mut best = 0usize;
    let mut frontier: Vec<usize> = vec![0];

    for level in 0..cfg.depth {
        let to_expand: Vec<usize> = frontier
            .iter()
            .copied()
            .filter(|&i| !nodes[i].expanded)
            .collect();
        stats.expansions_reused += frontier.len() - to_expand.len();
        if to_expand.is_empty() {
            // Every frontier node is expanded and nothing displaced it:
            // the search reached its fixpoint.
            looprag_trace::instant(rec, "search.fixpoint", || format!("level={level}"));
            break;
        }
        let _level_span = looprag_trace::span(rec, "search.level", || {
            format!(
                "level={level} frontier={} expand={}",
                frontier.len(),
                to_expand.len()
            )
        });

        // Expansion: fetch the node's dependence set from the engine,
        // enumerate (into the worker's reusable scratch buffer),
        // legality-prune (before applying!), apply, print. Pure per
        // node, so it shards with an order-preserving merge.
        let expansions: Vec<Expansion> = par_map(threads, &to_expand, |_, &ni| {
            let n = &nodes[ni];
            let deps = engine.deps(&n.program);
            STEP_SCRATCH.with_borrow_mut(|steps| {
                enumerate_steps_into(&n.program, &plan, steps);
                let mut pruned = 0usize;
                let mut kids = Vec::new();
                for step in steps.iter() {
                    if !step_legal(&n.program, &deps, step) {
                        pruned += 1;
                        continue;
                    }
                    if let Ok(prog) = step.apply(&n.program) {
                        let printed = print_program(&prog);
                        kids.push((step.clone(), prog, printed));
                    }
                }
                (kids, steps.len(), pruned)
            })
        });
        stats.nodes_expanded += to_expand.len();
        expansion_counter().add(to_expand.len() as u64);

        // Sequential merge: admit first occurrences of never-seen
        // programs to the node table.
        let mut admitted: Vec<usize> = Vec::new();
        for (&from, (kids, total, pruned)) in to_expand.iter().zip(expansions) {
            looprag_trace::instant(rec, "search.expand", || {
                format!(
                    "node={from} kids={} enumerated={total} illegal={pruned}",
                    kids.len()
                )
            });
            stats.steps_enumerated += total;
            stats.pruned_illegal += pruned;
            stats.applied += kids.len();
            for (step, program, printed) in kids {
                if by_printed.contains_key(&printed) {
                    stats.dedup_skips += 1;
                    continue;
                }
                let idx = nodes.len();
                by_printed.insert(printed, idx);
                let mut recipe = nodes[from].recipe.clone();
                recipe.steps.push(step);
                nodes.push(SearchNode {
                    program,
                    recipe,
                    cost: f64::NAN,
                    expanded: false,
                });
                admitted.push(idx);
            }
            nodes[from].expanded = true;
        }
        stats.admitted += admitted.len();
        looprag_trace::value(rec, "search.admitted", admitted.len() as i64, String::new);

        // Score the newcomers through the shared engine, sharded.
        // Cached and fresh engine results are bitwise equal, so sharding
        // stays deterministic at any pool size.
        let scored = par_map(threads, &admitted, |_, &i| {
            engine
                .estimate(&nodes[i].program, &cfg.machine)
                .map(|r| r.cycles)
                .unwrap_or(f64::INFINITY)
        });
        for (&i, c) in admitted.iter().zip(scored) {
            nodes[i].cost = c;
        }
        stats.scored += admitted.len();
        for &i in &admitted {
            if nodes[i].cost < nodes[best].cost {
                best = i;
            }
        }

        // Elitist re-ranking of frontier ∪ newcomers.
        let mut pool = frontier;
        pool.extend(admitted);
        select_frontier(&mut pool, |i| nodes[i].cost, beam);
        frontier = pool;
    }

    let node = &nodes[best];
    let speedup = if node.cost > 0.0 {
        base_cost / node.cost
    } else {
        0.0
    };
    looprag_trace::instant(rec, "search.result", || {
        format!(
            "steps={} cost={:.4} speedup={speedup:.4}",
            node.recipe.steps.len(),
            node.cost
        )
    });
    SearchResult {
        recipe: node.recipe.clone(),
        program: node.program.clone(),
        cost: node.cost,
        base_cost,
        speedup,
        stats,
    }
}

/// The naive reference searcher the engine is pinned against: strictly
/// sequential, re-expands every frontier node every level (no node
/// table), applies every catalog step before knowing whether it is
/// legal, estimates every applied candidate's cost from scratch, runs a
/// fresh dependence analysis for every single legality query, and
/// dedups by linear scans. Selection uses the exact comparator and
/// shared legality predicate of [`search_with_engine`], so its results
/// are bit-identical — only slower.
pub fn search_reference(p: &Program, cfg: &SearchConfig) -> SearchResult {
    let beam = cfg.beam.max(1);
    let mut stats = SearchStats::default();
    let base_cost = cycles_of_reference(p, &cfg.machine);
    stats.scored += 1;
    if !base_cost.is_finite() {
        return SearchResult::identity(p, base_cost, stats);
    }
    struct RefNode {
        program: Program,
        recipe: Recipe,
        printed: String,
        cost: f64,
    }
    // Admission-ordered list of every program admitted; looked up by
    // linear scans.
    let mut nodes: Vec<RefNode> = vec![RefNode {
        program: p.clone(),
        recipe: Recipe::new(),
        printed: print_program(p),
        cost: base_cost,
    }];
    let mut best = 0usize;
    let mut frontier: Vec<usize> = vec![0];

    for _level in 0..cfg.depth {
        struct Entry {
            from: usize,
            step: Step,
            program: Program,
            printed: String,
            cost: f64,
            legal: bool,
        }
        // Apply everything structurally possible, for every frontier
        // node — including ones already expanded in earlier levels.
        let mut entries: Vec<Entry> = Vec::new();
        for &fi in &frontier {
            let steps = enumerate_steps(&nodes[fi].program, &cfg.grid);
            stats.steps_enumerated += steps.len();
            for step in steps {
                if let Ok(program) = step.apply(&nodes[fi].program) {
                    entries.push(Entry {
                        from: fi,
                        step,
                        printed: print_program(&program),
                        program,
                        cost: f64::NAN,
                        legal: false,
                    });
                }
            }
        }
        stats.nodes_expanded += frontier.len();
        expansion_counter().add(frontier.len() as u64);
        stats.applied += entries.len();
        // Score everything, from scratch.
        for e in &mut entries {
            e.cost = cycles_of_reference(&e.program, &cfg.machine);
        }
        stats.scored += entries.len();
        // Filter by legality, re-analyzing the parent per query.
        for e in &mut entries {
            let parent = &nodes[e.from].program;
            let deps = analyze_for(parent, Purpose::Transform);
            stats.deps_computed += 1;
            e.legal = step_legal(parent, &deps, &e.step);
            if !e.legal {
                stats.pruned_illegal += 1;
            }
        }
        // Admit first occurrences of never-seen programs, in discovery
        // order (linear-scan dedup).
        let mut admitted: Vec<usize> = Vec::new();
        for e in entries {
            if !e.legal {
                continue;
            }
            if nodes.iter().any(|n| n.printed == e.printed) {
                stats.dedup_skips += 1;
                continue;
            }
            let idx = nodes.len();
            let mut recipe = nodes[e.from].recipe.clone();
            recipe.steps.push(e.step);
            nodes.push(RefNode {
                program: e.program,
                recipe,
                printed: e.printed,
                cost: e.cost,
            });
            admitted.push(idx);
        }
        stats.admitted += admitted.len();
        for &i in &admitted {
            if nodes[i].cost < nodes[best].cost {
                best = i;
            }
        }
        // Same elitist selection as the engine.
        let mut pool = frontier;
        pool.extend(admitted);
        select_frontier(&mut pool, |i| nodes[i].cost, beam);
        frontier = pool;
    }

    let node = &nodes[best];
    let speedup = if node.cost > 0.0 {
        base_cost / node.cost
    } else {
        0.0
    };
    SearchResult {
        recipe: node.recipe.clone(),
        program: node.program.clone(),
        cost: node.cost,
        base_cost,
        speedup,
        stats,
    }
}

/// The legality-filtered children of `p` — the exact candidate set the
/// pruner admits at one level — for tests that pin every admitted step
/// against the differential oracle.
pub fn admissible_children(p: &Program, grid: &StepGrid) -> Vec<(Step, Program)> {
    let deps = analyze_for(p, Purpose::Transform);
    enumerate_steps(p, grid)
        .into_iter()
        .filter(|s| step_legal(p, &deps, s))
        .filter_map(|s| s.apply(p).ok().map(|prog| (s, prog)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use looprag_ir::compile;

    fn stream() -> Program {
        compile(
            "param N = 4096;\narray A[N];\narray B[N];\nout A;\n#pragma scop\nfor (i = 0; i <= N - 1; i++) A[i] = B[i] + 1.0;\n#pragma endscop\n",
            "stream",
        )
        .unwrap()
    }

    fn small_cfg() -> SearchConfig {
        SearchConfig {
            beam: 3,
            depth: 2,
            threads: 1,
            ..SearchConfig::default()
        }
    }

    #[test]
    fn stream_loop_finds_a_real_speedup() {
        let p = stream();
        let r = search_with_engine(&p, &small_cfg(), CostEngine::global());
        assert!(r.speedup > 1.0, "speedup {}", r.speedup);
        assert!(!r.recipe.steps.is_empty());
        assert!((r.base_cost / r.cost - r.speedup).abs() < 1e-12);
    }

    #[test]
    fn engine_matches_reference_on_a_stencil() {
        let p = compile(
            "param N = 64;\narray A[N][N];\nout A;\n#pragma scop\nfor (i = 1; i <= N - 1; i++) for (j = 1; j <= N - 1; j++) A[i][j] = A[i - 1][j] + A[i][j - 1];\n#pragma endscop\n",
            "stencil",
        )
        .unwrap();
        let cfg = small_cfg();
        let engine = CostEngine::new();
        let e = search_with_engine(&p, &cfg, &engine);
        let r = search_reference(&p, &cfg);
        assert_eq!(e.fingerprint(), r.fingerprint());
        assert_eq!(e.stats.admitted, r.stats.admitted);
        // The reference must pay for its naivety in measurable work.
        assert!(r.stats.scored > e.stats.scored);
        assert_eq!(e.stats.deps_computed, 0);
        assert!(r.stats.deps_computed as u64 > engine.stats().deps_computed);
        assert!(r.stats.nodes_expanded >= e.stats.nodes_expanded);
    }

    #[test]
    fn recursion_only_admits_order_preserving_steps() {
        let p = compile(
            "param N = 256;\narray A[N];\nout A;\n#pragma scop\nfor (i = 1; i <= N - 1; i++) A[i] = A[i - 1] + 1.0;\n#pragma endscop\n",
            "rec",
        )
        .unwrap();
        for (step, _) in admissible_children(&p, &StepGrid::default()) {
            assert!(
                matches!(step, Step::Tile { depth: 1, .. } | Step::Skew { .. }),
                "inadmissible step admitted on a recurrence: {step}"
            );
        }
    }

    #[test]
    fn identity_when_nothing_helps() {
        // A single-statement program with no loops: no steps enumerate.
        let p = compile(
            "double t;\nout t;\n#pragma scop\nt = 1.0;\n#pragma endscop\n",
            "scalar",
        )
        .unwrap();
        let r = search_with_engine(&p, &small_cfg(), CostEngine::global());
        assert!(r.recipe.steps.is_empty());
        assert_eq!(r.speedup, 1.0);
        assert_eq!(
            r.fingerprint(),
            search_reference(&p, &small_cfg()).fingerprint()
        );
    }

    #[test]
    fn fixpoint_stops_early_but_matches_the_plodding_reference() {
        // A recurrence admits only strip-mines and skews, which do not
        // improve its cost; the engine reaches its fixpoint well before
        // a deep depth budget while the reference keeps re-expanding.
        let p = compile(
            "param N = 512;\narray A[N];\nout A;\n#pragma scop\nfor (i = 1; i <= N - 1; i++) A[i] = A[i - 1] + 1.0;\n#pragma endscop\n",
            "rec",
        )
        .unwrap();
        let cfg = SearchConfig {
            beam: 2,
            depth: 5,
            threads: 1,
            ..SearchConfig::default()
        };
        let e = search_with_engine(&p, &cfg, CostEngine::global());
        let r = search_reference(&p, &cfg);
        assert_eq!(e.fingerprint(), r.fingerprint());
        assert!(e.stats.nodes_expanded < r.stats.nodes_expanded);
    }
}

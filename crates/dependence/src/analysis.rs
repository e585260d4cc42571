//! Exact dependence analysis on a scaled-down iteration space.
//!
//! Rather than solving affine systems symbolically, the analyzer executes
//! the loop nest *symbolically over a reduced parameter binding* (arrays
//! hold access metadata instead of data) and records, for every memory
//! cell, the interleaving of reads and writes. Consecutive conflicting
//! accesses yield dependence edges with exact distance vectors on the
//! sampled domain. For SCoPs — whose dependence structure does not change
//! shape with parameter magnitude once loops execute a few iterations —
//! this gives the same direction vectors a polyhedral solver would, and it
//! handles every construct the IR can express (tiled bounds, guards,
//! min/max/floord) without a special case.
//!
//! ## The lowered walk
//!
//! [`analyze_with`] lowers the program once per call, then walks the
//! lowered form. Lowering interns arrays and loops to dense ids,
//! resolves each iterator to its slot in the iteration vector by
//! lexical scope and each parameter to its scaled value, and lowers
//! every statement's read list once, in `Statement::reads` order. The
//! walk then does no string hashing and no per-access allocation: each
//! statement instance allocates its iteration vector once and all its
//! accesses share it; cells are keyed by `(array id, FNV key)` and edges
//! by `(src, dst, array id, kind)`, in maps with a fixed hasher. Reads
//! of arrays that no statement writes are evaluated but not recorded:
//! such cells can never close an edge.
//!
//! Expressions evaluate in `AffineExpr::eval`'s order, so overflow
//! behaves identically, and unbound symbols skip exactly what the
//! reference skips: an unevaluable bound skips its loop, an unevaluable
//! subscript its access, an unevaluable guard its body. The instance
//! budget and `truncated` mean the same in both.
//!
//! ## The reference oracle
//!
//! [`analyze_with_reference`](crate::analyze_with_reference) is the
//! direct tree walk over the IR, resolving every symbol by name at
//! every instance; it is the layer's one reference oracle. Both sort
//! edges by the total key `(src, dst, array, kind)` and are pinned
//! equal under exact `==` by `tests/dependence.rs`.

use looprag_ir::{adaptive_sampling_cap, Access, Bound, CmpOp, Node, NodePath, Program, Statement};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};
use std::rc::Rc;
use std::sync::OnceLock;

/// Dependence kind, by the access pair that creates it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DepKind {
    /// Read after write (true/flow dependence).
    Raw,
    /// Write after read (anti dependence).
    War,
    /// Write after write (output dependence).
    Waw,
}

impl fmt::Display for DepKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            DepKind::Raw => "RAW",
            DepKind::War => "WAR",
            DepKind::Waw => "WAW",
        })
    }
}

/// Direction of a dependence along one common loop level
/// (source relative to destination).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Source iteration strictly before destination (`<`, positive distance).
    Lt,
    /// Same iteration (`=`).
    Eq,
    /// Source iteration after destination (`>`); only appears under outer
    /// `<` levels in legal sequential code.
    Gt,
    /// Mixed signs across instances (`*`).
    Star,
}

impl Direction {
    pub(crate) fn of(dist: i64) -> Direction {
        match dist.cmp(&0) {
            std::cmp::Ordering::Greater => Direction::Lt,
            std::cmp::Ordering::Equal => Direction::Eq,
            std::cmp::Ordering::Less => Direction::Gt,
        }
    }

    pub(crate) fn merge(self, other: Direction) -> Direction {
        if self == other {
            self
        } else {
            Direction::Star
        }
    }
}

impl fmt::Display for Direction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Direction::Lt => "<",
            Direction::Eq => "=",
            Direction::Gt => ">",
            Direction::Star => "*",
        })
    }
}

/// An aggregated dependence between two statements on one array.
#[derive(Debug, Clone, PartialEq)]
pub struct Dependence {
    /// Kind of dependence.
    pub kind: DepKind,
    /// Array on which the conflict occurs.
    pub array: String,
    /// Source statement id (the earlier access).
    pub src: usize,
    /// Destination statement id (the later access).
    pub dst: usize,
    /// Paths of the loops enclosing *both* statements, outermost first.
    pub common_loops: Vec<NodePath>,
    /// Direction per common loop level.
    pub directions: Vec<Direction>,
    /// Constant distance per common loop level, when consistent across all
    /// observed instances.
    pub distance: Vec<Option<i64>>,
    /// Number of instance pairs aggregated into this edge.
    pub count: u64,
}

impl Dependence {
    /// True when the dependence crosses iterations of some common loop.
    pub fn is_loop_carried(&self) -> bool {
        self.directions.iter().any(|d| *d != Direction::Eq)
    }

    /// Index of the outermost common loop that carries the dependence
    /// (first non-`=` direction), or `None` for loop-independent ones.
    pub fn carried_level(&self) -> Option<usize> {
        self.directions.iter().position(|d| *d != Direction::Eq)
    }
}

impl fmt::Display for Dependence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let dirs: Vec<String> = self.directions.iter().map(|d| d.to_string()).collect();
        write!(
            f,
            "{} S{} -> S{} on {} [{}]",
            self.kind,
            self.src,
            self.dst,
            self.array,
            dirs.join(", ")
        )
    }
}

/// Result of analyzing a program.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DependenceSet {
    /// Aggregated dependences.
    pub deps: Vec<Dependence>,
    /// True when the analysis stopped early because the instance budget was
    /// exhausted (results are then a sound subset).
    pub truncated: bool,
}

impl DependenceSet {
    /// Dependences carried by the loop at `path` — i.e. whose first non-`=`
    /// level is that loop. These are the dependences that forbid marking
    /// the loop parallel.
    pub fn carried_by<'a>(&'a self, path: &'a [usize]) -> impl Iterator<Item = &'a Dependence> {
        self.deps.iter().filter(move |d| {
            d.carried_level()
                .map(|lvl| d.common_loops.get(lvl).map(|p| p.as_slice()) == Some(path))
                .unwrap_or(false)
        })
    }

    /// True when the loop at `path` can legally run in parallel: no
    /// dependence is carried by it.
    pub fn is_parallel_legal(&self, path: &[usize]) -> bool {
        self.carried_by(path).next().is_none()
    }

    /// True when interchanging the adjacent loops at `outer`/`inner` (inner
    /// directly nested in outer) preserves all dependences: no dependence
    /// has directions `(<, >)` — or an unknown `*` in either slot with a
    /// `<` possibility — at those two levels.
    pub fn is_interchange_legal(&self, outer: &[usize], inner: &[usize]) -> bool {
        for d in &self.deps {
            let Some(a) = d.common_loops.iter().position(|p| p == outer) else {
                continue;
            };
            let Some(b) = d.common_loops.iter().position(|p| p == inner) else {
                continue;
            };
            // Carried strictly outside `outer`: outer sequencing satisfies it.
            if let Some(lvl) = d.carried_level() {
                if lvl < a {
                    continue;
                }
            } else {
                continue; // loop-independent
            }
            let da = d.directions[a];
            let db = d.directions[b];
            let illegal = matches!(
                (da, db),
                (Direction::Lt, Direction::Gt)
                    | (Direction::Lt, Direction::Star)
                    | (Direction::Star, Direction::Gt)
                    | (Direction::Star, Direction::Star)
            );
            if illegal {
                return false;
            }
        }
        true
    }

    /// True when the perfect band of `depth` loops rooted at `root` —
    /// the loops at `root`, `root ++ [0]`, `root ++ [0, 0]`, … — is
    /// fully permutable: no dependence has a `>` or `*` component at
    /// any of the band's levels. Rectangular tiling of the band, and
    /// any permutation of its loops, is then legal. A band of depth 0
    /// or 1 is trivially permutable: a lone loop has no other order,
    /// and strip-mining it preserves the execution order exactly.
    pub fn is_band_permutable(&self, root: &[usize], depth: usize) -> bool {
        if depth <= 1 {
            return true;
        }
        let in_band = |path: &NodePath| {
            path.len() < root.len() + depth
                && path.starts_with(root)
                && path[root.len()..].iter().all(|&i| i == 0)
        };
        self.deps.iter().all(|d| {
            d.common_loops
                .iter()
                .zip(&d.directions)
                .all(|(path, dir)| !in_band(path) || matches!(dir, Direction::Eq | Direction::Lt))
        })
    }

    /// Counts per kind, for dataset statistics (Figure 9).
    pub fn kind_counts(&self) -> (usize, usize, usize) {
        let mut raw = 0;
        let mut war = 0;
        let mut waw = 0;
        for d in &self.deps {
            match d.kind {
                DepKind::Raw => raw += 1,
                DepKind::War => war += 1,
                DepKind::Waw => waw += 1,
            }
        }
        (raw, war, waw)
    }
}

/// Analysis configuration.
#[derive(Debug, Clone)]
pub struct AnalysisConfig {
    /// Parameters larger than this are scaled down (order-preservingly).
    pub param_cap: i64,
    /// Maximum number of statement instances to trace.
    pub instance_budget: u64,
}

impl Default for AnalysisConfig {
    fn default() -> Self {
        AnalysisConfig {
            param_cap: 8,
            instance_budget: 2_000_000,
        }
    }
}

/// What a dependence set is for. Each purpose names one
/// [`AnalysisConfig`], so every caller with the same purpose analyzes a
/// program the same way and gets the same set. `Propose` and
/// `Transform` differ only in the instance volume tiled code may
/// sample, yet their sets differ on tiled code, so they stay apart
/// (`tests/dependence.rs` records the measurement).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Purpose {
    /// Proposing transformations: the simulated LLM's legality checks
    /// and the baseline compilers. Tiled code is sampled across two
    /// tiles within a volume of 2e6 (`adaptive_sampling_cap`, base 8);
    /// budget 3M instances.
    Propose,
    /// Applying and scoring transformations: the search's legality
    /// pruning, the cost model's vectorization decisions and the
    /// polyhedral optimizer. Volume 3e6 (base 8); budget 4M instances.
    Transform,
    /// The Figure 9 loop-property statistics: parameters capped at 6;
    /// budget 500k instances.
    Stats,
}

impl Purpose {
    /// The analysis configuration this purpose uses on `p`.
    pub fn config(self, p: &Program) -> AnalysisConfig {
        let (param_cap, instance_budget) = match self {
            Purpose::Propose => (adaptive_sampling_cap(p, 8, 2_000_000.0), 3_000_000),
            Purpose::Transform => (adaptive_sampling_cap(p, 8, 3_000_000.0), 4_000_000),
            Purpose::Stats => (6, 500_000),
        };
        AnalysisConfig {
            param_cap,
            instance_budget,
        }
    }
}

/// Scales parameter defaults down to at most `cap`, preserving the strict
/// order and equalities among distinct values so that inter-parameter
/// relations (e.g. `M < N`) survive.
pub fn scaled_params(p: &Program, cap: i64) -> HashMap<String, i64> {
    let mut distinct: Vec<i64> = p.params.iter().map(|d| d.value).collect();
    distinct.sort_unstable();
    distinct.dedup();
    let mut mapping = HashMap::new();
    let mut next = cap;
    for v in distinct {
        if v <= cap {
            mapping.insert(v, v);
            next = next.max(v + 1);
        } else {
            mapping.insert(v, next);
            next += 2;
        }
    }
    p.params
        .iter()
        .map(|d| (d.name.clone(), mapping[&d.value]))
        .collect()
}

/// Dependences in the total order `(src, dst, array, kind)`. The key is
/// unique per edge, so the order never depends on map iteration order.
pub(crate) fn sorted_set(mut deps: Vec<Dependence>, truncated: bool) -> DependenceSet {
    deps.sort_by(|a, b| (a.src, a.dst, &a.array, a.kind).cmp(&(b.src, b.dst, &b.array, b.kind)));
    DependenceSet { deps, truncated }
}

/// Registry handles for the tracer's work units, bumped once per
/// [`analyze_with`] call.
struct DependenceMetrics {
    analyses: looprag_trace::Counter,
    instances_traced: looprag_trace::Counter,
}

fn dependence_metrics() -> &'static DependenceMetrics {
    static M: OnceLock<DependenceMetrics> = OnceLock::new();
    M.get_or_init(|| {
        let r = looprag_trace::metrics();
        DependenceMetrics {
            analyses: r.counter("dependence.analyses"),
            instances_traced: r.counter("dependence.instances_traced"),
        }
    })
}

/// A fixed, non-random multiplicative hasher (the "Fx" scheme) for the
/// tracer's integer-keyed maps. `finish` rotates the well-mixed high
/// bits down to where the table picks its bucket.
#[derive(Default)]
struct FxHasher(u64);

impl FxHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for FxHasher {
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }

    fn write(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.add(u64::from(*b));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
}

/// Keys are interned ids and FNV folds of affine subscript values, not
/// raw input, and the instance budget bounds the work, so the tracer
/// forgoes the default hasher's collision resistance for speed.
type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// A symbol of an affine expression, resolved at lowering time.
#[derive(Clone, Copy)]
enum Sym {
    /// The iterator of an enclosing loop: its slot in the iteration vector.
    Slot(usize),
    /// A parameter, at its scaled value.
    Param(i64),
    /// Neither; evaluation fails here, as `AffineExpr::eval` does.
    Unbound,
}

/// An [`AffineExpr`](looprag_ir::AffineExpr) with resolved symbols,
/// terms kept in the expression's own (symbol-name) order.
struct Lin {
    constant: i64,
    terms: Box<[(i64, Sym)]>,
}

impl Lin {
    /// Same operations in the same order as `AffineExpr::eval`, so an
    /// overflow panics exactly where the reference's would.
    fn eval(&self, ivec: &[i64]) -> Option<i64> {
        let mut acc = self.constant;
        for &(coeff, sym) in self.terms.iter() {
            let v = match sym {
                Sym::Slot(s) => ivec[s],
                Sym::Param(v) => v,
                Sym::Unbound => return None,
            };
            acc += coeff * v;
        }
        Some(acc)
    }
}

/// A lowered [`Bound`].
enum LBound {
    Affine(Lin),
    Min(Box<LBound>, Box<LBound>),
    Max(Box<LBound>, Box<LBound>),
    FloorDiv(Box<LBound>, i64),
}

impl LBound {
    fn eval(&self, ivec: &[i64]) -> Option<i64> {
        match self {
            LBound::Affine(e) => e.eval(ivec),
            LBound::Min(a, b) => Some(a.eval(ivec)?.min(b.eval(ivec)?)),
            LBound::Max(a, b) => Some(a.eval(ivec)?.max(b.eval(ivec)?)),
            LBound::FloorDiv(e, c) => Some(e.eval(ivec)?.div_euclid(*c)),
        }
    }
}

/// A lowered [`Access`]: an interned array and resolved subscripts.
struct LAccess {
    array: u32,
    indexes: Box<[Lin]>,
    /// For a read: whether any statement writes the array. Cells of a
    /// read-only array can never close an edge, so such reads are not
    /// recorded.
    written: bool,
}

impl LAccess {
    /// The touched cell: the FNV-1a fold of the concrete index tuple.
    /// Only cell identity matters, so out-of-range indexes are fine.
    fn key(&self, ivec: &[i64]) -> Option<(u32, u64)> {
        let mut key = 1469598103934665603u64; // FNV offset
        for e in self.indexes.iter() {
            key ^= e.eval(ivec)? as u64;
            key = key.wrapping_mul(1099511628211);
        }
        Some((self.array, key))
    }
}

/// A statement position: its id, enclosing loops and lowered accesses.
struct Site {
    stmt: usize,
    /// Ids of the enclosing loops, outermost first.
    loops: Box<[u32]>,
    /// Reads in `Statement::reads` order.
    reads: Box<[LAccess]>,
    write: LAccess,
}

enum Op {
    Loop(Box<LoopOp>),
    If {
        conds: Box<[(Lin, CmpOp, Lin)]>,
        then: Box<[Op]>,
    },
    Stmt(u32),
}

struct LoopOp {
    lb: LBound,
    ub: LBound,
    ub_inclusive: bool,
    step: i64,
    body: Box<[Op]>,
}

/// A program lowered for tracing. Loops and arrays are interned to dense
/// ids; their paths and names are only looked up to build the output.
struct Lowered {
    ops: Box<[Op]>,
    sites: Vec<Site>,
    loop_paths: Vec<NodePath>,
    arrays: Vec<String>,
}

struct Lowerer<'p> {
    params: HashMap<String, i64>,
    /// Iterator names of the enclosing loops; index = slot.
    scope: Vec<&'p str>,
    /// Ids of the enclosing loops.
    loops: Vec<u32>,
    path: NodePath,
    array_ids: HashMap<&'p str, u32>,
    out: Lowered,
}

impl<'p> Lowerer<'p> {
    /// Innermost iterator of that name, else a parameter, else unbound:
    /// the reference's lookup order, decided once by lexical scope.
    fn resolve(&self, sym: &str) -> Sym {
        if let Some(slot) = self.scope.iter().rposition(|n| *n == sym) {
            return Sym::Slot(slot);
        }
        self.params
            .get(sym)
            .map_or(Sym::Unbound, |v| Sym::Param(*v))
    }

    fn lin(&self, e: &looprag_ir::AffineExpr) -> Lin {
        Lin {
            constant: e.constant_term(),
            terms: e.iter_terms().map(|(s, c)| (c, self.resolve(s))).collect(),
        }
    }

    fn bound(&self, b: &Bound) -> LBound {
        match b {
            Bound::Affine(e) => LBound::Affine(self.lin(e)),
            Bound::Min(a, b) => LBound::Min(Box::new(self.bound(a)), Box::new(self.bound(b))),
            Bound::Max(a, b) => LBound::Max(Box::new(self.bound(a)), Box::new(self.bound(b))),
            Bound::FloorDiv(e, c) => LBound::FloorDiv(Box::new(self.bound(e)), *c),
        }
    }

    fn access(&mut self, a: &'p Access) -> LAccess {
        let next = self.array_ids.len() as u32;
        let array = *self.array_ids.entry(a.array.as_str()).or_insert_with(|| {
            self.out.arrays.push(a.array.clone());
            next
        });
        LAccess {
            array,
            indexes: a.indexes.iter().map(|e| self.lin(e)).collect(),
            written: false,
        }
    }

    fn site(&mut self, s: &'p Statement) -> u32 {
        let mut reads = Vec::new();
        s.rhs.collect_reads(&mut reads);
        if s.op.reads_target() {
            reads.push(&s.lhs);
        }
        let site = Site {
            stmt: s.id,
            loops: self.loops.as_slice().into(),
            reads: reads.into_iter().map(|a| self.access(a)).collect(),
            write: self.access(&s.lhs),
        };
        self.out.sites.push(site);
        (self.out.sites.len() - 1) as u32
    }

    fn nodes(&mut self, nodes: &'p [Node]) -> Box<[Op]> {
        let mut ops = Vec::with_capacity(nodes.len());
        for (i, n) in nodes.iter().enumerate() {
            self.path.push(i);
            ops.push(match n {
                Node::Stmt(s) => Op::Stmt(self.site(s)),
                Node::Loop(l) => {
                    // Bounds are evaluated outside the loop's own scope.
                    let (lb, ub) = (self.bound(&l.lb), self.bound(&l.ub));
                    self.loops.push(self.out.loop_paths.len() as u32);
                    self.out.loop_paths.push(self.path.clone());
                    self.scope.push(&l.iter);
                    let body = self.nodes(&l.body);
                    self.scope.pop();
                    self.loops.pop();
                    Op::Loop(Box::new(LoopOp {
                        lb,
                        ub,
                        ub_inclusive: l.ub_inclusive,
                        step: l.step,
                        body,
                    }))
                }
                Node::If { conds, then } => Op::If {
                    conds: conds
                        .iter()
                        .map(|c| (self.lin(&c.lhs), c.op, self.lin(&c.rhs)))
                        .collect(),
                    then: self.nodes(then),
                },
            });
            self.path.pop();
        }
        ops.into_boxed_slice()
    }
}

impl Lowered {
    fn new(p: &Program, params: HashMap<String, i64>) -> Lowered {
        let mut l = Lowerer {
            params,
            scope: Vec::new(),
            loops: Vec::new(),
            path: Vec::new(),
            array_ids: HashMap::new(),
            out: Lowered {
                ops: Box::default(),
                sites: Vec::new(),
                loop_paths: Vec::new(),
                arrays: Vec::new(),
            },
        };
        l.out.ops = l.nodes(&p.body);
        let mut written = vec![false; l.out.arrays.len()];
        for site in &l.out.sites {
            written[site.write.array as usize] = true;
        }
        for site in &mut l.out.sites {
            for r in site.reads.iter_mut() {
                r.written = written[r.array as usize];
            }
        }
        l.out
    }
}

/// One statement instance. All of its accesses share one iteration
/// vector allocation.
#[derive(Clone)]
struct Inst {
    site: u32,
    ivec: Rc<[i64]>,
}

#[derive(Default)]
struct Cell {
    last_write: Option<Inst>,
    reads_since_write: Vec<Inst>,
}

#[derive(Clone, Copy, PartialEq, Eq, Hash)]
struct EdgeKey {
    src: usize,
    dst: usize,
    array: u32,
    kind: DepKind,
}

struct EdgeAcc {
    /// Loop ids of the common loops.
    common: Vec<u32>,
    directions: Vec<Direction>,
    distance: Vec<Option<i64>>,
    count: u64,
}

/// Folds one instance pair into its edge. The common loops are the
/// longest prefix of identical enclosing loops; edge vectors are only
/// allocated when the edge is first seen.
fn record_edge(
    edges: &mut FastMap<EdgeKey, EdgeAcc>,
    sites: &[Site],
    src: &Inst,
    dst: &Inst,
    array: u32,
    kind: DepKind,
) {
    let (s, d) = (&sites[src.site as usize], &sites[dst.site as usize]);
    let n = s
        .loops
        .iter()
        .zip(d.loops.iter())
        .take_while(|(a, b)| a == b)
        .count();
    let dist = |i: usize| dst.ivec[i] - src.ivec[i];
    let key = EdgeKey {
        src: s.stmt,
        dst: d.stmt,
        array,
        kind,
    };
    match edges.entry(key) {
        Entry::Occupied(e) => {
            let acc = e.into_mut();
            for i in 0..n {
                let di = dist(i);
                acc.directions[i] = acc.directions[i].merge(Direction::of(di));
                if acc.distance[i] != Some(di) {
                    acc.distance[i] = None;
                }
            }
            acc.count += 1;
        }
        Entry::Vacant(e) => {
            let dists: Vec<i64> = (0..n).map(dist).collect();
            e.insert(EdgeAcc {
                common: s.loops[..n].to_vec(),
                directions: dists.iter().map(|d| Direction::of(*d)).collect(),
                distance: dists.iter().map(|d| Some(*d)).collect(),
                count: 1,
            });
        }
    }
}

struct Walk<'l> {
    sites: &'l [Site],
    /// Current value of each enclosing loop's iterator, outermost first.
    ivec: Vec<i64>,
    cells: FastMap<(u32, u64), Cell>,
    edges: FastMap<EdgeKey, EdgeAcc>,
    instances: u64,
    budget: u64,
    truncated: bool,
}

impl Walk<'_> {
    fn visit_stmt(&mut self, idx: u32) -> bool {
        if self.instances >= self.budget {
            self.truncated = true;
            return false;
        }
        self.instances += 1;
        let sites = self.sites;
        let site = &sites[idx as usize];
        let mut inst: Option<Inst> = None;
        // Reads first (evaluation order), then the write.
        for r in site.reads.iter() {
            // The key is evaluated even when unrecorded, so an overflow
            // panics just as in the reference.
            let Some(key) = r.key(&self.ivec) else {
                continue;
            };
            if !r.written {
                continue;
            }
            let inst = inst.get_or_insert_with(|| Inst {
                site: idx,
                ivec: self.ivec.as_slice().into(),
            });
            let cell = self.cells.entry(key).or_default();
            if let Some(w) = &cell.last_write {
                record_edge(&mut self.edges, sites, w, inst, r.array, DepKind::Raw);
            }
            cell.reads_since_write.push(inst.clone());
        }
        if let Some(key) = site.write.key(&self.ivec) {
            let inst = inst.unwrap_or_else(|| Inst {
                site: idx,
                ivec: self.ivec.as_slice().into(),
            });
            let array = site.write.array;
            let cell = self.cells.entry(key).or_default();
            let edges = &mut self.edges;
            if let Some(w) = &cell.last_write {
                record_edge(edges, sites, w, &inst, array, DepKind::Waw);
            }
            cell.reads_since_write.retain(|r| {
                // A statement's own read feeding its own write in the
                // same instance is not an edge, but it is the anti
                // source for the *next* write to this cell.
                let own = sites[r.site as usize].stmt == site.stmt && r.ivec == inst.ivec;
                if !own {
                    record_edge(edges, sites, r, &inst, array, DepKind::War);
                }
                own
            });
            cell.last_write = Some(inst);
        }
        true
    }

    fn visit_loop(&mut self, l: &LoopOp) -> bool {
        let Some(lb) = l.lb.eval(&self.ivec) else {
            return true;
        };
        let Some(mut ub) = l.ub.eval(&self.ivec) else {
            return true;
        };
        if !l.ub_inclusive {
            ub -= 1;
        }
        let slot = self.ivec.len();
        self.ivec.push(0);
        let mut ok = true;
        let mut v = lb;
        while v <= ub {
            self.ivec[slot] = v;
            if !self.visit(&l.body) {
                ok = false;
                break;
            }
            v += l.step;
        }
        self.ivec.pop();
        ok
    }

    fn visit(&mut self, ops: &[Op]) -> bool {
        for op in ops {
            let ok = match op {
                Op::Stmt(site) => self.visit_stmt(*site),
                Op::Loop(l) => self.visit_loop(l),
                Op::If { conds, then } => {
                    let holds = conds.iter().all(|(lhs, cmp, rhs)| {
                        lhs.eval(&self.ivec)
                            .and_then(|a| Some(cmp.eval(a, rhs.eval(&self.ivec)?)))
                            == Some(true)
                    });
                    !holds || self.visit(then)
                }
            };
            if !ok {
                return false;
            }
        }
        true
    }
}

/// Analyzes `p` with the default configuration.
pub fn analyze(p: &Program) -> DependenceSet {
    analyze_with(p, &AnalysisConfig::default())
}

/// Analyzes `p` under the configuration of `purpose`.
pub fn analyze_for(p: &Program, purpose: Purpose) -> DependenceSet {
    analyze_with(p, &purpose.config(p))
}

/// Analyzes `p`, tracing the loop nest under scaled-down parameters and
/// aggregating exact dependence edges.
///
/// Bit-identical to [`analyze_with_reference`](crate::analyze_with_reference).
/// Each call bumps the `dependence.analyses` and
/// `dependence.instances_traced` registry counters once.
pub fn analyze_with(p: &Program, cfg: &AnalysisConfig) -> DependenceSet {
    let lowered = Lowered::new(p, scaled_params(p, cfg.param_cap));
    let mut walk = Walk {
        sites: &lowered.sites,
        ivec: Vec::new(),
        cells: FastMap::default(),
        edges: FastMap::default(),
        instances: 0,
        budget: cfg.instance_budget,
        truncated: false,
    };
    walk.visit(&lowered.ops);
    let m = dependence_metrics();
    m.analyses.inc();
    m.instances_traced.add(walk.instances);
    drop(walk.cells);
    let deps = walk
        .edges
        .into_iter()
        .map(|(key, acc)| Dependence {
            kind: key.kind,
            array: lowered.arrays[key.array as usize].clone(),
            src: key.src,
            dst: key.dst,
            common_loops: acc
                .common
                .iter()
                .map(|id| lowered.loop_paths[*id as usize].clone())
                .collect(),
            directions: acc.directions,
            distance: acc.distance,
            count: acc.count,
        })
        .collect();
    sorted_set(deps, walk.truncated)
}

#[cfg(test)]
mod tests {
    use super::*;
    use looprag_ir::compile;

    fn deps_of(src: &str) -> DependenceSet {
        let p = compile(src, "t").unwrap();
        analyze(&p)
    }

    const GEMM: &str = "param N = 8;\narray C[N][N];\narray A[N][N];\nout C;\n#pragma scop\nfor (i = 0; i <= N - 1; i++) for (j = 0; j <= N - 1; j++) for (k = 0; k <= N - 1; k++) C[i][j] += A[i][k] * A[j][k];\n#pragma endscop\n";

    /// `A[i][j] = A[i-1][j+1]`: directions `(<, >)`.
    const ANTI_DIAGONAL: &str = "param N = 8;\narray A[N][N];\nout A;\n#pragma scop\nfor (i = 1; i <= N - 1; i++) for (j = 0; j <= N - 2; j++) A[i][j] = A[i - 1][j + 1] + 1.0;\n#pragma endscop\n";

    #[test]
    fn stream_kernel_has_no_dependences() {
        let d = deps_of(
            "param N = 64;\narray A[N];\narray B[N];\nout A;\n#pragma scop\nfor (i = 0; i <= N - 1; i++) A[i] = B[i] + 1.0;\n#pragma endscop\n",
        );
        assert!(d.deps.is_empty());
        assert!(d.is_parallel_legal(&[0]));
    }

    #[test]
    fn recurrence_is_loop_carried_raw() {
        let d = deps_of(
            "param N = 64;\narray A[N];\nout A;\n#pragma scop\nfor (i = 1; i <= N - 1; i++) A[i] = A[i - 1] + 1.0;\n#pragma endscop\n",
        );
        let raw: Vec<_> = d.deps.iter().filter(|d| d.kind == DepKind::Raw).collect();
        assert_eq!(raw.len(), 1);
        assert_eq!(raw[0].directions, vec![Direction::Lt]);
        assert_eq!(raw[0].distance, vec![Some(1)]);
        assert!(raw[0].is_loop_carried());
        assert!(!d.is_parallel_legal(&[0]));
    }

    #[test]
    fn compound_assign_yields_all_three_kinds() {
        // A[i] += x reads and writes A[i] each iteration of the k loop:
        // RAW, WAR and WAW all carried by k.
        let d = deps_of(
            "param N = 8;\nparam M = 8;\narray A[N];\narray B[N][M];\nout A;\n#pragma scop\nfor (i = 0; i <= N - 1; i++) for (k = 0; k <= M - 1; k++) A[i] += B[i][k];\n#pragma endscop\n",
        );
        let (raw, war, waw) = d.kind_counts();
        assert_eq!((raw, war, waw), (1, 1, 1));
        let raw_dep = d.deps.iter().find(|x| x.kind == DepKind::Raw).unwrap();
        assert_eq!(raw_dep.directions, vec![Direction::Eq, Direction::Lt]);
        assert_eq!(raw_dep.distance, vec![Some(0), Some(1)]);
        // Outer i loop is parallel, inner k loop is not.
        assert!(d.is_parallel_legal(&[0]));
        assert!(!d.is_parallel_legal(&[0, 0]));
    }

    #[test]
    fn interchange_legality_stencil() {
        // A[i][j] = A[i-1][j+1]: distance (1, -1) => directions (<, >),
        // interchange of i and j is illegal.
        let d = deps_of(ANTI_DIAGONAL);
        let raw = d.deps.iter().find(|x| x.kind == DepKind::Raw).unwrap();
        assert_eq!(raw.directions, vec![Direction::Lt, Direction::Gt]);
        assert!(!d.is_interchange_legal(&[0], &[0, 0]));
    }

    #[test]
    fn interchange_legal_for_pure_distance_positive() {
        // A[i][j] = A[i-1][j-1]: directions (<, <) => interchange legal.
        let d = deps_of(
            "param N = 8;\narray A[N][N];\nout A;\n#pragma scop\nfor (i = 1; i <= N - 1; i++) for (j = 1; j <= N - 1; j++) A[i][j] = A[i - 1][j - 1] + 1.0;\n#pragma endscop\n",
        );
        assert!(d.is_interchange_legal(&[0], &[0, 0]));
        // And gemm-style: no carried dep across i or j at all.
        let d2 = deps_of(GEMM);
        assert!(d2.is_interchange_legal(&[0], &[0, 0]));
    }

    #[test]
    fn syrk_has_waw_war_raw_on_c() {
        // Figure 2 of the paper: *= then += on C.
        let d = deps_of(
            "param N = 8;\nparam M = 8;\nparam alpha = 2;\nparam beta = 3;\narray C[N][N];\narray A[N][M];\nout C;\n#pragma scop\nfor (i = 0; i <= N - 1; i++) {\n  for (j = 0; j <= i; j++) C[i][j] *= beta;\n  for (k = 0; k <= M - 1; k++) for (j = 0; j <= i; j++) C[i][j] += alpha * A[i][k] * A[j][k];\n}\n#pragma endscop\n",
        );
        let kinds: Vec<DepKind> = d
            .deps
            .iter()
            .filter(|x| x.array == "C")
            .map(|x| x.kind)
            .collect();
        assert!(kinds.contains(&DepKind::Raw));
        assert!(kinds.contains(&DepKind::War));
        assert!(kinds.contains(&DepKind::Waw));
    }

    #[test]
    fn gemm_band_is_permutable() {
        let d = deps_of(GEMM);
        assert!(d.is_band_permutable(&[0], 3));
        assert!(d.is_band_permutable(&[0, 0], 2));
    }

    #[test]
    fn anti_diagonal_band_is_permutable_only_at_depth_one() {
        let d = deps_of(ANTI_DIAGONAL);
        assert!(!d.is_band_permutable(&[0], 2));
        // A lone loop strip-mines legally, even the inner one, whose
        // component is `>`.
        assert!(d.is_band_permutable(&[0], 1));
        assert!(d.is_band_permutable(&[0, 0], 1));
    }

    #[test]
    fn scaled_params_preserve_order() {
        let p = compile(
            "param M = 2000;\nparam N = 4000;\nparam K = 4;\narray A[N];\nout A;\n#pragma scop\nfor (i = 0; i <= K - 1; i++) A[i] = 1.0;\n#pragma endscop\n",
            "t",
        )
        .unwrap();
        let s = scaled_params(&p, 8);
        assert_eq!(s["K"], 4);
        assert!(s["M"] > s["K"]);
        assert!(s["N"] > s["M"]);
        assert!(s["N"] <= 16);
    }

    #[test]
    fn loop_independent_dependence() {
        // Two statements in the same iteration: S0 writes t, S1 reads t.
        let d = deps_of(
            "param N = 8;\ndouble t;\narray A[N];\nout A;\n#pragma scop\nfor (i = 0; i <= N - 1; i++) { t = 1.0; A[i] = t; }\n#pragma endscop\n",
        );
        let raw = d
            .deps
            .iter()
            .find(|x| x.kind == DepKind::Raw && x.array == "t")
            .unwrap();
        assert_eq!(raw.carried_level(), None);
        assert!(!raw.is_loop_carried());
        // But the scalar also creates WAR/WAW carried by i.
        assert!(!d.is_parallel_legal(&[0]));
    }
}

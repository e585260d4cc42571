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
//! lowered form. Loop headers, guards and subscripts go through the
//! shared [`looprag_ir::lower`] lowering at the scaled parameter values;
//! the tracer adds dense array and loop ids and each statement's read
//! list, lowered once in `Statement::reads` order. Reads of arrays that
//! no statement writes are skipped: such cells can never close an edge.
//!
//! ## Flat walk state
//!
//! The walk hashes nothing and allocates nothing per instance, and a
//! cell inside its array's extents costs no allocation of its own:
//!
//! - **Cell table.** A cell is addressed by its exact row-major index
//!   into a paged table over its array's extents at the scaled
//!   parameters. A cell is `2 + depth` words: its last write's site and
//!   the head of its read groups, the number of reads by that writing
//!   instance, and that instance's iteration vector. Only an index tuple
//!   outside the extents (or of another rank, or of an array too large
//!   for a table) goes through an exact-tuple map, which numbers it a
//!   cell past the table's end. Pages are allocated when first touched.
//! - **Read groups.** The reads of a cell since its last write are one
//!   node per reading site (and array) in a segmented arena with a free
//!   list: the number of reads and, per loop level, the least and the
//!   greatest iteration value. A level's direction and constant
//!   distance depend only on its least and greatest distance, so a
//!   group folds all of its reads into its RAW edge (with the last
//!   write) and its WAR edge (with the next write) at once. Memory is
//!   proportional to live cell references, not to instances traced.
//! - **Edges.** Each access ends a few slots (a site, an array and a
//!   kind); a slot keeps the edge of its most recent source site, so a
//!   fold finds its edge without hashing. An edge keeps the least and
//!   greatest distance per common level; once every level is `*` with
//!   no constant distance, it only counts.
//!
//! Pages and arena segments hold at most 8192 words (64 KiB), under
//! glibc's mmap threshold: every block comes from the heap, and freeing
//! one never raises that threshold, which would keep later large
//! buffers on the heap and raise the process's peak memory.
//!
//! A statement's own read feeding its own write in the same instance is
//! not an edge, but it is the anti source for the next write to that
//! cell; both tracers identify it as a read by the writing instance.
//!
//! An unevaluable form (an unbound symbol, or a parameter fold that
//! overflows) is skipped: a bound skips its loop, a subscript its
//! access, a guard its body, as the reference does for an unbound
//! symbol. The instance budget and `truncated` mean the same in both.
//!
//! ## The reference oracle
//!
//! [`analyze_with_reference`](crate::analyze_with_reference) is the
//! direct tree walk over the IR, resolving every symbol by name at
//! every instance and keying cells by array name and index tuple; it is
//! the layer's one reference oracle. Both sort
//! edges by the total key `(src, dst, array, kind)` and are pinned
//! equal under exact `==` by `tests/dependence.rs`.

use looprag_ir::lower::{Guard, Lin, LoopBounds, Scope};
use looprag_ir::{adaptive_sampling_cap, Access, Node, NodePath, Program, Statement};
use std::collections::{BTreeMap, HashMap};
use std::fmt;
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
    edge_pairs: looprag_trace::Counter,
}

fn dependence_metrics() -> &'static DependenceMetrics {
    static M: OnceLock<DependenceMetrics> = OnceLock::new();
    M.get_or_init(|| {
        let r = looprag_trace::metrics();
        DependenceMetrics {
            analyses: r.counter("dependence.analyses"),
            instances_traced: r.counter("dependence.instances_traced"),
            edge_pairs: r.counter("dependence.edge_pairs"),
        }
    })
}

/// The most `i64` words in one cell page or group segment: 64 KiB,
/// half of glibc's initial mmap threshold, so every block the walk
/// allocates comes from the heap, and freeing one never raises that
/// threshold for the rest of the process (which would keep later large
/// buffers, such as difftest stores, on the heap after they are freed).
const SEG_WORDS: usize = 8192;
/// The most page-directory entries per array (64 KiB of pointers);
/// an array whose cells need more has no table.
const MAX_PAGES: usize = 8192;
/// log2 of the fewest cells a page holds.
const MIN_PAGE_SHIFT: u32 = 6;

/// Two `u32` fields in one word.
fn pack(lo: u32, hi: u32) -> i64 {
    (u64::from(lo) | u64::from(hi) << 32) as i64
}

fn unpack(word: i64) -> (u32, u32) {
    let w = word as u64;
    (w as u32, (w >> 32) as u32)
}

/// A lowered [`Access`]: an interned array and resolved subscripts.
struct LAccess {
    array: u32,
    /// `None` when a subscript is unevaluable: the access is skipped.
    indexes: Option<Box<[Lin]>>,
    /// The edge slot this access ends: for a read, the RAW slot of its
    /// site and array; for a write, the WAW slot, with the WAR slot
    /// after it.
    slot: u32,
}

/// A statement position: its id, enclosing loops and lowered accesses.
struct Site {
    stmt: usize,
    /// Ids of the enclosing loops, outermost first.
    loops: Box<[u32]>,
    /// Reads in `Statement::reads` order, but for the `same` reads and
    /// the reads of arrays that no statement writes (their cells can
    /// never close an edge).
    reads: Vec<LAccess>,
    write: LAccess,
    /// The RAW slot of the written array when the site also reads it.
    own: Option<u32>,
    /// Reads with the write's own subscripts (as in `A[i] += …`): they
    /// always touch the written cell, so they are counted, not traced,
    /// and `reads` leaves them out.
    same: i64,
}

/// The destination end of an edge: a site, the array it accesses there
/// and the kind. An edge is found by its slot and its source site.
#[derive(Clone, Copy)]
struct Slot {
    site: u32,
    array: u32,
    kind: DepKind,
}

enum Op {
    Loop(Box<LoopOp>),
    If {
        /// `None` for an unevaluable condition: the guard fails.
        conds: Box<[Option<Guard>]>,
        then: Box<[Op]>,
    },
    Stmt(u32),
}

struct LoopOp {
    /// `None` when a bound is unevaluable: the loop is skipped.
    bounds: Option<LoopBounds>,
    body: Box<[Op]>,
}

/// A program lowered for tracing. Loops and arrays are interned to dense
/// ids; their paths and names are only looked up to build the output.
struct Lowered {
    ops: Box<[Op]>,
    sites: Vec<Site>,
    slots: Vec<Slot>,
    loop_paths: Vec<NodePath>,
    arrays: Vec<String>,
}

struct Lowerer<'p> {
    scope: Scope<'p>,
    /// Ids of the enclosing loops.
    loops: Vec<u32>,
    path: NodePath,
    array_ids: HashMap<&'p str, u32>,
    out: Lowered,
}

impl<'p> Lowerer<'p> {
    fn access(&mut self, a: &'p Access) -> LAccess {
        let next = self.array_ids.len() as u32;
        let array = *self.array_ids.entry(a.array.as_str()).or_insert_with(|| {
            self.out.arrays.push(a.array.clone());
            next
        });
        LAccess {
            array,
            indexes: self.scope.subscripts(a).ok(),
            slot: 0,
        }
    }

    /// A new slot ending at `site` on `array`.
    fn slot(&mut self, site: u32, array: u32, kind: DepKind) -> u32 {
        self.out.slots.push(Slot { site, array, kind });
        (self.out.slots.len() - 1) as u32
    }

    fn site(&mut self, s: &'p Statement) -> u32 {
        let site = self.out.sites.len() as u32;
        let mut reads = Vec::new();
        s.rhs.collect_reads(&mut reads);
        if s.op.reads_target() {
            reads.push(&s.lhs);
        }
        let mut reads: Vec<LAccess> = reads.into_iter().map(|a| self.access(a)).collect();
        // One RAW slot per array the site reads: reads of one array by
        // one site close the same edges.
        for j in 0..reads.len() {
            let array = reads[j].array;
            reads[j].slot = match reads[..j].iter().find(|r| r.array == array) {
                Some(r) => r.slot,
                None => self.slot(site, array, DepKind::Raw),
            };
        }
        let mut write = self.access(&s.lhs);
        write.slot = self.slot(site, write.array, DepKind::Waw);
        self.slot(site, write.array, DepKind::War);
        let own = reads
            .iter()
            .find(|r| r.array == write.array)
            .map(|r| r.slot);
        let total = reads.len();
        reads.retain(|r| r.array != write.array || r.indexes != write.indexes);
        self.out.sites.push(Site {
            stmt: s.id,
            loops: self.loops.as_slice().into(),
            own,
            same: (total - reads.len()) as i64,
            reads,
            write,
        });
        site
    }

    fn nodes(&mut self, nodes: &'p [Node]) -> Box<[Op]> {
        let mut ops = Vec::with_capacity(nodes.len());
        for (i, n) in nodes.iter().enumerate() {
            self.path.push(i);
            ops.push(match n {
                Node::Stmt(s) => Op::Stmt(self.site(s)),
                Node::Loop(l) => {
                    // Bounds are evaluated outside the loop's own scope.
                    let bounds = self.scope.loop_bounds(l).ok();
                    self.loops.push(self.out.loop_paths.len() as u32);
                    self.out.loop_paths.push(self.path.clone());
                    self.scope.push(&l.iter);
                    let body = self.nodes(&l.body);
                    self.scope.pop();
                    self.loops.pop();
                    Op::Loop(Box::new(LoopOp { bounds, body }))
                }
                Node::If { conds, then } => Op::If {
                    conds: conds.iter().map(|c| self.scope.cond(c).ok()).collect(),
                    then: self.nodes(then),
                },
            });
            self.path.pop();
        }
        ops.into_boxed_slice()
    }
}

impl Lowered {
    fn new(p: &Program, params: &HashMap<String, i64>) -> Lowered {
        let env = |s: &str| params.get(s).copied();
        let mut l = Lowerer {
            scope: Scope::new(&env),
            loops: Vec::new(),
            path: Vec::new(),
            array_ids: HashMap::new(),
            out: Lowered {
                ops: Box::default(),
                sites: Vec::new(),
                slots: Vec::new(),
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
            site.reads.retain(|r| written[r.array as usize]);
        }
        l.out
    }

    /// The deepest site's loop depth.
    fn depth(&self) -> usize {
        self.sites.iter().map(|s| s.loops.len()).max().unwrap_or(0)
    }
}

/// One array's cells. A cell is `2 + depth` words: the last write's
/// site and the head of the cell's read groups packed in one word, the
/// number of reads by the instance that wrote it last, then that
/// instance's iteration vector. A zeroed cell is untouched.
struct CellTable {
    /// The extents at the scaled parameters, or `None` when the array
    /// has no table: undeclared, an overflowing extent, or more cells
    /// than `MAX_PAGES` pages hold.
    extents: Option<Box<[i64]>>,
    /// Cells in the table; overflow cells are numbered from here.
    len: usize,
    /// log2 of the cells per page.
    shift: u32,
    pages: Vec<Option<Box<[i64]>>>,
    /// Index tuples outside the extents, or of another rank, by their
    /// exact values.
    overflow: BTreeMap<Box<[i64]>, usize>,
}

impl CellTable {
    /// A table over `extents` for cells of `stride` words, on the
    /// fewest pages (of at least `2^MIN_PAGE_SHIFT` cells) that fit
    /// `MAX_PAGES`; no table when none do.
    fn new(extents: Option<Vec<i64>>, stride: usize) -> CellTable {
        let max_shift = (SEG_WORDS / stride).max(1).ilog2();
        let len = extents
            .as_deref()
            .and_then(|e| e.iter().try_fold(1usize, |n, &x| n.checked_mul(x as usize)));
        let fit = len.and_then(|len| {
            (MIN_PAGE_SHIFT.min(max_shift)..=max_shift)
                .find(|&shift| len.div_ceil(1 << shift) <= MAX_PAGES)
                .map(|shift| (len, shift))
        });
        let (extents, len, shift) = match fit {
            Some((len, shift)) => (extents.map(Vec::into_boxed_slice), len, shift),
            None => (None, 0, max_shift),
        };
        CellTable {
            extents,
            len,
            shift,
            pages: Vec::new(),
            overflow: BTreeMap::new(),
        }
    }

    /// The row-major index of an in-range tuple of the table's rank.
    fn flat(&self, indexes: &[Lin], ivec: &[i64]) -> Option<usize> {
        let extents = self.extents.as_deref()?;
        if indexes.len() != extents.len() {
            return None;
        }
        let mut flat = 0usize;
        for (e, &ext) in indexes.iter().zip(extents) {
            let v = e.eval(ivec);
            if !(0..ext).contains(&v) {
                return None;
            }
            flat = flat * ext as usize + v as usize;
        }
        Some(flat)
    }
}

/// Every array's cell table, over one scratch tuple.
struct Cells {
    tables: Vec<CellTable>,
    /// Words per cell.
    stride: usize,
    tuple: Vec<i64>,
}

impl Cells {
    fn new(p: &Program, lowered: &Lowered, params: &HashMap<String, i64>) -> Cells {
        let env = |s: &str| params.get(s).copied();
        let stride = 2 + lowered.depth();
        let tables = lowered
            .arrays
            .iter()
            .map(|name| {
                let decl = p.arrays.iter().find(|d| &d.name == name);
                CellTable::new(decl.and_then(|d| d.layout_extents(&env)), stride)
            })
            .collect();
        Cells {
            tables,
            stride,
            tuple: Vec::new(),
        }
    }

    /// Where the cell that `a` touches at `ivec` lives: its array and
    /// its index in that array's table, or `None` when a subscript is
    /// unevaluable.
    fn locate(&mut self, a: &LAccess, ivec: &[i64]) -> Option<(u32, usize)> {
        let indexes = a.indexes.as_deref()?;
        let t = &mut self.tables[a.array as usize];
        if let Some(flat) = t.flat(indexes, ivec) {
            return Some((a.array, flat));
        }
        self.tuple.clear();
        self.tuple.extend(indexes.iter().map(|e| e.eval(ivec)));
        let next = t.len + t.overflow.len();
        let index = match t.overflow.get(self.tuple.as_slice()) {
            Some(&i) => i,
            None => {
                t.overflow.insert(self.tuple.as_slice().into(), next);
                next
            }
        };
        Some((a.array, index))
    }

    /// The cell at a location from [`Cells::locate`].
    fn cell(&mut self, (array, index): (u32, usize)) -> &mut [i64] {
        let t = &mut self.tables[array as usize];
        let (page, at) = (index >> t.shift, index & ((1 << t.shift) - 1));
        if page >= t.pages.len() {
            // The table's whole directory at once (at most `MAX_PAGES`
            // entries), then room for overflow cells as they come.
            let table_pages = t.len.div_ceil(1 << t.shift);
            t.pages.resize_with((page + 1).max(table_pages), || None);
        }
        let words = self.stride << t.shift;
        let cells = t.pages[page].get_or_insert_with(|| vec![0; words].into_boxed_slice());
        &mut cells[at * self.stride..(at + 1) * self.stride]
    }

    /// Every touched cell.
    fn touched(&self) -> impl Iterator<Item = &[i64]> {
        let stride = self.stride;
        self.tables
            .iter()
            .flat_map(|t| t.pages.iter().flatten())
            .flat_map(move |page| page.chunks_exact(stride))
    }
}

/// The reads of every cell since its last write, one group per RAW slot
/// (a reading site and the cell's array): a linked node of
/// `2 + 2 * depth` words (the slot and the next node packed in one word,
/// the number of reads, then per loop level the least and the greatest
/// iteration value of those reads) in fixed segments, with a free list.
///
/// A group folds all of its reads into an edge at once: a level's
/// direction and constant distance depend only on its least and
/// greatest distance, and every read of a group pairs with the same
/// last write (RAW) and the same next write (WAR).
struct Groups {
    depth: usize,
    /// log2 of the nodes per segment.
    shift: u32,
    segs: Vec<Box<[i64]>>,
    /// Nodes handed out so far, free ones included.
    used: usize,
    /// 1-based handle of the first free node, 0 for none.
    free: u32,
}

impl Groups {
    fn new(depth: usize) -> Groups {
        Groups {
            depth,
            shift: (SEG_WORDS / (2 + 2 * depth)).max(1).ilog2(),
            segs: Vec::new(),
            used: 0,
            free: 0,
        }
    }

    fn node(&mut self, h: u32) -> &mut [i64] {
        let stride = 2 + 2 * self.depth;
        let i = h as usize - 1;
        let at = (i & ((1 << self.shift) - 1)) * stride;
        &mut self.segs[i >> self.shift][at..at + stride]
    }

    /// A group of one read at `ivec` for RAW slot `slot`, linked in
    /// front of `next`.
    fn push(&mut self, slot: u32, ivec: &[i64], next: u32) -> u32 {
        let h = if self.free != 0 {
            let h = self.free;
            self.free = unpack(self.node(h)[0]).1;
            h
        } else {
            if self.used >> self.shift == self.segs.len() {
                let words = (2 + 2 * self.depth) << self.shift;
                self.segs.push(vec![0; words].into_boxed_slice());
            }
            self.used += 1;
            u32::try_from(self.used).expect("fewer than 2^32 live read groups")
        };
        let depth = self.depth;
        let node = self.node(h);
        node[0] = pack(slot, next);
        node[1] = 1;
        node[2..2 + ivec.len()].copy_from_slice(ivec);
        node[2 + depth..2 + depth + ivec.len()].copy_from_slice(ivec);
        h
    }

    /// Adds one read at `ivec` for RAW slot `slot` to the list at
    /// `head`; returns the new head.
    fn add(&mut self, head: u32, slot: u32, ivec: &[i64]) -> u32 {
        let depth = self.depth;
        let mut h = head;
        while h != 0 {
            let node = self.node(h);
            let (key, next) = unpack(node[0]);
            if key == slot {
                node[1] += 1;
                let (lo, hi) = node[2..].split_at_mut(depth);
                for ((lo, hi), &v) in lo.iter_mut().zip(hi.iter_mut()).zip(ivec) {
                    *lo = (*lo).min(v);
                    *hi = (*hi).max(v);
                }
                return head;
            }
            h = next;
        }
        self.push(slot, ivec, head)
    }

    fn release(&mut self, h: u32) {
        let free = self.free;
        self.node(h)[0] = pack(0, free);
        self.free = h;
    }
}

/// A group node's fields: slot, next, reads, least and greatest values.
fn group_fields(node: &[i64], depth: usize) -> (u32, u32, u64, &[i64], &[i64]) {
    let (slot, next) = unpack(node[0]);
    let (lo, hi) = node[2..].split_at(depth);
    (slot, next, node[1] as u64, lo, hi)
}

#[derive(Clone, Copy, PartialEq, Eq, Hash)]
struct EdgeKey {
    src: usize,
    dst: usize,
    array: u32,
    kind: DepKind,
}

/// One edge's fold of its instance pairs.
struct EdgeAcc {
    key: EdgeKey,
    /// Loop ids of the common loops.
    common: Box<[u32]>,
    /// Per common level, the least and greatest distance observed: the
    /// direction and the constant distance both follow from the range.
    levels: Box<[(i64, i64)]>,
    count: u64,
    /// Every level spans `*` with no constant distance; more pairs only
    /// count.
    saturated: bool,
}

/// The direction of a level whose distances span `lo..=hi`: one sign
/// throughout, else `*`.
fn direction_of(lo: i64, hi: i64) -> Direction {
    if lo > 0 {
        Direction::Lt
    } else if hi < 0 {
        Direction::Gt
    } else if lo == 0 && hi == 0 {
        Direction::Eq
    } else {
        Direction::Star
    }
}

impl EdgeAcc {
    /// Folds `pairs` instance pairs whose distances lie, per common
    /// level, between `lo` and `hi`.
    fn fold(&mut self, pairs: u64, lo: &[i64], hi: &[i64]) {
        self.count += pairs;
        if self.saturated {
            return;
        }
        let mut saturated = true;
        for (level, (&lo, &hi)) in self.levels.iter_mut().zip(lo.iter().zip(hi)) {
            level.0 = level.0.min(lo);
            level.1 = level.1.max(hi);
            saturated &= level.0 < level.1 && level.0 <= 0 && level.1 >= 0;
        }
        self.saturated = saturated;
    }
}

/// The edge accumulators, and per slot the edges its source sites have
/// opened.
struct Edges {
    acc: Vec<EdgeAcc>,
    ids: HashMap<EdgeKey, u32>,
    /// Per slot: the `(source site, edge)` pair found last, `u32::MAX`
    /// for no site.
    recent: Vec<(u32, u32)>,
    /// Per slot: every `(source site, edge)` pair, a few per slot.
    sources: Vec<Vec<(u32, u32)>>,
}

impl Edges {
    /// The edge from `src_site` into `slot`, which ends at `dst_site`.
    fn edge(&mut self, l: &Lowered, slot: u32, src_site: u32, dst_site: u32) -> &mut EdgeAcc {
        let (site, e) = self.recent[slot as usize];
        let e = if site == src_site {
            e
        } else {
            self.find(l, slot, src_site, dst_site)
        };
        &mut self.acc[e as usize]
    }

    /// [`Edges::edge`] past the one-entry cache: the edge is built when
    /// first seen, its common loops the longest prefix of identical
    /// enclosing loops.
    fn find(&mut self, l: &Lowered, slot: u32, src_site: u32, dst_site: u32) -> u32 {
        let sources = &mut self.sources[slot as usize];
        let e = match sources.iter().find(|s| s.0 == src_site) {
            Some(&(_, e)) => e,
            None => {
                let end = l.slots[slot as usize];
                let (s, d) = (&l.sites[src_site as usize], &l.sites[dst_site as usize]);
                let key = EdgeKey {
                    src: s.stmt,
                    dst: d.stmt,
                    array: end.array,
                    kind: end.kind,
                };
                let acc = &mut self.acc;
                let e = *self.ids.entry(key).or_insert_with(|| {
                    let n = s
                        .loops
                        .iter()
                        .zip(d.loops.iter())
                        .take_while(|(a, b)| a == b)
                        .count();
                    acc.push(EdgeAcc {
                        key,
                        common: s.loops[..n].into(),
                        levels: vec![(i64::MAX, i64::MIN); n].into_boxed_slice(),
                        count: 0,
                        saturated: false,
                    });
                    (acc.len() - 1) as u32
                });
                sources.push((src_site, e));
                e
            }
        };
        self.recent[slot as usize] = (src_site, e);
        e
    }
}

/// Fills `lo` and `hi` with the range of `dst - src` per level, for
/// values `src` in `src_lo..=src_hi` and `dst` in `dst_lo..=dst_hi`.
fn spread(
    lo: &mut [i64],
    hi: &mut [i64],
    (src_lo, src_hi): (&[i64], &[i64]),
    (dst_lo, dst_hi): (&[i64], &[i64]),
) {
    let ranges = src_lo.iter().zip(src_hi).zip(dst_lo.iter().zip(dst_hi));
    for ((lo, hi), ((s_lo, s_hi), (d_lo, d_hi))) in lo.iter_mut().zip(hi.iter_mut()).zip(ranges) {
        *lo = d_lo - s_hi;
        *hi = d_hi - s_lo;
    }
}

struct Walk<'l> {
    lowered: &'l Lowered,
    /// Current value of each enclosing loop's iterator, outermost first.
    ivec: Vec<i64>,
    cells: Cells,
    groups: Groups,
    edges: Edges,
    /// Scratch distance ranges, one entry per loop level.
    lo: Vec<i64>,
    hi: Vec<i64>,
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
        let Walk {
            lowered: l,
            ivec,
            cells,
            groups,
            edges,
            lo,
            hi,
            ..
        } = self;
        let site = &l.sites[idx as usize];
        let target = cells.locate(&site.write, ivec);
        // Reads first (evaluation order), then the write. A read joins
        // its cell's group for its slot; its RAW pair is folded when
        // the group closes. A read of the written cell is held back
        // until the write: a statement's own read feeding its own
        // write in the same instance is not an edge, but it is the
        // anti source for the *next* write.
        let mut own = site.same;
        for r in &site.reads {
            let Some(at) = cells.locate(r, ivec) else {
                continue;
            };
            if Some(at) == target {
                own += 1;
            } else {
                let cell = cells.cell(at);
                let (last, head) = unpack(cell[0]);
                cell[0] = pack(last, groups.add(head, r.slot, ivec));
            }
        }
        let Some(at) = target else {
            return true;
        };
        let cell = cells.cell(at);
        let (last, head) = unpack(cell[0]);
        let (kept, w) = (cell[1], &cell[2..]);
        let slot = site.write.slot;
        if last != 0 {
            // The last write pairs with this write (WAW), with the
            // reads of its own instance (WAR) and with this instance's
            // own reads (RAW): one distance vector for all three.
            let src = last - 1;
            let waw = edges.edge(l, slot, src, idx);
            let n = waw.levels.len();
            spread(&mut lo[..n], &mut hi[..n], (w, w), (ivec, ivec));
            let d = &lo[..n];
            waw.fold(1, d, d);
            if kept > 0 {
                edges.edge(l, slot + 1, src, idx).fold(kept as u64, d, d);
            }
            if let (Some(raw), true) = (site.own, own > 0) {
                edges.edge(l, raw, src, idx).fold(own as u64, d, d);
            }
        }
        // Every group closes: its reads pair with the last write (RAW)
        // and with this write (WAR).
        let depth = groups.depth;
        let mut h = head;
        while h != 0 {
            let (raw, next, reads, r_lo, r_hi) = group_fields(groups.node(h), depth);
            let reader = l.slots[raw as usize].site;
            if last != 0 {
                let acc = edges.edge(l, raw, last - 1, reader);
                let n = acc.levels.len();
                spread(&mut lo[..n], &mut hi[..n], (w, w), (r_lo, r_hi));
                acc.fold(reads, &lo[..n], &hi[..n]);
            }
            let acc = edges.edge(l, slot + 1, reader, idx);
            let n = acc.levels.len();
            spread(&mut lo[..n], &mut hi[..n], (r_lo, r_hi), (ivec, ivec));
            acc.fold(reads, &lo[..n], &hi[..n]);
            groups.release(h);
            h = next;
        }
        cell[0] = pack(idx + 1, 0);
        cell[1] = own;
        cell[2..2 + ivec.len()].copy_from_slice(ivec);
        true
    }

    fn visit_loop(&mut self, l: &LoopOp) -> bool {
        let Some(b) = &l.bounds else {
            return true;
        };
        let (lb, ub) = (b.lb.eval(&self.ivec), b.ub.eval(&self.ivec));
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
            v += b.step;
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
                    let holds = conds.iter().all(|c| {
                        c.as_ref().is_some_and(|(lhs, cmp, rhs)| {
                            cmp.eval(lhs.eval(&self.ivec), rhs.eval(&self.ivec))
                        })
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

    /// Folds the RAW pairs of the groups still open when the walk ends.
    fn finish(&mut self) {
        let Walk {
            lowered: l,
            cells,
            groups,
            edges,
            lo,
            hi,
            ..
        } = self;
        let depth = groups.depth;
        for cell in cells.touched() {
            let (last, mut h) = unpack(cell[0]);
            if last == 0 {
                continue;
            }
            let w = &cell[2..];
            while h != 0 {
                let (raw, next, reads, r_lo, r_hi) = group_fields(groups.node(h), depth);
                let acc = edges.edge(l, raw, last - 1, l.slots[raw as usize].site);
                let n = acc.levels.len();
                spread(&mut lo[..n], &mut hi[..n], (w, w), (r_lo, r_hi));
                acc.fold(reads, &lo[..n], &hi[..n]);
                h = next;
            }
        }
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
/// Each call bumps the `dependence.analyses`,
/// `dependence.instances_traced` and `dependence.edge_pairs` registry
/// counters once.
pub fn analyze_with(p: &Program, cfg: &AnalysisConfig) -> DependenceSet {
    let params = scaled_params(p, cfg.param_cap);
    let lowered = Lowered::new(p, &params);
    let mut walk = Walk {
        lowered: &lowered,
        ivec: Vec::new(),
        cells: Cells::new(p, &lowered, &params),
        groups: Groups::new(lowered.depth()),
        edges: Edges {
            acc: Vec::new(),
            ids: HashMap::new(),
            recent: vec![(u32::MAX, 0); lowered.slots.len()],
            sources: vec![Vec::new(); lowered.slots.len()],
        },
        lo: vec![0; lowered.depth()],
        hi: vec![0; lowered.depth()],
        instances: 0,
        budget: cfg.instance_budget,
        truncated: false,
    };
    walk.visit(&lowered.ops);
    walk.finish();
    let Walk {
        instances,
        truncated,
        edges,
        ..
    } = walk;
    let m = dependence_metrics();
    m.analyses.inc();
    m.instances_traced.add(instances);
    m.edge_pairs.add(edges.acc.iter().map(|e| e.count).sum());
    let deps = edges
        .acc
        .into_iter()
        .map(|e| Dependence {
            kind: e.key.kind,
            array: lowered.arrays[e.key.array as usize].clone(),
            src: e.key.src,
            dst: e.key.dst,
            common_loops: e
                .common
                .iter()
                .map(|id| lowered.loop_paths[*id as usize].clone())
                .collect(),
            directions: e
                .levels
                .iter()
                .map(|&(lo, hi)| direction_of(lo, hi))
                .collect(),
            distance: e
                .levels
                .iter()
                .map(|&(lo, hi)| (lo == hi).then_some(lo))
                .collect(),
            count: e.count,
        })
        .collect();
    sorted_set(deps, truncated)
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

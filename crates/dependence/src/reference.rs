//! The reference dependence tracer: a direct tree walk over the IR.
//!
//! This is the layer's one reference oracle. It resolves every symbol by
//! name at every instance and keys its maps by array-name strings, which
//! makes it slow but easy to audit. The production tracer in
//! [`crate::analysis`] lowers the program first and is pinned to this
//! walker under exact `==` (see `tests/dependence.rs`).

use crate::analysis::{
    scaled_params, sorted_set, AnalysisConfig, DepKind, Dependence, DependenceSet, Direction,
};
use looprag_ir::{Bound, Node, NodePath, Program, Statement};
use std::collections::HashMap;

#[derive(Clone)]
struct Instance {
    stmt: usize,
    /// (loop path, iteration value) for each enclosing loop, outermost first.
    ivec: Vec<(NodePath, i64)>,
    /// The instance's number in execution order.
    seq: u64,
}

#[derive(Default)]
struct CellState {
    last_write: Option<Instance>,
    reads_since_write: Vec<Instance>,
}

struct EdgeAcc {
    common: Vec<NodePath>,
    directions: Vec<Direction>,
    distance: Vec<Option<i64>>,
    count: u64,
}

struct Tracer {
    params: HashMap<String, i64>,
    iters: Vec<(String, i64)>,
    loop_stack: Vec<(NodePath, i64)>,
    cells: HashMap<(String, Vec<i64>), CellState>,
    edges: HashMap<(usize, usize, String, DepKind), EdgeAcc>,
    instances: u64,
    budget: u64,
    truncated: bool,
}

impl Tracer {
    fn lookup(&self, sym: &str) -> Option<i64> {
        for (n, v) in self.iters.iter().rev() {
            if n == sym {
                return Some(*v);
            }
        }
        self.params.get(sym).copied()
    }

    fn eval_bound(&self, b: &Bound) -> Option<i64> {
        b.eval(&|s| self.lookup(s)).ok()
    }

    /// The touched cell: the array and its exact index tuple.
    fn cell_key(&self, acc: &looprag_ir::Access) -> Option<(String, Vec<i64>)> {
        let tuple = acc
            .indexes
            .iter()
            .map(|e| e.eval(&|s| self.lookup(s)).ok())
            .collect::<Option<_>>()?;
        Some((acc.array.clone(), tuple))
    }

    fn record_edge(&mut self, src: &Instance, dst: &Instance, array: &str, kind: DepKind) {
        // Common loops: longest prefix of identical loop paths.
        let mut common = Vec::new();
        let mut dists = Vec::new();
        for ((ps, vs), (pd, vd)) in src.ivec.iter().zip(&dst.ivec) {
            if ps != pd {
                break;
            }
            common.push(ps.clone());
            dists.push(vd - vs);
        }
        let key = (src.stmt, dst.stmt, array.to_string(), kind);
        let entry = self.edges.entry(key).or_insert_with(|| EdgeAcc {
            common: common.clone(),
            directions: dists.iter().map(|d| Direction::of(*d)).collect(),
            distance: dists.iter().map(|d| Some(*d)).collect(),
            count: 0,
        });
        // A statement pair always shares the same common loops (tree
        // structure is fixed), so lengths agree.
        for (i, d) in dists.iter().enumerate() {
            entry.directions[i] = entry.directions[i].merge(Direction::of(*d));
            if entry.distance[i] != Some(*d) {
                entry.distance[i] = None;
            }
        }
        entry.count += 1;
    }

    fn visit_stmt(&mut self, s: &Statement) -> bool {
        if self.instances >= self.budget {
            self.truncated = true;
            return false;
        }
        self.instances += 1;
        let inst = Instance {
            stmt: s.id,
            ivec: self.loop_stack.clone(),
            seq: self.instances,
        };
        // Reads first (evaluation order), then the write.
        for r in s.reads() {
            if let Some(key) = self.cell_key(&r) {
                let array = key.0.clone();
                let last_write = self
                    .cells
                    .entry(key.clone())
                    .or_default()
                    .last_write
                    .clone();
                if let Some(w) = last_write {
                    self.record_edge(&w, &inst, &array, DepKind::Raw);
                }
                self.cells
                    .get_mut(&key)
                    .unwrap()
                    .reads_since_write
                    .push(inst.clone());
            }
        }
        if let Some(key) = self.cell_key(&s.lhs) {
            let array = key.0.clone();
            let (last_write, readers) = {
                let cell = self.cells.entry(key.clone()).or_default();
                (
                    cell.last_write.clone(),
                    std::mem::take(&mut cell.reads_since_write),
                )
            };
            if let Some(w) = last_write {
                self.record_edge(&w, &inst, &array, DepKind::Waw);
            }
            let mut kept = Vec::new();
            for r in readers {
                if r.seq == inst.seq {
                    // A statement's own read feeding its own write in the
                    // same instance is not an edge, but it is the anti
                    // source for the *next* write to this cell.
                    kept.push(r);
                } else {
                    self.record_edge(&r, &inst, &array, DepKind::War);
                }
            }
            let cell = self.cells.get_mut(&key).unwrap();
            cell.reads_since_write = kept;
            cell.last_write = Some(inst);
        }
        true
    }

    fn visit_nodes(&mut self, nodes: &[Node], path: &mut NodePath) -> bool {
        for (i, n) in nodes.iter().enumerate() {
            path.push(i);
            let ok = match n {
                Node::Stmt(s) => self.visit_stmt(s),
                Node::Loop(l) => 'lp: {
                    let Some(lb) = self.eval_bound(&l.lb) else {
                        break 'lp true;
                    };
                    let Some(mut ub) = self.eval_bound(&l.ub) else {
                        break 'lp true;
                    };
                    if !l.ub_inclusive {
                        ub -= 1;
                    }
                    // A non-positive step runs once, at the lower bound.
                    let (ub, step) = (if l.step > 0 { ub } else { ub.min(lb) }, l.step.max(1));
                    let mut ok = true;
                    self.iters.push((l.iter.clone(), 0));
                    self.loop_stack.push((path.clone(), 0));
                    let mut v = lb;
                    while v <= ub {
                        self.iters.last_mut().unwrap().1 = v;
                        self.loop_stack.last_mut().unwrap().1 = v;
                        if !self.visit_nodes(&l.body, path) {
                            ok = false;
                            break;
                        }
                        v += step;
                    }
                    self.loop_stack.pop();
                    self.iters.pop();
                    ok
                }
                Node::If { conds, then } => 'ifb: {
                    for c in conds {
                        match c.eval(&|s| self.lookup(s)) {
                            Ok(true) => {}
                            _ => break 'ifb true,
                        }
                    }
                    self.visit_nodes(then, path)
                }
            };
            path.pop();
            if !ok {
                return false;
            }
        }
        true
    }
}

/// Analyzes `p` with the reference tree walker.
///
/// Same contract and same result as [`crate::analyze_with`], bit for
/// bit; kept as the oracle that the lowered production tracer is pinned
/// to. It does not bump the `dependence.*` registry counters.
pub fn analyze_with_reference(p: &Program, cfg: &AnalysisConfig) -> DependenceSet {
    let mut tracer = Tracer {
        params: scaled_params(p, cfg.param_cap),
        iters: Vec::new(),
        loop_stack: Vec::new(),
        cells: HashMap::new(),
        edges: HashMap::new(),
        instances: 0,
        budget: cfg.instance_budget,
        truncated: false,
    };
    tracer.visit_nodes(&p.body, &mut Vec::new());
    let deps = tracer
        .edges
        .into_iter()
        .map(|((src, dst, array, kind), acc)| Dependence {
            kind,
            array,
            src,
            dst,
            common_loops: acc.common,
            directions: acc.directions,
            distance: acc.distance,
            count: acc.count,
        })
        .collect();
    sorted_set(deps, tracer.truncated)
}

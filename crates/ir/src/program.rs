//! The SCoP program representation: loop-nest trees, statements, arrays,
//! parameters and whole programs.

use crate::expr::{Access, AffineExpr, AssignOp, Bound, Condition, Expr};
use std::fmt;

/// A single assignment statement inside a SCoP.
#[derive(Debug, Clone, PartialEq)]
pub struct Statement {
    /// Stable statement id, assigned in textual order by
    /// [`Program::renumber_statements`].
    pub id: usize,
    /// Write target (array element or scalar).
    pub lhs: Access,
    /// Assignment operator; compound operators read the target first.
    pub op: AssignOp,
    /// Right-hand side expression.
    pub rhs: Expr,
}

impl Statement {
    /// Builds a statement with id 0; ids are assigned when the statement is
    /// inserted into a [`Program`].
    pub fn new(lhs: Access, op: AssignOp, rhs: Expr) -> Self {
        Statement {
            id: 0,
            lhs,
            op,
            rhs,
        }
    }

    /// Every array read performed by this statement, in evaluation order.
    /// Includes the target for compound assignments.
    pub fn reads(&self) -> Vec<Access> {
        let mut out = Vec::new();
        self.rhs.collect_reads(&mut out);
        let mut reads: Vec<Access> = out.into_iter().cloned().collect();
        if self.op.reads_target() {
            reads.push(self.lhs.clone());
        }
        reads
    }

    /// The write access of this statement.
    pub fn write(&self) -> &Access {
        &self.lhs
    }

    /// Replaces symbol `name` with `replacement` in subscripts on both sides.
    pub fn substitute(&self, name: &str, replacement: &AffineExpr) -> Statement {
        Statement {
            id: self.id,
            lhs: self.lhs.substitute(name, replacement),
            op: self.op,
            rhs: self.rhs.substitute(name, replacement),
        }
    }
}

impl fmt::Display for Statement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {};", self.lhs, self.op, self.rhs)
    }
}

/// A `for` loop node.
#[derive(Debug, Clone, PartialEq)]
pub struct Loop {
    /// Iterator variable name.
    pub iter: String,
    /// Inclusive lower bound.
    pub lb: Bound,
    /// Upper bound; inclusive iff [`Loop::ub_inclusive`].
    pub ub: Bound,
    /// Whether the loop condition is `<=` (true) or `<` (false).
    pub ub_inclusive: bool,
    /// Positive step (usually 1).
    pub step: i64,
    /// True when annotated `#pragma omp parallel for`.
    pub parallel: bool,
    /// Loop body.
    pub body: Vec<Node>,
}

impl Loop {
    /// A unit-step sequential loop `for (iter = lb; iter <= ub; iter++)`.
    pub fn new(iter: impl Into<String>, lb: Bound, ub: Bound, body: Vec<Node>) -> Self {
        Loop {
            iter: iter.into(),
            lb,
            ub,
            ub_inclusive: true,
            step: 1,
            parallel: false,
            body,
        }
    }

    /// Number of iterations when both bounds evaluate under `env`.
    ///
    /// # Errors
    ///
    /// Returns the unbound symbol name when one is missing.
    pub fn trip_count(&self, env: &dyn Fn(&str) -> Option<i64>) -> Result<i64, String> {
        let lb = self.lb.eval(env)?;
        let mut ub = self.ub.eval(env)?;
        if !self.ub_inclusive {
            ub -= 1;
        }
        if ub < lb {
            return Ok(0);
        }
        Ok((ub - lb) / self.step + 1)
    }
}

/// A node in the SCoP loop-nest tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Node {
    /// A `for` loop.
    Loop(Loop),
    /// An `if` guard with conjunctive affine conditions.
    If {
        /// Conditions, all of which must hold.
        conds: Vec<Condition>,
        /// Guarded body.
        then: Vec<Node>,
    },
    /// A statement.
    Stmt(Statement),
}

impl Node {
    /// Convenience constructor for a statement node.
    pub fn stmt(lhs: Access, op: AssignOp, rhs: Expr) -> Node {
        Node::Stmt(Statement::new(lhs, op, rhs))
    }

    /// Child nodes, if any.
    pub fn children(&self) -> &[Node] {
        match self {
            Node::Loop(l) => &l.body,
            Node::If { then, .. } => then,
            Node::Stmt(_) => &[],
        }
    }

    /// Mutable child nodes, if any.
    pub fn children_mut(&mut self) -> &mut Vec<Node> {
        match self {
            Node::Loop(l) => &mut l.body,
            Node::If { then, .. } => then,
            Node::Stmt(_) => {
                panic!("statement nodes have no children")
            }
        }
    }

    /// Applies `f` to every statement in the subtree, in textual order.
    pub fn for_each_stmt<'a>(&'a self, f: &mut dyn FnMut(&'a Statement)) {
        match self {
            Node::Stmt(s) => f(s),
            _ => {
                for c in self.children() {
                    c.for_each_stmt(f);
                }
            }
        }
    }

    /// Applies `f` to every statement in the subtree, mutably.
    pub fn for_each_stmt_mut(&mut self, f: &mut dyn FnMut(&mut Statement)) {
        match self {
            Node::Stmt(s) => f(s),
            Node::Loop(l) => {
                for c in &mut l.body {
                    c.for_each_stmt_mut(f);
                }
            }
            Node::If { then, .. } => {
                for c in then {
                    c.for_each_stmt_mut(f);
                }
            }
        }
    }

    /// Maximum loop depth of the subtree rooted here.
    pub fn depth(&self) -> usize {
        match self {
            Node::Stmt(_) => 0,
            Node::Loop(l) => 1 + l.body.iter().map(Node::depth).max().unwrap_or(0),
            Node::If { then, .. } => then.iter().map(Node::depth).max().unwrap_or(0),
        }
    }
}

/// A global (structure) parameter declaration, e.g. `param N = 1024;`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParamDecl {
    /// Parameter name.
    pub name: String,
    /// Default value used for execution and cost estimation.
    pub value: i64,
}

/// An array declaration, e.g. `array A[N][M];`. Zero dimensions declare a
/// scalar.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrayDecl {
    /// Array name.
    pub name: String,
    /// Extent of each dimension as an affine expression over parameters.
    pub dims: Vec<AffineExpr>,
    /// True for scratch scalars introduced inside the SCoP (printed as
    /// `double name;`).
    pub local: bool,
}

impl ArrayDecl {
    /// Declares an array.
    pub fn new(name: impl Into<String>, dims: Vec<AffineExpr>) -> Self {
        ArrayDecl {
            name: name.into(),
            dims,
            local: false,
        }
    }

    /// Declares a scalar.
    pub fn scalar(name: impl Into<String>) -> Self {
        ArrayDecl {
            name: name.into(),
            dims: Vec::new(),
            local: false,
        }
    }

    /// Concrete extents under parameter bindings.
    ///
    /// # Errors
    ///
    /// Returns the unbound symbol name when one is missing.
    pub fn extents(&self, env: &dyn Fn(&str) -> Option<i64>) -> Result<Vec<i64>, String> {
        self.dims.iter().map(|d| d.eval(env)).collect()
    }

    /// Extents for address layout and stride arithmetic: each dimension
    /// folded under `env` by the checked rule of [`crate::lower`], an
    /// unbound or non-positive extent read as 1. `None` when a fold
    /// overflows.
    pub fn layout_extents(&self, env: &dyn Fn(&str) -> Option<i64>) -> Option<Vec<i64>> {
        let scope = crate::lower::Scope::new(env);
        let extent = |d| match scope.lin(d) {
            Ok(f) => Some(f.constant.max(1)),
            Err(crate::lower::Unevaluable::Unbound(_)) => Some(1),
            Err(crate::lower::Unevaluable::Overflow(_)) => None,
        };
        self.dims.iter().map(extent).collect()
    }
}

/// The element stride of `acc` along iterator `iter` under row-major
/// `extents`: the change in its flat index per unit step of `iter`.
/// `None` when that overflows `i64`.
pub fn element_stride(acc: &Access, iter: &str, extents: &[i64]) -> Option<i64> {
    let (mut stride, mut row) = (0i64, 1i64);
    for (dim, ext) in acc.indexes.iter().zip(extents).rev() {
        stride = stride.checked_add(dim.coeff(iter).checked_mul(row)?)?;
        row = row.checked_mul(*ext)?;
    }
    Some(stride)
}

/// The number of `f64` elements that `copies` row-major copies of an
/// array with `extents` occupy: the product of the extents (at least 1,
/// so a scalar holds one element) times `copies`. `None` when that
/// overflows or the data would exceed `isize::MAX` bytes, the most a
/// `Vec<f64>` can hold.
///
/// ```
/// use looprag_ir::checked_elements;
/// assert_eq!(checked_elements(&[3, 4], 2), Some(24));
/// assert_eq!(checked_elements(&[], 1), Some(1));
/// assert_eq!(checked_elements(&[4_000_000_000; 3], 1), None);
/// ```
pub fn checked_elements(extents: &[i64], copies: usize) -> Option<usize> {
    let per_copy = extents
        .iter()
        .try_fold(1i64, |acc, &e| acc.checked_mul(e))?
        .max(1);
    let n = usize::try_from(per_copy).ok()?.checked_mul(copies)?;
    (n <= isize::MAX as usize / std::mem::size_of::<f64>()).then_some(n)
}

/// How an array is initialized before executing a program for testing.
#[derive(Debug, Clone, PartialEq)]
pub enum InitKind {
    /// All zeros.
    Zero,
    /// A fixed constant.
    Constant(f64),
    /// PolyBench-style deterministic pattern:
    /// `value = ((flat_index * a + b) % m) / m`.
    IndexPattern {
        /// Multiplier.
        a: i64,
        /// Offset.
        b: i64,
        /// Modulus (> 0).
        m: i64,
    },
}

impl InitKind {
    /// Default deterministic pattern used when no explicit init is given.
    pub fn default_pattern() -> InitKind {
        InitKind::IndexPattern { a: 7, b: 1, m: 97 }
    }

    /// Value for the element with flattened index `idx`.
    pub fn value_at(&self, idx: usize) -> f64 {
        match self {
            InitKind::Zero => 0.0,
            InitKind::Constant(c) => *c,
            InitKind::IndexPattern { a, b, m } => {
                let v = ((idx as i64).wrapping_mul(*a).wrapping_add(*b)).rem_euclid(*m);
                v as f64 / *m as f64
            }
        }
    }

    /// Writes the elements with flattened indexes `0, 1, …` in order:
    /// each gets [`InitKind::value_at`] of its index, bit for bit. An
    /// index pattern steps its residue by `a mod m` per element where
    /// no `idx·a + b` can wrap, and falls back to the formula where one
    /// can.
    ///
    /// ```
    /// use looprag_ir::InitKind;
    /// let init = InitKind::IndexPattern { a: 7, b: 1, m: 97 };
    /// let mut data = vec![0.0; 300];
    /// init.fill(data.iter_mut());
    /// assert!(data.iter().enumerate().all(|(i, v)| v.to_bits() == init.value_at(i).to_bits()));
    /// ```
    pub fn fill<'a>(&self, out: impl ExactSizeIterator<Item = &'a mut f64>) {
        match *self {
            InitKind::Zero => out.for_each(|x| *x = 0.0),
            InitKind::Constant(c) => out.for_each(|x| *x = c),
            InitKind::IndexPattern { a, b, m } => {
                let last = i64::try_from(out.len().saturating_sub(1)).ok();
                let no_wrap = last
                    .and_then(|n| n.checked_mul(a)?.checked_add(b))
                    .is_some();
                if no_wrap && m > 0 && m <= i64::MAX / 2 {
                    let (mut r, step, scale) = (b.rem_euclid(m), a.rem_euclid(m), m as f64);
                    for x in out {
                        *x = r as f64 / scale;
                        r += step;
                        if r >= m {
                            r -= m;
                        }
                    }
                } else {
                    out.enumerate().for_each(|(idx, x)| *x = self.value_at(idx));
                }
            }
        }
    }
}

/// A complete program: a SCoP plus the declarations that surround it.
///
/// The textual form mirrors the paper's setting — a C kernel whose
/// `#pragma scop` region is the optimization target:
///
/// ```text
/// param N = 256;
/// array A[N][N];
/// out A;
/// #pragma scop
/// for (i = 0; i <= N - 1; i++)
///   A[i][i] = A[i][i] + 1.0;
/// #pragma endscop
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    /// Kernel name (e.g. `gemm`).
    pub name: String,
    /// Global parameters with default values.
    pub params: Vec<ParamDecl>,
    /// Array and scalar declarations.
    pub arrays: Vec<ArrayDecl>,
    /// Arrays whose final contents are the program outputs.
    pub outputs: Vec<String>,
    /// Per-array initialization for testing; arrays without an entry use
    /// [`InitKind::default_pattern`].
    pub inits: Vec<(String, InitKind)>,
    /// The SCoP region body.
    pub body: Vec<Node>,
}

impl Program {
    /// Creates an empty program with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        Program {
            name: name.into(),
            params: Vec::new(),
            arrays: Vec::new(),
            outputs: Vec::new(),
            inits: Vec::new(),
            body: Vec::new(),
        }
    }

    /// Looks up a parameter declaration.
    pub fn param(&self, name: &str) -> Option<&ParamDecl> {
        self.params.iter().find(|p| p.name == name)
    }

    /// Looks up an array declaration.
    pub fn array(&self, name: &str) -> Option<&ArrayDecl> {
        self.arrays.iter().find(|a| a.name == name)
    }

    /// Binds parameter names to their default values.
    pub fn param_env(&self) -> impl Fn(&str) -> Option<i64> + '_ {
        move |s| self.params.iter().find(|p| p.name == s).map(|p| p.value)
    }

    /// Initialization kind for `array`.
    pub fn init_for(&self, array: &str) -> InitKind {
        self.inits
            .iter()
            .find(|(n, _)| n == array)
            .map(|(_, k)| k.clone())
            .unwrap_or_else(InitKind::default_pattern)
    }

    /// All statements in textual order.
    pub fn statements(&self) -> Vec<&Statement> {
        let mut out = Vec::new();
        for n in &self.body {
            n.for_each_stmt(&mut |s| out.push(s));
        }
        out
    }

    /// Number of statements.
    pub fn num_statements(&self) -> usize {
        self.statements().len()
    }

    /// Maximum loop depth of the SCoP.
    pub fn max_depth(&self) -> usize {
        self.body.iter().map(Node::depth).max().unwrap_or(0)
    }

    /// Re-assigns statement ids in textual order and returns the count.
    pub fn renumber_statements(&mut self) -> usize {
        let mut next = 0;
        for n in &mut self.body {
            n.for_each_stmt_mut(&mut |s| {
                s.id = next;
                next += 1;
            });
        }
        next
    }

    /// The chain of loops enclosing statement `id`, outermost first.
    pub fn enclosing_loops(&self, id: usize) -> Vec<&Loop> {
        fn walk<'a>(
            nodes: &'a [Node],
            id: usize,
            stack: &mut Vec<&'a Loop>,
            found: &mut Option<Vec<&'a Loop>>,
        ) {
            for n in nodes {
                if found.is_some() {
                    return;
                }
                match n {
                    Node::Stmt(s) if s.id == id => *found = Some(stack.clone()),
                    Node::Stmt(_) => {}
                    Node::Loop(l) => {
                        stack.push(l);
                        walk(&l.body, id, stack, found);
                        stack.pop();
                    }
                    Node::If { then, .. } => walk(then, id, stack, found),
                }
            }
        }
        let mut found = None;
        let mut stack = Vec::new();
        walk(&self.body, id, &mut stack, &mut found);
        found.unwrap_or_default()
    }

    /// Names of the iterators surrounding statement `id`, outermost first.
    pub fn surrounding_iters(&self, id: usize) -> Vec<String> {
        self.enclosing_loops(id)
            .iter()
            .map(|l| l.iter.clone())
            .collect()
    }

    /// All distinct array names referenced inside the SCoP body.
    pub fn referenced_arrays(&self) -> Vec<String> {
        let mut names = Vec::new();
        for s in self.statements() {
            let mut push = |n: &str| {
                if !names.iter().any(|x| x == n) {
                    names.push(n.to_string());
                }
            };
            push(&s.lhs.array);
            for r in s.reads() {
                push(&r.array);
            }
        }
        names
    }

    /// Total element count across all declared non-local arrays, under
    /// default parameter values. Used for sizing test inputs.
    pub fn total_elements(&self) -> usize {
        let env = self.param_env();
        self.arrays
            .iter()
            .filter(|a| !a.local)
            .map(|a| {
                a.extents(&env)
                    .map(|e| e.iter().product::<i64>().max(1) as usize)
                    .unwrap_or(1)
            })
            .sum()
    }
}

/// Largest `floord` divisor appearing in any loop bound of `p`
/// (0 when none). Sampling-based analyses widen their parameter caps to
/// `2 * divisor + 2` so that tiled code exercises at least two tiles.
pub fn max_floordiv_divisor(p: &Program) -> i64 {
    fn of_bound(b: &crate::expr::Bound, acc: &mut i64) {
        match b {
            crate::expr::Bound::Affine(_) => {}
            crate::expr::Bound::Min(a, c) | crate::expr::Bound::Max(a, c) => {
                of_bound(a, acc);
                of_bound(c, acc);
            }
            crate::expr::Bound::FloorDiv(e, d) => {
                *acc = (*acc).max(*d);
                of_bound(e, acc);
            }
        }
    }
    fn walk(nodes: &[Node], acc: &mut i64) {
        for n in nodes {
            if let Node::Loop(l) = n {
                of_bound(&l.lb, acc);
                of_bound(&l.ub, acc);
            }
            match n {
                Node::Stmt(_) => {}
                _ => walk(n.children(), acc),
            }
        }
    }
    let mut acc = 0;
    walk(&p.body, &mut acc);
    acc
}

/// True when any loop in `p` is marked parallel.
pub fn has_parallel_loop(p: &Program) -> bool {
    fn walk(nodes: &[Node]) -> bool {
        nodes.iter().any(|n| match n {
            Node::Loop(l) => l.parallel || walk(&l.body),
            Node::If { then, .. } => walk(then),
            Node::Stmt(_) => false,
        })
    }
    walk(&p.body)
}

/// The sampling parameter cap that lets analyses of `p` observe at least
/// two tiles of any tiled loop while keeping the traced instance count
/// near `budget`: `max(base, 2 * max_divisor + 2)`, clamped by
/// `budget^(1/depth)`.
pub fn adaptive_sampling_cap(p: &Program, base: i64, budget: f64) -> i64 {
    let d = max_floordiv_divisor(p);
    if d == 0 {
        return base;
    }
    let depth = p.max_depth().max(1) as f64;
    // Tiled code doubles the loop count but not the iteration volume, so
    // clamp by the *original* dimensionality: half the tiled depth.
    let dims = (depth / 2.0).ceil().max(1.0);
    let limit = budget.powf(1.0 / dims).floor() as i64;
    (2 * d + 2).clamp(base, limit.max(base))
}

/// Addresses a node inside a [`Program`] body by child indexes from the root.
pub type NodePath = Vec<usize>;

/// Returns the node at `path`, or `None` when the path is invalid.
pub fn node_at<'a>(body: &'a [Node], path: &[usize]) -> Option<&'a Node> {
    let (&first, rest) = path.split_first()?;
    let node = body.get(first)?;
    if rest.is_empty() {
        Some(node)
    } else {
        node_at(node.children(), rest)
    }
}

/// Returns the node at `path` mutably, or `None` when the path is invalid.
pub fn node_at_mut<'a>(body: &'a mut [Node], path: &[usize]) -> Option<&'a mut Node> {
    let (&first, rest) = path.split_first()?;
    let node = body.get_mut(first)?;
    if rest.is_empty() {
        Some(node)
    } else {
        node_at_mut(node.children_mut(), rest)
    }
}

/// Collects the paths of every loop in the body, in pre-order.
pub fn loop_paths(body: &[Node]) -> Vec<NodePath> {
    fn walk(nodes: &[Node], prefix: &mut NodePath, out: &mut Vec<NodePath>) {
        for (i, n) in nodes.iter().enumerate() {
            prefix.push(i);
            if matches!(n, Node::Loop(_)) {
                out.push(prefix.clone());
            }
            match n {
                Node::Stmt(_) => {}
                _ => walk(n.children(), prefix, out),
            }
            prefix.pop();
        }
    }
    let mut out = Vec::new();
    walk(body, &mut Vec::new(), &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{AffineExpr, AssignOp, Bound};

    fn small_program() -> Program {
        // for (i = 0; i <= N-1; i++)
        //   for (j = 0; j <= i; j++)
        //     A[i][j] = A[i][j] + 1.0;   (S0)
        //   B[i] += 2.0;                 (S1)  -- sibling of the j loop
        let s0 = Node::stmt(
            Access::new("A", vec![AffineExpr::var("i"), AffineExpr::var("j")]),
            AssignOp::Assign,
            Expr::add(
                Expr::access(Access::new(
                    "A",
                    vec![AffineExpr::var("i"), AffineExpr::var("j")],
                )),
                Expr::num(1.0),
            ),
        );
        let jl = Node::Loop(Loop::new(
            "j",
            Bound::constant(0),
            Bound::var("i"),
            vec![s0],
        ));
        let s1 = Node::stmt(
            Access::new("B", vec![AffineExpr::var("i")]),
            AssignOp::AddAssign,
            Expr::num(2.0),
        );
        let il = Node::Loop(Loop::new(
            "i",
            Bound::constant(0),
            Bound::affine(AffineExpr::var("N") - 1),
            vec![jl, s1],
        ));
        let mut p = Program::new("t");
        p.params.push(ParamDecl {
            name: "N".into(),
            value: 8,
        });
        p.arrays.push(ArrayDecl::new(
            "A",
            vec![AffineExpr::var("N"), AffineExpr::var("N")],
        ));
        p.arrays
            .push(ArrayDecl::new("B", vec![AffineExpr::var("N")]));
        p.outputs.push("A".into());
        p.body = vec![il];
        p.renumber_statements();
        p
    }

    #[test]
    fn statement_ids_in_textual_order() {
        let p = small_program();
        let stmts = p.statements();
        assert_eq!(stmts.len(), 2);
        assert_eq!(stmts[0].id, 0);
        assert_eq!(stmts[0].lhs.array, "A");
        assert_eq!(stmts[1].id, 1);
        assert_eq!(stmts[1].lhs.array, "B");
    }

    #[test]
    fn enclosing_loops_and_iters() {
        let p = small_program();
        assert_eq!(p.surrounding_iters(0), vec!["i", "j"]);
        assert_eq!(p.surrounding_iters(1), vec!["i"]);
        assert_eq!(p.max_depth(), 2);
    }

    #[test]
    fn compound_assign_reads_target() {
        let p = small_program();
        let s1 = p.statements()[1].clone();
        let reads = s1.reads();
        assert_eq!(reads.len(), 1);
        assert_eq!(reads[0].array, "B");
    }

    #[test]
    fn node_paths_address_loops() {
        let p = small_program();
        let paths = loop_paths(&p.body);
        assert_eq!(paths, vec![vec![0], vec![0, 0]]);
        let Node::Loop(l) = node_at(&p.body, &[0, 0]).unwrap() else {
            panic!("expected loop");
        };
        assert_eq!(l.iter, "j");
    }

    #[test]
    fn trip_count_handles_empty_and_step() {
        let env = |s: &str| if s == "N" { Some(8) } else { None };
        let l = Loop::new("i", Bound::constant(5), Bound::constant(4), vec![]);
        assert_eq!(l.trip_count(&env).unwrap(), 0);
        let mut l2 = Loop::new("i", Bound::constant(0), Bound::constant(9), vec![]);
        l2.step = 3;
        assert_eq!(l2.trip_count(&env).unwrap(), 4); // 0,3,6,9
    }

    #[test]
    fn referenced_arrays_dedup() {
        let p = small_program();
        assert_eq!(
            p.referenced_arrays(),
            vec!["A".to_string(), "B".to_string()]
        );
    }

    #[test]
    fn init_kind_patterns() {
        assert_eq!(InitKind::Zero.value_at(3), 0.0);
        assert_eq!(InitKind::Constant(2.5).value_at(0), 2.5);
        let p = InitKind::default_pattern();
        let v = p.value_at(10);
        assert!((0.0..1.0).contains(&v));
    }
}

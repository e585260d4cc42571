//! Affine expressions, loop-bound expressions and statement expressions.
//!
//! A SCoP restricts all loop bounds, conditionals and array subscripts to
//! *affine* functions of surrounding loop iterators and global parameters.
//! [`AffineExpr`] is the workhorse type for those positions. Loop bounds
//! produced by tiling additionally need `min`/`max`/`floord`, captured by
//! [`Bound`]. Statement right-hand sides are arbitrary arithmetic over array
//! elements and are represented by [`Expr`].

use std::collections::BTreeMap;
use std::fmt;

/// An affine expression: an integer linear combination of named symbols
/// (loop iterators and global parameters) plus a constant.
///
/// Symbols are kept in a canonical sorted map so that structurally equal
/// expressions compare equal.
///
/// ```
/// use looprag_ir::AffineExpr;
/// let e = AffineExpr::var("i") * 2 + AffineExpr::constant(1);
/// assert_eq!(e.to_string(), "2*i + 1");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct AffineExpr {
    terms: BTreeMap<String, i64>,
    constant: i64,
}

impl AffineExpr {
    /// The zero expression.
    pub fn zero() -> Self {
        Self::default()
    }

    /// A constant expression.
    pub fn constant(c: i64) -> Self {
        AffineExpr {
            terms: BTreeMap::new(),
            constant: c,
        }
    }

    /// A single symbol with coefficient one. The symbol may be a loop
    /// iterator or a global parameter; the distinction is contextual.
    pub fn var(name: impl Into<String>) -> Self {
        let mut terms = BTreeMap::new();
        terms.insert(name.into(), 1);
        AffineExpr { terms, constant: 0 }
    }

    /// A single symbol scaled by `coeff`.
    pub fn scaled_var(name: impl Into<String>, coeff: i64) -> Self {
        let mut e = AffineExpr::zero();
        e.add_term(name, coeff);
        e
    }

    /// Adds `coeff * name` to this expression in place.
    pub fn add_term(&mut self, name: impl Into<String>, coeff: i64) {
        let name = name.into();
        let c = self.terms.entry(name.clone()).or_insert(0);
        *c += coeff;
        if *c == 0 {
            self.terms.remove(&name);
        }
    }

    /// The constant term.
    pub fn constant_term(&self) -> i64 {
        self.constant
    }

    /// Sets the constant term.
    pub fn set_constant(&mut self, c: i64) {
        self.constant = c;
    }

    /// Coefficient of `name` (zero when absent).
    pub fn coeff(&self, name: &str) -> i64 {
        self.terms.get(name).copied().unwrap_or(0)
    }

    /// Iterates over `(symbol, coefficient)` pairs with non-zero
    /// coefficients, in symbol order.
    pub fn iter_terms(&self) -> impl Iterator<Item = (&str, i64)> {
        self.terms.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// True when the expression is a plain constant.
    pub fn is_constant(&self) -> bool {
        self.terms.is_empty()
    }

    /// Returns `Some(c)` when the expression is the constant `c`.
    pub fn as_constant(&self) -> Option<i64> {
        if self.is_constant() {
            Some(self.constant)
        } else {
            None
        }
    }

    /// Returns `Some(name)` when the expression is a single symbol with
    /// coefficient one and no constant.
    pub fn as_var(&self) -> Option<&str> {
        if self.constant == 0 && self.terms.len() == 1 {
            let (k, v) = self.terms.iter().next().unwrap();
            if *v == 1 {
                return Some(k.as_str());
            }
        }
        None
    }

    /// True when `name` occurs with non-zero coefficient.
    pub fn uses(&self, name: &str) -> bool {
        self.terms.contains_key(name)
    }

    /// Replaces every occurrence of symbol `name` with `replacement`.
    ///
    /// This is the core rewriting primitive behind loop interchange,
    /// skewing and shifting.
    pub fn substitute(&self, name: &str, replacement: &AffineExpr) -> AffineExpr {
        let mut out = AffineExpr::constant(self.constant);
        for (sym, coeff) in &self.terms {
            if sym == name {
                let mut scaled = replacement.clone();
                scaled.scale_in_place(*coeff);
                out = out + scaled;
            } else {
                out.add_term(sym.clone(), *coeff);
            }
        }
        out
    }

    fn scale_in_place(&mut self, factor: i64) {
        if factor == 0 {
            *self = AffineExpr::zero();
            return;
        }
        for v in self.terms.values_mut() {
            *v *= factor;
        }
        self.constant *= factor;
    }

    /// Evaluates the expression under `env`, which must bind every symbol
    /// that occurs in it.
    ///
    /// # Errors
    ///
    /// Returns the unbound symbol name when one is missing from `env`.
    pub fn eval(&self, env: &dyn Fn(&str) -> Option<i64>) -> Result<i64, String> {
        let mut acc = self.constant;
        for (sym, coeff) in &self.terms {
            let v = env(sym).ok_or_else(|| sym.clone())?;
            acc += coeff * v;
        }
        Ok(acc)
    }

    /// All symbols occurring in the expression.
    pub fn symbols(&self) -> impl Iterator<Item = &str> {
        self.terms.keys().map(|s| s.as_str())
    }
}

impl std::ops::Add for AffineExpr {
    type Output = AffineExpr;
    fn add(mut self, rhs: AffineExpr) -> AffineExpr {
        for (sym, coeff) in rhs.terms {
            self.add_term(sym, coeff);
        }
        self.constant += rhs.constant;
        self
    }
}

impl std::ops::Sub for AffineExpr {
    type Output = AffineExpr;
    fn sub(self, rhs: AffineExpr) -> AffineExpr {
        self + (-rhs)
    }
}

impl std::ops::Neg for AffineExpr {
    type Output = AffineExpr;
    fn neg(mut self) -> AffineExpr {
        self.scale_in_place(-1);
        self
    }
}

impl std::ops::Mul<i64> for AffineExpr {
    type Output = AffineExpr;
    fn mul(mut self, rhs: i64) -> AffineExpr {
        self.scale_in_place(rhs);
        self
    }
}

impl std::ops::Add<i64> for AffineExpr {
    type Output = AffineExpr;
    fn add(mut self, rhs: i64) -> AffineExpr {
        self.constant += rhs;
        self
    }
}

impl std::ops::Sub<i64> for AffineExpr {
    type Output = AffineExpr;
    fn sub(mut self, rhs: i64) -> AffineExpr {
        self.constant -= rhs;
        self
    }
}

impl fmt::Display for AffineExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (sym, coeff) in &self.terms {
            if first {
                match *coeff {
                    1 => write!(f, "{sym}")?,
                    -1 => write!(f, "-{sym}")?,
                    c => write!(f, "{c}*{sym}")?,
                }
                first = false;
            } else {
                let sign = if *coeff < 0 { "-" } else { "+" };
                let mag = coeff.abs();
                if mag == 1 {
                    write!(f, " {sign} {sym}")?;
                } else {
                    write!(f, " {sign} {mag}*{sym}")?;
                }
            }
        }
        if first {
            write!(f, "{}", self.constant)?;
        } else if self.constant != 0 {
            let sign = if self.constant < 0 { "-" } else { "+" };
            write!(f, " {sign} {}", self.constant.abs())?;
        }
        Ok(())
    }
}

/// A loop-bound expression: affine expressions closed under `min`, `max`
/// and floor division by a positive constant.
///
/// This is exactly the language that tiled code generators (ClooG-style)
/// emit for loop bounds.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Bound {
    /// A plain affine expression.
    Affine(AffineExpr),
    /// Minimum of two bounds (used for tiled upper bounds).
    Min(Box<Bound>, Box<Bound>),
    /// Maximum of two bounds (used for tiled lower bounds).
    Max(Box<Bound>, Box<Bound>),
    /// `floord(e, c)`: floor division toward negative infinity, `c > 0`.
    FloorDiv(Box<Bound>, i64),
}

impl Bound {
    /// Wraps an affine expression.
    pub fn affine(e: AffineExpr) -> Self {
        Bound::Affine(e)
    }

    /// A constant bound.
    pub fn constant(c: i64) -> Self {
        Bound::Affine(AffineExpr::constant(c))
    }

    /// A single-symbol bound.
    pub fn var(name: impl Into<String>) -> Self {
        Bound::Affine(AffineExpr::var(name))
    }

    /// `min(self, other)`.
    pub fn min(self, other: Bound) -> Bound {
        Bound::Min(Box::new(self), Box::new(other))
    }

    /// `max(self, other)`.
    pub fn max(self, other: Bound) -> Bound {
        Bound::Max(Box::new(self), Box::new(other))
    }

    /// `floord(self, divisor)`.
    ///
    /// # Panics
    ///
    /// Panics if `divisor <= 0`.
    pub fn floor_div(self, divisor: i64) -> Bound {
        assert!(divisor > 0, "floord divisor must be positive");
        Bound::FloorDiv(Box::new(self), divisor)
    }

    /// Evaluates the bound under `env`.
    ///
    /// # Errors
    ///
    /// Returns the unbound symbol name when one is missing.
    pub fn eval(&self, env: &dyn Fn(&str) -> Option<i64>) -> Result<i64, String> {
        match self {
            Bound::Affine(e) => e.eval(env),
            Bound::Min(a, b) => Ok(a.eval(env)?.min(b.eval(env)?)),
            Bound::Max(a, b) => Ok(a.eval(env)?.max(b.eval(env)?)),
            Bound::FloorDiv(e, c) => Ok(e.eval(env)?.div_euclid(*c)),
        }
    }

    /// Replaces symbol `name` with `replacement` throughout.
    pub fn substitute(&self, name: &str, replacement: &AffineExpr) -> Bound {
        match self {
            Bound::Affine(e) => Bound::Affine(e.substitute(name, replacement)),
            Bound::Min(a, b) => Bound::Min(
                Box::new(a.substitute(name, replacement)),
                Box::new(b.substitute(name, replacement)),
            ),
            Bound::Max(a, b) => Bound::Max(
                Box::new(a.substitute(name, replacement)),
                Box::new(b.substitute(name, replacement)),
            ),
            Bound::FloorDiv(e, c) => Bound::FloorDiv(Box::new(e.substitute(name, replacement)), *c),
        }
    }

    /// True when `name` occurs anywhere in the bound.
    pub fn uses(&self, name: &str) -> bool {
        match self {
            Bound::Affine(e) => e.uses(name),
            Bound::Min(a, b) | Bound::Max(a, b) => a.uses(name) || b.uses(name),
            Bound::FloorDiv(e, _) => e.uses(name),
        }
    }

    /// Simplifies the bound:
    ///
    /// * `min`/`max` of two affine expressions whose difference is a
    ///   constant folds to the smaller/larger side;
    /// * `floord(e, c)` folds into an affine expression when every symbol
    ///   coefficient of `e` is divisible by `c` (e.g.
    ///   `floord(32*t1 + 31, 32)` becomes `t1`).
    pub fn simplify(&self) -> Bound {
        match self {
            Bound::Affine(e) => Bound::Affine(e.clone()),
            Bound::Min(a, b) | Bound::Max(a, b) => {
                let is_min = matches!(self, Bound::Min(..));
                let sa = a.simplify();
                let sb = b.simplify();
                if let (Bound::Affine(ea), Bound::Affine(eb)) = (&sa, &sb) {
                    let diff = ea.clone() - eb.clone();
                    if let Some(c) = diff.as_constant() {
                        // ea = eb + c
                        let take_a = (c <= 0) == is_min;
                        return if take_a { sa } else { sb };
                    }
                }
                if is_min {
                    Bound::Min(Box::new(sa), Box::new(sb))
                } else {
                    Bound::Max(Box::new(sa), Box::new(sb))
                }
            }
            Bound::FloorDiv(e, c) => {
                let se = e.simplify();
                if let Bound::Affine(a) = &se {
                    if a.iter_terms().all(|(_, coeff)| coeff % c == 0) {
                        let mut folded = AffineExpr::constant(a.constant_term().div_euclid(*c));
                        for (sym, coeff) in a.iter_terms() {
                            folded.add_term(sym.to_string(), coeff / c);
                        }
                        return Bound::Affine(folded);
                    }
                }
                Bound::FloorDiv(Box::new(se), *c)
            }
        }
    }

    /// Collects every symbol occurring in the bound into `out`.
    pub fn collect_symbols(&self, out: &mut Vec<String>) {
        match self {
            Bound::Affine(e) => out.extend(e.symbols().map(|s| s.to_string())),
            Bound::Min(a, b) | Bound::Max(a, b) => {
                a.collect_symbols(out);
                b.collect_symbols(out);
            }
            Bound::FloorDiv(e, _) => e.collect_symbols(out),
        }
    }
}

impl From<AffineExpr> for Bound {
    fn from(e: AffineExpr) -> Self {
        Bound::Affine(e)
    }
}

impl fmt::Display for Bound {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Bound::Affine(e) => write!(f, "{e}"),
            Bound::Min(a, b) => write!(f, "min({a}, {b})"),
            Bound::Max(a, b) => write!(f, "max({a}, {b})"),
            Bound::FloorDiv(e, c) => write!(f, "floord({e}, {c})"),
        }
    }
}

/// Comparison operators usable in `if` conditions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `==`
    Eq,
    /// `!=`
    Ne,
}

impl CmpOp {
    /// Evaluates `lhs op rhs`.
    pub fn eval(self, lhs: i64, rhs: i64) -> bool {
        match self {
            CmpOp::Lt => lhs < rhs,
            CmpOp::Le => lhs <= rhs,
            CmpOp::Gt => lhs > rhs,
            CmpOp::Ge => lhs >= rhs,
            CmpOp::Eq => lhs == rhs,
            CmpOp::Ne => lhs != rhs,
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
            CmpOp::Eq => "==",
            CmpOp::Ne => "!=",
        };
        f.write_str(s)
    }
}

/// An affine condition `lhs op rhs` used as an `if` guard inside a SCoP.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Condition {
    /// Left-hand side.
    pub lhs: AffineExpr,
    /// Comparison operator.
    pub op: CmpOp,
    /// Right-hand side.
    pub rhs: AffineExpr,
}

impl Condition {
    /// Builds a condition.
    pub fn new(lhs: AffineExpr, op: CmpOp, rhs: AffineExpr) -> Self {
        Condition { lhs, op, rhs }
    }

    /// Evaluates the condition under `env`.
    ///
    /// # Errors
    ///
    /// Returns the unbound symbol name when one is missing.
    pub fn eval(&self, env: &dyn Fn(&str) -> Option<i64>) -> Result<bool, String> {
        Ok(self.op.eval(self.lhs.eval(env)?, self.rhs.eval(env)?))
    }

    /// Replaces symbol `name` with `replacement` on both sides.
    pub fn substitute(&self, name: &str, replacement: &AffineExpr) -> Condition {
        Condition {
            lhs: self.lhs.substitute(name, replacement),
            op: self.op,
            rhs: self.rhs.substitute(name, replacement),
        }
    }
}

impl fmt::Display for Condition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {}", self.lhs, self.op, self.rhs)
    }
}

/// Binary arithmetic operators in statement expressions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
}

impl BinOp {
    /// Applies the operator to two floating-point operands.
    pub fn apply(self, a: f64, b: f64) -> f64 {
        match self {
            BinOp::Add => a + b,
            BinOp::Sub => a - b,
            BinOp::Mul => a * b,
            BinOp::Div => a / b,
        }
    }

    /// Relative cost in abstract ALU cycles, used by the machine model.
    pub fn cost(self) -> u64 {
        match self {
            BinOp::Add | BinOp::Sub => 1,
            BinOp::Mul => 2,
            BinOp::Div => 12,
        }
    }
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
        };
        f.write_str(s)
    }
}

/// Intrinsic math functions available in statement expressions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MathFn {
    /// `sqrt(x)`
    Sqrt,
    /// `exp(x)`
    Exp,
    /// `fabs(x)`
    Fabs,
    /// `pow(x, y)`
    Pow,
    /// `fmin(x, y)` — data-level minimum (floyd-warshall-style kernels).
    Fmin,
    /// `fmax(x, y)` — data-level maximum.
    Fmax,
}

impl MathFn {
    /// Function name as spelled in source.
    pub fn name(self) -> &'static str {
        match self {
            MathFn::Sqrt => "sqrt",
            MathFn::Exp => "exp",
            MathFn::Fabs => "fabs",
            MathFn::Pow => "pow",
            MathFn::Fmin => "fmin",
            MathFn::Fmax => "fmax",
        }
    }

    /// Number of arguments the function takes.
    pub fn arity(self) -> usize {
        match self {
            MathFn::Pow | MathFn::Fmin | MathFn::Fmax => 2,
            _ => 1,
        }
    }

    /// Looks a function up by source name.
    pub fn from_name(name: &str) -> Option<MathFn> {
        match name {
            "sqrt" => Some(MathFn::Sqrt),
            "exp" => Some(MathFn::Exp),
            "fabs" => Some(MathFn::Fabs),
            "pow" => Some(MathFn::Pow),
            "fmin" => Some(MathFn::Fmin),
            "fmax" => Some(MathFn::Fmax),
            _ => None,
        }
    }

    /// Applies the function.
    pub fn apply(self, args: &[f64]) -> f64 {
        match self {
            MathFn::Sqrt => args[0].sqrt(),
            MathFn::Exp => args[0].exp(),
            MathFn::Fabs => args[0].abs(),
            MathFn::Pow => args[0].powf(args[1]),
            MathFn::Fmin => args[0].min(args[1]),
            MathFn::Fmax => args[0].max(args[1]),
        }
    }

    /// Relative cost in abstract ALU cycles.
    pub fn cost(self) -> u64 {
        match self {
            MathFn::Fabs | MathFn::Fmin | MathFn::Fmax => 1,
            MathFn::Sqrt => 15,
            MathFn::Exp | MathFn::Pow => 25,
        }
    }
}

/// An array (or scalar) access: `array[indexes...]`.
///
/// Scalars are zero-dimensional arrays, so `indexes` is empty for them.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Access {
    /// Array name.
    pub array: String,
    /// One affine subscript per dimension.
    pub indexes: Vec<AffineExpr>,
}

impl Access {
    /// Builds an access.
    pub fn new(array: impl Into<String>, indexes: Vec<AffineExpr>) -> Self {
        Access {
            array: array.into(),
            indexes,
        }
    }

    /// A scalar (zero-dimensional) access.
    pub fn scalar(name: impl Into<String>) -> Self {
        Access {
            array: name.into(),
            indexes: Vec::new(),
        }
    }

    /// Replaces symbol `name` with `replacement` in every subscript.
    pub fn substitute(&self, name: &str, replacement: &AffineExpr) -> Access {
        Access {
            array: self.array.clone(),
            indexes: self
                .indexes
                .iter()
                .map(|e| e.substitute(name, replacement))
                .collect(),
        }
    }
}

impl fmt::Display for Access {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.array)?;
        for ix in &self.indexes {
            write!(f, "[{ix}]")?;
        }
        Ok(())
    }
}

/// A statement right-hand-side expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Floating-point literal.
    Num(f64),
    /// Array or scalar read.
    Access(Access),
    /// A loop iterator or global parameter used as a value.
    Sym(String),
    /// Unary negation.
    Neg(Box<Expr>),
    /// Binary arithmetic.
    Binary(BinOp, Box<Expr>, Box<Expr>),
    /// Math intrinsic call.
    Call(MathFn, Vec<Expr>),
}

impl Expr {
    /// Numeric literal helper.
    pub fn num(v: f64) -> Expr {
        Expr::Num(v)
    }

    /// Read access helper.
    pub fn access(a: Access) -> Expr {
        Expr::Access(a)
    }

    /// `a + b`
    #[allow(clippy::should_implement_trait)] // constructor over two operands, not `self`
    pub fn add(a: Expr, b: Expr) -> Expr {
        Expr::Binary(BinOp::Add, Box::new(a), Box::new(b))
    }

    /// `a - b`
    #[allow(clippy::should_implement_trait)] // constructor over two operands, not `self`
    pub fn sub(a: Expr, b: Expr) -> Expr {
        Expr::Binary(BinOp::Sub, Box::new(a), Box::new(b))
    }

    /// `a * b`
    #[allow(clippy::should_implement_trait)] // constructor over two operands, not `self`
    pub fn mul(a: Expr, b: Expr) -> Expr {
        Expr::Binary(BinOp::Mul, Box::new(a), Box::new(b))
    }

    /// `a / b`
    #[allow(clippy::should_implement_trait)] // constructor over two operands, not `self`
    pub fn div(a: Expr, b: Expr) -> Expr {
        Expr::Binary(BinOp::Div, Box::new(a), Box::new(b))
    }

    /// Collects every read access in evaluation order into `out`.
    pub fn collect_reads<'a>(&'a self, out: &mut Vec<&'a Access>) {
        match self {
            Expr::Num(_) | Expr::Sym(_) => {}
            Expr::Access(a) => out.push(a),
            Expr::Neg(e) => e.collect_reads(out),
            Expr::Binary(_, a, b) => {
                a.collect_reads(out);
                b.collect_reads(out);
            }
            Expr::Call(_, args) => {
                for a in args {
                    a.collect_reads(out);
                }
            }
        }
    }

    /// Replaces symbol `name` with an affine `replacement` in every
    /// subscript and every direct symbolic use.
    ///
    /// Direct symbolic uses (`Expr::Sym`) are only rewritten when the
    /// replacement is itself a single symbol; otherwise the substitution
    /// would leave the affine fragment, and the caller is expected to have
    /// ruled that out.
    pub fn substitute(&self, name: &str, replacement: &AffineExpr) -> Expr {
        match self {
            Expr::Num(v) => Expr::Num(*v),
            Expr::Access(a) => Expr::Access(a.substitute(name, replacement)),
            Expr::Sym(s) if s == name => match replacement.as_var() {
                Some(v) => Expr::Sym(v.to_string()),
                None => Expr::Sym(s.clone()),
            },
            Expr::Sym(s) => Expr::Sym(s.clone()),
            Expr::Neg(e) => Expr::Neg(Box::new(e.substitute(name, replacement))),
            Expr::Binary(op, a, b) => Expr::Binary(
                *op,
                Box::new(a.substitute(name, replacement)),
                Box::new(b.substitute(name, replacement)),
            ),
            Expr::Call(f, args) => Expr::Call(
                *f,
                args.iter()
                    .map(|a| a.substitute(name, replacement))
                    .collect(),
            ),
        }
    }

    /// Abstract ALU cost of evaluating the expression once.
    pub fn alu_cost(&self) -> u64 {
        match self {
            Expr::Num(_) | Expr::Sym(_) => 0,
            Expr::Access(_) => 0,
            Expr::Neg(e) => 1 + e.alu_cost(),
            Expr::Binary(op, a, b) => op.cost() + a.alu_cost() + b.alu_cost(),
            Expr::Call(f, args) => f.cost() + args.iter().map(|a| a.alu_cost()).sum::<u64>(),
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Num(v) => {
                if v.fract() == 0.0 && v.abs() < 1e15 {
                    write!(f, "{:.1}", v)
                } else {
                    write!(f, "{v}")
                }
            }
            Expr::Access(a) => write!(f, "{a}"),
            Expr::Sym(s) => write!(f, "{s}"),
            Expr::Neg(e) => write!(f, "-({e})"),
            Expr::Binary(op, a, b) => {
                let wrap = |e: &Expr, f: &mut fmt::Formatter<'_>| -> fmt::Result {
                    match e {
                        Expr::Binary(..) | Expr::Neg(..) => write!(f, "({e})"),
                        _ => write!(f, "{e}"),
                    }
                };
                wrap(a, f)?;
                write!(f, " {op} ")?;
                wrap(b, f)
            }
            Expr::Call(func, args) => {
                write!(f, "{}(", func.name())?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
        }
    }
}

/// Assignment operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AssignOp {
    /// `=`
    Assign,
    /// `+=`
    AddAssign,
    /// `-=`
    SubAssign,
    /// `*=`
    MulAssign,
}

impl AssignOp {
    /// Applies `old op rhs`, producing the stored value.
    pub fn apply(self, old: f64, rhs: f64) -> f64 {
        match self {
            AssignOp::Assign => rhs,
            AssignOp::AddAssign => old + rhs,
            AssignOp::SubAssign => old - rhs,
            AssignOp::MulAssign => old * rhs,
        }
    }

    /// True for compound assignments, which read the target before writing.
    pub fn reads_target(self) -> bool {
        !matches!(self, AssignOp::Assign)
    }
}

impl fmt::Display for AssignOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AssignOp::Assign => "=",
            AssignOp::AddAssign => "+=",
            AssignOp::SubAssign => "-=",
            AssignOp::MulAssign => "*=",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env_of<'a>(pairs: &'a [(&'a str, i64)]) -> impl Fn(&str) -> Option<i64> + 'a {
        move |s| pairs.iter().find(|(k, _)| *k == s).map(|(_, v)| *v)
    }

    #[test]
    fn affine_arithmetic_canonicalizes() {
        let a = AffineExpr::var("i") + AffineExpr::var("j") * 2 + 3;
        let b = AffineExpr::var("j") * 2;
        let c = a.clone() - b;
        assert_eq!(c.coeff("i"), 1);
        assert_eq!(c.coeff("j"), 0);
        assert!(!c.uses("j"));
        assert_eq!(c.constant_term(), 3);
    }

    #[test]
    fn affine_substitute_scales() {
        // 3*i + 1 with i := j - 2  =>  3*j - 5
        let e = AffineExpr::var("i") * 3 + 1;
        let r = AffineExpr::var("j") - 2;
        let s = e.substitute("i", &r);
        assert_eq!(s.coeff("j"), 3);
        assert_eq!(s.constant_term(), -5);
    }

    #[test]
    fn affine_eval_and_missing_symbol() {
        let e = AffineExpr::var("i") * 2 + AffineExpr::var("N") + 1;
        let v = e.eval(&env_of(&[("i", 5), ("N", 100)])).unwrap();
        assert_eq!(v, 111);
        assert_eq!(e.eval(&env_of(&[("i", 5)])), Err("N".to_string()));
    }

    #[test]
    fn affine_display_formats() {
        assert_eq!(AffineExpr::zero().to_string(), "0");
        assert_eq!((AffineExpr::var("i") - 1).to_string(), "i - 1");
        assert_eq!((-AffineExpr::var("i")).to_string(), "-i");
        let e = AffineExpr::var("i") * -2 + AffineExpr::var("j") + 7;
        assert_eq!(e.to_string(), "-2*i + j + 7");
    }

    #[test]
    fn bound_eval_min_max_floord() {
        let b = Bound::var("N")
            .floor_div(32)
            .min(Bound::var("i"))
            .max(Bound::constant(0));
        let v = b.eval(&env_of(&[("N", 100), ("i", 2)])).unwrap();
        assert_eq!(v, 2);
        // floord with negatives rounds toward -inf
        let b2 = Bound::affine(AffineExpr::var("x")).floor_div(32);
        assert_eq!(b2.eval(&env_of(&[("x", -1)])).unwrap(), -1);
        assert_eq!(b2.eval(&env_of(&[("x", 31)])).unwrap(), 0);
    }

    #[test]
    fn bound_substitute_recurses() {
        let b = Bound::var("i").floor_div(4).max(Bound::var("i"));
        let s = b.substitute("i", &(AffineExpr::var("t") * 8));
        assert_eq!(s.eval(&env_of(&[("t", 2)])).unwrap(), 16);
    }

    #[test]
    fn condition_eval() {
        let c = Condition::new(AffineExpr::var("i"), CmpOp::Lt, AffineExpr::var("N"));
        assert!(c.eval(&env_of(&[("i", 3), ("N", 4)])).unwrap());
        assert!(!c.eval(&env_of(&[("i", 4), ("N", 4)])).unwrap());
    }

    #[test]
    fn expr_collect_reads_in_order() {
        let e = Expr::add(
            Expr::access(Access::new("A", vec![AffineExpr::var("i")])),
            Expr::mul(
                Expr::access(Access::new("B", vec![AffineExpr::var("j")])),
                Expr::num(2.0),
            ),
        );
        let mut reads = Vec::new();
        e.collect_reads(&mut reads);
        assert_eq!(reads.len(), 2);
        assert_eq!(reads[0].array, "A");
        assert_eq!(reads[1].array, "B");
    }

    #[test]
    fn expr_display_round_numbers() {
        let e = Expr::mul(Expr::Sym("alpha".into()), Expr::num(6.0));
        assert_eq!(e.to_string(), "alpha * 6.0");
    }

    #[test]
    fn assign_op_semantics() {
        assert_eq!(AssignOp::Assign.apply(1.0, 2.0), 2.0);
        assert_eq!(AssignOp::AddAssign.apply(1.0, 2.0), 3.0);
        assert_eq!(AssignOp::MulAssign.apply(3.0, 2.0), 6.0);
        assert!(AssignOp::AddAssign.reads_target());
        assert!(!AssignOp::Assign.reads_target());
    }
}

#[cfg(test)]
mod simplify_tests {
    use super::*;

    #[test]
    fn min_max_of_constant_offset_pair_folds() {
        let a = Bound::affine(AffineExpr::var("t") * 32);
        let b = Bound::affine(AffineExpr::var("t") * 32 + 31);
        assert_eq!(
            a.clone().max(b.clone()).simplify(),
            Bound::affine(AffineExpr::var("t") * 32 + 31)
        );
        assert_eq!(a.clone().min(b).simplify(), a);
    }

    #[test]
    fn floordiv_with_divisible_coeffs_folds() {
        let e = Bound::affine(AffineExpr::var("t") * 32 + 31).floor_div(32);
        assert_eq!(e.simplify(), Bound::var("t"));
        let f = Bound::affine(AffineExpr::var("N") - 1).floor_div(32);
        assert!(matches!(f.simplify(), Bound::FloorDiv(..)));
        let g = Bound::constant(64).floor_div(32);
        assert_eq!(g.simplify(), Bound::constant(2));
    }

    #[test]
    fn nested_simplification() {
        // max(32*t, 32*t + 31) / 32 => t (after both folds)
        let a = Bound::affine(AffineExpr::var("t") * 32);
        let b = Bound::affine(AffineExpr::var("t") * 32 + 31);
        let e = a.max(b).floor_div(32);
        assert_eq!(e.simplify(), Bound::var("t"));
    }

    #[test]
    fn incomparable_min_is_kept() {
        let e = Bound::var("N").min(Bound::var("M"));
        assert_eq!(e.clone().simplify(), e);
    }
}

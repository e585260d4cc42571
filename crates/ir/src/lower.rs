//! The one lowering of a SCoP's affine parts, shared by the lane engine
//! (`looprag-exec`), the dependence tracer (`looprag-dependence`) and
//! the cost model (`looprag-machine`).
//!
//! A [`Scope`] resolves each symbol by lexical scope (the innermost
//! enclosing iterator of that name, else the parameter, else unbound)
//! and folds parameters into constants with checked arithmetic. It
//! produces [`Lin`], an affine form over iterator slots (a slot is the
//! depth of the loop that binds the iterator, outermost 0), and
//! [`FlatBound`], a `min`/`max`/`floord` bound stored as one flat
//! program. [`Scope::loop_bounds`] lowers a loop header to an inclusive
//! range with a positive step: an exclusive upper bound becomes
//! `ub - 1`, and a non-positive step runs once at the lower bound.
//!
//! A form that names an unbound symbol, or whose parameter fold
//! overflows `i64`, lowers to an [`Unevaluable`] reason. The lane engine
//! raises it when execution reaches the form, the dependence tracer
//! skips the access, loop or guard, and the cost model rejects the
//! program.

use crate::{Access, AffineExpr, Bound, CmpOp, Condition, Loop};

/// Why a lowered form cannot be evaluated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Unevaluable {
    /// The first symbol, in term order, that is neither an enclosing
    /// iterator nor a parameter.
    Unbound(String),
    /// Folding parameters into this affine expression's constant
    /// overflows `i64`.
    Overflow(String),
}

/// What a symbol resolves to in a [`Scope`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Symbol {
    /// The iterator of an enclosing loop, at this slot.
    Iter(usize),
    /// A parameter, at this value.
    Param(i64),
    /// Neither.
    Unbound,
}

/// An affine form `constant + Σ coeff × iters[slot]`, parameters folded
/// into `constant`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Lin {
    /// The constant, parameters folded in.
    pub constant: i64,
    /// `(slot, coeff)` per iterator term; lowered from an expression,
    /// in its `iter_terms` order.
    pub terms: Box<[(usize, i64)]>,
}

#[inline]
fn affine(constant: i64, terms: &[(usize, i64)], iters: &[i64]) -> i64 {
    let mut acc = constant;
    for &(slot, coeff) in terms {
        acc += coeff * iters[slot];
    }
    acc
}

impl Lin {
    /// The value at the iterator values `iters`, indexed by slot.
    #[inline]
    pub fn eval(&self, iters: &[i64]) -> i64 {
        affine(self.constant, &self.terms, iters)
    }

    /// [`Lin::eval`] modulo 2^64: equal to it when it does not
    /// overflow, and to its release-build wraparound when it does.
    #[inline]
    pub fn eval_wrapping(&self, iters: &[i64]) -> i64 {
        let wrap = |acc: i64, &(s, c): &(usize, i64)| acc.wrapping_add(c.wrapping_mul(iters[s]));
        self.terms.iter().fold(self.constant, wrap)
    }

    /// The coefficient of slot `slot` (0 when no term names it).
    pub fn coeff(&self, slot: usize) -> i64 {
        self.terms.iter().find(|t| t.0 == slot).map_or(0, |t| t.1)
    }

    /// True when a term names slot `slot`, whatever its coefficient.
    pub fn uses(&self, slot: usize) -> bool {
        self.terms.iter().any(|t| t.0 == slot)
    }
}

/// One node of a [`FlatBound`], in pre-order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BoundOp {
    /// An affine leaf: the constant plus `terms[start..end]`.
    Leaf(i64, u32, u32),
    /// `min` of the next two subtrees.
    Min,
    /// `max` of the next two subtrees.
    Max,
    /// Floor division of the next subtree by a positive constant.
    FloorDiv(i64),
}

/// A lowered loop bound: a [`Bound`] tree stored as one pre-order
/// program over affine leaves, with no `Box` per node.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FlatBound {
    /// The pre-order program; empty when the bound is one affine leaf,
    /// `constant` plus `terms`, its fast path.
    ops: Vec<BoundOp>,
    constant: i64,
    /// Every leaf's terms, leaves in program order.
    terms: Vec<(usize, i64)>,
}

impl FlatBound {
    /// The bound's value at the iterator values `iters`.
    #[inline]
    pub fn eval(&self, iters: &[i64]) -> i64 {
        if self.ops.is_empty() {
            affine(self.constant, &self.terms, iters)
        } else {
            self.eval_at(0, iters).0
        }
    }

    /// The value of the subtree starting at `ops[i]`, left operand
    /// first as in [`Bound::eval`], and the index just past it.
    fn eval_at(&self, i: usize, iters: &[i64]) -> (i64, usize) {
        match self.ops[i] {
            BoundOp::Leaf(constant, start, end) => {
                let terms = &self.terms[start as usize..end as usize];
                (affine(constant, terms, iters), i + 1)
            }
            BoundOp::FloorDiv(c) => {
                let (v, next) = self.eval_at(i + 1, iters);
                (v.div_euclid(c), next)
            }
            BoundOp::Min => {
                let (a, next) = self.eval_at(i + 1, iters);
                let (b, next) = self.eval_at(next, iters);
                (a.min(b), next)
            }
            BoundOp::Max => {
                let (a, next) = self.eval_at(i + 1, iters);
                let (b, next) = self.eval_at(next, iters);
                (a.max(b), next)
            }
        }
    }

    /// True when a term of any leaf names slot `slot`.
    pub fn uses(&self, slot: usize) -> bool {
        self.terms.iter().any(|t| t.0 == slot)
    }
}

/// A loop header as an inclusive range with a positive step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoopBounds {
    /// The first iterator value.
    pub lb: FlatBound,
    /// The inclusive upper bound.
    pub ub: FlatBound,
    /// The step, at least 1.
    pub step: i64,
}

/// Symbol resolution by lexical scope, and lowering under it. A caller
/// lowers a loop's header before pushing its iterator, and pops the
/// iterator after the loop's body.
pub struct Scope<'a> {
    params: &'a dyn Fn(&str) -> Option<i64>,
    /// Iterator names of the enclosing loops; index = slot.
    iters: Vec<&'a str>,
}

/// A lowered guard condition: `lhs op rhs`.
pub type Guard = (Lin, CmpOp, Lin);

impl<'a> Scope<'a> {
    /// An empty scope over the parameter values `params`.
    pub fn new(params: &'a dyn Fn(&str) -> Option<i64>) -> Scope<'a> {
        Scope {
            params,
            iters: Vec::new(),
        }
    }

    /// Enters a loop over `iter`; returns the iterator's slot.
    pub fn push(&mut self, iter: &'a str) -> usize {
        self.iters.push(iter);
        self.iters.len() - 1
    }

    /// Leaves the innermost loop.
    pub fn pop(&mut self) {
        self.iters.pop();
    }

    /// Resolves `sym`: the innermost iterator of that name, else the
    /// parameter, else unbound.
    pub fn resolve(&self, sym: &str) -> Symbol {
        match self.iters.iter().rposition(|n| *n == sym) {
            Some(slot) => Symbol::Iter(slot),
            None => (self.params)(sym).map_or(Symbol::Unbound, Symbol::Param),
        }
    }

    /// Appends `e`'s iterator terms to `terms` and returns its constant,
    /// parameters folded in, less `minus` (`None`: that amount itself
    /// overflowed). Fails at the first failure in term order.
    fn fold(
        &self,
        e: &AffineExpr,
        minus: Option<i64>,
        terms: &mut Vec<(usize, i64)>,
    ) -> Result<i64, Unevaluable> {
        let overflow = || Unevaluable::Overflow(e.to_string());
        let mut constant = e.constant_term();
        for (sym, coeff) in e.iter_terms() {
            match self.resolve(sym) {
                Symbol::Iter(slot) => terms.push((slot, coeff)),
                Symbol::Param(v) => {
                    let folded = coeff.checked_mul(v).and_then(|t| constant.checked_add(t));
                    constant = folded.ok_or_else(overflow)?;
                }
                Symbol::Unbound => return Err(Unevaluable::Unbound(sym.to_string())),
            }
        }
        let shifted = minus.and_then(|m| constant.checked_sub(m));
        shifted.ok_or_else(overflow)
    }

    /// Lowers an affine expression.
    pub fn lin(&self, e: &AffineExpr) -> Result<Lin, Unevaluable> {
        let mut terms = Vec::new();
        let constant = self.fold(e, Some(0), &mut terms)?;
        let terms = terms.into();
        Ok(Lin { constant, terms })
    }

    /// Lowers a guard condition, left side first.
    pub fn cond(&self, c: &Condition) -> Result<Guard, Unevaluable> {
        Ok((self.lin(&c.lhs)?, c.op, self.lin(&c.rhs)?))
    }

    /// Lowers an access's subscripts, in dimension order.
    pub fn subscripts(&self, a: &Access) -> Result<Box<[Lin]>, Unevaluable> {
        a.indexes.iter().map(|e| self.lin(e)).collect()
    }

    /// Appends `b` less `minus` to `out`. The amount is pushed down to
    /// the leaves (`min(x, y) - m = min(x - m, y - m)`, `floord(x, c) - m
    /// = floord(x - c·m, c)`), so an affine bound stays one leaf.
    fn flatten(
        &self,
        b: &Bound,
        minus: Option<i64>,
        out: &mut FlatBound,
    ) -> Result<(), Unevaluable> {
        match b {
            Bound::Affine(e) => {
                let start = out.terms.len() as u32;
                let constant = self.fold(e, minus, &mut out.terms)?;
                let end = out.terms.len() as u32;
                out.ops.push(BoundOp::Leaf(constant, start, end));
            }
            Bound::Min(x, y) | Bound::Max(x, y) => {
                let min = matches!(b, Bound::Min(..));
                out.ops.push(if min { BoundOp::Min } else { BoundOp::Max });
                self.flatten(x, minus, out)?;
                self.flatten(y, minus, out)?;
            }
            Bound::FloorDiv(x, c) => {
                out.ops.push(BoundOp::FloorDiv(*c));
                self.flatten(x, minus.and_then(|m| m.checked_mul(*c)), out)?;
            }
        }
        Ok(())
    }

    /// Lowers `b` less `minus`; a plain affine bound goes on the fast
    /// path.
    fn bound(&self, b: &Bound, minus: i64) -> Result<FlatBound, Unevaluable> {
        let mut out = FlatBound::default();
        match b {
            Bound::Affine(e) => out.constant = self.fold(e, Some(minus), &mut out.terms)?,
            _ => self.flatten(b, Some(minus), &mut out)?,
        }
        Ok(out)
    }

    /// Lowers `l`'s header, its iterator not yet pushed: the lower bound
    /// first, then the upper bound made inclusive. A non-positive step
    /// becomes the one-trip form: step 1 and upper bound `min(ub, lb)`.
    pub fn loop_bounds(&self, l: &Loop) -> Result<LoopBounds, Unevaluable> {
        let lb = self.bound(&l.lb, 0)?;
        let exclusive = i64::from(!l.ub_inclusive);
        if l.step > 0 {
            let ub = self.bound(&l.ub, exclusive)?;
            return Ok(LoopBounds {
                lb,
                ub,
                step: l.step,
            });
        }
        let mut ub = FlatBound::default();
        ub.ops.push(BoundOp::Min);
        self.flatten(&l.ub, Some(exclusive), &mut ub)?;
        self.flatten(&l.lb, Some(0), &mut ub)?;
        Ok(LoopBounds { lb, ub, step: 1 })
    }
}

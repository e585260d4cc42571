//! The shared lowering ([`looprag_ir::lower`]) against the tree
//! evaluators it stands in for, over every loop bound, guard and
//! subscript of the kernel suites and of their tiled and skewed
//! variants; and each walker's policy for a form it cannot evaluate.

use looprag_dependence::{analyze_with, Purpose};
use looprag_exec::{run, ExecConfig, ExecError};
use looprag_ir::lower::{Scope, Symbol, Unevaluable};
use looprag_ir::{
    element_stride, loop_paths, Access, AffineExpr, ArrayDecl, AssignOp, Bound, CmpOp, Condition,
    Expr, InitKind, Loop, Node, ParamDecl, Program,
};
use looprag_machine::{estimate_cost_reference, CostEngine, CostError, MachineConfig};
use looprag_suites::all_benchmarks;
use looprag_transform::{shift, skew, tile_band};

/// Iterator vectors each form is evaluated at: small values of both
/// signs, different at every depth.
const SAMPLES: usize = 6;

fn sample(k: usize, depth: usize) -> i64 {
    ((k * 7 + depth * 5) % 29) as i64 - 9
}

/// Shape counts over everything checked, so a suite that stopped
/// producing tiled bounds fails loudly.
#[derive(Default)]
struct Seen {
    bounds: usize,
    subscripts: usize,
    guards: usize,
    min: usize,
    max: usize,
    floord: usize,
}

fn count_shapes(b: &Bound, seen: &mut Seen) {
    match b {
        Bound::Affine(_) => {}
        Bound::Min(x, y) | Bound::Max(x, y) => {
            if matches!(b, Bound::Min(..)) {
                seen.min += 1;
            } else {
                seen.max += 1;
            }
            count_shapes(x, seen);
            count_shapes(y, seen);
        }
        Bound::FloorDiv(x, _) => {
            seen.floord += 1;
            count_shapes(x, seen);
        }
    }
}

struct Checker<'p> {
    label: String,
    params: &'p dyn Fn(&str) -> Option<i64>,
    /// Enclosing iterator names, outermost first.
    names: Vec<&'p str>,
    seen: Seen,
}

impl<'p> Checker<'p> {
    /// The tree evaluators' environment at sample `k`: the innermost
    /// iterator of the name, else the parameter.
    fn env(&self, k: usize) -> impl Fn(&str) -> Option<i64> + '_ {
        move |s| match self.names.iter().rposition(|n| *n == s) {
            Some(d) => Some(sample(k, d)),
            None => (self.params)(s),
        }
    }

    fn iters(&self, k: usize) -> Vec<i64> {
        (0..self.names.len()).map(|d| sample(k, d)).collect()
    }

    fn affine(&self, scope: &Scope<'_>, e: &AffineExpr) {
        let lin = scope
            .lin(e)
            .unwrap_or_else(|u| panic!("{}: {e}: {u:?}", self.label));
        for k in 0..SAMPLES {
            let want = e.eval(&self.env(k)).unwrap();
            assert_eq!(lin.eval(&self.iters(k)), want, "{}: {e}", self.label);
        }
    }

    fn access(&mut self, scope: &Scope<'_>, a: &Access) {
        let lowered = scope.subscripts(a).unwrap();
        assert_eq!(lowered.len(), a.indexes.len());
        for e in &a.indexes {
            self.affine(scope, e);
        }
        self.seen.subscripts += a.indexes.len();
    }

    fn nodes(&mut self, scope: &mut Scope<'p>, nodes: &'p [Node]) {
        for n in nodes {
            match n {
                Node::Stmt(s) => {
                    for a in s.reads() {
                        self.access(scope, &a);
                    }
                    self.access(scope, &s.lhs);
                }
                Node::If { conds, then } => {
                    for c in conds {
                        let (lhs, op, rhs) = scope.cond(c).unwrap();
                        for k in 0..SAMPLES {
                            let iters = self.iters(k);
                            let want = c.eval(&self.env(k)).unwrap();
                            assert_eq!(op.eval(lhs.eval(&iters), rhs.eval(&iters)), want);
                        }
                        self.seen.guards += 1;
                    }
                    self.nodes(scope, then);
                }
                Node::Loop(l) => {
                    self.bounds(scope, l);
                    scope.push(&l.iter);
                    self.names.push(&l.iter);
                    self.nodes(scope, &l.body);
                    self.names.pop();
                    scope.pop();
                }
            }
        }
    }

    fn bounds(&mut self, scope: &Scope<'_>, l: &Loop) {
        let lowered = scope
            .loop_bounds(l)
            .unwrap_or_else(|u| panic!("{}: {u:?}", self.label));
        assert_eq!(lowered.step, l.step, "{}", self.label);
        let exclusive = i64::from(!l.ub_inclusive);
        for k in 0..SAMPLES {
            let (env, iters) = (self.env(k), self.iters(k));
            let (lb, ub) = (l.lb.eval(&env).unwrap(), l.ub.eval(&env).unwrap());
            assert_eq!(lowered.lb.eval(&iters), lb, "{}: {}", self.label, l.lb);
            assert_eq!(
                lowered.ub.eval(&iters),
                ub - exclusive,
                "{}: {}",
                self.label,
                l.ub
            );
        }
        count_shapes(&l.lb, &mut self.seen);
        count_shapes(&l.ub, &mut self.seen);
        self.seen.bounds += 2;
    }
}

/// Each suite kernel, then its `tile_band` tilings at sizes 4 and 8
/// (depth 2, else 1), its skews by 1 (plain, and tiled at 4) and its
/// shifts by 1 (which add guards) rooted at every loop.
fn programs() -> Vec<(String, Program)> {
    let mut out = Vec::new();
    for b in all_benchmarks() {
        let p = b.program();
        for path in loop_paths(&p.body) {
            for size in [4, 8] {
                if let Ok(t) =
                    tile_band(&p, &path, 2, size).or_else(|_| tile_band(&p, &path, 1, size))
                {
                    out.push((format!("{} tile {size} at {path:?}", b.name), t));
                }
            }
            if let Ok(s) = skew(&p, &path, 1) {
                if let Ok(t) = tile_band(&s, &path, 2, 4) {
                    out.push((format!("{} skew+tile at {path:?}", b.name), t));
                }
                out.push((format!("{} skew at {path:?}", b.name), s));
            }
            if let Ok(s) = shift(&p, &path, 0, 1) {
                out.push((format!("{} shift at {path:?}", b.name), s));
            }
        }
        out.push((b.name.clone(), p));
    }
    out
}

#[test]
fn lowered_forms_evaluate_as_the_tree_on_suite_kernels_and_their_tilings() {
    assert!(all_benchmarks().len() >= 134);
    let mut seen = Seen::default();
    let programs = programs();
    for (label, p) in &programs {
        let env = p.param_env();
        let mut checker = Checker {
            label: label.clone(),
            params: &env,
            names: Vec::new(),
            seen,
        };
        checker.nodes(&mut Scope::new(&env), &p.body);
        seen = checker.seen;
    }
    assert!(programs.len() > 600, "only {} programs", programs.len());
    let Seen {
        bounds,
        subscripts,
        guards,
        min,
        max,
        floord,
    } = seen;
    assert!(
        [bounds, subscripts, guards, min, max, floord].iter().all(|&n| n > 0),
        "bounds {bounds} subscripts {subscripts} guards {guards} min {min} max {max} floord {floord}"
    );
}

/// `for (i = 0; i <= 2^62 * N; i++) A[0] += 1.0;` then `for (j = 0; j
/// <= 2; j++) A[j + 1] = A[j];`, at `N = 8`: the first loop's bound
/// cannot be folded into an `i64` at the program's or any scaled
/// parameter value.
fn overflowing_fold_kernel() -> (Program, AffineExpr) {
    let huge = AffineExpr::scaled_var("N", 1 << 62);
    let mut p = Program::new("overflowing_fold");
    p.params.push(ParamDecl {
        name: "N".into(),
        value: 8,
    });
    p.arrays
        .push(ArrayDecl::new("A", vec![AffineExpr::constant(8)]));
    p.outputs.push("A".into());
    p.inits.push(("A".into(), InitKind::Zero));
    let bad = Loop::new(
        "i",
        Bound::constant(0),
        Bound::affine(huge.clone()),
        vec![Node::stmt(
            Access::new("A", vec![AffineExpr::constant(0)]),
            AssignOp::AddAssign,
            Expr::num(1.0),
        )],
    );
    let good = Loop::new(
        "j",
        Bound::constant(0),
        Bound::constant(2),
        vec![Node::stmt(
            Access::new("A", vec![AffineExpr::var("j") + 1]),
            AssignOp::Assign,
            Expr::access(Access::new("A", vec![AffineExpr::var("j")])),
        )],
    );
    p.body = vec![Node::Loop(bad), Node::Loop(good)];
    p.renumber_statements();
    (p, huge)
}

#[test]
fn an_overflowing_parameter_fold_gets_each_layers_descriptive_result() {
    let (p, huge) = overflowing_fold_kernel();
    // The lane engine raises the overflow when it reaches the loop.
    assert_eq!(
        run(&p, &ExecConfig::default()).unwrap_err(),
        ExecError::Overflow(huge.to_string())
    );
    // The tracer skips the loop and traces the rest: only the second
    // loop's flow dependence remains.
    for purpose in [Purpose::Propose, Purpose::Transform, Purpose::Stats] {
        let set = analyze_with(&p, &purpose.config(&p));
        assert!(!set.truncated);
        assert_eq!(set.deps.len(), 1, "{set:?}");
        assert_eq!((set.deps[0].src, set.deps[0].dst), (1, 1));
    }
    // The cost model rejects the program at lowering, on both paths.
    let want = Err(CostError::Overflow(format!("the expression '{huge}'")));
    let cfg = MachineConfig::gcc();
    assert_eq!(estimate_cost_reference(&p, &cfg), want);
    assert_eq!(CostEngine::new().estimate(&p, &cfg), want);
}

// The lowering's rules on hand-built forms.

fn env(s: &str) -> Option<i64> {
    match s {
        "N" => Some(10),
        "M" => Some(7),
        "BIG" => Some(i64::MAX / 2),
        _ => None,
    }
}

fn var(s: &str) -> AffineExpr {
    AffineExpr::var(s)
}

#[test]
fn lin_folds_parameters_and_resolves_the_innermost_iterator() {
    let mut scope = Scope::new(&env);
    scope.push("i");
    scope.push("j");
    scope.push("i");
    let e = var("i") * 3 + var("j") - var("N") * 2 + 5;
    let lin = scope.lin(&e).unwrap();
    assert_eq!(lin.constant, -15);
    assert_eq!(&*lin.terms, &[(2, 3), (1, 1)]);
    assert_eq!(lin.eval(&[100, 4, 2]), -5);
    assert_eq!(scope.resolve("M"), Symbol::Param(7));
    assert_eq!(scope.resolve("k"), Symbol::Unbound);
    scope.pop();
    assert_eq!(scope.resolve("i"), Symbol::Iter(0));
}

#[test]
fn unevaluable_forms_name_the_first_failure_in_term_order() {
    let scope = Scope::new(&env);
    let e = var("a") + var("zz") + var("N");
    assert_eq!(scope.lin(&e), Err(Unevaluable::Unbound("a".into())));
    let e = var("BIG") * 3 + var("zz");
    assert_eq!(scope.lin(&e), Err(Unevaluable::Overflow(e.to_string())));
    let mut e = var("N");
    e.set_constant(i64::MAX - 5);
    assert!(matches!(scope.lin(&e), Err(Unevaluable::Overflow(_))));
    let c = Condition::new(var("q"), CmpOp::Le, var("r"));
    assert_eq!(scope.cond(&c), Err(Unevaluable::Unbound("q".into())));
}

#[test]
fn flat_bounds_evaluate_as_the_tree() {
    let mut scope = Scope::new(&env);
    scope.push("t");
    scope.push("i");
    let leaf = |e: AffineExpr| Bound::affine(e);
    let bounds = [
        leaf(var("N") - 1),
        leaf(var("t") * 32 + 31).min(leaf(var("N") - 1)),
        leaf(var("t") * 4 - var("i"))
            .floor_div(3)
            .max(leaf(AffineExpr::constant(0)))
            .min(leaf(var("i") + var("M")).floor_div(2)),
        // Deeper than the inline stack: right-nested mins.
        (0..12).fold(leaf(var("i")), |b, k| {
            leaf(var("t") + k).min(b.min(leaf(var("N") + k)))
        }),
    ];
    for b in &bounds {
        for inclusive in [true, false] {
            let l = Loop {
                ub_inclusive: inclusive,
                ..Loop::new("k", b.clone(), b.clone(), vec![])
            };
            let range = scope.loop_bounds(&l).unwrap();
            for t in -3..4 {
                for i in -40..40 {
                    let iters = [t, i];
                    let tree = b
                        .eval(&|s| match s {
                            "t" => Some(t),
                            "i" => Some(i),
                            _ => env(s),
                        })
                        .unwrap();
                    assert_eq!(range.lb.eval(&iters), tree, "{b}");
                    assert_eq!(range.ub.eval(&iters), tree - i64::from(!inclusive), "{b}");
                }
            }
        }
    }
}

#[test]
fn non_positive_steps_lower_to_one_trip() {
    let scope = Scope::new(&env);
    for step in [0, -1, -3] {
        for (lb, ub, last) in [(2, 6, 2), (5, 1, 1), (3, 3, 3)] {
            let l = Loop {
                step,
                ..Loop::new("i", Bound::constant(lb), Bound::constant(ub), vec![])
            };
            let r = scope.loop_bounds(&l).unwrap();
            assert_eq!((r.lb.eval(&[]), r.ub.eval(&[]), r.step), (lb, last, 1));
        }
    }
}

#[test]
fn exclusive_bound_shift_overflow_is_unevaluable() {
    let scope = Scope::new(&env);
    let l = Loop {
        ub_inclusive: false,
        ..Loop::new(
            "i",
            Bound::constant(0),
            Bound::constant(i64::MIN).floor_div(2),
            vec![],
        )
    };
    assert!(matches!(
        scope.loop_bounds(&l),
        Err(Unevaluable::Overflow(_))
    ));
}

#[test]
fn layout_extents_and_element_strides_are_checked() {
    let a = ArrayDecl::new("A", vec![AffineExpr::var("N") + 1, AffineExpr::var("Q")]);
    let env = |s: &str| (s == "N").then_some(7);
    assert_eq!(a.layout_extents(&env), Some(vec![8, 1]));
    assert_eq!(a.layout_extents(&|_| Some(i64::MAX)), None);
    let acc = Access::new("A", vec![var("j"), var("i") * 2]);
    assert_eq!(element_stride(&acc, "i", &[4, 8]), Some(2));
    assert_eq!(element_stride(&acc, "j", &[4, 8]), Some(8));
    assert_eq!(element_stride(&acc, "j", &[4, i64::MAX]), None);
}

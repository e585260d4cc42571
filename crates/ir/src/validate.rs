//! Semantic validation — the "compiler" of the pipeline.
//!
//! [`compile`] is parse + validate: it produces either a well-formed
//! [`Program`] or diagnostics in the style of a C compiler. The
//! feedback-based generation loop (§4.3 of the paper) feeds these
//! diagnostics back to the LLM as *compilation results*.

use crate::expr::{AffineExpr, Bound, Expr};
use crate::parser::{parse_program, ParseError};
use crate::program::{checked_elements, ArrayDecl, Node, Program};
use std::collections::HashSet;
use std::fmt;

/// A semantic diagnostic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diag {
    /// Human-readable message.
    pub message: String,
}

impl fmt::Display for Diag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "error: {}", self.message)
    }
}

/// A compilation failure: either a parse error or semantic diagnostics.
#[derive(Debug, Clone, PartialEq)]
pub enum CompileError {
    /// The source failed to parse.
    Parse(ParseError),
    /// The source parsed but failed semantic checks.
    Semantic(Vec<Diag>),
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::Parse(e) => write!(f, "{e}"),
            CompileError::Semantic(diags) => {
                for (i, d) in diags.iter().enumerate() {
                    if i > 0 {
                        writeln!(f)?;
                    }
                    write!(f, "{d}")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for CompileError {}

impl From<ParseError> for CompileError {
    fn from(e: ParseError) -> Self {
        CompileError::Parse(e)
    }
}

struct Checker<'a> {
    p: &'a Program,
    params: HashSet<&'a str>,
    diags: Vec<Diag>,
}

impl<'a> Checker<'a> {
    fn diag(&mut self, message: String) {
        if self.diags.len() < 20 {
            self.diags.push(Diag { message });
        }
    }

    fn check_decls(&mut self) {
        let mut seen = HashSet::new();
        for param in &self.p.params {
            if !seen.insert(param.name.as_str()) {
                self.diag(format!("redefinition of parameter '{}'", param.name));
            }
            if param.value <= 0 {
                self.diag(format!(
                    "parameter '{}' must have a positive default value (got {})",
                    param.name, param.value
                ));
            }
        }
        let mut arrays = HashSet::new();
        for a in &self.p.arrays {
            if !arrays.insert(a.name.as_str()) {
                self.diag(format!("redefinition of array '{}'", a.name));
            }
            if seen.contains(a.name.as_str()) {
                self.diag(format!(
                    "array '{}' shadows a parameter of the same name",
                    a.name
                ));
            }
            let mut bound = true;
            for d in &a.dims {
                for sym in d.symbols() {
                    if !seen.contains(sym) {
                        bound = false;
                        self.diag(format!(
                            "array '{}' dimension uses undeclared parameter '{sym}'",
                            a.name
                        ));
                    }
                }
            }
            if bound && !self.fits_in_memory(a) {
                self.diag(format!(
                    "array '{}' is too large: at the default parameter values \
                     its element count overflows the address space",
                    a.name
                ));
            }
        }
        for o in &self.p.outputs {
            if !arrays.contains(o.as_str()) {
                self.diag(format!("output '{o}' is not a declared array"));
            }
        }
        if self.p.outputs.is_empty() {
            self.diag("program declares no output arrays ('out <name>;')".into());
        }
    }

    /// True when the elements of `a`, at the default parameter values,
    /// fit a `Vec<f64>`. Extents evaluate in `AffineExpr::eval`'s order
    /// with checked arithmetic, so an overflowing extent counts as not
    /// fitting instead of wrapping.
    fn fits_in_memory(&self, a: &ArrayDecl) -> bool {
        let env = self.p.param_env();
        let extents: Option<Vec<i64>> = a
            .dims
            .iter()
            .map(|d| {
                d.iter_terms().try_fold(d.constant_term(), |acc, (sym, c)| {
                    acc.checked_add(c.checked_mul(env(sym)?)?)
                })
            })
            .collect();
        extents.is_some_and(|e| checked_elements(&e, 1).is_some())
    }

    fn check_affine(&mut self, e: &AffineExpr, iters: &[String], what: &str) {
        for sym in e.symbols() {
            let declared = self.params.contains(sym) || iters.iter().any(|i| i == sym);
            if !declared {
                self.diag(format!("use of undeclared identifier '{sym}' in {what}"));
            }
        }
    }

    fn check_bound(&mut self, b: &Bound, iters: &[String], what: &str) {
        let mut syms = Vec::new();
        b.collect_symbols(&mut syms);
        for sym in syms {
            let declared = self.params.contains(sym.as_str()) || iters.iter().any(|i| i == &sym);
            if !declared {
                self.diag(format!("use of undeclared identifier '{sym}' in {what}"));
            }
        }
    }

    fn check_access(&mut self, acc: &crate::expr::Access, iters: &[String]) {
        match self.p.array(&acc.array) {
            None => {
                self.diag(format!("use of undeclared array '{}'", acc.array));
            }
            Some(decl) => {
                if decl.dims.len() != acc.indexes.len() {
                    self.diag(format!(
                        "array '{}' has {} dimension(s) but is subscripted with {}",
                        acc.array,
                        decl.dims.len(),
                        acc.indexes.len()
                    ));
                }
            }
        }
        for ix in &acc.indexes {
            self.check_affine(ix, iters, &format!("subscript of '{}'", acc.array));
        }
    }

    fn check_expr(&mut self, e: &Expr, iters: &[String]) {
        match e {
            Expr::Num(_) => {}
            Expr::Access(a) => self.check_access(a, iters),
            Expr::Sym(s) => {
                let declared = self.params.contains(s.as_str()) || iters.iter().any(|i| i == s);
                if !declared {
                    self.diag(format!("use of undeclared identifier '{s}'"));
                }
            }
            Expr::Neg(e) => self.check_expr(e, iters),
            Expr::Binary(_, a, b) => {
                self.check_expr(a, iters);
                self.check_expr(b, iters);
            }
            Expr::Call(_, args) => {
                for a in args {
                    self.check_expr(a, iters);
                }
            }
        }
    }

    fn check_nodes(&mut self, nodes: &'a [Node], iters: &mut Vec<String>) {
        for n in nodes {
            match n {
                Node::Loop(l) => {
                    if iters.iter().any(|i| i == &l.iter) {
                        self.diag(format!(
                            "redefinition of loop iterator '{}' inside a loop that already uses it",
                            l.iter
                        ));
                    }
                    if self.params.contains(l.iter.as_str()) {
                        self.diag(format!(
                            "loop iterator '{}' shadows a parameter of the same name",
                            l.iter
                        ));
                    }
                    if self.p.array(&l.iter).is_some() {
                        self.diag(format!(
                            "loop iterator '{}' shadows an array of the same name",
                            l.iter
                        ));
                    }
                    self.check_bound(&l.lb, iters, "a loop lower bound");
                    self.check_bound(&l.ub, iters, "a loop upper bound");
                    iters.push(l.iter.clone());
                    self.check_nodes(&l.body, iters);
                    iters.pop();
                }
                Node::If { conds, then } => {
                    for c in conds {
                        self.check_affine(&c.lhs, iters, "an if condition");
                        self.check_affine(&c.rhs, iters, "an if condition");
                    }
                    self.check_nodes(then, iters);
                }
                Node::Stmt(s) => {
                    self.check_access(&s.lhs, iters);
                    self.check_expr(&s.rhs, iters);
                }
            }
        }
    }
}

/// Validates a parsed program.
///
/// # Errors
///
/// Returns the collected diagnostics when any semantic rule is violated:
/// undeclared identifiers, arity mismatches on subscripts, redefined or
/// shadowed names, non-positive parameters, or missing outputs.
pub fn validate(p: &Program) -> Result<(), Vec<Diag>> {
    let mut checker = Checker {
        p,
        params: p.params.iter().map(|d| d.name.as_str()).collect(),
        diags: Vec::new(),
    };
    checker.check_decls();
    let mut iters = Vec::new();
    checker.check_nodes(&p.body, &mut iters);
    if checker.diags.is_empty() {
        Ok(())
    } else {
        Err(checker.diags)
    }
}

/// Parses and validates source text — the pipeline's "compiler".
///
/// # Errors
///
/// Returns [`CompileError::Parse`] on syntax errors and
/// [`CompileError::Semantic`] on validation failures.
///
/// ```
/// let bad = "param N = 4;\narray A[N];\nout A;\n#pragma scop\n\
/// for (i = 0; i <= N - 1; i++) { A[i] = B[i]; }\n#pragma endscop\n";
/// let err = looprag_ir::compile(bad, "k").unwrap_err();
/// assert!(err.to_string().contains("undeclared array 'B'"));
/// ```
pub fn compile(src: &str, name: &str) -> Result<Program, CompileError> {
    let p = parse_program(src, name)?;
    validate(&p).map_err(CompileError::Semantic)?;
    Ok(p)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn compile_err(src: &str) -> String {
        compile(src, "t").unwrap_err().to_string()
    }

    const HEADER: &str = "param N = 8;\narray A[N];\nout A;\n";

    #[test]
    fn accepts_well_formed() {
        let src = format!(
            "{HEADER}#pragma scop\nfor (i = 0; i <= N - 1; i++) A[i] = A[i] + 1.0;\n#pragma endscop\n"
        );
        assert!(compile(&src, "ok").is_ok());
    }

    #[test]
    fn rejects_undeclared_array() {
        let src = format!(
            "{HEADER}#pragma scop\nfor (i = 0; i <= N - 1; i++) A[i] = B[i];\n#pragma endscop\n"
        );
        assert!(compile_err(&src).contains("undeclared array 'B'"));
    }

    #[test]
    fn rejects_undeclared_identifier_in_bound() {
        let src = format!(
            "{HEADER}#pragma scop\nfor (i = 0; i <= M - 1; i++) A[i] = 1.0;\n#pragma endscop\n"
        );
        assert!(compile_err(&src).contains("undeclared identifier 'M'"));
    }

    #[test]
    fn rejects_subscript_arity_mismatch() {
        let src = format!(
            "{HEADER}#pragma scop\nfor (i = 0; i <= N - 1; i++) A[i][i] = 1.0;\n#pragma endscop\n"
        );
        assert!(compile_err(&src).contains("1 dimension(s) but is subscripted with 2"));
    }

    #[test]
    fn rejects_scalar_subscripted() {
        let src = "param N = 8;\narray A[N];\ndouble t;\nout A;\n#pragma scop\nfor (i = 0; i <= N - 1; i++) t[i] = 1.0;\n#pragma endscop\n";
        assert!(compile_err(src).contains("0 dimension(s) but is subscripted with 1"));
    }

    #[test]
    fn rejects_iterator_shadowing() {
        let src = format!(
            "{HEADER}#pragma scop\nfor (i = 0; i <= N - 1; i++) for (i = 0; i <= N - 1; i++) A[i] = 1.0;\n#pragma endscop\n"
        );
        assert!(compile_err(&src).contains("redefinition of loop iterator 'i'"));
    }

    #[test]
    fn rejects_iterator_shadowing_param() {
        let src = format!(
            "{HEADER}#pragma scop\nfor (N = 0; N <= 3; N++) A[N] = 1.0;\n#pragma endscop\n"
        );
        assert!(compile_err(&src).contains("shadows a parameter"));
    }

    #[test]
    fn rejects_arrays_too_large_to_allocate() {
        let body = "#pragma scop\nA[0][0][0] = 1.0;\n#pragma endscop\n";
        let huge = format!("param N = 4000000000;\narray A[N][N][N];\nout A;\n{body}");
        let err = compile_err(&huge);
        assert!(err.contains("array 'A' is too large"), "{err}");
        // An extent that itself overflows, and a count that fits `i64`
        // but not a `Vec<f64>`.
        let wide = format!("param N = 9000000000000000000;\narray A[2 * N][1][1];\nout A;\n{body}");
        assert!(compile_err(&wide).contains("array 'A' is too large"));
        let big = format!("param N = 2000000000000000000;\narray A[N][1][1];\nout A;\n{body}");
        assert!(compile_err(&big).contains("array 'A' is too large"));
        let fine = format!("param N = 4000;\narray A[N][N][N];\nout A;\n{body}");
        assert!(compile(&fine, "t").is_ok());
    }

    #[test]
    fn rejects_missing_output() {
        let src = "param N = 8;\narray A[N];\n#pragma scop\nfor (i = 0; i <= N - 1; i++) A[i] = 1.0;\n#pragma endscop\n";
        assert!(compile_err(src).contains("no output arrays"));
    }

    #[test]
    fn rejects_unknown_output() {
        let src = "param N = 8;\narray A[N];\nout Z;\n#pragma scop\nfor (i = 0; i <= N - 1; i++) A[i] = 1.0;\n#pragma endscop\n";
        assert!(compile_err(src).contains("output 'Z' is not a declared array"));
    }

    #[test]
    fn collects_multiple_diags() {
        let src = "param N = 8;\narray A[N];\nout A;\n#pragma scop\nfor (i = 0; i <= N - 1; i++) { A[i] = B[i]; C[i] = 1.0; }\n#pragma endscop\n";
        let CompileError::Semantic(diags) = compile(src, "t").unwrap_err() else {
            panic!("expected semantic error");
        };
        assert!(diags.len() >= 2);
    }

    #[test]
    fn rejects_undeclared_sym_in_rhs() {
        let src = format!(
            "{HEADER}#pragma scop\nfor (i = 0; i <= N - 1; i++) A[i] = gamma * 2.0;\n#pragma endscop\n"
        );
        assert!(compile_err(&src).contains("undeclared identifier 'gamma'"));
    }
}

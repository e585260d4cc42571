//! # looprag-baselines
//!
//! Models of the four baseline compilers the paper compares against
//! (Table 1 / Figure 6), built from the same transformation and
//! dependence machinery as the main pipeline but with each system's
//! documented capability envelope:
//!
//! * **Clang-Polly** — production polyhedral pass: fusion, interchange,
//!   tiling, parallelization; no time-skewing (conservative on stencils).
//! * **GCC-Graphite** — recognizes only simple perfect nests; in practice
//!   transforms little (the paper measures ~1.0x), modeled by requiring a
//!   single dependence-free perfect nest before it parallelizes.
//! * **ICX** — no source-level restructuring; its aggressive
//!   auto-vectorizer lives in [`looprag_machine::MachineConfig::icx`],
//!   so the baseline emits the original program.
//! * **Perspective** — speculative automatic parallelization with a
//!   costly profiling stage: it times out on huge trip counts and gives
//!   up on complex multi-statement SCoPs, otherwise parallelizing the
//!   outermost provable loop.
//!
//! Every transformed output is verified with the differential oracle;
//! a failed verification degrades to the original program (real
//! compilers do not ship miscompiles as a matter of course).

#![warn(missing_docs)]

use looprag_dependence::{analyze_for, Purpose};
use looprag_ir::{loop_paths, Node, Program};
use looprag_polyopt::{optimize, PolyOptions};
use looprag_transform::{parallelize, semantics_preserving, OracleConfig};
use std::fmt;

/// The modeled baseline compilers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CompilerBaseline {
    /// GCC-Graphite (`-O3 -floop-nest-optimize -floop-parallelize-all`).
    Graphite,
    /// Clang-Polly (`-O3 -mllvm -polly -polly-parallel -polly-tiling`).
    Polly,
    /// ICX (`-O3 -qopenmp -xHost`).
    Icx,
    /// Perspective (speculative parallelization, Clang 9).
    Perspective,
}

impl fmt::Display for CompilerBaseline {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            CompilerBaseline::Graphite => "GCC-Graphite",
            CompilerBaseline::Polly => "Clang-Polly",
            CompilerBaseline::Icx => "ICX",
            CompilerBaseline::Perspective => "Perspective",
        })
    }
}

/// Outcome of running a baseline on a kernel.
#[derive(Debug, Clone)]
pub struct BaselineResult {
    /// The produced program; `None` models a hard failure (Perspective's
    /// profiling timeouts), which the harness scores as speedup 0.
    pub program: Option<Program>,
    /// True when the baseline changed the program.
    pub transformed: bool,
}

/// Total iteration volume at declared sizes — Perspective's profiling
/// proxy.
fn iteration_volume(p: &Program) -> f64 {
    fn walk(nodes: &[Node], env: &dyn Fn(&str) -> Option<i64>, mult: f64, acc: &mut f64) {
        for n in nodes {
            match n {
                Node::Loop(l) => {
                    let trips = l.trip_count(env).unwrap_or(1).max(1) as f64;
                    *acc += mult * trips;
                    walk(&l.body, env, mult * trips, acc);
                }
                Node::If { then, .. } => walk(then, env, mult, acc),
                Node::Stmt(_) => *acc += mult,
            }
        }
    }
    let env = p.param_env();
    let mut acc = 0.0;
    walk(&p.body, &env, 1.0, &mut acc);
    acc
}

/// Runs the modeled baseline on `p`.
pub fn apply_baseline(which: CompilerBaseline, p: &Program) -> BaselineResult {
    match which {
        CompilerBaseline::Icx => BaselineResult {
            program: Some(p.clone()),
            transformed: false,
        },
        CompilerBaseline::Polly => {
            let opts = PolyOptions {
                skew: false,
                ..Default::default()
            };
            let r = optimize(p, &opts);
            let transformed = !r.recipe.steps.is_empty();
            BaselineResult {
                program: Some(r.program),
                transformed,
            }
        }
        CompilerBaseline::Graphite => {
            // Graphite recognizes only a single dependence-free perfect
            // nest, and even then `-floop-parallelize-all` rarely fires in
            // practice (the paper measures ~1.0x); what it reliably does
            // is nest optimization (tiling) on the recognized region.
            let top_loops: Vec<usize> = p
                .body
                .iter()
                .enumerate()
                .filter(|(_, n)| matches!(n, Node::Loop(_)))
                .map(|(i, _)| i)
                .collect();
            let deps = analyze_for(p, Purpose::Propose);
            let simple = top_loops.len() == 1
                && p.body.len() == 1
                && deps.deps.iter().all(|d| !d.is_loop_carried())
                && loop_paths(&p.body).len() == p.max_depth();
            if simple {
                let opts = PolyOptions {
                    parallel: false,
                    fuse: false,
                    skew: false,
                    ..Default::default()
                };
                let r = optimize(p, &opts);
                if !r.recipe.steps.is_empty() {
                    return BaselineResult {
                        program: Some(r.program),
                        transformed: true,
                    };
                }
            }
            BaselineResult {
                program: Some(p.clone()),
                transformed: false,
            }
        }
        CompilerBaseline::Perspective => {
            // Profiling stage: huge iteration volumes time out (TSVC's
            // 100000-iteration outer loops in the paper).
            if iteration_volume(p) > 3.0e7 {
                return BaselineResult {
                    program: None,
                    transformed: false,
                };
            }
            // Analysis fragility: complex multi-statement SCoPs fail.
            if p.num_statements() > 4 || p.max_depth() >= 4 {
                return BaselineResult {
                    program: None,
                    transformed: false,
                };
            }
            let deps = analyze_for(p, Purpose::Propose);
            for path in loop_paths(&p.body) {
                if path.len() > 1 {
                    continue;
                }
                if deps.is_parallel_legal(&path) {
                    if let Ok(t) = parallelize(p, &path) {
                        if semantics_preserving(p, &t, &OracleConfig::default()) {
                            return BaselineResult {
                                program: Some(t),
                                transformed: true,
                            };
                        }
                    }
                }
            }
            BaselineResult {
                program: Some(p.clone()),
                transformed: false,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use looprag_ir::{compile, has_parallel_loop, print_program};

    const STREAM: &str = "param N = 8192;\narray a[N];\narray b[N];\nout a;\n#pragma scop\nfor (i = 0; i <= N - 1; i++) a[i] = b[i] + 1.0;\n#pragma endscop\n";
    const GEMM: &str = "param N = 128;\narray C[N][N];\narray A[N][N];\narray B[N][N];\nout C;\n#pragma scop\nfor (i = 0; i <= N - 1; i++) for (j = 0; j <= N - 1; j++) for (k = 0; k <= N - 1; k++) C[i][j] += A[i][k] * B[k][j];\n#pragma endscop\n";

    #[test]
    fn icx_never_restructures() {
        let p = compile(GEMM, "gemm").unwrap();
        let r = apply_baseline(CompilerBaseline::Icx, &p);
        assert!(!r.transformed);
        assert_eq!(r.program.unwrap(), p);
    }

    #[test]
    fn polly_tiles_and_parallelizes_gemm() {
        let p = compile(GEMM, "gemm").unwrap();
        let r = apply_baseline(CompilerBaseline::Polly, &p);
        assert!(r.transformed);
        let text = print_program(&r.program.unwrap());
        assert!(text.contains("floord"));
        assert!(text.contains("#pragma omp parallel for"));
    }

    #[test]
    fn graphite_handles_only_simple_nests() {
        let simple = compile(STREAM, "s").unwrap();
        let r = apply_baseline(CompilerBaseline::Graphite, &simple);
        assert!(r.transformed, "dependence-free single nest should pass");
        // syrk-style imperfect nest: Graphite gives up.
        let syrk = compile(
            "param N = 64;\nparam beta = 3;\narray C[N][N];\nout C;\n#pragma scop\nfor (i = 0; i <= N - 1; i++) { for (j = 0; j <= i; j++) C[i][j] *= beta;\n for (j = 0; j <= i; j++) C[i][j] += 1.0; }\n#pragma endscop\n",
            "syrk",
        )
        .unwrap();
        let r2 = apply_baseline(CompilerBaseline::Graphite, &syrk);
        assert!(!r2.transformed);
    }

    #[test]
    fn perspective_times_out_on_huge_trip_counts() {
        let huge = compile(
            "param N = 8192;\nparam T = 8192;\narray a[N];\nout a;\n#pragma scop\nfor (t = 0; t <= T - 1; t++) for (i = 0; i <= N - 1; i++) a[i] = a[i] + 1.0;\n#pragma endscop\n",
            "huge",
        )
        .unwrap();
        let r = apply_baseline(CompilerBaseline::Perspective, &huge);
        assert!(r.program.is_none(), "profiling should time out");
    }

    #[test]
    fn perspective_parallelizes_simple_kernels() {
        let p = compile(STREAM, "s").unwrap();
        let r = apply_baseline(CompilerBaseline::Perspective, &p);
        let prog = r.program.unwrap();
        assert!(has_parallel_loop(&prog));
    }
}

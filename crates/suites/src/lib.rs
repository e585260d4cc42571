//! # looprag-suites
//!
//! The three benchmark suites of the paper's evaluation, transcribed into
//! the C subset: **PolyBench** (30 kernels), the SCoP-compatible subset
//! of **TSVC**, and **LORE**-style nests extracted-from-applications
//! shapes. Each suite entry compiles to a [`looprag_ir::Program`].
//!
//! ```
//! use looprag_suites::{suite, Suite};
//! let polybench = suite(Suite::PolyBench);
//! assert_eq!(polybench.len(), 30);
//! let gemm = polybench.iter().find(|b| b.name == "gemm").unwrap();
//! assert_eq!(gemm.program().max_depth(), 3);
//! ```

#![warn(missing_docs)]

mod lore;
mod polybench;
mod tsvc;

use looprag_ir::{compile, Program};
use std::fmt;

/// Benchmark suite identifiers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Suite {
    /// PolyBench/C 4.2.1 (30 numerical kernels).
    PolyBench,
    /// TSVC vectorization loops (SCoP-compatible subset).
    Tsvc,
    /// LORE-style loop nests from real applications.
    Lore,
}

impl fmt::Display for Suite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Suite::PolyBench => "PolyBench",
            Suite::Tsvc => "TSVC",
            Suite::Lore => "LORE",
        })
    }
}

/// One benchmark kernel.
#[derive(Debug, Clone)]
pub struct Benchmark {
    /// Kernel name (e.g. `gemm`, `s233`).
    pub name: String,
    /// Owning suite.
    pub suite: Suite,
    /// Source text in the C subset.
    pub source: String,
}

impl Benchmark {
    /// Compiles the kernel.
    ///
    /// # Panics
    ///
    /// Panics when the embedded source is invalid; the test suite
    /// compiles every kernel, so this indicates a build problem.
    pub fn program(&self) -> Program {
        compile(&self.source, &self.name)
            .unwrap_or_else(|e| panic!("benchmark {} failed to compile: {e}", self.name))
    }
}

/// All kernels of one suite.
pub fn suite(which: Suite) -> Vec<Benchmark> {
    match which {
        Suite::PolyBench => polybench::POLYBENCH
            .iter()
            .map(|(n, s)| Benchmark {
                name: (*n).to_string(),
                suite: Suite::PolyBench,
                source: (*s).to_string(),
            })
            .collect(),
        Suite::Tsvc => tsvc::tsvc()
            .into_iter()
            .map(|(n, s)| Benchmark {
                name: n.to_string(),
                suite: Suite::Tsvc,
                source: s,
            })
            .collect(),
        Suite::Lore => lore::LORE
            .iter()
            .map(|(n, s)| Benchmark {
                name: (*n).to_string(),
                suite: Suite::Lore,
                source: (*s).to_string(),
            })
            .collect(),
    }
}

/// Every kernel across the three suites.
pub fn all_benchmarks() -> Vec<Benchmark> {
    let mut out = suite(Suite::PolyBench);
    out.extend(suite(Suite::Tsvc));
    out.extend(suite(Suite::Lore));
    out
}

/// Looks a kernel up by name across all suites.
pub fn find(name: &str) -> Option<Benchmark> {
    all_benchmarks().into_iter().find(|b| b.name == name)
}

/// Every `stride`-th kernel of one suite (1 = all), the shared
/// subsetting idiom of the perf snapshots, the harness and the tests —
/// one definition so they cannot quietly cover different subsets.
pub fn suite_strided(which: Suite, stride: usize) -> Vec<Benchmark> {
    suite(which)
        .into_iter()
        .enumerate()
        .filter(|(i, _)| i % stride.max(1) == 0)
        .map(|(_, b)| b)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use looprag_exec::{run, ExecConfig};
    use looprag_transform::scaled_clone;

    #[test]
    fn suite_sizes_match_paper_scale() {
        assert_eq!(suite(Suite::PolyBench).len(), 30);
        assert!(
            suite(Suite::Tsvc).len() >= 50,
            "{}",
            suite(Suite::Tsvc).len()
        );
        assert_eq!(suite(Suite::Lore).len(), 30);
    }

    #[test]
    fn every_kernel_compiles() {
        for b in all_benchmarks() {
            let p = b.program();
            assert!(p.num_statements() > 0, "{} has no statements", b.name);
            assert!(!p.outputs.is_empty(), "{} has no outputs", b.name);
        }
    }

    #[test]
    fn every_kernel_executes_without_faults_at_scaled_size() {
        for b in all_benchmarks() {
            let p = scaled_clone(&b.program(), 10);
            let cfg = ExecConfig {
                stmt_budget: 5_000_000,
                ..Default::default()
            };
            let r = run(&p, &cfg);
            assert!(r.is_ok(), "{} faults: {:?}", b.name, r.err());
            assert!(
                r.unwrap().1.stmts_executed > 0,
                "{} executed nothing",
                b.name
            );
        }
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<String> = all_benchmarks().into_iter().map(|b| b.name).collect();
        let before = names.len();
        names.sort();
        names.dedup();
        assert_eq!(before, names.len());
    }

    #[test]
    fn syrk_matches_paper_figure_2_structure() {
        let p = find("syrk").unwrap().program();
        assert_eq!(p.num_statements(), 2);
        let scheds = looprag_ir::padded_schedules(&p);
        assert_eq!(scheds[0].to_string(), "[0, i, 0, j, 0, 0, 0]");
        assert_eq!(scheds[1].to_string(), "[0, i, 1, k, 0, j, 0]");
    }
}

//! The differential semantics oracle.
//!
//! Given an original and a transformed program, the oracle executes
//! both on scaled-down parameter bindings (several initial memory
//! images, plus permuted schedules for parallel-marked loops) and
//! compares the declared outputs element-wise. It is the transform-time
//! analogue of the paper's differential testing: cheap, exact on the
//! sampled inputs, and the final arbiter the auto-optimizer uses before
//! accepting a recipe.
//!
//! It stays a separate checker from `looprag-eqcheck`'s differential
//! test for three reasons. `looprag-eqcheck` depends on this crate, so
//! the oracle cannot call it. It samples differently: a 3,000,000
//! instance cap, extra initial-value images, and no checksum filter.
//! And `SimLlm`'s fixed-seed decisions read its `bool`, so merging the
//! two would move pipeline outcomes.
//!
//! # Lanes
//!
//! The initial memory images are the *lanes* of one
//! [`CompiledProgram::run_batched`] sweep: lane 0 holds the program's own
//! inits (an empty [`InputSpec`]), lane `k ≥ 1` every non-local array
//! filled with `cfg.extra_inits[k - 1]` ([`BatchStore::from_inputs`]).
//! Control flow is data-independent, so one sweep runs every image and
//! has one outcome; the candidate gets one sweep per order of
//! [`ParallelOrder::probes`], and each lane is compared with
//! [`BatchStore::element_diff_lane`].
//!
//! # Memo lifetime
//!
//! An [`OracleTarget`] is bound to one original program. It memoizes the
//! original's expected outputs per sampling cap (the cap depends on the
//! candidate too, so tiled and untiled candidates need different
//! entries), including the verdict "the original does not run at this
//! cap", which fails every check at that cap. The memo lives as long as
//! the target: the auto-optimizer keeps one target for a whole
//! `optimize` call, and [`semantics_preserving`] builds a fresh one per
//! call.
//!
//! # The reference oracle
//!
//! [`semantics_preserving_reference`] is the unbatched form: one
//! [`run`] per image and order, each a one-lane batch, nothing cached and
//! no image shared. It is the transform layer's one reference oracle;
//! `tests/oracle.rs` pins [`OracleTarget::check`] to it. It is not
//! metered.
//!
//! # Work units
//!
//! [`OracleTarget::check`] bumps the registry counter `oracle.checks`
//! once per call, and `oracle.ground_truth_runs` once per memo miss (one
//! batched run of the original).

use looprag_dependence::scaled_params;
use looprag_exec::{run, BatchStore, CompiledProgram, ExecConfig, InputSpec, ParallelOrder};
use looprag_ir::{adaptive_sampling_cap, InitKind, Program};
use std::sync::OnceLock;

/// Oracle configuration.
#[derive(Debug, Clone)]
pub struct OracleConfig {
    /// Parameter cap for the scaled-down runs.
    pub param_cap: i64,
    /// Relative tolerance for element comparisons (loop transformations
    /// may reassociate floating-point reductions).
    pub rel_eps: f64,
    /// Statement budget per run.
    pub stmt_budget: u64,
    /// Extra initial-value patterns to try beyond the program's own.
    pub extra_inits: Vec<InitKind>,
}

impl Default for OracleConfig {
    fn default() -> Self {
        OracleConfig {
            param_cap: 8,
            rel_eps: 1e-6,
            stmt_budget: 50_000_000,
            extra_inits: vec![
                InitKind::IndexPattern {
                    a: 13,
                    b: 5,
                    m: 101,
                },
                InitKind::Constant(1.0),
            ],
        }
    }
}

/// Clones `p` with each parameter default replaced by its scaled-down
/// value (order-preserving, capped at `cap`).
pub fn scaled_clone(p: &Program, cap: i64) -> Program {
    let scaled = scaled_params(p, cap);
    let mut out = p.clone();
    for d in &mut out.params {
        if let Some(v) = scaled.get(&d.name) {
            d.value = *v;
        }
    }
    out
}

fn with_init(p: &Program, init: &InitKind) -> Program {
    let mut out = p.clone();
    out.inits = out
        .arrays
        .iter()
        .filter(|a| !a.local)
        .map(|a| (a.name.clone(), init.clone()))
        .collect();
    out
}

/// Sampling budget: statement instances a scaled run may execute.
const SAMPLE_INSTANCES: f64 = 3_000_000.0;

/// The parameter cap both programs are scaled to.
fn sampling_cap(original: &Program, candidate: &Program, cfg: &OracleConfig) -> i64 {
    // Widen the sampling cap so tiled candidates exercise at least two
    // tiles; a tile loop with a single iteration would hide reordering
    // bugs and illegal parallel marks.
    let cap = |p| adaptive_sampling_cap(p, cfg.param_cap, SAMPLE_INSTANCES);
    cap(candidate).max(cap(original))
}

/// True when `candidate` computes the same outputs as `original` on every
/// sampled configuration, including under permuted parallel schedules.
///
/// A `false` result is definitive for the sampled inputs; a `true` result
/// is strong evidence, not a proof — which mirrors the paper's testing
/// stance on the undecidable equivalence problem (§4.3).
///
/// One-shot form of [`OracleTarget::check`]; callers that check many
/// candidates against one original should keep a target instead.
pub fn semantics_preserving(original: &Program, candidate: &Program, cfg: &OracleConfig) -> bool {
    OracleTarget::new(original, cfg).check(candidate)
}

/// The reference oracle: [`semantics_preserving`] with one [`run`] per
/// initial-value image and parallel order, and no memo. Unmetered.
pub fn semantics_preserving_reference(
    original: &Program,
    candidate: &Program,
    cfg: &OracleConfig,
) -> bool {
    let cap = sampling_cap(original, candidate, cfg);
    let orig = scaled_clone(original, cap);
    let cand = scaled_clone(candidate, cap);
    if orig.outputs != cand.outputs {
        return false;
    }

    let mut variants: Vec<(Program, Program)> = vec![(orig.clone(), cand.clone())];
    for init in &cfg.extra_inits {
        variants.push((with_init(&orig, init), with_init(&cand, init)));
    }

    let base_cfg = ExecConfig {
        stmt_budget: cfg.stmt_budget,
        parallel_order: ParallelOrder::Forward,
    };
    for (o, c) in &variants {
        let Ok((ostore, _)) = run(o, &base_cfg) else {
            // The original must execute; if it cannot, nothing is checkable.
            return false;
        };
        for &order in ParallelOrder::probes(c) {
            let ccfg = ExecConfig {
                stmt_budget: cfg.stmt_budget,
                parallel_order: order,
            };
            let Ok((cstore, _)) = run(c, &ccfg) else {
                return false;
            };
            if ostore
                .element_diff(&cstore, &o.outputs, cfg.rel_eps)
                .is_some()
            {
                return false;
            }
        }
    }
    true
}

/// Registry handles for the oracle's work units.
struct OracleMetrics {
    checks: looprag_trace::Counter,
    ground_truth_runs: looprag_trace::Counter,
}

fn oracle_metrics() -> &'static OracleMetrics {
    static M: OnceLock<OracleMetrics> = OnceLock::new();
    M.get_or_init(|| {
        let r = looprag_trace::metrics();
        OracleMetrics {
            checks: r.counter("oracle.checks"),
            ground_truth_runs: r.counter("oracle.ground_truth_runs"),
        }
    })
}

/// `p`'s initial memory images as the lanes of one store: lane 0 the
/// program's own inits, lane `k` every non-local array filled with
/// `extra[k - 1]`.
fn init_lanes(p: &Program, extra: &[InitKind]) -> BatchStore {
    let fill_all = |init: &InitKind| -> InputSpec {
        p.arrays
            .iter()
            .filter(|a| !a.local)
            .map(|a| (a.name.clone(), init.clone()))
            .collect()
    };
    let inputs: Vec<InputSpec> = std::iter::once(InputSpec::new())
        .chain(extra.iter().map(fill_all))
        .collect();
    BatchStore::from_inputs(p, &inputs)
}

/// One original program to check candidates against, with its expected
/// outputs memoized per sampling cap for the life of the target. Each
/// check compiles the candidate once and runs the initial-value images
/// as the lanes of one batched sweep per parallel order.
#[derive(Debug)]
pub struct OracleTarget<'a> {
    original: &'a Program,
    cfg: &'a OracleConfig,
    /// Per cap: the scaled original's final store, one lane per initial
    /// image, or `None` when the original does not run at that cap.
    memo: Vec<(i64, Option<BatchStore>)>,
}

impl<'a> OracleTarget<'a> {
    /// A target for `original` under `cfg`, with an empty memo.
    pub fn new(original: &'a Program, cfg: &'a OracleConfig) -> Self {
        OracleTarget {
            original,
            cfg,
            memo: Vec::new(),
        }
    }

    /// The original's expected outputs at `cap`, running it on a memo
    /// miss; `None` when it does not run there.
    fn expected(&mut self, cap: i64) -> Option<&BatchStore> {
        let i = match self.memo.iter().position(|(c, _)| *c == cap) {
            Some(i) => i,
            None => {
                oracle_metrics().ground_truth_runs.inc();
                let orig = scaled_clone(self.original, cap);
                let mut store = init_lanes(&orig, &self.cfg.extra_inits);
                let cfg = ExecConfig {
                    stmt_budget: self.cfg.stmt_budget,
                    parallel_order: ParallelOrder::Forward,
                };
                let ok = CompiledProgram::compile(&orig)
                    .run_batched(&mut store, &cfg)
                    .is_ok();
                self.memo.push((cap, ok.then_some(store)));
                self.memo.len() - 1
            }
        };
        self.memo[i].1.as_ref()
    }

    /// True when `candidate` computes the same outputs as the original on
    /// every sampled configuration: the verdict of
    /// [`semantics_preserving_reference`], from one compile of the
    /// candidate and one batched sweep per parallel order.
    pub fn check(&mut self, candidate: &Program) -> bool {
        oracle_metrics().checks.inc();
        let (original, cfg) = (self.original, self.cfg);
        if original.outputs != candidate.outputs {
            return false;
        }
        let cap = sampling_cap(original, candidate, cfg);
        let Some(expected) = self.expected(cap) else {
            // The original must execute; if it cannot, nothing is checkable.
            return false;
        };
        let cand = scaled_clone(candidate, cap);
        let compiled = CompiledProgram::compile(&cand);
        let init = init_lanes(&cand, &cfg.extra_inits);
        ParallelOrder::probes(&cand).iter().all(|&order| {
            let mut store = init.clone();
            let ecfg = ExecConfig {
                stmt_budget: cfg.stmt_budget,
                parallel_order: order,
            };
            compiled.run_batched(&mut store, &ecfg).is_ok()
                && (0..store.lanes()).all(|lane| {
                    expected
                        .element_diff_lane(lane, &store, lane, &original.outputs, cfg.rel_eps)
                        .is_none()
                })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::primitives::{interchange, parallelize, tile_band};
    use looprag_ir::compile;

    fn gemm_like() -> Program {
        compile(
            "param N = 64;\narray C[N][N];\narray A[N][N];\narray B[N][N];\nout C;\n#pragma scop\nfor (i = 0; i <= N - 1; i++) for (j = 0; j <= N - 1; j++) for (k = 0; k <= N - 1; k++) C[i][j] += A[i][k] * B[k][j];\n#pragma endscop\n",
            "gemm",
        )
        .unwrap()
    }

    #[test]
    fn tiling_preserves_semantics() {
        let p = gemm_like();
        let t = tile_band(&p, &[0], 3, 4).unwrap();
        assert!(semantics_preserving(&p, &t, &OracleConfig::default()));
    }

    #[test]
    fn legal_interchange_preserves_semantics() {
        let p = gemm_like();
        let t = interchange(&p, &[0]).unwrap();
        assert!(semantics_preserving(&p, &t, &OracleConfig::default()));
    }

    #[test]
    fn legal_parallelization_passes_permutation_check() {
        let p = gemm_like();
        let t = parallelize(&p, &[0]).unwrap();
        assert!(semantics_preserving(&p, &t, &OracleConfig::default()));
    }

    #[test]
    fn illegal_parallelization_is_caught() {
        let p = compile(
            "param N = 64;\narray A[N];\nout A;\n#pragma scop\nfor (i = 1; i <= N - 1; i++) A[i] = A[i - 1] + 1.0;\n#pragma endscop\n",
            "rec",
        )
        .unwrap();
        let t = parallelize(&p, &[0]).unwrap();
        assert!(!semantics_preserving(&p, &t, &OracleConfig::default()));
    }

    #[test]
    fn wrong_rewrite_is_caught() {
        let p = gemm_like();
        // "Optimize" by dropping the k loop's accumulation semantics.
        let wrong = compile(
            "param N = 64;\narray C[N][N];\narray A[N][N];\narray B[N][N];\nout C;\n#pragma scop\nfor (i = 0; i <= N - 1; i++) for (j = 0; j <= N - 1; j++) C[i][j] = A[i][j] * B[i][j];\n#pragma endscop\n",
            "wrong",
        )
        .unwrap();
        assert!(!semantics_preserving(&p, &wrong, &OracleConfig::default()));
    }
}

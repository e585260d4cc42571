//! # looprag-eqcheck
//!
//! Semantic-equivalence checking for LLM-generated code (§4.3): seed
//! input generation and differential testing with a checksum
//! quick-filter followed by element-wise comparison.
//!
//! The paper treats equivalence pragmatically — it is undecidable in
//! general, so the generated program is *tested*, not proven. This crate
//! implements that pipeline over the [`looprag_exec`] interpreter, plus
//! one strengthening the interpreter makes cheap: candidates whose
//! parallel-marked loops are illegal are exposed by re-running them under
//! permuted iteration orders.
//!
//! The paper also mutates inputs and keeps a mutant only while it adds
//! branch coverage. That selection does nothing in this language: loop
//! bounds, guards, faults and budgets are affine in parameters and
//! iterators and never read array values, so every input covers exactly
//! what the first one covers. The suite is therefore the
//! [`seed_inputs`], and nothing is run to select it.
//!
//! The production path is *batched*: all suite inputs run as lanes of
//! one [`BatchStore`] sweep per iteration order, each sweep with one
//! outcome, and the ground truth is executed once per sampling cap (and
//! cached by [`PreparedTarget`] across candidates).
//! Its one reference oracle is [`differential_test_reference`]: the
//! per-input, early-exit traversal on the tree-walking interpreter,
//! pinned bit-for-bit against the batched verdicts.
//!
//! ```
//! use looprag_eqcheck::{build_test_suite, differential_test, seed_inputs, EqCheckConfig, TestVerdict};
//! let src = "param N = 32;\narray A[N];\nout A;\n#pragma scop\n\
//! for (i = 0; i <= N - 1; i++) A[i] = A[i] * 2.0;\n#pragma endscop\n";
//! let p = looprag_ir::compile(src, "k")?;
//! let cfg = EqCheckConfig::default();
//! let suite = build_test_suite(&p, &cfg);
//! assert_eq!(suite.inputs, seed_inputs(&p));
//! assert_eq!(differential_test(&p, &p, &suite, &cfg), TestVerdict::Pass);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

pub use looprag_exec::InputSpec;
use looprag_exec::{
    run_with_store_reference, ArrayStore, BatchStore, CompiledProgram, ExecConfig, ExecError,
    ParallelOrder,
};
use looprag_ir::{adaptive_sampling_cap, InitKind, Program};
use looprag_transform::scaled_clone;
use std::fmt;
use std::sync::{Arc, Mutex, OnceLock};

/// Verdict of differential testing, matching the paper's error classes.
#[derive(Debug, Clone, PartialEq)]
pub enum TestVerdict {
    /// All tests passed.
    Pass,
    /// Outputs differ from the ground truth (IA).
    IncorrectAnswer {
        /// Human-readable mismatch description.
        detail: String,
    },
    /// The candidate faulted at runtime (RE).
    RuntimeError {
        /// The runtime error message.
        message: String,
    },
    /// The candidate exceeded the execution budget (ET).
    Timeout,
}

impl fmt::Display for TestVerdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TestVerdict::Pass => write!(f, "pass"),
            TestVerdict::IncorrectAnswer { detail } => write!(f, "incorrect answer: {detail}"),
            TestVerdict::RuntimeError { message } => write!(f, "runtime error: {message}"),
            TestVerdict::Timeout => write!(f, "execution timeout"),
        }
    }
}

/// Configuration for differential testing.
#[derive(Debug, Clone)]
pub struct EqCheckConfig {
    /// Base parameter cap for scaled-down runs (widened adaptively for
    /// tiled candidates).
    pub param_cap: i64,
    /// Relative tolerance for element-wise comparison.
    pub rel_eps: f64,
    /// Statement budget per run (the execution-timeout threshold).
    pub stmt_budget: u64,
}

impl Default for EqCheckConfig {
    fn default() -> Self {
        EqCheckConfig {
            param_cap: 8,
            rel_eps: 1e-6,
            stmt_budget: 20_000_000,
        }
    }
}

impl EqCheckConfig {
    /// A canonical fingerprint of every field. Two configs with equal
    /// fingerprints produce identical verdicts for the same programs; the
    /// serve layer folds this into its memo key.
    pub fn fingerprint(&self) -> String {
        // Exhaustive destructuring: adding a field without folding it
        // into the fingerprint becomes a compile error.
        let EqCheckConfig {
            param_cap,
            rel_eps,
            stmt_budget,
        } = self;
        format!(
            "eq:cap{param_cap}|eps{:016x}|sb{stmt_budget}",
            rel_eps.to_bits()
        )
    }
}

/// The inputs every candidate is tested on.
#[derive(Debug, Clone)]
pub struct TestSuite {
    /// One input per lane of a differential-test sweep.
    pub inputs: Vec<InputSpec>,
}

fn array_names(p: &Program) -> Vec<String> {
    p.arrays
        .iter()
        .filter(|a| !a.local)
        .map(|a| a.name.clone())
        .collect()
}

/// Seed inputs: the structural reading of the program that the paper
/// delegates to GPT-4 — data layout from the declarations, plus a small
/// set of canonical value patterns.
pub fn seed_inputs(p: &Program) -> Vec<InputSpec> {
    let names = array_names(p);
    let patterns = [
        InitKind::default_pattern(),
        InitKind::IndexPattern {
            a: 31,
            b: 7,
            m: 113,
        },
        InitKind::Constant(1.0),
        InitKind::Zero,
    ];
    patterns
        .iter()
        .map(|k| names.iter().map(|n| (n.clone(), k.clone())).collect())
        .collect()
}

fn store_for(p: &Program, spec: &InputSpec) -> ArrayStore {
    let mut store = ArrayStore::from_program(p);
    for (name, init) in spec {
        if let Some(arr) = store.get_mut(name) {
            arr.fill(init);
        }
    }
    store
}

/// The test suite for `p`: its [`seed_inputs`], with nothing run to
/// select them. `cfg` is not read; the parameter stays so callers keep
/// one signature.
///
/// The paper keeps a mutated input only while it adds branch coverage
/// (500+ tests reduced to ~25). Here control flow never depends on array
/// values, so coverage cannot depend on the input and such a selection
/// keeps the seeds and nothing else — except on a loop-free kernel,
/// which has no branch sites and would keep only the first seed.
pub fn build_test_suite(p: &Program, _cfg: &EqCheckConfig) -> TestSuite {
    TestSuite {
        inputs: seed_inputs(p),
    }
}

/// Verdict message when the ground truth failed on every suite input:
/// zero comparisons ran, so `Pass` would be vacuous (and was, before
/// this became a distinguishable failure).
const GROUND_TRUTH_ALL_FAILED: &str =
    "ground truth failed on every suite input; no differential comparisons ran";

/// Annotates a failing verdict of the reference oracle with the number of
/// suite inputs it skipped (ground-truth failure) before the failure was
/// found, so partially-vacuous verdicts are visible. The ground truth
/// fails on every input or on none, so the batched path never skips one;
/// verdicts found with no prior skips are returned untouched, which keeps
/// the two paths byte-identical.
fn annotate_skips(verdict: TestVerdict, skipped: usize) -> TestVerdict {
    if skipped == 0 {
        return verdict;
    }
    match verdict {
        TestVerdict::IncorrectAnswer { detail } => TestVerdict::IncorrectAnswer {
            detail: format!("{detail} ({skipped} ground-truth input(s) skipped)"),
        },
        TestVerdict::RuntimeError { message } => TestVerdict::RuntimeError {
            message: format!("{message} ({skipped} ground-truth input(s) skipped)"),
        },
        other => other,
    }
}

/// Counts one ground-truth sweep ([`ExpectedLanes::prepare`]) in the
/// global metrics registry as `eqcheck.ground_truth_runs`. Observational
/// only, like the verdict counters.
fn count_ground_truth_run() {
    static C: OnceLock<looprag_trace::Counter> = OnceLock::new();
    C.get_or_init(|| looprag_trace::metrics().counter("eqcheck.ground_truth_runs"))
        .inc();
}

/// Counts one differential-test verdict in the global metrics registry,
/// keyed per verdict kind. Observational only — never consulted by any
/// verdict or fingerprint path.
fn count_verdict(v: &TestVerdict) {
    struct VerdictCounters {
        pass: looprag_trace::Counter,
        incorrect: looprag_trace::Counter,
        runtime_error: looprag_trace::Counter,
        timeout: looprag_trace::Counter,
    }
    static C: OnceLock<VerdictCounters> = OnceLock::new();
    let c = C.get_or_init(|| {
        let r = looprag_trace::metrics();
        VerdictCounters {
            pass: r.counter("eqcheck.verdict_pass"),
            incorrect: r.counter("eqcheck.verdict_incorrect"),
            runtime_error: r.counter("eqcheck.verdict_runtime_error"),
            timeout: r.counter("eqcheck.verdict_timeout"),
        }
    });
    match v {
        TestVerdict::Pass => c.pass.inc(),
        TestVerdict::IncorrectAnswer { .. } => c.incorrect.inc(),
        TestVerdict::RuntimeError { .. } => c.runtime_error.inc(),
        TestVerdict::Timeout => c.timeout.inc(),
    }
}

/// Differentially tests `candidate` against `original` on the suite:
/// checksum quick-filter, element-wise comparison, and permuted-order
/// re-execution for parallel-marked loops.
///
/// This is the production path: all suite inputs run as lanes of one
/// batched sweep per iteration order ([`BatchStore`]), with the ground
/// truth executed once up front. Verdicts are bit-identical to
/// [`differential_test_reference`] — the batched sweeps replay the
/// oracle's per-input traversal, input-major and order-minor, exactly.
pub fn differential_test(
    original: &Program,
    candidate: &Program,
    suite: &TestSuite,
    cfg: &EqCheckConfig,
) -> TestVerdict {
    let cap = adaptive_sampling_cap(candidate, cfg.param_cap, 400_000.0)
        .max(adaptive_sampling_cap(original, cfg.param_cap, 400_000.0));
    let truth = GroundTruth::new(original, cap, suite, cfg);
    let verdict = differential_test_batched(&truth, candidate, suite, cfg);
    count_verdict(&verdict);
    verdict
}

/// The reference oracle for [`differential_test`]: one suite input at a
/// time on the reference tree-walker, visiting `(input, order)` pairs
/// input-major and returning at the first failure.
///
/// Exists so perf snapshots and differential validation can measure and
/// pin the batched production path; verdicts are identical to
/// [`differential_test`] by construction (the engines are
/// bit-equivalent).
pub fn differential_test_reference(
    original: &Program,
    candidate: &Program,
    suite: &TestSuite,
    cfg: &EqCheckConfig,
) -> TestVerdict {
    let cap = adaptive_sampling_cap(candidate, cfg.param_cap, 400_000.0)
        .max(adaptive_sampling_cap(original, cfg.param_cap, 400_000.0));
    let orig = scaled_clone(original, cap);
    let cand = scaled_clone(candidate, cap);
    let verdict = reference_verdict(&orig, &cand, suite, cfg);
    count_verdict(&verdict);
    verdict
}

/// The reference oracle's core over the already-scaled pair.
fn reference_verdict(
    orig: &Program,
    cand: &Program,
    suite: &TestSuite,
    cfg: &EqCheckConfig,
) -> TestVerdict {
    if orig.outputs != cand.outputs {
        return TestVerdict::IncorrectAnswer {
            detail: "output arrays differ".into(),
        };
    }
    let outputs = &orig.outputs;
    let fwd = ExecConfig {
        stmt_budget: cfg.stmt_budget,
        parallel_order: ParallelOrder::Forward,
    };
    let mut compared = 0usize;
    let mut skipped = 0usize;
    for spec in &suite.inputs {
        let mut ostore = store_for(orig, spec);
        if run_with_store_reference(orig, &mut ostore, &fwd).is_err() {
            // Ground truth failed on this input (should not happen for
            // benchmark kernels); skip it, but *count* the skip — a
            // verdict reached with zero comparisons is no verdict.
            skipped += 1;
            continue;
        }
        compared += 1;
        let expected_sum = ostore.checksum(outputs);
        for order in ParallelOrder::probes(cand) {
            let ecfg = ExecConfig {
                stmt_budget: cfg.stmt_budget,
                parallel_order: *order,
            };
            let mut cstore = store_for(cand, spec);
            match run_with_store_reference(cand, &mut cstore, &ecfg) {
                Err(ExecError::BudgetExceeded { .. }) => return TestVerdict::Timeout,
                Err(e) => {
                    return annotate_skips(
                        TestVerdict::RuntimeError {
                            message: e.to_string(),
                        },
                        skipped,
                    )
                }
                Ok(_) => {}
            }
            // Checksum testing: the quick filter.
            if let Some(v) = checksum_mismatch(expected_sum, cstore.checksum(outputs), cfg) {
                return annotate_skips(v, skipped);
            }
            // Element-wise testing: the precise comparison.
            if let Some((arr, idx, a, b)) = ostore.element_diff(&cstore, outputs, cfg.rel_eps) {
                return annotate_skips(
                    TestVerdict::IncorrectAnswer {
                        detail: format!("{arr}[{idx}]: expected {a}, got {b}"),
                    },
                    skipped,
                );
            }
        }
    }
    if compared == 0 {
        return TestVerdict::RuntimeError {
            message: GROUND_TRUTH_ALL_FAILED.into(),
        };
    }
    TestVerdict::Pass
}

/// The ground truth executed once for a whole suite: every input's final
/// output arrays held as one lane of a [`BatchStore`], plus the per-input
/// output checksums. Candidates compare against these cached lanes
/// instead of re-running the original per input per candidate.
#[derive(Debug)]
struct ExpectedLanes {
    /// The original's final output arrays, one lane per suite input;
    /// verdicts read nothing else, so the other arrays are dropped.
    stores: BatchStore,
    /// Per input: output checksum of the final store.
    checksums: Vec<f64>,
}

impl ExpectedLanes {
    /// Runs the scaled original over all suite inputs as one batched
    /// Forward sweep and caches the per-lane output arrays and checksums.
    /// `None` when the sweep fails, which it does on every input at once,
    /// or when the suite is empty: either way no comparison can run.
    fn prepare(orig: &Program, suite: &TestSuite, cfg: &EqCheckConfig) -> Option<Self> {
        count_ground_truth_run();
        let mut stores = BatchStore::from_inputs(orig, &suite.inputs);
        let fwd = ExecConfig {
            stmt_budget: cfg.stmt_budget,
            parallel_order: ParallelOrder::Forward,
        };
        CompiledProgram::compile(orig)
            .run_batched(&mut stores, &fwd)
            .ok()?;
        let checksums = stores.checksum_lanes(&orig.outputs);
        stores.retain_arrays(&orig.outputs);
        (stores.lanes() > 0).then_some(ExpectedLanes { stores, checksums })
    }
}

/// The original scaled to one sampling cap, with its ground truth over
/// the whole suite (`None`: the original fails there).
#[derive(Debug)]
struct GroundTruth {
    cap: i64,
    scaled: Program,
    expected: Option<ExpectedLanes>,
}

impl GroundTruth {
    fn new(original: &Program, cap: i64, suite: &TestSuite, cfg: &EqCheckConfig) -> Self {
        let scaled = scaled_clone(original, cap);
        let expected = ExpectedLanes::prepare(&scaled, suite, cfg);
        GroundTruth {
            cap,
            scaled,
            expected,
        }
    }
}

/// The batched per-candidate core: the original's ground truth at the
/// test's sampling cap is `truth`; only the candidate is scaled
/// and compiled here. Each iteration order runs as one batched sweep
/// over the suite inputs, input `i` in lane `i`.
///
/// The reference oracle visits `(input, order)` pairs input-major with
/// an early return, so its verdict is the lexicographically first
/// failure. The sweeps reproduce that exactly: each later order only
/// re-runs the inputs *before* the earliest failure found so far (a
/// genuine early exit — once input 0 fails nothing else runs), and the
/// surviving minimum is the oracle's verdict by construction. A sweep
/// that stops on a budget or a fault stops on every input at once, so
/// its failure is input 0's.
fn differential_test_batched(
    truth: &GroundTruth,
    candidate: &Program,
    suite: &TestSuite,
    cfg: &EqCheckConfig,
) -> TestVerdict {
    let orig = &truth.scaled;
    let cand = scaled_clone(candidate, truth.cap);
    if orig.outputs != cand.outputs {
        return TestVerdict::IncorrectAnswer {
            detail: "output arrays differ".into(),
        };
    }
    let Some(expected) = &truth.expected else {
        return TestVerdict::RuntimeError {
            message: GROUND_TRUTH_ALL_FAILED.into(),
        };
    };
    let outputs = &orig.outputs;
    let compiled = CompiledProgram::compile(&cand);
    // Lane template: allocated and input-filled once; full-width sweeps
    // clone it instead of recomputing per-element array initialization
    // for every iteration order.
    let template = BatchStore::from_inputs(&cand, &suite.inputs);
    let mut first_fail: Option<(usize, TestVerdict)> = None;
    for order in ParallelOrder::probes(&cand) {
        let limit = first_fail.as_ref().map_or(suite.inputs.len(), |(i, _)| *i);
        if limit == 0 {
            break;
        }
        let mut store = if limit == suite.inputs.len() {
            template.clone()
        } else {
            // Narrowed sweep (an earlier order already failed): cheap by
            // construction, build the reduced store directly.
            BatchStore::from_inputs(&cand, &suite.inputs[..limit])
        };
        let ecfg = ExecConfig {
            stmt_budget: cfg.stmt_budget,
            parallel_order: *order,
        };
        first_fail = match compiled.run_batched(&mut store, &ecfg) {
            Err(ExecError::BudgetExceeded { .. }) => Some((0, TestVerdict::Timeout)),
            Err(e) => Some((
                0,
                TestVerdict::RuntimeError {
                    message: e.to_string(),
                },
            )),
            // First failing input of this sweep; anything after it is
            // moot under input-major priority.
            Ok(_) => {
                let sums = store.checksum_lanes(outputs);
                (0..limit)
                    .find_map(|i| {
                        lane_mismatch(expected, &store, i, sums[i], outputs, cfg).map(|v| (i, v))
                    })
                    .or(first_fail)
            }
        };
    }
    first_fail.map_or(TestVerdict::Pass, |(_, v)| v)
}

/// The checksum quick filter shared by both verdict paths: a mismatch
/// verdict when the output checksums differ beyond tolerance (or either
/// is non-finite), `None` when the element-wise comparison should run.
fn checksum_mismatch(expected_sum: f64, got_sum: f64, cfg: &EqCheckConfig) -> Option<TestVerdict> {
    let scale = expected_sum.abs().max(1.0);
    let ok = expected_sum.is_finite()
        && got_sum.is_finite()
        && (expected_sum - got_sum).abs() <= cfg.rel_eps * scale * 1e3;
    (!ok).then(|| TestVerdict::IncorrectAnswer {
        detail: format!("checksum mismatch: expected {expected_sum}, got {got_sum}"),
    })
}

/// Compares lane `lane` of a candidate sweep against the cached
/// ground-truth lane of the same input: checksum quick-filter, then
/// element-wise comparison — the identical formulas (and verdict
/// strings) as the reference oracle.
fn lane_mismatch(
    expected: &ExpectedLanes,
    got: &BatchStore,
    lane: usize,
    got_sum: f64,
    outputs: &[String],
    cfg: &EqCheckConfig,
) -> Option<TestVerdict> {
    if let Some(v) = checksum_mismatch(expected.checksums[lane], got_sum, cfg) {
        return Some(v);
    }
    let (arr, idx, a, b) =
        expected
            .stores
            .element_diff_lane(lane, got, lane, outputs, cfg.rel_eps)?;
    Some(TestVerdict::IncorrectAnswer {
        detail: format!("{arr}[{idx}]: expected {a}, got {b}"),
    })
}

/// A kernel prepared for repeated differential testing: the suite plus a memo of the original's ground truth per sampling cap.
/// Each entry is the original scaled to that cap and executed over the
/// whole suite once; its per-input final stores and checksums are
/// [`BatchStore`] lanes that every candidate tested at that cap compares
/// against, instead of re-running the original per input per
/// [`differential_test`] call.
///
/// A candidate is tested at the wider of its own adaptive sampling cap
/// and the original's, so tiled candidates usually widen it. The
/// original's cap is filled at [`PreparedTarget::prepare`]; each wider
/// cap is computed the first time a candidate needs it and kept for the
/// life of the target (in the pipeline, one `optimize` call). The
/// expected stores are a pure function of the original, the cap, the
/// suite and the preparation config, so a per-cap entry is computed
/// exactly once at any pool size — concurrent candidates at the same new
/// cap wait for one sweep — and verdicts equal the one-shot
/// [`differential_test`] whichever worker fills it.
#[derive(Debug)]
pub struct PreparedTarget {
    original: Program,
    suite: TestSuite,
    /// The config the target was prepared with; the ground truths and
    /// every candidate run under it.
    cfg: EqCheckConfig,
    /// The original's own sampling cap.
    cap: i64,
    /// Sampling cap → ground truth at that cap.
    truths: Mutex<Vec<(i64, Arc<OnceLock<GroundTruth>>)>>,
}

impl PreparedTarget {
    /// Builds the suite and the ground truth at the original's sampling
    /// cap: the scaled original run once over all suite inputs (one
    /// batched sweep).
    pub fn prepare(original: &Program, cfg: &EqCheckConfig) -> Self {
        let suite = build_test_suite(original, cfg);
        let cap = adaptive_sampling_cap(original, cfg.param_cap, 400_000.0);
        let truth = OnceLock::from(GroundTruth::new(original, cap, &suite, cfg));
        PreparedTarget {
            original: original.clone(),
            suite,
            cfg: cfg.clone(),
            cap,
            truths: Mutex::new(vec![(cap, Arc::new(truth))]),
        }
    }

    /// The original (unscaled) program.
    pub fn original(&self) -> &Program {
        &self.original
    }

    /// The test suite (the original's [`seed_inputs`]).
    pub fn suite(&self) -> &TestSuite {
        &self.suite
    }

    /// The memo entry for `cap`, inserted empty on first use.
    fn truth_cell(&self, cap: i64) -> Arc<OnceLock<GroundTruth>> {
        let mut truths = self.truths.lock().expect("ground-truth memo lock");
        if let Some((_, cell)) = truths.iter().find(|(c, _)| *c == cap) {
            return Arc::clone(cell);
        }
        let cell = Arc::new(OnceLock::new());
        truths.push((cap, Arc::clone(&cell)));
        cell
    }

    /// [`differential_test`] against the prepared original. Verdicts are
    /// identical to the one-shot function under the preparation config;
    /// the ground truth at the candidate's cap comes from the memo.
    ///
    /// The sampling cap, statement budget and tolerance all come from the
    /// preparation config, so the candidate and the ground truth always
    /// run under one config. `cfg` must equal it (checked in debug
    /// builds); the parameter stays so callers keep one signature.
    pub fn differential_test(&self, candidate: &Program, cfg: &EqCheckConfig) -> TestVerdict {
        debug_assert_eq!(
            cfg.fingerprint(),
            self.cfg.fingerprint(),
            "PreparedTarget tested under a config other than its preparation config"
        );
        let cfg = &self.cfg;
        let cap = adaptive_sampling_cap(candidate, cfg.param_cap, 400_000.0).max(self.cap);
        // Computed outside the memo lock: other caps proceed in
        // parallel, and the cell runs its sweep exactly once.
        let cell = self.truth_cell(cap);
        let truth = cell.get_or_init(|| GroundTruth::new(&self.original, cap, &self.suite, cfg));
        let verdict = differential_test_batched(truth, candidate, &self.suite, cfg);
        count_verdict(&verdict);
        verdict
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use looprag_ir::compile;
    use looprag_transform::{parallelize, tile_band};

    fn gemm() -> Program {
        compile(
            "param N = 64;\narray C[N][N];\narray A[N][N];\narray B[N][N];\nout C;\n#pragma scop\nfor (i = 0; i <= N - 1; i++) for (j = 0; j <= N - 1; j++) for (k = 0; k <= N - 1; k++) C[i][j] += A[i][k] * B[k][j];\n#pragma endscop\n",
            "gemm",
        )
        .unwrap()
    }

    #[test]
    fn identical_program_passes() {
        let p = gemm();
        let cfg = EqCheckConfig::default();
        let suite = build_test_suite(&p, &cfg);
        assert_eq!(differential_test(&p, &p, &suite, &cfg), TestVerdict::Pass);
    }

    #[test]
    fn legal_transformation_passes() {
        let p = gemm();
        let t = parallelize(&tile_band(&p, &[0], 3, 8).unwrap(), &[0]).unwrap();
        let cfg = EqCheckConfig::default();
        let suite = build_test_suite(&p, &cfg);
        assert_eq!(differential_test(&p, &t, &suite, &cfg), TestVerdict::Pass);
    }

    #[test]
    fn wrong_semantics_is_incorrect_answer() {
        let p = gemm();
        let wrong = compile(
            "param N = 64;\narray C[N][N];\narray A[N][N];\narray B[N][N];\nout C;\n#pragma scop\nfor (i = 0; i <= N - 1; i++) for (j = 0; j <= N - 1; j++) C[i][j] = A[i][j] + B[i][j];\n#pragma endscop\n",
            "wrong",
        )
        .unwrap();
        let cfg = EqCheckConfig::default();
        let suite = build_test_suite(&p, &cfg);
        assert!(matches!(
            differential_test(&p, &wrong, &suite, &cfg),
            TestVerdict::IncorrectAnswer { .. }
        ));
    }

    #[test]
    fn oob_rewrite_is_runtime_error() {
        let p = compile(
            "param N = 32;\narray A[N];\nout A;\n#pragma scop\nfor (i = 0; i <= N - 1; i++) A[i] = A[i] + 1.0;\n#pragma endscop\n",
            "ok",
        )
        .unwrap();
        let oob = compile(
            "param N = 32;\narray A[N];\nout A;\n#pragma scop\nfor (i = 0; i <= N - 1; i++) A[i + 1] = A[i] + 1.0;\n#pragma endscop\n",
            "oob",
        )
        .unwrap();
        let cfg = EqCheckConfig::default();
        let suite = build_test_suite(&p, &cfg);
        assert!(matches!(
            differential_test(&p, &oob, &suite, &cfg),
            TestVerdict::RuntimeError { .. }
        ));
    }

    #[test]
    fn illegal_parallelization_is_caught_by_permuted_orders() {
        let p = compile(
            "param N = 64;\narray A[N];\nout A;\n#pragma scop\nfor (i = 1; i <= N - 1; i++) A[i] = A[i - 1] + 1.0;\n#pragma endscop\n",
            "rec",
        )
        .unwrap();
        let bad = parallelize(&p, &[0]).unwrap();
        let cfg = EqCheckConfig::default();
        let suite = build_test_suite(&p, &cfg);
        assert!(matches!(
            differential_test(&p, &bad, &suite, &cfg),
            TestVerdict::IncorrectAnswer { .. }
        ));
    }

    #[test]
    fn runaway_candidate_times_out() {
        let p = compile(
            "param N = 16;\narray A[N];\nout A;\n#pragma scop\nfor (i = 0; i <= N - 1; i++) A[i] = 1.0;\n#pragma endscop\n",
            "ok",
        )
        .unwrap();
        // Six nested loops stay slow even at the scaled-down cap of 8:
        // 8^6 iterations exceed the configured statement budget.
        let slow = compile(
            "param N = 16;\narray A[N];\nout A;\n#pragma scop\nfor (a = 0; a <= N - 1; a++) for (b = 0; b <= N - 1; b++) for (c = 0; c <= N - 1; c++) for (d = 0; d <= N - 1; d++) for (e = 0; e <= N - 1; e++) for (f = 0; f <= N - 1; f++) A[0] += 0.000001;\nfor (i = 0; i <= N - 1; i++) A[i] = 1.0;\n#pragma endscop\n",
            "slow",
        )
        .unwrap();
        let cfg = EqCheckConfig {
            stmt_budget: 100_000,
            ..Default::default()
        };
        let suite = build_test_suite(&p, &cfg);
        assert_eq!(
            differential_test(&p, &slow, &suite, &cfg),
            TestVerdict::Timeout
        );
    }

    #[test]
    fn all_engines_reach_identical_verdicts() {
        let p = gemm();
        let cfg = EqCheckConfig::default();
        let suite = build_test_suite(&p, &cfg);
        let legal = parallelize(&tile_band(&p, &[0], 3, 8).unwrap(), &[0]).unwrap();
        let wrong = compile(
            "param N = 64;\narray C[N][N];\narray A[N][N];\narray B[N][N];\nout C;\n#pragma scop\nfor (i = 0; i <= N - 1; i++) for (j = 0; j <= N - 1; j++) C[i][j] = A[i][j] + B[i][j];\n#pragma endscop\n",
            "wrong",
        )
        .unwrap();
        for cand in [&p, &legal, &wrong] {
            let batched = differential_test(&p, cand, &suite, &cfg);
            assert_eq!(batched, differential_test_reference(&p, cand, &suite, &cfg));
        }
    }

    #[test]
    fn prepared_target_matches_one_shot_verdicts() {
        let p = gemm();
        let cfg = EqCheckConfig::default();
        let prepared = PreparedTarget::prepare(&p, &cfg);
        let legal = parallelize(&tile_band(&p, &[0], 3, 8).unwrap(), &[0]).unwrap();
        // A tile size far above the original's scaled cap widens it, so
        // the memo computes a second ground truth.
        let widened = tile_band(&p, &[0], 3, 40).unwrap();
        let wrong = compile(
            "param N = 64;\narray C[N][N];\narray A[N][N];\narray B[N][N];\nout C;\n#pragma scop\nfor (i = 0; i <= N - 1; i++) for (j = 0; j <= N - 1; j++) C[i][j] = A[i][j] + B[i][j];\n#pragma endscop\n",
            "wrong",
        )
        .unwrap();
        for cand in [&p, &legal, &widened, &wrong] {
            let one_shot = differential_test(&p, cand, prepared.suite(), &cfg);
            assert_eq!(prepared.differential_test(cand, &cfg), one_shot);
            assert_eq!(
                differential_test_reference(&p, cand, prepared.suite(), &cfg),
                one_shot
            );
        }
    }

    /// Regression (vacuous Pass): a ground truth that faults on every
    /// suite input used to skip every comparison and return `Pass` — the
    /// candidate was never tested. Every path must now return a
    /// distinguishable failure.
    #[test]
    fn ground_truth_failing_on_all_inputs_is_not_pass() {
        let ok = compile(
            "param N = 32;\narray A[N];\nout A;\n#pragma scop\nfor (i = 0; i <= N - 1; i++) A[i] = A[i] + 1.0;\n#pragma endscop\n",
            "ok",
        )
        .unwrap();
        let oob = compile(
            "param N = 32;\narray A[N];\nout A;\n#pragma scop\nfor (i = 0; i <= N - 1; i++) A[i + 1] = A[i] + 1.0;\n#pragma endscop\n",
            "oob",
        )
        .unwrap();
        let cfg = EqCheckConfig::default();
        let suite = build_test_suite(&ok, &cfg);
        assert!(!suite.inputs.is_empty());
        // `oob` as the *original*: every ground-truth run faults. An
        // empty suite runs no comparison either.
        let empty = TestSuite { inputs: Vec::new() };
        let verdicts = [
            differential_test(&oob, &ok, &suite, &cfg),
            differential_test_reference(&oob, &ok, &suite, &cfg),
            PreparedTarget::prepare(&oob, &cfg).differential_test(&ok, &cfg),
            differential_test(&ok, &ok, &empty, &cfg),
            differential_test_reference(&ok, &ok, &empty, &cfg),
        ];
        for v in verdicts {
            match v {
                TestVerdict::RuntimeError { ref message } => {
                    assert!(
                        message.contains("ground truth failed"),
                        "unexpected message: {message}"
                    );
                }
                other => panic!("expected a runtime-error verdict, got {other:?}"),
            }
        }
    }

    /// Regression (vacuous pass on a loop-free kernel): such a kernel
    /// has no branch sites, so coverage-guided selection saturated on the
    /// first seed and kept one input. The two bodies below agree on that
    /// input only (x + 1 = 13.125 x at x = 8/97, the first seed's `A[1]`),
    /// so it takes the other seeds to tell them apart.
    #[test]
    fn loop_free_kernel_keeps_every_seed_and_catches_the_wrong_operator() {
        let kernel = |body: &str| {
            compile(
                &format!(
                    "param N = 8;\narray A[N];\nout A;\n#pragma scop\n{body}\n#pragma endscop\n"
                ),
                "loop_free",
            )
            .unwrap()
        };
        let p = kernel("A[0] = A[1] + 1.0;");
        let wrong = kernel("A[0] = A[1] * 13.125;");
        let cfg = EqCheckConfig::default();
        let suite = build_test_suite(&p, &cfg);
        assert_eq!(suite.inputs, seed_inputs(&p));
        assert_eq!(suite.inputs.len(), 4);
        let verdicts = [
            differential_test(&p, &wrong, &suite, &cfg),
            differential_test_reference(&p, &wrong, &suite, &cfg),
            PreparedTarget::prepare(&p, &cfg).differential_test(&wrong, &cfg),
        ];
        for v in verdicts {
            assert!(
                matches!(v, TestVerdict::IncorrectAnswer { .. }),
                "expected an incorrect answer, got {v:?}"
            );
        }
    }

    /// A prepared target runs the candidate under its preparation config;
    /// passing another one is a caller bug that debug builds catch.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "preparation config")]
    fn prepared_target_rejects_a_different_config() {
        let p = gemm();
        let prepared = PreparedTarget::prepare(&p, &EqCheckConfig::default());
        let other = EqCheckConfig {
            stmt_budget: 1_000,
            ..Default::default()
        };
        prepared.differential_test(&p, &other);
    }
}

//! The LOOPRAG pipeline (§3): dataset-backed retrieval plus the
//! four-step feedback-based iterative generation of §4.3, structured as
//! explicit stages over the deterministic worker pool of
//! [`looprag_runtime`].
//!
//! * **Step 1** — prompt with retrieved demonstrations, generate K
//!   candidates, compile each.
//! * **Step 2** — regenerate compile failures with the compiler
//!   diagnostics (first round of compilation feedback), then run
//!   differential testing on the seed inputs and rank the survivors by
//!   estimated performance. (The paper also mutates inputs and keeps
//!   those that add branch coverage; control flow here never reads array
//!   values, so that selection would keep exactly the seeds.)
//! * **Step 3** — prompt with testing results and performance rankings,
//!   generate a fresh batch.
//! * **Step 4** — repeat compile-repair and testing for the new batch,
//!   and output the fastest passing candidate overall.
//!
//! # Stage structure and parallelism
//!
//! Each round flows through three explicit stage values:
//! [`GeneratedBatch`] (the model's vetted emissions) →
//! [`CompiledBatch`] (per-candidate reports + programs) →
//! [`TestedBatch`] (verdicts and speedups), followed by a pure ranking.
//! Generation and repair stay **sequential** — the simulated LLM is a
//! stateful RNG stream, so call order is part of the seed contract, and
//! it must parse every emission anyway to decide whether to send repair
//! feedback (the parse is carried forward, not redone) — while
//! differential testing and cost estimation (the dominant cost) fan out
//! across the worker pool. Results merge back in submission order and
//! every budget decision is taken sequentially before the fan-out, so
//! outcomes are bit-for-bit identical at any thread count.

use crate::metrics::candidate_speedup;
use looprag_eqcheck::{PreparedTarget, TestVerdict};
use looprag_ir::{compile, print_program, Program};
use looprag_llm::{Demonstration, LanguageModel, LlmProfile, Prompt, SimLlm};
use looprag_machine::{estimate_cost, CostEngine, CostReport, MachineConfig};
use looprag_retrieval::{KnowledgeBase, RetrievalMode};
use looprag_runtime::{par_map, resolve_threads, Budget, BudgetPolicy};
use looprag_search::SearchConfig;
use looprag_synth::{property_stats, Dataset, ExampleRecord, Provenance};
use looprag_trace::Recorder;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Virtual-cost units charged per model call (generation or repair).
const GEN_COST: u64 = 1;
/// Virtual-cost units charged per candidate differential test.
const TEST_COST: u64 = 1;

/// Pipeline configuration.
#[derive(Debug, Clone)]
pub struct LoopRagConfig {
    /// Base seed; per-target seeds derive from it and the kernel name.
    pub seed: u64,
    /// Number of candidates per generation round (the paper's K).
    pub k: usize,
    /// Retrieval arm (the Table 6 ablation).
    pub retrieval: RetrievalMode,
    /// Candidates retrieved before sampling (the paper's N).
    pub top_n: usize,
    /// Demonstrations sampled from the top-N (the paper uses 3).
    pub demos: usize,
    /// Base-LLM profile.
    pub profile: LlmProfile,
    /// Machine model for performance ranking and reported speedups.
    pub machine: MachineConfig,
    /// Equivalence-checking configuration.
    pub eqcheck: looprag_eqcheck::EqCheckConfig,
    /// Candidates whose estimated cost exceeds `orig_cost * slow_factor`
    /// count as inefficient failures (the paper's 120 s wall limit).
    pub slow_factor: f64,
    /// When true, run only step 1 with no feedback of any kind — the
    /// base-LLM prompting arm of Table 2.
    pub single_shot: bool,
    /// Per-kernel execution budget. The default is a virtual-cost limit
    /// (every model call and candidate test charges one unit), which
    /// mirrors the paper's per-kernel generation time limits while
    /// keeping outcomes reproducible regardless of machine load or
    /// thread count; a wall-clock policy is available for deployments
    /// that want the literal limit.
    pub budget: BudgetPolicy,
    /// Worker-pool size for the parallel stages. 0 = auto: the
    /// `LOOPRAG_THREADS` environment variable, falling back to the
    /// machine's available parallelism.
    pub threads: usize,
    /// Feedback indexing: when true, [`LoopRag::ingest_outcome`] mines
    /// each kernel's verified winning candidate back into the knowledge
    /// base as an original → optimized demonstration, so campaigns
    /// self-improve (see `looprag_bench`'s feedback campaign driver).
    /// Off by default, which keeps fixed-seed outcomes bit-identical to
    /// a fixed-corpus run.
    pub feedback: bool,
    /// Hybrid LLM+search mode: when set, the legality-guided beam
    /// search of `looprag_search` runs on the target and its winner
    /// joins the step-1 candidate batch *before* differential testing,
    /// competing with the LLM's candidates on equal terms (and, under
    /// [`LoopRagConfig::feedback`], being mined into the knowledge base
    /// when it wins). The fixed-seed LLM stream is untouched, so with
    /// the default `None` every outcome is byte-identical to a
    /// search-free run. With `k = 0` this becomes the search-only
    /// scenario arm: no model calls, only the search winner is tested.
    pub search: Option<SearchConfig>,
    /// Learned reranker for the hybrid search arm: when set, the beam
    /// search injected by [`LoopRagConfig::search`] scores, reorders
    /// and prunes each node's step grid with this model before paying
    /// for legality checks and cost estimates (see `looprag_rank`).
    /// Ignored when `search` is `None`. The default `None` keeps every
    /// fixed-seed outcome byte-identical to a ranker-free build.
    pub rank: Option<looprag_rank::RankConfig>,
}

impl LoopRagConfig {
    /// Default configuration over a given profile.
    pub fn new(profile: LlmProfile) -> Self {
        LoopRagConfig {
            seed: 0x100B_4A6D,
            k: 7,
            retrieval: RetrievalMode::LoopAware,
            top_n: 10,
            demos: 3,
            profile,
            machine: MachineConfig::gcc(),
            eqcheck: looprag_eqcheck::EqCheckConfig::default(),
            slow_factor: 50.0,
            single_shot: false,
            budget: BudgetPolicy::default_virtual(),
            threads: 0,
            feedback: false,
            search: None,
            rank: None,
        }
    }

    /// A canonical fingerprint of every outcome-relevant field — the
    /// "arm/config" component of the serve layer's verified-winner memo
    /// key. Two configs with equal fingerprints produce bit-identical
    /// outcomes for the same kernel over the same knowledge-base state.
    ///
    /// The pool size is deliberately **excluded**: outcomes are
    /// bit-identical at any `threads` (and any
    /// [`SearchConfig::threads`]), so a memo entry computed at one pool
    /// size must hit at another.
    pub fn fingerprint(&self) -> String {
        // Exhaustive destructuring: adding a field without deciding
        // whether it belongs in the fingerprint is a compile error.
        let LoopRagConfig {
            seed,
            k,
            retrieval,
            top_n,
            demos,
            profile,
            machine,
            eqcheck,
            slow_factor,
            single_shot,
            budget,
            threads: _, // no effect on outcomes, by the determinism contract
            feedback,
            search,
            rank,
        } = self;
        let budget = match budget {
            BudgetPolicy::Unlimited => "unlimited".to_string(),
            BudgetPolicy::VirtualCost { limit } => format!("vc{limit}"),
            BudgetPolicy::WallClock { limit } => format!("wc{}ns", limit.as_nanos()),
        };
        let search = match search {
            None => "none".to_string(),
            Some(s) => s.fingerprint(),
        };
        // Appended only when set, so ranker-free fingerprints — and the
        // serve memo keys derived from them — are byte-identical to
        // builds that predate the reranker.
        let rank = match rank {
            None => String::new(),
            Some(r) => format!("|{}", r.fingerprint()),
        };
        format!(
            "cfg:s{seed}|k{k}|r{retrieval:?}|n{top_n}|d{demos}|sf{:016x}|ss{single_shot}|b{budget}|fb{feedback}|{}|{}|{}|{search}{rank}",
            slow_factor.to_bits(),
            profile.fingerprint(),
            machine.fingerprint(),
            eqcheck.fingerprint(),
        )
    }
}

/// One candidate's journey through the pipeline.
#[derive(Debug, Clone)]
pub struct CandidateReport {
    /// Which round produced it (1 = step 1 batch, 3 = step 3 batch).
    pub round: u8,
    /// Whether it compiled (possibly after repair feedback).
    pub compiled: bool,
    /// Whether the compile succeeded only after feedback repair.
    pub repaired: bool,
    /// True for the beam-search winner injected by the hybrid arm
    /// ([`LoopRagConfig::search`]); always false for LLM candidates.
    pub from_search: bool,
    /// Testing verdict (`None` when it never compiled).
    pub verdict: Option<TestVerdict>,
    /// Estimated speedup over the original (0 when failed).
    pub speedup: f64,
}

impl CandidateReport {
    /// A candidate that never compiled (parse failure after any repair,
    /// or skipped because the budget ran out before generation).
    pub fn failed(round: u8) -> Self {
        CandidateReport {
            round,
            compiled: false,
            repaired: false,
            from_search: false,
            verdict: None,
            speedup: 0.0,
        }
    }

    /// A candidate that compiled, possibly only after repair feedback;
    /// not yet tested.
    pub fn compiled(round: u8, repaired: bool) -> Self {
        CandidateReport {
            round,
            compiled: true,
            repaired,
            from_search: false,
            verdict: None,
            speedup: 0.0,
        }
    }

    /// The hybrid arm's injected beam-search winner, joining the step-1
    /// batch before differential testing.
    pub fn search_winner() -> Self {
        CandidateReport {
            round: 1,
            compiled: true,
            repaired: false,
            from_search: true,
            verdict: None,
            speedup: 0.0,
        }
    }
}

/// Stage-1 output: one candidate slot's vetted emission. Generation
/// must parse every text anyway (to decide whether to send repair
/// feedback), so the parse is carried forward instead of being redone:
/// `None` means the slot was skipped over budget or failed to compile
/// even after repair.
#[derive(Debug, Clone)]
struct GeneratedCandidate {
    /// The compile check succeeded only after the repair exchange.
    repaired: bool,
    /// The parse of the model's final text.
    program: Option<Program>,
}

/// Stage-1 value: one round's worth of model emissions.
#[derive(Debug, Clone)]
struct GeneratedBatch {
    round: u8,
    items: Vec<GeneratedCandidate>,
}

/// Stage-2 value: per-candidate reports plus parsed programs, produced
/// by the parallel compile stage.
#[derive(Debug)]
struct CompiledBatch {
    items: Vec<(CandidateReport, Option<Program>)>,
}

/// Stage-3 value: the compiled batch with verdicts and speedups filled
/// in by the parallel test stage.
#[derive(Debug)]
struct TestedBatch {
    items: Vec<(CandidateReport, Option<Program>)>,
}

/// The pure ranking over a tested batch: the §4.3 testing-results and
/// performance-rankings feedback for step 3.
#[derive(Debug, Clone)]
struct Ranking {
    /// `(candidate index, code)` of passing candidates, fastest first.
    available: Vec<(usize, String)>,
    /// Indices of candidates that did not pass testing.
    failed: Vec<usize>,
}

fn rank_batch(batch: &TestedBatch) -> Ranking {
    let mut ranked: Vec<(usize, f64, String)> = batch
        .items
        .iter()
        .enumerate()
        .filter(|(_, (r, _))| r.verdict == Some(TestVerdict::Pass))
        .map(|(i, (r, p))| (i, r.speedup, print_program(p.as_ref().unwrap())))
        .collect();
    ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
    let failed = batch
        .items
        .iter()
        .enumerate()
        .filter(|(_, (r, _))| r.verdict != Some(TestVerdict::Pass))
        .map(|(i, _)| i)
        .collect();
    Ranking {
        available: ranked.into_iter().map(|(i, _, t)| (i, t)).collect(),
        failed,
    }
}

/// The fastest passing candidate of a slice, if any.
fn best_of(items: &[(CandidateReport, Option<Program>)]) -> (bool, f64, Option<Program>) {
    let best = items
        .iter()
        .filter(|(r, _)| r.verdict == Some(TestVerdict::Pass))
        .max_by(|a, b| {
            a.0.speedup
                .partial_cmp(&b.0.speedup)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
    match best {
        Some((r, p)) => (true, r.speedup, p.clone()),
        None => (false, 0.0, None),
    }
}

/// Pass/fail state of the pipeline after each step, for Table 7.
#[derive(Debug, Clone, Default)]
pub struct StepTrace {
    /// Passed using only step-1 candidates that compiled first-try.
    pub pass_step1: bool,
    /// Passed after the first compile-repair round.
    pub pass_step2: bool,
    /// Passed using only step-3 candidates that compiled first-try.
    pub pass_step3: bool,
    /// Passed using step-3 candidates including compile-repaired ones
    /// (isolates the second compile-feedback round).
    pub pass_step3_repaired: bool,
    /// Passed after the second compile-repair round (any candidate).
    pub pass_step4: bool,
    /// Best speedup among step-2 survivors.
    pub best_speedup_step2: f64,
    /// Best speedup among all survivors at step 4.
    pub best_speedup_step4: f64,
}

/// Final outcome for one kernel.
#[derive(Debug, Clone)]
pub struct OptimizationOutcome {
    /// Kernel name.
    pub name: String,
    /// True when at least one candidate passed testing (pass@k).
    pub passed: bool,
    /// The fastest passing candidate.
    pub best: Option<Program>,
    /// Estimated speedup of the best candidate (0 when none passed).
    pub speedup: f64,
    /// Per-candidate reports.
    pub candidates: Vec<CandidateReport>,
    /// Per-step trace for the feedback ablation.
    pub steps: StepTrace,
    /// Names of the demonstrations used.
    pub demo_ids: Vec<usize>,
    /// Simulated-LLM stream advances this run consumed (generation and
    /// repair calls). The serve layer's memo-hit responses report 0 here
    /// — the proof that a hit never touched the model.
    pub llm_calls: u64,
    /// Beam-search node expansions this run consumed (0 unless the
    /// hybrid arm ran). Likewise 0 on a serve memo hit.
    pub search_expansions: u64,
}

/// What the sequential budget pre-pass decided for one candidate before
/// the test stage fans out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TestPlan {
    /// Nothing to test (never compiled).
    NoProgram,
    /// The budget ran out; score as an execution timeout untested.
    OverBudget,
    /// Run differential testing and cost estimation on the pool.
    Test,
}

/// Stage-0 value: the retrieval stage's outcome — the sampled
/// demonstrations feeding prompt construction, plus their dataset ids
/// for the outcome report.
#[derive(Debug, Clone)]
struct RetrievedDemos {
    demos: Vec<Demonstration>,
    ids: Vec<usize>,
}

/// The LOOPRAG optimizer: dataset, knowledge base and configuration.
pub struct LoopRag {
    config: LoopRagConfig,
    dataset: Dataset,
    kb: KnowledgeBase,
    /// Example id -> index into `dataset.examples`, so demonstration
    /// lookup is O(1) instead of a linear scan per retrieved id.
    example_index: std::collections::HashMap<usize, usize>,
    /// Next free record id for mined feedback pairs.
    next_id: usize,
}

impl LoopRag {
    /// Builds the optimizer over a demonstration dataset.
    pub fn new(config: LoopRagConfig, dataset: Dataset) -> Self {
        let programs: Vec<(usize, Program)> = dataset
            .examples
            .iter()
            .map(|e| (e.id, e.program()))
            .collect();
        let kb = KnowledgeBase::build(programs.iter().map(|(i, p)| (*i, p)));
        let mut example_index = std::collections::HashMap::new();
        for (pos, e) in dataset.examples.iter().enumerate() {
            // First occurrence wins, matching the linear scan this
            // index replaces.
            example_index.entry(e.id).or_insert(pos);
        }
        let next_id = dataset.next_id();
        LoopRag {
            config,
            dataset,
            kb,
            example_index,
            next_id,
        }
    }

    /// Access to the configuration.
    pub fn config(&self) -> &LoopRagConfig {
        &self.config
    }

    /// Access to the (possibly feedback-enriched) dataset.
    pub fn dataset(&self) -> &Dataset {
        &self.dataset
    }

    /// Number of examples in the knowledge base (grows under feedback
    /// indexing).
    pub fn knowledge_len(&self) -> usize {
        self.kb.len()
    }

    /// The knowledge base's running content fingerprint (see
    /// [`KnowledgeBase::state_fingerprint`]): two optimizers with equal
    /// config fingerprints and equal KB fingerprints produce
    /// bit-identical outcomes for the same kernel. The serve layer
    /// records this in snapshots and verifies it on restore.
    pub fn kb_fingerprint(&self) -> u64 {
        self.kb.state_fingerprint()
    }

    fn target_seed(&self, name: &str) -> u64 {
        looprag_runtime::fnv64(name.bytes()) ^ self.config.seed
    }

    /// Stage 0: retrieves the top-N examples from the knowledge base
    /// (sharded over the worker pool) and samples the prompt
    /// demonstrations. The sample draw is part of the sequential seed
    /// contract; the ranking itself is bit-identical at any pool size.
    fn retrieve_stage(&self, target: &Program, rng: &mut StdRng, threads: usize) -> RetrievedDemos {
        if self.dataset.examples.is_empty() || self.config.demos == 0 {
            return RetrievedDemos {
                demos: Vec::new(),
                ids: Vec::new(),
            };
        }
        let hits =
            self.kb
                .query_with_threads(target, self.config.retrieval, self.config.top_n, threads);
        let mut ids: Vec<usize> = hits.iter().map(|(id, _)| *id).collect();
        // Random sample of `demos` from the top-N, as in §5.
        let mut chosen = Vec::new();
        while chosen.len() < self.config.demos && !ids.is_empty() {
            let k = rng.gen_range(0..ids.len());
            chosen.push(ids.remove(k));
        }
        let demos = chosen
            .iter()
            .filter_map(|id| {
                self.example_index
                    .get(id)
                    .map(|&pos| &self.dataset.examples[pos])
            })
            .map(|e| Demonstration {
                source: e.source.clone(),
                optimized: e.optimized.clone(),
            })
            .collect();
        RetrievedDemos { demos, ids: chosen }
    }

    /// The feedback-indexing commit point: appends `outcome`'s verified
    /// winning candidate to the dataset and knowledge base as a mined
    /// original → optimized demonstration. A no-op unless
    /// [`LoopRagConfig::feedback`] is on and the outcome carries a
    /// passing candidate that actually improved on the original.
    ///
    /// Call this **between** kernels, sequentially (the campaign driver
    /// in `looprag_bench` does): insertion order is part of the
    /// knowledge base's determinism contract.
    ///
    /// Returns whether a record was ingested.
    pub fn ingest_outcome(&mut self, target: &Program, outcome: &OptimizationOutcome) -> bool {
        if !self.config.feedback || !outcome.passed || outcome.speedup <= 1.0 {
            return false;
        }
        let Some(best) = &outcome.best else {
            return false;
        };
        let id = self.next_id;
        self.next_id += 1;
        self.kb.insert(id, target);
        self.example_index.insert(id, self.dataset.examples.len());
        self.dataset.examples.push(ExampleRecord {
            id,
            source: print_program(target),
            optimized: print_program(best),
            recipe: vec![format!("mined:{}", outcome.name)],
            families: Vec::new(),
            stats: property_stats(target),
            provenance: Provenance::Mined,
        });
        true
    }

    /// Stage 1: generates a batch of K candidates with one compile-repair
    /// round. Strictly sequential — the model's RNG stream makes call
    /// order part of the seed contract — and the only stage that charges
    /// generation budget.
    fn generate_batch(
        &self,
        model: &mut SimLlm,
        base_prompt: &Prompt,
        round: u8,
        target_text: &str,
        budget: &Budget,
        rec: Option<&Recorder>,
    ) -> GeneratedBatch {
        let _span = looprag_trace::span(rec, "stage.generate", || {
            format!("round={round} k={}", self.config.k)
        });
        let mut items = Vec::with_capacity(self.config.k);
        for slot in 0..self.config.k {
            let item = if budget.exhausted() {
                GeneratedCandidate {
                    repaired: false,
                    program: None,
                }
            } else {
                budget.charge(GEN_COST);
                let text = model.generate(base_prompt);
                match compile(&text, "candidate") {
                    Ok(p) => GeneratedCandidate {
                        repaired: false,
                        program: Some(p),
                    },
                    Err(_) if self.config.single_shot => GeneratedCandidate {
                        repaired: false,
                        program: None,
                    },
                    Err(err) => {
                        // Compilation-results feedback (steps 2 and 4).
                        budget.charge(GEN_COST);
                        let repair = Prompt::compile_repair(target_text, text, err.to_string());
                        let retry = model.generate(&repair);
                        let program = compile(&retry, "candidate").ok();
                        GeneratedCandidate {
                            repaired: program.is_some(),
                            program,
                        }
                    }
                }
            };
            looprag_trace::instant(rec, "gen.candidate", || {
                format!(
                    "round={round} slot={slot} compiled={} repaired={}",
                    item.program.is_some(),
                    item.repaired
                )
            });
            items.push(item);
        }
        GeneratedBatch { round, items }
    }

    /// Stage 2: turns the vetted emissions into per-candidate reports
    /// plus programs. Pure per item, so thread count cannot affect the
    /// result.
    fn compile_batch(
        &self,
        generated: GeneratedBatch,
        threads: usize,
        rec: Option<&Recorder>,
    ) -> CompiledBatch {
        let _span = looprag_trace::span(rec, "stage.compile", || {
            format!("round={} items={}", generated.round, generated.items.len())
        });
        let round = generated.round;
        let items = par_map(threads, &generated.items, |_, g| match &g.program {
            Some(p) => (
                CandidateReport::compiled(round, g.repaired),
                Some(p.clone()),
            ),
            None => (CandidateReport::failed(round), None),
        });
        CompiledBatch { items }
    }

    /// Stage 3: differential testing and cost estimation — the dominant
    /// cost — on the worker pool. Cost estimates go through the shared
    /// `CostEngine` (via [`candidate_speedup`]), so duplicate candidates
    /// across batches, rounds and campaign arms are cache hits. Budget
    /// decisions happen sequentially in submission order *before* the
    /// fan-out, so which candidates get tested is identical at any
    /// thread count.
    fn test_batch(
        &self,
        prepared: &PreparedTarget,
        orig_cost: &CostReport,
        batch: CompiledBatch,
        budget: &Budget,
        threads: usize,
        rec: Option<&Recorder>,
    ) -> TestedBatch {
        let _span = looprag_trace::span(rec, "stage.test", || {
            format!(
                "round={} items={}",
                batch.items.first().map_or(0, |(r, _)| r.round),
                batch.items.len()
            )
        });
        let plans: Vec<TestPlan> = batch
            .items
            .iter()
            .map(|(_, prog)| {
                if prog.is_none() {
                    TestPlan::NoProgram
                } else if budget.exhausted() {
                    TestPlan::OverBudget
                } else {
                    budget.charge(TEST_COST);
                    TestPlan::Test
                }
            })
            .collect();
        let work: Vec<(&Option<Program>, TestPlan)> =
            batch.items.iter().map(|(_, p)| p).zip(plans).collect();
        let cfg = &self.config;
        // Under the (nondeterministic, opt-in) wall-clock policy the
        // deadline is also re-checked per candidate mid-flight, so the
        // overshoot stays bounded by the in-progress tests rather than
        // a whole batch. The deterministic policies return `None` and
        // are unaffected.
        let deadline = budget.deadline();
        // Per-candidate trace events go to a child recorder inside the
        // closure and are absorbed in submission order below, so the
        // logical stream is identical at any pool size (the same merge
        // discipline as `par_map` itself).
        let results = par_map(threads, &work, |i, (prog, plan)| {
            let child = looprag_trace::local(rec);
            let out = match (plan, prog) {
                (TestPlan::Test, Some(p)) => {
                    if deadline.is_some_and(|d| std::time::Instant::now() > d) {
                        Some((TestVerdict::Timeout, 0.0))
                    } else {
                        let _s = looprag_trace::span(child.as_ref(), "test.candidate", || {
                            format!("slot={i}")
                        });
                        let verdict = prepared.differential_test(p, &cfg.eqcheck);
                        let speedup = if verdict == TestVerdict::Pass {
                            // Slower-than-threshold candidates come
                            // back as 0: passing but inefficient.
                            candidate_speedup(orig_cost, p, &cfg.machine, cfg.slow_factor)
                        } else {
                            0.0
                        };
                        looprag_trace::instant(child.as_ref(), "test.verdict", || {
                            let tag = match &verdict {
                                TestVerdict::Pass => "pass",
                                TestVerdict::IncorrectAnswer { .. } => "incorrect",
                                TestVerdict::RuntimeError { .. } => "runtime_error",
                                TestVerdict::Timeout => "timeout",
                            };
                            format!("slot={i} verdict={tag} speedup={speedup}")
                        });
                        Some((verdict, speedup))
                    }
                }
                (TestPlan::OverBudget, Some(_)) => {
                    looprag_trace::instant(child.as_ref(), "test.over_budget", || {
                        format!("slot={i}")
                    });
                    Some((TestVerdict::Timeout, 0.0))
                }
                _ => None,
            };
            (out, child)
        });
        let (verdicts, children): (Vec<_>, Vec<_>) = results.into_iter().unzip();
        if let Some(r) = rec {
            r.absorb(children.into_iter().flatten());
        }
        let items = batch
            .items
            .into_iter()
            .zip(verdicts)
            .map(|((mut report, prog), v)| {
                if let Some((verdict, speedup)) = v {
                    report.speedup = speedup;
                    report.verdict = Some(verdict);
                }
                (report, prog)
            })
            .collect();
        TestedBatch { items }
    }

    /// Runs the full four-step pipeline on one kernel.
    pub fn optimize(&self, name: &str, target: &Program) -> OptimizationOutcome {
        self.optimize_with_threads(name, target, self.config.threads)
    }

    /// Runs the pipeline with an explicit worker-pool size for the
    /// parallel stages (0 = auto), overriding [`LoopRagConfig::threads`].
    /// Outcomes are bit-identical at any pool size.
    pub fn optimize_with_threads(
        &self,
        name: &str,
        target: &Program,
        threads: usize,
    ) -> OptimizationOutcome {
        self.optimize_traced(name, target, threads, None)
    }

    /// [`LoopRag::optimize_with_threads`] with an optional trace
    /// recorder capturing stage spans, per-candidate generation and
    /// testing events, and the hybrid search's expansion stream. With
    /// `rec: None` (the production default) not a single trace
    /// allocation happens and outcomes are byte-identical to the
    /// untraced entry points; with a recorder, the logical event stream
    /// is bit-identical at any pool size because parallel stages record
    /// per item into child recorders absorbed in submission order.
    pub fn optimize_traced(
        &self,
        name: &str,
        target: &Program,
        threads: usize,
        rec: Option<&Recorder>,
    ) -> OptimizationOutcome {
        let _span = looprag_trace::span(rec, "pipeline.optimize", || name.to_string());
        let budget = Budget::new(self.config.budget.clone());
        let threads = resolve_threads(threads);
        let mut rng = StdRng::seed_from_u64(self.target_seed(name));
        let mut model = SimLlm::new(self.config.profile.clone(), rng.gen());
        let target_text = print_program(target);
        // Per-kernel preparation, built once and shared by every
        // candidate: the seed-input suite (nothing runs to build it),
        // the original scaled, the ground-truth output arrays for all
        // suite inputs from one batched sweep (candidates stop
        // re-running the original), and the baseline cost for
        // speedup ranking (engine-backed: a repeat kernel, or one a
        // search arm already scored, is a cache hit). Each candidate
        // verdict is then a batched lane sweep against the cached
        // expected outputs.
        let (prepared, orig_cost) = {
            let _s = looprag_trace::span(rec, "stage.prepare", String::new);
            let prepared = PreparedTarget::prepare(target, &self.config.eqcheck);
            let orig_cost = estimate_cost(target, &self.config.machine)
                .unwrap_or_else(|_| CostReport::unreachable());
            (prepared, orig_cost)
        };

        // Step 1: retrieval stage + first batch.
        let retrieved = {
            let _s = looprag_trace::span(rec, "stage.retrieve", String::new);
            self.retrieve_stage(target, &mut rng, threads)
        };
        let RetrievedDemos {
            demos,
            ids: demo_ids,
        } = retrieved;
        let prompt1 = if demos.is_empty() {
            Prompt::base(target_text.clone())
        } else {
            Prompt::with_demonstrations(target_text.clone(), demos)
        };
        looprag_trace::instant(rec, "retrieve.demos", || format!("ids={demo_ids:?}"));
        let gen1 = self.generate_batch(&mut model, &prompt1, 1, &target_text, &budget, rec);
        let mut compiled1 = self.compile_batch(gen1, threads, rec);

        // Hybrid arm: the legality-guided beam search runs alongside
        // step 1 and its winner joins the batch before differential
        // testing. Search consumes no model calls and no RNG, so the
        // fixed-seed LLM stream is untouched; with `search: None`
        // (default) this block is a no-op and outcomes stay
        // byte-identical to a search-free build.
        let mut search_expansions = 0u64;
        if let Some(base) = &self.config.search {
            let _s = looprag_trace::span(rec, "stage.search", || name.to_string());
            let mut scfg = base.clone();
            scfg.threads = threads;
            // The pipeline's machine model is authoritative: the winner
            // competes in (and is ranked by) this pipeline, so search
            // must score under the same model or its "winner" could be
            // optimized for a different machine.
            scfg.machine = self.config.machine.clone();
            scfg.rank = self.config.rank.clone();
            let found =
                looprag_search::search_with_engine_traced(target, &scfg, CostEngine::global(), rec);
            search_expansions = found.stats.nodes_expanded as u64;
            if !found.recipe.steps.is_empty() {
                compiled1
                    .items
                    .push((CandidateReport::search_winner(), Some(found.program)));
            }
        }

        // Step 2: test the (possibly repaired) batch and rank.
        let batch1 = self.test_batch(&prepared, &orig_cost, compiled1, &budget, threads, rec);
        let mut steps = StepTrace {
            // The step-1 column isolates first-try *LLM* compiles, so
            // the injected search winner does not count toward it.
            pass_step1: batch1.items.iter().any(|(r, _)| {
                r.compiled && !r.repaired && !r.from_search && r.verdict == Some(TestVerdict::Pass)
            }),
            pass_step2: batch1
                .items
                .iter()
                .any(|(r, _)| r.verdict == Some(TestVerdict::Pass)),
            best_speedup_step2: batch1
                .items
                .iter()
                .filter(|(r, _)| r.verdict == Some(TestVerdict::Pass))
                .map(|(r, _)| r.speedup)
                .fold(0.0, f64::max),
            ..StepTrace::default()
        };

        let all = if self.config.single_shot {
            steps.pass_step3 = steps.pass_step1;
            steps.pass_step3_repaired = steps.pass_step1;
            steps.pass_step4 = steps.pass_step2;
            batch1.items
        } else {
            // Step 3: testing results + performance rankings feedback.
            let ranking = rank_batch(&batch1);
            let prompt3 =
                Prompt::test_and_rank(target_text.clone(), ranking.available, ranking.failed);
            let gen3 = self.generate_batch(&mut model, &prompt3, 3, &target_text, &budget, rec);
            let compiled3 = self.compile_batch(gen3, threads, rec);

            // Step 4: test the second batch; select the fastest overall.
            let batch3 = self.test_batch(&prepared, &orig_cost, compiled3, &budget, threads, rec);
            let batch3_pass = |r: &CandidateReport| r.verdict == Some(TestVerdict::Pass);
            steps.pass_step3 = batch3
                .items
                .iter()
                .any(|(r, _)| r.compiled && !r.repaired && batch3_pass(r));
            steps.pass_step3_repaired = batch3.items.iter().any(|(r, _)| batch3_pass(r));
            steps.pass_step4 = steps.pass_step2 || steps.pass_step3_repaired;
            let mut all = batch1.items;
            all.extend(batch3.items);
            all
        };
        let (passed, speedup, best_prog) = best_of(&all);
        steps.best_speedup_step4 = speedup;
        let calls = model.calls();
        looprag_trace::value(rec, "pipeline.llm_calls", calls as i64, String::new);
        looprag_trace::value(
            rec,
            "pipeline.search_expansions",
            search_expansions as i64,
            String::new,
        );

        OptimizationOutcome {
            name: name.to_string(),
            passed,
            best: best_prog,
            speedup,
            candidates: all.into_iter().map(|(r, _)| r).collect(),
            steps,
            demo_ids,
            llm_calls: calls,
            search_expansions,
        }
    }
}

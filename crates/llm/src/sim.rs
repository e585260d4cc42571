//! The simulated LLM: a deterministic, seeded planner whose behaviour is
//! governed by an [`LlmProfile`].
//!
//! Given a prompt it parses the target, decides which transformation
//! families to attempt (base repertoire, widened by analyzing
//! demonstrations), and applies them through the *same structural
//! primitives a correct optimizer uses* — but it only verifies legality
//! with probability `legality_awareness`. Unverified applications of
//! dependence-sensitive transformations produce genuinely wrong programs
//! that only the downstream testing pipeline can catch, which is exactly
//! the failure mode the paper's Figure 1 documents for GPT-4.

use crate::detect::{demo_tile_size, detect_families};
use crate::profile::LlmProfile;
use crate::prompt::{Feedback, Prompt};
use looprag_dependence::{analyze_for, Purpose};
use looprag_ir::{
    element_stride, loop_paths, node_at, parse_program, print_program, Bound, Node, NodePath,
    Program,
};
use looprag_retrieval::{extract_features, weighted_score, LaWeights};
use looprag_transform::{perfect_band, semantics_preserving, Family, OracleConfig, Step};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::sync::OnceLock;

/// Process-wide count of simulated-LLM stream advances (one per
/// [`LanguageModel::generate`] call on any [`SimLlm`] instance),
/// registered as `llm.stream_advances` in the
/// [`looprag_trace::metrics`] registry.
///
/// This exists so callers can *prove* a code path never touched the
/// model: snapshot the registry before and after and assert the
/// counter's delta is zero. The serve layer's verified-winner memo uses
/// exactly that assertion.
fn stream_advances() -> &'static looprag_trace::Counter {
    static C: OnceLock<looprag_trace::Counter> = OnceLock::new();
    C.get_or_init(|| looprag_trace::metrics().counter("llm.stream_advances"))
}

/// One remembered generation attempt.
#[derive(Debug, Clone)]
struct Attempt {
    clean_text: String,
    emitted: String,
}

/// A language model that can answer prompts with code.
pub trait LanguageModel {
    /// Model name (for reports).
    fn name(&self) -> &str;
    /// Produces one candidate optimized code for the prompt.
    fn generate(&mut self, prompt: &Prompt) -> String;
}

/// The simulated LLM.
#[derive(Debug, Clone)]
pub struct SimLlm {
    profile: LlmProfile,
    rng: StdRng,
    attempts: Vec<Attempt>,
    repertoire: HashMap<Family, f64>,
    demo_tile: Option<i64>,
    careful: bool,
    confusion: Option<bool>,
    saw_demos: bool,
    calls: u64,
}

impl SimLlm {
    /// Creates a model with the given profile and seed. Conversations are
    /// a pure function of `(profile, seed, prompts)`.
    pub fn new(profile: LlmProfile, seed: u64) -> Self {
        let repertoire = Family::all()
            .into_iter()
            .map(|f| (f, profile.skill(f)))
            .collect();
        SimLlm {
            profile,
            rng: StdRng::seed_from_u64(seed),
            attempts: Vec::new(),
            repertoire,
            demo_tile: None,
            careful: false,
            confusion: None,
            saw_demos: false,
            calls: 0,
        }
    }

    /// How many times this instance's stream has advanced (one per
    /// [`LanguageModel::generate`] call).
    pub fn calls(&self) -> u64 {
        self.calls
    }

    fn prob(&self, f: Family) -> f64 {
        self.repertoire.get(&f).copied().unwrap_or(0.0)
    }

    fn bump(&mut self, f: Family, to: f64) {
        let e = self.repertoire.entry(f).or_insert(0.0);
        *e = e.max(to);
    }

    fn absorb_demonstrations(&mut self, target: &Program, prompt: &Prompt) {
        self.saw_demos = true;
        let tf = extract_features(target);
        let weights = LaWeights::default();
        for (k, d) in prompt.demonstrations.iter().enumerate() {
            let Ok(src) = parse_program(&d.source, &format!("demo{k}")) else {
                continue;
            };
            let Ok(opt) = parse_program(&d.optimized, &format!("demo{k}o")) else {
                continue;
            };
            // Relevance: how similar the demo is to the target, through
            // the model's own reading of the loop structure.
            let score = weighted_score(&tf, &extract_features(&src), &weights);
            let relevance = 1.0 / (1.0 + (-score).exp()); // sigmoid
            for fam in detect_families(&src, &opt) {
                let base = self.profile.skill(fam);
                let p = (base + self.profile.icl_gain * relevance).min(0.97);
                self.bump(fam, p);
            }
            if let Some(ts) = demo_tile_size(&opt) {
                self.demo_tile = Some(ts);
            }
        }
    }

    fn learn_from_ranking(&mut self, available: &[(usize, String)]) {
        // Reading the ranked survivors teaches what worked: tiling and
        // parallelization marks in the best candidates raise their
        // probabilities for the next round.
        if let Some((_, best)) = available.first() {
            if best.contains("floord") {
                self.bump(Family::Tiling, 0.95);
            }
            if best.contains("#pragma omp") {
                self.bump(Family::Parallelization, 0.95);
            }
        }
        self.careful = true;
    }

    fn aware(&mut self) -> bool {
        self.careful || self.rng.gen_bool(self.profile.legality_awareness)
    }

    fn mini_oracle(a: &Program, b: &Program) -> bool {
        semantics_preserving(
            a,
            b,
            &OracleConfig {
                param_cap: 6,
                rel_eps: 1e-6,
                stmt_budget: 2_000_000,
                extra_inits: Vec::new(),
            },
        )
    }

    /// Complexity score of a kernel, driving session-level confusion:
    /// many statements, cross-iteration scalars and deep nests defeat
    /// real LLMs *consistently*, not per-sample — which is why the
    /// paper's pass@k sits well below 100% on PolyBench while staying
    /// high on TSVC's simple loops.
    fn complexity(target: &Program) -> f64 {
        let scalars = target.arrays.iter().filter(|a| a.dims.is_empty()).count() as f64;
        target.num_statements() as f64 + 2.5 * scalars + target.max_depth() as f64
    }

    fn confused(&mut self, target: &Program) -> bool {
        if let Some(c) = self.confusion {
            return c;
        }
        let score = Self::complexity(target);
        let p = 1.0 / (1.0 + (-(score - 13.0) / 3.0).exp());
        let c = self.rng.gen_bool(p.clamp(0.01, 0.95));
        self.confusion = Some(c);
        c
    }

    /// Plans one candidate program for `target`.
    fn plan(&mut self, target: &Program) -> Program {
        let confused = self.confused(target);
        let mut cur = target.clone();

        // Fusion (and shift-fusion) over every container.
        if self.rng.gen_bool(self.prob(Family::Fusion)) {
            loop {
                let mut fused = false;
                let mut containers: Vec<NodePath> = vec![Vec::new()];
                containers.extend(loop_paths(&cur.body));
                'c: for c in containers {
                    let len = if c.is_empty() {
                        cur.body.len()
                    } else {
                        match node_at(&cur.body, &c) {
                            Some(n) => n.children().len(),
                            None => continue,
                        }
                    };
                    for idx in 0..len.saturating_sub(1) {
                        let mut steps = vec![Step::Fuse {
                            container: c.clone(),
                            index: idx,
                        }];
                        if self.prob(Family::Shifting) > 0.05 {
                            steps.push(Step::ShiftFuse {
                                container: c.clone(),
                                index: idx,
                            });
                        }
                        for step in steps {
                            let Ok(next) = step.apply(&cur) else { continue };
                            if self.aware() && !Self::mini_oracle(&cur, &next) {
                                continue;
                            }
                            cur = next;
                            fused = true;
                            continue 'c;
                        }
                    }
                }
                if !fused {
                    break;
                }
            }
        }

        // Distribution.
        if self.rng.gen_bool(self.prob(Family::Distribution)) {
            let paths = loop_paths(&cur.body);
            for path in paths {
                let Some(Node::Loop(l)) = node_at(&cur.body, &path) else {
                    continue;
                };
                if l.body.len() < 2 {
                    continue;
                }
                let at = self.rng.gen_range(1..l.body.len());
                let step = Step::Distribute {
                    path: path.clone(),
                    at,
                };
                if let Ok(next) = step.apply(&cur) {
                    if !self.aware() || Self::mini_oracle(&cur, &next) {
                        cur = next;
                    }
                }
                break;
            }
        }

        // Interchange over perfect pairs.
        if self.rng.gen_bool(self.prob(Family::Interchange)) {
            for path in loop_paths(&cur.body) {
                let Ok(band) = perfect_band(&cur, &path, 2) else {
                    continue;
                };
                if band.len() != 2 {
                    continue;
                }
                let wanted = if self.rng.gen_bool(self.profile.param_insight) {
                    // Insightful: interchange only when the inner loop's
                    // accesses are strided and the outer's are unit.
                    stride_gain(&cur, &path, &band[0].iter, &band[1].iter)
                } else {
                    self.rng.gen_bool(0.5)
                };
                if !wanted {
                    continue;
                }
                let step = Step::Interchange { path: path.clone() };
                let Ok(next) = step.apply(&cur) else { continue };
                if self.aware() {
                    let deps = analyze_for(&cur, Purpose::Propose);
                    let mut inner = path.clone();
                    inner.push(0);
                    if !deps.is_interchange_legal(&path, &inner) {
                        continue;
                    }
                }
                cur = next;
                break;
            }
        }

        // Tiling of maximal perfect bands.
        if self.rng.gen_bool(self.prob(Family::Tiling)) {
            let size = if self.rng.gen_bool(self.profile.param_insight) {
                self.demo_tile.unwrap_or(32)
            } else {
                // Unprofitable guesses: too small (header overhead) or
                // too large (no locality gain).
                [4i64, 100][self.rng.gen_range(0..2usize)]
            };
            let deps = analyze_for(&cur, Purpose::Propose);
            loop {
                let mut tiled = false;
                for path in loop_paths(&cur.body) {
                    let Some(Node::Loop(l)) = node_at(&cur.body, &path) else {
                        continue;
                    };
                    if l.iter.starts_with('t') && l.iter[1..].parse::<u32>().is_ok() {
                        continue;
                    }
                    if !matches!(l.lb, Bound::Affine(_)) || !matches!(l.ub, Bound::Affine(_)) {
                        continue;
                    }
                    let Ok(band) = perfect_band(&cur, &path, 3) else {
                        continue;
                    };
                    let mut depth = band.len();
                    if self.aware() {
                        while depth > 1 && !deps.is_band_permutable(&path, depth) {
                            depth -= 1;
                        }
                    }
                    let step = Step::Tile {
                        path: path.clone(),
                        depth,
                        size,
                    };
                    if let Ok(next) = step.apply(&cur) {
                        cur = next;
                        tiled = true;
                        break;
                    }
                }
                if !tiled {
                    break;
                }
            }
        }

        // Scalarization of reductions.
        if self.rng.gen_bool(self.prob(Family::Scalarization)) {
            for path in loop_paths(&cur.body) {
                let step = Step::Scalarize { path: path.clone() };
                if let Ok(next) = step.apply(&cur) {
                    cur = next;
                    break;
                }
            }
        }

        // Parallelization. A model that has never seen a correct OpenMP
        // demonstration frequently botches the pragma (missing private/
        // reduction clauses), which corrupts semantics even on a legal
        // loop — the dominant real-world failure mode behind the paper's
        // ~1.6x base-LLM averages despite occasional parallel wins.
        let mut botched_pragma = false;
        if self.rng.gen_bool(self.prob(Family::Parallelization)) {
            if !self.saw_demos && !self.careful && self.rng.gen_bool(0.6) {
                botched_pragma = true;
            }
            if self.aware() {
                let deps = analyze_for(&cur, Purpose::Propose);
                let mut queue: Vec<NodePath> = (0..cur.body.len()).map(|i| vec![i]).collect();
                while let Some(path) = queue.pop() {
                    let Some(node) = node_at(&cur.body, &path) else {
                        continue;
                    };
                    if matches!(node, Node::Loop(_)) && deps.is_parallel_legal(&path) {
                        if let Ok(next) = (Step::Parallelize { path: path.clone() }).apply(&cur) {
                            cur = next;
                        }
                        continue;
                    }
                    for i in 0..node.children().len() {
                        let mut p = path.clone();
                        p.push(i);
                        queue.push(p);
                    }
                }
            } else {
                // Blindly mark a random loop parallel — base models place
                // pragmas without profitability or legality analysis, so
                // the mark often lands on an inner loop (fork/join
                // overhead) or an illegal one (caught by testing).
                let paths = loop_paths(&cur.body);
                if !paths.is_empty() {
                    let pick = paths[self.rng.gen_range(0..paths.len())].clone();
                    if let Ok(next) = (Step::Parallelize { path: pick }).apply(&cur) {
                        cur = next;
                    }
                }
            }
        }

        // Semantic slip: an off-by-one in a random subscript. A confused
        // session slips on nearly every candidate — complex kernels defeat
        // the model consistently, not per-sample.
        let mut slip_p = if self.careful {
            self.profile.semantic_slip * 0.3
        } else {
            self.profile.semantic_slip
        };
        if confused {
            // Confusion is a session-level property: essentially every
            // candidate of a confused session mangles the semantics.
            slip_p = 0.97;
        }
        if botched_pragma {
            slip_p = 1.0;
        }
        if self.rng.gen_bool(slip_p) {
            let n = cur.num_statements();
            if n > 0 {
                let victim = self.rng.gen_range(0..n);
                let delta = if self.rng.gen_bool(0.5) { 1 } else { -1 };
                let mut k = 0;
                for node in &mut cur.body {
                    node.for_each_stmt_mut(&mut |s| {
                        if k == victim {
                            if let Some(e) = s.lhs.indexes.first_mut() {
                                *e = e.clone() + delta;
                            } else {
                                // Scalar target: corrupt the value instead
                                // (dropped term / wrong constant).
                                s.rhs = looprag_ir::Expr::add(
                                    s.rhs.clone(),
                                    looprag_ir::Expr::Num(0.001 * delta as f64),
                                );
                            }
                        }
                        k += 1;
                    });
                }
            }
        }

        cur
    }

    fn corrupt_text(&mut self, text: &str) -> String {
        match self.rng.gen_range(0..3) {
            0 => {
                // Drop the last semicolon.
                match text.rfind(';') {
                    Some(pos) => {
                        let mut t = text.to_string();
                        t.remove(pos);
                        t
                    }
                    None => text.to_string(),
                }
            }
            1 => {
                // Reference an undeclared identifier.
                text.replacen("+ 1.0", "+ tmp_undeclared", 1).replacen(
                    "= ",
                    "= undeclared_var + ",
                    1,
                )
            }
            _ => {
                // Unbalance a brace.
                match text.rfind('}') {
                    Some(pos) => {
                        let mut t = text.to_string();
                        t.remove(pos);
                        t
                    }
                    None => text.to_string(),
                }
            }
        }
    }

    fn emit(&mut self, program: &Program) -> String {
        let clean = print_program(program);
        let slip_p = if self.careful {
            self.profile.syntax_slip * 0.3
        } else {
            self.profile.syntax_slip
        };
        let emitted = if self.rng.gen_bool(slip_p) {
            self.corrupt_text(&clean)
        } else {
            clean.clone()
        };
        self.attempts.push(Attempt {
            clean_text: clean,
            emitted: emitted.clone(),
        });
        emitted
    }
}

/// True when making `inner` innermost would improve unit-stride access
/// compared to the current order — a crude reading of spatial locality.
fn stride_gain(p: &Program, path: &NodePath, outer: &str, inner: &str) -> bool {
    let Some(node) = node_at(&p.body, path) else {
        return false;
    };
    let env = p.param_env();
    let mut outer_score = 0i64;
    let mut inner_score = 0i64;
    node.for_each_stmt(&mut |s| {
        let mut accs = s.reads();
        accs.push(s.lhs.clone());
        for a in accs {
            let Some(decl) = p.array(&a.array) else {
                continue;
            };
            let extents = decl.layout_extents(&env);
            for (name, score) in [(outer, &mut outer_score), (inner, &mut inner_score)] {
                *score += match extents
                    .as_ref()
                    .and_then(|ext| element_stride(&a, name, ext))
                {
                    Some(0) => 1,
                    Some(-1 | 1) => 2,
                    _ => -1,
                };
            }
        }
    });
    outer_score > inner_score
}

impl LanguageModel for SimLlm {
    fn name(&self) -> &str {
        &self.profile.name
    }

    fn generate(&mut self, prompt: &Prompt) -> String {
        self.calls += 1;
        stream_advances().inc();
        // Feedback handling first.
        match &prompt.feedback {
            Some(Feedback::Compile { last_code, .. }) => {
                let fixable = self
                    .attempts
                    .iter()
                    .rev()
                    .find(|a| &a.emitted == last_code)
                    .map(|a| a.clean_text.clone());
                if let Some(clean) = fixable {
                    if self.rng.gen_bool(self.profile.feedback_fix) {
                        self.attempts.push(Attempt {
                            clean_text: clean.clone(),
                            emitted: clean.clone(),
                        });
                        return clean;
                    }
                }
                // Could not repair: try a fresh plan below.
            }
            Some(Feedback::TestAndRank { available, .. }) => {
                self.learn_from_ranking(available);
            }
            None => {}
        }

        let Ok(target) = parse_program(&prompt.target, "target") else {
            // The model cannot make sense of the input; echo it back.
            return prompt.target.clone();
        };
        if prompt.feedback.is_none() && !prompt.demonstrations.is_empty() {
            self.absorb_demonstrations(&target, prompt);
        }
        let planned = self.plan(&target);
        self.emit(&planned)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prompt::Demonstration;
    use looprag_ir::compile;
    use looprag_polyopt::{optimize, PolyOptions};

    const GEMM: &str = "param N = 128;\narray C[N][N];\narray A[N][N];\narray B[N][N];\nout C;\n#pragma scop\nfor (i = 0; i <= N - 1; i++) for (j = 0; j <= N - 1; j++) for (k = 0; k <= N - 1; k++) C[i][j] += A[i][k] * B[k][j];\n#pragma endscop\n";

    fn demos_for(src: &str) -> Vec<Demonstration> {
        let p = compile(src, "demo").unwrap();
        let r = optimize(&p, &PolyOptions::default());
        vec![Demonstration {
            source: print_program(&p),
            optimized: print_program(&r.program),
        }]
    }

    #[test]
    fn generation_is_deterministic() {
        let prompt = Prompt::base(GEMM);
        let a = SimLlm::new(LlmProfile::gpt4(), 7).generate(&prompt);
        let b = SimLlm::new(LlmProfile::gpt4(), 7).generate(&prompt);
        assert_eq!(a, b);
    }

    #[test]
    fn demonstrations_teach_tiling() {
        // Without demos, 20 seeds of GPT-4 rarely tile; with a tiled gemm
        // demo, most do.
        let count_tiled = |with_demos: bool| {
            let mut n = 0;
            for seed in 0..20 {
                let mut m = SimLlm::new(LlmProfile::gpt4(), seed);
                let prompt = if with_demos {
                    Prompt::with_demonstrations(GEMM, demos_for(GEMM))
                } else {
                    Prompt::base(GEMM)
                };
                if m.generate(&prompt).contains("floord") {
                    n += 1;
                }
            }
            n
        };
        let base = count_tiled(false);
        let demo = count_tiled(true);
        assert!(
            demo >= base + 8,
            "demos should raise tiling sharply: base={base} demo={demo}"
        );
    }

    #[test]
    fn compile_feedback_repairs_syntax() {
        // Force syntax slips, then check the model repairs on feedback.
        let mut profile = LlmProfile::gpt4();
        profile.syntax_slip = 1.0;
        profile.feedback_fix = 1.0;
        let mut m = SimLlm::new(profile, 3);
        let first = m.generate(&Prompt::base(GEMM));
        assert!(
            looprag_ir::compile(&first, "cand").is_err(),
            "forced slip must break compilation"
        );
        let err = looprag_ir::compile(&first, "cand").unwrap_err().to_string();
        let fixed = m.generate(&Prompt {
            target: GEMM.into(),
            demonstrations: vec![],
            feedback: Some(Feedback::Compile {
                last_code: first,
                error: err,
            }),
        });
        assert!(looprag_ir::compile(&fixed, "cand").is_ok());
    }

    #[test]
    fn unaware_model_produces_wrong_code_sometimes() {
        // A recurrence must not be parallelized; a model with zero
        // legality awareness will sometimes do it anyway.
        let src = "param N = 256;\narray A[N];\nout A;\n#pragma scop\nfor (i = 1; i <= N - 1; i++) A[i] = A[i - 1] + 1.0;\n#pragma endscop\n";
        let mut profile = LlmProfile::gpt4();
        profile.legality_awareness = 0.0;
        profile.semantic_slip = 0.0;
        profile.syntax_slip = 0.0;
        profile.base_skill.insert(Family::Parallelization, 1.0);
        let orig = compile(src, "rec").unwrap();
        let mut wrong = 0;
        for seed in 0..10 {
            let mut m = SimLlm::new(profile.clone(), seed);
            let out = m.generate(&Prompt::base(src));
            if let Ok(cand) = compile(&out, "cand") {
                if !looprag_transform::semantics_preserving(
                    &orig,
                    &cand,
                    &looprag_transform::OracleConfig::default(),
                ) {
                    wrong += 1;
                }
            }
        }
        assert!(wrong >= 5, "only {wrong}/10 candidates were wrong");
    }

    #[test]
    fn rank_feedback_makes_model_careful() {
        let mut m = SimLlm::new(LlmProfile::deepseek(), 11);
        let tiled_code = "for (t1 = 0; t1 <= floord(N - 1, 32); t1++) #pragma omp parallel for";
        let _ = m.generate(&Prompt {
            target: GEMM.into(),
            demonstrations: vec![],
            feedback: Some(Feedback::TestAndRank {
                available: vec![(0, tiled_code.into())],
                failed: vec![1, 2],
            }),
        });
        assert!(m.careful);
        assert!(m.prob(Family::Tiling) >= 0.9);
    }
}

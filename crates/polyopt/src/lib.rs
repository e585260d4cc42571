//! # looprag-polyopt
//!
//! A PLuTo-style source-to-source polyhedral auto-optimizer over
//! [`looprag_ir`] programs. It is the reproduction's *demonstration
//! source*: dataset examples are optimized with it, and it doubles as the
//! PLuTo baseline of the paper's Table 3.
//!
//! The pipeline mirrors `pluto -tile -parallel -nocloogbacktrack`:
//!
//! 1. greedy **fusion** of adjacent compatible loop nests,
//! 2. **interchange** within permutable bands for spatial locality,
//! 3. **skewing** of time-iterated stencils to legalize tiling,
//! 4. **tiling** of permutable bands (including strip-mining depth-1
//!    loops — the behaviour that hurts PLuTo on short TSVC kernels),
//! 5. outermost-legal **parallelization**.
//!
//! Every accepted step is verified with the differential semantics
//! oracle, so the optimizer cannot emit a wrong program on the sampled
//! inputs; steps that fail verification are rolled back. One
//! [`OracleTarget`] serves a whole [`optimize`] call: the input
//! program's expected outputs are computed once per sampling cap and
//! reused by every step tried, and each step costs one compile of the
//! candidate and one batched run per parallel order.
//!
//! Each program version is analyzed for dependences once, on first use
//! after the step that produced it. Nothing in the optimizer draws
//! random numbers, so its result is a pure function of the input and the
//! options, which is what lets dataset synthesis label examples in
//! parallel.
//!
//! ```
//! use looprag_polyopt::{optimize, PolyOptions};
//! let src = "param N = 128;\narray C[N][N];\narray A[N][N];\narray B[N][N];\nout C;\n#pragma scop\n\
//! for (i = 0; i <= N - 1; i++) for (j = 0; j <= N - 1; j++) for (k = 0; k <= N - 1; k++) \
//! C[i][j] += A[i][k] * B[k][j];\n#pragma endscop\n";
//! let p = looprag_ir::compile(src, "gemm")?;
//! let result = optimize(&p, &PolyOptions::default());
//! assert!(result.recipe.steps.len() >= 2); // tiled and parallelized
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

use looprag_dependence::{analyze_for, DependenceSet, Purpose};
use looprag_ir::{element_stride, loop_paths, node_at, Node, NodePath, Program};
use looprag_transform::{perfect_band, OracleConfig, OracleTarget, Recipe, Step};

/// Options mirroring the PLuTo command line used in the paper
/// (`-tile -parallel -nocloogbacktrack`).
#[derive(Debug, Clone)]
pub struct PolyOptions {
    /// Apply tiling (`-tile`).
    pub tile: bool,
    /// Square tile size (PLuTo default 32).
    pub tile_size: i64,
    /// Mark outermost legal loops parallel (`-parallel`).
    pub parallel: bool,
    /// Greedily fuse compatible adjacent nests (smart-fuse default).
    pub fuse: bool,
    /// Enable time-skewing of stencils.
    pub skew: bool,
    /// Maximum band depth to tile.
    pub max_tile_depth: usize,
    /// Oracle used to verify each accepted step.
    pub oracle: OracleConfig,
}

impl Default for PolyOptions {
    fn default() -> Self {
        PolyOptions {
            tile: true,
            tile_size: 32,
            parallel: true,
            fuse: true,
            skew: true,
            max_tile_depth: 3,
            oracle: OracleConfig::default(),
        }
    }
}

/// Result of an optimization run.
#[derive(Debug, Clone)]
pub struct PolyOptResult {
    /// The optimized program (equal to the input when nothing applied).
    pub program: Program,
    /// The accepted steps, in application order.
    pub recipe: Recipe,
}

/// Per-access stride goodness of making `iter` innermost: `2` per
/// unit-stride access, `1` per invariant access, `-1` per strided one.
fn innermost_score(p: &Program, path: &NodePath, iter: &str) -> i64 {
    let Some(node) = node_at(&p.body, path) else {
        return 0;
    };
    let env = p.param_env();
    let mut score = 0i64;
    node.for_each_stmt(&mut |s| {
        let mut accs = s.reads();
        accs.push(s.lhs.clone());
        for a in accs {
            let Some(decl) = p.array(&a.array) else {
                continue;
            };
            let extents = decl.layout_extents(&env);
            score += match extents.and_then(|ext| element_stride(&a, iter, &ext)) {
                Some(0) => 1,
                Some(-1 | 1) => 2,
                _ => -1,
            };
        }
    });
    score
}

struct Optimizer<'a> {
    opts: &'a PolyOptions,
    /// The input program, as the oracle's reference for every step.
    oracle: OracleTarget<'a>,
    current: Program,
    /// Dependences of `current`, analyzed on first use after each
    /// accepted step so that every program version is analyzed once.
    deps: Option<DependenceSet>,
    recipe: Recipe,
}

impl Optimizer<'_> {
    /// The dependences of the current program.
    fn deps(&mut self) -> &DependenceSet {
        let current = &self.current;
        self.deps
            .get_or_insert_with(|| analyze_for(current, Purpose::Transform))
    }

    /// The dependences of the current program, moved out for a pass
    /// that may replace the program while still reading them; the pass
    /// puts them back if it accepts nothing.
    fn take_deps(&mut self) -> DependenceSet {
        self.deps
            .take()
            .unwrap_or_else(|| analyze_for(&self.current, Purpose::Transform))
    }

    /// Makes `next` (with dependences `deps`, when already known) the
    /// current program.
    fn accept(&mut self, next: Program, step: Step, deps: Option<DependenceSet>) {
        self.current = next;
        self.deps = deps;
        self.recipe.steps.push(step);
    }

    /// Tries `step`; keeps it only when it applies and passes the oracle.
    fn try_step(&mut self, step: Step) -> bool {
        let Ok(next) = step.apply(&self.current) else {
            return false;
        };
        if !self.oracle.check(&next) {
            return false;
        }
        self.accept(next, step, None);
        true
    }

    /// Greedy fusion sweep over every container, to fixpoint.
    fn fusion_pass(&mut self) {
        if !self.opts.fuse {
            return;
        }
        loop {
            let mut fused_any = false;
            let mut containers: Vec<NodePath> = vec![Vec::new()];
            containers.extend(loop_paths(&self.current.body));
            'outer: for c in containers {
                let len = if c.is_empty() {
                    self.current.body.len()
                } else {
                    match node_at(&self.current.body, &c) {
                        Some(n) => n.children().len(),
                        None => continue,
                    }
                };
                for idx in 0..len.saturating_sub(1) {
                    if self.try_step(Step::Fuse {
                        container: c.clone(),
                        index: idx,
                    }) || self.try_step(Step::ShiftFuse {
                        container: c.clone(),
                        index: idx,
                    }) {
                        fused_any = true;
                        break 'outer;
                    }
                }
            }
            if !fused_any {
                break;
            }
        }
    }

    /// Bubble-sorts permutable perfect pairs so the best-stride iterator
    /// ends up innermost.
    fn interchange_pass(&mut self) {
        for _ in 0..4 {
            let mut changed = false;
            for path in loop_paths(&self.current.body) {
                let Ok(band) = perfect_band(&self.current, &path, 2) else {
                    continue;
                };
                if band.len() != 2 {
                    continue;
                }
                let outer_score = innermost_score(&self.current, &path, &band[0].iter);
                let inner_score = innermost_score(&self.current, &path, &band[1].iter);
                // The iterator currently inner should have the higher
                // innermost score; otherwise interchange.
                if outer_score > inner_score {
                    let mut inner_path = path.clone();
                    inner_path.push(0);
                    let legal = self.deps().is_interchange_legal(&path, &inner_path);
                    if legal && self.try_step(Step::Interchange { path: path.clone() }) {
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }
    }

    /// Distributes loops whose mixed bodies block parallelization, when
    /// one of the resulting halves becomes parallel-legal.
    fn distribution_pass(&mut self) {
        loop {
            let deps = self.take_deps();
            let mut accepted = None;
            'paths: for path in loop_paths(&self.current.body) {
                let Some(Node::Loop(l)) = node_at(&self.current.body, &path) else {
                    continue;
                };
                if l.body.len() < 2 || deps.is_parallel_legal(&path) {
                    continue;
                }
                let n = l.body.len();
                for at in 1..n {
                    let step = Step::Distribute {
                        path: path.clone(),
                        at,
                    };
                    let Ok(next) = step.apply(&self.current) else {
                        continue;
                    };
                    let ndeps = analyze_for(&next, Purpose::Transform);
                    let mut second = path.clone();
                    *second.last_mut().unwrap() += 1;
                    let gain = ndeps.is_parallel_legal(&path) || ndeps.is_parallel_legal(&second);
                    if gain && self.oracle.check(&next) {
                        accepted = Some((next, step, ndeps));
                        break 'paths;
                    }
                }
            }
            let Some((next, step, ndeps)) = accepted else {
                self.deps = Some(deps);
                break;
            };
            self.accept(next, step, Some(ndeps));
        }
    }

    /// Skews time-iterated stencil bands so tiling becomes legal.
    fn skew_pass(&mut self) {
        if !self.opts.skew {
            return;
        }
        for path in loop_paths(&self.current.body) {
            let Ok(band) = perfect_band(&self.current, &path, 2) else {
                continue;
            };
            if band.len() != 2 {
                continue;
            }
            if self.deps().is_band_permutable(&path, 2) {
                continue;
            }
            // Try small positive skew factors.
            for factor in [1i64, 2] {
                let step = Step::Skew {
                    path: path.clone(),
                    factor,
                };
                let Ok(next) = step.apply(&self.current) else {
                    continue;
                };
                let ndeps = analyze_for(&next, Purpose::Transform);
                if ndeps.is_band_permutable(&path, 2) && self.oracle.check(&next) {
                    self.accept(next, step, Some(ndeps));
                    break;
                }
            }
        }
    }

    /// Tiles every maximal permutable band, outermost-first.
    fn tiling_pass(&mut self) {
        if !self.opts.tile {
            return;
        }
        // Re-scan after each accepted tile because paths shift.
        loop {
            let mut tiled = false;
            let deps = self.take_deps();
            for path in loop_paths(&self.current.body) {
                // Skip loops that are already tile or point loops.
                if let Some(Node::Loop(l)) = node_at(&self.current.body, &path) {
                    if l.iter.starts_with('t') && l.iter[1..].parse::<u32>().is_ok() {
                        continue;
                    }
                    if !matches!(l.lb, looprag_ir::Bound::Affine(_))
                        || !matches!(l.ub, looprag_ir::Bound::Affine(_))
                    {
                        continue;
                    }
                } else {
                    continue;
                }
                let Ok(band) = perfect_band(&self.current, &path, self.opts.max_tile_depth) else {
                    continue;
                };
                let mut depth = band.len();
                while depth > 1 {
                    if deps.is_band_permutable(&path, depth) {
                        break;
                    }
                    depth -= 1;
                }
                if self.try_step(Step::Tile {
                    path: path.clone(),
                    depth,
                    size: self.opts.tile_size,
                }) {
                    tiled = true;
                    break;
                }
            }
            if !tiled {
                self.deps = Some(deps);
                break;
            }
        }
    }

    /// Marks the outermost legal loop of each nest parallel.
    fn parallel_pass(&mut self) {
        if !self.opts.parallel {
            return;
        }
        // Marking loops parallel leaves the dependences unchanged.
        let deps = self.take_deps();
        // Per branch: mark the first legal loop, do not descend past it.
        let mut queue: Vec<NodePath> = (0..self.current.body.len()).map(|i| vec![i]).collect();
        while let Some(path) = queue.pop() {
            let Some(node) = node_at(&self.current.body, &path) else {
                continue;
            };
            match node {
                Node::Loop(_) => {
                    if deps.is_parallel_legal(&path)
                        && self.try_step(Step::Parallelize { path: path.clone() })
                    {
                        continue; // do not parallelize nested loops
                    }
                    let Some(node) = node_at(&self.current.body, &path) else {
                        continue;
                    };
                    for i in 0..node.children().len() {
                        let mut p = path.clone();
                        p.push(i);
                        queue.push(p);
                    }
                }
                Node::If { then, .. } => {
                    for i in 0..then.len() {
                        let mut p = path.clone();
                        p.push(i);
                        queue.push(p);
                    }
                }
                Node::Stmt(_) => {}
            }
        }
    }
}

/// Optimizes `p` with the PLuTo-style pipeline.
pub fn optimize(p: &Program, opts: &PolyOptions) -> PolyOptResult {
    let mut opt = Optimizer {
        opts,
        oracle: OracleTarget::new(p, &opts.oracle),
        current: p.clone(),
        deps: None,
        recipe: Recipe::new(),
    };
    opt.fusion_pass();
    opt.distribution_pass();
    opt.interchange_pass();
    opt.skew_pass();
    opt.tiling_pass();
    opt.parallel_pass();
    PolyOptResult {
        program: opt.current,
        recipe: opt.recipe,
    }
}

// Re-exported so callers can classify recipes with the paper's taxonomy.
pub use looprag_transform::Family;

#[cfg(test)]
mod tests {
    use super::*;
    use looprag_ir::{compile, print_program};
    use looprag_transform::{semantics_preserving as oracle_check, OracleConfig};

    fn opt(src: &str) -> (Program, PolyOptResult) {
        let p = compile(src, "t").unwrap();
        let r = optimize(&p, &PolyOptions::default());
        (p, r)
    }

    #[test]
    fn gemm_gets_tiled_and_parallelized() {
        let (p, r) = opt(
            "param N = 128;\narray C[N][N];\narray A[N][N];\narray B[N][N];\nout C;\n#pragma scop\nfor (i = 0; i <= N - 1; i++) for (j = 0; j <= N - 1; j++) for (k = 0; k <= N - 1; k++) C[i][j] += A[i][k] * B[k][j];\n#pragma endscop\n",
        );
        let fams = r.recipe.families();
        assert!(fams.contains(&Family::Tiling), "recipe: {}", r.recipe);
        assert!(
            fams.contains(&Family::Parallelization),
            "recipe: {}",
            r.recipe
        );
        assert!(oracle_check(&p, &r.program, &OracleConfig::default()));
        assert!(print_program(&r.program).contains("#pragma omp parallel for"));
    }

    #[test]
    fn stream_loop_gets_strip_mined_by_tile_flag() {
        let (_, r) = opt(
            "param N = 4096;\narray A[N];\narray B[N];\nout A;\n#pragma scop\nfor (i = 0; i <= N - 1; i++) A[i] = B[i] * 2.0;\n#pragma endscop\n",
        );
        assert!(r.recipe.families().contains(&Family::Tiling));
        assert!(print_program(&r.program).contains("floord"));
    }

    #[test]
    fn fusion_merges_compatible_nests() {
        let (p, r) = opt(
            "param N = 256;\narray A[N];\narray B[N];\nout B;\n#pragma scop\nfor (i = 0; i <= N - 1; i++) A[i] = 2.0;\nfor (j = 0; j <= N - 1; j++) B[j] = A[j] + 1.0;\n#pragma endscop\n",
        );
        assert!(r.recipe.families().contains(&Family::Fusion));
        assert!(oracle_check(&p, &r.program, &OracleConfig::default()));
    }

    #[test]
    fn illegal_fusion_is_rejected() {
        // Second loop reads A[N-1-j]: fusing would read not-yet-written
        // elements; the oracle must reject it.
        let (p, r) = opt(
            "param N = 64;\narray A[N];\narray B[N];\nout B;\n#pragma scop\nfor (i = 0; i <= N - 1; i++) A[i] = i * 2.0;\nfor (j = 0; j <= N - 1; j++) B[j] = A[N - 1 - j] + 1.0;\n#pragma endscop\n",
        );
        assert!(!r.recipe.families().contains(&Family::Fusion));
        assert!(oracle_check(&p, &r.program, &OracleConfig::default()));
    }

    #[test]
    fn recurrence_is_not_parallelized() {
        let (_, r) = opt(
            "param N = 512;\narray A[N];\nout A;\n#pragma scop\nfor (i = 1; i <= N - 1; i++) A[i] = A[i - 1] + 1.0;\n#pragma endscop\n",
        );
        assert!(!r.recipe.families().contains(&Family::Parallelization));
    }

    #[test]
    fn column_major_nest_gets_interchanged() {
        let (p, r) = opt(
            "param N = 256;\nparam M = 256;\narray A[N][M];\nout A;\n#pragma scop\nfor (j = 0; j <= M - 1; j++) for (i = 0; i <= N - 1; i++) A[i][j] = A[i][j] + 1.0;\n#pragma endscop\n",
        );
        assert!(
            r.recipe.families().contains(&Family::Interchange),
            "recipe: {}",
            r.recipe
        );
        assert!(oracle_check(&p, &r.program, &OracleConfig::default()));
    }

    #[test]
    fn jacobi_style_stencil_is_handled_soundly() {
        let (p, r) = opt(
            "param T = 16;\nparam N = 64;\narray A[N];\narray B[N];\nout A;\n#pragma scop\nfor (t = 0; t <= T - 1; t++) { for (i = 1; i <= N - 2; i++) B[i] = A[i - 1] + A[i] + A[i + 1];\n for (i = 1; i <= N - 2; i++) A[i] = B[i]; }\n#pragma endscop\n",
        );
        assert!(!r.recipe.steps.is_empty());
        assert!(oracle_check(&p, &r.program, &OracleConfig::default()));
    }

    #[test]
    fn syrk_triangular_nest_round_trips() {
        let (p, r) = opt(
            "param N = 64;\nparam M = 64;\nparam alpha = 2;\nparam beta = 3;\narray C[N][N];\narray A[N][M];\nout C;\n#pragma scop\nfor (i = 0; i <= N - 1; i++) {\n  for (j = 0; j <= i; j++) C[i][j] *= beta;\n  for (k = 0; k <= M - 1; k++) for (j = 0; j <= i; j++) C[i][j] += alpha * A[i][k] * A[j][k];\n}\n#pragma endscop\n",
        );
        assert!(oracle_check(&p, &r.program, &OracleConfig::default()));
        assert!(!r.recipe.steps.is_empty(), "syrk should be optimizable");
    }
}

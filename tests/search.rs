//! The `looprag-search` suite: the optimized engine pinned bit-for-bit
//! against the naive reference searcher and across worker-pool sizes,
//! soundness of the legality pruner against the differential oracle
//! (TSVC kernels only — PolyBench differential runs are far too slow
//! for tier-1), the hybrid LLM+search pipeline arm (byte-identical
//! outcomes when disabled, one injected candidate when enabled), and
//! feedback mining of verified search winners.

use looprag::looprag_core::{LoopRag, LoopRagConfig, SearchConfig};
use looprag::looprag_llm::LlmProfile;
use looprag::looprag_machine::CostEngine;
use looprag::looprag_search::{admissible_children, search_reference, search_with_engine};
use looprag::looprag_suites::{suite_strided, Benchmark, Suite};
use looprag::looprag_synth::{build_dataset, Provenance, SynthConfig};
use looprag::looprag_transform::{
    semantics_preserving, Family, OracleConfig, Step, StepGrid, TransformErrorKind,
};
use looprag_bench::run_feedback_campaign;
use proptest::prelude::*;

fn tsvc_strided(stride: usize) -> Vec<Benchmark> {
    suite_strided(Suite::Tsvc, stride)
}

fn cfg(beam: usize, depth: usize, threads: usize) -> SearchConfig {
    SearchConfig {
        beam,
        depth,
        threads,
        ..SearchConfig::default()
    }
}

/// The golden pin: optimized search == naive reference searcher,
/// bit for bit, over a strided TSVC subset.
#[test]
fn search_matches_reference_over_strided_tsvc() {
    for b in tsvc_strided(16) {
        let p = b.program();
        let e = search_with_engine(&p, &cfg(3, 3, 1), CostEngine::global());
        let r = search_reference(&p, &cfg(3, 3, 1));
        assert_eq!(
            e.fingerprint(),
            r.fingerprint(),
            "engine diverged from reference on {}",
            b.name
        );
        assert_eq!(e.stats.admitted, r.stats.admitted, "{}", b.name);
    }
}

/// The acceptance pin: results are bit-identical at pool sizes 1, 2
/// and 8 (nested inside any ambient `LOOPRAG_THREADS`).
#[test]
fn search_is_bit_identical_across_pool_sizes() {
    for name in ["s000", "s119", "s243"] {
        let p = looprag::looprag_suites::find(name).unwrap().program();
        let base = search_with_engine(&p, &cfg(4, 3, 1), CostEngine::global());
        for threads in [2, 8] {
            let got = search_with_engine(&p, &cfg(4, 3, threads), CostEngine::global());
            assert_eq!(
                base.fingerprint(),
                got.fingerprint(),
                "{name} diverged at {threads} threads"
            );
            assert_eq!(base.stats, got.stats, "{name} stats at {threads} threads");
        }
    }
}

/// Expansion-count regression pin: the step grid is planned exactly
/// once per search (not once per node), and the expansion counters for
/// a known kernel stay at their hoisted-allocation baseline. A change
/// that reintroduces per-node grid construction or inflates the
/// enumeration fan-out moves these literals and must justify itself.
#[test]
fn expansion_counters_stay_at_the_hoisted_baseline() {
    let p = looprag::looprag_suites::find("s000").unwrap().program();
    let r = search_with_engine(&p, &cfg(3, 3, 1), CostEngine::global());
    assert_eq!(
        r.stats.grid_plans, 1,
        "grid must be planned once per search"
    );
    assert_eq!(r.stats.nodes_expanded, 4);
    assert_eq!(r.stats.steps_enumerated, 14);
    assert_eq!(r.stats.applied, 14);
    assert_eq!(r.stats.admitted, 10);
    assert!(
        r.stats.scored <= 11,
        "s000 cfg(3,3,1) scored {} estimates, baseline 11",
        r.stats.scored
    );
}

/// The search arm finds genuine wins on vectorizable/parallel kernels.
#[test]
fn search_improves_a_parallel_tsvc_kernel() {
    let p = looprag::looprag_suites::find("s000").unwrap().program();
    let r = search_with_engine(&p, &cfg(4, 3, 1), CostEngine::global());
    assert!(r.speedup > 1.0, "s000 should improve, got {}", r.speedup);
    assert!(r.recipe.families().contains(&Family::Parallelization));
}

/// Satellite: a searcher probing stale or empty paths gets a clean
/// `BadPath` error from every primitive, never a panic.
#[test]
fn stale_paths_error_instead_of_panicking() {
    let p = looprag::looprag_suites::find("s000").unwrap().program();
    let probes = [
        Step::Tile {
            path: vec![7, 3],
            depth: 1,
            size: 8,
        },
        Step::Interchange { path: vec![9] },
        Step::Fuse {
            container: vec![5],
            index: 0,
        },
        Step::ShiftFuse {
            container: vec![5],
            index: 0,
        },
        Step::Distribute {
            path: vec![],
            at: 1,
        },
        Step::Skew {
            path: vec![4],
            factor: 1,
        },
        Step::Shift {
            path: vec![4],
            stmt: 0,
            offset: 1,
        },
        Step::Parallelize { path: vec![2, 2] },
        Step::Serialize { path: vec![2, 2] },
        Step::Scalarize { path: vec![] },
    ];
    for step in probes {
        let err = step.apply(&p).expect_err("stale path must fail");
        assert_eq!(
            err.kind,
            TransformErrorKind::BadPath,
            "step {step} returned the wrong kind: {}",
            err.message
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Soundness of the pruner: every recipe it admits — one step, and
    /// one sampled two-step composition — preserves semantics on
    /// suite-scale TSVC kernels per the differential oracle.
    #[test]
    fn admitted_recipes_preserve_semantics(kernel in 0usize..32, pick in 0usize..997) {
        let kernels = tsvc_strided(2);
        let b = &kernels[kernel % kernels.len()];
        let p = b.program();
        let grid = StepGrid::default();
        let oracle = OracleConfig::default();
        let children = admissible_children(&p, &grid);
        if children.is_empty() {
            return Ok(());
        }
        let (step, child) = &children[pick % children.len()];
        prop_assert!(
            semantics_preserving(&p, child, &oracle),
            "{}: admitted step {step} broke semantics",
            b.name
        );
        // One level deeper: a sampled admitted grandchild.
        let grandchildren = admissible_children(child, &grid);
        if let Some((step2, grandchild)) = grandchildren.get(pick % grandchildren.len().max(1)) {
            prop_assert!(
                semantics_preserving(&p, grandchild, &oracle),
                "{}: admitted recipe [{step}; {step2}] broke semantics",
                b.name
            );
        }
    }
}

fn pipeline_cfg(search: Option<SearchConfig>) -> LoopRagConfig {
    let mut config = LoopRagConfig::new(LlmProfile::deepseek());
    config.search = search;
    config
}

fn small_rag(config: LoopRagConfig) -> LoopRag {
    let dataset = build_dataset(&SynthConfig {
        count: 12,
        ..Default::default()
    });
    LoopRag::new(config, dataset)
}

/// Hybrid arm: with search disabled (the default) outcomes are
/// byte-identical to a search-free run; with it enabled, exactly one
/// extra candidate joins the step-1 batch and the fixed-seed LLM
/// stream is untouched. Single-shot mode keeps the comparison exact —
/// in the full pipeline the injected winner legitimately feeds the
/// step-3 rankings prompt, so round-3 emissions may differ.
#[test]
fn hybrid_arm_injects_without_touching_the_llm_stream() {
    let p = looprag::looprag_suites::find("s1112").unwrap().program();
    let mut base = pipeline_cfg(None);
    base.single_shot = true;
    let off_a = small_rag(base.clone()).optimize("s1112", &p);
    let off_b = small_rag(base.clone()).optimize("s1112", &p);
    assert_eq!(
        format!("{:?}/{:?}/{:?}", off_a.candidates, off_a.steps, off_a.best),
        format!("{:?}/{:?}/{:?}", off_b.candidates, off_b.steps, off_b.best),
        "search-free runs must be reproducible"
    );
    let mut hybrid = base;
    hybrid.search = Some(cfg(3, 2, 1));
    let on = small_rag(hybrid).optimize("s1112", &p);
    assert_eq!(on.candidates.len(), off_a.candidates.len() + 1);
    let injected: Vec<_> = on.candidates.iter().filter(|c| c.from_search).collect();
    assert_eq!(injected.len(), 1);
    assert_eq!(injected[0].round, 1);
    // The fixed-seed LLM candidates are bit-identical to the search-free
    // run: same rounds, verdicts and speedups, in the same order.
    let llm_reports: Vec<String> = on
        .candidates
        .iter()
        .filter(|c| !c.from_search)
        .map(|c| format!("{c:?}"))
        .collect();
    let off_reports: Vec<String> = off_a.candidates.iter().map(|c| format!("{c:?}")).collect();
    assert_eq!(llm_reports, off_reports);
    // The hybrid winner can only be at least as fast.
    assert!(on.speedup >= off_a.speedup);
}

/// The full four-step hybrid pipeline runs end to end: one injected
/// step-1 candidate, two LLM batches, and a winner at least as fast as
/// the search arm alone would deliver.
#[test]
fn full_hybrid_pipeline_runs_end_to_end() {
    let p = looprag::looprag_suites::find("vtv").unwrap().program();
    let scfg = cfg(3, 2, 1);
    let found = search_with_engine(&p, &scfg, CostEngine::global());
    let on = small_rag(pipeline_cfg(Some(scfg))).optimize("vtv", &p);
    assert_eq!(
        on.candidates.iter().filter(|c| c.from_search).count(),
        usize::from(!found.recipe.steps.is_empty())
    );
    assert_eq!(
        on.candidates.iter().filter(|c| !c.from_search).count(),
        14,
        "two K=7 LLM batches"
    );
    if found.speedup > 1.0 {
        assert!(on.passed);
        assert!(on.speedup > 0.0);
    }
}

/// The search-only scenario arm (`K = 0`): the pipeline tests exactly
/// the search winner, and feedback mining ingests it into the knowledge
/// base with `Mined` provenance.
#[test]
fn search_only_arm_is_mined_into_the_knowledge_base() {
    let kernels: Vec<Benchmark> = ["s000", "s1112", "vtv"]
        .iter()
        .map(|n| looprag::looprag_suites::find(n).unwrap())
        .collect();
    let mut config = pipeline_cfg(Some(cfg(3, 2, 1)));
    config.k = 0;
    config.demos = 0;
    config.single_shot = true;
    config.feedback = true;
    let mut rag = small_rag(config);
    let before = rag.knowledge_len();
    let results = run_feedback_campaign(&mut rag, &kernels, 2);
    // Every tested candidate is the search winner; passing results with
    // real speedups are mined.
    let winners = results
        .iter()
        .filter(|r| r.passed && r.speedup > 1.0)
        .count();
    assert!(
        winners > 0,
        "the search arm should win on s000-style kernels"
    );
    assert_eq!(rag.knowledge_len() - before, winners);
    let mined: Vec<_> = rag
        .dataset()
        .examples
        .iter()
        .filter(|e| e.provenance == Provenance::Mined)
        .collect();
    assert_eq!(mined.len(), winners);
    for record in mined {
        assert_ne!(record.source, record.optimized);
    }
}

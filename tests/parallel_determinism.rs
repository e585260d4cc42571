//! Determinism-across-parallelism suite: the worker pool must change
//! *wall time only*. Full pipeline outcomes (pass/fail, speedups, demo
//! ids, StepTrace, per-candidate reports) and whole-campaign results
//! must be bit-for-bit identical at pool sizes 1, 2 and 8 on a fixed
//! seed — including when a tight virtual-cost budget forces skip and
//! timeout decisions, which are taken sequentially before the fan-out.
//! Dataset synthesis labels its examples on the pool too, and its JSON
//! must be byte-identical at every pool size.

use looprag::looprag_core::{BudgetPolicy, LoopRag, LoopRagConfig};
use looprag::looprag_llm::LlmProfile;
use looprag::looprag_runtime::fnv64;
use looprag::looprag_suites::{find, suite, Suite};
use looprag::looprag_synth::{build_dataset, SynthConfig};
use looprag_bench::run_campaign;

const POOL_SIZES: [usize; 3] = [1, 2, 8];

fn rag_with(threads: usize, budget: BudgetPolicy) -> LoopRag {
    let dataset = build_dataset(&SynthConfig {
        count: 12,
        ..Default::default()
    });
    let mut config = LoopRagConfig::new(LlmProfile::deepseek());
    config.threads = threads;
    config.budget = budget;
    LoopRag::new(config, dataset)
}

#[test]
fn pipeline_outcome_is_identical_at_any_pool_size() {
    let target = find("vpv").unwrap().program();
    let outcomes: Vec<String> = POOL_SIZES
        .iter()
        .map(|&t| {
            let rag = rag_with(t, BudgetPolicy::default_virtual());
            // The Debug form covers every outcome field: pass/fail,
            // bit-exact speedups, demo ids, StepTrace and the full
            // per-candidate report list.
            format!("{:?}", rag.optimize("vpv", &target))
        })
        .collect();
    assert_eq!(outcomes[0], outcomes[1], "pool size 2 diverged from 1");
    assert_eq!(outcomes[0], outcomes[2], "pool size 8 diverged from 1");
}

#[test]
fn budget_exhaustion_is_identical_at_any_pool_size() {
    // A budget this tight runs out mid-run, forcing skipped generations
    // and over-budget timeout verdicts; those decisions must land on
    // the same candidates regardless of pool size.
    let target = find("s000").unwrap().program();
    let outcomes: Vec<String> = POOL_SIZES
        .iter()
        .map(|&t| {
            let rag = rag_with(t, BudgetPolicy::VirtualCost { limit: 9 });
            format!("{:?}", rag.optimize("s000", &target))
        })
        .collect();
    assert_eq!(outcomes[0], outcomes[1]);
    assert_eq!(outcomes[0], outcomes[2]);
    // The tight budget must actually bite, or this test is vacuous.
    assert!(
        outcomes[0].contains("Timeout") || outcomes[0].contains("verdict: None"),
        "budget limit 9 no longer exhausts mid-run; tighten the limit"
    );
}

#[test]
fn campaign_results_are_identical_at_any_pool_size() {
    // Campaign-level fan-out: whole kernels are the work items, with
    // per-kernel seeds derived from the config seed and kernel name.
    let kernels: Vec<_> = suite(Suite::Tsvc).into_iter().take(4).collect();
    let runs: Vec<String> = POOL_SIZES
        .iter()
        .map(|&t| {
            let rag = rag_with(1, BudgetPolicy::default_virtual());
            format!("{:?}", run_campaign(&rag, &kernels, t))
        })
        .collect();
    assert_eq!(runs[0], runs[1], "campaign at 2 threads diverged from 1");
    assert_eq!(runs[0], runs[2], "campaign at 8 threads diverged from 1");
    // And kernel-level parallelism composes with candidate-level
    // parallelism inside each worker without changing results.
    let nested = {
        let rag = rag_with(2, BudgetPolicy::default_virtual());
        format!("{:?}", run_campaign(&rag, &kernels, 2))
    };
    assert_eq!(runs[0], nested, "nested pools diverged from sequential");
}

#[test]
fn dataset_is_byte_identical_at_any_pool_size() {
    // The draw phase is sequential and the labelling phase draws no
    // random numbers, so the pool size cannot reach the bytes. The
    // fingerprints pin the bytes themselves: they are those of the
    // sequential single-phase synthesis this one replaced.
    for (count, bytes, fingerprint) in [
        (40, 58_310, 0xc6ab_a8ee_5eda_08ed_u64),
        (200, 310_525, 0x697c_7e2d_7c41_5f1b),
    ] {
        for threads in POOL_SIZES {
            let json = build_dataset(&SynthConfig {
                count,
                threads,
                ..Default::default()
            })
            .to_json()
            .unwrap();
            assert_eq!(
                (json.len(), fnv64(json.bytes())),
                (bytes, fingerprint),
                "{count}-example dataset at pool size {threads} drifted"
            );
        }
    }
}

//! The `looprag-rank` suite: determinism of the learned step reranker
//! end to end — `RankModel::fit` invariant to training-record input
//! order (proptest), ranker-guided searches bit-identical at pool
//! sizes 1/2/8, model JSON round-tripping byte-stably, the `rank:
//! None` default keeping config fingerprints byte-identical to a
//! ranker-free build, and the trained model riding the serve snapshot
//! through a byte-level fixed point.

use looprag::looprag_core::{LoopRagConfig, SearchConfig};
use looprag::looprag_llm::LlmProfile;
use looprag::looprag_machine::CostEngine;
use looprag::looprag_rank::{RankConfig, RankExample, RankModel};
use looprag::looprag_search::{rank_training_examples, search_with_engine};
use looprag::looprag_serve::Server;
use looprag::looprag_suites::find;
use looprag::looprag_synth::{build_dataset, SynthConfig};
use looprag_bench::train_rank_model;
use proptest::prelude::*;

fn scfg(beam: usize, depth: usize, threads: usize) -> SearchConfig {
    SearchConfig {
        beam,
        depth,
        threads,
        ..SearchConfig::default()
    }
}

/// A small model trained on real traces of two TSVC kernels.
fn trained_model() -> RankModel {
    let programs = vec![
        find("s000").unwrap().program(),
        find("s119").unwrap().program(),
    ];
    train_rank_model(&programs, &scfg(3, 3, 1))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `RankModel::fit` is invariant to training-record input order:
    /// any rotation or reversal of the example list fits the same
    /// model, byte for byte through the canonical JSON.
    #[test]
    fn fit_is_invariant_to_example_order(
        raw in prop::collection::vec(
            (0u32..64, 0u8..8, 0u8..32, 0u32..1000), 1..40),
        rotation in 0usize..40,
    ) {
        let examples: Vec<RankExample> = raw
            .iter()
            .map(|&(signature, family, param, s)| RankExample {
                signature,
                family,
                param,
                // Mix losers (0) with fractional and >1 speedups.
                speedup: f64::from(s) / 100.0,
            })
            .collect();
        let base = RankModel::fit(&examples);
        let mut reversed = examples.clone();
        reversed.reverse();
        let mut rotated = examples.clone();
        rotated.rotate_left(rotation % examples.len());
        prop_assert_eq!(&base, &RankModel::fit(&reversed));
        prop_assert_eq!(&base, &RankModel::fit(&rotated));
        prop_assert_eq!(
            base.to_json().unwrap(),
            RankModel::fit(&rotated).to_json().unwrap()
        );
    }
}

/// Trace collection is deterministic and ignores the training config's
/// own reranker and pool size, so the same `(program, grid)` always
/// yields the same example stream.
#[test]
fn trace_collection_is_a_pure_function_of_program_and_grid() {
    let p = find("s000").unwrap().program();
    let base = rank_training_examples(&p, &scfg(3, 3, 1));
    assert!(!base.is_empty(), "s000 must yield training examples");
    let again = rank_training_examples(&p, &scfg(3, 3, 1));
    assert_eq!(base, again, "trace collection is not deterministic");
    let mut threaded = scfg(3, 3, 8);
    threaded.rank = Some(RankConfig::new(trained_model()));
    assert_eq!(
        base,
        rank_training_examples(&p, &threaded),
        "traces must ignore cfg.threads and cfg.rank"
    );
}

/// The acceptance pin: ranker-on searches are bit-identical at pool
/// sizes 1, 2 and 8, the ranker actually prunes, and on a kernel its
/// training covered the final cost matches the unranked search (the
/// winner-protection guarantee).
#[test]
fn ranked_search_is_bit_identical_across_pool_sizes() {
    let rank = RankConfig::new(trained_model());
    for name in ["s000", "s119", "s1112"] {
        let p = find(name).unwrap().program();
        let off = search_with_engine(&p, &scfg(3, 3, 1), CostEngine::global());
        let mut on_cfg = scfg(3, 3, 1);
        on_cfg.rank = Some(rank.clone());
        let on = search_with_engine(&p, &on_cfg, CostEngine::global());
        for threads in [2usize, 8] {
            let mut c = scfg(3, 3, threads);
            c.rank = Some(rank.clone());
            let got = search_with_engine(&p, &c, CostEngine::global());
            assert_eq!(
                on.fingerprint(),
                got.fingerprint(),
                "{name} diverged at {threads} threads"
            );
            assert_eq!(on.stats, got.stats, "{name} stats at {threads} threads");
        }
        assert!(
            on.stats.rank_pruned > 0,
            "{name}: the reranker should prune something"
        );
        if name != "s1112" {
            // Trained kernels: the winner-protection guard keeps every
            // step of the winning path, so the final cost is identical
            // — and the pruning must actually save estimate calls.
            assert_eq!(
                on.cost.to_bits(),
                off.cost.to_bits(),
                "{name}: ranked search lost the trained winner"
            );
            assert!(
                on.stats.scored <= off.stats.scored,
                "{name}: ranked search may not cost *more* estimates"
            );
        }
    }
}

/// Model JSON round-trips byte-stably, and the fingerprint is a pure
/// function of content.
#[test]
fn model_json_round_trip_is_byte_stable() {
    let m = trained_model();
    assert!(!m.is_empty());
    let json = m.to_json().expect("to_json");
    let back = RankModel::from_json(&json).expect("from_json");
    assert_eq!(m, back);
    assert_eq!(json, back.to_json().expect("to_json again"));
    assert_eq!(m.fingerprint(), back.fingerprint());
    assert_eq!(m.fingerprint(), trained_model().fingerprint());
}

/// `rank: None` (the default) leaves both the search-config and the
/// pipeline-config fingerprints without any rank component — the
/// byte-compatibility contract with ranker-free builds — while `Some`
/// appends one, so memo keys separate.
#[test]
fn rank_none_keeps_fingerprints_byte_identical() {
    let off = scfg(3, 3, 1);
    assert!(!off.fingerprint().contains("rank:"));
    let mut on = scfg(3, 3, 1);
    on.rank = Some(RankConfig::new(trained_model()));
    let on_fp = on.fingerprint();
    assert!(on_fp.contains("|rank:m"));
    assert!(on_fp.starts_with(&off.fingerprint()));

    let base = LoopRagConfig::new(LlmProfile::deepseek());
    assert!(!base.fingerprint().contains("rank:"));
    let mut ranked = LoopRagConfig::new(LlmProfile::deepseek());
    ranked.rank = Some(RankConfig::new(trained_model()));
    assert!(ranked.fingerprint().starts_with(&base.fingerprint()));
    assert!(ranked.fingerprint().contains("|rank:m"));
}

/// The trained model rides the serve snapshot: snapshot → restore →
/// snapshot is a byte-level fixed point with a reranker configured,
/// and a restore under the wrong model (or no model) is rejected with
/// a descriptive error instead of silently mixing memo keys.
#[test]
fn rank_model_rides_the_serve_snapshot() {
    let dataset = build_dataset(&SynthConfig {
        count: 12,
        ..Default::default()
    });
    let mut config = LoopRagConfig::new(LlmProfile::deepseek());
    config.search = Some(scfg(3, 2, 1));
    config.rank = Some(RankConfig::new(trained_model()));
    let mut server = Server::new(config.clone(), dataset.clone(), 1);
    let reqs = vec![looprag::looprag_serve::Request::new(
        "s000",
        find("s000").unwrap().source,
    )];
    server.submit(&reqs);
    let snapshot = server.snapshot().expect("snapshot");
    assert!(snapshot.contains("rank_model"));
    let mut restored = Server::restore(config.clone(), 1, &snapshot).expect("restore");
    assert_eq!(
        snapshot,
        restored.snapshot().expect("second snapshot"),
        "snapshot -> restore -> snapshot drifted"
    );
    // Restoring without a reranker configured must fail descriptively —
    // the arm-fingerprint guard fires first (the rank component is part
    // of the config fingerprint), the rank_model check backstops it.
    let mut bare = config.clone();
    bare.rank = None;
    let err = Server::restore(bare, 1, &snapshot).expect_err("restore must reject");
    assert!(
        err.contains("rank_model") || err.contains("fingerprint mismatch"),
        "unhelpful error: {err}"
    );
    // And a ranker-free snapshot must not restore into a ranked server
    // (the arm fingerprint catches it first — either way, an error).
    let mut plain_cfg = LoopRagConfig::new(LlmProfile::deepseek());
    plain_cfg.search = Some(scfg(3, 2, 1));
    let mut plain = Server::new(plain_cfg, dataset, 1);
    let plain_snapshot = plain.snapshot().expect("plain snapshot");
    assert!(!plain_snapshot.contains("rank_model"));
    assert!(Server::restore(config, 1, &plain_snapshot).is_err());
}

//! Serve-layer suite: the optimization service must serve repeat
//! requests from the verified-winner memo with outcomes bit-identical
//! to the first computation, stay invariant to pool size and batch
//! composition, and round-trip its full state (knowledge base, mined
//! feedback records, memo) through a snapshot byte-identically.

use looprag::looprag_core::LoopRagConfig;
use looprag::looprag_llm::LlmProfile;
use looprag::looprag_serve::{CacheStatus, Request, Server};
use looprag::looprag_suites::{suite, Suite};
use looprag::looprag_synth::{build_dataset, Dataset, SynthConfig};

fn dataset() -> Dataset {
    build_dataset(&SynthConfig {
        count: 12,
        ..Default::default()
    })
}

fn config(feedback: bool) -> LoopRagConfig {
    let mut cfg = LoopRagConfig::new(LlmProfile::deepseek());
    cfg.feedback = feedback;
    cfg
}

/// The leading TSVC kernels: cheap to test, and several earn verified
/// winners (so feedback mining has something to stage).
fn tsvc_requests(n: usize, tag: &str) -> Vec<Request> {
    suite(Suite::Tsvc)
        .into_iter()
        .take(n)
        .map(|b| Request::new(format!("{tag}:{}", b.name), b.source))
        .collect()
}

#[test]
fn same_kernel_twice_is_served_from_the_memo_with_identical_payload() {
    let mut server = Server::new(config(false), dataset(), 1);
    let first = server.submit(&tsvc_requests(2, "a"));
    // Different display names, same sources: still memo hits — the key
    // is the canonical kernel text, not the name.
    let second = server.submit(&tsvc_requests(2, "b"));
    assert!(first.iter().all(|r| r.cache == CacheStatus::Miss));
    for (f, s) in first.iter().zip(&second) {
        assert_eq!(s.cache, CacheStatus::Hit);
        assert_eq!((s.llm_calls, s.search_expansions), (0, 0));
        assert_eq!(s.passed, f.passed);
        assert_eq!(s.speedup.to_bits(), f.speedup.to_bits());
        assert_eq!(s.best, f.best);
        assert_eq!(s.verdict, f.verdict);
    }
    let stats = server.stats();
    assert_eq!((stats.misses, stats.hits, stats.rejected), (2, 2, 0));
}

#[test]
fn responses_are_identical_at_any_pool_size() {
    // One batch mixing fresh kernels with in-batch repeats; the pool
    // must change wall time only.
    let mut reqs = tsvc_requests(3, "x");
    reqs.extend(tsvc_requests(2, "y"));
    let runs: Vec<Vec<String>> = [1usize, 2, 8]
        .iter()
        .map(|&threads| {
            let mut server = Server::new(config(false), dataset(), threads);
            server
                .submit(&reqs)
                .iter()
                .map(looprag::looprag_serve::Response::to_json)
                .collect()
        })
        .collect();
    assert_eq!(runs[0], runs[1], "pool size 2 diverged from 1");
    assert_eq!(runs[0], runs[2], "pool size 8 diverged from 1");
}

#[test]
fn feedback_wins_survive_snapshot_and_restore() {
    let mut server = Server::new(config(true), dataset(), 2);
    let cold = server.submit(&tsvc_requests(8, "cold"));
    assert!(
        cold.iter().any(|r| r.passed && r.speedup > 1.0),
        "no kernel produced a verified winner to mine"
    );
    assert!(server.staged_len() > 0, "no feedback win was staged");
    let kb_before = server.kb_fingerprint();
    // snapshot() commits the epoch first, so the mined records land in
    // the persisted dataset.
    let snapshot = server.snapshot().expect("snapshot");
    assert_ne!(
        server.kb_fingerprint(),
        kb_before,
        "epoch commit was a no-op"
    );
    assert!(
        snapshot.contains("\"provenance\":\"mined\""),
        "mined records missing from the snapshot"
    );
    let mut restored = Server::restore(config(true), 2, &snapshot).expect("restore");
    assert_eq!(restored.kb_fingerprint(), server.kb_fingerprint());
    assert_eq!(restored.memo_len(), server.memo_len());
    // A replay of the workload is served from the restored memo,
    // byte-identical to the live server's replay.
    let reqs = tsvc_requests(8, "cold");
    let live: Vec<String> = server
        .submit(&reqs)
        .iter()
        .map(looprag::looprag_serve::Response::to_json)
        .collect();
    let replay: Vec<String> = restored
        .submit(&reqs)
        .iter()
        .map(looprag::looprag_serve::Response::to_json)
        .collect();
    assert_eq!(live, replay, "restored service diverged from the live one");
    // And the snapshot itself is a fixed point: save -> restore -> save
    // gives the same bytes.
    let again = restored.snapshot().expect("second snapshot");
    assert_eq!(snapshot, again, "snapshot -> restore -> snapshot drifted");
}

#[test]
fn invalid_requests_are_rejected_without_polluting_the_memo() {
    let mut server = Server::new(config(false), dataset(), 1);
    let bad = Request::new("bad", "for (i = 0; i < N; i++ A[i] = 1.0;");
    let out = server.submit(std::slice::from_ref(&bad));
    assert_eq!(out[0].cache, CacheStatus::Rejected);
    assert!(out[0].verdict.starts_with("rejected: "));
    assert_eq!(server.memo_len(), 0);
    // Resubmitting is rejected again (not served from any cache).
    let out = server.submit(&[bad]);
    assert_eq!(out[0].cache, CacheStatus::Rejected);
    assert_eq!(server.stats().rejected, 2);
}

/// The default search, default LLM arm and serve-hybrid arm
/// fingerprints, byte for byte. They are the arm component of every
/// serve memo key and the `arm_fingerprint` a snapshot restore checks,
/// so a config field that drops out of (or slips into) a fingerprint
/// fails here before it can orphan memo entries or refuse snapshots.
#[test]
fn config_fingerprints_are_pinned_byte_for_byte() {
    use looprag::looprag_core::SearchConfig;
    const SEARCH: &str = "search:b4|d3|ts[8,32]|mtd3|sk[1]|rtfalse|gcc;48;4010000000000000;\
        3fe0000000000000;3fe8000000000000;4096/64/4;32768/64/8;4;14;120;2;3000;3fe8000000000000;\
        120000000";
    const DEFAULT_ARM: &str = "cfg:s269175405|k7|rLoopAware|n10|d3|sf4049000000000000|ssfalse|\
        bvc10000|fbfalse|llm:deepseek|sk:Tiling=3fc1eb851eb851ec,Interchange=3fdccccccccccccd,\
        Skewing=3f9eb851eb851eb8,Fusion=3fdccccccccccccd,Distribution=3fc70a3d70a3d70a,\
        Shifting=3f9eb851eb851eb8,Parallelization=3fa47ae147ae147b,\
        Scalarization=3fe3333333333333|la:3fe3333333333333|sy:3fbc28f5c28f5c29|\
        se:3fc3333333333333|icl:3fed70a3d70a3d71|fb:3fea3d70a3d70a3d|pi:3fe4cccccccccccd|\
        gcc;48;4010000000000000;3fe0000000000000;3fe8000000000000;4096/64/4;32768/64/8;4;14;\
        120;2;3000;3fe8000000000000;120000000|eq:cap8|eps3eb0c6f7a0b5ed8d|sb20000000|none";
    const HYBRID_ARM: &str = "cfg:s269175405|k7|rLoopAware|n10|d3|sf4049000000000000|ssfalse|\
        bvc10000|fbtrue|llm:deepseek|sk:Tiling=3fc1eb851eb851ec,Interchange=3fdccccccccccccd,\
        Skewing=3f9eb851eb851eb8,Fusion=3fdccccccccccccd,Distribution=3fc70a3d70a3d70a,\
        Shifting=3f9eb851eb851eb8,Parallelization=3fa47ae147ae147b,\
        Scalarization=3fe3333333333333|la:3fe3333333333333|sy:3fbc28f5c28f5c29|\
        se:3fc3333333333333|icl:3fed70a3d70a3d71|fb:3fea3d70a3d70a3d|pi:3fe4cccccccccccd|\
        gcc;48;4010000000000000;3fe0000000000000;3fe8000000000000;4096/64/4;32768/64/8;4;14;\
        120;2;3000;3fe8000000000000;120000000|eq:cap8|eps3eb0c6f7a0b5ed8d|sb20000000|\
        search:b4|d3|ts[8,32]|mtd3|sk[1]|rtfalse|gcc;48;4010000000000000;3fe0000000000000;\
        3fe8000000000000;4096/64/4;32768/64/8;4;14;120;2;3000;3fe8000000000000;120000000";
    let default_arm = LoopRagConfig::new(LlmProfile::deepseek());
    let hybrid_arm = LoopRagConfig {
        search: Some(SearchConfig::default()),
        feedback: true,
        ..default_arm.clone()
    };
    assert_eq!(SearchConfig::default().fingerprint(), SEARCH);
    assert_eq!(default_arm.fingerprint(), DEFAULT_ARM);
    assert_eq!(hybrid_arm.fingerprint(), HYBRID_ARM);
}

//! # looprag-runtime
//!
//! The deterministic parallel runtime underneath the pipeline and the
//! campaign driver: a `std::thread` worker pool that maps a function
//! over indexed work items and merges the results back **in submission
//! order**, plus the virtual-cost [`Budget`] that replaces wall-clock
//! deadlines so outcomes are reproducible regardless of machine load or
//! thread count.
//!
//! Determinism contract: [`par_map`] output is a pure function of
//! `(items, f)` — identical at any pool size — provided `f` itself is
//! pure. The pool only changes *when* each item runs, never *what* is
//! computed or *where* its result lands.
//!
//! ```
//! use looprag_runtime::par_map;
//! let squares = par_map(4, &[1, 2, 3, 4, 5], |_, x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16, 25]);
//! ```

#![warn(missing_docs)]

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Environment variable overriding the worker-pool size when the
/// configured size is 0 (auto).
pub const THREADS_ENV: &str = "LOOPRAG_THREADS";

/// FNV-1a 64-bit offset basis.
pub const FNV64_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a 64-bit prime.
pub const FNV64_PRIME: u64 = 0x0000_0100_0000_01B3;

/// Chains one FNV-1a 64-bit pass over `bytes` onto a running `state`.
///
/// The hash register starts at `state ^ FNV64_OFFSET`, so
/// `fnv64_fold(0, ..)` is the plain single-shot FNV-1a hash and a
/// non-zero `state` threads an earlier fold's result into the next one
/// (the knowledge base's content fingerprint folds every insertion this
/// way). This is the one shared definition behind the serve layer's
/// per-kernel seeds, the pipeline's target seeds and
/// `KnowledgeBase::state_fingerprint` — their outputs are pinned by
/// unit tests here so the constants cannot drift apart again.
pub fn fnv64_fold(state: u64, bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut h = state ^ FNV64_OFFSET;
    for b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV64_PRIME);
    }
    h
}

/// Single-shot FNV-1a 64-bit hash of `bytes`.
pub fn fnv64(bytes: impl IntoIterator<Item = u8>) -> u64 {
    fnv64_fold(0, bytes)
}

/// Parses a `LOOPRAG_THREADS` value strictly: the only accepted form is
/// a positive integer.
///
/// # Errors
///
/// Returns a descriptive error for non-numeric values and for `0`
/// (which used to be silently indistinguishable from an unset
/// variable; unset the variable instead to get auto sizing).
pub fn parse_threads_env(value: &str) -> Result<usize, String> {
    match value.trim().parse::<usize>() {
        Ok(0) => Err(format!(
            "{THREADS_ENV} must be a positive integer; got 0 \
             (unset the variable for automatic pool sizing)"
        )),
        Ok(n) => Ok(n),
        Err(_) => Err(format!(
            "{THREADS_ENV} must be a positive integer; got {value:?}"
        )),
    }
}

/// Resolves a configured pool size: an explicit `configured > 0` wins,
/// then the `LOOPRAG_THREADS` environment variable, then the machine's
/// available parallelism.
///
/// An invalid `LOOPRAG_THREADS` value (non-numeric or zero) is *not*
/// silently treated as unset: a loud warning is printed to stderr (once
/// per process) before falling back to available parallelism, so a
/// typo'd `LOOPRAG_THREADS=fuor` or `LOOPRAG_THREADS=0` cannot quietly
/// change which pool size an experiment ran at.
pub fn resolve_threads(configured: usize) -> usize {
    if configured > 0 {
        return configured;
    }
    if let Ok(v) = std::env::var(THREADS_ENV) {
        match parse_threads_env(&v) {
            Ok(n) => return n,
            Err(msg) => {
                static WARNED: std::sync::Once = std::sync::Once::new();
                WARNED.call_once(|| {
                    eprintln!(
                        "[looprag-runtime] WARNING: {msg}; falling back to available parallelism"
                    );
                });
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Maps `f` over `items` on a pool of `threads` workers (work-stealing
/// by index) and returns the results in submission order.
///
/// * `threads <= 1` (or a single item) runs strictly sequentially on
///   the calling thread — the path `LOOPRAG_THREADS=1` exercises.
/// * A panic in `f` propagates to the caller once the pool has joined.
/// * Each `f(i, item)` call receives the item's submission index so
///   work can be seeded or labelled deterministically.
pub fn par_map<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    if items.is_empty() {
        return Vec::new();
    }
    let threads = threads.max(1).min(items.len());
    if threads == 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    // scope() joins every worker and re-raises any worker panic, so a
    // panicking `f` cannot silently drop work items.
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= items.len() {
                    break;
                }
                let r = f(i, &items[i]);
                *slots[i].lock().unwrap() = Some(r);
            });
        }
    });
    slots
        .into_iter()
        .map(|m| m.into_inner().unwrap().expect("worker filled every slot"))
        .collect()
}

/// What a per-kernel execution budget counts.
///
/// The default pipeline budget is [`BudgetPolicy::VirtualCost`]: every
/// model call and every candidate test charges a fixed number of units,
/// so the skip/keep decisions are bit-for-bit reproducible on any
/// machine at any thread count.
#[derive(Debug, Clone, PartialEq)]
pub enum BudgetPolicy {
    /// Never exhausts.
    Unlimited,
    /// Deterministic virtual-cost units.
    VirtualCost {
        /// Units available before the budget reports exhaustion.
        limit: u64,
    },
}

impl BudgetPolicy {
    /// The pipeline default: a virtual-cost limit far above what a
    /// normal two-round run spends, standing in for the paper's 90 s
    /// per-kernel generation limit without touching the clock.
    pub fn default_virtual() -> Self {
        BudgetPolicy::VirtualCost { limit: 10_000 }
    }
}

/// A per-kernel execution budget.
///
/// All `charge`/`exhausted` calls must come from the sequential control
/// thread (charges are decided in submission order *before* work fans
/// out to the pool); the type is deliberately not `Sync`.
#[derive(Debug)]
pub struct Budget {
    policy: BudgetPolicy,
    spent: Cell<u64>,
}

impl Budget {
    /// A fresh budget under `policy`.
    pub fn new(policy: BudgetPolicy) -> Self {
        Budget {
            policy,
            spent: Cell::new(0),
        }
    }

    /// Records `units` of spend.
    pub fn charge(&self, units: u64) {
        self.spent.set(self.spent.get().saturating_add(units));
    }

    /// Virtual-cost units charged so far.
    pub fn spent(&self) -> u64 {
        self.spent.get()
    }

    /// Whether the budget is used up.
    pub fn exhausted(&self) -> bool {
        match &self.policy {
            BudgetPolicy::Unlimited => false,
            BudgetPolicy::VirtualCost { limit } => self.spent.get() >= *limit,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv64_pins_the_reference_vectors() {
        // Classic FNV-1a test vectors: the empty input hashes to the
        // offset basis, and "a"/"foobar" match the published values.
        assert_eq!(fnv64(std::iter::empty()), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64("a".bytes()), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv64("foobar".bytes()), 0x85944171f73967e8);
    }

    #[test]
    fn fnv64_fold_pins_the_serve_and_knowledge_recipes() {
        // The serve layer's per-kernel seed: single-shot FNV-1a over the
        // canonical text (pinned against the pre-dedup inline copy).
        let serve_reference = |s: &str| {
            let mut h = 0xcbf2_9ce4_8422_2325u64;
            for b in s.bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
            h
        };
        let text = "for (i = 0; i <= N - 1; i++) A[i] = B[i] + 1.0;\n";
        assert_eq!(fnv64(text.bytes()), serve_reference(text));
        // The knowledge base's state-chained insertion fold (pinned
        // against the pre-dedup inline copy in `looprag-retrieval`).
        let kb_reference = |state: u64, id: usize, t: &str| {
            let mut h = state ^ 0xcbf2_9ce4_8422_2325u64;
            for b in id
                .to_string()
                .bytes()
                .chain([b':'])
                .chain(t.bytes())
                .chain([0u8])
            {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
            h
        };
        let mut want = 0u64;
        let mut got = 0u64;
        for (id, t) in [(0usize, "alpha"), (12, "b"), (1, "2:b")] {
            want = kb_reference(want, id, t);
            got = fnv64_fold(
                got,
                id.to_string()
                    .bytes()
                    .chain([b':'])
                    .chain(t.bytes())
                    .chain([0u8]),
            );
            assert_eq!(got, want, "fold diverged at id {id}");
        }
        // Chaining is not plain concatenation: (1, "ab") != (12, "b").
        let a = fnv64_fold(0, b"1:ab\0".iter().copied());
        let b = fnv64_fold(0, b"12:b\0".iter().copied());
        assert_ne!(a, b);
    }

    #[test]
    fn par_map_preserves_submission_order() {
        let items: Vec<usize> = (0..257).collect();
        let expect: Vec<usize> = items.iter().map(|x| x * 3 + 1).collect();
        for threads in [1, 2, 3, 8, 64] {
            let got = par_map(threads, &items, |i, x| {
                assert_eq!(i, *x, "index must match the item's position");
                x * 3 + 1
            });
            assert_eq!(got, expect, "order broke at {threads} threads");
        }
    }

    #[test]
    fn par_map_empty_and_single() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map(8, &empty, |_, x| *x).is_empty());
        assert_eq!(par_map(8, &[41u32], |_, x| x + 1), vec![42]);
    }

    #[test]
    fn par_map_propagates_worker_panics() {
        let items: Vec<usize> = (0..32).collect();
        let r = std::panic::catch_unwind(|| {
            par_map(4, &items, |_, x| {
                if *x == 17 {
                    panic!("boom");
                }
                *x
            })
        });
        assert!(r.is_err(), "a worker panic must reach the caller");
    }

    #[test]
    fn resolve_explicit_wins() {
        assert_eq!(resolve_threads(3), 3);
        assert!(resolve_threads(0) >= 1);
    }

    #[test]
    fn parse_threads_env_accepts_positive_integers() {
        assert_eq!(parse_threads_env("1"), Ok(1));
        assert_eq!(parse_threads_env("8"), Ok(8));
        assert_eq!(parse_threads_env(" 12 "), Ok(12), "whitespace is trimmed");
    }

    #[test]
    fn parse_threads_env_rejects_zero_and_garbage() {
        for bad in ["0", "", "fuor", "-2", "3.5", "2 threads"] {
            let err = parse_threads_env(bad)
                .expect_err(&format!("{bad:?} must be rejected, not silently ignored"));
            assert!(
                err.contains(THREADS_ENV),
                "error must name the variable: {err}"
            );
        }
        assert!(
            parse_threads_env("0").unwrap_err().contains("unset"),
            "zero's error must point at unsetting the variable"
        );
    }

    #[test]
    fn virtual_budget_exhausts_at_limit() {
        let b = Budget::new(BudgetPolicy::VirtualCost { limit: 3 });
        assert!(!b.exhausted());
        b.charge(2);
        assert!(!b.exhausted());
        b.charge(1);
        assert!(b.exhausted());
        assert_eq!(b.spent(), 3);
    }

    #[test]
    fn unlimited_budget_never_exhausts() {
        let b = Budget::new(BudgetPolicy::Unlimited);
        b.charge(u64::MAX);
        b.charge(u64::MAX); // saturates instead of wrapping
        assert!(!b.exhausted());
    }

    #[test]
    fn pool_runs_workers_concurrently() {
        // A wall-clock-free concurrency proof: four workers each take
        // one item and block until all four have arrived. A pool that
        // accidentally serialized its work items (e.g. a lock around
        // the closure) would leave the first worker waiting alone until
        // the timeout, failing the assertion without hanging the suite.
        use std::sync::Condvar;
        use std::time::Duration;
        const N: usize = 4;
        let arrivals = Mutex::new(0usize);
        let cv = Condvar::new();
        let items = [(); N];
        let results = par_map(N, &items, |_, _| {
            let mut arrived = arrivals.lock().unwrap();
            *arrived += 1;
            cv.notify_all();
            let (guard, timeout) = cv
                .wait_timeout_while(arrived, Duration::from_secs(10), |a| *a < N)
                .unwrap();
            !timeout.timed_out() && *guard >= N
        });
        assert!(
            results.iter().all(|ok| *ok),
            "pool serialized: the {N} workers never overlapped"
        );
    }
}

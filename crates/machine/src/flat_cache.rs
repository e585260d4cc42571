//! The cost engine's private two-level LRU simulator.
//!
//! Behaviourally identical to [`Hierarchy`](crate::Hierarchy) (the
//! reference simulator, which [`crate::estimate_cost_reference`] keeps
//! using), but laid out for the hot path:
//! each level is one flat `Vec<u64>` of `sets × assoc` tags, ordered
//! most recently used *first* within each set, plus a per-set fill
//! count. Set and tag come from shift and mask when the line size and
//! set count are powers of two, and from division otherwise; a
//! most-recently-used check runs before the way scan, and promotion
//! and eviction shift ways in place. Flat arrays also make the
//! steady-state memoizer's snapshot, fingerprint, comparison and
//! restore plain slice operations.

use crate::cache::{CacheGeometry, ServiceLevel};

/// One set-associative LRU level.
#[derive(Debug, Clone)]
pub(crate) struct FlatLevel {
    assoc: usize,
    n_sets: u64,
    line_bytes: u64,
    /// `Some((line_shift, set_bits))` when both the line size and the
    /// set count are powers of two.
    shifts: Option<(u32, u32)>,
    /// `sets × assoc` tags; set `s` owns `tags[s*assoc..(s+1)*assoc]`,
    /// most recently used first. Ways at or past the set's fill count
    /// are unused.
    tags: Vec<u64>,
    /// Valid ways per set.
    fill: Vec<u32>,
}

impl FlatLevel {
    pub(crate) fn new(g: &CacheGeometry) -> FlatLevel {
        let n_sets = g.sets();
        let shifts = (g.line_bytes.is_power_of_two() && n_sets.is_power_of_two())
            .then(|| (g.line_bytes.trailing_zeros(), n_sets.trailing_zeros()));
        FlatLevel {
            assoc: g.assoc,
            n_sets: n_sets as u64,
            line_bytes: g.line_bytes as u64,
            shifts,
            tags: vec![0; n_sets * g.assoc],
            fill: vec![0; n_sets],
        }
    }

    /// The set index and tag of the line holding byte `addr`.
    #[inline]
    fn locate(&self, addr: u64) -> (usize, u64) {
        match self.shifts {
            Some((line_shift, set_bits)) => {
                let line = addr >> line_shift;
                ((line & (self.n_sets - 1)) as usize, line >> set_bits)
            }
            None => {
                let line = addr / self.line_bytes;
                ((line % self.n_sets) as usize, line / self.n_sets)
            }
        }
    }

    /// The offset of byte `addr` within its line.
    #[inline]
    fn line_offset(&self, addr: u64) -> u64 {
        match self.shifts {
            Some(_) => addr & (self.line_bytes - 1),
            None => addr % self.line_bytes,
        }
    }

    /// Accesses the byte address; returns `true` on hit. Misses insert
    /// the line, evicting the least recently used way of a full set.
    #[inline]
    pub(crate) fn access(&mut self, addr: u64) -> bool {
        let (set, tag) = self.locate(addr);
        let fill = &mut self.fill[set];
        match self.assoc {
            4 => lookup::<4>(&mut self.tags, set, fill, tag),
            8 => lookup::<8>(&mut self.tags, set, fill, tag),
            a => lookup_dyn(&mut self.tags[set * a..(set + 1) * a], fill, tag),
        }
    }

    /// Set `set`'s tags, least recently used first (the order of
    /// [`CacheLevel`](crate::CacheLevel)'s tag stacks).
    #[cfg(test)]
    pub(crate) fn lru_order(&self, set: usize) -> Vec<u64> {
        let base = set * self.assoc;
        let mut v = self.tags[base..base + self.fill[set] as usize].to_vec();
        v.reverse();
        v
    }

    fn hash_into(&self, h: u64) -> u64 {
        let h = self.fill.iter().fold(h, |h, f| mix(h, u64::from(*f)));
        self.tags.iter().fold(h, |h, t| mix(h, *t))
    }
}

/// One set's lookup at a compile-time associativity `A`, so the full
/// set — the steady state — gets a fixed-length, unrolled scan and
/// shift (the common 4- and 8-way levels).
#[inline(always)]
fn lookup<const A: usize>(tags: &mut [u64], set: usize, fill: &mut u32, tag: u64) -> bool {
    let ways: &mut [u64; A] = (&mut tags[set * A..(set + 1) * A]).try_into().unwrap();
    if *fill as usize != A {
        return lookup_dyn(ways, fill, tag);
    }
    match ways.iter().position(|t| *t == tag) {
        Some(0) => true,
        Some(pos) => {
            shift_down(&mut ways[..=pos]);
            ways[0] = tag;
            true
        }
        None => {
            shift_down(ways);
            ways[0] = tag;
            false
        }
    }
}

/// One set's lookup: `ways` is the set's slice, its first `fill` ways
/// valid and most recently used first.
#[inline(always)]
fn lookup_dyn(ways: &mut [u64], fill: &mut u32, tag: u64) -> bool {
    let n = *fill as usize;
    if n == 0 {
        ways[0] = tag;
        *fill = 1;
        return false;
    }
    if ways[0] == tag {
        return true;
    }
    if let Some(i) = ways[1..n].iter().position(|t| *t == tag) {
        shift_down(&mut ways[..i + 2]);
        ways[0] = tag;
        return true;
    }
    let n = (n + 1).min(ways.len());
    shift_down(&mut ways[..n]);
    ways[0] = tag;
    *fill = n as u32;
    false
}

/// Moves `ways[..len - 1]` down one place, overwriting the last way. An
/// explicit loop: sets hold a handful of ways, too few for `memmove`.
#[inline]
fn shift_down(ways: &mut [u64]) {
    for j in (1..ways.len()).rev() {
        ways[j] = ways[j - 1];
    }
}

/// One step of an Fx-style multiplicative fold: a fast, deterministic
/// prefilter (a collision costs a full comparison, never correctness).
#[inline]
fn mix(h: u64, x: u64) -> u64 {
    (h.rotate_left(5) ^ x).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95)
}

/// Snapshot of a [`FlatHierarchy`]'s tag arrays, fill counts and
/// counters, taken by the steady-state memoizer at iteration
/// boundaries.
#[derive(Debug, Clone)]
pub(crate) struct FlatState {
    l1: (Vec<u64>, Vec<u32>),
    l2: (Vec<u64>, Vec<u32>),
    pub(crate) l1_hits: u64,
    pub(crate) l2_hits: u64,
    pub(crate) mem_accesses: u64,
}

/// The two-level hierarchy plus its service-level counters, which are
/// also the cost report's `l1_hits` / `l2_hits` / `mem_accesses`.
#[derive(Debug, Clone)]
pub(crate) struct FlatHierarchy {
    l1: FlatLevel,
    l2: FlatLevel,
    pub(crate) l1_hits: u64,
    pub(crate) l2_hits: u64,
    pub(crate) mem_accesses: u64,
}

impl FlatHierarchy {
    pub(crate) fn new(l1: &CacheGeometry, l2: &CacheGeometry) -> FlatHierarchy {
        FlatHierarchy {
            l1: FlatLevel::new(l1),
            l2: FlatLevel::new(l2),
            l1_hits: 0,
            l2_hits: 0,
            mem_accesses: 0,
        }
    }

    /// Simulates one access, counting where it was served.
    #[inline]
    pub(crate) fn access(&mut self, addr: u64) -> ServiceLevel {
        if self.l1.access(addr) {
            self.l1_hits += 1;
            ServiceLevel::L1
        } else if self.l2.access(addr) {
            self.l2_hits += 1;
            ServiceLevel::L2
        } else {
            self.mem_accesses += 1;
            ServiceLevel::Memory
        }
    }

    /// The L1 line size in bytes.
    pub(crate) fn l1_line_bytes(&self) -> u64 {
        self.l1.line_bytes
    }

    /// The offset of byte `addr` within its L1 line.
    #[inline]
    pub(crate) fn l1_line_offset(&self, addr: u64) -> u64 {
        self.l1.line_offset(addr)
    }

    /// True when no L1 set receives more distinct lines from `addrs`
    /// than its associativity. An access sequence with that property
    /// leaves every line it touched resident in L1, whatever the state
    /// it started from. `lines` is scratch space.
    pub(crate) fn l1_holds_all(
        &self,
        addrs: impl ExactSizeIterator<Item = u64>,
        lines: &mut Vec<(usize, u64)>,
    ) -> bool {
        let assoc = self.l1.assoc;
        if addrs.len() <= assoc {
            return true;
        }
        lines.clear();
        for a in addrs {
            let line = self.l1.locate(a);
            if !lines.contains(&line) {
                lines.push(line);
            }
        }
        // A handful of distinct lines: quadratic counting beats sorting.
        lines.len() <= assoc
            || lines
                .iter()
                .all(|(set, _)| lines.iter().filter(|(s, _)| s == set).count() <= assoc)
    }

    /// Accesses served so far, at every level.
    pub(crate) fn accesses(&self) -> u64 {
        self.l1_hits + self.l2_hits + self.mem_accesses
    }

    /// Fingerprint of both levels' tag arrays and fill counts (not the
    /// counters).
    pub(crate) fn tag_hash(&self) -> u64 {
        self.l2.hash_into(self.l1.hash_into(0))
    }

    /// Full state snapshot.
    pub(crate) fn state(&self) -> FlatState {
        FlatState {
            l1: (self.l1.tags.clone(), self.l1.fill.clone()),
            l2: (self.l2.tags.clone(), self.l2.fill.clone()),
            l1_hits: self.l1_hits,
            l2_hits: self.l2_hits,
            mem_accesses: self.mem_accesses,
        }
    }

    /// True when the live tags and fill counts equal the snapshot's.
    pub(crate) fn tags_eq(&self, s: &FlatState) -> bool {
        self.l1.tags == s.l1.0
            && self.l1.fill == s.l1.1
            && self.l2.tags == s.l2.0
            && self.l2.fill == s.l2.1
    }

    /// Restores the tags and fill counts from a snapshot, leaving the
    /// counters alone (the memoizer advances them arithmetically).
    pub(crate) fn restore_tags(&mut self, s: &FlatState) {
        self.l1.tags.copy_from_slice(&s.l1.0);
        self.l1.fill.copy_from_slice(&s.l1.1);
        self.l2.tags.copy_from_slice(&s.l2.0);
        self.l2.fill.copy_from_slice(&s.l2.1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::{CacheLevel, Hierarchy};
    use proptest::prelude::*;

    fn geometry(sets: usize, line_bytes: usize, assoc: usize) -> CacheGeometry {
        CacheGeometry {
            size_bytes: sets * line_bytes * assoc,
            line_bytes,
            assoc,
        }
    }

    /// Addresses clustered into a small window, so sets fill, hit and
    /// evict often.
    fn stream() -> impl Strategy<Value = Vec<u64>> {
        prop::collection::vec(0u64..16_384, 1..600)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// One level against the reference `CacheLevel`, power-of-two
        /// or not: the same hit/miss sequence, counters and final
        /// per-set LRU contents.
        #[test]
        fn flat_level_matches_reference(
            sets in 1usize..20,
            line_bytes in prop::sample::select(vec![1usize, 8, 24, 32, 64, 96]),
            assoc in 1usize..9,
            addrs in stream(),
        ) {
            let g = geometry(sets, line_bytes, assoc);
            let mut flat = FlatLevel::new(&g);
            let mut reference = CacheLevel::new(g.clone());
            let (mut hits, mut misses) = (0u64, 0u64);
            for (i, a) in addrs.iter().enumerate() {
                let hit = flat.access(*a);
                prop_assert_eq!(hit, reference.access(*a), "access {} (addr {})", i, a);
                if hit { hits += 1 } else { misses += 1 }
            }
            prop_assert_eq!((hits, misses), (reference.hits(), reference.misses()));
            for s in 0..g.sets() {
                prop_assert_eq!(flat.lru_order(s), reference.set_tags(s).to_vec(), "set {}", s);
            }
        }

        /// The two-level hierarchy against the reference `Hierarchy`:
        /// the same service-level sequence and counters, and the same
        /// final contents at both levels.
        #[test]
        fn flat_hierarchy_matches_reference(
            l1_sets in 1usize..12,
            l2_sets in 1usize..40,
            assoc in 1usize..5,
            addrs in stream(),
        ) {
            let (g1, g2) = (geometry(l1_sets, 64, assoc), geometry(l2_sets, 64, 2 * assoc));
            let mut flat = FlatHierarchy::new(&g1, &g2);
            let mut reference = Hierarchy::new(g1.clone(), g2.clone());
            for (i, a) in addrs.iter().enumerate() {
                prop_assert_eq!(flat.access(*a), reference.access(*a), "access {}", i);
            }
            prop_assert_eq!(
                (flat.l1_hits, flat.l2_hits, flat.mem_accesses),
                (reference.l1.hits(), reference.l2.hits(), reference.l2.misses())
            );
            prop_assert_eq!(flat.accesses(), addrs.len() as u64);
            for s in 0..g1.sets() {
                prop_assert_eq!(flat.l1.lru_order(s), reference.l1.set_tags(s).to_vec());
            }
            for s in 0..g2.sets() {
                prop_assert_eq!(flat.l2.lru_order(s), reference.l2.set_tags(s).to_vec());
            }
        }
    }

    #[test]
    fn snapshot_restore_round_trips() {
        let g = geometry(4, 64, 2);
        let mut h = FlatHierarchy::new(&g, &geometry(8, 64, 4));
        for a in [0u64, 64, 512, 4096, 0, 8192] {
            h.access(a);
        }
        let snap = h.state();
        let hash = h.tag_hash();
        assert!(h.tags_eq(&snap));
        h.access(1 << 20);
        assert!(!h.tags_eq(&snap));
        h.restore_tags(&snap);
        assert!(h.tags_eq(&snap));
        assert_eq!(h.tag_hash(), hash);
    }
}

//! Set-associative LRU cache simulation: the reference simulator.
//!
//! [`CacheLevel`] and [`Hierarchy`] are the straightforward
//! `Vec<Vec<u64>>` tag-stack model that
//! [`estimate_cost_reference`](crate::estimate_cost_reference) runs
//! on. The cost engine
//! simulates on its own flat layout (`flat_cache`), so the engine-vs-
//! reference pin also cross-checks the two simulators.

/// Geometry of one cache level.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheGeometry {
    /// Total capacity in bytes.
    pub size_bytes: usize,
    /// Line size in bytes.
    pub line_bytes: usize,
    /// Associativity (ways per set).
    pub assoc: usize,
}

impl CacheGeometry {
    /// Number of sets.
    pub fn sets(&self) -> usize {
        (self.size_bytes / self.line_bytes / self.assoc).max(1)
    }
}

/// One cache level with LRU replacement.
#[derive(Debug, Clone)]
pub struct CacheLevel {
    geometry: CacheGeometry,
    /// Per-set tag stacks, most recently used last.
    sets: Vec<Vec<u64>>,
    hits: u64,
    misses: u64,
}

impl CacheLevel {
    /// Builds an empty cache with the given geometry.
    pub fn new(geometry: CacheGeometry) -> Self {
        let sets = vec![Vec::new(); geometry.sets()];
        CacheLevel {
            geometry,
            sets,
            hits: 0,
            misses: 0,
        }
    }

    /// Accesses the byte address; returns `true` on hit. Misses insert the
    /// line, evicting the least recently used way if needed.
    pub fn access(&mut self, addr: u64) -> bool {
        let line = addr / self.geometry.line_bytes as u64;
        let n_sets = self.sets.len() as u64;
        let set = (line % n_sets) as usize;
        let tag = line / n_sets;
        let ways = &mut self.sets[set];
        if let Some(pos) = ways.iter().position(|t| *t == tag) {
            ways.remove(pos);
            ways.push(tag);
            self.hits += 1;
            true
        } else {
            if ways.len() == self.geometry.assoc {
                ways.remove(0);
            }
            ways.push(tag);
            self.misses += 1;
            false
        }
    }

    /// Hit count so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Miss count so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Resets contents and counters.
    pub fn reset(&mut self) {
        for s in &mut self.sets {
            s.clear();
        }
        self.hits = 0;
        self.misses = 0;
    }

    /// Set `set`'s tag stack, least recently used first.
    #[cfg(test)]
    pub(crate) fn set_tags(&self, set: usize) -> &[u64] {
        &self.sets[set]
    }
}

/// A two-level cache hierarchy returning the service level of each access.
#[derive(Debug, Clone)]
pub struct Hierarchy {
    /// First level.
    pub l1: CacheLevel,
    /// Second level.
    pub l2: CacheLevel,
}

/// Where an access was served from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServiceLevel {
    /// L1 hit.
    L1,
    /// L1 miss, L2 hit.
    L2,
    /// Miss in both levels; served from memory.
    Memory,
}

impl Hierarchy {
    /// Builds a hierarchy from two geometries.
    pub fn new(l1: CacheGeometry, l2: CacheGeometry) -> Self {
        Hierarchy {
            l1: CacheLevel::new(l1),
            l2: CacheLevel::new(l2),
        }
    }

    /// Simulates one access.
    pub fn access(&mut self, addr: u64) -> ServiceLevel {
        if self.l1.access(addr) {
            ServiceLevel::L1
        } else if self.l2.access(addr) {
            ServiceLevel::L2
        } else {
            ServiceLevel::Memory
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> CacheGeometry {
        CacheGeometry {
            size_bytes: 256,
            line_bytes: 64,
            assoc: 2,
        }
    }

    #[test]
    fn sequential_reuse_hits_within_line() {
        let mut c = CacheLevel::new(small());
        assert!(!c.access(0));
        assert!(c.access(8)); // same 64-byte line
        assert!(c.access(56));
        assert!(!c.access(64)); // next line
        assert_eq!(c.hits(), 2);
        assert_eq!(c.misses(), 2);
    }

    #[test]
    fn lru_evicts_oldest_way() {
        // 256B / 64B lines / 2-way => 2 sets; lines 0,2,4 map to set 0.
        let mut c = CacheLevel::new(small());
        c.access(0); // line 0 -> set 0
        c.access(128); // line 2 -> set 0
        c.access(256); // line 4 -> set 0, evicts line 0
        assert!(!c.access(0), "line 0 must have been evicted");
        assert!(c.access(256));
    }

    #[test]
    fn lru_refresh_on_hit() {
        let mut c = CacheLevel::new(small());
        c.access(0);
        c.access(128);
        c.access(0); // refresh line 0
        c.access(256); // evicts line 2 (LRU), not line 0
        assert!(c.access(0));
        assert!(!c.access(128));
    }

    #[test]
    fn hierarchy_escalates() {
        let mut h = Hierarchy::new(small(), {
            CacheGeometry {
                size_bytes: 1024,
                line_bytes: 64,
                assoc: 4,
            }
        });
        assert_eq!(h.access(0), ServiceLevel::Memory);
        assert_eq!(h.access(0), ServiceLevel::L1);
        // Touch enough lines to evict line 0 from tiny L1 but not from L2.
        for k in 1..5 {
            h.access(k * 64);
        }
        assert_eq!(h.access(0), ServiceLevel::L2);
    }
}

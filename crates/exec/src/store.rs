//! Array storage for one memory image.
//!
//! The store is a dense `Vec<ArrayData>` indexed by a per-store array
//! index, with a name→index map. It is what the reference walker runs
//! against and what [`crate::BatchStore::lane_store`] extracts from a
//! lane; the lane engine itself runs on [`crate::BatchStore`].

use looprag_ir::{checked_elements, InitKind, Program};
use std::collections::HashMap;
use std::fmt;

/// One test input: an initialization per (non-local) array, applied over
/// a store built by `from_program`. Arrays it does not name keep the
/// program's own inits; names the store does not hold are ignored.
pub type InputSpec = Vec<(String, InitKind)>;

/// One allocated array: concrete extents plus row-major `f64` data.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrayData {
    /// Concrete extent of each dimension (empty for scalars).
    pub extents: Vec<i64>,
    /// Row-major element data; scalars hold exactly one element.
    pub data: Vec<f64>,
}

impl ArrayData {
    /// Allocates an array of the given extents, zero-filled.
    ///
    /// # Panics
    ///
    /// Panics if the element count overflows or does not fit a
    /// `Vec<f64>`; [`looprag_ir::validate`] rejects such declarations.
    pub fn zeroed(extents: Vec<i64>) -> Self {
        let len = element_count(&extents, 1);
        ArrayData {
            extents,
            data: vec![0.0; len],
        }
    }

    /// Fills elements from an [`InitKind`] pattern.
    pub fn fill(&mut self, init: &InitKind) {
        for (i, v) in self.data.iter_mut().enumerate() {
            *v = init.value_at(i);
        }
    }

    /// Flattens a multi-dimensional index, or `None` when out of bounds.
    pub fn flatten(&self, indexes: &[i64]) -> Option<usize> {
        flatten_extents(&self.extents, indexes)
    }
}

/// [`checked_elements`], panicking with the extents when they are too
/// large to allocate — the one sizing rule of [`ArrayData::zeroed`] and
/// [`crate::BatchStore`].
pub(crate) fn element_count(extents: &[i64], copies: usize) -> usize {
    checked_elements(extents, copies).unwrap_or_else(|| {
        panic!("{copies} copies of an array of extents {extents:?} are too large to allocate")
    })
}

/// Row-major flattening with bounds checks — the single source of truth
/// for subscript semantics, shared by [`ArrayData::flatten`] and the
/// batched store ([`crate::BatchStore`]).
pub(crate) fn flatten_extents(extents: &[i64], indexes: &[i64]) -> Option<usize> {
    if indexes.len() != extents.len() {
        return None;
    }
    let mut flat: i64 = 0;
    for (ix, ext) in indexes.iter().zip(extents) {
        if *ix < 0 || ix >= ext {
            return None;
        }
        flat = flat * ext + ix;
    }
    Some(flat as usize)
}

/// A named collection of arrays — the memory image a program runs against.
///
/// Equality is name-keyed and order-independent: two stores are equal when
/// they hold the same arrays under the same names, regardless of insertion
/// order.
#[derive(Debug, Clone, Default)]
pub struct ArrayStore {
    names: Vec<String>,
    datas: Vec<ArrayData>,
    index: HashMap<String, usize>,
}

impl ArrayStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocates and initializes every non-local array declared by `p`,
    /// using the program's init patterns and default parameter values.
    ///
    /// # Panics
    ///
    /// Panics if an array extent references an undeclared parameter or
    /// an array is too large to allocate; run [`looprag_ir::validate`]
    /// first.
    pub fn from_program(p: &Program) -> Self {
        let env = p.param_env();
        let mut store = ArrayStore::new();
        for decl in &p.arrays {
            let extents = decl
                .extents(&env)
                .unwrap_or_else(|sym| panic!("unbound parameter '{sym}' in array extents"));
            let mut data = ArrayData::zeroed(extents);
            if !decl.local {
                data.fill(&p.init_for(&decl.name));
            }
            store.insert(decl.name.clone(), data);
        }
        store
    }

    /// Inserts or replaces an array.
    pub fn insert(&mut self, name: impl Into<String>, data: ArrayData) {
        let name = name.into();
        match self.index.get(&name) {
            Some(&i) => self.datas[i] = data,
            None => {
                self.index.insert(name.clone(), self.datas.len());
                self.names.push(name);
                self.datas.push(data);
            }
        }
    }

    /// Number of arrays held.
    pub fn len(&self) -> usize {
        self.datas.len()
    }

    /// True when the store holds no arrays.
    pub fn is_empty(&self) -> bool {
        self.datas.is_empty()
    }

    /// Resolves a name to its dense store index.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.index.get(name).copied()
    }

    /// The name of the array at `idx`.
    ///
    /// # Panics
    ///
    /// Panics when `idx` is out of range.
    pub fn name_at(&self, idx: usize) -> &str {
        &self.names[idx]
    }

    /// The array at `idx` (see [`ArrayStore::index_of`]).
    ///
    /// # Panics
    ///
    /// Panics when `idx` is out of range.
    pub fn at(&self, idx: usize) -> &ArrayData {
        &self.datas[idx]
    }

    /// The array at `idx`, mutably.
    ///
    /// # Panics
    ///
    /// Panics when `idx` is out of range.
    pub fn at_mut(&mut self, idx: usize) -> &mut ArrayData {
        &mut self.datas[idx]
    }

    /// Looks an array up.
    pub fn get(&self, name: &str) -> Option<&ArrayData> {
        self.index.get(name).map(|&i| &self.datas[i])
    }

    /// Looks an array up mutably.
    pub fn get_mut(&mut self, name: &str) -> Option<&mut ArrayData> {
        match self.index.get(name) {
            Some(&i) => Some(&mut self.datas[i]),
            None => None,
        }
    }

    /// Iterates over `(name, data)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &ArrayData)> {
        let mut order: Vec<usize> = (0..self.names.len()).collect();
        order.sort_by(|&a, &b| self.names[a].cmp(&self.names[b]));
        order
            .into_iter()
            .map(|i| (self.names[i].as_str(), &self.datas[i]))
    }

    /// Order-independent checksum over the named arrays (the paper's quick
    /// differential-testing filter).
    pub fn checksum(&self, names: &[String]) -> f64 {
        let mut acc = 0.0f64;
        for n in names {
            if let Some(a) = self.get(n) {
                for v in &a.data {
                    if v.is_finite() {
                        acc += v;
                    } else {
                        // Poison the checksum so non-finite outputs never
                        // compare equal by accident.
                        return f64::NAN;
                    }
                }
            }
        }
        acc
    }

    /// Element-wise comparison of the named arrays against `other` with
    /// relative tolerance `rel_eps`. Returns the first mismatch as
    /// `(array, flat_index, self_value, other_value)`.
    pub fn element_diff(
        &self,
        other: &ArrayStore,
        names: &[String],
        rel_eps: f64,
    ) -> Option<(String, usize, f64, f64)> {
        for n in names {
            let (Some(a), Some(b)) = (self.get(n), other.get(n)) else {
                return Some((n.clone(), 0, f64::NAN, f64::NAN));
            };
            if a.data.len() != b.data.len() {
                return Some((n.clone(), 0, a.data.len() as f64, b.data.len() as f64));
            }
            for (i, (x, y)) in a.data.iter().zip(&b.data).enumerate() {
                let close = if x.is_finite() && y.is_finite() {
                    let scale = x.abs().max(y.abs()).max(1.0);
                    (x - y).abs() <= rel_eps * scale
                } else {
                    x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan())
                };
                if !close {
                    return Some((n.clone(), i, *x, *y));
                }
            }
        }
        None
    }
}

impl PartialEq for ArrayStore {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len()
            && self
                .names
                .iter()
                .zip(&self.datas)
                .all(|(name, data)| other.get(name) == Some(data))
    }
}

impl fmt::Display for ArrayStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (name, a) in self.iter() {
            writeln!(f, "{name}{:?}: {} elements", a.extents, a.data.len())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "too large to allocate")]
    fn oversized_extents_panic_descriptively() {
        ArrayData::zeroed(vec![4_000_000_000; 3]);
    }

    #[test]
    fn flatten_row_major() {
        let a = ArrayData::zeroed(vec![3, 4]);
        assert_eq!(a.flatten(&[0, 0]), Some(0));
        assert_eq!(a.flatten(&[1, 0]), Some(4));
        assert_eq!(a.flatten(&[2, 3]), Some(11));
        assert_eq!(a.flatten(&[3, 0]), None);
        assert_eq!(a.flatten(&[0, -1]), None);
        assert_eq!(a.flatten(&[0]), None);
    }

    #[test]
    fn scalar_has_one_element() {
        let a = ArrayData::zeroed(vec![]);
        assert_eq!(a.data.len(), 1);
        assert_eq!(a.flatten(&[]), Some(0));
    }

    #[test]
    fn checksum_poisons_on_nan() {
        let mut s = ArrayStore::new();
        let mut a = ArrayData::zeroed(vec![2]);
        a.data[0] = f64::INFINITY;
        s.insert("A", a);
        assert!(s.checksum(&["A".to_string()]).is_nan());
    }

    #[test]
    fn element_diff_finds_mismatch() {
        let mut s1 = ArrayStore::new();
        let mut s2 = ArrayStore::new();
        let mut a = ArrayData::zeroed(vec![4]);
        s1.insert("A", a.clone());
        a.data[2] = 1.0;
        s2.insert("A", a);
        let d = s1.element_diff(&s2, &["A".to_string()], 1e-9).unwrap();
        assert_eq!(d.1, 2);
        assert!(s1
            .element_diff(&s1.clone(), &["A".to_string()], 1e-9)
            .is_none());
    }

    #[test]
    fn element_diff_tolerates_rounding() {
        let mut s1 = ArrayStore::new();
        let mut s2 = ArrayStore::new();
        let mut a = ArrayData::zeroed(vec![1]);
        a.data[0] = 1.0;
        s1.insert("A", a.clone());
        a.data[0] = 1.0 + 1e-12;
        s2.insert("A", a);
        assert!(s1.element_diff(&s2, &["A".to_string()], 1e-9).is_none());
    }

    #[test]
    fn dense_indexing_round_trips() {
        let mut s = ArrayStore::new();
        s.insert("B", ArrayData::zeroed(vec![2]));
        s.insert("A", ArrayData::zeroed(vec![3]));
        let ia = s.index_of("A").unwrap();
        let ib = s.index_of("B").unwrap();
        assert_eq!(s.name_at(ia), "A");
        assert_eq!(s.at(ia).data.len(), 3);
        assert_eq!(s.at(ib).data.len(), 2);
        s.at_mut(ia).data[1] = 7.0;
        assert_eq!(s.get("A").unwrap().data[1], 7.0);
        // Replacement keeps the index stable.
        s.insert("A", ArrayData::zeroed(vec![5]));
        assert_eq!(s.index_of("A"), Some(ia));
        assert_eq!(s.at(ia).data.len(), 5);
    }

    #[test]
    fn equality_is_insertion_order_independent() {
        let mut s1 = ArrayStore::new();
        let mut s2 = ArrayStore::new();
        s1.insert("A", ArrayData::zeroed(vec![2]));
        s1.insert("B", ArrayData::zeroed(vec![3]));
        s2.insert("B", ArrayData::zeroed(vec![3]));
        s2.insert("A", ArrayData::zeroed(vec![2]));
        assert_eq!(s1, s2);
        s2.at_mut(0).data[0] = 1.0;
        assert_ne!(s1, s2);
    }
}

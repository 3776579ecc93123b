//! [`BitSet`]: a dense bit set over the e-graph's slot space.
//!
//! The extractors' on-stack sets and the ILP encoder's and reducer's
//! tables all index the same dense slot space
//! ([`EGraph::slot_index`](crate::EGraph::slot_index)), so the set type
//! lives beside the slot tables it indexes.
//!
//! A bit set is the form for a set that is dense, or that is one of a few.
//! It is not the form for *one set per class* when each holds a sliver of
//! the slots: the DAG extractor's per-class reach sets hold 0.15–0.5 % of
//! them on the big benchmark e-graphs and are sorted `u32` lists (see
//! [`DagExtractor`](crate::DagExtractor)) — a list is the smaller form
//! below 1/32 density. Nor for a reachability closure: the cycle
//! pre-filter's descendants map was one row of these per class (n² bits)
//! and is now a snapshot of the class graph with a component order.

/// A dense bit set over e-class indices. The default is the empty set of
/// capacity zero.
#[derive(Debug, Clone, Default)]
pub struct BitSet {
    words: Vec<u64>,
}

impl BitSet {
    /// Creates a bit set able to hold `n` bits, all clear.
    pub fn new(n: usize) -> Self {
        BitSet {
            words: vec![0; n.div_ceil(64)],
        }
    }

    /// Sets bit `i`. Returns true if it was newly set.
    pub fn insert(&mut self, i: usize) -> bool {
        let (w, b) = (i / 64, i % 64);
        let was = self.words[w] & (1 << b) != 0;
        self.words[w] |= 1 << b;
        !was
    }

    /// True if bit `i` is set.
    pub fn contains(&self, i: usize) -> bool {
        let (w, b) = (i / 64, i % 64);
        self.words[w] & (1 << b) != 0
    }

    /// Unions `other` into `self`; returns true if anything changed.
    pub fn union_with(&mut self, other: &BitSet) -> bool {
        let mut changed = false;
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            let new = *a | *b;
            if new != *a {
                *a = new;
                changed = true;
            }
        }
        changed
    }

    /// Intersects `other` into `self`; returns true if anything changed.
    pub fn intersect_with(&mut self, other: &BitSet) -> bool {
        let mut changed = false;
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            let new = *a & *b;
            if new != *a {
                *a = new;
                changed = true;
            }
        }
        changed
    }

    /// True if every bit set in `self` is also set in `other`.
    pub fn is_subset(&self, other: &BitSet) -> bool {
        self.words
            .iter()
            .zip(&other.words)
            .all(|(a, b)| a & !b == 0)
    }

    /// Number of set bits.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Clears every bit, keeping the allocation.
    pub fn clear(&mut self) {
        self.words.iter_mut().for_each(|w| *w = 0);
    }

    /// Iterates over the indices of set bits in ascending order.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &word)| {
            let mut rest = word;
            std::iter::from_fn(move || {
                if rest == 0 {
                    return None;
                }
                let b = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                Some(wi * 64 + b)
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_count() {
        let mut s = BitSet::new(130);
        assert!(s.insert(0));
        assert!(s.insert(64));
        assert!(s.insert(129));
        assert!(!s.insert(64));
        assert!(s.contains(129));
        assert!(!s.contains(1));
        assert_eq!(s.count(), 3);
    }

    #[test]
    fn intersect_and_subset() {
        let mut a = BitSet::new(130);
        let mut b = BitSet::new(130);
        for i in [1, 64, 129] {
            a.insert(i);
        }
        for i in [1, 64] {
            b.insert(i);
        }
        assert!(b.is_subset(&a));
        assert!(!a.is_subset(&b));
        assert!(a.intersect_with(&b));
        assert!(!a.intersect_with(&b));
        assert_eq!(a.iter_ones().collect::<Vec<_>>(), vec![1, 64]);
        assert!(a.is_subset(&b) && b.is_subset(&a));
    }

    #[test]
    fn union_and_iter() {
        let mut a = BitSet::new(100);
        let mut b = BitSet::new(100);
        a.insert(3);
        b.insert(3);
        b.insert(70);
        assert!(a.union_with(&b));
        assert!(!a.union_with(&b));
        assert_eq!(a.iter_ones().collect::<Vec<_>>(), vec![3, 70]);
        a.clear();
        assert_eq!(a.count(), 0);
        assert_eq!(a.iter_ones().count(), 0);
    }
}

//! A union-find (disjoint-set) data structure over [`Id`]s.
//!
//! The e-graph uses this to maintain the equivalence relation over
//! e-classes. Union by size with path compression gives effectively
//! constant-time `find`.

use crate::Id;

/// A disjoint-set forest over densely allocated [`Id`]s.
///
/// New sets are created with [`UnionFind::make_set`]; two sets are merged
/// with [`UnionFind::union`], which returns the canonical representative
/// chosen for the merged set (the root of the larger set).
///
/// # Examples
///
/// ```
/// use tensat_egraph::UnionFind;
/// let mut uf = UnionFind::default();
/// let a = uf.make_set();
/// let b = uf.make_set();
/// assert_ne!(uf.find(a), uf.find(b));
/// let root = uf.union(a, b);
/// assert_eq!(uf.find(a), root);
/// assert_eq!(uf.find(b), root);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct UnionFind {
    parents: Vec<Id>,
    sizes: Vec<u32>,
}

impl UnionFind {
    /// Creates an empty union-find.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a fresh singleton set and returns its [`Id`].
    pub fn make_set(&mut self) -> Id {
        let id = Id::from(self.parents.len());
        self.parents.push(id);
        self.sizes.push(1);
        id
    }

    /// The total number of ids ever created (not the number of sets).
    pub fn size(&self) -> usize {
        self.parents.len()
    }

    /// Releases the spare capacity of the parent and size tables.
    pub(crate) fn shrink_to_fit(&mut self) {
        self.parents.shrink_to_fit();
        self.sizes.shrink_to_fit();
    }

    #[inline]
    fn parent(&self, id: Id) -> Id {
        self.parents[usize::from(id)]
    }

    /// Finds the canonical representative of the set containing `id`,
    /// without path compression.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not created by this union-find.
    #[inline]
    pub fn find(&self, mut id: Id) -> Id {
        assert!(
            usize::from(id) < self.parents.len(),
            "id {id:?} out of bounds for union-find of size {}",
            self.parents.len()
        );
        while self.parent(id) != id {
            id = self.parent(id);
        }
        id
    }

    /// Finds the canonical representative, compressing paths along the way.
    pub fn find_mut(&mut self, mut id: Id) -> Id {
        let root = self.find(id);
        // Path compression: point every node on the path directly at the root.
        while self.parent(id) != root {
            let next = self.parent(id);
            self.parents[usize::from(id)] = root;
            id = next;
        }
        root
    }

    /// Merges the sets containing `a` and `b`, returning the canonical
    /// representative of the merged set. Union by size: the larger set's
    /// root wins.
    pub fn union(&mut self, a: Id, b: Id) -> Id {
        let a = self.find_mut(a);
        let b = self.find_mut(b);
        if a == b {
            return a;
        }
        let (root, child) = if self.sizes[usize::from(a)] >= self.sizes[usize::from(b)] {
            (a, b)
        } else {
            (b, a)
        };
        self.parents[usize::from(child)] = root;
        self.sizes[usize::from(root)] += self.sizes[usize::from(child)];
        root
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(n: usize) -> (UnionFind, Vec<Id>) {
        let mut uf = UnionFind::new();
        let ids = (0..n).map(|_| uf.make_set()).collect();
        (uf, ids)
    }

    #[test]
    fn singletons_are_their_own_roots() {
        let (uf, ids) = ids(10);
        for &id in &ids {
            assert_eq!(uf.find(id), id);
        }
    }

    #[test]
    fn union_merges_sets() {
        let (mut uf, ids) = ids(6);
        uf.union(ids[0], ids[1]);
        uf.union(ids[2], ids[3]);
        uf.union(ids[0], ids[2]);
        assert_eq!(uf.find(ids[1]), uf.find(ids[3]));
        assert_ne!(uf.find(ids[1]), uf.find(ids[4]));
        assert_ne!(uf.find(ids[4]), uf.find(ids[5]));
    }

    #[test]
    fn union_is_idempotent() {
        let (mut uf, ids) = ids(2);
        let r1 = uf.union(ids[0], ids[1]);
        let r2 = uf.union(ids[0], ids[1]);
        assert_eq!(r1, r2);
        assert_eq!(uf.find(ids[0]), uf.find(ids[1]));
    }

    #[test]
    fn union_by_size_keeps_bigger_root() {
        let (mut uf, ids) = ids(5);
        // Build a set of size 3 rooted somewhere among {0,1,2}.
        uf.union(ids[0], ids[1]);
        let big_root = uf.union(ids[0], ids[2]);
        // Singleton 3 joins: the big root must remain canonical.
        let root = uf.union(ids[3], ids[0]);
        assert_eq!(root, big_root);
    }

    #[test]
    fn find_mut_compresses_paths() {
        let (mut uf, ids) = ids(64);
        for w in ids.windows(2) {
            uf.union(w[0], w[1]);
        }
        let root = uf.find(ids[0]);
        for &id in &ids {
            assert_eq!(uf.find_mut(id), root);
        }
        // After compression every element points directly at the root.
        for &id in &ids {
            assert_eq!(uf.parent(id), root);
        }
    }

    #[test]
    #[should_panic]
    fn find_out_of_bounds_panics() {
        let (uf, _) = ids(1);
        let _ = uf.find(Id::from(5usize));
    }
}

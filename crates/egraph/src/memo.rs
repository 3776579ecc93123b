//! The e-graph's memo (hashcons): an open-addressing table of node-table
//! ids, keyed by the e-node each id names.
//!
//! A bucket holds a raw id `i` of the node table, and its key is
//! `nodes[i]`: a probe hashes the query e-node and compares it with the
//! table entries it meets, so the e-graph stores no second copy of an
//! e-node — 4 bytes per bucket where a `HashMap<L, Id>` took 41. Linear
//! probing over a power-of-two bucket vector keeps the load, tombstones
//! included, at most 3/4. No hash is stored: a rehash hashes every held
//! entry again. The hasher has a fixed key, so which id the table holds
//! for an e-node and the order of [`Memo::ids`] repeat from one process to
//! the next.
//!
//! The caller keeps one rule: an entry the table holds is never rewritten
//! in place. Remove it under its current form, rewrite it, then insert the
//! id again — a held entry rewritten in place sits on the probe chain of
//! its old hash, where a lookup of its new form misses it.

use crate::{Id, Language};
use std::hash::Hasher;

/// An unused bucket: it ends every probe chain through it.
const EMPTY: u32 = u32::MAX;
/// A bucket whose id was removed: probes pass over it, inserts reuse it.
const TOMBSTONE: u32 = u32::MAX - 1;
/// The bucket count of the first allocation.
const MIN_BUCKETS: usize = 8;

/// A hash set of node-table ids whose members are compared by the e-nodes
/// they name. Every method takes the node table the ids index.
#[derive(Clone, Default)]
pub(crate) struct Memo {
    buckets: Vec<u32>,
    len: usize,
    tombstones: usize,
}

impl Memo {
    /// The number of ids held.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The held ids, in bucket order.
    pub(crate) fn ids(&self) -> impl Iterator<Item = Id> + '_ {
        self.buckets
            .iter()
            .filter(|&&b| b < TOMBSTONE)
            .map(|&b| Id::from(b as usize))
    }

    /// Forgets every id, keeping the buckets.
    pub(crate) fn clear(&mut self) {
        self.buckets.fill(EMPTY);
        self.len = 0;
        self.tombstones = 0;
    }

    /// The id held for an e-node equal to `enode`.
    pub(crate) fn get<L: Language>(&self, nodes: &[L], enode: &L) -> Option<Id> {
        if self.buckets.is_empty() {
            return None;
        }
        let i = self.probe(nodes, enode).ok()?;
        Some(Id::from(self.buckets[i] as usize))
    }

    /// Holds `id` under its entry `nodes[id]` — unless an id with an equal
    /// entry is held already: that one stays and is returned.
    pub(crate) fn insert<L: Language>(&mut self, nodes: &[L], id: Id) -> Option<Id> {
        let raw = usize::from(id) as u32;
        assert!(
            raw < TOMBSTONE,
            "node id {id} collides with a memo sentinel"
        );
        if self.buckets.is_empty() {
            self.rehash(nodes, MIN_BUCKETS);
        }
        let enode = &nodes[usize::from(id)];
        let mut i = match self.probe(nodes, enode) {
            Ok(held) => return Some(Id::from(self.buckets[held] as usize)),
            Err(vacant) => vacant,
        };
        if (self.len + self.tombstones + 1) * 4 > self.buckets.len() * 3 {
            // Mostly tombstones: clear them at the same size; else double.
            let buckets = if (self.len + 1) * 2 <= self.buckets.len() {
                self.buckets.len()
            } else {
                self.buckets.len() * 2
            };
            self.rehash(nodes, buckets);
            i = self
                .probe(nodes, enode)
                .expect_err("the e-node is not held");
        }
        if self.buckets[i] == TOMBSTONE {
            self.tombstones -= 1;
        }
        self.buckets[i] = raw;
        self.len += 1;
        None
    }

    /// Stops holding the id held for an e-node equal to `enode`, returning
    /// it.
    pub(crate) fn remove<L: Language>(&mut self, nodes: &[L], enode: &L) -> Option<Id> {
        if self.buckets.is_empty() {
            return None;
        }
        let i = self.probe(nodes, enode).ok()?;
        let id = std::mem::replace(&mut self.buckets[i], TOMBSTONE);
        self.len -= 1;
        self.tombstones += 1;
        Some(Id::from(id as usize))
    }

    /// The bucket holding an id whose entry equals `enode` (`Ok`), or the
    /// bucket an insert of it fills (`Err`): the first tombstone on its
    /// probe chain, else the empty bucket that ends the chain. The load
    /// bound leaves at least one empty bucket, so the walk ends.
    fn probe<L: Language>(&self, nodes: &[L], enode: &L) -> Result<usize, usize> {
        let mask = self.buckets.len() - 1;
        let mut i = self.home(enode);
        let mut vacant = None;
        loop {
            match self.buckets[i] {
                EMPTY => return Err(vacant.unwrap_or(i)),
                TOMBSTONE => {
                    vacant.get_or_insert(i);
                }
                raw if nodes[raw as usize] == *enode => return Ok(i),
                _ => {}
            }
            i = (i + 1) & mask;
        }
    }

    /// The first bucket of `enode`'s probe chain: the top bits of its hash
    /// (the best-mixed bits of a multiplicative hash).
    fn home<L: Language>(&self, enode: &L) -> usize {
        let mut hasher = FxHasher::default();
        enode.hash(&mut hasher);
        (hasher.finish() >> (64 - self.buckets.len().trailing_zeros())) as usize
    }

    /// Re-places every held id into `buckets` empty buckets, dropping the
    /// tombstones. Held entries are distinct, so none is compared.
    fn rehash<L: Language>(&mut self, nodes: &[L], buckets: usize) {
        let old = std::mem::replace(&mut self.buckets, vec![EMPTY; buckets]);
        self.tombstones = 0;
        let mask = buckets - 1;
        for raw in old.into_iter().filter(|&b| b < TOMBSTONE) {
            let mut i = self.home(&nodes[raw as usize]);
            while self.buckets[i] != EMPTY {
                i = (i + 1) & mask;
            }
            self.buckets[i] = raw;
        }
    }
}

/// FxHash's multiply-rotate step with its fixed key: cheap on the few
/// small integers an e-node writes, and the same in every process.
#[derive(Default)]
struct FxHasher(u64);

impl FxHasher {
    const KEY: u64 = 0x517c_c1b7_2722_0a95;

    fn mix(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(Self::KEY);
    }
}

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.mix(u64::from_le_bytes(word));
        }
    }

    fn write_u32(&mut self, i: u32) {
        self.mix(u64::from(i));
    }

    fn write_u64(&mut self, i: u64) {
        self.mix(i);
    }

    fn write_usize(&mut self, i: usize) {
        self.mix(i as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::language::test_lang::{Math, SameHash};
    use crate::Symbol;

    /// Distinct leaves that all hash alike: one probe chain from bucket 0.
    fn leaves(n: usize) -> Vec<SameHash> {
        (0..n)
            .map(|i| SameHash(Math::Sym(Symbol::new(format!("m{i}")))))
            .collect()
    }

    fn id(i: usize) -> Id {
        Id::from(i)
    }

    #[test]
    fn a_removed_ids_tombstone_is_reused_by_the_next_insert() {
        let nodes = leaves(4);
        let mut memo = Memo::default();
        for i in 0..3 {
            assert_eq!(memo.insert(&nodes, id(i)), None);
        }
        assert_eq!(memo.buckets[..3], [0, 1, 2]);
        assert_eq!(memo.remove(&nodes, &nodes[1]), Some(id(1)));
        assert_eq!((memo.len(), memo.tombstones), (2, 1));
        assert_eq!(memo.get(&nodes, &nodes[2]), Some(id(2)), "probes pass it");
        assert_eq!(memo.insert(&nodes, id(3)), None);
        assert_eq!(memo.buckets[..4], [0, 3, 2, EMPTY]);
        assert_eq!((memo.len(), memo.tombstones), (3, 0));
        assert_eq!(memo.get(&nodes, &nodes[1]), None);
    }

    /// Spread over the buckets (in one chain an insert would reuse the
    /// tombstone just left), three ids held at a time leave tombstones
    /// until the load bound clears them without growing.
    #[test]
    fn churn_rehashes_at_the_same_size_and_keeps_every_id() {
        let nodes: Vec<Math> = (0..40).map(Math::Num).collect();
        let mut memo = Memo::default();
        for i in 0..3 {
            memo.insert(&nodes, id(i));
        }
        let mut same_size_rehashes = 0;
        for next in 3..nodes.len() {
            let tombstones = memo.tombstones;
            assert_eq!(memo.remove(&nodes, &nodes[next - 3]), Some(id(next - 3)));
            assert_eq!(memo.insert(&nodes, id(next)), None);
            if memo.tombstones < tombstones {
                same_size_rehashes += 1;
            }
            assert_eq!((memo.len(), memo.buckets.len()), (3, MIN_BUCKETS));
            assert_eq!(memo.ids().count(), 3);
            for (i, node) in nodes.iter().enumerate().take(next + 1) {
                let held = (i + 3 > next).then(|| id(i));
                assert_eq!(memo.get(&nodes, node), held);
            }
        }
        assert!(same_size_rehashes > 0);
    }

    #[test]
    fn inserting_an_equal_e_node_returns_the_held_id() {
        let mut nodes = leaves(2);
        nodes.push(nodes[0].clone());
        let mut memo = Memo::default();
        memo.insert(&nodes, id(0));
        memo.insert(&nodes, id(1));
        assert_eq!(memo.insert(&nodes, id(2)), Some(id(0)));
        assert_eq!(memo.len(), 2);
        assert_eq!(memo.get(&nodes, &nodes[2]), Some(id(0)));
        assert_eq!(memo.ids().collect::<Vec<_>>(), [id(0), id(1)]);
    }

    #[test]
    fn growing_keeps_every_id() {
        let nodes: Vec<Math> = (0..100).map(Math::Num).collect();
        let mut memo = Memo::default();
        for i in 0..nodes.len() {
            memo.insert(&nodes, id(i));
            assert!(memo.len() * 4 <= memo.buckets.len() * 3);
        }
        assert_eq!(memo.buckets.len(), 256);
        for (i, node) in nodes.iter().enumerate() {
            assert_eq!(memo.get(&nodes, node), Some(id(i)));
        }
        memo.clear();
        assert_eq!((memo.len(), memo.ids().count()), (0, 0));
        assert_eq!(memo.get(&nodes, &nodes[0]), None);
    }
}

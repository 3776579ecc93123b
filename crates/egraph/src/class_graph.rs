//! The class graph of an e-graph — which classes each class's unfiltered
//! e-nodes point at — and the numbering of its strongly connected
//! components. The cycle pre-filter's descendants map (`tensat-core`) and
//! the [`DagExtractor`](crate::DagExtractor) both read this one copy.

use crate::{Analysis, EGraph, Language};

/// The class graph over unfiltered e-nodes, indexed by the e-graph's dense
/// slot space ([`EGraph::slot_index`]): row `s` holds the child slots of
/// the class in slot `s` — ascending, without duplicates, the class itself
/// included if one of its nodes loops back. A tombstoned slot (between a
/// union and the next rebuild) has an empty row. The rows are stored back
/// to back (compressed sparse rows): one allocation for all of them.
#[derive(Debug, Clone)]
pub struct ClassGraph {
    /// Row `s` is `edges[start[s]..start[s + 1]]`.
    start: Vec<u32>,
    edges: Vec<u32>,
}

impl ClassGraph {
    /// Takes the snapshot in one sweep over the classes' unfiltered e-nodes
    /// ([`EGraph::enode_ids`]), also on a dirty e-graph.
    pub fn new<L: Language, N: Analysis<L>>(egraph: &EGraph<L, N>) -> Self {
        let n = egraph.num_slots();
        let mut start: Vec<u32> = Vec::with_capacity(n + 1);
        let mut edges: Vec<u32> = vec![];
        let mut row: Vec<u32> = vec![];
        for class in egraph.classes() {
            let s = egraph.slot_index(class.id).expect("iterated class is live");
            // Slots skipped since the last class are tombstones: no edges.
            start.resize(s + 1, edges.len() as u32);
            row.clear();
            for id in egraph.enode_ids(class) {
                for &child in egraph.enode(id).children() {
                    let child = egraph.slot_index(child).expect("child class is live");
                    row.push(child as u32);
                }
            }
            row.sort_unstable();
            row.dedup();
            edges.extend_from_slice(&row);
        }
        start.resize(n + 1, edges.len() as u32);
        // The snapshot outlives its build (an apply phase, an extraction):
        // give back what the doubling growth left over.
        edges.shrink_to_fit();
        ClassGraph { start, edges }
    }

    /// The number of slots the snapshot covers.
    pub fn num_slots(&self) -> usize {
        self.start.len() - 1
    }

    /// Row `s`: the child slots of the class in slot `s`.
    pub fn row(&self, s: usize) -> &[u32] {
        &self.edges[self.start[s] as usize..self.start[s + 1] as usize]
    }

    /// The same edges by child, self loops left out: row `c` holds the
    /// ascending slots of the other classes that have `c` as a child.
    pub(crate) fn parents(&self) -> ClassGraph {
        let n = self.num_slots();
        // Transpose by counting: a class's parents are appended in
        // ascending slot order, so each row is sorted and duplicate-free.
        let mut start = vec![0u32; n + 1];
        for s in 0..n {
            for &c in self.row(s) {
                if c as usize != s {
                    start[c as usize + 1] += 1;
                }
            }
        }
        for c in 0..n {
            start[c + 1] += start[c];
        }
        let mut edges = vec![0u32; start[n] as usize];
        let mut next = start.clone();
        for s in 0..n {
            for &c in self.row(s) {
                if c as usize != s {
                    edges[next[c as usize] as usize] = s as u32;
                    next[c as usize] += 1;
                }
            }
        }
        ClassGraph { start, edges }
    }

    /// Numbers the strongly connected components in the order Tarjan's
    /// algorithm completes them — a component is complete only after
    /// everything it reaches, so no edge leads to a higher number — and
    /// returns every slot's number. The walk starts from `starts` in turn,
    /// skipping slots already reached, and must be given every slot (a
    /// start may repeat). `done` sees each component's slots as it
    /// completes, so the components come children first.
    ///
    /// Iterative: chains in saturated model e-graphs outgrow thread stacks.
    pub fn components(
        &self,
        starts: impl IntoIterator<Item = usize>,
        mut done: impl FnMut(&[u32]),
    ) -> Vec<u32> {
        const NONE: u32 = u32::MAX;
        // Set on a slot's `index` entry once its component is complete: the
        // entry then holds the component's number, not the discovery number.
        const DONE: u32 = 1 << 31;
        let n = self.num_slots();
        debug_assert!(n < DONE as usize, "slot numbers fit in 31 bits");
        // Discovery number (component number once `DONE`), and the lowest
        // discovery number known reachable. A discovered slot that is not
        // `DONE` is on `open`.
        let mut index = vec![NONE; n];
        let mut low = vec![0u32; n];
        let mut numbered = 0u32;
        let mut open: Vec<u32> = vec![];
        // (slot, position in `edges` of its next child edge to follow)
        let mut stack: Vec<(u32, u32)> = vec![];
        let mut discovered = 0u32;
        for start in starts {
            if index[start] != NONE {
                continue;
            }
            stack.push((start as u32, self.start[start]));
            while let Some(top) = stack.last_mut() {
                let v = top.0 as usize;
                if index[v] == NONE {
                    index[v] = discovered;
                    low[v] = discovered;
                    discovered += 1;
                    open.push(v as u32);
                }
                if top.1 < self.start[v + 1] {
                    let w = self.edges[top.1 as usize] as usize;
                    top.1 += 1;
                    if index[w] == NONE {
                        stack.push((w as u32, self.start[w]));
                    } else if index[w] & DONE == 0 {
                        low[v] = low[v].min(index[w]);
                    }
                    continue;
                }
                stack.pop();
                if let Some(&(parent, _)) = stack.last() {
                    let parent = parent as usize;
                    low[parent] = low[parent].min(low[v]);
                }
                if low[v] == index[v] {
                    let root = open.iter().rposition(|&w| w as usize == v);
                    let root = root.expect("a component's root is still open");
                    for &w in &open[root..] {
                        index[w as usize] = DONE | numbered;
                    }
                    numbered += 1;
                    done(&open[root..]);
                    open.truncate(root);
                }
            }
        }
        for i in &mut index {
            debug_assert!(*i & DONE != 0, "every slot is numbered");
            *i &= !DONE;
        }
        index
    }
}

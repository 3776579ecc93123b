//! [`RecExpr`]: a flattened, acyclic term representation.
//!
//! A `RecExpr<L>` stores a term as a vector of nodes where every child
//! [`Id`] points at an *earlier* index in the vector. The last node is the
//! root. This is the representation used for inputs to and outputs from
//! the e-graph.

use crate::{Id, Language};
use std::fmt::{self, Display};
use std::ops::Index;

/// A recursive expression (term DAG) over language `L`.
///
/// Children always refer to earlier nodes, so a `RecExpr` is acyclic by
/// construction. Structural sharing is allowed (two nodes may point to the
/// same child index), which is essential for tensor graphs where operators
/// share inputs.
///
/// # Examples
///
/// ```
/// use tensat_egraph::{RecExpr, Id, Language, Symbol};
/// # use tensat_egraph::doctest_lang::SimpleMath as Math;
/// let mut e = RecExpr::<Math>::default();
/// let a = e.add(Math::Sym(Symbol::new("a")));
/// let two = e.add(Math::Num(2));
/// let mul = e.add(Math::Mul([a, two]));
/// let _div = e.add(Math::Div([mul, two]));
/// assert_eq!(e.len(), 4);
/// assert_eq!(e.to_string(), "(/ (* a 2) 2)");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RecExpr<L> {
    nodes: Vec<L>,
}

impl<L> Default for RecExpr<L> {
    fn default() -> Self {
        RecExpr { nodes: vec![] }
    }
}

impl<L: Language> RecExpr<L> {
    /// Creates an expression directly from a node vector.
    ///
    /// # Panics
    ///
    /// Panics if any node refers to a child at or after its own index.
    pub fn from_nodes(nodes: Vec<L>) -> Self {
        for (i, n) in nodes.iter().enumerate() {
            assert!(
                n.all(|c| usize::from(c) < i),
                "node {i} has a forward or self reference"
            );
        }
        RecExpr { nodes }
    }

    /// Adds a node whose children must already be in this expression,
    /// returning its index as an [`Id`].
    ///
    /// # Panics
    ///
    /// Panics if a child id is out of bounds.
    pub fn add(&mut self, node: L) -> Id {
        assert!(
            node.all(|c| usize::from(c) < self.nodes.len()),
            "child id out of bounds when adding node"
        );
        self.nodes.push(node);
        Id::from(self.nodes.len() - 1)
    }

    /// Removes every node, keeping the allocation.
    pub(crate) fn clear(&mut self) {
        self.nodes.clear();
    }

    /// The nodes in insertion order.
    pub fn nodes(&self) -> &[L] {
        &self.nodes
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if the expression has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The root node id (the last node).
    ///
    /// # Panics
    ///
    /// Panics if the expression is empty.
    pub fn root(&self) -> Id {
        assert!(!self.nodes.is_empty(), "empty RecExpr has no root");
        Id::from(self.nodes.len() - 1)
    }

    /// Iterates over `(Id, &node)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (Id, &L)> {
        self.nodes.iter().enumerate().map(|(i, n)| (Id::from(i), n))
    }

    /// Builds a sub-expression rooted at `id` containing only reachable
    /// nodes (compacting away unreachable ones).
    pub fn extract(&self, id: Id) -> RecExpr<L> {
        let mut out = RecExpr::default();
        let mut map: std::collections::HashMap<Id, Id> = Default::default();
        self.extract_rec(id, &mut out, &mut map);
        out
    }

    fn extract_rec(
        &self,
        id: Id,
        out: &mut RecExpr<L>,
        map: &mut std::collections::HashMap<Id, Id>,
    ) -> Id {
        if let Some(&new) = map.get(&id) {
            return new;
        }
        let node = self[id].map_children(|c| self.extract_rec(c, out, map));
        let new = out.add(node);
        map.insert(id, new);
        new
    }

    fn fmt_node(&self, f: &mut fmt::Formatter<'_>, id: Id) -> fmt::Result {
        let node = &self[id];
        if node.is_leaf() {
            write!(f, "{}", node.display_op())
        } else {
            write!(f, "({}", node.display_op())?;
            for &c in node.children() {
                write!(f, " ")?;
                self.fmt_node(f, c)?;
            }
            write!(f, ")")
        }
    }
}

impl<L> Index<Id> for RecExpr<L> {
    type Output = L;
    fn index(&self, id: Id) -> &L {
        &self.nodes[usize::from(id)]
    }
}

impl<L: Language> Display for RecExpr<L> {
    /// Formats the expression rooted at the last node as an s-expression.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.nodes.is_empty() {
            write!(f, "()")
        } else {
            self.fmt_node(f, self.root())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::language::test_lang::Math;
    use crate::Symbol;

    fn example() -> (RecExpr<Math>, Id) {
        // (a * 2) / 2
        let mut e = RecExpr::default();
        let a = e.add(Math::Sym(Symbol::new("a")));
        let two = e.add(Math::Num(2));
        let mul = e.add(Math::Mul([a, two]));
        let div = e.add(Math::Div([mul, two]));
        (e, div)
    }

    #[test]
    fn display_sexpr() {
        let (e, _) = example();
        assert_eq!(e.to_string(), "(/ (* a 2) 2)");
    }

    #[test]
    fn extract_compacts() {
        let (mut e, _) = example();
        // Add an unreachable node.
        let dead = e.add(Math::Num(99));
        assert_eq!(e.len(), 5);
        let sub = e.extract(Id::from(3usize));
        assert_eq!(sub.len(), 4);
        assert_eq!(sub.to_string(), "(/ (* a 2) 2)");
        let tiny = e.extract(dead);
        assert_eq!(tiny.len(), 1);
    }

    #[test]
    #[should_panic]
    fn add_rejects_forward_reference() {
        let mut e = RecExpr::<Math>::default();
        e.add(Math::Add([Id::from(0usize), Id::from(1usize)]));
    }

    #[test]
    #[should_panic]
    fn from_nodes_rejects_self_reference() {
        let _ = RecExpr::from_nodes(vec![Math::Add([Id::from(0usize), Id::from(0usize)])]);
    }

    #[test]
    fn empty_expr() {
        let e = RecExpr::<Math>::default();
        assert!(e.is_empty());
        assert_eq!(e.to_string(), "()");
    }
}

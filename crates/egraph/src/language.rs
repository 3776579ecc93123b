//! Core identifiers and the [`Language`] trait that user-defined operator
//! sets implement to be stored in an [`EGraph`](crate::EGraph).

use std::fmt::{self, Debug, Display};
use std::hash::Hash;
use std::sync::{OnceLock, RwLock};

/// An identifier for an e-class (or, inside a [`RecExpr`](crate::RecExpr),
/// an index of a previously added node).
///
/// `Id`s are small, dense, copyable handles. They are only meaningful with
/// respect to the e-graph (or expression) that created them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Id(u32);

impl From<usize> for Id {
    fn from(v: usize) -> Self {
        Id(u32::try_from(v).expect("id overflow: more than u32::MAX e-classes"))
    }
}

impl From<Id> for usize {
    fn from(id: Id) -> Self {
        id.0 as usize
    }
}

impl Display for Id {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// An interned string.
///
/// Symbols are cheap to copy, compare, and hash; the string data lives in a
/// process-wide interner for the lifetime of the program. Used for operator
/// names, variable names, tensor names, and encoded shape strings.
///
/// # Examples
///
/// ```
/// use tensat_egraph::Symbol;
/// let a = Symbol::new("input_1");
/// let b = Symbol::new("input_1");
/// assert_eq!(a, b);
/// assert_eq!(a.as_str(), "input_1");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Symbol(u32);

fn interner() -> &'static RwLock<Interner> {
    static INTERNER: OnceLock<RwLock<Interner>> = OnceLock::new();
    INTERNER.get_or_init(|| RwLock::new(Interner::default()))
}

#[derive(Default)]
struct Interner {
    map: std::collections::HashMap<&'static str, u32>,
    strings: Vec<&'static str>,
}

impl Symbol {
    /// Interns `s` (if not already interned) and returns its symbol.
    pub fn new(s: impl AsRef<str>) -> Self {
        let s = s.as_ref();
        {
            let guard = interner().read().unwrap();
            if let Some(&id) = guard.map.get(s) {
                return Symbol(id);
            }
        }
        let mut guard = interner().write().unwrap();
        if let Some(&id) = guard.map.get(s) {
            return Symbol(id);
        }
        let leaked: &'static str = Box::leak(s.to_owned().into_boxed_str());
        let id = guard.strings.len() as u32;
        guard.strings.push(leaked);
        guard.map.insert(leaked, id);
        Symbol(id)
    }

    /// Returns the interned string.
    pub fn as_str(&self) -> &'static str {
        interner().read().unwrap().strings[self.0 as usize]
    }
}

impl Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.as_str())
    }
}

impl<S: AsRef<str>> From<S> for Symbol {
    fn from(s: S) -> Self {
        Symbol::new(s)
    }
}

/// A node in a term language: an operator together with its ordered
/// children, which are [`Id`]s pointing at e-classes (in an e-graph) or at
/// earlier nodes (in a [`RecExpr`](crate::RecExpr)).
///
/// Implementors are plain data: the trait only asks for access to the
/// children and an operator-level equality check ([`Language::matches`])
/// that ignores the children.
///
/// # The ordering contract
///
/// `Ord` must be **operator-major, then `children()`-lexicographic**: there
/// is a total order on operators (the classes of [`Language::matches`])
/// such that `a.cmp(b)` is the comparison of `(operator, children())`
/// pairs. Spelled out for two nodes `a`, `b`:
///
/// * if `a.matches(b)`, then `a.cmp(b) == a.children().cmp(b.children())`;
/// * otherwise `a.cmp(b)` is never `Equal` and does not depend on either
///   node's children.
///
/// [`EGraph::rebuild`](crate::EGraph::rebuild) keeps every class's node list
/// sorted by this order, which puts the nodes of one operator in one
/// contiguous run ordered by their children; the e-matching machine finds
/// the nodes that agree with already-bound children by binary search in
/// that run ([`EClass::lower_bound`](crate::EClass::lower_bound)) instead of
/// scanning the class. An order that breaks the contract makes the search
/// miss matches. `#[derive(PartialOrd, Ord)]` keeps it for any enum whose
/// variants hold either a payload that `matches` compares (a literal) or
/// the children array — or both, **payload first**; a variant declared
/// `Op([Id; 2], Payload)` breaks it. [`assert_ord_contract`] checks a pair
/// of nodes (call it from a test over sample nodes of every variant), and
/// [`EGraph::check_invariants`](crate::EGraph::check_invariants) checks the
/// consequence on every class.
pub trait Language: Debug + Clone + Eq + Ord + Hash {
    /// True if `self` and `other` have the same operator (and therefore the
    /// same arity), ignoring the children ids.
    ///
    /// `matches` must be at least as strict as "same enum variant": two
    /// nodes with different [`Language::discriminant`]s must never match.
    /// (The e-graph's operator index and the compiled e-matching machine
    /// rely on this to prune candidate classes without losing matches.)
    fn matches(&self, other: &Self) -> bool;

    /// A coarse operator key used by the e-graph's operator index
    /// ([`crate::EGraph::classes_with_op`]) to restrict pattern search to
    /// classes that contain at least one node with the same key as the
    /// pattern root.
    ///
    /// The default implementation uses the enum discriminant, which is
    /// correct for any enum-shaped language: it may be *coarser* than
    /// [`Language::matches`] (e.g. all integer literals share a
    /// discriminant) — the matcher re-checks `matches` on every candidate
    /// node — but must never be *finer*.
    fn discriminant(&self) -> std::mem::Discriminant<Self>
    where
        Self: Sized,
    {
        std::mem::discriminant(self)
    }

    /// The ordered children of this node.
    fn children(&self) -> &[Id];

    /// Mutable access to the ordered children of this node.
    fn children_mut(&mut self) -> &mut [Id];

    /// A human-readable name for the operator (no children), used by
    /// `Display` impls, dot export, and pattern parsing.
    fn display_op(&self) -> String;

    /// True if this node has no children.
    fn is_leaf(&self) -> bool {
        self.children().is_empty()
    }

    /// Calls `f` on each child.
    fn for_each(&self, mut f: impl FnMut(Id)) {
        self.children().iter().copied().for_each(&mut f)
    }

    /// Calls `f` on each child, allowing mutation.
    fn for_each_mut(&mut self, mut f: impl FnMut(&mut Id)) {
        self.children_mut().iter_mut().for_each(&mut f)
    }

    /// Replaces every child `c` with `f(c)` in place.
    fn update_children(&mut self, mut f: impl FnMut(Id) -> Id) {
        self.for_each_mut(|c| *c = f(*c))
    }

    /// Returns a copy with every child `c` replaced by `f(c)`.
    fn map_children(&self, f: impl FnMut(Id) -> Id) -> Self {
        let mut new = self.clone();
        new.update_children(f);
        new
    }

    /// True if all children satisfy `f`.
    fn all(&self, mut f: impl FnMut(Id) -> bool) -> bool {
        self.children().iter().all(|&c| f(c))
    }

    /// True if any child satisfies `f`.
    fn any(&self, mut f: impl FnMut(Id) -> bool) -> bool {
        self.children().iter().any(|&c| f(c))
    }
}

/// Asserts the [`Language`] ordering contract on one pair of nodes: if they
/// have the same operator they are ordered by their children, and if not,
/// their order is strict and stays the same whatever children either holds
/// (checked by swapping in the extreme ids). For a language's own tests:
/// call it on sample nodes of every variant, in both argument orders.
///
/// # Panics
///
/// Panics, naming the pair, when the contract does not hold.
pub fn assert_ord_contract<L: Language>(a: &L, b: &L) {
    if a.matches(b) {
        assert_eq!(
            a.cmp(b),
            a.children().cmp(b.children()),
            "{a:?} and {b:?} have the same operator, so their children must order them"
        );
        return;
    }
    let order = a.cmp(b);
    assert!(
        order.is_ne(),
        "{a:?} and {b:?} differ in operator but compare equal"
    );
    let (low, high) = (Id::from(0usize), Id(u32::MAX));
    for (ca, cb) in [(low, high), (high, low)] {
        assert_eq!(
            a.map_children(|_| ca).cmp(&b.map_children(|_| cb)),
            order,
            "the order of {a:?} and {b:?} depends on their children, not only on their operators"
        );
    }
}

#[cfg(test)]
pub(crate) mod test_lang {
    //! A tiny arithmetic language used throughout the crate's unit tests.
    use super::*;

    /// Simple arithmetic language: constants, symbols, `+`, `*`, `<<`, `/`.
    #[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
    pub enum Math {
        Num(i64),
        Sym(Symbol),
        Add([Id; 2]),
        Mul([Id; 2]),
        Shl([Id; 2]),
        Div([Id; 2]),
    }

    impl Language for Math {
        fn matches(&self, other: &Self) -> bool {
            match (self, other) {
                (Math::Num(a), Math::Num(b)) => a == b,
                (Math::Sym(a), Math::Sym(b)) => a == b,
                (Math::Add(_), Math::Add(_)) => true,
                (Math::Mul(_), Math::Mul(_)) => true,
                (Math::Shl(_), Math::Shl(_)) => true,
                (Math::Div(_), Math::Div(_)) => true,
                _ => false,
            }
        }

        fn children(&self) -> &[Id] {
            match self {
                Math::Num(_) | Math::Sym(_) => &[],
                Math::Add(c) | Math::Mul(c) | Math::Shl(c) | Math::Div(c) => c,
            }
        }

        fn children_mut(&mut self) -> &mut [Id] {
            match self {
                Math::Num(_) | Math::Sym(_) => &mut [],
                Math::Add(c) | Math::Mul(c) | Math::Shl(c) | Math::Div(c) => c,
            }
        }

        fn display_op(&self) -> String {
            match self {
                Math::Num(n) => n.to_string(),
                Math::Sym(s) => s.to_string(),
                Math::Add(_) => "+".into(),
                Math::Mul(_) => "*".into(),
                Math::Shl(_) => "<<".into(),
                Math::Div(_) => "/".into(),
            }
        }
    }

    /// [`Math`] under an order that breaks the ordering contract: nodes
    /// compare by their last child alone, so operators interleave.
    #[derive(Debug, Clone, PartialEq, Eq, Hash)]
    pub struct ByLastChild(pub Math);

    impl PartialOrd for ByLastChild {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }

    impl Ord for ByLastChild {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            self.0.children().last().cmp(&other.0.children().last())
        }
    }

    impl Language for ByLastChild {
        fn matches(&self, other: &Self) -> bool {
            self.0.matches(&other.0)
        }
        fn children(&self) -> &[Id] {
            self.0.children()
        }
        fn children_mut(&mut self) -> &mut [Id] {
            self.0.children_mut()
        }
        fn display_op(&self) -> String {
            self.0.display_op()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::test_lang::{ByLastChild, Math};
    use super::*;

    #[test]
    fn id_roundtrip() {
        let id = Id::from(42usize);
        assert_eq!(usize::from(id), 42);
        assert_eq!(id.to_string(), "42");
    }

    #[test]
    fn symbols_are_interned() {
        let a = Symbol::new("hello");
        let b = Symbol::new("hello");
        let c = Symbol::new("world");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.as_str(), "hello");
        assert_eq!(c.to_string(), "world");
    }

    #[test]
    fn symbols_from_str() {
        let a: Symbol = "abc".into();
        assert_eq!(a, Symbol::new("abc"));
    }

    /// Pins the ordering contract the machine's range lookup relies on for
    /// the crate's test language: pseudo-random pairs covering every pair
    /// of variants, equal and unequal literals, and children on both sides
    /// of each other.
    #[test]
    fn math_keeps_the_ordering_contract() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move |bound: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % bound
        };
        let mut node = |variant: u64| {
            let mut pair = || [Id::from(next(4) as usize), Id::from(next(4) as usize)];
            match variant {
                0 => Math::Num(next(3) as i64 - 1),
                1 => Math::Sym(Symbol::new(["a", "b", "c"][next(3) as usize])),
                2 => Math::Add(pair()),
                3 => Math::Mul(pair()),
                4 => Math::Shl(pair()),
                _ => Math::Div(pair()),
            }
        };
        for va in 0..6 {
            for vb in 0..6 {
                for _ in 0..50 {
                    assert_ord_contract(&node(va), &node(vb));
                }
            }
        }
    }

    /// The checker rejects an order that is not children-lexicographic
    /// within an operator.
    #[test]
    #[should_panic(expected = "their children must order them")]
    fn ord_contract_rejects_an_order_that_is_not_children_lexicographic() {
        let a = Math::Add([Id::from(1usize), Id::from(0usize)]);
        let b = Math::Add([Id::from(0usize), Id::from(0usize)]);
        assert_ord_contract(&ByLastChild(a), &ByLastChild(b));
    }

    #[test]
    fn language_helpers() {
        let n = Math::Add([Id::from(0usize), Id::from(1usize)]);
        assert!(!n.is_leaf());
        assert_eq!(n.children(), &[Id::from(0usize), Id::from(1usize)]);
        let mapped = n.map_children(|c| Id::from(usize::from(c) + 10));
        assert_eq!(mapped.children(), &[Id::from(10usize), Id::from(11usize)]);
        assert!(n.matches(&mapped));
        assert!(!n.matches(&Math::Num(3)));
        assert!(Math::Num(7).is_leaf());
        assert!(n.all(|c| usize::from(c) < 2));
        assert!(n.any(|c| usize::from(c) == 1));
    }
}

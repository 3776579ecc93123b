//! # tensat-egraph
//!
//! A from-scratch e-graph and equality-saturation engine, serving as the
//! substrate for the TENSAT reproduction (the original system builds on the
//! `egg` library; this crate reimplements the required functionality).
//!
//! An *e-graph* compactly represents a large set of equivalent terms: it is
//! a set of *e-classes*, each of which is a set of equivalent *e-nodes*; an
//! e-node is an operator whose children are e-classes. Rewrites add new
//! e-nodes and union e-classes instead of destructively replacing terms, so
//! applying one rewrite never "hides" another — this is what lets TENSAT
//! sidestep the phase-ordering problem of sequential graph substitution.
//!
//! ## Feature overview
//!
//! * [`EGraph`] — hash-consed e-node storage, unioning, congruence-closure
//!   rebuilding, e-class analyses, and a *filter set* used by TENSAT's cycle
//!   filtering.
//! * [`Pattern`] / [`Rewrite`] — e-matching with non-linear patterns and
//!   conditional rewrites. Patterns are compiled once into an abstract
//!   e-matching machine ([`Program`], de Moura & Bjørner-style) and searched
//!   through an operator index — every search is a full search of the
//!   e-graph it is given; the legacy recursive matcher remains available
//!   as a differential-testing oracle ([`Pattern::search_naive`]). Search
//!   can be sharded across threads
//!   ([`Pattern::search_parallel`], [`search_all_parallel`]) with
//!   bit-identical results. Matching is purely structural; a rule's
//!   semantic side condition ([`Condition`]) runs when a match is applied,
//!   by the one in-place apply loop ([`Rewrite::apply_while`]), against
//!   the e-graph every earlier application of the batch left. The
//!   saturation loop over these primitives — search, apply, [`EGraph::rebuild`]
//!   — and its limits live in `tensat-core`'s exploration context; this
//!   crate has none.
//! * [`Extractor`] / [`DagExtractor`] — tree-greedy and global greedy DAG
//!   extraction with pluggable cost functions ([`CostFunction`] /
//!   [`DagCostFunction`]).
//!
//! ## Quick start
//!
//! ```
//! use tensat_egraph::{EGraph, Symbol, AstSize, Extractor};
//! use tensat_egraph::doctest_lang::SimpleMath as Math;
//!
//! let mut eg: EGraph<Math, ()> = EGraph::new(());
//! let a = eg.add(Math::Sym(Symbol::new("a")));
//! let two = eg.add(Math::Num(2));
//! let mul = eg.add(Math::Mul([a, two]));
//! let div = eg.add(Math::Div([mul, two]));
//! // Teach the e-graph that (/ (* a 2) 2) == a and extract the best term.
//! eg.union(div, a);
//! eg.rebuild();
//! let (cost, best) = Extractor::new(&eg, AstSize).find_best(div).unwrap();
//! assert_eq!((cost, best.to_string().as_str()), (1, "a"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod analysis;
mod bitset;
mod eclass;
mod egraph;
mod extract;
mod language;
mod machine;
mod pattern;
mod recexpr;
mod rewrite;
mod unionfind;

pub use analysis::{merge_max, Analysis, DidMerge};
pub use bitset::BitSet;
pub use eclass::EClass;
pub use egraph::EGraph;
pub use extract::{
    build_term, AstDepth, AstSize, ChoiceError, ChosenTerm, CostFunction, DagCostFunction,
    DagExtractor, Extractor,
};
pub use language::{assert_ord_contract, Id, Language, Symbol};
pub use machine::{
    search_all_guarded_parallel, search_all_guarded_parallel_with_threshold, ChildSource,
    Instruction, Program, Reg, PARALLEL_SEARCH_SPAWN_THRESHOLD,
};
pub use pattern::{search_all_parallel, ENodeOrVar, Pattern, SearchMatches, Subst, SubstRows, Var};
pub use recexpr::RecExpr;
pub use rewrite::{Condition, Rewrite};
pub use unionfind::UnionFind;

/// A tiny arithmetic language exported solely so that doc examples across
/// the workspace have a concrete [`Language`] to work with. Not intended
/// for downstream use; the real tensor language lives in `tensat-ir`.
pub mod doctest_lang {
    use super::{Id, Language, Symbol};

    /// Simple arithmetic language used in documentation examples.
    #[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
    pub enum SimpleMath {
        /// Integer literal.
        Num(i64),
        /// Named symbolic constant.
        Sym(Symbol),
        /// Addition; children: the two operands.
        Add([Id; 2]),
        /// Multiplication; children: the two operands.
        Mul([Id; 2]),
        /// Left shift; children: value and shift amount.
        Shl([Id; 2]),
        /// Division; children: dividend and divisor.
        Div([Id; 2]),
    }

    impl Language for SimpleMath {
        fn matches(&self, other: &Self) -> bool {
            match (self, other) {
                (SimpleMath::Num(a), SimpleMath::Num(b)) => a == b,
                (SimpleMath::Sym(a), SimpleMath::Sym(b)) => a == b,
                (SimpleMath::Add(_), SimpleMath::Add(_)) => true,
                (SimpleMath::Mul(_), SimpleMath::Mul(_)) => true,
                (SimpleMath::Shl(_), SimpleMath::Shl(_)) => true,
                (SimpleMath::Div(_), SimpleMath::Div(_)) => true,
                _ => false,
            }
        }
        fn children(&self) -> &[Id] {
            match self {
                SimpleMath::Num(_) | SimpleMath::Sym(_) => &[],
                SimpleMath::Add(c)
                | SimpleMath::Mul(c)
                | SimpleMath::Shl(c)
                | SimpleMath::Div(c) => c,
            }
        }
        fn children_mut(&mut self) -> &mut [Id] {
            match self {
                SimpleMath::Num(_) | SimpleMath::Sym(_) => &mut [],
                SimpleMath::Add(c)
                | SimpleMath::Mul(c)
                | SimpleMath::Shl(c)
                | SimpleMath::Div(c) => c,
            }
        }
        fn display_op(&self) -> String {
            match self {
                SimpleMath::Num(n) => n.to_string(),
                SimpleMath::Sym(s) => s.to_string(),
                SimpleMath::Add(_) => "+".into(),
                SimpleMath::Mul(_) => "*".into(),
                SimpleMath::Shl(_) => "<<".into(),
                SimpleMath::Div(_) => "/".into(),
            }
        }
    }
}

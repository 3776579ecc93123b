//! Rewrite rules: a searcher pattern, an applier pattern, and an optional
//! side condition (used by TENSAT for shape checking).

use crate::machine::Program;
use crate::{Analysis, EGraph, Id, Language, Pattern, SearchMatches, Subst};
use std::fmt;
use std::sync::Arc;

/// A side condition evaluated on each match before the rewrite is applied.
///
/// Receives the e-graph, the e-class the left-hand side matched in, and the
/// substitution; returns true if the rewrite may fire. TENSAT uses this for
/// tensor shape checking (paper §4). It is the only place a match is
/// judged on anything but structure: search gathers every structural match
/// and the condition decides at apply time, as in the paper's Algorithm 1.
pub type Condition<L, N> = Arc<dyn Fn(&EGraph<L, N>, Id, &Subst) -> bool + Send + Sync>;

/// A single-pattern rewrite rule `lhs => rhs` with an optional condition.
///
/// Multi-pattern rules (several simultaneous left-hand sides, paper §4
/// Algorithm 1) are built on top of these primitives in `tensat-core`.
#[derive(Clone)]
pub struct Rewrite<L: Language, N: Analysis<L>> {
    /// Human-readable rule name (used in reports and iteration stats).
    pub name: String,
    /// The pattern searched for.
    pub searcher: Pattern<L>,
    /// The pattern instantiated and unioned with each match.
    pub applier: Pattern<L>,
    /// Optional side condition; `None` means always applicable.
    pub condition: Option<Condition<L, N>>,
}

impl<L: Language, N: Analysis<L>> fmt::Debug for Rewrite<L, N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Rewrite")
            .field("name", &self.name)
            .field("searcher", &self.searcher.to_string())
            .field("applier", &self.applier.to_string())
            .field("conditional", &self.condition.is_some())
            .finish()
    }
}

impl<L: Language, N: Analysis<L>> Rewrite<L, N> {
    /// Creates an unconditional rewrite.
    ///
    /// # Panics
    ///
    /// Panics if the right-hand side uses a variable that does not occur on
    /// the left-hand side.
    pub fn new(name: impl Into<String>, searcher: Pattern<L>, applier: Pattern<L>) -> Self {
        let lhs_vars = searcher.vars();
        for v in applier.vars() {
            assert!(
                lhs_vars.contains(&v),
                "rewrite right-hand side uses unbound variable {v}"
            );
        }
        Rewrite {
            name: name.into(),
            searcher,
            applier,
            condition: None,
        }
    }

    /// Creates a conditional rewrite.
    pub fn new_conditional(
        name: impl Into<String>,
        searcher: Pattern<L>,
        applier: Pattern<L>,
        condition: Condition<L, N>,
    ) -> Self {
        let mut rw = Self::new(name, searcher, applier);
        rw.condition = Some(condition);
        rw
    }

    /// The compiled searcher program, in the shape the batch search
    /// drivers take (see [`crate::search_all_guarded_parallel`]). The name
    /// is historical — it once returned a `(program, guard table)` pair —
    /// and is kept because the repo benchmark (`benchmark/src/trace.rs`)
    /// calls it.
    pub fn searcher_query(&self) -> &Program<L> {
        self.searcher.program()
    }

    /// Searches the e-graph for matches of the left-hand side.
    pub fn search(&self, egraph: &EGraph<L, N>) -> Vec<SearchMatches> {
        self.searcher.search(egraph)
    }

    /// Applies the rewrite to the given matches, returning the number of
    /// applications that changed the e-graph (i.e. caused a union).
    pub fn apply(&self, egraph: &mut EGraph<L, N>, matches: &[SearchMatches]) -> usize {
        self.apply_while(egraph, matches, |_| true, |_, _, _| true)
            .0
    }

    /// The apply loop — Algorithm 1's: the matches are applied one after
    /// another, in place, so every check sees the e-graph all earlier
    /// applications left. Per candidate it
    ///
    /// 1. asks `keep_going(&egraph)` — the caller's budget — and stops at
    ///    the first refusal, before the candidate's condition runs, so a
    ///    spent budget evaluates nothing;
    /// 2. evaluates the side condition, if any;
    /// 3. asks `admit(&egraph, eclass, &subst)`, which may veto the
    ///    application (TENSAT's cycle pre-filter);
    /// 4. instantiates the right-hand side and unions it with the matched
    ///    class ([`Pattern::apply_one`]).
    ///
    /// A match list stores its substitutions as id rows
    /// ([`SubstRows`](crate::SubstRows)); the loop reads each into one
    /// scratch [`Subst`] it reuses, so conditions and `admit` see a
    /// `&Subst` and no candidate allocates.
    ///
    /// Returns the number of applications that caused a union and whether
    /// `keep_going` cut the loop short. Does not rebuild.
    pub fn apply_while(
        &self,
        egraph: &mut EGraph<L, N>,
        matches: &[SearchMatches],
        mut keep_going: impl FnMut(&EGraph<L, N>) -> bool,
        mut admit: impl FnMut(&EGraph<L, N>, Id, &Subst) -> bool,
    ) -> (usize, bool) {
        let mut changed = 0;
        let mut subst = Subst::new();
        for m in matches {
            for i in 0..m.substs.len() {
                if !keep_going(egraph) {
                    return (changed, true);
                }
                m.substs.read_into(i, &mut subst);
                if let Some(cond) = &self.condition {
                    if !cond(egraph, m.eclass, &subst) {
                        continue;
                    }
                }
                if !admit(egraph, m.eclass, &subst) {
                    continue;
                }
                let (_, did) = self.applier.apply_one(egraph, m.eclass, &subst);
                if did {
                    changed += 1;
                }
            }
        }
        (changed, false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::language::test_lang::Math;
    use crate::{ENodeOrVar, RecExpr, Symbol, Var};

    fn sym(s: &str) -> Math {
        Math::Sym(Symbol::new(s))
    }

    fn pat_mul_two() -> Pattern<Math> {
        let mut ast = RecExpr::default();
        let x = ast.add(ENodeOrVar::Var(Var::new("x")));
        let two = ast.add(ENodeOrVar::ENode(Math::Num(2)));
        ast.add(ENodeOrVar::ENode(Math::Mul([x, two])));
        Pattern::new(ast)
    }

    fn pat_shl_one() -> Pattern<Math> {
        let mut ast = RecExpr::default();
        let x = ast.add(ENodeOrVar::Var(Var::new("x")));
        let one = ast.add(ENodeOrVar::ENode(Math::Num(1)));
        ast.add(ENodeOrVar::ENode(Math::Shl([x, one])));
        Pattern::new(ast)
    }

    #[test]
    fn unconditional_rewrite_fires() {
        let mut eg: EGraph<Math, ()> = EGraph::new(());
        let a = eg.add(sym("a"));
        let two = eg.add(Math::Num(2));
        let mul = eg.add(Math::Mul([a, two]));
        eg.rebuild();
        let rw: Rewrite<Math, ()> = Rewrite::new("mul2-to-shl", pat_mul_two(), pat_shl_one());
        let matches = rw.search(&eg);
        assert_eq!(rw.apply(&mut eg, &matches), 1);
        eg.rebuild();
        let one = eg.lookup(&Math::Num(1)).unwrap();
        let shl = eg.lookup(&Math::Shl([a, one])).unwrap();
        assert_eq!(eg.find(shl), eg.find(mul));
        // Applying again changes nothing (already equal).
        let matches = rw.search(&eg);
        assert_eq!(rw.apply(&mut eg, &matches), 0);
    }

    #[test]
    fn conditional_rewrite_respects_condition() {
        let mut eg: EGraph<Math, ()> = EGraph::new(());
        let a = eg.add(sym("a"));
        let two = eg.add(Math::Num(2));
        eg.add(Math::Mul([a, two]));
        eg.rebuild();
        let rw: Rewrite<Math, ()> = Rewrite::new_conditional(
            "never",
            pat_mul_two(),
            pat_shl_one(),
            Arc::new(|_, _, _| false),
        );
        let matches = rw.search(&eg);
        assert_eq!(rw.apply(&mut eg, &matches), 0);
    }

    #[test]
    #[should_panic]
    fn rhs_with_unbound_var_panics() {
        let mut rhs = RecExpr::default();
        rhs.add(ENodeOrVar::Var(Var::new("zzz")));
        let _rw: Rewrite<Math, ()> = Rewrite::new("bad", pat_mul_two(), Pattern::new(rhs));
    }

    #[test]
    fn debug_is_informative() {
        let rw: Rewrite<Math, ()> = Rewrite::new("mul2-to-shl", pat_mul_two(), pat_shl_one());
        let dbg = format!("{rw:?}");
        assert!(dbg.contains("mul2-to-shl"));
        assert!(dbg.contains("?x"));
    }
}

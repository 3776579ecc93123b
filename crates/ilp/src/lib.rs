//! # tensat-ilp
//!
//! A small, dependency-free mixed 0/1 linear-programming solver used by
//! TENSAT's ILP extraction phase (the original system uses SCIP via Google
//! OR-tools; this crate plays that role).
//!
//! The solver is an exact branch-and-bound over the integral variables with
//! activity-based constraint propagation, warm starting, and wall-clock /
//! node limits so it can be used as an any-time procedure — extraction
//! keeps the best incumbent if the limit fires, just as the paper's setup
//! keeps running under a one-hour SCIP timeout.
//!
//! ```
//! use tensat_ilp::{Problem, Cmp, Solver, Status};
//! // minimize 3a + 2b  subject to  a + b >= 1
//! let mut p = Problem::new();
//! let a = p.add_binary(3.0);
//! let b = p.add_binary(2.0);
//! p.add_constraint(vec![(a, 1.0), (b, 1.0)], Cmp::Ge, 1.0);
//! let sol = Solver::default().solve(&p);
//! assert_eq!(sol.status, Status::Optimal);
//! assert_eq!(sol.value(b), 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod problem;
mod solver;

pub use problem::{Cmp, Constraint, Problem, VarId, VarKind};
pub use solver::{Limit, PropagationStats, Solution, Solver, Status};

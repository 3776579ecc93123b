//! # tensat-rules
//!
//! The rewrite-rule library for the TENSAT reproduction: a textual pattern
//! parser, shape-checking conditions, the single-pattern rule set, and the
//! multi-pattern rule set (paper §3.2, §4).
//!
//! ```
//! use tensat_rules::{single_rules, multi_rules, parse_pattern};
//! assert!(single_rules().len() >= 25);
//! assert_eq!(multi_rules().len(), 3);
//! let p = parse_pattern("(ewadd ?x ?y)").unwrap();
//! assert_eq!(p.vars().len(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod conditions;
pub mod multi;
pub mod parser;
pub mod single;

pub use conditions::{
    pattern_data, pattern_data_with, pattern_is_valid, pattern_kind_constraints, shape_check,
};
pub use multi::{multi_rules, MultiPatternRule};
pub use parser::{parse_pattern, ParsePatternError};
pub use single::{rw, rw_bidi, single_rules, testing, TensorRewrite};

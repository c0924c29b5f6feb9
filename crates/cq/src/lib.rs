//! Conjunctive queries and the SQL front end of the reproduction of
//! *"Hypertree Decompositions for Query Optimization"* (ICDE 2007).
//!
//! The crate covers Section 2 of the paper plus the *Sql Analyzer* box of
//! its architecture (Figure 5):
//!
//! - [`sql`]: a lexer + recursive-descent parser for single-block
//!   conjunctive `SELECT` statements with aggregates;
//! - [`isolator`]: the *Conjunctive Query Isolator*, turning a parsed
//!   statement into a [`ConjunctiveQuery`] by merging equality-linked
//!   attributes into variables and pushing constant predicates into
//!   per-atom filters;
//! - [`conjunctive`]: the query model itself, including `out(Q)` and the
//!   conversion to the query hypergraph `H(Q)`.
//!
//! # Example
//!
//! ```
//! use htqo_cq::sql::parser::parse_select;
//! use htqo_cq::isolator::{isolate, IsolatorOptions, MapSchema};
//!
//! let schema = MapSchema::new()
//!     .table("r", &["a", "b"])
//!     .table("s", &["b", "c"]);
//! let stmt = parse_select("SELECT r.a FROM r, s WHERE r.b = s.b AND s.c = 3").unwrap();
//! let cq = isolate(&stmt, &schema, IsolatorOptions::default()).unwrap();
//! assert_eq!(cq.atoms.len(), 2);
//! assert!(htqo_hypergraph::acyclic::is_acyclic(&cq.hypergraph().hypergraph));
//! ```

#![warn(missing_docs)]

pub mod conjunctive;
pub mod date;
pub mod isolator;
pub mod sql;
pub mod union_find;

pub use conjunctive::{
    AggFunc, ArithOp, Atom, AtomId, CmpOp, ConjunctiveQuery, CqBuilder, CqHypergraph, Filter,
    Literal, OutputItem, ScalarExpr, SortDir,
};
pub use isolator::{isolate, IsolateError, IsolatorOptions, MapSchema, SchemaProvider};
pub use sql::parser::{parse_select, ParseError};

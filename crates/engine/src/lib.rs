//! In-memory relational engine: the evaluation substrate of the
//! reproduction of *"Hypertree Decompositions for Query Optimization"*
//! (ICDE 2007).
//!
//! The paper runs its experiments on PostgreSQL and a commercial DBMS;
//! this crate is the stand-in storage/execution layer both our structural
//! optimizer and the quantitative baselines run on, so that every compared
//! method pays the same per-tuple costs:
//!
//! - [`value::Value`] / [`relation::Relation`] / [`schema::Database`]:
//!   typed storage with a deterministic catalog;
//! - [`crel::CRel`] / [`cops`]: columnar intermediate relations named by
//!   query variables and their kernels — what every decomposition
//!   evaluator runs on;
//! - [`vrel::VRelation`] / [`ops`]: the row representation — the result
//!   type handed to clients, the engine of the join-order baselines, and
//!   the reference the columnar kernels are tested against. Hash join,
//!   semijoin, projection, selection, sorting — all charging a
//!   [`error::Budget`] so baseline blow-ups become reproducible `DNF`
//!   data points instead of runaway processes;
//! - [`scan`]: atom scans with selection push-down and the hidden
//!   `__rowid` multiplicity guard;
//! - [`aggregate`]: GROUP BY / aggregate finalization (step (4) of the
//!   paper's evaluation pipeline);
//! - [`factorized`]: cover-based factorized results over a decomposition
//!   tree — aggregate pushdown and constant-delay answer enumeration
//!   without materializing the join;
//! - [`exec`] / [`hash`]: the process-wide defaults of the execution
//!   options, and the in-place Fx join-key hashing the kernels are built
//!   on.

#![warn(missing_docs)]

pub mod aggregate;
mod chain;
pub mod column;
pub mod cops;
pub mod crel;
pub mod csv;
pub mod dict;
pub mod error;
pub mod exec;
pub mod expr;
pub mod factorized;
pub mod failpoint;
pub mod hash;
pub mod index;
pub mod iseek;
mod keyplan;
pub mod ops;
pub mod relation;
pub mod scan;
pub mod schema;
pub mod spill;
pub mod value;
pub mod vrel;

pub use aggregate::{finalize, finalize_c};
pub use crel::CRel;
pub use csv::{read_csv, read_csv_budgeted, write_csv, CsvError};
pub use error::{Budget, CancelToken, EvalError, JoinStats, SpillMode, SpillStats};
pub use exec::ExecOptions;
pub use factorized::{build_cover, finalize_cover, Cover, CoverError, CoverInput, CoverRows};
pub use index::{JoinIndex, MemIndex};
pub use relation::{Relation, RelationError, RowLoader};
pub use schema::{Column, ColumnType, Database, Schema};
pub use value::{Row, Value};
pub use vrel::VRelation;

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
//!   query variables and their kernels (hash join, semijoin, projection)
//!   — the one executor every planner runs on, the decomposition
//!   evaluators and the join-order baselines alike. A relation may carry
//!   a count per row ([`crel::COUNT`]), which the kernels multiply and
//!   sum: bag semantics for aggregates. Every kernel charges
//!   an [`error::Budget`], so baseline blow-ups become reproducible `DNF`
//!   data points instead of runaway processes;
//! - [`vrel::VRelation`]: the row form answers are handed to clients in,
//!   with [`vrel::nested_loop_join`], the reference the columnar join is
//!   tested against;
//! - [`scan`]: atom scans with selection push-down and the hidden
//!   `__rowid` column;
//! - [`aggregate`]: GROUP BY / aggregate finalization (step (4) of the
//!   paper's evaluation pipeline);
//! - [`spill`]: the Grace spill path of joins and aggregation under a
//!   memory cap;
//! - [`exec`] / [`hash`]: the byte-count syntax of the memory settings
//!   the binaries parse, and the Fx hashing the kernels are built on.

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
pub mod failpoint;
mod fsum;
pub mod hash;
pub mod index;
mod keyplan;
pub mod relation;
pub mod scan;
pub mod schema;
pub mod spill;
pub mod value;
pub mod vrel;

pub use aggregate::{finalize, finalize_c};
pub use crel::{CRel, Name};
pub use csv::{read_csv, read_csv_budgeted, write_csv, CsvError};
pub use error::{Budget, CancelToken, EvalError, JoinStats, SpillMode, SpillStats};
pub use index::{JoinIndex, MemIndex};
pub use relation::{Relation, RelationError, RowLoader};
pub use schema::{Column, ColumnType, Database, Schema};
pub use value::{Row, Value};
pub use vrel::VRelation;

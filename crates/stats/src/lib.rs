//! Statistics and cost estimation: the quantitative half of the paper's
//! hybrid optimizer (the *Statistics Picker* and *Metadata Repository*
//! boxes of Figure 5).
//!
//! - [`stats`]: per-column/per-table statistics and equi-depth histograms;
//! - [`mod@analyze`]: full-scan (exact, linear in the data) and sampled ANALYZE;
//! - [`estimate`]: textbook selectivity and join-cardinality estimation;
//! - [`cost`]: the [`htqo_core::DecompCost`] implementation that makes
//!   `cost-k-decomp` statistics-aware.

#![warn(missing_docs)]

pub mod analyze;
pub mod cost;
pub mod estimate;
pub mod stats;

pub use analyze::{analyze, analyze_sampled, analyze_with_buckets};
pub use cost::StatsDecompCost;
pub use estimate::{join_profiles, left_deep_cost, Profile, QueryProfiles, VarId};
pub use stats::{ColumnStats, DbStats, EquiDepthHistogram, TableStats};

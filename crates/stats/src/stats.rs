//! Statistics structures: per-column distinct counts, min/max, equi-depth
//! histograms; per-table cardinalities (the *Metadata Repository* of the
//! paper's architecture, Figure 5).

use htqo_engine::value::Value;
use std::collections::BTreeMap;

/// Per-column statistics.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ColumnStats {
    /// Number of distinct non-null values.
    pub distinct: u64,
    /// Number of NULLs.
    pub nulls: u64,
    /// Smallest non-null value.
    pub min: Option<Value>,
    /// Largest non-null value.
    pub max: Option<Value>,
    /// Equi-depth histogram over the non-null values.
    pub histogram: Option<EquiDepthHistogram>,
}

/// Per-table statistics.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TableStats {
    /// Row count.
    pub rows: u64,
    /// Column statistics by column name.
    pub columns: BTreeMap<String, ColumnStats>,
}

impl TableStats {
    /// Statistics of a column, if collected.
    pub fn column(&self, name: &str) -> Option<&ColumnStats> {
        self.columns.get(name)
    }
}

/// Statistics for a whole database.
#[derive(Clone, Debug, Default)]
pub struct DbStats {
    /// Table statistics by table name.
    pub tables: BTreeMap<String, TableStats>,
    /// Wall-clock seconds spent gathering these statistics (reported by
    /// the `stats_vs_decomp` harness; the paper quotes ~800 s for 1 GB).
    pub gather_seconds: f64,
}

impl DbStats {
    /// Statistics of a table, if collected.
    pub fn table(&self, name: &str) -> Option<&TableStats> {
        self.tables.get(name)
    }

    /// "No statistics" mode: every table gets the same fixed guesses
    /// (row count and per-column distinct count), mimicking the default
    /// estimates a planner falls back to before `ANALYZE` has run.
    pub fn defaults_for(db: &htqo_engine::schema::Database) -> DbStats {
        const DEFAULT_ROWS: u64 = 1000;
        const DEFAULT_DISTINCT: u64 = 100;
        let mut stats = DbStats::default();
        for (name, rel) in db.tables() {
            let mut t = TableStats {
                rows: DEFAULT_ROWS,
                columns: BTreeMap::new(),
            };
            for col in rel.schema().columns() {
                t.columns.insert(
                    col.name.clone(),
                    ColumnStats {
                        distinct: DEFAULT_DISTINCT,
                        ..Default::default()
                    },
                );
            }
            stats.tables.insert(name.to_string(), t);
        }
        stats
    }
}

/// An equi-depth histogram: `bounds` splits the sorted non-null values into
/// buckets of (approximately) equal row counts; `bounds[i]` is the upper
/// bound of bucket `i`.
///
/// [`EquiDepthHistogram::from_sorted`] is the definition of the bounds.
/// ANALYZE never builds the sorted boxed values it takes: it reads the
/// cells at `bound_positions` off typed columns, and
/// `tests/analyze_equiv_prop.rs` holds the two equal, exactly.
#[derive(Clone, Debug, PartialEq)]
pub struct EquiDepthHistogram {
    bounds: Vec<Value>,
    rows: u64,
}

/// Where [`EquiDepthHistogram::from_sorted`] takes its bounds from `n`
/// sorted values: ascending positions, the last one `n - 1`; none when
/// `n` or `buckets` is 0.
pub(crate) fn bound_positions(n: usize, buckets: usize) -> impl Iterator<Item = usize> {
    let buckets = buckets.min(n);
    (1..=buckets).map(move |b| (b * n) / buckets - 1)
}

impl EquiDepthHistogram {
    /// Builds a histogram with at most `buckets` buckets from the sorted
    /// non-null column values.
    pub fn from_sorted(sorted: &[Value], buckets: usize) -> Option<Self> {
        if sorted.is_empty() || buckets == 0 {
            return None;
        }
        let buckets = buckets.min(sorted.len());
        let mut bounds = Vec::with_capacity(buckets);
        for b in 1..=buckets {
            let idx = (b * sorted.len()) / buckets - 1;
            bounds.push(sorted[idx].clone());
        }
        Some(EquiDepthHistogram {
            bounds,
            rows: sorted.len() as u64,
        })
    }

    /// The histogram of `rows` non-null values whose cells at
    /// [`bound_positions`] are `bounds`; `None` when there are none.
    pub(crate) fn from_bounds(bounds: Vec<Value>, rows: u64) -> Option<Self> {
        (!bounds.is_empty()).then_some(EquiDepthHistogram { bounds, rows })
    }

    /// Number of buckets.
    pub fn buckets(&self) -> usize {
        self.bounds.len()
    }

    /// Estimated fraction of rows with value `< bound` (monotone in
    /// `bound`; bucket-granular).
    pub fn fraction_below(&self, bound: &Value) -> f64 {
        if self.bounds.is_empty() {
            return 0.5;
        }
        let below = self
            .bounds
            .iter()
            .filter(|b| b.sql_cmp(bound) == Some(std::cmp::Ordering::Less))
            .count();
        below as f64 / self.bounds.len() as f64
    }

    /// Total rows summarized.
    pub fn rows(&self) -> u64 {
        self.rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ints(v: &[i64]) -> Vec<Value> {
        v.iter().map(|&i| Value::Int(i)).collect()
    }

    #[test]
    fn histogram_bounds_are_equi_depth() {
        let vals = ints(&(0..100).collect::<Vec<_>>());
        let h = EquiDepthHistogram::from_sorted(&vals, 4).unwrap();
        assert_eq!(h.buckets(), 4);
        assert_eq!(h.rows(), 100);
        // Bounds at 24, 49, 74, 99.
        assert!((h.fraction_below(&Value::Int(50)) - 0.5).abs() < 0.26);
        assert_eq!(h.fraction_below(&Value::Int(0)), 0.0);
        assert_eq!(h.fraction_below(&Value::Int(1000)), 1.0);
    }

    #[test]
    fn histogram_handles_few_values() {
        let vals = ints(&[1, 2]);
        let h = EquiDepthHistogram::from_sorted(&vals, 10).unwrap();
        assert_eq!(h.buckets(), 2);
        assert!(EquiDepthHistogram::from_sorted(&[], 10).is_none());
    }

    #[test]
    fn fraction_below_is_monotone() {
        let vals = ints(&[1, 1, 1, 5, 5, 9, 9, 9, 9, 10]);
        let h = EquiDepthHistogram::from_sorted(&vals, 5).unwrap();
        let mut prev = -1.0;
        for bound in 0..12 {
            let f = h.fraction_below(&Value::Int(bound));
            assert!(f >= prev);
            prev = f;
        }
    }

    #[test]
    fn defaults_cover_all_tables_and_columns() {
        use htqo_engine::relation::Relation;
        use htqo_engine::schema::{ColumnType, Database, Schema};
        let mut db = Database::new();
        db.insert_table(
            "t",
            Relation::new(Schema::new(&[
                ("a", ColumnType::Int),
                ("b", ColumnType::Str),
            ])),
        );
        let s = DbStats::defaults_for(&db);
        let t = s.table("t").unwrap();
        assert_eq!(t.rows, 1000);
        assert_eq!(t.column("a").unwrap().distinct, 100);
        assert_eq!(t.column("b").unwrap().distinct, 100);
    }
}

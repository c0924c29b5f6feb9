//! A deterministic `dbgen` replacement: generates a TPC-H database at a
//! given scale factor with the same shape as the official tool (uniform
//! foreign keys, 1992–1998 order dates, 0–10% discounts, v-shaped
//! extended prices), seeded for reproducibility.
//!
//! Scale factor 1 corresponds to ≈1 GB in the official benchmark, which is
//! how the harness maps the paper's "database size (MB)" axis (Figure 8)
//! to scale factors.

use crate::schema::{base_rows, table_schema, NATIONS, REGIONS};
use htqo_cq::date::days_from_civil;
use htqo_engine::relation::{Relation, RowLoader};
use htqo_engine::schema::Database;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write;

/// Generation options.
#[derive(Clone, Debug)]
pub struct DbgenOptions {
    /// Scale factor (1.0 ≈ 1 GB in official TPC-H).
    pub scale: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for DbgenOptions {
    fn default() -> Self {
        DbgenOptions {
            scale: 0.01,
            seed: 19920701,
        }
    }
}

/// Rows of `table` at scale factor `scale` (region/nation are fixed).
pub fn scaled_rows(table: &str, scale: f64) -> usize {
    match table {
        "region" => 5,
        "nation" => 25,
        other => ((base_rows(other) as f64 * scale).round() as usize).max(1),
    }
}

/// Nominal database size in megabytes for a scale factor (the official
/// benchmark's convention: SF 1 ≈ 1000 MB).
pub fn nominal_megabytes(scale: f64) -> f64 {
    scale * 1000.0
}

/// `rows` rows of `table`, each pushed cell by cell into the columns by
/// `row` (given the loader and the row number), in row order.
fn load(table: &str, rows: usize, mut row: impl FnMut(&mut RowLoader<'_>, usize)) -> Relation {
    let mut rel = Relation::new(table_schema(table));
    rel.reserve(rows);
    let mut loader = rel.loader();
    for i in 0..rows {
        row(&mut loader, i);
        loader.end_row();
    }
    drop(loader);
    rel
}

/// `args` formatted into `buf`, replacing what it held.
fn fill<'a>(buf: &'a mut String, args: std::fmt::Arguments<'_>) -> &'a str {
    buf.clear();
    buf.write_fmt(args).expect("formatting into a String");
    buf
}

/// Generates the full database. Cells go straight into the typed columns
/// (no boxed row), and formatted names are written into one reused
/// buffer. Within a row the cells — and the random draws behind them —
/// come in column order, so the RNG stream, every cell and every
/// dictionary code are fixed by the seed alone.
pub fn generate(options: &DbgenOptions) -> Database {
    let mut db = Database::new();
    let mut rng = StdRng::seed_from_u64(options.seed);
    let scale = options.scale;
    let mut name = String::new();

    let region = load("region", REGIONS.len(), |l, i| {
        l.push_int(i as i64);
        l.push_str(REGIONS[i]);
        l.push_str("standard region comment");
    });
    db.insert_table("region", region);

    let nation = load("nation", NATIONS.len(), |l, i| {
        let (nation_name, regionkey) = NATIONS[i];
        l.push_int(i as i64);
        l.push_str(nation_name);
        l.push_int(regionkey);
    });
    db.insert_table("nation", nation);

    let n_supplier = scaled_rows("supplier", scale);
    let supplier = load("supplier", n_supplier, |l, i| {
        l.push_int(i as i64);
        l.push_str(fill(&mut name, format_args!("Supplier#{i:09}")));
        l.push_int(rng.gen_range(0..25));
        l.push_float(round2(rng.gen_range(-999.99..9999.99)));
    });
    db.insert_table("supplier", supplier);

    let n_customer = scaled_rows("customer", scale);
    let segments = [
        "AUTOMOBILE",
        "BUILDING",
        "FURNITURE",
        "MACHINERY",
        "HOUSEHOLD",
    ];
    let customer = load("customer", n_customer, |l, i| {
        l.push_int(i as i64);
        l.push_str(fill(&mut name, format_args!("Customer#{i:09}")));
        l.push_int(rng.gen_range(0..25));
        l.push_str(segments[rng.gen_range(0..segments.len())]);
        l.push_float(round2(rng.gen_range(-999.99..9999.99)));
    });
    db.insert_table("customer", customer);

    let n_part = scaled_rows("part", scale);
    let types = [
        "ECONOMY ANODIZED STEEL",
        "STANDARD POLISHED BRASS",
        "SMALL PLATED COPPER",
        "MEDIUM BRUSHED NICKEL",
        "LARGE BURNISHED TIN",
        "PROMO PLATED STEEL",
    ];
    let part = load("part", n_part, |l, i| {
        l.push_int(i as i64);
        l.push_str(fill(&mut name, format_args!("part {i}")));
        l.push_str(types[rng.gen_range(0..types.len())]);
        let (a, b) = (rng.gen_range(1..6), rng.gen_range(1..6));
        l.push_str(fill(&mut name, format_args!("Brand#{a}{b}")));
        l.push_float(round2(900.0 + (i % 1000) as f64 / 10.0));
    });
    db.insert_table("part", part);

    let n_partsupp = scaled_rows("partsupp", scale);
    let partsupp = load("partsupp", n_partsupp, |l, _| {
        l.push_int(rng.gen_range(0..n_part as i64));
        l.push_int(rng.gen_range(0..n_supplier as i64));
        l.push_int(rng.gen_range(1..10_000));
        l.push_float(round2(rng.gen_range(1.0..1000.0)));
    });
    db.insert_table("partsupp", partsupp);

    // orders: dates uniform in [1992-01-01, 1998-08-02], drawn first.
    let date_lo = days_from_civil(1992, 1, 1);
    let date_hi = days_from_civil(1998, 8, 2);
    let n_orders = scaled_rows("orders", scale);
    let statuses = ["O", "F", "P"];
    let mut order_dates = Vec::with_capacity(n_orders);
    let orders = load("orders", n_orders, |l, i| {
        let date = rng.gen_range(date_lo..=date_hi);
        order_dates.push(date);
        l.push_int(i as i64);
        l.push_int(rng.gen_range(0..n_customer as i64));
        l.push_str(statuses[rng.gen_range(0..statuses.len())]);
        l.push_float(round2(rng.gen_range(850.0..555_000.0)));
        l.push_date(date);
        l.push_int(rng.gen_range(0..2));
    });
    db.insert_table("orders", orders);

    // lineitem: each row references a random order (drawn first, then
    // the quantity); ship date follows the order date by 1–121 days.
    let n_lineitem = scaled_rows("lineitem", scale);
    let flags = ["A", "N", "R"];
    let lineitem = load("lineitem", n_lineitem, |l, _| {
        let okey = rng.gen_range(0..n_orders as i64);
        let qty = rng.gen_range(1..=50i64);
        l.push_int(okey);
        l.push_int(rng.gen_range(0..n_part as i64));
        l.push_int(rng.gen_range(0..n_supplier as i64));
        l.push_int(rng.gen_range(1..=7));
        l.push_int(qty);
        l.push_float(round2(qty as f64 * rng.gen_range(900.0..1100.0)));
        l.push_float((rng.gen_range(0..=10) as f64) / 100.0);
        l.push_date(order_dates[okey as usize] + rng.gen_range(1..122));
        l.push_str(flags[rng.gen_range(0..flags.len())]);
    });
    db.insert_table("lineitem", lineitem);

    db
}

fn round2(x: f64) -> f64 {
    (x * 100.0).round() / 100.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use htqo_engine::value::Value;

    #[test]
    fn generation_is_deterministic() {
        let opts = DbgenOptions {
            scale: 0.001,
            seed: 42,
        };
        let a = generate(&opts);
        let b = generate(&opts);
        for (name, rel) in a.tables() {
            let other = b.table(name).unwrap();
            assert_eq!(rel.len(), other.len(), "{name}");
            assert_eq!(rel.row(0), other.row(0), "{name}");
        }
    }

    #[test]
    fn row_counts_scale() {
        let small = generate(&DbgenOptions {
            scale: 0.001,
            seed: 1,
        });
        assert_eq!(small.table("region").unwrap().len(), 5);
        assert_eq!(small.table("nation").unwrap().len(), 25);
        assert_eq!(small.table("supplier").unwrap().len(), 10);
        assert_eq!(small.table("orders").unwrap().len(), 1500);
        assert_eq!(small.table("lineitem").unwrap().len(), 6000);
        assert!((nominal_megabytes(0.2) - 200.0).abs() < 1e-9);
    }

    #[test]
    fn foreign_keys_are_in_range() {
        let db = generate(&DbgenOptions {
            scale: 0.001,
            seed: 7,
        });
        let n_cust = db.table("customer").unwrap().len() as i64;
        for row in db.table("orders").unwrap().iter_rows() {
            let Value::Int(ck) = row[1] else {
                panic!("custkey type")
            };
            assert!((0..n_cust).contains(&ck));
        }
        let n_orders = db.table("orders").unwrap().len() as i64;
        for row in db.table("lineitem").unwrap().iter_rows().take(100) {
            let Value::Int(ok) = row[0] else {
                panic!("orderkey type")
            };
            assert!((0..n_orders).contains(&ok));
        }
    }

    #[test]
    fn dates_are_in_the_tpch_window() {
        let db = generate(&DbgenOptions {
            scale: 0.001,
            seed: 7,
        });
        let lo = days_from_civil(1992, 1, 1);
        let hi = days_from_civil(1998, 8, 2);
        for row in db.table("orders").unwrap().iter_rows() {
            let Value::Date(d) = row[4] else {
                panic!("date type")
            };
            assert!((lo..=hi).contains(&d));
        }
    }

    #[test]
    fn discounts_bounded() {
        let db = generate(&DbgenOptions {
            scale: 0.001,
            seed: 7,
        });
        for row in db.table("lineitem").unwrap().iter_rows().take(200) {
            let Value::Float(d) = row[6] else {
                panic!("discount type")
            };
            assert!((0.0..=0.10001).contains(&d));
        }
    }
}

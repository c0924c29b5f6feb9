//! `generate` — cells pushed straight into typed columns — against the
//! boxed generator it replaced, kept below as the reference (unchanged
//! but for its bulk append, now the checked `extend_rows`). At SF 0.001
//! and 0.01 under seeds 1, 7 and 42 every table has the same rows, every
//! cell the same bits, every string the same dictionary code and every
//! table the same `approx_bytes`; and `generate` interns the strings it
//! is first to see in the reference's order — table by table, row by
//! row, column by column — so the codes a process hands out are the
//! same too.
//!
//! One test function: the code-order check reads the dictionary's next
//! free code, which no concurrent test may move.

use htqo_cq::date::days_from_civil;
use htqo_engine::column::ColumnData;
use htqo_engine::dict;
use htqo_engine::relation::Relation;
use htqo_engine::schema::Database;
use htqo_engine::value::Value;
use htqo_tpch::{generate, scaled_rows, table_schema, DbgenOptions, NATIONS, REGIONS, TABLES};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The boxed generator `generate` replaced.
fn reference_generate(options: &DbgenOptions) -> Database {
    let mut db = Database::new();
    let mut rng = StdRng::seed_from_u64(options.seed);
    let scale = options.scale;

    // region
    let mut region = Relation::new(table_schema("region"));
    region
        .extend_rows(REGIONS.iter().enumerate().map(|(i, name)| {
            vec![
                Value::Int(i as i64),
                Value::str(name),
                Value::str("standard region comment"),
            ]
        }))
        .unwrap();
    db.insert_table("region", region);

    // nation
    let mut nation = Relation::new(table_schema("nation"));
    nation
        .extend_rows(NATIONS.iter().enumerate().map(|(i, (name, regionkey))| {
            vec![
                Value::Int(i as i64),
                Value::str(name),
                Value::Int(*regionkey),
            ]
        }))
        .unwrap();
    db.insert_table("nation", nation);

    // supplier
    let n_supplier = scaled_rows("supplier", scale);
    let mut supplier = Relation::new(table_schema("supplier"));
    supplier.reserve(n_supplier);
    supplier
        .extend_rows((0..n_supplier).map(|i| {
            vec![
                Value::Int(i as i64),
                Value::str(&format!("Supplier#{i:09}")),
                Value::Int(rng.gen_range(0..25)),
                Value::Float(round2(rng.gen_range(-999.99..9999.99))),
            ]
        }))
        .unwrap();
    db.insert_table("supplier", supplier);

    // customer
    let n_customer = scaled_rows("customer", scale);
    let segments = [
        "AUTOMOBILE",
        "BUILDING",
        "FURNITURE",
        "MACHINERY",
        "HOUSEHOLD",
    ];
    let mut customer = Relation::new(table_schema("customer"));
    customer.reserve(n_customer);
    customer
        .extend_rows((0..n_customer).map(|i| {
            vec![
                Value::Int(i as i64),
                Value::str(&format!("Customer#{i:09}")),
                Value::Int(rng.gen_range(0..25)),
                Value::str(segments[rng.gen_range(0..segments.len())]),
                Value::Float(round2(rng.gen_range(-999.99..9999.99))),
            ]
        }))
        .unwrap();
    db.insert_table("customer", customer);

    // part
    let n_part = scaled_rows("part", scale);
    let types = [
        "ECONOMY ANODIZED STEEL",
        "STANDARD POLISHED BRASS",
        "SMALL PLATED COPPER",
        "MEDIUM BRUSHED NICKEL",
        "LARGE BURNISHED TIN",
        "PROMO PLATED STEEL",
    ];
    let mut part = Relation::new(table_schema("part"));
    part.reserve(n_part);
    part.extend_rows((0..n_part).map(|i| {
        vec![
            Value::Int(i as i64),
            Value::str(&format!("part {i}")),
            Value::str(types[rng.gen_range(0..types.len())]),
            Value::str(&format!(
                "Brand#{}{}",
                rng.gen_range(1..6),
                rng.gen_range(1..6)
            )),
            Value::Float(round2(900.0 + (i % 1000) as f64 / 10.0)),
        ]
    }))
    .unwrap();
    db.insert_table("part", part);

    // partsupp
    let n_partsupp = scaled_rows("partsupp", scale);
    let mut partsupp = Relation::new(table_schema("partsupp"));
    partsupp.reserve(n_partsupp);
    partsupp
        .extend_rows((0..n_partsupp).map(|_| {
            vec![
                Value::Int(rng.gen_range(0..n_part as i64)),
                Value::Int(rng.gen_range(0..n_supplier as i64)),
                Value::Int(rng.gen_range(1..10_000)),
                Value::Float(round2(rng.gen_range(1.0..1000.0))),
            ]
        }))
        .unwrap();
    db.insert_table("partsupp", partsupp);

    // orders: dates uniform in [1992-01-01, 1998-08-02].
    let date_lo = days_from_civil(1992, 1, 1);
    let date_hi = days_from_civil(1998, 8, 2);
    let n_orders = scaled_rows("orders", scale);
    let statuses = ["O", "F", "P"];
    let mut orders = Relation::new(table_schema("orders"));
    orders.reserve(n_orders);
    let mut order_dates = Vec::with_capacity(n_orders);
    orders
        .extend_rows((0..n_orders).map(|i| {
            let date = rng.gen_range(date_lo..=date_hi);
            order_dates.push(date);
            vec![
                Value::Int(i as i64),
                Value::Int(rng.gen_range(0..n_customer as i64)),
                Value::str(statuses[rng.gen_range(0..statuses.len())]),
                Value::Float(round2(rng.gen_range(850.0..555_000.0))),
                Value::Date(date),
                Value::Int(rng.gen_range(0..2)),
            ]
        }))
        .unwrap();
    db.insert_table("orders", orders);

    // lineitem: each row references a random order; ship date follows the
    // order date by 1–121 days.
    let n_lineitem = scaled_rows("lineitem", scale);
    let flags = ["A", "N", "R"];
    let mut lineitem = Relation::new(table_schema("lineitem"));
    lineitem.reserve(n_lineitem);
    lineitem
        .extend_rows((0..n_lineitem).map(|_| {
            let okey = rng.gen_range(0..n_orders as i64);
            let qty = rng.gen_range(1..=50i64);
            vec![
                Value::Int(okey),
                Value::Int(rng.gen_range(0..n_part as i64)),
                Value::Int(rng.gen_range(0..n_supplier as i64)),
                Value::Int(rng.gen_range(1..=7)),
                Value::Int(qty),
                Value::Float(round2(qty as f64 * rng.gen_range(900.0..1100.0))),
                Value::Float((rng.gen_range(0..=10) as f64) / 100.0),
                Value::Date(order_dates[okey as usize] + rng.gen_range(1..122)),
                Value::str(flags[rng.gen_range(0..flags.len())]),
            ]
        }))
        .unwrap();
    db.insert_table("lineitem", lineitem);

    db
}

fn round2(x: f64) -> f64 {
    (x * 100.0).round() / 100.0
}

/// Every string code `db` holds, in the order the reference interned
/// them: table by table, row by row, column by column.
fn codes_in_push_order(db: &Database) -> Vec<u32> {
    let mut codes = Vec::new();
    for table in TABLES {
        let rel = db.table(table).unwrap();
        let cols: Vec<&[u32]> = (0..rel.schema().arity())
            .filter_map(|c| match rel.column(c).data() {
                ColumnData::Str(a) => Some(a.as_slice()),
                _ => None,
            })
            .collect();
        for r in 0..rel.len() {
            codes.extend(cols.iter().map(|col| col[r]));
        }
    }
    codes
}

fn assert_identical(got: &Database, want: &Database, ctx: &str) {
    assert_eq!(got.tables().count(), TABLES.len(), "{ctx}: tables");
    for table in TABLES {
        let (g, w) = (got.table(table).unwrap(), want.table(table).unwrap());
        assert_eq!(g.len(), w.len(), "{ctx} {table}: rows");
        assert_eq!(
            g.approx_bytes(),
            w.approx_bytes(),
            "{ctx} {table}: approx_bytes"
        );
        for c in 0..w.schema().arity() {
            let (gc, wc) = (g.column(c), w.column(c));
            let same = match (gc.data(), wc.data()) {
                (ColumnData::Int(a), ColumnData::Int(b)) => a == b,
                (ColumnData::Float(a), ColumnData::Float(b)) => a
                    .iter()
                    .map(|x| x.to_bits())
                    .eq(b.iter().map(|x| x.to_bits())),
                (ColumnData::Date(a), ColumnData::Date(b)) => a == b,
                (ColumnData::Str(a), ColumnData::Str(b)) => a == b,
                _ => false,
            };
            let name = &w.schema().columns()[c].name;
            assert!(same, "{ctx} {table}.{name}: cells differ");
            assert!(
                (0..w.len()).all(|r| gc.is_null(r) == wc.is_null(r)),
                "{ctx} {table}.{name}: NULLs differ"
            );
        }
    }
}

#[test]
fn generate_equals_the_boxed_reference() {
    let mut checked_order = false;
    for scale in [0.001, 0.01] {
        for seed in [1, 7, 42] {
            let opts = DbgenOptions { scale, seed };
            let ctx = format!("SF {scale} seed {seed}");
            // The dictionary's next free code: a string this run is first
            // to see gets it, the next one the code after, and so on.
            let fresh = dict::intern(&format!("dbgen-equiv-probe {ctx}")) + 1;
            let got = generate(&opts);
            let mut next = fresh;
            for code in codes_in_push_order(&got) {
                assert!(
                    code <= next,
                    "{ctx}: code {code} handed out before code {next}"
                );
                next += u32::from(code == next);
            }
            checked_order |= next > fresh;

            let want = reference_generate(&opts);
            assert_identical(&got, &want, &ctx);
        }
    }
    assert!(checked_order, "no run interned a string of its own");
}

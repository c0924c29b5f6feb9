//! Property tests for the SQL front end: date arithmetic and
//! parse-display stability.

use htqo_cq::date::{add_interval, civil_from_days, days_from_civil, IntervalUnit};
use htqo_cq::{isolate, parse_select, IsolatorOptions, MapSchema};
use proptest::prelude::*;

proptest! {
    /// Civil-date conversion round-trips over a wide range.
    #[test]
    fn civil_round_trip(days in -2_000_000i32..2_000_000) {
        let (y, m, d) = civil_from_days(days);
        prop_assert!((1..=12).contains(&m));
        prop_assert!((1..=31).contains(&d));
        prop_assert_eq!(days_from_civil(y, m, d), days);
    }

    /// Adding and subtracting the same month interval returns to a date
    /// no later than the original (clamping may lose end-of-month days,
    /// never gain them).
    #[test]
    fn month_arithmetic_clamps_monotonically(days in -500_000i32..500_000, n in 1i32..48) {
        let forward = add_interval(days, n, IntervalUnit::Month).unwrap();
        let back = add_interval(forward, -n, IntervalUnit::Month).unwrap();
        prop_assert!(back <= days);
        prop_assert!(days - back <= 3, "clamping loses at most 3 days");
        // Day intervals are exact.
        let fd = add_interval(days, n, IntervalUnit::Day).unwrap();
        prop_assert_eq!(fd - days, n);
    }

    /// Year arithmetic is 12 months.
    #[test]
    fn years_are_twelve_months(days in -500_000i32..500_000, n in 1i32..10) {
        prop_assert_eq!(
            add_interval(days, n, IntervalUnit::Year),
            add_interval(days, 12 * n, IntervalUnit::Month)
        );
    }

    /// Over the whole `i32` range, an interval is `None` exactly when its
    /// result's day number leaves `i32`: a day interval is the exact sum,
    /// and a month interval lands within a month's days of the date a
    /// 30.44-day month would give.
    #[test]
    fn intervals_are_none_exactly_outside_the_day_range(
        days in any::<i32>(),
        n in any::<i32>(),
        small in -100_000i32..100_000,
    ) {
        let exact = i64::from(days) + i64::from(n);
        prop_assert_eq!(add_interval(days, n, IntervalUnit::Day), i32::try_from(exact).ok());
        for n in [n, small] {
            let approx = i64::from(days) + (f64::from(n) * 30.436_875) as i64;
            match add_interval(days, n, IntervalUnit::Month) {
                Some(d) => prop_assert!((i64::from(d) - approx).abs() <= 32, "{days} + {n} months"),
                None => prop_assert!(
                    approx > i64::from(i32::MAX) - 32 || approx < i64::from(i32::MIN) + 32,
                    "{days} + {n} months refused"
                ),
            }
        }
    }

    /// Any parsed conjunctive SELECT over a known schema isolates into a
    /// CQ whose atom count equals the FROM length and whose display form
    /// is non-empty and stable.
    #[test]
    fn isolate_is_total_on_well_formed_input(
        n_tables in 1usize..4,
        preds in prop::collection::vec((0usize..4, 0usize..4), 0..4)
    ) {
        let mut schema = MapSchema::new();
        let mut from = Vec::new();
        for i in 0..4 {
            schema = schema.table(&format!("t{i}"), &["a", "b"]);
        }
        for i in 0..n_tables {
            from.push(format!("t{i}"));
        }
        let mut sql = format!("SELECT t0.a FROM {}", from.join(", "));
        let mut first = true;
        for (l, r) in &preds {
            let (l, r) = (l % n_tables, r % n_tables);
            sql.push_str(if first { " WHERE " } else { " AND " });
            first = false;
            sql.push_str(&format!("t{l}.b = t{r}.a"));
        }
        let stmt = parse_select(&sql).expect("generated SQL parses");
        let q = isolate(&stmt, &schema, IsolatorOptions::default()).expect("isolates");
        prop_assert_eq!(q.atoms.len(), n_tables);
        let shown = format!("{q}");
        prop_assert!(shown.starts_with("ans("));
        // The hypergraph has one edge per atom and ≤ 2·n distinct vars.
        let ch = q.hypergraph();
        prop_assert_eq!(ch.hypergraph.num_edges(), n_tables);
        prop_assert!(ch.hypergraph.num_vars() <= 2 * n_tables);
    }
}

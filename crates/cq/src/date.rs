//! Proleptic-Gregorian date helpers (days since 1970-01-01).
//!
//! TPC-H predicates use `date 'YYYY-MM-DD'` literals and
//! `+ interval 'n' year/month/day` arithmetic; we fold both into plain day
//! counts at parse time so the engine only ever compares integers.

/// Converts a civil date to days since 1970-01-01.
///
/// Uses Howard Hinnant's `days_from_civil` algorithm; exact for every date
/// whose day number fits `i32` (see [`parse_date`] for the checked form).
pub fn days_from_civil(year: i32, month: u32, day: u32) -> i32 {
    civil_to_days(year, month, day) as i32
}

fn civil_to_days(year: i32, month: u32, day: u32) -> i64 {
    let y = year as i64 - i64::from(month <= 2);
    let era = if y >= 0 { y } else { y - 399 } / 400;
    let yoe = y - era * 400; // [0, 399]
    let mp = ((month as i64) + 9) % 12; // Mar=0 .. Feb=11
    let doy = (153 * mp + 2) / 5 + (day as i64) - 1; // [0, 365]
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy; // [0, 146096]
    era * 146097 + doe - 719468
}

/// The day number of a date that exists, if it fits `i32`.
fn checked_days(year: i32, month: u32, day: u32) -> Option<i32> {
    if !(1..=12).contains(&month) || !(1..=days_in_month(year, month)).contains(&day) {
        return None;
    }
    i32::try_from(civil_to_days(year, month, day)).ok()
}

/// Converts days since 1970-01-01 back to a civil `(year, month, day)`.
pub fn civil_from_days(days: i32) -> (i32, u32, u32) {
    let z = days as i64 + 719468;
    let era = if z >= 0 { z } else { z - 146096 } / 146097;
    let doe = z - era * 146097; // [0, 146096]
    let yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365; // [0, 399]
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100); // [0, 365]
    let mp = (5 * doy + 2) / 153; // [0, 11]
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32; // [1, 31]
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32; // [1, 12]
    let year = if m <= 2 { y + 1 } else { y } as i32;
    (year, m, d)
}

/// Parses `YYYY-MM-DD` into days since epoch. Returns `None` on malformed
/// input, a date that does not exist (`1994-02-31`) or one whose day
/// number does not fit `i32`.
pub fn parse_date(s: &str) -> Option<i32> {
    let mut parts = s.split('-');
    let year: i32 = parts.next()?.parse().ok()?;
    let month: u32 = parts.next()?.parse().ok()?;
    let day: u32 = parts.next()?.parse().ok()?;
    if parts.next().is_some() {
        return None;
    }
    checked_days(year, month, day)
}

/// Formats days since epoch as `YYYY-MM-DD`.
pub fn format_date(days: i32) -> String {
    let (y, m, d) = civil_from_days(days);
    format!("{y:04}-{m:02}-{d:02}")
}

/// Adds `n` calendar units to a date (days since epoch), or `None` when
/// the result's day number does not fit `i32`. Month/year arithmetic
/// clamps the day-of-month (e.g. Jan 31 + 1 month = Feb 28/29), matching
/// common SQL behaviour.
pub fn add_interval(days: i32, n: i32, unit: IntervalUnit) -> Option<i32> {
    match unit {
        IntervalUnit::Day => days.checked_add(n),
        IntervalUnit::Month => {
            let (y, m, d) = civil_from_days(days);
            let total = (y as i64) * 12 + (m as i64 - 1) + n as i64;
            let ny = i32::try_from(total.div_euclid(12)).ok()?;
            let nm = (total.rem_euclid(12)) as u32 + 1;
            checked_days(ny, nm, d.min(days_in_month(ny, nm)))
        }
        IntervalUnit::Year => add_interval(days, n.checked_mul(12)?, IntervalUnit::Month),
    }
}

/// Units accepted in `interval 'n' <unit>`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IntervalUnit {
    /// Calendar days.
    Day,
    /// Calendar months (day-of-month clamped).
    Month,
    /// Calendar years (day-of-month clamped).
    Year,
}

fn days_in_month(year: i32, month: u32) -> u32 {
    match month {
        1 | 3 | 5 | 7 | 8 | 10 | 12 => 31,
        4 | 6 | 9 | 11 => 30,
        2 => {
            if (year % 4 == 0 && year % 100 != 0) || year % 400 == 0 {
                29
            } else {
                28
            }
        }
        _ => unreachable!("month out of range"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_is_zero() {
        assert_eq!(days_from_civil(1970, 1, 1), 0);
        assert_eq!(civil_from_days(0), (1970, 1, 1));
    }

    #[test]
    fn roundtrip_many_days() {
        for days in (-1_000_000..1_000_000).step_by(9973) {
            let (y, m, d) = civil_from_days(days);
            assert_eq!(days_from_civil(y, m, d), days);
        }
    }

    #[test]
    fn known_dates() {
        assert_eq!(parse_date("1994-01-01"), Some(8766));
        assert_eq!(format_date(8766), "1994-01-01");
        assert_eq!(parse_date("1998-12-01"), Some(days_from_civil(1998, 12, 1)));
    }

    #[test]
    fn malformed_dates_rejected() {
        assert_eq!(parse_date("not-a-date"), None);
        assert_eq!(parse_date("1994-13-01"), None);
        assert_eq!(parse_date("1994-01"), None);
        assert_eq!(parse_date("1994-01-01-01"), None);
    }

    #[test]
    fn interval_year_addition() {
        let d = parse_date("1994-01-01").unwrap();
        assert_eq!(
            format_date(add_interval(d, 1, IntervalUnit::Year).unwrap()),
            "1995-01-01"
        );
    }

    #[test]
    fn interval_month_clamps() {
        let d = parse_date("1996-01-31").unwrap();
        assert_eq!(
            format_date(add_interval(d, 1, IntervalUnit::Month).unwrap()),
            "1996-02-29"
        );
        let d2 = parse_date("1995-01-31").unwrap();
        assert_eq!(
            format_date(add_interval(d2, 1, IntervalUnit::Month).unwrap()),
            "1995-02-28"
        );
    }

    #[test]
    fn interval_day_addition() {
        let d = parse_date("1994-12-31").unwrap();
        assert_eq!(
            format_date(add_interval(d, 1, IntervalUnit::Day).unwrap()),
            "1995-01-01"
        );
    }

    #[test]
    fn negative_intervals() {
        let d = parse_date("1994-03-01").unwrap();
        assert_eq!(
            format_date(add_interval(d, -1, IntervalUnit::Month).unwrap()),
            "1994-02-01"
        );
        assert_eq!(
            format_date(add_interval(d, -2, IntervalUnit::Year).unwrap()),
            "1992-03-01"
        );
    }

    #[test]
    fn dates_that_do_not_exist_are_refused() {
        assert_eq!(parse_date("1994-02-31"), None);
        assert_eq!(parse_date("1995-02-29"), None);
        assert_eq!(parse_date("1996-02-29"), Some(days_from_civil(1996, 2, 29)));
        assert_eq!(parse_date("1994-04-31"), None);
        assert_eq!(parse_date("1994-01-00"), None);
    }

    #[test]
    fn day_numbers_past_i32_are_refused() {
        // Read as day -1,627,438,756 when the day number wrapped.
        assert_eq!(parse_date("2147483647-01-01"), None);
        assert_eq!(parse_date("6000000-01-01"), None);
        let last = parse_date("5881580-07-11").unwrap();
        assert_eq!(last, i32::MAX);
        assert_eq!(parse_date("5881580-07-12"), None);
    }

    #[test]
    fn intervals_that_leave_the_day_range_are_none() {
        let d = parse_date("1994-01-01").unwrap();
        assert_eq!(add_interval(d, i32::MAX, IntervalUnit::Day), None);
        assert_eq!(add_interval(d, i32::MAX, IntervalUnit::Year), None);
        assert_eq!(add_interval(d, i32::MAX, IntervalUnit::Month), None);
        assert_eq!(add_interval(d, i32::MIN, IntervalUnit::Month), None);
        assert_eq!(add_interval(i32::MAX, 1, IntervalUnit::Day), None);
        assert_eq!(
            add_interval(i32::MAX - 1, 1, IntervalUnit::Day),
            Some(i32::MAX)
        );
        assert_eq!(add_interval(i32::MIN, -1, IntervalUnit::Month), None);
        assert_eq!(
            add_interval(d, 5_000_000, IntervalUnit::Day),
            Some(d + 5_000_000)
        );
    }
}

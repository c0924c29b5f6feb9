//! Shared measurement and table-printing utilities for the figure
//! regenerators.
//!
//! Each harness binary prints one markdown table per figure panel, with a
//! row per x-axis value and a column per compared method. "DNF" marks runs
//! that hit the time/tuple budget, mirroring the paper's "does not
//! terminate after more than 10 minutes" data points.

use htqo_engine::error::Budget;
use htqo_optimizer::QueryOutcome;
use std::time::Duration;

/// The "when and where" sentence checked-in results carry: today's UTC
/// date, the CPU model the kernel reports, the platform and the CPUs
/// visible to the process.
pub fn measured_on() -> String {
    let days = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs() / 86_400);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown CPU".to_string());
    let cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    format!(
        "Measured {} on {cpu} ({}/{}), {cpus} CPU(s) visible to the process.",
        htqo_cq::date::format_date(days as i32),
        std::env::consts::OS,
        std::env::consts::ARCH,
    )
}

/// Runs `f` `reps` times; the best wall time in seconds and the last
/// result.
pub fn best_of<R>(reps: usize, mut f: impl FnMut() -> R) -> (f64, R) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..reps {
        let t = std::time::Instant::now();
        let r = f();
        best = best.min(t.elapsed().as_secs_f64());
        out = Some(r);
    }
    (best, out.expect("reps >= 1"))
}

/// One measured run.
#[derive(Clone, Debug)]
pub struct Measurement {
    /// Total wall-clock seconds (planning + execution).
    pub seconds: f64,
    /// Intermediate tuples materialized (deterministic work proxy).
    pub tuples: u64,
    /// Output rows (`None` on failure).
    pub rows: Option<usize>,
    /// Hit the budget (time or tuples).
    pub dnf: bool,
}

impl Measurement {
    /// Extracts a measurement from a query outcome.
    pub fn of(outcome: &QueryOutcome) -> Measurement {
        Measurement {
            seconds: outcome.total_time().as_secs_f64(),
            tuples: outcome.tuples,
            rows: outcome.result.as_ref().ok().map(|r| r.len()),
            dnf: outcome.is_dnf(),
        }
    }

    /// Rendering for table cells.
    pub fn cell(&self) -> String {
        if self.dnf {
            "DNF".to_string()
        } else if self.rows.is_none() {
            "ERR".to_string()
        } else {
            format!("{:.3}s", self.seconds)
        }
    }

    /// Rendering including the tuple count.
    pub fn cell_with_tuples(&self) -> String {
        if self.dnf {
            format!("DNF (>{} tuples)", self.tuples)
        } else {
            format!("{:.3}s / {} tuples", self.seconds, self.tuples)
        }
    }
}

/// A named series of measurements over an x axis.
#[derive(Clone, Debug, Default)]
pub struct Series {
    /// Method name (table column header).
    pub name: String,
    /// `(x, measurement)` points.
    pub points: Vec<(f64, Measurement)>,
}

impl Series {
    /// Creates an empty series.
    pub fn new(name: &str) -> Self {
        Series {
            name: name.to_string(),
            points: Vec::new(),
        }
    }

    /// Adds a point.
    pub fn push(&mut self, x: f64, m: Measurement) {
        self.points.push((x, m));
    }

    fn at(&self, x: f64) -> Option<&Measurement> {
        self.points
            .iter()
            .find(|(px, _)| (px - x).abs() < 1e-9)
            .map(|(_, m)| m)
    }
}

/// Prints a markdown table: one row per x value, one column per series.
pub fn print_table(title: &str, x_label: &str, series: &[Series]) {
    println!("\n### {title}\n");
    let mut xs: Vec<f64> = series
        .iter()
        .flat_map(|s| s.points.iter().map(|(x, _)| *x))
        .collect();
    xs.sort_by(f64::total_cmp);
    xs.dedup_by(|a, b| (*a - *b).abs() < 1e-9);

    let headers: Vec<&str> = series.iter().map(|s| s.name.as_str()).collect();
    println!("| {x_label} | {} |", headers.join(" | "));
    println!(
        "|---|{}|",
        headers.iter().map(|_| "---").collect::<Vec<_>>().join("|")
    );
    for x in xs {
        let cells: Vec<String> = series
            .iter()
            .map(|s| s.at(x).map(|m| m.cell()).unwrap_or_else(|| "—".into()))
            .collect();
        let x_str = if x.fract() == 0.0 {
            format!("{x:.0}")
        } else {
            format!("{x}")
        };
        println!("| {x_str} | {} |", cells.join(" | "));
    }
}

/// The evaluation budget used for one measured run, controlled by the
/// `HTQO_TIMEOUT_SECS` (default 10) and `HTQO_MAX_TUPLES` (default 20M)
/// environment variables. The paper used a 10-minute cutoff on 2007
/// hardware; the defaults keep a full harness run to a few minutes.
pub fn run_budget() -> Budget {
    let secs = env_f64("HTQO_TIMEOUT_SECS", 10.0);
    let tuples = env_f64("HTQO_MAX_TUPLES", 20_000_000.0) as u64;
    Budget::unlimited()
        .with_timeout(Duration::from_secs_f64(secs))
        .with_max_tuples(tuples)
}

/// Finds `<flag> V` / `<flag>=V` in `args` (the last occurrence wins) and
/// parses `V`. A flag with a missing or unparsable value is an error
/// naming the flag and the value — never a silent default.
fn flag_value<T>(
    args: &[String],
    flag: &str,
    parse: impl Fn(&str) -> Option<T>,
) -> Result<Option<T>, String> {
    let mut found = None;
    let mut i = 0;
    while i < args.len() {
        let value = if args[i] == flag {
            i += 1;
            Some(
                args.get(i)
                    .ok_or_else(|| format!("{flag} needs a value"))?
                    .as_str(),
            )
        } else {
            args[i]
                .strip_prefix(flag)
                .and_then(|rest| rest.strip_prefix('='))
        };
        if let Some(v) = value {
            found = Some(parse(v).ok_or_else(|| format!("invalid value '{v}' for {flag}"))?);
        }
        i += 1;
    }
    Ok(found)
}

/// The first argument after the program name that is neither one of the
/// value-taking `flags` (`<flag> V` or `<flag>=V`) nor the value of one.
fn unknown_argument<'a>(args: &'a [String], flags: &[&str]) -> Option<&'a str> {
    let mut rest = args.iter().skip(1);
    while let Some(arg) = rest.next() {
        if flags.contains(&arg.as_str()) {
            rest.next(); // its value; a missing one is `flag_value`'s error
        } else if !flags
            .iter()
            .any(|f| arg.strip_prefix(f).is_some_and(|v| v.starts_with('=')))
        {
            return Some(arg);
        }
    }
    None
}

/// Prints a one-line usage error and exits with status 2.
fn exit_usage(error: &str) -> ! {
    eprintln!("error: {error}");
    std::process::exit(2);
}

/// Every harness binary calls this first, naming the flags it takes: any
/// other process argument — a typo, a flag of another binary, a retired
/// one — exits with status 2 instead of being ignored.
pub fn reject_unknown_args(flags: &[&str]) {
    let args: Vec<String> = std::env::args().collect();
    if let Some(arg) = unknown_argument(&args, flags) {
        exit_usage(&format!("unknown argument '{arg}'"));
    }
}

/// [`flag_value`] over the process arguments; a malformed value exits
/// with status 2.
fn flag_from_args<T>(flag: &str, parse: impl Fn(&str) -> Option<T>) -> Option<T> {
    let args: Vec<String> = std::env::args().collect();
    flag_value(&args, flag, parse).unwrap_or_else(|e| exit_usage(&e))
}

/// Applies the `--mem-limit N` (or `--mem-limit=N`) command-line knob
/// shared by the figure harnesses: parses a byte count with optional
/// `K`/`M`/`G` suffix and pins the process-wide memory limit via
/// [`htqo_engine::exec::set_mem_limit_default`], returning the limit now
/// in effect. Without the flag, the `HTQO_MEM_LIMIT` env var / unlimited
/// default stands; an unparsable value exits with status 2.
pub fn mem_limit_from_args() -> Option<u64> {
    if let Some(n) = flag_from_args("--mem-limit", htqo_engine::exec::parse_bytes) {
        htqo_engine::exec::set_mem_limit_default(Some(n));
    }
    htqo_engine::exec::mem_limit_default()
}

/// `raw`, the value of environment knob `name`, through `parse`: `None`
/// when the variable is unset; a set-but-unparsable value is an error
/// naming the variable and the value — never a silent default.
fn env_value<T>(
    name: &str,
    raw: Option<&str>,
    parse: impl Fn(&str) -> Option<T>,
) -> Result<Option<T>, String> {
    raw.map(|v| parse(v).ok_or_else(|| format!("invalid value '{v}' for {name}")))
        .transpose()
}

/// [`env_value`] over the process environment; a malformed value exits
/// with status 2.
fn env_from_process<T>(name: &str, parse: impl Fn(&str) -> Option<T>) -> Option<T> {
    let raw = match std::env::var(name) {
        Ok(v) => Some(v),
        Err(std::env::VarError::NotPresent) => None,
        Err(std::env::VarError::NotUnicode(_)) => exit_usage(&format!("{name} is not UTF-8")),
    };
    env_value(name, raw.as_deref(), parse).unwrap_or_else(|e| exit_usage(&e))
}

/// A finite, non-negative number (every knob is a size, a count or a
/// duration).
fn parse_quantity(v: &str) -> Option<f64> {
    v.trim()
        .parse()
        .ok()
        .filter(|x: &f64| x.is_finite() && *x >= 0.0)
}

/// A non-empty comma-separated list of [`parse_quantity`] values.
fn parse_quantities(v: &str) -> Option<Vec<f64>> {
    v.split(',').map(parse_quantity).collect()
}

/// Reads an f64 environment knob; `default` when it is unset, exit
/// status 2 when it is set to anything but a finite non-negative number.
pub fn env_f64(name: &str, default: f64) -> f64 {
    env_from_process(name, parse_quantity).unwrap_or(default)
}

/// Reads a comma-separated f64 list knob; `default` when it is unset,
/// exit status 2 when any element is not a finite non-negative number.
pub fn env_f64_list(name: &str, default: &[f64]) -> Vec<f64> {
    env_from_process(name, parse_quantities).unwrap_or_else(|| default.to_vec())
}

/// Convenience used by every harness: run `f` and convert its outcome.
pub fn run_measured(f: impl FnOnce(Budget) -> QueryOutcome) -> Measurement {
    Measurement::of(&f(run_budget()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn flag_values_parse_or_name_the_offender() {
        let mem = |v: &[&str]| flag_value(&args(v), "--mem-limit", htqo_engine::exec::parse_bytes);
        assert_eq!(mem(&["bin", "--other"]), Ok(None));
        assert_eq!(mem(&["bin", "--mem-limit", "12K"]), Ok(Some(12 << 10)));
        assert_eq!(
            mem(&["bin", "--mem-limit=3M", "--mem-limit", "4"]),
            Ok(Some(4))
        );
        assert_eq!(mem(&["bin", "--mem-limit-extra=9"]), Ok(None));
        for bad in [
            &["bin", "--mem-limit", "12Q"][..],
            &["bin", "--mem-limit=abc"],
            &["bin", "--mem-limit="],
            &["bin", "--mem-limit"],
        ] {
            let err = mem(bad).unwrap_err();
            assert!(err.contains("--mem-limit"), "{err}");
        }
        assert!(mem(&["bin", "--mem-limit", "12Q"])
            .unwrap_err()
            .contains("'12Q'"));
    }

    #[test]
    fn arguments_no_flag_consumes_are_named() {
        let unknown = |v: &[&str]| unknown_argument(&args(v), &["--mem-limit"]).map(str::to_owned);
        assert_eq!(unknown(&["bin"]), None);
        assert_eq!(
            unknown(&["bin", "--mem-limit", "1G", "--mem-limit=2G"]),
            None
        );
        // A flag's value is not looked at here, whatever it looks like.
        assert_eq!(unknown(&["bin", "--mem-limit", "--jobs"]), None);
        assert_eq!(unknown(&["bin", "--mem-limit"]), None);
        for (argv, offender) in [
            (&["bin", "--jobs", "4"][..], "--jobs"),
            (&["bin", "--jobs=4"], "--jobs=4"),
            (&["bin", "--mem-limit", "1G", "extra"], "extra"),
            (&["bin", "--mem-limit-extra=9"], "--mem-limit-extra=9"),
            (&["bin", "--mem-limitless"], "--mem-limitless"),
        ] {
            assert_eq!(unknown(argv).as_deref(), Some(offender));
        }
        assert_eq!(
            unknown_argument(&args(&["bin", "--mem-limit", "1G"]), &[]),
            Some("--mem-limit")
        );
    }

    #[test]
    fn environment_values_parse_or_name_the_offender() {
        let secs = |raw| env_value("HTQO_TIMEOUT_SECS", raw, parse_quantity);
        assert_eq!(secs(None), Ok(None), "unset keeps the default");
        assert_eq!(secs(Some("2.5")), Ok(Some(2.5)));
        assert_eq!(secs(Some(" 10 ")), Ok(Some(10.0)));
        for bad in ["abc", "", "-1", "inf", "NaN", "1,2"] {
            let err = secs(Some(bad)).unwrap_err();
            assert!(
                err.contains("HTQO_TIMEOUT_SECS") && err.contains(&format!("'{bad}'")),
                "{err}"
            );
        }
        let scales = |raw| env_value("HTQO_FIG8_SCALES", raw, parse_quantities);
        assert_eq!(
            scales(Some("0.02, 0.1,0.5")),
            Ok(Some(vec![0.02, 0.1, 0.5]))
        );
        for bad in ["", "0.02,,0.1", "0.02,x", ","] {
            assert!(scales(Some(bad)).is_err(), "{bad:?}");
        }
    }

    fn m(seconds: f64, dnf: bool) -> Measurement {
        Measurement {
            seconds,
            tuples: 10,
            rows: if dnf { None } else { Some(1) },
            dnf,
        }
    }

    #[test]
    fn cells_render() {
        assert_eq!(m(1.5, false).cell(), "1.500s");
        assert_eq!(m(1.5, true).cell(), "DNF");
        let err = Measurement {
            seconds: 0.0,
            tuples: 0,
            rows: None,
            dnf: false,
        };
        assert_eq!(err.cell(), "ERR");
    }

    #[test]
    fn series_lookup() {
        let mut s = Series::new("q-HD");
        s.push(2.0, m(0.1, false));
        assert!(s.at(2.0).is_some());
        assert!(s.at(3.0).is_none());
    }

    #[test]
    fn env_defaults() {
        assert_eq!(env_f64("HTQO_NOT_SET_XYZ", 7.5), 7.5);
        assert_eq!(
            env_f64_list("HTQO_NOT_SET_XYZ", &[1.0, 2.0]),
            vec![1.0, 2.0]
        );
    }
}

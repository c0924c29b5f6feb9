//! `e2e`: one layer-attributed end-to-end benchmark.
//!
//! ```text
//! e2e --workload <name> [--seed N] [--seconds S | --rounds N] [--trace 0|1] [--smoke]
//! e2e --aa <n> [--seed N] [--rounds N]     # A/A: the whole suite n times, spreads checked
//! e2e --smoke                              # every workload, tiny, all checks on
//! e2e --emit-benchmark-json                # the contents of BENCHMARK.json
//! ```
//!
//! One process per workload. The last line of standard output is the
//! result: `{"correct", "attempted", "failed", "metrics"}`, holding the
//! end-to-end metrics without `--trace 1` and the per-layer metrics with
//! it. The line before it describes the run (host, threads, scale, seed).
//! See README.md for what each workload and metric is for.

mod check;
mod gen;
mod json;
mod measure;
mod metrics;
mod replay;
mod runner;
mod trace;
mod workloads;

use json::{quote, Json};
use metrics::{END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use runner::{RunConfig, RunOutput};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode};

/// Rounds per A/A run: fixed, because counts repeat only when the round
/// count does, and enough for a p95 with ten samples beyond it.
const AA_ROUNDS: usize = 200;
const SMOKE_ROUNDS: usize = 3;

#[derive(Default)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    rounds: Option<usize>,
    trace: bool,
    smoke: bool,
    aa: Option<usize>,
    emit: bool,
    trace_out: Option<PathBuf>,
}

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: e2e --workload <{}> [--seed N] [--seconds S | --rounds N] [--trace 0|1] \
         [--smoke] [--trace-out FILE]\n       e2e --aa <n> [--seed N] [--rounds N]\n       \
         e2e --smoke\n       e2e --emit-benchmark-json",
        names.join("|")
    )
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        seed: 1,
        ..Args::default()
    };
    let mut it = argv.iter().peekable();
    fn value<'a>(
        flag: &str,
        it: &mut std::iter::Peekable<std::slice::Iter<'a, String>>,
    ) -> Result<&'a String, String> {
        it.next().ok_or(format!("{flag} needs a value"))
    }
    fn number<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, String> {
        v.parse()
            .map_err(|_| format!("{flag}: `{v}` is not a valid number"))
    }
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => a.workload = Some(value(flag, &mut it)?.clone()),
            "--seed" => a.seed = number(flag, value(flag, &mut it)?)?,
            "--seconds" => {
                let s: f64 = number(flag, value(flag, &mut it)?)?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds: {s} is out of range"));
                }
                a.seconds = Some(s);
            }
            "--rounds" => {
                let n: usize = number(flag, value(flag, &mut it)?)?;
                if n == 0 {
                    return Err("--rounds must be at least 1".into());
                }
                a.rounds = Some(n);
            }
            // `--trace 1` for the driver, bare `--trace` for people.
            "--trace" => {
                a.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--smoke" => a.smoke = true,
            "--aa" => {
                let n: usize = number(flag, value(flag, &mut it)?)?;
                if n < 2 {
                    return Err("--aa needs at least 2 runs to compare".into());
                }
                a.aa = Some(n);
            }
            "--emit-benchmark-json" => a.emit = true,
            "--trace-out" => a.trace_out = Some(PathBuf::from(value(flag, &mut it)?)),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(a)
}

/// Everything the benchmark writes goes under the build's target
/// directory: inside the checkout, ignored by git.
fn output_root() -> PathBuf {
    PathBuf::from(std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into()))
        .join("e2e")
}

/// Removes the run's scratch directory on every exit path.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn git_sha() -> String {
    Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or("unknown".to_string(), |s| s.trim().to_string())
}

fn result_line(out: &RunOutput) -> String {
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "{}: {{\"value\": {value}, \"unit\": {}}}",
                quote(name),
                quote(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct,
        out.attempted,
        out.failed,
        metrics.join(", ")
    )
}

fn run_one(args: &Args, workload: &str) -> Result<ExitCode, String> {
    let spec = workloads::spec(workload)
        .ok_or_else(|| format!("unknown workload `{workload}`\n{}", usage()))?;
    htqo_engine::exec::set_threads(spec.engine_threads);

    let root = output_root();
    let scratch = Scratch(root.join(format!("run-{workload}-{}", std::process::id())));
    std::fs::create_dir_all(scratch.0.join("spill"))
        .map_err(|e| format!("{}: {e}", scratch.0.display()))?;
    let cfg = RunConfig {
        seed: args.seed,
        seconds: args.seconds.unwrap_or(RUN_SECONDS as f64),
        rounds: args.rounds.or(args.smoke.then_some(SMOKE_ROUNDS)),
        trace: args.trace,
        smoke: args.smoke,
        scratch: scratch.0.clone(),
        trace_out: args
            .trace_out
            .clone()
            .unwrap_or_else(|| root.join(format!("{workload}.trace.jsonl"))),
    };
    let out = runner::run(&cfg, spec.build).map_err(|e| format!("{workload}: {e}"))?;
    drop(scratch);

    let errors: Vec<String> = out.errors.iter().map(|e| quote(e)).collect();
    println!(
        "{{\"info\": {{\"workload\": {}, \"seed\": {}, \"scale\": {}, \"rounds\": {}, \
         \"traced_rounds\": {}, \"setup_reps\": {}, \"nproc\": {}, \"engine_threads\": {}, \
         \"engine_threads_requested\": {}, \"sessions\": {}, \"profile\": {}, \"git_sha\": {}, \
         \"peak_rss_covers\": {}, \"trace_file\": {}, \"errors\": [{}]}}}}",
        quote(workload),
        cfg.seed,
        quote(&out.scale),
        out.rounds,
        out.traced_rounds,
        out.setup_reps,
        htqo_engine::exec::hardware_threads(),
        htqo_engine::exec::num_threads(),
        spec.engine_threads,
        spec.sessions,
        quote(if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        }),
        quote(&git_sha()),
        quote(if out.peak_reset {
            "measured phase"
        } else {
            "whole process"
        }),
        if cfg.trace {
            quote(&cfg.trace_out.display().to_string())
        } else {
            "null".to_string()
        },
        errors.join(", ")
    );
    println!("{}", result_line(&out));
    Ok(if out.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Runs this executable again as a child on one workload and reads its
/// result line back: `(correct, metrics)`.
fn child_run(extra: &[String]) -> Result<(bool, BTreeMap<String, f64>), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(extra)
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout
        .lines()
        .last()
        .ok_or(format!("`{}` printed nothing", extra.join(" ")))?;
    let v = json::parse(last).map_err(|e| format!("`{}`: {e}", extra.join(" ")))?;
    let correct = v.get("correct").and_then(Json::as_bool).unwrap_or(false) && out.status.success();
    let metrics = v
        .get("metrics")
        .and_then(Json::as_obj)
        .ok_or("result line has no metrics")?
        .iter()
        .filter_map(|(k, m)| Some((k.clone(), m.get("value")?.as_f64()?)))
        .collect();
    Ok((correct, metrics))
}

fn child_args(workload: &str, seed: u64, trace: bool, tail: &[&str]) -> Vec<String> {
    let mut a: Vec<String> = vec![
        "--workload".into(),
        workload.into(),
        "--seed".into(),
        seed.to_string(),
        "--trace".into(),
        u8::from(trace).to_string(),
    ];
    a.extend(tail.iter().map(|s| s.to_string()));
    a
}

/// A/A: the full suite `n` times with identical inputs, alternating the
/// workload order; prints each metric's spread (max |Δ| / median) and
/// fails when an end-to-end metric exceeds its bound or an exact count
/// differs at all.
fn run_aa(args: &Args, n: usize) -> Result<ExitCode, String> {
    let rounds = args.rounds.unwrap_or(AA_ROUNDS).to_string();
    let mut samples: BTreeMap<(&str, String), Vec<f64>> = BTreeMap::new();
    let mut all_correct = true;
    for i in 0..n {
        let mut order: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        if i % 2 == 1 {
            order.reverse();
        }
        for w in order {
            for trace in [false, true] {
                eprintln!("a/a run {}/{n}: {w} trace={}", i + 1, u8::from(trace));
                let (correct, metrics) =
                    child_run(&child_args(w, args.seed, trace, &["--rounds", &rounds]))?;
                all_correct &= correct;
                for (k, v) in metrics {
                    samples.entry((w, k)).or_default().push(v);
                }
            }
        }
    }
    let mut violations = 0;
    println!("workload\tmetric\tunit\tmedian\tspread\tlimit\tverdict");
    for ((w, name), values) in &samples {
        let Some(def) = metrics::find(name) else {
            continue;
        };
        let spread = measure::spread(values);
        let limit = if def.exact {
            Some(0.0)
        } else if END_TO_END.iter().any(|m| m.name == def.name) {
            Some(def.bound)
        } else {
            None
        };
        let ok = limit.is_none_or(|l| spread <= l);
        violations += usize::from(!ok);
        println!(
            "{w}\t{name}\t{}\t{}\t{spread:.4}\t{}\t{}",
            def.unit,
            measure::median(values),
            limit.map_or("-".to_string(), |l| l.to_string()),
            if ok { "ok" } else { "EXCEEDED" }
        );
    }
    eprintln!(
        "a/a: {n} runs x {} workloads, {violations} metric(s) over their limit, answers {}",
        WORKLOADS.len(),
        if all_correct { "correct" } else { "WRONG" }
    );
    Ok(if violations == 0 && all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Smoke: every workload at tiny scale, untraced and traced, all checks
/// on; for CI wiring.
fn run_smoke(args: &Args) -> Result<ExitCode, String> {
    let mut ok = true;
    for w in &WORKLOADS {
        for trace in [false, true] {
            let (correct, metrics) =
                child_run(&child_args(w.name, args.seed, trace, &["--smoke"]))?;
            let expected = if trace {
                PER_LAYER.len()
            } else {
                END_TO_END.len()
            };
            let complete = metrics.len() == expected;
            println!(
                "{}\ttrace={}\t{}\t{} metrics",
                w.name,
                u8::from(trace),
                if correct && complete { "ok" } else { "FAILED" },
                metrics.len()
            );
            ok &= correct && complete;
        }
    }
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2e: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    if args.emit {
        print!("{}", metrics::benchmark_json());
        return ExitCode::SUCCESS;
    }
    // A stray runtime knob (HTQO_WAL=off, HTQO_THREADS=…) would silently
    // change what is measured; every setting the workloads need is fixed
    // in their files.
    let knobs: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("HTQO_"))
        .collect();
    if !knobs.is_empty() {
        eprintln!(
            "e2e: refusing to run with runtime knobs set in the environment: {}\n\
             unset them; the benchmark pins every setting itself",
            knobs.join(", ")
        );
        return ExitCode::from(2);
    }
    let outcome = match (&args.workload, args.aa) {
        (Some(w), None) => run_one(&args, w),
        (None, Some(n)) => run_aa(&args, n),
        (None, None) if args.smoke => run_smoke(&args),
        _ => Err(usage()),
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("e2e: {e}");
        ExitCode::from(2)
    })
}

//! The benchmark's contract in one place: workloads, metric names, units,
//! directions and regression bounds. `BENCHMARK.json` at the repository
//! root is this table rendered by `e2e --emit-benchmark-json`; a unit test
//! keeps the two identical.

/// Seconds of measured phase per driver run (`run_seconds`).
pub const RUN_SECONDS: u64 = 15;

pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadDef; 4] = [
    WorkloadDef {
        name: "tpch_mem",
        why: "TPC-H Q5/Q8/Q3/Q10 in memory (paper Fig. 8): scan, joins, semijoins, aggregation do >90% of the work; planner changes are invisible here",
    },
    WorkloadDef {
        name: "plan_cold",
        why: "6-12 atom line/cycle queries with the plan cache off (paper Fig. 7/9, sec. 6.1): parse, isolate, cost-k-decomp, Optimize dominate; executor and cache bypassed",
    },
    WorkloadDef {
        name: "service_hot",
        why: "2 sessions replay prepared and ad-hoc statements on cached plans: per-statement fixed cost (parse, key, cache probe, admission) dominates sub-ms executions",
    },
    WorkloadDef {
        name: "paged_rw",
        why: "durable mutation batches, crash, WAL recovery, reload through a small buffer pool, then Q5/Q3 and B-tree lookups: storage does most of the round, writes beside reads",
    },
];

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may get
    /// worse; unused (0) for per-layer metrics.
    pub bound: f64,
    /// Counts that must repeat bit-exactly between two runs of the same
    /// code with the same seed and `--rounds` (checked by `--aa`).
    pub exact: bool,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
        exact: false,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: 0.0,
        exact: false,
    }
}

const fn exact(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: 0.0,
        exact: true,
    }
}

use crate::json::quote;
use Better::{Higher, Lower};

/// What a later change is gated on, on every workload.
///
/// The gated timing is the 1st percentile of the round times, not their
/// median. This host's two cores are shared with other tenants and flip,
/// second by second, between an undisturbed state and one ~30 % slower
/// (process CPU time slows with the wall clock, so it is contention for
/// the core itself, not for the scheduler): `plan_cold` rounds take
/// 34.5 ms or 44.5 ms and little in between. A median sits on the boundary
/// between the two states and jumps by that 30 % from run to run, the 10th
/// percentile still by 25 % whenever a run meets fewer than a tenth of its
/// rounds undisturbed; the 1st percentile of ≥ 200 rounds is the round
/// time when the neighbours leave the core alone — which is what two
/// versions of the code can be compared on. Between ten seeds it spread
/// 1–2 % in quiet minutes and 5–8 % in the worst ones measured (quartile
/// distance over median), hence the bound: three times that. Median, p95,
/// throughput, CPU per round and peak memory are still reported, in the
/// per-layer list, ungated: each was tried as a gate and spread by more
/// than its bound (README.md has the numbers).
///
/// `setup_s` is a low percentile (the 10th) over the repeated set-ups for
/// the same reason. No bound may exceed 0.25, so both carry it.
pub const END_TO_END: [MetricDef; 2] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("round_p1_ms", "ms", Lower, 0.25),
];

/// Single-layer metrics, from the traced run. Times and counts are per
/// measured round unless the name says otherwise.
pub const PER_LAYER: &[MetricDef] = &[
    // End-to-end by nature, but too noisy on a shared host to gate on
    // (see above). From the opaque half of the traced run.
    layer("round_p50_ms", "ms", Lower),
    layer("round_p95_ms", "ms", Lower),
    layer("stmts_per_s", "1/s", Higher),
    layer("cpu_ms_per_round", "ms", Lower),
    layer("peak_rss_mb", "MiB", Lower),
    // End-to-end by nature, but zero or absent on some workloads, which
    // the contract forbids for a bounded metric.
    exact("failed_share", "ratio", Lower),
    layer("commit_p50_ms", "ms", Lower),
    layer("restart_p50_ms", "ms", Lower),
    exact("space_amp", "ratio", Lower),
    // cq
    layer("cq.parse.busy_ms", "ms", Lower),
    layer("cq.isolate.busy_ms", "ms", Lower),
    exact("cq.stmts", "count", Higher),
    // optimizer
    layer("optimizer.flatten.busy_ms", "ms", Lower),
    layer("optimizer.planning_ms", "ms", Lower),
    layer("optimizer.execution_ms", "ms", Lower),
    layer("optimizer.plan_cache.hit_ratio", "ratio", Higher),
    layer("optimizer.plan_cache.probe_us", "us", Lower),
    layer("optimizer.fallback_share", "ratio", Lower),
    // hypergraph
    layer("hypergraph.canon.busy_ms", "ms", Lower),
    // core
    layer("core.search.busy_ms", "ms", Lower),
    exact("core.search.separators_tried", "count", Lower),
    exact("core.search.subproblems", "count", Lower),
    exact("core.search.memo_hits", "count", Higher),
    exact("core.search.bound_cuts", "count", Higher),
    layer("core.optimize.busy_ms", "ms", Lower),
    exact("core.optimize.removed_atoms", "count", Higher),
    exact("core.plan.width_max", "count", Lower),
    exact("core.plan.join_work", "count", Lower),
    // stats
    layer("stats.analyze.busy_ms", "ms", Lower),
    layer("stats.answer_qerror_p50", "ratio", Lower),
    // eval
    layer("eval.qhd.busy_ms", "ms", Lower),
    exact("eval.qhd.tuples", "count", Lower),
    layer("eval.qhd.hash_builds", "count", Lower),
    layer("eval.qhd.index_seek_joins", "count", Higher),
    layer("eval.factorized.share", "ratio", Higher),
    layer("eval.factorized.fallbacks", "count", Lower),
    // engine
    layer("engine.scan.busy_ms", "ms", Lower),
    layer("engine.aggregate.busy_ms", "ms", Lower),
    layer("engine.spill.bytes", "B", Lower),
    layer("engine.spill.partitions", "count", Lower),
    exact("engine.rows_out", "count", Higher),
    // service
    layer("service.stmt_p50_us", "us", Lower),
    layer("service.stmt_p99_us", "us", Lower),
    layer("service.overhead_us", "us", Lower),
    layer("service.prepared_saving_us", "us", Higher),
    layer("service.admitted", "count", Higher),
    layer("service.rejected", "count", Lower),
    layer("service.completed_err", "count", Lower),
    // storage
    layer("storage.ingest.busy_ms", "ms", Lower),
    layer("storage.ingest.mb_s", "MiB/s", Higher),
    layer("storage.apply.busy_ms", "ms", Lower),
    layer("storage.apply.rows_s", "1/s", Higher),
    layer("storage.wal.bytes_per_user_byte", "ratio", Lower),
    layer("storage.wal.checkpoints", "count", Lower),
    layer("storage.checkpoint.stall_max_ms", "ms", Lower),
    layer("storage.recover.busy_ms", "ms", Lower),
    layer("storage.recover.pages_redone", "count", Lower),
    layer("storage.recover.batches_replayed", "count", Lower),
    layer("storage.load.busy_ms", "ms", Lower),
    layer("storage.load.pages_s", "1/s", Higher),
    layer("storage.buffer.hit_ratio", "ratio", Higher),
    layer("storage.buffer.misses", "count", Lower),
    layer("storage.buffer.evictions", "count", Lower),
    layer("storage.btree.pins_per_seek", "count", Lower),
    // trace
    layer("trace.coverage", "ratio", Higher),
    layer("trace.overhead_pct", "%", Lower),
    layer("trace.share.cq", "ratio", Lower),
    layer("trace.share.optimizer", "ratio", Lower),
    layer("trace.share.hypergraph", "ratio", Lower),
    layer("trace.share.core", "ratio", Lower),
    layer("trace.share.eval", "ratio", Lower),
    layer("trace.share.engine", "ratio", Lower),
    layer("trace.share.storage", "ratio", Lower),
];

pub fn find(name: &str) -> Option<&'static MetricDef> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|m| m.name == name)
}

/// The contents of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                quote(w.name),
                quote(w.why)
            )
        })
        .collect();
    let metric = |m: &MetricDef, bound: bool| {
        let bound = if bound {
            format!(", \"bound\": {}", m.bound)
        } else {
            String::new()
        };
        format!(
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}{bound}}}",
            quote(m.name),
            quote(m.unit),
            quote(m.better.as_str())
        )
    };
    let end_to_end: Vec<String> = END_TO_END.iter().map(|m| metric(m, true)).collect();
    let per_layer: Vec<String> = PER_LAYER.iter().map(|m| metric(m, false)).collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \
         \"--manifest-path\", \"e2e/Cargo.toml\", \"--\"],\n  \"paths\": [\"e2e\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \
         \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_at_the_root_is_this_table() {
        let on_disk = include_str!("../../BENCHMARK.json");
        assert_eq!(
            on_disk,
            benchmark_json(),
            "regenerate with `e2e --emit-benchmark-json > BENCHMARK.json`"
        );
    }

    #[test]
    fn the_table_meets_the_contract_limits() {
        let ok_name = |n: &str| {
            n.len() <= 64
                && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let ok_unit = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut names: Vec<&str> = Vec::new();
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(ok_name(m.name), "{}", m.name);
            assert!(ok_unit(m.unit), "{} unit {}", m.name, m.unit);
            assert!(!names.contains(&m.name), "duplicate {}", m.name);
            names.push(m.name);
        }
        for w in &WORKLOADS {
            assert!(ok_name(w.name));
            assert!(!names.contains(&w.name));
            names.push(w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((1..=60).contains(&RUN_SECONDS));
        let setup = find("setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25);
            assert!(m.bound <= setup.bound, "setup_s carries the largest bound");
        }
        assert!(benchmark_json().len() <= 64 * 1024);
    }
}

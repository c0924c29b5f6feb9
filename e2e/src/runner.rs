//! The measurement loop shared by the four workloads: repeated set-up,
//! warm-up, a measured phase of opaque rounds, an optional traced phase
//! of step-wise rounds, and the reduction of both to named metrics.
//!
//! The unit of measurement is a *round*: one pass over the workload's
//! fixed, seed-generated statement list. A per-statement median would sit
//! on the boundary between two statement classes and jump from run to
//! run; a round keeps every statement in every sample. All loops are
//! closed: a client issues its next call when the previous one returns.

use crate::measure::{median, ns_to_ms, peak_rss_mib, percentile_of, reset_peak_rss};
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::replay::StepCounters;
use crate::trace::Tracer;
use htqo_engine::VRelation;
use htqo_optimizer::{PlanCacheStatus, QueryOutcome, Rung};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// What one run was asked to do.
#[derive(Clone, Debug)]
pub struct RunConfig {
    pub seed: u64,
    /// Measured-phase length; ignored when `rounds` is set.
    pub seconds: f64,
    /// Exact number of measured rounds (A/A and smoke runs: counts repeat
    /// only when the round count does).
    pub rounds: Option<usize>,
    pub trace: bool,
    pub smoke: bool,
    /// A fresh directory for this run's storage and spill files.
    pub scratch: PathBuf,
    /// Where the traced run writes its spans.
    pub trace_out: PathBuf,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Mode {
    /// Public entry points only, as a client calls them.
    Opaque,
    /// The same round, each statement replayed step by step with spans.
    Stepwise,
}

/// The fields of a [`QueryOutcome`] the per-layer metrics read.
#[derive(Clone, Debug)]
pub struct OutcomeInfo {
    pub planning_ns: u64,
    pub execution_ns: u64,
    pub tuples: u64,
    pub hash_builds: u64,
    pub index_seek_joins: u64,
    pub spill_bytes: u64,
    pub spill_partitions: u64,
    pub factorized: bool,
    pub factorized_fallback: bool,
    pub cache: PlanCacheStatus,
    pub fell_back: bool,
    pub estimated_rows: Option<f64>,
}

impl OutcomeInfo {
    pub fn of(o: &QueryOutcome) -> Self {
        OutcomeInfo {
            planning_ns: o.planning.as_nanos() as u64,
            execution_ns: o.execution.as_nanos() as u64,
            tuples: o.tuples,
            hash_builds: o.hash_builds,
            index_seek_joins: o.index_seek_joins,
            spill_bytes: o.spill_bytes,
            spill_partitions: o.spill_partitions,
            factorized: o.factorized,
            factorized_fallback: o.factorized_fallback.is_some(),
            cache: o.plan_cache,
            fell_back: o.rung != Rung::QHd || !o.attempts.is_empty(),
            estimated_rows: o.estimated_answer_rows,
        }
    }
}

/// One statement of a round.
pub struct StmtResult {
    /// Index into the workload's reference answers.
    pub stmt: usize,
    /// The answer, or why there is none (error, rejection).
    pub answer: Result<VRelation, String>,
    /// Latency of the client call (opaque) or of the replayed chain
    /// without probes (step-wise).
    pub lat_ns: u64,
    /// `service_hot` only: ran as a prepared statement.
    pub prepared: bool,
    /// `service_hot` step-wise only: latency of `execute_sql` on the
    /// service's optimizer directly, bypassing the session.
    pub direct_ns: Option<u64>,
    pub info: Option<OutcomeInfo>,
}

impl StmtResult {
    /// Splits an opaque call's outcome into answer and counters.
    pub fn of_outcome(stmt: usize, lat_ns: u64, prepared: bool, outcome: QueryOutcome) -> Self {
        let info = OutcomeInfo::of(&outcome);
        StmtResult {
            stmt,
            answer: outcome.result.map_err(|e| e.to_string()),
            lat_ns,
            prepared,
            direct_ns: None,
            info: Some(info),
        }
    }

    pub fn failed(stmt: usize, lat_ns: u64, prepared: bool, why: String) -> Self {
        StmtResult {
            stmt,
            answer: Err(why),
            lat_ns,
            prepared,
            direct_ns: None,
            info: None,
        }
    }
}

/// The storage half of a `paged_rw` round.
#[derive(Clone, Debug, Default)]
pub struct StorageRound {
    /// Latency of each durable `apply`, or its error.
    pub commits: Vec<Result<u64, String>>,
    pub ops: u64,
    pub user_bytes: u64,
    pub wal_bytes: u64,
    pub checkpoints: u64,
    pub stall_max_ns: u64,
    pub recover_ns: u64,
    pub load_ns: u64,
    pub pages_redone: u64,
    pub batches_replayed: u64,
    pub pages_loaded: u64,
    /// Buffer-pool counters of the pools reachable through a
    /// `PagedIndex` (step-wise rounds only).
    pub pool_hits: u64,
    pub pool_misses: u64,
    pub pool_evictions: u64,
    /// B-tree probe: pool pins spent on `seeks` direct index seeks.
    pub seek_pins: u64,
    pub seeks: u64,
}

/// Everything one round produced.
#[derive(Default)]
pub struct RoundRecord {
    /// Time inside the system's calls (for concurrent sessions: the
    /// makespan). Harness work between calls is not in it.
    pub wall_ns: u64,
    /// Process CPU over the same windows.
    pub cpu_ms: f64,
    /// Step-wise rounds: wall time including probes and span recording.
    pub traced_wall_ns: u64,
    pub stmts: Vec<StmtResult>,
    pub storage: Option<StorageRound>,
    pub step: StepCounters,
}

/// A workload: a seeded state plus how to run and check one round of it.
pub trait Workload {
    fn round(&mut self, mode: Mode, tracer: &mut Tracer) -> RoundRecord;
    /// Compares a round's answers with the references; one message per
    /// failed operation.
    fn verify(&mut self, record: &RoundRecord) -> Vec<String>;
    /// End-of-run values only the workload can read (service counters,
    /// space amplification).
    fn finish(&mut self, _extras: &mut BTreeMap<&'static str, f64>) {}
    /// Data scale, for the run's info line.
    fn scale(&self) -> String;
}

/// A freshly built workload and what building it cost the system (data
/// generation, ANALYZE, ingest — not the benchmark's own reference
/// answers).
pub struct Built {
    pub workload: Box<dyn Workload>,
    pub setup_ns: u64,
    pub analyze_ns: u64,
    pub ingest_ns: u64,
    pub ingest_bytes: u64,
}

pub type Builder = fn(&RunConfig, usize) -> Built;

/// Set-up repeats: at least three, then until 1.5 s have been spent or 40
/// are done, so that millisecond set-ups are sampled as densely as
/// 100 ms ones.
const SETUP_MIN_REPS: usize = 3;
const SETUP_MAX_REPS: usize = 40;
const SETUP_BUDGET_S: f64 = 1.5;

/// The percentiles the gated timings report; see `metrics::END_TO_END`.
const GATE_PERCENTILE: f64 = 0.01;
const SETUP_PERCENTILE: f64 = 0.10;

const WARMUP_ROUNDS: usize = 10;

/// Traced rounds whose spans are kept for the trace file.
const TRACE_FILE_ROUNDS: u32 = 32;

/// Sums and samples over the rounds of one phase.
#[derive(Default)]
struct Phase {
    walls_ms: Vec<f64>,
    traced_walls_ms: Vec<f64>,
    cpu_ms: f64,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    stmts: u64,
    stmt_ns: u64,
    storage_ns: u64,
    stmt_lat_us: Vec<f64>,
    prepared_us: Vec<f64>,
    adhoc_us: Vec<f64>,
    direct_us: Vec<f64>,
    direct_adhoc_us: Vec<f64>,
    planning_ns: u64,
    execution_ns: u64,
    tuples: u64,
    hash_builds: u64,
    index_seek_joins: u64,
    spill_bytes: u64,
    spill_partitions: u64,
    factorized: u64,
    factorized_fallbacks: u64,
    cache_hits: u64,
    cache_lookups: u64,
    fell_back: u64,
    outcomes: u64,
    qerrors: Vec<f64>,
    rows_out: u64,
    commit_ms: Vec<f64>,
    restart_ms: Vec<f64>,
    storage: StorageRound,
    step: StepCounters,
}

impl Phase {
    fn rounds(&self) -> usize {
        self.walls_ms.len()
    }

    fn wall_s(&self) -> f64 {
        self.walls_ms.iter().sum::<f64>() / 1e3
    }

    fn per_round(&self, total: f64) -> f64 {
        total / self.rounds().max(1) as f64
    }

    fn absorb(&mut self, rec: &RoundRecord, failures: Vec<String>) {
        self.walls_ms.push(ns_to_ms(rec.wall_ns));
        self.traced_walls_ms.push(ns_to_ms(rec.traced_wall_ns));
        self.cpu_ms += rec.cpu_ms;
        self.failed += failures.len() as u64;
        for f in failures {
            if self.errors.len() < 5 {
                self.errors.push(f);
            }
        }
        self.attempted += rec.stmts.len() as u64;
        self.step.add(&rec.step);
        for s in &rec.stmts {
            self.stmts += 1;
            self.stmt_ns += s.lat_ns;
            let us = s.lat_ns as f64 / 1e3;
            self.stmt_lat_us.push(us);
            if s.prepared {
                self.prepared_us.push(us);
            } else {
                self.adhoc_us.push(us);
            }
            if let Some(d) = s.direct_ns {
                self.direct_us.push(d as f64 / 1e3);
                if !s.prepared {
                    self.direct_adhoc_us.push(d as f64 / 1e3);
                }
            }
            let rows = s.answer.as_ref().map_or(0, |a| a.len() as u64);
            self.rows_out += rows;
            let Some(i) = &s.info else { continue };
            self.outcomes += 1;
            self.planning_ns += i.planning_ns;
            self.execution_ns += i.execution_ns;
            self.tuples += i.tuples;
            self.hash_builds += i.hash_builds;
            self.index_seek_joins += i.index_seek_joins;
            self.spill_bytes += i.spill_bytes;
            self.spill_partitions += i.spill_partitions;
            self.factorized += u64::from(i.factorized);
            self.factorized_fallbacks += u64::from(i.factorized_fallback);
            self.fell_back += u64::from(i.fell_back);
            if i.cache != PlanCacheStatus::Uncached {
                self.cache_lookups += 1;
                self.cache_hits += u64::from(i.cache != PlanCacheStatus::Miss);
            }
            if let (Some(est), true) = (i.estimated_rows, s.answer.is_ok()) {
                let (est, act) = (est.max(1.0), (rows as f64).max(1.0));
                self.qerrors.push((est / act).max(act / est));
            }
        }
        if let Some(st) = &rec.storage {
            // Commits and the restart are operations too.
            self.attempted += st.commits.len() as u64 + 1;
            let mut commit_ns = 0;
            for c in st.commits.iter().flatten() {
                self.commit_ms.push(ns_to_ms(*c));
                commit_ns += c;
            }
            self.restart_ms.push(ns_to_ms(st.recover_ns + st.load_ns));
            self.storage_ns += commit_ns + st.recover_ns + st.load_ns;
            let a = &mut self.storage;
            a.ops += st.ops;
            a.user_bytes += st.user_bytes;
            a.wal_bytes += st.wal_bytes;
            a.checkpoints += st.checkpoints;
            a.stall_max_ns = a.stall_max_ns.max(st.stall_max_ns);
            a.recover_ns += st.recover_ns;
            a.load_ns += st.load_ns;
            a.pages_redone += st.pages_redone;
            a.batches_replayed += st.batches_replayed;
            a.pages_loaded += st.pages_loaded;
            a.pool_hits += st.pool_hits;
            a.pool_misses += st.pool_misses;
            a.pool_evictions += st.pool_evictions;
            a.seek_pins += st.seek_pins;
            a.seeks += st.seeks;
        }
    }

    /// Successful commits count as completed operations next to correct
    /// statements.
    fn completed(&self) -> u64 {
        self.attempted - self.failed
    }
}

/// The result of a run, ready to print.
pub struct RunOutput {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)` in table order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    pub rounds: usize,
    pub traced_rounds: usize,
    pub setup_reps: usize,
    pub scale: String,
    pub peak_reset: bool,
    pub errors: Vec<String>,
}

/// Runs rounds until `rounds` of each kind are done or `seconds` have
/// been spent in them. A traced run alternates opaque and step-wise
/// rounds, so that both kinds meet the same share of the host's slow
/// seconds and their ratio (`trace.coverage`) is not a ratio of two
/// different minutes.
fn run_rounds(
    w: &mut dyn Workload,
    tracer: &mut Tracer,
    seconds: f64,
    rounds: Option<usize>,
    traced: bool,
) -> (Phase, Option<Phase>) {
    let mut opaque = Phase::default();
    let mut step = traced.then(Phase::default);
    let started = Instant::now();
    loop {
        let rec = w.round(Mode::Opaque, tracer);
        let failures = w.verify(&rec);
        opaque.absorb(&rec, failures);
        if let Some(step) = &mut step {
            let round = step.rounds() as u32;
            tracer.begin_round(round);
            let rec = w.round(Mode::Stepwise, tracer);
            tracer.end_round(round < TRACE_FILE_ROUNDS);
            let failures = w.verify(&rec);
            step.absorb(&rec, failures);
        }
        let done = match rounds {
            Some(n) => opaque.rounds() >= n,
            None => {
                // Time inside the system (probes and span recording
                // included), with a wall-clock backstop in case
                // verification dominates.
                let spent = opaque.wall_s()
                    + step
                        .as_ref()
                        .map_or(0.0, |p| p.traced_walls_ms.iter().sum::<f64>() / 1e3);
                spent >= seconds || started.elapsed().as_secs_f64() >= 3.0 * seconds
            }
        };
        if done {
            return (opaque, step);
        }
    }
}

/// Runs one workload end to end and reduces it to the metrics of the
/// requested kind (`end_to_end` untraced, `per_layer` traced).
pub fn run(cfg: &RunConfig, build: Builder) -> std::io::Result<RunOutput> {
    // Set-up, several times over: a low percentile is the metric, the last
    // state is the one measured.
    let mut setup_s = Vec::new();
    let mut analyze_ms = Vec::new();
    let mut ingest_ms = Vec::new();
    let mut ingest_bytes = 0;
    let mut built = None;
    let mut spent = 0.0;
    while setup_s.len() < SETUP_MIN_REPS
        || (spent < SETUP_BUDGET_S && setup_s.len() < SETUP_MAX_REPS)
    {
        drop(built.take());
        let b = build(cfg, setup_s.len());
        let s = b.setup_ns as f64 / 1e9;
        spent += s;
        setup_s.push(s);
        analyze_ms.push(ns_to_ms(b.analyze_ns));
        ingest_ms.push(ns_to_ms(b.ingest_ns));
        ingest_bytes = b.ingest_bytes;
        built = Some(b.workload);
        if cfg.smoke {
            break;
        }
    }
    let mut w = built.expect("at least one set-up");
    let mut tracer = Tracer::new();

    let warmup = if cfg.smoke { 1 } else { WARMUP_ROUNDS };
    let (warm, _) = run_rounds(&mut *w, &mut tracer, 0.0, Some(warmup), false);
    let peak_reset = reset_peak_rss();
    let (opaque, stepwise) = run_rounds(&mut *w, &mut tracer, cfg.seconds, cfg.rounds, cfg.trace);

    let mut extras = BTreeMap::new();
    w.finish(&mut extras);
    let scale = w.scale();
    drop(w);

    let attempted = opaque.attempted + stepwise.as_ref().map_or(0, |p| p.attempted);
    let failed = opaque.failed + stepwise.as_ref().map_or(0, |p| p.failed);
    let mut errors = warm.errors;
    errors.extend(opaque.errors.iter().cloned());
    if let Some(p) = &stepwise {
        errors.extend(p.errors.iter().cloned());
    }

    let mut values: BTreeMap<&'static str, f64> = BTreeMap::new();
    let defs: &[crate::metrics::MetricDef] = if let Some(step) = &stepwise {
        if let Some(parent) = cfg.trace_out.parent() {
            std::fs::create_dir_all(parent)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(&cfg.trace_out)?);
        tracer.write_jsonl(&mut out)?;
        std::io::Write::flush(&mut out)?;
        layer_metrics(&mut values, &opaque, step, &tracer);
        values.insert("failed_share", failed as f64 / attempted.max(1) as f64);
        values.insert("stats.analyze.busy_ms", median(&analyze_ms));
        let ingest = median(&ingest_ms);
        values.insert("storage.ingest.busy_ms", ingest);
        if ingest > 0.0 {
            let mib = ingest_bytes as f64 / (1 << 20) as f64;
            values.insert("storage.ingest.mb_s", mib / (ingest / 1e3));
        }
        values.extend(extras);
        PER_LAYER
    } else {
        values.insert("setup_s", percentile_of(&setup_s, SETUP_PERCENTILE));
        values.insert(
            "round_p1_ms",
            percentile_of(&opaque.walls_ms, GATE_PERCENTILE),
        );
        &END_TO_END
    };
    let metrics = defs
        .iter()
        .map(|d| (d.name, values.get(d.name).copied().unwrap_or(0.0), d.unit))
        .collect();

    Ok(RunOutput {
        correct: failed == 0 && warm.failed == 0,
        attempted,
        failed,
        metrics,
        rounds: opaque.rounds(),
        traced_rounds: stepwise.as_ref().map_or(0, Phase::rounds),
        setup_reps: setup_s.len(),
        scale,
        peak_reset,
        errors,
    })
}

/// The per-layer metrics: counters from the opaque rounds' outcomes,
/// times from the step-wise rounds' spans.
fn layer_metrics(
    values: &mut BTreeMap<&'static str, f64>,
    opaque: &Phase,
    step: &Phase,
    tracer: &Tracer,
) {
    let by_name = tracer.self_ns();
    let busy_ms = |name: &str| step.per_round(ns_to_ms(by_name.get(name).copied().unwrap_or(0)));

    for (metric, span) in [
        ("cq.parse.busy_ms", "cq.parse"),
        ("cq.isolate.busy_ms", "cq.isolate"),
        ("optimizer.flatten.busy_ms", "optimizer.flatten"),
        ("hypergraph.canon.busy_ms", "hypergraph.canon"),
        ("core.search.busy_ms", "core.search"),
        ("core.optimize.busy_ms", "core.optimize"),
        ("eval.qhd.busy_ms", "eval.qhd"),
        ("engine.scan.busy_ms", "engine.scan"),
        ("engine.aggregate.busy_ms", "engine.aggregate"),
        ("storage.apply.busy_ms", "storage.apply"),
        ("storage.recover.busy_ms", "storage.recover"),
        ("storage.load.busy_ms", "storage.load"),
    ] {
        values.insert(metric, busy_ms(span));
    }

    // Shares of the traced time, by layer: the part of a span's name
    // before the first dot.
    let total = tracer.root_ns().max(1) as f64;
    let mut by_layer: BTreeMap<&str, u64> = BTreeMap::new();
    for (name, t) in by_name {
        *by_layer
            .entry(name.split('.').next().unwrap_or(name))
            .or_insert(0) += t;
    }
    for (layer, metric) in [
        ("cq", "trace.share.cq"),
        ("optimizer", "trace.share.optimizer"),
        ("hypergraph", "trace.share.hypergraph"),
        ("core", "trace.share.core"),
        ("eval", "trace.share.eval"),
        ("engine", "trace.share.engine"),
        ("storage", "trace.share.storage"),
    ] {
        values.insert(
            metric,
            by_layer.get(layer).copied().unwrap_or(0) as f64 / total,
        );
    }

    // Step-wise chain (probes excluded) against the opaque `execute_sql`
    // calls it re-enacts, per round; storage calls are the same on both
    // sides. Where the client call is a session's, the `execute_sql` it
    // wraps is the direct call made next to each replayed statement.
    let chain = step.per_round((step.stmt_ns + step.storage_ns) as f64);
    let calls = if step.direct_us.is_empty() {
        opaque.per_round((opaque.stmt_ns + opaque.storage_ns) as f64)
    } else {
        step.per_round(step.direct_us.iter().sum::<f64>() * 1e3)
    };
    values.insert("trace.coverage", chain / calls.max(1.0));
    let traced = percentile_of(&step.traced_walls_ms, 0.5);
    let plain = percentile_of(&opaque.walls_ms, 0.5);
    values.insert(
        "trace.overhead_pct",
        100.0 * (traced / plain.max(1e-9) - 1.0),
    );

    // The ungated end-to-end numbers and the counters, per opaque round.
    let o = opaque;
    values.insert("round_p50_ms", percentile_of(&o.walls_ms, 0.5));
    values.insert("round_p95_ms", percentile_of(&o.walls_ms, 0.95));
    values.insert("stmts_per_s", o.completed() as f64 / o.wall_s().max(1e-9));
    values.insert("cpu_ms_per_round", o.per_round(o.cpu_ms));
    values.insert("peak_rss_mb", peak_rss_mib());
    values.insert("cq.stmts", o.per_round(o.stmts as f64));
    values.insert(
        "optimizer.planning_ms",
        o.per_round(ns_to_ms(o.planning_ns)),
    );
    values.insert(
        "optimizer.execution_ms",
        o.per_round(ns_to_ms(o.execution_ns)),
    );
    values.insert(
        "optimizer.plan_cache.hit_ratio",
        o.cache_hits as f64 / o.cache_lookups.max(1) as f64,
    );
    if o.cache_lookups > 0 {
        // The probe alone: `plan_cq_cached` minus the canonical key it
        // computes, per statement.
        let plan_ns = by_name.get("optimizer.plan").copied().unwrap_or(0);
        values.insert(
            "optimizer.plan_cache.probe_us",
            plan_ns as f64 / 1e3 / step.stmts.max(1) as f64,
        );
    }
    values.insert(
        "optimizer.fallback_share",
        o.fell_back as f64 / o.outcomes.max(1) as f64,
    );
    values.insert("stats.answer_qerror_p50", median(&o.qerrors));
    values.insert("eval.qhd.tuples", o.per_round(o.tuples as f64));
    values.insert("eval.qhd.hash_builds", o.per_round(o.hash_builds as f64));
    values.insert(
        "eval.qhd.index_seek_joins",
        o.per_round(o.index_seek_joins as f64),
    );
    values.insert(
        "eval.factorized.share",
        o.factorized as f64 / o.outcomes.max(1) as f64,
    );
    values.insert(
        "eval.factorized.fallbacks",
        o.per_round(o.factorized_fallbacks as f64),
    );
    values.insert("engine.spill.bytes", o.per_round(o.spill_bytes as f64));
    values.insert(
        "engine.spill.partitions",
        o.per_round(o.spill_partitions as f64),
    );
    values.insert("engine.rows_out", o.per_round(o.rows_out as f64));

    // Plan counters, per step-wise round.
    let c = &step.step;
    for (metric, v) in [
        ("core.search.separators_tried", c.separators_tried),
        ("core.search.subproblems", c.subproblems),
        ("core.search.memo_hits", c.memo_hits),
        ("core.search.bound_cuts", c.bound_cuts),
        ("core.optimize.removed_atoms", c.removed_atoms),
        ("core.plan.join_work", c.join_work),
    ] {
        values.insert(metric, step.per_round(v as f64));
    }
    values.insert("core.plan.width_max", c.width_max as f64);

    // Service: latencies of the opaque session calls; the direct calls
    // and the prepared/ad-hoc split only exist on `service_hot`.
    if !step.direct_us.is_empty() {
        values.insert("service.stmt_p50_us", percentile_of(&o.stmt_lat_us, 0.5));
        values.insert("service.stmt_p99_us", percentile_of(&o.stmt_lat_us, 0.99));
        // Ad-hoc session calls against the direct calls of the same
        // script positions: prepared calls skip the parse, which would
        // hide the session's own cost.
        values.insert(
            "service.overhead_us",
            median(&o.adhoc_us) - median(&step.direct_adhoc_us),
        );
        values.insert(
            "service.prepared_saving_us",
            median(&o.adhoc_us) - median(&o.prepared_us),
        );
    }

    // Storage: both phases make the same calls, so both count.
    if !o.commit_ms.is_empty() {
        let commits: Vec<f64> = o.commit_ms.iter().chain(&step.commit_ms).copied().collect();
        let restarts: Vec<f64> = o
            .restart_ms
            .iter()
            .chain(&step.restart_ms)
            .copied()
            .collect();
        values.insert("commit_p50_ms", percentile_of(&commits, 0.5));
        values.insert("restart_p50_ms", percentile_of(&restarts, 0.5));
        let (a, b) = (&o.storage, &step.storage);
        let apply_s = commits.iter().sum::<f64>() / 1e3;
        values.insert(
            "storage.apply.rows_s",
            (a.ops + b.ops) as f64 / apply_s.max(1e-9),
        );
        values.insert(
            "storage.wal.bytes_per_user_byte",
            (a.wal_bytes + b.wal_bytes) as f64 / (a.user_bytes + b.user_bytes).max(1) as f64,
        );
        let rounds = (o.rounds() + step.rounds()) as f64;
        values.insert(
            "storage.wal.checkpoints",
            (a.checkpoints + b.checkpoints) as f64 / rounds,
        );
        values.insert(
            "storage.checkpoint.stall_max_ms",
            ns_to_ms(a.stall_max_ns.max(b.stall_max_ns)),
        );
        values.insert(
            "storage.recover.pages_redone",
            (a.pages_redone + b.pages_redone) as f64 / rounds,
        );
        values.insert(
            "storage.recover.batches_replayed",
            (a.batches_replayed + b.batches_replayed) as f64 / rounds,
        );
        let load_s = (a.load_ns + b.load_ns) as f64 / 1e9;
        values.insert(
            "storage.load.pages_s",
            (a.pages_loaded + b.pages_loaded) as f64 / load_s.max(1e-9),
        );
        let pins = b.pool_hits + b.pool_misses;
        values.insert(
            "storage.buffer.hit_ratio",
            b.pool_hits as f64 / pins.max(1) as f64,
        );
        values.insert(
            "storage.buffer.misses",
            step.per_round(b.pool_misses as f64),
        );
        values.insert(
            "storage.buffer.evictions",
            step.per_round(b.pool_evictions as f64),
        );
        values.insert(
            "storage.btree.pins_per_seek",
            b.seek_pins as f64 / b.seeks.max(1) as f64,
        );
    }
}

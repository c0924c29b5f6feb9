//! `service_hot`: the serving path, on the planner's *hit* path.
//!
//! One `QueryService` over small synthetic relations, two sessions on two
//! threads (one engine thread each). A round: each session runs its
//! script once — every template four times in a seeded order, alternating
//! `execute_prepared` and ad-hoc `execute_sql`. The 24 templates are
//! renamings of 8 shapes (lines and cycles of 3–6 atoms), so exact hits
//! and shape hits both occur. Executions are sub-millisecond, so the
//! fixed per-statement cost dominates: parse, isolate, canonical key,
//! cache probe, admission, budget fork. Round latency is the makespan.
//! `service`/plan-cache changes show here; it uses the planner layer the
//! opposite way to `plan_cold`.

use super::{naive_reference, verify_statements};
use crate::check::Reference;
use crate::gen::{data_seed, service_templates, session_script};
use crate::measure::Stopwatch;
use crate::replay::{replay_statement, StepCounters};
use crate::runner::{Built, Mode, RoundRecord, RunConfig, StmtResult, Workload};
use crate::trace::Tracer;
use htqo_core::QhdOptions;
use htqo_engine::error::Budget;
use htqo_optimizer::HybridOptimizer;
use htqo_service::{QueryService, ServiceConfig, Session, StatementId};
use htqo_workloads::{workload_db, WorkloadSpec};
use std::collections::BTreeMap;
use std::time::Instant;

const RELATIONS: usize = 10;
const ROWS: usize = 50;
const SMOKE_ROWS: usize = 20;
const DOMAIN: u64 = 50;
const SIZES: [usize; 4] = [3, 4, 5, 6];
const VARIANTS: usize = 3;
const REPEATS: usize = 4;
pub const SESSIONS: usize = 2;
/// Per session: the two sessions already fill the host's two cores.
pub const ENGINE_THREADS: usize = 1;

struct Client {
    session: Session,
    prepared: Vec<StatementId>,
    /// Template index per script position; even positions run prepared.
    script: Vec<usize>,
}

struct ServiceHot {
    rows: usize,
    service: QueryService,
    clients: Vec<Client>,
    templates: Vec<String>,
    refs: Vec<Reference>,
}

pub fn build(cfg: &RunConfig, _rep: usize) -> Built {
    let rows = if cfg.smoke { SMOKE_ROWS } else { ROWS };
    let templates = service_templates(cfg.seed, &SIZES, VARIANTS, RELATIONS);

    let t = Instant::now();
    let db = workload_db(&WorkloadSpec::new(
        RELATIONS,
        rows,
        DOMAIN,
        data_seed(cfg.seed),
    ));
    let ta = Instant::now();
    let stats = htqo_stats::analyze(&db);
    let analyze_ns = ta.elapsed().as_nanos() as u64;
    let opt = HybridOptimizer::with_stats(QhdOptions::default(), stats);
    let service = QueryService::new(db, opt, ServiceConfig::default());
    let clients: Vec<Client> = (0..SESSIONS)
        .map(|s| {
            let session = service.session();
            let prepared = templates
                .iter()
                .map(|sql| session.prepare(sql).expect("template parses"))
                .collect();
            Client {
                session,
                prepared,
                script: session_script(cfg.seed, s, templates.len(), REPEATS),
            }
        })
        .collect();
    // Fill the plan cache from one thread, in template order. Which
    // renaming of a shape is planned first decides the cached tree; left
    // to the first concurrent round, that is a race between the sessions
    // and the tuple counts stop repeating.
    for &id in &clients[0].prepared {
        let _ = clients[0].session.execute_prepared(id);
    }
    let setup_ns = t.elapsed().as_nanos() as u64;

    let refs = templates
        .iter()
        .map(|sql| Reference::new(&naive_reference(service.database(), sql)))
        .collect();
    Built {
        workload: Box::new(ServiceHot {
            rows,
            service,
            clients,
            templates,
            refs,
        }),
        setup_ns,
        analyze_ns,
        ingest_ns: 0,
        ingest_bytes: 0,
    }
}

/// One session's pass over its script through the session API.
fn run_script(client: &Client, templates: &[String]) -> Vec<StmtResult> {
    client
        .script
        .iter()
        .enumerate()
        .map(|(pos, &tmpl)| {
            let prepared = pos % 2 == 0;
            let t = Instant::now();
            let outcome = if prepared {
                client.session.execute_prepared(client.prepared[tmpl])
            } else {
                client.session.execute_sql(&templates[tmpl])
            };
            let lat_ns = t.elapsed().as_nanos() as u64;
            match outcome {
                Ok(o) => StmtResult::of_outcome(tmpl, lat_ns, prepared, o),
                // A rejection is a failed operation: the loop is closed
                // and sized so that admission never has to refuse.
                Err(e) => StmtResult::failed(tmpl, lat_ns, prepared, e.to_string()),
            }
        })
        .collect()
}

/// The same pass twice more on the service's optimizer and database,
/// bypassing the session: once through `execute_sql` directly (the
/// baseline of `service.overhead_us` and `trace.coverage`), once step by
/// step. Two whole passes rather than two calls per statement, so that
/// each call meets the plan cache as the session's did — left by a
/// *different* template — and not freshly primed by its twin.
fn replay_script(
    client: &Client,
    templates: &[String],
    service: &QueryService,
    tracer: &mut Tracer,
) -> (Vec<StmtResult>, StepCounters) {
    let (db, opt) = (service.database(), service.optimizer());
    let direct_ns: Vec<u64> = client
        .script
        .iter()
        .map(|&tmpl| {
            let t = Instant::now();
            std::hint::black_box(
                opt.execute_sql(db, &templates[tmpl], Budget::unlimited())
                    .is_ok(),
            );
            t.elapsed().as_nanos() as u64
        })
        .collect();
    let mut step = StepCounters::default();
    let stmts = client
        .script
        .iter()
        .zip(direct_ns)
        .enumerate()
        .map(|(pos, (&tmpl, direct_ns))| {
            let (answer, counters, lat_ns) = replay_statement(
                tracer,
                db,
                opt,
                true,
                tmpl as u32,
                &templates[tmpl],
                Budget::unlimited(),
            );
            step.add(&counters);
            StmtResult {
                stmt: tmpl,
                answer,
                lat_ns,
                prepared: pos % 2 == 0,
                direct_ns: Some(direct_ns),
                info: None,
            }
        })
        .collect();
    (stmts, step)
}

impl Workload for ServiceHot {
    fn round(&mut self, mode: Mode, tracer: &mut Tracer) -> RoundRecord {
        let mut rec = RoundRecord::default();
        let (templates, service) = (&self.templates, &self.service);
        let mut forks: Vec<Tracer> = (0..self.clients.len())
            .map(|i| tracer.fork(i as u32 + 1))
            .collect();
        let sw = Stopwatch::start();
        let per_client: Vec<(Vec<StmtResult>, StepCounters)> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .clients
                .iter()
                .zip(forks.iter_mut())
                .map(|(client, fork)| {
                    scope.spawn(move || match mode {
                        Mode::Opaque => (run_script(client, templates), StepCounters::default()),
                        Mode::Stepwise => replay_script(client, templates, service, fork),
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("session thread panicked"))
                .collect()
        });
        let (wall_ns, cpu_ms) = sw.stop();
        rec.cpu_ms = cpu_ms;
        for fork in forks {
            tracer.absorb(fork);
        }
        for (stmts, step) in per_client {
            rec.stmts.extend(stmts);
            rec.step.add(&step);
        }
        match mode {
            Mode::Opaque => rec.wall_ns = wall_ns,
            Mode::Stepwise => {
                rec.traced_wall_ns = wall_ns;
                // No makespan exists for the replayed chain alone; the
                // busiest session's chain time stands in for it.
                let per_session = rec.stmts.len() / self.clients.len();
                rec.wall_ns = rec
                    .stmts
                    .chunks(per_session.max(1))
                    .map(|c| c.iter().map(|s| s.lat_ns).sum::<u64>())
                    .max()
                    .unwrap_or(0);
            }
        }
        rec
    }

    fn verify(&mut self, rec: &RoundRecord) -> Vec<String> {
        verify_statements(&self.refs, rec)
    }

    fn finish(&mut self, extras: &mut BTreeMap<&'static str, f64>) {
        let m = self.service.metrics();
        extras.insert("service.admitted", m.admitted as f64);
        extras.insert(
            "service.rejected",
            (m.rejected_overload + m.rejected_memory + m.rejected_quota) as f64,
        );
        extras.insert("service.completed_err", m.completed_err as f64);
    }

    fn scale(&self) -> String {
        format!(
            "{RELATIONS} relations x {} rows over {DOMAIN} values, {} templates, \
             {SESSIONS} sessions x {} statements/round",
            self.rows,
            self.templates.len(),
            self.templates.len() * REPEATS
        )
    }
}

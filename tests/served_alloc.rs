//! Allocation pin for a served statement: a line and a cycle over 50-row
//! relations, run through `Session::execute_prepared` and through
//! `Session::execute_sql` on a warm statement and plan cache — the
//! statements `service_hot` serves. A statement runs on the calling
//! thread, so the counting allocator's per-thread counters see all of it.
//!
//! Measured before the columnar operators shared their variable names,
//! moved the relations they own and sized their lists once: 285
//! allocations for the 4-atom line and 392 for the 5-atom cycle, either
//! route; after: 133 and 190. Since `P″` applies a child that supplies no
//! χ(p) variable as a semijoin and a plain answer is deduplicated once:
//! 115 and 154, three of them a debug build's check that the answer is
//! distinct. That check is gone, so the pins count what a release build
//! allocates. Each bound is the last measured count, well under half of
//! the first.
//!
//! (Integration test = its own binary, so the global allocator counts
//! only this file's work.)

#[path = "../crates/engine/tests/support/counting_alloc.rs"]
mod counting_alloc;
mod support;

use counting_alloc::{allocs_of, serial};
use htqo::prelude::*;
use htqo_cq::{isolate, parse_select, IsolatorOptions};
use htqo_service::{QueryService, ServiceConfig};
use htqo_workloads::{workload_db, WorkloadSpec};
use support::{is_reference, reference};

const LINE: &str = "SELECT a.l FROM p3 a, p7 b, p1 c, p5 d \
                    WHERE a.r = b.l AND c.l = b.r AND c.r = d.l";
const CYCLE: &str = "SELECT a.l FROM p2 a, p8 b, p4 c, p0 d, p6 e \
                     WHERE a.r = b.l AND b.r = c.l AND d.l = c.r AND d.r = e.l AND e.r = a.l";

/// `(statement, allocations per execution it may make)`: 109 and 147 since
/// `finalize_c` stopped checking, in debug builds, that the answer is
/// distinct; 112 and 150 since the key kernels read their key columns in
/// place (115 and 154 while the vertex join gathered its key columns and
/// every kernel packed its keys into a block buffer).
const PINS: [(&str, usize); 2] = [(LINE, 109), (CYCLE, 147)];

#[test]
fn a_served_statement_allocates_at_most_half_of_what_it_did() {
    let _serial = serial();
    let db = workload_db(&WorkloadSpec::new(10, 50, 50, 10));
    let stats = htqo_stats::analyze(&db);
    let optimizer = HybridOptimizer::with_stats(QhdOptions::default(), stats);
    let service = QueryService::new(db, optimizer, ServiceConfig::default());
    let session = service.session();
    for (sql, bound) in PINS {
        let q = isolate(
            &parse_select(sql).unwrap(),
            service.database(),
            IsolatorOptions::default(),
        )
        .unwrap();
        let want = reference(service.database(), &q);
        assert!(!want.is_empty(), "{sql}: the pin should answer rows");
        let id = session.prepare(sql).unwrap();
        // Warm the statement and plan caches and lazily built state.
        for _ in 0..2 {
            session.execute_prepared(id).unwrap();
            session.execute_sql(sql).unwrap();
        }
        let routes = [
            allocs_of(|| session.execute_prepared(id).unwrap()),
            allocs_of(|| session.execute_sql(sql).unwrap()),
        ];
        for (route, (allocs, outcome)) in ["prepared", "ad hoc"].iter().zip(routes) {
            let answer = outcome.result.unwrap();
            // The answer names its column by its SELECT label.
            let answer = VRelation::from_rows(want.cols().to_vec(), answer.into_rows());
            assert!(is_reference(&answer, &want), "{sql} ({route}): answer");
            assert!(
                allocs <= bound,
                "{sql} ({route}): {allocs} allocations, bound {bound}"
            );
        }
    }
}

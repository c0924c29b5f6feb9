//! Spans recorded from the benchmark's own files, around the calls into
//! each layer. Kept in memory, written as JSON lines when the run ends,
//! and reduced to self times (a span's duration minus its children's).
//!
//! A span is named `<layer>.<step>`; the part before the first dot is the
//! layer it is charged to. Two kinds of child exist:
//!
//! - a *step*: a call made inside the parent's interval;
//! - a *probe*: a re-execution, after the parent ended, of work the
//!   parent's opaque call also did (`scan_query_atom` over every atom
//!   under `eval.qhd`; `canonical_form` under `optimizer.plan`). Its
//!   duration is subtracted from the parent exactly like a step's, which
//!   is how an opaque call is split without spans inside the program.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

pub type SpanId = u32;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub id: SpanId,
    pub parent: Option<SpanId>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub round: u32,
    pub stmt: u32,
    pub thread: u32,
    pub probe: bool,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// One thread's span recorder. Threads of one run share `epoch`, so their
/// timestamps are comparable after [`Tracer::absorb`].
///
/// Every round is reduced to self times when it ends
/// ([`Tracer::end_round`]); only the first rounds' spans are kept for the
/// trace file, so a workload of 1 300 spans a round does not hold 60 MB of
/// them while its memory is being measured.
pub struct Tracer {
    epoch: Instant,
    thread: u32,
    round: u32,
    round_start: usize,
    spans: Vec<Span>,
    /// Self time by span name over every round ended so far.
    self_ns: BTreeMap<&'static str, u64>,
    /// Duration of the root spans over the same rounds: the traced time
    /// the self times partition.
    root_ns: u64,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            thread: 0,
            round: 0,
            round_start: 0,
            spans: Vec::new(),
            self_ns: BTreeMap::new(),
            root_ns: 0,
        }
    }

    /// An empty recorder for another thread of the same round.
    pub fn fork(&self, thread: u32) -> Tracer {
        Tracer {
            thread,
            round_start: 0,
            spans: Vec::new(),
            self_ns: BTreeMap::new(),
            root_ns: 0,
            ..*self
        }
    }

    /// Starts traced round `round`: spans opened from now on belong to it.
    pub fn begin_round(&mut self, round: u32) {
        self.round = round;
        self.round_start = self.spans.len();
    }

    /// Reduces the round's spans to self times and, unless `keep`, drops
    /// them.
    pub fn end_round(&mut self, keep: bool) {
        let spans = &self.spans[self.round_start..];
        for (s, t) in spans.iter().zip(self_times(spans)) {
            *self.self_ns.entry(s.name).or_insert(0) += t;
        }
        self.root_ns += root_total_ns(spans);
        if !keep {
            self.spans.truncate(self.round_start);
        }
        self.round_start = self.spans.len();
    }

    /// Self time by span name over the ended rounds.
    pub fn self_ns(&self) -> &BTreeMap<&'static str, u64> {
        &self.self_ns
    }

    /// Total root-span time over the ended rounds.
    pub fn root_ns(&self) -> u64 {
        self.root_ns
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn open(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        stmt: u32,
        probe: bool,
    ) -> SpanId {
        let id = self.spans.len() as SpanId;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent,
            name,
            start_ns,
            end_ns: start_ns,
            round: self.round,
            stmt,
            thread: self.thread,
            probe,
        });
        id
    }

    /// Opens a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, parent: Option<SpanId>, stmt: u32) -> SpanId {
        self.open(name, parent, stmt, false)
    }

    /// Opens a probe span charged to `parent` (see the module docs).
    pub fn begin_probe(&mut self, name: &'static str, parent: SpanId, stmt: u32) -> SpanId {
        self.open(name, Some(parent), stmt, true)
    }

    /// Closes `id` and returns its duration.
    pub fn end(&mut self, id: SpanId) -> u64 {
        let now = self.now_ns();
        let span = &mut self.spans[id as usize];
        span.end_ns = now;
        span.duration_ns()
    }

    /// Moves another thread's spans in, renumbering them past this
    /// recorder's.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len() as SpanId;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.id += base;
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes the kept spans as one JSON object per line.
    pub fn write_jsonl(&self, w: &mut impl Write) -> std::io::Result<()> {
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\
                 \"round\":{},\"stmt\":{},\"thread\":{},\"probe\":{}}}",
                s.id, parent, s.name, s.start_ns, s.end_ns, s.round, s.stmt, s.thread, s.probe
            )?;
        }
        Ok(())
    }
}

/// Self time of every span of a contiguous run of spans (parents
/// included): its duration minus its children's durations, never below
/// zero (a probe can cost more than the share of the opaque call it
/// re-executes, e.g. when the evaluator seeks an index instead of scanning
/// the atom).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let base = spans.first().map_or(0, |s| s.id);
    let mut children = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[(p - base) as usize] += s.duration_ns();
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, c)| s.duration_ns().saturating_sub(c))
        .collect()
}

/// Total duration of the root spans (no parent): the traced wall time the
/// self times partition.
pub fn root_total_ns(spans: &[Span]) -> u64 {
    spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(Span::duration_ns)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: SpanId, parent: Option<SpanId>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name,
            start_ns: start,
            end_ns: end,
            round: 0,
            stmt: 0,
            thread: 0,
            probe: false,
        }
    }

    #[test]
    fn self_time_is_parent_minus_children() {
        let spans = vec![
            span(0, None, "stmt.root", 0, 100),
            span(1, Some(0), "cq.parse", 0, 10),
            span(2, Some(0), "eval.qhd", 10, 90),
            span(3, Some(2), "engine.scan", 90, 120),
        ];
        assert_eq!(self_times(&spans), vec![10, 10, 50, 30]);
        assert_eq!(root_total_ns(&spans), 100);
        // Self times partition the root's duration.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn self_time_never_goes_negative() {
        let spans = vec![
            span(0, None, "eval.qhd", 0, 10),
            span(1, Some(0), "engine.scan", 10, 50),
        ];
        assert_eq!(self_times(&spans), vec![0, 40]);
    }

    #[test]
    fn absorb_renumbers_ids_and_parents() {
        let mut a = Tracer::new();
        let root = a.begin("stmt.root", None, 0);
        a.end(root);
        let mut b = a.fork(1);
        let r = b.begin("stmt.root", None, 1);
        let c = b.begin("cq.parse", Some(r), 1);
        b.end(c);
        b.end(r);
        a.absorb(b);
        let spans = a.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[2].id, 2);
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(spans[1].thread, 1);
        let mut out = Vec::new();
        a.write_jsonl(&mut out).unwrap();
        assert_eq!(String::from_utf8(out).unwrap().lines().count(), 3);
    }

    #[test]
    fn rounds_fold_into_self_times_and_dropped_rounds_leave_no_spans() {
        let mut t = Tracer::new();
        for (round, keep) in [(0, true), (1, false), (2, false)] {
            t.begin_round(round);
            let root = t.begin("stmt.root", None, 0);
            let child = t.begin("cq.parse", Some(root), 0);
            t.end(child);
            t.end(root);
            t.end_round(keep);
        }
        assert_eq!(t.spans().len(), 2, "only round 0 is kept");
        let total: u64 = t.self_ns().values().sum();
        assert_eq!(total, t.root_ns(), "self times partition the root time");
        assert!(t.self_ns().contains_key("cq.parse"));
    }
}

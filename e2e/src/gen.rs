//! Seeded input generation: everything the workloads feed the system is
//! derived here from `--seed`, so the same seed gives byte-identical
//! statement lists, scripts and mutation batches, and the program under
//! test sees only generated inputs.
//!
//! Seeds choose *which* inputs, never *how much* work: parameter pools are
//! restricted to values the (uniform) data generator makes equally
//! expensive, every script covers every template equally often, and every
//! batch has the same operation mix. Otherwise the spread between seeds
//! would swamp the regressions the benchmark exists to show.

use htqo_engine::Value;
use htqo_storage::MutationBatch;

/// SplitMix64: tiny, well-mixed, and good enough to pick parameters.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream per `(seed, stream)` pair, so adding a draw
    /// to one generator never shifts the inputs of another.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is irrelevant at the
    /// pool sizes used here.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    pub fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.below(items.len() as u64) as usize]
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// Streams of [`Rng::new`], one per generated artefact.
pub mod stream {
    pub const DATA: u64 = 1;
    pub const TPCH_PARAMS: u64 = 2;
    pub const SYNTH_SQL: u64 = 3;
    pub const SCRIPTS: u64 = 4;
    pub const MUTATIONS: u64 = 5;
    pub const LOOKUPS: u64 = 6;
    pub const SEEK_PROBES: u64 = 7;
}

/// The data seed handed to `htqo_tpch::generate` / `workload_db`.
pub fn data_seed(seed: u64) -> u64 {
    Rng::new(seed, stream::DATA).next_u64()
}

// ---- TPC-H statements ------------------------------------------------------

const SEGMENTS: [&str; 5] = [
    "AUTOMOBILE",
    "BUILDING",
    "FURNITURE",
    "MACHINERY",
    "HOUSEHOLD",
];
const PART_TYPES: [&str; 6] = [
    "ECONOMY ANODIZED STEEL",
    "STANDARD POLISHED BRASS",
    "SMALL PLATED COPPER",
    "MEDIUM BRUSHED NICKEL",
    "LARGE BURNISHED TIN",
    "PROMO PLATED STEEL",
];

/// One TPC-H query kind of the statement list.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TpchQuery {
    Q5,
    Q8,
    Q3,
    Q10,
}

/// `variants` distinct parameterizations of each query in `queries`, in
/// round order (all of the first query, then the second, …).
///
/// Pools hold only parameters of equal expected cost under the uniform
/// generator: any region, full order years 1993–1997, any part type or
/// market segment, a Q3 cut-off inside one month, a Q10 quarter inside
/// the full years.
pub fn tpch_statements(seed: u64, queries: &[TpchQuery], variants: usize) -> Vec<String> {
    let mut rng = Rng::new(seed, stream::TPCH_PARAMS);
    let mut out = Vec::new();
    for &kind in queries {
        let mut seen: Vec<String> = Vec::new();
        while seen.len() < variants {
            let region = rng.pick(&htqo_tpch::REGIONS);
            let year = 1993 + rng.below(5) as i32;
            let sql = match kind {
                TpchQuery::Q5 => htqo_tpch::q5(region, year),
                TpchQuery::Q8 => htqo_tpch::q8(region, rng.pick(&PART_TYPES)),
                TpchQuery::Q3 => {
                    let day = 1 + rng.below(28);
                    htqo_tpch::q3(rng.pick(&SEGMENTS), &format!("1995-03-{day:02}"))
                }
                TpchQuery::Q10 => {
                    let month = 1 + 3 * rng.below(4);
                    htqo_tpch::q10(&format!("{year}-{month:02}-01"))
                }
            };
            if !seen.contains(&sql) {
                seen.push(sql);
            }
        }
        out.extend(seen);
    }
    out
}

/// Two selective key-lookup joins for `paged_rw`: a small filtered
/// accumulator probing `lineitem` through its persisted B-trees.
pub fn lookup_statements(seed: u64, orders: usize, parts: usize) -> Vec<String> {
    let mut rng = Rng::new(seed, stream::LOOKUPS);
    let okey = rng.below(orders as u64);
    let pkey = rng.below(parts as u64);
    vec![
        format!(
            "SELECT o_orderkey, l_linenumber, l_quantity FROM orders, lineitem \
             WHERE o_orderkey = l_orderkey AND o_orderkey = {okey}"
        ),
        format!(
            "SELECT p_name, s_name, l_quantity FROM part, lineitem, supplier \
             WHERE p_partkey = l_partkey AND l_suppkey = s_suppkey AND p_partkey = {pkey}"
        ),
    ]
}

// ---- synthetic line / cycle statements -------------------------------------

/// Hypergraph shape of a synthetic statement (the paper's Fig. 7 and
/// Fig. 9 families).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Shape {
    /// `p(X0,X1) ∧ p(X1,X2) ∧ …` — acyclic.
    Line,
    /// The line with its ends joined — cyclic, hypertree width 2.
    Cycle,
}

/// SQL for a `shape` of `atoms` atoms over the binary relations
/// `p0 … p{relations-1}` of `workload_db`.
///
/// The seed picks which relation sits at each position, the alias names,
/// the order of the WHERE conjuncts and the side each equality is written
/// on — all invisible to the canonical shape key, so every variant of one
/// `(shape, atoms)` lands on one plan-cache entry. FROM keeps path order:
/// the naive reference joins in syntactic order and must never meet a
/// cross product.
pub fn synth_sql(rng: &mut Rng, shape: Shape, atoms: usize, relations: usize) -> String {
    assert!(atoms >= 2 && atoms <= relations);
    let mut rels: Vec<usize> = (0..relations).collect();
    rng.shuffle(&mut rels);
    let tag = (b'a' + rng.below(26) as u8) as char;
    let salt = rng.below(900) + 100;
    let alias = |i: usize| format!("{tag}{salt}_{i}");
    let from: Vec<String> = (0..atoms)
        .map(|i| format!("p{} {}", rels[i], alias(i)))
        .collect();
    let joins = match shape {
        Shape::Line => atoms - 1,
        Shape::Cycle => atoms,
    };
    let mut conj: Vec<String> = (0..joins)
        .map(|i| {
            let (l, r) = (
                format!("{}.r", alias(i)),
                format!("{}.l", alias((i + 1) % atoms)),
            );
            if rng.below(2) == 0 {
                format!("{l} = {r}")
            } else {
                format!("{r} = {l}")
            }
        })
        .collect();
    rng.shuffle(&mut conj);
    format!(
        "SELECT {}.l FROM {} WHERE {}",
        alias(0),
        from.join(", "),
        conj.join(" AND ")
    )
}

/// `plan_cold`'s statement list: one line and one cycle per atom count.
pub fn plan_cold_statements(seed: u64, sizes: &[usize], relations: usize) -> Vec<String> {
    let mut rng = Rng::new(seed, stream::SYNTH_SQL);
    let mut out = Vec::new();
    for &n in sizes {
        out.push(synth_sql(&mut rng, Shape::Line, n, relations));
        out.push(synth_sql(&mut rng, Shape::Cycle, n, relations));
    }
    out
}

/// `service_hot`'s templates: `variants` renamings of each line and
/// cycle of `sizes` atoms, so exact hits and shape hits both occur.
pub fn service_templates(
    seed: u64,
    sizes: &[usize],
    variants: usize,
    relations: usize,
) -> Vec<String> {
    let mut rng = Rng::new(seed, stream::SYNTH_SQL);
    let mut out = Vec::new();
    for &n in sizes {
        for shape in [Shape::Line, Shape::Cycle] {
            for _ in 0..variants {
                out.push(synth_sql(&mut rng, shape, n, relations));
            }
        }
    }
    out
}

/// One session's script: every template `repeats` times in a seeded
/// order. Even positions run prepared, odd positions ad hoc.
pub fn session_script(seed: u64, session: usize, templates: usize, repeats: usize) -> Vec<usize> {
    let mut rng = Rng::new(seed, stream::SCRIPTS + 1000 * session as u64);
    let mut script: Vec<usize> = (0..templates * repeats).map(|i| i % templates).collect();
    rng.shuffle(&mut script);
    script
}

// ---- mutation batches and their model --------------------------------------

/// Order-independent fingerprint of one row (FxHash-style fold).
pub fn row_hash(row: &[Value]) -> u64 {
    const K: u64 = 0x517c_c1b7_2722_0a95;
    let mut h: u64 = row.len() as u64;
    let mut mix = |w: u64| h = (h.rotate_left(5) ^ w).wrapping_mul(K);
    for v in row {
        match v {
            Value::Null => mix(0xdead),
            Value::Int(i) => mix(*i as u64),
            Value::Float(x) => mix(x.to_bits()),
            Value::Date(d) => mix(*d as u32 as u64 | 1 << 40),
            Value::Str(s) => {
                for chunk in s.as_bytes().chunks(8) {
                    let mut w = [0u8; 8];
                    w[..chunk.len()].copy_from_slice(chunk);
                    mix(u64::from_le_bytes(w));
                }
                mix(s.len() as u64);
            }
        }
    }
    h
}

/// Bytes of user data in a row: what a client would have to send.
fn row_user_bytes(row: &[Value]) -> u64 {
    row.iter()
        .map(|v| match v {
            Value::Null => 1,
            Value::Int(_) | Value::Float(_) => 8,
            Value::Date(_) => 4,
            Value::Str(s) => s.len() as u64,
        })
        .sum()
}

/// Which mutated table a model mirrors.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mutated {
    Customer,
    Orders,
}

impl Mutated {
    pub fn name(self) -> &'static str {
        match self {
            Mutated::Customer => "customer",
            Mutated::Orders => "orders",
        }
    }
}

/// What the model remembers of a live row: enough to rewrite it in place
/// and to recognise it after a restart.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Slot {
    key: i64,
    /// Index into [`SEGMENTS`] of a customer's market segment (0 for
    /// orders). An update keeps it: `StorageDb::apply` rewrites a row
    /// inside its page and fails ("rebuilt page overflows") when a longer
    /// string makes the row outgrow a full page, and the workloads are
    /// chosen so that no operation fails.
    segment: u8,
    hash: u64,
}

/// The benchmark's own model of one mutated table: one [`Slot`] per
/// physical slot (`None` = tombstone), exactly the storage layer's rowid
/// addressing. After every restart the reloaded table must have the
/// model's live count and fingerprint sum.
#[derive(Clone, Debug, PartialEq)]
pub struct TableModel {
    pub table: Mutated,
    slots: Vec<Option<Slot>>,
    /// Live rowids, for O(1) uniform victim selection.
    live: Vec<u32>,
    next_key: i64,
    /// Foreign-key domain for generated `o_custkey` values.
    customers: i64,
}

impl TableModel {
    /// Mirrors the freshly ingested `rows` (keys are `0..rows.len()`).
    pub fn new<I: IntoIterator<Item = Vec<Value>>>(
        table: Mutated,
        rows: I,
        customers: usize,
    ) -> Self {
        let slots: Vec<Option<Slot>> = rows
            .into_iter()
            .enumerate()
            .map(|(key, r)| {
                let segment = match (table, r.get(3)) {
                    (Mutated::Customer, Some(Value::Str(s))) => {
                        SEGMENTS.iter().position(|x| **x == **s).unwrap_or(0) as u8
                    }
                    _ => 0,
                };
                Some(Slot {
                    key: key as i64,
                    segment,
                    hash: row_hash(&r),
                })
            })
            .collect();
        TableModel {
            table,
            live: (0..slots.len() as u32).collect(),
            next_key: slots.len() as i64,
            slots,
            customers: customers as i64,
        }
    }

    pub fn live_rows(&self) -> usize {
        self.live.len()
    }

    /// Wrapping sum of the live rows' fingerprints.
    pub fn checksum(&self) -> u64 {
        self.slots
            .iter()
            .flatten()
            .fold(0u64, |a, slot| a.wrapping_add(slot.hash))
    }

    /// A row under `key` with every other column redrawn, except that a
    /// customer keeps `segment`.
    fn fresh_row(&self, rng: &mut Rng, key: i64, segment: u8) -> Vec<Value> {
        let money = |rng: &mut Rng, lo: u64, hi: u64| {
            Value::Float((lo * 100 + rng.below((hi - lo) * 100)) as f64 / 100.0)
        };
        match self.table {
            Mutated::Customer => vec![
                Value::Int(key),
                Value::str(&format!("Customer#{key:09}")),
                Value::Int(rng.below(25) as i64),
                Value::str(SEGMENTS[segment as usize]),
                money(rng, 0, 9999),
            ],
            Mutated::Orders => vec![
                Value::Int(key),
                Value::Int(rng.below(self.customers as u64) as i64),
                Value::str(rng.pick(&["O", "F", "P"])),
                money(rng, 850, 555_000),
                // 1992-01-01 .. 1998-08-02, the generator's window.
                Value::Date(8035 + rng.below(2406) as i32),
                Value::Int(rng.below(2) as i64),
            ],
        }
    }

    /// Builds one batch of `updates` + `deletes` + `appends` operations
    /// and applies it to the model. Update and delete victims are
    /// distinct live pre-batch rows (batch rowids address the table as it
    /// was before the batch); appends come last.
    pub fn next_batch(
        &mut self,
        rng: &mut Rng,
        updates: usize,
        deletes: usize,
        appends: usize,
    ) -> GeneratedBatch {
        let mut batch = MutationBatch::new(self.table.name());
        let mut user_bytes = 0u64;
        let targetable = self.live.len();
        assert!(
            updates + deletes <= targetable,
            "table too small for the batch"
        );
        // Partial Fisher–Yates over the live list: the first
        // `updates + deletes` positions become this batch's victims.
        for i in 0..updates + deletes {
            let j = i + rng.below((targetable - i) as u64) as usize;
            self.live.swap(i, j);
        }
        for i in 0..updates {
            let rowid = self.live[i];
            let old = self.slots[rowid as usize].expect("live slot");
            let row = self.fresh_row(rng, old.key, old.segment);
            user_bytes += row_user_bytes(&row);
            self.slots[rowid as usize] = Some(Slot {
                hash: row_hash(&row),
                ..old
            });
            batch.update(rowid as u64, row);
        }
        let victims: Vec<u32> = self.live[updates..updates + deletes].to_vec();
        for &rowid in &victims {
            self.slots[rowid as usize] = None;
            batch.delete(rowid as u64);
            user_bytes += 8;
        }
        self.live.drain(updates..updates + deletes);
        for _ in 0..appends {
            let (key, segment) = (self.next_key, rng.below(SEGMENTS.len() as u64) as u8);
            self.next_key += 1;
            let row = self.fresh_row(rng, key, segment);
            user_bytes += row_user_bytes(&row);
            self.live.push(self.slots.len() as u32);
            self.slots.push(Some(Slot {
                key,
                segment,
                hash: row_hash(&row),
            }));
            batch.append(row);
        }
        GeneratedBatch {
            batch,
            ops: updates + deletes + appends,
            user_bytes,
        }
    }
}

/// A batch plus what the metrics need to know about it.
#[derive(Debug)]
pub struct GeneratedBatch {
    pub batch: MutationBatch,
    pub ops: usize,
    pub user_bytes: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL: [TpchQuery; 4] = [TpchQuery::Q5, TpchQuery::Q8, TpchQuery::Q3, TpchQuery::Q10];

    #[test]
    fn same_seed_same_statements_other_seed_other_statements() {
        assert_eq!(tpch_statements(7, &ALL, 2), tpch_statements(7, &ALL, 2));
        assert_ne!(tpch_statements(7, &ALL, 2), tpch_statements(8, &ALL, 2));
        let sizes = [6, 7, 8];
        assert_eq!(
            plan_cold_statements(7, &sizes, 12),
            plan_cold_statements(7, &sizes, 12)
        );
        assert_ne!(
            plan_cold_statements(7, &sizes, 12),
            plan_cold_statements(8, &sizes, 12)
        );
        assert_eq!(
            service_templates(3, &[3, 4], 3, 10),
            service_templates(3, &[3, 4], 3, 10)
        );
        assert_ne!(
            service_templates(3, &[3, 4], 3, 10),
            service_templates(4, &[3, 4], 3, 10)
        );
        assert_eq!(
            lookup_statements(5, 100, 100),
            lookup_statements(5, 100, 100)
        );
        assert_ne!(data_seed(1), data_seed(2));
    }

    #[test]
    fn tpch_list_has_distinct_variants_per_query() {
        let stmts = tpch_statements(11, &ALL, 2);
        assert_eq!(stmts.len(), 8);
        for pair in stmts.chunks(2) {
            assert_ne!(pair[0], pair[1]);
        }
    }

    #[test]
    fn scripts_cover_every_template_equally_and_differ_by_session() {
        let a = session_script(9, 0, 24, 4);
        assert_eq!(a, session_script(9, 0, 24, 4));
        assert_ne!(a, session_script(9, 1, 24, 4));
        assert_ne!(a, session_script(10, 0, 24, 4));
        for t in 0..24 {
            assert_eq!(a.iter().filter(|&&x| x == t).count(), 4);
        }
    }

    #[test]
    fn synthetic_sql_parses_and_keeps_its_shape() {
        let mut rng = Rng::new(1, stream::SYNTH_SQL);
        for shape in [Shape::Line, Shape::Cycle] {
            let sql = synth_sql(&mut rng, shape, 6, 12);
            let stmt = htqo_cq::parse_select(&sql).expect("parses");
            let joins = sql.matches(" = ").count();
            assert_eq!(joins, if shape == Shape::Line { 5 } else { 6 }, "{sql}");
            assert_eq!(stmt.from.len(), 6);
        }
    }

    fn customer_rows(n: usize) -> Vec<Vec<Value>> {
        (0..n as i64)
            .map(|k| {
                vec![
                    Value::Int(k),
                    Value::str("c"),
                    Value::Int(0),
                    Value::str("BUILDING"),
                    Value::Float(1.0),
                ]
            })
            .collect()
    }

    #[test]
    fn same_seed_same_batches_other_seed_other_batches() {
        let run = |seed: u64| {
            let mut model = TableModel::new(Mutated::Customer, customer_rows(50), 50);
            let mut rng = Rng::new(seed, stream::MUTATIONS);
            let batches: Vec<String> = (0..4)
                .map(|_| format!("{:?}", model.next_batch(&mut rng, 3, 4, 5).batch))
                .collect();
            (batches, model)
        };
        let (a, model_a) = run(21);
        let (b, model_b) = run(21);
        let (c, _) = run(22);
        assert_eq!(a, b);
        assert_eq!(model_a, model_b);
        assert_ne!(a, c);
    }

    /// `StorageDb::apply` rewrites a row inside its page, so an update
    /// must not lengthen it: the segment (the only variable-length column
    /// that could change) and the key stay.
    #[test]
    fn updates_keep_key_and_segment() {
        let mut model = TableModel::new(Mutated::Customer, customer_rows(30), 30);
        let mut rng = Rng::new(3, stream::MUTATIONS);
        let ops = format!("{:?}", model.next_batch(&mut rng, 10, 0, 0).batch);
        assert_eq!(ops.matches("Update(").count(), 10);
        assert_eq!(ops.matches("BUILDING").count(), 10, "{ops}");
        let live_before = model.live_rows();
        model.next_batch(&mut rng, 0, 0, 8);
        assert_eq!(model.live_rows(), live_before + 8);
    }

    #[test]
    fn model_tracks_live_rows_and_checksum() {
        let rows = customer_rows(20);
        let mut model = TableModel::new(Mutated::Customer, rows.clone(), 20);
        let before: u64 = rows.iter().fold(0u64, |a, r| a.wrapping_add(row_hash(r)));
        assert_eq!(model.checksum(), before);
        let mut rng = Rng::new(1, stream::MUTATIONS);
        let g = model.next_batch(&mut rng, 2, 3, 4);
        assert_eq!(g.ops, 9);
        assert_eq!(g.batch.len(), 9);
        assert_eq!(model.live_rows(), 20 - 3 + 4);
        assert_ne!(model.checksum(), before);
        assert!(g.user_bytes > 0);
    }
}

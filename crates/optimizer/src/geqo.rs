//! A genetic join-order optimizer modelled on PostgreSQL's GEQO (the
//! second of the "two distinct and alternative optimizers" the paper's
//! Section 5.1 describes).
//!
//! Chromosomes are join-order permutations; fitness is the estimated sum
//! of intermediate sizes; reproduction uses order crossover (OX) and swap
//! mutation with tournament selection. Fully deterministic given the seed.

use crate::dp::order_cost_compiled;
use htqo_cq::{AtomId, ConjunctiveQuery};
use htqo_stats::{DbStats, QueryProfiles};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// GEQO tuning knobs (defaults sized like PostgreSQL's for small n).
#[derive(Clone, Debug)]
pub struct GeqoConfig {
    /// Population size.
    pub population: usize,
    /// Number of generations.
    pub generations: usize,
    /// Tournament size for parent selection.
    pub tournament: usize,
    /// Per-offspring swap-mutation probability.
    pub mutation_rate: f64,
    /// RNG seed (deterministic runs).
    pub seed: u64,
}

impl Default for GeqoConfig {
    fn default() -> Self {
        GeqoConfig {
            population: 40,
            generations: 60,
            tournament: 3,
            mutation_rate: 0.2,
            seed: 0x5eed,
        }
    }
}

/// Plans a left-deep join order with the genetic search.
pub fn geqo_join_order(q: &ConjunctiveQuery, stats: &DbStats, cfg: &GeqoConfig) -> Vec<AtomId> {
    let n = q.atoms.len();
    let ids: Vec<AtomId> = q.atom_ids().collect();
    if n <= 1 {
        return ids;
    }
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let profiles = QueryProfiles::new(stats, q);
    let fitness = |order: &[AtomId]| order_cost_compiled(&profiles, order);

    // Initial population: random permutations (plus the identity).
    let mut population: Vec<(f64, Vec<AtomId>)> = Vec::with_capacity(cfg.population);
    population.push((fitness(&ids), ids.clone()));
    while population.len() < cfg.population.max(2) {
        let mut perm = ids.clone();
        perm.shuffle(&mut rng);
        population.push((fitness(&perm), perm));
    }

    for _ in 0..cfg.generations {
        let mut next = Vec::with_capacity(population.len());
        // Elitism: keep the best individual.
        let best = population
            .iter()
            .min_by(|a, b| a.0.total_cmp(&b.0))
            .expect("non-empty")
            .clone();
        next.push(best);
        while next.len() < population.len() {
            let p1 = tournament(&population, cfg.tournament, &mut rng);
            let p2 = tournament(&population, cfg.tournament, &mut rng);
            let mut child = order_crossover(&p1.1, &p2.1, &mut rng);
            if rng.gen_bool(cfg.mutation_rate) {
                let (i, j) = (rng.gen_range(0..n), rng.gen_range(0..n));
                child.swap(i, j);
            }
            next.push((fitness(&child), child));
        }
        population = next;
    }

    population
        .into_iter()
        .min_by(|a, b| a.0.total_cmp(&b.0))
        .expect("non-empty")
        .1
}

fn tournament<'a>(
    population: &'a [(f64, Vec<AtomId>)],
    size: usize,
    rng: &mut StdRng,
) -> &'a (f64, Vec<AtomId>) {
    (0..size.max(1))
        .map(|_| &population[rng.gen_range(0..population.len())])
        .min_by(|a, b| a.0.total_cmp(&b.0))
        .expect("non-empty tournament")
}

/// Order crossover (OX): copy a random slice from parent 1, fill the rest
/// in parent-2 order.
fn order_crossover(p1: &[AtomId], p2: &[AtomId], rng: &mut StdRng) -> Vec<AtomId> {
    let n = p1.len();
    let (mut lo, mut hi) = (rng.gen_range(0..n), rng.gen_range(0..n));
    if lo > hi {
        std::mem::swap(&mut lo, &mut hi);
    }
    let slice: Vec<AtomId> = p1[lo..=hi].to_vec();
    let mut child = Vec::with_capacity(n);
    let mut fill = p2.iter().filter(|a| !slice.contains(a));
    for i in 0..n {
        if i >= lo && i <= hi {
            child.push(slice[i - lo]);
        } else {
            child.push(*fill.next().expect("enough fill atoms"));
        }
    }
    child
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dp::{dp_join_order, order_cost};
    use htqo_cq::CqBuilder;
    use htqo_engine::relation::Relation;
    use htqo_engine::schema::{ColumnType, Database, Schema};
    use htqo_engine::value::Value;
    use htqo_stats::analyze;

    fn line_db(n: usize) -> (Database, ConjunctiveQuery) {
        let mut db = Database::new();
        let mut b = CqBuilder::new();
        for i in 0..n {
            let mut r = Relation::new(Schema::new(&[
                ("l", ColumnType::Int),
                ("r", ColumnType::Int),
            ]));
            let rows = if i == 0 {
                10
            } else {
                200 + (i as i64 * 37) % 100
            };
            for t in 0..rows {
                r.push_row(vec![Value::Int(t % 7), Value::Int(t % 11)])
                    .unwrap();
            }
            db.insert_table(&format!("p{i}"), r);
            let l = format!("X{i}");
            let rr = format!("X{}", i + 1);
            b = b.atom(&format!("p{i}"), &format!("p{i}"), &[("l", &l), ("r", &rr)]);
        }
        (db, b.out_var("X0").build())
    }

    #[test]
    fn geqo_returns_a_valid_permutation() {
        let (db, q) = line_db(6);
        let stats = analyze(&db);
        let order = geqo_join_order(&q, &stats, &GeqoConfig::default());
        let mut sorted = order.clone();
        sorted.sort();
        assert_eq!(sorted, q.atom_ids().collect::<Vec<_>>());
    }

    #[test]
    fn geqo_is_deterministic_given_seed() {
        let (db, q) = line_db(6);
        let stats = analyze(&db);
        let cfg = GeqoConfig::default();
        let a = geqo_join_order(&q, &stats, &cfg);
        let b = geqo_join_order(&q, &stats, &cfg);
        assert_eq!(a, b);
    }

    #[test]
    fn geqo_is_never_wildly_worse_than_dp() {
        let (db, q) = line_db(7);
        let stats = analyze(&db);
        let dp = dp_join_order(&q, &stats);
        let ge = geqo_join_order(&q, &stats, &GeqoConfig::default());
        let dp_cost = order_cost(&q, &stats, &dp);
        let ge_cost = order_cost(&q, &stats, &ge);
        assert!(ge_cost >= dp_cost - 1e-6, "DP must be optimal");
        // A reasonably-tuned GA should come within a couple of orders of
        // magnitude on a 7-atom query.
        assert!(ge_cost <= dp_cost * 100.0, "geqo={ge_cost} dp={dp_cost}");
    }

    #[test]
    fn tiny_queries_shortcut() {
        let (db, q) = line_db(1);
        let stats = analyze(&db);
        assert_eq!(geqo_join_order(&q, &stats, &GeqoConfig::default()).len(), 1);
    }
}

//! The **Query Manipulator** (stand-alone mode, Section 5): rewrites a
//! q-hypertree decomposition into a stack of SQL views — one `CREATE VIEW`
//! per decomposition vertex, in bottom-up dependency order, plus a final
//! `SELECT` computing the aggregates — "which can be evaluated on top of
//! any DBMS (possibly, disabling its internal optimizer)".
//!
//! Each view selects `DISTINCT` the vertex's available χ variables from
//! the vertex's atoms and its children's views, with the variable
//! equalities and pushed-down constant filters in its `WHERE` clause.
//!
//! An aggregate query must see SQL's bag, so its vertex views drop
//! `DISTINCT`: a vertex view is the bag projection of its join, and a row
//! of the root view stands for each combination of base rows behind it.
//! Only the atoms *assigned* to a vertex count there; each λ atom it does
//! not enforce becomes its own `DISTINCT` bound view over its χ
//! variables, joined in as a set. The final `SELECT` then computes SQL's
//! answer on any DBMS: the aggregates over the root view's bag, or the
//! `DISTINCT` output variables of a query without aggregates (the root
//! view may expose more variables than `out(Q)`).
//!
//! The module also contains [`execute_views`], which replays the
//! generated script through our own parser and engine — the round-trip
//! test that the rewriting is faithful.

use htqo_core::hypertree::NodeId;
use htqo_core::QhdPlan;
use htqo_cq::date::format_date;
use htqo_cq::{
    isolate, parse_select, AggFunc, AtomId, ConjunctiveQuery, IsolatorOptions, Literal, OutputItem,
    ScalarExpr, SortDir,
};
use htqo_engine::cops;
use htqo_engine::error::{Budget, EvalError};
use htqo_engine::relation::Relation;
use htqo_engine::schema::{ColumnType, Database, Schema};
use htqo_engine::value::Value;
use htqo_engine::vrel::VRelation;
use htqo_eval::{evaluate_join_order, join_rows};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One generated view.
#[derive(Clone, Debug)]
pub struct ViewDef {
    /// View name.
    pub name: String,
    /// The view body: a `SELECT DISTINCT` (a set) or, in an aggregate
    /// query, a plain `SELECT` (a bag whose rows repeat as the join's do).
    pub select_sql: String,
}

/// A rewritten query: views in dependency order plus the final SELECT.
#[derive(Clone, Debug)]
pub struct SqlViews {
    /// Views, children before parents.
    pub views: Vec<ViewDef>,
    /// The final statement computing the query output.
    pub final_query: String,
}

impl SqlViews {
    /// The full SQL script (`CREATE VIEW`s followed by the final SELECT).
    pub fn script(&self) -> String {
        let mut out = String::new();
        for v in &self.views {
            let _ = writeln!(out, "CREATE VIEW {} AS\n{};\n", v.name, v.select_sql);
        }
        let _ = writeln!(out, "{};", self.final_query);
        out
    }
}

/// One `FROM` entry of a view: a base atom or another view.
struct Source {
    from_clause: String,
    /// var → column term (`binding.column`)
    terms: BTreeMap<String, String>,
    /// extra within-source equalities (repeated vars in one atom)
    self_equalities: Vec<(String, String)>,
    filters: Vec<String>,
}

impl Source {
    /// Atom `a` of `q`, bound as `{alias}_{index}`.
    fn atom(q: &ConjunctiveQuery, a: AtomId) -> Source {
        let atom = q.atom(a);
        let binding = format!("{}_{}", atom.alias, a.0);
        let mut terms: BTreeMap<String, String> = BTreeMap::new();
        let mut self_equalities = Vec::new();
        for (col, var) in &atom.args {
            let term = format!("{binding}.{col}");
            match terms.get(var) {
                Some(existing) => self_equalities.push((existing.clone(), term)),
                None => {
                    terms.insert(var.clone(), term);
                }
            }
        }
        let filters = (q.filters_of(a))
            .map(|f| {
                format!(
                    "{binding}.{} {} {}",
                    f.column,
                    f.op.sql(),
                    sql_literal(&f.value)
                )
            })
            .collect();
        Source {
            from_clause: format!("{} {}", atom.relation, binding),
            terms,
            self_equalities,
            filters,
        }
    }

    /// The view `name`, which exposes `vars`.
    fn view(name: String, vars: &[String]) -> Source {
        Source {
            terms: (vars.iter())
                .map(|v| (v.clone(), format!("{name}.{v}")))
                .collect(),
            from_clause: name,
            self_equalities: Vec::new(),
            filters: Vec::new(),
        }
    }
}

/// The view over `sources` exposing the variables of `chi` they provide:
/// its `SELECT` (with `DISTINCT` when `distinct`) and those variables.
fn view_select(sources: &[Source], chi: &[String], distinct: bool) -> (String, Vec<String>) {
    // Exposed vars: χ variables some source provides.
    let exp: Vec<String> = (chi.iter())
        .filter(|v| sources.iter().any(|s| s.terms.contains_key(*v)))
        .cloned()
        .collect();
    let select_list: Vec<String> = exp
        .iter()
        .map(|v| {
            let term =
                (sources.iter().find_map(|s| s.terms.get(v))).expect("exposed var has a source");
            format!("{term} AS {v}")
        })
        .collect();

    // WHERE: join equalities + self equalities + filters, over every var
    // provided by ≥ 2 sources (including non-χ vars shared among the
    // vertex's own atoms).
    let mut conjuncts: Vec<String> = Vec::new();
    let mut all_vars: Vec<&String> = Vec::new();
    for s in sources {
        for v in s.terms.keys() {
            if !all_vars.contains(&v) {
                all_vars.push(v);
            }
        }
    }
    for v in all_vars {
        let terms: Vec<&String> = sources.iter().filter_map(|s| s.terms.get(v)).collect();
        for w in terms.windows(2) {
            conjuncts.push(format!("{} = {}", w[0], w[1]));
        }
    }
    for s in sources {
        for (a, b) in &s.self_equalities {
            conjuncts.push(format!("{a} = {b}"));
        }
        conjuncts.extend(s.filters.iter().cloned());
    }

    let from: Vec<&str> = sources.iter().map(|s| s.from_clause.as_str()).collect();
    let mut sql = format!(
        "SELECT {}{}\nFROM {}",
        if distinct { "DISTINCT " } else { "" },
        select_list.join(", "),
        from.join(", ")
    );
    if !conjuncts.is_empty() {
        let _ = write!(sql, "\nWHERE {}", conjuncts.join("\n  AND "));
    }
    (sql, exp)
}

/// Rewrites `q` along `plan` into SQL views named `{prefix}_{i}` (and,
/// for an aggregate query, bound views `{prefix}_{i}_b{atom}`).
pub fn rewrite_to_views(q: &ConjunctiveQuery, plan: &QhdPlan, prefix: &str) -> SqlViews {
    let tree = &plan.tree;
    let h = &plan.cq_hypergraph.hypergraph;
    let bag = q.has_aggregates();

    // Exposed variables per node, computed bottom-up.
    let mut exposed: Vec<Vec<String>> = vec![Vec::new(); tree.len()];
    let mut views: Vec<ViewDef> = Vec::with_capacity(tree.len());
    let mut order = tree.preorder();
    order.reverse(); // postorder-ish: children before parents

    for p in order {
        let node = tree.node(p);
        let chi: Vec<String> = node.chi.iter().map(|v| h.var_name(v).to_string()).collect();

        // Sources: base atoms (or their bound views) then child views.
        let mut sources: Vec<Source> = Vec::new();
        for e in node.assigned.union(&node.lambda).iter() {
            let a = AtomId(e.0);
            if !bag || node.assigned.contains(e) {
                sources.push(Source::atom(q, a));
                continue;
            }
            let (select_sql, vars) = view_select(&[Source::atom(q, a)], &chi, true);
            if vars.is_empty() {
                continue; // it bounds no χ variable
            }
            let name = format!("{}_b{}", view_name_of(prefix, p), a.0);
            sources.push(Source::view(name.clone(), &vars));
            views.push(ViewDef { name, select_sql });
        }
        for &c in &node.children {
            sources.push(Source::view(view_name_of(prefix, c), &exposed[c.index()]));
        }
        assert!(
            !sources.is_empty(),
            "decomposition vertex with no atoms and no children"
        );
        let (select_sql, exp) = view_select(&sources, &chi, !bag);
        exposed[p.index()] = exp;
        views.push(ViewDef {
            name: view_name_of(prefix, p),
            select_sql,
        });
    }

    // Final SELECT from the root view.
    let root_view = view_name_of(prefix, tree.root());
    let term_of_var = |v: &str| format!("{root_view}.{v}");
    let mut items: Vec<String> = Vec::new();
    for item in &q.output {
        match item {
            OutputItem::Var { var, label } => {
                items.push(format!("{} AS {label}", term_of_var(var)));
            }
            OutputItem::Aggregate { func, expr, label } => {
                let inner = match expr {
                    None => "*".to_string(),
                    Some(e) => scalar_sql(e, &term_of_var),
                };
                let f = match func {
                    AggFunc::Sum => "sum",
                    AggFunc::Count => "count",
                    AggFunc::Min => "min",
                    AggFunc::Max => "max",
                    AggFunc::Avg => "avg",
                };
                items.push(format!("{f}({inner}) AS {label}"));
            }
        }
    }
    // The root view may expose more variables than out(Q): a set answer
    // needs DISTINCT, an aggregate groups the root view's bag.
    let distinct = if bag { "" } else { "DISTINCT " };
    let mut final_query = format!("SELECT {distinct}{}\nFROM {root_view}", items.join(", "));
    if !q.group_by.is_empty() {
        let keys: Vec<String> = q.group_by.iter().map(|v| term_of_var(v)).collect();
        let _ = write!(final_query, "\nGROUP BY {}", keys.join(", "));
    }
    if !q.having.is_empty() {
        let conj: Vec<String> = q
            .having
            .iter()
            .map(|(label, op, lit)| format!("{label} {} {}", op.sql(), sql_literal(lit)))
            .collect();
        let _ = write!(final_query, "\nHAVING {}", conj.join(" AND "));
    }
    if !q.order_by.is_empty() {
        let keys: Vec<String> = q
            .order_by
            .iter()
            .map(|(label, dir)| {
                format!(
                    "{label}{}",
                    if *dir == SortDir::Desc { " DESC" } else { "" }
                )
            })
            .collect();
        let _ = write!(final_query, "\nORDER BY {}", keys.join(", "));
    }

    if let Some(n) = q.limit {
        let _ = write!(final_query, "\nLIMIT {n}");
    }

    SqlViews { views, final_query }
}

fn view_name_of(prefix: &str, p: NodeId) -> String {
    format!("{prefix}_{}", p.0)
}

fn sql_literal(l: &Literal) -> String {
    match l {
        Literal::Int(i) => i.to_string(),
        Literal::Float(x) => format!("{x:?}"),
        Literal::Str(s) => format!("'{}'", s.replace('\'', "''")),
        Literal::Date(d) => format!("date '{}'", format_date(*d)),
    }
}

fn scalar_sql(e: &ScalarExpr, term_of_var: &impl Fn(&str) -> String) -> String {
    match e {
        ScalarExpr::Var(v) => term_of_var(v),
        ScalarExpr::Lit(l) => sql_literal(l),
        ScalarExpr::Binary(a, op, b) => format!(
            "({} {op} {})",
            scalar_sql(a, term_of_var),
            scalar_sql(b, term_of_var)
        ),
    }
}

/// Executes a generated view script with our own parser and engine:
/// materializes each view as a table in a scratch copy of `db`, then runs
/// the final query. Used to verify the rewriting end-to-end (and as the
/// reference for the stand-alone deployment mode).
pub fn execute_views(
    db: &Database,
    views: &SqlViews,
    budget: &mut Budget,
) -> Result<VRelation, EvalError> {
    let mut scratch = db.clone();
    for v in &views.views {
        let rel = run_select(&scratch, &v.select_sql, budget)?;
        scratch.insert_table(&v.name, vrel_to_relation(&rel)?);
    }
    run_select(&scratch, &views.final_query, budget)
}

/// Runs one statement of a view script: a `SELECT DISTINCT` or an
/// aggregate answers as the isolator does, a plain `SELECT` keeps every
/// join row.
fn run_select(db: &Database, sql: &str, budget: &mut Budget) -> Result<VRelation, EvalError> {
    let stmt = parse_select(sql)
        .map_err(|e| EvalError::Internal(format!("view SQL failed to parse: {e}\n{sql}")))?;
    let q = isolate(&stmt, db, IsolatorOptions::default())
        .map_err(|e| EvalError::Internal(format!("view SQL failed to isolate: {e}\n{sql}")))?;
    if stmt.distinct || q.has_aggregates() {
        let answer = evaluate_join_order(db, &q, None, budget)?;
        return htqo_engine::aggregate::finalize_c(&answer, &q, budget);
    }
    // A bag view selects each variable once, under its own name.
    let joined = join_rows(db, &q, None, budget)?;
    let bag = cops::project(&joined, &q.out_vars(), false, budget)?.to_vrel();
    budget.check_exceeded()?;
    let labels = q.output.iter().map(|o| o.label().to_string()).collect();
    Ok(VRelation::from_rows(labels, bag.into_rows()))
}

/// Materializes an intermediate relation as a stored [`Relation`],
/// inferring column types from the first non-null value of each column.
pub fn vrel_to_relation(v: &VRelation) -> Result<Relation, EvalError> {
    let mut schema = Schema::default();
    for (i, col) in v.cols().iter().enumerate() {
        let ty = v
            .rows()
            .iter()
            .map(|r| &r[i])
            .find(|val| !val.is_null())
            .map(|val| match val {
                Value::Int(_) => ColumnType::Int,
                Value::Float(_) => ColumnType::Float,
                Value::Str(_) => ColumnType::Str,
                Value::Date(_) => ColumnType::Date,
                Value::Null => ColumnType::Int,
            })
            .unwrap_or(ColumnType::Int);
        schema.push(col, ty);
    }
    let mut rel = Relation::new(schema);
    rel.reserve(v.len());
    for row in v.rows() {
        rel.push_row(row.to_vec())
            .map_err(|e| EvalError::Internal(format!("view materialization: {e}")))?;
    }
    Ok(rel)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hybrid::HybridOptimizer;
    use htqo_core::QhdOptions;
    use htqo_cq::CqBuilder;
    use htqo_engine::schema::{ColumnType, Schema};

    fn chain_db(n: usize, rows: i64, domain: i64) -> Database {
        let mut db = Database::new();
        for i in 0..n {
            let mut r = Relation::new(Schema::new(&[
                ("l", ColumnType::Int),
                ("r", ColumnType::Int),
            ]));
            for t in 0..rows {
                r.push_row(vec![
                    Value::Int((t * 3 + i as i64) % domain),
                    Value::Int((t * 5 + 2 * i as i64) % domain),
                ])
                .unwrap();
            }
            db.insert_table(&format!("p{i}"), r);
        }
        db
    }

    /// `p0..p{n-1}`, each holding two thirds of the pairs over
    /// `0..domain`: no column determines the other, so a cycle over them
    /// has many answers per value.
    fn dense_db(n: usize, domain: i64) -> Database {
        let mut db = Database::new();
        for i in 0..n as i64 {
            let mut r = Relation::new(Schema::new(&[
                ("l", ColumnType::Int),
                ("r", ColumnType::Int),
            ]));
            for (l, rr) in (0..domain).flat_map(|l| (0..domain).map(move |rr| (l, rr))) {
                if (l + rr + i) % 3 != 0 {
                    r.push_row(vec![Value::Int(l), Value::Int(rr)]).unwrap();
                }
            }
            db.insert_table(&format!("p{i}"), r);
        }
        db
    }

    fn chain_query(n: usize) -> ConjunctiveQuery {
        let mut b = CqBuilder::new();
        for i in 0..n {
            let l = format!("X{i}");
            let r = format!("X{}", (i + 1) % n);
            b = b.atom(&format!("p{i}"), &format!("p{i}"), &[("l", &l), ("r", &r)]);
        }
        b.out_var("X0").out_var("X1").build()
    }

    #[test]
    fn views_round_trip_matches_direct_evaluation() {
        // The root view holds X2 and X3 beside out(Q) = (X0, X1), with
        // several rows per output row.
        let db = dense_db(4, 4);
        let q = chain_query(4);
        let opt = HybridOptimizer::structural(QhdOptions::default());
        let plan = opt.plan_cq(&q).unwrap();
        let views = rewrite_to_views(&q, &plan, "hd_v");
        let mut b1 = Budget::unlimited();
        let via_views = execute_views(&db, &views, &mut b1).unwrap();
        let direct = opt.execute_cq(&db, &q, Budget::unlimited()).result.unwrap();
        // Bags, not sets: a final SELECT without DISTINCT repeats rows.
        assert_eq!(via_views.cols(), direct.cols());
        assert_eq!(
            via_views.sorted_rows(),
            direct.sorted_rows(),
            "views:\n{}",
            views.script()
        );
    }

    #[test]
    fn script_contains_create_views_and_distinct() {
        let db = chain_db(3, 10, 4);
        let q = chain_query(3);
        let opt = HybridOptimizer::structural(QhdOptions::default());
        let plan = opt.plan_cq(&q).unwrap();
        let views = rewrite_to_views(&q, &plan, "hd_v");
        let script = views.script();
        assert!(script.contains("CREATE VIEW hd_v_"));
        assert!(script.contains("SELECT DISTINCT"));
        assert!(script.trim_end().ends_with(';'));
        assert_eq!(views.views.len(), plan.tree.len());
        let _ = db;
    }

    #[test]
    fn filters_appear_in_view_where_clauses() {
        let mut db = chain_db(2, 10, 4);
        let mut named = Relation::new(Schema::new(&[
            ("l", ColumnType::Int),
            ("nm", ColumnType::Str),
        ]));
        named
            .push_row(vec![Value::Int(1), Value::str("it's")])
            .unwrap();
        db.insert_table("named", named);
        let q = CqBuilder::new()
            .atom("p0", "p0", &[("l", "X"), ("r", "Y")])
            .atom("named", "named", &[("l", "Y")])
            .out_var("X")
            .filter(1, "nm", htqo_cq::CmpOp::Eq, Literal::Str("it's".into()))
            .build();
        let opt = HybridOptimizer::structural(QhdOptions::default());
        let plan = opt.plan_cq(&q).unwrap();
        let views = rewrite_to_views(&q, &plan, "v");
        let script = views.script();
        assert!(script.contains("'it''s'"), "{script}");
        // Round-trip still agrees.
        let mut b = Budget::unlimited();
        let via = execute_views(&db, &views, &mut b).unwrap();
        let direct = opt.execute_cq(&db, &q, Budget::unlimited()).result.unwrap();
        assert!(via.set_eq(&direct));
    }

    #[test]
    fn having_and_limit_round_trip() {
        let db = chain_db(3, 40, 5);
        let q = {
            let mut b = CqBuilder::new();
            for i in 0..3 {
                let l = format!("X{i}");
                let r = format!("X{}", (i + 1) % 3);
                b = b.atom(&format!("p{i}"), &format!("p{i}"), &[("l", &l), ("r", &r)]);
            }
            b.out_var("X0")
                .out_agg(AggFunc::Count, None, "n")
                .group("X0")
                .having("n", htqo_cq::CmpOp::Ge, Literal::Int(2))
                .order("n", SortDir::Desc)
                .order("X0", SortDir::Asc)
                .limit(3)
                .build()
        };
        let opt = HybridOptimizer::structural(QhdOptions::default());
        let plan = opt.plan_cq(&q).unwrap();
        let views = rewrite_to_views(&q, &plan, "v");
        assert!(
            views.final_query.contains("HAVING n >= 2"),
            "{}",
            views.final_query
        );
        assert!(views.final_query.contains("LIMIT 3"));
        let mut b1 = Budget::unlimited();
        let via = execute_views(&db, &views, &mut b1).unwrap();
        let direct = opt.execute_cq(&db, &q, Budget::unlimited()).result.unwrap();
        // Total ORDER BY (n DESC, X0 ASC) makes LIMIT deterministic.
        assert!(via.set_eq(&direct), "{}", views.script());
        assert!(via.len() <= 3);
    }

    #[test]
    fn aggregates_in_final_query() {
        let db = chain_db(3, 25, 4);
        let q = {
            let mut b = CqBuilder::new();
            for i in 0..3 {
                let l = format!("X{i}");
                let r = format!("X{}", (i + 1) % 3);
                b = b.atom(&format!("p{i}"), &format!("p{i}"), &[("l", &l), ("r", &r)]);
            }
            b.out_var("X0")
                .out_agg(AggFunc::Count, None, "n")
                .group("X0")
                .order("n", SortDir::Desc)
                .build()
        };
        let opt = HybridOptimizer::structural(QhdOptions::default());
        let plan = opt.plan_cq(&q).unwrap();
        let views = rewrite_to_views(&q, &plan, "v");
        assert!(views.final_query.contains("count(*)"));
        assert!(views.final_query.contains("GROUP BY"));
        assert!(views.final_query.contains("ORDER BY n DESC"));
        let mut b1 = Budget::unlimited();
        let via = execute_views(&db, &views, &mut b1).unwrap();
        let direct = opt.execute_cq(&db, &q, Budget::unlimited()).result.unwrap();
        assert!(via.set_eq(&direct), "{}", views.script());
    }
}

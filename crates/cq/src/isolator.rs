//! The **Conjunctive Query Isolator** (Section 2 and Figure 5 of the
//! paper): translates a parsed SQL `SELECT` into a [`ConjunctiveQuery`].
//!
//! Attributes linked by equality predicates form equivalence classes; each
//! class becomes one query variable occurring in every atom that owns one
//! of the class's attributes. Attribute-vs-constant predicates become
//! [`Filter`]s pushed to their atom, and do *not* produce variables (the
//! paper drops `o_orderdate` from `CQ(Q₅)` for exactly this reason).
//!
//! ## Aggregates and multiplicity
//!
//! The paper evaluates `CQ(Q)` under set semantics and computes aggregates
//! on its answer. The query the isolator builds is the same either way:
//! SQL's bag semantics for aggregates is the evaluators' business (they
//! count the join rows behind each answer row), not a change to the query.

use crate::conjunctive::{
    Atom, AtomId, CmpOp, ConjunctiveQuery, Filter, Literal, OutputItem, ScalarExpr, SortDir,
};
use crate::sql::ast::{ColumnRef, OrderKey, Predicate, SelectItem, SelectStmt, SqlExpr};
use crate::union_find::UnionFind;
use std::collections::{HashMap, HashSet};
use std::fmt;

/// Provides table schemas to the isolator (implemented by the engine's
/// catalog, and by test fixtures).
pub trait SchemaProvider {
    /// Column names of `table`, or `None` if the table does not exist.
    fn columns(&self, table: &str) -> Option<Vec<String>>;
}

/// A simple in-memory [`SchemaProvider`] for tests and stand-alone use.
#[derive(Default, Clone, Debug)]
pub struct MapSchema {
    tables: HashMap<String, Vec<String>>,
}

impl MapSchema {
    /// Creates an empty schema.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a table with its columns.
    pub fn table(mut self, name: &str, columns: &[&str]) -> Self {
        self.tables.insert(
            name.to_string(),
            columns.iter().map(|c| c.to_string()).collect(),
        );
        self
    }
}

impl SchemaProvider for MapSchema {
    fn columns(&self, table: &str) -> Option<Vec<String>> {
        self.tables.get(table).cloned()
    }
}

/// Nothing: the isolator has no options. Kept, with [`isolate`]'s third
/// parameter, only because the `e2e/` benchmark passes one; a change to
/// the benchmark drops it there and then here.
#[doc(hidden)]
#[derive(Clone, Copy, Debug, Default)]
pub struct IsolatorOptions {}

/// Errors produced while isolating the conjunctive query.
#[derive(Clone, Debug, PartialEq)]
pub enum IsolateError {
    /// FROM references a table missing from the schema.
    UnknownTable(String),
    /// Two FROM entries bind the same name.
    DuplicateBinding(String),
    /// A column reference's qualifier matches no FROM binding.
    UnknownBinding(String),
    /// A column does not exist in the referenced (or any) table.
    UnknownColumn(String),
    /// An unqualified column exists in several FROM tables.
    AmbiguousColumn(String),
    /// A column-to-column predicate with a non-`=` operator.
    NonEquiJoin(String),
    /// A predicate comparing two constants, or other unsupported shape.
    UnsupportedPredicate(String),
    /// An IN-subquery reached the isolator without being flattened first
    /// (see `htqo-optimizer`'s `nested` module).
    UnflattenedSubquery,
    /// A non-aggregate SELECT item that is not a plain column.
    UnsupportedSelectItem(String),
    /// ORDER BY references an unknown output column or position.
    UnknownOrderKey(String),
    /// HAVING references a label missing from the SELECT list.
    UnknownHavingLabel(String),
}

impl fmt::Display for IsolateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IsolateError::UnknownTable(t) => write!(f, "unknown table `{t}`"),
            IsolateError::DuplicateBinding(b) => write!(f, "duplicate table binding `{b}`"),
            IsolateError::UnknownBinding(b) => write!(f, "unknown table binding `{b}`"),
            IsolateError::UnknownColumn(c) => write!(f, "unknown column `{c}`"),
            IsolateError::AmbiguousColumn(c) => {
                write!(f, "column `{c}` is ambiguous; qualify it with a table name")
            }
            IsolateError::NonEquiJoin(p) => {
                write!(f, "non-equality join predicate not supported: {p}")
            }
            IsolateError::UnsupportedPredicate(p) => write!(f, "unsupported predicate: {p}"),
            IsolateError::UnflattenedSubquery => {
                write!(f, "IN subquery must be flattened before isolation")
            }
            IsolateError::UnsupportedSelectItem(s) => {
                write!(
                    f,
                    "unsupported SELECT item (expected column or aggregate): {s}"
                )
            }
            IsolateError::UnknownOrderKey(k) => write!(f, "unknown ORDER BY key `{k}`"),
            IsolateError::UnknownHavingLabel(k) => {
                write!(
                    f,
                    "HAVING references `{k}`, which is not a SELECT output label"
                )
            }
        }
    }
}

impl std::error::Error for IsolateError {}

/// A resolved attribute: `(atom index, column name)`.
type Attr = (usize, String);

/// Translates a parsed SELECT into a conjunctive query.
pub fn isolate(
    stmt: &SelectStmt,
    schema: &dyn SchemaProvider,
    _: IsolatorOptions,
) -> Result<ConjunctiveQuery, IsolateError> {
    // 1. Resolve FROM bindings.
    let mut bindings: Vec<(String, String, Vec<String>)> = Vec::new(); // (binding, relation, columns)
    for t in &stmt.from {
        let cols = schema
            .columns(&t.table)
            .ok_or_else(|| IsolateError::UnknownTable(t.table.clone()))?;
        let binding = t.binding().to_string();
        if bindings.iter().any(|(b, _, _)| *b == binding) {
            return Err(IsolateError::DuplicateBinding(binding));
        }
        bindings.push((binding, t.table.clone(), cols));
    }

    let resolver = Resolver {
        bindings: &bindings,
    };

    // 2. Interning of attributes and union-find over them.
    let mut attrs: Vec<Attr> = Vec::new();
    let mut attr_index: HashMap<Attr, usize> = HashMap::new();
    let mut uf = UnionFind::new(0);
    let mut intern = |attr: Attr, uf: &mut UnionFind| -> usize {
        if let Some(&i) = attr_index.get(&attr) {
            return i;
        }
        let i = attrs.len();
        attrs.push(attr.clone());
        attr_index.insert(attr, i);
        let j = uf.push();
        debug_assert_eq!(i, j);
        i
    };

    // 3. Walk WHERE: equalities between columns merge classes; predicates
    //    against constants become filters.
    let mut filters: Vec<Filter> = Vec::new();
    for p in &stmt.predicates {
        match classify(p) {
            PredShape::ColCol(l, r, op) => {
                if op != CmpOp::Eq {
                    return Err(IsolateError::NonEquiJoin(format!("{l} {} {r}", op.sql())));
                }
                let la = resolver.resolve(l)?;
                let ra = resolver.resolve(r)?;
                let li = intern(la, &mut uf);
                let ri = intern(ra, &mut uf);
                uf.union(li, ri);
            }
            PredShape::ColLit(c, op, lit) => {
                let (atom, column) = resolver.resolve(c)?;
                filters.push(Filter {
                    atom: AtomId(atom as u32),
                    column,
                    op,
                    value: lit.clone(),
                });
            }
            PredShape::Subquery => {
                return Err(IsolateError::UnflattenedSubquery);
            }
            PredShape::Other => {
                return Err(IsolateError::UnsupportedPredicate(format!("{p:?}")));
            }
        }
    }

    // 4. Attributes used by SELECT / GROUP BY / aggregate expressions also
    //    need variables (possibly in singleton classes).
    let mut select_attr_of_item: Vec<SelectResolution> = Vec::new();
    for item in &stmt.select {
        match item {
            SelectItem::Expr {
                expr: SqlExpr::Col(c),
                alias,
            } => {
                let attr = resolver.resolve(c)?;
                let i = intern(attr, &mut uf);
                select_attr_of_item.push(SelectResolution::Plain {
                    attr_idx: i,
                    label: alias.clone().unwrap_or_else(|| c.column.clone()),
                });
            }
            SelectItem::Expr { expr, .. } => {
                return Err(IsolateError::UnsupportedSelectItem(format!("{expr:?}")));
            }
            SelectItem::Aggregate { func, expr, alias } => {
                let resolved = match expr {
                    Some(e) => Some(resolve_expr(e, &resolver, &mut intern, &mut uf)?),
                    None => None,
                };
                let label = alias.clone().unwrap_or_else(|| func.to_string());
                select_attr_of_item.push(SelectResolution::Agg {
                    func: *func,
                    expr: resolved,
                    label,
                });
            }
        }
    }
    let mut group_attr: Vec<usize> = Vec::new();
    for c in &stmt.group_by {
        let attr = resolver.resolve(c)?;
        group_attr.push(intern(attr, &mut uf));
    }

    // 5. Name the equivalence classes.
    let mut names = ClassNamer::new();
    let mut var_of_class: HashMap<usize, String> = HashMap::new();
    for i in 0..attrs.len() {
        let root = uf.find(i);
        var_of_class
            .entry(root)
            // Name the class after its first-interned member's column.
            .or_insert_with(|| names.name_for(&attrs[root].1));
    }

    // 6. Build atoms: every attribute with a variable contributes an arg.
    let mut atoms: Vec<Atom> = bindings
        .iter()
        .map(|(binding, relation, _)| Atom {
            relation: relation.clone(),
            alias: binding.clone(),
            args: Vec::new(),
        })
        .collect();
    for (i, (atom_idx, column)) in attrs.iter().enumerate() {
        let root = uf.find(i);
        let var = var_of_class[&root].clone();
        atoms[*atom_idx].args.push((column.clone(), var));
    }

    // 7. Output items.
    let var_of_attr =
        |i: usize, uf: &mut UnionFind| -> String { var_of_class[&uf.find(i)].clone() };
    let mut output: Vec<OutputItem> = Vec::new();
    for res in &select_attr_of_item {
        match res {
            SelectResolution::Plain { attr_idx, label } => output.push(OutputItem::Var {
                var: var_of_attr(*attr_idx, &mut uf),
                label: label.clone(),
            }),
            SelectResolution::Agg { func, expr, label } => {
                let scalar = expr
                    .as_ref()
                    .map(|e| resolved_to_scalar(e, &mut uf, &var_of_class));
                output.push(OutputItem::Aggregate {
                    func: *func,
                    expr: scalar,
                    label: label.clone(),
                });
            }
        }
    }
    let group_by: Vec<String> = group_attr
        .iter()
        .map(|&i| var_of_attr(i, &mut uf))
        .collect();

    // 8. ORDER BY keys must name output columns.
    let labels: Vec<&str> = output.iter().map(|o| o.label()).collect();
    let mut order_by: Vec<(String, SortDir)> = Vec::new();
    for (key, dir) in &stmt.order_by {
        let label = match key {
            OrderKey::Name(n) => {
                if let Some(l) = labels.iter().find(|l| l.eq_ignore_ascii_case(n)) {
                    (*l).to_string()
                } else {
                    return Err(IsolateError::UnknownOrderKey(n.clone()));
                }
            }
            OrderKey::Position(p) => {
                let idx = p - 1;
                labels
                    .get(idx)
                    .map(|l| l.to_string())
                    .ok_or_else(|| IsolateError::UnknownOrderKey(p.to_string()))?
            }
        };
        order_by.push((label, *dir));
    }

    // HAVING labels must name SELECT outputs.
    let mut having = Vec::with_capacity(stmt.having.len());
    for (label, op, value) in &stmt.having {
        let found = output
            .iter()
            .map(|o| o.label())
            .find(|l| l.eq_ignore_ascii_case(label));
        match found {
            Some(l) => having.push((l.to_string(), *op, value.clone())),
            None => return Err(IsolateError::UnknownHavingLabel(label.clone())),
        }
    }

    Ok(ConjunctiveQuery {
        atoms,
        output,
        group_by,
        order_by,
        having,
        limit: stmt.limit,
        filters,
    })
}

enum SelectResolution {
    Plain {
        attr_idx: usize,
        label: String,
    },
    Agg {
        func: crate::conjunctive::AggFunc,
        expr: Option<ResolvedExpr>,
        label: String,
    },
}

/// Scalar expression with columns resolved to interned attribute indices.
#[derive(Clone, Debug)]
enum ResolvedExpr {
    Attr(usize),
    Lit(Literal),
    Binary(
        Box<ResolvedExpr>,
        crate::conjunctive::ArithOp,
        Box<ResolvedExpr>,
    ),
}

fn resolve_expr(
    e: &SqlExpr,
    resolver: &Resolver<'_>,
    intern: &mut impl FnMut(Attr, &mut UnionFind) -> usize,
    uf: &mut UnionFind,
) -> Result<ResolvedExpr, IsolateError> {
    Ok(match e {
        SqlExpr::Col(c) => {
            let attr = resolver.resolve(c)?;
            ResolvedExpr::Attr(intern(attr, uf))
        }
        SqlExpr::Lit(l) => ResolvedExpr::Lit(l.clone()),
        SqlExpr::Binary(l, op, r) => ResolvedExpr::Binary(
            Box::new(resolve_expr(l, resolver, intern, uf)?),
            *op,
            Box::new(resolve_expr(r, resolver, intern, uf)?),
        ),
    })
}

fn resolved_to_scalar(
    e: &ResolvedExpr,
    uf: &mut UnionFind,
    var_of_class: &HashMap<usize, String>,
) -> ScalarExpr {
    match e {
        ResolvedExpr::Attr(i) => ScalarExpr::Var(var_of_class[&uf.find(*i)].clone()),
        ResolvedExpr::Lit(l) => ScalarExpr::Lit(l.clone()),
        ResolvedExpr::Binary(l, op, r) => ScalarExpr::Binary(
            Box::new(resolved_to_scalar(l, uf, var_of_class)),
            *op,
            Box::new(resolved_to_scalar(r, uf, var_of_class)),
        ),
    }
}

/// Shape of a WHERE conjunct.
enum PredShape<'a> {
    ColCol(&'a ColumnRef, &'a ColumnRef, CmpOp),
    ColLit(&'a ColumnRef, CmpOp, &'a Literal),
    Subquery,
    Other,
}

fn classify(p: &Predicate) -> PredShape<'_> {
    let Predicate::Cmp { left, op, right } = p else {
        // IN subqueries must be flattened (optimizer::nested) before the
        // structural analysis sees the statement.
        return PredShape::Subquery;
    };
    match (left, right) {
        (SqlExpr::Col(l), SqlExpr::Col(r)) => PredShape::ColCol(l, r, *op),
        (SqlExpr::Col(c), SqlExpr::Lit(l)) => PredShape::ColLit(c, *op, l),
        (SqlExpr::Lit(l), SqlExpr::Col(c)) => PredShape::ColLit(c, flip(*op), l),
        _ => PredShape::Other,
    }
}

fn flip(op: CmpOp) -> CmpOp {
    match op {
        CmpOp::Lt => CmpOp::Gt,
        CmpOp::Le => CmpOp::Ge,
        CmpOp::Gt => CmpOp::Lt,
        CmpOp::Ge => CmpOp::Le,
        CmpOp::Eq | CmpOp::Ne => op,
    }
}

struct Resolver<'a> {
    bindings: &'a [(String, String, Vec<String>)],
}

impl Resolver<'_> {
    fn resolve(&self, c: &ColumnRef) -> Result<Attr, IsolateError> {
        match &c.qualifier {
            Some(q) => {
                let (idx, (_, _, cols)) = self
                    .bindings
                    .iter()
                    .enumerate()
                    .find(|(_, (b, _, _))| b.eq_ignore_ascii_case(q))
                    .ok_or_else(|| IsolateError::UnknownBinding(q.clone()))?;
                let col = cols
                    .iter()
                    .find(|col| col.eq_ignore_ascii_case(&c.column))
                    .ok_or_else(|| IsolateError::UnknownColumn(c.to_string()))?;
                Ok((idx, col.clone()))
            }
            None => {
                let mut owner: Option<Attr> = None;
                for (idx, (_, _, cols)) in self.bindings.iter().enumerate() {
                    if let Some(col) = cols.iter().find(|col| col.eq_ignore_ascii_case(&c.column)) {
                        if owner.is_some() {
                            return Err(IsolateError::AmbiguousColumn(c.column.clone()));
                        }
                        owner = Some((idx, col.clone()));
                    }
                }
                owner.ok_or_else(|| IsolateError::UnknownColumn(c.column.clone()))
            }
        }
    }
}

/// Assigns human-readable, unique variable names to equivalence classes:
/// the upper-cased column name, then `_2`, `_3`, … — skipping a name
/// another class already took, such as the class of a column that is
/// itself called `b_2` (the SQL-view rewriter's labels are).
struct ClassNamer {
    taken: HashSet<String>,
}

impl ClassNamer {
    fn new() -> Self {
        ClassNamer {
            taken: HashSet::new(),
        }
    }

    fn name_for(&mut self, column: &str) -> String {
        let base = column.to_ascii_uppercase();
        let mut name = base.clone();
        for n in 2.. {
            if self.taken.insert(name.clone()) {
                break;
            }
            name = format!("{base}_{n}");
        }
        name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sql::parser::parse_select;

    fn tpch_schema() -> MapSchema {
        MapSchema::new()
            .table("customer", &["c_custkey", "c_name", "c_nationkey"])
            .table("orders", &["o_orderkey", "o_custkey", "o_orderdate"])
            .table(
                "lineitem",
                &["l_orderkey", "l_suppkey", "l_extendedprice", "l_discount"],
            )
            .table("supplier", &["s_suppkey", "s_nationkey"])
            .table("nation", &["n_nationkey", "n_name", "n_regionkey"])
            .table("region", &["r_regionkey", "r_name"])
    }

    fn q5() -> ConjunctiveQuery {
        let stmt = parse_select(
            "SELECT n_name, sum(l_extendedprice * (1 - l_discount)) AS revenue
             FROM customer, orders, lineitem, supplier, nation, region
             WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey
               AND l_suppkey = s_suppkey AND c_nationkey = s_nationkey
               AND s_nationkey = n_nationkey AND n_regionkey = r_regionkey
               AND r_name = 'ASIA'
               AND o_orderdate >= date '1994-01-01'
               AND o_orderdate < date '1994-01-01' + interval '1' year
             GROUP BY n_name ORDER BY revenue DESC",
        )
        .unwrap();
        isolate(&stmt, &tpch_schema(), IsolatorOptions::default()).unwrap()
    }

    #[test]
    fn q5_matches_paper_example_1() {
        let q = q5();
        assert_eq!(q.atoms.len(), 6);
        // Equivalence class {c_nationkey, s_nationkey, n_nationkey} is one
        // variable shared by customer, supplier and nation.
        let cust = &q.atoms[0];
        let supp = &q.atoms[3];
        let nat = &q.atoms[4];
        let v = cust.var_of_column("c_nationkey").unwrap();
        assert_eq!(supp.var_of_column("s_nationkey"), Some(v));
        assert_eq!(nat.var_of_column("n_nationkey"), Some(v));
        // o_orderdate occurs only against constants → no variable, two filters.
        assert!(q.atoms[1].var_of_column("o_orderdate").is_none());
        assert_eq!(
            q.filters
                .iter()
                .filter(|f| f.column == "o_orderdate")
                .count(),
            2
        );
        // r_name = 'ASIA' is a filter on region.
        assert!(q
            .filters
            .iter()
            .any(|f| f.column == "r_name" && f.op == CmpOp::Eq));
        // out(Q) ⊇ {N_NAME, L_EXTENDEDPRICE, L_DISCOUNT}.
        let out = q.out_vars();
        assert!(out.iter().any(|v| v == "N_NAME"));
        assert!(out.iter().any(|v| v == "L_EXTENDEDPRICE"));
        assert!(out.iter().any(|v| v == "L_DISCOUNT"));
        // The hypergraph is cyclic (checked via GYO).
        let ch = q.hypergraph();
        assert!(!htqo_hypergraph::acyclic::is_acyclic(&ch.hypergraph));
    }

    /// Aggregates add no hidden variable: `out(Q)` holds the grouping
    /// variables and those the aggregates read, and every atom keeps the
    /// arguments the statement gives it.
    #[test]
    fn aggregates_add_no_hidden_variable() {
        for sql in [
            "SELECT n_name, sum(l_discount) FROM nation, lineitem, supplier
             WHERE n_nationkey = s_nationkey AND s_suppkey = l_suppkey GROUP BY n_name",
            "SELECT count(*) FROM customer, orders WHERE c_custkey = o_custkey",
            "SELECT n_name, count(*) FROM nation, supplier
             WHERE n_nationkey = s_nationkey GROUP BY n_name",
        ] {
            let q = isolate(
                &parse_select(sql).unwrap(),
                &tpch_schema(),
                IsolatorOptions::default(),
            )
            .unwrap();
            let mut out = q.out_vars();
            out.sort();
            let mut want: Vec<String> = q.group_by.clone();
            for item in &q.output {
                if let OutputItem::Aggregate { expr: Some(e), .. } = item {
                    want.extend(e.vars().into_iter().map(str::to_string));
                }
            }
            want.sort();
            want.dedup();
            assert_eq!(out, want, "{sql}");
        }
    }

    #[test]
    fn unqualified_ambiguous_column_is_rejected() {
        let schema = MapSchema::new().table("a", &["x"]).table("b", &["x"]);
        let stmt = parse_select("SELECT x FROM a, b").unwrap();
        let err = isolate(&stmt, &schema, IsolatorOptions::default()).unwrap_err();
        assert_eq!(err, IsolateError::AmbiguousColumn("x".into()));
    }

    #[test]
    fn qualified_columns_disambiguate() {
        let schema = MapSchema::new().table("a", &["x"]).table("b", &["x"]);
        let stmt = parse_select("SELECT a.x FROM a, b WHERE a.x = b.x").unwrap();
        let q = isolate(&stmt, &schema, IsolatorOptions::default()).unwrap();
        // One shared variable between the two atoms.
        assert_eq!(q.atoms[0].args[0].1, q.atoms[1].args[0].1);
    }

    #[test]
    fn self_join_with_aliases() {
        let schema = MapSchema::new().table("r", &["a", "b"]);
        let stmt = parse_select("SELECT r1.a FROM r r1, r r2 WHERE r1.b = r2.a").unwrap();
        let q = isolate(&stmt, &schema, IsolatorOptions::default()).unwrap();
        assert_eq!(q.atoms.len(), 2);
        assert_eq!(q.atoms[0].alias, "r1");
        assert_eq!(q.atoms[1].alias, "r2");
        assert_eq!(q.atoms[0].var_of_column("b"), q.atoms[1].var_of_column("a"));
    }

    #[test]
    fn duplicate_bindings_rejected() {
        let schema = MapSchema::new().table("r", &["a"]);
        let stmt = parse_select("SELECT a FROM r, r").unwrap();
        assert_eq!(
            isolate(&stmt, &schema, IsolatorOptions::default()).unwrap_err(),
            IsolateError::DuplicateBinding("r".into())
        );
    }

    #[test]
    fn unknown_table_and_column() {
        let schema = MapSchema::new().table("r", &["a"]);
        let stmt = parse_select("SELECT a FROM nope").unwrap();
        assert_eq!(
            isolate(&stmt, &schema, IsolatorOptions::default()).unwrap_err(),
            IsolateError::UnknownTable("nope".into())
        );
        let stmt2 = parse_select("SELECT z FROM r").unwrap();
        assert_eq!(
            isolate(&stmt2, &schema, IsolatorOptions::default()).unwrap_err(),
            IsolateError::UnknownColumn("z".into())
        );
    }

    #[test]
    fn non_equi_join_rejected() {
        let schema = MapSchema::new().table("a", &["x"]).table("b", &["y"]);
        let stmt = parse_select("SELECT x FROM a, b WHERE x < y").unwrap();
        assert!(matches!(
            isolate(&stmt, &schema, IsolatorOptions::default()).unwrap_err(),
            IsolateError::NonEquiJoin(_)
        ));
    }

    #[test]
    fn constant_on_left_flips_operator() {
        let schema = MapSchema::new().table("r", &["a"]);
        let stmt = parse_select("SELECT a FROM r WHERE 5 < a").unwrap();
        let q = isolate(&stmt, &schema, IsolatorOptions::default()).unwrap();
        assert_eq!(q.filters[0].op, CmpOp::Gt);
        assert_eq!(q.filters[0].value, Literal::Int(5));
    }

    #[test]
    fn order_by_position_and_unknown_key() {
        let schema = MapSchema::new().table("r", &["a", "b"]);
        let stmt = parse_select("SELECT a, b FROM r ORDER BY 2 DESC").unwrap();
        let q = isolate(&stmt, &schema, IsolatorOptions::default()).unwrap();
        assert_eq!(q.order_by[0], ("b".to_string(), SortDir::Desc));
        let stmt2 = parse_select("SELECT a FROM r ORDER BY zz").unwrap();
        assert!(matches!(
            isolate(&stmt2, &schema, IsolatorOptions::default()).unwrap_err(),
            IsolateError::UnknownOrderKey(_)
        ));
    }

    #[test]
    fn variable_names_are_unique() {
        // Two unrelated classes whose representative column is `x`.
        let schema = MapSchema::new().table("a", &["x"]).table("b", &["x"]);
        let stmt = parse_select("SELECT a.x, b.x FROM a, b").unwrap();
        let q = isolate(&stmt, &schema, IsolatorOptions::default()).unwrap();
        let v0 = q.atoms[0].args[0].1.clone();
        let v1 = q.atoms[1].args[0].1.clone();
        assert_ne!(v0, v1);
    }

    /// A suffixed name is never one a column already took: `t.b` does
    /// not become `B_2` when `r.b_2` named its class `B_2` first.
    #[test]
    fn suffixed_names_skip_column_names() {
        let schema = (MapSchema::new().table("r", &["b_2"]))
            .table("s", &["b"])
            .table("t", &["b"]);
        let stmt = parse_select("SELECT r.b_2, s.b, t.b FROM r, s, t").unwrap();
        let q = isolate(&stmt, &schema, IsolatorOptions::default()).unwrap();
        let vars: Vec<&str> = q.atoms.iter().map(|a| a.args[0].1.as_str()).collect();
        assert_eq!(vars, ["B_2", "B", "B_3"]);
        assert_eq!(q.out_vars().len(), 3);
    }

    #[test]
    fn having_labels_resolve_or_error() {
        let schema = MapSchema::new().table("r", &["g", "x"]);
        let stmt =
            parse_select("SELECT g, sum(x) AS total FROM r GROUP BY g HAVING total > 5").unwrap();
        let q = isolate(&stmt, &schema, IsolatorOptions::default()).unwrap();
        assert_eq!(q.having.len(), 1);
        assert_eq!(q.having[0].0, "total");
        let bad = parse_select("SELECT g FROM r GROUP BY g HAVING nope = 1").unwrap();
        assert!(matches!(
            isolate(&bad, &schema, IsolatorOptions::default()).unwrap_err(),
            IsolateError::UnknownHavingLabel(_)
        ));
    }

    #[test]
    fn filter_only_columns_get_no_variables() {
        let schema = MapSchema::new().table("r", &["a", "b"]);
        let stmt = parse_select("SELECT a FROM r WHERE b = 3").unwrap();
        let q = isolate(&stmt, &schema, IsolatorOptions::default()).unwrap();
        assert!(q.atoms[0].var_of_column("b").is_none());
        assert_eq!(q.filters.len(), 1);
    }
}

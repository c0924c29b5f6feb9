//! Conjunctive queries `ans(u) ← r₁(u₁) ∧ … ∧ rₙ(uₙ)` (Section 2 of the
//! paper), enriched with the residual information a real SQL query carries:
//! constant filters, aggregate expressions, and grouping.

use htqo_hypergraph::{Hypergraph, Var};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Index of an atom within a [`ConjunctiveQuery`] body.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct AtomId(pub u32);

impl AtomId {
    /// The underlying index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A literal constant appearing in a filter.
#[derive(Clone, Debug, PartialEq)]
pub enum Literal {
    /// 64-bit integer.
    Int(i64),
    /// Floating point number.
    Float(f64),
    /// String.
    Str(String),
    /// Date as days since 1970-01-01 (parsed from `date 'YYYY-MM-DD'`).
    Date(i32),
}

impl fmt::Display for Literal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Literal::Int(i) => write!(f, "{i}"),
            Literal::Float(x) => write!(f, "{x}"),
            Literal::Str(s) => write!(f, "'{s}'"),
            Literal::Date(d) => write!(f, "date({d})"),
        }
    }
}

/// Comparison operators allowed in filters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    /// SQL spelling of the operator.
    pub fn sql(self) -> &'static str {
        match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "<>",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.sql())
    }
}

/// A constant restriction on one column of one atom, e.g.
/// `region.r_name = 'ASIA'`. Filters are pushed below joins by every
/// evaluator, so they never affect the query structure.
#[derive(Clone, Debug, PartialEq)]
pub struct Filter {
    /// The atom the restricted column belongs to.
    pub atom: AtomId,
    /// Column name within the atom's relation.
    pub column: String,
    /// Comparison operator.
    pub op: CmpOp,
    /// Constant operand.
    pub value: Literal,
}

/// One body atom `r(u)`: a relation (under an alias) with a binding from a
/// subset of its columns to query variables.
///
/// Only columns that the query actually uses appear in `args` — exactly the
/// arity-reduction described in Section 2 of the paper.
#[derive(Clone, Debug)]
pub struct Atom {
    /// Name of the underlying database relation.
    pub relation: String,
    /// Unique alias within the query (equals `relation` when unaliased).
    pub alias: String,
    /// `(column, variable)` bindings, in column order.
    pub args: Vec<(String, String)>,
}

impl Atom {
    /// The variable bound to `column`, if any.
    pub fn var_of_column(&self, column: &str) -> Option<&str> {
        self.args
            .iter()
            .find(|(c, _)| c == column)
            .map(|(_, v)| v.as_str())
    }

    /// The columns bound to variable `var` (usually one).
    pub fn columns_of_var<'a>(&'a self, var: &'a str) -> impl Iterator<Item = &'a str> + 'a {
        self.args
            .iter()
            .filter(move |(_, v)| v == var)
            .map(|(c, _)| c.as_str())
    }

    /// Distinct variables of the atom, in first-occurrence order.
    pub fn vars(&self) -> Vec<&str> {
        let mut seen = Vec::new();
        for (_, v) in &self.args {
            if !seen.contains(&v.as_str()) {
                seen.push(v.as_str());
            }
        }
        seen
    }
}

/// Scalar expression over query variables, used inside aggregates
/// (e.g. `l_extendedprice * (1 - l_discount)`).
#[derive(Clone, Debug, PartialEq)]
pub enum ScalarExpr {
    /// A query variable.
    Var(String),
    /// A literal constant.
    Lit(Literal),
    /// Binary arithmetic.
    Binary(Box<ScalarExpr>, ArithOp, Box<ScalarExpr>),
}

/// Arithmetic operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ArithOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
}

impl fmt::Display for ArithOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ArithOp::Add => "+",
            ArithOp::Sub => "-",
            ArithOp::Mul => "*",
            ArithOp::Div => "/",
        })
    }
}

impl ScalarExpr {
    /// Variables referenced by the expression, in first-occurrence order.
    pub fn vars(&self) -> Vec<&str> {
        let mut out = Vec::new();
        self.collect_vars(&mut out);
        out
    }

    fn collect_vars<'a>(&'a self, out: &mut Vec<&'a str>) {
        match self {
            ScalarExpr::Var(v) => {
                if !out.contains(&v.as_str()) {
                    out.push(v);
                }
            }
            ScalarExpr::Lit(_) => {}
            ScalarExpr::Binary(l, _, r) => {
                l.collect_vars(out);
                r.collect_vars(out);
            }
        }
    }
}

impl fmt::Display for ScalarExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScalarExpr::Var(v) => f.write_str(v),
            ScalarExpr::Lit(l) => write!(f, "{l}"),
            ScalarExpr::Binary(l, op, r) => write!(f, "({l} {op} {r})"),
        }
    }
}

/// Aggregate functions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AggFunc {
    /// `SUM`
    Sum,
    /// `COUNT` (of non-null expression values; `COUNT(*)` counts rows)
    Count,
    /// `MIN`
    Min,
    /// `MAX`
    Max,
    /// `AVG`
    Avg,
}

impl fmt::Display for AggFunc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            AggFunc::Sum => "sum",
            AggFunc::Count => "count",
            AggFunc::Min => "min",
            AggFunc::Max => "max",
            AggFunc::Avg => "avg",
        })
    }
}

/// One output column of the query head.
#[derive(Clone, Debug, PartialEq)]
pub enum OutputItem {
    /// A plain variable (grouping column or projected attribute).
    Var {
        /// The query variable.
        var: String,
        /// Output column label.
        label: String,
    },
    /// An aggregate over a scalar expression (`None` expr ⇒ `COUNT(*)`).
    Aggregate {
        /// The aggregate function.
        func: AggFunc,
        /// Aggregated expression; `None` means `COUNT(*)`.
        expr: Option<ScalarExpr>,
        /// Output column label.
        label: String,
    },
}

impl OutputItem {
    /// Output column label.
    pub fn label(&self) -> &str {
        match self {
            OutputItem::Var { label, .. } | OutputItem::Aggregate { label, .. } => label,
        }
    }
}

/// Sort direction for `ORDER BY`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SortDir {
    /// Ascending.
    Asc,
    /// Descending.
    Desc,
}

/// A conjunctive query with the SQL residue needed to finish evaluation
/// (filters, aggregates, grouping, ordering).
///
/// `out(Q)` — [`ConjunctiveQuery::out_vars`] — contains every variable
/// appearing in the SELECT list (including inside aggregate expressions)
/// or in GROUP BY, per Section 2 of the paper.
#[derive(Clone, Debug)]
pub struct ConjunctiveQuery {
    /// Body atoms.
    pub atoms: Vec<Atom>,
    /// Output items in SELECT order.
    pub output: Vec<OutputItem>,
    /// Grouping variables (empty when the query has no GROUP BY).
    pub group_by: Vec<String>,
    /// `ORDER BY` keys: output label + direction.
    pub order_by: Vec<(String, SortDir)>,
    /// HAVING conjuncts: `(output label, op, constant)` applied after
    /// aggregation.
    pub having: Vec<(String, CmpOp, Literal)>,
    /// LIMIT row count applied after ordering, if any.
    pub limit: Option<usize>,
    /// Constant filters (conjunctive).
    pub filters: Vec<Filter>,
}

impl ConjunctiveQuery {
    /// `out(Q)`: all variables occurring in the head (SELECT and GROUP BY,
    /// including variables inside aggregate expressions), in
    /// first-occurrence order.
    pub fn out_vars(&self) -> Vec<String> {
        let mut out: Vec<String> = Vec::new();
        let mut push = |v: &str| {
            if !out.iter().any(|x| x == v) {
                out.push(v.to_string());
            }
        };
        for item in &self.output {
            match item {
                OutputItem::Var { var, .. } => push(var),
                OutputItem::Aggregate { expr, .. } => {
                    if let Some(e) = expr {
                        for v in e.vars() {
                            push(v);
                        }
                    }
                }
            }
        }
        for g in &self.group_by {
            push(g);
        }
        out
    }

    /// All distinct variables of the query, in first-occurrence order.
    pub fn all_vars(&self) -> Vec<String> {
        let mut out: Vec<String> = Vec::new();
        for atom in &self.atoms {
            for v in atom.vars() {
                if !out.iter().any(|x| x == v) {
                    out.push(v.to_string());
                }
            }
        }
        out
    }

    /// True if the query has aggregate outputs.
    pub fn has_aggregates(&self) -> bool {
        self.output
            .iter()
            .any(|o| matches!(o, OutputItem::Aggregate { .. }))
    }

    /// Filters attached to atom `a`.
    pub fn filters_of(&self, a: AtomId) -> impl Iterator<Item = &Filter> {
        self.filters.iter().filter(move |f| f.atom == a)
    }

    /// Atom ids in body order.
    pub fn atom_ids(&self) -> impl Iterator<Item = AtomId> {
        (0..self.atoms.len() as u32).map(AtomId)
    }

    /// The atom with the given id.
    pub fn atom(&self, a: AtomId) -> &Atom {
        &self.atoms[a.index()]
    }

    /// Builds the query hypergraph `H(Q)` and the variable interning map.
    ///
    /// One hyperedge per atom (atoms with identical variable sets stay
    /// distinct edges; this plays the role of the paper's "fresh
    /// distinguishing variable" trick without materializing the variable).
    pub fn hypergraph(&self) -> CqHypergraph {
        let mut b = Hypergraph::builder();
        // Intern variables in deterministic first-occurrence order.
        for v in self.all_vars() {
            b.var(&v);
        }
        for atom in &self.atoms {
            let vars: htqo_hypergraph::VarSet = atom.vars().iter().map(|v| b.var(v)).collect();
            b.edge_of(&atom.alias, vars);
        }
        let h = b.build();
        let var_of_name: HashMap<String, Var> = h
            .var_ids()
            .map(|v| (h.var_name(v).to_string(), v))
            .collect();
        let name = |v: &str| h.shared_var_name(var_of_name[v]).clone();
        let atom_vars = (self.atoms.iter())
            .map(|a| a.vars().into_iter().map(name).collect())
            .collect();
        CqHypergraph {
            hypergraph: h,
            var_of_name,
            atom_vars,
        }
    }
}

impl fmt::Display for ConjunctiveQuery {
    /// Renders the rule in the paper's notation:
    /// `ans(X, Y) ← r(X), s(X, Y)`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ans({})", self.out_vars().join(", "))?;
        write!(f, " <- ")?;
        let body: Vec<String> = self
            .atoms
            .iter()
            .map(|a| {
                let vars: Vec<&str> = a.vars();
                format!("{}({})", a.alias, vars.join(", "))
            })
            .collect();
        write!(f, "{}", body.join(" /\\ "))?;
        if !self.filters.is_empty() {
            let fs: Vec<String> = self
                .filters
                .iter()
                .map(|flt| {
                    format!(
                        "{}.{} {} {}",
                        self.atoms[flt.atom.index()].alias,
                        flt.column,
                        flt.op,
                        flt.value
                    )
                })
                .collect();
            write!(f, " [{}]", fs.join(", "))?;
        }
        Ok(())
    }
}

/// The hypergraph of a conjunctive query plus the name → [`Var`] map.
///
/// Edge `i` of the hypergraph corresponds to atom `AtomId(i)`.
#[derive(Clone, Debug)]
pub struct CqHypergraph {
    /// The hypergraph `H(Q)`.
    pub hypergraph: Hypergraph,
    /// Map from variable name to hypergraph variable id.
    pub var_of_name: HashMap<String, Var>,
    /// Per atom, its distinct variables in first-occurrence order — the
    /// column order of the atom's scan ([`Atom::vars`]) — as the
    /// hypergraph's shared names.
    pub atom_vars: Vec<Vec<Arc<str>>>,
}

impl CqHypergraph {
    /// The hypergraph variable for a query variable name.
    pub fn var(&self, name: &str) -> Option<Var> {
        self.var_of_name.get(name).copied()
    }

    /// `out(Q)` as a [`htqo_hypergraph::VarSet`].
    pub fn out_var_set(&self, q: &ConjunctiveQuery) -> htqo_hypergraph::VarSet {
        q.out_vars().iter().filter_map(|n| self.var(n)).collect()
    }

    /// The atom id corresponding to hypergraph edge `e`.
    pub fn atom_of_edge(&self, e: htqo_hypergraph::EdgeId) -> AtomId {
        AtomId(e.0)
    }
}

/// Convenience builder for hand-constructing conjunctive queries in tests,
/// examples and the synthetic workload generators.
#[derive(Default)]
pub struct CqBuilder {
    atoms: Vec<Atom>,
    output: Vec<OutputItem>,
    group_by: Vec<String>,
    order_by: Vec<(String, SortDir)>,
    having: Vec<(String, CmpOp, Literal)>,
    limit: Option<usize>,
    filters: Vec<Filter>,
}

impl CqBuilder {
    /// Starts an empty query.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an atom `alias = relation(col₁ → var₁, …)`.
    pub fn atom(mut self, relation: &str, alias: &str, args: &[(&str, &str)]) -> Self {
        self.atoms.push(Atom {
            relation: relation.to_string(),
            alias: alias.to_string(),
            args: args
                .iter()
                .map(|(c, v)| (c.to_string(), v.to_string()))
                .collect(),
        });
        self
    }

    /// Shorthand: atom whose columns are named after its variables.
    pub fn atom_vars(self, relation: &str, vars: &[&str]) -> Self {
        let args: Vec<(&str, &str)> = vars.iter().map(|v| (*v, *v)).collect();
        self.atom(relation, relation, &args)
    }

    /// Adds a plain output variable.
    pub fn out_var(mut self, var: &str) -> Self {
        self.output.push(OutputItem::Var {
            var: var.to_string(),
            label: var.to_string(),
        });
        self
    }

    /// Adds an aggregate output.
    pub fn out_agg(mut self, func: AggFunc, expr: Option<ScalarExpr>, label: &str) -> Self {
        self.output.push(OutputItem::Aggregate {
            func,
            expr,
            label: label.to_string(),
        });
        self
    }

    /// Adds a GROUP BY variable.
    pub fn group(mut self, var: &str) -> Self {
        self.group_by.push(var.to_string());
        self
    }

    /// Adds an ORDER BY key.
    pub fn order(mut self, label: &str, dir: SortDir) -> Self {
        self.order_by.push((label.to_string(), dir));
        self
    }

    /// Adds a HAVING conjunct on an output label.
    pub fn having(mut self, label: &str, op: CmpOp, value: Literal) -> Self {
        self.having.push((label.to_string(), op, value));
        self
    }

    /// Sets a LIMIT.
    pub fn limit(mut self, n: usize) -> Self {
        self.limit = Some(n);
        self
    }

    /// Adds a constant filter on atom `atom_index`.
    pub fn filter(mut self, atom_index: usize, column: &str, op: CmpOp, value: Literal) -> Self {
        self.filters.push(Filter {
            atom: AtomId(atom_index as u32),
            column: column.to_string(),
            op,
            value,
        });
        self
    }

    /// Finalizes the query.
    ///
    /// # Panics
    /// Panics if atom aliases are not unique or a filter references a
    /// missing atom.
    pub fn build(self) -> ConjunctiveQuery {
        for i in 0..self.atoms.len() {
            for j in (i + 1)..self.atoms.len() {
                assert_ne!(
                    self.atoms[i].alias, self.atoms[j].alias,
                    "duplicate atom alias"
                );
            }
        }
        for f in &self.filters {
            assert!(f.atom.index() < self.atoms.len(), "filter on missing atom");
        }
        ConjunctiveQuery {
            atoms: self.atoms,
            output: self.output,
            group_by: self.group_by,
            order_by: self.order_by,
            having: self.having,
            limit: self.limit,
            filters: self.filters,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle_cq() -> ConjunctiveQuery {
        CqBuilder::new()
            .atom_vars("r", &["X", "Y"])
            .atom_vars("s", &["Y", "Z"])
            .atom_vars("t", &["Z", "X"])
            .out_var("X")
            .build()
    }

    #[test]
    fn out_vars_from_select_and_group_by() {
        let q = CqBuilder::new()
            .atom_vars("r", &["X", "Y"])
            .out_var("X")
            .out_agg(AggFunc::Sum, Some(ScalarExpr::Var("Y".into())), "total")
            .group("X")
            .build();
        assert_eq!(q.out_vars(), vec!["X".to_string(), "Y".to_string()]);
        assert!(q.has_aggregates());
    }

    #[test]
    fn hypergraph_one_edge_per_atom() {
        let q = triangle_cq();
        let ch = q.hypergraph();
        assert_eq!(ch.hypergraph.num_edges(), 3);
        assert_eq!(ch.hypergraph.num_vars(), 3);
        assert!(ch.var("X").is_some());
        assert!(ch.var("W").is_none());
        let out = ch.out_var_set(&q);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn duplicate_var_sets_stay_distinct_edges() {
        let q = CqBuilder::new()
            .atom("r", "r1", &[("a", "X"), ("b", "Y")])
            .atom("r", "r2", &[("a", "X"), ("b", "Y")])
            .out_var("X")
            .build();
        let ch = q.hypergraph();
        assert_eq!(ch.hypergraph.num_edges(), 2);
    }

    #[test]
    fn display_matches_paper_notation() {
        let q = triangle_cq();
        let s = format!("{q}");
        assert!(s.starts_with("ans(X) <- "), "got: {s}");
        assert!(s.contains("r(X, Y)"));
    }

    #[test]
    fn filters_attach_to_atoms() {
        let q = CqBuilder::new()
            .atom_vars("r", &["X"])
            .out_var("X")
            .filter(0, "X", CmpOp::Ge, Literal::Int(5))
            .build();
        assert_eq!(q.filters_of(AtomId(0)).count(), 1);
        assert_eq!(q.filters_of(AtomId(0)).next().unwrap().op, CmpOp::Ge);
    }

    #[test]
    #[should_panic(expected = "duplicate atom alias")]
    fn duplicate_aliases_rejected() {
        CqBuilder::new()
            .atom_vars("r", &["X"])
            .atom_vars("r", &["Y"])
            .build();
    }

    #[test]
    fn atom_column_variable_mappings() {
        let atom = Atom {
            relation: "orders".into(),
            alias: "o".into(),
            args: vec![
                ("o_orderkey".into(), "OrdKey".into()),
                ("o_custkey".into(), "CustKey".into()),
            ],
        };
        assert_eq!(atom.var_of_column("o_custkey"), Some("CustKey"));
        assert_eq!(atom.var_of_column("nope"), None);
        assert_eq!(
            atom.columns_of_var("OrdKey").collect::<Vec<_>>(),
            vec!["o_orderkey"]
        );
        assert_eq!(atom.vars(), vec!["OrdKey", "CustKey"]);
    }

    #[test]
    fn count_star_has_no_out_vars() {
        let q = CqBuilder::new()
            .atom_vars("r", &["X"])
            .out_agg(AggFunc::Count, None, "n")
            .build();
        assert!(q.out_vars().is_empty());
        assert!(q.has_aggregates());
    }
}

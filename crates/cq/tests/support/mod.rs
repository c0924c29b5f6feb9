//! Test support for the SQL front end: an AST printer and a seeded
//! generator of statements it can print.
//!
//! The printer writes the text the parser reads back into the same AST:
//! every binary expression in parentheses, `Ne` as `<>`, floats in Rust's
//! shortest round-trip form. Its domain is what the generator makes:
//! finite floats below 2^53 without an exponent, integers other than
//! `i64::MIN`, dates with four-digit years, and names that are not
//! `DATE`, `INTERVAL`, `DISTINCT` or reserved.

use htqo_cq::date::{days_from_civil, format_date};
use htqo_cq::sql::ast::*;
use htqo_cq::{AggFunc, ArithOp, CmpOp, Literal, SortDir};

/// SplitMix64: a case is expanded from one seed, so a failure report
/// names everything needed to replay it.
pub struct Rng(pub u64);

impl Rng {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    pub fn chance(&mut self, percent: usize) -> bool {
        self.below(100) < percent
    }

    pub fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.below(items.len())]
    }
}

/// Case count: `HTQO_CHAOS_CASES`, else `default`.
pub fn cases(default: u64) -> u64 {
    std::env::var("HTQO_CHAOS_CASES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

/// Names the generator draws from: words that are keywords elsewhere in
/// the grammar (`sum`, `in`, `not`, `day`) included.
const NAMES: [&str; 11] = [
    "a",
    "b",
    "c_1",
    "_x",
    "Name",
    "sum",
    "count",
    "in",
    "not",
    "day",
    "l_orderkey",
];

const STRING_PIECES: [&str; 10] = ["a", "'", "''", "é", "日本", " ", "--", "ß", "\\", "Z9"];

fn name(g: &mut Rng) -> String {
    g.pick(&NAMES).to_string()
}

fn column(g: &mut Rng) -> ColumnRef {
    ColumnRef {
        qualifier: g.chance(40).then(|| name(g)),
        column: name(g),
    }
}

fn literal(g: &mut Rng) -> Literal {
    match g.below(4) {
        0 => Literal::Int(match g.below(8) {
            0 => i64::MAX,
            1 => -i64::MAX,
            _ => g.below(2_001) as i64 - 1_000,
        }),
        1 => Literal::Float((g.below(80_001) as f64 - 40_000.0) / 8.0),
        2 => Literal::Str((0..g.below(5)).map(|_| g.pick(&STRING_PIECES)).collect()),
        _ => {
            let (first, last) = (days_from_civil(1000, 1, 1), days_from_civil(9999, 12, 31));
            Literal::Date(first + g.below((last - first) as usize) as i32)
        }
    }
}

fn expr(g: &mut Rng, depth: usize) -> SqlExpr {
    if depth == 0 || g.chance(40) {
        return match g.chance(50) {
            true => SqlExpr::Col(column(g)),
            false => SqlExpr::Lit(literal(g)),
        };
    }
    let op = g.pick(&[ArithOp::Add, ArithOp::Sub, ArithOp::Mul, ArithOp::Div]);
    SqlExpr::Binary(
        Box::new(expr(g, depth - 1)),
        op,
        Box::new(expr(g, depth - 1)),
    )
}

fn cmp(g: &mut Rng) -> CmpOp {
    g.pick(&[
        CmpOp::Eq,
        CmpOp::Ne,
        CmpOp::Lt,
        CmpOp::Le,
        CmpOp::Gt,
        CmpOp::Ge,
    ])
}

fn some<T>(g: &mut Rng, max: usize, mut item: impl FnMut(&mut Rng) -> T) -> Vec<T> {
    (0..g.below(max + 1)).map(|_| item(g)).collect()
}

/// A statement with up to `subqueries` levels of `IN (SELECT …)` below it.
pub fn statement(g: &mut Rng, subqueries: usize) -> SelectStmt {
    let item = |g: &mut Rng| {
        let alias = g.chance(30).then(|| name(g));
        if g.chance(60) {
            return SelectItem::Expr {
                expr: expr(g, 3),
                alias,
            };
        }
        let func = g.pick(&[
            AggFunc::Sum,
            AggFunc::Count,
            AggFunc::Min,
            AggFunc::Max,
            AggFunc::Avg,
        ]);
        let star = func == AggFunc::Count && g.chance(50);
        SelectItem::Aggregate {
            func,
            expr: (!star).then(|| expr(g, 2)),
            alias,
        }
    };
    let predicate = |g: &mut Rng| {
        if subqueries > 0 && g.chance(25) {
            return Predicate::InSubquery {
                col: column(g),
                subquery: Box::new(statement(g, subqueries - 1)),
                negated: g.chance(50),
            };
        }
        Predicate::Cmp {
            left: expr(g, 2),
            op: cmp(g),
            right: expr(g, 2),
        }
    };
    let order = |g: &mut Rng| {
        let key = match g.chance(30) {
            true => OrderKey::Position(1 + g.below(9)),
            false => OrderKey::Name(name(g)),
        };
        (key, g.pick(&[SortDir::Asc, SortDir::Desc]))
    };
    let mut select = vec![item(g)];
    select.extend(some(g, 3, item));
    let mut from = vec![];
    for _ in 0..1 + g.below(3) {
        let table = name(g);
        let alias = g.chance(50).then(|| name(g));
        from.push(TableRef { table, alias });
    }
    SelectStmt {
        distinct: g.chance(30),
        select,
        from,
        predicates: some(g, 3, predicate),
        group_by: some(g, 2, column),
        having: some(g, 2, |g| (name(g), cmp(g), literal(g))),
        order_by: some(g, 2, order),
        limit: g.chance(30).then(|| g.pick(&[0, 1, 10, usize::MAX])),
    }
}

/// Prints `stmt` as SQL text the parser reads back into `stmt`; `g`
/// varies keyword case, spacing, optional words and how a date is
/// spelled (an interval off another date), never the AST.
pub fn print(stmt: &SelectStmt, g: &mut Rng) -> String {
    let mut p = Printer {
        g,
        out: String::new(),
    };
    p.stmt(stmt);
    if p.g.chance(20) {
        p.out.push(';');
    }
    p.out
}

struct Printer<'g> {
    g: &'g mut Rng,
    out: String,
}

impl Printer<'_> {
    /// A keyword in a random case, after a space or a comment.
    fn kw(&mut self, kw: &str) {
        self.gap();
        for c in kw.chars() {
            let upper = self.g.chance(50);
            self.out
                .push(if upper { c } else { c.to_ascii_lowercase() });
        }
    }

    fn word(&mut self, text: &str) {
        self.gap();
        self.out.push_str(text);
    }

    fn gap(&mut self) {
        let gap = self.g.pick(&[" ", " ", " ", "\n", "\t ", " -- note ' é\n"]);
        self.out.push_str(gap);
    }

    fn list<T>(&mut self, items: &[T], sep: &str, mut each: impl FnMut(&mut Self, &T)) {
        for (i, item) in items.iter().enumerate() {
            if i > 0 {
                self.kw(sep);
            }
            each(self, item);
        }
    }

    fn stmt(&mut self, s: &SelectStmt) {
        self.kw("SELECT");
        if s.distinct {
            self.kw("DISTINCT");
        }
        self.list(&s.select, ",", Self::item);
        self.kw("FROM");
        self.list(&s.from, ",", |p, t| {
            p.word(&t.table);
            if let Some(alias) = &t.alias {
                if p.g.chance(50) {
                    p.kw("AS");
                }
                p.word(alias);
            }
        });
        if !s.predicates.is_empty() {
            self.kw("WHERE");
            self.list(&s.predicates, "AND", Self::predicate);
        }
        if !s.group_by.is_empty() {
            self.kw("GROUP BY");
            self.list(&s.group_by, ",", Self::column);
        }
        if !s.having.is_empty() {
            self.kw("HAVING");
            self.list(&s.having, "AND", |p, (label, op, value)| {
                p.word(label);
                p.word(op.sql());
                p.literal(value);
            });
        }
        if !s.order_by.is_empty() {
            self.kw("ORDER BY");
            self.list(&s.order_by, ",", |p, (key, dir)| {
                match key {
                    OrderKey::Name(n) => p.word(n),
                    OrderKey::Position(i) => p.word(&i.to_string()),
                }
                if *dir == SortDir::Desc {
                    p.kw("DESC");
                } else if p.g.chance(50) {
                    p.kw("ASC");
                }
            });
        }
        if let Some(n) = s.limit {
            self.kw("LIMIT");
            self.word(&n.to_string());
        }
    }

    fn item(&mut self, item: &SelectItem) {
        let alias = match item {
            SelectItem::Expr { expr, alias } => {
                self.expr(expr);
                alias
            }
            SelectItem::Aggregate { func, expr, alias } => {
                self.kw(agg_sql(*func));
                self.word("(");
                match expr {
                    Some(e) => self.expr(e),
                    None => self.word("*"),
                }
                self.word(")");
                alias
            }
        };
        if let Some(a) = alias {
            self.kw("AS");
            self.word(a);
        }
    }

    fn predicate(&mut self, pred: &Predicate) {
        match pred {
            Predicate::Cmp { left, op, right } => {
                self.expr(left);
                self.word(op.sql());
                self.expr(right);
            }
            Predicate::InSubquery {
                col,
                subquery,
                negated,
            } => {
                self.column(col);
                if *negated {
                    self.kw("NOT");
                }
                self.kw("IN");
                self.word("(");
                self.stmt(subquery);
                self.word(")");
            }
        }
    }

    fn column(&mut self, c: &ColumnRef) {
        match &c.qualifier {
            Some(q) => self.word(&format!("{q}.{}", c.column)),
            None => self.word(&c.column),
        }
    }

    fn expr(&mut self, e: &SqlExpr) {
        match e {
            SqlExpr::Col(c) => self.column(c),
            SqlExpr::Lit(l) => self.literal(l),
            SqlExpr::Binary(l, op, r) => {
                self.word("(");
                self.expr(l);
                self.word(&op.to_string());
                self.expr(r);
                self.word(")");
            }
        }
    }

    fn literal(&mut self, l: &Literal) {
        match l {
            Literal::Int(i) => self.word(&i.to_string()),
            Literal::Float(x) => self.word(&format!("{x:?}")),
            Literal::Str(s) => self.word(&format!("'{}'", s.replace('\'', "''"))),
            Literal::Date(d) if self.g.chance(30) => {
                // `(date 'd - n' + interval 'n' day)`, or `- interval '-n'`.
                let n = self.g.below(400) as i32;
                let sub = self.g.chance(50);
                self.word("(");
                self.kw("DATE");
                self.word(&format!("'{}'", format_date(d - n)));
                self.word(if sub { "-" } else { "+" });
                self.kw("INTERVAL");
                self.word(&format!("'{}'", if sub { -n } else { n }));
                self.kw("DAY");
                self.word(")");
            }
            Literal::Date(d) => {
                self.kw("DATE");
                self.word(&format!("'{}'", format_date(*d)));
            }
        }
    }
}

fn agg_sql(func: AggFunc) -> &'static str {
    match func {
        AggFunc::Sum => "SUM",
        AggFunc::Count => "COUNT",
        AggFunc::Min => "MIN",
        AggFunc::Max => "MAX",
        AggFunc::Avg => "AVG",
    }
}

//! Lexer and recursive-descent parser for the SQL subset (see
//! [`crate::sql::ast`]).
//!
//! The lexer cuts the text into words, numbers, strings and the symbols of
//! `SYMBOLS`; a token is its byte offset and its source text. The grammar
//! is written with a few combinators over the token list — `eat`/`expect`
//! for a keyword or symbol, `list(sep, rule)`, `parenthesised(rule)`,
//! `clause(keywords, sep, rule)` — and reads (keywords case-insensitive):
//!
//! ```text
//! stmt      := SELECT [DISTINCT] list(',', item) FROM list(',', table)
//!              [WHERE list(AND, pred)] [GROUP BY list(',', colref)]
//!              [HAVING list(AND, ident cmp expr)]
//!              [ORDER BY list(',', okey [ASC|DESC])] [LIMIT int] [';']
//! item      := agg [AS ident] | expr [AS ident]
//! agg       := (SUM|COUNT|MIN|MAX|AVG) parenthesised('*' | expr)
//! expr      := term (('+'|'-') (term | INTERVAL string (YEAR|MONTH|DAY)))*
//! term      := atom (('*'|'/') atom)*
//! atom      := int | float | string | DATE string | '-' atom
//!            | parenthesised(expr) | colref
//! pred      := expr cmp expr | colref [NOT] IN parenthesised(stmt)
//! table     := ident [[AS] ident]
//! colref    := ident ['.' ident]
//! okey      := int | ident
//! ```
//!
//! Date arithmetic (`date '1994-01-01' + interval '1' year`) is folded into
//! a plain [`Literal::Date`] at parse time; a date that does not exist or
//! an interval that leaves the `i32` day range is an error. Parentheses,
//! unary minus, subqueries and operator chains together nest at most
//! `MAX_DEPTH` (128) levels deep, so no statement is deep enough to exhaust
//! a thread's stack while it is parsed, dropped or translated.

use super::ast::*;
use crate::conjunctive::{AggFunc, ArithOp, CmpOp, Literal, SortDir};
use crate::date::{add_interval, parse_date, IntervalUnit};
use std::fmt;

/// How deeply parentheses, unary minus, subqueries and the operators of a
/// `+`/`*` chain may nest, counted together. The token that would go one
/// level deeper is refused.
const MAX_DEPTH: usize = 128;

/// Every symbol the lexer knows, two-character ones first.
const SYMBOLS: [&str; 16] = [
    "<>", "!=", "<=", ">=", "(", ")", ",", ".", ";", "*", "+", "-", "/", "=", "<", ">",
];

/// Words that never name a table, column or label.
const RESERVED: [&str; 12] = [
    "SELECT", "FROM", "WHERE", "GROUP", "ORDER", "BY", "AS", "AND", "ASC", "DESC", "HAVING",
    "LIMIT",
];

const AGGREGATES: [(&str, AggFunc); 5] = [
    ("SUM", AggFunc::Sum),
    ("COUNT", AggFunc::Count),
    ("MIN", AggFunc::Min),
    ("MAX", AggFunc::Max),
    ("AVG", AggFunc::Avg),
];

const COMPARISONS: [(&str, CmpOp); 7] = [
    ("=", CmpOp::Eq),
    ("<>", CmpOp::Ne),
    ("!=", CmpOp::Ne),
    ("<", CmpOp::Lt),
    ("<=", CmpOp::Le),
    (">", CmpOp::Gt),
    (">=", CmpOp::Ge),
];

const UNITS: [(&str, IntervalUnit); 3] = [
    ("YEAR", IntervalUnit::Year),
    ("MONTH", IntervalUnit::Month),
    ("DAY", IntervalUnit::Day),
];

/// A parse error with byte offset (when available).
#[derive(Clone, Debug, PartialEq)]
pub struct ParseError {
    /// Human-readable description.
    pub message: String,
    /// Byte offset in the input, when known.
    pub offset: Option<usize>,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.offset {
            Some(o) => write!(f, "parse error at byte {o}: {}", self.message),
            None => write!(f, "parse error: {}", self.message),
        }
    }
}

impl std::error::Error for ParseError {}

type Parsed<T> = Result<T, ParseError>;

/// A token: its byte offset and its source text. The first character
/// tells the kind: a letter or `_` starts a word, a digit a number, `'` a
/// string (quotes and `''` escapes kept); anything else is a symbol.
type Token<'a> = (usize, &'a str);

/// Parses a single SELECT statement.
pub fn parse_select(input: &str) -> Result<SelectStmt, ParseError> {
    let mut p = Parser {
        tokens: lex(input)?,
        pos: 0,
        depth: 0,
    };
    let stmt = p.stmt()?;
    p.eat(";");
    match p.peek() {
        Some(t) => Err(p.err(format!("unexpected trailing token `{t}`"))),
        None => Ok(stmt),
    }
}

/// Tokenizes `input`. SQL comments (`-- ...`) are skipped.
fn lex(input: &str) -> Parsed<Vec<Token<'_>>> {
    let error = |offset, message: String| ParseError {
        message,
        offset: Some(offset),
    };
    let mut tokens = Vec::new();
    let mut i = 0;
    while let Some(c) = input[i..].chars().next() {
        let rest = &input[i..];
        let len = match c {
            ' ' | '\t' | '\r' | '\n' => {
                i += 1;
                continue;
            }
            _ if rest.starts_with("--") => {
                i += rest.find('\n').unwrap_or(rest.len());
                continue;
            }
            '\'' => {
                quoted_len(rest).ok_or_else(|| error(i, "unterminated string literal".into()))?
            }
            '0'..='9' => {
                let int = span(rest, |c| c.is_ascii_digit());
                match rest[int..]
                    .strip_prefix('.')
                    .map(|f| span(f, |c| c.is_ascii_digit()))
                {
                    Some(frac) if frac > 0 => int + 1 + frac,
                    _ => int,
                }
            }
            _ if c.is_ascii_alphabetic() || c == '_' => {
                span(rest, |c| c.is_ascii_alphanumeric() || c == '_')
            }
            _ => (SYMBOLS.iter().find(|s| rest.starts_with(**s)))
                .ok_or_else(|| error(i, format!("unexpected character `{c}`")))?
                .len(),
        };
        tokens.push((i, &rest[..len]));
        i += len;
    }
    Ok(tokens)
}

/// The length of the prefix of `s` whose characters satisfy `f`.
fn span(s: &str, f: impl Fn(char) -> bool) -> usize {
    s.find(|c| !f(c)).unwrap_or(s.len())
}

/// The length of the string literal that starts `s`, both quotes included.
fn quoted_len(s: &str) -> Option<usize> {
    let mut end = 1;
    loop {
        end += s[end..].find('\'')? + 1;
        if !s[end..].starts_with('\'') {
            return Some(end);
        }
        end += 1; // `''` is a quote inside the string
    }
}

/// The text a string token spells, or `None` for any other token.
fn string(t: &str) -> Option<String> {
    let body = t.strip_prefix('\'')?;
    Some(body[..body.len() - 1].replace("''", "'"))
}

/// The literal a number or string token spells.
fn literal(t: &str) -> Option<Literal> {
    if !t.starts_with(|c: char| c.is_ascii_digit()) {
        return string(t).map(Literal::Str);
    }
    if t.contains('.') {
        t.parse().ok().map(Literal::Float)
    } else {
        t.parse().ok().map(Literal::Int)
    }
}

/// A word that may name a table, column or label.
fn is_name(t: &str) -> bool {
    t.starts_with(|c: char| c.is_ascii_alphabetic() || c == '_')
        && !RESERVED.iter().any(|r| t.eq_ignore_ascii_case(r))
}

/// The value `table` pairs with the keyword or symbol `t`.
fn lookup<T: Copy>(table: &[(&str, T)], t: &str) -> Option<T> {
    (table.iter().find(|(k, _)| t.eq_ignore_ascii_case(k))).map(|&(_, v)| v)
}

fn negate(e: SqlExpr) -> SqlExpr {
    match e {
        SqlExpr::Lit(Literal::Int(i)) => SqlExpr::Lit(Literal::Int(-i)),
        SqlExpr::Lit(Literal::Float(x)) => SqlExpr::Lit(Literal::Float(-x)),
        e => SqlExpr::Binary(
            Box::new(SqlExpr::Lit(Literal::Int(0))),
            ArithOp::Sub,
            Box::new(e),
        ),
    }
}

struct Parser<'a> {
    tokens: Vec<Token<'a>>,
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<&'a str> {
        self.tokens.get(self.pos).map(|t| t.1)
    }

    fn err_at(&self, pos: usize, message: String) -> ParseError {
        ParseError {
            message,
            offset: self.tokens.get(pos).map(|t| t.0),
        }
    }

    fn err(&self, message: String) -> ParseError {
        self.err_at(self.pos, message)
    }

    fn expected(&self, what: &str) -> ParseError {
        self.err(match self.peek() {
            Some(t) => format!("expected {what}, found `{t}`"),
            None => format!("expected {what} at the end of the input"),
        })
    }

    /// Is the next token the keyword (case-insensitive) or symbol `s`?
    fn at(&self, s: &str) -> bool {
        self.peek().is_some_and(|t| t.eq_ignore_ascii_case(s))
    }

    /// Consumes the keyword or symbol `s` if it is next.
    fn eat(&mut self, s: &str) -> bool {
        let hit = self.at(s);
        self.pos += usize::from(hit);
        hit
    }

    fn expect(&mut self, s: &str) -> Parsed<()> {
        if self.eat(s) {
            Ok(())
        } else {
            Err(self.expected(&format!("`{s}`")))
        }
    }

    /// Consumes the next token if `read` takes a value from it; otherwise
    /// an error at that token saying `what` was expected.
    fn take<T>(&mut self, what: &str, read: impl FnOnce(&'a str) -> Option<T>) -> Parsed<T> {
        match self.peek().and_then(read) {
            Some(v) => {
                self.pos += 1;
                Ok(v)
            }
            None => Err(self.expected(what)),
        }
    }

    /// `[keyword rule]`.
    fn opt<T>(&mut self, keyword: &str, rule: fn(&mut Self) -> Parsed<T>) -> Parsed<Option<T>> {
        if self.eat(keyword) {
            rule(self).map(Some)
        } else {
            Ok(None)
        }
    }

    /// `rule (sep rule)*`.
    fn list<T>(&mut self, sep: &str, rule: fn(&mut Self) -> Parsed<T>) -> Parsed<Vec<T>> {
        let mut items = vec![rule(self)?];
        while self.eat(sep) {
            items.push(rule(self)?);
        }
        Ok(items)
    }

    /// `[keywords list(sep, rule)]`: empty when the first keyword is not next.
    fn clause<T>(
        &mut self,
        keywords: &str,
        sep: &str,
        rule: fn(&mut Self) -> Parsed<T>,
    ) -> Parsed<Vec<T>> {
        let mut words = keywords.split(' ');
        if !words.next().is_some_and(|w| self.eat(w)) {
            return Ok(Vec::new());
        }
        for w in words {
            self.expect(w)?;
        }
        self.list(sep, rule)
    }

    /// Goes one nesting level deeper, refused at the current token past
    /// [`MAX_DEPTH`].
    fn deeper(&mut self) -> Parsed<()> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(format!("nested more than {MAX_DEPTH} levels deep")));
        }
        self.depth += 1;
        Ok(())
    }

    /// Runs `rule` one nesting level deeper.
    fn nested<T>(&mut self, rule: impl FnOnce(&mut Self) -> Parsed<T>) -> Parsed<T> {
        self.deeper()?;
        let v = rule(self);
        self.depth -= 1;
        v
    }

    /// `'(' rule ')'`, one nesting level deeper.
    fn parenthesised<T>(&mut self, rule: impl FnOnce(&mut Self) -> Parsed<T>) -> Parsed<T> {
        self.nested(|p| {
            p.expect("(")?;
            let v = rule(p)?;
            p.expect(")")?;
            Ok(v)
        })
    }

    fn stmt(&mut self) -> Parsed<SelectStmt> {
        self.expect("SELECT")?;
        Ok(SelectStmt {
            distinct: self.eat("DISTINCT"),
            select: self.list(",", Self::select_item)?,
            from: self
                .expect("FROM")
                .and_then(|()| self.list(",", Self::table_ref))?,
            predicates: self.clause("WHERE", "AND", Self::predicate)?,
            group_by: self.clause("GROUP BY", ",", Self::column_ref)?,
            having: self.clause("HAVING", "AND", Self::having)?,
            order_by: self.clause("ORDER BY", ",", Self::order_item)?,
            limit: self.opt("LIMIT", |p| {
                p.take("a non-negative integer after LIMIT", |t| t.parse().ok())
            })?,
        })
    }

    fn select_item(&mut self) -> Parsed<SelectItem> {
        let call = self.tokens.get(self.pos + 1).is_some_and(|t| t.1 == "(");
        let Some(func) = self
            .peek()
            .and_then(|t| lookup(&AGGREGATES, t))
            .filter(|_| call)
        else {
            let expr = self.expr()?;
            let alias = self.opt("AS", Self::ident)?;
            return Ok(SelectItem::Expr { expr, alias });
        };
        self.pos += 1;
        let expr = self.parenthesised(|p| match p.peek() {
            Some("*") if func != AggFunc::Count => Err(p.err("only COUNT may take `*`".into())),
            Some("*") => {
                p.pos += 1;
                Ok(None)
            }
            _ => p.expr().map(Some),
        })?;
        let alias = self.opt("AS", Self::ident)?;
        Ok(SelectItem::Aggregate { func, expr, alias })
    }

    fn table_ref(&mut self) -> Parsed<TableRef> {
        let table = self.ident()?;
        let bare_alias = self.peek().is_some_and(is_name);
        let alias = if self.eat("AS") || bare_alias {
            Some(self.ident()?)
        } else {
            None
        };
        Ok(TableRef { table, alias })
    }

    fn predicate(&mut self) -> Parsed<Predicate> {
        let start = self.pos;
        let left = self.expr()?;
        let negated = self.eat("NOT");
        if !negated && !self.at("IN") {
            let op = self.cmp_op()?;
            let right = self.expr()?;
            return Ok(Predicate::Cmp { left, op, right });
        }
        self.expect("IN")?;
        let SqlExpr::Col(col) = left else {
            return Err(self.err_at(start, "IN requires a column on its left".into()));
        };
        let subquery = Box::new(self.parenthesised(Self::stmt)?);
        Ok(Predicate::InSubquery {
            col,
            subquery,
            negated,
        })
    }

    fn having(&mut self) -> Parsed<(String, CmpOp, Literal)> {
        let (label, op, start) = (self.ident()?, self.cmp_op()?, self.pos);
        match self.expr()? {
            SqlExpr::Lit(value) => Ok((label, op, value)),
            other => Err(self.err_at(
                start,
                format!("HAVING compares a SELECT label with a constant, found {other:?}"),
            )),
        }
    }

    fn order_item(&mut self) -> Parsed<(OrderKey, SortDir)> {
        let key = self.take("an ORDER BY key", |t| match t.parse() {
            Ok(0) => None,
            Ok(n) => Some(OrderKey::Position(n)),
            Err(_) => is_name(t).then(|| OrderKey::Name(t.to_string())),
        })?;
        let dir = if self.eat("DESC") {
            SortDir::Desc
        } else {
            self.eat("ASC");
            SortDir::Asc
        };
        Ok((key, dir))
    }

    fn cmp_op(&mut self) -> Parsed<CmpOp> {
        self.take("a comparison operator", |t| lookup(&COMPARISONS, t))
    }

    fn expr(&mut self) -> Parsed<SqlExpr> {
        self.chain(&[("+", ArithOp::Add), ("-", ArithOp::Sub)], Self::term)
    }

    fn term(&mut self) -> Parsed<SqlExpr> {
        self.chain(&[("*", ArithOp::Mul), ("/", ArithOp::Div)], Self::atom)
    }

    /// `operand (op operand)*`, left-associative, over the operators `ops`.
    /// Each operator nests the expression so far one level deeper.
    fn chain(
        &mut self,
        ops: &[(&str, ArithOp)],
        operand: fn(&mut Self) -> Parsed<SqlExpr>,
    ) -> Parsed<SqlExpr> {
        let depth = self.depth;
        let mut left = operand(self)?;
        while let Some(op) = self.peek().and_then(|t| lookup(ops, t)) {
            self.deeper()?;
            self.pos += 1;
            left = match op {
                ArithOp::Add | ArithOp::Sub if self.at("INTERVAL") => self.shift(left, op)?,
                _ => SqlExpr::Binary(Box::new(left), op, Box::new(operand(self)?)),
            };
        }
        self.depth = depth;
        Ok(left)
    }

    /// Folds `± INTERVAL 'n' unit` (the sign read, `INTERVAL` next) into
    /// the date literal `left`.
    fn shift(&mut self, left: SqlExpr, op: ArithOp) -> Parsed<SqlExpr> {
        let SqlExpr::Lit(Literal::Date(date)) = left else {
            return Err(self.err("interval arithmetic requires a date literal".into()));
        };
        self.pos += 1;
        let count = self.pos;
        let n: i32 = self.take("a quoted count after INTERVAL", |t| {
            string(t)?.trim().parse().ok()
        })?;
        let unit = self.take("YEAR, MONTH or DAY", |t| lookup(&UNITS, t))?;
        let n = if op == ArithOp::Sub {
            n.checked_neg()
        } else {
            Some(n)
        };
        match n.and_then(|n| add_interval(date, n, unit)) {
            Some(d) => Ok(SqlExpr::Lit(Literal::Date(d))),
            None => Err(self.err_at(count, "the interval leaves the date range".into())),
        }
    }

    fn atom(&mut self) -> Parsed<SqlExpr> {
        match self.peek() {
            Some("(") => self.parenthesised(Self::expr),
            Some("-") => self.nested(|p| {
                p.pos += 1;
                p.atom().map(negate)
            }),
            Some(t) if t.eq_ignore_ascii_case("DATE") => {
                self.pos += 1;
                let days = self.take("a date 'YYYY-MM-DD' after DATE", |t| {
                    parse_date(&string(t)?)
                })?;
                Ok(SqlExpr::Lit(Literal::Date(days)))
            }
            Some(t) if is_name(t) => self.column_ref().map(SqlExpr::Col),
            _ => self.take("an expression", literal).map(SqlExpr::Lit),
        }
    }

    fn column_ref(&mut self) -> Parsed<ColumnRef> {
        let first = self.ident()?;
        Ok(match self.opt(".", Self::ident)? {
            Some(column) => ColumnRef {
                qualifier: Some(first),
                column,
            },
            None => ColumnRef {
                qualifier: None,
                column: first,
            },
        })
    }

    fn ident(&mut self) -> Parsed<String> {
        self.take("an identifier", |t| is_name(t).then(|| t.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn texts(input: &str) -> Vec<&str> {
        lex(input).unwrap().into_iter().map(|t| t.1).collect()
    }

    #[test]
    fn simple_select() {
        assert_eq!(texts("SELECT a FROM t;"), ["SELECT", "a", "FROM", "t", ";"]);
    }

    #[test]
    fn operators() {
        let ks = texts("a = b <> c <= d >= e < f > g != h");
        let ops: Vec<&str> = ks.into_iter().filter(|t| !is_name(t)).collect();
        assert_eq!(ops, ["=", "<>", "<=", ">=", "<", ">", "!="]);
        assert_eq!(lookup(&COMPARISONS, "!="), Some(CmpOp::Ne));
        assert_eq!(lookup(&COMPARISONS, "<>"), Some(CmpOp::Ne));
    }

    #[test]
    fn numbers() {
        assert_eq!(texts("42"), ["42"]);
        assert_eq!(literal("42"), Some(Literal::Int(42)));
        assert_eq!(texts("3.5"), ["3.5"]);
        assert_eq!(literal("3.5"), Some(Literal::Float(3.5)));
        // A dot not followed by a digit is a separate token.
        assert_eq!(texts("t.c"), ["t", ".", "c"]);
    }

    #[test]
    fn strings_with_escapes() {
        assert_eq!(texts("'abc'"), ["'abc'"]);
        assert_eq!(literal("'abc'"), Some(Literal::Str("abc".into())));
        assert_eq!(texts("'it''s'"), ["'it''s'"]);
        assert_eq!(literal("'it''s'"), Some(Literal::Str("it's".into())));
    }

    #[test]
    fn unterminated_string_is_an_error() {
        let err = lex("'oops").unwrap_err();
        assert!(err.message.contains("unterminated"));
        assert_eq!(err.offset, Some(0));
    }

    #[test]
    fn comments_skipped() {
        assert_eq!(texts("a -- comment here\n b").len(), 2);
    }

    #[test]
    fn arithmetic_and_parens() {
        let ks = texts("sum(x*(1-y))");
        assert!(ks.contains(&"*"));
        assert!(ks.contains(&"-"));
        assert_eq!(ks.iter().filter(|t| **t == "(").count(), 2);
    }

    #[test]
    fn unexpected_character() {
        let err = lex("a ? b").unwrap_err();
        assert!(err.message.contains('?'));
    }

    #[test]
    fn offsets_are_recorded() {
        let toks = lex("ab  cd").unwrap();
        assert_eq!(toks[0].0, 0);
        assert_eq!(toks[1].0, 4);
    }

    #[test]
    fn minimal_select() {
        let s = parse_select("SELECT a FROM t").unwrap();
        assert_eq!(s.select.len(), 1);
        assert_eq!(s.from.len(), 1);
        assert!(s.predicates.is_empty());
    }

    #[test]
    fn aliases_and_qualifiers() {
        let s = parse_select("SELECT o.x AS out1 FROM orders AS o, lineitem l").unwrap();
        assert_eq!(s.from[0].binding(), "o");
        assert_eq!(s.from[1].binding(), "l");
        match &s.select[0] {
            SelectItem::Expr {
                expr: SqlExpr::Col(c),
                alias,
            } => {
                assert_eq!(c.qualifier.as_deref(), Some("o"));
                assert_eq!(alias.as_deref(), Some("out1"));
            }
            other => panic!("unexpected item: {other:?}"),
        }
    }

    #[test]
    fn where_conjunction() {
        let s = parse_select("SELECT a FROM t, u WHERE t.a = u.b AND t.c >= 5").unwrap();
        assert_eq!(s.predicates.len(), 2);
        assert!(matches!(
            s.predicates[1],
            Predicate::Cmp { op: CmpOp::Ge, .. }
        ));
    }

    #[test]
    fn aggregates() {
        let s = parse_select(
            "SELECT n_name, sum(l_extendedprice * (1 - l_discount)) AS revenue, count(*) FROM t GROUP BY n_name",
        )
        .unwrap();
        assert_eq!(s.select.len(), 3);
        match &s.select[1] {
            SelectItem::Aggregate {
                func: AggFunc::Sum,
                expr: Some(_),
                alias,
            } => {
                assert_eq!(alias.as_deref(), Some("revenue"));
            }
            other => panic!("unexpected: {other:?}"),
        }
        match &s.select[2] {
            SelectItem::Aggregate {
                func: AggFunc::Count,
                expr: None,
                ..
            } => {}
            other => panic!("unexpected: {other:?}"),
        }
        assert_eq!(s.group_by.len(), 1);
    }

    #[test]
    fn count_star_only_for_count() {
        assert!(parse_select("SELECT sum(*) FROM t").is_err());
    }

    #[test]
    fn date_literals_and_interval_folding() {
        let s = parse_select(
            "SELECT a FROM t WHERE d >= date '1994-01-01' AND d < date '1994-01-01' + interval '1' year",
        )
        .unwrap();
        let Predicate::Cmp {
            right: SqlExpr::Lit(Literal::Date(d0)),
            ..
        } = &s.predicates[0]
        else {
            panic!("expected folded date");
        };
        let Predicate::Cmp {
            right: SqlExpr::Lit(Literal::Date(d1)),
            ..
        } = &s.predicates[1]
        else {
            panic!("expected folded date");
        };
        assert_eq!(*d1 - *d0, 365);
    }

    #[test]
    fn having_clause() {
        let s = parse_select(
            "SELECT a, count(*) AS n FROM t GROUP BY a HAVING n > 3 AND n <= 10 ORDER BY n",
        )
        .unwrap();
        assert_eq!(s.having.len(), 2);
        assert_eq!(s.having[0], ("n".to_string(), CmpOp::Gt, Literal::Int(3)));
        assert_eq!(s.having[1], ("n".to_string(), CmpOp::Le, Literal::Int(10)));
        // Non-constant right side rejected.
        assert!(parse_select("SELECT a FROM t HAVING a > b").is_err());
    }

    #[test]
    fn in_subquery_parses() {
        let s = parse_select("SELECT a FROM t WHERE a IN (SELECT b FROM u WHERE b > 2)").unwrap();
        assert!(matches!(
            &s.predicates[0],
            Predicate::InSubquery { negated: false, .. }
        ));
        let n = parse_select("SELECT a FROM t WHERE a NOT IN (SELECT b FROM u)").unwrap();
        assert!(matches!(
            &n.predicates[0],
            Predicate::InSubquery { negated: true, .. }
        ));
        // IN needs a column on the left.
        assert!(parse_select("SELECT a FROM t WHERE 3 IN (SELECT b FROM u)").is_err());
    }

    #[test]
    fn limit_clause() {
        let s = parse_select("SELECT a FROM t ORDER BY a LIMIT 5").unwrap();
        assert_eq!(s.limit, Some(5));
        assert_eq!(parse_select("SELECT a FROM t").unwrap().limit, None);
        assert!(parse_select("SELECT a FROM t LIMIT x").is_err());
    }

    #[test]
    fn order_by_variants() {
        let s = parse_select("SELECT a, b FROM t ORDER BY a DESC, 2, b ASC").unwrap();
        assert_eq!(s.order_by.len(), 3);
        assert_eq!(s.order_by[0], (OrderKey::Name("a".into()), SortDir::Desc));
        assert_eq!(s.order_by[1], (OrderKey::Position(2), SortDir::Asc));
    }

    #[test]
    fn tpch_q5_parses() {
        let q5 = "
            SELECT n_name, sum(l_extendedprice * (1 - l_discount)) AS revenue
            FROM customer, orders, lineitem, supplier, nation, region
            WHERE c_custkey = o_custkey
              AND l_orderkey = o_orderkey
              AND l_suppkey = s_suppkey
              AND c_nationkey = s_nationkey
              AND s_nationkey = n_nationkey
              AND n_regionkey = r_regionkey
              AND r_name = 'ASIA'
              AND o_orderdate >= date '1994-01-01'
              AND o_orderdate < date '1994-01-01' + interval '1' year
            GROUP BY n_name
            ORDER BY revenue DESC;
        ";
        let s = parse_select(q5).unwrap();
        assert_eq!(s.from.len(), 6);
        assert_eq!(s.predicates.len(), 9);
        assert_eq!(s.group_by.len(), 1);
        assert_eq!(s.order_by.len(), 1);
    }

    #[test]
    fn errors_carry_positions() {
        let err = parse_select("SELECT FROM t").unwrap_err();
        assert!(err.offset.is_some());
        let err2 = parse_select("SELECT a FROM t WHERE").unwrap_err();
        assert!(err2.message.contains("expected"));
        // The token after LIMIT, DATE and INTERVAL is the one refused.
        for (sql, at) in [
            ("SELECT a FROM t LIMIT x", "x"),
            ("SELECT a FROM t LIMIT -1", "-"),
            ("SELECT a FROM t WHERE d < date 1994", "1994"),
            (
                "SELECT a FROM t WHERE d < date '1994-02-31' AND b = 1",
                "'1994",
            ),
            (
                "SELECT a FROM t WHERE d < date '1994-01-01' + interval 1 day",
                "1 day",
            ),
            (
                "SELECT a FROM t WHERE d < date '1994-01-01' + interval 'x' day",
                "'x'",
            ),
            (
                "SELECT a FROM t WHERE d < date '1994-01-01' + interval '1' week",
                "week",
            ),
            (
                "SELECT a FROM t WHERE d < date '1994-01-01' + interval '2147483647' day",
                "'2147",
            ),
        ] {
            let err = parse_select(sql).unwrap_err();
            assert_eq!(err.offset, sql.find(at), "{sql}: {err}");
        }
        // Nothing follows LIMIT: there is no token to point at.
        assert_eq!(
            parse_select("SELECT a FROM t LIMIT").unwrap_err().offset,
            None
        );
    }

    /// ORDER BY goes before LIMIT, as the grammar says: the other order
    /// is refused at the `ORDER` token.
    #[test]
    fn order_by_after_limit_is_refused_at_order() {
        let sql = "SELECT a FROM t LIMIT 5 ORDER BY 1";
        let err = parse_select(sql).unwrap_err();
        assert_eq!(err.offset, sql.find("ORDER"), "{err}");
        let ok = parse_select("SELECT a FROM t ORDER BY 1 LIMIT 5").unwrap();
        assert_eq!((ok.order_by.len(), ok.limit), (1, Some(5)));
    }

    #[test]
    fn trailing_garbage_rejected() {
        assert!(parse_select("SELECT a FROM t ; garbage").is_err());
    }

    #[test]
    fn negative_literals() {
        let s = parse_select("SELECT a FROM t WHERE a > -5").unwrap();
        assert!(matches!(
            &s.predicates[0],
            Predicate::Cmp { right, .. } if *right == SqlExpr::Lit(Literal::Int(-5))
        ));
    }

    #[test]
    fn arithmetic_precedence() {
        let s = parse_select("SELECT a + b * c FROM t").unwrap();
        let SelectItem::Expr {
            expr: SqlExpr::Binary(_, ArithOp::Add, rhs),
            ..
        } = &s.select[0]
        else {
            panic!("expected top-level +");
        };
        assert!(matches!(**rhs, SqlExpr::Binary(_, ArithOp::Mul, _)));
    }

    #[test]
    fn interval_requires_date_literal() {
        assert!(parse_select("SELECT a FROM t WHERE a < b + interval '1' year").is_err());
    }

    #[test]
    fn distinct_is_recorded() {
        assert!(parse_select("SELECT DISTINCT a FROM t").unwrap().distinct);
        assert!(!parse_select("SELECT a FROM t").unwrap().distinct);
    }

    fn only_expr(sql: &str) -> SqlExpr {
        match parse_select(sql).unwrap().select.remove(0) {
            SelectItem::Expr { expr, .. } => expr,
            other => panic!("unexpected item: {other:?}"),
        }
    }

    #[test]
    fn string_literals_keep_their_utf8_text() {
        assert_eq!(
            only_expr("SELECT 'São' FROM t"),
            SqlExpr::Lit(Literal::Str("São".into()))
        );
        assert_eq!(
            only_expr("SELECT '日本 '' ß' FROM t"),
            SqlExpr::Lit(Literal::Str("日本 ' ß".into()))
        );
        let sql = "SELECT a FROM t WHERE é = 1";
        let err = parse_select(sql).unwrap_err();
        assert!(err.message.contains("`é`"), "{err}");
        assert_eq!(err.offset, sql.find('é'));
    }

    #[test]
    fn date_and_interval_literals_are_checked() {
        let where_ = |tail: &str| parse_select(&format!("SELECT a FROM t WHERE d < {tail}"));
        for bad in [
            "date '1994-02-31'",
            "date '2147483647-01-01'",
            "date '1994-01-01' + interval '2147483647' day",
            "date '1994-01-01' + interval '2147483647' year",
            "date '1994-01-01' + interval '2147483647' month",
            "date '1994-01-01' - interval '-2147483648' day",
            "date '1994-01-01' + interval '99999999999' day",
        ] {
            assert!(where_(bad).is_err(), "{bad}");
        }
        for (ok, days) in [
            ("date '1970-01-01' + interval '2147483647' day", i32::MAX),
            (
                "date '1970-01-02' - interval '2147483647' day",
                i32::MIN + 2,
            ),
            ("date '1994-01-01' - interval '-1' day", 8767),
        ] {
            let Predicate::Cmp { right, .. } = &where_(ok).unwrap().predicates[0] else {
                panic!("{ok}");
            };
            assert_eq!(*right, SqlExpr::Lit(Literal::Date(days)), "{ok}");
        }
        assert!(where_("date '1996-02-29'").is_ok());
    }

    #[test]
    fn nesting_stops_at_the_token_that_crosses_the_limit() {
        let at = |depth: usize, open: &str, close: &str| {
            format!(
                "SELECT a FROM t WHERE a = {}a{}",
                open.repeat(depth),
                close.repeat(depth)
            )
        };
        for (open, close) in [("(", ")"), ("- ", "")] {
            assert!(parse_select(&at(MAX_DEPTH, open, close)).is_ok());
            let sql = at(MAX_DEPTH + 1, open, close);
            let err = parse_select(&sql).unwrap_err();
            let crossing = "SELECT a FROM t WHERE a = ".len() + MAX_DEPTH * open.len();
            assert_eq!(err.offset, Some(crossing), "{err}");
            assert!(err.message.contains("nested"), "{err}");
        }
        let sub = |depth: usize| {
            let inner = "SELECT a FROM t WHERE a IN (".repeat(depth);
            format!("{inner}SELECT a FROM t{}", ")".repeat(depth))
        };
        assert!(parse_select(&sub(MAX_DEPTH)).is_ok());
        let err = parse_select(&sub(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(err.offset, Some(MAX_DEPTH * 28 + 27), "{err}");
        // An operator chain nests its left side one level per operator.
        let sum = |terms: usize| format!("SELECT a FROM t WHERE a = 1{}", " + 1".repeat(terms - 1));
        assert!(parse_select(&sum(MAX_DEPTH + 1)).is_ok());
        let err = parse_select(&sum(MAX_DEPTH + 2)).unwrap_err();
        assert_eq!(
            err.offset,
            Some("SELECT a FROM t WHERE a = 1".len() + 4 * MAX_DEPTH + 1)
        );
        // Parentheses, minus signs, subqueries and chains share one counter.
        let mixed = format!(
            "SELECT a FROM t WHERE a IN (SELECT a FROM t WHERE a = {}a)",
            "-(".repeat(MAX_DEPTH / 2)
        );
        assert!(parse_select(&mixed).is_err());
    }
}

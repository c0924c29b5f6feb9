//! Recursive-descent parser for the SQL subset (see [`crate::sql::ast`]).
//!
//! Grammar (keywords case-insensitive):
//!
//! ```text
//! stmt      := SELECT item (',' item)* FROM table (',' table)*
//!              [WHERE pred (AND pred)*]
//!              [GROUP BY colref (',' colref)*]
//!              [HAVING ident cmp literal (AND ident cmp literal)*]
//!              [ORDER BY okey [ASC|DESC] (',' okey [ASC|DESC])*]
//!              [LIMIT int] [';']
//! item      := agg | expr [AS ident]
//! agg       := (SUM|COUNT|MIN|MAX|AVG) '(' ('*' | expr) ')' [AS ident]
//! expr      := mul (('+'|'-') mul)*
//! mul       := atom (('*'|'/') atom)*
//! atom      := literal | colref | '(' expr ')'
//! literal   := int | float | string | DATE string [('+'|'-') INTERVAL string unit]
//! pred      := expr cmp expr
//! table     := ident [AS? ident]
//! colref    := ident ['.' ident]
//! okey      := int | ident
//! ```
//!
//! Date arithmetic (`date '1994-01-01' + interval '1' year`) is folded into
//! a plain [`Literal::Date`] at parse time.

use super::ast::*;
use super::lexer::{lex, LexError, Token, TokenKind};
use crate::conjunctive::{AggFunc, ArithOp, CmpOp, Literal, SortDir};
use crate::date::{add_interval, parse_date, IntervalUnit};
use std::fmt;

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

impl From<LexError> for ParseError {
    fn from(e: LexError) -> Self {
        ParseError {
            message: e.message,
            offset: Some(e.offset),
        }
    }
}

/// Parses a single SELECT statement.
pub fn parse_select(input: &str) -> Result<SelectStmt, ParseError> {
    let tokens = lex(input)?;
    let mut p = Parser { tokens, pos: 0 };
    let stmt = p.stmt()?;
    p.eat_kind(&TokenKind::Semi); // optional trailing semicolon
    if let Some(t) = p.peek() {
        return Err(p.err_at(format!("unexpected trailing token `{}`", t.kind)));
    }
    Ok(stmt)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn next(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn err_at(&self, message: String) -> ParseError {
        ParseError {
            message,
            offset: self.peek().map(|t| t.offset),
        }
    }

    /// Consumes the next token if it equals `kind`.
    fn eat_kind(&mut self, kind: &TokenKind) -> bool {
        if self.peek().map(|t| &t.kind) == Some(kind) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    /// Peeks: is the next token the given keyword (case-insensitive)?
    fn at_keyword(&self, kw: &str) -> bool {
        matches!(self.peek(), Some(Token { kind: TokenKind::Ident(s), .. }) if s.eq_ignore_ascii_case(kw))
    }

    /// Consumes the given keyword if present.
    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.at_keyword(kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    /// Requires the given keyword.
    fn expect_keyword(&mut self, kw: &str) -> Result<(), ParseError> {
        if self.eat_keyword(kw) {
            Ok(())
        } else {
            Err(self.err_at(format!("expected keyword `{kw}`")))
        }
    }

    /// Requires an identifier that is not a reserved keyword.
    fn expect_ident(&mut self) -> Result<String, ParseError> {
        match self.peek() {
            Some(Token {
                kind: TokenKind::Ident(s),
                ..
            }) if !is_reserved(s) => {
                let s = s.clone();
                self.pos += 1;
                Ok(s)
            }
            _ => Err(self.err_at("expected identifier".into())),
        }
    }

    fn expect_kind(&mut self, kind: &TokenKind) -> Result<(), ParseError> {
        if self.eat_kind(kind) {
            Ok(())
        } else {
            Err(self.err_at(format!("expected `{kind}`")))
        }
    }

    fn stmt(&mut self) -> Result<SelectStmt, ParseError> {
        self.expect_keyword("SELECT")?;
        // DISTINCT is accepted and ignored: conjunctive-query answers are
        // sets by definition (Section 2 of the paper), which is exactly
        // SELECT DISTINCT semantics. The view rewriter emits it for
        // portability to real DBMSs.
        self.eat_keyword("DISTINCT");
        let mut select = vec![self.select_item()?];
        while self.eat_kind(&TokenKind::Comma) {
            select.push(self.select_item()?);
        }
        self.expect_keyword("FROM")?;
        let mut from = vec![self.table_ref()?];
        while self.eat_kind(&TokenKind::Comma) {
            from.push(self.table_ref()?);
        }
        let mut predicates = Vec::new();
        if self.eat_keyword("WHERE") {
            predicates.push(self.predicate()?);
            while self.eat_keyword("AND") {
                predicates.push(self.predicate()?);
            }
        }
        let mut group_by = Vec::new();
        if self.eat_keyword("GROUP") {
            self.expect_keyword("BY")?;
            group_by.push(self.column_ref()?);
            while self.eat_kind(&TokenKind::Comma) {
                group_by.push(self.column_ref()?);
            }
        }
        let mut having = Vec::new();
        if self.eat_keyword("HAVING") {
            loop {
                let label = self.expect_ident()?;
                let op = self.cmp_op()?;
                let value = match self.expr()? {
                    SqlExpr::Lit(l) => l,
                    other => {
                        return Err(self.err_at(format!(
                            "HAVING compares a SELECT label with a constant, found {other:?}"
                        )))
                    }
                };
                having.push((label, op, value));
                if !self.eat_keyword("AND") {
                    break;
                }
            }
        }
        let mut order_by = Vec::new();
        if self.eat_keyword("ORDER") {
            self.expect_keyword("BY")?;
            loop {
                let key = self.order_key()?;
                let dir = if self.eat_keyword("DESC") {
                    SortDir::Desc
                } else {
                    self.eat_keyword("ASC");
                    SortDir::Asc
                };
                order_by.push((key, dir));
                if !self.eat_kind(&TokenKind::Comma) {
                    break;
                }
            }
        }
        let limit = if self.eat_keyword("LIMIT") {
            match self.next() {
                Some(Token {
                    kind: TokenKind::Int(n),
                    ..
                }) if n >= 0 => Some(n as usize),
                _ => return Err(self.err_at("expected a non-negative integer after LIMIT".into())),
            }
        } else {
            None
        };
        Ok(SelectStmt {
            select,
            from,
            predicates,
            group_by,
            having,
            order_by,
            limit,
        })
    }

    fn select_item(&mut self) -> Result<SelectItem, ParseError> {
        if let Some(func) = self.peek_agg_func() {
            self.pos += 1;
            self.expect_kind(&TokenKind::LParen)?;
            let expr = if self.eat_kind(&TokenKind::Star) {
                if func != AggFunc::Count {
                    return Err(self.err_at("only COUNT may take `*`".into()));
                }
                None
            } else {
                Some(self.expr()?)
            };
            self.expect_kind(&TokenKind::RParen)?;
            let alias = self.opt_alias()?;
            return Ok(SelectItem::Aggregate { func, expr, alias });
        }
        let expr = self.expr()?;
        let alias = self.opt_alias()?;
        Ok(SelectItem::Expr { expr, alias })
    }

    fn peek_agg_func(&self) -> Option<AggFunc> {
        // An aggregate is an agg keyword immediately followed by `(`.
        let Token {
            kind: TokenKind::Ident(s),
            ..
        } = self.peek()?
        else {
            return None;
        };
        if !matches!(
            self.tokens.get(self.pos + 1),
            Some(Token {
                kind: TokenKind::LParen,
                ..
            })
        ) {
            return None;
        }
        match s.to_ascii_uppercase().as_str() {
            "SUM" => Some(AggFunc::Sum),
            "COUNT" => Some(AggFunc::Count),
            "MIN" => Some(AggFunc::Min),
            "MAX" => Some(AggFunc::Max),
            "AVG" => Some(AggFunc::Avg),
            _ => None,
        }
    }

    fn opt_alias(&mut self) -> Result<Option<String>, ParseError> {
        if self.eat_keyword("AS") {
            return Ok(Some(self.expect_ident()?));
        }
        Ok(None)
    }

    fn table_ref(&mut self) -> Result<TableRef, ParseError> {
        let table = self.expect_ident()?;
        let has_bare_alias = matches!(
            self.peek(),
            Some(Token { kind: TokenKind::Ident(s), .. }) if !is_reserved(s)
        );
        let alias = if self.eat_keyword("AS") || has_bare_alias {
            Some(self.expect_ident()?)
        } else {
            None
        };
        Ok(TableRef { table, alias })
    }

    fn predicate(&mut self) -> Result<Predicate, ParseError> {
        let left = self.expr()?;
        // `col [NOT] IN (SELECT …)` — the nested-query extension.
        let negated = if self.at_keyword("NOT") {
            self.pos += 1;
            self.expect_keyword("IN")?;
            true
        } else if self.eat_keyword("IN") {
            false
        } else {
            let op = self.cmp_op()?;
            let right = self.expr()?;
            return Ok(Predicate::Cmp { left, op, right });
        };
        let SqlExpr::Col(col) = left else {
            return Err(self.err_at("IN requires a column on its left".into()));
        };
        self.expect_kind(&TokenKind::LParen)?;
        let subquery = Box::new(self.stmt()?);
        self.expect_kind(&TokenKind::RParen)?;
        Ok(Predicate::InSubquery {
            col,
            subquery,
            negated,
        })
    }

    fn cmp_op(&mut self) -> Result<CmpOp, ParseError> {
        let Some(t) = self.peek() else {
            return Err(self.err_at("expected comparison operator".into()));
        };
        let op = match t.kind {
            TokenKind::Eq => CmpOp::Eq,
            TokenKind::Ne => CmpOp::Ne,
            TokenKind::Lt => CmpOp::Lt,
            TokenKind::Le => CmpOp::Le,
            TokenKind::Gt => CmpOp::Gt,
            TokenKind::Ge => CmpOp::Ge,
            _ => {
                return Err(self.err_at(format!("expected comparison operator, found `{}`", t.kind)))
            }
        };
        self.pos += 1;
        Ok(op)
    }

    fn expr(&mut self) -> Result<SqlExpr, ParseError> {
        let mut left = self.mul_expr()?;
        loop {
            let op = if self.eat_kind(&TokenKind::Plus) {
                ArithOp::Add
            } else if self.eat_kind(&TokenKind::Minus) {
                ArithOp::Sub
            } else {
                break;
            };
            // `date '...' + interval ...` folding happens in `atom`, so a
            // bare `+ interval` here applies to an arbitrary date expression
            // only when the left side is a literal date.
            if self.at_keyword("INTERVAL") {
                let (n, unit) = self.interval()?;
                let n = if op == ArithOp::Sub { -n } else { n };
                match left {
                    SqlExpr::Lit(Literal::Date(d)) => {
                        left = SqlExpr::Lit(Literal::Date(add_interval(d, n, unit)));
                        continue;
                    }
                    _ => {
                        return Err(
                            self.err_at("interval arithmetic requires a date literal".into())
                        )
                    }
                }
            }
            let right = self.mul_expr()?;
            left = SqlExpr::Binary(Box::new(left), op, Box::new(right));
        }
        Ok(left)
    }

    fn mul_expr(&mut self) -> Result<SqlExpr, ParseError> {
        let mut left = self.atom()?;
        loop {
            let op = if self.eat_kind(&TokenKind::Star) {
                ArithOp::Mul
            } else if self.eat_kind(&TokenKind::Slash) {
                ArithOp::Div
            } else {
                break;
            };
            let right = self.atom()?;
            left = SqlExpr::Binary(Box::new(left), op, Box::new(right));
        }
        Ok(left)
    }

    fn atom(&mut self) -> Result<SqlExpr, ParseError> {
        match self.peek().map(|t| t.kind.clone()) {
            Some(TokenKind::Int(i)) => {
                self.pos += 1;
                Ok(SqlExpr::Lit(Literal::Int(i)))
            }
            Some(TokenKind::Float(x)) => {
                self.pos += 1;
                Ok(SqlExpr::Lit(Literal::Float(x)))
            }
            Some(TokenKind::Str(s)) => {
                self.pos += 1;
                Ok(SqlExpr::Lit(Literal::Str(s)))
            }
            Some(TokenKind::Minus) => {
                self.pos += 1;
                match self.atom()? {
                    SqlExpr::Lit(Literal::Int(i)) => Ok(SqlExpr::Lit(Literal::Int(-i))),
                    SqlExpr::Lit(Literal::Float(x)) => Ok(SqlExpr::Lit(Literal::Float(-x))),
                    e => Ok(SqlExpr::Binary(
                        Box::new(SqlExpr::Lit(Literal::Int(0))),
                        ArithOp::Sub,
                        Box::new(e),
                    )),
                }
            }
            Some(TokenKind::LParen) => {
                self.pos += 1;
                let e = self.expr()?;
                self.expect_kind(&TokenKind::RParen)?;
                Ok(e)
            }
            Some(TokenKind::Ident(s)) if s.eq_ignore_ascii_case("DATE") => {
                self.pos += 1;
                let Some(Token {
                    kind: TokenKind::Str(d),
                    ..
                }) = self.next()
                else {
                    return Err(self.err_at("expected string after DATE".into()));
                };
                let days = parse_date(&d)
                    .ok_or_else(|| self.err_at(format!("invalid date literal '{d}'")))?;
                Ok(SqlExpr::Lit(Literal::Date(days)))
            }
            Some(TokenKind::Ident(_)) => {
                let c = self.column_ref()?;
                Ok(SqlExpr::Col(c))
            }
            other => Err(self.err_at(format!("expected expression, found {other:?}"))),
        }
    }

    /// Parses `INTERVAL 'n' (YEAR|MONTH|DAY)` (the INTERVAL keyword is the
    /// current token).
    fn interval(&mut self) -> Result<(i32, IntervalUnit), ParseError> {
        self.expect_keyword("INTERVAL")?;
        let Some(Token {
            kind: TokenKind::Str(n),
            ..
        }) = self.next()
        else {
            return Err(self.err_at("expected quoted number after INTERVAL".into()));
        };
        let n: i32 = n
            .trim()
            .parse()
            .map_err(|_| self.err_at(format!("invalid interval count '{n}'")))?;
        let unit = if self.eat_keyword("YEAR") {
            IntervalUnit::Year
        } else if self.eat_keyword("MONTH") {
            IntervalUnit::Month
        } else if self.eat_keyword("DAY") {
            IntervalUnit::Day
        } else {
            return Err(self.err_at("expected YEAR, MONTH or DAY".into()));
        };
        Ok((n, unit))
    }

    fn column_ref(&mut self) -> Result<ColumnRef, ParseError> {
        let first = self.expect_ident()?;
        if self.eat_kind(&TokenKind::Dot) {
            let column = self.expect_ident()?;
            Ok(ColumnRef {
                qualifier: Some(first),
                column,
            })
        } else {
            Ok(ColumnRef {
                qualifier: None,
                column: first,
            })
        }
    }

    fn order_key(&mut self) -> Result<OrderKey, ParseError> {
        match self.peek().map(|t| t.kind.clone()) {
            Some(TokenKind::Int(i)) if i >= 1 => {
                self.pos += 1;
                Ok(OrderKey::Position(i as usize))
            }
            Some(TokenKind::Ident(_)) => Ok(OrderKey::Name(self.expect_ident()?)),
            _ => Err(self.err_at("expected ORDER BY key".into())),
        }
    }
}

fn is_reserved(s: &str) -> bool {
    matches!(
        s.to_ascii_uppercase().as_str(),
        "SELECT"
            | "FROM"
            | "WHERE"
            | "GROUP"
            | "ORDER"
            | "BY"
            | "AS"
            | "AND"
            | "ASC"
            | "DESC"
            | "HAVING"
            | "LIMIT"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

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
}

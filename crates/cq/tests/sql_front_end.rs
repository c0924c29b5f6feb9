//! Properties of the SQL front end (`htqo_cq::sql::parser`):
//!
//! - printing a generated AST and parsing the text gives the AST back;
//! - arbitrary text and mutations of printed statements parse to `Ok`
//!   or a `ParseError`, never a panic;
//! - 10,000 nested parentheses, minus signs, `IN` subqueries or `+`
//!   operators are a `ParseError` on a thread with a 2 MiB stack, not a
//!   stack overflow.
//!
//! Case count per property is `HTQO_CHAOS_CASES` (default 300).

mod support;

use htqo_cq::parse_select;
use std::panic::{catch_unwind, AssertUnwindSafe};
use support::{cases, print, statement, Rng};

#[test]
fn print_then_parse_is_the_identity() {
    for case in 0..cases(300) {
        let mut g = Rng(case);
        let stmt = statement(&mut g, 2);
        let text = print(&stmt, &mut g);
        match parse_select(&text) {
            Ok(parsed) => assert_eq!(parsed, stmt, "case {case}:\n{text}"),
            Err(e) => panic!("case {case}: {e}\n{text}"),
        }
    }
}

/// Pieces spliced into text: symbols, keywords, half literals, deep
/// openings, literals that overflow and characters outside ASCII.
const PIECES: [&str; 28] = [
    "(",
    ")",
    "'",
    "''",
    "-",
    "--",
    ",",
    ".",
    ";",
    "*",
    "/",
    "<>",
    "!",
    "=",
    " SELECT ",
    " FROM ",
    " WHERE ",
    " IN ",
    " NOT ",
    " AND ",
    "date '1994-02-31'",
    "interval '2147483647' year",
    "- interval '-2147483648' day",
    "99999999999999999999",
    "1.",
    "é",
    "日",
    "\u{0}",
];

fn parses_or_errs(text: &str, what: &str) {
    if catch_unwind(AssertUnwindSafe(|| parse_select(text))).is_err() {
        panic!("{what}: the parser panicked on {text:?}");
    }
}

#[test]
fn mutated_and_arbitrary_text_never_panics() {
    for case in 0..cases(300) {
        let mut g = Rng(case ^ 0x5EED);
        let printed = print(&statement(&mut g, 2), &mut g);
        let mut chars: Vec<char> = printed.chars().collect();
        for _ in 0..1 + g.below(4) {
            let at = g.below(chars.len() + 1);
            match g.below(4) {
                0 => {
                    let end = (at + g.below(8)).min(chars.len());
                    chars.drain(at..end);
                }
                1 => {
                    let piece = g.pick(&PIECES);
                    chars.splice(at..at, piece.chars());
                }
                2 => {
                    let end = (at + g.below(16)).min(chars.len());
                    let copy: Vec<char> = chars[at..end].to_vec();
                    chars.splice(at..at, copy);
                }
                _ => {
                    if at < chars.len() {
                        chars[at] = g.pick(&['(', '\'', 'é', '-', ' ', 'x', '0']);
                    }
                }
            }
        }
        let mutated: String = chars.into_iter().collect();
        parses_or_errs(&mutated, &format!("case {case}, mutated"));

        let arbitrary: String = (0..g.below(40)).map(|_| g.pick(&PIECES)).collect();
        parses_or_errs(&arbitrary, &format!("case {case}, arbitrary"));
    }
}

/// Runs `f` on a thread with a 2 MiB stack.
fn on_small_stack<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(f)
        .unwrap()
        .join()
        .unwrap()
}

#[test]
fn deep_nesting_is_a_parse_error_on_a_small_stack() {
    const DEPTH: usize = 10_000;
    let shapes = [
        (
            "parentheses",
            format!(
                "SELECT a FROM t WHERE a = {}1{}",
                "(".repeat(DEPTH),
                ")".repeat(DEPTH)
            ),
        ),
        (
            "minus signs",
            format!("SELECT a FROM t WHERE a = {}b", "- ".repeat(DEPTH)),
        ),
        (
            "IN subqueries",
            format!(
                "{}SELECT a FROM t{}",
                "SELECT a FROM t WHERE a IN (".repeat(DEPTH),
                ")".repeat(DEPTH)
            ),
        ),
        (
            "an operator chain",
            format!("SELECT a FROM t WHERE a = 1{}", " + 1".repeat(DEPTH)),
        ),
        (
            "all four",
            format!(
                "SELECT a FROM t WHERE a IN (SELECT a FROM t WHERE a = {}a)",
                "-(1 + ".repeat(DEPTH)
            ),
        ),
    ];
    for (name, sql) in shapes {
        let err = on_small_stack(move || parse_select(&sql).map(|_| ()));
        let err = err.expect_err(name);
        assert!(err.message.contains("nested"), "{name}: {err}");
        assert!(err.offset.is_some(), "{name}: {err}");
    }
}

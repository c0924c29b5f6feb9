//! SQL front end: AST and parser (lexer included) for the paper's SQL
//! subset.

pub mod ast;
pub mod parser;

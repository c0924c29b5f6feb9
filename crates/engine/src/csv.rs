//! CSV import/export for base relations — the engine's data in/out path
//! (used by the CLI's `\import`/`\export` and handy for loading external
//! datasets into the reproduction).
//!
//! Format: RFC-4180-style quoting; the first line is a header of
//! `name:type` pairs with `type ∈ {int, float, str, date}`; dates are
//! `YYYY-MM-DD`; empty unquoted fields are NULL.

use crate::dict;
use crate::error::{Budget, EvalError};
use crate::relation::Relation;
use crate::schema::{ColumnType, Schema};
use crate::value::{row_heap_bytes, Value};
use htqo_cq::date::{format_date, parse_date};
use std::fmt;
use std::io::{BufRead, BufReader, Read, Write};

/// CSV errors with line (and, where known, column) positions.
#[derive(Debug)]
pub enum CsvError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Structural problem (header, quoting, arity, cell parse) at a
    /// 1-based line.
    Format {
        /// 1-based line number.
        line: usize,
        /// 1-based field position within the line, when the problem is
        /// attributable to one field (cell parse errors, bad header
        /// fields, quoting errors). `None` for whole-line problems such
        /// as an arity mismatch.
        column: Option<usize>,
        /// Explanation.
        message: String,
    },
    /// The import exceeded its memory budget (see
    /// [`read_csv_budgeted`]); carries the underlying
    /// [`EvalError::MemoryExceeded`].
    Budget(EvalError),
}

impl fmt::Display for CsvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CsvError::Io(e) => write!(f, "io error: {e}"),
            CsvError::Format {
                line,
                column: Some(column),
                message,
            } => write!(f, "line {line}, column {column}: {message}"),
            CsvError::Format {
                line,
                column: None,
                message,
            } => write!(f, "line {line}: {message}"),
            CsvError::Budget(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CsvError {}

impl From<std::io::Error> for CsvError {
    fn from(e: std::io::Error) -> Self {
        CsvError::Io(e)
    }
}

/// Writes `rel` as CSV (typed header + one line per row).
pub fn write_csv(rel: &Relation, w: &mut impl Write) -> Result<(), CsvError> {
    let header: Vec<String> = rel
        .schema()
        .columns()
        .iter()
        .map(|c| format!("{}:{}", c.name, type_tag(c.ty)))
        .collect();
    writeln!(w, "{}", header.join(","))?;
    for row in rel.iter_rows() {
        let cells: Vec<String> = row.iter().map(render_cell).collect();
        writeln!(w, "{}", cells.join(","))?;
    }
    Ok(())
}

/// Reads a relation from CSV produced by [`write_csv`] (or hand-authored
/// with the same header convention). Unbudgeted: loads of any size
/// succeed (subject to the machine's actual memory).
pub fn read_csv(r: impl Read) -> Result<Relation, CsvError> {
    read_csv_budgeted(r, &mut Budget::unlimited())
}

/// Reads a relation from CSV, charging `budget` for each materialized
/// row and for string-dictionary growth caused by the import. A denied
/// charge surfaces as [`CsvError::Budget`] wrapping
/// [`EvalError::MemoryExceeded`].
pub fn read_csv_budgeted(r: impl Read, budget: &mut Budget) -> Result<Relation, CsvError> {
    let dict_before = dict::resident_bytes();
    let mut reader = BufReader::new(r);
    let mut header = String::new();
    if reader.read_line(&mut header)? == 0 {
        return Err(CsvError::Format {
            line: 1,
            column: None,
            message: "empty input".into(),
        });
    }
    let mut schema = Schema::default();
    for (ci, field) in split_line(header.trim_end_matches(['\r', '\n']), 1)?
        .iter()
        .enumerate()
    {
        let (name, ty) = field.text.rsplit_once(':').ok_or(CsvError::Format {
            line: 1,
            column: Some(ci + 1),
            message: format!("header field `{}` is not name:type", field.text),
        })?;
        let ty = match ty {
            "int" => ColumnType::Int,
            "float" => ColumnType::Float,
            "str" => ColumnType::Str,
            "date" => ColumnType::Date,
            other => {
                return Err(CsvError::Format {
                    line: 1,
                    column: Some(ci + 1),
                    message: format!("unknown type `{other}`"),
                })
            }
        };
        schema.push(name, ty);
    }
    let arity = schema.arity();
    let types: Vec<ColumnType> = schema.columns().iter().map(|c| c.ty).collect();
    let mut rel = Relation::new(schema);

    let row_bytes = row_heap_bytes(arity);
    // One reused line buffer for the whole file (`lines()` would allocate
    // a fresh `String` per row).
    let mut buf = String::new();
    let mut lineno = 1;
    loop {
        buf.clear();
        if reader.read_line(&mut buf)? == 0 {
            break;
        }
        lineno += 1;
        // Strip the terminator exactly as `lines()` does: one `\n`, plus
        // one `\r` before it if present.
        let line = buf.strip_suffix('\n').unwrap_or(&buf);
        let line = line.strip_suffix('\r').unwrap_or(line);
        if line.is_empty() {
            continue;
        }
        let fields = split_line(line, lineno)?;
        if fields.len() != arity {
            return Err(CsvError::Format {
                line: lineno,
                column: None,
                message: format!("expected {arity} fields, got {}", fields.len()),
            });
        }
        let mut row = Vec::with_capacity(arity);
        for (ci, (field, ty)) in fields.iter().zip(&types).enumerate() {
            row.push(parse_cell(field, *ty).map_err(|message| CsvError::Format {
                line: lineno,
                column: Some(ci + 1),
                message,
            })?);
        }
        budget.charge_bytes(row_bytes).map_err(CsvError::Budget)?;
        rel.push_row(row).map_err(|e| CsvError::Format {
            line: lineno,
            column: None,
            message: e.to_string(),
        })?;
    }
    // Strings interned during this load are resident for the process
    // lifetime; charge the dictionary's growth to the importing query.
    budget
        .charge_bytes(dict::resident_bytes().saturating_sub(dict_before))
        .map_err(CsvError::Budget)?;
    Ok(rel)
}

fn type_tag(ty: ColumnType) -> &'static str {
    match ty {
        ColumnType::Int => "int",
        ColumnType::Float => "float",
        ColumnType::Str => "str",
        ColumnType::Date => "date",
    }
}

fn render_cell(v: &Value) -> String {
    match v {
        Value::Null => String::new(),
        Value::Int(i) => i.to_string(),
        Value::Float(x) => format!("{x:?}"),
        Value::Date(d) => format_date(*d),
        Value::Str(s) => {
            if s.contains([',', '"', '\n']) || s.is_empty() {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        }
    }
}

/// A parsed field: raw text plus whether it was quoted (a quoted empty
/// field is an empty string; an unquoted empty field is NULL).
struct Field {
    text: String,
    quoted: bool,
}

impl std::ops::Deref for Field {
    type Target = str;
    fn deref(&self) -> &str {
        &self.text
    }
}

fn parse_cell(field: &Field, ty: ColumnType) -> Result<Value, String> {
    if field.text.is_empty() && !field.quoted {
        return Ok(Value::Null);
    }
    Ok(match ty {
        ColumnType::Int => Value::Int(
            field
                .text
                .parse()
                .map_err(|_| format!("bad int `{}`", field.text))?,
        ),
        ColumnType::Float => Value::Float(
            field
                .text
                .parse()
                .map_err(|_| format!("bad float `{}`", field.text))?,
        ),
        ColumnType::Date => Value::Date(
            parse_date(&field.text).ok_or_else(|| format!("bad date `{}`", field.text))?,
        ),
        ColumnType::Str => Value::str(&field.text),
    })
}

/// RFC-4180 field splitting with `""` escapes.
fn split_line(line: &str, lineno: usize) -> Result<Vec<Field>, CsvError> {
    let mut fields = Vec::new();
    let mut chars = line.chars().peekable();
    loop {
        let mut text = String::new();
        let mut quoted = false;
        if chars.peek() == Some(&'"') {
            quoted = true;
            chars.next();
            loop {
                match chars.next() {
                    Some('"') => {
                        if chars.peek() == Some(&'"') {
                            text.push('"');
                            chars.next();
                        } else {
                            break;
                        }
                    }
                    Some(c) => text.push(c),
                    None => {
                        return Err(CsvError::Format {
                            line: lineno,
                            column: Some(fields.len() + 1),
                            message: "unterminated quoted field".into(),
                        })
                    }
                }
            }
            match chars.next() {
                Some(',') => {
                    fields.push(Field { text, quoted });
                    continue;
                }
                None => {
                    fields.push(Field { text, quoted });
                    break;
                }
                Some(c) => {
                    return Err(CsvError::Format {
                        line: lineno,
                        column: Some(fields.len() + 1),
                        message: format!("unexpected `{c}` after closing quote"),
                    })
                }
            }
        }
        // Unquoted field.
        loop {
            match chars.next() {
                Some(',') => {
                    fields.push(Field { text, quoted });
                    break;
                }
                Some(c) => text.push(c),
                None => {
                    fields.push(Field { text, quoted });
                    return Ok(fields);
                }
            }
        }
    }
    Ok(fields)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;

    fn sample() -> Relation {
        let mut rel = Relation::new(Schema::new(&[
            ("id", ColumnType::Int),
            ("name", ColumnType::Str),
            ("price", ColumnType::Float),
            ("day", ColumnType::Date),
        ]));
        rel.extend_rows(vec![
            vec![
                Value::Int(1),
                Value::str("plain"),
                Value::Float(1.5),
                Value::Date(0),
            ],
            vec![
                Value::Int(2),
                Value::str("with, comma and \"quotes\""),
                Value::Float(-2.25),
                Value::Date(8766),
            ],
            vec![Value::Null, Value::str(""), Value::Null, Value::Null],
        ])
        .unwrap();
        rel
    }

    #[test]
    fn round_trip_preserves_everything() {
        let rel = sample();
        let mut buf = Vec::new();
        write_csv(&rel, &mut buf).unwrap();
        let back = read_csv(&buf[..]).unwrap();
        assert_eq!(back.schema(), rel.schema());
        assert_eq!(back.to_rows(), rel.to_rows());
    }

    #[test]
    fn header_declares_types() {
        let mut buf = Vec::new();
        write_csv(&sample(), &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.starts_with("id:int,name:str,price:float,day:date\n"));
        assert!(text.contains("1994-01-01"));
    }

    #[test]
    fn quoted_empty_is_string_unquoted_is_null() {
        let rel = read_csv("a:str,b:str\n\"\",\n".as_bytes()).unwrap();
        assert_eq!(rel.row(0)[0], Value::str(""));
        assert_eq!(rel.row(0)[1], Value::Null);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let err = read_csv("a:int\nxyz\n".as_bytes()).unwrap_err();
        assert!(matches!(err, CsvError::Format { line: 2, .. }), "{err}");
        let err = read_csv("a:int\n1,2\n".as_bytes()).unwrap_err();
        assert!(err.to_string().contains("expected 1 fields"));
        let err = read_csv("a:wat\n".as_bytes()).unwrap_err();
        assert!(err.to_string().contains("unknown type"));
        let err = read_csv("a:str\n\"open\n".as_bytes()).unwrap_err();
        assert!(err.to_string().contains("unterminated"));
    }

    #[test]
    fn errors_carry_column_positions() {
        // The bad cell is the second field of line 2.
        let err = read_csv("a:int,b:int\n1,xyz\n".as_bytes()).unwrap_err();
        assert!(
            matches!(
                err,
                CsvError::Format {
                    line: 2,
                    column: Some(2),
                    ..
                }
            ),
            "{err}"
        );
        assert!(err.to_string().contains("line 2, column 2"));
        // Bad header type in the second header field.
        let err = read_csv("a:int,b:wat\n".as_bytes()).unwrap_err();
        assert!(matches!(
            err,
            CsvError::Format {
                line: 1,
                column: Some(2),
                ..
            }
        ));
        // Unterminated quote in the third field.
        let err = read_csv("a:str,b:str,c:str\nx,y,\"open\n".as_bytes()).unwrap_err();
        assert!(matches!(
            err,
            CsvError::Format {
                line: 2,
                column: Some(3),
                ..
            }
        ));
        // Arity mismatches are whole-line problems: no column.
        let err = read_csv("a:int\n1,2\n".as_bytes()).unwrap_err();
        assert!(matches!(err, CsvError::Format { column: None, .. }));
    }

    /// A date that does not exist, or whose day number leaves `i32`, is a
    /// CSV error at its cell, not a date shifted into the next month or
    /// wrapped around.
    #[test]
    fn impossible_dates_are_format_errors() {
        for bad in ["1994-02-31", "1995-02-29", "2147483647-01-01"] {
            let text = format!("id:int,day:date\n1,1994-01-01\n2,{bad}\n");
            let err = read_csv(text.as_bytes()).unwrap_err();
            assert!(
                matches!(
                    err,
                    CsvError::Format {
                        line: 3,
                        column: Some(2),
                        ..
                    }
                ),
                "{bad}: {err}"
            );
            assert!(err.to_string().contains(bad), "{err}");
        }
    }

    #[test]
    fn blank_lines_are_skipped() {
        let rel = read_csv("a:int\n1\n\n2\n".as_bytes()).unwrap();
        assert_eq!(rel.len(), 2);
    }

    #[test]
    fn budgeted_import_charges_rows_and_dictionary_growth() {
        // A tiny limit trips on the dictionary growth of a fresh string.
        let mut tight = Budget::unlimited().with_mem_limit(64);
        let err = read_csv_budgeted(
            "a:str\ncsv-budget-test-unique-string\n".as_bytes(),
            &mut tight,
        )
        .unwrap_err();
        assert!(
            matches!(err, CsvError::Budget(EvalError::MemoryExceeded { .. })),
            "{err}"
        );
        // A roomy limit succeeds and records the bytes.
        let mut roomy = Budget::unlimited().with_mem_limit(1 << 20);
        let rel = read_csv_budgeted("a:int\n1\n2\n".as_bytes(), &mut roomy).unwrap();
        assert_eq!(rel.len(), 2);
        assert!(roomy.mem_used() > 0);
    }
}

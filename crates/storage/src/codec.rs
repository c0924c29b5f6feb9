//! Binary row codec for heap-page cells.
//!
//! Each cell is the concatenation of the row's values, every value a
//! one-byte tag followed by a fixed- or length-prefixed payload. The
//! encoding is self-describing (the tag disambiguates), so corruption is
//! detected on decode instead of silently reinterpreted. Strings are
//! stored as raw UTF-8 bytes and interned by the engine's dictionary at
//! load time; dictionary codes are a process-local detail and never reach
//! disk.
//!
//! Two decoders read the format: [`load_row`] pushes a cell's values
//! straight into a relation's typed columns (the reload path), and
//! [`decode_row`] boxes them into a `Vec<Value>` — the reference the tests
//! hold the loader to.

use htqo_engine::{ColumnType, EvalError, RowLoader, Value};
use std::sync::Arc;

const TAG_NULL: u8 = 0;
const TAG_INT: u8 = 1;
const TAG_FLOAT: u8 = 2;
const TAG_STR: u8 = 3;
const TAG_DATE: u8 = 4;

#[cold]
fn corrupt(what: &str) -> EvalError {
    EvalError::SpillIo(format!("heap page corruption: {what}"))
}

/// Appends the encoding of `v` to `out`.
pub fn encode_value(v: &Value, out: &mut Vec<u8>) {
    match v {
        Value::Null => out.push(TAG_NULL),
        Value::Int(i) => {
            out.push(TAG_INT);
            out.extend_from_slice(&i.to_le_bytes());
        }
        Value::Float(f) => {
            out.push(TAG_FLOAT);
            out.extend_from_slice(&f.to_bits().to_le_bytes());
        }
        Value::Str(s) => {
            out.push(TAG_STR);
            let b = s.as_bytes();
            out.extend_from_slice(&(b.len() as u32).to_le_bytes());
            out.extend_from_slice(b);
        }
        Value::Date(d) => {
            out.push(TAG_DATE);
            out.extend_from_slice(&d.to_le_bytes());
        }
    }
}

/// Encodes a whole row as one heap cell.
pub fn encode_row(row: &[Value]) -> Vec<u8> {
    let mut out = Vec::with_capacity(row.len() * 9);
    for v in row {
        encode_value(v, &mut out);
    }
    out
}

fn take<'a>(buf: &'a [u8], pos: &mut usize, n: usize) -> Result<&'a [u8], EvalError> {
    let end = pos
        .checked_add(n)
        .ok_or_else(|| corrupt("length overflow"))?;
    if end > buf.len() {
        return Err(corrupt("cell truncated"));
    }
    let s = &buf[*pos..end];
    *pos = end;
    Ok(s)
}

fn fixed<const N: usize>(buf: &[u8], pos: &mut usize) -> Result<[u8; N], EvalError> {
    Ok(take(buf, pos, N)?.try_into().expect("take returns N bytes"))
}

/// Decodes one value starting at `pos`, advancing it past the value.
pub fn decode_value(buf: &[u8], pos: &mut usize) -> Result<Value, EvalError> {
    let tag = take(buf, pos, 1)?[0];
    match tag {
        TAG_NULL => Ok(Value::Null),
        TAG_INT => Ok(Value::Int(i64::from_le_bytes(fixed(buf, pos)?))),
        TAG_FLOAT => {
            let bits = u64::from_le_bytes(fixed(buf, pos)?);
            Ok(Value::Float(f64::from_bits(bits)))
        }
        TAG_STR => {
            let len = u32::from_le_bytes(fixed(buf, pos)?) as usize;
            let bytes = take(buf, pos, len)?;
            let s = std::str::from_utf8(bytes).map_err(|_| corrupt("non-utf8 string"))?;
            Ok(Value::Str(Arc::from(s)))
        }
        TAG_DATE => Ok(Value::Date(i32::from_le_bytes(fixed(buf, pos)?))),
        t => Err(corrupt(&format!("unknown value tag {t}"))),
    }
}

/// Decodes a full row cell of known arity; the cell must be consumed
/// exactly.
pub fn decode_row(cell: &[u8], arity: usize) -> Result<Vec<Value>, EvalError> {
    let mut pos = 0;
    let mut row = Vec::with_capacity(arity);
    for _ in 0..arity {
        row.push(decode_value(cell, &mut pos)?);
    }
    if pos != cell.len() {
        return Err(corrupt("trailing bytes in row cell"));
    }
    Ok(row)
}

/// Decodes one row cell of `table` straight into `loader`'s columns: the
/// tag of each value is checked against its column's type (NULL is legal
/// everywhere) and the payload is pushed typed — strings interned from the
/// bytes in the page, no `Value` built. The cell must hold exactly one
/// value per column. Errors are those of [`decode_row`] followed by a
/// [`type_matches`] pass, in that order of precedence; a failed row leaves
/// nothing behind in the columns.
pub fn load_row(table: &str, cell: &[u8], loader: &mut RowLoader<'_>) -> Result<(), EvalError> {
    let res = push_cells(table, cell, loader);
    match res {
        Ok(()) => loader.end_row(),
        Err(_) => loader.abort_row(),
    }
    res
}

/// The next `N` bytes of `rest`, which moves past them.
#[inline]
fn chunk<'a, const N: usize>(rest: &mut &'a [u8]) -> Result<&'a [u8; N], EvalError> {
    let Some((head, tail)) = rest.split_first_chunk() else {
        return Err(corrupt("cell truncated"));
    };
    *rest = tail;
    Ok(head)
}

fn push_cells(table: &str, cell: &[u8], loader: &mut RowLoader<'_>) -> Result<(), EvalError> {
    let mut rest = cell;
    // First column holding a value of another type; reported only once
    // the whole cell has parsed, as the reference does.
    let mut mistyped = None;
    for col in 0..loader.schema().arity() {
        let Some((&tag, tail)) = rest.split_first() else {
            return Err(corrupt("cell truncated"));
        };
        rest = tail;
        let skip = mistyped.is_some();
        let pushed = match tag {
            TAG_NULL => {
                if !skip {
                    loader.push_null();
                }
                true
            }
            TAG_INT => {
                let x = i64::from_le_bytes(*chunk(&mut rest)?);
                skip || loader.push_int(x)
            }
            TAG_FLOAT => {
                let x = f64::from_bits(u64::from_le_bytes(*chunk(&mut rest)?));
                skip || loader.push_float(x)
            }
            TAG_STR => {
                let len = u32::from_le_bytes(*chunk(&mut rest)?) as usize;
                let Some((bytes, tail)) = rest.split_at_checked(len) else {
                    return Err(corrupt("cell truncated"));
                };
                rest = tail;
                let Ok(s) = std::str::from_utf8(bytes) else {
                    return Err(corrupt("non-utf8 string"));
                };
                skip || loader.push_str(s)
            }
            TAG_DATE => {
                let x = i32::from_le_bytes(*chunk(&mut rest)?);
                skip || loader.push_date(x)
            }
            t => return Err(corrupt(&format!("unknown value tag {t}"))),
        };
        if !pushed {
            mistyped = Some(col);
        }
    }
    if !rest.is_empty() {
        return Err(corrupt("trailing bytes in row cell"));
    }
    if let Some(col) = mistyped {
        return Err(EvalError::SpillIo(format!(
            "table {table}: column {} holds a value of the wrong type",
            loader.schema().columns()[col].name
        )));
    }
    Ok(())
}

/// True when a decoded value is legal for a column of type `ty`
/// (NULL is legal everywhere, mirroring the insert-time check).
pub fn type_matches(v: &Value, ty: ColumnType) -> bool {
    matches!(
        (v, ty),
        (Value::Null, _)
            | (Value::Int(_), ColumnType::Int)
            | (Value::Float(_), ColumnType::Float)
            | (Value::Str(_), ColumnType::Str)
            | (Value::Date(_), ColumnType::Date)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(row: Vec<Value>) {
        let cell = encode_row(&row);
        let back = decode_row(&cell, row.len()).unwrap();
        assert_eq!(row, back);
    }

    #[test]
    fn roundtrips_every_type() {
        roundtrip(vec![
            Value::Null,
            Value::Int(-42),
            Value::Int(i64::MAX),
            Value::Float(1.5),
            Value::Float(-0.0),
            Value::str("héllo, wörld"),
            Value::str(""),
            Value::Date(19876),
            Value::Date(-3),
        ]);
    }

    #[test]
    fn truncation_and_bad_tags_are_errors() {
        let cell = encode_row(&[Value::Int(7)]);
        assert!(decode_row(&cell[..cell.len() - 1], 1).is_err());
        assert!(decode_row(&[9], 1).is_err());
        // Trailing garbage is rejected too.
        let mut cell = encode_row(&[Value::Null]);
        cell.push(0);
        assert!(decode_row(&cell, 1).is_err());
    }

    #[test]
    fn load_row_pushes_typed_cells_or_nothing() {
        use htqo_engine::{Relation, Schema};
        let mut rel = Relation::new(Schema::new(&[
            ("i", ColumnType::Int),
            ("s", ColumnType::Str),
        ]));
        let mut loader = rel.loader();
        let good = encode_row(&[Value::Int(4), Value::str("codec-load")]);
        load_row("t", &good, &mut loader).unwrap();
        load_row("t", &encode_row(&[Value::Null, Value::Null]), &mut loader).unwrap();
        // Truncated, over-long, unknown tag, wrong type: each an error,
        // each leaving the columns as they were.
        assert!(load_row("t", &good[..good.len() - 1], &mut loader).is_err());
        assert!(load_row("t", &[&good[..], &[0]].concat(), &mut loader).is_err());
        assert!(load_row("t", &[TAG_INT, 0, 0, 0, 0, 0, 0, 0, 0, 9], &mut loader).is_err());
        let swapped = encode_row(&[Value::str("x"), Value::Int(1)]);
        let err = load_row("t", &swapped, &mut loader).unwrap_err();
        assert!(format!("{err}").contains("column i holds a value of the wrong type"));
        drop(loader);
        assert_eq!(
            rel.to_rows(),
            vec![
                vec![Value::Int(4), Value::str("codec-load")].into_boxed_slice(),
                vec![Value::Null, Value::Null].into_boxed_slice(),
            ]
        );
    }

    #[test]
    fn type_check_matches_schema_semantics() {
        assert!(type_matches(&Value::Null, ColumnType::Int));
        assert!(type_matches(&Value::Int(1), ColumnType::Int));
        assert!(!type_matches(&Value::Int(1), ColumnType::Float));
        assert!(!type_matches(&Value::str("x"), ColumnType::Date));
    }
}

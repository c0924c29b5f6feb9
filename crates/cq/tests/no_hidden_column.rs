//! A table exposes its stored columns and nothing else: a name that
//! looks like a hidden row-position column is an unknown column, not a
//! column every table answers to. This is the one file that spells such
//! a name; CI refuses it anywhere else.

use htqo_cq::{isolate, parse_select, IsolateError, IsolatorOptions, MapSchema};

#[test]
fn a_row_position_is_no_column() {
    let schema = MapSchema::new().table(
        "nation",
        &["n_nationkey", "n_name", "n_regionkey", "n_comment"],
    );
    let sql = "SELECT n.n_name FROM nation n WHERE n.__rowid = n.n_regionkey";
    let stmt = parse_select(sql).unwrap();
    assert_eq!(
        isolate(&stmt, &schema, IsolatorOptions::default()).unwrap_err(),
        IsolateError::UnknownColumn("n.__rowid".into())
    );
}

//! The library crates read no environment: every setting has one
//! programmatic route (a query's memory limit and spill directory on its
//! `Budget`, fail points through `failpoint::configure*`, the WAL policy
//! and checkpoint threshold through `StorageDb::open_with`), and the
//! binaries parse what their users set once, at start.
//!
//! Each `crates/*/src` file is read up to its first `#[cfg(test)]` — the
//! library code, as the line counts count it — and may not call
//! `env::var`, `env::var_os` or `env::vars`. The bench harness (a set of
//! binaries) and the `*-compat` stand-ins for external crates are exempt.

use std::path::{Path, PathBuf};

/// Every `.rs` file under `dir`, recursively.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("readable source directory") {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// The `env::var*` calls of `text` before its first `#[cfg(test)]`, as
/// `line: text`.
fn env_reads(text: &str) -> Vec<String> {
    (text.lines().enumerate())
        .take_while(|(_, line)| line.trim() != "#[cfg(test)]")
        .filter(|(_, line)| line.contains("env::var"))
        .map(|(i, line)| format!("{}: {}", i + 1, line.trim()))
        .collect()
}

#[test]
fn no_library_crate_reads_the_environment() {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
    let mut files = Vec::new();
    for entry in std::fs::read_dir(&crates).expect("crates/ is readable") {
        let dir = entry.expect("directory entry").path();
        let name = dir.file_name().unwrap().to_string_lossy().into_owned();
        if name == "bench" || name.ends_with("-compat") {
            continue;
        }
        rust_files(&dir.join("src"), &mut files);
    }
    assert!(files.len() > 50, "only {} library files found", files.len());
    let found: Vec<String> = (files.iter())
        .flat_map(|path| {
            let text = std::fs::read_to_string(path).expect("readable source file");
            let shown = path.strip_prefix(&crates).unwrap().display().to_string();
            env_reads(&text)
                .into_iter()
                .map(move |hit| format!("crates/{shown}:{hit}"))
        })
        .collect();
    assert!(
        found.is_empty(),
        "library code reads the environment:\n{}",
        found.join("\n")
    );
}

#[test]
fn the_scan_stops_at_the_tests() {
    let text =
        "fn a() {}\nlet x = std::env::var_os(\"X\");\n#[cfg(test)]\nmod t { std::env::vars(); }";
    assert_eq!(env_reads(text), ["2: let x = std::env::var_os(\"X\");"]);
    assert!(env_reads("#[cfg(test)]\nstd::env::var(\"X\")").is_empty());
}

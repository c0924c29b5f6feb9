//! Integration test for the interactive shell: drives the compiled `htqo`
//! binary through a scripted session and checks the visible behaviour.

use std::io::Write;
use std::process::{Command, Stdio};

/// Runs the shell on `script` with the `HTQO_*` variables `env` set (every
/// other `HTQO_*` variable removed): its exit code, stdout and stderr.
fn run_with_env(script: &str, env: &[(&str, &str)]) -> (Option<i32>, String, String) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_htqo"));
    for (name, _) in std::env::vars_os() {
        if name.to_string_lossy().starts_with("HTQO_") {
            cmd.env_remove(name);
        }
    }
    let mut child = cmd
        .envs(env.iter().copied())
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary spawns");
    // A shell that refuses its environment exits before reading stdin.
    let _ = child
        .stdin
        .as_mut()
        .expect("stdin piped")
        .write_all(script.as_bytes());
    let out = child.wait_with_output().expect("shell exits");
    let text = |b: Vec<u8>| String::from_utf8(b).expect("utf8 output");
    (out.status.code(), text(out.stdout), text(out.stderr))
}

fn run_script(script: &str) -> String {
    let (code, out, err) = run_with_env(script, &[]);
    assert_eq!(code, Some(0), "shell exited with {code:?}: {err}");
    out
}

#[test]
fn shell_runs_a_full_session() {
    let out = run_script(
        "\\help\n\
         \\load chain 4 50 8\n\
         \\analyze\n\
         \\tables\n\
         SELECT p0.l, count(*) AS n FROM p0, p1 WHERE p0.r = p1.l GROUP BY p0.l ORDER BY n DESC LIMIT 3;\n\
         \\plan SELECT p0.l FROM p0, p1, p2, p3 WHERE p0.r = p1.l AND p1.r = p2.l AND p2.r = p3.l AND p3.r = p0.l\n\
         \\quit\n",
    );
    assert!(out.contains("loaded 4 chain relations"), "{out}");
    assert!(out.contains("ANALYZE done"));
    assert!(out.contains("p0"));
    assert!(out.contains("l | n"));
    assert!(out.contains("3 rows"), "LIMIT applied: {out}");
    assert!(out.contains("q-hypertree decomposition"));
    assert!(out.contains("quantitative baseline"));
}

#[test]
fn shell_reports_errors_without_dying() {
    let out = run_script(
        "\\nosuchcommand\n\
         SELECT broken FROM nowhere;\n\
         \\load tpch abc\n\
         \\quit\n",
    );
    assert!(out.contains("unknown command"));
    assert!(out.contains("error:"));
    assert!(out.contains("bad scale factor"));
}

#[test]
fn shell_views_and_baseline() {
    let out = run_script(
        "\\load chain 3 30 5\n\
         \\views SELECT p0.l FROM p0, p1, p2 WHERE p0.r = p1.l AND p1.r = p2.l AND p2.r = p0.l\n\
         \\baseline SELECT p0.l FROM p0, p1 WHERE p0.r = p1.l\n\
         \\quit\n",
    );
    assert!(out.contains("CREATE VIEW hd_view_"), "{out}");
    assert!(out.contains("SELECT DISTINCT"));
    assert!(out.contains("rows"));
}

#[test]
fn shell_csv_round_trip() {
    let dir = std::env::temp_dir().join(format!("htqo_cli_test_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("p0.csv");
    let path_str = path.to_str().unwrap();
    let out = run_script(&format!(
        "\\load chain 2 10 4\n\
         \\export p0 {path_str}\n\
         \\import copy {path_str}\n\
         SELECT copy.l FROM copy LIMIT 1;\n\
         \\quit\n"
    ));
    assert!(out.contains("wrote 10 rows"), "{out}");
    assert!(out.contains("loaded 10 rows into `copy`"));
    assert!(out.contains("1 rows"));
    let _ = std::fs::remove_dir_all(dir);
}

/// A malformed setting is a usage error naming the variable: exit status
/// 2 before the shell reads anything.
#[test]
fn malformed_settings_exit_2_naming_the_variable() {
    for (name, value) in [
        ("HTQO_MEM_LIMIT", "12Q"),
        ("HTQO_FAILPOINTS", "nosuch=error"),
        ("HTQO_FAILPOINTS", "qeval::vertex"),
    ] {
        let (code, out, err) = run_with_env("\\quit\n", &[(name, value)]);
        assert_eq!(code, Some(2), "{name}={value}: {out}{err}");
        assert!(
            err.contains(name) && err.contains(&format!("'{value}'")),
            "{name}={value}: {err}"
        );
    }
}

/// `HTQO_MEM_LIMIT` reaches the query's budget: at 1 KiB a TPC-H join
/// fails with `MemoryExceeded`.
#[test]
fn the_memory_limit_reaches_the_budget() {
    let script = "\\load tpch 0.001\n\
         SELECT n_name, sum(l_extendedprice) AS r FROM customer, orders, lineitem, nation \
         WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey AND c_nationkey = n_nationkey \
         GROUP BY n_name\n\
         \\quit\n";
    let (code, out, err) = run_with_env(script, &[("HTQO_MEM_LIMIT", "1K")]);
    assert_eq!(code, Some(0), "{err}");
    assert!(
        out.contains("memory budget exceeded"),
        "no memory failure at 1 KiB: {out}"
    );
    let (_, unlimited, _) = run_with_env(script, &[("HTQO_MEM_LIMIT", "0")]);
    assert!(
        !unlimited.contains("memory budget exceeded") && unlimited.contains(" rows"),
        "0 is unlimited: {unlimited}"
    );
}

/// `HTQO_FAILPOINTS` arms its sites: `\baseline` runs the CommDB-style
/// optimizer, which has no fallback ladder, so an armed `cops::join`
/// fails the query. (A build without fail points refuses the variable
/// with exit status 2.)
#[cfg(feature = "failpoints")]
#[test]
fn fail_points_from_the_environment_are_armed() {
    let script = "\\load chain 3 30 5\n\
         \\baseline SELECT p0.l FROM p0, p1, p2 WHERE p0.r = p1.l AND p1.r = p2.l\n\
         \\quit\n";
    let (code, out, err) = run_with_env(script, &[("HTQO_FAILPOINTS", "cops::join=error")]);
    assert_eq!(code, Some(0), "{err}");
    assert!(
        out.contains("execution failed: internal error: injected failure at `cops::join`"),
        "{out}"
    );
    let (_, plain, _) = run_with_env(script, &[]);
    assert!(
        !plain.contains("execution failed") && plain.contains(" rows"),
        "{plain}"
    );
}

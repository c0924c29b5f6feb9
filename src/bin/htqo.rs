//! `htqo` — interactive shell for the hypertree-decomposition optimizer.
//!
//! A small REPL over the full pipeline: load TPC-H or synthetic data, run
//! SQL through the hybrid structural optimizer (and optionally the
//! CommDB-style baseline), inspect decompositions and SQL-view rewrites.
//!
//! ```text
//! cargo run --release --bin htqo
//! htqo> \load tpch 0.01
//! htqo> \analyze
//! htqo> \plan SELECT n_name, sum(l_extendedprice*(1-l_discount)) AS r
//!             FROM customer, orders, lineitem, supplier, nation, region
//!             WHERE ... GROUP BY n_name
//! htqo> SELECT ...;
//! ```
//!
//! Three environment variables are read once, at start: `HTQO_MEM_LIMIT`
//! (bytes, `K`/`M`/`G` suffixes, 0 = unlimited) and `HTQO_SPILL_DIR`
//! (where spill partitions live) go on every query's budget, and
//! `HTQO_FAILPOINTS` arms fail points
//! (`htqo_engine::failpoint::configure_from_spec`). A malformed value is
//! a usage error naming the variable: exit status 2.

use htqo::prelude::*;
use htqo_engine::exec::MemorySettings;
use htqo_optimizer::{explain_join_order, explain_qhd, flatten_subqueries};
use htqo_workloads::{workload_db, WorkloadSpec};
use std::io::{BufRead, Write};

struct Shell {
    db: Database,
    stats: Option<DbStats>,
    timing: bool,
    memory: MemorySettings,
}

impl Shell {
    /// An empty shell with the memory settings of the environment; arms
    /// the fail points `HTQO_FAILPOINTS` names.
    fn start() -> Result<Shell, String> {
        let var = std::env::var_os;
        let memory = MemorySettings::parse(
            var("HTQO_MEM_LIMIT").as_deref(),
            var("HTQO_SPILL_DIR").as_deref(),
        )?;
        if let Some(raw) = var("HTQO_FAILPOINTS") {
            let spec = raw.to_string_lossy();
            let armed = if !cfg!(feature = "failpoints") {
                Err("this build has no fail points (the `failpoints` feature is off)".into())
            } else if let Some(spec) = raw.to_str() {
                htqo_engine::failpoint::configure_from_spec(spec).map_err(|e| e.to_string())
            } else {
                Err("not UTF-8".into())
            };
            armed
                .map_err(|e: String| format!("invalid value '{spec}' for HTQO_FAILPOINTS: {e}"))?;
        }
        Ok(Shell {
            db: Database::new(),
            stats: None,
            timing: true,
            memory,
        })
    }
}

fn main() {
    let mut shell = Shell::start().unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });
    println!("htqo — hypertree decompositions for query optimization (ICDE'07 reproduction)");
    println!("type \\help for commands; end SQL with a newline");
    let stdin = std::io::stdin();
    let mut line = String::new();
    loop {
        print!("htqo> ");
        let _ = std::io::stdout().flush();
        line.clear();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break, // EOF
            Ok(_) => {}
            Err(e) => {
                eprintln!("read error: {e}");
                break;
            }
        }
        let input = line.trim();
        if input.is_empty() {
            continue;
        }
        if input == "\\quit" || input == "\\q" {
            break;
        }
        if let Err(msg) = shell.dispatch(input) {
            println!("error: {msg}");
        }
    }
}

impl Shell {
    fn dispatch(&mut self, input: &str) -> Result<(), String> {
        if let Some(rest) = input.strip_prefix('\\') {
            let mut parts = rest.split_whitespace();
            let cmd = parts.next().unwrap_or("");
            let args: Vec<&str> = parts.collect();
            return self.command(cmd, &args, rest);
        }
        self.run_sql(input)
    }

    fn command(&mut self, cmd: &str, args: &[&str], rest: &str) -> Result<(), String> {
        match cmd {
            "help" => {
                println!("\\load tpch <sf>          generate TPC-H at a scale factor");
                println!("\\load chain <n> <card> <sel>  synthetic chain workload");
                println!("\\analyze                 gather statistics (enables hybrid mode)");
                println!("\\tables                  list tables");
                println!("\\plan <sql>              show q-HD and baseline plans");
                println!("\\views <sql>             show the SQL-view rewriting");
                println!("\\baseline <sql>          run through the CommDB-style optimizer");
                println!("\\export <table> <path>   write a table as typed CSV");
                println!("\\import <table> <path>   load a typed CSV as a table");
                println!("\\timing on|off           toggle timing output");
                println!("\\quit                    exit");
                println!("<sql>                    run through the hybrid q-HD optimizer");
                Ok(())
            }
            "load" => match args {
                ["tpch", sf] => {
                    let scale: f64 = sf.parse().map_err(|_| "bad scale factor".to_string())?;
                    self.db = htqo_tpch::generate(&htqo_tpch::DbgenOptions {
                        scale,
                        seed: 19920701,
                    });
                    self.stats = None;
                    println!(
                        "loaded TPC-H at SF {scale} ({} tuples)",
                        self.db.total_tuples()
                    );
                    Ok(())
                }
                ["chain", n, card, sel] => {
                    let spec = WorkloadSpec::new(
                        n.parse().map_err(|_| "bad n")?,
                        card.parse().map_err(|_| "bad cardinality")?,
                        sel.parse().map_err(|_| "bad selectivity")?,
                        42,
                    );
                    self.db = workload_db(&spec);
                    self.stats = None;
                    println!("loaded {} chain relations", spec.relations);
                    Ok(())
                }
                _ => Err("usage: \\load tpch <sf> | \\load chain <n> <card> <sel>".into()),
            },
            "analyze" => {
                let t = std::time::Instant::now();
                self.stats = Some(htqo_stats::analyze(&self.db));
                println!("ANALYZE done in {:?}", t.elapsed());
                Ok(())
            }
            "tables" => {
                for (name, rel) in self.db.tables() {
                    println!("  {name:<12} {:>9} rows  {}", rel.len(), rel.schema());
                }
                Ok(())
            }
            "export" => match args {
                [table, path] => {
                    let rel = self
                        .db
                        .table(table)
                        .ok_or_else(|| format!("no table `{table}`"))?;
                    let mut f = std::fs::File::create(path).map_err(|e| e.to_string())?;
                    htqo_engine::write_csv(rel, &mut f).map_err(|e| e.to_string())?;
                    println!("wrote {} rows to {path}", rel.len());
                    Ok(())
                }
                _ => Err("usage: \\export <table> <path>".into()),
            },
            "import" => match args {
                [table, path] => {
                    let f = std::fs::File::open(path).map_err(|e| e.to_string())?;
                    let rel = htqo_engine::read_csv(f).map_err(|e| e.to_string())?;
                    println!("loaded {} rows into `{table}`", rel.len());
                    self.db.insert_table(table, rel);
                    self.stats = None; // stale after DDL
                    Ok(())
                }
                _ => Err("usage: \\import <table> <path>".into()),
            },
            "timing" => {
                self.timing = args.first() != Some(&"off");
                println!("timing {}", if self.timing { "on" } else { "off" });
                Ok(())
            }
            "plan" => {
                let sql = rest.strip_prefix("plan").unwrap_or("").trim();
                self.show_plan(sql)
            }
            "views" => {
                let sql = rest.strip_prefix("views").unwrap_or("").trim();
                self.show_views(sql)
            }
            "baseline" => {
                let sql = rest.strip_prefix("baseline").unwrap_or("").trim();
                let sim = DbmsSim::commdb(self.stats.clone());
                let out = sim
                    .execute_sql(&self.db, sql, self.memory.budget())
                    .map_err(|e| e.to_string())?;
                self.report(out);
                Ok(())
            }
            other => Err(format!("unknown command \\{other} (try \\help)")),
        }
    }

    fn isolated(&self, sql: &str) -> Result<(Database, ConjunctiveQuery), String> {
        let stmt = parse_select(sql).map_err(|e| e.to_string())?;
        let mut budget = self.memory.budget();
        let (db, stmt) =
            flatten_subqueries(&self.db, &stmt, &mut budget).map_err(|e| e.to_string())?;
        let q = isolate(&stmt, &db, IsolatorOptions::default()).map_err(|e| e.to_string())?;
        Ok((db, q))
    }

    fn optimizer(&self) -> HybridOptimizer {
        match &self.stats {
            Some(s) => HybridOptimizer::with_stats(QhdOptions::default(), s.clone()),
            None => HybridOptimizer::structural(QhdOptions::default()),
        }
    }

    fn show_plan(&self, sql: &str) -> Result<(), String> {
        let (db, q) = self.isolated(sql)?;
        let ch = q.hypergraph();
        println!(
            "hypergraph: {} vars / {} atoms, acyclic: {}",
            ch.hypergraph.num_vars(),
            ch.hypergraph.num_edges(),
            acyclic::is_acyclic(&ch.hypergraph)
        );
        let plan = self.optimizer().plan_cq(&q).map_err(|e| e.to_string())?;
        print!("{}", explain_qhd(&plan, &q, self.stats.as_ref()));
        if let Some(stats) = &self.stats {
            let order = htqo_optimizer::dp_join_order(&q, stats);
            println!("\nquantitative baseline (left-deep DP):");
            print!("{}", explain_join_order(&q, stats, &order));
        } else {
            println!("(run \\analyze for baseline estimates)");
        }
        let _ = db;
        Ok(())
    }

    fn show_views(&self, sql: &str) -> Result<(), String> {
        let (_db, q) = self.isolated(sql)?;
        let plan = self.optimizer().plan_cq(&q).map_err(|e| e.to_string())?;
        let views = htqo_optimizer::rewrite_to_views(&q, &plan, "hd_view");
        println!("{}", views.script());
        Ok(())
    }

    fn run_sql(&self, sql: &str) -> Result<(), String> {
        let out = self
            .optimizer()
            .execute_sql(&self.db, sql.trim_end_matches(';'), self.memory.budget())
            .map_err(|e| e.to_string())?;
        self.report(out);
        Ok(())
    }

    fn report(&self, out: QueryOutcome) {
        let timing = format!(
            " ({:?} planning, {:?} execution, {} tuples)",
            out.planning, out.execution, out.tuples
        );
        match out.result {
            Err(e) => println!("execution failed: {e}"),
            Ok(rel) => {
                println!("{}", rel.cols().join(" | "));
                for row in rel.rows().iter().take(50) {
                    let cells: Vec<String> = row.iter().map(|v| v.to_string()).collect();
                    println!("{}", cells.join(" | "));
                }
                if rel.len() > 50 {
                    println!("… {} more rows", rel.len() - 50);
                }
                print!("{} rows", rel.len());
                if self.timing {
                    print!("{timing}");
                }
                println!();
            }
        }
    }
}

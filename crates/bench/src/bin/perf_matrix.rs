//! Runs the performance-observatory counter matrix and writes a
//! schema-versioned `BENCH_<label>.json` report (see
//! [`asv_bench::perf`]).
//!
//! ```text
//! perf_matrix [--label L] [--out DIR]
//! ```
//!
//! The report holds deterministic work counters only and is consumed by
//! `perf_gate`. Wall time is measured by the repository benchmark
//! (`perfbench/`); the hot-span table is printed by `trace_report`.

use asv_bench::perf::run_matrix;
use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!("usage: perf_matrix [--label L] [--out DIR]");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut label = "local".to_string();
    let mut out_dir = PathBuf::from(".");

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--label" => match args.next() {
                Some(l) => label = l,
                None => return usage(),
            },
            "--out" => match args.next() {
                Some(d) => out_dir = PathBuf::from(d),
                None => return usage(),
            },
            _ => return usage(),
        }
    }
    if label.is_empty()
        || !label
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_')
    {
        eprintln!("perf_matrix: label must match [A-Za-z0-9_-]+, got `{label}`");
        return ExitCode::from(2);
    }

    eprintln!("[perf] matrix: label={label}");
    let report = run_matrix(&label);

    println!("== Perf matrix (counters) ==");
    println!(
        "{:<22} {:>12} {:>12} {:>12} {:>12}",
        "workload", "ops", "conflicts", "fuzz_rounds", "memo_hits"
    );
    for (name, c) in &report.workloads {
        println!(
            "{:<22} {:>12} {:>12} {:>12} {:>12}",
            name, c.ops, c.conflicts, c.fuzz_rounds, c.memo_hits
        );
    }

    let _ = std::fs::create_dir_all(&out_dir);
    let path = out_dir.join(format!("BENCH_{}.json", report.label));
    if let Err(e) = std::fs::write(&path, report.to_json()) {
        eprintln!("perf_matrix: cannot write {}: {e}", path.display());
        return ExitCode::from(2);
    }
    println!("\nwrote {}", path.display());
    ExitCode::SUCCESS
}

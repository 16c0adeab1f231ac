//! The counter regression gate: compares a current `BENCH_<label>.json`
//! against a baseline and exits nonzero with a readable delta table
//! when any counter drifted.
//!
//! ```text
//! perf_gate CURRENT.json BASELINE.json
//! ```
//!
//! Counters are gated on exact equality — they are deterministic, so
//! any drift is a real cost change or a determinism break. Both files
//! go through the same schema validator.
//!
//! Exit codes: 0 pass, 1 counter drift or a baseline workload missing,
//! 2 usage / I/O / malformed report.

use asv_bench::perf::{compare, BenchReport};
use std::process::ExitCode;

fn load(path: &str) -> Result<BenchReport, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    BenchReport::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [current_path, baseline_path] = args.as_slice() else {
        eprintln!("usage: perf_gate CURRENT.json BASELINE.json");
        return ExitCode::from(2);
    };
    let (current, baseline) = match (load(current_path), load(baseline_path)) {
        (Ok(current), Ok(baseline)) => (current, baseline),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("perf_gate: {e}");
            return ExitCode::from(2);
        }
    };

    println!(
        "perf_gate: {current_path} (label `{}`) vs baseline {baseline_path} (label `{}`)",
        current.label, baseline.label
    );
    let outcome = compare(&baseline, &current);
    print!("{}", outcome.table());
    if outcome.passed() {
        println!("PASS: counters identical");
        ExitCode::SUCCESS
    } else {
        println!("FAIL: counter regression (see table above)");
        ExitCode::FAILURE
    }
}

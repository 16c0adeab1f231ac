//! Observability demo & smoke test: runs a cache-cold mixed batch of 64
//! jobs through a **traced** [`VerifyService`] and prints everything the
//! trace layer produces:
//!
//! * a per-job provenance timeline (answer tier, ladder rungs tried, why
//!   each rung ended, wall time and engine-tagged resource costs),
//! * the service-level observability table (tier hit rates + per-engine
//!   rung counts from the metrics registry),
//! * the Prometheus text exposition of the same registry,
//! * a Chrome-tracing JSON export (`chrome://tracing` /
//!   <https://ui.perfetto.dev>) and a folded-stack profile (flamegraph
//!   input, inclusive/exclusive spans) written to `--out <dir>`
//!   (default `target/`), with a top-10 hot-span table on stdout.
//!
//! The run is also a differential check: the traced verdict vector must
//! be bit-identical to an untraced service's on the same batch, and a
//! warm re-submission must answer entirely from the memo tier with no
//! new rungs. Both are asserted, so CI enforces zero observer effect.
//!
//! Run with `cargo run --release -p asv-bench --bin trace_report`.

use asv_datagen::corpus::{Archetype, CorpusGen};
use asv_mutation::inject::{apply, enumerate};
use asv_serve::{AnswerTier, JobReport, ServeOptions, VerifyJob, VerifyService};
use asv_sva::bmc::{Engine, Verifier};
use asv_trace::{chrome_trace_json, Profile, Tracer};
use std::sync::Arc;

/// 64 jobs over golden + bug-injected designs of every archetype, mixing
/// engines so the timeline exercises every rung family: symbolic BMC,
/// exhaustive enumeration, coverage-guided fuzzing and random sampling.
fn mixed_batch() -> Vec<VerifyJob> {
    let designs = CorpusGen::new(0x0B5E7).generate(2 * Archetype::ALL.len());
    let mut pool: Vec<Arc<asv_verilog::Design>> = Vec::new();
    for gd in &designs {
        let golden = asv_verilog::compile(&gd.source).expect("golden compiles");
        if let Some(buggy) = enumerate(&golden).into_iter().find_map(|m| {
            let injection = apply(&golden, &m).ok()?;
            asv_verilog::compile(&injection.buggy_source).ok()
        }) {
            pool.push(Arc::new(buggy));
        }
        pool.push(Arc::new(golden));
    }
    let engines = [Engine::Auto, Engine::Simulation];
    (0..64)
        .map(|i| {
            let verifier = Verifier {
                depth: 8,
                reset_cycles: 2,
                exhaustive_limit: 256,
                random_runs: 24,
                engine: engines[i % engines.len()],
                ..Verifier::default()
            };
            VerifyJob::new(Arc::clone(&pool[i % pool.len()]), verifier)
        })
        .collect()
}

fn print_timeline(reports: &[JobReport]) {
    println!("== Per-job provenance (64-job mixed batch, cache-cold) ==");
    println!(
        "{:<5} {:<18} {:<8} {:>10}  rungs",
        "slot", "key", "tier", "wall"
    );
    for (i, r) in reports.iter().enumerate() {
        let rungs: Vec<String> = r
            .rungs
            .iter()
            .map(|rung| {
                let mut cell = format!("{}:{}", rung.engine.slug(), rung.end.label());
                let c = rung.cost;
                if c.conflicts > 0 {
                    cell.push_str(&format!(" cf={}", c.conflicts));
                }
                if c.rounds > 0 {
                    cell.push_str(&format!(" rd={}", c.rounds));
                }
                if c.stimuli > 0 {
                    cell.push_str(&format!(" st={}", c.stimuli));
                }
                if c.aig_nodes > 0 {
                    cell.push_str(&format!(" aig={}", c.aig_nodes));
                }
                cell
            })
            .collect();
        println!(
            "{:<5} {:016x}… {:<8} {:>8.2}ms  {}",
            i,
            (r.key.0 >> 64) as u64,
            r.tier.label(),
            r.wall_ns as f64 / 1e6,
            if rungs.is_empty() {
                "-".to_string()
            } else {
                rungs.join(" → ")
            }
        );
    }
}

/// Parses `--out <dir>` (default `target`).
fn out_dir() -> std::path::PathBuf {
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--out" {
            if let Some(dir) = args.next() {
                return std::path::PathBuf::from(dir);
            }
        }
    }
    std::path::PathBuf::from("target")
}

fn main() {
    let out = out_dir();
    let jobs = mixed_batch();

    // Baseline leg: an untraced service on the same cold batch.
    asv_serve::clear_design_cache();
    let plain = VerifyService::new(ServeOptions::default());
    let baseline = plain.verify_batch(&jobs);

    // Traced leg.
    asv_serve::clear_design_cache();
    let service = VerifyService::new(ServeOptions::default()).traced(Tracer::new());
    let (outcomes, reports, events) = service.verify_batch_traced(&jobs);

    assert_eq!(
        outcomes, baseline,
        "tracing must not change a single verdict"
    );
    assert_eq!(reports.len(), jobs.len(), "one report per submission slot");

    print_timeline(&reports);

    // Every owner slot that reached an engine must carry rung detail.
    let engine_slots = reports
        .iter()
        .filter(|r| r.tier == AnswerTier::Engine)
        .count();
    assert!(engine_slots > 0, "cache-cold batch must run engines");
    for r in &reports {
        if r.tier == AnswerTier::Engine {
            assert!(!r.rungs.is_empty(), "engine-tier job with no rungs");
            assert!(r.wall_ns > 0, "engine-tier job with zero wall time");
        }
    }
    // The mixed batch must exercise more than one engine family.
    let families: std::collections::BTreeSet<&'static str> = reports
        .iter()
        .flat_map(|r| r.rungs.iter().map(|rung| rung.engine.slug()))
        .collect();
    assert!(
        families.len() >= 2,
        "mixed batch should touch ≥ 2 engine families, got {families:?}"
    );

    println!();
    print!(
        "{}",
        asv_eval::report::service_stats_table("Service observability", &service)
    );

    // Chrome-tracing export.
    let chrome = chrome_trace_json(&events);
    assert!(
        chrome.starts_with("{\"displayTimeUnit\"") && chrome.trim_end().ends_with("]}"),
        "Chrome trace must be a JSON object with a traceEvents array"
    );
    assert!(chrome.contains("\"ph\""), "Chrome events carry a phase");
    let _ = std::fs::create_dir_all(&out);
    let chrome_path = out.join("trace_report.json");
    if std::fs::write(&chrome_path, &chrome).is_ok() {
        println!(
            "\nwrote {} trace events to {} (load in chrome://tracing or ui.perfetto.dev)",
            events.len(),
            chrome_path.display()
        );
    }

    // Span-derived profile: folded stacks (flamegraph input) + hot spans.
    let profile = Profile::from_events(&events);
    let folded = profile.folded();
    assert!(!folded.is_empty(), "cold traced batch must yield frames");
    let folded_path = out.join("trace_report.folded");
    if std::fs::write(&folded_path, &folded).is_ok() {
        println!(
            "wrote {} profile frames to {} (feed to flamegraph.pl / inferno)",
            profile.frames().count(),
            folded_path.display()
        );
    }
    println!();
    print!("{}", profile.table(10));

    // Prometheus exposition of the same registry the table read.
    let dump = service.metrics().dump_prometheus();
    for needle in [
        "asv_jobs_submitted_total",
        "asv_jobs_executed_total",
        "asv_span_job_total",
        "# TYPE",
    ] {
        assert!(dump.contains(needle), "exposition missing {needle}");
    }
    println!("\n== Prometheus exposition ==\n{dump}");

    // Warm leg: re-submission answers from the memo with no new rungs.
    let (warm_outcomes, warm_reports) = service.verify_batch_reported(&jobs);
    assert_eq!(warm_outcomes, baseline, "memoised verdicts must not drift");
    assert!(
        warm_reports
            .iter()
            .all(|r| matches!(r.tier, AnswerTier::Memo | AnswerTier::Deduped)),
        "warm batch must answer entirely from the memo tier"
    );
    assert!(
        warm_reports.iter().all(|r| r.rungs.is_empty()),
        "memo answers run no rungs"
    );
    println!(
        "warm re-submission: all {} jobs answered by memo/dedup, zero rungs — OK",
        jobs.len()
    );
}

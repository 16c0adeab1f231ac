//! `perfbench`: the repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <pipeline|repair|verify> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload is made of parts whose inputs derive from `--seed`.
//! Every part is set up (timed as `setup_s`) and run as one cold pass;
//! untraced runs then repeat rounds over the parts to fill about
//! `--seconds`, and report times from each part's best pass.
//! `--trace 0` prints every end-to-end metric; `--trace 1` prints the
//! per-layer breakdown of one traced pass per part. The last stdout
//! line is the result object; the full record, including the host
//! fingerprint and, when traced, the folded-stack profile, is written
//! under `perfbench/results/`. See `perfbench/README.md`.

mod corpus;
mod layers;
mod pipeline;
mod repair;
mod stats;
mod verify;

use asv_serve::{ServeOptions, VerifyService};
use asv_trace::Tracer;
use layers::Layers;
use stats::{median, nearest_rank, Tally};
use std::cell::RefCell;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

/// The end-to-end metrics, with units. Every untraced run prints all.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("pipeline_s", "s"),
    ("pass_at_1", "%"),
    ("pass_at_5", "%"),
    ("cases_per_s", "1/s"),
    ("case_ms_p50", "ms"),
    ("jobs_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Why every pass starts cold, recorded with each result.
const CACHE_STATE: &str = "cold: every pass clears the process-wide compiled-design cache \
    and builds a fresh VerifyService (empty verdict memo, no store tier), so no pass reuses \
    another's work and a run's figures do not depend on what ran before it in the process";

/// Command-line arguments.
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0).max(0.0),
        trace: trace.unwrap_or(false),
    })
}

/// State shared by a workload's set-up and passes.
pub struct Ctx {
    /// The workload seed; every input derives from it.
    pub seed: u64,
    /// Traced run?
    pub trace: bool,
    seconds: f64,
    /// Per-layer accumulator (filled only when traced).
    pub layers: RefCell<Layers>,
    checks: RefCell<Vec<(String, bool)>>,
}

impl Ctx {
    /// A context for one run.
    pub fn new(seed: u64, trace: bool, seconds: f64) -> Self {
        Ctx {
            seed,
            trace,
            seconds,
            layers: RefCell::new(Layers::default()),
            checks: RefCell::new(Vec::new()),
        }
    }

    /// Records a correctness check; any failing check fails the run.
    pub fn check(&self, name: impl Into<String>, ok: bool) {
        let name = name.into();
        if !ok {
            eprintln!("perfbench: check failed: {name}");
        }
        self.checks.borrow_mut().push((name, ok));
    }

    /// Times `f` into per-layer metric `name` when `on`.
    pub fn time<T>(&self, on: bool, name: &'static str, f: impl FnOnce() -> T) -> T {
        if on {
            let t = Instant::now();
            let out = f();
            self.layers
                .borrow_mut()
                .add(name, t.elapsed().as_secs_f64());
            out
        } else {
            f()
        }
    }

    /// Adds `v` to per-layer metric `name` when `on`.
    pub fn add(&self, on: bool, name: &'static str, v: f64) {
        if on {
            self.layers.borrow_mut().add(name, v);
        }
    }

    /// Runs a workload made of `parts` independent parts, each with its
    /// own inputs. Every part is set up (timed) and run once. An untraced
    /// run makes `--seconds / round_s` rounds over all parts, rounded and
    /// at least one, where `round_s` is how long one round takes on the
    /// reference host: a run measures about `--seconds`, and the same
    /// work on every host. A traced run runs each part once traced and
    /// repeats nothing, except that the first part also runs twice
    /// untraced and once more traced, for the tracing overhead. Returns
    /// the set-up times and the passes.
    pub fn run_parts<T>(
        &self,
        parts: usize,
        round_s: f64,
        mut setup: impl FnMut(usize) -> T,
        mut pass: impl FnMut(&T, bool) -> Pass,
    ) -> (Vec<f64>, Vec<Pass>) {
        let mut setups = Vec::with_capacity(parts);
        let mut inputs = Vec::with_capacity(parts);
        let mut passes = Vec::new();
        let mut run = |part: usize, inputs: &T, traced: bool, passes: &mut Vec<Pass>| {
            let mirror = self.layers.borrow().mirror_s;
            let p = pass(inputs, traced);
            passes.push(Pass {
                part,
                traced,
                mirror: self.layers.borrow().mirror_s - mirror,
                ..p
            });
        };
        for part in 0..parts {
            let t = Instant::now();
            inputs.push(setup(part));
            setups.push(t.elapsed().as_secs_f64());
            if !self.trace {
                run(part, &inputs[part], false, &mut passes);
            } else if part == 0 {
                // The baseline of the tracing overhead: the first part
                // alternates untraced and traced passes twice. The
                // second traced pass's layer figures are discarded.
                run(part, &inputs[part], false, &mut passes);
                run(part, &inputs[part], true, &mut passes);
                run(part, &inputs[part], false, &mut passes);
                let kept = std::mem::take(&mut *self.layers.borrow_mut());
                run(part, &inputs[part], true, &mut passes);
                *self.layers.borrow_mut() = kept;
            } else {
                run(part, &inputs[part], true, &mut passes);
            }
        }
        let rounds = if self.trace {
            1
        } else {
            (self.seconds / round_s).round().max(1.0) as usize
        };
        for _ in 1..rounds {
            for (part, inputs) in inputs.iter().enumerate() {
                run(part, inputs, false, &mut passes);
            }
        }
        (setups, passes)
    }

    /// A cold verification service: clears the process-wide design cache
    /// and builds a fresh service with one worker per core (traced when
    /// asked).
    pub fn service(&self, traced: bool) -> VerifyService {
        asv_serve::clear_design_cache();
        let service = VerifyService::new(ServeOptions {
            workers: cores(),
            ..ServeOptions::default()
        });
        if traced {
            service.traced(Tracer::with_capacity(1 << 22))
        } else {
            service
        }
    }

    /// Folds a traced service's pending events into the layer metrics.
    /// Returns the seconds from the first event's start to the last
    /// event's end (0 untraced).
    pub fn drain(&self, service: &VerifyService) -> f64 {
        let Some(tracer) = service.tracer() else {
            return 0.0;
        };
        let events = tracer.drain();
        if tracer.dropped() > 0 {
            self.check("tracer dropped no events", false);
        }
        let first = events.iter().map(|e| e.start_ns).min().unwrap_or(0);
        let last = events
            .iter()
            .map(|e| e.start_ns + e.dur_ns)
            .max()
            .unwrap_or(0);
        self.layers.borrow_mut().fold(events);
        (last - first) as f64 * 1e-9
    }
}

/// One pass over one part of a workload's inputs.
#[derive(Debug, Default)]
pub struct Pass {
    /// The part this pass ran.
    pub part: usize,
    /// Traced pass?
    pub traced: bool,
    /// Digest of the part's inputs.
    pub inputs: u64,
    /// Wall time of the pass, seconds.
    pub wall: f64,
    /// Seconds of the pass spent in the traced run's step mirrors.
    pub mirror: f64,
    /// Cases answered and judged.
    pub cases: usize,
    /// Per-case latency from submission to judged result, ms.
    pub case_ms: Vec<f64>,
    /// Verification jobs submitted.
    pub jobs: u64,
    /// `(n, c)` per judged case, for pass@k.
    pub passk: Vec<(usize, usize)>,
    /// Failure accounting.
    pub tally: Tally,
    /// Digest of the pass's outputs.
    pub digest: u64,
}

/// Worker threads: one per core.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn host_json() -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    format!(
        "{{\"cores\": {}, \"cpu\": {:?}, \"rustc\": {:?}, \"workers\": {}}}",
        cores(),
        cpu,
        env!("PERFBENCH_RUSTC"),
        cores()
    )
}

/// The first pass of each part, in part order: the passes whose outputs
/// define the run's digest and pass@k.
fn firsts(passes: &[Pass]) -> Vec<&Pass> {
    let mut out: Vec<&Pass> = Vec::new();
    for p in passes {
        if out.iter().all(|q| q.part != p.part) {
            out.push(p);
        }
    }
    out.sort_by_key(|p| p.part);
    out
}

/// The best pass of each part, in part order: its fastest wall time and,
/// per case, the fastest latency over the part's untraced passes. Every
/// pass of a part does the same work, and load on the host only ever
/// adds time, so the minimum is the figure it moves least.
fn best_per_part(passes: &[Pass]) -> Vec<Pass> {
    let mut best: Vec<Pass> = Vec::new();
    for p in passes.iter().filter(|p| !p.traced) {
        match best.iter_mut().find(|b| b.part == p.part) {
            Some(b) => {
                b.wall = b.wall.min(p.wall);
                for (b, p) in b.case_ms.iter_mut().zip(&p.case_ms) {
                    *b = b.min(*p);
                }
            }
            None => best.push(Pass {
                part: p.part,
                wall: p.wall,
                cases: p.cases,
                jobs: p.jobs,
                case_ms: p.case_ms.clone(),
                ..Pass::default()
            }),
        }
    }
    best.sort_by_key(|b| b.part);
    best
}

/// Every part's per-case best latencies, pooled and sorted, ms.
fn case_latencies(best: &[Pass]) -> Vec<f64> {
    let mut lat: Vec<f64> = best
        .iter()
        .flat_map(|b| b.case_ms.iter().copied())
        .collect();
    lat.sort_by(f64::total_cmp);
    lat
}

/// The end-to-end metrics of an untraced run. `setup_s` is the shared
/// set-up plus the median part set-up. Times and rates come from the
/// best pass of each part: `pipeline_s` is the mean best wall over parts,
/// and rates divide the parts' cases or jobs by the sum of their best
/// walls.
fn end_to_end(shared: f64, setup: &[f64], passes: &[Pass]) -> Vec<(&'static str, f64)> {
    let best = best_per_part(passes);
    let wall: f64 = best.iter().map(|b| b.wall).sum();
    let cases: usize = best.iter().map(|b| b.cases).sum();
    let jobs: u64 = best.iter().map(|b| b.jobs).sum();
    let lat = case_latencies(&best);
    let judged: Vec<(usize, usize)> = firsts(passes)
        .iter()
        .flat_map(|p| p.passk.iter().copied())
        .collect();
    let passk = |k| 100.0 * asv_eval::mean_pass_at_k(judged.iter().copied(), k);
    let values = [
        shared + median(setup),
        wall / best.len() as f64,
        passk(1),
        passk(5),
        cases as f64 / wall,
        nearest_rank(&lat, 0.5).unwrap_or(0.0),
        jobs as f64 / wall,
        peak_rss_mb(),
    ];
    END_TO_END.iter().map(|(n, _)| *n).zip(values).collect()
}

/// Checks `digest` against the one recorded earlier in this checkout for
/// the same workload, seed and inputs, recording it on first sight.
fn digest_repeats(dir: &std::path::Path, key: &str, digest: u64) -> bool {
    let path = dir.join("digests.tsv");
    let key = format!("{key}\t");
    let known = std::fs::read_to_string(&path).unwrap_or_default();
    if let Some(line) = known.lines().find(|l| l.starts_with(&key)) {
        return line[key.len()..] == format!("{digest:016x}");
    }
    let line = format!("{key}{digest:016x}\n");
    std::fs::write(&path, known + &line).is_ok()
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let ctx = Ctx::new(args.seed, args.trace, args.seconds);
    let (shared, setup, passes) = match args.workload.as_str() {
        "pipeline" => pipeline::run(&ctx),
        "repair" => repair::run(&ctx),
        "verify" => verify::run(&ctx),
        other => {
            eprintln!("perfbench: unknown workload {other} (pipeline, repair, verify)");
            std::process::exit(2);
        }
    };

    let firsts = firsts(&passes);
    ctx.check(
        "every pass of a part (traced or not) gives the same output digest",
        passes.iter().all(|p| p.digest == firsts[p.part].digest),
    );
    let (mut digest, mut inputs) = (stats::Digest::default(), stats::Digest::default());
    for p in &firsts {
        digest.u64(p.digest);
        inputs.u64(p.inputs);
    }
    let (digest, inputs) = (digest.finish(), inputs.finish());
    let results = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("results");
    let _ = std::fs::create_dir_all(&results);
    ctx.check(
        "the output digest equals the one recorded for this seed",
        digest_repeats(
            &results,
            &format!("{}\t{}\t{inputs:016x}", args.workload, args.seed),
            digest,
        ),
    );

    let mut tally = Tally::default();
    for p in &passes {
        tally.attempted += p.tally.attempted;
        tally.failed += p.tally.failed;
    }
    ctx.check(
        format!("operations were attempted ({})", tally.attempted),
        tally.attempted > 0,
    );
    if args.trace {
        let mismatches = ctx.layers.borrow().mirror_mismatches;
        ctx.check(
            format!("the step mirrors reproduce the program's outputs ({mismatches} mismatches)"),
            mismatches == 0,
        );
    }
    let metrics: Vec<(&str, f64, &str)> = if args.trace {
        // The best traced pass of the first part against its best
        // untraced pass. Both run the same program code: the traced
        // passes' time in the step mirrors is taken out.
        let wall = |traced: bool| -> f64 {
            passes
                .iter()
                .filter(|p| p.part == 0 && p.traced == traced)
                .map(|p| p.wall - p.mirror)
                .fold(f64::INFINITY, f64::min)
        };
        // One traced pass per part: the first, whose layer figures count.
        let mut counted = std::collections::BTreeSet::new();
        let design_errors: u64 = passes
            .iter()
            .filter(|p| p.traced && counted.insert(p.part))
            .map(|p| p.tally.design_errors)
            .sum();
        let mut l = ctx.layers.borrow_mut();
        l.add("trace.overhead_frac", wall(true) / wall(false) - 1.0);
        l.add("error_frac", tally.error_frac());
        l.add("sva.design_errors", design_errors as f64);
        l.finish()
    } else {
        let units = END_TO_END.iter().map(|(_, u)| *u);
        end_to_end(shared, &setup, &passes)
            .into_iter()
            .zip(units)
            .map(|((n, v), u)| (n, v, u))
            .collect()
    };

    let checks = ctx.checks.borrow();
    let correct = checks.iter().all(|(_, ok)| *ok);
    let host = host_json();
    let mut metrics_json = String::new();
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            metrics_json,
            "{sep}{name:?}: {{\"value\": {value:?}, \"unit\": {unit:?}}}"
        );
    }
    let result = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics_json}}}}}",
        tally.attempted,
        tally.failed
    );

    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    // The 95th percentile is recorded but not gated: on `pipeline` and
    // `verify` it is the wall time of the slowest part, too unsteady.
    let latencies = case_latencies(&best_per_part(&passes));
    let mut record = format!(
        "{{\n  \"workload\": {:?},\n  \"seed\": {},\n  \"seconds\": {},\n  \"host\": {host},\n  \"cache\": {CACHE_STATE:?},\n  \"inputs\": \"{:016x}\",\n  \"digest\": \"{digest:016x}\",\n  \"passes\": {},\n  \"parts\": {},\n  \"latency_samples\": {},\n  \"case_ms_p95\": {},\n  \"checks\": [",
        args.workload,
        args.seed,
        args.seconds,
        inputs,
        passes.len(),
        setup.len(),
        latencies.len(),
        nearest_rank(&latencies, 0.95).unwrap_or(0.0),
    );
    for (i, (name, ok)) in checks.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(record, "{sep}\n    {{\"check\": {name:?}, \"ok\": {ok}}}");
    }
    let _ = write!(record, "\n  ],\n  \"pass_times\": [");
    for (i, p) in passes.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(record, "{sep}[{}, {}]", p.part, p.wall);
    }
    let _ = write!(record, "],\n  \"result\": {result}\n}}\n");
    let _ = std::fs::write(results.join(format!("{stem}.json")), record);
    if args.trace {
        let l = ctx.layers.borrow();
        let _ = std::fs::write(results.join(format!("{stem}.folded")), l.folded_profile());
        let table: String = metrics
            .iter()
            .map(|(n, v, u)| format!("{n}\t{v}\t{u}\n"))
            .collect();
        let _ = std::fs::write(results.join(format!("{stem}.layers.tsv")), table);
    }

    println!("host: {host}");
    println!("cache: {CACHE_STATE}");
    println!(
        "digest: {digest:016x} ({} parts, {} passes, {} checks)",
        setup.len(),
        passes.len(),
        checks.len()
    );
    println!("{result}");
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn best_pass_takes_the_minimum_per_part_and_per_case() {
        let pass = |part, traced, wall, case_ms: &[f64]| Pass {
            part,
            traced,
            wall,
            cases: case_ms.len(),
            case_ms: case_ms.to_vec(),
            ..Pass::default()
        };
        let passes = [
            pass(1, false, 4.0, &[9.0]),
            pass(0, false, 2.0, &[3.0, 1.0]),
            pass(0, true, 0.5, &[0.1, 0.1]),
            pass(0, false, 1.5, &[2.0, 4.0]),
        ];
        let best = best_per_part(&passes);
        assert_eq!(best.len(), 2);
        assert_eq!((best[0].part, best[0].wall), (0, 1.5));
        assert_eq!(best[0].case_ms, [2.0, 1.0]);
        assert_eq!((best[1].part, best[1].wall), (1, 4.0));
        let e2e: BTreeMap<_, _> = end_to_end(0.0, &[1.0], &passes).into_iter().collect();
        assert_eq!(e2e["pipeline_s"], 2.75);
        assert_eq!(e2e["cases_per_s"], 3.0 / 5.5);
        assert_eq!(e2e["case_ms_p50"], 2.0);
    }
}

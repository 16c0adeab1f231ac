//! The traced run's per-layer breakdown.
//!
//! Times are harness spans the benchmark records around calls into each
//! crate's public API; engine-layer numbers come from folding the events
//! a traced `VerifyService` already emits into `CostCounters` and
//! `Profile`. Nothing here adds spans inside the program.

use crate::stats::nearest_rank;
use assertsolver_core::features::{extract, CaseContext};
use assertsolver_core::infer::render_response;
use assertsolver_core::lm::NgramLm;
use assertsolver_core::train::{prepare_cases, PreparedCase};
use assertsolver_core::{RepairEngine, RepairTask, Response, Solver};
use asv_datagen::SvaBugEntry;
use asv_mutation::candidates;
use asv_trace::{CostCounters, Event, Profile, SpanKind};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::time::Instant;

/// Every per-layer metric, with its unit. Each traced run prints all of
/// them; a layer a workload does not exercise reads 0. Spans and counts
/// that no gated workload reaches (memo lookups, lane-batched simulation,
/// the sampling rung) are left out.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("datagen.run_s", "s"),
    ("datagen.sva_bug", "count"),
    ("datagen.sva_eval", "count"),
    ("mutation.candidates_s", "s"),
    ("mutation.candidates", "count"),
    ("mutation.calls", "count"),
    ("mutation.candidate_us", "us"),
    ("core.pretrain_s", "s"),
    ("core.sft_s", "s"),
    ("core.prepare_s", "s"),
    ("core.dpo_s", "s"),
    ("core.features_s", "s"),
    ("core.features", "count"),
    ("core.respond_s", "s"),
    ("core.respond_calls", "count"),
    ("core.sampled_frac", "ratio"),
    ("verilog.compile_s", "s"),
    ("verilog.compiles", "count"),
    ("eval.evaluate_s", "s"),
    ("eval.golden_frac", "ratio"),
    ("serve.batch_s", "s"),
    ("serve.batches", "count"),
    ("serve.submitted", "count"),
    ("serve.executed", "count"),
    ("serve.reuse_frac", "ratio"),
    ("serve.job_ms_p50", "ms"),
    ("serve.job_ms_p95", "ms"),
    ("sim.compile_s", "s"),
    ("ir.opt_s", "s"),
    ("sim.compiles", "count"),
    ("sim.compile_cache_hits", "count"),
    ("sim.lane_occupancy", "ratio"),
    ("sat.blast_s", "s"),
    ("sat.solve_s", "s"),
    ("sat.aig_nodes", "count"),
    ("sat.solves", "count"),
    ("sat.conflicts", "count"),
    ("sat.propagations", "count"),
    ("fuzz.round_s", "s"),
    ("fuzz.rounds", "count"),
    ("fuzz.stimuli", "count"),
    ("sva.enumeration_s", "s"),
    ("sva.rungs_symbolic", "count"),
    ("sva.rungs_enumeration", "count"),
    ("sva.rungs_fuzz", "count"),
    ("sva.design_errors", "count"),
    ("error_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
];

/// Accumulated per-layer figures of a traced run. Raw sums are kept;
/// ratios and quantiles are derived in [`Layers::finish`].
#[derive(Debug, Default)]
pub struct Layers {
    sums: BTreeMap<&'static str, f64>,
    counters: CostCounters,
    job_ms: Vec<f64>,
    sampled: u64,
    enumerated: u64,
    responses: u64,
    golden: u64,
    reused: u64,
    events: Vec<Event>,
    /// Seconds spent in the step mirrors, which run beside the program's
    /// own calls and are kept out of every pass total.
    pub mirror_s: f64,
    /// Calls whose mirror gave a different output from the program.
    pub mirror_mismatches: u64,
}

impl Layers {
    /// Adds `v` to a raw sum.
    pub fn add(&mut self, name: &'static str, v: f64) {
        debug_assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "{name}");
        *self.sums.entry(name).or_default() += v;
    }

    /// Runs `f`, adding its wall time in seconds to `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.add(name, t.elapsed().as_secs_f64());
        out
    }

    /// Records responses and how many matched the golden source textually.
    pub fn responses(&mut self, total: usize, golden: usize) {
        self.responses += total as u64;
        self.golden += golden as u64;
    }

    /// Folds drained service events: span busy time per engine layer,
    /// `CostCounters` for counts, `Job` spans for job latency. The events
    /// are kept for the folded-stack profile.
    pub fn fold(&mut self, events: Vec<Event>) {
        for e in &events {
            let secs = e.dur_ns as f64 * 1e-9;
            let name = match e.kind {
                SpanKind::Compile => "sim.compile_s",
                SpanKind::OptPass => "ir.opt_s",
                SpanKind::AigBlast => "sat.blast_s",
                SpanKind::SatSolve => "sat.solve_s",
                SpanKind::FuzzRound => "fuzz.round_s",
                SpanKind::Enumeration => "sva.enumeration_s",
                SpanKind::Job => {
                    self.job_ms.push(e.dur_ns as f64 * 1e-6);
                    continue;
                }
                // No gated workload reaches these spans.
                SpanKind::MemoLookup
                | SpanKind::Batch
                | SpanKind::Sampling
                | SpanKind::StoreGet
                | SpanKind::StorePut
                | SpanKind::Rung => continue,
            };
            self.add(name, secs);
        }
        self.counters.add(&CostCounters::from_events(&events));
        self.events.extend(events);
    }

    /// Records the service counters of one pass: submitted, executed, and
    /// reused (memo hits plus in-batch duplicates).
    pub fn serve_stats(&mut self, stats: asv_serve::ServeStats) {
        self.add("serve.submitted", stats.submitted as f64);
        self.add("serve.executed", stats.executed as f64);
        self.reused += stats.memo_hits + stats.deduped;
    }

    /// The folded-stack profile of the traced pass.
    pub fn folded_profile(&self) -> String {
        Profile::from_events(&self.events).folded()
    }

    /// Final per-layer values, in [`PER_LAYER`] order.
    pub fn finish(&self) -> Vec<(&'static str, f64, &'static str)> {
        let c = &self.counters;
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        let mut job_ms = self.job_ms.clone();
        job_ms.sort_by(f64::total_cmp);
        let sum = |n: &str| self.sums.get(n).copied().unwrap_or(0.0);
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let v = match name {
                    "mutation.candidate_us" => {
                        1e6 * ratio(sum("mutation.candidates_s"), sum("mutation.candidates"))
                    }
                    "core.sampled_frac" => ratio(self.sampled as f64, self.enumerated as f64),
                    "eval.golden_frac" => ratio(self.golden as f64, self.responses as f64),
                    "serve.reuse_frac" => ratio(self.reused as f64, sum("serve.submitted")),
                    "serve.job_ms_p50" => nearest_rank(&job_ms, 0.5).unwrap_or(0.0),
                    "serve.job_ms_p95" => nearest_rank(&job_ms, 0.95).unwrap_or(0.0),
                    "sim.lane_occupancy" => {
                        ratio(c.sim_lanes_occupied as f64, c.sim_lanes_total as f64)
                    }
                    "sim.compiles" => c.compiles as f64,
                    "sim.compile_cache_hits" => c.compile_cache_hits as f64,
                    "sat.aig_nodes" => c.aig_nodes as f64,
                    "sat.solves" => c.sat_solves as f64,
                    "sat.conflicts" => c.conflicts as f64,
                    "sat.propagations" => c.propagations as f64,
                    "fuzz.rounds" => c.fuzz_rounds as f64,
                    "fuzz.stimuli" => c.fuzz_stimuli as f64,
                    "sva.rungs_symbolic" => c.rungs_symbolic as f64,
                    "sva.rungs_enumeration" => c.rungs_enumeration as f64,
                    "sva.rungs_fuzz" => c.rungs_fuzz as f64,
                    _ => sum(name),
                };
                (name, v, unit)
            })
            .collect()
    }
}

/// A [`Solver`] whose `respond` times the solver's own `respond` as
/// `core.respond_s` and returns its responses, then splits that call into
/// layers with [`respond_steps`], outside the total.
pub struct Probe<'a> {
    solver: &'a Solver,
    golden: HashMap<&'a str, &'a str>,
    layers: &'a RefCell<Layers>,
}

impl<'a> Probe<'a> {
    /// Wraps `solver`; `entries` supply golden sources for the
    /// golden-match ratio.
    pub fn new(
        solver: &'a Solver,
        entries: impl IntoIterator<Item = &'a SvaBugEntry>,
        layers: &'a RefCell<Layers>,
    ) -> Self {
        let golden = entries
            .into_iter()
            .map(|e| (e.buggy_source.as_str(), e.golden_source.as_str()))
            .collect();
        Probe {
            solver,
            golden,
            layers,
        }
    }
}

impl RepairEngine for Probe<'_> {
    fn name(&self) -> &str {
        self.solver.name()
    }

    fn respond(&self, task: &RepairTask, n: usize, seed: u64) -> Vec<Response> {
        let start = Instant::now();
        let out = self.solver.respond(task, n, seed);
        let respond_s = start.elapsed().as_secs_f64();
        let mut l = self.layers.borrow_mut();
        l.add("core.respond_s", respond_s);
        l.add("core.respond_calls", 1.0);
        if let Some(golden) = self.golden.get(task.buggy_source.as_str()) {
            let hits = out.iter().filter(|r| r.patched_source == *golden).count();
            l.responses(out.len(), hits);
        }
        let mirror = Instant::now();
        let model = self.solver.model();
        let steps = respond_steps(&mut l, &model.policy, &model.lm, task, n, seed);
        l.mirror_mismatches += u64::from(steps != out);
        l.mirror_s += mirror.elapsed().as_secs_f64();
        out
    }
}

/// A mirror of `assertsolver_core::infer::respond_with_policy` made of
/// its public steps — compile, enumerate candidates, extract features,
/// sample, render — with a span around each. It runs after the
/// program's own `respond`, outside `core.respond_s`, to split that time
/// into layers; its output must equal the program's.
fn respond_steps(
    l: &mut Layers,
    policy: &assertsolver_core::policy::Policy,
    lm: &NgramLm,
    task: &RepairTask,
    n: usize,
    seed: u64,
) -> Vec<Response> {
    l.add("verilog.compiles", 1.0);
    let Ok(design) = l.time("verilog.compile_s", || {
        asv_verilog::compile(&task.buggy_source)
    }) else {
        return Vec::new();
    };
    let ctx = CaseContext::new(&design.module, &task.spec, &task.logs);
    let cands = l.time("mutation.candidates_s", || candidates(&design));
    l.add("mutation.calls", 1.0);
    l.add("mutation.candidates", cands.len() as f64);
    if cands.is_empty() {
        return Vec::new();
    }
    let features: Vec<_> = l.time("core.features_s", || {
        cands.iter().map(|c| extract(&ctx, lm, c)).collect()
    });
    l.add("core.features", features.len() as f64);
    let mut rng = StdRng::seed_from_u64(seed);
    let picks = policy.sample_n(&features, n, &mut rng);
    l.sampled += picks.iter().collect::<BTreeSet<_>>().len() as u64;
    l.enumerated += cands.len() as u64;
    picks
        .into_iter()
        .map(|i| render_response(task, &cands[i], &ctx))
        .collect()
}

/// Times the program's own `prepare_cases` as `core.prepare_s`, then
/// splits it into layers with a mirror made of its public steps, outside
/// that total. The mirror's cases must equal the program's.
pub fn prepare_timed(
    l: &RefCell<Layers>,
    entries: &[SvaBugEntry],
    lm: &NgramLm,
) -> Vec<PreparedCase> {
    let cases = l
        .borrow_mut()
        .time("core.prepare_s", || prepare_cases(entries, lm));
    let mut l = l.borrow_mut();
    let mirror = Instant::now();
    let steps = prepare_steps(&mut l, entries, lm);
    let same = steps.len() == cases.len()
        && steps.iter().zip(&cases).all(|(a, b)| {
            a.features == b.features && a.golden == b.golden && a.meta == b.meta
        });
    l.mirror_mismatches += u64::from(!same);
    l.mirror_s += mirror.elapsed().as_secs_f64();
    cases
}

/// A mirror of `assertsolver_core::train::prepare_cases` made of its
/// public steps, with a span around each.
fn prepare_steps(l: &mut Layers, entries: &[SvaBugEntry], lm: &NgramLm) -> Vec<PreparedCase> {
    let mut out = Vec::with_capacity(entries.len());
    for entry in entries {
        l.add("verilog.compiles", 1.0);
        let Ok(design) = l.time("verilog.compile_s", || {
            asv_verilog::compile(&entry.buggy_source)
        }) else {
            continue;
        };
        let ctx = CaseContext::new(&design.module, &entry.spec, &entry.logs);
        let cands = l.time("mutation.candidates_s", || candidates(&design));
        l.add("mutation.calls", 1.0);
        l.add("mutation.candidates", cands.len() as f64);
        if cands.is_empty() {
            continue;
        }
        let features: Vec<_> = l.time("core.features_s", || {
            cands.iter().map(|c| extract(&ctx, lm, c)).collect()
        });
        l.add("core.features", features.len() as f64);
        let golden = cands
            .iter()
            .enumerate()
            .filter(|(_, c)| c.patched_source == entry.golden_source)
            .map(|(i, _)| i)
            .collect();
        let meta = cands
            .into_iter()
            .map(|c| (c.line_no, c.new_line, c.patched_source))
            .collect();
        out.push(PreparedCase {
            features,
            golden,
            meta,
        });
    }
    out
}

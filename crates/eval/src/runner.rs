//! Benchmark runner: drives a repair engine over SVA-Eval and aggregates
//! pass@k, per-category and per-length-bin results.
//!
//! Verification — the dominant cost of the `n = 20` pass@k protocol —
//! is submitted through the `asv-serve` job service: every candidate
//! patch of every case becomes one [`VerifyJob`], the whole benchmark
//! fans out across the service's workers, and repeated candidates (the
//! 20 samples repeat patches heavily, and wrong patches repeat *across*
//! cases) are deduplicated by job key and answered from the sharded
//! verdict memo. Verdicts are bit-identical to the sequential
//! [`Judge`] path — [`evaluate_sequential`] remains as the reference
//! oracle and the test suite asserts equality.

use crate::judge::Judge;
use crate::passk::mean_pass_at_k;
use assertsolver_core::{RepairEngine, RepairTask, Response};
use asv_datagen::dataset::{LengthBin, SvaBugEntry};
use asv_mutation::BugCategory;
use asv_serve::{ServeOptions, VerifyJob, VerifyService};
use asv_sva::bmc::Verifier;
use asv_verilog::Design;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::Arc;

/// Evaluation protocol parameters (paper: n = 20, k ∈ {1, 5}, temp 0.2).
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct EvalConfig {
    /// Samples per case.
    pub n: usize,
    /// Base seed; each case uses `seed + case index`.
    pub seed: u64,
}

impl Default for EvalConfig {
    fn default() -> Self {
        EvalConfig {
            n: 20,
            seed: 0xE7A1_0001,
        }
    }
}

/// One benchmark case annotated with provenance.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchCase {
    /// The underlying entry.
    pub entry: SvaBugEntry,
    /// True for SVA-Eval-Human cases.
    pub human: bool,
}

/// Builds the combined benchmark from machine and human entries.
pub fn benchmark(machine: &[SvaBugEntry], human: &[SvaBugEntry]) -> Vec<BenchCase> {
    let mut out: Vec<BenchCase> = machine
        .iter()
        .cloned()
        .map(|entry| BenchCase {
            entry,
            human: false,
        })
        .collect();
    out.extend(
        human
            .iter()
            .cloned()
            .map(|entry| BenchCase { entry, human: true }),
    );
    out
}

/// Per-case outcome.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CaseResult {
    /// Module name.
    pub module: String,
    /// Table I categories of the injected bug.
    pub categories: Vec<BugCategory>,
    /// Code-length bin.
    pub bin: LengthBin,
    /// Human-curated case?
    pub human: bool,
    /// Number of effective responses.
    pub c: usize,
    /// Number of responses requested.
    pub n: usize,
}

/// A full evaluation of one engine over the benchmark.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EvalRun {
    /// Engine display name.
    pub engine: String,
    /// Per-case outcomes, in benchmark order.
    pub cases: Vec<CaseResult>,
}

impl EvalRun {
    /// pass@k over all cases.
    pub fn pass_at(&self, k: usize) -> f64 {
        mean_pass_at_k(self.cases.iter().map(|c| (c.n, c.c)), k)
    }

    /// pass@k over cases matching a predicate.
    pub fn pass_at_where<F: Fn(&CaseResult) -> bool>(&self, k: usize, pred: F) -> f64 {
        mean_pass_at_k(self.cases.iter().filter(|c| pred(c)).map(|c| (c.n, c.c)), k)
    }

    /// pass@k restricted to a bug category.
    pub fn pass_at_category(&self, k: usize, cat: BugCategory) -> f64 {
        self.pass_at_where(k, |c| c.categories.contains(&cat))
    }

    /// pass@k restricted to a length bin.
    pub fn pass_at_bin(&self, k: usize, bin: LengthBin) -> f64 {
        self.pass_at_where(k, |c| c.bin == bin)
    }

    /// pass@k over the machine/human subset.
    pub fn pass_at_subset(&self, k: usize, human: bool) -> f64 {
        self.pass_at_where(k, |c| c.human == human)
    }

    /// Histogram of `c` (correct-out-of-n) — the paper's Fig. 3 series.
    /// Index `i` counts cases with exactly `i` effective responses.
    pub fn histogram(&self) -> Vec<usize> {
        let n = self.cases.iter().map(|c| c.n).max().unwrap_or(0);
        let mut h = vec![0usize; n + 1];
        for c in &self.cases {
            h[c.c] += 1;
        }
        h
    }
}

/// Evaluates one engine over the benchmark, fanning verification out
/// across an internally constructed [`VerifyService`] (all cores).
///
/// Deterministic in `(engine, benchmark, config)`: each case derives its
/// sampling seed from the config seed and the case index, and the
/// service's verdict vector is a pure function of the submitted jobs.
/// `judge` supplies the verification bounds; its verdicts are
/// reproduced exactly (see [`evaluate_sequential`]).
pub fn evaluate(
    engine: &dyn RepairEngine,
    benchmark: &[BenchCase],
    config: &EvalConfig,
    judge: &mut Judge,
) -> EvalRun {
    let service = VerifyService::new(ServeOptions::default());
    evaluate_with_service(engine, benchmark, config, judge.verifier(), &service)
}

/// The pre-serve sequential reference: one [`Judge`] call per response.
/// Kept as the oracle the batched path is differential-tested against.
pub fn evaluate_sequential(
    engine: &dyn RepairEngine,
    benchmark: &[BenchCase],
    config: &EvalConfig,
    judge: &mut Judge,
) -> EvalRun {
    let mut cases = Vec::with_capacity(benchmark.len());
    for (i, bc) in benchmark.iter().enumerate() {
        let task = RepairTask::from(&bc.entry);
        let responses = engine.respond(&task, config.n, config.seed.wrapping_add(i as u64));
        let c = judge.count_effective(&bc.entry, &responses);
        cases.push(CaseResult {
            module: bc.entry.module_name.clone(),
            categories: bc.entry.class.categories(),
            bin: bc.entry.length_bin,
            human: bc.human,
            c,
            n: config.n,
        });
    }
    EvalRun {
        engine: engine.name().to_string(),
        cases,
    }
}

/// How one response of one case resolves to effective/ineffective.
enum Resolution {
    /// Textual golden match: effective with no verification.
    Golden,
    /// Does not compile: ineffective with no verification.
    NoCompile,
    /// Awaiting the service verdict for the job at this index.
    Pending(usize),
}

/// Evaluates one engine, submitting every verification through `service`.
///
/// Reproduces the [`Judge`] semantics exactly: a response is effective
/// iff it textually matches the golden source, or it compiles and every
/// assertion of the patched design holds non-vacuously under
/// `verifier`'s bounds. All candidate patches of the whole benchmark are
/// submitted as **one batch**, so the `n = 20` pass@k protocol fans out
/// across the service's workers and repeated candidates verify once.
pub fn evaluate_with_service(
    engine: &dyn RepairEngine,
    benchmark: &[BenchCase],
    config: &EvalConfig,
    verifier: Verifier,
    service: &VerifyService,
) -> EvalRun {
    // Phase 1 (sequential, cheap): sample responses, compile candidates,
    // and turn every non-trivial one into a job. The samples of a case
    // often repeat a patch (most non-golden responses on the pipeline
    // benchmark do), so each distinct patch compiles once; its responses
    // still submit one job each, sharing the design.
    let mut jobs: Vec<VerifyJob> = Vec::new();
    let mut per_case: Vec<(usize, Vec<Resolution>)> = Vec::with_capacity(benchmark.len());
    for (i, bc) in benchmark.iter().enumerate() {
        let task = RepairTask::from(&bc.entry);
        let responses: Vec<Response> =
            engine.respond(&task, config.n, config.seed.wrapping_add(i as u64));
        let mut compiled: HashMap<&str, Option<Arc<Design>>> = HashMap::new();
        let mut resolutions = Vec::with_capacity(responses.len());
        for r in &responses {
            if r.patched_source == bc.entry.golden_source {
                resolutions.push(Resolution::Golden);
                continue;
            }
            let design = compiled
                .entry(&r.patched_source)
                .or_insert_with(|| asv_verilog::compile(&r.patched_source).ok().map(Arc::new));
            if let Some(design) = design {
                resolutions.push(Resolution::Pending(jobs.len()));
                jobs.push(VerifyJob::new(Arc::clone(design), verifier));
            } else {
                resolutions.push(Resolution::NoCompile);
            }
        }
        per_case.push((i, resolutions));
    }
    // Phase 2: one batch across the service's worker pool (deduplicated
    // by job key, memoised across calls).
    let verdicts = service.verify_batch(&jobs);
    // Phase 3: fold verdicts back into per-case effective counts.
    let mut cases = Vec::with_capacity(benchmark.len());
    for (i, resolutions) in per_case {
        let bc = &benchmark[i];
        let c = resolutions
            .iter()
            .filter(|res| match res {
                Resolution::Golden => true,
                Resolution::NoCompile => false,
                // A patch counts only when *every* assertion holds
                // non-vacuously — silencing the failing property by
                // making its antecedent unreachable does not solve it.
                Resolution::Pending(j) => {
                    matches!(&verdicts[*j], Ok(v) if v.holds_non_vacuously())
                }
            })
            .count();
        cases.push(CaseResult {
            module: bc.entry.module_name.clone(),
            categories: bc.entry.class.categories(),
            bin: bc.entry.length_bin,
            human: bc.human,
            c,
            n: config.n,
        });
    }
    EvalRun {
        engine: engine.name().to_string(),
        cases,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use assertsolver_core::prelude::*;
    use asv_datagen::pipeline::{run as run_pipeline, PipelineConfig};

    fn small_eval() -> (Vec<BenchCase>, EvalConfig) {
        let ds = run_pipeline(&PipelineConfig::quick());
        let bench: Vec<BenchCase> = benchmark(&ds.sva_eval_machine, &ds.sva_eval_human)
            .into_iter()
            .take(12)
            .collect();
        (bench, EvalConfig { n: 10, seed: 1 })
    }

    #[test]
    fn evaluation_is_deterministic() {
        let (bench, cfg) = small_eval();
        let engine = Solver::new(base_model(&[]));
        let a = evaluate(&engine, &bench, &cfg, &mut Judge::fast());
        let b = evaluate(&engine, &bench, &cfg, &mut Judge::fast());
        assert_eq!(a, b);
    }

    #[test]
    fn service_path_matches_the_sequential_judge() {
        let (bench, cfg) = small_eval();
        let engine = Solver::new(base_model(&[]));
        let sequential = evaluate_sequential(&engine, &bench, &cfg, &mut Judge::fast());
        let batched = evaluate(&engine, &bench, &cfg, &mut Judge::fast());
        assert_eq!(
            batched, sequential,
            "service-batched evaluation must reproduce the judge verdicts"
        );
        // And across worker counts, including single-threaded.
        for workers in [1, 8] {
            let service = VerifyService::with_workers(workers);
            let run =
                evaluate_with_service(&engine, &bench, &cfg, Judge::fast().verifier(), &service);
            assert_eq!(run, sequential, "worker count {workers} changed results");
        }
    }

    #[test]
    fn every_compiling_non_golden_response_submits_one_job() {
        let (bench, cfg) = small_eval();
        let engine = Solver::new(base_model(&[]));
        let service = VerifyService::with_workers(2);
        evaluate_with_service(&engine, &bench, &cfg, Judge::fast().verifier(), &service);
        let mut expected = 0;
        for (i, bc) in bench.iter().enumerate() {
            let task = RepairTask::from(&bc.entry);
            for r in engine.respond(&task, cfg.n, cfg.seed.wrapping_add(i as u64)) {
                if r.patched_source != bc.entry.golden_source
                    && asv_verilog::compile(&r.patched_source).is_ok()
                {
                    expected += 1;
                }
            }
        }
        assert!(expected > 0, "the benchmark must exercise the verifier");
        assert_eq!(service.stats().submitted, expected);
    }

    #[test]
    fn repeated_evaluation_hits_the_verdict_memo() {
        let (bench, cfg) = small_eval();
        let engine = Solver::new(base_model(&[]));
        let service = VerifyService::with_workers(2);
        let verifier = Judge::fast().verifier();
        let a = evaluate_with_service(&engine, &bench, &cfg, verifier, &service);
        let executed_cold = service.stats().executed;
        let b = evaluate_with_service(&engine, &bench, &cfg, verifier, &service);
        assert_eq!(a, b);
        assert_eq!(
            service.stats().executed,
            executed_cold,
            "re-evaluation must be answered entirely from the verdict memo"
        );
    }

    #[test]
    fn results_cover_every_case() {
        let (bench, cfg) = small_eval();
        let engine = Solver::new(base_model(&[]));
        let run = evaluate(&engine, &bench, &cfg, &mut Judge::fast());
        assert_eq!(run.cases.len(), bench.len());
        for c in &run.cases {
            assert!(c.c <= c.n);
            assert!(!c.categories.is_empty());
        }
    }

    #[test]
    fn histogram_sums_to_case_count() {
        let (bench, cfg) = small_eval();
        let engine = Solver::new(base_model(&[]));
        let run = evaluate(&engine, &bench, &cfg, &mut Judge::fast());
        let h = run.histogram();
        assert_eq!(h.iter().sum::<usize>(), run.cases.len());
        assert_eq!(h.len(), cfg.n + 1);
    }

    #[test]
    fn pass_at_filters_work() {
        let run = EvalRun {
            engine: "t".into(),
            cases: vec![
                CaseResult {
                    module: "a".into(),
                    categories: vec![BugCategory::Direct, BugCategory::Op],
                    bin: LengthBin::B50,
                    human: false,
                    c: 10,
                    n: 10,
                },
                CaseResult {
                    module: "b".into(),
                    categories: vec![BugCategory::Indirect, BugCategory::Var],
                    bin: LengthBin::B100,
                    human: true,
                    c: 0,
                    n: 10,
                },
            ],
        };
        assert_eq!(run.pass_at(1), 0.5);
        assert_eq!(run.pass_at_category(1, BugCategory::Direct), 1.0);
        assert_eq!(run.pass_at_category(1, BugCategory::Var), 0.0);
        assert_eq!(run.pass_at_bin(1, LengthBin::B50), 1.0);
        assert_eq!(run.pass_at_subset(1, true), 0.0);
        assert_eq!(run.pass_at_subset(1, false), 1.0);
    }
}

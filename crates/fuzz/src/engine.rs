//! The coverage-guided fuzzing loop.
//!
//! Rounds alternate between a seeded *scheduler* (parent selection,
//! mutation, dedup — cheap) and a lane-batched *executor* (the
//! simulations — the cost). Round results are merged in stimulus-index
//! order up to the first failure or error, and the corpus is updated in
//! that order, so a campaign is a pure function of `(design, options)`.
//! The lane width changes wall time only.

use crate::corpus::Corpus;
use crate::mutate::Mutator;
use asv_sim::cancel::{Budget, Exhausted, Stop};
use asv_sim::compile::CompiledDesign;
use asv_sim::cover::{CovMap, CoverageReport};
use asv_sim::exec::{SimError, Simulator};
use asv_sim::interp::AstSimulator;
use asv_sim::run_stimulus_group;
use asv_sim::stimulus::{Stimulus, StimulusGen};
use asv_sim::trace::Trace;
use asv_trace::{probe, Cost, SpanKind, TraceSink};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;
use std::sync::Arc;

/// Assertion evaluation plugged in by the caller (the SVA layer), keeping
/// property semantics out of this crate.
pub trait AssertionOracle: Sync {
    /// Number of assertion directives (sizes the antecedent coverage
    /// axis).
    fn assertions(&self) -> usize;

    /// Judges one trace, recording antecedent-fired events into `cov`.
    /// Returns `true` when any assertion failed on the trace.
    ///
    /// # Errors
    ///
    /// Returns a rendered monitor error (treated as fatal by the engine).
    fn failed(&self, trace: &Trace, cov: &mut CovMap) -> Result<bool, String>;
}

/// Fuzzing campaign configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FuzzOptions {
    /// Post-reset cycles per run.
    pub cycles: usize,
    /// Reset cycles at the head of every run.
    pub reset_cycles: usize,
    /// Total execution budget (number of simulated stimuli).
    pub budget: usize,
    /// Campaign seed; equal seeds reproduce the campaign exactly.
    pub seed: u64,
    /// Executions scheduled per round (scheduling granularity).
    pub batch: usize,
    /// Simulation lanes per bytecode pass (`asv_sim::LaneBatch`
    /// widths 8/16/32; anything else — including 1, the differential
    /// configuration — drains through the scalar executor). Results are
    /// bit-identical at every setting; only throughput changes.
    pub lanes: usize,
}

impl Default for FuzzOptions {
    fn default() -> Self {
        FuzzOptions {
            cycles: 12,
            reset_cycles: 2,
            budget: 256,
            seed: 0xF0_77E12,
            batch: 16,
            lanes: 16,
        }
    }
}

/// Outcome of a campaign.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FuzzVerdict {
    /// An assertion-violating stimulus was found (and replayed on the
    /// interpreter oracle).
    Failure {
        /// The violating stimulus.
        stimulus: Stimulus,
        /// Zero-based index of the violating run within the campaign.
        run_index: usize,
    },
    /// The budget was exhausted without a violation.
    NoFailure,
}

/// Result of a fuzzing campaign.
#[derive(Debug, Clone)]
pub struct FuzzResult {
    /// Failure or budget exhaustion.
    pub verdict: FuzzVerdict,
    /// Coverage accumulated over every merged run.
    pub coverage: CovMap,
    /// Percentage summary of `coverage`.
    pub report: CoverageReport,
    /// Stimuli actually executed and merged.
    pub runs: usize,
    /// Coverage-increasing stimuli retained.
    pub corpus_size: usize,
    /// Order-sensitive corpus fingerprint (determinism checks).
    pub corpus_fingerprint: u64,
}

/// Errors raised by the engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FuzzError {
    /// A stimulus failed to simulate (e.g. input-dependent combinational
    /// divergence).
    Sim(SimError),
    /// The assertion oracle failed (rendered monitor error).
    Oracle(String),
    /// A failing stimulus did not replay bit-identically on the
    /// interpreter oracle — a simulator bug, never a design property.
    OracleDivergence,
    /// The campaign's [`asv_sim::CancelToken`] was poisoned (the caller
    /// tore the work down); no verdict, never a wrong one.
    Cancelled,
    /// A [`Budget`] resource (deadline, fuzz-round cap) ran out before a
    /// verdict.
    Exhausted(Exhausted),
}

impl fmt::Display for FuzzError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FuzzError::Sim(e) => write!(f, "simulation error: {e}"),
            FuzzError::Oracle(m) => write!(f, "assertion oracle error: {m}"),
            FuzzError::OracleDivergence => {
                write!(f, "failure did not replay on the interpreter oracle")
            }
            FuzzError::Cancelled => write!(f, "fuzzing campaign cancelled"),
            FuzzError::Exhausted(e) => write!(f, "fuzzing campaign {e}"),
        }
    }
}

impl std::error::Error for FuzzError {}

impl From<SimError> for FuzzError {
    fn from(e: SimError) -> Self {
        FuzzError::Sim(e)
    }
}

impl From<Stop> for FuzzError {
    fn from(s: Stop) -> Self {
        match s {
            Stop::Cancelled => FuzzError::Cancelled,
            Stop::Exhausted(e) => FuzzError::Exhausted(e),
        }
    }
}

/// Judges one completed run, returning its coverage map and whether an
/// assertion failed.
fn judge<O: AssertionOracle>(
    oracle: &O,
    run: asv_sim::LaneRun,
) -> Result<(CovMap, bool), FuzzError> {
    let mut cov = run.coverage.expect("coverage was enabled");
    let failed = oracle
        .failed(&run.trace, &mut cov)
        .map_err(FuzzError::Oracle)?;
    Ok((cov, failed))
}

/// Replays `stim` on both backends and demands bit-identical traces: a
/// reported failure must be a property of the design, not an artefact of
/// the compiled simulator.
fn replay_on_interpreter(compiled: &Arc<CompiledDesign>, stim: &Stimulus) -> Result<(), FuzzError> {
    let mut csim = Simulator::from_compiled(Arc::clone(compiled));
    let mut isim = AstSimulator::new(compiled.design());
    for t in 0..stim.len() {
        csim.step(&stim.cycle(t))?;
        isim.step(&stim.cycle(t))?;
    }
    if csim.into_trace() == isim.into_trace() {
        Ok(())
    } else {
        Err(FuzzError::OracleDivergence)
    }
}

/// Per-stimulus execution outcome: the run's coverage map and whether an
/// assertion failed.
type RunOutcome = Result<(CovMap, bool), FuzzError>;

/// Executes one round's `batch` in lane groups, returning per-stimulus
/// results in index order up to and including the first failure or
/// error — later results could never be merged.
fn run_batch<O: AssertionOracle>(
    compiled: &Arc<CompiledDesign>,
    oracle: &O,
    batch: &[Stimulus],
    lanes: usize,
    budget: &Budget,
) -> Vec<RunOutcome> {
    let mut out = Vec::with_capacity(batch.len());
    for group in batch.chunks(lanes.max(1)) {
        // Per-group poll: a campaign cancelled mid-round stops before the
        // next lane group instead of finishing the round. In fault-free
        // unbounded runs this never fires, so the merge stays
        // bit-identical.
        if let Err(stop) = budget.check() {
            out.push(Err(stop.into()));
            return out;
        }
        for outcome in run_stimulus_group(compiled, group, lanes, Some(oracle.assertions()), false)
        {
            let r = match outcome {
                Ok(run) => judge(oracle, run),
                Err(e) => Err(e.into()),
            };
            let stop = matches!(&r, Err(_) | Ok((_, true)));
            out.push(r);
            if stop {
                return out;
            }
        }
    }
    out
}

/// Runs a coverage-guided fuzzing campaign against `compiled`.
///
/// Deterministic from [`FuzzOptions::seed`] regardless of
/// [`FuzzOptions::lanes`]. A found failure is always replayed on the
/// [`AstSimulator`] interpreter oracle before it is reported.
///
/// # Errors
///
/// Returns [`FuzzError`] on simulation failures, oracle failures, or a
/// failure that does not replay on the interpreter — always the
/// lowest-index event of the campaign.
pub fn fuzz<O: AssertionOracle>(
    compiled: &Arc<CompiledDesign>,
    oracle: &O,
    opts: &FuzzOptions,
) -> Result<FuzzResult, FuzzError> {
    fuzz_budgeted(compiled, oracle, opts, &Budget::unbounded())
}

/// [`fuzz`] under a full resource [`Budget`]: the round loop polls the
/// budget (token, deadline, fault probes) before every round and honours
/// the fuzz-round cap; the executor additionally polls token and
/// deadline before each lane group so a cancelled campaign stops
/// mid-round.
///
/// # Errors
///
/// As [`fuzz`], plus [`FuzzError::Cancelled`] for a poisoned token and a
/// structured [`FuzzError::Exhausted`] whenever a budget dimension runs
/// out before the campaign's own stimulus budget.
pub fn fuzz_budgeted<O: AssertionOracle>(
    compiled: &Arc<CompiledDesign>,
    oracle: &O,
    opts: &FuzzOptions,
    budget: &Budget,
) -> Result<FuzzResult, FuzzError> {
    let gen = StimulusGen::new(compiled.design());
    let mutator = Mutator::new(compiled, opts.reset_cycles);
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let mut corpus = Corpus::new();
    let mut coverage = CovMap::new(compiled, oracle.assertions());
    let batch_size = opts.batch.max(1);
    let mut runs = 0usize;
    let mut rounds = 0u64;
    let mut verdict = FuzzVerdict::NoFailure;

    let sink = budget.trace().clone();
    'campaign: while runs < opts.budget {
        // Poll before scheduling the round, not only inside it, so a
        // campaign cancelled between rounds never starts another batch.
        budget.check_fuzz_rounds(rounds)?;
        budget.probe(probe::FUZZ_ROUND)?;
        rounds += 1;
        // Cost accrues incrementally so the span stays honest on every
        // exit path (verdict, error, cancellation) via its drop guard.
        let mut round_span = sink.span(probe::FUZZ_ROUND, SpanKind::FuzzRound);
        round_span.set_code(rounds);
        round_span.add_cost(Cost {
            rounds: 1,
            ..Cost::default()
        });
        let n = batch_size.min(opts.budget - runs);
        let batch = schedule(&gen, &mutator, &mut corpus, &mut rng, n, opts);
        if opts.lanes > 1 {
            // Lane occupancy on a *scheduled* basis: the whole round's
            // grouping, emitted before it runs, so a round cut short by a
            // failure still reports the same counter.
            let batches = (batch.len().div_ceil(opts.lanes)) as u64;
            sink.instant(
                probe::SIM_BATCH,
                SpanKind::Batch,
                0,
                Cost {
                    batches,
                    lanes_occupied: batch.len() as u64,
                    lanes_total: batches * opts.lanes as u64,
                    ..Cost::default()
                },
            );
        }
        let results = run_batch(compiled, oracle, &batch, opts.lanes, budget);
        for (stim, result) in batch.iter().zip(results) {
            let (cov, failed) = result?;
            let new_points = coverage.merge(&cov);
            runs += 1;
            round_span.add_cost(Cost {
                stimuli: 1,
                ..Cost::default()
            });
            if failed {
                replay_on_interpreter(compiled, stim)?;
                verdict = FuzzVerdict::Failure {
                    stimulus: stim.clone(),
                    run_index: runs - 1,
                };
                break 'campaign;
            }
            if new_points > 0 {
                corpus.add(stim.clone(), new_points);
            }
        }
    }

    Ok(FuzzResult {
        report: CoverageReport::of(&coverage),
        verdict,
        runs,
        corpus_size: corpus.len(),
        corpus_fingerprint: corpus.fingerprint(),
        coverage,
    })
}

/// Produces one round's candidate stimuli: seeded randoms while the corpus
/// is empty (plus a standing exploration share), energy-weighted parents
/// with mutation and occasional crossover afterwards, deduplicated
/// against everything scheduled so far.
fn schedule(
    gen: &StimulusGen,
    mutator: &Mutator,
    corpus: &mut Corpus,
    rng: &mut StdRng,
    n: usize,
    opts: &FuzzOptions,
) -> Vec<Stimulus> {
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let mut stim = if corpus.is_empty() || rng.gen::<u64>() % 8 == 0 {
            gen.random(opts.cycles, opts.reset_cycles, rng)
        } else {
            let mut child = if corpus.len() >= 2 && rng.gen::<u64>() % 4 == 0 {
                let a = corpus.pick(rng).clone();
                let b = corpus.pick(rng).clone();
                mutator.crossover(&a, &b, rng)
            } else {
                corpus.pick(rng).clone()
            };
            mutator.mutate(&mut child, rng);
            child
        };
        for _ in 0..3 {
            if corpus.note(&stim) {
                break;
            }
            // Already scheduled once: push the child further out.
            mutator.mutate(&mut stim, rng);
        }
        out.push(stim);
    }
    out
}

/// Greedy coverage-novelty ranking of a stimulus set: repeatedly selects
/// the stimulus adding the most not-yet-covered points (ties to the
/// lowest index). Returns `(stimulus index, marginal points)` in selection
/// order — the scenario-diversity signal the datagen/eval pipeline uses
/// to favour diverse traces.
///
/// # Errors
///
/// Propagates [`FuzzError::Sim`] when a stimulus fails to simulate.
pub fn novelty_rank(
    compiled: &Arc<CompiledDesign>,
    stimuli: &[Stimulus],
) -> Result<Vec<(usize, usize)>, FuzzError> {
    let mut covs = Vec::with_capacity(stimuli.len());
    for stim in stimuli {
        let mut sim = Simulator::from_compiled(Arc::clone(compiled));
        sim.enable_coverage(0);
        for t in 0..stim.len() {
            sim.step(&stim.cycle(t))?;
        }
        covs.push(sim.into_trace_and_coverage().1.expect("coverage enabled"));
    }
    let mut acc = CovMap::new(compiled, 0);
    let mut remaining: Vec<usize> = (0..stimuli.len()).collect();
    let mut out = Vec::with_capacity(stimuli.len());
    while !remaining.is_empty() {
        let (pos, best, gain) = remaining
            .iter()
            .enumerate()
            .map(|(pos, &i)| (pos, i, acc.new_points(&covs[i])))
            .max_by(|a, b| a.2.cmp(&b.2).then(b.1.cmp(&a.1)))
            .expect("non-empty remaining");
        acc.merge(&covs[best]);
        out.push((best, gain));
        remaining.remove(pos);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An oracle for tests that flags a failure whenever the named signal
    /// samples 1 after reset.
    struct SignalHigh {
        col: usize,
    }

    impl AssertionOracle for SignalHigh {
        fn assertions(&self) -> usize {
            1
        }
        fn failed(&self, trace: &Trace, cov: &mut CovMap) -> Result<bool, String> {
            cov.record_antecedent(0);
            Ok((0..trace.len()).any(|t| trace.get(t, self.col).is_truthy()))
        }
    }

    const RARE: &str = "module r(input clk, input rst_n, input [7:0] a, output reg hit);\n\
         always @(posedge clk or negedge rst_n) begin\n\
           if (!rst_n) hit <= 1'b0; else hit <= (a == 8'hA5);\n\
         end\nendmodule";

    fn compiled(src: &str) -> Arc<CompiledDesign> {
        Arc::new(CompiledDesign::compile(
            &asv_verilog::compile(src).expect("compile"),
        ))
    }

    fn rare_oracle(cd: &Arc<CompiledDesign>) -> SignalHigh {
        SignalHigh {
            col: cd.sig("hit").expect("hit").idx(),
        }
    }

    #[test]
    fn dictionary_guided_fuzzing_hits_the_magic_value() {
        let cd = compiled(RARE);
        let oracle = rare_oracle(&cd);
        let opts = FuzzOptions {
            budget: 512,
            seed: 11,
            ..FuzzOptions::default()
        };
        let res = fuzz(&cd, &oracle, &opts).expect("fuzz");
        let FuzzVerdict::Failure { stimulus, .. } = res.verdict else {
            panic!("dictionary mutation must find a == 8'hA5 within budget");
        };
        assert!(
            stimulus
                .vectors
                .iter()
                .any(|v| v.iter().any(|(n, x)| n == "a" && *x == 0xA5)),
            "the failing stimulus must contain the trigger"
        );
    }

    #[test]
    fn campaign_is_deterministic_across_lane_widths() {
        let cd = compiled(RARE);
        let oracle = rare_oracle(&cd);
        let base = FuzzOptions {
            budget: 96,
            seed: 3,
            ..FuzzOptions::default()
        };
        let scalar = fuzz(&cd, &oracle, &FuzzOptions { lanes: 1, ..base }).expect("scalar");
        for lanes in [8, 16, 32] {
            let batched = fuzz(&cd, &oracle, &FuzzOptions { lanes, ..base })
                .unwrap_or_else(|e| panic!("lanes={lanes}: {e}"));
            assert_eq!(scalar.verdict, batched.verdict, "lanes={lanes}");
            assert_eq!(scalar.runs, batched.runs, "lanes={lanes}");
            assert_eq!(scalar.coverage, batched.coverage, "lanes={lanes}");
            assert_eq!(
                scalar.corpus_fingerprint, batched.corpus_fingerprint,
                "lanes={lanes}"
            );
        }
    }

    #[test]
    fn poisoned_token_stops_the_campaign_promptly() {
        let cd = compiled(RARE);
        let oracle = rare_oracle(&cd);
        let token = asv_sim::CancelToken::new();
        token.cancel();
        let poisoned = Budget::unbounded().with_cancel(token);
        let opts = FuzzOptions {
            budget: 1 << 20, // far more than a test could ever run
            seed: 5,
            ..FuzzOptions::default()
        };
        let start = std::time::Instant::now();
        let res = fuzz_budgeted(&cd, &oracle, &opts, &poisoned);
        assert!(matches!(res, Err(FuzzError::Cancelled)), "got {res:?}");
        assert!(
            start.elapsed() < std::time::Duration::from_secs(5),
            "cancellation must stop the campaign within one round"
        );
        // An un-poisoned token changes nothing.
        let live = Budget::unbounded().with_cancel(asv_sim::CancelToken::new());
        let small = FuzzOptions {
            budget: 32,
            seed: 5,
            ..FuzzOptions::default()
        };
        let a = fuzz_budgeted(&cd, &oracle, &small, &live).expect("runs");
        let b = fuzz(&cd, &oracle, &small).expect("runs");
        assert_eq!(a.verdict, b.verdict);
        assert_eq!(a.corpus_fingerprint, b.corpus_fingerprint);
    }

    #[test]
    fn round_cap_reports_structured_exhaustion() {
        let cd = compiled(RARE);
        let oracle = rare_oracle(&cd);
        let opts = FuzzOptions {
            budget: 1 << 20,
            seed: 5,
            ..FuzzOptions::default()
        };
        let budget = Budget::unbounded().with_max_fuzz_rounds(2);
        match fuzz_budgeted(&cd, &oracle, &opts, &budget) {
            Err(FuzzError::Exhausted(e)) => {
                assert_eq!(e.resource, asv_sim::Resource::FuzzRounds);
                assert_eq!(e.spent, 2);
                assert_eq!(e.limit, 2);
            }
            other => panic!("expected round exhaustion, got {other:?}"),
        }
    }

    #[test]
    fn expired_manual_deadline_stops_within_one_round() {
        // Injected clock ticks, no sleeps: the deadline is already
        // expired when the campaign starts, so the very first round poll
        // must stop it.
        let cd = compiled(RARE);
        let oracle = rare_oracle(&cd);
        let clock = asv_sim::ManualClock::new();
        let budget = Budget::unbounded().with_manual_deadline(clock.clone(), 7);
        clock.advance(8);
        let opts = FuzzOptions {
            budget: 1 << 20,
            seed: 5,
            ..FuzzOptions::default()
        };
        match fuzz_budgeted(&cd, &oracle, &opts, &budget) {
            Err(FuzzError::Exhausted(e)) => {
                assert_eq!(e.resource, asv_sim::Resource::WallClock);
                assert_eq!(e.spent, 8);
                assert_eq!(e.limit, 7);
            }
            other => panic!("expected deadline exhaustion, got {other:?}"),
        }
    }

    #[test]
    fn roomy_budget_matches_unbounded_campaign() {
        let cd = compiled(RARE);
        let oracle = rare_oracle(&cd);
        let opts = FuzzOptions {
            budget: 64,
            seed: 3,
            ..FuzzOptions::default()
        };
        let roomy = Budget::unbounded().with_max_fuzz_rounds(1 << 30);
        let a = fuzz_budgeted(&cd, &oracle, &opts, &roomy).expect("runs");
        let b = fuzz(&cd, &oracle, &opts).expect("runs");
        assert_eq!(a.verdict, b.verdict);
        assert_eq!(a.runs, b.runs);
        assert_eq!(a.corpus_fingerprint, b.corpus_fingerprint);
    }

    #[test]
    fn no_failure_reports_coverage_and_exhausted_budget() {
        let cd = compiled(
            "module ok(input clk, input rst_n, input [3:0] a, output reg [3:0] q);\n\
             always @(posedge clk or negedge rst_n) begin\n\
               if (!rst_n) q <= 4'd0; else q <= a;\n\
             end\nendmodule",
        );
        struct Never;
        impl AssertionOracle for Never {
            fn assertions(&self) -> usize {
                0
            }
            fn failed(&self, _: &Trace, _: &mut CovMap) -> Result<bool, String> {
                Ok(false)
            }
        }
        let opts = FuzzOptions {
            budget: 40,
            seed: 1,
            ..FuzzOptions::default()
        };
        let res = fuzz(&cd, &Never, &opts).expect("fuzz");
        assert_eq!(res.verdict, FuzzVerdict::NoFailure);
        assert_eq!(res.runs, 40);
        assert!(res.report.toggle_pct() > 50.0, "got {}", res.report);
        assert!(res.corpus_size >= 1, "coverage-increasing runs retained");
    }

    #[test]
    fn novelty_rank_prefers_fresh_coverage() {
        let cd = compiled(RARE);
        let gen = StimulusGen::new(cd.design());
        // Two identical stimuli and one distinct: the distinct one must
        // rank in the top two, and a duplicate must contribute 0 last.
        let a = gen.random_seeded(6, 2, 1);
        let b = gen.random_seeded(6, 2, 9);
        let ranked = novelty_rank(&cd, &[a.clone(), a, b]).expect("rank");
        assert_eq!(ranked.len(), 3);
        assert!(ranked[0].1 > 0);
        let last = ranked[2];
        assert_eq!(last.1, 0, "a duplicate adds nothing: {ranked:?}");
        let firsts: Vec<usize> = ranked.iter().map(|r| r.0).collect();
        assert!(firsts.contains(&2), "distinct stimulus must be ranked");
    }
}

//! Differential tests for the lane-batched SoA executor
//! (`asv_sim::compile::batch`): running K stimuli per bytecode pass must
//! be **bit-identical** per lane to running each stimulus through the
//! scalar [`Simulator`] — traces, coverage maps, op tallies and errors,
//! at every supported lane width, for ragged tail groups and for groups
//! where some lanes error mid-batch.
//!
//! Sources of truth compared:
//!
//! * all 12 datagen archetypes at two size hints (golden designs);
//! * injected mutants of each archetype (buggy designs, richer branch
//!   divergence);
//! * handwritten stress modules covering the trickier lowering paths
//!   (concat lvalues, dynamic bit selects, incomplete comb blocks /
//!   fixpoint settling, faulting division);
//! * the fuzzer campaign: corpus admission order, coverage, run counts
//!   and verdicts must not depend on the lane width;
//! * the enumerated verification verdict: the batched sweep must report
//!   the same first-failing stimulus the scalar sweep would have.
//!
//! [`Simulator`]: asv_sim::Simulator

use asv_datagen::corpus::{Archetype, CorpusGen, SizeHint};
use asv_fuzz::{fuzz, AssertionOracle, FuzzOptions};
use asv_sim::cover::CovMap;
use asv_sim::{
    run_stimulus_group, run_stimulus_scalar, CompiledDesign, Stimulus, StimulusGen, Trace,
    LANE_WIDTHS,
};
use asv_sva::bmc::{Engine, Verdict, Verifier};
use asv_sva::monitor::{CheckOutcome, CompiledChecker};
use asv_verilog::sema::Design;
use std::sync::Arc;

const RESET_CYCLES: usize = 2;

/// The SVA checker bridged into the fuzzer, as `asv-sva` wires it.
struct Oracle<'a> {
    checker: &'a CompiledChecker,
}

impl AssertionOracle for Oracle<'_> {
    fn assertions(&self) -> usize {
        self.checker.assertion_count()
    }
    fn failed(&self, trace: &Trace, cov: &mut CovMap) -> Result<bool, String> {
        let out = self
            .checker
            .outcomes_cov(trace, cov)
            .map_err(|e| e.to_string())?;
        Ok(out.iter().any(|(_, o)| o.is_failure()))
    }
}

/// Chunks `stimuli` into lane groups at width `lanes`, runs each group
/// through the batched executor, and asserts every lane's outcome equals
/// the scalar run of that stimulus: same trace, same coverage map, same
/// op tally, or the same error. Returns the number of errored lanes.
fn assert_batched_matches_scalar(
    compiled: &Arc<CompiledDesign>,
    stimuli: &[Stimulus],
    lanes: usize,
    assertions: Option<usize>,
    label: &str,
) -> usize {
    let mut errored = 0usize;
    for (g, group) in stimuli.chunks(lanes).enumerate() {
        let batched = run_stimulus_group(compiled, group, lanes, assertions, true);
        assert_eq!(
            batched.len(),
            group.len(),
            "{label}: K={lanes} group {g}: one outcome per stimulus"
        );
        for (l, outcome) in batched.iter().enumerate() {
            let scalar = run_stimulus_scalar(compiled, &group[l], assertions, true);
            assert_eq!(
                *outcome, scalar,
                "{label}: K={lanes} group {g} lane {l} diverged from scalar"
            );
            errored += usize::from(outcome.is_err());
        }
    }
    errored
}

fn archetype_designs(seed: u64, hint: SizeHint) -> Vec<(String, Design)> {
    let gen = CorpusGen::new(seed);
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed ^ 0x9E37);
    let mut out = Vec::new();
    for (i, arch) in Archetype::ALL.iter().enumerate() {
        let gd = gen.instantiate(*arch, i, hint, &mut rng);
        let design = asv_verilog::compile(&gd.source)
            .unwrap_or_else(|e| panic!("{arch}: golden source must compile: {e}"));
        out.push((format!("{arch}"), design));
    }
    out
}

fn checker_for(compiled: &Arc<CompiledDesign>, design: &Design) -> CompiledChecker {
    let col = |name: &str| compiled.sig(name).map(|s| s.idx());
    CompiledChecker::new(&design.module, col).expect("checker")
}

/// `count` random stimuli; when `ragged_len` is set, every third stimulus
/// is shortened so lanes inside one group finish at different ticks.
fn stimuli_for(design: &Design, count: usize, cycles: usize, ragged_len: bool) -> Vec<Stimulus> {
    let gen = StimulusGen::new(design);
    (0..count)
        .map(|i| {
            let c = if ragged_len && i % 3 == 1 {
                cycles / 2 + 1
            } else {
                cycles
            };
            gen.random_seeded(c, RESET_CYCLES, 0xBA7C4 ^ i as u64)
        })
        .collect()
}

#[test]
fn archetypes_batched_match_scalar_at_all_lane_widths() {
    for hint in [
        SizeHint {
            stages: 1,
            width: 3,
        },
        SizeHint {
            stages: 3,
            width: 8,
        },
    ] {
        for (label, design) in archetype_designs(0xD1FF, hint) {
            let compiled = Arc::new(CompiledDesign::compile(&design));
            let checker = checker_for(&compiled, &design);
            // 2×32 + 5: a ragged tail group at every supported width.
            let stimuli = stimuli_for(&design, 69, 24, true);
            for lanes in LANE_WIDTHS {
                assert_batched_matches_scalar(
                    &compiled,
                    &stimuli,
                    lanes,
                    Some(checker.assertion_count()),
                    &label,
                );
            }
        }
    }
}

#[test]
fn mutated_archetypes_batched_match_scalar() {
    let mut compared = 0usize;
    for (label, design) in archetype_designs(
        0x5EED,
        SizeHint {
            stages: 2,
            width: 4,
        },
    ) {
        for (mi, mutation) in asv_mutation::enumerate(&design).iter().take(3).enumerate() {
            let Ok(injection) = asv_mutation::apply(&design, mutation) else {
                continue;
            };
            let Ok(buggy) = asv_verilog::compile(&injection.buggy_source) else {
                continue; // corrupting mutations are screened elsewhere
            };
            let compiled = Arc::new(CompiledDesign::compile(&buggy));
            let checker = checker_for(&compiled, &buggy);
            let stimuli = stimuli_for(&buggy, 21, 16, true);
            for lanes in [8usize, 16] {
                assert_batched_matches_scalar(
                    &compiled,
                    &stimuli,
                    lanes,
                    Some(checker.assertion_count()),
                    &format!("{label}/mut{mi}"),
                );
            }
            compared += 1;
        }
    }
    assert!(
        compared >= 20,
        "expected a meaningful mutant sample, compared only {compared}"
    );
}

#[test]
fn stress_modules_batched_match_scalar() {
    // The lowering paths with bespoke lane handling: concat lvalues fall
    // back per lane, dynamic bit selects evaluate index programs per
    // lane, the incomplete comb block settles by per-lane fixpoint, and
    // division faults per lane.
    let modules: &[(&str, &str)] = &[
        (
            "concat_lvalue",
            "module m(input clk, input [3:0] a, input [3:0] b,\n\
             output reg [3:0] hi, output reg [3:0] lo);\n\
             always @(posedge clk) {hi, lo} <= {a, b} + 8'd3;\nendmodule",
        ),
        (
            "bit_select_rmw",
            "module m(input clk, input [2:0] i, input v, output reg [7:0] y);\n\
             always @(posedge clk) y[i] <= v;\nendmodule",
        ),
        (
            "latch_style_comb",
            "module m(input en, input [3:0] d, output reg [3:0] q, output [3:0] y);\n\
             always @(*) begin if (en) q = d; end\n\
             assign y = q + 4'd1;\nendmodule",
        ),
        (
            "case_with_defaults",
            "module m(input [1:0] op, input [3:0] a, input [3:0] b, output reg [3:0] y);\n\
             always @(*) begin\n\
               case (op)\n\
                 2'd0: y = a + b;\n\
                 2'd1: y = a - b;\n\
                 2'd2: y = a & b;\n\
                 default: y = a ^ b;\n\
               endcase\n\
             end\nendmodule",
        ),
        (
            "division_can_fault",
            "module m(input [3:0] a, input [3:0] b, output [3:0] y);\n\
             assign y = a / b;\nendmodule",
        ),
    ];
    for (name, src) in modules {
        let design = asv_verilog::compile(src)
            .unwrap_or_else(|e| panic!("{name}: stress module must compile: {e}"));
        let compiled = Arc::new(CompiledDesign::compile(&design));
        let stimuli = stimuli_for(&design, 37, 20, true);
        for lanes in LANE_WIDTHS {
            assert_batched_matches_scalar(&compiled, &stimuli, lanes, None, name);
        }
    }
}

#[test]
fn mid_batch_lane_errors_match_scalar_error_ordering() {
    // Divide-by-zero whenever `en && b == 0` (the enable keeps the
    // all-zero reset cycles from faulting every stimulus — the ternary
    // is lazy): at 1/32 per cycle over 20 cycles, some lanes fault at
    // some tick while others complete. Every lane must report exactly
    // the scalar outcome for its stimulus — the first error of the
    // lane, at the same tick, never an error leaked in from a
    // neighbouring lane.
    let src = "module m(input clk, input en, input [3:0] a, input [3:0] b,\n\
               output reg [3:0] y);\n\
               always @(posedge clk) y <= en ? (a / b) : 4'd0;\nendmodule";
    let design = asv_verilog::compile(src).expect("compile");
    let compiled = Arc::new(CompiledDesign::compile(&design));
    let stimuli = stimuli_for(&design, 35, 20, false);
    for lanes in LANE_WIDTHS {
        let errored = assert_batched_matches_scalar(&compiled, &stimuli, lanes, None, "div_fault");
        assert!(
            errored > 0 && errored < stimuli.len(),
            "K={lanes}: the batch must mix surviving and errored lanes \
             ({errored}/{} errored) for the ordering check to bite",
            stimuli.len()
        );
    }
}

#[test]
fn fuzz_campaign_identical_across_lane_widths_and_workers() {
    let (_, design) = archetype_designs(
        31,
        SizeHint {
            stages: 2,
            width: 3,
        },
    )
    .swap_remove(5); // FifoCtrl
    let compiled = Arc::new(CompiledDesign::compile(&design));
    let checker = checker_for(&compiled, &design);
    let oracle = Oracle { checker: &checker };
    let base = FuzzOptions {
        cycles: 10,
        reset_cycles: RESET_CYCLES,
        budget: 96,
        seed: 0xDEED,
        ..FuzzOptions::default()
    };
    // Reference: scalar drain (lanes: 1).
    let reference =
        fuzz(&compiled, &oracle, &FuzzOptions { lanes: 1, ..base }).expect("reference fuzz");
    for lanes in [1usize, 8, 16, 32] {
        let got = fuzz(&compiled, &oracle, &FuzzOptions { lanes, ..base }).expect("batched fuzz");
        let tag = format!("lanes={lanes}");
        assert_eq!(got.verdict, reference.verdict, "{tag}: verdict");
        assert_eq!(got.runs, reference.runs, "{tag}: run count");
        assert_eq!(got.coverage, reference.coverage, "{tag}: coverage map");
        assert_eq!(got.corpus_size, reference.corpus_size, "{tag}: corpus size");
        assert_eq!(
            got.corpus_fingerprint, reference.corpus_fingerprint,
            "{tag}: corpus admission order"
        );
    }
}

#[test]
fn enumerated_verdict_reports_the_scalar_first_failure() {
    // A buggy latch (q follows !d): the enumerated sweep fails on some
    // stimulus. The batched sweep simulates whole lane groups at once but
    // must still report the *lowest-index* failing stimulus — recompute
    // it here with the scalar runner over the same enumeration order.
    let src = r#"
module latch1(input clk, input rst_n, input d, output reg q);
  always @(posedge clk or negedge rst_n) begin
    if (!rst_n) q <= 1'b0;
    else q <= !d;
  end
  property follow;
    @(posedge clk) disable iff (!rst_n) d |-> ##1 q;
  endproperty
  chk: assert property (follow) else $error("q must follow d");
endmodule
"#;
    let depth = 6usize;
    let design = asv_verilog::compile(src).expect("compile");
    let compiled = Arc::new(CompiledDesign::compile(&design));
    let checker = checker_for(&compiled, &design);
    let gen = StimulusGen::new(&design);
    let all = gen
        .exhaustive(depth, RESET_CYCLES, 1 << 15)
        .expect("enumerable input space");
    let expected = all
        .iter()
        .find(|stim| {
            let run = run_stimulus_scalar(&compiled, stim, None, false).expect("scalar run");
            checker
                .outcomes(&run.trace)
                .expect("monitor")
                .iter()
                .any(|(_, o)| matches!(o, CheckOutcome::Failed(_)))
        })
        .expect("the buggy design must fail on some enumerated stimulus");
    let verifier = Verifier {
        depth,
        reset_cycles: RESET_CYCLES,
        exhaustive_limit: 1 << 15,
        engine: Engine::Simulation,
        ..Verifier::default()
    };
    match verifier.check(&design).expect("verify") {
        Verdict::Fails(cex) => assert_eq!(
            &cex.stimulus, expected,
            "batched enumeration must report the scalar sweep's first failure"
        ),
        other => panic!("buggy design must fail, got {other:?}"),
    }
}

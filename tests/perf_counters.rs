//! End-to-end enforcement of the cost-counter determinism contract
//! (`asv_trace::cost`): the **full** [`CostCounters`] vector folded
//! from a traced mixed 64-job batch must be bit-identical across
//! worker counts {1, 2, 8} and across reruns at the same worker count.
//!
//! Counters count *work*, not time — wall clock is excluded by
//! construction (it lives in event timestamps, which the fold never
//! reads). The harness pre-warms the compile cache before each traced
//! leg (see `asv_bench::perf::batch_counters`), which is the one
//! scheduling-dependent source the contract documents.
//!
//! [`CostCounters`]: asv_trace::CostCounters

use asv_bench::perf::{batch_counters, mixed_batch};
use asv_serve::VerifyJob;
use asv_sva::bmc::{Engine, Verifier};
use asv_trace::CostCounters;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// The counter harness clears and pre-warms the process-wide compile
/// cache, so the tests in this binary take turns: one test's clear must
/// never land inside another's traced leg.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Re-runs `jobs` at 2 and 8 workers and demands the 1-worker
/// `reference` vector bit-for-bit.
fn assert_identical_at_more_workers(jobs: &[VerifyJob], reference: &CostCounters) {
    for workers in [2usize, 8] {
        let (counters, _) = batch_counters(jobs, workers);
        assert_eq!(
            &counters,
            reference,
            "counters drifted at {workers} workers:\n  1 worker: {}\n  {workers} workers: {}",
            reference.to_json(),
            counters.to_json()
        );
    }
}

#[test]
fn counters_bit_identical_across_workers_and_reruns() {
    let _turn = serial();
    let jobs = mixed_batch();
    assert_eq!(jobs.len(), 64, "the contract is stated over a 64-job batch");

    let (reference, events) = batch_counters(&jobs, 1);
    assert!(!events.is_empty(), "traced batch must produce events");

    // The batch must exercise enough machinery for equality to mean
    // something: engines ran, the sequential simulator counted ops,
    // several engine families and the memo pipeline were touched.
    assert!(reference.jobs_executed > 0, "cold batch must execute jobs");
    assert!(reference.compiles + reference.compile_cache_hits > 0);
    assert!(
        reference.ops > 0,
        "enumeration jobs must count bytecode ops"
    );
    assert!(
        reference.conflicts + reference.propagations > 0,
        "symbolic jobs must touch the CDCL core"
    );
    assert!(reference.fuzz_rounds > 0, "fuzz jobs must run rounds");
    // Lane-batched simulation accounting is scheduled-basis (a pure
    // function of each rung's stimulus count), so it participates in
    // the bit-identity contract like any other work counter.
    assert!(
        reference.sim_batches > 0,
        "batched rungs must count lane batches"
    );
    assert!(
        reference.sim_lanes_occupied > 0
            && reference.sim_lanes_occupied <= reference.sim_lanes_total,
        "lane occupancy must be positive and bounded by capacity"
    );
    assert!(
        reference.rungs_symbolic + reference.rungs_enumeration + reference.rungs_fuzz > 0,
        "ladder rungs must be attributed"
    );

    assert_identical_at_more_workers(&jobs, &reference);

    // Rerun at a fixed worker count: same process, warm caches cleared
    // by the helper — still bit-identical.
    let (again, _) = batch_counters(&jobs, 8);
    assert_eq!(
        again,
        reference,
        "counters drifted across reruns:\n  first: {}\n  rerun: {}",
        reference.to_json(),
        again.to_json()
    );
}

/// A registered adder on a 10-bit input: over 6 cycles the input space
/// is far past any enumeration limit, so `Engine::Simulation` samples.
/// `increment` 1 holds; anything else fails on almost every stimulus.
fn wide_adder(increment: u32) -> asv_verilog::Design {
    asv_verilog::compile(&format!(
        "module wsum(input clk, input rst_n, input [9:0] a, output reg [9:0] s);\n\
         always @(posedge clk or negedge rst_n) begin\n\
           if (!rst_n) s <= 10'd0; else s <= a + 10'd{increment};\n\
         end\n\
         p_sum: assert property (@(posedge clk) disable iff (!rst_n)\n\
           1'b1 |-> ##1 s == $past(a, 1) + 10'd1) else $error(\"bad sum\");\n\
         endmodule"
    ))
    .expect("wide adder compiles")
}

#[test]
fn sampling_counters_bit_identical_across_workers() {
    // Holding and failing wide-input designs at several seeds and run
    // counts (ragged lane groups included), all on the sampling rung.
    let mut jobs = Vec::new();
    for (increment, runs) in [(1, 40), (2, 40), (1, 17), (3, 33)] {
        let design = wide_adder(increment);
        for seed in 0..4u64 {
            let verifier = Verifier {
                depth: 6,
                random_runs: runs,
                seed,
                engine: Engine::Simulation,
                ..Verifier::default()
            };
            jobs.push(VerifyJob::new(design.clone(), verifier));
        }
    }
    let _turn = serial();
    let (reference, _) = batch_counters(&jobs, 1);
    assert_eq!(
        reference.rungs_sampling,
        jobs.len() as u64,
        "every job must reach the sampling rung"
    );
    assert_eq!(reference.rungs_enumeration, 0, "nothing may enumerate");
    assert!(reference.sample_stimuli > 0 && reference.sim_batches > 0);
    assert_identical_at_more_workers(&jobs, &reference);
}

//! Chaos suite: the verification service under deterministic fault
//! injection (`--features fault-inject`).
//!
//! A seeded [`FaultPlan`] makes engine probe points panic, stall, report
//! spurious cancellations, or fake budget exhaustion — on a deterministic
//! schedule that is a pure function of `(plan, job key)`. The suite pins
//! the service's fault-tolerance contract:
//!
//! * every chaotic batch **terminates** and fills every outcome slot;
//! * jobs the plan does not target are **bit-identical** to a fault-free
//!   run — fault isolation is per job, not per batch;
//! * the verdict memo is never poisoned: degraded outcomes (inconclusive
//!   verdicts, panics, cancellations, exhaustion) are not cached, and
//!   every cached entry for an untargeted job equals the fault-free
//!   outcome;
//! * the same `(seed, plan)` reproduces the same outcome vector across
//!   worker counts {1, 2, 8}.

#![cfg(feature = "fault-inject")]

use asv_serve::{JobOutcome, ServeOptions, VerdictError, VerifyJob, VerifyService};
use asv_sim::fault::silence_injected_panics;
use asv_sim::{FaultKinds, FaultPlan};
use asv_sva::bmc::{Engine, Verdict, Verifier};

/// A dozen small designs, mixing holding and failing ones, distinct
/// enough that every job gets its own key (and thus its own fault salt).
fn jobs(engine: Engine) -> Vec<VerifyJob> {
    let verifier = Verifier {
        depth: 6,
        engine,
        ..Verifier::default()
    };
    (0..12)
        .map(|i| {
            let follow = i % 3 != 0;
            let rhs = if follow { "d" } else { "!d" };
            let design = asv_verilog::compile(&format!(
                "module m{i}(input clk, input rst_n, input d, output reg q);\n\
                 always @(posedge clk or negedge rst_n) begin\n\
                   if (!rst_n) q <= 1'b0; else q <= {rhs};\n\
                 end\n\
                 p: assert property (@(posedge clk) disable iff (!rst_n) d |-> ##1 q);\n\
                 endmodule"
            ))
            .expect("compile");
            VerifyJob::new(design, verifier)
        })
        .collect()
}

fn run(workers: usize, plan: Option<FaultPlan>, jobs: &[VerifyJob]) -> Vec<JobOutcome> {
    let service = VerifyService::new(ServeOptions {
        workers,
        fault_plan: plan,
        ..ServeOptions::default()
    });
    service.verify_batch(jobs)
}

/// True for outcomes that depend on the budget or injected faults —
/// exactly what the service refuses to memoise.
fn degraded(outcome: &JobOutcome) -> bool {
    matches!(
        outcome,
        Ok(Verdict::Inconclusive { .. })
            | Err(VerdictError::Panic(_))
            | Err(VerdictError::Cancelled)
            | Err(VerdictError::Exhausted(_))
    )
}

#[test]
fn chaotic_batches_terminate_and_spare_untargeted_jobs() {
    silence_injected_panics();
    let batch = jobs(Engine::Auto);
    let clean = run(1, None, &batch);
    assert!(clean.iter().all(|o| o.is_ok()), "reference run is healthy");
    let mut any_fault_landed = false;
    for seed in [1, 2, 3] {
        let plan = FaultPlan {
            rate_per_1024: 256,
            ..FaultPlan::new(seed)
        };
        let chaotic = run(2, Some(plan), &batch);
        assert_eq!(chaotic.len(), batch.len(), "every slot must be filled");
        for (i, job) in batch.iter().enumerate() {
            let salt = job.key().fault_salt();
            if plan.is_victim(salt) {
                any_fault_landed |= chaotic[i] != clean[i];
            } else {
                assert_eq!(
                    chaotic[i], clean[i],
                    "seed {seed}, job {i}: untargeted job diverged from the fault-free run"
                );
            }
        }
    }
    assert!(
        any_fault_landed,
        "at 1/4 probe rate across three seeds, some fault must actually land"
    );
}

#[test]
fn same_plan_reproduces_across_worker_counts() {
    silence_injected_panics();
    let batch = jobs(Engine::Auto);
    for seed in [7, 0xC0FFEE] {
        let plan = FaultPlan {
            rate_per_1024: 256,
            ..FaultPlan::new(seed)
        };
        let reference = run(1, Some(plan), &batch);
        for workers in [2, 8] {
            assert_eq!(
                run(workers, Some(plan), &batch),
                reference,
                "seed {seed:#x}: outcome vector changed with {workers} workers"
            );
        }
    }
}

#[test]
fn degraded_outcomes_never_enter_the_verdict_memo() {
    silence_injected_panics();
    let batch = jobs(Engine::Auto);
    let clean = run(1, None, &batch);
    for seed in [5, 9] {
        let plan = FaultPlan {
            rate_per_1024: 512,
            ..FaultPlan::new(seed)
        };
        let service = VerifyService::new(ServeOptions {
            workers: 4,
            fault_plan: Some(plan),
            ..ServeOptions::default()
        });
        let chaotic = service.verify_batch(&batch);
        for (i, job) in batch.iter().enumerate() {
            let key = job.key();
            let cached = service.verdict_cache().get(key);
            if degraded(&chaotic[i]) {
                assert_eq!(
                    cached, None,
                    "seed {seed}, job {i}: degraded outcome {:?} was memoised",
                    chaotic[i]
                );
            }
            if let Some(got) = cached {
                assert!(
                    !degraded(&got),
                    "seed {seed}, job {i}: memo holds a degraded outcome {got:?}"
                );
                if !plan.is_victim(key.fault_salt()) {
                    assert_eq!(
                        got, clean[i],
                        "seed {seed}, job {i}: memo poisoned for an untargeted job"
                    );
                }
            }
        }
    }
}

#[test]
fn all_panic_plans_cannot_take_the_service_down() {
    silence_injected_panics();
    let plan = FaultPlan {
        rate_per_1024: 1024,
        victims_per_16: 16,
        kinds: FaultKinds::PANIC,
        ..FaultPlan::new(13)
    };
    // Auto jobs ride the degradation ladder past every injected panic;
    // forced-engine jobs surface the panic in their own slot. Either
    // way the batch completes and the service stays usable.
    for engine in [Engine::Auto, Engine::Fuzz] {
        let batch = jobs(engine);
        let out = run(2, Some(plan), &batch);
        assert_eq!(out.len(), batch.len());
        for (i, o) in out.iter().enumerate() {
            assert!(
                degraded(o),
                "{engine:?} job {i}: a fire-every-probe panic plan must degrade it, got {o:?}"
            );
        }
    }
}

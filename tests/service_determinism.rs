//! Service determinism suite: the `asv-serve` verdict vector is a pure
//! function of the submitted batch.
//!
//! Over golden + mutated designs of **all 12 datagen archetypes**, the
//! same job batch must produce bit-identical verdict vectors:
//!
//! * across worker counts {1, 2, 8};
//! * between the service and sequential `Engine::Auto` through a plain
//!   `Verifier` loop;
//! * with and without verdict memoisation (a warm re-submission answers
//!   from the sharded cache without running a single engine).

use asv_datagen::corpus::{Archetype, CorpusGen};
use asv_mutation::inject::{apply, enumerate};
use asv_serve::{VerifyJob, VerifyService};
use asv_sva::bmc::{Engine, Verifier};
use asv_verilog::sema::Design;

fn bounds() -> Verifier {
    Verifier {
        depth: 8,
        reset_cycles: 2,
        exhaustive_limit: 256,
        random_runs: 24,
        engine: Engine::Auto,
        ..Verifier::default()
    }
}

/// Golden + first-compilable-mutant designs covering every archetype.
fn archetype_designs() -> Vec<(String, Design)> {
    let designs = CorpusGen::new(0xD17E_u64).generate(Archetype::ALL.len());
    let mut out = Vec::new();
    let mut archetypes_seen = std::collections::BTreeSet::new();
    for gd in &designs {
        archetypes_seen.insert(gd.archetype.to_string());
        let golden = asv_verilog::compile(&gd.source)
            .unwrap_or_else(|e| panic!("{}: golden must compile: {e}", gd.name));
        // One injected bug per design keeps Fails verdicts in the batch.
        let mutant = enumerate(&golden).into_iter().find_map(|m| {
            let injection = apply(&golden, &m).ok()?;
            asv_verilog::compile(&injection.buggy_source).ok()
        });
        out.push((format!("{}:golden", gd.name), golden));
        if let Some(buggy) = mutant {
            out.push((format!("{}:mutant", gd.name), buggy));
        }
    }
    assert_eq!(
        archetypes_seen.len(),
        Archetype::ALL.len(),
        "fixture must cover all 12 archetypes"
    );
    out
}

fn jobs() -> Vec<VerifyJob> {
    archetype_designs()
        .into_iter()
        .map(|(_, d)| VerifyJob::new(d, bounds()))
        .collect()
}

#[test]
fn verdict_vector_is_identical_across_worker_counts() {
    let batch = jobs();
    let reference = VerifyService::with_workers(1).verify_batch(&batch);
    for workers in [2, 8] {
        let out = VerifyService::with_workers(workers).verify_batch(&batch);
        assert_eq!(
            out, reference,
            "{workers} workers changed the verdict vector"
        );
    }
}

#[test]
fn auto_service_matches_sequential_auto() {
    let designs = archetype_designs();
    // Sequential reference: one Auto check per design, no service.
    let auto = bounds();
    let sequential: Vec<_> = designs
        .iter()
        .map(|(_, d)| auto.check(d).map_err(asv_serve::VerdictError::from))
        .collect();
    assert!(
        sequential
            .iter()
            .any(|v| matches!(v, Ok(x) if x.is_failure())),
        "suite must contain refuted mutants"
    );
    assert!(
        sequential
            .iter()
            .any(|v| matches!(v, Ok(x) if !x.is_failure())),
        "suite must contain holding goldens"
    );
    let batched = VerifyService::with_workers(8).verify_batch(&jobs());
    for (((name, _), seq), batch) in designs.iter().zip(&sequential).zip(&batched) {
        assert_eq!(
            batch, seq,
            "{name}: service verdict must be bit-identical to sequential Auto"
        );
    }
}

#[test]
fn mixed_ok_and_error_batches_report_per_job() {
    use asv_serve::VerdictError;
    use asv_sva::bmc::VerifyError;

    // Interleave healthy archetype jobs with jobs that error
    // deterministically (a design without assertions): every slot must
    // be filled, errors land only in their own slots, and the vector
    // stays deterministic across worker counts.
    let no_assertions =
        asv_verilog::compile("module bare(input a, output y); assign y = a; endmodule")
            .expect("compiles");
    let healthy = jobs();
    let step = 3;
    let mut batch = Vec::new();
    for chunk in healthy.chunks(step) {
        batch.push(VerifyJob::new(no_assertions.clone(), bounds()));
        batch.extend_from_slice(chunk);
    }
    let reference = VerifyService::with_workers(1).submit_batch(&batch);
    assert_eq!(reference.len(), batch.len());
    for (i, outcome) in reference.iter().enumerate() {
        if i % (step + 1) == 0 {
            assert_eq!(
                outcome,
                &Err(VerdictError::Verify(VerifyError::NoAssertions)),
                "slot {i} must hold the broken job's own error"
            );
        } else {
            assert!(
                outcome.is_ok(),
                "slot {i}: healthy job degraded by a failing sibling: {outcome:?}"
            );
        }
    }
    for workers in [2, 8] {
        let out = VerifyService::with_workers(workers).submit_batch(&batch);
        assert_eq!(
            out, reference,
            "mixed batch with {workers} workers changed the outcome vector"
        );
    }
}

#[test]
fn warm_resubmission_runs_no_engine() {
    let batch = jobs();
    let service = VerifyService::with_workers(8);
    let cold = service.verify_batch(&batch);
    let cold_stats = service.stats();
    let cold_cache = service.verdict_cache().stats();
    assert_eq!(cold_stats.memo_hits, 0, "first submission cannot warm-hit");
    assert_eq!(
        cold_cache.inserts, cold_stats.executed,
        "every cold execution must memoise its (cacheable) verdict"
    );
    assert_eq!(cold_cache.evictions, 0, "suite fits the memo capacity");
    let warm = service.verify_batch(&batch);
    assert_eq!(cold, warm, "memoised verdicts must be bit-identical");
    let warm_stats = service.stats();
    assert_eq!(
        warm_stats.executed, cold_stats.executed,
        "warm batch must be answered entirely from the verdict memo"
    );
    assert_eq!(
        warm_stats.memo_hits, cold_stats.executed,
        "each unique job must hit the memo exactly once on resubmission"
    );
    let warm_cache = service.verdict_cache().stats();
    assert_eq!(
        warm_cache.hits - cold_cache.hits,
        warm_stats.memo_hits,
        "service memo hits and cache-level hits must agree on the warm path"
    );
    assert_eq!(
        warm_cache.inserts, cold_cache.inserts,
        "a warm batch must memoise nothing new"
    );
}

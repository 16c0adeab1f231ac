//! `verify`: one cold batch of all-unique `VerifyJob`s through
//! `VerifyService::verify_batch`, no training. The mix mirrors the real
//! callers: golden designs and injected bugs under the datagen
//! verifier (as Stage 2 checks them), repair-candidate patches of each
//! bug under the fast judge's verifier (as evaluation checks them).

use crate::corpus::{replica, CORPUS_SEED};
use crate::stats::{derive, Digest, OutcomeClass};
use crate::{Ctx, Pass};
use asv_datagen::pipeline::PipelineConfig;
use asv_eval::Judge;
use asv_mutation::{apply, enumerate, Mutation};
use asv_serve::{JobOutcome, VerdictError, VerifyJob};
use asv_sva::bmc::Verdict;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::{BTreeMap, HashSet};
use std::time::Instant;

/// Fixed corpus replicas (48 designs each, one part each), candidate bugs per
/// design and candidate patches per bug.
const REPLICAS: usize = 8;
const BUGS: usize = 4;
const PATCHES: usize = 5;
/// Seconds one round over all batches takes on the reference host
/// (2 cores): a 20 s run makes one round.
const ROUND_S: f64 = 21.0;

/// What a job checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Golden,
    /// Candidate bug number `b`.
    Bug(usize),
    /// A patch of candidate bug `b`.
    Patch(usize),
}

/// `count` designs made by applying enumerated edits of `design` in
/// order, skipping edits that do not apply or do not compile. Returns
/// `(rendered source, changed line, design)`.
fn edits(
    ctx: &Ctx,
    design: &asv_verilog::Design,
    order: &[Mutation],
    count: usize,
) -> Vec<(String, u32, asv_verilog::Design)> {
    let on = ctx.trace;
    let start = Instant::now();
    let mut out = Vec::new();
    for m in order {
        if out.len() == count {
            break;
        }
        let Ok(inj) = apply(design, m) else {
            continue;
        };
        ctx.add(on, "verilog.compiles", 1.0);
        if let Ok(d) = ctx.time(on, "verilog.compile_s", || {
            asv_verilog::compile(&inj.buggy_source)
        }) {
            out.push((inj.buggy_source, inj.line_no, d));
        }
    }
    ctx.add(on, "mutation.candidates_s", start.elapsed().as_secs_f64());
    ctx.add(on, "mutation.calls", 1.0);
    ctx.add(on, "mutation.candidates", out.len() as f64);
    out
}

/// Builds part `part`'s batch from corpus replica `part` without
/// verifying anything:
/// every golden, [`BUGS`] candidate bugs per design drawn as datagen
/// Stage 2 draws them (all under the datagen verifier), and [`PATCHES`]
/// patches per bug under the fast judge's verifier. A patch is one
/// enumerated edit of the buggy design: edits on the buggy line first
/// (a localising repairer tries those first), then the others, each
/// group in seeded random order. Duplicate jobs are dropped so every
/// job is unique.
fn setup(ctx: &Ctx, part: usize) -> (Vec<VerifyJob>, Vec<Kind>) {
    let on = ctx.trace;
    let verifier = PipelineConfig::default().verifier;
    let patch_verifier = Judge::fast().verifier();
    let designs = ctx.time(on, "datagen.run_s", || {
        replica(derive(CORPUS_SEED, "verify/designs"), part)
    });
    let mut rng = StdRng::seed_from_u64(derive(ctx.seed, &format!("verify/edits/{part}")));
    // Goldens, then bugs, then patches: the order of datagen's golden and
    // bug batches followed by evaluation's patches. It also starts the
    // long proofs first, so the batch does not end on one of them.
    let mut batches: [Vec<(VerifyJob, Kind)>; 3] = Default::default();
    let mut bug = 0;
    for gd in &designs {
        ctx.add(on, "verilog.compiles", 1.0);
        let Ok(golden) = ctx.time(on, "verilog.compile_s", || asv_verilog::compile(&gd.source))
        else {
            continue;
        };
        let mut order = enumerate(&golden);
        order.shuffle(&mut rng);
        let bugs = edits(ctx, &golden, &order, BUGS);
        batches[0].push((VerifyJob::new(golden, verifier), Kind::Golden));
        for (source, line_no, buggy) in bugs {
            let line_of = |m: &Mutation| {
                let offset = (m.stmt_span.start as usize).min(source.len());
                1 + source[..offset].matches('\n').count() as u32
            };
            let (mut near, mut far): (Vec<Mutation>, Vec<Mutation>) = enumerate(&buggy)
                .into_iter()
                .partition(|m| line_of(m) == line_no);
            near.shuffle(&mut rng);
            far.shuffle(&mut rng);
            near.append(&mut far);
            for (_, _, patched) in edits(ctx, &buggy, &near, PATCHES) {
                batches[2].push((VerifyJob::new(patched, patch_verifier), Kind::Patch(bug)));
            }
            batches[1].push((VerifyJob::new(buggy, verifier), Kind::Bug(bug)));
            bug += 1;
        }
    }
    let mut seen = HashSet::new();
    let (jobs, kinds) = batches
        .into_iter()
        .flatten()
        .filter(|(job, _)| seen.insert(job.key()))
        .unzip();
    (jobs, kinds)
}

/// Digest of the batch: every job key and kind, in order.
fn inputs_digest(jobs: &[VerifyJob], kinds: &[Kind]) -> u64 {
    let mut d = Digest::default();
    for (job, kind) in jobs.iter().zip(kinds) {
        let key = job.key().0;
        d.u64(key as u64);
        d.u64((key >> 64) as u64);
        d.u64(match kind {
            Kind::Golden => u64::MAX,
            Kind::Bug(b) => u64::MAX / 2 + *b as u64,
            Kind::Patch(b) => *b as u64,
        });
    }
    d.finish()
}

/// Outcome summary code for the digest.
fn code(outcome: &JobOutcome) -> u64 {
    match (outcome, crate::stats::classify(outcome)) {
        (Ok(Verdict::Holds { vacuous, .. }), _) => 1 + vacuous.len() as u64 * 8,
        (Ok(Verdict::Fails(_)), _) => 2,
        (_, OutcomeClass::DesignError) => 3,
        _ => 4,
    }
}

/// Runs the workload: one part, one cold batch, per corpus replica.
pub fn run(ctx: &Ctx) -> (f64, Vec<f64>, Vec<Pass>) {
    let mut goldens_hold = true;
    let mut sequential_agrees = true;
    let mut checked = 0;

    let (setup, passes) = ctx.run_parts(
        REPLICAS,
        ROUND_S,
        |part| setup(ctx, part),
        |(jobs, kinds), traced| {
            let service = ctx.service(traced);
            let start = Instant::now();
            let outcomes = service.verify_batch(jobs);
            let wall = start.elapsed().as_secs_f64();
            let mut pass = Pass {
                wall,
                jobs: jobs.len() as u64,
                inputs: inputs_digest(jobs, kinds),
                ..Pass::default()
            };
            let mut digest = Digest::default();
            // Per candidate bug: (fails?, patches, effective patches).
            let mut bugs: BTreeMap<usize, (bool, usize, usize)> = BTreeMap::new();
            for (outcome, kind) in outcomes.iter().zip(kinds) {
                pass.tally.job(outcome);
                digest.u64(code(outcome));
                match kind {
                    Kind::Golden => goldens_hold &= matches!(outcome, Ok(Verdict::Holds { .. })),
                    Kind::Bug(b) => {
                        bugs.entry(*b).or_default().0 = matches!(outcome, Ok(Verdict::Fails(_)))
                    }
                    Kind::Patch(b) => {
                        let e = bugs.entry(*b).or_default();
                        e.1 += 1;
                        e.2 += usize::from(matches!(outcome, Ok(v) if v.holds_non_vacuously()));
                    }
                }
            }
            // A case is a bug that trips an assertion; all of the batch's
            // cases are judged when it returns.
            let cases: Vec<_> = bugs.into_values().filter(|(fails, _, _)| *fails).collect();
            pass.cases = cases.len();
            pass.case_ms = vec![wall * 1e3; cases.len()];
            pass.passk = cases
                .into_iter()
                .filter(|(_, n, _)| *n == PATCHES)
                .map(|(_, n, c)| (n, c))
                .collect();
            pass.digest = digest.finish();
            if traced {
                ctx.add(true, "serve.batch_s", wall);
                ctx.add(true, "serve.batches", 1.0);
                ctx.drain(&service);
                ctx.layers.borrow_mut().serve_stats(service.stats());
                checked += jobs.len();
                sequential_agrees &= jobs.iter().zip(&outcomes).all(|(job, o)| {
                    job.verifier.check(&job.design).map_err(VerdictError::from) == *o
                });
            }
            pass
        },
    );

    ctx.check("every generated golden design holds", goldens_hold);
    if ctx.trace {
        ctx.check(
            format!("all {checked} batch verdicts equal a sequential Verifier::check"),
            sequential_agrees,
        );
    }
    (0.0, setup, passes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batch(seed: u64) -> (Vec<VerifyJob>, Vec<Kind>) {
        setup(&Ctx::new(seed, false, 0.0), 0)
    }

    #[test]
    fn different_seeds_give_different_inputs() {
        let (a, ka) = batch(1);
        let (b, kb) = batch(2);
        assert!(!a.is_empty() && !b.is_empty());
        assert_ne!(inputs_digest(&a, &ka), inputs_digest(&b, &kb));
    }

    #[test]
    fn same_seed_gives_identical_inputs_and_outputs() {
        let (a, ka) = batch(3);
        let (b, kb) = batch(3);
        assert_eq!(inputs_digest(&a, &ka), inputs_digest(&b, &kb));
        let ctx = Ctx::new(3, false, 0.0);
        let digest = |jobs: &[VerifyJob]| {
            let mut d = Digest::default();
            for o in ctx.service(false).verify_batch(jobs) {
                d.u64(code(&o));
            }
            d.finish()
        };
        assert_eq!(digest(&a), digest(&b));
    }
}

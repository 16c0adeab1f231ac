//! `repair`: the product path. One engineer submits one failing design
//! at a time (a closed loop with one client) and AssertSolver answers:
//! per request, `Solver::respond` for n = 20 responses, a compile of each
//! non-golden patch, then one `verify_batch` on the pass's long-lived
//! service with the verdict memo on.

use crate::corpus::{replica, CORPUS_SEED};
use crate::layers::Probe;
use crate::stats::{derive, Digest};
use crate::{Ctx, Pass};
use assertsolver_core::prelude::*;
use asv_datagen::pipeline::{run as run_pipeline, PipelineConfig};
use asv_datagen::stage2::Stage2;
use asv_datagen::SvaBugEntry;
use asv_eval::Judge;
use asv_serve::{VerifyJob, VerifyService};
use std::collections::HashSet;
use std::time::Instant;

/// Responses per request (the paper's n).
const N: usize = 20;
/// Fixed corpus replicas the requests come from (48 designs each, one
/// part each), and the bugs Stage 2 samples per design. A request's cost
/// follows its design's size, so each design gives one request, which
/// keeps the mix steady. About 490 designs confirm a bug: the 95th
/// percentile has over twenty samples beyond it, enough that it does not
/// jump between the cost tiers of the largest designs from seed to seed.
const REQUEST_REPLICAS: usize = 12;
const BUGS_PER_DESIGN: usize = 4;
/// Seconds one round over all request sets takes on the reference host
/// (2 cores): a 20 s run makes two rounds.
const ROUND_S: f64 = 13.0;
/// Every `JUDGE_EVERY`-th request of each part's first pass is re-judged
/// by the sequential `Judge`.
const JUDGE_EVERY: usize = 10;

/// One request: the failing design (with its golden fix for judging)
/// and the sampling seed of its responses.
struct Request {
    entry: SvaBugEntry,
    task: RepairTask,
    seed: u64,
}

/// Trains the AssertSolver of the quick-size Table III: PT → SFT → DPO
/// on `PipelineConfig::quick()`, whose seed is fixed. The model is the
/// system under test; about 40 training cases make one trained on
/// another seed differ widely.
fn train(ctx: &Ctx) -> Solver {
    let ds = ctx.time(ctx.trace, "datagen.run_s", || {
        run_pipeline(&PipelineConfig::quick())
    });
    let [_, _, solver] = crate::pipeline::train(ctx, ctx.trace, &ds);
    solver
}

/// The requests of part `part`: on each design of corpus replica `part`,
/// the first bug that datagen Stage 2, seeded from the run seed,
/// confirms.
fn requests(ctx: &Ctx, part: usize) -> Vec<Request> {
    let designs = replica(derive(CORPUS_SEED, "repair/designs"), part);
    let stage2 = Stage2 {
        bugs_per_design: BUGS_PER_DESIGN,
        seed: derive(ctx.seed, &format!("repair/bugs/{part}")),
        verifier: PipelineConfig::quick().verifier,
    };
    let service = VerifyService::with_workers(crate::cores());
    let held = ctx.time(ctx.trace, "datagen.run_s", || {
        stage2.run_with(&designs, &service)
    });
    ctx.add(ctx.trace, "datagen.sva_bug", held.sva_bug.len() as f64);
    let respond_seed = derive(ctx.seed, &format!("repair/respond/{part}"));
    let mut designs_seen = HashSet::new();
    held.sva_bug
        .into_iter()
        .filter(|e| designs_seen.insert(e.module_name.clone()))
        .enumerate()
        .map(|(i, entry)| Request {
            task: RepairTask::from(&entry),
            entry,
            seed: respond_seed.wrapping_add(i as u64),
        })
        .collect()
}

/// Runs the workload: training (shared set-up), then one part per corpus
/// replica.
pub fn run(ctx: &Ctx) -> (f64, Vec<f64>, Vec<Pass>) {
    let start = Instant::now();
    let solver = train(ctx);
    let shared = start.elapsed().as_secs_f64();
    let verifier = Judge::fast().verifier();
    let mut total = 0;
    // (request, responses, service-judged effective count), from each
    // part's first pass.
    let mut sample: Vec<(SvaBugEntry, Vec<Response>, usize)> = Vec::new();
    let mut sampled_parts = HashSet::new();

    let (setup, passes) = ctx.run_parts(
        REQUEST_REPLICAS,
        ROUND_S,
        |part| {
            let requests = requests(ctx, part);
            total += requests.len();
            (part, requests)
        },
        |(part, requests), traced| {
            let service = ctx.service(traced);
            let probe =
                traced.then(|| Probe::new(&solver, requests.iter().map(|r| &r.entry), &ctx.layers));
            let collect = sampled_parts.insert(*part);
            let mut pass = Pass {
                cases: requests.len(),
                ..Pass::default()
            };
            let mut inputs = Digest::default();
            let mut digest = Digest::default();
            let start = Instant::now();
            for (i, req) in requests.iter().enumerate() {
                inputs.str(&req.task.buggy_source);
                inputs.u64(req.seed);
                let t = Instant::now();
                let responses = match &probe {
                    Some(p) => p.respond(&req.task, N, req.seed),
                    None => solver.respond(&req.task, N, req.seed),
                };
                let mut golden = 0;
                let mut jobs = Vec::new();
                for r in &responses {
                    if r.patched_source == req.entry.golden_source {
                        golden += 1;
                        continue;
                    }
                    ctx.add(traced, "verilog.compiles", 1.0);
                    let compiled = ctx.time(traced, "verilog.compile_s", || {
                        asv_verilog::compile(&r.patched_source)
                    });
                    if let Ok(design) = compiled {
                        jobs.push(VerifyJob::new(design, verifier));
                    }
                }
                let outcomes = ctx.time(traced, "serve.batch_s", || service.verify_batch(&jobs));
                let c = golden
                    + outcomes
                        .iter()
                        .filter(|o| matches!(o, Ok(v) if v.holds_non_vacuously()))
                        .count();
                pass.case_ms.push(t.elapsed().as_secs_f64() * 1e3);
                pass.tally.request(responses.len());
                outcomes.iter().for_each(|o| pass.tally.job(o));
                pass.jobs += jobs.len() as u64;
                pass.passk.push((N, c));
                digest.u64(c as u64);
                for r in &responses {
                    digest.u64(u64::from(r.line_no));
                    digest.str(&r.fix);
                }
                if traced {
                    ctx.add(true, "serve.batches", 1.0);
                    ctx.drain(&service);
                }
                if collect && i % JUDGE_EVERY == 0 {
                    sample.push((req.entry.clone(), responses, c));
                }
            }
            pass.wall = start.elapsed().as_secs_f64();
            pass.inputs = inputs.finish();
            pass.digest = digest.finish();
            if traced {
                ctx.layers.borrow_mut().serve_stats(service.stats());
            }
            pass
        },
    );

    ctx.check(format!("at least 200 requests ({total})"), total >= 200);
    let mut judge = Judge::fast();
    let agree = ctx.time(ctx.trace, "eval.evaluate_s", || {
        sample
            .iter()
            .all(|(entry, responses, c)| judge.count_effective(entry, responses) == *c)
    });
    ctx.check(
        format!(
            "service-judged effective counts equal Judge::effective on {} sampled requests",
            sample.len()
        ),
        agree,
    );
    (shared, setup, passes)
}

//! # asv-bench
//!
//! Benchmark harness regenerating every table and figure of the
//! AssertSolver paper (see DESIGN.md §4 for the experiment index).
//!
//! Each binary prints the rows/series of one artefact:
//!
//! | Binary       | Paper artefact |
//! |--------------|----------------|
//! | `table1`     | Table I — bug taxonomy with machine-checked examples |
//! | `table2`     | Table II — dataset distribution over bins and types |
//! | `table3`     | Table III — Base vs SFT vs AssertSolver pass@k |
//! | `figure3`    | Fig. 3 — histogram of c over 20 responses |
//! | `table4`     | Table IV — 7-model comparison |
//! | `figure4`    | Fig. 4 — pass@k per bug type / length bin vs closed-source |
//! | `figure5`    | Fig. 5 — SFT vs AssertSolver per scenario |
//! | `ablation_dpo`      | DPO β / stabiliser ablation |
//! | `ablation_features` | localisation-feature ablation |
//!
//! Scale is controlled by `ASV_SCALE` ∈ {`quick`, `default`, `paper`}
//! (unset means `default`; any other value is an error).
//!
//! Beyond the paper artefacts, [`perf`] is the performance observatory:
//! a deterministic counter matrix emitting `BENCH_<label>.json` reports
//! (`perf_matrix`) that a regression gate compares with exact counter
//! equality (`perf_gate`). Wall time is measured by the repository
//! benchmark in `perfbench/`, not here.

pub mod perf;

use assertsolver_core::prelude::*;
use asv_datagen::pipeline::{run as run_pipeline, PipelineConfig};
use asv_datagen::Datasets;
use asv_eval::{benchmark, evaluate_with_service, BenchCase, EvalConfig, EvalRun, Judge};
use asv_serve::{ServeOptions, VerifyService};

/// Experiment scale selected via the `ASV_SCALE` environment variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Seconds: CI smoke runs.
    Quick,
    /// A couple of minutes: meaningful statistics.
    Default,
    /// Paper-sized benchmark (~915 eval cases).
    Paper,
}

impl Scale {
    /// Maps an `ASV_SCALE` value to its scale: unset is `Default`;
    /// `quick`, `default` and `paper` name their scales; anything else
    /// is an error naming the accepted values.
    pub fn parse(value: Option<&str>) -> Result<Self, String> {
        match value {
            None | Some("default") => Ok(Scale::Default),
            Some("quick") => Ok(Scale::Quick),
            Some("paper") => Ok(Scale::Paper),
            Some(other) => Err(format!(
                "ASV_SCALE=`{other}` is not a scale; expected `quick`, `default` or `paper`"
            )),
        }
    }

    /// Reads `ASV_SCALE` through [`Scale::parse`]. An unknown value
    /// prints the error and exits the process with status 2.
    pub fn from_env() -> Self {
        let value = std::env::var_os("ASV_SCALE").map(|v| v.to_string_lossy().into_owned());
        Scale::parse(value.as_deref()).unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(2)
        })
    }

    /// The pipeline configuration for this scale.
    pub fn pipeline_config(self) -> PipelineConfig {
        match self {
            Scale::Quick => PipelineConfig::quick(),
            Scale::Default => PipelineConfig {
                corpus_size: 220,
                ..PipelineConfig::default()
            },
            Scale::Paper => PipelineConfig::paper_scale(),
        }
    }
}

/// Everything the evaluation binaries need: datasets plus the three
/// trained models of RQ1.
pub struct Experiment {
    /// The generated datasets.
    pub datasets: Datasets,
    /// Base model (pretrained LM, untrained policy).
    pub base: Model,
    /// SFT model.
    pub sft_model: Model,
    /// Full AssertSolver (SFT + DPO).
    pub assert_solver: Model,
    /// The combined SVA-Eval benchmark.
    pub bench: Vec<BenchCase>,
    /// Shared verification service: verdicts are memoised **across** the
    /// engines under comparison (wrong candidate patches repeat between
    /// Base/SFT/AssertSolver, and every engine's candidates repeat
    /// across its 20 samples).
    pub service: VerifyService,
}

impl Experiment {
    /// Runs the full pipeline and training at the given scale. Progress is
    /// logged to stderr since this takes minutes at paper scale.
    pub fn prepare(scale: Scale) -> Self {
        eprintln!("[asv-bench] generating datasets ({scale:?}) ...");
        let datasets = run_pipeline(&scale.pipeline_config());
        eprintln!(
            "[asv-bench] datasets: PT={} VBug={} SVABug={} EvalM={} EvalH={}",
            datasets.verilog_pt.len(),
            datasets.verilog_bug.len(),
            datasets.sva_bug.len(),
            datasets.sva_eval_machine.len(),
            datasets.sva_eval_human.len()
        );
        eprintln!("[asv-bench] pretraining (PT) ...");
        let base = base_model(&datasets.verilog_pt);
        eprintln!("[asv-bench] supervised fine-tuning (SFT) ...");
        let sft_model = sft(
            &base,
            &datasets.sva_bug,
            &datasets.verilog_bug,
            &SftConfig::default(),
        );
        eprintln!("[asv-bench] DPO on challenging cases ...");
        let cases = prepare_cases(&datasets.sva_bug, &sft_model.lm);
        let assert_solver = dpo(&sft_model, &cases, &DpoConfig::default());
        let bench = benchmark(&datasets.sva_eval_machine, &datasets.sva_eval_human);
        Experiment {
            datasets,
            base,
            sft_model,
            assert_solver,
            bench,
            service: VerifyService::new(ServeOptions::default()),
        }
    }

    /// Evaluates one engine over the benchmark through the shared
    /// verification service (fast-judge bounds, pass@k fanned out across
    /// all cores, verdicts memoised across engines).
    pub fn evaluate(&self, engine: &dyn RepairEngine) -> EvalRun {
        eprintln!("[asv-bench] evaluating {} ...", engine.name());
        let before = self.service.stats();
        let run = evaluate_with_service(
            engine,
            &self.bench,
            &EvalConfig::default(),
            Judge::fast().verifier(),
            &self.service,
        );
        let after = self.service.stats();
        eprintln!(
            "[asv-bench]   {}: pass@1={:.2}% pass@5={:.2}% (verify service: {} ran, {} memo, {} dedup)",
            run.engine,
            run.pass_at(1) * 100.0,
            run.pass_at(5) * 100.0,
            after.executed - before.executed,
            after.memo_hits - before.memo_hits,
            after.deduped - before.deduped,
        );
        run
    }

    /// The solver wrappers for the three RQ1 models.
    pub fn rq1_engines(&self) -> [Solver; 3] {
        [
            Solver::with_name(self.base.clone(), "Base Model"),
            Solver::with_name(self.sft_model.clone(), "SFT Model"),
            Solver::with_name(self.assert_solver.clone(), "AssertSolver"),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::Scale;

    #[test]
    fn scale_parse_accepts_only_known_values() {
        assert_eq!(Scale::parse(None), Ok(Scale::Default));
        assert_eq!(Scale::parse(Some("default")), Ok(Scale::Default));
        assert_eq!(Scale::parse(Some("quick")), Ok(Scale::Quick));
        assert_eq!(Scale::parse(Some("paper")), Ok(Scale::Paper));
        for bad in ["qiuck", "Quick", ""] {
            let err = Scale::parse(Some(bad)).unwrap_err();
            assert!(err.contains(&format!("`{bad}`")), "{err}");
            assert!(err.contains("`quick`, `default` or `paper`"), "{err}");
        }
    }
}

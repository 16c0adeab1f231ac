//! Golden output: Table III (pass@1 / pass@5 of the three RQ1 models) at
//! quick scale, produced exactly as the `table3` binary produces it.
//!
//! Every stage is seed-deterministic, so these figures only move when the
//! data generation, training, candidate space or judge changes behaviour.

use asv_bench::{Experiment, Scale};

/// `(engine, pass@1 %, pass@5 %)`, rounded to two decimals.
const TABLE3_QUICK: [(&str, &str, &str); 3] = [
    ("Base Model", "12.26", "38.83"),
    ("SFT Model", "28.81", "34.50"),
    ("AssertSolver", "31.55", "35.72"),
];

#[test]
fn quick_table3_matches_the_pinned_figures() {
    let exp = Experiment::prepare(Scale::Quick);
    let got: Vec<(String, String, String)> = exp
        .rq1_engines()
        .iter()
        .map(|engine| {
            let run = exp.evaluate(engine);
            (
                run.engine.clone(),
                format!("{:.2}", run.pass_at(1) * 100.0),
                format!("{:.2}", run.pass_at(5) * 100.0),
            )
        })
        .collect();
    let want: Vec<(String, String, String)> = TABLE3_QUICK
        .iter()
        .map(|(e, p1, p5)| (e.to_string(), p1.to_string(), p5.to_string()))
        .collect();
    assert_eq!(got, want);
}

//! Differential test of repair-candidate enumeration.
//!
//! `candidates` renders a design once and splices each edited site into
//! that rendering. The oracle is the per-mutation path: `inject::apply`
//! re-renders the whole mutated module and line-diffs it against the
//! original. Both must give the same candidates in the same order, skip
//! the same no-op edits and agree on every field.

use asv_datagen::corpus::CorpusGen;
use asv_mutation::{apply, candidates, enumerate, Candidate, Edit};
use asv_verilog::ast::BinaryOp;
use asv_verilog::{compile, Design};

/// The candidate list of the `inject::apply` path.
fn oracle(design: &Design) -> Vec<Candidate> {
    enumerate(design)
        .into_iter()
        .enumerate()
        .filter_map(|(id, m)| {
            let inj = apply(design, &m).ok()?;
            Some(Candidate {
                id,
                line_no: inj.line_no,
                old_line: inj.fixed_line,
                new_line: inj.buggy_line,
                patched_source: inj.buggy_source,
                mutation: m,
            })
        })
        .collect()
}

/// Asserts the spliced and the oracle candidates agree; returns how many.
fn check(label: &str, design: &Design) -> usize {
    let spliced = candidates(design);
    let expected = oracle(design);
    assert_eq!(
        spliced.len(),
        expected.len(),
        "{label}: candidate count differs"
    );
    for (s, e) in spliced.iter().zip(&expected) {
        assert_eq!(s, e, "{label}: candidate {} differs", e.id);
    }
    spliced.len()
}

#[test]
fn splice_matches_apply_on_corpus_designs_and_their_bugs() {
    // 60 designs: every archetype at every size class.
    let designs = CorpusGen::new(0x5911CE).generate(60);
    let mut checked = (0, 0);
    for gd in &designs {
        let golden = compile(&gd.source).unwrap_or_else(|e| panic!("{}: {e}", gd.name));
        checked.1 += check(&gd.name, &golden);
        checked.0 += 1;
        // One injected bug: the first mutation past the middle of the
        // list that applies and compiles.
        let muts = enumerate(&golden);
        let bug = muts[muts.len() / 2..].iter().find_map(|m| {
            let inj = apply(&golden, m).ok()?;
            Some((m, compile(&inj.buggy_source).ok()?))
        });
        if let Some((m, buggy)) = bug {
            checked.1 += check(&format!("{} / {}", gd.name, m.description), &buggy);
            checked.0 += 1;
        }
    }
    assert!(checked.0 >= 110, "too few designs checked: {checked:?}");
    assert!(
        checked.1 >= 5_000,
        "too few candidates checked: {checked:?}"
    );
}

#[test]
fn splice_matches_apply_on_every_rendering_context() {
    // An `else if` chain, multi-label case arms, children of `!(a & b)`,
    // a ternary condition, a concat and a repeat, a bit-select index,
    // negatable and negated roots, and an initial block (never a site).
    let src = "module ctx(input clk, input rst_n, input s, input [3:0] a,\n\
        input [3:0] b, input [1:0] i, output reg [3:0] y, output [3:0] z,\n\
        output [7:0] w, output reg q);\n\
        reg [3:0] t;\n\
        initial t = 4'd3;\n\
        assign z = (s & a[0]) ? a + b : ~(a ^ b);\n\
        assign w = {a[i], 3'd1, {2{b[1:0]}}};\n\
        always @(posedge clk or negedge rst_n) begin\n\
          if (!rst_n) y <= 4'd0;\n\
          else if (!(a & b)) y <= a - 4'd1;\n\
          else if (s) y <= b;\n\
          else case (i)\n\
            2'd0, 2'd1: y <= a * b;\n\
            2'd2: y <= (a | b) & 4'hf;\n\
            default: y <= ~y;\n\
          endcase\n\
        end\n\
        always @(posedge clk) q <= !(a < b);\n\
        property p; @(posedge clk) disable iff (!rst_n) s |-> ##1 y != 4'd0; endproperty\n\
        assert property (p);\nendmodule";
    let design = compile(src).expect("compile");
    let n = check("contexts", &design);
    let spliced = candidates(&design);
    let has = |edit: Edit, line: &str| {
        spliced
            .iter()
            .any(|c| c.mutation.edit == edit && c.new_line == line)
    };
    assert!(has(Edit::Negate, "else if (!s) y <= b;"));
    assert!(has(Edit::Unnegate, "q <= a < b;"));
    assert!(has(
        Edit::SwapBinOp(BinaryOp::BitOr),
        "else if (!(a | b)) y <= a - 4'd1;"
    ));
    assert!(n > 100, "got {n}");
}

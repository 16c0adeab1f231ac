//! Repair-candidate enumeration: the search space the repair model scores.
//!
//! Given a *buggy* design, the space of single-token edits enumerated by
//! [`crate::inject::enumerate`] is closed under inversion (operator swaps
//! are involutions, literal tweaks cover ±1 and msb-flip, identifier swaps
//! cover all same-width peers, negation insert/remove invert each other),
//! so the golden fix is always reachable as one candidate. The model's job
//! — like the paper's LLM — is to *rank* it first.
//!
//! [`candidates`] renders the buggy module once, with the byte range of
//! every site ([`render_module_marked`]). Each candidate then re-renders
//! only its edited site and splices that text into the one rendering. This
//! is exact, and gives what [`crate::inject::apply`] gives, because an
//! expression renders on one line from its own subtree and its parent's
//! precedence alone. Edits below a slot root keep the node kind (operator,
//! literal, identifier), so a unary parent keeps its parentheses; the
//! kind-changing edits (`Negate`, `Unnegate`) only touch slot roots, which
//! render at precedence 0.

use crate::inject::{apply_edit, enumerate, Mutation};
use asv_verilog::pretty::{render_expr_at, render_module_marked};
use asv_verilog::sema::Design;
use serde::{Deserialize, Serialize};

/// One candidate repair: a single-line rewrite of the buggy source.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Candidate {
    /// Stable candidate index within the enumeration.
    pub id: usize,
    /// 1-based line number changed in the canonical rendering.
    pub line_no: u32,
    /// The line as it appears in the buggy source.
    pub old_line: String,
    /// The proposed replacement line.
    pub new_line: String,
    /// Full rendered source with the candidate applied.
    pub patched_source: String,
    /// The underlying mutation (site/edit/classification).
    pub mutation: Mutation,
}

impl Candidate {
    /// A short human-readable description of the edit.
    pub fn describe(&self) -> String {
        format!(
            "line {}: `{}` -> `{}`",
            self.line_no, self.old_line, self.new_line
        )
    }
}

/// Enumerates all repair candidates of a buggy design.
///
/// Edits that leave the rendering unchanged (no-ops) are skipped.
/// Order is deterministic.
pub fn candidates(buggy: &Design) -> Vec<Candidate> {
    let module = &buggy.module;
    // One rendering; `marks[i]` is site `i` (the printer and the site
    // walker share one pre-order).
    let (source, marks) = render_module_marked(module);
    debug_assert!(
        crate::sites::collect_sites(module)
            .iter()
            .map(|s| &s.expr)
            .eq(marks.iter().map(|m| m.node)),
        "marks and sites disagree"
    );
    let mut line_starts = vec![0];
    line_starts.extend(source.match_indices('\n').map(|(i, _)| i + 1));
    let mut out = Vec::new();
    for (id, m) in enumerate(buggy).into_iter().enumerate() {
        let Some(mark) = marks.get(m.site_id) else {
            continue;
        };
        let Some(edited) = apply_edit(mark.node, &m.edit) else {
            continue;
        };
        let text = render_expr_at(&edited, mark.prec);
        let (start, end) = (mark.start, mark.end);
        if text == source[start..end] {
            continue;
        }
        // The site lies on one line: `line` (0-based) spans `ls..le`.
        let line = line_starts.partition_point(|&s| s <= start) - 1;
        let ls = line_starts[line];
        let le = line_starts.get(line + 1).map_or(source.len(), |n| n - 1);
        let new_line = [&source[ls..start], &text, &source[end..le]].concat();
        out.push(Candidate {
            id,
            line_no: line as u32 + 1,
            old_line: source[ls..le].trim().to_string(),
            new_line: new_line.trim().to_string(),
            patched_source: [&source[..start], &text, &source[end..]].concat(),
            mutation: m,
        });
    }
    out
}

/// Checks whether a candidate reproduces the golden source exactly
/// (canonical-rendering string equality). This is the *strict* correctness
/// notion used for challenging-case mining; the evaluation harness uses
/// the verifier-backed notion (assertion failures actually resolved).
pub fn matches_golden(candidate: &Candidate, golden_source: &str) -> bool {
    candidate.patched_source == golden_source
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inject;
    use asv_verilog::compile;
    use asv_verilog::pretty::render_module;

    const SRC: &str = "module m(input clk, input rst_n, input g, input [3:0] a,\n\
        input [3:0] b, output reg [3:0] y);\n\
        always @(posedge clk or negedge rst_n) begin\n\
          if (!rst_n) y <= 4'd0;\n\
          else if (g) y <= a + b;\n\
          else y <= b;\n\
        end\n\
        property p; @(posedge clk) disable iff (!rst_n) g |-> ##1 y == $past(a) + $past(b); endproperty\n\
        chk: assert property (p) else $error(\"sum wrong\");\nendmodule";

    #[test]
    fn golden_fix_is_always_in_the_candidate_space() {
        let golden = compile(SRC).expect("compile golden");
        let golden_src = render_module(&golden.module);
        // Inject each enumerable bug, then verify the candidate space of
        // the buggy design contains a candidate restoring the golden text.
        let mut tested = 0;
        for m in inject::enumerate(&golden) {
            let Ok(inj) = inject::apply(&golden, &m) else {
                continue;
            };
            let Ok(buggy) = compile(&inj.buggy_source) else {
                continue; // syntax-/semantics-breaking bugs are filtered in stage 2
            };
            let cands = candidates(&buggy);
            assert!(
                cands.iter().any(|c| matches_golden(c, &golden_src)),
                "no inverse candidate for mutation: {}",
                m.description
            );
            tested += 1;
            if tested >= 25 {
                break; // bounded for test runtime; kinds are interleaved
            }
        }
        assert!(tested >= 10, "too few injections compiled: {tested}");
    }

    #[test]
    fn candidates_are_deterministic_and_line_accurate() {
        let golden = compile(SRC).expect("compile");
        let cands = candidates(&golden);
        assert_eq!(cands, candidates(&golden));
        let src = render_module(&golden.module);
        for c in &cands {
            let line = src
                .lines()
                .nth(c.line_no as usize - 1)
                .expect("line exists");
            assert_eq!(line.trim(), c.old_line, "old_line must match source");
        }
    }

    #[test]
    fn describe_mentions_both_lines() {
        let golden = compile(SRC).expect("compile");
        let c = &candidates(&golden)[0];
        let d = c.describe();
        assert!(d.contains(&c.old_line));
        assert!(d.contains(&c.new_line));
    }
}

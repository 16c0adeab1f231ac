//! Bug injection: enumerate, apply and classify single-token mutations.
//!
//! This is the reproduction's substitute for the paper's Claude-3.5 random
//! bug generator (Stage 2). Unlike an LLM it covers the Table I taxonomy by
//! construction, and like the paper every injected bug is still validated
//! downstream by the compiler and the bounded verifier.

use crate::kinds::{BugClass, SyntacticKind};
use crate::sites::{collect_sites, transform_site, SiteInfo};
use asv_verilog::ast::*;
use asv_verilog::pretty::render_module;
use asv_verilog::sema::Design;
use asv_verilog::Span;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::fmt;

/// A concrete single-site edit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Edit {
    /// Replace the binary operator.
    SwapBinOp(BinaryOp),
    /// Replace the literal value.
    SetLiteral(u64),
    /// Replace the identifier.
    SetIdent(String),
    /// Wrap the expression in a logical negation.
    Negate,
    /// Remove a top-level logical/bitwise negation.
    Unnegate,
}

impl fmt::Display for Edit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Edit::SwapBinOp(op) => write!(f, "use operator `{}`", op.as_str()),
            Edit::SetLiteral(v) => write!(f, "use constant {v}"),
            Edit::SetIdent(n) => write!(f, "use signal `{n}`"),
            Edit::Negate => write!(f, "negate the expression"),
            Edit::Unnegate => write!(f, "drop the negation"),
        }
    }
}

/// One enumerated mutation: a site plus an edit plus its classification.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Mutation {
    /// Site id (see [`crate::sites`]).
    pub site_id: usize,
    /// The edit to perform.
    pub edit: Edit,
    /// Classification (``direct`` filled in by [`classify_direct`]).
    pub class: BugClass,
    /// Span of the enclosing statement in the *original* AST.
    pub stmt_span: Span,
    /// Signals assigned by the enclosing statement.
    pub assigned: Vec<String>,
    /// Human-readable description.
    pub description: String,
}

/// The rendered artefacts of applying a mutation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Injection {
    /// The mutated module.
    pub module: Module,
    /// Canonically rendered buggy source.
    pub buggy_source: String,
    /// Canonically rendered golden source.
    pub golden_source: String,
    /// 1-based line number of the changed line in the rendered source.
    pub line_no: u32,
    /// The buggy line text (trimmed).
    pub buggy_line: String,
    /// The golden line text (trimmed).
    pub fixed_line: String,
    /// The mutation that produced this injection.
    pub mutation: Mutation,
}

/// Enumerates every applicable mutation of a module, in deterministic
/// order. Identifier swaps are restricted to same-width signals from the
/// design's symbol table (never the clock or reset).
pub fn enumerate(design: &Design) -> Vec<Mutation> {
    let module = &design.module;
    let sites = collect_sites(module);
    let clock = design.clock().map(str::to_string);
    let reset = design.reset().map(|(n, _)| n.to_string());
    let mut out = Vec::new();
    for site in &sites {
        // Sites touching only clock/reset are infrastructure (e.g. the
        // `!rst_n` guard): excluded from mutation entirely so the edit
        // space stays closed under inversion.
        let idents = site.expr.idents();
        let infra_only = !idents.is_empty()
            && idents.iter().all(|n| {
                Some(n.as_str()) == clock.as_deref() || Some(n.as_str()) == reset.as_deref()
            });
        if infra_only {
            continue;
        }
        match &site.expr {
            Expr::Binary { op, .. } => {
                for peer in op_peers(*op) {
                    out.push(make(site, Edit::SwapBinOp(peer), SyntacticKind::Op));
                }
            }
            Expr::Number { value, width, .. } => {
                let w = width.unwrap_or(32).min(64);
                let mask = if w >= 64 { u64::MAX } else { (1u64 << w) - 1 };
                let mut alts: BTreeSet<u64> = BTreeSet::new();
                alts.insert(value.wrapping_add(1) & mask);
                alts.insert(value.wrapping_sub(1) & mask);
                alts.insert((value ^ (1 << (w.saturating_sub(1)))) & mask);
                alts.remove(value);
                for alt in alts {
                    out.push(make(site, Edit::SetLiteral(alt), SyntacticKind::Value));
                }
            }
            Expr::Ident { name, .. } => {
                // Clock/reset references are infrastructure, not logic:
                // mutating them is excluded (keeps the edit space closed
                // under inversion, since they are also excluded as
                // replacement names).
                if Some(name.as_str()) == clock.as_deref()
                    || Some(name.as_str()) == reset.as_deref()
                {
                    continue;
                }
                let width = design.width_of(name);
                // All same-width peers (no truncation: truncating would
                // break inversion symmetry of the edit space).
                let alts: Vec<&str> = design
                    .signals
                    .values()
                    .filter(|s| {
                        s.name != *name
                            && Some(s.width) == width
                            && Some(s.name.as_str()) != clock.as_deref()
                            && Some(s.name.as_str()) != reset.as_deref()
                    })
                    .map(|s| s.name.as_str())
                    .collect();
                for alt in alts {
                    out.push(make(
                        site,
                        Edit::SetIdent(alt.to_string()),
                        SyntacticKind::Var,
                    ));
                }
                // Inserted negation on slot roots: covers both the
                // Fig. 1 condition bug (`end_cnt` → `!end_cnt`) and RHS
                // polarity bugs (`q <= d` → `q <= !d`).
                if site.is_root {
                    out.push(make(site, Edit::Negate, SyntacticKind::Op));
                }
            }
            Expr::Unary {
                op: UnaryOp::LogicNot | UnaryOp::BitNot,
                ..
            } => {
                // Only slot roots: the inverse edit (Negate) is only
                // offered there, and the space must stay inversion-closed.
                if site.is_root {
                    out.push(make(site, Edit::Unnegate, SyntacticKind::Op));
                }
            }
            _ => {
                if site.is_root {
                    out.push(make(site, Edit::Negate, SyntacticKind::Op));
                }
            }
        }
    }
    out
}

fn make(site: &SiteInfo, edit: Edit, syntactic: SyntacticKind) -> Mutation {
    let description = format!(
        "{edit} (was `{}`)",
        asv_verilog::pretty::render_expr(&site.expr)
    );
    Mutation {
        site_id: site.id,
        edit,
        class: BugClass {
            syntactic,
            cond: site.in_condition,
            direct: None,
        },
        stmt_span: site.stmt_span,
        assigned: site.assigned.clone(),
        description,
    }
}

/// Operator confusion peers used for `Op` bugs. Peers form *symmetric
/// closure groups* so the repair space is closed under inversion: if a
/// golden `op` can be corrupted to `op'`, then `op'`'s peers include `op`.
fn op_peers(op: BinaryOp) -> Vec<BinaryOp> {
    use BinaryOp as B;
    const GROUPS: [&[BinaryOp]; 6] = [
        &[B::Add, B::Sub, B::Mul],
        &[B::BitAnd, B::BitOr, B::BitXor],
        &[B::LogicAnd, B::LogicOr],
        &[B::Eq, B::Ne],
        &[B::Lt, B::Le, B::Gt, B::Ge],
        &[B::Shl, B::Shr],
    ];
    for group in GROUPS {
        if group.contains(&op) {
            return group.iter().copied().filter(|o| *o != op).collect();
        }
    }
    Vec::new()
}

/// Errors from applying a mutation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InjectError {
    /// The site id did not resolve (module changed since enumeration).
    StaleSite(usize),
    /// The edit produced source identical to the golden source.
    NoOp,
    /// The edit no longer matches the node shape at the site.
    ShapeMismatch(usize),
}

impl fmt::Display for InjectError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InjectError::StaleSite(id) => write!(f, "stale mutation site {id}"),
            InjectError::NoOp => write!(f, "mutation does not change the source"),
            InjectError::ShapeMismatch(id) => write!(f, "node shape changed at site {id}"),
        }
    }
}

impl std::error::Error for InjectError {}

/// Applies a mutation, producing the rendered buggy/golden pair.
///
/// # Errors
///
/// Returns [`InjectError`] when the site is stale, the node shape does not
/// match the edit, or the edit is a no-op after rendering.
pub fn apply(design: &Design, mutation: &Mutation) -> Result<Injection, InjectError> {
    let module = &design.module;
    let mut shape_ok = true;
    let mutated = transform_site(module, mutation.site_id, |e| {
        apply_edit(e, &mutation.edit).unwrap_or_else(|| {
            shape_ok = false;
            e.clone()
        })
    })
    .ok_or(InjectError::StaleSite(mutation.site_id))?;
    if !shape_ok {
        return Err(InjectError::ShapeMismatch(mutation.site_id));
    }
    let golden_source = render_module(module);
    let buggy_source = render_module(&mutated);
    let diff = first_diff_line(&golden_source, &buggy_source).ok_or(InjectError::NoOp)?;
    Ok(Injection {
        module: mutated,
        line_no: diff.0,
        fixed_line: diff.1,
        buggy_line: diff.2,
        buggy_source,
        golden_source,
        mutation: mutation.clone(),
    })
}

/// `e` with `edit` applied, or `None` when the edit does not fit the node.
pub(crate) fn apply_edit(e: &Expr, edit: &Edit) -> Option<Expr> {
    match (e, edit) {
        (Expr::Binary { lhs, rhs, span, .. }, Edit::SwapBinOp(op)) => Some(Expr::Binary {
            op: *op,
            lhs: lhs.clone(),
            rhs: rhs.clone(),
            span: *span,
        }),
        (
            Expr::Number {
                width, base, span, ..
            },
            Edit::SetLiteral(v),
        ) => Some(Expr::Number {
            value: *v,
            width: *width,
            base: *base,
            span: *span,
        }),
        (Expr::Ident { span, .. }, Edit::SetIdent(n)) => Some(Expr::Ident {
            name: n.clone(),
            span: *span,
        }),
        (expr, Edit::Negate) => Some(Expr::Unary {
            op: UnaryOp::LogicNot,
            operand: Box::new(expr.clone()),
            span: expr.span(),
        }),
        (
            Expr::Unary {
                op: UnaryOp::LogicNot | UnaryOp::BitNot,
                operand,
                ..
            },
            Edit::Unnegate,
        ) => Some((**operand).clone()),
        _ => None,
    }
}

/// Finds the first differing line between two renderings.
/// Returns `(1-based line, golden line, buggy line)`.
pub fn first_diff_line(golden: &str, buggy: &str) -> Option<(u32, String, String)> {
    for (i, (g, b)) in golden.lines().zip(buggy.lines()).enumerate() {
        if g != b {
            return Some((i as u32 + 1, g.trim().to_string(), b.trim().to_string()));
        }
    }
    None
}

/// Fills in the `direct` classification given the assertions of the golden
/// module: a bug is *Direct* when a signal assigned by the mutated
/// statement (or, for condition bugs, a signal in the mutated expression)
/// appears among the signals the assertions observe.
pub fn classify_direct(design: &Design, mutation: &Mutation) -> Option<bool> {
    let mut observed: BTreeSet<String> = BTreeSet::new();
    for p in design.module.properties() {
        observed.extend(p.body.idents());
    }
    for a in design.module.assertions() {
        if let AssertTarget::Inline(p) = &a.target {
            observed.extend(p.body.idents());
        }
    }
    if observed.is_empty() {
        return None;
    }
    Some(mutation.assigned.iter().any(|s| observed.contains(s)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use asv_verilog::compile;

    const SRC: &str = "module m(input clk, input rst_n, input en, input [3:0] a,\n\
        input [3:0] b, output reg [3:0] y, output reg ok);\n\
        wire g;\n\
        assign g = en & a[0];\n\
        always @(posedge clk or negedge rst_n) begin\n\
          if (!rst_n) y <= 4'd0;\n\
          else if (g) y <= a + b;\n\
          else y <= b;\n\
        end\n\
        always @(posedge clk or negedge rst_n) begin\n\
          if (!rst_n) ok <= 1'b0;\n\
          else ok <= y != 4'd0;\n\
        end\n\
        property p; @(posedge clk) disable iff (!rst_n) g |-> ##1 y == $past(a) + $past(b); endproperty\n\
        chk: assert property (p) else $error(\"sum wrong\");\nendmodule";

    fn design() -> Design {
        compile(SRC).unwrap_or_else(|e| panic!("compile: {e}"))
    }

    #[test]
    fn enumerates_all_syntactic_kinds() {
        let d = design();
        let muts = enumerate(&d);
        assert!(muts.len() > 10, "got {}", muts.len());
        for kind in [SyntacticKind::Op, SyntacticKind::Value, SyntacticKind::Var] {
            assert!(
                muts.iter().any(|m| m.class.syntactic == kind),
                "missing {kind}"
            );
        }
        assert!(muts.iter().any(|m| m.class.cond));
        assert!(muts.iter().any(|m| !m.class.cond));
    }

    #[test]
    fn apply_changes_exactly_one_line() {
        let d = design();
        for m in enumerate(&d) {
            let inj = match apply(&d, &m) {
                Ok(i) => i,
                Err(InjectError::NoOp) => continue,
                Err(e) => panic!("apply failed: {e}"),
            };
            assert_ne!(inj.buggy_line, inj.fixed_line);
            // The buggy source must re-parse and re-elaborate or be caught
            // downstream; at minimum it must re-parse.
            asv_verilog::parse(&inj.buggy_source).expect("buggy source parses");
        }
    }

    #[test]
    fn mutations_are_deterministic() {
        let d = design();
        assert_eq!(enumerate(&d), enumerate(&d));
    }

    #[test]
    fn ident_swaps_respect_width_and_special_signals() {
        let d = design();
        for m in enumerate(&d) {
            if let Edit::SetIdent(n) = &m.edit {
                assert_ne!(n, "clk");
                assert_ne!(n, "rst_n");
            }
        }
    }

    #[test]
    fn direct_classification_uses_assertion_signals() {
        let d = design();
        let muts = enumerate(&d);
        // A mutation on the `y <= a + b` statement assigns y, which the
        // property observes -> Direct.
        let on_y = muts
            .iter()
            .find(|m| m.assigned == vec!["y".to_string()] && matches!(m.edit, Edit::SwapBinOp(_)))
            .expect("mutation on y's add");
        assert_eq!(classify_direct(&d, on_y), Some(true));
        // A mutation on `ok <= y != 0` assigns ok, not observed -> Indirect.
        let on_ok = muts
            .iter()
            .find(|m| m.assigned == vec!["ok".to_string()])
            .expect("mutation on ok");
        assert_eq!(classify_direct(&d, on_ok), Some(false));
    }

    #[test]
    fn negate_edit_reproduces_fig1_bug() {
        let d = design();
        let muts = enumerate(&d);
        let neg_g = muts
            .iter()
            .find(|m| {
                matches!(m.edit, Edit::Negate)
                    && m.class.cond
                    && m.assigned.contains(&"y".to_string())
            })
            .expect("condition negation on g");
        let inj = apply(&d, neg_g).expect("apply");
        assert!(inj.buggy_line.contains("!"), "got: {}", inj.buggy_line);
    }

    #[test]
    fn stale_site_is_reported() {
        let d = design();
        let mut m = enumerate(&d)[0].clone();
        m.site_id = 99_999;
        assert_eq!(apply(&d, &m), Err(InjectError::StaleSite(99_999)));
    }

    #[test]
    fn first_diff_line_finds_change() {
        let a = "one\ntwo\nthree";
        let b = "one\ntwo!\nthree";
        assert_eq!(
            first_diff_line(a, b),
            Some((2, "two".into(), "two!".into()))
        );
        assert_eq!(first_diff_line(a, a), None);
    }
}

//! Pretty-printer: renders an AST back to canonical Verilog source.
//!
//! The mutation pipeline relies on a *stable* rendering: injecting a bug and
//! re-rendering changes exactly the mutated statement's line, so the golden
//! "buggy line / fixed line" pair used for training and evaluation is
//! well-defined. Round-tripping (`parse ∘ render ∘ parse`) is validated by
//! property tests in the crate root.
//!
//! Every expression renders on one line, and its text depends only on its
//! own subtree and the precedence its parent renders it under (a node
//! writes its own parentheses; only a unary parent brackets its operand,
//! and it decides by the operand's node kind). [`render_module_marked`]
//! records where each design-logic expression landed, so a caller can
//! splice a re-rendered node ([`render_expr_at`]) into one rendering
//! instead of re-rendering the whole module per edit.

use crate::ast::*;
use std::fmt::Write;

/// Renders a full source unit.
pub fn render_unit(unit: &SourceUnit) -> String {
    let mut out = String::new();
    for (i, m) in unit.modules.iter().enumerate() {
        if i > 0 {
            out.push('\n');
        }
        out.push_str(&render_module(m));
    }
    out
}

/// Renders one module with 2-space indentation.
pub fn render_module(m: &Module) -> String {
    let mut p = Printer::<()>::default();
    p.module(m);
    p.out
}

/// Where one design-logic expression node landed in
/// [`render_module_marked`]'s output.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExprMark<'a> {
    /// The node (its address identifies it within the module).
    pub node: &'a Expr,
    /// Byte offset of the node's first character.
    pub start: usize,
    /// Byte offset one past the node's last character.
    pub end: usize,
    /// The precedence the parent rendered the node under: re-rendering
    /// the node with [`render_expr_at`] at this precedence reproduces
    /// `out[start..end]`.
    pub prec: u8,
}

/// Renders one module exactly as [`render_module`] does, and records an
/// [`ExprMark`] for every design-logic expression node: continuous-assign
/// right-hand sides, `if` conditions, case scrutinees and labels and
/// procedural right-hand sides, with all their sub-expressions (never
/// parameters, lvalues, initial blocks or assertions).
///
/// Marks come in pre-order, statement by statement in source order: the
/// order in which the mutation crate numbers its sites.
pub fn render_module_marked(m: &Module) -> (String, Vec<ExprMark<'_>>) {
    let mut p = Printer::<Vec<ExprMark>>::default();
    p.module(m);
    (p.out, p.marks)
}

/// Renders a single expression (used in diffs, CoT text and candidate fixes).
pub fn render_expr(e: &Expr) -> String {
    render_expr_at(e, 0)
}

/// Renders a single expression as a parent of precedence `prec` would
/// (see [`ExprMark::prec`]).
pub fn render_expr_at(e: &Expr, prec: u8) -> String {
    let mut s = String::new();
    expr(&mut s, &mut (), e, prec);
    s
}

/// Renders a single statement at indent level 0, without a trailing newline.
pub fn render_stmt(s: &Stmt) -> String {
    let mut p = Printer::<()>::default();
    p.stmt(s, 0);
    p.out.trim_end().to_string()
}

/// Renders an lvalue.
pub fn render_lvalue(lv: &LValue) -> String {
    match lv {
        LValue::Ident { name, .. } => name.clone(),
        LValue::Bit { name, index, .. } => format!("{name}[{}]", render_expr(index)),
        LValue::Part { name, range, .. } => format!("{name}{range}"),
        LValue::Concat { parts, .. } => {
            let inner: Vec<String> = parts.iter().map(render_lvalue).collect();
            format!("{{{}}}", inner.join(", "))
        }
    }
}

/// Observes the byte range of every expression node as it is written.
trait Recorder<'a> {
    /// `e` starts at `start` under parent precedence `prec`; returns the
    /// token [`Recorder::close`] receives.
    fn open(&mut self, e: &'a Expr, start: usize, prec: u8) -> usize;
    /// The node of `token` ends at `end`.
    fn close(&mut self, token: usize, end: usize);
}

/// The plain rendering records nothing.
impl Recorder<'_> for () {
    fn open(&mut self, _: &Expr, _: usize, _: u8) -> usize {
        0
    }
    fn close(&mut self, _: usize, _: usize) {}
}

impl<'a> Recorder<'a> for Vec<ExprMark<'a>> {
    fn open(&mut self, node: &'a Expr, start: usize, prec: u8) -> usize {
        self.push(ExprMark {
            node,
            start,
            end: start,
            prec,
        });
        self.len() - 1
    }
    fn close(&mut self, token: usize, end: usize) {
        self[token].end = end;
    }
}

#[derive(Default)]
struct Printer<R> {
    out: String,
    marks: R,
}

impl<'a, R: Recorder<'a>> Printer<R> {
    fn indent(&mut self, level: usize) {
        for _ in 0..level {
            self.out.push_str("  ");
        }
    }

    /// Writes a design-logic expression straight into the output.
    fn logic(&mut self, e: &'a Expr) {
        expr(&mut self.out, &mut self.marks, e, 0);
    }

    fn module(&mut self, m: &'a Module) {
        let params: Vec<&ParamDecl> = m
            .items
            .iter()
            .filter_map(|i| match i {
                Item::Param(p) if !p.local => Some(p),
                _ => None,
            })
            .collect();
        write!(self.out, "module {}", m.name).expect("write to string");
        if !params.is_empty() {
            self.out.push_str(" #(\n");
            for (i, p) in params.iter().enumerate() {
                self.indent(1);
                write!(self.out, "parameter {} = {}", p.name, render_expr(&p.value))
                    .expect("write to string");
                if i + 1 < params.len() {
                    self.out.push(',');
                }
                self.out.push('\n');
            }
            self.out.push(')');
        }
        self.out.push_str(" (\n");
        for (i, port) in m.ports.iter().enumerate() {
            self.indent(1);
            write!(self.out, "{}", port.dir).expect("write to string");
            if port.kind == NetKind::Reg {
                self.out.push_str(" reg");
            } else if port.kind == NetKind::Logic {
                self.out.push_str(" logic");
            }
            if let Some(r) = port.range {
                write!(self.out, " {r}").expect("write to string");
            }
            write!(self.out, " {}", port.name).expect("write to string");
            if i + 1 < m.ports.len() {
                self.out.push(',');
            }
            self.out.push('\n');
        }
        self.out.push_str(");\n");
        for item in &m.items {
            if matches!(item, Item::Param(p) if !p.local) {
                continue; // already rendered in the header
            }
            self.item(item);
        }
        self.out.push_str("endmodule\n");
    }

    fn item(&mut self, item: &'a Item) {
        match item {
            Item::Net(n) => {
                self.indent(1);
                write!(self.out, "{}", n.kind).expect("write to string");
                if n.kind != NetKind::Integer {
                    if let Some(r) = n.range {
                        write!(self.out, " {r}").expect("write to string");
                    }
                }
                writeln!(self.out, " {};", n.names.join(", ")).expect("write to string");
            }
            Item::Param(p) => {
                self.indent(1);
                writeln!(
                    self.out,
                    "localparam {} = {};",
                    p.name,
                    render_expr(&p.value)
                )
                .expect("write to string");
            }
            Item::Assign(a) => {
                self.indent(1);
                write!(self.out, "assign {} = ", render_lvalue(&a.lhs)).expect("write to string");
                self.logic(&a.rhs);
                self.out.push_str(";\n");
            }
            Item::Always(a) => {
                self.indent(1);
                let kw = match a.kind {
                    AlwaysKind::Always => "always",
                    AlwaysKind::Ff => "always_ff",
                    AlwaysKind::Comb => "always_comb",
                };
                self.out.push_str(kw);
                if a.kind != AlwaysKind::Comb {
                    match &a.sensitivity {
                        Sensitivity::Star => self.out.push_str(" @(*)"),
                        Sensitivity::List(items) => {
                            self.out.push_str(" @(");
                            for (i, s) in items.iter().enumerate() {
                                if i > 0 {
                                    self.out.push_str(" or ");
                                }
                                match s {
                                    SensItem::Posedge(sig) => {
                                        write!(self.out, "posedge {sig}").expect("write")
                                    }
                                    SensItem::Negedge(sig) => {
                                        write!(self.out, "negedge {sig}").expect("write")
                                    }
                                    SensItem::Level(sig) => {
                                        write!(self.out, "{sig}").expect("write")
                                    }
                                }
                            }
                            self.out.push(')');
                        }
                    }
                }
                self.out.push(' ');
                self.stmt_inline(&a.body, 1);
            }
            Item::Initial(i) => {
                // Not design logic: rendered by an unmarked printer.
                let mut p = Printer::<()>::default();
                p.indent(1);
                p.out.push_str("initial ");
                p.stmt_inline(&i.body, 1);
                self.out.push_str(&p.out);
            }
            Item::Property(p) => {
                self.indent(1);
                writeln!(self.out, "property {};", p.name).expect("write to string");
                self.indent(2);
                write!(
                    self.out,
                    "@({} {})",
                    if p.clock.posedge {
                        "posedge"
                    } else {
                        "negedge"
                    },
                    p.clock.signal
                )
                .expect("write to string");
                if let Some(d) = &p.disable {
                    write!(self.out, " disable iff ({})", render_expr(d)).expect("write");
                }
                self.out.push('\n');
                self.indent(2);
                writeln!(self.out, "{};", render_prop(&p.body)).expect("write to string");
                self.indent(1);
                self.out.push_str("endproperty\n");
            }
            Item::Assert(a) => {
                self.indent(1);
                if let Some(l) = &a.label {
                    write!(self.out, "{l}: ").expect("write to string");
                }
                match &a.target {
                    AssertTarget::Named(n) => {
                        write!(self.out, "assert property ({n})").expect("write to string")
                    }
                    AssertTarget::Inline(p) => {
                        write!(
                            self.out,
                            "assert property (@({} {})",
                            if p.clock.posedge {
                                "posedge"
                            } else {
                                "negedge"
                            },
                            p.clock.signal
                        )
                        .expect("write to string");
                        if let Some(d) = &p.disable {
                            write!(self.out, " disable iff ({})", render_expr(d))
                                .expect("write to string");
                        }
                        write!(self.out, " {})", render_prop(&p.body)).expect("write to string");
                    }
                }
                if let Some(msg) = &a.message {
                    write!(self.out, " else $error(\"{msg}\")").expect("write to string");
                }
                self.out.push_str(";\n");
            }
        }
    }

    /// Prints a statement as the body of `always`/`initial`/`if` where the
    /// keyword and a space have already been emitted.
    fn stmt_inline(&mut self, s: &'a Stmt, level: usize) {
        match s {
            Stmt::Block { stmts, .. } => {
                self.out.push_str("begin\n");
                for st in stmts {
                    self.stmt(st, level + 1);
                }
                self.indent(level);
                self.out.push_str("end\n");
            }
            other => {
                self.out.push('\n');
                self.stmt(other, level + 1);
            }
        }
    }

    fn stmt(&mut self, s: &'a Stmt, level: usize) {
        match s {
            Stmt::Block { stmts, .. } => {
                self.indent(level);
                self.out.push_str("begin\n");
                for st in stmts {
                    self.stmt(st, level + 1);
                }
                self.indent(level);
                self.out.push_str("end\n");
            }
            Stmt::If {
                cond,
                then_branch,
                else_branch,
                ..
            } => {
                self.indent(level);
                self.if_chain(cond, then_branch, else_branch.as_deref(), level);
            }
            Stmt::Case {
                kind,
                scrutinee,
                arms,
                default,
                ..
            } => {
                self.indent(level);
                let kw = match kind {
                    CaseKind::Case => "case",
                    CaseKind::Casez => "casez",
                    CaseKind::Casex => "casex",
                };
                write!(self.out, "{kw} (").expect("write to string");
                self.logic(scrutinee);
                self.out.push_str(")\n");
                for arm in arms {
                    self.indent(level + 1);
                    for (i, label) in arm.labels.iter().enumerate() {
                        if i > 0 {
                            self.out.push_str(", ");
                        }
                        self.logic(label);
                    }
                    self.out.push_str(": ");
                    self.branch_body(&arm.body, level + 1);
                }
                if let Some(d) = default {
                    self.indent(level + 1);
                    self.out.push_str("default: ");
                    self.branch_body(d, level + 1);
                }
                self.indent(level);
                self.out.push_str("endcase\n");
            }
            Stmt::Assign {
                lhs,
                rhs,
                nonblocking,
                ..
            } => {
                self.indent(level);
                self.assign(lhs, rhs, *nonblocking);
            }
            Stmt::Empty { .. } => {
                self.indent(level);
                self.out.push_str(";\n");
            }
        }
    }

    /// Prints an `if` statement from its keyword on. An `else if` chain
    /// stays one flat construct: each nested `if` follows its `else`.
    fn if_chain(
        &mut self,
        cond: &'a Expr,
        then_branch: &'a Stmt,
        else_branch: Option<&'a Stmt>,
        level: usize,
    ) {
        self.out.push_str("if (");
        self.logic(cond);
        self.out.push_str(") ");
        self.branch_body(then_branch, level);
        if let Some(e) = else_branch {
            self.indent(level);
            self.out.push_str("else ");
            if let Stmt::If {
                cond,
                then_branch,
                else_branch,
                ..
            } = e
            {
                self.if_chain(cond, then_branch, else_branch.as_deref(), level);
            } else {
                self.branch_body(e, level);
            }
        }
    }

    /// Prints a procedural assignment (indentation already emitted).
    fn assign(&mut self, lhs: &LValue, rhs: &'a Expr, nonblocking: bool) {
        let op = if nonblocking { "<=" } else { "=" };
        write!(self.out, "{} {op} ", render_lvalue(lhs)).expect("write to string");
        self.logic(rhs);
        self.out.push_str(";\n");
    }

    /// Prints the body of an if-arm or case-arm, keyword already emitted.
    fn branch_body(&mut self, s: &'a Stmt, level: usize) {
        match s {
            Stmt::Block { stmts, .. } => {
                self.out.push_str("begin\n");
                for st in stmts {
                    self.stmt(st, level + 1);
                }
                self.indent(level);
                self.out.push_str("end\n");
            }
            Stmt::Assign {
                lhs,
                rhs,
                nonblocking,
                ..
            } => self.assign(lhs, rhs, *nonblocking),
            Stmt::Empty { .. } => self.out.push_str(";\n"),
            other => {
                self.out.push('\n');
                self.stmt(other, level + 1);
            }
        }
    }
}

/// Renders a property body.
pub fn render_prop(p: &PropExpr) -> String {
    match p {
        PropExpr::Seq(s) => render_seq(s),
        PropExpr::Implication {
            antecedent,
            overlapping,
            consequent,
            ..
        } => format!(
            "{} {} {}",
            render_seq(antecedent),
            if *overlapping { "|->" } else { "|=>" },
            render_seq(consequent)
        ),
    }
}

/// Renders a sequence expression.
pub fn render_seq(s: &SeqExpr) -> String {
    match s {
        SeqExpr::Expr(e) => render_expr(e),
        SeqExpr::Delay {
            lhs, cycles, rhs, ..
        } => {
            // `1 ##n rhs` (synthesised anchor) renders as a leading delay.
            if let SeqExpr::Expr(Expr::Number {
                value: 1,
                width: Some(1),
                ..
            }) = **lhs
            {
                format!("##{cycles} {}", render_seq(rhs))
            } else {
                format!("{} ##{cycles} {}", render_seq(lhs), render_seq(rhs))
            }
        }
    }
}

fn expr<'a>(out: &mut String, rec: &mut impl Recorder<'a>, e: &'a Expr, parent_prec: u8) {
    let token = rec.open(e, out.len(), parent_prec);
    match e {
        Expr::Number {
            value, width, base, ..
        } => match (width, base) {
            (Some(w), Some('b')) => {
                let _ = write!(out, "{w}'b{value:b}");
            }
            (Some(w), Some('h')) => {
                let _ = write!(out, "{w}'h{value:x}");
            }
            (Some(w), Some('o')) => {
                let _ = write!(out, "{w}'o{value:o}");
            }
            (Some(w), _) => {
                let _ = write!(out, "{w}'d{value}");
            }
            (None, _) => {
                let _ = write!(out, "{value}");
            }
        },
        Expr::Ident { name, .. } => out.push_str(name),
        Expr::Unary { op, operand, .. } => {
            out.push_str(op.as_str());
            // Parenthesise non-primary operands for unambiguous reading.
            match **operand {
                Expr::Number { .. } | Expr::Ident { .. } | Expr::Bit { .. } | Expr::Part { .. } => {
                    expr(out, rec, operand, 13)
                }
                _ => {
                    out.push('(');
                    expr(out, rec, operand, 0);
                    out.push(')');
                }
            }
        }
        Expr::Binary { op, lhs, rhs, .. } => {
            let prec = op.precedence();
            let need_parens = prec < parent_prec;
            if need_parens {
                out.push('(');
            }
            expr(out, rec, lhs, prec);
            let _ = write!(out, " {} ", op.as_str());
            expr(out, rec, rhs, prec + 1);
            if need_parens {
                out.push(')');
            }
        }
        Expr::Ternary {
            cond,
            then_expr,
            else_expr,
            ..
        } => {
            let need_parens = parent_prec > 0;
            if need_parens {
                out.push('(');
            }
            expr(out, rec, cond, 1);
            out.push_str(" ? ");
            expr(out, rec, then_expr, 0);
            out.push_str(" : ");
            expr(out, rec, else_expr, 0);
            if need_parens {
                out.push(')');
            }
        }
        Expr::Concat { parts, .. } => {
            out.push('{');
            for (i, p) in parts.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                expr(out, rec, p, 0);
            }
            out.push('}');
        }
        Expr::Repeat { count, value, .. } => {
            out.push('{');
            expr(out, rec, count, 13);
            out.push('{');
            expr(out, rec, value, 0);
            out.push_str("}}");
        }
        Expr::Bit { name, index, .. } => {
            out.push_str(name);
            out.push('[');
            expr(out, rec, index, 0);
            out.push(']');
        }
        Expr::Part { name, range, .. } => {
            let _ = write!(out, "{name}{range}");
        }
        Expr::SysCall { name, args, .. } => {
            let _ = write!(out, "${name}");
            if !args.is_empty() {
                out.push('(');
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    expr(out, rec, a, 0);
                }
                out.push(')');
            }
        }
    }
    rec.close(token, out.len());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn roundtrip(src: &str) {
        let unit = parse(src).expect("initial parse");
        let rendered = render_unit(&unit);
        let reparsed = parse(&rendered)
            .unwrap_or_else(|e| panic!("reparse failed: {e}\n--- rendered ---\n{rendered}"));
        let rerendered = render_unit(&reparsed);
        assert_eq!(rendered, rerendered, "render is not a fixpoint");
        for m in unit.modules.iter().chain(&reparsed.modules) {
            check_marks(m);
        }
    }

    /// The marked rendering is the plain one, and every mark re-renders
    /// to exactly its byte range, on one line.
    fn check_marks(m: &Module) {
        let (out, marks) = render_module_marked(m);
        assert_eq!(out, render_module(m), "marking changed the rendering");
        for mark in &marks {
            let text = &out[mark.start..mark.end];
            assert!(!text.is_empty() && !text.contains('\n'), "mark {mark:?}");
            assert_eq!(render_expr_at(mark.node, mark.prec), text, "mark {mark:?}");
        }
    }

    #[test]
    fn roundtrips_simple_module() {
        roundtrip("module m(input a, input b, output y); assign y = a & b; endmodule");
    }

    #[test]
    fn roundtrips_sequential_logic() {
        roundtrip(
            "module c(input clk, input rst_n, output reg [3:0] q);\n\
             always @(posedge clk or negedge rst_n) begin\n\
               if (!rst_n) q <= 4'd0; else q <= q + 4'd1;\n\
             end\nendmodule",
        );
    }

    #[test]
    fn roundtrips_property() {
        roundtrip(
            "module m(input clk, input rst_n, input a, output reg b);\n\
             always @(posedge clk) b <= a;\n\
             property p; @(posedge clk) disable iff (!rst_n) a |-> ##1 b; endproperty\n\
             lab: assert property (p) else $error(\"b must follow a\");\nendmodule",
        );
    }

    #[test]
    fn roundtrips_case() {
        roundtrip(
            "module m(input [1:0] s, output reg [3:0] y);\n\
             always @(*) begin case (s) 2'd0: y = 4'd1; 2'd1: y = 4'd2; default: y = 4'd0; endcase end\n\
             endmodule",
        );
    }

    #[test]
    fn parenthesisation_preserves_shape() {
        let unit = parse(
            "module m(input a, input b, input c, output y); assign y = (a | b) & c; endmodule",
        )
        .expect("parse ok");
        let s = render_module(&unit.modules[0]);
        assert!(s.contains("(a | b) & c"), "got: {s}");
    }

    #[test]
    fn number_bases_preserved() {
        let unit = parse("module m(output [7:0] y); assign y = 8'hab + 4'b1010; endmodule")
            .expect("parse ok");
        let s = render_module(&unit.modules[0]);
        assert!(s.contains("8'hab"), "got: {s}");
        assert!(s.contains("4'b1010"), "got: {s}");
    }

    #[test]
    fn else_if_chains_are_flat() {
        let src = "module m(input clk, input a, input b, output reg y);\n\
            always @(posedge clk) begin\n\
              if (a) y <= 1; else if (b) y <= 0; else y <= y;\n\
            end\nendmodule";
        let unit = parse(src).expect("parse ok");
        let s = render_module(&unit.modules[0]);
        assert!(s.contains("else if (b)"), "got: {s}");
        roundtrip(src);
    }

    #[test]
    fn marks_cover_design_logic_only() {
        let src = "module m #(parameter W = 4) (input clk, input s, input [3:0] a,\n\
            input [3:0] b, output reg [7:0] y, output [3:0] z);\n\
            localparam K = W + 1;\n\
            reg [3:0] t;\n\
            initial t = 4'd0;\n\
            assign z = s ? a + b : ~(a & b);\n\
            always @(posedge clk) begin\n\
              if (!(a & b)) y[a[1]] <= {a, b};\n\
              else if (s) y <= {2{a[3:0]}};\n\
              else case (a - 1) 4'd0, 4'd1: y <= b * (a - b); default: ; endcase\n\
            end\n\
            property p; @(posedge clk) s |-> ##1 y != 8'd0; endproperty\n\
            assert property (p);\nendmodule";
        roundtrip(src);
        let unit = parse(src).expect("parse ok");
        let (out, marks) = render_module_marked(&unit.modules[0]);
        // Roots in source order: the assign RHS, the if condition, the
        // else-if condition and its RHS, the case scrutinee, both labels
        // and the arm RHS. Parameters, the lvalue index, the initial
        // block and the property are never marked.
        // In pre-order a root is a mark that starts past every earlier one.
        let mut covered = 0;
        let mut roots = Vec::new();
        for m in &marks {
            if m.start >= covered {
                assert_eq!(m.prec, 0, "roots render at precedence 0");
                roots.push(&out[m.start..m.end]);
                covered = m.end;
            }
        }
        assert_eq!(
            roots,
            [
                "s ? a + b : ~(a & b)",
                "!(a & b)",
                "{a, b}",
                "s",
                "{2{a[3:0]}}",
                "a - 1",
                "4'd0",
                "4'd1",
                "b * (a - b)",
            ],
            "got:\n{out}"
        );
        for forbidden in ["W + 1", "4'd0;", "8'd0"] {
            let at = out.find(forbidden).expect("rendered");
            assert!(
                marks.iter().all(|m| m.end <= at || m.start > at),
                "`{forbidden}` was marked"
            );
        }
    }

    #[test]
    fn renders_stmt_single_line_for_assign() {
        let unit = parse(
            "module m(input clk, input a, output reg y); always @(posedge clk) y <= a; endmodule",
        )
        .expect("parse ok");
        let Item::Always(al) = &unit.modules[0].items[0] else {
            panic!()
        };
        assert_eq!(render_stmt(&al.body), "y <= a;");
    }
}

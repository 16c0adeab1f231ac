//! The symbolic bounded model checker.
//!
//! [`check`] unrolls a [`CompiledDesign`] over time frames (reset protocol
//! and free-input symbolics exactly as [`asv_sim::StimulusGen`] drives the
//! concrete simulator), compiles every SVA directive into the same frame
//! logic — including `$past`/`$rose`/`$fell`/`$stable` history
//! sub-programs evaluated at shifted frames — and asks the embedded CDCL
//! solver, depth by depth, whether any input sequence makes any assertion
//! attempt fail. Depth *k+1* reuses the solver state (and thus all learned
//! clauses) of depth *k*; the first satisfiable depth yields a
//! minimal-depth counterexample, decoded back into a concrete
//! [`Stimulus`].
//!
//! When every depth up to the bound is unsatisfiable the result is a
//! bounded *proof*: `Holds` with per-assertion vacuity decided by a second
//! round of queries (an assertion is vacuous iff *no* input sequence
//! completes a non-vacuous attempt — strictly stronger than the sampled
//! notion the simulation oracle reports).

use crate::aig::{Aig, NLit, Node};
use crate::blast::{run_sym, BlastError, SymEnv, SymVec};
use crate::solver::{Lit, SolveResult, Solver, Var};
use crate::unroll::{clock_edge_sym, settle_sym, SymState};
use asv_sim::cancel::{Budget, Exhausted, Resource, Stop};
use asv_sim::compile::{compile_expr, CompiledDesign, ExprProg, HistoryKind, NameRef, SigId};
use asv_sim::stimulus::{InputVector, Stimulus};
use asv_sim::value::Value;
use asv_trace::{probe, Cost, SpanKind, TraceSink};
use asv_verilog::ast::{AssertTarget, Module, PropExpr, PropertyDecl, SeqExpr};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Bounds and budgets of a symbolic check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BmcOptions {
    /// Post-reset cycles (matches `Verifier::depth`).
    pub depth: usize,
    /// Reset cycles at the head of every run.
    pub reset_cycles: usize,
    /// Conflict budget per SAT call (`None` = unbounded).
    pub conflict_budget: Option<u64>,
    /// Cap on AIG nodes before the engine gives up.
    pub node_limit: usize,
}

impl Default for BmcOptions {
    fn default() -> Self {
        BmcOptions {
            depth: 12,
            reset_cycles: 2,
            conflict_budget: Some(1 << 20),
            node_limit: 4_000_000,
        }
    }
}

/// Per-probe conflict budget during witness canonicalisation: bit-fixing
/// probes after the main solve are near-pure propagation, so a small cap
/// bounds the worst case without ever costing a verdict (the raw model's
/// witness is kept as the fallback).
const MINIMIZE_CONFLICT_BUDGET: u64 = 50_000;

/// Result of a symbolic check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BmcVerdict {
    /// Some input sequence violates an assertion; `stimulus` is a
    /// minimal-depth witness (replay it on the simulator for logs).
    Fails {
        /// The violating input sequence.
        stimulus: Stimulus,
    },
    /// No input sequence up to the bound violates any assertion.
    Holds {
        /// Assertions that cannot fire non-vacuously on any input
        /// sequence of the bounded length (directive order).
        vacuous: Vec<String>,
    },
}

/// Why a symbolic check could not produce a verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BmcError {
    /// The design or its properties fall outside the encodable subset;
    /// callers fall back to the simulation oracle.
    Unsupported(String),
    /// An internal resource invariant failed (e.g. witness minimisation
    /// lost satisfiability); callers treat this like exhaustion.
    Resource(String),
    /// A resource budget (conflicts, AIG nodes, deadline) was exhausted;
    /// the structured record says which and by how much.
    Exhausted(Exhausted),
    /// A cooperative [`asv_sim::CancelToken`] was poisoned mid-check
    /// (the caller tore the work down); the verdict is simply absent,
    /// never wrong.
    Cancelled,
}

impl fmt::Display for BmcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BmcError::Unsupported(m) => write!(f, "symbolic engine unsupported: {m}"),
            BmcError::Resource(m) => write!(f, "symbolic engine budget exhausted: {m}"),
            BmcError::Exhausted(e) => write!(f, "symbolic engine {e}"),
            BmcError::Cancelled => write!(f, "symbolic check cancelled"),
        }
    }
}

impl From<Stop> for BmcError {
    fn from(s: Stop) -> Self {
        match s {
            Stop::Cancelled => BmcError::Cancelled,
            Stop::Exhausted(e) => BmcError::Exhausted(e),
        }
    }
}

impl std::error::Error for BmcError {}

impl From<BlastError> for BmcError {
    fn from(e: BlastError) -> Self {
        BmcError::Unsupported(e.0)
    }
}

// ---------------------------------------------------------------------------
// Property compilation
// ---------------------------------------------------------------------------

/// One boolean of a linear sequence, evaluated `tick_off` ticks after the
/// attempt start.
#[derive(Debug)]
pub(crate) struct Atom {
    tick_off: u32,
    prog: ExprProg,
}

/// A flattened linear sequence: atoms in evaluation order plus the end
/// offset (`SeqExpr::duration`).
#[derive(Debug)]
pub(crate) struct SeqProg {
    atoms: Vec<Atom>,
    end_off: u32,
}

#[derive(Debug)]
pub(crate) enum PropBody {
    Seq(SeqProg),
    Implication {
        antecedent: SeqProg,
        overlapping: bool,
        consequent: SeqProg,
    },
}

/// A directive compiled against the design's signal interning.
///
/// `Debug` output doubles as the property's canonical form for the cone
/// hash (`crate::cone`): it renders the full compiled program — tick
/// offsets, postfix ops, interned `SigId`s — and nothing position- or
/// span-dependent.
#[derive(Debug)]
pub(crate) struct PropSym {
    /// `AssertDirective::log_name`.
    pub(crate) name: String,
    disable: Option<ExprProg>,
    body: PropBody,
    /// Ticks beyond the start the attempt may observe (the monitor's
    /// `property_window`).
    window: u32,
}

fn flatten_seq<R>(seq: &SeqExpr, off: u32, resolve: &R, out: &mut Vec<Atom>) -> u32
where
    R: Fn(&str) -> NameRef,
{
    match seq {
        SeqExpr::Expr(e) => {
            out.push(Atom {
                tick_off: off,
                prog: compile_expr(e, resolve, true),
            });
            off
        }
        SeqExpr::Delay {
            lhs, cycles, rhs, ..
        } => {
            let end_l = flatten_seq(lhs, off, resolve, out);
            flatten_seq(rhs, end_l + cycles, resolve, out)
        }
    }
}

fn compile_seq<R>(seq: &SeqExpr, resolve: &R) -> SeqProg
where
    R: Fn(&str) -> NameRef,
{
    let mut atoms = Vec::new();
    let end_off = flatten_seq(seq, 0, resolve, &mut atoms);
    SeqProg { atoms, end_off }
}

fn resolve_property(module: &Module, dir_idx: usize) -> Option<&PropertyDecl> {
    let dir = module.assertions().nth(dir_idx)?;
    match &dir.target {
        AssertTarget::Named(n) => module.properties().find(|p| &p.name == n),
        AssertTarget::Inline(p) => Some(p),
    }
}

pub(crate) fn compile_props(cd: &CompiledDesign) -> Result<Vec<PropSym>, BmcError> {
    let module = &cd.design().module;
    let resolve = |name: &str| match cd.sig(name) {
        Some(sig) => NameRef::Sig(sig),
        None => NameRef::Unknown,
    };
    let mut props = Vec::new();
    for (i, dir) in module.assertions().enumerate() {
        let Some(prop) = resolve_property(module, i) else {
            return Err(BmcError::Unsupported(format!(
                "directive `{}` references an unknown property",
                dir.log_name()
            )));
        };
        // Semantic twin of the monitor's `property_window` (asv-sva
        // monitor.rs): any change there must be mirrored here — the
        // differential suite (tests/differential_bmc.rs) enforces the
        // agreement on enumerable designs.
        let window = match &prop.body {
            PropExpr::Seq(s) => s.duration(),
            PropExpr::Implication {
                antecedent,
                overlapping,
                consequent,
                ..
            } => antecedent.duration() + consequent.duration() + u32::from(!*overlapping),
        };
        let body = match &prop.body {
            PropExpr::Seq(s) => PropBody::Seq(compile_seq(s, &resolve)),
            PropExpr::Implication {
                antecedent,
                overlapping,
                consequent,
                ..
            } => PropBody::Implication {
                antecedent: compile_seq(antecedent, &resolve),
                overlapping: *overlapping,
                consequent: compile_seq(consequent, &resolve),
            },
        };
        props.push(PropSym {
            name: dir.log_name().to_string(),
            disable: prop
                .disable
                .as_ref()
                .map(|d| compile_expr(d, &resolve, true)),
            body,
            window,
        });
    }
    Ok(props)
}

// ---------------------------------------------------------------------------
// Trace environment
// ---------------------------------------------------------------------------

/// Environment evaluating property programs over sampled symbolic rows,
/// the symbolic twin of the monitor's `TraceExecEnv`.
struct TraceSymEnv<'a> {
    rows: &'a [SymState],
    t: usize,
}

impl SymEnv for TraceSymEnv<'_> {
    fn load(&self, sig: SigId) -> SymVec {
        self.rows[self.t].vals[sig.idx()].clone()
    }

    fn history(
        &self,
        g: &mut Aig,
        kind: HistoryKind,
        arg: &ExprProg,
        n: usize,
    ) -> Result<SymVec, BlastError> {
        let at = |t: usize| TraceSymEnv { rows: self.rows, t };
        match kind {
            HistoryKind::Past => run_sym(g, arg, &at(self.t.saturating_sub(n))),
            HistoryKind::Rose | HistoryKind::Fell | HistoryKind::Stable => {
                let now = run_sym(g, arg, self)?;
                let before = if self.t == 0 {
                    match kind {
                        HistoryKind::Stable => now.clone(),
                        _ => SymVec::zeros(now.width()),
                    }
                } else {
                    run_sym(g, arg, &at(self.t - 1))?
                };
                let bit = match kind {
                    HistoryKind::Rose => g.and(now.get(0), !before.get(0)),
                    HistoryKind::Fell => g.and(!now.get(0), before.get(0)),
                    HistoryKind::Stable => {
                        // `Value` equality compares width and bits.
                        if now.width() == before.width() {
                            now.eq_bits(g, &before)
                        } else {
                            NLit::FALSE
                        }
                    }
                    HistoryKind::Past => unreachable!(),
                };
                Ok(SymVec::new(vec![bit]))
            }
        }
    }
}

// ---------------------------------------------------------------------------
// CNF encoding
// ---------------------------------------------------------------------------

/// Incremental Tseitin encoder: AIG nodes map to solver variables once and
/// stay valid across depths.
#[derive(Default)]
struct Encoder {
    var_of: Vec<Option<Var>>,
}

impl Encoder {
    fn var(&mut self, g: &Aig, s: &mut Solver, node: u32) -> Var {
        if self.var_of.len() < g.len() {
            self.var_of.resize(g.len(), None);
        }
        if let Some(v) = self.var_of[node as usize] {
            return v;
        }
        // Iterative post-order over the unencoded cone.
        let mut stack = vec![node];
        while let Some(&n) = stack.last() {
            if self.var_of[n as usize].is_some() {
                stack.pop();
                continue;
            }
            match g.node(n) {
                Node::Const => {
                    // Constants are folded away during construction; a
                    // constant root is handled by callers. Encode it as a
                    // frozen-false variable for completeness.
                    let v = s.new_var();
                    s.add_clause(&[Lit::neg(v)]);
                    self.var_of[n as usize] = Some(v);
                    stack.pop();
                }
                Node::Input => {
                    self.var_of[n as usize] = Some(s.new_var());
                    stack.pop();
                }
                Node::And(a, b) => {
                    let (na, nb) = (a.node() as usize, b.node() as usize);
                    if self.var_of[na].is_none() {
                        stack.push(a.node());
                        continue;
                    }
                    if self.var_of[nb].is_none() {
                        stack.push(b.node());
                        continue;
                    }
                    let la = Lit::new(self.var_of[na].expect("encoded"), a.is_inverted());
                    let lb = Lit::new(self.var_of[nb].expect("encoded"), b.is_inverted());
                    let v = s.new_var();
                    // v <-> la & lb
                    s.add_clause(&[Lit::neg(v), la]);
                    s.add_clause(&[Lit::neg(v), lb]);
                    s.add_clause(&[Lit::pos(v), !la, !lb]);
                    self.var_of[n as usize] = Some(v);
                    stack.pop();
                }
            }
        }
        self.var_of[node as usize].expect("just encoded")
    }

    fn lit(&mut self, g: &Aig, s: &mut Solver, l: NLit) -> Lit {
        let v = self.var(g, s, l.node());
        Lit::new(v, l.is_inverted())
    }

    /// Model value of an AIG literal; unencoded nodes are unconstrained
    /// and read as false.
    fn model(&self, s: &Solver, l: NLit) -> bool {
        if let Some(b) = l.as_const() {
            return b;
        }
        match self.var_of.get(l.node() as usize).copied().flatten() {
            Some(v) => s.model_value(v) != l.is_inverted(),
            None => l.is_inverted(),
        }
    }
}

// ---------------------------------------------------------------------------
// The engine
// ---------------------------------------------------------------------------

struct Engine<'a> {
    cd: &'a CompiledDesign,
    opts: BmcOptions,
    budget: Budget,
    g: Aig,
    solver: Solver,
    enc: Encoder,
    /// Free inputs (name, width), in `StimulusGen` order.
    free_inputs: Vec<(String, u32)>,
    reset: Option<(String, bool)>,
    state: SymState,
    rows: Vec<SymState>,
    /// Per frame, the symbolic free inputs in `free_inputs` order.
    frame_inputs: Vec<Vec<SymVec>>,
    /// Dead-logic elimination masks for the unrolling: `(comb, seq)`
    /// liveness from `CompiledDesign::sym_live` (None = blast everything,
    /// as the `supports` probe and `OptLevel::None` designs do).
    live: Option<(Vec<bool>, Vec<bool>)>,
}

impl<'a> Engine<'a> {
    fn new(
        cd: &'a CompiledDesign,
        opts: BmcOptions,
        budget: &Budget,
        live: Option<(Vec<bool>, Vec<bool>)>,
    ) -> Result<Self, BmcError> {
        if !cd.is_levelized() {
            return Err(BmcError::Unsupported(
                "combinational logic is not levelizable (cyclic, latch-style, \
                 or dynamically indexed)"
                    .into(),
            ));
        }
        let design = cd.design();
        if design.module.assertions().count() == 0 {
            return Err(BmcError::Unsupported("design has no assertions".into()));
        }
        let gen = asv_sim::StimulusGen::new(design);
        let free_inputs = gen.free_inputs().to_vec();
        let reset = design.reset().map(|(n, al)| (n.to_string(), al));
        let mut solver = Solver::new();
        solver.conflict_budget = opts.conflict_budget;
        solver.cancel = budget.cancel_token().cloned();
        solver.deadline = budget.deadline().cloned();
        Ok(Engine {
            cd,
            opts,
            budget: budget.clone(),
            g: Aig::new(),
            solver,
            enc: Encoder::default(),
            free_inputs,
            reset,
            state: SymState::init(cd),
            rows: Vec::new(),
            frame_inputs: Vec::new(),
            live,
        })
    }

    /// Folds the engine-wide conflict cap into the solver's per-call
    /// budget: the remaining allowance is the cap minus conflicts the
    /// solver has already spent across previous depths.
    fn refresh_conflict_budget(&mut self) {
        let per_call = self.opts.conflict_budget;
        let remaining = self
            .budget
            .max_conflicts()
            .map(|m| m.saturating_sub(self.solver.conflicts));
        self.solver.conflict_budget = match (per_call, remaining) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, None) => a,
            (None, b) => b,
        };
    }

    /// The structured error for a solver that reported
    /// [`SolveResult::Unknown`] (conflict budget spent).
    fn conflicts_exhausted(&self) -> BmcError {
        if let Err(stop) = self.budget.check_conflicts(self.solver.conflicts) {
            return stop.into();
        }
        BmcError::Exhausted(Exhausted {
            resource: Resource::SatConflicts,
            spent: self.solver.conflicts,
            limit: self.opts.conflict_budget.unwrap_or(u64::MAX),
        })
    }

    /// The structured error for a solver that reported
    /// [`SolveResult::TimedOut`] (deadline expired mid-search).
    fn timed_out(&self) -> BmcError {
        match self.budget.check() {
            Err(stop) => stop.into(),
            Ok(()) => BmcError::Exhausted(Exhausted {
                resource: Resource::WallClock,
                spent: 0,
                limit: 0,
            }),
        }
    }

    /// Unrolls one more frame: drive inputs, settle, sample, clock, settle
    /// — the exact shape of `Simulator::step`.
    fn push_frame(&mut self) -> Result<(), BmcError> {
        let t = self.rows.len();
        let in_reset = t < self.opts.reset_cycles;
        if let Some((rname, active_low)) = &self.reset {
            let asserted = u64::from(!*active_low);
            let deasserted = 1 - asserted;
            let sig = self.cd.sig(rname).expect("reset is a known signal");
            let v = if in_reset { asserted } else { deasserted };
            self.state.vals[sig.idx()] = SymVec::from_value(Value::new(v, self.cd.width(sig)));
        }
        let mut frame = Vec::with_capacity(self.free_inputs.len());
        for (name, _) in &self.free_inputs {
            let sig = self.cd.sig(name).expect("input is a known signal");
            let w = self.cd.width(sig);
            let sv = if in_reset {
                SymVec::zeros(w)
            } else {
                SymVec::new((0..w).map(|_| self.g.input()).collect())
            };
            self.state.vals[sig.idx()] = sv.clone();
            frame.push(sv);
        }
        self.frame_inputs.push(frame);
        let comb_live = self.live.as_ref().map(|l| l.0.as_slice());
        let seq_live = self.live.as_ref().map(|l| l.1.as_slice());
        settle_sym(&mut self.g, self.cd, &mut self.state, comb_live)?;
        self.rows.push(self.state.clone());
        clock_edge_sym(&mut self.g, self.cd, &mut self.state, seq_live)?;
        settle_sym(&mut self.g, self.cd, &mut self.state, comb_live)?;
        let node_cap = self
            .budget
            .max_aig_nodes()
            .map_or(self.opts.node_limit as u64, |m| {
                m.min(self.opts.node_limit as u64)
            });
        if self.g.len() as u64 > node_cap {
            return Err(BmcError::Exhausted(Exhausted {
                resource: Resource::AigNodes,
                spent: self.g.len() as u64,
                limit: node_cap,
            }));
        }
        Ok(())
    }

    /// Truthiness of a property program at tick `t`.
    fn eval_at(&mut self, prog: &ExprProg, t: usize) -> Result<NLit, BmcError> {
        let env = TraceSymEnv {
            rows: &self.rows,
            t,
        };
        let v = run_sym(&mut self.g, prog, &env)?;
        Ok(v.is_truthy(&mut self.g))
    }

    /// `(match, no_match)` of a linear sequence starting at `s` over a
    /// trace of length `len` — the symbolic form of the monitor's
    /// `match_seq`, where out-of-range atoms are *pending* and contribute
    /// to neither outcome.
    fn seq_lits(&mut self, sp: &SeqProg, s: usize, len: usize) -> Result<(NLit, NLit), BmcError> {
        let mut prefix = NLit::TRUE;
        let mut no_match = NLit::FALSE;
        for atom in &sp.atoms {
            let t = s + atom.tick_off as usize;
            if t >= len {
                break;
            }
            let e = self.eval_at(&atom.prog, t)?;
            let miss = self.g.and(prefix, !e);
            no_match = self.g.or(no_match, miss);
            prefix = self.g.and(prefix, e);
        }
        let matches = if s + (sp.end_off as usize) < len {
            prefix
        } else {
            NLit::FALSE
        };
        Ok((matches, no_match))
    }

    /// `(fail, pass)` of one attempt of `prop` starting at `s` over a
    /// trace of length `len` — the symbolic form of the monitor's
    /// `attempt`.
    fn attempt_lits(
        &mut self,
        prop: &PropSym,
        s: usize,
        len: usize,
    ) -> Result<(NLit, NLit), BmcError> {
        let disabled = match &prop.disable {
            Some(dis) => {
                let end = (s + prop.window as usize).min(len.saturating_sub(1));
                let mut acc = NLit::FALSE;
                for t in s..=end {
                    let d = self.eval_at(dis, t)?;
                    acc = self.g.or(acc, d);
                }
                acc
            }
            None => NLit::FALSE,
        };
        let enabled = !disabled;
        let (fail, pass) = match &prop.body {
            PropBody::Seq(sp) => {
                let (m, nm) = self.seq_lits(sp, s, len)?;
                (nm, m)
            }
            PropBody::Implication {
                antecedent,
                overlapping,
                consequent,
            } => {
                let (am, _) = self.seq_lits(antecedent, s, len)?;
                if am == NLit::FALSE {
                    // Antecedent pending or refuted on every path:
                    // the attempt is vacuous.
                    (NLit::FALSE, NLit::FALSE)
                } else {
                    let cstart = s + antecedent.end_off as usize + usize::from(!overlapping);
                    let (cm, cnm) = self.seq_lits(consequent, cstart, len)?;
                    (self.g.and(am, cnm), self.g.and(am, cm))
                }
            }
        };
        Ok((self.g.and(enabled, fail), self.g.and(enabled, pass)))
    }

    /// Canonicalises the current SAT model into the *lexicographically
    /// smallest* violating input assignment: every free input bit, in
    /// `(frame, input, bit)` order, is forced to 0 under assumptions when
    /// the instance stays satisfiable, else fixed to 1. The result
    /// depends only on the set of violating input sequences — not on the
    /// CNF's shape, variable numbering or VSIDS history — so the witness
    /// is identical across opt levels, engine revisions and worker
    /// counts, and the differential suites can compare counterexamples
    /// bit-for-bit.
    ///
    /// Minimisation probes run under their own small conflict budget
    /// ([`MINIMIZE_CONFLICT_BUDGET`]): after the main solve, fixing bits
    /// is almost always pure propagation, so a genuinely hard probe means
    /// canonicalisation is not worth its cost. The caller keeps the raw
    /// witness it stashed before the call, so abandoning here never loses
    /// the counterexample.
    ///
    /// # Errors
    ///
    /// [`BmcError::Cancelled`] when the token is poisoned mid-probe;
    /// exhausting the probe budget abandons canonicalisation (any other
    /// error is treated the same way by the caller).
    fn minimize_witness(&mut self, fail: Lit, len: usize) -> Result<(), BmcError> {
        let saved = self.solver.conflict_budget;
        self.solver.conflict_budget = Some(saved.map_or(MINIMIZE_CONFLICT_BUDGET, |b| {
            b.min(MINIMIZE_CONFLICT_BUDGET)
        }));
        let r = self.minimize_witness_inner(fail, len);
        self.solver.conflict_budget = saved;
        r
    }

    fn minimize_witness_inner(&mut self, fail: Lit, len: usize) -> Result<(), BmcError> {
        let mut assumps = vec![fail];
        'bits: for t in 0..len {
            for k in 0..self.free_inputs.len() {
                let lits: Vec<NLit> = self.frame_inputs[t][k].lits().to_vec();
                for l in lits {
                    if l.as_const().is_some() {
                        continue; // reset-frame constants
                    }
                    let sl = self.enc.lit(&self.g, &mut self.solver, l);
                    assumps.push(!sl);
                    match self.solver.solve(&assumps) {
                        SolveResult::Sat => {}
                        SolveResult::Unsat => {
                            assumps.pop();
                            assumps.push(sl);
                        }
                        SolveResult::Unknown | SolveResult::TimedOut => {
                            // Out of probe budget (or time): abandon
                            // canonicalisation; the caller keeps the raw
                            // witness.
                            assumps.pop();
                            break 'bits;
                        }
                        SolveResult::Cancelled => return Err(BmcError::Cancelled),
                    }
                }
            }
        }
        // Re-solve the fixed prefix so the model reflects it (the loop
        // may have ended on an Unsat probe). The prefix was satisfiable
        // at every step by construction.
        match self.solver.solve(&assumps) {
            SolveResult::Sat => Ok(()),
            SolveResult::Unsat => Err(BmcError::Resource(
                "witness minimisation lost satisfiability".into(),
            )),
            SolveResult::Unknown | SolveResult::TimedOut => {
                Err(BmcError::Resource("conflict budget exhausted".into()))
            }
            SolveResult::Cancelled => Err(BmcError::Cancelled),
        }
    }

    /// Decodes the solver model (or the trivial all-zero assignment) into
    /// a concrete stimulus of length `len`, shaped exactly like
    /// `StimulusGen` output so replays drive the simulator identically.
    fn extract_stimulus(&self, len: usize, use_model: bool) -> Stimulus {
        let mut vectors = Vec::with_capacity(len);
        for t in 0..len {
            let in_reset = t < self.opts.reset_cycles;
            let mut vec: InputVector = Vec::with_capacity(self.free_inputs.len() + 1);
            if let Some((r, active_low)) = &self.reset {
                let asserted = u64::from(!*active_low);
                vec.push((r.clone(), if in_reset { asserted } else { 1 - asserted }));
            }
            for (k, (name, _)) in self.free_inputs.iter().enumerate() {
                let v = if in_reset || !use_model {
                    0
                } else {
                    let sv = &self.frame_inputs[t][k];
                    let mut bits = 0u64;
                    for (i, &l) in sv.lits().iter().enumerate() {
                        if self.enc.model(&self.solver, l) {
                            bits |= 1 << i;
                        }
                    }
                    bits
                };
                vec.push((name.clone(), v));
            }
            vectors.push(vec);
        }
        Stimulus {
            vectors,
            reset_cycles: self.opts.reset_cycles,
        }
    }

    fn run(&mut self, props: &[PropSym]) -> Result<BmcVerdict, BmcError> {
        let max_len = self.opts.reset_cycles + self.opts.depth;
        if max_len == 0 {
            return Ok(BmcVerdict::Holds {
                vacuous: props.iter().map(|p| p.name.clone()).collect(),
            });
        }
        let trace = self.budget.trace().clone();
        for len in 1..=max_len {
            // Poll before starting the depth, not just inside it: a
            // check cancelled between depths stops here
            // immediately instead of burning a full check interval.
            self.budget.probe(probe::SAT_DEPTH)?;
            let mut blast = trace.span(probe::SAT_BLAST, SpanKind::AigBlast);
            blast.set_code(len as u64);
            let nodes_before = self.g.len();
            self.push_frame()?;
            let mut fail = NLit::FALSE;
            for prop in props {
                for s in 0..len {
                    let (f, _) = self.attempt_lits(prop, s, len)?;
                    fail = self.g.or(fail, f);
                }
            }
            blast.add_cost(Cost {
                aig_nodes: (self.g.len() - nodes_before) as u64,
                ..Cost::default()
            });
            drop(blast);
            match fail.as_const() {
                Some(false) => continue,
                Some(true) => {
                    // Every input sequence fails; the all-zero one will do.
                    return Ok(BmcVerdict::Fails {
                        stimulus: self.extract_stimulus(len, false),
                    });
                }
                None => {
                    self.refresh_conflict_budget();
                    let q = self.enc.lit(&self.g, &mut self.solver, fail);
                    let mut solve = trace.span(probe::SAT_SOLVE, SpanKind::SatSolve);
                    solve.set_code(len as u64);
                    let conflicts_before = self.solver.conflicts;
                    let decisions_before = self.solver.decisions;
                    let propagations_before = self.solver.propagations;
                    let res = self.solver.solve(&[q]);
                    solve.add_cost(Cost {
                        conflicts: self.solver.conflicts - conflicts_before,
                        decisions: self.solver.decisions - decisions_before,
                        propagations: self.solver.propagations - propagations_before,
                        ..Cost::default()
                    });
                    drop(solve);
                    match res {
                        SolveResult::Sat => {
                            // A witness exists. Canonicalisation must
                            // never lose it: stash the raw model's
                            // stimulus first, and fall back to it if the
                            // probe budget runs out mid-minimisation.
                            let raw = self.extract_stimulus(len, true);
                            let stimulus = match self.minimize_witness(q, len) {
                                Ok(()) => self.extract_stimulus(len, true),
                                Err(BmcError::Cancelled) => return Err(BmcError::Cancelled),
                                Err(_) => raw,
                            };
                            return Ok(BmcVerdict::Fails { stimulus });
                        }
                        SolveResult::Unsat => continue,
                        SolveResult::Unknown => return Err(self.conflicts_exhausted()),
                        SolveResult::TimedOut => return Err(self.timed_out()),
                        SolveResult::Cancelled => return Err(BmcError::Cancelled),
                    }
                }
            }
        }
        // Bounded proof; decide vacuity per assertion name, mirroring the
        // oracle's `fired` bookkeeping (a name counts as fired when any
        // directive bearing it can complete a non-vacuous attempt).
        let mut pass_by_name: BTreeMap<&str, NLit> = BTreeMap::new();
        for prop in props {
            self.budget.check().map_err(BmcError::from)?;
            let mut pass = NLit::FALSE;
            for s in 0..max_len {
                let (_, pl) = self.attempt_lits(prop, s, max_len)?;
                pass = self.g.or(pass, pl);
            }
            let entry = pass_by_name.entry(&prop.name).or_insert(NLit::FALSE);
            *entry = self.g.or(*entry, pass);
        }
        let mut fired: BTreeSet<&str> = BTreeSet::new();
        for (name, lit) in &pass_by_name {
            // Each vacuity query is its own SAT solve: poll between
            // them so cancellation and deadlines land mid-phase, not
            // only after the whole phase.
            self.budget.probe(probe::SAT_VACUITY)?;
            let can_fire = match lit.as_const() {
                Some(b) => b,
                None => {
                    self.refresh_conflict_budget();
                    let q = self.enc.lit(&self.g, &mut self.solver, *lit);
                    let mut solve = trace.span(probe::SAT_VACUITY, SpanKind::SatSolve);
                    let conflicts_before = self.solver.conflicts;
                    let decisions_before = self.solver.decisions;
                    let propagations_before = self.solver.propagations;
                    let res = self.solver.solve(&[q]);
                    solve.add_cost(Cost {
                        conflicts: self.solver.conflicts - conflicts_before,
                        decisions: self.solver.decisions - decisions_before,
                        propagations: self.solver.propagations - propagations_before,
                        ..Cost::default()
                    });
                    drop(solve);
                    match res {
                        SolveResult::Sat => true,
                        SolveResult::Unsat => false,
                        SolveResult::Unknown => return Err(self.conflicts_exhausted()),
                        SolveResult::TimedOut => return Err(self.timed_out()),
                        SolveResult::Cancelled => return Err(BmcError::Cancelled),
                    }
                }
            };
            if can_fire {
                fired.insert(name);
            }
        }
        let vacuous = props
            .iter()
            .map(|p| p.name.clone())
            .filter(|n| !fired.contains(n.as_str()))
            .collect();
        Ok(BmcVerdict::Holds { vacuous })
    }
}

/// Symbolically model-checks every assertion of a compiled design.
///
/// # Errors
///
/// [`BmcError::Unsupported`] when the design falls outside the encodable
/// subset (non-levelizable logic, non-constant division, unsupported
/// system calls); [`BmcError::Exhausted`] when a budget is exhausted.
/// Both are signals to fall back to the simulation oracle.
pub fn check(cd: &CompiledDesign, opts: BmcOptions) -> Result<BmcVerdict, BmcError> {
    check_budgeted(cd, opts, &Budget::unbounded())
}

/// [`check`] under a full resource [`Budget`]: the deadline and conflict
/// cap are threaded into the CDCL inner loop, the AIG node cap tightens
/// `BmcOptions::node_limit`, and the per-depth loop polls the budget (and
/// its fault probes) before each unrolling step. A poisoned
/// [`asv_sim::CancelToken`] stops the search within one
/// [`crate::solver::CANCEL_CHECK_INTERVAL`] of solver work.
///
/// # Errors
///
/// As [`check`], plus [`BmcError::Cancelled`] for a poisoned token and a
/// structured [`BmcError::Exhausted`] whenever any budget dimension runs
/// out.
pub fn check_budgeted(
    cd: &CompiledDesign,
    opts: BmcOptions,
    budget: &Budget,
) -> Result<BmcVerdict, BmcError> {
    let props = compile_props(cd)?;
    // Dead-logic elimination: restrict the unrolling to the assertion
    // cone. Gated on the opt level so `OptLevel::None` stays the
    // untouched reference unrolling; steps that might not bit-blast are
    // pinned live inside `sym_live`, so the accept/reject decision is
    // identical either way.
    let live =
        (cd.opt_level() == asv_sim::OptLevel::Full).then(|| cd.sym_live(&prop_roots(&props)));
    Engine::new(cd, opts, budget, live)?.run(&props)
}

/// Observability roots of the properties: every signal any compiled
/// property program (body atoms, disable guards, history sub-programs)
/// reads.
pub(crate) fn prop_roots(props: &[PropSym]) -> Vec<SigId> {
    let mut roots = Vec::new();
    let seq = |sp: &SeqProg, roots: &mut Vec<SigId>| {
        for a in &sp.atoms {
            a.prog.collect_sigs(roots);
        }
    };
    for p in props {
        if let Some(d) = &p.disable {
            d.collect_sigs(&mut roots);
        }
        match &p.body {
            PropBody::Seq(sp) => seq(sp, &mut roots),
            PropBody::Implication {
                antecedent,
                consequent,
                ..
            } => {
                seq(antecedent, &mut roots);
                seq(consequent, &mut roots);
            }
        }
    }
    roots
}

/// Size metrics of a bounded unrolling (for `table_engines` and the
/// README's before/after table).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnrollStats {
    /// AIG nodes after unrolling every frame and building the combined
    /// fail cone.
    pub aig_nodes: usize,
    /// CNF variables after Tseitin-encoding the fail cone.
    pub cnf_vars: usize,
    /// CNF clauses after Tseitin-encoding the fail cone.
    pub cnf_clauses: usize,
}

/// Unrolls the full bound (same schedule, cone restriction and property
/// logic as [`check`]) and Tseitin-encodes the combined fail cone —
/// without solving. The resulting sizes quantify what the IR pipeline
/// saves the SAT engine per design.
///
/// # Errors
///
/// As [`check`], minus anything solver-related.
pub fn unroll_stats(cd: &CompiledDesign, opts: BmcOptions) -> Result<UnrollStats, BmcError> {
    let props = compile_props(cd)?;
    let live =
        (cd.opt_level() == asv_sim::OptLevel::Full).then(|| cd.sym_live(&prop_roots(&props)));
    let mut engine = Engine::new(cd, opts, &Budget::unbounded(), live)?;
    let max_len = opts.reset_cycles + opts.depth;
    for _ in 0..max_len {
        engine.push_frame()?;
    }
    let mut fail = NLit::FALSE;
    for prop in &props {
        for s in 0..max_len {
            let (f, _) = engine.attempt_lits(prop, s, max_len)?;
            fail = engine.g.or(fail, f);
        }
    }
    if fail.as_const().is_none() {
        let _ = engine.enc.lit(&engine.g, &mut engine.solver, fail);
    }
    Ok(UnrollStats {
        aig_nodes: engine.g.len(),
        cnf_vars: engine.solver.num_vars(),
        cnf_clauses: engine.solver.num_clauses(),
    })
}

/// Cheap structural probe: does `cd` fall inside the symbolic engine's
/// encodable subset?
///
/// Compiles every property and symbolically blasts **one post-reset
/// frame** (settle, sample, clock edge, settle) plus one attempt of each
/// property — the frame is driven with free symbolic inputs (no reset
/// prefix), so every operator the full unrolling would blast is
/// exercised once, without paying for SAT solving or deep unrolling. The
/// service's persistent store uses this to decide whether an `Auto`
/// verdict is key-pure.
///
/// # Errors
///
/// [`BmcError::Unsupported`] exactly when [`check`] would reject the
/// design before its first SAT call.
pub fn supports(cd: &CompiledDesign) -> Result<(), BmcError> {
    let props = compile_props(cd)?;
    let probe = BmcOptions {
        depth: 1,
        reset_cycles: 0,
        conflict_budget: Some(0),
        ..BmcOptions::default()
    };
    // The probe blasts the FULL schedule (no cone restriction): the
    // accept/reject answer must match what `check` would decide for the
    // same design at `OptLevel::None`, where nothing is masked.
    let mut engine = Engine::new(cd, probe, &Budget::unbounded(), None)?;
    engine.push_frame()?;
    for prop in &props {
        engine.attempt_lits(prop, 0, 1)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use asv_sim::Simulator;
    use std::sync::Arc;

    fn compiled(src: &str) -> Arc<CompiledDesign> {
        let d = asv_verilog::compile(src).expect("compile");
        Arc::new(CompiledDesign::compile(&d))
    }

    const GOOD: &str = r#"
module latch1(input clk, input rst_n, input d, output reg q);
  always @(posedge clk or negedge rst_n) begin
    if (!rst_n) q <= 1'b0;
    else q <= d;
  end
  property follow;
    @(posedge clk) disable iff (!rst_n) d |-> ##1 q;
  endproperty
  chk: assert property (follow) else $error("q must follow d");
endmodule
"#;

    #[test]
    fn good_design_holds_non_vacuously() {
        let cd = compiled(GOOD);
        let verdict = check(
            &cd,
            BmcOptions {
                depth: 6,
                reset_cycles: 2,
                ..BmcOptions::default()
            },
        )
        .expect("symbolic check");
        assert_eq!(verdict, BmcVerdict::Holds { vacuous: vec![] });
    }

    #[test]
    fn buggy_design_yields_replaying_counterexample() {
        let cd = compiled(&GOOD.replace("q <= d;", "q <= !d;"));
        let verdict = check(
            &cd,
            BmcOptions {
                depth: 6,
                reset_cycles: 2,
                ..BmcOptions::default()
            },
        )
        .expect("symbolic check");
        let BmcVerdict::Fails { stimulus } = verdict else {
            panic!("bug must be refuted");
        };
        // The witness must replay to a concrete assertion failure. (The
        // sva monitor cannot be used here — it depends on this crate — so
        // re-check `d |-> ##1 q` by hand: some post-reset tick must show
        // d=1 with q=0 one tick later.)
        let mut sim = Simulator::from_compiled(Arc::clone(&cd));
        for t in 0..stimulus.len() {
            sim.step(&stimulus.cycle(t)).expect("step");
        }
        let trace = sim.into_trace();
        let bit = |t: usize, name: &str| trace.value(t, name).map(|v| v.bits()).unwrap_or(0);
        let violated = (0..trace.len().saturating_sub(1)).any(|t| {
            bit(t, "rst_n") == 1
                && bit(t + 1, "rst_n") == 1
                && bit(t, "d") == 1
                && bit(t + 1, "q") == 0
        });
        assert!(violated, "replay must fail the assertion");
    }

    #[test]
    fn rare_trigger_bug_is_found() {
        // The antecedent fires only for a == 0xA5: random sampling has a
        // 1/256-per-cycle chance; the solver finds it directly.
        let src = r#"
module rare(input clk, input rst_n, input [7:0] a, output reg bad);
  always @(posedge clk or negedge rst_n) begin
    if (!rst_n) bad <= 1'b0;
    else bad <= (a == 8'hA5);
  end
  p_rare: assert property (@(posedge clk) disable iff (!rst_n)
    a == 8'hA5 |-> ##1 !bad) else $error("rare trigger");
endmodule
"#;
        let cd = compiled(src);
        let verdict = check(
            &cd,
            BmcOptions {
                depth: 8,
                reset_cycles: 2,
                ..BmcOptions::default()
            },
        )
        .expect("symbolic check");
        let BmcVerdict::Fails { stimulus } = verdict else {
            panic!("rare-trigger bug must be refuted symbolically");
        };
        // The witness must actually drive a to 0xA5 at some post-reset tick.
        let hit = (0..stimulus.len()).any(|t| {
            stimulus
                .cycle(t)
                .iter()
                .any(|(n, v)| *n == "a" && *v == 0xA5)
        });
        assert!(hit, "witness must contain the rare trigger value");
    }

    #[test]
    fn vacuous_assertion_is_reported() {
        // The antecedent can never hold (a > 15 on a 4-bit input).
        let src = r#"
module vac(input clk, input rst_n, input [3:0] a, output reg q);
  always @(posedge clk or negedge rst_n) begin
    if (!rst_n) q <= 1'b0;
    else q <= 1'b1;
  end
  p_vac: assert property (@(posedge clk) disable iff (!rst_n)
    a > 4'd15 |-> ##1 q) else $error("unreachable");
endmodule
"#;
        let cd = compiled(src);
        let verdict = check(
            &cd,
            BmcOptions {
                depth: 6,
                reset_cycles: 2,
                ..BmcOptions::default()
            },
        )
        .expect("symbolic check");
        assert_eq!(
            verdict,
            BmcVerdict::Holds {
                vacuous: vec!["p_vac".to_string()]
            }
        );
    }

    #[test]
    fn non_levelizable_designs_are_unsupported() {
        let src = r#"
module lat(input clk, input en, input d, output reg q);
  always @(*) begin if (en) q = d; end
  p: assert property (@(posedge clk) 1'b1 |-> 1'b1);
endmodule
"#;
        let cd = compiled(src);
        assert!(matches!(
            check(&cd, BmcOptions::default()),
            Err(BmcError::Unsupported(_))
        ));
    }

    #[test]
    fn supports_probe_matches_full_check() {
        assert!(supports(&compiled(GOOD)).is_ok());
        let latch = r#"
module lat(input clk, input en, input d, output reg q);
  always @(*) begin if (en) q = d; end
  p: assert property (@(posedge clk) 1'b1 |-> 1'b1);
endmodule
"#;
        assert!(matches!(
            supports(&compiled(latch)),
            Err(BmcError::Unsupported(_))
        ));
        // Symbolic-input-dependent unsupported op (non-constant shift is
        // fine, non-constant division is not): the probe must catch it
        // even though a reset-frame constant fold would hide it.
        let div = r#"
module dv(input clk, input rst_n, input [3:0] a, output reg [3:0] q);
  always @(posedge clk or negedge rst_n) begin
    if (!rst_n) q <= 4'd0;
    else q <= 4'd8 / a;
  end
  p: assert property (@(posedge clk) disable iff (!rst_n) 1'b1 |-> 1'b1);
endmodule
"#;
        assert_eq!(
            supports(&compiled(div)).is_ok(),
            check(&compiled(div), BmcOptions::default()).is_ok(),
            "probe and full check must agree on non-constant division"
        );
    }

    #[test]
    fn expired_manual_deadline_reports_structured_exhaustion() {
        // Injected clock ticks, no sleeps: an expired deadline surfaces
        // as Exhausted{WallClock} from the per-depth poll / CDCL loop.
        let cd = compiled(GOOD);
        let clock = asv_sim::ManualClock::new();
        let budget = Budget::unbounded().with_manual_deadline(clock.clone(), 3);
        clock.advance(4);
        match check_budgeted(&cd, BmcOptions::default(), &budget) {
            Err(BmcError::Exhausted(e)) => {
                assert_eq!(e.resource, Resource::WallClock);
                assert_eq!(e.spent, 4);
                assert_eq!(e.limit, 3);
            }
            other => panic!("expected wall-clock exhaustion, got {other:?}"),
        }
    }

    #[test]
    fn aig_node_cap_reports_structured_exhaustion() {
        let cd = compiled(GOOD);
        let budget = Budget::unbounded().with_max_aig_nodes(4);
        match check_budgeted(&cd, BmcOptions::default(), &budget) {
            Err(BmcError::Exhausted(e)) => {
                assert_eq!(e.resource, Resource::AigNodes);
                assert_eq!(e.limit, 4);
                assert!(e.spent > 4);
            }
            other => panic!("expected AIG-node exhaustion, got {other:?}"),
        }
    }

    #[test]
    fn budgeted_check_with_headroom_matches_unbounded() {
        let cd = compiled(GOOD);
        let opts = BmcOptions {
            depth: 6,
            reset_cycles: 2,
            ..BmcOptions::default()
        };
        let roomy = Budget::unbounded()
            .with_max_conflicts(1 << 20)
            .with_max_aig_nodes(4_000_000);
        assert_eq!(
            check_budgeted(&cd, opts, &roomy).expect("within budget"),
            check(&cd, opts).expect("unbounded"),
            "a budget with headroom must not change the verdict"
        );
    }

    #[test]
    fn poisoned_token_cancels_the_check_without_panicking() {
        let cd = compiled(GOOD);
        let token = asv_sim::CancelToken::new();
        token.cancel();
        let verdict = check_budgeted(
            &cd,
            BmcOptions {
                depth: 6,
                reset_cycles: 2,
                ..BmcOptions::default()
            },
            &Budget::unbounded().with_cancel(token),
        );
        assert_eq!(verdict, Err(BmcError::Cancelled));
    }
}

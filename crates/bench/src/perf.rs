//! Performance observatory: a deterministic counter matrix, a
//! schema-versioned bench report (`BENCH_<label>.json`), and the
//! regression-gate comparison the `perf_gate` binary drives.
//!
//! Each workload records one signal: the [`CostCounters`] work vector
//! folded from a traced run ([`asv_trace::cost`]). Counters are
//! machine-independent and bit-identical across worker counts, so the
//! gate compares them with **exact equality**: any drift is either a
//! real cost change or a determinism break, and both deserve a red
//! build. Wall time is not measured here; the repository benchmark
//! (`perfbench/`) owns it.
//!
//! Determinism caveat the matrix is built around (see `asv_trace::cost`
//! module docs): the counter legs pre-warm the process-wide compile
//! cache before concurrent serving (racing workers may otherwise both
//! compile the same design).
//!
//! No serde in this workspace, so [`json`] is a ~150-line hand-rolled
//! parser covering exactly the JSON this module emits.

use asv_datagen::corpus::{Archetype, CorpusGen};
use asv_fuzz::{AssertionOracle, FuzzOptions};
use asv_mutation::inject::{apply, enumerate};
use asv_serve::{ServeOptions, VerifyJob, VerifyService};
use asv_sim::cover::CovMap;
use asv_sim::{
    run_stimulus_group, Budget, CompiledDesign, OptLevel, Simulator, Stimulus, StimulusGen, Trace,
};
use asv_sva::bmc::{Engine, Verifier};
use asv_sva::monitor::CompiledChecker;
use asv_trace::{CostCounters, Event, Tracer};
use asv_verilog::Design;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Bench report schema version; bump on any incompatible layout change.
/// v2: added the lane-batched simulation legs (`simulate_64x_scalar`,
/// `simulate_64x_batch`, `fuzz_throughput_batch`) and the
/// `sim_batches`/`sim_lanes_*` counter fields.
/// v3: counters only — dropped `scale`, `created_unix`, `wall_ns`,
/// `wall_min_ns` and the `job_ns_*` latency quantiles.
pub const SCHEMA_VERSION: u64 = 3;

// ---------------------------------------------------------------------------
// Minimal JSON
// ---------------------------------------------------------------------------

/// A minimal JSON reader/writer sized for bench reports. Integers that
/// fit `u64` are kept exact (no `f64` round-trip), objects preserve key
/// order, and the escape set is the JSON-mandated minimum.
pub mod json {
    /// A parsed JSON value.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Value {
        /// `null`
        Null,
        /// `true` / `false`
        Bool(bool),
        /// A non-negative integer that fits `u64`, kept exact.
        Int(u64),
        /// Any other number.
        Num(f64),
        /// A string.
        Str(String),
        /// An array.
        Arr(Vec<Value>),
        /// An object; key order preserved.
        Obj(Vec<(String, Value)>),
    }

    impl Value {
        /// Object member lookup (first match).
        pub fn get(&self, key: &str) -> Option<&Value> {
            match self {
                Value::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
                _ => None,
            }
        }

        /// The value as `u64`, if it is an exact non-negative integer.
        pub fn as_u64(&self) -> Option<u64> {
            match self {
                Value::Int(n) => Some(*n),
                _ => None,
            }
        }

        /// The value as a string slice.
        pub fn as_str(&self) -> Option<&str> {
            match self {
                Value::Str(s) => Some(s),
                _ => None,
            }
        }

        /// The value as an array slice.
        pub fn as_arr(&self) -> Option<&[Value]> {
            match self {
                Value::Arr(items) => Some(items),
                _ => None,
            }
        }

        /// The value's object members.
        pub fn as_obj(&self) -> Option<&[(String, Value)]> {
            match self {
                Value::Obj(members) => Some(members),
                _ => None,
            }
        }
    }

    /// Escapes `s` for embedding in a JSON string literal.
    pub fn escape(s: &str) -> String {
        let mut out = String::with_capacity(s.len());
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out
    }

    /// Parses a complete JSON document (trailing garbage is an error).
    pub fn parse(text: &str) -> Result<Value, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing characters at byte {}", p.pos));
        }
        Ok(v)
    }

    struct Parser<'a> {
        bytes: &'a [u8],
        pos: usize,
    }

    impl Parser<'_> {
        fn skip_ws(&mut self) {
            while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
                self.pos += 1;
            }
        }

        fn peek(&self) -> Option<u8> {
            self.bytes.get(self.pos).copied()
        }

        fn expect(&mut self, b: u8) -> Result<(), String> {
            if self.peek() == Some(b) {
                self.pos += 1;
                Ok(())
            } else {
                Err(format!(
                    "expected `{}` at byte {}, found {:?}",
                    b as char,
                    self.pos,
                    self.peek().map(|c| c as char)
                ))
            }
        }

        fn value(&mut self) -> Result<Value, String> {
            match self.peek() {
                Some(b'{') => self.object(),
                Some(b'[') => self.array(),
                Some(b'"') => Ok(Value::Str(self.string()?)),
                Some(b't') => self.literal("true", Value::Bool(true)),
                Some(b'f') => self.literal("false", Value::Bool(false)),
                Some(b'n') => self.literal("null", Value::Null),
                Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
                other => Err(format!(
                    "unexpected {:?} at byte {}",
                    other.map(|c| c as char),
                    self.pos
                )),
            }
        }

        fn literal(&mut self, lit: &str, v: Value) -> Result<Value, String> {
            if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
                self.pos += lit.len();
                Ok(v)
            } else {
                Err(format!("invalid literal at byte {}", self.pos))
            }
        }

        fn object(&mut self) -> Result<Value, String> {
            self.expect(b'{')?;
            let mut members = Vec::new();
            self.skip_ws();
            if self.peek() == Some(b'}') {
                self.pos += 1;
                return Ok(Value::Obj(members));
            }
            loop {
                self.skip_ws();
                let key = self.string()?;
                self.skip_ws();
                self.expect(b':')?;
                self.skip_ws();
                let v = self.value()?;
                members.push((key, v));
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b'}') => {
                        self.pos += 1;
                        return Ok(Value::Obj(members));
                    }
                    _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
                }
            }
        }

        fn array(&mut self) -> Result<Value, String> {
            self.expect(b'[')?;
            let mut items = Vec::new();
            self.skip_ws();
            if self.peek() == Some(b']') {
                self.pos += 1;
                return Ok(Value::Arr(items));
            }
            loop {
                self.skip_ws();
                items.push(self.value()?);
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b']') => {
                        self.pos += 1;
                        return Ok(Value::Arr(items));
                    }
                    _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
                }
            }
        }

        fn string(&mut self) -> Result<String, String> {
            self.expect(b'"')?;
            let mut out = String::new();
            loop {
                match self.peek() {
                    None => return Err("unterminated string".into()),
                    Some(b'"') => {
                        self.pos += 1;
                        return Ok(out);
                    }
                    Some(b'\\') => {
                        self.pos += 1;
                        match self.peek() {
                            Some(b'"') => out.push('"'),
                            Some(b'\\') => out.push('\\'),
                            Some(b'/') => out.push('/'),
                            Some(b'n') => out.push('\n'),
                            Some(b'r') => out.push('\r'),
                            Some(b't') => out.push('\t'),
                            Some(b'b') => out.push('\u{8}'),
                            Some(b'f') => out.push('\u{c}'),
                            Some(b'u') => {
                                let hex = self
                                    .bytes
                                    .get(self.pos + 1..self.pos + 5)
                                    .ok_or("truncated \\u escape")?;
                                let hex = std::str::from_utf8(hex)
                                    .map_err(|_| "invalid \\u escape".to_string())?;
                                let code = u32::from_str_radix(hex, 16)
                                    .map_err(|_| "invalid \\u escape".to_string())?;
                                // Surrogate pairs are not emitted by this
                                // module; map lone surrogates to U+FFFD.
                                out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                                self.pos += 4;
                            }
                            other => {
                                return Err(format!(
                                    "invalid escape {:?}",
                                    other.map(|c| c as char)
                                ))
                            }
                        }
                        self.pos += 1;
                    }
                    Some(_) => {
                        // Consume one UTF-8 scalar (multi-byte safe).
                        let rest = std::str::from_utf8(&self.bytes[self.pos..])
                            .map_err(|_| "invalid UTF-8 in string".to_string())?;
                        let c = rest.chars().next().unwrap();
                        out.push(c);
                        self.pos += c.len_utf8();
                    }
                }
            }
        }

        fn number(&mut self) -> Result<Value, String> {
            let start = self.pos;
            if self.peek() == Some(b'-') {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
            let integral = self.pos;
            if self.peek() == Some(b'.') {
                self.pos += 1;
                while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                    self.pos += 1;
                }
            }
            if matches!(self.peek(), Some(b'e' | b'E')) {
                self.pos += 1;
                if matches!(self.peek(), Some(b'+' | b'-')) {
                    self.pos += 1;
                }
                while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                    self.pos += 1;
                }
            }
            let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
            if integral == self.pos {
                // No fraction/exponent: keep exact when it fits u64.
                if let Ok(n) = text.parse::<u64>() {
                    return Ok(Value::Int(n));
                }
            }
            text.parse::<f64>()
                .map(Value::Num)
                .map_err(|_| format!("invalid number `{text}`"))
        }
    }
}

// ---------------------------------------------------------------------------
// Report model
// ---------------------------------------------------------------------------

/// A full matrix run: the counter vector of every workload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchReport {
    /// Free-form label (`BENCH_<label>.json`).
    pub label: String,
    /// Deterministic work counters keyed by workload name.
    pub workloads: BTreeMap<String, CostCounters>,
}

impl BenchReport {
    /// Serializes the report (schema v[`SCHEMA_VERSION`]).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"schema\": {},\n", SCHEMA_VERSION));
        out.push_str(&format!(
            "  \"label\": \"{}\",\n",
            json::escape(&self.label)
        ));
        out.push_str("  \"workloads\": {\n");
        for (i, (name, counters)) in self.workloads.iter().enumerate() {
            out.push_str(&format!("    \"{}\": {{\n", json::escape(name)));
            out.push_str(&format!("      \"counters\": {}\n", counters.to_json()));
            out.push_str(if i + 1 < self.workloads.len() {
                "    },\n"
            } else {
                "    }\n"
            });
        }
        out.push_str("  }\n}\n");
        out
    }

    /// Parses and validates a report: schema version, required members
    /// and the full counter vector per workload. Errors name the
    /// offending member.
    pub fn parse(text: &str) -> Result<BenchReport, String> {
        let root = json::parse(text)?;
        let schema = root
            .get("schema")
            .and_then(json::Value::as_u64)
            .ok_or("missing `schema`")?;
        if schema != SCHEMA_VERSION {
            return Err(format!(
                "schema version {schema} (this build reads {SCHEMA_VERSION})"
            ));
        }
        let label = root
            .get("label")
            .and_then(json::Value::as_str)
            .ok_or("missing `label`")?
            .to_string();
        let mut workloads = BTreeMap::new();
        let members = root
            .get("workloads")
            .and_then(json::Value::as_obj)
            .ok_or("missing `workloads` object")?;
        for (name, w) in members {
            let counters_obj = w
                .get("counters")
                .ok_or_else(|| format!("workload `{name}`: missing `counters`"))?;
            let mut missing = None;
            let counters = CostCounters::from_named(|field| {
                let v = counters_obj.get(field).and_then(json::Value::as_u64);
                if v.is_none() && missing.is_none() {
                    missing = Some(field.to_string());
                }
                v
            })
            .ok_or_else(|| {
                format!(
                    "workload `{name}`: counters missing field `{}`",
                    missing.unwrap_or_default()
                )
            })?;
            workloads.insert(name.clone(), counters);
        }
        Ok(BenchReport { label, workloads })
    }
}

// ---------------------------------------------------------------------------
// Workload matrix
// ---------------------------------------------------------------------------

/// Golden designs plus a bug-injected pool, two sizes per archetype,
/// from the same deterministic corpus seed the trace demo uses.
pub struct DesignPool {
    /// One golden design per corpus entry.
    pub golden: Vec<Arc<Design>>,
    /// Golden + first-injectable-bug variants, interleaved.
    pub pool: Vec<Arc<Design>>,
}

/// Builds the benchmark design pool. Fully deterministic.
pub fn design_pool() -> DesignPool {
    let designs = CorpusGen::new(0x0B5E7).generate(2 * Archetype::ALL.len());
    let mut golden_out = Vec::new();
    let mut pool = Vec::new();
    for gd in &designs {
        let golden = asv_verilog::compile(&gd.source).expect("golden corpus design compiles");
        if let Some(buggy) = enumerate(&golden).into_iter().find_map(|m| {
            let injection = apply(&golden, &m).ok()?;
            asv_verilog::compile(&injection.buggy_source).ok()
        }) {
            pool.push(Arc::new(buggy));
        }
        let golden = Arc::new(golden);
        pool.push(Arc::clone(&golden));
        golden_out.push(golden);
    }
    DesignPool {
        golden: golden_out,
        pool,
    }
}

/// The bench `Verifier`: small uniform budgets so every engine finishes
/// in milliseconds while still doing representative work.
pub fn bench_verifier(engine: Engine) -> Verifier {
    Verifier {
        depth: 8,
        reset_cycles: 2,
        exhaustive_limit: 256,
        random_runs: 24,
        engine,
        ..Verifier::default()
    }
}

/// The serve workload: a mixed 64-job batch over golden + buggy designs
/// with engines rotating through every [`Engine`].
pub fn mixed_batch() -> Vec<VerifyJob> {
    let pool = design_pool().pool;
    let engines = [
        Engine::Auto,
        Engine::Symbolic,
        Engine::Simulation,
        Engine::Fuzz,
    ];
    (0..64)
        .map(|i| {
            VerifyJob::new(
                Arc::clone(&pool[i % pool.len()]),
                bench_verifier(engines[i % engines.len()]),
            )
        })
        .collect()
}

/// Pre-warms the process-wide compile cache for every job, so a traced
/// concurrent run sees deterministic hit counts (two workers racing on
/// a cold cache may both compile the same design).
pub fn prewarm_compile_cache(jobs: &[VerifyJob]) {
    for job in jobs {
        asv_sim::cache::global().get_or_compile_opt(&job.design, job.verifier.opt);
    }
}

/// Runs `jobs` through a traced service with `workers` threads
/// (0 = all cores) against a pre-warmed compile cache and returns the
/// folded counters plus the raw events. The counters are bit-identical
/// for any `workers` value — `tests/perf_counters.rs` enforces this.
pub fn batch_counters(jobs: &[VerifyJob], workers: usize) -> (CostCounters, Vec<Event>) {
    asv_serve::clear_design_cache();
    prewarm_compile_cache(jobs);
    let tracer = Tracer::new();
    let service = VerifyService::new(ServeOptions {
        workers,
        ..ServeOptions::default()
    })
    .traced(tracer.clone());
    let (_outcomes, _reports, events) = service.verify_batch_traced(jobs);
    assert_eq!(
        tracer.dropped(),
        0,
        "trace ring overflow would skew counters"
    );
    (CostCounters::from_events(&events), events)
}

fn workload_compile(golden: &[Arc<Design>]) -> CostCounters {
    let tracer = Tracer::new();
    let handle = tracer.handle();
    for d in golden {
        std::hint::black_box(CompiledDesign::compile_traced(d, OptLevel::Full, &handle));
    }
    CostCounters::from_events(&tracer.drain())
}

fn compile_all(golden: &[Arc<Design>]) -> Vec<Arc<CompiledDesign>> {
    golden
        .iter()
        .map(|d| Arc::new(CompiledDesign::compile_opt(d, OptLevel::Full)))
        .collect()
}

fn workload_simulate(golden: &[Arc<Design>], cycles: usize) -> CostCounters {
    let mut counters = CostCounters::default();
    for c in compile_all(golden) {
        let mut sim = Simulator::from_compiled(c);
        sim.enable_op_count();
        sim.run(cycles, &[]).expect("bench design simulates");
        counters.ops = counters.ops.saturating_add(sim.ops_executed());
    }
    counters
}

/// Stimulus-throughput workload: 64 seeded random stimuli per design
/// (the "64x" in the workload names) drained through
/// [`run_stimulus_group`] at lane width `lanes` (1 = the scalar
/// fallback loop). The scalar and batched legs simulate identical work,
/// so their `ops` counters must be equal. Per-lane op tallies are
/// scalar-basis; batch occupancy is a pure function of the stimulus
/// count and the lane width.
fn workload_simulate_stimuli(golden: &[Arc<Design>], cycles: usize, lanes: usize) -> CostCounters {
    let mut counters = CostCounters::default();
    for (d, c) in golden.iter().zip(compile_all(golden)) {
        let gen = StimulusGen::new(d);
        let stims: Vec<Stimulus> = (0..64u64)
            .map(|i| gen.random_seeded(cycles, 2, 0x64C4 ^ i))
            .collect();
        for group in stims.chunks(lanes) {
            for run in run_stimulus_group(&c, group, lanes, None, true)
                .into_iter()
                .flatten()
            {
                counters.ops = counters.ops.saturating_add(run.ops);
            }
        }
        if lanes > 1 {
            let batches = stims.len().div_ceil(lanes) as u64;
            counters.sim_batches = counters.sim_batches.saturating_add(batches);
            counters.sim_lanes_occupied = counters
                .sim_lanes_occupied
                .saturating_add(stims.len() as u64);
            counters.sim_lanes_total = counters
                .sim_lanes_total
                .saturating_add(batches * lanes as u64);
        }
    }
    counters
}

/// The SVA checker bridged into the fuzzer, as `asv-sva` wires it.
struct BenchOracle<'a> {
    checker: &'a CompiledChecker,
}

impl AssertionOracle for BenchOracle<'_> {
    fn assertions(&self) -> usize {
        self.checker.assertion_count()
    }
    fn failed(&self, trace: &Trace, cov: &mut CovMap) -> Result<bool, String> {
        let out = self
            .checker
            .outcomes_cov(trace, cov)
            .map_err(|e| e.to_string())?;
        Ok(out.iter().any(|(_, o)| o.is_failure()))
    }
}

/// Fuzzer stimulus-throughput workload: a traced fixed-budget campaign
/// per golden design with the lane-batched round executor (K = 16), one
/// worker thread (rounds, runs and scheduled-basis batch occupancy).
fn workload_fuzz_batch(golden: &[Arc<Design>]) -> CostCounters {
    let opts = FuzzOptions {
        cycles: 12,
        reset_cycles: 2,
        budget: 128,
        seed: 0xF422,
        lanes: 16,
        ..FuzzOptions::default()
    };
    let tracer = Tracer::new();
    let budget = Budget::unbounded().with_trace(tracer.handle());
    for (d, c) in golden.iter().zip(compile_all(golden)) {
        let col = |name: &str| c.sig(name).map(|s| s.idx());
        let checker = CompiledChecker::new(&d.module, col).expect("bench design checks");
        let oracle = BenchOracle { checker: &checker };
        std::hint::black_box(
            asv_fuzz::fuzz_budgeted(&c, &oracle, &opts, &budget).expect("bench fuzz"),
        );
    }
    CostCounters::from_events(&tracer.drain())
}

/// Single-engine workload: every pool design through one engine on one
/// worker (isolates the engine's own cost from scheduling).
fn workload_engine(pool: &[Arc<Design>], engine: Engine) -> CostCounters {
    let jobs: Vec<VerifyJob> = pool
        .iter()
        .map(|d| VerifyJob::new(Arc::clone(d), bench_verifier(engine)))
        .collect();
    batch_counters(&jobs, 1).0
}

/// Cold + warm serve legs over the mixed batch: one traced service with
/// cleared caches runs the batch cold, then re-submits it warm (memo
/// tier).
fn workload_serve(jobs: &[VerifyJob]) -> (CostCounters, CostCounters) {
    asv_serve::clear_design_cache();
    prewarm_compile_cache(jobs);
    let tracer = Tracer::new();
    let service = VerifyService::new(ServeOptions::default()).traced(tracer.clone());
    let (_o, _r, cold_events) = service.verify_batch_traced(jobs);
    let (_o, _r, warm_events) = service.verify_batch_traced(jobs);
    assert_eq!(
        tracer.dropped(),
        0,
        "trace ring overflow would skew counters"
    );
    (
        CostCounters::from_events(&cold_events),
        CostCounters::from_events(&warm_events),
    )
}

/// Runs the full matrix and assembles the report.
pub fn run_matrix(label: &str) -> BenchReport {
    let pool = design_pool();
    let mut workloads = BTreeMap::new();

    eprintln!("[perf] compile: {} designs ...", pool.golden.len());
    workloads.insert("compile".to_string(), workload_compile(&pool.golden));
    eprintln!(
        "[perf] simulate: {} designs x 256 cycles ...",
        pool.golden.len()
    );
    workloads.insert("simulate".to_string(), workload_simulate(&pool.golden, 256));
    eprintln!(
        "[perf] simulate_64x: {} designs x 64 stimuli x 64 cycles, scalar + batch ...",
        pool.golden.len()
    );
    workloads.insert(
        "simulate_64x_scalar".to_string(),
        workload_simulate_stimuli(&pool.golden, 64, 1),
    );
    workloads.insert(
        "simulate_64x_batch".to_string(),
        workload_simulate_stimuli(&pool.golden, 64, 16),
    );
    eprintln!(
        "[perf] fuzz_throughput_batch: {} designs, lane-batched campaigns ...",
        pool.golden.len()
    );
    workloads.insert(
        "fuzz_throughput_batch".to_string(),
        workload_fuzz_batch(&pool.golden),
    );
    eprintln!("[perf] symbolic: {} designs ...", pool.pool.len());
    workloads.insert(
        "symbolic".to_string(),
        workload_engine(&pool.pool, Engine::Symbolic),
    );
    eprintln!("[perf] fuzz: {} designs ...", pool.pool.len());
    workloads.insert(
        "fuzz".to_string(),
        workload_engine(&pool.pool, Engine::Fuzz),
    );

    let jobs = mixed_batch();
    eprintln!(
        "[perf] serve: {}-job mixed batch, cold + warm ...",
        jobs.len()
    );
    let (cold, warm) = workload_serve(&jobs);
    workloads.insert("serve_cold".to_string(), cold);
    workloads.insert("serve_warm".to_string(), warm);

    BenchReport {
        label: label.to_string(),
        workloads,
    }
}

// ---------------------------------------------------------------------------
// Regression gate
// ---------------------------------------------------------------------------

/// One counter that differs between the reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Delta {
    /// Workload name.
    pub workload: String,
    /// Counter field (`-` for a workload the baseline lacks).
    pub metric: String,
    /// Baseline value.
    pub baseline: u64,
    /// Current value.
    pub current: u64,
    /// Whether this delta fails the gate.
    pub regression: bool,
    /// Human-readable verdict for the table.
    pub note: String,
}

/// The gate's verdict: structural errors plus per-counter deltas.
#[derive(Debug, Clone, Default)]
pub struct GateOutcome {
    /// Structural failures (missing workload).
    pub errors: Vec<String>,
    /// Counters that drifted, plus a row per workload new in `current`.
    pub deltas: Vec<Delta>,
}

impl GateOutcome {
    /// `true` iff nothing drifted and no baseline workload is missing.
    pub fn passed(&self) -> bool {
        self.errors.is_empty() && !self.deltas.iter().any(|d| d.regression)
    }

    /// The readable delta table `perf_gate` prints.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for e in &self.errors {
            out.push_str(&format!("ERROR: {e}\n"));
        }
        if self.deltas.is_empty() {
            return out;
        }
        out.push_str(&format!(
            "{:<12} {:<18} {:>14} {:>14} {:>9}  verdict\n",
            "workload", "metric", "baseline", "current", "delta"
        ));
        for d in &self.deltas {
            let delta = if d.baseline == 0 {
                if d.current == 0 {
                    "0".to_string()
                } else {
                    "+inf".to_string()
                }
            } else {
                let rel = (d.current as f64 - d.baseline as f64) / d.baseline as f64 * 100.0;
                format!("{rel:+.1}%")
            };
            out.push_str(&format!(
                "{:<12} {:<18} {:>14} {:>14} {:>9}  {}\n",
                d.workload, d.metric, d.baseline, d.current, delta, d.note
            ));
        }
        out
    }
}

/// Compares `current` against `baseline` counter by counter with
/// **exact equality** — any drift is a regression (or a determinism
/// break; both should fail). Workloads present in the baseline must
/// exist in the current report; new workloads are reported but never
/// fail.
pub fn compare(baseline: &BenchReport, current: &BenchReport) -> GateOutcome {
    let mut out = GateOutcome::default();
    for (name, base) in &baseline.workloads {
        let Some(cur) = current.workloads.get(name) else {
            out.errors.push(format!(
                "workload `{name}` present in baseline but missing now"
            ));
            continue;
        };
        for ((field, b), (_, c)) in base.fields().into_iter().zip(cur.fields()) {
            if b != c {
                out.deltas.push(Delta {
                    workload: name.clone(),
                    metric: field.to_string(),
                    baseline: b,
                    current: c,
                    regression: true,
                    note: "FAIL (counter drift; gate is exact)".to_string(),
                });
            }
        }
    }
    for name in current.workloads.keys() {
        if !baseline.workloads.contains_key(name) {
            out.deltas.push(Delta {
                workload: name.clone(),
                metric: "-".to_string(),
                baseline: 0,
                current: 0,
                regression: false,
                note: "new workload (no baseline)".to_string(),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report(label: &str) -> BenchReport {
        let counters = CostCounters {
            ops: 1234,
            compiles: 24,
            conflicts: 7,
            ..CostCounters::default()
        };
        let mut workloads = BTreeMap::new();
        workloads.insert("compile".to_string(), counters);
        workloads.insert(
            "serve_cold".to_string(),
            CostCounters {
                memo_misses: 48,
                ..counters
            },
        );
        BenchReport {
            label: label.to_string(),
            workloads,
        }
    }

    #[test]
    fn report_roundtrips_through_json() {
        let report = sample_report("roundtrip");
        let parsed = BenchReport::parse(&report.to_json()).expect("parses");
        assert_eq!(parsed, report);
    }

    #[test]
    fn parse_rejects_malformed_documents() {
        assert!(BenchReport::parse("").is_err());
        assert!(BenchReport::parse("{").is_err());
        assert!(BenchReport::parse("[]").is_err());
        // Wrong schema version.
        let err = BenchReport::parse(r#"{"schema": 99}"#).unwrap_err();
        assert!(err.contains("schema version 99"), "{err}");
        // Counter vector must be complete.
        let mut text = sample_report("x").to_json();
        text = text.replace("\"ops\":1234,", "");
        let err = BenchReport::parse(&text).unwrap_err();
        assert!(err.contains("missing field `ops`"), "{err}");
    }

    #[test]
    fn committed_baseline_parses_with_every_workload() {
        const SEED: &str = include_str!("../../../BENCH_seed.json");
        let report = BenchReport::parse(SEED)
            .expect("BENCH_seed.json is a valid report of the current schema");
        let names: Vec<&str> = report.workloads.keys().map(String::as_str).collect();
        assert_eq!(
            names,
            [
                "compile",
                "fuzz",
                "fuzz_throughput_batch",
                "serve_cold",
                "serve_warm",
                "simulate",
                "simulate_64x_batch",
                "simulate_64x_scalar",
                "symbolic",
            ]
        );
        // `parse` already demands every counter field; also reject
        // fields this build does not know, so a stale vector fails here.
        let root = json::parse(SEED).unwrap();
        for (name, w) in root.get("workloads").and_then(json::Value::as_obj).unwrap() {
            let fields = w.get("counters").and_then(json::Value::as_obj).unwrap();
            assert_eq!(
                fields.len(),
                asv_trace::cost::COUNTER_FIELDS,
                "workload `{name}`"
            );
        }
    }

    #[test]
    fn json_integers_stay_exact() {
        let v = json::parse("18446744073709551615").unwrap();
        assert_eq!(v.as_u64(), Some(u64::MAX));
        let v = json::parse(r#"{"a": [1, 2.5, "x\n", true, null]}"#).unwrap();
        let arr = v.get("a").unwrap().as_arr().unwrap();
        assert_eq!(arr[0].as_u64(), Some(1));
        assert_eq!(arr[1], json::Value::Num(2.5));
        assert_eq!(arr[2].as_str(), Some("x\n"));
        assert!(json::parse("{} trailing").is_err());
    }

    #[test]
    fn gate_passes_on_identical_reports() {
        let report = sample_report("same");
        let outcome = compare(&report, &report);
        assert!(outcome.passed(), "{}", outcome.table());
        assert!(outcome.deltas.is_empty(), "{}", outcome.table());
    }

    #[test]
    fn gate_fails_on_counter_drift_in_either_direction() {
        let baseline = sample_report("base");
        for bump in [1i64, -1] {
            let mut current = baseline.clone();
            let c = current.workloads.get_mut("compile").unwrap();
            c.conflicts = (c.conflicts as i64 + bump) as u64;
            let outcome = compare(&baseline, &current);
            assert!(!outcome.passed());
            let table = outcome.table();
            assert!(table.contains("conflicts"), "{table}");
            assert!(table.contains("counter drift"), "{table}");
        }
    }

    #[test]
    fn gate_flags_missing_workloads() {
        let baseline = sample_report("base");
        let mut current = baseline.clone();
        current.workloads.remove("compile");
        let outcome = compare(&baseline, &current);
        assert!(!outcome.passed());
        assert!(outcome.table().contains("missing now"));

        // A workload only the current report has is listed, not failed.
        let outcome = compare(&current, &baseline);
        assert!(outcome.passed(), "{}", outcome.table());
        assert!(outcome.table().contains("new workload"));
    }
}

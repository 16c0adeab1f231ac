//! Shared, sharded compile cache: one [`CompiledDesign`] per distinct
//! design, process-wide.
//!
//! Service workers verify jobs side by side, and many jobs share a
//! design (one golden, many candidate repairs), so compiled designs live
//! in a single process-wide table sharded by design hash rather than per
//! thread: lookups take one shard mutex (shards are independent, so
//! concurrent verification jobs on different designs never contend),
//! hits bump the entry to most-recently-used, and misses compile under
//! no lock other than the owning shard's.
//!
//! Keys are a 64-bit structural hash of the elaborated design (rendered
//! module source plus resolved parameters); hash collisions are resolved
//! by full structural equality before an entry is reused, so a hit is
//! always the *same* design.
//!
//! Shard locks are poison-proof: a verification job that panics (or has
//! a panic injected by the chaos harness) while touching a shard never
//! wedges the cache for later jobs. Recovering the poisoned guard is
//! sound because every mutation keeps the MRU vector valid at all
//! times — there is no multi-step invariant a mid-flight panic could
//! tear.

use crate::compile::{CompiledDesign, OptLevel};
use asv_verilog::sema::Design;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// Number of independent shards (power of two).
const SHARDS: usize = 16;
/// LRU capacity per shard; total capacity is `SHARDS * SHARD_CAP`.
const SHARD_CAP: usize = 8;

/// A stable (per-process) 64-bit structural hash of an elaborated design.
///
/// Hashes the pretty-printed module — which covers ports, logic,
/// properties and assertion directives — plus the resolved parameter
/// environment, so two designs hash equal iff they would compile to the
/// same [`CompiledDesign`].
pub fn design_hash(design: &Design) -> u64 {
    let mut h = DefaultHasher::new();
    asv_verilog::pretty::render_module(&design.module).hash(&mut h);
    for (name, value) in &design.params {
        name.hash(&mut h);
        value.hash(&mut h);
    }
    h.finish()
}

/// One shard: a small MRU-ordered vector (most recently used last).
///
/// Entries are keyed on `(design hash, OptLevel)`: a mixed-opt workload
/// (e.g. a differential run holding both forms of one design) must never
/// alias to the other level's compiled artifact.
#[derive(Default)]
struct Shard {
    entries: Vec<(u64, OptLevel, std::sync::Arc<CompiledDesign>)>,
}

/// A sharded LRU cache of compiled designs.
pub struct CompileCache {
    shards: Vec<Mutex<Shard>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl CompileCache {
    /// An empty cache (prefer [`global`] outside of tests).
    pub fn new() -> Self {
        CompileCache {
            shards: (0..SHARDS).map(|_| Mutex::new(Shard::default())).collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// [`CompileCache::get_or_compile_opt`] at the default opt level.
    pub fn get_or_compile(&self, design: &Design) -> std::sync::Arc<CompiledDesign> {
        self.get_or_compile_opt(design, OptLevel::default())
    }

    /// Returns the compiled form of `design` at `opt`, compiling and
    /// caching it on the first request. The cache key is
    /// `(design hash, OptLevel)` — the two opt forms of one design are
    /// distinct artifacts and never alias. Hash collisions fall back to
    /// structural equality, so a hit is always `design` itself.
    pub fn get_or_compile_opt(
        &self,
        design: &Design,
        opt: OptLevel,
    ) -> std::sync::Arc<CompiledDesign> {
        self.get_or_compile_traced(design, opt, &asv_trace::TraceHandle::disabled())
    }

    /// [`CompileCache::get_or_compile_opt`] with span emission: a cache
    /// hit records an instant `sim.compile` event (code 0), a miss
    /// records the full compile span (code 1, with a nested `sim.opt`
    /// span at `OptLevel::Full`). Every job thus gets its compile cost
    /// attributed, hit or miss; the compiled artifact is identical
    /// either way.
    pub fn get_or_compile_traced(
        &self,
        design: &Design,
        opt: OptLevel,
        trace: &asv_trace::TraceHandle,
    ) -> std::sync::Arc<CompiledDesign> {
        let key = design_hash(design);
        let shard = &self.shards[(key as usize) & (SHARDS - 1)];
        {
            let mut s = shard
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            if let Some(pos) = s
                .entries
                .iter()
                .position(|(k, o, cd)| *k == key && *o == opt && cd.design() == design)
            {
                let entry = s.entries.remove(pos);
                let cd = std::sync::Arc::clone(&entry.2);
                s.entries.push(entry); // most recently used last
                self.hits.fetch_add(1, Ordering::Relaxed);
                trace.instant(
                    asv_trace::probe::SIM_COMPILE,
                    asv_trace::SpanKind::Compile,
                    0,
                    asv_trace::Cost::default(),
                );
                return cd;
            }
        }
        // Compile outside the shard lock: a slow compile of one design
        // must not block lookups of the other designs in its shard.
        self.misses.fetch_add(1, Ordering::Relaxed);
        let cd = std::sync::Arc::new(CompiledDesign::compile_traced(design, opt, trace));
        let mut s = shard
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        // A racing thread may have inserted the same design meanwhile;
        // keeping both copies is harmless (the duplicate ages out), but
        // prefer the existing entry so Arc identity stays stable.
        if let Some(pos) = s
            .entries
            .iter()
            .position(|(k, o, e)| *k == key && *o == opt && e.design() == design)
        {
            return std::sync::Arc::clone(&s.entries[pos].2);
        }
        if s.entries.len() == SHARD_CAP {
            s.entries.remove(0); // least recently used first
        }
        s.entries.push((key, opt, std::sync::Arc::clone(&cd)));
        cd
    }

    /// `(hits, misses)` so far.
    pub fn stats(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }

    /// Drops every cached entry (benchmarks use this to measure the
    /// cache-cold path; counters are preserved).
    pub fn clear(&self) {
        for shard in &self.shards {
            shard
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .entries
                .clear();
        }
    }
}

impl Default for CompileCache {
    fn default() -> Self {
        Self::new()
    }
}

/// The process-wide cache every verifier call goes through.
pub fn global() -> &'static CompileCache {
    static GLOBAL: OnceLock<CompileCache> = OnceLock::new();
    GLOBAL.get_or_init(CompileCache::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn design(n: u64) -> Design {
        asv_verilog::compile(&format!(
            "module m{n}(input clk, input [3:0] a, output reg [3:0] q);\n\
             always @(posedge clk) q <= a + 4'd{};\nendmodule",
            n % 16
        ))
        .expect("compile")
    }

    #[test]
    fn hit_returns_the_same_arc() {
        let cache = CompileCache::new();
        let d = design(1);
        let a = cache.get_or_compile(&d);
        let b = cache.get_or_compile(&d);
        assert!(std::sync::Arc::ptr_eq(&a, &b), "second call must hit");
        assert_eq!(cache.stats(), (1, 1));
    }

    #[test]
    fn distinct_designs_get_distinct_entries() {
        let cache = CompileCache::new();
        let a = cache.get_or_compile(&design(1));
        let b = cache.get_or_compile(&design(2));
        assert!(!std::sync::Arc::ptr_eq(&a, &b));
        assert_ne!(a.design(), b.design());
    }

    #[test]
    fn eviction_keeps_capacity_bounded_and_correct() {
        let cache = CompileCache::new();
        // Far more designs than total capacity: every lookup must still
        // return the right design.
        for round in 0..3 {
            for n in 0..(SHARDS * SHARD_CAP * 2) as u64 {
                let d = design(n);
                let cd = cache.get_or_compile(&d);
                assert_eq!(cd.design(), &d, "round {round}: wrong design for {n}");
            }
        }
    }

    #[test]
    fn concurrent_access_is_consistent() {
        let cache = CompileCache::new();
        std::thread::scope(|scope| {
            for t in 0..4 {
                let cache = &cache;
                scope.spawn(move || {
                    for n in 0..32u64 {
                        let d = design((n + t) % 8);
                        let cd = cache.get_or_compile(&d);
                        assert_eq!(cd.design(), &d);
                    }
                });
            }
        });
    }

    #[test]
    fn opt_levels_never_alias() {
        let cache = CompileCache::new();
        let d = design(5);
        let full = cache.get_or_compile_opt(&d, OptLevel::Full);
        let none = cache.get_or_compile_opt(&d, OptLevel::None);
        assert!(
            !std::sync::Arc::ptr_eq(&full, &none),
            "distinct artifacts per (hash, OptLevel)"
        );
        assert_eq!(full.opt_level(), OptLevel::Full);
        assert_eq!(none.opt_level(), OptLevel::None);
        // Re-requests hit the matching level.
        assert!(std::sync::Arc::ptr_eq(
            &none,
            &cache.get_or_compile_opt(&d, OptLevel::None)
        ));
        assert!(std::sync::Arc::ptr_eq(
            &full,
            &cache.get_or_compile_opt(&d, OptLevel::Full)
        ));
    }

    #[test]
    fn poisoned_shard_keeps_serving() {
        let cache = CompileCache::new();
        let d = design(1);
        let a = cache.get_or_compile(&d);
        // Poison every shard mutex by panicking while holding the guard.
        for shard in &cache.shards {
            let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let _guard = shard
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                panic!("poison");
            }));
        }
        let b = cache.get_or_compile(&d);
        assert!(
            std::sync::Arc::ptr_eq(&a, &b),
            "poisoned shard must still answer with the cached entry"
        );
        let e = design(99);
        assert_eq!(cache.get_or_compile(&e).design(), &e);
    }

    #[test]
    fn clear_forgets_entries() {
        let cache = CompileCache::new();
        let d = design(3);
        let a = cache.get_or_compile(&d);
        cache.clear();
        let b = cache.get_or_compile(&d);
        assert!(!std::sync::Arc::ptr_eq(&a, &b), "cleared entry recompiles");
    }
}

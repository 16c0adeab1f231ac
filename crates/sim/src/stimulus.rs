//! Stimulus generation: reset protocols and input sequences.
//!
//! The bounded model checker and the datagen validation loops drive designs
//! with sequences produced here. Generation is fully deterministic given a
//! seed, so every experiment in the paper reproduction is replayable.

use asv_verilog::sema::Design;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// One cycle of input assignments: `(signal, value)` pairs.
pub type InputVector = Vec<(String, u64)>;

/// A full stimulus: a reset prologue followed by per-cycle input vectors.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Stimulus {
    /// Input vectors applied cycle by cycle (reset cycles included).
    pub vectors: Vec<InputVector>,
    /// Number of leading reset cycles.
    pub reset_cycles: usize,
}

impl Stimulus {
    /// Number of cycles.
    pub fn len(&self) -> usize {
        self.vectors.len()
    }

    /// True if there are no cycles.
    pub fn is_empty(&self) -> bool {
        self.vectors.is_empty()
    }

    /// Borrow the vector for cycle `t` as `(&str, u64)` pairs.
    pub fn cycle(&self, t: usize) -> Vec<(&str, u64)> {
        self.vectors[t]
            .iter()
            .map(|(n, v)| (n.as_str(), *v))
            .collect()
    }

    /// Borrow the raw vector for cycle `t` (the allocation-free accessor
    /// the lane-batched executor drives inputs through).
    pub fn vector(&self, t: usize) -> &[(String, u64)] {
        &self.vectors[t]
    }

    /// True when every cycle names the same inputs in the same order as
    /// cycle 0 — the generated-stimulus common case that lets executors
    /// resolve input names to signal ids once per run instead of per
    /// tick.
    pub fn uniform_names(&self) -> bool {
        let Some(first) = self.vectors.first() else {
            return true;
        };
        self.vectors[1..].iter().all(|v| {
            v.len() == first.len() && v.iter().zip(first.iter()).all(|((n, _), (f, _))| n == f)
        })
    }
}

/// Deterministic stimulus generator for a design.
///
/// Non-clock, non-reset inputs receive uniformly random values each cycle;
/// the reset (if present) is asserted for `reset_cycles` then deasserted.
#[derive(Debug, Clone)]
pub struct StimulusGen {
    inputs: Vec<(String, u32)>,
    reset: Option<(String, bool)>,
    clock: Option<String>,
}

impl StimulusGen {
    /// Builds a generator by inspecting a design's ports.
    pub fn new(design: &Design) -> Self {
        let clock = design.clock().map(str::to_string);
        let reset = design.reset().map(|(n, al)| (n.to_string(), al));
        let inputs = design
            .inputs()
            .iter()
            .filter(|s| Some(s.name.as_str()) != clock.as_deref())
            .filter(|s| reset.as_ref().map(|(r, _)| r.as_str()) != Some(s.name.as_str()))
            .map(|s| (s.name.clone(), s.width))
            .collect();
        StimulusGen {
            inputs,
            reset,
            clock,
        }
    }

    /// Names and widths of the free (randomisable) inputs.
    pub fn free_inputs(&self) -> &[(String, u32)] {
        &self.inputs
    }

    /// Name of the recognised reset signal, if any.
    pub fn reset_signal(&self) -> Option<&str> {
        self.reset.as_ref().map(|(n, _)| n.as_str())
    }

    /// Name of the recognised clock signal, if any (not driven: the
    /// simulator advances per tick).
    pub fn clock_signal(&self) -> Option<&str> {
        self.clock.as_deref()
    }

    /// Generates a random stimulus of `cycles` post-reset cycles.
    ///
    /// One draw in four is biased to a corner value (all-zeros or
    /// all-ones): uniform sampling alone almost never hits antecedents
    /// like `duty == 0` on multi-bit inputs, leaving such properties
    /// vacuous within any realistic run budget.
    pub fn random(&self, cycles: usize, reset_cycles: usize, rng: &mut StdRng) -> Stimulus {
        let mut vectors = Vec::with_capacity(cycles + reset_cycles);
        for t in 0..cycles + reset_cycles {
            vectors.push(self.vector_at(t, reset_cycles, |w| {
                let roll: u64 = rng.gen();
                match roll % 8 {
                    0 => 0,
                    1 => mask(u64::MAX, w),
                    _ => mask(rng.gen(), w),
                }
            }));
        }
        Stimulus {
            vectors,
            reset_cycles,
        }
    }

    /// Generates a random stimulus from a seed (convenience).
    pub fn random_seeded(&self, cycles: usize, reset_cycles: usize, seed: u64) -> Stimulus {
        let mut rng = StdRng::seed_from_u64(seed);
        self.random(cycles, reset_cycles, &mut rng)
    }

    /// Whether [`StimulusGen::exhaustive`] would succeed at these bounds,
    /// without materialising anything.
    pub fn exhaustive_feasible(&self, cycles: usize, limit: u64) -> bool {
        let bits_per_cycle: u32 = self.inputs.iter().map(|(_, w)| *w).sum();
        let total_bits = bits_per_cycle as u64 * cycles as u64;
        total_bits < 63 && (1u64 << total_bits) <= limit
    }

    /// Enumerates *every* input sequence of length `cycles` (after
    /// `reset_cycles` of reset), provided the total input space
    /// `2^(bits × cycles)` does not exceed `limit`. Returns `None` when the
    /// space is too large — callers then fall back to random stimulus.
    pub fn exhaustive(
        &self,
        cycles: usize,
        reset_cycles: usize,
        limit: u64,
    ) -> Option<Vec<Stimulus>> {
        if !self.exhaustive_feasible(cycles, limit) {
            return None;
        }
        let bits_per_cycle: u32 = self.inputs.iter().map(|(_, w)| *w).sum();
        let total_bits = bits_per_cycle as u64 * cycles as u64;
        let count = 1u64 << total_bits;
        let mut all = Vec::with_capacity(count as usize);
        for idx in 0..count {
            let mut cursor = idx;
            let mut vectors = Vec::with_capacity(cycles + reset_cycles);
            for t in 0..cycles + reset_cycles {
                if t < reset_cycles {
                    vectors.push(self.vector_at(t, reset_cycles, |_| 0));
                } else {
                    let mut vec = Vec::with_capacity(self.inputs.len() + 1);
                    if let Some((r, active_low)) = &self.reset {
                        vec.push((r.clone(), u64::from(*active_low)));
                    }
                    for (name, w) in &self.inputs {
                        let v = cursor & mask(u64::MAX, *w);
                        cursor >>= w;
                        vec.push((name.clone(), v));
                    }
                    vectors.push(vec);
                }
            }
            all.push(Stimulus {
                vectors,
                reset_cycles,
            });
        }
        Some(all)
    }

    fn vector_at(
        &self,
        t: usize,
        reset_cycles: usize,
        mut value_for: impl FnMut(u32) -> u64,
    ) -> InputVector {
        let mut vec = Vec::with_capacity(self.inputs.len() + 1);
        if let Some((r, active_low)) = &self.reset {
            let in_reset = t < reset_cycles;
            let asserted = if *active_low { 0 } else { 1 };
            let deasserted = 1 - asserted;
            vec.push((r.clone(), if in_reset { asserted } else { deasserted }));
        }
        for (name, w) in &self.inputs {
            let v = if t < reset_cycles { 0 } else { value_for(*w) };
            vec.push((name.clone(), v));
        }
        vec
    }
}

fn mask(v: u64, w: u32) -> u64 {
    if w >= 64 {
        v
    } else {
        v & ((1u64 << w) - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asv_verilog::compile;

    const COUNTER: &str = "module c(input clk, input rst_n, input en, output reg [3:0] q);\n\
        always @(posedge clk or negedge rst_n) begin\n\
          if (!rst_n) q <= 4'd0; else if (en) q <= q + 4'd1;\n\
        end\nendmodule";

    fn gen() -> StimulusGen {
        StimulusGen::new(&compile(COUNTER).expect("compile"))
    }

    #[test]
    fn detects_clock_and_reset() {
        let g = gen();
        assert_eq!(g.clock_signal(), Some("clk"));
        assert_eq!(g.reset_signal(), Some("rst_n"));
        assert_eq!(g.free_inputs(), &[("en".to_string(), 1)]);
    }

    #[test]
    fn reset_prologue_asserts_active_low() {
        let g = gen();
        let s = g.random_seeded(4, 2, 7);
        assert_eq!(s.len(), 6);
        assert!(s.cycle(0).contains(&("rst_n", 0)));
        assert!(s.cycle(1).contains(&("rst_n", 0)));
        assert!(s.cycle(2).contains(&("rst_n", 1)));
    }

    #[test]
    fn random_is_deterministic_per_seed() {
        let g = gen();
        assert_eq!(g.random_seeded(8, 2, 42), g.random_seeded(8, 2, 42));
        assert_ne!(g.random_seeded(64, 2, 42), g.random_seeded(64, 2, 43));
    }

    #[test]
    fn exhaustive_enumerates_full_space() {
        let g = gen();
        // 1 input bit × 3 cycles = 8 sequences.
        let all = g.exhaustive(3, 1, 1 << 20).expect("small space");
        assert_eq!(all.len(), 8);
        // All distinct.
        let mut seen = std::collections::BTreeSet::new();
        for s in &all {
            assert!(seen.insert(format!("{s:?}")));
        }
    }

    #[test]
    fn exhaustive_refuses_large_spaces() {
        let d = compile(
            "module w(input clk, input [15:0] a, output reg [15:0] q);\n\
             always @(posedge clk) q <= a;\nendmodule",
        )
        .expect("compile");
        let g = StimulusGen::new(&d);
        assert!(g.exhaustive(8, 1, 1 << 20).is_none());
    }

    #[test]
    fn stimulus_drives_simulator() {
        let d = compile(COUNTER).expect("compile");
        let g = StimulusGen::new(&d);
        let stim = g.random_seeded(10, 2, 5);
        let mut sim = crate::exec::Simulator::new(&d);
        for t in 0..stim.len() {
            sim.step(&stim.cycle(t)).expect("step");
        }
        assert_eq!(sim.trace().len(), 12);
    }
}

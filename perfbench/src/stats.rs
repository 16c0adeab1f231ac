//! Statistics and bookkeeping shared by every workload: nearest-rank
//! quantiles, failure accounting, seed derivation and output digests.

use asv_serve::{JobOutcome, VerdictError};
use asv_sva::bmc::Verdict;

/// Nearest-rank quantile of an ascending sample: the smallest value with
/// at least `q · n` samples at or below it. Returns `None` when empty.
pub fn nearest_rank(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q * sorted.len() as f64).ceil().max(1.0) as usize;
    Some(sorted[rank.min(sorted.len()) - 1])
}

/// Median of an unsorted sample (the mean of the middle two for an even
/// count); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// How one verification outcome counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutcomeClass {
    /// A verdict (holds or fails).
    Verdict,
    /// A deterministic design-level verifier error: the correct answer
    /// for a broken patch, not a failure of the system.
    DesignError,
    /// No answer: budget exhausted, inconclusive ladder, isolated panic
    /// or cancellation.
    Failed,
}

/// Classifies one job outcome for failure accounting.
pub fn classify(outcome: &JobOutcome) -> OutcomeClass {
    match outcome {
        Ok(Verdict::Inconclusive { .. }) => OutcomeClass::Failed,
        Ok(_) => OutcomeClass::Verdict,
        Err(VerdictError::Verify(_)) => OutcomeClass::DesignError,
        Err(_) => OutcomeClass::Failed,
    }
}

/// Operations attempted and failed in a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations attempted (requests plus verification jobs).
    pub attempted: u64,
    /// Operations that produced no answer.
    pub failed: u64,
    /// Design-level verdict errors (counted as answered).
    pub design_errors: u64,
}

impl Tally {
    /// Records one verification job outcome.
    pub fn job(&mut self, outcome: &JobOutcome) {
        self.attempted += 1;
        match classify(outcome) {
            OutcomeClass::Verdict => {}
            OutcomeClass::DesignError => self.design_errors += 1,
            OutcomeClass::Failed => self.failed += 1,
        }
    }

    /// Records one repair request that returned `responses` responses.
    pub fn request(&mut self, responses: usize) {
        self.attempted += 1;
        if responses == 0 {
            self.failed += 1;
        }
    }

    /// Failed ÷ attempted (0 when nothing was attempted).
    pub fn error_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// Derives an independent 64-bit seed for one purpose from the run seed
/// (SplitMix64 over the seed and an FNV-1a hash of the label).
pub fn derive(seed: u64, label: &str) -> u64 {
    let mut d = Digest::default();
    d.str(label);
    let mut z = seed ^ d.finish();
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a digest of a workload's outputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xCBF2_9CE4_8422_2325)
    }
}

impl Digest {
    /// Mixes raw bytes.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    /// Mixes a string (length-prefixed, so concatenations differ).
    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    /// Mixes an integer.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// The digest value.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asv_sim::cancel::{Exhausted, Resource};
    use asv_sva::bmc::VerifyError;

    #[test]
    fn nearest_rank_matches_the_definition() {
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 0.5), Some(10.0));
        assert_eq!(nearest_rank(&v, 0.95), Some(19.0));
        assert_eq!(nearest_rank(&v, 1.0), Some(20.0));
        assert_eq!(nearest_rank(&v, 0.0), Some(1.0));
        assert_eq!(nearest_rank(&[7.0], 0.95), Some(7.0));
        assert_eq!(nearest_rank(&[], 0.5), None);
        // Nearest rank never interpolates.
        assert_eq!(nearest_rank(&[1.0, 2.0, 3.0, 4.0], 0.5), Some(2.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn error_frac_counts_only_unanswered_operations() {
        let mut t = Tally::default();
        t.job(&Ok(Verdict::Holds {
            exhaustive: true,
            stimuli: 0,
            vacuous: Vec::new(),
        }));
        // A broken patch's design error is an answer, not a failure.
        t.job(&Err(VerdictError::Verify(VerifyError::NoAssertions)));
        t.job(&Err(VerdictError::Panic("boom".into())));
        t.job(&Err(VerdictError::Exhausted(Exhausted {
            resource: Resource::WallClock,
            spent: 2,
            limit: 1,
        })));
        t.job(&Ok(Verdict::Inconclusive { tried: Vec::new() }));
        t.request(20);
        t.request(0);
        assert_eq!(t.attempted, 7);
        assert_eq!(t.failed, 4);
        assert_eq!(t.design_errors, 1);
        assert!((t.error_frac() - 4.0 / 7.0).abs() < 1e-12);
        assert_eq!(Tally::default().error_frac(), 0.0);
    }

    #[test]
    fn derived_seeds_depend_on_seed_and_label() {
        assert_eq!(derive(1, "a"), derive(1, "a"));
        assert_ne!(derive(1, "a"), derive(2, "a"));
        assert_ne!(derive(1, "a"), derive(1, "b"));
        let mut a = Digest::default();
        a.str("ab");
        a.str("c");
        let mut b = Digest::default();
        b.str("a");
        b.str("bc");
        assert_ne!(a.finish(), b.finish());
    }
}

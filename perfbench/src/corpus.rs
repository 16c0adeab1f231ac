//! The fixed design corpora of `repair` and `verify`.
//!
//! A few designs carry most of the proof and candidate work: a request's
//! cost follows its design's candidate count, and how hard a design is to
//! prove depends on its contents. With the designs redrawn per run, a
//! batch's total proof work varied by over a third between seeds. So the
//! designs are fixed, and the run seed draws the work done on them — the
//! bugs, patches and requests.
//!
//! The mix is explicit: every archetype at each of the first four size
//! classes of `CorpusGen::generate` (the classes a mid-size corpus of up
//! to 48 designs covers), with stage counts and widths cycled through the
//! generator's ranges, in each replica. The fifth class (10–15 stages)
//! is left out: its few designs cost up to 100× the median request, and
//! would set a run's figures alone.

use asv_datagen::{Archetype, CorpusGen, GeneratedDesign, SizeHint};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Stage counts of the first four size classes, as `CorpusGen::generate`
/// draws them.
const STAGES: [&[u32]; 4] = [&[1], &[2, 3], &[4, 5, 6], &[7, 8, 9]];
/// Data widths, with the weights `CorpusGen::generate` draws them with.
const WIDTHS: [u32; 6] = [2, 4, 4, 8, 8, 16];

/// Seed of the fixed corpora.
pub const CORPUS_SEED: u64 = 0x5EED_C0DE;

/// Replica `r` of the corpus: every archetype at every size class, 48
/// designs.
pub fn replica(seed: u64, r: usize) -> Vec<GeneratedDesign> {
    let gen = CorpusGen::new(seed);
    let mut rng = StdRng::seed_from_u64(seed.wrapping_add(r as u64));
    let mut out = Vec::new();
    for (a, &arch) in Archetype::ALL.iter().enumerate() {
        for (class, stages) in STAGES.iter().enumerate() {
            let stages = stages[(a + r) % stages.len()];
            let width = WIDTHS[(a + class + r) % WIDTHS.len()];
            let id = r * Archetype::ALL.len() * STAGES.len() + out.len();
            out.push(gen.instantiate(arch, id, SizeHint { stages, width }, &mut rng));
        }
    }
    out
}

//! Bit-level fingerprints of pipeline outputs.
//!
//! The batch correctness gate compares every repetition, and the traced
//! stage-by-stage run, against the first repetition. Floats are hashed by
//! their bit patterns, so `-0.0 != 0.0` and any last-ulp drift shows.

use data_bubbles::pipeline::ExpandedOrdering;
use db_optics::ClusterOrdering;

/// FNV-1a over 64-bit words.
#[derive(Debug, Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Fingerprint of a representative ordering and its expansion: every
/// entry's id, reachability, core distance and weight, then every
/// expanded entry's object, reachability and core estimate.
pub fn fingerprint(reps: &ClusterOrdering, expanded: Option<&ExpandedOrdering>) -> u64 {
    let mut h = Fnv::new();
    h.word(reps.entries.len() as u64);
    for e in &reps.entries {
        h.word(e.id as u64);
        h.word(e.reachability.to_bits());
        h.word(e.core_distance.to_bits());
        h.word(e.weight);
    }
    match expanded {
        None => h.word(u64::MAX),
        Some(x) => {
            h.word(x.entries.len() as u64);
            for e in &x.entries {
                h.word(u64::from(e.object));
                h.word(e.reachability.to_bits());
                h.word(e.core_estimate.to_bits());
            }
        }
    }
    h.0
}

/// Whether two orderings are equal bit for bit (not merely `==`, which
/// would equate `0.0` with `-0.0`).
pub fn orderings_identical(a: &ClusterOrdering, b: &ClusterOrdering) -> bool {
    a.entries.len() == b.entries.len()
        && a.entries.iter().zip(&b.entries).all(|(x, y)| {
            x.id == y.id
                && x.weight == y.weight
                && x.reachability.to_bits() == y.reachability.to_bits()
                && x.core_distance.to_bits() == y.core_distance.to_bits()
        })
}

/// Whether two expansions are equal bit for bit.
pub fn expansions_identical(a: &ExpandedOrdering, b: &ExpandedOrdering) -> bool {
    a.entries.len() == b.entries.len()
        && a.entries.iter().zip(&b.entries).all(|(x, y)| {
            x.object == y.object
                && x.reachability.to_bits() == y.reachability.to_bits()
                && x.core_estimate.to_bits() == y.core_estimate.to_bits()
        })
}

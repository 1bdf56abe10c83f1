//! Helpers shared by the integration suites that compare the dense OPTICS
//! walk over Data Bubbles with the heap walk.

use data_bubbles::{BubbleSpace, DataBubble};
use db_datagen::Rng;
use db_optics::{ClusterOrdering, OpticsSpace};
use db_spatial::Neighbor;

/// A [`BubbleSpace`] seen through the heap walk: every [`OpticsSpace`]
/// method delegates to the space except the dense opt-in, which keeps its
/// default, so `optics` queries neighbourhoods (matrix-backed when the
/// space holds a precomputed matrix, an on-the-fly scan otherwise).
pub struct HeapWalk<'a>(pub &'a BubbleSpace);

impl OpticsSpace for HeapWalk<'_> {
    fn len(&self) -> usize {
        self.0.len()
    }

    fn neighborhood(&self, i: usize, eps: f64, out: &mut Vec<Neighbor>) {
        self.0.neighborhood(i, eps, out);
    }

    fn weight(&self, i: usize) -> u64 {
        self.0.weight(i)
    }

    fn core_distance(&self, i: usize, min_pts: usize, neighborhood: &[Neighbor]) -> Option<f64> {
        self.0.core_distance(i, min_pts, neighborhood)
    }
}

/// Random bubbles with exact ties and sub-MinPts bubbles: about a quarter
/// duplicate an earlier bubble verbatim (so their distances tie exactly),
/// and point counts start at 1.
pub fn random_bubbles(rng: &mut Rng, k: usize, dim: usize) -> Vec<DataBubble> {
    let mut out: Vec<DataBubble> = Vec::with_capacity(k);
    for i in 0..k {
        if i >= 2 && rng.below(4) == 0 {
            let j = rng.below(out.len());
            out.push(out[j].clone());
            continue;
        }
        let rep: Vec<f64> = (0..dim).map(|_| rng.uniform_in(-20.0, 20.0)).collect();
        let n = 1 + rng.below(30) as u64;
        let extent = rng.uniform_in(0.0, 3.0);
        out.push(DataBubble::new(rep, n, extent));
    }
    out
}

/// Asserts two orderings are equal bit for bit (`==` on `f64` would let
/// `-0.0` pass for `0.0`).
pub fn assert_bitwise_equal(a: &ClusterOrdering, b: &ClusterOrdering, ctx: &str) {
    assert_eq!(a.eps.to_bits(), b.eps.to_bits(), "{ctx}: eps");
    assert_eq!(a.min_pts, b.min_pts, "{ctx}: MinPts");
    assert_eq!(a.entries.len(), b.entries.len(), "{ctx}: length");
    for (pos, (x, y)) in a.entries.iter().zip(&b.entries).enumerate() {
        let same = x.id == y.id
            && x.weight == y.weight
            && x.reachability.to_bits() == y.reachability.to_bits()
            && x.core_distance.to_bits() == y.core_distance.to_bits();
        assert!(same, "{ctx}: entry {pos} differs: {x:?} vs {y:?}");
    }
}

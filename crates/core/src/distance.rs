//! Definition 6 (distance between Data Bubbles) and Definition 9 (virtual
//! reachability).

use crate::bubble::DataBubble;

/// Definition 6: the distance between two Data Bubbles, designed to
/// "approximate the distance of the two closest points in the Data
/// Bubbles":
///
/// * `0` when both are the same bubble (`same_object` must then be true —
///   distinct bubbles at identical positions are *not* the same object);
/// * non-overlapping (`dist(rep_B, rep_C) − (e_B + e_C) ≥ 0`):
///   `dist(rep_B, rep_C) − (e_B + e_C) + nndist(1,B) + nndist(1,C)`;
/// * overlapping: `max(nndist(1,B), nndist(1,C))`.
///
/// ```
/// use data_bubbles::{bubble_distance, DataBubble};
/// let b = DataBubble::new(vec![0.0, 0.0], 100, 2.0);
/// let c = DataBubble::new(vec![10.0, 0.0], 25, 3.0);
/// // Non-overlapping: 10 - (2+3) + nndist terms.
/// assert!((bubble_distance(&b, &c, false) - 5.8).abs() < 1e-12);
/// ```
///
/// # Panics
///
/// Panics if the bubbles have different dimensionality.
pub fn bubble_distance(b: &DataBubble, c: &DataBubble, same_object: bool) -> f64 {
    if same_object {
        return 0.0;
    }
    assert_eq!(b.dim(), c.dim(), "dimensionality mismatch");
    bubble_distance_from_parts(
        db_spatial::euclidean(b.rep(), c.rep()),
        b.extent(),
        c.extent(),
        b.nndist(1),
        c.nndist(1),
    )
}

/// The combine step of Definition 6 on precomputed parts: the center
/// distance, both extents and both expected 1-NN distances.
///
/// This is the exact arithmetic of [`bubble_distance`] (same operand
/// order, so the same bits); it exists so batched callers — the dense
/// OPTICS walk over [`crate::BubbleSpace`] and the
/// [`crate::BubbleDistanceMatrix`] row build feed whole rows of center
/// distances from the block kernel — can hoist the per-bubble parts out
/// of the O(k²) loop without diverging from the scalar path.
///
/// It is **not** exactly symmetric in IEEE arithmetic: in the
/// non-overlapping case `(gap + nn1_b) + nn1_c` and `(gap + nn1_c) +
/// nn1_b` round differently for about one random triple in six. Every
/// caller therefore evaluates a pair in one fixed orientation — the
/// bubble whose row is being computed first.
#[inline]
pub fn bubble_distance_from_parts(
    center_dist: f64,
    extent_b: f64,
    extent_c: f64,
    nn1_b: f64,
    nn1_c: f64,
) -> f64 {
    let gap = center_dist - (extent_b + extent_c);
    if gap >= 0.0 {
        gap + nn1_b + nn1_c
    } else {
        nn1_b.max(nn1_c)
    }
}

/// The per-bubble parts of Definition 6, hoisted out of the O(k²) loops:
/// a flat row-major block of representatives for the batched
/// center-distance kernel, plus extents and expected 1-NN distances. Pure
/// per-bubble functions, so hoisting them is bit-neutral.
#[derive(Debug, Clone)]
pub(crate) struct BubbleParts {
    dim: usize,
    reps: Vec<f64>,
    extents: Vec<f64>,
    nn1: Vec<f64>,
}

impl BubbleParts {
    /// The parts of `bubbles`, in order.
    ///
    /// # Panics
    ///
    /// Panics if the bubbles have different dimensionality.
    pub(crate) fn new(bubbles: &[DataBubble]) -> Self {
        let dim = bubbles.first().map_or(0, DataBubble::dim);
        let mut reps = Vec::with_capacity(bubbles.len() * dim);
        let mut extents = Vec::with_capacity(bubbles.len());
        let mut nn1 = Vec::with_capacity(bubbles.len());
        for b in bubbles {
            assert_eq!(b.dim(), dim, "dimensionality mismatch");
            reps.extend_from_slice(b.rep());
            extents.push(b.extent());
            nn1.push(b.nndist(1));
        }
        Self { dim, reps, extents, nn1 }
    }

    /// Number of bubbles.
    pub(crate) fn len(&self) -> usize {
        self.extents.len()
    }

    /// Removes bubble `pos`, moving the last bubble into its place
    /// ([`Vec::swap_remove`] on every part).
    pub(crate) fn swap_remove(&mut self, pos: usize) {
        let last = self.len() - 1;
        let dim = self.dim;
        self.reps.copy_within(last * dim..(last + 1) * dim, pos * dim);
        self.reps.truncate(last * dim);
        self.extents.swap_remove(pos);
        self.nn1.swap_remove(pos);
    }

    /// Definition 6 from bubble `i` of `from` to every bubble of `self`,
    /// written to `out` (one entry per bubble). Row orientation: bubble
    /// `i` is the first argument, exactly as [`bubble_distance`] with `i`
    /// first — the combine step is not symmetric in IEEE arithmetic (see
    /// [`bubble_distance_from_parts`]). `same` names the position of `i`
    /// itself in `self`, whose distance is 0.
    pub(crate) fn row_from(&self, from: &Self, i: usize, same: Option<usize>, out: &mut [f64]) {
        let dim = self.dim;
        db_spatial::dists_to_block(&from.reps[i * dim..(i + 1) * dim], &self.reps, dim, out);
        let (e_i, nn_i) = (from.extents[i], from.nn1[i]);
        for ((d, &e_j), &nn_j) in out.iter_mut().zip(&self.extents).zip(&self.nn1) {
            // `d.sqrt()` is bit-identical to the scalar path's
            // `euclidean(rep_i, rep_j)` (shared kernel).
            // db-audit: allow(no-naked-sqrt) -- flush site: Def. 10 bubble
            // distance is defined in true space; one conversion per evaluated
            // pair, counted by the callers under their distance counters.
            *d = bubble_distance_from_parts(d.sqrt(), e_i, e_j, nn_i, nn_j);
        }
        if let Some(p) = same {
            out[p] = 0.0;
        }
    }
}

/// Definition 9: the virtual reachability of the `n` points described by a
/// bubble — the reachability value plotted for the 2nd..n-th member when a
/// bubble is expanded:
///
/// * `nndist(MinPts, B)` when the bubble holds at least MinPts points
///   (inside the bubble, most points' true reachability is close to their
///   MinPts-NN distance);
/// * otherwise the bubble's core-distance (computed by the caller from the
///   whole bubble set, Definition 7) — pass it as `core_distance`.
///
/// # Panics
///
/// Panics if `min_pts == 0`.
pub fn virtual_reachability(b: &DataBubble, min_pts: usize, core_distance: f64) -> f64 {
    assert!(min_pts >= 1, "MinPts must be positive");
    if b.n() >= min_pts as u64 {
        b.nndist(min_pts as u64)
    } else {
        core_distance
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bubble(x: f64, n: u64, extent: f64) -> DataBubble {
        DataBubble::new(vec![x, 0.0], n, extent)
    }

    #[test]
    fn same_object_distance_is_zero() {
        let b = bubble(0.0, 10, 1.0);
        assert_eq!(bubble_distance(&b, &b, true), 0.0);
    }

    #[test]
    fn identical_position_but_distinct_objects_is_not_zero() {
        let b = bubble(0.0, 100, 1.0);
        let c = bubble(0.0, 100, 1.0);
        let d = bubble_distance(&b, &c, false);
        // Overlapping case: max of the expected 1-NN distances.
        assert!((d - b.nndist(1)).abs() < 1e-12);
        assert!(d > 0.0);
    }

    #[test]
    fn non_overlapping_case_hand_checked() {
        // Centers 10 apart, extents 2 and 3 -> gap 5; nndist(1) terms:
        // (1/100)^(1/2)*2 = 0.2 and (1/25)^(1/2)*3 = 0.6.
        let b = bubble(0.0, 100, 2.0);
        let c = bubble(10.0, 25, 3.0);
        let d = bubble_distance(&b, &c, false);
        assert!((d - (5.0 + 0.2 + 0.6)).abs() < 1e-12);
    }

    #[test]
    fn overlapping_case_takes_max_nndist() {
        let b = bubble(0.0, 100, 4.0);
        let c = bubble(1.0, 25, 3.0); // centers 1 apart < 4+3
        let d = bubble_distance(&b, &c, false);
        let expected = (0.01f64).sqrt() * 4.0_f64;
        let expected = expected.max((0.04f64).sqrt() * 3.0);
        assert!((d - expected).abs() < 1e-12);
    }

    #[test]
    fn distance_is_not_bitwise_symmetric() {
        // Def. 6 is symmetric over the reals, not in IEEE arithmetic: the
        // two orientations add the 1-NN terms in opposite order. Search a
        // seeded stream of non-overlapping pairs for one that rounds
        // differently (about one in six does).
        let mut rng = db_rng::Rng::seed_from_u64(6);
        let asymmetric = (0..1_000).find_map(|_| {
            let b = DataBubble::new(vec![rng.gen_f64(0.0, 1.0), 0.0], 2 + rng.next_below(50), 0.1);
            let c = DataBubble::new(vec![rng.gen_f64(5.0, 9.0), 0.0], 2 + rng.next_below(50), 0.7);
            let (bc, cb) = (bubble_distance(&b, &c, false), bubble_distance(&c, &b, false));
            (bc.to_bits() != cb.to_bits()).then_some((b, c, bc))
        });
        let (b, c, bc) = asymmetric.expect("an asymmetric pair within 1 000 draws");
        // The batched row (what the dense walk and the matrix evaluate)
        // takes the row bubble first: it reproduces `dist(b, c)`, not
        // `dist(c, b)`.
        let parts = BubbleParts::new(&[b, c]);
        let mut row = [f64::NAN; 2];
        parts.row_from(&parts, 0, Some(0), &mut row);
        assert_eq!(row[0], 0.0);
        assert_eq!(row[1].to_bits(), bc.to_bits());
    }

    #[test]
    fn parts_swap_remove_keeps_rows_in_step() {
        let bubbles: Vec<DataBubble> =
            (0..5).map(|i| bubble(i as f64 * 3.0, 1 + i as u64 * 7, 0.5)).collect();
        let all = BubbleParts::new(&bubbles);
        let mut set = all.clone();
        let mut ids: Vec<usize> = (0..5).collect();
        for pos in [1, 0, 2] {
            set.swap_remove(pos);
            ids.swap_remove(pos);
            let mut row = vec![0.0; set.len()];
            set.row_from(&all, 4, ids.iter().position(|&id| id == 4), &mut row);
            for (&id, &d) in ids.iter().zip(&row) {
                let want = bubble_distance(&bubbles[4], &bubbles[id], id == 4);
                assert_eq!(d.to_bits(), want.to_bits(), "id {id}");
            }
        }
    }

    #[test]
    fn singleton_bubbles_reduce_to_point_distance() {
        // n=1 bubbles: extent 0, nndist(1) = 0 -> Def. 6 gives the plain
        // Euclidean distance between the representatives.
        let b = DataBubble::new(vec![0.0, 0.0], 1, 0.0);
        let c = DataBubble::new(vec![3.0, 4.0], 1, 0.0);
        assert!((bubble_distance(&b, &c, false) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn touching_boundary_is_non_overlapping() {
        // gap exactly 0: non-overlap branch applies (>= 0).
        let b = bubble(0.0, 4, 1.0);
        let c = bubble(2.0, 4, 1.0);
        let d = bubble_distance(&b, &c, false);
        assert!((d - (b.nndist(1) + c.nndist(1))).abs() < 1e-12);
    }

    #[test]
    fn virtual_reachability_large_bubble_uses_nndist() {
        let b = bubble(0.0, 100, 2.0);
        let v = virtual_reachability(&b, 5, 99.0);
        assert!((v - b.nndist(5)).abs() < 1e-12);
    }

    #[test]
    fn virtual_reachability_small_bubble_uses_core_distance() {
        let b = bubble(0.0, 3, 1.0);
        assert_eq!(virtual_reachability(&b, 5, 42.0), 42.0);
    }

    #[test]
    #[should_panic(expected = "MinPts must be positive")]
    fn virtual_reachability_rejects_zero_minpts() {
        virtual_reachability(&bubble(0.0, 3, 1.0), 0, 1.0);
    }
}

//! [`BubbleDistanceMatrix`]: the k×k bubble-distance matrix, computed
//! once (in parallel row blocks) and served as sorted rows.
//!
//! The clustering pipeline does not build it: OPTICS over a
//! [`crate::BubbleSpace`] takes the dense walk, which evaluates each pair
//! once in O(k) memory. The matrix remains for callers that want
//! neighbourhood queries served from memory — [`BubbleSpace::neighborhood`]
//! and [`BubbleSpace::core_distance_unbounded`] use it when present — at
//! 12 bytes per entry and an O(k² log k) build.
//!
//! Row `i` holds Definition 6 evaluated with bubble `i` first, the
//! orientation every bubble-distance caller uses: the combine step is not
//! exactly symmetric in IEEE arithmetic (see
//! [`crate::bubble_distance_from_parts`]), so entry `(i, j)` and entry
//! `(j, i)` may differ in the last bit.
//!
//! # Determinism contract
//!
//! Rows are independent: each worker thread fills a pre-assigned
//! contiguous block of rows, and the per-row content (distances and the
//! `(dist, id)` sort) never depends on the thread layout. The build is
//! therefore bit-for-bit identical for every thread count, and a
//! matrix-served neighbourhood is bit-for-bit identical to the on-the-fly
//! scan in [`crate::BubbleSpace`] (same distances, same comparator, and
//! the ε filter `d <= eps` selects exactly the sorted row's prefix).
//!
//! [`BubbleSpace::neighborhood`]: db_optics::OpticsSpace::neighborhood
//! [`BubbleSpace::core_distance_unbounded`]: crate::BubbleSpace::core_distance_unbounded

use std::num::NonZeroUsize;

use db_spatial::{id_u32, Neighbor};

use crate::bubble::DataBubble;
use crate::distance::BubbleParts;

/// Default cap on the number of bubbles for which
/// [`crate::BubbleSpace::precompute_matrix`] builds the matrix. A row
/// costs 12 bytes per entry (`u32` id + `f64` distance), so the cap bounds
/// the matrix at ~3 GiB. The pipeline builds no matrix; the constant
/// remains the default of the `matrix_max_k` fields, which are kept for
/// source compatibility.
pub const DEFAULT_MAX_MATRIX_K: usize = 16_384;

/// A precomputed bubble-distance matrix with each row sorted
/// ascending by `(distance, id)` — the neighbourhood order of
/// [`crate::BubbleSpace`].
#[derive(Debug, Clone)]
pub struct BubbleDistanceMatrix {
    k: usize,
    /// Row-major bubble ids, row `i` sorted by `(dists[i][j], id)`.
    ids: Vec<u32>,
    /// Row-major distances, each row ascending.
    dists: Vec<f64>,
}

impl BubbleDistanceMatrix {
    /// Builds the matrix over `bubbles` with `threads` workers (`None` =
    /// available parallelism). The k² distance evaluations are counted
    /// under `optics.distance_calls`.
    ///
    /// # Panics
    ///
    /// Panics if `bubbles` is empty or `k * k` entries would overflow
    /// `usize`.
    pub fn build(bubbles: &[DataBubble], threads: Option<NonZeroUsize>) -> Self {
        let k = bubbles.len();
        assert!(k > 0, "cannot build a distance matrix over zero bubbles");
        let cells = k.checked_mul(k).expect("k * k overflows usize");
        let mut span = db_obs::span!("optics.matrix_build");
        let threads = resolve_threads(threads, k);
        db_obs::gauge!("optics.matrix_threads").set(threads as i64);

        let parts = BubbleParts::new(bubbles);
        let mut ids = vec![0u32; cells];
        let mut dists = vec![0f64; cells];
        // Fills the block of rows starting at row `first`; each block
        // brings its own scratch so rows stay independent.
        let fill_rows = |first: usize, id_block: &mut [u32], dist_block: &mut [f64]| {
            let mut row: Vec<(f64, u32)> = Vec::with_capacity(k);
            for (r, (id_row, dist_row)) in
                id_block.chunks_mut(k).zip(dist_block.chunks_mut(k)).enumerate()
            {
                parts.row_from(&parts, first + r, Some(first + r), dist_row);
                row.clear();
                // Lossless: `j < k` and the compressors cap k at the dataset
                // length, which `Dataset` bounds by `u32` ids.
                row.extend(dist_row.iter().enumerate().map(|(j, &d)| (d, id_u32(j))));
                // Same comparator as the on-the-fly neighbourhood sort.
                row.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
                for ((id, d), &(rd, rj)) in id_row.iter_mut().zip(dist_row.iter_mut()).zip(&row) {
                    *id = rj;
                    *d = rd;
                }
            }
        };

        if threads <= 1 {
            fill_rows(0, &mut ids, &mut dists);
        } else {
            // Contiguous row blocks per thread; rows are independent, so
            // the result cannot depend on this schedule. Worker time is
            // linked back into the build span (child-time, same trace run).
            let parent = span.handle();
            let rows_per_thread = k.div_ceil(threads);
            let (parent, fill_rows) = (&parent, &fill_rows);
            std::thread::scope(|scope| {
                let blocks =
                    ids.chunks_mut(rows_per_thread * k).zip(dists.chunks_mut(rows_per_thread * k));
                for (t, (id_block, dist_block)) in blocks.enumerate() {
                    scope.spawn(move || {
                        let _s = db_obs::span_linked!("optics.matrix_fill", parent);
                        fill_rows(t * rows_per_thread, id_block, dist_block);
                    });
                }
            });
        }
        // One evaluation per (row, column) pair.
        db_obs::counter!("optics.distance_calls").add(cells as u64);
        Self { k, ids, dists }
    }

    /// Number of bubbles (the matrix is `k × k`).
    pub fn k(&self) -> usize {
        self.k
    }

    /// Row `i` as parallel `(ids, distances)` slices, sorted ascending by
    /// `(distance, id)`; entry 0 is the bubble itself at distance 0.
    pub fn row(&self, i: usize) -> (&[u32], &[f64]) {
        let lo = i * self.k;
        let hi = lo + self.k;
        (&self.ids[lo..hi], &self.dists[lo..hi])
    }

    /// Appends the ε-neighbourhood of bubble `i` to `out`, identical to
    /// the exhaustive scan-and-sort (the row prefix with `d <= eps`).
    pub fn neighborhood_into(&self, i: usize, eps: f64, out: &mut Vec<Neighbor>) {
        let (ids, dists) = self.row(i);
        let end = dists.partition_point(|&d| d <= eps);
        out.extend(
            ids[..end].iter().zip(&dists[..end]).map(|(&id, &d)| Neighbor::new(id as usize, d)),
        );
    }

    /// Matrix memory footprint in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.ids.len() * std::mem::size_of::<u32>() + self.dists.len() * std::mem::size_of::<f64>()
    }
}

/// Resolves a thread-count knob: `None` means available parallelism,
/// clamped to `[1, work_items]`.
fn resolve_threads(threads: Option<NonZeroUsize>, work_items: usize) -> usize {
    threads
        .or_else(|| std::thread::available_parallelism().ok())
        .map_or(1, NonZeroUsize::get)
        .min(work_items.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bubbles(n: usize) -> Vec<DataBubble> {
        (0..n)
            .map(|i| {
                DataBubble::new(
                    vec![(i % 37) as f64, ((i * 13) % 29) as f64],
                    (i as u64 % 9) + 1,
                    0.1 * (i % 5) as f64,
                )
            })
            .collect()
    }

    #[test]
    fn build_is_thread_count_invariant() {
        let bs = bubbles(61);
        let base = BubbleDistanceMatrix::build(&bs, NonZeroUsize::new(1));
        for threads in [2usize, 3, 7, 64] {
            let m = BubbleDistanceMatrix::build(&bs, NonZeroUsize::new(threads));
            assert_eq!(m.ids, base.ids, "threads = {threads}");
            assert_eq!(m.dists, base.dists, "threads = {threads}");
        }
        let m = BubbleDistanceMatrix::build(&bs, None);
        assert_eq!(m.ids, base.ids);
        assert_eq!(m.dists, base.dists);
    }

    #[test]
    fn rows_are_sorted_and_start_with_self() {
        let bs = bubbles(20);
        let m = BubbleDistanceMatrix::build(&bs, None);
        assert_eq!(m.k(), 20);
        for i in 0..20 {
            let (ids, dists) = m.row(i);
            assert_eq!(ids[0] as usize, i, "self is the closest entry");
            assert_eq!(dists[0], 0.0);
            assert!(dists.windows(2).all(|w| w[0] <= w[1]), "row {i} not sorted");
            let mut seen: Vec<u32> = ids.to_vec();
            seen.sort_unstable();
            assert_eq!(seen, (0..20).collect::<Vec<u32>>(), "row {i} not a permutation");
        }
    }

    #[test]
    fn rows_hold_definition_6_with_the_row_bubble_first() {
        let bs = bubbles(15);
        let m = BubbleDistanceMatrix::build(&bs, None);
        for i in 0..15 {
            let (ids, dists) = m.row(i);
            for (&j, &d) in ids.iter().zip(dists) {
                let j = j as usize;
                let want = crate::bubble_distance(&bs[i], &bs[j], i == j);
                assert_eq!(d.to_bits(), want.to_bits(), "({i}, {j})");
            }
        }
    }

    #[test]
    fn neighborhood_prefix_matches_filter() {
        let bs = bubbles(30);
        let m = BubbleDistanceMatrix::build(&bs, None);
        for eps in [0.0, 1.0, 10.0, f64::INFINITY] {
            let mut out = Vec::new();
            m.neighborhood_into(3, eps, &mut out);
            let (ids, dists) = m.row(3);
            let expected: Vec<Neighbor> = ids
                .iter()
                .zip(dists)
                .filter(|(_, &d)| d <= eps)
                .map(|(&id, &d)| Neighbor::new(id as usize, d))
                .collect();
            assert_eq!(out, expected, "eps = {eps}");
        }
    }

    #[test]
    fn memory_accounting() {
        let m = BubbleDistanceMatrix::build(&bubbles(8), None);
        assert_eq!(m.memory_bytes(), 8 * 8 * 12);
    }

    #[test]
    #[should_panic(expected = "zero bubbles")]
    fn empty_build_panics() {
        BubbleDistanceMatrix::build(&[], None);
    }
}

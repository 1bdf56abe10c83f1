//! Seeded inputs: every workload's data comes from the run seed alone.

use db_datagen::LabeledDataset;
use db_rng::Rng;
use db_spatial::Dataset;

/// Derives an independent seed for input stream `stream` from the run
/// seed (SplitMix64 finaliser).
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A generated sample split into the points the program is given and a
/// held-out remainder (label probes, an ingest stream).
#[derive(Debug)]
pub struct Split {
    /// Coordinates of the kept points, row-major; the program builds its
    /// `Dataset` from these through the validated constructor.
    pub flat: Vec<f64>,
    /// Ground-truth labels of the kept points.
    pub labels: Vec<i32>,
    /// The held-out points, in generation order.
    pub held_out: Dataset,
    /// Ground-truth labels of the held-out points.
    pub held_out_labels: Vec<i32>,
}

/// Holds out `count` points of `data`, chosen by a seeded draw so they
/// follow the same distribution as the kept ones whatever order the
/// generator emits its components in.
///
/// # Panics
///
/// Panics if `count > data.len()`.
pub fn split_holdout(data: &LabeledDataset, count: usize, seed: u64) -> Split {
    let n = data.len();
    let dim = data.data.dim();
    let mut held = vec![false; n];
    for i in Rng::seed_from_u64(seed).sample_indices(n, count) {
        held[i] = true;
    }
    let mut flat = Vec::with_capacity((n - count) * dim);
    let mut labels = Vec::with_capacity(n - count);
    let mut out_flat = Vec::with_capacity(count * dim);
    let mut held_out_labels = Vec::with_capacity(count);
    for (i, p) in data.data.iter().enumerate() {
        if held[i] {
            out_flat.extend_from_slice(p);
            held_out_labels.push(data.labels[i]);
        } else {
            flat.extend_from_slice(p);
            labels.push(data.labels[i]);
        }
    }
    let held_out = Dataset::from_flat_unchecked(dim, out_flat);
    Split { flat, labels, held_out, held_out_labels }
}

/// Cuts `ds` into consecutive batches of `size` points (the last may be
/// shorter).
pub fn batches(ds: &Dataset, size: usize) -> Vec<Dataset> {
    ds.as_flat()
        .chunks(size * ds.dim())
        .map(|chunk| Dataset::from_flat_unchecked(ds.dim(), chunk.to_vec()))
        .collect()
}

/// The JSON body of one `POST /ingest` request.
pub fn ingest_body(batch: &Dataset) -> String {
    let rows: Vec<String> = batch
        .iter()
        .map(|p| {
            let coords: Vec<String> = p.iter().map(|c| format!("{c:?}")).collect();
            format!("[{}]", coords.join(","))
        })
        .collect();
    format!("{{\"points\":[{}]}}", rows.join(","))
}

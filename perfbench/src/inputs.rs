//! Seeded inputs with a fixed size profile.
//!
//! Sizes are drawn by stratified sampling: the range is cut into one
//! stratum per input and each input draws its size inside its own
//! stratum, then the sizes are shuffled. The result is uniform over the
//! range like plain sampling, but the multiset of sizes barely changes
//! from seed to seed, so runs with different seeds do the same amount of
//! work and differ in which input is which and in document contents.

use mrassign_workloads::sizes::ZipfTable;
use mrassign_workloads::Document;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// `n` sizes uniform over `lo..=hi`, one per stratum, in seeded order.
fn stratified_sizes(lo: u64, hi: u64, n: usize, rng: &mut StdRng) -> Vec<u64> {
    let span = (hi - lo + 1) as f64;
    let mut sizes: Vec<u64> = (0..n)
        .map(|i| {
            let u: f64 = rng.random();
            lo + (((i as f64 + u) / n as f64) * span) as u64
        })
        .collect();
    for i in (1..n).rev() {
        sizes.swap(i, rng.random_range(0..=i));
    }
    sizes
}

/// `n` input weights uniform over `lo..=hi`.
pub fn weights(lo: u64, hi: u64, n: usize, seed: u64) -> Vec<u64> {
    stratified_sizes(lo, hi, n, &mut StdRng::seed_from_u64(seed))
}

/// `n` documents with lengths uniform over `lo..=hi` tokens and tokens
/// drawn from a Zipf(`vocab`, `skew`) vocabulary.
pub fn documents(n: usize, vocab: u32, skew: f64, lo: u64, hi: u64, seed: u64) -> Vec<Document> {
    let mut rng = StdRng::seed_from_u64(seed);
    let table = ZipfTable::new(vocab, skew);
    stratified_sizes(lo, hi, n, &mut rng)
        .into_iter()
        .enumerate()
        .map(|(id, len)| Document {
            id: id as u32,
            tokens: (0..len).map(|_| table.sample(&mut rng) - 1).collect(),
        })
        .collect()
}

//! `simjoin` and `simjoin-spill`: one chosen schema executed with real
//! reducer work through the pipelined engine.
//!
//! One operation is `run_similarity_join` over 200 generated documents
//! (vocabulary 5000, Zipf 1.0, 20–200 tokens) at capacity 2500 and
//! threshold 0.05, on `ShuffleMode::Pipelined` with one map thread. The
//! planner is not involved. `simjoin-spill` is the identical job under a
//! 5.875 MiB memory budget, spilling into a private directory that must be
//! empty after every operation; the pair differs only in the budget.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use mrassign_core::a2a::A2aAlgorithm;
use mrassign_joins::{
    run_similarity_join, JoinError, SimJoinConfig, SimJoinResult, SimJoinStrategy, SimilarPair,
};
use mrassign_simmr::{ClusterConfig, ShuffleMode};
use mrassign_workloads::Document;

use crate::layers::Layers;
use crate::{host, inputs, timed_setups, Op, Workload};

const DOCUMENTS: usize = 200;
const VOCABULARY: u32 = 5000;
const TOKEN_SKEW: f64 = 1.0;
/// Document lengths are uniform over `MIN_TOKENS..=MAX_TOKENS`.
const MIN_TOKENS: u64 = 20;
const MAX_TOKENS: u64 = 200;
const CAPACITY: u64 = 2500;
const THRESHOLD: f64 = 0.05;
const MAP_THREADS: usize = 1;
/// Buffered bytes the consumer may hold before it spills: just below the
/// 6.0 MiB the job shuffles, so every operation spills (about 45 runs)
/// and merges externally while file creation, which costs far more on a
/// disk filesystem than on tmpfs, stays a minor share of the time.
const SPILL_BUDGET: u64 = 6016 * 1024;

/// A spill directory owned by this process, removed when dropped.
struct SpillDir(PathBuf);

impl SpillDir {
    fn create(root: &Path) -> Result<Self, String> {
        let path = root.join(format!("spill-{}", std::process::id()));
        std::fs::create_dir_all(&path)
            .map_err(|e| format!("cannot create {}: {e}", path.display()))?;
        Ok(SpillDir(path))
    }

    fn entries(&self) -> Result<u64, String> {
        let dir = std::fs::read_dir(&self.0)
            .map_err(|e| format!("cannot list {}: {e}", self.0.display()))?;
        Ok(dir.count() as u64)
    }
}

impl Drop for SpillDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

pub struct SimJoinWorkload {
    docs: Vec<Document>,
    config: SimJoinConfig,
    /// Similar pairs from a brute-force `Document::jaccard` scan.
    expected: Vec<SimilarPair>,
    spill: Option<SpillDir>,
    files_left: AtomicU64,
}

/// `spill_root` selects `simjoin-spill`: the private spill directory is
/// created under it.
pub fn setup(seed: u64, spill_root: Option<&Path>) -> Result<(SimJoinWorkload, Vec<f64>), String> {
    let generate = || {
        inputs::documents(
            DOCUMENTS, VOCABULARY, TOKEN_SKEW, MIN_TOKENS, MAX_TOKENS, seed,
        )
    };
    let expected = brute_force(&generate());
    timed_setups(|| {
        let docs = generate();
        let spill = spill_root.map(SpillDir::create).transpose()?;
        let config = SimJoinConfig {
            capacity: CAPACITY,
            threshold: THRESHOLD,
            strategy: SimJoinStrategy::Schema(A2aAlgorithm::Auto),
            cluster: ClusterConfig {
                shuffle: ShuffleMode::Pipelined,
                map_threads: MAP_THREADS,
                memory_budget: spill.as_ref().map(|_| SPILL_BUDGET),
                spill_dir: spill.as_ref().map(|d| d.0.clone()),
                ..ClusterConfig::default()
            },
        };
        let w = SimJoinWorkload {
            docs,
            config,
            expected: expected.clone(),
            spill,
            files_left: AtomicU64::new(0),
        };
        // Warm-up operation, refereed like every other.
        w.check(w.timed_call().0, None).map(|()| w)
    })
}

fn brute_force(docs: &[Document]) -> Vec<SimilarPair> {
    let mut pairs = Vec::new();
    for (i, a) in docs.iter().enumerate() {
        for b in &docs[i + 1..] {
            let similarity = a.jaccard(b);
            if similarity >= THRESHOLD {
                pairs.push(SimilarPair {
                    a: a.id.min(b.id),
                    b: a.id.max(b.id),
                    similarity,
                });
            }
        }
    }
    pairs.sort_by_key(|p| (p.a, p.b));
    pairs
}

impl SimJoinWorkload {
    /// Checks one call's result: spill directory empty, pairs equal to
    /// the brute-force scan. Adds the engine's counters to `layers`.
    fn check(
        &self,
        result: Result<SimJoinResult, JoinError>,
        layers: Option<&Layers>,
    ) -> Result<(), String> {
        let left = match &self.spill {
            Some(dir) => dir.entries()?,
            None => 0,
        };
        self.files_left.fetch_add(left, Ordering::Relaxed);
        let result = result.map_err(|e| format!("run_similarity_join: {e}"))?;
        if let Some(layers) = layers {
            let m = &result.metrics;
            let p = &m.pipeline;
            layers.add_det("joins.pairs", 0, result.pairs.len() as f64);
            layers.add_det("mapreduce.partitions", 0, m.reducers as f64);
            layers.add_det("mapreduce.records_shuffled", 0, m.records_shuffled as f64);
            layers.add_det("mapreduce.bytes_shuffled", 0, m.bytes_shuffled as f64);
            layers.add("mapreduce.job_s", p.wall_seconds);
            layers.add("mapreduce.map_wall_s", p.map_wall_seconds);
            layers.add("mapreduce.reduce_wall_s", p.reduce_wall_seconds);
            layers.add("mapreduce.finalize_imbalance", p.finalize_imbalance);
            layers.add("mapreduce.blocks_sent", p.blocks_sent as f64);
            layers.add(
                "mapreduce.peak_inflight_blocks",
                p.peak_inflight_blocks as f64,
            );
            layers.add("mapreduce.spill.runs", p.spilled_runs as f64);
            layers.add("mapreduce.spill.bytes", p.spilled_bytes as f64);
            layers.add(
                "mapreduce.spill.peak_buffered_bytes",
                p.peak_buffered_bytes as f64,
            );
            layers.add("mapreduce.spill.merge_fanin", p.merge_fanin as f64);
        }
        if left > 0 {
            return Err(format!("{left} spill files left after the operation"));
        }
        let same = result.pairs.len() == self.expected.len()
            && result.pairs.iter().zip(&self.expected).all(|(x, y)| {
                x.a == y.a && x.b == y.b && x.similarity.to_bits() == y.similarity.to_bits()
            });
        if !same {
            return Err(format!(
                "{} pairs differ from the {} of the brute-force scan",
                result.pairs.len(),
                self.expected.len()
            ));
        }
        Ok(())
    }

    fn timed_call(&self) -> (Result<SimJoinResult, JoinError>, f64) {
        let start = Instant::now();
        let result = run_similarity_join(&self.docs, &self.config);
        (result, start.elapsed().as_secs_f64())
    }
}

impl Workload for SimJoinWorkload {
    /// One mapper thread feeding one consumer group.
    fn runnable_threads(&self) -> usize {
        2 * self.config.cluster.map_threads
    }

    fn op(&self, op: &Op) -> Result<f64, String> {
        let Some(t) = op.trace else {
            let (result, secs) = self.timed_call();
            return self.check(result, None).map(|()| secs);
        };
        let root = t.tracer.open("simjoin.op", op.id, None);
        let call = t.tracer.open("joins.simjoin", op.id, Some(root.id()));
        let (result, secs) = self.timed_call();
        call.close();
        let checked = self.check(result, Some(t.layers));
        root.close();
        checked.map(|()| secs)
    }

    fn finish(&self, layers: &Layers, _window_ops: u64) {
        layers.set(
            "mapreduce.spill.files_left",
            self.files_left.load(Ordering::Relaxed) as f64,
        );
    }

    fn record(&self) -> Vec<(&'static str, String)> {
        let fs = self
            .spill
            .as_ref()
            .and_then(|d| host::filesystem(&d.0))
            .map_or("null".to_string(), |f| crate::json_str(&f));
        vec![
            ("spill_dir_filesystem", fs),
            ("expected_pairs", self.expected.len().to_string()),
        ]
    }
}

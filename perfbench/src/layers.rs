//! Per-layer metrics of the traced run.
//!
//! Every workload reports every metric below; a layer that does no work on
//! a workload reports 0. Unless a workload sets a final value, a metric is
//! the sum of what the traced operations added, divided by the number of
//! traced operations (a per-operation mean).

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Mutex;

/// Whether a metric must repeat exactly for a repeated input.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Fixed by the input and the configuration (counts of work).
    Deterministic,
    /// Depends on how the run executed: timings, thread interleavings,
    /// cache state under concurrent clients.
    ExecutionDependent,
}

use Kind::{Deterministic as Det, ExecutionDependent as Exec};

/// Name, unit and kind of every per-layer metric, grouped by layer.
pub const METRICS: &[(&str, &str, Kind)] = &[
    // core: a2a::solve (bin packing included) and route compile
    ("core.solve_s", "s", Exec),
    ("core.solves", "count", Det),
    ("core.reducers", "count", Det),
    ("core.replicas", "count", Det),
    ("core.compile_s", "s", Exec),
    // planner: plan_a2a minus the solves it calls
    ("planner.self_s", "s", Exec),
    ("planner.candidates", "count", Det),
    // mapreduce engine: Job::run
    ("mapreduce.job_s", "s", Exec),
    ("mapreduce.partitions", "count", Det),
    ("mapreduce.records_shuffled", "count", Det),
    ("mapreduce.bytes_shuffled", "bytes", Det),
    ("mapreduce.map_wall_s", "s", Exec),
    ("mapreduce.reduce_wall_s", "s", Exec),
    ("mapreduce.finalize_imbalance", "ratio", Exec),
    ("mapreduce.blocks_sent", "count", Exec),
    ("mapreduce.peak_inflight_blocks", "count", Exec),
    // mapreduce spill path
    ("mapreduce.spill.runs", "count", Exec),
    ("mapreduce.spill.bytes", "bytes", Exec),
    ("mapreduce.spill.peak_buffered_bytes", "bytes", Exec),
    ("mapreduce.spill.merge_fanin", "count", Exec),
    ("mapreduce.spill.files_left", "count", Exec),
    // joins: run_similarity_join
    ("joins.simjoin_s", "s", Exec),
    ("joins.pairs", "count", Det),
    // dag graph: marginals_graph and its streamed edge
    ("dag.graph_build_s", "s", Exec),
    ("dag.stream_batches", "count", Exec),
    ("dag.stream_early_ratio", "ratio", Exec),
    // dag server: submit / join
    ("dag.submit_s", "s", Exec),
    ("dag.queue_wait_s", "s", Exec),
    ("dag.stage_wall_s", "s", Exec),
    ("dag.dispatch_gap_max", "count", Exec),
    // dag stage store
    ("dag.store.hits", "count", Exec),
    ("dag.store.misses", "count", Exec),
    ("dag.store.insertions", "count", Exec),
    ("dag.store.evictions", "count", Exec),
    ("dag.store.hit_ratio", "ratio", Exec),
    ("dag.store.used_bytes", "bytes", Exec),
    // the harness's own tracing
    ("trace.spans", "count", Exec),
    ("trace.overhead_ratio", "ratio", Exec),
];

#[derive(Default)]
struct State {
    sums: BTreeMap<&'static str, f64>,
    finals: BTreeMap<&'static str, f64>,
    /// First value seen per (metric, input) and how many times it was seen.
    first: BTreeMap<(&'static str, u64), (f64, u64)>,
    varied: BTreeSet<&'static str>,
}

#[derive(Default)]
pub struct Layers {
    state: Mutex<State>,
}

/// How the deterministic metrics behaved over a run.
pub struct RepeatReport {
    /// Deterministic metrics seen at least twice for one input.
    pub checked: usize,
    /// Of those, the ones whose every repeat matched the first value.
    pub repeated_exactly: usize,
    /// Deterministic metrics that did not repeat.
    pub varied: Vec<&'static str>,
}

impl Layers {
    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        self.state.lock().expect("layer metrics poisoned")
    }

    /// Adds an execution-dependent amount to `name`. Names outside
    /// [`METRICS`] are helpers a workload combines in its final values.
    pub fn add(&self, name: &'static str, value: f64) {
        *self.lock().sums.entry(name).or_insert(0.0) += value;
    }

    /// Adds one operation's value of a deterministic metric for the input
    /// identified by `input`, noting whether it repeats the first value
    /// seen for that input.
    pub fn add_det(&self, name: &'static str, input: u64, value: f64) {
        let mut st = self.lock();
        *st.sums.entry(name).or_insert(0.0) += value;
        let entry = st.first.entry((name, input)).or_insert((value, 0));
        entry.1 += 1;
        if entry.0.to_bits() != value.to_bits() {
            st.varied.insert(name);
        }
    }

    /// Raises `name`'s final value to `value` if that is larger.
    pub fn max(&self, name: &'static str, value: f64) {
        let mut st = self.lock();
        let slot = st.finals.entry(name).or_insert(value);
        *slot = slot.max(value);
    }

    /// Sets `name`'s final value, replacing the per-operation mean.
    pub fn set(&self, name: &'static str, value: f64) {
        self.lock().finals.insert(name, value);
    }

    pub fn sum(&self, name: &'static str) -> f64 {
        self.lock().sums.get(name).copied().unwrap_or(0.0)
    }

    /// The value of every metric in [`METRICS`], in order.
    pub fn values(&self, traced_ops: u64) -> Vec<(&'static str, &'static str, f64)> {
        let st = self.lock();
        let ops = traced_ops.max(1) as f64;
        METRICS
            .iter()
            .map(|&(name, unit, _)| {
                let value = st
                    .finals
                    .get(name)
                    .copied()
                    .unwrap_or_else(|| st.sums.get(name).copied().unwrap_or(0.0) / ops);
                (name, unit, value)
            })
            .collect()
    }

    pub fn repeat_report(&self) -> RepeatReport {
        let st = self.lock();
        let checked: BTreeSet<&'static str> = st
            .first
            .iter()
            .filter(|(_, &(_, seen))| seen >= 2)
            .map(|(&(name, _), _)| name)
            .collect();
        let varied: Vec<&'static str> = st.varied.iter().copied().collect();
        RepeatReport {
            checked: checked.len(),
            repeated_exactly: checked.iter().filter(|n| !st.varied.contains(*n)).count(),
            varied,
        }
    }
}

/// Names of the metrics whose values depend on how the run executed.
pub fn execution_dependent() -> Vec<&'static str> {
    METRICS
        .iter()
        .filter(|m| m.2 == Exec)
        .map(|m| m.0)
        .collect()
}

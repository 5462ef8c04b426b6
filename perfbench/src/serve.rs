//! `serve`: two tenants submitting marginals jobs to one server with a
//! stage store.
//!
//! Two closed-loop clients, one tenant each, submit `marginals_graph` jobs
//! over 2000-tuple cubes to one `JobServer::with_stage_cache` with a
//! one-worker pool. Three of every four submissions are hot. The hot set is small and stays in the store (hits); the cold
//! cubes cycle through more entries than the store holds, so each cold
//! submission misses, executes both rounds over the streamed edge, is
//! inserted and evicts the least recently used cold entry. The 3:1 mix
//! keeps the median well inside the hit mode and the tail inside the miss
//! mode; at 1:1 the median would sit on the boundary between them.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use mrassign_dag::marginals::{marginals_graph, marginals_oracle, Marginal, MarginalsConfig};
use mrassign_dag::{DagError, DagOutput, JobServer, StoreStats};
use mrassign_simmr::{ByteSized, ClusterConfig};
use mrassign_workloads::{generate_cube, CubeSpec, CubeTuple};

use crate::layers::Layers;
use crate::trace::OpenSpan;
use crate::{timed_setups, Op, Traced, Workload};

const CLIENTS: usize = 2;
const TENANTS: [&str; CLIENTS] = ["tenant-a", "tenant-b"];
const POOL_WORKERS: usize = 1;
const MAP_THREADS: usize = 1;
/// Threads one stage can keep busy: the streamed edge's producer runs on
/// the pool worker and its consumer on a thread of its own.
const THREADS_PER_STAGE: usize = 2;
const CUBE: CubeSpec = CubeSpec {
    n_tuples: 2000,
    dims: 3,
    cardinality: 16,
    skew: 1.0,
    max_measure: 100,
};
const HOT_CUBES: usize = 3;
const COLD_CUBES: usize = 24;
/// Each client's submissions repeat in cycles of `CYCLE`; the ones at
/// `COLD_SLOTS` are cold (one in four). One slot is even and one odd, so
/// the traced run, which traces every other operation, sees both kinds.
const CYCLE: u64 = 8;
const COLD_SLOTS: [u64; 2] = [3, 6];
/// Store room beyond the hot set, in cold entries. Far fewer than
/// `COLD_CUBES`, so a cold cube is always evicted before it returns; large
/// enough that a hot cube, which each client submits at least once per
/// cycle, is always used again before eight cold inserts age it out.
const SPARE_ENTRIES: u64 = 8;

struct Cube {
    tuples: Vec<CubeTuple>,
    /// Output of `marginals_oracle`, the brute-force reference.
    expected: Vec<Marginal>,
}

pub struct ServeWorkload {
    /// Hot cubes first, then cold ones.
    cubes: Vec<Cube>,
    config: MarginalsConfig,
    server: JobServer,
    capacity: u64,
    next_cold: AtomicU64,
    /// Store counters when the measured window opened.
    stats_at_start: StoreStats,
}

fn cube_seed(seed: u64, index: usize) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(index as u64 + 1)
}

pub fn setup(seed: u64) -> Result<(ServeWorkload, Vec<f64>), String> {
    let expected: Vec<Vec<Marginal>> = (0..HOT_CUBES + COLD_CUBES)
        .map(|i| marginals_oracle(&generate_cube(&CUBE, cube_seed(seed, i)), CUBE.dims))
        .collect();
    let entry_bytes = |m: &[Marginal]| m.iter().map(ByteSized::size_bytes).sum::<u64>();
    let hot_bytes: u64 = expected[..HOT_CUBES].iter().map(|m| entry_bytes(m)).sum();
    let largest_cold = expected[HOT_CUBES..]
        .iter()
        .map(|m| entry_bytes(m))
        .max()
        .unwrap_or(0);
    let capacity = hot_bytes + SPARE_ENTRIES * largest_cold;

    let (mut w, samples) = timed_setups(|| {
        let cubes: Vec<Cube> = expected
            .iter()
            .enumerate()
            .map(|(i, e)| Cube {
                tuples: generate_cube(&CUBE, cube_seed(seed, i)),
                expected: e.clone(),
            })
            .collect();
        let cluster = ClusterConfig {
            map_threads: MAP_THREADS,
            ..ClusterConfig::default()
        };
        let w = ServeWorkload {
            cubes,
            config: MarginalsConfig {
                dims: CUBE.dims,
                first_reducers: 8,
                second_reducers: 8,
                first_cluster: cluster.clone(),
                second_cluster: cluster,
            },
            server: JobServer::with_stage_cache(POOL_WORKERS, capacity),
            capacity,
            next_cold: AtomicU64::new(0),
            stats_at_start: StoreStats::default(),
        };
        // Warm the store with the hot set.
        for (i, cube) in w.cubes[..HOT_CUBES].iter().enumerate() {
            let out = w.submit(TENANTS[i % CLIENTS], cube, None).0;
            w.check(cube, out, false)?;
        }
        Ok(w)
    })?;
    w.stats_at_start = w.stats();
    Ok((w, samples))
}

impl ServeWorkload {
    fn stats(&self) -> StoreStats {
        self.server
            .stage_cache_stats()
            .expect("server was built with a stage store")
    }

    /// Builds, submits and joins one marginals job; returns its output and
    /// the seconds the three calls took.
    fn submit(
        &self,
        tenant: &str,
        cube: &Cube,
        traced: Option<(u64, u64, Traced)>,
    ) -> (Result<DagOutput<Vec<Marginal>>, DagError>, f64) {
        let open = |name| traced.map(|(op, parent, t)| t.tracer.open(name, op, Some(parent)));
        let close = |span: Option<OpenSpan>| span.map(OpenSpan::close);
        let start = Instant::now();
        let span = open("dag.graph_build");
        let (graph, sink) = marginals_graph(&cube.tuples, &self.config);
        close(span);
        let span = open("dag.submit");
        let handle = self.server.submit(tenant, 0, graph, &sink);
        close(span);
        let span = open("dag.join");
        let out = handle.join();
        close(span);
        (out, start.elapsed().as_secs_f64())
    }

    fn check(
        &self,
        cube: &Cube,
        out: Result<DagOutput<Vec<Marginal>>, DagError>,
        hot: bool,
    ) -> Result<DagOutput<Vec<Marginal>>, String> {
        let out = out.map_err(|e| format!("marginals job: {e}"))?;
        if out.output != cube.expected {
            return Err("marginals differ from marginals_oracle".to_string());
        }
        if hot && out.metrics.cache_hits == 0 {
            return Err("hot submission was not served from the store".to_string());
        }
        Ok(out)
    }
}

impl Workload for ServeWorkload {
    fn clients(&self) -> usize {
        CLIENTS
    }

    /// Closed-loop clients wait in `join` while their job runs, so the
    /// library work in flight is one stage per pool worker.
    fn runnable_threads(&self) -> usize {
        POOL_WORKERS * THREADS_PER_STAGE * MAP_THREADS
    }

    fn op(&self, op: &Op) -> Result<f64, String> {
        let cold = COLD_SLOTS.contains(&(op.seq % CYCLE));
        let index = if cold {
            HOT_CUBES + (self.next_cold.fetch_add(1, Ordering::Relaxed) as usize % COLD_CUBES)
        } else {
            (op.seq as usize + op.client) % HOT_CUBES
        };
        let cube = &self.cubes[index];
        let tenant = TENANTS[op.client];
        let Some(t) = op.trace else {
            let (out, secs) = self.submit(tenant, cube, None);
            return self.check(cube, out, !cold).map(|_| secs);
        };
        let root = t.tracer.open("serve.op", op.id, None);
        let (out, secs) = self.submit(tenant, cube, Some((op.id, root.id(), t)));
        let checked = self.check(cube, out, !cold);
        root.close();
        let out = checked?;
        let m = &out.metrics;
        t.layers.add("dag.queue_wait_s", m.queue_wait_seconds());
        t.layers.add(
            "dag.stage_wall_s",
            m.stages.iter().map(|s| s.wall_seconds).sum(),
        );
        t.layers
            .max("dag.dispatch_gap_max", m.max_dispatch_gap() as f64);
        let (mut partitions, mut records, mut bytes) = (0, 0, 0);
        for stage in &m.stages {
            t.layers
                .add("dag.stream_batches", stage.stream_batches as f64);
            t.layers.add(
                "dag.stream_batches_early",
                stage.stream_batches_early as f64,
            );
            for job in &stage.jobs {
                partitions += job.reducers;
                records += job.records_shuffled;
                bytes += job.bytes_shuffled;
            }
        }
        // Engine work is fixed by the cube and by whether the store served it.
        let input = index as u64 * 2 + u64::from(m.cache_hits > 0);
        t.layers
            .add_det("mapreduce.partitions", input, partitions as f64);
        t.layers
            .add_det("mapreduce.records_shuffled", input, records as f64);
        t.layers
            .add_det("mapreduce.bytes_shuffled", input, bytes as f64);
        Ok(secs)
    }

    fn finish(&self, layers: &Layers, window_ops: u64) {
        let start = self.stats_at_start;
        let end = self.stats();
        let per_op = |v: u64| v as f64 / window_ops.max(1) as f64;
        let (hits, misses) = (end.hits - start.hits, end.misses - start.misses);
        layers.set("dag.store.hits", per_op(hits));
        layers.set("dag.store.misses", per_op(misses));
        layers.set(
            "dag.store.insertions",
            per_op(end.insertions - start.insertions),
        );
        layers.set(
            "dag.store.evictions",
            per_op(end.evictions - start.evictions),
        );
        layers.set(
            "dag.store.hit_ratio",
            hits as f64 / (hits + misses).max(1) as f64,
        );
        layers.set("dag.store.used_bytes", end.used_bytes as f64);
        let batches = layers.sum("dag.stream_batches");
        let early = layers.sum("dag.stream_batches_early");
        layers.set(
            "dag.stream_early_ratio",
            if batches > 0.0 { early / batches } else { 0.0 },
        );
    }

    fn record(&self) -> Vec<(&'static str, String)> {
        vec![
            ("store_capacity_bytes", self.capacity.to_string()),
            ("hot_cubes", HOT_CUBES.to_string()),
            ("cold_cubes", COLD_CUBES.to_string()),
        ]
    }
}

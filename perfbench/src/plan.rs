//! `plan`: the planner's user path at paper scale.
//!
//! One operation is `plan_a2a` over m = 1000 inputs with `uniform:30:90`
//! weights and 8 capacity candidates. The smallest candidate's schema has
//! about 2.8·10⁵ reducers, and the planner runs a full engine job per
//! candidate to read its makespan.
//!
//! A traced operation passes a span-recording solver to `plan_a2a_with`,
//! so each candidate's solve is timed inside the real call. The route
//! compile and `Job::run` the planner performs privately are then replayed
//! through the public API (`MappingSchema::to_routes`, `Job::run`) to time
//! the engine layer; the replay must reproduce every candidate's makespan,
//! speedup and max load bit for bit.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use mrassign_core::a2a::{self, A2aAlgorithm};
use mrassign_core::solver::{AssignmentSolver, SolverKind};
use mrassign_core::{InputSet, MappingSchema, SchemaError, Weight};
use mrassign_planner::{plan_a2a, plan_a2a_with, CandidatePlan, Objective, Plan, PlannerConfig};
use mrassign_simmr::{
    ByteSized, CapacityPolicy, ClusterConfig, DirectRouter, Emitter, Job, Mapper, Reducer,
    ShuffleMode, SpillCodec,
};

use crate::trace::Tracer;
use crate::{inputs, timed_setups, Op, Traced, Workload};

const INPUTS: usize = 1000;
/// Input weights are uniform over `WEIGHT_MIN..=WEIGHT_MAX`.
const WEIGHT_MIN: u64 = 30;
const WEIGHT_MAX: u64 = 90;
const CANDIDATES: usize = 8;
/// Threads the candidate sweep fans out over.
const PLANNER_THREADS: usize = 2;
/// Threads each candidate's engine job maps with.
const MAP_THREADS: usize = 1;

pub struct PlanWorkload {
    weights: Vec<Weight>,
    inputs: InputSet,
    config: PlannerConfig,
    /// The plan of the last warm-up; every operation must reproduce it.
    expected: Plan,
    /// Whether `expected` passed the independent check made in setup.
    reference: Result<(), String>,
}

pub fn setup(seed: u64) -> Result<(PlanWorkload, Vec<f64>), String> {
    let (mut w, samples) = timed_setups(|| {
        let weights = inputs::weights(WEIGHT_MIN, WEIGHT_MAX, INPUTS, seed);
        let config = PlannerConfig {
            cluster: ClusterConfig {
                map_threads: MAP_THREADS,
                shuffle: ShuffleMode::Materialized,
                ..ClusterConfig::default()
            },
            candidates: CANDIDATES,
            q_min: None,
            q_max: None,
            objective: Objective::MinimizeMakespan,
            threads: PLANNER_THREADS,
        };
        let expected = plan_a2a(&weights, &config).map_err(|e| format!("warm-up plan: {e}"))?;
        Ok(PlanWorkload {
            inputs: InputSet::from_weights(weights.clone()),
            weights,
            config,
            expected,
            reference: Ok(()),
        })
    })?;
    w.reference = check_against_solver(&w.expected, &w.inputs);
    Ok((w, samples))
}

/// Every frontier candidate must report the reducer count and
/// communication of an independently solved schema that validates.
fn check_against_solver(plan: &Plan, inputs: &InputSet) -> Result<(), String> {
    if plan.frontier.len() != CANDIDATES {
        return Err(format!("frontier has {} candidates", plan.frontier.len()));
    }
    for c in &plan.frontier {
        let schema = a2a::solve(inputs, c.q, A2aAlgorithm::Auto)
            .map_err(|e| format!("reference solve at q={}: {e}", c.q))?;
        schema
            .validate_a2a(inputs, c.q)
            .map_err(|e| format!("reference schema at q={} invalid: {e}", c.q))?;
        if c.reducers != schema.reducer_count()
            || c.communication != schema.communication_cost(inputs)
        {
            return Err(format!("candidate q={} disagrees with its schema", c.q));
        }
    }
    Ok(())
}

fn same_candidate(a: &CandidatePlan, b: &CandidatePlan) -> bool {
    a.q == b.q
        && a.reducers == b.reducers
        && a.communication == b.communication
        && a.makespan.to_bits() == b.makespan.to_bits()
        && a.speedup.to_bits() == b.speedup.to_bits()
        && a.max_load == b.max_load
}

impl PlanWorkload {
    fn referee(&self, plan: &Plan) -> Result<(), String> {
        self.reference.clone()?;
        if let Some(c) = plan.frontier.iter().find(|c| c.max_load > c.q) {
            return Err(format!("candidate q={} has max load {}", c.q, c.max_load));
        }
        let identical = same_candidate(&plan.best, &self.expected.best)
            && plan.frontier.len() == self.expected.frontier.len()
            && plan
                .frontier
                .iter()
                .zip(&self.expected.frontier)
                .all(|(a, b)| same_candidate(a, b));
        if identical {
            Ok(())
        } else {
            Err("plan differs from the warm-up plan".to_string())
        }
    }

    fn traced_op(&self, op: &Op, t: Traced) -> Result<(Plan, f64), String> {
        let root = t.tracer.open("plan.op", op.id, None);
        let call = t.tracer.open("planner.plan_a2a", op.id, Some(root.id()));
        let solver = SpanSolver {
            tracer: t.tracer,
            op: op.id,
            parent: call.id(),
            calls: AtomicU64::new(0),
        };
        let plan = plan_a2a_with(&solver, &self.weights, &self.config);
        let plan_secs = call.close();
        let plan = plan.map_err(|e| format!("plan_a2a: {e}"))?;
        t.layers.add_det(
            "core.solves",
            0,
            solver.calls.load(Ordering::Relaxed) as f64,
        );
        t.layers
            .add_det("planner.candidates", 0, plan.frontier.len() as f64);

        let replay = t.tracer.open("plan.replay", op.id, Some(root.id()));
        let replayed = self.replay(&plan, op, replay.id(), t);
        replay.close();
        root.close();
        replayed?;
        Ok((plan, plan_secs))
    }

    /// Re-runs each candidate's route compile and engine job through the
    /// public API, recording their spans and the engine's counters.
    fn replay(&self, plan: &Plan, op: &Op, parent: u64, t: Traced) -> Result<(), String> {
        let (mut reducers, mut replicas) = (0usize, 0usize);
        let (mut partitions, mut records, mut bytes) = (0usize, 0u64, 0u64);
        for c in &plan.frontier {
            let schema = a2a::solve(&self.inputs, c.q, A2aAlgorithm::Auto)
                .map_err(|e| format!("replay solve at q={}: {e}", c.q))?;
            reducers += schema.reducer_count();
            replicas += schema.reducers().iter().map(Vec::len).sum::<usize>();

            let compile = t.tracer.open("core.route_compile", op.id, Some(parent));
            let mut routes = schema.to_routes();
            routes.resize_with(self.weights.len(), || (0, Vec::new()));
            let blobs: Vec<Blob> = self
                .weights
                .iter()
                .zip(routes)
                .map(|(&bytes, (_, targets))| Blob { bytes, targets })
                .collect();
            compile.close();

            let job = Job::new(
                Replicate,
                Absorb,
                DirectRouter,
                schema.reducer_count(),
                self.config.cluster.clone(),
            )
            .capacity(CapacityPolicy::Enforce(c.q));
            let span = t.tracer.open("mapreduce.job", op.id, Some(parent));
            let out = job.run(&blobs);
            span.close();
            let m = out
                .map_err(|e| format!("replay job at q={}: {e}", c.q))?
                .metrics;
            if m.total_seconds().to_bits() != c.makespan.to_bits()
                || m.speedup().to_bits() != c.speedup.to_bits()
                || m.max_reducer_load() != c.max_load
            {
                return Err(format!(
                    "replayed job at q={} differs from the planner's",
                    c.q
                ));
            }
            partitions += m.reducers;
            records += m.records_shuffled;
            bytes += m.bytes_shuffled;
            let p = &m.pipeline;
            t.layers.add("mapreduce.map_wall_s", p.map_wall_seconds);
            t.layers
                .add("mapreduce.reduce_wall_s", p.reduce_wall_seconds);
            t.layers
                .add("mapreduce.finalize_imbalance", p.finalize_imbalance);
            t.layers.add("mapreduce.blocks_sent", p.blocks_sent as f64);
            t.layers.add(
                "mapreduce.peak_inflight_blocks",
                p.peak_inflight_blocks as f64,
            );
        }
        t.layers.add_det("core.reducers", 0, reducers as f64);
        t.layers.add_det("core.replicas", 0, replicas as f64);
        t.layers
            .add_det("mapreduce.partitions", 0, partitions as f64);
        t.layers
            .add_det("mapreduce.records_shuffled", 0, records as f64);
        t.layers
            .add_det("mapreduce.bytes_shuffled", 0, bytes as f64);
        Ok(())
    }
}

impl Workload for PlanWorkload {
    fn runnable_threads(&self) -> usize {
        self.config.threads * self.config.cluster.map_threads
    }

    fn op(&self, op: &Op) -> Result<f64, String> {
        let (plan, secs) = match op.trace {
            Some(t) => self.traced_op(op, t)?,
            None => {
                let start = Instant::now();
                let plan =
                    plan_a2a(&self.weights, &self.config).map_err(|e| format!("plan_a2a: {e}"))?;
                (plan, start.elapsed().as_secs_f64())
            }
        };
        std::hint::black_box(&plan);
        self.referee(&plan)?;
        Ok(secs)
    }

    fn record(&self) -> Vec<(&'static str, String)> {
        let smallest = &self.expected.frontier[0];
        vec![
            ("plan_smallest_q", smallest.q.to_string()),
            ("plan_smallest_q_reducers", smallest.reducers.to_string()),
        ]
    }
}

/// The `Auto` solver with a span around every call.
struct SpanSolver<'a> {
    tracer: &'a Tracer,
    op: u64,
    parent: u64,
    calls: AtomicU64,
}

impl AssignmentSolver for &SpanSolver<'_> {
    type Instance = InputSet;
    type Schema = MappingSchema;

    fn name(&self) -> &'static str {
        A2aAlgorithm::Auto.name()
    }

    fn kind(&self) -> SolverKind {
        A2aAlgorithm::Auto.kind()
    }

    fn solve(&self, inputs: &InputSet, q: Weight) -> Result<MappingSchema, SchemaError> {
        let span = self.tracer.open("core.solve", self.op, Some(self.parent));
        let schema = A2aAlgorithm::Auto.solve(inputs, q);
        span.close();
        self.calls.fetch_add(1, Ordering::Relaxed);
        schema
    }
}

// The planner's candidate job, rebuilt from public parts: every input is
// shipped, at its weight, to each reducer its schema route names, and the
// reducers do nothing.

#[derive(Hash)]
struct Blob {
    bytes: u64,
    targets: Vec<usize>,
}

impl ByteSized for Blob {
    fn size_bytes(&self) -> u64 {
        self.bytes
    }
}

#[derive(Clone)]
struct Weighted(u64);

impl ByteSized for Weighted {
    fn size_bytes(&self) -> u64 {
        self.0
    }
}

impl SpillCodec for Weighted {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.0.encode(buf);
    }
    fn decode(bytes: &mut &[u8]) -> Option<Self> {
        Some(Weighted(u64::decode(bytes)?))
    }
}

struct Replicate;

impl Mapper for Replicate {
    type In = Blob;
    type Key = u64;
    type Value = Weighted;
    fn map(&self, input: &Blob, emit: &mut Emitter<u64, Weighted>) {
        for &t in &input.targets {
            emit.emit(t as u64, Weighted(input.bytes));
        }
    }
}

struct Absorb;

impl Reducer for Absorb {
    type Key = u64;
    type Value = Weighted;
    type Out = ();
    fn reduce(&self, _: &u64, _: &[Weighted], _: &mut Vec<()>) {}
}

//! Differential test: the planner's cost model against the engine.
//!
//! The sweep prices every candidate analytically. Here each frontier
//! candidate's schema is re-solved and run through the engine
//! ([`execute_a2a`] / [`execute_x2y`]) in every engine cell; the
//! `CandidatePlan` built from the engine's metrics must equal the planner's
//! bit for bit. The engine cells are {materialized, streaming,
//! pipelined × {static, stealing}} × map threads {1, 2} × {unbounded,
//! 256-byte memory budget}.

use mrassign_core::solver::{a2a_solver, x2y_solver, AssignmentSolver, SolverKind};
use mrassign_core::x2y::X2yAlgorithm;
use mrassign_core::{
    a2a::A2aAlgorithm, InputSet, MappingSchema, SchemaError, Weight, X2yInstance, X2ySchema,
};
use mrassign_planner::{
    execute_a2a, execute_x2y, plan_a2a_with, plan_x2y_with, CandidatePlan, PlannerConfig,
};
use mrassign_simmr::{ClusterConfig, FinalizeMode, JobMetrics, ShuffleMode};

/// The planner's configuration: no engine knobs at all, and a cost model
/// whose rates make task costs differ in magnitude, so the f64 sums come
/// out bit-identical only when they add in the engine's order.
fn planner(candidates: usize, q_min: Option<Weight>) -> PlannerConfig {
    PlannerConfig {
        cluster: ClusterConfig {
            workers: 3,
            map_rate: 7.0,
            reduce_rate: 3.0,
            network_bandwidth: 11.0,
            task_overhead: 0.1,
            ..ClusterConfig::default()
        },
        candidates,
        q_min,
        threads: 2,
        ..PlannerConfig::default()
    }
}

/// Every engine cell, on the planner's cost model.
fn cells(model: &ClusterConfig) -> Vec<ClusterConfig> {
    let engines = [
        (ShuffleMode::Materialized, FinalizeMode::Static),
        (ShuffleMode::Streaming, FinalizeMode::Static),
        (ShuffleMode::Pipelined, FinalizeMode::Static),
        (ShuffleMode::Pipelined, FinalizeMode::Stealing),
    ];
    let mut cells = Vec::new();
    for (shuffle, finalize_mode) in engines {
        for map_threads in [1, 2] {
            for memory_budget in [None, Some(256)] {
                cells.push(ClusterConfig {
                    shuffle,
                    finalize_mode,
                    map_threads,
                    memory_budget,
                    ..model.clone()
                });
            }
        }
    }
    cells
}

fn from_engine(
    q: Weight,
    reducers: usize,
    communication: u128,
    metrics: &JobMetrics,
) -> CandidatePlan {
    CandidatePlan {
        q,
        reducers,
        communication,
        makespan: metrics.total_seconds(),
        speedup: metrics.speedup(),
        max_load: metrics.max_reducer_load(),
    }
}

fn assert_same(model: &CandidatePlan, engine: &CandidatePlan, cell: &ClusterConfig) {
    let same = model.q == engine.q
        && model.reducers == engine.reducers
        && model.communication == engine.communication
        && model.makespan.to_bits() == engine.makespan.to_bits()
        && model.speedup.to_bits() == engine.speedup.to_bits()
        && model.max_load == engine.max_load;
    assert!(
        same,
        "cost model {model:?} != engine {engine:?} under {:?}/{:?}, {} map threads, budget {:?}",
        cell.shuffle, cell.finalize_mode, cell.map_threads, cell.memory_budget
    );
}

fn referee_a2a<S>(solver: S, weights: &[Weight], config: &PlannerConfig)
where
    S: AssignmentSolver<Instance = InputSet, Schema = MappingSchema> + Sync + Copy,
{
    let plan = plan_a2a_with(solver, weights, config).expect("plan");
    let inputs = InputSet::from_weights(weights.to_vec());
    for c in &plan.frontier {
        let schema = solver.solve(&inputs, c.q).expect("re-solve");
        for cell in cells(&config.cluster) {
            let metrics = execute_a2a(weights, &schema, c.q, &cell).expect("engine run");
            let engine = from_engine(
                c.q,
                schema.reducer_count(),
                schema.communication_cost(&inputs),
                &metrics,
            );
            assert_same(c, &engine, &cell);
            assert_eq!(c.check_engine(&metrics), Ok(()));
        }
    }
}

fn referee_x2y<S>(solver: S, x: &[Weight], y: &[Weight], config: &PlannerConfig)
where
    S: AssignmentSolver<Instance = X2yInstance, Schema = X2ySchema> + Sync + Copy,
{
    let plan = plan_x2y_with(solver, x, y, config).expect("plan");
    let inst = X2yInstance::from_weights(x.to_vec(), y.to_vec());
    for c in &plan.frontier {
        let schema = solver.solve(&inst, c.q).expect("re-solve");
        for cell in cells(&config.cluster) {
            let metrics = execute_x2y(x, y, &schema, c.q, &cell).expect("engine run");
            let engine = from_engine(
                c.q,
                schema.reducer_count(),
                schema.communication_cost(&inst),
                &metrics,
            );
            assert_same(c, &engine, &cell);
            assert_eq!(c.check_engine(&metrics), Ok(()));
        }
    }
}

fn mixed(m: u64, lo: u64) -> Vec<Weight> {
    (0..m).map(|i| lo + (i * 37) % 61).collect()
}

#[test]
fn a2a_cost_model_matches_every_engine_cell() {
    referee_a2a(A2aAlgorithm::Auto, &mixed(24, 10), &planner(5, None));
}

#[test]
fn a2a_cost_model_matches_on_degenerate_inputs() {
    let config = planner(3, None);
    referee_a2a(A2aAlgorithm::Auto, &[], &config);
    referee_a2a(A2aAlgorithm::Auto, &[42], &config);
    referee_a2a(A2aAlgorithm::Auto, &[0, 0, 0], &config);
    referee_a2a(A2aAlgorithm::Auto, &[0, 7, 0, 12, 0, 3, 9, 0], &config);
}

#[test]
fn a2a_cost_model_matches_a_registry_solver() {
    // Pairing needs every input ≤ ⌊q/2⌋: start the sweep at twice the
    // largest weight.
    let weights = mixed(20, 5);
    let q_min = 2 * weights.iter().max().unwrap();
    let pairing = a2a_solver("pairing").expect("registered");
    referee_a2a(pairing, &weights, &planner(4, Some(q_min)));
}

#[test]
fn x2y_cost_model_matches_every_engine_cell() {
    referee_x2y(
        X2yAlgorithm::Auto,
        &mixed(14, 10),
        &mixed(9, 20),
        &planner(5, None),
    );
}

#[test]
fn x2y_cost_model_matches_on_degenerate_inputs() {
    let config = planner(3, None);
    referee_x2y(X2yAlgorithm::Auto, &[], &[], &config);
    referee_x2y(X2yAlgorithm::Auto, &[], &[5, 6], &config);
    referee_x2y(X2yAlgorithm::Auto, &[42], &[7], &config);
    referee_x2y(X2yAlgorithm::Auto, &[0, 4, 0], &[0, 0, 9], &config);
}

#[test]
fn x2y_cost_model_matches_a_registry_solver() {
    // The grid needs every input ≤ ⌊q/2⌋, as pairing does.
    let (x, y) = (mixed(12, 5), mixed(10, 8));
    let q_min = 2 * x.iter().chain(&y).max().unwrap();
    let grid = x2y_solver("grid").expect("registered");
    referee_x2y(grid, &x, &y, &planner(4, Some(q_min)));
}

/// A solver that returns one fixed schema at every capacity.
#[derive(Clone, Copy)]
struct Fixed(&'static [&'static [u32]]);

impl AssignmentSolver for Fixed {
    type Instance = InputSet;
    type Schema = MappingSchema;
    fn name(&self) -> &'static str {
        "fixed"
    }
    fn kind(&self) -> SolverKind {
        SolverKind::A2a
    }
    fn solve(&self, _: &InputSet, _: Weight) -> Result<MappingSchema, SchemaError> {
        Ok(MappingSchema::from_reducers(
            self.0.iter().map(|r| r.to_vec()).collect(),
        ))
    }
}

#[test]
fn a2a_cost_model_skips_empty_reducers_as_the_engine_does() {
    // Reducers 1 and 3 receive nothing: the engine runs no task for them.
    let schema = Fixed(&[&[0, 1], &[], &[0, 2], &[], &[1, 2]]);
    referee_a2a(schema, &[4, 9, 6], &planner(3, None));
}

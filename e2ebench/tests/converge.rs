//! The per-op convergence loop.

use lrgp::Engine;
use lrgp_e2ebench::harness::{converge, run_op, solve_bytes, FEASIBILITY_TOL};
use lrgp_e2ebench::spans::{name, NoTrace, Tracer};
use lrgp_e2ebench::workloads::{Op, Workload};
use lrgp_model::io::ProblemFile;
use lrgp_model::workloads::base_workload;
use lrgp_model::{NodeId, ProblemDelta};

fn converged_engine() -> Engine {
    let mut engine = Engine::new(base_workload(), Workload::TargetedChurn.config());
    assert!(engine.run_until_converged(500).converged_at.is_some());
    engine
}

fn capacity_change(engine: &Engine, factor: f64) -> ProblemDelta {
    let node = NodeId::new(0);
    ProblemDelta::new().set_node_capacity(node, engine.problem().node(node).capacity * factor)
}

#[test]
fn a_delta_needs_a_full_fresh_window() {
    let window = Workload::TargetedChurn.config().convergence.window;

    // The loop judges only utilities of its own steps, however close to
    // converged the engine already was before the delta.
    let mut engine = converged_engine();
    engine.apply_delta(&capacity_change(&engine, 0.999)).unwrap();
    let outcome = converge(&mut engine, &mut NoTrace, false, 500);
    assert!(outcome.ok);
    assert!(outcome.steps >= window, "{outcome:?}");
    assert!(engine.allocation().is_feasible(engine.problem(), FEASIBILITY_TOL));
}

#[test]
fn a_budget_below_the_window_fails() {
    let window = Workload::TargetedChurn.config().convergence.window;
    let mut engine = converged_engine();
    engine.apply_delta(&capacity_change(&engine, 0.9)).unwrap();
    let outcome = converge(&mut engine, &mut NoTrace, false, window - 1);
    assert!(!outcome.ok);
    assert_eq!(outcome.steps, window - 1);
}

#[test]
fn success_implies_a_feasible_allocation() {
    let mut engine = Engine::new(base_workload(), Workload::TargetedChurn.config());
    let mut tr = Tracer::new();
    let outcome = converge(&mut engine, &mut tr, true, 500);
    assert!(outcome.ok);
    assert!(engine.allocation().is_feasible(engine.problem(), FEASIBILITY_TOL));
    // Every feasibility check but the last one failed; the last passed,
    // and it ran only once the window was full.
    let feasible = tr.durations(name::FEASIBLE);
    assert!(!feasible.is_empty());
    assert_eq!(tr.durations(name::FIRST_STEP).len(), 1);
    assert_eq!(tr.durations(name::STEP).len(), outcome.steps - 1);
    assert_eq!(tr.changed.steps as usize, outcome.steps);
}

#[test]
fn traced_and_untraced_ops_agree_bit_for_bit() {
    let bytes = ProblemFile::new("base", base_workload()).to_json().unwrap();
    let w = Workload::TargetedChurn;
    let (mut plain, _) = solve_bytes(&bytes, w, &mut NoTrace).unwrap();
    let mut tr = Tracer::new();
    let (mut traced, _) = solve_bytes(&bytes, w, &mut tr).unwrap();
    let op = Op::Delta { delta: capacity_change(&plain, 0.9), structural: false };
    let a = run_op(&mut plain, &op, &bytes, w, &mut NoTrace);
    let b = run_op(&mut traced, &op, &bytes, w, &mut tr);
    assert_eq!(a, b);
    assert_eq!(plain.total_utility().to_bits(), traced.total_utility().to_bits());
    assert_eq!(tr.durations(name::DELTA_APPLY_TARGETED).len(), 1);
    assert_eq!(tr.durations(name::APPLY_DELTA_TARGETED).len(), 1);
}

//! The op schedules: every delta applies, restores restore, re-joins
//! reproduce the producer that left.

use lrgp_e2ebench::workloads::{schedule, Op, Producer, Workload, CONSUMER_NODES};
use lrgp_model::workloads::{mixed_loss_workload, RandomWorkload};
use lrgp_model::{DeltaOp, FlowId, Problem};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A small problem with the targeted workload's shape.
fn small_random() -> Problem {
    let workload = RandomWorkload {
        flows: 120,
        consumer_nodes: CONSUMER_NODES,
        classes_per_flow: 10,
        mixed_shapes: true,
        ..RandomWorkload::default()
    };
    workload.generate(&mut StdRng::seed_from_u64(5))
}

/// A small problem with the producer workload's shape.
fn small_lossy() -> Problem {
    mixed_loss_workload(40, 400.0, 5)
}

fn deltas(ops: &[Op]) -> impl Iterator<Item = &lrgp_model::ProblemDelta> {
    ops.iter().map(|op| match op {
        Op::Delta { delta, .. } => delta,
        Op::Solve => panic!("churn schedules hold deltas only"),
    })
}

fn apply_all(problem: &Problem, ops: &[Op]) -> Vec<Problem> {
    let mut states = vec![problem.clone()];
    for (i, delta) in deltas(ops).enumerate() {
        let next = delta
            .apply(states.last().unwrap())
            .unwrap_or_else(|e| panic!("op {i} ({delta:?}) does not apply: {e}"));
        states.push(next);
    }
    states
}

#[test]
fn every_generated_delta_applies() {
    for seed in [1, 2, 3] {
        let problem = small_random();
        apply_all(&problem, &schedule(Workload::TargetedChurn, &problem, seed, 300));
        let problem = small_lossy();
        apply_all(&problem, &schedule(Workload::ProducerChurn, &problem, seed, 300));
    }
}

#[test]
fn full_size_schedules_apply() {
    for w in [Workload::TargetedChurn, Workload::ProducerChurn] {
        let problem = w.generate(7);
        apply_all(&problem, &schedule(w, &problem, 7, 12));
    }
}

#[test]
fn schedules_are_deterministic_per_seed() {
    let problem = small_random();
    let a = schedule(Workload::TargetedChurn, &problem, 9, 50);
    assert_eq!(a, schedule(Workload::TargetedChurn, &problem, 9, 50));
    assert_ne!(a, schedule(Workload::TargetedChurn, &problem, 10, 50));
    // A longer schedule extends a shorter one, so warm-up prefixes agree.
    assert_eq!(a[..20], schedule(Workload::TargetedChurn, &problem, 9, 20)[..]);
}

#[test]
fn targeted_restore_ops_return_the_original_problem() {
    let problem = small_random();
    let ops = schedule(Workload::TargetedChurn, &problem, 4, 120);
    let states = apply_all(&problem, &ops);
    for (i, op) in ops.iter().enumerate() {
        let Op::Delta { structural, .. } = op else { unreachable!() };
        assert!(!structural, "op {i} of targeted_churn must be targeted");
        if i % 2 == 0 {
            assert_ne!(states[i + 1], problem, "change op {i} must change the problem");
        } else {
            assert_eq!(states[i + 1], problem, "restore op {i} must restore the original");
        }
    }
}

#[test]
fn producer_rejoins_reproduce_the_original_producer() {
    let problem = small_lossy();
    let ops = schedule(Workload::ProducerChurn, &problem, 6, 120);
    let states = apply_all(&problem, &ops);
    let mut rejoins = 0;
    for (i, delta) in deltas(&ops).enumerate() {
        let Some(DeltaOp::RemoveFlow { flow: left }) = delta.ops().first() else { continue };
        let before = &states[i];
        let original = Producer::capture(before, *left);
        // The next op re-joins it under the next free id.
        let after = &states[i + 2];
        let new_id = FlowId::new(before.num_flows() as u32);
        assert_eq!(after.num_flows(), before.num_flows() + 1);
        let rejoined = Producer::capture(after, new_id);
        assert_eq!(rejoined.flow, original.flow, "op {i}: flow spec");
        assert_eq!(rejoined.rho_bounds, original.rho_bounds, "op {i}: rho bounds");
        assert_eq!(rejoined.classes.len(), original.classes.len());
        for (got, want) in rejoined.classes.iter().zip(&original.classes) {
            assert_eq!(got.flow, new_id);
            let renamed = lrgp_model::ClassSpec { flow: new_id, ..want.clone() };
            assert_eq!(*got, renamed, "op {i}: class spec");
        }
        // The producer that left stays tombstoned.
        assert_eq!(after.flow(*left).bounds.max, 0.0);
        rejoins += 1;
    }
    assert_eq!(rejoins, 20);
    // Loss and capacity moves are restored: only the flow set grew.
    let last = states.last().unwrap();
    for link in problem.link_ids() {
        assert_eq!(last.link(link).capacity, problem.link(link).capacity);
        assert_eq!(last.link_loss(link), problem.link_loss(link));
    }
}

#[test]
fn cold_file_ops_are_solves() {
    let problem = small_random();
    assert_eq!(schedule(Workload::ColdFile, &problem, 1, 3), vec![Op::Solve; 3]);
}

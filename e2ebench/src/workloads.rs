//! The three workloads: their seeded problems, engine configurations and
//! op schedules. Everything here is generated before any timing starts.

use lrgp::{IncrementalMode, LrgpConfig, Reliability};
use lrgp_model::workloads::{mixed_loss_workload, RandomWorkload};
use lrgp_model::{
    ClassId, ClassSpec, FlowId, FlowSpec, LinkId, NodeId, Problem, ProblemDelta, RateBounds,
    RhoBounds,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Consumer nodes of the random workloads. `RandomWorkload::generate` adds
/// them first, so they hold node ids `0..CONSUMER_NODES`.
pub const CONSUMER_NODES: usize = 64;

/// Flows of `cold_file`'s problem.
pub const COLD_FILE_FLOWS: usize = 5_000;
/// Flows of `targeted_churn`'s problem (the `huge_10k` shape).
pub const TARGETED_FLOWS: usize = 10_000;
/// Bottleneck pairs (two flows each) of `producer_churn`'s problem.
pub const PRODUCER_PAIRS: usize = 4_000;
/// Link capacity of `producer_churn`'s bottleneck pairs.
pub const PRODUCER_LINK_CAPACITY: f64 = 400.0;

/// Salt separating the op-schedule stream from the problem stream.
const SCHEDULE_SALT: u64 = 0x5eed_0f0b_5c4e_d01e;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `lrgp solve FILE` minus process start and printing.
    ColdFile,
    /// Targeted deltas against a live 10k-flow engine.
    TargetedChurn,
    /// Producers leaving and re-joining a live lossy engine.
    ProducerChurn,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] =
        [Workload::ColdFile, Workload::TargetedChurn, Workload::ProducerChurn];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdFile => "cold_file",
            Workload::TargetedChurn => "targeted_churn",
            Workload::ProducerChurn => "producer_churn",
        }
    }

    /// Looks a workload up by its command-line name.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// `LrgpConfig::default()` with the `lrgp solve` incremental default,
    /// plus the joint reliability axis for `producer_churn`.
    pub fn config(self) -> LrgpConfig {
        let mut config = LrgpConfig { incremental: IncrementalMode::Auto, ..LrgpConfig::default() };
        if self == Workload::ProducerChurn {
            config.reliability = Reliability::Joint;
        }
        config
    }

    /// The seeded problem.
    pub fn generate(self, seed: u64) -> Problem {
        let random = |flows| {
            let workload = RandomWorkload {
                flows,
                consumer_nodes: CONSUMER_NODES,
                classes_per_flow: 10,
                mixed_shapes: true,
                ..RandomWorkload::default()
            };
            workload.generate(&mut StdRng::seed_from_u64(seed))
        };
        match self {
            Workload::ColdFile => random(COLD_FILE_FLOWS),
            Workload::TargetedChurn => random(TARGETED_FLOWS),
            Workload::ProducerChurn => {
                mixed_loss_workload(PRODUCER_PAIRS, PRODUCER_LINK_CAPACITY, seed)
            }
        }
    }

    /// Untimed ops issued before the timed loop.
    pub fn warmup_ops(self) -> usize {
        match self {
            Workload::ColdFile => 2,
            Workload::TargetedChurn => 60,
            Workload::ProducerChurn => 60,
        }
    }

    /// Timed ops per requested second. A constant, so every run issues the
    /// same ops whatever the host speed; calibrated so one op-second takes
    /// about a second of wall time on a 2-vCPU x86-64 host.
    pub fn ops_per_second(self) -> f64 {
        match self {
            Workload::ColdFile => 4.0,
            Workload::TargetedChurn => 85.0,
            Workload::ProducerChurn => 130.0,
        }
    }

    /// Timed ops per window of the best-window statistics: about one
    /// second of ops, a whole number of schedule periods (pairs of three
    /// targeted kinds; rounds of six producer ops), so every window issues
    /// every op kind equally often.
    pub fn window_ops(self) -> usize {
        match self {
            Workload::ColdFile => 4,
            Workload::TargetedChurn => 84,
            Workload::ProducerChurn => 132,
        }
    }

    /// Set-up repetitions of one run, half before the timed loop and half
    /// after it; `setup_s` is the fastest.
    pub fn setup_reps(self) -> usize {
        match self {
            Workload::ColdFile => 9,
            Workload::TargetedChurn => 7,
            Workload::ProducerChurn => 15,
        }
    }
}

/// One closed-loop op.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// Parse the file bytes, build an engine, converge, check, score.
    Solve,
    /// Apply a delta to the live engine and re-converge.
    Delta {
        /// The change.
        delta: ProblemDelta,
        /// Whether the delta changes the cost structure (so the engine
        /// rebuilds its term tables); otherwise it is a targeted delta.
        structural: bool,
    },
}

impl Op {
    fn delta(delta: ProblemDelta) -> Self {
        let structural = delta.changes_costs() || delta.grows_problem();
        Op::Delta { delta, structural }
    }
}

/// The first `count` ops of `workload`'s schedule over `problem`, seeded
/// by `seed`.
pub fn schedule(workload: Workload, problem: &Problem, seed: u64, count: usize) -> Vec<Op> {
    let mut rng = StdRng::seed_from_u64(seed ^ SCHEDULE_SALT);
    match workload {
        Workload::ColdFile => vec![Op::Solve; count],
        Workload::TargetedChurn => targeted_schedule(problem, &mut rng, count),
        Workload::ProducerChurn => producer_schedule(problem, &mut rng, count),
    }
}

/// Pairs of (change, restore): a node capacity, a class's maximum
/// population or a flow's rate bounds moves, and the next op puts the
/// original value back, so the problem never drifts.
fn targeted_schedule(problem: &Problem, rng: &mut StdRng, count: usize) -> Vec<Op> {
    let mut ops = Vec::with_capacity(count);
    let mut pair = 0usize;
    while ops.len() < count {
        let (change, restore) = match pair % 3 {
            0 => {
                let node = NodeId::new(rng.gen_range(0..CONSUMER_NODES) as u32);
                let original = problem.node(node).capacity;
                let moved = original * rng.gen_range(0.8..=1.2);
                (
                    ProblemDelta::new().set_node_capacity(node, moved),
                    ProblemDelta::new().set_node_capacity(node, original),
                )
            }
            1 => {
                let class = ClassId::new(rng.gen_range(0..problem.num_classes()) as u32);
                let original = problem.class(class).max_population;
                let moved = rng.gen_range(100..=2000);
                (
                    ProblemDelta::new().resize_class(class, moved),
                    ProblemDelta::new().resize_class(class, original),
                )
            }
            _ => {
                let flow = FlowId::new(rng.gen_range(0..problem.num_flows()) as u32);
                let original = problem.flow(flow).bounds;
                let max = original.max * rng.gen_range(0.3f64..=0.9);
                let moved = RateBounds { min: original.min, max: max.max(original.min) };
                (
                    ProblemDelta::new().set_rate_bounds(flow, moved),
                    ProblemDelta::new().set_rate_bounds(flow, original),
                )
            }
        };
        ops.push(Op::delta(change));
        ops.push(Op::delta(restore));
        pair += 1;
    }
    ops.truncate(count);
    ops
}

/// A producer as it first appeared: what a re-join must reproduce.
#[derive(Debug, Clone, PartialEq)]
pub struct Producer {
    /// The flow's specification.
    pub flow: FlowSpec,
    /// Its consumer classes.
    pub classes: Vec<ClassSpec>,
    /// Its reliability bounds.
    pub rho_bounds: RhoBounds,
}

impl Producer {
    /// Captures flow `flow` of `problem`.
    pub fn capture(problem: &Problem, flow: FlowId) -> Self {
        Self {
            flow: problem.flow(flow).clone(),
            classes: problem
                .classes_of_flow(flow)
                .iter()
                .map(|&c| problem.class(c).clone())
                .collect(),
            rho_bounds: problem.rho_bounds(flow).unwrap_or_default(),
        }
    }

    /// The re-join delta: append the flow with its classes, then restore its
    /// ρ bounds on the new id `new_id`.
    pub fn rejoin(&self, new_id: FlowId) -> ProblemDelta {
        ProblemDelta::new()
            .add_flow(self.flow.clone(), self.classes.clone())
            .set_rho_bounds(new_id, self.rho_bounds)
    }
}

/// Rounds of six ops: a producer leaves, it re-joins with its original
/// flow, classes and ρ bounds under a new id, one link's loss moves and
/// is restored, one link's capacity moves and is restored.
fn producer_schedule(problem: &Problem, rng: &mut StdRng, count: usize) -> Vec<Op> {
    let producers: Vec<Producer> =
        problem.flow_ids().map(|f| Producer::capture(problem, f)).collect();
    // live[i]: the flow id producer i currently runs under.
    let mut live: Vec<FlowId> = problem.flow_ids().collect();
    let mut next_id = problem.num_flows() as u32;
    let links = problem.num_links();
    let mut ops = Vec::with_capacity(count);
    while ops.len() < count {
        let i = rng.gen_range(0..live.len());
        ops.push(Op::delta(ProblemDelta::new().remove_flow(live[i])));
        let new_id = FlowId::new(next_id);
        ops.push(Op::delta(producers[i].rejoin(new_id)));
        live[i] = new_id;
        next_id += 1;

        let link = LinkId::new(rng.gen_range(0..links) as u32);
        let loss = problem.link_loss(link);
        let moved = rng.gen_range(0.0..0.3);
        ops.push(Op::delta(ProblemDelta::new().set_link_loss(link, moved)));
        ops.push(Op::delta(ProblemDelta::new().set_link_loss(link, loss)));

        let link = LinkId::new(rng.gen_range(0..links) as u32);
        let capacity = problem.link(link).capacity;
        let moved = capacity * rng.gen_range(0.7..=1.3);
        ops.push(Op::delta(ProblemDelta::new().set_link_capacity(link, moved)));
        ops.push(Op::delta(ProblemDelta::new().set_link_capacity(link, capacity)));
    }
    ops.truncate(count);
    ops
}

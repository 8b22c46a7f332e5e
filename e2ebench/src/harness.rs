//! The closed-loop client: set-up, ops, re-convergence and kernel sweeps.
//!
//! Every function here drives the library through its public API only;
//! the [`Spans`] parameter decides whether the calls are traced.

use crate::spans::{name, Spans};
use crate::workloads::{Op, Workload};
use lrgp::kernel::admission::allocate_consumers_into;
use lrgp::kernel::price::{update_link_price, update_node_price_with_rule};
use lrgp::kernel::rate::{solve_rate, AggregateUtility};
use lrgp::kernel::reliability::solve_flow_rho;
use lrgp::Engine;
use lrgp_model::io::ProblemFile;
use lrgp_model::{ClassId, NodeId, PriceTermTable, Problem};
use lrgp_num::series::TimeSeries;
use std::hint::black_box;
use std::time::Instant;

/// Absolute slack of the feasibility check every op must pass.
pub const FEASIBILITY_TOL: f64 = 1e-6;

/// Most `Engine::step` calls one op may take to re-converge.
pub const STEP_BUDGET: usize = 250;

/// How one op or one set-up ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Outcome {
    /// `Engine::step` calls made.
    pub steps: usize,
    /// Whether the op reached a converged, feasible allocation within the
    /// step budget (and every call it made succeeded).
    pub ok: bool,
}

/// Steps `engine` until the convergence criterion holds over a full window
/// of *this call's own* utilities and the allocation is feasible, or until
/// `budget` steps have run.
///
/// `Engine::run_until_converged` judges the engine's whole trace, whose
/// window still holds utilities from before a delta; this loop starts a
/// fresh series, so an op is never declared converged on stale samples.
/// `rebuilt` marks the first step as the one that pays a state rebuild
/// (after `Engine::new` or a cost-changing delta).
pub fn converge<T: Spans>(
    engine: &mut Engine,
    tr: &mut T,
    rebuilt: bool,
    budget: usize,
) -> Outcome {
    let criterion = engine.config().convergence;
    let mut series = TimeSeries::new("op");
    for k in 1..=budget {
        tr.before_step(engine);
        let step_name = if k == 1 && rebuilt { name::FIRST_STEP } else { name::STEP };
        let utility = tr.span(step_name, || engine.step());
        tr.after_step(engine);
        series.push(utility);
        if series.len() >= criterion.window && criterion.is_met(&series) {
            let allocation = engine.allocation();
            let problem = engine.problem();
            if tr.span(name::FEASIBLE, || allocation.is_feasible(problem, FEASIBILITY_TOL)) {
                return Outcome { steps: k, ok: true };
            }
        }
    }
    Outcome { steps: budget, ok: false }
}

/// What `lrgp solve FILE` does between reading the file and printing:
/// parse, build the engine, converge and check.
///
/// # Errors
///
/// The parse error, as text.
pub fn solve_bytes<T: Spans>(
    bytes: &str,
    workload: Workload,
    tr: &mut T,
) -> Result<(Engine, Outcome), String> {
    let file = tr.span(name::PARSE, || ProblemFile::from_json(bytes)).map_err(|e| e.to_string())?;
    if tr.enabled() {
        tr.probe(name::TERMS_BUILD, || black_box(PriceTermTable::new(&file.problem)));
    }
    let config = workload.config();
    let mut engine = tr.span(name::ENGINE_NEW, || Engine::new(file.problem, config));
    let outcome = converge(&mut engine, tr, true, STEP_BUDGET);
    Ok((engine, outcome))
}

/// Issues one op against `engine` (replaced wholesale by a `Solve` op).
pub fn run_op<T: Spans>(
    engine: &mut Engine,
    op: &Op,
    bytes: &str,
    workload: Workload,
    tr: &mut T,
) -> Outcome {
    match op {
        Op::Solve => match solve_bytes(bytes, workload, tr) {
            Ok((solved, outcome)) => {
                *engine = solved;
                let utility = tr.span(name::UTILITY, || engine.total_utility());
                Outcome { ok: outcome.ok && utility.is_finite(), ..outcome }
            }
            Err(_) => Outcome { steps: 0, ok: false },
        },
        Op::Delta { delta, structural } => {
            if tr.enabled() {
                let apply_name = if *structural {
                    name::DELTA_APPLY_STRUCTURAL
                } else {
                    name::DELTA_APPLY_TARGETED
                };
                let problem = engine.problem();
                tr.probe(apply_name, || black_box(delta.apply(problem).is_ok()));
            }
            let apply_name =
                if *structural { name::APPLY_DELTA_STRUCTURAL } else { name::APPLY_DELTA_TARGETED };
            if tr.span(apply_name, || engine.apply_delta(delta)).is_err() {
                return Outcome { steps: 0, ok: false };
            }
            let rebuilt = delta.changes_costs();
            if rebuilt && tr.enabled() {
                let problem = engine.problem();
                tr.probe(name::TERMS_BUILD, || black_box(PriceTermTable::new(problem)));
            }
            converge(engine, tr, rebuilt, STEP_BUDGET)
        }
    }
}

/// Per-op results of a sequence of ops.
#[derive(Debug, Clone, Default)]
pub struct OpsResult {
    /// Wall latency of each op, in ns, measured around the op.
    pub latencies_ns: Vec<f64>,
    /// `Engine::step` calls of each op.
    pub steps: Vec<usize>,
    /// Ops that did not end converged and feasible.
    pub failed: usize,
    /// Wall seconds of the whole loop.
    pub wall_s: f64,
}

/// Issues `ops` back to back: the next op only after the previous returns.
/// `first_id` numbers the ops for the spans.
pub fn run_ops<T: Spans>(
    engine: &mut Engine,
    ops: &[Op],
    first_id: usize,
    bytes: &str,
    workload: Workload,
    tr: &mut T,
) -> OpsResult {
    let mut result = OpsResult {
        latencies_ns: Vec::with_capacity(ops.len()),
        steps: Vec::with_capacity(ops.len()),
        ..OpsResult::default()
    };
    let loop_start = Instant::now();
    for (i, op) in ops.iter().enumerate() {
        tr.set_op(Some((first_id + i) as u32));
        tr.enter(name::OP, false);
        let start = Instant::now();
        let outcome = run_op(engine, op, bytes, workload, tr);
        let elapsed = start.elapsed();
        tr.exit();
        result.latencies_ns.push(elapsed.as_nanos() as f64);
        result.steps.push(outcome.steps);
        result.failed += usize::from(!outcome.ok);
    }
    tr.set_op(None);
    result.wall_s = loop_start.elapsed().as_secs_f64();
    result
}

/// Nanoseconds per element of one full sweep of each kernel over the
/// engine's current (converged) state, through the executor's strict-path
/// entry points. A problem with no element for a kernel (no links, no
/// reliability spec) reports the cost of the empty sweep.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct KernelCosts {
    /// `AggregateUtility::refill_for_flow` + `aggregate_price_from_table` +
    /// `solve_rate`, per flow.
    pub rate_ns_per_flow: f64,
    /// `allocate_consumers_into`, per class.
    pub admission_ns_per_class: f64,
    /// `update_node_price_with_rule`, per node.
    pub node_price_ns_per_node: f64,
    /// `update_link_price`, per link.
    pub link_price_ns_per_link: f64,
    /// `solve_flow_rho`, per flow.
    pub rho_ns_per_flow: f64,
}

/// Median over `reps` timed runs of `sweep`, in ns per element.
/// With no elements it reports the whole (empty) sweep, so a kernel the
/// workload never reaches still reads a measured, non-zero time.
fn time_sweep(reps: usize, elements: usize, mut sweep: impl FnMut() -> f64) -> f64 {
    let elements = elements.max(1);
    black_box(sweep());
    let mut samples: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            black_box(sweep());
            start.elapsed().as_nanos() as f64 / elements as f64
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Times a full sweep of each kernel over `engine`'s current state.
pub fn kernel_sweeps(engine: &Engine, reps: usize) -> KernelCosts {
    let problem: &Problem = engine.problem();
    let config = engine.config();
    let table = PriceTermTable::new(problem);
    let allocation = engine.allocation();
    let rates = allocation.rates();
    let populations = allocation.populations();
    let prices = engine.prices();

    let mut aggregate = AggregateUtility::default();
    let rate_ns_per_flow = time_sweep(reps, problem.num_flows(), || {
        let mut acc = 0.0;
        for flow in problem.flow_ids() {
            aggregate.refill_for_flow(problem, flow, populations);
            let price = prices.aggregate_price_from_table(&table, flow, populations);
            acc += solve_rate(&aggregate, price, problem.flow(flow).bounds, rates[flow.index()]);
        }
        acc
    });

    let mut orders: Vec<Vec<(ClassId, f64)>> = problem
        .node_ids()
        .map(|node| problem.classes_at_node(node).iter().map(|&c| (c, 0.0)).collect())
        .collect();
    let mut admitted = Vec::new();
    let mut admission = vec![(0.0, 0.0); problem.num_nodes()];
    let admission_ns_per_class = time_sweep(reps, problem.num_classes(), || {
        let mut acc = 0.0;
        for (node, order) in problem.node_ids().zip(orders.iter_mut()) {
            let (used, bc) = allocate_consumers_into(
                problem,
                node,
                rates,
                config.population_mode,
                config.admission_policy,
                order,
                &mut admitted,
            );
            admission[node.index()] = (used, bc);
            acc += used;
        }
        acc
    });

    let node_price_ns_per_node = time_sweep(reps, problem.num_nodes(), || {
        let mut acc = 0.0;
        for (b, &(used, bc)) in admission.iter().enumerate() {
            let node = NodeId::new(b as u32);
            let gamma = engine.node_gamma(node);
            acc += update_node_price_with_rule(
                config.node_price_rule,
                prices.node(node),
                bc,
                used,
                problem.node(node).capacity,
                gamma,
                gamma,
            );
        }
        acc
    });

    // Link usage from the table's cost columns (rate terms only): the
    // kernel's cost does not depend on the usage value it is handed.
    let usage: Vec<f64> = problem
        .link_ids()
        .map(|link| {
            table.link_usage_terms(link).iter().map(|&(f, cost)| cost * rates[f as usize]).sum()
        })
        .collect();
    let link_price_ns_per_link = time_sweep(reps, problem.num_links(), || {
        let mut acc = 0.0;
        for (link, &u) in problem.link_ids().zip(&usage) {
            acc += update_link_price(
                prices.link(link),
                u,
                problem.link(link).capacity,
                config.link_gamma,
            );
        }
        acc
    });

    let rho_ns_per_flow = match problem.reliability() {
        Some(spec) => {
            let rhos = engine.rhos();
            time_sweep(reps, problem.num_flows(), || {
                let mut acc = 0.0;
                for flow in problem.flow_ids() {
                    acc += solve_flow_rho(
                        &table,
                        flow,
                        prices.link_prices(),
                        populations,
                        rates[flow.index()],
                        spec.rho_bounds[flow.index()],
                        spec.redundancy,
                        rhos[flow.index()],
                    );
                }
                acc
            })
        }
        None => time_sweep(reps, 0, || 0.0),
    };

    KernelCosts {
        rate_ns_per_flow,
        admission_ns_per_class,
        node_price_ns_per_node,
        link_price_ns_per_link,
        rho_ns_per_flow,
    }
}

/// `VmHWM` of this process in MiB, from `/proc/self/status`.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

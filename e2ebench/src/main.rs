//! Worker process of the benchmark: runs one workload once and prints one
//! JSON line. `run.py` in this directory builds it, runs it (plus the
//! determinism checks and host probes) and prints the benchmark result.
//!
//! ```text
//! lrgp-e2ebench --workload NAME --seed N --seconds S --trace 0|1
//!               [--spans-out FILE] [--latencies-out FILE]
//! lrgp-e2ebench --workload NAME --seed N --check
//! lrgp-e2ebench --probe
//! ```

use lrgp::Engine;
use lrgp_e2ebench::harness::{self, solve_bytes};
use lrgp_e2ebench::probe;
use lrgp_e2ebench::report::Report;
use lrgp_e2ebench::spans::{name, NoTrace, Spans, Tracer};
use lrgp_e2ebench::stats::{best_window, median, tail, TAIL_BEYOND};
use lrgp_e2ebench::workloads::{schedule, Op, Workload};
use lrgp_model::io::ProblemFile;
use lrgp_model::{FlowId, ProblemDelta};
use std::hint::black_box;
use std::io::Write;
use std::process::ExitCode;
use std::time::Instant;

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    check: bool,
    spans_out: Option<String>,
    latencies_out: Option<String>,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Option<Args>, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut check = false;
    let mut spans_out = None;
    let mut latencies_out = None;
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} requires a value"));
        match flag.as_str() {
            "--probe" => return Ok(None),
            "--workload" => {
                let v = value()?;
                workload =
                    Some(Workload::from_name(&v).ok_or_else(|| format!("unknown workload {v}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace expects 0 or 1, got {other}")),
                }
            }
            "--check" => check = true,
            "--spans-out" => spans_out = Some(value()?),
            "--latencies-out" => latencies_out = Some(value()?),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Some(Args { workload, seed, seconds, trace, check, spans_out, latencies_out }))
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(Some(args)) => args,
        Ok(None) => {
            println!(
                "{{\"available_parallelism\": {}, \"alu_ms\": {:?}, \"memory_ms\": {:?}}}",
                probe::parallelism(),
                probe::alu_ms(),
                probe::memory_ms()
            );
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("lrgp-e2ebench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(report) => {
            println!("{}", report.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("lrgp-e2ebench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The workload's inputs, generated before any timing.
struct Inputs {
    bytes: String,
    ops: Vec<Op>,
    warmup: usize,
}

fn inputs(args: &Args, report: &mut Report) -> Result<Inputs, String> {
    let w = args.workload;
    let problem = w.generate(args.seed);
    let file = ProblemFile::new(format!("{} seed {}", w.name(), args.seed), problem);
    let bytes = file.to_json().map_err(|e| e.to_string())?;
    let round_trip = ProblemFile::from_json(&bytes).map_err(|e| e.to_string())?;
    if round_trip.problem != file.problem {
        report.note("failed_check", "JSON round trip differs from the generated problem");
        report.correct = false;
    }
    let warmup = w.warmup_ops();
    let timed = if args.check {
        0
    } else {
        let full = (w.ops_per_second() * args.seconds).round().max(1.0) as usize;
        // The traced mode issues every timed op twice, untraced and traced,
        // and a traced op costs about twice an untraced one: a quarter of
        // the ops keeps the run about as long as an untraced one.
        if args.trace {
            full.div_ceil(4)
        } else {
            full
        }
    };
    let ops = schedule(w, &file.problem, args.seed, warmup + timed);
    Ok(Inputs { bytes, ops, warmup })
}

/// Set-up: bytes in memory to a live engine holding a converged, feasible
/// allocation. Returns the engine and the set-up's wall seconds.
fn setup<T: Spans>(
    inputs: &Inputs,
    w: Workload,
    tr: &mut T,
    report: &mut Report,
) -> Result<(Engine, f64), String> {
    let start = Instant::now();
    let (engine, outcome) = solve_bytes(&inputs.bytes, w, tr)?;
    let secs = start.elapsed().as_secs_f64();
    if !outcome.ok {
        report.note("failed_check", "set-up did not reach a converged, feasible allocation");
        report.correct = false;
    }
    Ok((engine, secs))
}

/// Warm-up ops, then the checkpoint that `--check` runs reproduce.
fn warm_up(engine: &mut Engine, inputs: &Inputs, w: Workload, report: &mut Report) {
    let warm =
        harness::run_ops(engine, &inputs.ops[..inputs.warmup], 0, &inputs.bytes, w, &mut NoTrace);
    report.attempted += inputs.warmup;
    report.failed += warm.failed;
    report.checkpoint_utility_bits = engine.total_utility().to_bits();
    report.checkpoint_steps = warm.steps.iter().sum();
}

fn run(args: &Args) -> Result<Report, String> {
    let w = args.workload;
    let mut report = Report { correct: true, ..Report::default() };
    let inputs = inputs(args, &mut report)?;
    report.note("workload", w.name());
    report.note("seed", args.seed);
    report.note("io_bytes", inputs.bytes.len());
    report.note("warmup_ops", inputs.warmup);
    report.note("timed_ops", inputs.ops.len() - inputs.warmup);
    if args.check {
        let (mut engine, _) = setup(&inputs, w, &mut NoTrace, &mut report)?;
        warm_up(&mut engine, &inputs, w, &mut report);
        check_utility(engine.total_utility(), &mut report);
    } else if args.trace {
        traced_run(args, &inputs, &mut report)?;
    } else {
        untraced_run(args, &inputs, &mut report)?;
    }
    Ok(report)
}

fn check_utility(utility: f64, report: &mut Report) {
    if !utility.is_finite() {
        report.note("failed_check", "utility is not finite");
        report.correct = false;
    }
}

fn untraced_run(args: &Args, inputs: &Inputs, report: &mut Report) -> Result<(), String> {
    let w = args.workload;
    let reps = w.setup_reps();
    let mut setups = Vec::new();
    let mut engine = None;
    for _ in 0..reps.div_ceil(2) {
        // Free the previous engine first, so set-ups do not stack memory.
        drop(engine.take());
        let (e, secs) = setup(inputs, w, &mut NoTrace, report)?;
        setups.push(secs);
        engine = Some(e);
    }
    let mut engine = engine.ok_or("no set-up ran")?;
    warm_up(&mut engine, inputs, w, report);
    let ops = &inputs.ops[inputs.warmup..];
    let result = harness::run_ops(&mut engine, ops, inputs.warmup, &inputs.bytes, w, &mut NoTrace);
    report.attempted += ops.len();
    report.failed += result.failed;
    let utility = engine.total_utility();
    check_utility(utility, report);
    drop(engine);
    // The other half of the set-ups runs after the timed loop, so the
    // set-ups sample the host at both ends of the run.
    for _ in 0..reps / 2 {
        setups.push(setup(inputs, w, &mut NoTrace, report)?.1);
    }

    let ms: Vec<f64> = result.latencies_ns.iter().map(|ns| ns / 1e6).collect();
    let op_tail = tail(&ms, TAIL_BEYOND).ok_or("too few timed ops for the tail statistic")?;
    let best = best_window(&ms, w.window_ops()).ok_or("too few timed ops for one window")?;
    let steps: usize = result.steps.iter().sum();
    report.metric("setup_s", setups.iter().copied().fold(f64::INFINITY, f64::min), "s");
    report.metric("op_p50_ms", best.median, "ms");
    report.metric("op_tail_ms", op_tail.value, "ms");
    report.metric("ops_per_s", best.throughput * 1e3, "1/s");
    report.metric("steps_per_op", steps as f64 / ms.len() as f64, "count");
    report.metric("utility", utility, "utility");
    report.metric("peak_rss_mb", harness::peak_rss_mb().unwrap_or(0.0), "MiB");
    report.note("op_tail_percentile", op_tail.percentile);
    report.note("op_tail_samples", op_tail.samples);
    report.note("op_tail_beyond", op_tail.beyond);
    report.note("window_ops", w.window_ops());
    report.note("windows", best.windows);
    report.note("run_op_p50_ms", median(&ms));
    report.note("run_ops_per_s", ms.len() as f64 / result.wall_s);
    report.note("setup_median_s", median(&setups));
    report.note("setup_samples_s", format!("{setups:?}"));
    report.note("fail_frac", report.failed as f64 / report.attempted as f64);
    report.note("utility_bits", format!("{:016x}", utility.to_bits()));
    if let Some(path) = &args.latencies_out {
        let lines: String = ms.iter().map(|v| format!("{v:?}\n")).collect();
        std::fs::write(path, lines).map_err(|e| format!("{path}: {e}"))?;
    }
    Ok(())
}

fn traced_run(args: &Args, inputs: &Inputs, report: &mut Report) -> Result<(), String> {
    let w = args.workload;
    // Two engines from the same bytes and warm-up: one untraced, the
    // reference for the tracing overhead, and one traced. Their timed ops
    // alternate, so host drift hits both passes alike.
    let (mut plain, _) = setup(inputs, w, &mut NoTrace, report)?;
    warm_up(&mut plain, inputs, w, report);
    let checkpoint = (report.checkpoint_utility_bits, report.checkpoint_steps);
    let mut tr = Tracer::new();
    let (mut engine, _) = setup(inputs, w, &mut tr, report)?;
    warm_up(&mut engine, inputs, w, report);
    if checkpoint != (report.checkpoint_utility_bits, report.checkpoint_steps) {
        report.note("failed_check", "the two passes disagree at the end of the warm-up");
        report.correct = false;
    }
    let mut plain_ms = Vec::new();
    let mut diverged = false;
    for (i, op) in inputs.ops.iter().enumerate().skip(inputs.warmup) {
        let one = std::slice::from_ref(op);
        let a = harness::run_ops(&mut plain, one, i, &inputs.bytes, w, &mut NoTrace);
        let b = harness::run_ops(&mut engine, one, i, &inputs.bytes, w, &mut tr);
        plain_ms.extend(a.latencies_ns);
        diverged |= a.steps != b.steps;
        report.attempted += 2;
        report.failed += a.failed + b.failed;
    }
    let utility = tr.probe(name::UTILITY, || engine.total_utility());
    check_utility(utility, report);
    if diverged || utility.to_bits() != plain.total_utility().to_bits() {
        report.note("failed_check", "traced and untraced passes diverged");
        report.correct = false;
    }
    drop(plain);
    let kernels = harness::kernel_sweeps(&engine, 7);
    if tr.durations(name::APPLY_DELTA_STRUCTURAL).is_empty() {
        time_structural_delta(&engine, &mut tr)?;
    }

    let ms = |name: &str| median(&tr.durations(name)) / 1e6;
    let steps = tr.durations(name::STEP);
    let step_tail = tail(&steps, TAIL_BEYOND).map_or(0.0, |t| t.value);
    let traced_ops = tr.op_latencies_ns();
    let per_step = |count: u64| count as f64 / tr.changed.steps.max(1) as f64;
    let c = tr.changed;

    report.metric("io.parse_ms", ms(name::PARSE), "ms");
    report.metric("io.bytes", inputs.bytes.len() as f64, "B");
    report.metric("terms.build_ms", ms(name::TERMS_BUILD), "ms");
    report.metric("engine.new_ms", ms(name::ENGINE_NEW), "ms");
    report.metric("delta.apply_targeted_ms", ms(name::DELTA_APPLY_TARGETED), "ms");
    report.metric("delta.apply_structural_ms", ms(name::DELTA_APPLY_STRUCTURAL), "ms");
    report.metric("engine.apply_delta_targeted_ms", ms(name::APPLY_DELTA_TARGETED), "ms");
    report.metric("engine.apply_delta_structural_ms", ms(name::APPLY_DELTA_STRUCTURAL), "ms");
    report.metric("engine.first_step_ms", ms(name::FIRST_STEP), "ms");
    report.metric("engine.step_p50_us", median(&steps) / 1e3, "us");
    report.metric("engine.step_tail_us", step_tail / 1e3, "us");
    report.metric("exec.rates_changed_per_step", per_step(c.rates), "count");
    report.metric("exec.populations_changed_per_step", per_step(c.populations), "count");
    report.metric("exec.node_prices_changed_per_step", per_step(c.node_prices), "count");
    report.metric("exec.link_prices_changed_per_step", per_step(c.link_prices), "count");
    report.metric("exec.rhos_changed_per_step", per_step(c.rhos), "count");
    report.metric("kernel.rate_ns_per_flow", kernels.rate_ns_per_flow, "ns");
    report.metric("kernel.admission_ns_per_class", kernels.admission_ns_per_class, "ns");
    report.metric("kernel.node_price_ns_per_node", kernels.node_price_ns_per_node, "ns");
    report.metric("kernel.link_price_ns_per_link", kernels.link_price_ns_per_link, "ns");
    report.metric("kernel.rho_ns_per_flow", kernels.rho_ns_per_flow, "ns");
    report.metric("allocation.feasible_ms", ms(name::FEASIBLE), "ms");
    report.metric("allocation.utility_ms", ms(name::UTILITY), "ms");
    report.metric("trace.overhead_frac", median(&traced_ops) / median(&plain_ms) - 1.0, "frac");
    report.note("traced_spans", tr.spans().len());
    report.note("problem_flows", engine.problem().num_flows());
    report.note("problem_classes", engine.problem().num_classes());
    if let Some(path) = &args.spans_out {
        let mut file = std::io::BufWriter::new(
            std::fs::File::create(path).map_err(|e| format!("{path}: {e}"))?,
        );
        tr.write_tsv(&mut file).and_then(|()| file.flush()).map_err(|e| format!("{path}: {e}"))?;
    }
    Ok(())
}

/// For a schedule without structural ops: times `ProblemDelta::apply` and
/// `Engine::apply_delta` of a producer leaving (`remove_flow`) on copies
/// of the final engine, so the structural delta rows still read the
/// layer's cost on this problem.
fn time_structural_delta(engine: &Engine, tr: &mut Tracer) -> Result<(), String> {
    let delta = ProblemDelta::new().remove_flow(FlowId::new(0));
    for _ in 0..3 {
        let mut copy = engine.clone();
        let problem = copy.problem();
        tr.probe(name::DELTA_APPLY_STRUCTURAL, || black_box(delta.apply(problem).is_ok()));
        tr.span(name::APPLY_DELTA_STRUCTURAL, || copy.apply_delta(&delta))
            .map_err(|e| format!("structural delta probe: {e}"))?;
    }
    Ok(())
}

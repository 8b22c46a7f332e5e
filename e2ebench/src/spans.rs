//! In-memory span recording for the traced pass.
//!
//! The harness is generic over [`Spans`]: the untraced pass runs with
//! [`NoTrace`], whose methods compile to nothing, and the traced pass runs
//! with [`Tracer`], which records one [`Span`] per wrapped public call.
//! Spans marked as *probes* are measurement-only calls the untraced pass
//! never makes (snapshots, a second `ProblemDelta::apply`, a term-table
//! build); their time is subtracted from the op latency of the traced
//! pass so that traced and untraced op latencies compare like with like.

use lrgp::Engine;
use std::io::{self, Write};
use std::time::Instant;

/// Span names, one per measured public call.
pub mod name {
    /// One closed-loop op.
    pub const OP: &str = "op";
    /// `ProblemFile::from_json`.
    pub const PARSE: &str = "io.parse";
    /// `PriceTermTable::new` (probe).
    pub const TERMS_BUILD: &str = "terms.build";
    /// `Engine::new`.
    pub const ENGINE_NEW: &str = "engine.new";
    /// `ProblemDelta::apply` of a targeted delta (probe).
    pub const DELTA_APPLY_TARGETED: &str = "delta.apply_targeted";
    /// `ProblemDelta::apply` of a structural delta (probe).
    pub const DELTA_APPLY_STRUCTURAL: &str = "delta.apply_structural";
    /// `Engine::apply_delta` of a targeted delta.
    pub const APPLY_DELTA_TARGETED: &str = "engine.apply_delta_targeted";
    /// `Engine::apply_delta` of a structural delta.
    pub const APPLY_DELTA_STRUCTURAL: &str = "engine.apply_delta_structural";
    /// The first `Engine::step` after `Engine::new` or a cost-changing delta.
    pub const FIRST_STEP: &str = "engine.first_step";
    /// Every later `Engine::step`.
    pub const STEP: &str = "engine.step";
    /// `Allocation::is_feasible`.
    pub const FEASIBLE: &str = "allocation.feasible";
    /// `Engine::total_utility`.
    pub const UTILITY: &str = "allocation.utility";
    /// Before/after step snapshots for the changed-entry counters (probe).
    pub const SNAPSHOT: &str = "exec.snapshot";
}

/// Bit-changed entries between the snapshots around each step, summed
/// over all steps of a pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Changed {
    /// Steps observed.
    pub steps: u64,
    /// Flow rates whose bits changed.
    pub rates: u64,
    /// Class populations whose bits changed.
    pub populations: u64,
    /// Node prices whose bits changed.
    pub node_prices: u64,
    /// Link prices whose bits changed.
    pub link_prices: u64,
    /// Per-flow ρ whose bits changed.
    pub rhos: u64,
}

/// Instrumentation hooks the harness calls around public API calls.
pub trait Spans {
    /// Opens a span named `name`; `probe` marks measurement-only work.
    fn enter(&mut self, name: &'static str, probe: bool);
    /// Closes the innermost open span.
    fn exit(&mut self);
    /// `true` when probes and snapshots should run at all.
    fn enabled(&self) -> bool;
    /// Called just before each `Engine::step`.
    fn before_step(&mut self, engine: &Engine);
    /// Called just after each `Engine::step`.
    fn after_step(&mut self, engine: &Engine);
    /// Stamps spans opened from now on with op id `op`.
    fn set_op(&mut self, op: Option<u32>);

    /// Runs `f` inside a span named `name`.
    #[inline(always)]
    fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.enter(name, false);
        let out = f();
        self.exit();
        out
    }

    /// Runs `f` inside a probe span: measured, but not part of the op.
    #[inline(always)]
    fn probe<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.enter(name, true);
        let out = f();
        self.exit();
        out
    }
}

/// The untraced pass: every hook is a no-op.
#[derive(Debug, Default)]
pub struct NoTrace;

impl Spans for NoTrace {
    #[inline(always)]
    fn enter(&mut self, _: &'static str, _: bool) {}
    #[inline(always)]
    fn exit(&mut self) {}
    #[inline(always)]
    fn enabled(&self) -> bool {
        false
    }
    #[inline(always)]
    fn before_step(&mut self, _: &Engine) {}
    #[inline(always)]
    fn after_step(&mut self, _: &Engine) {}
    #[inline(always)]
    fn set_op(&mut self, _: Option<u32>) {}
}

/// One recorded span. Times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// What was timed.
    pub name: &'static str,
    /// Start, ns since the tracer's origin.
    pub start_ns: u64,
    /// End, ns since the tracer's origin.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The op the span belongs to (`None` during set-up).
    pub op: Option<u32>,
    /// Whether the span is a measurement-only probe.
    pub probe: bool,
}

impl Span {
    /// Wall duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Debug, Clone)]
struct Snapshot {
    rates: Vec<f64>,
    populations: Vec<f64>,
    node_prices: Vec<f64>,
    link_prices: Vec<f64>,
    rhos: Vec<f64>,
}

impl Snapshot {
    fn of(engine: &Engine) -> Self {
        let allocation = engine.allocation();
        Self {
            rates: allocation.rates().to_vec(),
            populations: allocation.populations().to_vec(),
            node_prices: engine.prices().node_prices().to_vec(),
            link_prices: engine.prices().link_prices().to_vec(),
            rhos: engine.rhos().to_vec(),
        }
    }
}

/// Number of entries whose bits differ; entries present on one side only
/// (the problem grew) count as changed.
pub fn bit_changes(before: &[f64], after: &[f64]) -> u64 {
    let common = before.iter().zip(after).filter(|(a, b)| a.to_bits() != b.to_bits()).count();
    (common + before.len().abs_diff(after.len())) as u64
}

/// The traced pass: records spans in memory.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: Option<u32>,
    snapshot: Option<Snapshot>,
    /// Changed-entry counters accumulated over every observed step.
    pub changed: Changed,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: None,
            snapshot: None,
            changed: Changed::default(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ns) of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.duration_ns() as f64).collect()
    }

    /// Self time of every span: its duration minus its direct children's.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::duration_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.duration_ns());
            }
        }
        own
    }

    /// Op latency as the untraced pass would see it: each op span's
    /// duration minus the probe spans nested anywhere inside it, in op
    /// order.
    pub fn op_latencies_ns(&self) -> Vec<f64> {
        let mut out = Vec::new();
        for (idx, span) in self.spans.iter().enumerate() {
            if span.name != name::OP {
                continue;
            }
            let probes: u64 = self.spans[idx + 1..]
                .iter()
                .take_while(|s| s.start_ns < span.end_ns)
                .filter(|s| s.probe && s.parent.is_some_and(|p| !self.spans[p].probe))
                .map(Span::duration_ns)
                .sum();
            out.push(span.duration_ns().saturating_sub(probes) as f64);
        }
        out
    }

    /// Writes every span as one tab-separated line: name, start ns, end
    /// ns, parent index (or -1), op id (or -1), probe flag, self ns.
    pub fn write_tsv(&self, out: &mut impl Write) -> io::Result<()> {
        writeln!(out, "idx\tname\tstart_ns\tend_ns\tparent\top\tprobe\tself_ns")?;
        let opt = |v: Option<usize>| v.map_or(-1, |v| v as i64);
        let own = self.self_ns();
        for (idx, s) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{idx}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
                s.name,
                s.start_ns,
                s.end_ns,
                opt(s.parent),
                opt(s.op.map(|o| o as usize)),
                u8::from(s.probe),
                own[idx],
            )?;
        }
        Ok(())
    }
}

impl Spans for Tracer {
    fn enter(&mut self, name: &'static str, probe: bool) {
        let idx = self.spans.len();
        let parent = self.stack.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, op: self.op, probe });
        self.stack.push(idx);
    }

    fn exit(&mut self) {
        if let Some(idx) = self.stack.pop() {
            self.spans[idx].end_ns = self.now_ns();
        }
    }

    fn set_op(&mut self, op: Option<u32>) {
        self.op = op;
    }

    fn enabled(&self) -> bool {
        true
    }

    fn before_step(&mut self, engine: &Engine) {
        let snap = self.probe(name::SNAPSHOT, || Snapshot::of(engine));
        self.snapshot = Some(snap);
    }

    fn after_step(&mut self, engine: &Engine) {
        let Some(before) = self.snapshot.take() else { return };
        let changed = self.probe(name::SNAPSHOT, || {
            let after = Snapshot::of(engine);
            Changed {
                steps: 1,
                rates: bit_changes(&before.rates, &after.rates),
                populations: bit_changes(&before.populations, &after.populations),
                node_prices: bit_changes(&before.node_prices, &after.node_prices),
                link_prices: bit_changes(&before.link_prices, &after.link_prices),
                rhos: bit_changes(&before.rhos, &after.rhos),
            }
        });
        let c = &mut self.changed;
        c.steps += changed.steps;
        c.rates += changed.rates;
        c.populations += changed.populations;
        c.node_prices += changed.node_prices;
        c.link_prices += changed.link_prices;
        c.rhos += changed.rhos;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_ops_subtract_probes() {
        let mut t = Tracer::new();
        t.set_op(Some(0));
        t.enter(name::OP, false);
        t.span(name::STEP, || std::thread::sleep(std::time::Duration::from_millis(2)));
        t.probe(name::SNAPSHOT, || std::thread::sleep(std::time::Duration::from_millis(5)));
        t.exit();
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.op == Some(0)));
        let own = t.self_ns()[0];
        assert_eq!(own, spans[0].duration_ns() - spans[1].duration_ns() - spans[2].duration_ns());
        let op = t.op_latencies_ns();
        assert_eq!(op.len(), 1);
        assert_eq!(op[0] as u64, spans[0].duration_ns() - spans[2].duration_ns());
        assert!(op[0] < 5e6, "the probe's 5 ms must not count toward the op");
    }

    #[test]
    fn bit_changes_count_differing_and_grown_entries() {
        assert_eq!(bit_changes(&[1.0, 2.0], &[1.0, 2.5]), 1);
        assert_eq!(bit_changes(&[0.0], &[-0.0]), 1);
        assert_eq!(bit_changes(&[1.0], &[1.0, 3.0, 4.0]), 2);
    }
}

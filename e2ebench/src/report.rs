//! The worker's one-line JSON result.

use std::fmt::Write as _;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// The result of one worker process.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Report {
    /// Every correctness check of the process held.
    pub correct: bool,
    /// Ops issued (warm-up and timed).
    pub attempted: usize,
    /// Ops that errored or did not reach a converged, feasible allocation.
    pub failed: usize,
    /// Bits of the total utility at the end of the warm-up.
    pub checkpoint_utility_bits: u64,
    /// `Engine::step` calls from the first warm-up op to its last.
    pub checkpoint_steps: usize,
    /// Metrics, in print order.
    pub metrics: Vec<Metric>,
    /// Unit-less facts beside the metrics (sample counts, percentiles,
    /// failed checks), in print order.
    pub notes: Vec<(&'static str, String)>,
}

impl Report {
    /// Appends a metric.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Appends a note.
    pub fn note(&mut self, key: &'static str, value: impl ToString) {
        self.notes.push((key, value.to_string()));
    }

    /// The report as one line of JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"checkpoint\": {{\"utility_bits\": \"{:016x}\", \"steps\": {}}}, \"metrics\": {{",
            self.correct, self.attempted, self.failed, self.checkpoint_utility_bits, self.checkpoint_steps
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                number(m.value),
                m.unit
            );
        }
        out.push_str("}, \"notes\": {");
        for (i, (k, v)) in self.notes.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(out, "{sep}\"{k}\": \"{}\"", v.replace(['"', '\\'], "'"));
        }
        out.push_str("}}");
        out
    }
}

/// A JSON number with every digit of `value` (`null` if not finite).
fn number(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_keeps_every_digit_and_escapes_notes() {
        let mut r = Report { correct: true, attempted: 3, failed: 0, ..Report::default() };
        r.metric("op_p50_ms", 12.345678901234, "ms");
        r.metric("bad", f64::NAN, "ms");
        r.note("why", "a \"quoted\" note");
        let json = r.to_json();
        assert!(json.contains("\"op_p50_ms\": {\"value\": 12.345678901234, \"unit\": \"ms\"}"));
        assert!(json.contains("\"bad\": {\"value\": null"));
        assert!(json.contains("\"why\": \"a 'quoted' note\""));
        assert!(json.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
    }
}

//! The benchmark's result: human-readable metric lines, then one JSON
//! object as the last line of standard output.

use std::fmt::Write as _;

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    /// Whether the value goes into the JSON result; informational lines
    /// (sample counts, withheld tails, zero failure shares) are printed only.
    pub in_json: bool,
    /// Free-text qualifier printed after the value.
    pub note: String,
}

/// The outcome of one benchmark invocation.
#[derive(Default)]
pub struct Outcome {
    pub metrics: Vec<Metric>,
    /// Operations whose output was checked.
    pub attempted: u64,
    /// Operations that failed their output check or were shed.
    pub failed: u64,
    /// Human-readable reasons for every failure.
    pub failures: Vec<String>,
}

impl Outcome {
    /// Adds a metric that goes into the JSON result.
    pub fn put(&mut self, name: &str, unit: &'static str, value: f64) {
        self.put_note(name, unit, value, "");
    }

    /// [`Outcome::put`] with a qualifier on the human-readable line.
    pub fn put_note(&mut self, name: &str, unit: &'static str, value: f64, note: &str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            unit,
            value,
            in_json: true,
            note: note.to_string(),
        });
    }

    /// Adds a printed-only line.
    pub fn info(&mut self, name: &str, unit: &'static str, value: f64, note: &str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            unit,
            value,
            in_json: false,
            note: note.to_string(),
        });
    }

    /// Counts one checked operation, failing it with `why` when `ok` is false.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(why());
            }
        }
    }

    /// True when every check passed and every JSON value is a finite number.
    pub fn correct(&self) -> bool {
        self.failed == 0
            && self.attempted > 0
            && self
                .metrics
                .iter()
                .filter(|m| m.in_json)
                .all(|m| m.value.is_finite())
    }

    /// Prints every metric line, then the JSON result line.
    pub fn print(&self) {
        for f in &self.failures {
            println!("FAILED: {f}");
        }
        for m in &self.metrics {
            let note = if m.note.is_empty() {
                String::new()
            } else {
                format!("  ({})", m.note)
            };
            println!(
                "{:<36} {:>16} {}{}",
                m.name,
                fmt_value(m.value),
                m.unit,
                note
            );
        }
        println!("{}", self.json());
    }

    /// The result object: `correct`, `attempted`, `failed`, `metrics`.
    pub fn json(&self) -> String {
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        let mut first = true;
        for m in self.metrics.iter().filter(|m| m.in_json) {
            if !first {
                s.push_str(", ");
            }
            first = false;
            // Non-finite values are not JSON numbers; `correct` is already
            // false for them, so write a zero in their place.
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                s,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, v, m.unit
            );
        }
        s.push_str("}}");
        s
    }
}

fn fmt_value(v: f64) -> String {
    if v.is_nan() {
        "n/a".into()
    } else if v != 0.0 && (v.abs() >= 1e6 || v.abs() < 1e-3) {
        format!("{v:.4e}")
    } else {
        format!("{v:.4}")
    }
}

/// Peak resident set of this process in MiB (`VmHWM`), if readable.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_holds_exactly_the_json_metrics() {
        let mut o = Outcome::default();
        o.put("a_ms", "ms", 1.25);
        o.info("hidden", "count", 3.0, "printed only");
        o.check(true, String::new);
        assert!(o.correct());
        assert_eq!(
            o.json(),
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {\"a_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
        o.check(false, || "boom".into());
        assert!(!o.correct());
        assert_eq!(o.failures, vec!["boom".to_string()]);
    }
}

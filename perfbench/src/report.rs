//! The result of one benchmark run: named metrics with units, the
//! operation counts behind `failed`, and the human-readable report.

use crate::stats::{fmt, Summary};

pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    /// The samples behind `value` (its median); `None` for counts and
    /// single measurements.
    pub summary: Option<Summary>,
}

#[derive(Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// Why each failed operation failed (printed, never fatal).
    pub failures: Vec<String>,
    /// SHA-256 of the verified simulated output: a pure function of the
    /// workload and seed, so it must read the same on every commit.
    pub digest: Option<String>,
}

impl Report {
    /// A metric reported as the median of `samples`.
    pub fn median(&mut self, name: impl Into<String>, unit: &'static str, samples: &[f64]) {
        let summary = Summary::of(samples);
        self.metrics.push(Metric {
            name: name.into(),
            unit,
            value: summary.median,
            summary: Some(summary),
        });
    }

    /// A count or a single derived value.
    pub fn value(&mut self, name: impl Into<String>, unit: &'static str, value: f64) {
        self.metrics.push(Metric {
            name: name.into(),
            unit,
            value,
            summary: None,
        });
    }

    /// Counts one checked operation; a failed check is recorded, not
    /// raised, so the rest of the run's numbers still come out.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }

    /// Records the digest of the little-endian words `output`.
    pub fn set_digest(&mut self, output: impl IntoIterator<Item = u64>) {
        let mut sha = antalloc_store::Sha256::new();
        for word in output {
            sha.update(&word.to_le_bytes());
        }
        let hex = sha.finalize().iter().map(|b| format!("{b:02x}")).collect();
        self.digest = Some(hex);
    }

    /// One line per metric, with the sample count beside every number.
    pub fn print_lines(&self) {
        for m in &self.metrics {
            match &m.summary {
                Some(s) => println!(
                    "  {:<40} {:>12} {:<6} {}",
                    m.name,
                    fmt(m.value),
                    m.unit,
                    s.describe()
                ),
                None => println!(
                    "  {:<40} {:>12} {:<6} (single value)",
                    m.name,
                    fmt(m.value),
                    m.unit
                ),
            }
        }
        let frac = self.failed as f64 / self.attempted.max(1) as f64;
        println!(
            "  {:<40} {:>12} {:<6} ({} failed of {} attempted)",
            "failed_frac",
            fmt(frac),
            "ratio",
            self.failed,
            self.attempted
        );
        for f in &self.failures {
            println!("  FAILED: {f}");
        }
        if let Some(d) = &self.digest {
            println!("  output digest {d}");
        }
    }

    /// The result line: one JSON object with exactly `correct`,
    /// `attempted`, `failed` and `metrics`.
    pub fn json(&self, names: &[&str]) -> String {
        let metrics: Vec<String> = names
            .iter()
            .map(|&name| {
                let m = self
                    .metrics
                    .iter()
                    .find(|m| m.name == name)
                    .unwrap_or_else(|| panic!("metric {name} was not measured"));
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Full-precision JSON number (non-finite values have no JSON form and
/// would mean a broken measurement).
fn json_number(v: f64) -> String {
    assert!(v.is_finite(), "non-finite metric value {v}");
    format!("{v:?}")
}

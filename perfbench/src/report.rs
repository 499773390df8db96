//! A run's outcome and the three forms it is written in: lines for a
//! reader, the saved result file, and the one-line JSON summary.

use std::fmt::Write as _;

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Samples the value was computed from.
    pub samples: u64,
}

impl Metric {
    /// Build a metric.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str, samples: u64) -> Self {
        Metric {
            name: name.into(),
            value: if value.is_finite() { value } else { 0.0 },
            unit,
            samples,
        }
    }
}

/// A workload run's outcome.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations whose output was checked.
    pub attempted: u64,
    /// Checked operations whose output was wrong.
    pub failed: u64,
    /// Every correctness mismatch, described.
    pub mismatches: Vec<String>,
    /// The summary metrics (end-to-end untraced, per-layer traced).
    pub metrics: Vec<Metric>,
    /// The workload's own named end-to-end figures, printed for a
    /// reader beside the summary.
    pub detail: Vec<Metric>,
    /// The first output digest checked (printed for recording).
    pub digest: Option<u64>,
    /// A traced run's spans, written out once the run ends.
    pub spans: Option<String>,
    /// Measured seconds of each repetition, in run order.
    pub rep_s: Vec<f64>,
}

impl Report {
    /// Count one checked operation group: `n` operations whose output
    /// digest `got` must equal `want`.
    pub fn check(&mut self, what: &str, n: u64, got: u64, want: u64) {
        self.check_lazy(|| what.to_string(), n, got, want);
    }

    /// [`Self::check`] that names the operation only on a mismatch, for
    /// checks inside a timed loop.
    pub fn check_lazy(&mut self, what: impl FnOnce() -> String, n: u64, got: u64, want: u64) {
        self.attempted += n;
        if got != want {
            self.failed += n;
            self.mismatches.push(format!(
                "{}: digest {got:016x}, expected {want:016x}",
                what()
            ));
        }
    }

    /// Check a digest against `want`, which the first digest seen
    /// fills when no recorded value is given (repetitions of one seed
    /// must agree).
    pub fn check_against(&mut self, want: &mut Option<u64>, what: &str, n: u64, got: u64) {
        let w = *want.get_or_insert(got);
        self.digest.get_or_insert(got);
        self.check(what, n, got, w);
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.mismatches.is_empty()
    }

    /// Lines for a reader: each figure with unit, sample count and,
    /// for the end-to-end figures, which direction is better.
    pub fn human(&self) -> String {
        let mut out = String::new();
        for m in self.detail.iter().chain(&self.metrics) {
            let better = match m.unit {
                _ if m.name.ends_with("_per_s") => "higher is better",
                "s" | "ms" | "us" | "MiB" if !m.name.contains('.') => "lower is better",
                _ => "",
            };
            let _ = writeln!(
                out,
                "{:<40} {:>22} {:<14} n={:<8} {better}",
                m.name,
                fmt(m.value),
                m.unit,
                m.samples
            );
        }
        if !self.rep_s.is_empty() {
            let reps: Vec<String> = self.rep_s.iter().map(|s| format!("{s:.3}")).collect();
            let _ = writeln!(out, "repetitions (s): {}", reps.join(" "));
        }
        if let Some(d) = self.digest {
            let _ = writeln!(out, "digest {d:016x}");
        }
        let _ = writeln!(
            out,
            "operations: attempted {}, failed {}",
            self.attempted, self.failed
        );
        for m in &self.mismatches {
            let _ = writeln!(out, "MISMATCH {m}");
        }
        out
    }

    /// The saved result: the fingerprint line, then one
    /// `metric <name> <value> <unit> <samples>` line per figure.
    pub fn result_file(&self, fingerprint: &str) -> String {
        let mut out = format!("fingerprint {fingerprint}\n");
        for m in self.detail.iter().chain(&self.metrics) {
            let _ = writeln!(
                out,
                "metric {} {} {} {}",
                m.name,
                fmt(m.value),
                m.unit,
                m.samples
            );
        }
        out
    }

    /// The one-line JSON summary (the last line of standard output).
    pub fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                fmt(m.value),
                m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// Every digit of a value, as a JSON number.
fn fmt(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}

/// Compare two saved result files: refuse (Err) when their
/// fingerprints differ, else list each shared metric's ratio b/a.
pub fn compare(a: &str, b: &str) -> Result<String, String> {
    let fp = |s: &str| s.lines().next().unwrap_or("").to_string();
    if fp(a) != fp(b) {
        return Err(format!(
            "refusing to compare results from different hosts:\n  a: {}\n  b: {}",
            fp(a),
            fp(b)
        ));
    }
    let metrics = |s: &str| -> Vec<(String, f64, String)> {
        s.lines()
            .filter_map(|l| {
                let mut w = l.strip_prefix("metric ")?.split_whitespace();
                Some((
                    w.next()?.to_string(),
                    w.next()?.parse().ok()?,
                    w.next()?.to_string(),
                ))
            })
            .collect()
    };
    let bm = metrics(b);
    let mut out = String::new();
    for (name, va, unit) in metrics(a) {
        if let Some((_, vb, _)) = bm.iter().find(|(n, _, _)| *n == name) {
            let ratio = if va != 0.0 { vb / va } else { f64::NAN };
            let _ = writeln!(
                out,
                "{name:<40} {va:>14.6} -> {vb:>14.6} {unit:<10} x{ratio:.4}"
            );
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_summary_has_exactly_the_four_keys() {
        let mut r = Report::default();
        r.check("x", 3, 1, 1);
        r.metrics.push(Metric::new("setup_s", 0.25, "s", 3));
        assert_eq!(
            r.json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
        r.check("y", 2, 1, 2);
        assert!(!r.correct());
        assert_eq!(r.failed, 2);
    }

    #[test]
    fn compare_refuses_different_fingerprints() {
        let mut r = Report::default();
        r.metrics.push(Metric::new("work_per_s", 10.0, "1/s", 1));
        let a = r.result_file("nproc=2");
        r.metrics[0].value = 12.0;
        let b = r.result_file("nproc=2");
        assert!(compare(&a, &b).unwrap().contains("x1.2000"));
        let c = r.result_file("nproc=1");
        assert!(compare(&a, &c).is_err());
    }
}

//! Operation accounting and the printed result.

use crate::host;

/// Operations attempted and failed.  An operation is an LU run, a fork, a
/// refresh round or a cold-twin run; a panic, a typed error or a failed
/// output check fails it.
#[derive(Debug, Default, Clone)]
pub struct Outcome {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// One line per failure (the first few are printed).
    pub failures: Vec<String>,
}

impl Outcome {
    /// Records one operation, failed iff `problems` is non-empty.
    pub fn op(&mut self, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            self.failures.extend(problems);
        }
    }

    /// `failed / attempted`.
    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Samples the value was computed from.
    pub samples: usize,
}

/// Everything one benchmark process prints.
#[derive(Debug, Clone)]
pub struct Report {
    /// Workload name.
    pub workload: &'static str,
    /// The `--seed` argument.
    pub seed: u64,
    /// The `--trace` argument.
    pub traced: bool,
    /// Operation accounting.
    pub outcome: Outcome,
    /// Metrics, in print order.
    pub metrics: Vec<Metric>,
    /// Free-form facts printed in the host record (sizes, shapes, notes).
    pub notes: Vec<(String, String)>,
}

impl Report {
    /// An empty report.
    pub fn new(workload: &'static str, seed: u64, traced: bool) -> Self {
        Report {
            workload,
            seed,
            traced,
            outcome: Outcome::default(),
            metrics: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Adds a metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.push(Metric {
            name: name.to_owned(),
            value,
            unit,
            samples,
        });
    }

    /// Adds a note to the host record.
    pub fn note(&mut self, key: &str, value: impl ToString) {
        self.notes.push((key.to_owned(), value.to_string()));
    }

    /// The value of a metric, if reported.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// True when every operation passed.
    pub fn correct(&self) -> bool {
        self.outcome.failed == 0 && self.outcome.attempted > 0
    }

    /// The host record: one JSON object with host facts, per-metric sample
    /// counts, notes and the first failures.
    pub fn record_line(&self, loadavg_at_start: &str) -> String {
        let samples: Vec<String> = self
            .metrics
            .iter()
            .map(|m| format!("{}:{}", json_str(&m.name), m.samples))
            .collect();
        let notes: Vec<String> = self
            .notes
            .iter()
            .map(|(k, v)| format!("{}:{}", json_str(k), json_str(v)))
            .collect();
        let failures: Vec<String> = self
            .outcome
            .failures
            .iter()
            .take(20)
            .map(|f| json_str(f))
            .collect();
        format!(
            "{{\"record\":{{\"workload\":{},\"seed\":{},\"trace\":{},\"nproc\":{},\
             \"loadavg_at_start\":{},\"commit\":{},\"build_profile\":{},\
             \"error_rate\":{},\"samples\":{{{}}},\"notes\":{{{}}},\"failures\":[{}]}}}}",
            json_str(self.workload),
            self.seed,
            self.traced,
            host::nproc(),
            json_str(loadavg_at_start),
            json_str(&host::commit()),
            json_str(host::build_profile()),
            json_num(self.outcome.error_rate()),
            samples.join(","),
            notes.join(","),
            failures.join(",")
        )
    }

    /// The result line the benchmark contract asks for.
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}:{{\"value\":{},\"unit\":{}}}",
                    json_str(&m.name),
                    json_num(m.value),
                    json_str(m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct(),
            self.outcome.attempted.max(1),
            if self.outcome.attempted == 0 {
                1
            } else {
                self.outcome.failed
            },
            metrics.join(",")
        )
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// JSON has no NaN or infinity: those print as `null`, which is no
/// number, so a broken measurement cannot pass as one.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_contract_keys() {
        let mut r = Report::new("lu128", 0, false);
        r.outcome.op(Vec::new());
        r.metric("run_s", 1.25, "s", 3);
        assert_eq!(
            r.result_line(),
            "{\"correct\":true,\"attempted\":1,\"failed\":0,\
             \"metrics\":{\"run_s\":{\"value\":1.25,\"unit\":\"s\"}}}"
        );
        r.outcome.op(vec!["boom \"x\"".into()]);
        assert!(r
            .result_line()
            .starts_with("{\"correct\":false,\"attempted\":2,\"failed\":1"));
        assert!(r.record_line("0 0 0").contains("boom \\\"x\\\""));
    }
}

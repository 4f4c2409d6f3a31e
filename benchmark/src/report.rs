//! What one run found: metrics, output checks, operation counts, and the
//! result line the benchmark prints last.

use crate::trace::Accounting;
use std::fmt::Write as _;

/// Largest unattributed share of a traced phase's wall time the
/// accounting check accepts.
pub const MAX_UNATTRIBUTED: f64 = 0.05;

/// The end-to-end metrics, `(name, unit)` in `BENCHMARK.json` order.
/// Every workload reports every one; each workload defines its main and
/// auxiliary operation (see `benchmark/README.md`).
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("op_us", "us"),
    ("ops_per_cpu_s", "ops/CPU-s"),
    ("aux_us", "us"),
    ("quality_at_10", "ratio"),
];

/// The per-layer metrics, `(name, unit)` in `BENCHMARK.json` order. A
/// workload that does not pass through a layer reports that layer's
/// metrics as 0: no time was spent there and no work was counted.
pub const PER_LAYER: [(&str, &str); 34] = [
    ("sampler.ns_per_triple", "ns"),
    ("sampler.share", "ratio"),
    ("model.update_ns_per_triple", "ns"),
    ("trainer.loop_ns_per_triple", "ns"),
    ("trainer.skipped", "count"),
    ("parallel.speedup_2t", "ratio"),
    ("eval.score_us_per_user", "us"),
    ("eval.topk_us_per_user", "us"),
    ("data.generate_s", "s"),
    ("data.split_s", "s"),
    ("artifact.freeze_s", "s"),
    ("artifact.save_ms", "ms"),
    ("artifact.load_mapped_ms", "ms"),
    ("artifact.bytes", "bytes"),
    ("query.p50_us", "us"),
    ("proto.encode_ns", "ns"),
    ("proto.decode_ns", "ns"),
    ("net.server_p50_us", "us"),
    ("net.overhead_us", "us"),
    ("net.cpu_sys_share", "ratio"),
    ("net.wall_qps", "req/s"),
    ("net.p99_ms", "ms"),
    ("net.p99_beyond", "count"),
    ("net.overloaded", "count"),
    ("net.deadline_hits", "count"),
    ("net.proto_errors", "count"),
    ("swap.load_ms", "ms"),
    ("swap.lock_ms", "ms"),
    ("swap.count", "count"),
    ("trace.unattributed_share", "ratio"),
    ("trace.clock_ns", "ns"),
    ("overhead.op_us", "us"),
    ("overhead.ops_per_cpu_s", "ops/CPU-s"),
    ("overhead.aux_us", "us"),
];

/// The unit `name` is declared with in `set`.
fn unit_of(set: &[(&'static str, &'static str)], name: &str) -> &'static str {
    set.iter()
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("{name} is not a declared metric"))
        .1
}

/// A named measurement with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
}

/// Everything a workload reports.
#[derive(Debug, Default)]
pub struct Report {
    /// End-to-end metrics (untraced).
    pub metrics: Vec<Metric>,
    /// Per-layer metrics (traced run only).
    pub layers: Vec<Metric>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// `(name, passed, detail)` of every output check.
    pub checks: Vec<(String, bool, String)>,
    /// Free-form lines for the human-readable report.
    pub notes: Vec<String>,
}

impl Report {
    /// Adds an end-to-end metric declared in [`END_TO_END`].
    pub fn metric(&mut self, name: &'static str, value: f64) {
        let unit = unit_of(&END_TO_END, name);
        self.metrics.push(Metric { name, unit, value });
    }

    /// Adds a per-layer metric declared in [`PER_LAYER`].
    pub fn layer(&mut self, name: &'static str, value: f64) {
        let unit = unit_of(&PER_LAYER, name);
        self.layers.push(Metric { name, unit, value });
    }

    /// A per-layer metric recorded earlier.
    #[cfg(test)]
    pub fn layer_value(&self, name: &str) -> f64 {
        self.layers
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("per-layer metric {name} not recorded"))
            .value
    }

    /// Records an output check.
    pub fn check(&mut self, name: &str, passed: bool, detail: &str) {
        self.checks
            .push((name.to_string(), passed, detail.to_string()));
    }

    /// Adds a line to the human-readable report.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Counts operations attempted and failed.
    pub fn attempt(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// Records the accounting of one traced phase: each layer's self time
    /// as a note, the check that layers account for all but a few percent
    /// of the phase, and the phase's unattributed share, of which
    /// `trace.unattributed_share` keeps the largest.
    pub fn accounting(&mut self, phase: &str, acc: &Accounting) {
        let wall = acc.wall_ns as f64;
        let share = acc.unattributed_share();
        let mut line = format!("accounting {phase}: wall {:.3} s", wall / 1e9);
        for (layer, ns) in &acc.layers {
            let _ = write!(line, ", {layer} {:.1}%", *ns as f64 / wall * 100.0);
        }
        let _ = write!(line, ", unattributed {:.2}%", share * 100.0);
        self.notes.push(line);
        match self
            .layers
            .iter_mut()
            .find(|m| m.name == "trace.unattributed_share")
        {
            Some(m) => m.value = m.value.max(share),
            None => self.layer("trace.unattributed_share", share),
        }
        self.check(
            &format!("{phase} phase accounting"),
            share <= MAX_UNATTRIBUTED && acc.imbalance() < 1e-9,
            &format!(
                "unattributed {:.3}% (limit {:.0}%), imbalance {:.2e}",
                share * 100.0,
                MAX_UNATTRIBUTED * 100.0,
                acc.imbalance()
            ),
        );
    }

    /// Whether every output check passed.
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|(_, ok, _)| *ok)
    }

    /// The human-readable report followed by the one-line JSON result;
    /// `trace` selects which metric set the result carries.
    pub fn render(&self, trace: bool) -> String {
        let mut out = String::new();
        for n in &self.notes {
            let _ = writeln!(out, "# {n}");
        }
        for (name, ok, detail) in &self.checks {
            let _ = writeln!(
                out,
                "# check {}: {name} ({detail})",
                if *ok { "ok" } else { "FAILED" }
            );
        }
        let _ = writeln!(
            out,
            "# operations: {} attempted, {} failed",
            self.attempted, self.failed
        );
        for m in &self.metrics {
            let _ = writeln!(out, "# e2e   {:<32} {:>16.6} {}", m.name, m.value, m.unit);
        }
        for m in &self.layers {
            let _ = writeln!(out, "# layer {:<32} {:>16.6} {}", m.name, m.value, m.unit);
        }
        // Declared order; a layer the workload bypassed reads 0, while a
        // missing end-to-end metric is a benchmark bug.
        let (declared, recorded) = if trace {
            (&PER_LAYER[..], &self.layers)
        } else {
            (&END_TO_END[..], &self.metrics)
        };
        let mut json = String::new();
        for (i, (name, unit)) in declared.iter().enumerate() {
            let value = match recorded.iter().find(|m| m.name == *name) {
                Some(m) => m.value,
                None if trace => 0.0,
                None => panic!("end-to-end metric {name} not recorded"),
            };
            assert!(value.is_finite(), "{name} is not finite");
            let _ = write!(
                json,
                "{}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}",
                if i == 0 { "" } else { ", " },
            );
        }
        let _ = writeln!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
            self.correct(),
            self.attempted,
            self.failed
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full_report() -> Report {
        let mut r = Report::default();
        for (i, (name, _)) in END_TO_END.iter().enumerate() {
            r.metric(name, i as f64 + 0.5);
        }
        r.layer("sampler.share", 0.25);
        r.attempt(10, 1);
        r.check("x", true, "fine");
        r
    }

    #[test]
    fn result_line_is_last_and_carries_every_declared_metric() {
        let r = full_report();
        let out = r.render(false);
        let last = out.lines().last().unwrap();
        assert!(last.starts_with(
            "{\"correct\": true, \"attempted\": 10, \"failed\": 1, \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}, "
        ));
        for (name, unit) in END_TO_END {
            assert!(
                last.contains(&format!("\"{name}\": {{\"value\": ")),
                "{name}"
            );
            assert!(last.contains(&format!("\"unit\": \"{unit}\"")), "{unit}");
        }
        let traced = r.render(true);
        let last = traced.lines().last().unwrap();
        assert!(last.contains("\"sampler.share\": {\"value\": 0.25, \"unit\": \"ratio\"}"));
        // A bypassed layer reads 0.
        assert!(last.contains("\"swap.count\": {\"value\": 0, \"unit\": \"count\"}"));
        assert_eq!(last.matches("\"value\"").count(), PER_LAYER.len());
    }

    #[test]
    fn a_failed_check_marks_the_result_incorrect() {
        let mut r = full_report();
        r.check("y", false, "broken");
        assert!(r
            .render(false)
            .lines()
            .last()
            .unwrap()
            .starts_with("{\"correct\": false"));
    }

    #[test]
    #[should_panic(expected = "not recorded")]
    fn a_missing_end_to_end_metric_is_a_bug() {
        let mut r = Report::default();
        r.metric("setup_s", 1.0);
        r.render(false);
    }

    #[test]
    fn unattributed_share_keeps_the_largest_phase() {
        let acc = |un: u64| Accounting {
            wall_ns: 1000,
            unattributed_ns: un,
            layers: [("x", 1000 - un)].into_iter().collect(),
        };
        let mut r = Report::default();
        r.accounting("a", &acc(10));
        r.accounting("b", &acc(30));
        r.accounting("c", &acc(20));
        assert_eq!(r.layer_value("trace.unattributed_share"), 0.03);
        assert!(r.correct());
        r.accounting("d", &acc(100));
        assert!(!r.correct());
    }

    #[test]
    fn declared_metrics_match_the_manifest() {
        let manifest = include_str!("../../BENCHMARK.json");
        let declared = END_TO_END.iter().chain(PER_LAYER.iter());
        for (name, unit) in declared {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", ");
            assert!(manifest.contains(&entry), "{name} [{unit}] missing");
        }
        assert_eq!(
            manifest.matches("\"unit\": ").count(),
            END_TO_END.len() + PER_LAYER.len()
        );
    }
}

//! The result of one benchmark run and its JSON rendering.

use serde::{Number, Value};

/// The end-to-end metrics every workload reports with `--trace 0`, in
/// report order. `BENCHMARK.json` lists the same names.
pub const END_TO_END: [&str; 4] = ["setup_s", "peak_rss_mib", "op_p50_ms", "ops_per_s"];

/// The per-layer metrics every workload reports with `--trace 1`, in
/// report order. `BENCHMARK.json` lists the same names.
pub const PER_LAYER: [&str; 35] = [
    "pipeline.traced_ms",
    "corpus.generate_ms",
    "mining.stats_ms",
    "mining.templates_ms",
    "validation.ms",
    "validation.self_ms",
    "solver.incremental_hit_ratio",
    "validation.wave_replay_ratio",
    "counterexample.ms",
    "counterexample.self_ms",
    "counterexample.cases",
    "counterexample.demoted",
    "deployer.ms",
    "deployer.calls",
    "deployer.programs",
    "deployer.cache_hit_ratio",
    "cloud.deploys",
    "cloud.deploys_spread",
    "cloud.busy_ms",
    "pipeline.unattributed_ms",
    "protocol.parse_us",
    "protocol.render_us",
    "daemon.handle_hit_us",
    "daemon.handle_permuted_us",
    "daemon.handle_miss_us",
    "hcl.compile_us",
    "deployer.fingerprint_us",
    "spec.scan_us",
    "scancache.hit_ratio",
    "daemon.cache_entries",
    "daemon.delta_us",
    "delta.types_rescored",
    "store.appends_per_delta",
    "store.bytes",
    "tracing.overhead_pct",
];

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (pipeline runs, scans, deltas).
    pub attempted: u64,
    /// Operations that failed or whose output did not check out.
    pub failed: u64,
    /// Metrics in report order: name, value, unit.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Host, config and workload facts printed beside the metrics.
    pub record: Vec<(String, Value)>,
    /// One line per failed output check.
    pub mismatches: Vec<String>,
}

impl Outcome {
    /// Adds a metric.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    /// Adds a record entry.
    pub fn note(&mut self, key: impl Into<String>, value: impl Into<Val>) {
        self.record.push((key.into(), value.into().0));
    }

    /// Counts one failed operation, with its reason.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.mismatches.push(why);
    }

    /// Folds in a probe run: its ops and failures, its record under
    /// `probe_<name>.`, and those of its metrics this outcome lacks.
    pub fn absorb_probe(&mut self, name: &str, probe: Outcome) {
        self.attempted += probe.attempted;
        self.failed += probe.failed;
        self.mismatches.extend(
            probe
                .mismatches
                .into_iter()
                .map(|m| format!("{name} probe: {m}")),
        );
        for (k, v) in probe.record {
            self.record.push((format!("probe_{name}.{k}"), v));
        }
        for m in probe.metrics {
            if !self.metrics.iter().any(|have| have.0 == m.0) {
                self.metrics.push(m);
            }
        }
    }

    /// Puts the metrics in the order of `names`. Fails if a metric of
    /// `names` is missing or twice present, or another metric is present.
    pub fn order_metrics(&mut self, names: &[&str]) -> Result<(), String> {
        if let Some(extra) = self.metrics.iter().find(|m| !names.contains(&m.0)) {
            return Err(format!("metric {} is not in the manifest", extra.0));
        }
        let ordered = names
            .iter()
            .map(|name| {
                self.metrics
                    .iter()
                    .find(|m| m.0 == *name)
                    .copied()
                    .ok_or(format!("metric {name} was not measured"))
            })
            .collect::<Result<Vec<_>, String>>()?;
        if ordered.len() != self.metrics.len() {
            return Err("a metric was measured twice".into());
        }
        self.metrics = ordered;
        Ok(())
    }

    /// Whether every output check passed and every metric is a finite
    /// number.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0 && self.metrics.iter().all(|m| m.1.is_finite())
    }

    /// The record line: `{"record": {...}}`.
    pub fn record_line(&self) -> String {
        let obj = self
            .record
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect();
        let line = [("record".to_string(), Value::Object(obj))]
            .into_iter()
            .collect();
        serde_json::to_string(&Value::Object(line)).expect("a JSON value serialises")
    }

    /// The result line the benchmark prints last.
    pub fn result_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let m = [
                    ("value".to_string(), num(*value)),
                    ("unit".to_string(), Value::String(unit.to_string())),
                ]
                .into_iter()
                .collect();
                (name.to_string(), Value::Object(m))
            })
            .collect();
        let line = [
            ("correct".to_string(), Value::Bool(self.correct())),
            (
                "attempted".to_string(),
                Value::Number(Number::from_u64(self.attempted)),
            ),
            (
                "failed".to_string(),
                Value::Number(Number::from_u64(self.failed)),
            ),
            ("metrics".to_string(), Value::Object(metrics)),
        ]
        .into_iter()
        .collect();
        serde_json::to_string(&Value::Object(line)).expect("a JSON value serialises")
    }
}

fn num(x: f64) -> Value {
    if x.is_finite() {
        Value::Number(Number::from_f64(x))
    } else {
        Value::Null
    }
}

/// A record value.
pub struct Val(pub Value);

impl From<f64> for Val {
    fn from(x: f64) -> Val {
        Val(num(x))
    }
}

impl From<u64> for Val {
    fn from(x: u64) -> Val {
        Val(Value::Number(Number::from_u64(x)))
    }
}

impl From<usize> for Val {
    fn from(x: usize) -> Val {
        Val(Value::Number(Number::from_u64(x as u64)))
    }
}

impl From<&str> for Val {
    fn from(s: &str) -> Val {
        Val(Value::String(s.to_string()))
    }
}

impl From<String> for Val {
    fn from(s: String) -> Val {
        Val(Value::String(s))
    }
}

//! The one `BENCH_*.json` document shape, its writer, its reader and
//! its one gate evaluator:
//!
//! ```json
//! {"bench": "kernel_gain", "cpus": 2, "quick": false,
//!  "metrics": [{"name": "speedup", "unit": "ratio", "value": 2.9}, …],
//!  "gates": [{"metric": "speedup", "op": ">=", "threshold": 1.3}, …]}
//! ```
//!
//! Each producer records flat numeric metrics and states its own gates,
//! so `bench_check` evaluates any document without knowing which bench
//! wrote it. Booleans are 0/1 metrics, per-workload readings are
//! flattened into names such as `bestk_C12_chord/width/speedup`, and a
//! gate's `threshold` is a number or the name of another metric
//! (`warm_scanned == cold_scanned`). A gate fails when either side is
//! missing or NaN; a non-finite value is written as `null` and read back
//! as NaN.

use mintri_core::json::{escape, JsonValue};
use std::fmt;

/// The comparisons a gate may make, `metric op threshold`.
pub const OPS: [&str; 4] = [">=", "<=", "==", ">"];

/// A gate's right-hand side.
#[derive(Debug, Clone, PartialEq)]
pub enum Threshold {
    /// A fixed number.
    Value(f64),
    /// The value of the named metric in the same document.
    Metric(String),
}

/// One reading: a unique flat name, a unit (`s`, `count`, `ratio`,
/// `pct`, `bool`, …) and the value, NaN when not finite.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub value: f64,
}

/// One check of the document's own metrics: `metric op threshold`.
#[derive(Debug, Clone, PartialEq)]
pub struct Gate {
    pub metric: String,
    pub op: String,
    pub threshold: Threshold,
}

impl fmt::Display for Gate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.threshold {
            Threshold::Value(v) => write!(f, "{} {} {v}", self.metric, self.op),
            Threshold::Metric(name) => write!(f, "{} {} {name}", self.metric, self.op),
        }
    }
}

/// A bench document: the producing binary, the CPUs visible to it,
/// whether it was a `--quick 1` smoke run, its readings and its gates.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchDoc {
    pub bench: String,
    pub cpus: usize,
    pub quick: bool,
    pub metrics: Vec<Metric>,
    pub gates: Vec<Gate>,
}

impl BenchDoc {
    /// An empty document for `bench`, stamped with this host's CPU count.
    pub fn new(bench: &str, quick: bool) -> Self {
        BenchDoc {
            bench: bench.to_string(),
            cpus: std::thread::available_parallelism().map_or(1, |n| n.get()),
            quick,
            metrics: Vec::new(),
            gates: Vec::new(),
        }
    }

    /// Records a reading, kept to ten significant digits (every count
    /// below 10^10 stays exact; baselines stay readable). Panics on a
    /// duplicate name.
    pub fn metric(&mut self, name: impl Into<String>, unit: &str, value: f64) {
        let name = name.into();
        assert!(self.value(&name).is_none(), "duplicate metric {name:?}");
        let value: f64 = format!("{value:.9e}").parse().expect("floats parse");
        self.metrics.push(Metric {
            name,
            unit: unit.to_string(),
            value: if value.is_finite() { value } else { f64::NAN },
        });
    }

    /// States the gate `metric op threshold`; `op` is one of [`OPS`].
    pub fn gate(&mut self, metric: impl Into<String>, op: &str, threshold: f64) {
        assert!(OPS.contains(&op), "unknown op {op:?}");
        self.gates.push(Gate {
            metric: metric.into(),
            op: op.to_string(),
            threshold: Threshold::Value(threshold),
        });
    }

    /// States the gate `metric == other`, both metrics of this document.
    pub fn gate_eq(&mut self, metric: impl Into<String>, other: &str) {
        self.gates.push(Gate {
            metric: metric.into(),
            op: "==".to_string(),
            threshold: Threshold::Metric(other.to_string()),
        });
    }

    /// The value of the named metric, if recorded.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// Evaluates every gate. `Ok` holds one line per gate with the values
    /// it compared; `Err` holds the lines of the gates that failed. A
    /// document without gates fails: it would pass whatever it measured.
    pub fn evaluate(&self) -> Result<Vec<String>, Vec<String>> {
        if self.gates.is_empty() {
            return Err(vec!["no gates".to_string()]);
        }
        let (mut passed, mut failed) = (Vec::new(), Vec::new());
        for gate in &self.gates {
            let rhs = match &gate.threshold {
                Threshold::Value(v) => Some(*v),
                Threshold::Metric(name) => self.value(name),
            };
            let Some((lhs, rhs)) = self.value(&gate.metric).zip(rhs) else {
                failed.push(format!("{gate} [metric missing]"));
                continue;
            };
            // Every comparison with NaN is false, so a NaN side fails.
            let holds = match gate.op.as_str() {
                ">=" => lhs >= rhs,
                "<=" => lhs <= rhs,
                "==" => lhs == rhs,
                ">" => lhs > rhs,
                _ => false,
            };
            let line = format!("{gate} [{lhs} vs {rhs}]");
            if holds { &mut passed } else { &mut failed }.push(line);
        }
        if failed.is_empty() {
            Ok(passed)
        } else {
            Err(failed)
        }
    }

    /// Checks that `self` and `other`, two runs of the same bench, state
    /// the same gates on whole-document metrics (names without `/`;
    /// per-workload gates follow the workloads a run chose). Checking a
    /// fresh run against the committed baseline this way catches a
    /// producer that dropped a gate or moved a threshold.
    pub fn same_gates_as(&self, other: &BenchDoc) -> Result<(), String> {
        let fixed = |d: &BenchDoc| -> Vec<String> {
            let fixed = d.gates.iter().filter(|g| !g.metric.contains('/'));
            fixed.map(Gate::to_string).collect()
        };
        let (mine, theirs) = (fixed(self), fixed(other));
        if mine != theirs {
            return Err(format!(
                "{} gates differ: {mine:?} vs {theirs:?}",
                self.bench
            ));
        }
        Ok(())
    }

    /// The document as a JSON value (non-finite numbers become `null`).
    pub fn to_json(&self) -> JsonValue {
        fn obj<const N: usize>(fields: [(&str, JsonValue); N]) -> JsonValue {
            JsonValue::Obj(fields.map(|(k, v)| (k.to_string(), v)).into())
        }
        let text = |s: &str| JsonValue::Str(s.to_string());
        let num = |v: f64| {
            if v.is_finite() {
                JsonValue::Num(v)
            } else {
                JsonValue::Null
            }
        };
        let metrics = self.metrics.iter().map(|m| {
            obj([
                ("name", text(&m.name)),
                ("unit", text(&m.unit)),
                ("value", num(m.value)),
            ])
        });
        let gates = self.gates.iter().map(|g| {
            let threshold = match &g.threshold {
                Threshold::Value(v) => num(*v),
                Threshold::Metric(name) => text(name),
            };
            obj([
                ("metric", text(&g.metric)),
                ("op", text(&g.op)),
                ("threshold", threshold),
            ])
        });
        obj([
            ("bench", text(&self.bench)),
            ("cpus", JsonValue::Num(self.cpus as f64)),
            ("quick", JsonValue::Bool(self.quick)),
            ("metrics", JsonValue::Arr(metrics.collect())),
            ("gates", JsonValue::Arr(gates.collect())),
        ])
    }

    /// [`BenchDoc::to_json`] rendered with one metric or gate per line,
    /// so committed baselines diff line by line.
    pub fn render(&self) -> String {
        let JsonValue::Obj(fields) = self.to_json() else {
            unreachable!("to_json builds an object")
        };
        let lines: Vec<String> = fields
            .iter()
            .map(|(key, value)| match value {
                JsonValue::Arr(items) => {
                    let items: Vec<String> = items.iter().map(|i| format!("\n    {i}")).collect();
                    format!("  {}: [{}\n  ]", escape(key), items.join(","))
                }
                value => format!("  {}: {value}", escape(key)),
            })
            .collect();
        format!("{{\n{}\n}}\n", lines.join(",\n"))
    }

    /// Writes [`BenchDoc::render`] to `path`.
    pub fn write(&self, path: &str) -> std::io::Result<()> {
        std::fs::write(path, self.render())?;
        eprintln!("wrote {path}");
        Ok(())
    }

    /// Reads a document back; a missing or mistyped field, an unknown
    /// op or a duplicate metric is an error.
    pub fn from_json(json: &JsonValue) -> Result<Self, String> {
        fn get<'a, T>(
            v: &'a JsonValue,
            key: &str,
            read: impl Fn(&'a JsonValue) -> Option<T>,
        ) -> Result<T, String> {
            v.get(key)
                .and_then(read)
                .ok_or_else(|| format!("field {key:?} missing or mistyped"))
        }
        let mut doc = BenchDoc {
            bench: get(json, "bench", JsonValue::as_str)?.to_string(),
            cpus: get(json, "cpus", JsonValue::as_usize)?,
            quick: get(json, "quick", JsonValue::as_bool)?,
            metrics: Vec::new(),
            gates: Vec::new(),
        };
        for m in get(json, "metrics", JsonValue::as_array)? {
            let name = get(m, "name", JsonValue::as_str)?;
            if doc.value(name).is_some() {
                return Err(format!("duplicate metric {name:?}"));
            }
            doc.metrics.push(Metric {
                name: name.to_string(),
                unit: get(m, "unit", JsonValue::as_str)?.to_string(),
                value: get(m, "value", |v| {
                    if v.is_null() {
                        Some(f64::NAN)
                    } else {
                        v.as_f64()
                    }
                })?,
            });
        }
        for g in get(json, "gates", JsonValue::as_array)? {
            let op = get(g, "op", JsonValue::as_str)?;
            if !OPS.contains(&op) {
                return Err(format!("unknown op {op:?}"));
            }
            doc.gates.push(Gate {
                metric: get(g, "metric", JsonValue::as_str)?.to_string(),
                op: op.to_string(),
                threshold: get(g, "threshold", |v| match v {
                    JsonValue::Str(name) => Some(Threshold::Metric(name.clone())),
                    JsonValue::Null => Some(Threshold::Value(f64::NAN)),
                    v => v.as_f64().map(Threshold::Value),
                })?,
            });
        }
        Ok(doc)
    }

    /// Reads and parses the document at `path`.
    pub fn load(path: &str) -> Result<Self, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let json = JsonValue::parse(&text).map_err(|e| format!("{path}: {e}"))?;
        Self::from_json(&json).map_err(|e| format!("{path}: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Whether `x op threshold` passes, with `x = 2` and `y = 3` recorded.
    fn passes(metric: &str, op: &str, threshold: Threshold) -> bool {
        let mut d = BenchDoc::new("unit", true);
        d.metric("x", "count", 2.0);
        d.metric("y", "count", 3.0);
        d.metric("nan", "count", f64::NAN);
        d.gates.push(Gate {
            metric: metric.to_string(),
            op: op.to_string(),
            threshold,
        });
        d.evaluate().is_ok()
    }

    fn named(metric: &str) -> Threshold {
        Threshold::Metric(metric.to_string())
    }

    #[test]
    fn each_op_compares_as_written_and_fails_on_missing_or_nan() {
        for (op, holds_at, fails_at) in [
            (">=", 2.0, 2.5),
            ("<=", 2.0, 1.5),
            ("==", 2.0, 2.1),
            (">", 1.0, 2.0),
        ] {
            let value = Threshold::Value;
            assert!(passes("x", op, value(holds_at)), "2 {op} {holds_at}");
            assert!(!passes("x", op, value(fails_at)), "2 {op} {fails_at}");
            assert!(!passes("nan", op, value(0.0)), "NaN {op} 0");
            assert!(!passes("x", op, named("nan")), "2 {op} NaN");
            assert!(!passes("absent", op, value(0.0)), "absent {op} 0");
        }
        assert!(BenchDoc::new("unit", true).evaluate().is_err(), "no gates");
    }

    #[test]
    fn a_threshold_can_name_another_metric() {
        assert!(passes("x", "<=", named("y")));
        assert!(passes("y", ">", named("x")));
        assert!(!passes("x", "==", named("y")));
        assert!(!passes("x", "==", named("absent")));
    }

    #[test]
    fn runs_of_one_bench_must_state_the_same_whole_document_gates() {
        let run = |floor: f64, workload: &str| {
            let mut d = BenchDoc::new("unit", false);
            d.gate("ratio", ">=", floor);
            d.gate_eq("warm", "cold");
            d.gate(format!("{workload}/results"), ">", 0.0);
            d
        };
        assert!(run(10.0, "C8").same_gates_as(&run(10.0, "C12")).is_ok());
        assert!(run(9.0, "C8").same_gates_as(&run(10.0, "C8")).is_err());
        let mut dropped = run(10.0, "C8");
        dropped.gates.remove(1);
        assert!(dropped.same_gates_as(&run(10.0, "C8")).is_err());
    }

    #[test]
    fn non_finite_values_cross_as_null_and_malformed_documents_are_errors() {
        let mut d = BenchDoc::new("unit", false);
        d.metric("inf", "ratio", f64::INFINITY);
        let text = d.render();
        assert!(
            text.contains(r#"{"name":"inf","unit":"ratio","value":null}"#),
            "{text}"
        );
        let back = BenchDoc::from_json(&JsonValue::parse(&text).unwrap()).unwrap();
        assert!(back.value("inf").unwrap().is_nan());

        let parse = |s: String| BenchDoc::from_json(&JsonValue::parse(&s).unwrap());
        let head = r#""bench":"b","cpus":2,"quick":false"#;
        let m = r#"{"name":"x","unit":"s","value":1}"#;
        let g = r#"{"metric":"x","op":"<","threshold":1}"#;
        assert!(parse(format!("{{{head},\"metrics\":[{m}],\"gates\":[]}}")).is_ok());
        assert!(parse(format!("{{{head},\"metrics\":[{m}]}}")).is_err());
        assert!(parse(format!("{{{head},\"metrics\":[{m},{m}],\"gates\":[]}}")).is_err());
        assert!(parse(format!("{{{head},\"metrics\":[{m}],\"gates\":[{g}]}}")).is_err());
    }
}

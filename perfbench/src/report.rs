//! The result line: named metrics with units, rendered as one JSON object.

use serde_json::Value;

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, `[A-Za-z0-9_.-]+` starting with a letter or digit.
    pub name: String,
    /// The value as measured (never rounded).
    pub value: f64,
    /// Unit, e.g. `s`, `cycles/s`, `count`.
    pub unit: String,
}

/// The benchmark's verdict for one invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// Whether every correctness check passed.
    pub correct: bool,
    /// Simulation runs attempted.
    pub attempted: u64,
    /// Runs that failed a correctness check.
    pub failed: u64,
    /// Metrics in emission order.
    pub metrics: Vec<Metric>,
}

/// Whether `name` is a legal metric name: 1 to 64 characters from
/// `[A-Za-z0-9_.-]`, the first a letter or digit.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    name.len() <= 64
        && chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

impl Report {
    /// Check the metric set: legal unique names, finite values.
    pub fn validate(&self) -> Result<(), String> {
        for (i, m) in self.metrics.iter().enumerate() {
            if !valid_name(&m.name) {
                return Err(format!("illegal metric name {:?}", m.name));
            }
            if self.metrics[..i].iter().any(|o| o.name == m.name) {
                return Err(format!("metric {} reported twice", m.name));
            }
            if !m.value.is_finite() {
                return Err(format!("metric {} is not finite: {}", m.name, m.value));
            }
        }
        Ok(())
    }

    /// Render as a single-line JSON object. Floats use Rust's shortest
    /// round-trip form, so every digit of the measurement survives.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
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
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// Parse a line produced by [`Report::to_json`].
    pub fn parse(line: &str) -> Result<Self, String> {
        let v: Value = serde_json::from_str(line).map_err(|e| e.to_string())?;
        let field = |k: &str| v.get(k).ok_or_else(|| format!("missing key {k}"));
        let count = |k: &str| match field(k)? {
            Value::U64(n) => Ok(*n),
            other => Err(format!("{k} is not a count: {other:?}")),
        };
        let Value::Bool(correct) = field("correct")? else {
            return Err("correct is not a bool".into());
        };
        let entries = field("metrics")?
            .as_map()
            .ok_or("metrics is not an object")?;
        let metrics = entries
            .iter()
            .map(|(name, body)| {
                let value = match body.get("value") {
                    Some(Value::Null) => Some(f64::NAN),
                    v => v.and_then(Value::as_f64),
                };
                let unit = body.get("unit").and_then(Value::as_str);
                match (value, unit) {
                    (Some(value), Some(unit)) => Ok(Metric {
                        name: name.clone(),
                        value,
                        unit: unit.to_string(),
                    }),
                    _ => Err(format!("metric {name} lacks a numeric value or a unit")),
                }
            })
            .collect::<Result<_, String>>()?;
        Ok(Self {
            correct: *correct,
            attempted: count("attempted")?,
            failed: count("failed")?,
            metrics,
        })
    }
}

/// JSON rendering of a float. JSON has no NaN or infinity, so non-finite
/// values (which fail [`Report::validate`]) become `null` and read back as
/// NaN; integral values keep a `.0` so they read back as floats.
fn json_number(x: f64) -> String {
    if !x.is_finite() {
        return "null".into();
    }
    let s = format!("{x}");
    if s.contains(['.', 'e', 'E']) {
        s
    } else {
        format!("{s}.0")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_follow_the_contract() {
        for ok in ["setup_s", "noc.mwsr.step_ns_p50", "a", "9-lives", "x.Y_z-1"] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in [
            "", "_lead", ".lead", "-lead", "sp ace", "quo\"te", "slash/ed", "é",
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
        assert!(valid_name(&"a".repeat(64)));
        assert!(!valid_name(&"a".repeat(65)));
    }

    #[test]
    fn validate_rejects_duplicates_and_non_finite_values() {
        let m = |name: &str, value| Metric {
            name: name.into(),
            value,
            unit: "s".into(),
        };
        let mut r = Report {
            correct: true,
            attempted: 1,
            failed: 0,
            metrics: vec![m("a", 1.0), m("b", 2.0)],
        };
        assert!(r.validate().is_ok());
        r.metrics.push(m("a", 3.0));
        assert!(r.validate().unwrap_err().contains("twice"));
        r.metrics.pop();
        r.metrics.push(m("c", f64::NAN));
        assert!(r.validate().unwrap_err().contains("finite"));
    }

    #[test]
    fn emitted_line_round_trips() {
        let r = Report {
            correct: true,
            attempted: 42,
            failed: 0,
            metrics: vec![
                Metric {
                    name: "sim_cycles_per_ref".into(),
                    value: 187_654.321_987_654_3,
                    unit: "cycles/ref".into(),
                },
                Metric {
                    name: "setup_s".into(),
                    value: 0.000_812_7,
                    unit: "s".into(),
                },
                Metric {
                    name: "noc.drops".into(),
                    value: 3.0,
                    unit: "count".into(),
                },
                Metric {
                    name: "tiny".into(),
                    value: 1.5e-300,
                    unit: "s".into(),
                },
            ],
        };
        let line = r.to_json();
        assert!(!line.contains('\n'));
        let back = Report::parse(&line).unwrap();
        assert_eq!(back, r);
        for (a, b) in back.metrics.iter().zip(&r.metrics) {
            assert_eq!(a.value.to_bits(), b.value.to_bits(), "{}", a.name);
        }
    }

    #[test]
    fn non_finite_values_still_emit_a_parsable_line() {
        let m = |name: &str, value| Metric {
            name: name.into(),
            value,
            unit: "ratio".into(),
        };
        let r = Report {
            correct: false,
            attempted: 3,
            failed: 1,
            metrics: vec![m("nan", f64::NAN), m("inf", f64::INFINITY), m("ok", 0.5)],
        };
        let line = r.to_json();
        assert!(line.contains("\"nan\": {\"value\": null"), "{line}");
        let back = Report::parse(&line).unwrap();
        assert!(back.metrics[0].value.is_nan());
        assert!(back.metrics[1].value.is_nan());
        assert_eq!(back.metrics[2], r.metrics[2]);
        assert!(back.validate().unwrap_err().contains("finite"));
    }
}

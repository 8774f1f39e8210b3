//! The declarative SLO spec: one threshold rule per line, evaluated
//! against the SLIs in a `pulse.json` document.
//!
//! ```text
//! # comments and blank lines are skipped
//! reject_rate    <= 0.2
//! recovery_max_s <= 40
//! sol_per_kprop  >= 1.0 warn 2.0
//! ```
//!
//! A rule names a metric (a service-level SLI or a per-job SLI — the
//! evaluator looks the name up in both places), a direction, a breach
//! threshold, and an optional tighter `warn` threshold. All thresholds
//! are in *simulated* time/units: the service clock advances only by
//! charged simulated seconds, so an SLO like `recovery_max_s <= 40`
//! means 40 simulated seconds regardless of host speed.

use heron_trace::kv;

/// Rule direction: the SLI must stay below (`<=`) or above (`>=`) the
/// threshold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SloOp {
    /// Value must be `<=` the threshold.
    Le,
    /// Value must be `>=` the threshold.
    Ge,
}

impl SloOp {
    /// The spelling used in specs and reports.
    pub fn symbol(self) -> &'static str {
        match self {
            SloOp::Le => "<=",
            SloOp::Ge => ">=",
        }
    }

    /// Whether `value` violates a bound of this direction.
    pub fn violates(self, value: f64, bound: f64) -> bool {
        match self {
            SloOp::Le => value > bound,
            SloOp::Ge => value < bound,
        }
    }
}

/// One SLO rule.
#[derive(Debug, Clone, PartialEq)]
pub struct SloRule {
    /// SLI name (`reject_rate`, `recovery_max_s`, …).
    pub metric: String,
    /// Direction.
    pub op: SloOp,
    /// Breach threshold.
    pub threshold: f64,
    /// Optional tighter warn threshold.
    pub warn: Option<f64>,
}

/// A parsed SLO spec: the rules in file order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SloSpec {
    /// The rules, in spec order.
    pub rules: Vec<SloRule>,
}

impl SloSpec {
    /// A spec with no rules (everything passes).
    pub fn empty() -> Self {
        SloSpec::default()
    }

    /// Parses a spec document. Lines are read by [`kv::lines`], so
    /// blank lines and `#` comments, whole-line or trailing, are skipped.
    ///
    /// # Errors
    /// A message naming the first malformed line, including a threshold
    /// that is not a finite number (a `NaN` bound never breaches).
    pub fn parse(text: &str) -> Result<Self, String> {
        let rules = kv::lines(text).map(|line| {
            let bad = |message: String| format!("line {}: {message}", line.line);
            let toks: Vec<&str> = line.tokens().collect();
            let (metric, op, threshold, warn) = match toks[..] {
                [m, op, t] => (m, op, t, None),
                [m, op, t, w, v] => (m, op, t, Some((w, v))),
                _ => {
                    return Err(bad(format!(
                        "expected `metric <=|>= value [warn value]`, got `{}`",
                        line.text
                    )))
                }
            };
            let op = match op {
                "<=" => SloOp::Le,
                ">=" => SloOp::Ge,
                other => return Err(bad(format!("unknown operator `{other}`"))),
            };
            let num = |s: &str| match s.parse::<f64>() {
                Ok(x) if x.is_finite() => Ok(x),
                Ok(_) => Err(bad(format!("`{s}` is not a finite number"))),
                Err(_) => Err(bad(format!("`{s}` is not a number"))),
            };
            let threshold = num(threshold)?;
            let warn = match warn {
                None => None,
                Some(("warn", v)) => Some(num(v)?),
                Some((w, v)) => return Err(bad(format!("expected `warn <value>`, got `{w} {v}`"))),
            };
            Ok(SloRule {
                metric: metric.to_string(),
                op,
                threshold,
                warn,
            })
        });
        Ok(SloSpec {
            rules: rules.collect::<Result<_, _>>()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_rules_comments_and_warn_bounds() {
        let spec = SloSpec::parse(
            "\
# service health
reject_rate <= 0.2 # trailing comments are skipped

recovery_max_s <= 40 warn 10
sol_per_kprop >= 1.5
",
        )
        .expect("parses");
        assert_eq!(spec.rules.len(), 3);
        assert_eq!(spec.rules[0].metric, "reject_rate");
        assert_eq!(spec.rules[0].op, SloOp::Le);
        assert_eq!(spec.rules[1].warn, Some(10.0));
        assert_eq!(spec.rules[2].op, SloOp::Ge);
        assert!(SloOp::Le.violates(0.3, 0.2));
        assert!(!SloOp::Le.violates(0.2, 0.2));
        assert!(SloOp::Ge.violates(1.0, 1.5));
    }

    #[test]
    fn rejects_malformed_lines_with_line_numbers() {
        for (bad, want) in [
            ("metric", "line 1"),
            ("m < 1", "unknown operator"),
            ("m <= x", "not a number"),
            ("m <= 1 alert 2", "expected `warn"),
            ("m <= NaN", "not a finite number"),
            ("m <= 1 warn NaN", "not a finite number"),
            ("m >= inf", "not a finite number"),
            ("ok <= 1 # fine\nm <= -inf", "line 2"),
        ] {
            let err = SloSpec::parse(bad).unwrap_err();
            assert!(err.contains(want), "{bad} → {err}");
        }
    }
}

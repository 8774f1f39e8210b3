//! The `heron-audit-v1` artifact: a schema-versioned, byte-deterministic
//! `audit.json` (the pulse/insight pattern), plus its structural
//! validator and the human-readable summary `heron_audit` prints.
//!
//! Determinism contract: the document is a pure function of
//! `(space, AuditConfig)` — no wall-clock, no live trace counters —
//! rendered with [`heron_trace::Json::render_pretty`] in fixed member
//! order, so same-seed runs are byte-identical.

use heron_trace::{Cursor, Json};

use crate::over::OverWitness;
use crate::under::UnderWitness;

/// The artifact schema identifier.
pub const AUDIT_SCHEMA: &str = "heron-audit-v1";

/// The rule rows the per-rule attribution table always carries.
pub const RULE_IDS: [&str; 7] = ["C1", "C2", "C3", "C4", "C5", "C6", "-"];

/// The assembled audit result.
#[derive(Debug, Clone)]
pub struct AuditReport {
    /// Workload label.
    pub workload: String,
    /// Platform name.
    pub dla: String,
    /// Audit seed.
    pub seed: u64,
    /// Configured under-probe sample target.
    pub samples_cfg: usize,
    /// Configured over-probe anchor count.
    pub anchors_cfg: usize,
    /// Configured per-tunable perturbation cap.
    pub max_domain_cfg: usize,
    /// Distinct CSP samples drawn by the under-probe.
    pub distinct: usize,
    /// Oracle-invalid samples (including ones beyond the storage cap).
    pub invalid_total: u64,
    /// Of those, deterministic boundary-probe points.
    pub boundary_invalid: u64,
    /// Single-knob perturbations the over-probe evaluated.
    pub perturbations: u64,
    /// Oracle-valid anchors the over-probe used.
    pub anchors_used: usize,
    /// The space is root-infeasible (the extreme over-constraint bug).
    pub infeasible: bool,
    /// Greedy-deletion removal set for an infeasible space.
    pub infeasible_removal: Vec<(usize, String)>,
    /// Minimized under-constraint witnesses.
    pub under: Vec<UnderWitness>,
    /// Confirmed over-constraint witnesses.
    pub over: Vec<OverWitness>,
}

impl AuditReport {
    /// Total confirmed findings (`--check` fails when non-zero).
    pub fn confirmed(&self) -> usize {
        self.under.len() + self.over.len() + usize::from(self.infeasible)
    }

    /// `true` iff the audit found nothing.
    pub fn clean(&self) -> bool {
        self.confirmed() == 0 && self.invalid_total == 0
    }

    /// Per-rule attribution counts in [`RULE_IDS`] order:
    /// `(rule, under, over)`.
    pub fn rule_counts(&self) -> Vec<(&'static str, u64, u64)> {
        RULE_IDS
            .iter()
            .map(|&rule| {
                let u = self.under.iter().filter(|w| w.rule == rule).count() as u64;
                let o = self
                    .over
                    .iter()
                    .filter(|w| w.blocking.first().map(|b| b.rule) == Some(rule))
                    .count() as u64;
                (rule, u, o)
            })
            .collect()
    }

    /// Builds the `heron-audit-v1` document (see the module docs for the
    /// determinism contract).
    pub fn to_json(&self) -> Json {
        let num = |v: i64| {
            debug_assert!(v.unsigned_abs() <= 1 << 53, "value {v} loses f64 precision");
            Json::Num(v as f64)
        };
        let unum = |v: u64| Json::Num(v as f64);
        let hex = |v: u64| Json::Str(format!("{v:#018x}"));
        let removal_arr = |entries: &[(usize, String)]| {
            Json::Arr(
                entries
                    .iter()
                    .map(|(i, c)| {
                        Json::Obj(vec![
                            ("index".into(), unum(*i as u64)),
                            ("constraint".into(), Json::Str(c.clone())),
                        ])
                    })
                    .collect(),
            )
        };
        let rules = Json::Arr(
            self.rule_counts()
                .into_iter()
                .map(|(rule, u, o)| {
                    Json::Obj(vec![
                        ("rule".into(), Json::Str(rule.into())),
                        ("under".into(), unum(u)),
                        ("over".into(), unum(o)),
                    ])
                })
                .collect(),
        );
        let under = Json::Arr(
            self.under
                .iter()
                .map(|w| {
                    Json::Obj(vec![
                        ("fingerprint".into(), hex(w.solution.fingerprint())),
                        ("tag".into(), Json::Str(w.tag.clone())),
                        ("rule".into(), Json::Str(w.rule.into())),
                        ("message".into(), Json::Str(w.message.clone())),
                        (
                            "diff".into(),
                            Json::Arr(
                                w.diff
                                    .iter()
                                    .map(|d| {
                                        Json::Obj(vec![
                                            ("var".into(), Json::Str(d.var.clone())),
                                            ("value".into(), num(d.value)),
                                            ("reference".into(), num(d.reference)),
                                        ])
                                    })
                                    .collect(),
                            ),
                        ),
                        (
                            "values".into(),
                            Json::Arr(w.solution.values().iter().map(|&v| num(v)).collect()),
                        ),
                    ])
                })
                .collect(),
        );
        let over = Json::Arr(
            self.over
                .iter()
                .map(|w| {
                    Json::Obj(vec![
                        ("var".into(), Json::Str(w.var.clone())),
                        ("value".into(), num(w.value)),
                        ("anchor".into(), hex(w.anchor)),
                        (
                            "blocking".into(),
                            Json::Arr(
                                w.blocking
                                    .iter()
                                    .map(|b| {
                                        Json::Obj(vec![
                                            ("index".into(), unum(b.index as u64)),
                                            ("constraint".into(), Json::Str(b.constraint.clone())),
                                            ("rule".into(), Json::Str(b.rule.into())),
                                        ])
                                    })
                                    .collect(),
                            ),
                        ),
                        ("diagnosed".into(), Json::Bool(w.diagnosed)),
                        ("removal".into(), removal_arr(&w.removal)),
                        (
                            "values".into(),
                            Json::Arr(w.solution.values().iter().map(|&v| num(v)).collect()),
                        ),
                    ])
                })
                .collect(),
        );
        Json::Obj(vec![
            ("schema".into(), Json::Str(AUDIT_SCHEMA.into())),
            ("workload".into(), Json::Str(self.workload.clone())),
            ("dla".into(), Json::Str(self.dla.clone())),
            ("seed".into(), unum(self.seed)),
            (
                "config".into(),
                Json::Obj(vec![
                    ("samples".into(), unum(self.samples_cfg as u64)),
                    ("anchors".into(), unum(self.anchors_cfg as u64)),
                    ("max_domain".into(), unum(self.max_domain_cfg as u64)),
                ]),
            ),
            (
                "summary".into(),
                Json::Obj(vec![
                    ("distinct_samples".into(), unum(self.distinct as u64)),
                    ("invalid_samples".into(), unum(self.invalid_total)),
                    ("boundary_invalid".into(), unum(self.boundary_invalid)),
                    ("under_witnesses".into(), unum(self.under.len() as u64)),
                    ("over_witnesses".into(), unum(self.over.len() as u64)),
                    ("perturbations".into(), unum(self.perturbations)),
                    ("anchors".into(), unum(self.anchors_used as u64)),
                    ("infeasible".into(), Json::Bool(self.infeasible)),
                    ("confirmed".into(), unum(self.confirmed() as u64)),
                    ("clean".into(), Json::Bool(self.clean())),
                ]),
            ),
            ("rules".into(), rules),
            ("under".into(), under),
            ("over".into(), over),
            (
                "infeasible_removal".into(),
                removal_arr(&self.infeasible_removal),
            ),
        ])
    }

    /// Human-readable summary (the `heron_audit` console output).
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "audit: `{}` on {} (seed {})\n",
            self.workload, self.dla, self.seed
        ));
        if self.infeasible {
            out.push_str("  SPACE IS ROOT-INFEASIBLE (over-constrained to emptiness)\n");
            for (i, c) in &self.infeasible_removal {
                out.push_str(&format!("    remove #{i}: {c}\n"));
            }
            return out;
        }
        out.push_str(&format!(
            "  under-probe: {} distinct samples, {} sim-invalid ({} at the boundary, {} witnesses kept)\n",
            self.distinct,
            self.invalid_total,
            self.boundary_invalid,
            self.under.len()
        ));
        out.push_str(&format!(
            "  over-probe: {} perturbations from {} anchors, {} rejected-but-valid\n",
            self.perturbations,
            self.anchors_used,
            self.over.len()
        ));
        for (rule, u, o) in self.rule_counts() {
            if u + o > 0 {
                out.push_str(&format!("  rule {rule}: under {u}, over {o}\n"));
            }
        }
        for w in &self.under {
            out.push_str(&format!("  under[{}]: {}\n", w.tag, w.message));
            for d in &w.diff {
                out.push_str(&format!(
                    "    {} = {} (valid reference: {})\n",
                    d.var, d.value, d.reference
                ));
            }
        }
        for w in &self.over {
            out.push_str(&format!(
                "  over[{} -> {}]: valid schedule rejected; blocked by {} rule(s)\n",
                w.var,
                w.value,
                w.blocking.len()
            ));
            for b in &w.blocking {
                out.push_str(&format!("    #{} {} [{}]\n", b.index, b.constraint, b.rule));
            }
        }
        out.push_str(if self.clean() {
            "  verdict: CLEAN\n"
        } else {
            "  verdict: WITNESSES FOUND\n"
        });
        out
    }
}

/// A removal set: `{index, constraint}` entries.
fn check_removal(parent: &Cursor, key: &str) -> Result<(), String> {
    for entry in parent.arr(key)?.items() {
        entry.u64("index")?;
        entry.str("constraint")?;
    }
    Ok(())
}

/// A witness's full assignment: one number per variable.
fn check_values(witness: &Cursor) -> Result<(), String> {
    let values = witness.arr("values")?;
    let n = values.items().len();
    values.each(0..n, Cursor::num)
}

/// Validates the structure of an `audit.json` document.
///
/// # Errors
/// A message naming the offending JSON path.
pub fn validate_audit(doc: &Json) -> Result<(), String> {
    let doc = Cursor::new(doc, "$");
    doc.one_of("schema", &[AUDIT_SCHEMA])?;
    doc.each(["workload", "dla"], Cursor::str)?;
    doc.u64("seed")?;
    doc.get("config")?
        .each(["samples", "anchors", "max_domain"], Cursor::u64)?;
    let summary = doc.get("summary")?;
    summary.each(
        [
            "distinct_samples",
            "invalid_samples",
            "boundary_invalid",
            "under_witnesses",
            "over_witnesses",
            "perturbations",
            "anchors",
            "confirmed",
        ],
        Cursor::u64,
    )?;
    summary.bool("infeasible")?;
    summary.bool("clean")?;
    let rules = doc.arr("rules")?;
    if rules.items().len() != RULE_IDS.len() {
        return Err(rules.fail(format!(
            "expected {} rows, found {}",
            RULE_IDS.len(),
            rules.items().len()
        )));
    }
    for (row, id) in rules.items().zip(RULE_IDS) {
        row.one_of("rule", &[id])?;
        row.each(["under", "over"], Cursor::u64)?;
    }
    for w in doc.arr("under")?.items() {
        w.each(["fingerprint", "tag", "rule", "message"], Cursor::str)?;
        for d in w.arr("diff")?.items() {
            d.str("var")?;
            d.each(["value", "reference"], Cursor::num)?;
        }
        check_values(&w)?;
    }
    for w in doc.arr("over")?.items() {
        w.each(["var", "anchor"], Cursor::str)?;
        w.num("value")?;
        w.bool("diagnosed")?;
        for b in w.arr("blocking")?.items() {
            b.u64("index")?;
            b.each(["constraint", "rule"], Cursor::str)?;
        }
        check_removal(&w, "removal")?;
        check_values(&w)?;
    }
    check_removal(&doc, "infeasible_removal")
}

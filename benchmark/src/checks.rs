//! Output checks and the operation ledger behind `attempted` / `failed`.
//!
//! An *operation* is one budgeted trial, one service job, or one output
//! check. The paper's guarantee is that every CGA offspring is valid, so
//! the baseline number of failed operations is zero on every workload.

use std::collections::BTreeMap;

use heron_serve::chaos::verify_run;
use heron_serve::{JobSpec, Supervisor};
use heron_trace::json::{self, Json};

use crate::workloads::{Outcome, TuneUnit};

/// The committed score snapshot, beside the benchmark's directory. Read only.
const COMMITTED_SCORES: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCH_heron.json");

/// Operations attempted and failed so far, with a line per failure.
///
/// An output check is one operation however many units or passes it was
/// applied to, so `attempted` does not depend on how many passes fitted
/// into the run.
#[derive(Debug, Default)]
pub struct Checks {
    budgeted: u64,
    budget_failed: u64,
    /// Output checks by name; `false` once any application failed.
    verdicts: BTreeMap<&'static str, bool>,
    pub failures: Vec<String>,
}

impl Checks {
    /// Records `budget` budgeted operations of which `failed` failed.
    pub fn operations(&mut self, budget: u64, failed: u64) {
        self.budgeted += budget;
        self.budget_failed += failed;
        if failed > 0 {
            self.failures
                .push(format!("{failed} of {budget} budgeted operations failed"));
        }
    }

    /// Records one application of the output check `what`; `detail` is only
    /// rendered on failure.
    pub fn check(&mut self, what: &'static str, ok: bool, detail: impl FnOnce() -> String) {
        *self.verdicts.entry(what).or_insert(true) &= ok;
        if !ok {
            self.failures.push(format!("{what}: {}", detail()));
        }
    }

    /// Operations attempted: budgeted ones plus distinct output checks.
    pub fn attempted(&self) -> u64 {
        self.budgeted + self.verdicts.len() as u64
    }

    /// Operations failed.
    pub fn failed(&self) -> u64 {
        self.budget_failed + self.verdicts.values().filter(|ok| !**ok).count() as u64
    }

    /// Failed operations as a share of those attempted.
    pub fn failed_share(&self) -> f64 {
        crate::stats::ratio(self.failed() as f64, self.attempted() as f64)
    }
}

/// The committed snapshot's row for `unit`, when the snapshot was taken
/// with this unit's seed, budget and platform (it covers v100 only).
fn committed_row(doc: &Json, unit: &TuneUnit) -> Option<Json> {
    let same_run = doc.get("seed")?.as_u64()? == unit.seed
        && doc.get("trials")?.as_u64()? == unit.trials as u64
        && unit.dla.name == heron_dla::v100().name;
    if !same_run {
        return None;
    }
    doc.get("workloads")?
        .as_arr()?
        .iter()
        .find(|w| w.get("name").and_then(Json::as_str) == Some(unit.workload.name.as_str()))
        .cloned()
}

/// The committed row for `unit`, if the snapshot is readable and covers it.
pub fn committed_scores(unit: &TuneUnit) -> Option<Json> {
    let text = std::fs::read_to_string(COMMITTED_SCORES).ok()?;
    committed_row(&json::parse(&text).ok()?, unit)
}

/// Where the committed snapshot covers `unit`, its best score must match
/// bit for bit: an independent record of what this tune used to find.
pub fn against_committed_scores(unit: &TuneUnit, outcome: &Outcome, checks: &mut Checks) {
    let Some(row) = committed_scores(unit) else {
        return;
    };
    let committed = row.get("best_gflops").and_then(Json::as_f64);
    checks.check(
        "best score equals the committed BENCH_heron.json",
        committed.map(f64::to_bits) == Some(outcome.quality_gflops.to_bits()),
        || {
            format!(
                "{}: committed {committed:?}, measured {}",
                unit.workload.name, outcome.quality_gflops
            )
        },
    );
}

/// A finished service run must equal uninterrupted reference runs of the
/// same jobs byte for byte, with no job lost, double-run or unsettled.
pub fn verify_service(sup: &Supervisor, specs: &[JobSpec], checks: &mut Checks) {
    let verdict = verify_run(sup, specs);
    checks.check(
        "service run equals uninterrupted reference runs",
        matches!(&verdict, Ok(ids) if ids.len() == specs.len()),
        || format!("{verdict:?}"),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{units, Unit, REFERENCE_SEED};

    fn tensorcore_unit(smoke: bool) -> TuneUnit {
        units("tune_tensorcore", 7, smoke)
            .unwrap()
            .into_iter()
            .find_map(|u| match u {
                Unit::Tune(t) if t.workload.name == "gemm-512" => Some(*t),
                _ => None,
            })
            .expect("gemm-512 is a tensorcore unit")
    }

    #[test]
    fn failures_are_counted_against_attempts() {
        let mut c = Checks::default();
        c.operations(300, 0);
        c.check("fine", true, || unreachable!());
        c.check("broken", false, || "why".to_string());
        assert_eq!((c.attempted(), c.failed()), (302, 1));
        assert_eq!(c.failures, vec!["broken: why".to_string()]);
        assert!((c.failed_share() - 1.0 / 302.0).abs() < 1e-15);
        assert_eq!(Checks::default().failed_share(), 0.0);
        // Applying a check again, on another pass or unit, is the same
        // operation; one failed application fails it for good.
        c.check("fine", false, || "later".to_string());
        c.check("fine", true, || unreachable!());
        assert_eq!((c.attempted(), c.failed()), (302, 2));
    }

    #[test]
    fn the_snapshot_only_covers_its_own_seed_and_budget() {
        let doc = json::parse(
            r#"{"seed":2023,"trials":300,"workloads":[{"name":"gemm-512","best_gflops":1.5}]}"#,
        )
        .unwrap();
        let unit = tensorcore_unit(false);
        assert_eq!(unit.seed, REFERENCE_SEED);
        let covered = committed_row(&doc, &unit);
        assert_eq!(
            covered.and_then(|r| r.get("best_gflops").and_then(Json::as_f64)),
            Some(1.5)
        );
        let reseeded = TuneUnit { seed: 7, ..unit };
        assert!(committed_row(&doc, &reseeded).is_none());
        assert!(committed_row(&doc, &tensorcore_unit(true)).is_none());
    }
}

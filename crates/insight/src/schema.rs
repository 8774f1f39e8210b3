//! Structural schema validator for `insight.json` (`heron-insight-v1`).
//!
//! `heron_cli --insight-out` runs it on every document before writing:
//! it checks member presence and types, array element shapes, and
//! cross-field invariants (regret length = rounds, coverage in `[0,1]`,
//! …).

use heron_trace::{Cursor, Json};

/// Validates an `insight.json` document against the
/// `heron-insight-v1` schema.
///
/// # Errors
/// The first structural problem found, naming its JSON path.
pub fn validate_insight(doc: &Json) -> Result<(), String> {
    let doc = Cursor::new(doc, "$");
    let meta = doc.get("meta")?;
    meta.one_of("schema", &["heron-insight-v1"])?;
    meta.each(["workload", "dla"], Cursor::str)?;
    meta.each(["seed", "trials"], Cursor::num)?;
    let rounds_declared = meta.u64("rounds")?;
    let per_round = |arr: &Cursor| {
        let n = arr.items().len();
        if n as u64 == rounds_declared {
            return Ok(n);
        }
        Err(arr.fail(format!(
            "{n} entries, but $.meta.rounds is {rounds_declared}"
        )))
    };

    let conv = doc.get("convergence")?;
    conv.each(["final_best_gflops", "stalled_rounds"], Cursor::num)?;
    conv.num_or_null("convergence_round")?;
    let regret = conv.arr("regret")?;
    for i in 0..per_round(&regret)? {
        let r = regret.num(i)?;
        if r < -1e-9 {
            return Err(regret.get(i)?.fail(format!("{r} is negative")));
        }
    }
    for w in conv.arr("stagnation_windows")?.items() {
        w.each(["start", "len"], Cursor::num)?;
    }

    let search = doc.get("search")?;
    search.each(
        [
            "entropy_first_bits",
            "entropy_last_bits",
            "entropy_min_bits",
            "diversity_first",
            "diversity_last",
            "explore_fraction",
        ],
        Cursor::num,
    )?;
    for v in search.arr("coverage")?.items() {
        v.str("name")?;
        v.each(["domain_size", "seen"], Cursor::num)?;
        let c = v.num("coverage")?;
        if !(0.0..=1.0).contains(&c) {
            return Err(v.get("coverage")?.fail(format!("{c} outside [0, 1]")));
        }
    }

    let model = doc.get("model")?;
    model.num("refits")?;
    model.each(
        [
            "batch_rank_accuracy_mean",
            "batch_rank_accuracy_min",
            "batch_spearman_mean",
            "batch_spearman_min",
            "importance_churn_mean",
        ],
        Cursor::num_or_null,
    )?;
    for d in model.arr("importance_drift")?.items() {
        d.each(["round", "jaccard", "l1"], Cursor::num)?;
    }
    for f in model.arr("refit_history")?.items() {
        f.each(
            ["round", "samples", "train_rank_accuracy", "train_spearman"],
            Cursor::num,
        )?;
        for t in f.arr("top_importance")?.items() {
            t.each(["feature", "importance"], Cursor::num)?;
        }
    }

    doc.get("constraints")?.each(SOLVER_PRESSURE, Cursor::num)?;
    let rounds = doc.arr("rounds")?;
    per_round(&rounds)?;
    for (i, r) in rounds.items().enumerate() {
        let round = r.u64("round")?;
        if round != i as u64 {
            return Err(r.get("round")?.fail(format!("expected {i}, found {round}")));
        }
        r.each(
            [
                "trials_done",
                "best_gflops",
                "batch_best_gflops",
                "batch_mean_gflops",
                "batch_size",
                "exploit_picks",
                "explore_picks",
                "population",
                "distinct_solutions",
                "diversity",
                "entropy_bits",
            ],
            Cursor::num,
        )?;
        r.each(SOLVER_PRESSURE, Cursor::num)?;
        r.each(
            ["batch_rank_accuracy", "batch_spearman"],
            Cursor::num_or_null,
        )?;
        r.bool("stalled")?;
    }

    for w in doc.arr("warnings")?.items() {
        w.each(["code", "message"], Cursor::str)?;
    }
    Ok(())
}

/// The constraint-pressure and solver-work counters carried both per
/// round and as run totals.
const SOLVER_PRESSURE: [&str; 8] = [
    "repaired_offspring",
    "relaxed_constraints",
    "fallback_samples",
    "solver_attempts",
    "solver_propagations",
    "solver_wipeouts",
    "solver_max_trail",
    "solver_incremental",
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{analyze, RoundRecord, SearchLog};

    #[test]
    fn produced_insight_json_validates() {
        let mut log = SearchLog::new("w", "d", 5, 4);
        log.set_vars(vec![("a".to_string(), 4)]);
        log.observe_assignment(&[1]);
        for i in 0..4u32 {
            let mut r = RoundRecord::new(i);
            r.best_gflops = 10.0 + f64::from(i);
            r.trials_done = (i + 1) * 2;
            r.batch_size = 2;
            r.population = 4;
            r.distinct_solutions = 3;
            r.diversity = 0.75;
            r.entropy_bits = 1.2;
            log.push_round(r);
        }
        let doc = analyze(&log).to_json(&log);
        validate_insight(&doc).expect("valid");
        // Reparsed text also validates (what verify.sh does).
        let reparsed = heron_trace::json::parse(&doc.render_pretty()).unwrap();
        validate_insight(&reparsed).expect("valid after roundtrip");
    }

    #[test]
    fn insight_mutations_fail() {
        let mut log = SearchLog::new("w", "d", 5, 4);
        let mut rec = RoundRecord::new(0);
        rec.batch_size = 1;
        log.push_round(rec);
        let doc = analyze(&log).to_json(&log);
        let text = doc.render();
        for (from, to, path) in [
            (
                "\"schema\":\"heron-insight-v1\"",
                "\"schema\":\"v0\"",
                "$.meta.schema: ",
            ),
            (
                "\"regret\":[0]",
                "\"regret\":[]",
                "$.convergence.regret: 0 entries",
            ),
            (
                "\"stalled\":false",
                "\"stalled\":0",
                "$.rounds[0].stalled: ",
            ),
        ] {
            let mutated = text.replace(from, to);
            assert_ne!(mutated, text, "mutation `{from}` did not apply");
            let parsed = heron_trace::json::parse(&mutated).unwrap();
            let err = validate_insight(&parsed).unwrap_err();
            assert!(err.starts_with(path), "want `{path}…`, got `{err}`");
        }
    }
}

//! The post-run analyzer: turns a [`SearchLog`] into a deterministic
//! machine-readable `insight.json` and a human text report.

use heron_trace::Json;

use crate::log::SearchLog;

/// How close (relative) to the final best a round must get to count as
/// "converged".
pub const CONVERGENCE_TOLERANCE: f64 = 0.01;
/// Minimum run of non-improving rounds reported as a stagnation window.
pub const STAGNATION_WINDOW: u32 = 5;
/// Mean batch rank accuracy below this (with enough samples) triggers
/// the model-miscalibration warning — 0.5 is a coin flip.
pub const MISCALIBRATION_ACCURACY: f64 = 0.55;
/// Mean Jaccard distance between consecutive top-k importance sets
/// above this triggers the importance-churn warning.
pub const CHURN_JACCARD: f64 = 0.5;
/// Final entropy below this fraction of the initial entropy triggers
/// the diversity-collapse warning.
pub const DIVERSITY_COLLAPSE_RATIO: f64 = 0.25;

/// A deterministic analyzer warning.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Warning {
    /// Stable machine-readable code (`model-miscalibrated`,
    /// `importance-churn`, `diversity-collapse`, `stagnation`).
    pub code: String,
    /// Human-readable explanation with the numbers that tripped it.
    pub message: String,
}

/// Importance drift between two consecutive refits.
#[derive(Debug, Clone, PartialEq)]
pub struct DriftRecord {
    /// Round of the later refit.
    pub round: u32,
    /// Jaccard *distance* (1 − |∩|/|∪|) between the top-k feature sets.
    pub jaccard: f64,
    /// L1 distance between the importance vectors over the union.
    pub l1: f64,
}

/// The analyzer's computed summary.
#[derive(Debug, Clone, PartialEq)]
pub struct InsightReport {
    /// Number of recorded rounds.
    pub rounds: usize,
    /// Measured trials at the end of the run.
    pub trials: u32,
    /// Final best score (GFLOPS).
    pub final_best: f64,
    /// First round whose best-so-far is within
    /// [`CONVERGENCE_TOLERANCE`] of the final best.
    pub convergence_round: Option<u32>,
    /// Per-round regret: `final_best − best_so_far(round)`.
    pub regret: Vec<f64>,
    /// Maximal `(start, len)` runs of ≥ [`STAGNATION_WINDOW`] rounds
    /// without best-so-far improvement.
    pub stagnation_windows: Vec<(u32, u32)>,
    /// Population entropy (bits): first / last / minimum round value.
    pub entropy_first: f64,
    /// See [`InsightReport::entropy_first`].
    pub entropy_last: f64,
    /// See [`InsightReport::entropy_first`].
    pub entropy_min: f64,
    /// Population diversity: first and last round value.
    pub diversity_first: f64,
    /// See [`InsightReport::diversity_first`].
    pub diversity_last: f64,
    /// Fraction of ε-greedy picks that explored (uniform random).
    pub explore_fraction: f64,
    /// Mean / min per-batch pairwise rank accuracy (rounds that had a
    /// fitted model).
    pub batch_accuracy_mean: Option<f64>,
    /// See [`InsightReport::batch_accuracy_mean`].
    pub batch_accuracy_min: Option<f64>,
    /// Mean / min per-batch Spearman ρ.
    pub batch_spearman_mean: Option<f64>,
    /// See [`InsightReport::batch_spearman_mean`].
    pub batch_spearman_min: Option<f64>,
    /// Drift between consecutive refit importance snapshots.
    pub importance_drift: Vec<DriftRecord>,
    /// Mean Jaccard distance across [`InsightReport::importance_drift`].
    pub importance_churn_mean: Option<f64>,
    /// Σ repaired offspring across rounds.
    pub repaired_offspring: u64,
    /// Σ relaxed constraints across rounds.
    pub relaxed_constraints: u64,
    /// Σ fallback samples across rounds.
    pub fallback_samples: u64,
    /// Σ RandSAT attempts / propagations / wipeouts across rounds.
    pub solver_attempts: u64,
    /// See [`InsightReport::solver_attempts`].
    pub solver_propagations: u64,
    /// See [`InsightReport::solver_attempts`].
    pub solver_wipeouts: u64,
    /// Deepest solver trail (undo-stack) depth across rounds.
    pub solver_max_trail: u64,
    /// Σ incremental (pinned) offspring re-solves across rounds.
    pub solver_incremental: u64,
    /// Rounds that ended stalled.
    pub stalled_rounds: u32,
    /// Deterministic analyzer warnings.
    pub warnings: Vec<Warning>,
}

/// Analyzes a search log.
pub fn analyze(log: &SearchLog) -> InsightReport {
    let rounds = &log.rounds;
    let final_best = log.final_best();
    let trials = rounds.last().map_or(0, |r| r.trials_done);

    let convergence_round = rounds
        .iter()
        .find(|r| r.best_gflops >= final_best * (1.0 - CONVERGENCE_TOLERANCE))
        .map(|r| r.round);

    let regret: Vec<f64> = rounds.iter().map(|r| final_best - r.best_gflops).collect();

    // Stagnation: maximal runs of rounds whose best-so-far does not
    // improve on the previous round's.
    let mut stagnation_windows = Vec::new();
    let mut run_start: Option<u32> = None;
    let mut run_len = 0u32;
    for w in rounds.windows(2) {
        if w[1].best_gflops <= w[0].best_gflops {
            if run_start.is_none() {
                run_start = Some(w[1].round);
                run_len = 0;
            }
            run_len += 1;
        } else if let Some(start) = run_start.take() {
            if run_len >= STAGNATION_WINDOW {
                stagnation_windows.push((start, run_len));
            }
        }
    }
    if let Some(start) = run_start {
        if run_len >= STAGNATION_WINDOW {
            stagnation_windows.push((start, run_len));
        }
    }

    // Entropy / diversity trajectory over rounds that had a population.
    let populated: Vec<_> = rounds.iter().filter(|r| r.population > 0).collect();
    let entropy_first = populated.first().map_or(0.0, |r| r.entropy_bits);
    let entropy_last = populated.last().map_or(0.0, |r| r.entropy_bits);
    let entropy_min = populated
        .iter()
        .map(|r| r.entropy_bits)
        .fold(f64::INFINITY, f64::min);
    let entropy_min = if entropy_min.is_finite() {
        entropy_min
    } else {
        0.0
    };
    let diversity_first = populated.first().map_or(0.0, |r| r.diversity);
    let diversity_last = populated.last().map_or(0.0, |r| r.diversity);

    let explore: u64 = rounds.iter().map(|r| u64::from(r.explore_picks)).sum();
    let exploit: u64 = rounds.iter().map(|r| u64::from(r.exploit_picks)).sum();
    let explore_fraction = if explore + exploit == 0 {
        0.0
    } else {
        explore as f64 / (explore + exploit) as f64
    };

    let accs: Vec<f64> = rounds
        .iter()
        .filter_map(|r| r.batch_rank_accuracy)
        .collect();
    let rhos: Vec<f64> = rounds.iter().filter_map(|r| r.batch_spearman).collect();
    let mean = |v: &[f64]| -> Option<f64> {
        if v.is_empty() {
            None
        } else {
            Some(v.iter().sum::<f64>() / v.len() as f64)
        }
    };
    let min = |v: &[f64]| -> Option<f64> { v.iter().copied().reduce(f64::min) };

    // Importance drift between consecutive refits.
    let mut importance_drift = Vec::new();
    for pair in log.refits.windows(2) {
        let (a, b) = (&pair[0], &pair[1]);
        importance_drift.push(DriftRecord {
            round: b.round,
            jaccard: jaccard_distance(&a.top_importance, &b.top_importance),
            l1: l1_distance(&a.top_importance, &b.top_importance),
        });
    }
    let importance_churn_mean = mean(
        &importance_drift
            .iter()
            .map(|d| d.jaccard)
            .collect::<Vec<_>>(),
    );

    let sum32 =
        |f: fn(&crate::RoundRecord) -> u32| -> u64 { rounds.iter().map(|r| u64::from(f(r))).sum() };
    let sum64 = |f: fn(&crate::RoundRecord) -> u64| -> u64 { rounds.iter().map(f).sum() };

    let mut report = InsightReport {
        rounds: rounds.len(),
        trials,
        final_best,
        convergence_round,
        regret,
        stagnation_windows,
        entropy_first,
        entropy_last,
        entropy_min,
        diversity_first,
        diversity_last,
        explore_fraction,
        batch_accuracy_mean: mean(&accs),
        batch_accuracy_min: min(&accs),
        batch_spearman_mean: mean(&rhos),
        batch_spearman_min: min(&rhos),
        importance_drift,
        importance_churn_mean,
        repaired_offspring: sum32(|r| r.repaired_offspring),
        relaxed_constraints: sum32(|r| r.relaxed_constraints),
        fallback_samples: sum32(|r| r.fallback_samples),
        solver_attempts: sum64(|r| r.solver_attempts),
        solver_propagations: sum64(|r| r.solver_propagations),
        solver_wipeouts: sum64(|r| r.solver_wipeouts),
        solver_max_trail: rounds.iter().map(|r| r.solver_max_trail).max().unwrap_or(0),
        solver_incremental: sum64(|r| r.solver_incremental),
        stalled_rounds: rounds.iter().filter(|r| r.stalled).count() as u32,
        warnings: Vec::new(),
    };
    report.warnings = warnings_for(&report);
    report
}

fn warnings_for(r: &InsightReport) -> Vec<Warning> {
    let mut out = Vec::new();
    if let Some(acc) = r.batch_accuracy_mean {
        let samples = r.regret.len(); // upper bound; gate on measured batches
        if samples >= 3 && acc < MISCALIBRATION_ACCURACY {
            out.push(Warning {
                code: "model-miscalibrated".to_string(),
                message: format!(
                    "mean per-batch rank accuracy {acc:.3} is below {MISCALIBRATION_ACCURACY} — \
                     the cost model barely beats a coin flip on fresh measurements"
                ),
            });
        }
    }
    if let Some(churn) = r.importance_churn_mean {
        if r.importance_drift.len() >= 3 && churn > CHURN_JACCARD {
            out.push(Warning {
                code: "importance-churn".to_string(),
                message: format!(
                    "mean top-k importance Jaccard distance {churn:.3} exceeds {CHURN_JACCARD} — \
                     the model keeps changing its mind about which variables matter"
                ),
            });
        }
    }
    if r.entropy_first > 0.0 && r.entropy_last < r.entropy_first * DIVERSITY_COLLAPSE_RATIO {
        out.push(Warning {
            code: "diversity-collapse".to_string(),
            message: format!(
                "population entropy collapsed from {:.3} to {:.3} bits (ratio below {})",
                r.entropy_first, r.entropy_last, DIVERSITY_COLLAPSE_RATIO
            ),
        });
    }
    for &(start, len) in &r.stagnation_windows {
        out.push(Warning {
            code: "stagnation".to_string(),
            message: format!(
                "no best-so-far improvement for {len} rounds starting at round {start}"
            ),
        });
    }
    out
}

fn jaccard_distance(a: &[(u32, f64)], b: &[(u32, f64)]) -> f64 {
    use std::collections::BTreeSet;
    let sa: BTreeSet<u32> = a.iter().map(|(i, _)| *i).collect();
    let sb: BTreeSet<u32> = b.iter().map(|(i, _)| *i).collect();
    let union = sa.union(&sb).count();
    if union == 0 {
        return 0.0;
    }
    let inter = sa.intersection(&sb).count();
    1.0 - inter as f64 / union as f64
}

fn l1_distance(a: &[(u32, f64)], b: &[(u32, f64)]) -> f64 {
    use std::collections::BTreeMap;
    let mut m: BTreeMap<u32, (f64, f64)> = BTreeMap::new();
    for (i, v) in a {
        m.entry(*i).or_insert((0.0, 0.0)).0 = *v;
    }
    for (i, v) in b {
        m.entry(*i).or_insert((0.0, 0.0)).1 = *v;
    }
    m.values().map(|(x, y)| (x - y).abs()).sum()
}

impl InsightReport {
    /// Builds the full deterministic `insight.json` document. `log` must
    /// be the same log this report was computed from.
    pub fn to_json(&self, log: &SearchLog) -> Json {
        let num = Json::Num;
        let opt = |x: Option<f64>| x.map_or(Json::Null, Json::Num);
        let meta = Json::Obj(vec![
            ("schema".into(), Json::Str("heron-insight-v1".into())),
            ("workload".into(), Json::Str(log.workload.clone())),
            ("dla".into(), Json::Str(log.dla.clone())),
            ("seed".into(), num(log.seed as f64)),
            ("rounds".into(), num(self.rounds as f64)),
            ("trials".into(), num(f64::from(self.trials))),
        ]);
        let convergence = Json::Obj(vec![
            ("final_best_gflops".into(), num(self.final_best)),
            (
                "convergence_round".into(),
                self.convergence_round
                    .map_or(Json::Null, |r| num(f64::from(r))),
            ),
            (
                "regret".into(),
                Json::Arr(self.regret.iter().map(|&r| num(r)).collect()),
            ),
            (
                "stagnation_windows".into(),
                Json::Arr(
                    self.stagnation_windows
                        .iter()
                        .map(|&(start, len)| {
                            Json::Obj(vec![
                                ("start".into(), num(f64::from(start))),
                                ("len".into(), num(f64::from(len))),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("stalled_rounds".into(), num(f64::from(self.stalled_rounds))),
        ]);
        let coverage = Json::Arr(
            log.vars
                .iter()
                .map(|v| {
                    Json::Obj(vec![
                        ("name".into(), Json::Str(v.name.clone())),
                        ("domain_size".into(), num(v.domain_size as f64)),
                        ("seen".into(), num(v.seen.len() as f64)),
                        ("coverage".into(), num(v.coverage())),
                    ])
                })
                .collect(),
        );
        let search = Json::Obj(vec![
            ("entropy_first_bits".into(), num(self.entropy_first)),
            ("entropy_last_bits".into(), num(self.entropy_last)),
            ("entropy_min_bits".into(), num(self.entropy_min)),
            ("diversity_first".into(), num(self.diversity_first)),
            ("diversity_last".into(), num(self.diversity_last)),
            ("explore_fraction".into(), num(self.explore_fraction)),
            ("coverage".into(), coverage),
        ]);
        let refits = Json::Arr(
            log.refits
                .iter()
                .map(|f| {
                    Json::Obj(vec![
                        ("round".into(), num(f64::from(f.round))),
                        ("samples".into(), num(f64::from(f.samples))),
                        ("train_rank_accuracy".into(), num(f.train_rank_accuracy)),
                        ("train_spearman".into(), num(f.train_spearman)),
                        (
                            "top_importance".into(),
                            Json::Arr(
                                f.top_importance
                                    .iter()
                                    .map(|&(idx, imp)| {
                                        Json::Obj(vec![
                                            ("feature".into(), num(f64::from(idx))),
                                            ("importance".into(), num(imp)),
                                        ])
                                    })
                                    .collect(),
                            ),
                        ),
                    ])
                })
                .collect(),
        );
        let drift = Json::Arr(
            self.importance_drift
                .iter()
                .map(|d| {
                    Json::Obj(vec![
                        ("round".into(), num(f64::from(d.round))),
                        ("jaccard".into(), num(d.jaccard)),
                        ("l1".into(), num(d.l1)),
                    ])
                })
                .collect(),
        );
        let model = Json::Obj(vec![
            ("refits".into(), num(log.refits.len() as f64)),
            (
                "batch_rank_accuracy_mean".into(),
                opt(self.batch_accuracy_mean),
            ),
            (
                "batch_rank_accuracy_min".into(),
                opt(self.batch_accuracy_min),
            ),
            ("batch_spearman_mean".into(), opt(self.batch_spearman_mean)),
            ("batch_spearman_min".into(), opt(self.batch_spearman_min)),
            (
                "importance_churn_mean".into(),
                opt(self.importance_churn_mean),
            ),
            ("importance_drift".into(), drift),
            ("refit_history".into(), refits),
        ]);
        let constraints = Json::Obj(vec![
            (
                "repaired_offspring".into(),
                num(self.repaired_offspring as f64),
            ),
            (
                "relaxed_constraints".into(),
                num(self.relaxed_constraints as f64),
            ),
            ("fallback_samples".into(), num(self.fallback_samples as f64)),
            ("solver_attempts".into(), num(self.solver_attempts as f64)),
            (
                "solver_propagations".into(),
                num(self.solver_propagations as f64),
            ),
            ("solver_wipeouts".into(), num(self.solver_wipeouts as f64)),
            ("solver_max_trail".into(), num(self.solver_max_trail as f64)),
            (
                "solver_incremental".into(),
                num(self.solver_incremental as f64),
            ),
        ]);
        let rounds = Json::Arr(log.rounds.iter().map(round_json).collect());
        let warnings = Json::Arr(
            self.warnings
                .iter()
                .map(|w| {
                    Json::Obj(vec![
                        ("code".into(), Json::Str(w.code.clone())),
                        ("message".into(), Json::Str(w.message.clone())),
                    ])
                })
                .collect(),
        );
        Json::Obj(vec![
            ("meta".into(), meta),
            ("convergence".into(), convergence),
            ("search".into(), search),
            ("model".into(), model),
            ("constraints".into(), constraints),
            ("rounds".into(), rounds),
            ("warnings".into(), warnings),
        ])
    }

    /// Renders the human-readable text report.
    pub fn render_text(&self, log: &SearchLog) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "search-health report — {} on {} (seed {})\n",
            log.workload, log.dla, log.seed
        ));
        s.push_str(&format!(
            "  rounds {} · trials {} · best {:.2} GFLOPS\n",
            self.rounds, self.trials, self.final_best
        ));
        match self.convergence_round {
            Some(r) => s.push_str(&format!(
                "  converged (within {:.0}% of final best) at round {r}\n",
                CONVERGENCE_TOLERANCE * 100.0
            )),
            None => s.push_str("  never converged within tolerance\n"),
        }
        s.push_str(&format!(
            "  entropy {:.3} → {:.3} bits (min {:.3}) · diversity {:.2} → {:.2}\n",
            self.entropy_first,
            self.entropy_last,
            self.entropy_min,
            self.diversity_first,
            self.diversity_last
        ));
        s.push_str(&format!(
            "  explore fraction {:.3} · stalled rounds {}\n",
            self.explore_fraction, self.stalled_rounds
        ));
        if let (Some(acc), Some(rho)) = (self.batch_accuracy_mean, self.batch_spearman_mean) {
            s.push_str(&format!(
                "  model: batch rank-accuracy mean {acc:.3} (min {:.3}) · Spearman ρ mean {rho:.3}\n",
                self.batch_accuracy_min.unwrap_or(f64::NAN)
            ));
        } else {
            s.push_str("  model: no fitted-model batches recorded\n");
        }
        if let Some(churn) = self.importance_churn_mean {
            s.push_str(&format!(
                "  importance churn (mean Jaccard distance) {churn:.3} over {} refit pairs\n",
                self.importance_drift.len()
            ));
        }
        s.push_str(&format!(
            "  constraint pressure: {} repaired offspring · {} relaxed constraints · {} fallback samples\n",
            self.repaired_offspring,
            self.relaxed_constraints,
            self.fallback_samples
        ));
        s.push_str(&format!(
            "  solver: {} attempts · {} propagations · {} wipeouts · max trail {} · {} incremental re-solves\n",
            self.solver_attempts,
            self.solver_propagations,
            self.solver_wipeouts,
            self.solver_max_trail,
            self.solver_incremental
        ));
        let shallow = log
            .vars
            .iter()
            .filter(|v| v.domain_size > 1 && v.coverage() < 0.5)
            .count();
        s.push_str(&format!(
            "  coverage: {}/{} tunables under 50% of domain explored\n",
            shallow,
            log.vars.len()
        ));
        if self.warnings.is_empty() {
            s.push_str("  warnings: none\n");
        } else {
            s.push_str("  warnings:\n");
            for w in &self.warnings {
                s.push_str(&format!("    [{}] {}\n", w.code, w.message));
            }
        }
        s
    }
}

fn round_json(r: &crate::RoundRecord) -> Json {
    let num = Json::Num;
    let opt = |x: Option<f64>| x.map_or(Json::Null, Json::Num);
    Json::Obj(vec![
        ("round".into(), num(f64::from(r.round))),
        ("trials_done".into(), num(f64::from(r.trials_done))),
        ("best_gflops".into(), num(r.best_gflops)),
        ("batch_best_gflops".into(), num(r.batch_best_gflops)),
        ("batch_mean_gflops".into(), num(r.batch_mean_gflops)),
        ("batch_size".into(), num(f64::from(r.batch_size))),
        ("exploit_picks".into(), num(f64::from(r.exploit_picks))),
        ("explore_picks".into(), num(f64::from(r.explore_picks))),
        ("population".into(), num(f64::from(r.population))),
        (
            "distinct_solutions".into(),
            num(f64::from(r.distinct_solutions)),
        ),
        ("diversity".into(), num(r.diversity)),
        ("entropy_bits".into(), num(r.entropy_bits)),
        ("batch_rank_accuracy".into(), opt(r.batch_rank_accuracy)),
        ("batch_spearman".into(), opt(r.batch_spearman)),
        (
            "repaired_offspring".into(),
            num(f64::from(r.repaired_offspring)),
        ),
        (
            "relaxed_constraints".into(),
            num(f64::from(r.relaxed_constraints)),
        ),
        (
            "fallback_samples".into(),
            num(f64::from(r.fallback_samples)),
        ),
        ("solver_attempts".into(), num(r.solver_attempts as f64)),
        (
            "solver_propagations".into(),
            num(r.solver_propagations as f64),
        ),
        ("solver_wipeouts".into(), num(r.solver_wipeouts as f64)),
        ("solver_max_trail".into(), num(r.solver_max_trail as f64)),
        (
            "solver_incremental".into(),
            num(r.solver_incremental as f64),
        ),
        ("stalled".into(), Json::Bool(r.stalled)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{RefitRecord, RoundRecord};

    fn log_with_curve(curve: &[f64]) -> SearchLog {
        let mut log = SearchLog::new("w", "d", 1, 4);
        for (i, &b) in curve.iter().enumerate() {
            let mut r = RoundRecord::new(i as u32);
            r.best_gflops = b;
            r.trials_done = (i as u32 + 1) * 4;
            r.batch_size = 4;
            r.population = 8;
            r.distinct_solutions = 8;
            r.diversity = 1.0;
            r.entropy_bits = 2.0 - i as f64 * 0.1;
            log.push_round(r);
        }
        log
    }

    #[test]
    fn convergence_and_regret() {
        let log = log_with_curve(&[10.0, 50.0, 99.5, 100.0]);
        let rep = analyze(&log);
        assert_eq!(rep.convergence_round, Some(2)); // 99.5 ≥ 0.99·100
        assert_eq!(rep.regret, vec![90.0, 50.0, 0.5, 0.0]);
        assert_eq!(rep.final_best, 100.0);
        assert!(rep.stagnation_windows.is_empty());
    }

    #[test]
    fn stagnation_windows_detected() {
        let mut curve = vec![10.0, 20.0];
        curve.extend(std::iter::repeat_n(20.0, 6)); // 6 flat rounds
        curve.push(30.0);
        let rep = analyze(&log_with_curve(&curve));
        assert_eq!(rep.stagnation_windows, vec![(2, 6)]);
        assert!(rep
            .warnings
            .iter()
            .any(|w| w.code == "stagnation" && w.message.contains("6 rounds")));
    }

    #[test]
    fn miscalibration_and_churn_warnings() {
        let mut log = log_with_curve(&[10.0, 11.0, 12.0, 13.0]);
        for r in log.rounds.iter_mut() {
            r.batch_rank_accuracy = Some(0.5);
            r.batch_spearman = Some(0.0);
        }
        // Four refits with disjoint top-k sets => Jaccard distance 1.
        for (i, feats) in [[0u32, 1], [2, 3], [4, 5], [6, 7]].iter().enumerate() {
            log.push_refit(RefitRecord {
                round: i as u32,
                samples: 8,
                train_rank_accuracy: 0.6,
                train_spearman: 0.5,
                top_importance: feats.iter().map(|&f| (f, 0.5)).collect(),
            });
        }
        let rep = analyze(&log);
        assert!(rep.warnings.iter().any(|w| w.code == "model-miscalibrated"));
        assert!(rep.warnings.iter().any(|w| w.code == "importance-churn"));
        assert_eq!(rep.importance_churn_mean, Some(1.0));
        assert_eq!(rep.importance_drift.len(), 3);
        assert!((rep.importance_drift[0].l1 - 2.0).abs() < 1e-12);
    }

    #[test]
    fn diversity_collapse_warning() {
        let mut log = log_with_curve(&[1.0, 2.0, 3.0]);
        log.rounds[0].entropy_bits = 2.0;
        log.rounds[2].entropy_bits = 0.1;
        let rep = analyze(&log);
        assert!(rep.warnings.iter().any(|w| w.code == "diversity-collapse"));
    }

    #[test]
    fn json_is_deterministic_and_sectioned() {
        let log = log_with_curve(&[10.0, 20.0, 30.0]);
        let rep = analyze(&log);
        let a = rep.to_json(&log).render_pretty();
        let b = analyze(&log).to_json(&log).render_pretty();
        assert_eq!(a, b);
        for section in [
            "\"meta\"",
            "\"convergence\"",
            "\"search\"",
            "\"model\"",
            "\"constraints\"",
            "\"rounds\"",
            "\"warnings\"",
            "\"regret\"",
            "\"explore_fraction\"",
        ] {
            assert!(a.contains(section), "missing {section}");
        }
        let text = rep.render_text(&log);
        assert!(text.contains("search-health report"));
        assert!(text.contains("constraint pressure"));
    }
}

//! The perf-trajectory layer: the canonical `BENCH_heron.json` snapshot
//! ([`BenchReport`]) and the [`compare`] regression gate.
//!
//! Everything stored in the snapshot is **deterministic** for a fixed
//! seed: scores come from the simulated measurer, solver throughput
//! from RandSAT's own counters, and wall-clock from the *simulated*
//! measurement clock (`hw_measure_s`). Host wall-clock times are
//! intentionally excluded — they would make the committed baseline
//! machine-dependent and the gate flaky (DESIGN.md §7).

use heron_trace::{Cursor, Json};

/// The schema identifier of `BENCH_heron.json`.
const BENCH_SCHEMA: &str = "heron-bench-v1";

/// One workload's performance snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadBench {
    /// Workload (space) name.
    pub name: String,
    /// Best achieved score.
    pub best_gflops: f64,
    /// Latency of the best schedule in microseconds.
    pub best_latency_us: f64,
    /// Measured trials attempted / that produced a valid score.
    pub trials: u32,
    /// See [`WorkloadBench::trials`].
    pub valid_trials: u32,
    /// Tuning rounds executed.
    pub rounds: u32,
    /// Simulated hardware measurement seconds consumed.
    pub hw_measure_s: f64,
    /// RandSAT solutions produced across the run.
    pub randsat_solutions: u64,
    /// RandSAT constraint propagations across the run.
    pub randsat_propagations: u64,
    /// Solver throughput: solutions per 1000 propagations.
    pub sol_per_kprop: f64,
    /// Deepest trail (save-on-write undo log) any solve reached.
    pub randsat_max_trail: u64,
    /// Offspring solves answered from the session's cached root
    /// fixpoint instead of a from-scratch `run_all`.
    pub incremental_hits: u64,
    /// Cost model refits.
    pub model_fits: u32,
    /// Final model pairwise rank accuracy on its training set.
    pub final_rank_accuracy: f64,
}

/// The canonical `BENCH_heron.json` document.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// Tuning seed the snapshot was taken with.
    pub seed: u64,
    /// Trials per workload the snapshot was taken with.
    pub trials: u32,
    /// Per-workload snapshots, name-ascending.
    pub workloads: Vec<WorkloadBench>,
}

impl BenchReport {
    /// A new empty report.
    pub fn new(seed: u64, trials: u32) -> Self {
        BenchReport {
            seed,
            trials,
            workloads: Vec::new(),
        }
    }

    /// Adds a workload snapshot, keeping the list name-sorted.
    pub fn push(&mut self, w: WorkloadBench) {
        self.workloads.push(w);
        self.workloads.sort_by(|a, b| a.name.cmp(&b.name));
    }

    /// Geometric mean of per-workload best scores (0 when empty or any
    /// score is non-positive).
    pub fn geomean_gflops(&self) -> f64 {
        if self.workloads.is_empty() || self.workloads.iter().any(|w| w.best_gflops <= 0.0) {
            return 0.0;
        }
        let log_sum: f64 = self.workloads.iter().map(|w| w.best_gflops.ln()).sum();
        (log_sum / self.workloads.len() as f64).exp()
    }

    /// Serializes the report as the canonical JSON document.
    pub fn to_json(&self) -> Json {
        let num = Json::Num;
        Json::Obj(vec![
            ("schema".into(), Json::Str(BENCH_SCHEMA.into())),
            ("seed".into(), num(self.seed as f64)),
            ("trials".into(), num(f64::from(self.trials))),
            ("geomean_gflops".into(), num(self.geomean_gflops())),
            (
                "workloads".into(),
                Json::Arr(
                    self.workloads
                        .iter()
                        .map(|w| {
                            Json::Obj(vec![
                                ("name".into(), Json::Str(w.name.clone())),
                                ("best_gflops".into(), num(w.best_gflops)),
                                ("best_latency_us".into(), num(w.best_latency_us)),
                                ("trials".into(), num(f64::from(w.trials))),
                                ("valid_trials".into(), num(f64::from(w.valid_trials))),
                                ("rounds".into(), num(f64::from(w.rounds))),
                                ("hw_measure_s".into(), num(w.hw_measure_s)),
                                ("randsat_solutions".into(), num(w.randsat_solutions as f64)),
                                (
                                    "randsat_propagations".into(),
                                    num(w.randsat_propagations as f64),
                                ),
                                ("sol_per_kprop".into(), num(w.sol_per_kprop)),
                                ("randsat_max_trail".into(), num(w.randsat_max_trail as f64)),
                                ("incremental_hits".into(), num(w.incremental_hits as f64)),
                                ("model_fits".into(), num(f64::from(w.model_fits))),
                                ("final_rank_accuracy".into(), num(w.final_rank_accuracy)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Parses and validates a `heron-bench-v1` document in one pass:
    /// every member typed, every measurement finite and non-negative,
    /// workloads non-empty and strictly name-ascending.
    ///
    /// # Errors
    /// The first problem, naming the member's path and — inside a
    /// workload that has a name — the workload, e.g.
    /// ``$.workloads[1].sol_per_kprop: missing (workload `gemm-512`)``:
    /// a gate that refuses a baseline must say exactly what is wrong
    /// with it.
    pub fn from_json(doc: &Json) -> Result<Self, String> {
        let doc = Cursor::new(doc, "$");
        doc.one_of("schema", &[BENCH_SCHEMA])?;
        doc.num("geomean_gflops")?;
        let mut report = BenchReport::new(doc.u64("seed")?, doc.u32("trials")?);
        let workloads = doc.arr("workloads")?;
        if workloads.items().len() == 0 {
            return Err(workloads.fail("empty"));
        }
        for w in workloads.items() {
            let bench = workload_from_json(&w).map_err(|e| match w.value().get("name") {
                Some(Json::Str(name)) => format!("{e} (workload `{name}`)"),
                _ => e,
            })?;
            if let Some(prev) = report.workloads.last() {
                if prev.name >= bench.name {
                    return Err(w.get("name")?.fail(format!(
                        "workloads must be sorted by name; `{}` follows `{}`",
                        bench.name, prev.name
                    )));
                }
            }
            report.workloads.push(bench);
        }
        Ok(report)
    }
}

fn workload_from_json(w: &Cursor) -> Result<WorkloadBench, String> {
    let measure = |key: &str| {
        let v = w.num(key)?;
        if v.is_finite() && v >= 0.0 {
            Ok(v)
        } else {
            Err(w
                .get(key)?
                .fail(format!("{v} is not a finite non-negative")))
        }
    };
    // Added with the trail-based solver and absent from pre-trail
    // baselines, which must stay comparable: optional, 0 by default.
    let optional = |key: &str| if w.has(key) { w.u64(key) } else { Ok(0) };
    Ok(WorkloadBench {
        name: w.str("name")?.to_string(),
        best_gflops: measure("best_gflops")?,
        best_latency_us: measure("best_latency_us")?,
        trials: w.u32("trials")?,
        valid_trials: w.u32("valid_trials")?,
        rounds: w.u32("rounds")?,
        hw_measure_s: measure("hw_measure_s")?,
        randsat_solutions: w.u64("randsat_solutions")?,
        randsat_propagations: w.u64("randsat_propagations")?,
        sol_per_kprop: measure("sol_per_kprop")?,
        randsat_max_trail: optional("randsat_max_trail")?,
        incremental_hits: optional("incremental_hits")?,
        model_fits: w.u32("model_fits")?,
        final_rank_accuracy: measure("final_rank_accuracy")?,
    })
}

/// Deterministic regression-gate thresholds (fractions, not percent).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompareConfig {
    /// Max tolerated relative drop in per-workload `best_gflops` and in
    /// the geomean.
    pub max_perf_drop: f64,
    /// Max tolerated relative rise in per-workload `best_latency_us`.
    pub max_latency_rise: f64,
    /// Max tolerated relative drop in RandSAT `sol_per_kprop`.
    pub max_throughput_drop: f64,
    /// Max tolerated relative drop in `final_rank_accuracy`.
    pub max_accuracy_drop: f64,
}

impl Default for CompareConfig {
    fn default() -> Self {
        CompareConfig {
            max_perf_drop: 0.10,
            max_latency_rise: 0.10,
            max_throughput_drop: 0.25,
            max_accuracy_drop: 0.15,
        }
    }
}

fn rel_drop(base: f64, new: f64) -> f64 {
    if base <= 0.0 {
        0.0
    } else {
        (base - new) / base
    }
}

/// Compares a new snapshot against a baseline. Returns the list of
/// regression messages — empty means the gate passes. Comparing a
/// report against itself always passes.
pub fn compare(base: &BenchReport, new: &BenchReport, cfg: &CompareConfig) -> Vec<String> {
    let mut regressions = Vec::new();
    for b in &base.workloads {
        let Some(n) = new.workloads.iter().find(|w| w.name == b.name) else {
            regressions.push(format!("workload `{}` missing from new snapshot", b.name));
            continue;
        };
        let perf_drop = rel_drop(b.best_gflops, n.best_gflops);
        if perf_drop > cfg.max_perf_drop {
            regressions.push(format!(
                "`{}` best_gflops dropped {:.1}% ({:.2} → {:.2}, limit {:.0}%)",
                b.name,
                perf_drop * 100.0,
                b.best_gflops,
                n.best_gflops,
                cfg.max_perf_drop * 100.0
            ));
        }
        let lat_rise = rel_drop(n.best_latency_us, b.best_latency_us);
        if lat_rise > cfg.max_latency_rise {
            regressions.push(format!(
                "`{}` best_latency_us rose {:.1}% ({:.2} → {:.2}, limit {:.0}%)",
                b.name,
                lat_rise * 100.0,
                b.best_latency_us,
                n.best_latency_us,
                cfg.max_latency_rise * 100.0
            ));
        }
        let thr_drop = rel_drop(b.sol_per_kprop, n.sol_per_kprop);
        if thr_drop > cfg.max_throughput_drop {
            regressions.push(format!(
                "`{}` RandSAT sol_per_kprop dropped {:.1}% ({:.3} → {:.3}, limit {:.0}%)",
                b.name,
                thr_drop * 100.0,
                b.sol_per_kprop,
                n.sol_per_kprop,
                cfg.max_throughput_drop * 100.0
            ));
        }
        let acc_drop = rel_drop(b.final_rank_accuracy, n.final_rank_accuracy);
        if acc_drop > cfg.max_accuracy_drop {
            regressions.push(format!(
                "`{}` final_rank_accuracy dropped {:.1}% ({:.3} → {:.3}, limit {:.0}%)",
                b.name,
                acc_drop * 100.0,
                b.final_rank_accuracy,
                n.final_rank_accuracy,
                cfg.max_accuracy_drop * 100.0
            ));
        }
    }
    let geo_drop = rel_drop(base.geomean_gflops(), new.geomean_gflops());
    if geo_drop > cfg.max_perf_drop {
        regressions.push(format!(
            "geomean_gflops dropped {:.1}% ({:.2} → {:.2}, limit {:.0}%)",
            geo_drop * 100.0,
            base.geomean_gflops(),
            new.geomean_gflops(),
            cfg.max_perf_drop * 100.0
        ));
    }
    regressions
}

/// The schema identifier stamped into every trajectory-history line.
pub const TRAJECTORY_SCHEMA: &str = "heron-bench-traj-v1";

/// Renders one `results/bench_trajectory.jsonl` history line for a
/// snapshot: compact single-line JSON with the run parameters, the
/// geomean, and the per-workload best scores. Deliberately a *summary*
/// — the full per-workload detail lives in `BENCH_heron.json`; the
/// history file answers "how did the trajectory move over time" with
/// one greppable line per committed snapshot.
pub fn trajectory_line(report: &BenchReport) -> String {
    let workloads = report
        .workloads
        .iter()
        .map(|w| {
            Json::Obj(vec![
                ("name".into(), Json::Str(w.name.clone())),
                ("best_gflops".into(), Json::Num(w.best_gflops)),
                ("sol_per_kprop".into(), Json::Num(w.sol_per_kprop)),
            ])
        })
        .collect();
    Json::Obj(vec![
        ("schema".into(), Json::Str(TRAJECTORY_SCHEMA.into())),
        ("seed".into(), Json::Num(report.seed as f64)),
        ("trials".into(), Json::Num(f64::from(report.trials))),
        ("geomean_gflops".into(), Json::Num(report.geomean_gflops())),
        ("workloads".into(), Json::Arr(workloads)),
    ])
    .render()
}

/// Validates a trajectory history file: every non-empty line must be a
/// [`TRAJECTORY_SCHEMA`] object with numeric `seed`/`trials`/
/// `geomean_gflops` and a `workloads` array of `{name, best_gflops,
/// sol_per_kprop}` entries. Returns the number of valid lines.
///
/// # Errors
/// A message naming the offending 1-based line and member.
pub fn validate_trajectory(text: &str) -> Result<usize, String> {
    let mut lines = 0usize;
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let doc = heron_trace::json::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        let doc = Cursor::line(&doc, i + 1);
        doc.one_of("schema", &[TRAJECTORY_SCHEMA])?;
        doc.each(["seed", "trials", "geomean_gflops"], Cursor::num)?;
        for w in doc.arr("workloads")?.items() {
            w.str("name")?;
            w.each(["best_gflops", "sol_per_kprop"], Cursor::num)?;
        }
        lines += 1;
    }
    Ok(lines)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BenchReport {
        let mut r = BenchReport::new(2023, 64);
        r.push(WorkloadBench {
            name: "gemm-512".into(),
            best_gflops: 4000.0,
            best_latency_us: 67.1,
            trials: 64,
            valid_trials: 60,
            rounds: 8,
            hw_measure_s: 1.25,
            randsat_solutions: 900,
            randsat_propagations: 120_000,
            sol_per_kprop: 7.5,
            randsat_max_trail: 12,
            incremental_hits: 30,
            model_fits: 8,
            final_rank_accuracy: 0.91,
        });
        r.push(WorkloadBench {
            name: "conv-64".into(),
            best_gflops: 1000.0,
            best_latency_us: 10.0,
            trials: 64,
            valid_trials: 64,
            rounds: 8,
            hw_measure_s: 0.5,
            randsat_solutions: 500,
            randsat_propagations: 40_000,
            sol_per_kprop: 12.5,
            randsat_max_trail: 9,
            incremental_hits: 22,
            model_fits: 8,
            final_rank_accuracy: 0.88,
        });
        r
    }

    #[test]
    fn json_roundtrip_and_sorted_workloads() {
        let r = sample();
        assert_eq!(r.workloads[0].name, "conv-64");
        let parsed =
            BenchReport::from_json(&heron_trace::json::parse(&r.to_json().render()).unwrap())
                .unwrap();
        assert_eq!(parsed, r);
        assert!((r.geomean_gflops() - 2000.0).abs() < 1e-9);
    }

    #[test]
    fn pre_trail_baselines_parse_with_zero_defaults() {
        let r = sample();
        let legacy = r
            .to_json()
            .render()
            .replace(",\"randsat_max_trail\":12", "")
            .replace(",\"randsat_max_trail\":9", "")
            .replace(",\"incremental_hits\":30", "")
            .replace(",\"incremental_hits\":22", "");
        assert!(!legacy.contains("randsat_max_trail"), "strip failed");
        let parsed = BenchReport::from_json(&heron_trace::json::parse(&legacy).unwrap()).unwrap();
        assert_eq!(parsed.workloads[0].randsat_max_trail, 0);
        assert_eq!(parsed.workloads[1].incremental_hits, 0);
        assert_eq!(parsed.workloads[0].sol_per_kprop, 12.5);
    }

    #[test]
    fn missing_required_keys_name_the_workload_and_key() {
        // A baseline so old it predates the solver-throughput counters:
        // the required `sol_per_kprop` is gone from the second workload
        // (name-sorted: `gemm-512`). The diagnostic must say which file
        // member is missing from which workload — not a generic parse
        // error (the file context is the caller's job; see
        // `bench_compare`).
        let legacy = sample().to_json().render().replace(
            ",\"sol_per_kprop\":7.5,\"randsat_max_trail\":12",
            ",\"randsat_max_trail\":12",
        );
        assert!(legacy.contains("sol_per_kprop"), "conv-64 keeps its copy");
        let err = BenchReport::from_json(&heron_trace::json::parse(&legacy).unwrap()).unwrap_err();
        assert_eq!(
            err, "$.workloads[1].sol_per_kprop: missing (workload `gemm-512`)",
            "diagnostic names workload index, name, and key"
        );

        // A workload with no name still gets located by index.
        let nameless = sample()
            .to_json()
            .render()
            .replace("\"name\":\"conv-64\",", "");
        let err =
            BenchReport::from_json(&heron_trace::json::parse(&nameless).unwrap()).unwrap_err();
        assert_eq!(err, "$.workloads[0].name: missing");
    }

    #[test]
    fn self_comparison_passes() {
        let r = sample();
        assert!(compare(&r, &r, &CompareConfig::default()).is_empty());
    }

    #[test]
    fn degradations_are_caught() {
        let base = sample();
        let mut degraded = sample();
        degraded.workloads[0].best_gflops *= 0.8; // conv-64: >10% drop
        degraded.workloads[1].best_latency_us *= 1.5;
        degraded.workloads[1].sol_per_kprop *= 0.5;
        let regs = compare(&base, &degraded, &CompareConfig::default());
        assert!(regs.iter().any(|r| r.contains("best_gflops dropped")));
        assert!(regs.iter().any(|r| r.contains("best_latency_us rose")));
        assert!(regs.iter().any(|r| r.contains("sol_per_kprop dropped")));
        assert!(regs.iter().any(|r| r.contains("geomean_gflops dropped")));

        let mut missing = sample();
        missing.workloads.remove(0);
        let regs = compare(&base, &missing, &CompareConfig::default());
        assert!(regs.iter().any(|r| r.contains("missing from new snapshot")));
    }

    #[test]
    fn improvements_pass() {
        let base = sample();
        let mut better = sample();
        for w in better.workloads.iter_mut() {
            w.best_gflops *= 1.5;
            w.best_latency_us *= 0.5;
            w.sol_per_kprop *= 2.0;
        }
        assert!(compare(&base, &better, &CompareConfig::default()).is_empty());
    }

    #[test]
    fn rejects_what_the_schema_forbids() {
        let doc = sample().to_json().render();
        for (from, to, err) in [
            (
                "heron-bench-v1",
                "other",
                "$.schema: expected `heron-bench-v1`, found `other`",
            ),
            (
                "\"best_gflops\":1000",
                "\"best_gflops\":-1",
                "$.workloads[0].best_gflops: -1 is not a finite non-negative (workload `conv-64`)",
            ),
            (
                "\"conv-64\"",
                "\"zz\"",
                "$.workloads[1].name: workloads must be sorted by name; `gemm-512` follows `zz`",
            ),
        ] {
            let bad = heron_trace::json::parse(&doc.replacen(from, to, 1)).unwrap();
            assert_eq!(BenchReport::from_json(&bad).unwrap_err(), err);
        }
        let empty = heron_trace::json::parse(
            r#"{"schema":"heron-bench-v1","seed":1,"trials":8,"geomean_gflops":0,"workloads":[]}"#,
        )
        .unwrap();
        assert_eq!(
            BenchReport::from_json(&empty).unwrap_err(),
            "$.workloads: empty"
        );
    }

    #[test]
    fn trajectory_lines_roundtrip_and_accumulate() {
        let line = trajectory_line(&sample());
        assert!(line.starts_with(&format!("{{\"schema\":\"{TRAJECTORY_SCHEMA}\"")));
        assert!(!line.contains('\n'), "history lines are single-line JSON");
        let two = format!("{line}\n{line}\n");
        assert_eq!(validate_trajectory(&two), Ok(2));
        assert_eq!(validate_trajectory(""), Ok(0));
    }

    #[test]
    fn trajectory_validation_names_the_bad_line() {
        let good = trajectory_line(&sample());
        let bad = format!("{good}\nnot json\n");
        assert!(validate_trajectory(&bad).unwrap_err().contains("line 2"));
        let wrong = good.replace(TRAJECTORY_SCHEMA, "heron-bench-traj-v0");
        assert!(validate_trajectory(&wrong)
            .unwrap_err()
            .contains(TRAJECTORY_SCHEMA));
        let gutted = good.replace("\"geomean_gflops\"", "\"geomean\"");
        assert!(validate_trajectory(&gutted)
            .unwrap_err()
            .contains("geomean_gflops"));
    }
}

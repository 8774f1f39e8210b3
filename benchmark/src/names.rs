//! The metric and workload registry — the single source the emitter, the
//! `compare` subcommand and the `BENCHMARK.json` consistency test share.

/// Which direction of change is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[cfg(test)]
impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One registered metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline by which the metric may worsen before it
    /// counts as a regression (end-to-end metrics only).
    pub bound: Option<f64>,
    /// Whether the value is an exact, repeatable count that `compare`
    /// checks for equality.
    pub exact: bool,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
        exact: false,
    }
}

const fn timed(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
        bound: None,
        exact: false,
    }
}

const fn count(name: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit: "count",
        better,
        bound: None,
        exact: true,
    }
}

/// A ratio or size derived only from exact counts, so it repeats exactly.
const fn derived(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
        exact: true,
    }
}

use Better::{Higher, Lower};

/// The four workloads, in reporting order.
pub const WORKLOADS: [&str; 4] = [
    "tune_tensorcore",
    "tune_vta_dlboost",
    "compile_resnet50",
    "serve_chaos",
];

/// End-to-end metrics (`--trace 0`).
pub const END_TO_END: [MetricDef; 4] = [
    e2e("wall_s", "s", Lower, 0.25),
    e2e("setup_s", "s", Lower, 0.25),
    e2e("peak_rss_mb", "MiB", Lower, 0.20),
    e2e("quality_gflops", "Gop/s", Higher, 0.01),
];

/// Per-layer metrics (`--trace 1`), grouped by the module they measure.
pub const PER_LAYER: [MetricDef; 77] = [
    // generate
    timed("generate.time_s", "s"),
    count("generate.spaces", Lower),
    count("generate.vars", Lower),
    count("generate.constraints", Lower),
    // csp
    timed("csp.session_new_s", "s"),
    timed("csp.solve_s", "s"),
    timed("csp.fresh_s", "s"),
    timed("csp.offspring_s", "s"),
    count("csp.solve_calls", Lower),
    count("csp.propagations", Lower),
    count("csp.wipeouts", Lower),
    count("csp.attempts", Lower),
    count("csp.restarts", Lower),
    count("csp.escalations", Lower),
    count("csp.solutions", Higher),
    count("csp.incremental_hits", Higher),
    derived("csp.sol_per_kprop", "1/kprop", Higher),
    derived("csp.probe_sol_per_kprop", "1/kprop", Higher),
    // cga
    timed("cga.populate_s", "s"),
    timed("cga.evolve_s", "s"),
    timed("cga.evolve_self_s", "s"),
    count("cga.offspring_attempted", Lower),
    count("cga.offspring_invalid", Lower),
    count("cga.fallback_samples", Lower),
    count("cga.repairs", Lower),
    count("cga.relaxed_constraints", Lower),
    derived("cga.offspring_valid_share", "ratio", Higher),
    // cost
    timed("cost.fit_s", "s"),
    count("cost.fits", Lower),
    count("cost.fit_rows", Lower),
    count("cost.predicts", Lower),
    derived("cost.rank_accuracy_final", "ratio", Higher),
    // dla
    timed("dla.measure_s", "s"),
    count("dla.trials", Higher),
    count("dla.measure_attempts", Lower),
    count("dla.invalid_trials", Lower),
    count("dla.retries", Lower),
    derived("dla.hw_measure_sim_s", "s", Lower),
    // tuner
    timed("tuner.new_s", "s"),
    timed("tuner.step_s", "s"),
    timed("tuner.step_self_s", "s"),
    count("tuner.steps", Lower),
    timed("tuner.step_ms_p50", "ms"),
    timed("tuner.step_ms_max", "ms"),
    timed("tuner.search_overhead_share", "ratio"),
    // checkpoint
    timed("checkpoint.capture_s", "s"),
    timed("checkpoint.to_text_s", "s"),
    timed("checkpoint.from_text_s", "s"),
    timed("checkpoint.resume_s", "s"),
    derived("checkpoint.bytes", "B", Lower),
    // graph
    timed("graph.build_fuse_s", "s"),
    timed("graph.compile_s", "s"),
    count("graph.tuned_workloads", Lower),
    count("graph.cache_hits", Higher),
    derived("graph.cache_hit_share", "ratio", Higher),
    // serve
    timed("serve.run_s", "s"),
    timed("serve.cpu_s", "s"),
    MetricDef {
        better: Higher,
        ..timed("serve.worker_busy_share", "ratio")
    },
    timed("serve.inline_s", "s"),
    timed("serve.wait_s", "s"),
    count("serve.jobs_completed", Higher),
    count("serve.attempts", Lower),
    count("serve.recoveries", Lower),
    count("serve.store_saves", Lower),
    count("serve.stale_saves", Lower),
    count("serve.postmortems", Lower),
    timed("serve.verify_s", "s"),
    // trace
    count("trace.events", Lower),
    timed("trace.overhead_share", "ratio"),
    timed("trace.export_s", "s"),
    timed("trace.check_s", "s"),
    // bench (the harness itself)
    // How many passes fit depends on how fast the box is.
    MetricDef {
        exact: false,
        ..count("bench.passes", Higher)
    },
    timed("bench.noise_ratio", "ratio"),
    derived("bench.failed_share", "ratio", Lower),
    count("bench.attempted", Higher),
    count("bench.failed", Lower),
    timed("bench.traced_wall_s", "s"),
];

/// The registered definition of `name`, if any.
#[cfg(test)]
pub fn lookup(name: &str) -> Option<&'static MetricDef> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn ok_charset(s: &str, extra: &str) -> bool {
        !s.is_empty()
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
    }

    #[test]
    fn names_and_units_fit_the_contract_charset() {
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(ok_charset(m.name, "_.-"), "bad metric name `{}`", m.name);
            assert!(m.name.len() <= 64);
            assert!(m.name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(ok_charset(m.unit, "_/%.-"), "bad unit `{}`", m.unit);
            assert!(m.unit.len() <= 16);
        }
        for w in WORKLOADS {
            assert!(ok_charset(w, "_.-"));
        }
    }

    #[test]
    fn names_are_used_once() {
        let all: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|m| m.name)
            .chain(WORKLOADS)
            .collect();
        let unique: BTreeSet<&str> = all.iter().copied().collect();
        assert_eq!(unique.len(), all.len());
    }

    #[test]
    fn bounds_stay_within_the_contract() {
        for m in &END_TO_END {
            let b = m.bound.expect("end-to-end metrics carry a bound");
            assert!(b > 0.0 && b <= 0.25);
        }
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
        let setup = lookup("setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let widest = END_TO_END
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(widest));
    }
}

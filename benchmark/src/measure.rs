//! The untraced measurement: end-to-end metrics of one workload.
//!
//! Method. Host time on a small shared box is noisy in one direction: the
//! same deterministic tune was measured at 0.70 s … 1.08 s back to back,
//! in slow phases lasting tens of seconds that a calibration loop does not
//! track (README.md has the series). So every unit is timed in several
//! passes interleaved across the run — pass 1 of all units, then pass 2, …
//! — and a unit's time is the *minimum* over passes. Unit sizes are fixed
//! here; passes repeat until `--seconds` is used up, never fewer than
//! [`MIN_PASSES`].

use std::time::{Duration, Instant};

use heron_serve::parse_script;

use crate::checks::{verify_service, Checks};
use crate::procfs;
use crate::stats::{geomean, median, min};
use crate::workloads::{Artifact, Outcome, Unit};

/// Fewest timed passes per unit, whatever `--seconds` says.
pub const MIN_PASSES: usize = 3;
/// Fewest passes under `--smoke`.
pub const MIN_PASSES_SMOKE: usize = 2;
/// Set-up repeats timed per unit per pass (set-up is ≈0.5 ms per space).
const SETUP_REPEATS: usize = 50;

/// Per-unit timings gathered over the passes.
#[derive(Debug, Default, Clone)]
pub struct UnitTimes {
    /// Timed-body seconds, one per pass.
    pub wall: Vec<f64>,
    /// Median set-up seconds of each pass's repeat loop.
    pub setup: Vec<f64>,
}

/// The end-to-end result of one workload.
#[derive(Debug)]
pub struct EndToEnd {
    pub wall_s: f64,
    pub setup_s: f64,
    pub peak_rss_mib: Option<f64>,
    pub quality_gflops: f64,
    pub passes: usize,
    pub checks: Checks,
}

/// Runs `f` and returns its result with the host seconds it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// Whether another pass that is expected to take `last_pass_s` still fits.
pub fn another_pass(
    passes: usize,
    min_passes: usize,
    started: Instant,
    budget: Duration,
    last_pass_s: f64,
) -> bool {
    passes < min_passes || started.elapsed().as_secs_f64() + last_pass_s <= budget.as_secs_f64()
}

/// Median seconds of one set-up of `unit`, over `repeats` repeats.
fn time_set_up(unit: &Unit, repeats: usize) -> f64 {
    let samples: Vec<f64> = (0..repeats).map(|_| timed(|| unit.set_up()).1).collect();
    median(&samples)
}

/// Output checks on a finished unit that need more than its [`Outcome`].
fn check_unit(unit: &Unit, outcome: &Outcome, left: &Artifact, checks: &mut Checks) {
    checks.operations(outcome.budget, outcome.failed);
    match (unit, left) {
        (Unit::Tune(u), _) => crate::checks::against_committed_scores(u, outcome, checks),
        (Unit::Serve { script }, Artifact::Service(sup)) => {
            let specs = parse_script(script).expect("generated scripts parse").jobs;
            verify_service(sup, &specs, checks);
        }
        // A compile is checked by the traced pass, which replays it.
        _ => {}
    }
}

/// Measures the end-to-end metrics of `units` for about `seconds`.
pub fn end_to_end(units: &[Unit], seconds: u64, smoke: bool) -> EndToEnd {
    let started = Instant::now();
    let budget = Duration::from_secs(seconds);
    let min_passes = if smoke { MIN_PASSES_SMOKE } else { MIN_PASSES };
    let setup_repeats = if smoke { 3 } else { SETUP_REPEATS };
    let mut times = vec![UnitTimes::default(); units.len()];
    let mut first: Vec<Option<Outcome>> = vec![None; units.len()];
    let mut checks = Checks::default();
    let mut passes = 0;
    let mut last_pass_s = 0.0;
    // Held from the last pass so the service can be verified after timing.
    let mut left: Vec<Artifact> = units.iter().map(|_| Artifact::None).collect();

    while another_pass(passes, min_passes, started, budget, last_pass_s) {
        let pass_started = Instant::now();
        for (i, unit) in units.iter().enumerate() {
            times[i].setup.push(time_set_up(unit, setup_repeats));
            let ((outcome, artifact), wall) = timed(|| unit.run());
            times[i].wall.push(wall);
            left[i] = artifact;
            match &first[i] {
                None => first[i] = Some(outcome),
                Some(f) => checks.check(
                    "every pass of a unit produces the same result",
                    *f == outcome,
                    || format!("{}: {f:?} vs {outcome:?}", unit.name()),
                ),
            }
        }
        passes += 1;
        last_pass_s = pass_started.elapsed().as_secs_f64();
        eprintln!("  pass {passes}: {last_pass_s:.3} s");
    }
    // Read before the output checks, which run reference sessions of their own.
    let peak_rss_mib = procfs::peak_rss_mib();

    let outcomes: Vec<Outcome> = first
        .into_iter()
        .map(|o| o.expect("at least one pass ran"))
        .collect();
    for ((unit, outcome), artifact) in units.iter().zip(&outcomes).zip(&left) {
        check_unit(unit, outcome, artifact, &mut checks);
    }
    // Each unit in its own row: a sum can hide which unit moved.
    for ((unit, t), o) in units.iter().zip(&times).zip(&outcomes) {
        eprintln!(
            "  {:<24} wall {:.3} s (max {:.3}), set-up {:.6} s, {:.1} Gop/s",
            unit.name(),
            min(&t.wall),
            crate::stats::max(&t.wall),
            min(&t.setup),
            o.quality_gflops
        );
    }
    let quality: Vec<f64> = outcomes.iter().map(|o| o.quality_gflops).collect();
    EndToEnd {
        wall_s: times.iter().map(|t| min(&t.wall)).sum(),
        setup_s: times.iter().map(|t| min(&t.setup)).sum(),
        peak_rss_mib,
        quality_gflops: geomean(&quality),
        passes,
        checks,
    }
}

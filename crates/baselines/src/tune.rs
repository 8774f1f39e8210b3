//! The uniform tuning entry point used by every figure harness.

use heron_core::explore::classic::{GaExplorer, SaExplorer};
use heron_core::explore::Explorer;
use heron_core::generate::{GenerateError, SpaceGenerator, SpaceOptions};
use heron_core::tuner::{evaluate, TuneConfig, Tuner};
use heron_dla::{DlaSpec, Measurer};
use heron_rng::HeronRng;
use heron_tensor::Dag;

/// Which end-to-end approach to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Approach {
    /// The paper's system: constrained space + CGA + cost model.
    Heron,
    /// AutoTVM-like: fixed manual template + simulated annealing.
    AutoTvm,
    /// Ansor-like: auto template without DLA intrinsics + GA.
    Ansor,
    /// AMOS-like: intrinsic mapping exploration + GA.
    Amos,
}

impl Approach {
    /// Display name matching the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            Approach::Heron => "Heron",
            Approach::AutoTvm => "AutoTVM",
            Approach::Ansor => "Ansor",
            Approach::Amos => "AMOS",
        }
    }

    /// The space options modelling this approach's template.
    pub fn space_options(self) -> SpaceOptions {
        match self {
            Approach::Heron => SpaceOptions::heron(),
            Approach::AutoTvm => SpaceOptions::autotvm(),
            Approach::Ansor => SpaceOptions::ansor(),
            Approach::Amos => SpaceOptions::amos(),
        }
    }

    /// All four approaches (figure iteration order).
    pub fn all() -> [Approach; 4] {
        [
            Approach::Heron,
            Approach::AutoTvm,
            Approach::Ansor,
            Approach::Amos,
        ]
    }
}

/// Result of one end-to-end tuning run, comparable across approaches.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Approach display name.
    pub name: &'static str,
    /// Best throughput found, Gops (0 when nothing valid was found).
    pub best_gflops: f64,
    /// Latency of the best program, seconds.
    pub best_latency_s: f64,
    /// Best-so-far curve over measured trials.
    pub curve: Vec<f64>,
    /// Trials that executed successfully.
    pub valid_trials: usize,
    /// Trials rejected by the DLA (compile/run failures).
    pub invalid_trials: usize,
    /// Simulated deployment measurement seconds (per-trial overhead plus
    /// program latencies) — the dominant compilation-time term.
    pub hw_measure_s: f64,
    /// Real seconds of search computation.
    pub search_s: f64,
}

/// Runs `approach` on `dag`/`spec` for `trials` measured trials.
///
/// # Errors
/// Propagates [`GenerateError`] when the operator cannot target the
/// platform at all (e.g. SCAN on VTA).
pub fn tune(
    approach: Approach,
    spec: &DlaSpec,
    dag: &Dag,
    workload: &str,
    trials: usize,
    seed: u64,
) -> Result<Outcome, GenerateError> {
    let generator = SpaceGenerator::new(spec.clone());
    let space = generator.generate_named(dag, &approach.space_options(), workload)?;
    let measurer = Measurer::new(spec.clone());

    if approach == Approach::Heron {
        let t = std::time::Instant::now();
        let mut tuner = Tuner::new(space, measurer, heron_config(trials), seed);
        let r = tuner.run();
        return Ok(Outcome {
            name: approach.name(),
            best_gflops: r.best_gflops,
            best_latency_s: r.best_latency_s,
            curve: r.curve,
            valid_trials: r.valid_trials,
            invalid_trials: r.invalid_trials,
            hw_measure_s: r.timing.hw_measure_s,
            search_s: t.elapsed().as_secs_f64() - r.timing.sim_s,
        });
    }

    // Baselines: explorer + rejection-based measurement.
    let mut valid = 0usize;
    let mut invalid = 0usize;
    let mut hw_s = 0.0f64;
    let mut best_latency = f64::INFINITY;
    let mut best_gflops = 0.0f64;
    let trial_overhead = 0.8;
    let repeats = 3.0;
    let mut measure = |sol: &heron_csp::Solution| -> Option<f64> {
        hw_s += trial_overhead;
        match evaluate(&space, &measurer, sol) {
            Ok((_, m)) => {
                valid += 1;
                hw_s += m.latency_s * repeats;
                if m.gflops > best_gflops {
                    best_gflops = m.gflops;
                    best_latency = m.latency_s;
                }
                Some(m.gflops)
            }
            Err(_) => {
                invalid += 1;
                None
            }
        }
    };
    let mut rng = HeronRng::from_seed(seed);
    let t = std::time::Instant::now();
    let curve = match approach {
        Approach::AutoTvm => SaExplorer.explore(&space, &mut measure, trials, &mut rng),
        Approach::Ansor | Approach::Amos => {
            GaExplorer.explore(&space, &mut measure, trials, &mut rng)
        }
        Approach::Heron => unreachable!("handled above"),
    };
    let search_s = t.elapsed().as_secs_f64();
    // Trials whose offspring could not even be completed to a concrete
    // program (inconsistent tunable assignments) still consume a real
    // compile attempt on the deployment side.
    let failed_completions = curve.len().saturating_sub(valid + invalid);
    hw_s += failed_completions as f64 * trial_overhead;
    invalid += failed_completions;
    Ok(Outcome {
        name: approach.name(),
        best_gflops,
        best_latency_s: best_latency,
        curve,
        valid_trials: valid,
        invalid_trials: invalid,
        hw_measure_s: hw_s,
        search_s,
    })
}

/// Heron's tuning configuration scaled to the trial budget.
pub fn heron_config(trials: usize) -> TuneConfig {
    if trials >= 1000 {
        TuneConfig {
            trials,
            ..TuneConfig::paper()
        }
    } else {
        TuneConfig::quick(trials)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use heron_dla::v100;
    use heron_tensor::ops;

    #[test]
    fn heron_beats_ansor_on_tensorcore_gemm() {
        let dag = ops::gemm(1024, 1024, 1024);
        let spec = v100();
        let heron = tune(Approach::Heron, &spec, &dag, "g", 60, 1).expect("generates");
        let ansor = tune(Approach::Ansor, &spec, &dag, "g", 60, 1).expect("generates");
        assert!(heron.best_gflops > 0.0 && ansor.best_gflops > 0.0);
        assert!(
            heron.best_gflops > 2.0 * ansor.best_gflops,
            "tensor cores should dominate CUDA cores: {} vs {}",
            heron.best_gflops,
            ansor.best_gflops
        );
    }

    #[test]
    fn baselines_waste_trials_on_invalid_programs() {
        let dag = ops::gemm(1024, 1024, 1024);
        let spec = v100();
        let amos = tune(Approach::Amos, &spec, &dag, "g", 60, 3).expect("generates");
        let heron = tune(Approach::Heron, &spec, &dag, "g", 60, 3).expect("generates");
        assert_eq!(heron.invalid_trials, 0);
        assert!(
            amos.invalid_trials > 0,
            "unconstrained AMOS must hit invalid configs"
        );
    }
}

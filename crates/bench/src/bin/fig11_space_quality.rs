//! Regenerates **Figure 11**: quality of Heron's automatically constrained
//! search space vs AutoTVM's manually constrained one, on GEMM G1.
//!
//! Following the paper, configurations are projected onto two key
//! parameters — the shared-memory footprints of the two operand tiles —
//! and each sub-space bucket reports the best sampled performance. Two
//! properties should reproduce: (1) Heron's space has higher average and
//! maximum performance; (2) neighbouring buckets differ sharply (the
//! space is irregular).

use heron_bench::seed;
use heron_core::generate::{SpaceGenerator, SpaceOptions};
use heron_core::tuner::evaluate;
use heron_csp::{SolvePolicy, SolveSession};
use heron_dla::{v100, Measurer};
use heron_rng::HeronRng;
use heron_tensor::ops;
use heron_trace::Tracer;
use std::collections::BTreeMap;

fn bucket(bytes: i64) -> u32 {
    // log2 buckets of the footprint in KiB.
    ((bytes.max(1) as f64 / 1024.0).log2().round() as i64).clamp(0, 8) as u32
}

fn main() {
    let spec = v100();
    let dag = ops::gemm(1024, 1024, 1024);
    let measurer = Measurer::new(spec.clone());
    let samples: usize = std::env::var("HERON_SAMPLES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1500);

    println!("Figure 11: search-space quality on GEMM G1 ({samples} samples per space)");
    let (policy, quiet) = (SolvePolicy::fixed(400), Tracer::disabled());
    for (label, opts) in [
        ("Heron", SpaceOptions::heron()),
        ("AutoTVM", SpaceOptions::autotvm()),
    ] {
        let space = SpaceGenerator::new(spec.clone())
            .generate_named(&dag, &opts, "G1")
            .expect("generates");
        let mut rng = HeronRng::from_seed(seed());
        let sols = SolveSession::new(&space.csp).solve(&mut rng, samples, &policy, &quiet);
        let mut cells: BTreeMap<(u32, u32), f64> = BTreeMap::new();
        let mut valid = 0usize;
        let mut total_perf = 0.0;
        let mut max_perf: f64 = 0.0;
        let a_var = space.csp.var_by_name("bytes.A.shared");
        let b_var = space.csp.var_by_name("bytes.B.shared");
        for sol in &sols.solutions {
            let perf = match evaluate(&space, &measurer, sol) {
                Ok((_, m)) => m.gflops,
                Err(_) => continue,
            };
            valid += 1;
            total_perf += perf;
            max_perf = max_perf.max(perf);
            if let (Some(a), Some(bv)) = (a_var, b_var) {
                let key = (bucket(sol.value(a)), bucket(sol.value(bv)));
                let best = cells.entry(key).or_insert(0.0);
                *best = best.max(perf);
            }
        }
        println!();
        println!(
            "{label}: sampled {} | valid {} ({:.0}%) | mean {:.0} Gops | max {:.0} Gops",
            sols.solutions.len(),
            valid,
            valid as f64 / sols.solutions.len().max(1) as f64 * 100.0,
            total_perf / valid.max(1) as f64,
            max_perf
        );
        println!("smemA(2^k KiB)\tsmemB(2^k KiB)\tbest_gflops");
        for ((a, b), best) in &cells {
            println!("{a}\t{b}\t{best:.0}");
        }
        // Irregularity metric: mean absolute difference between adjacent
        // buckets, relative to the mean bucket value.
        let mut diffs = Vec::new();
        for ((a, b), v) in &cells {
            if let Some(n) = cells.get(&(*a + 1, *b)) {
                diffs.push((v - n).abs());
            }
            if let Some(n) = cells.get(&(*a, *b + 1)) {
                diffs.push((v - n).abs());
            }
        }
        let mean_cell = cells.values().sum::<f64>() / cells.len().max(1) as f64;
        let irregularity =
            diffs.iter().sum::<f64>() / diffs.len().max(1) as f64 / mean_cell.max(1.0);
        println!("irregularity (mean neighbour delta / mean): {irregularity:.2}");
    }
}

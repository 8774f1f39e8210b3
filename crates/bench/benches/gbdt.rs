//! Micro-bench (heron-testkit): cost-model training and prediction
//! (Algorithm 2 Step 4 and the fitness evaluations of Step 2).
//!
//! Two kinds of training data. `gbdt-fit/{vta,dlboost}-gemm512/*` is what
//! the tuner fits: `CostModel::featurize` of RandSAT samples of the
//! gemm-512 space on VTA and on DL Boost, scored by the simulator — every
//! feature takes a handful of distinct values and several are constant
//! (the two platforms differ in feature count and bucket histogram).
//! `gbdt-fit/*x80` is the opposite extreme, uniform reals with every value
//! distinct (as many sort buckets as rows): the worst case of the
//! counting-sort split search, kept so that a regression there shows.

use heron_core::generate::{SpaceGenerator, SpaceOptions};
use heron_core::model::CostModel;
use heron_core::tuner::evaluate;
use heron_cost::{Gbdt, GbdtParams};
use heron_csp::{SolvePolicy, SolveSession};
use heron_dla::DlaSpec;
use heron_rng::{HeronRng, Rng};
use heron_tensor::ops;
use heron_testkit::bench::{black_box, Harness};
use heron_trace::Tracer;

fn synthetic(n: usize, d: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<f64>) {
    let mut rng = HeronRng::from_seed(seed);
    let x: Vec<Vec<f64>> = (0..n)
        .map(|_| (0..d).map(|_| rng.random::<f64>() * 8.0).collect())
        .collect();
    let y: Vec<f64> = x
        .iter()
        .map(|r| 3.0 * r[0] - 2.0 * r[1] + (r[2] * r[3]).sqrt())
        .collect();
    (x, y)
}

/// `n` measured samples of the gemm-512 space on `dla` as the tuner's
/// cost model would hold them (invalid programs score 0).
fn gemm512(dla: DlaSpec, n: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<f64>) {
    let space = SpaceGenerator::new(dla.clone())
        .generate_named(
            &ops::gemm(512, 512, 512),
            &SpaceOptions::heron(),
            "gemm-512",
        )
        .expect("generates");
    let measurer = heron_dla::Measurer::new(dla);
    let model = CostModel::new(&space.csp);
    let mut rng = HeronRng::from_seed(seed);
    let samples = SolveSession::new(&space.csp)
        .solve(&mut rng, n, &SolvePolicy::default(), &Tracer::disabled())
        .expect_sat("gemm-512");
    let x = samples.iter().map(|s| model.featurize(s)).collect();
    let y = samples
        .iter()
        .map(|s| evaluate(&space, &measurer, s).map_or(0.0, |(_, m)| m.gflops))
        .collect();
    (x, y)
}

/// Distinct values per feature of `x`: `(min, median, max, constant columns)`.
fn distinct_values(x: &[Vec<f64>]) -> (usize, usize, usize, usize) {
    let mut per_feature: Vec<usize> = (0..x[0].len())
        .map(|f| {
            let mut col: Vec<u64> = x.iter().map(|r| r[f].to_bits()).collect();
            col.sort_unstable();
            col.dedup();
            col.len()
        })
        .collect();
    per_feature.sort_unstable();
    let constant = per_feature.iter().filter(|&&k| k == 1).count();
    (
        per_feature[0],
        per_feature[per_feature.len() / 2],
        per_feature[per_feature.len() - 1],
        constant,
    )
}

fn bench_fit(h: &mut Harness, name: &str, x: &[Vec<f64>], y: &[f64]) {
    let (min, median, max, constant) = distinct_values(x);
    println!(
        "{name}: {} rows x {} features, distinct values per feature min {min} / median {median} / max {max}, {constant} constant columns",
        x.len(),
        x[0].len()
    );
    let mut rng = HeronRng::from_seed(1);
    h.bench(name, || {
        let m = Gbdt::fit(x, y, &GbdtParams::default(), &mut rng);
        black_box(m.num_trees())
    });
}

fn main() {
    let mut h = Harness::new("gbdt");
    // What a tuning session fits, at growing sample counts (1000 = the
    // paper's trial budget).
    for (name, dla) in [("vta", heron_dla::vta()), ("dlboost", heron_dla::dlboost())] {
        let (x, y) = gemm512(dla, 1000, 2023);
        for n in [128usize, 512, 1000] {
            bench_fit(
                &mut h,
                &format!("gbdt-fit/{name}-gemm512/{n}"),
                &x[..n],
                &y[..n],
            );
        }
    }
    // Continuous features: every value distinct.
    for n in [128usize, 512, 2000] {
        let (x, y) = synthetic(n, 80, 7);
        bench_fit(&mut h, &format!("gbdt-fit/{n}x80"), &x, &y);
    }
    let (x, y) = synthetic(512, 80, 9);
    let mut rng = HeronRng::from_seed(2);
    let model = Gbdt::fit(&x, &y, &GbdtParams::default(), &mut rng);
    h.bench("gbdt/predict/512x80", || {
        black_box(model.predict_batch(&x).len())
    });
    h.bench("gbdt/importance/80", || {
        black_box(model.feature_importance().len())
    });
    h.finish();
}

//! Micro-bench (heron-testkit): cost of the tracing subsystem.
//!
//! Instrumentation stays compiled into the solver and tuner
//! unconditionally: an untraced caller passes a **disabled** tracer, a
//! `None` branch per call site, so there is no uninstrumented path to
//! compare against. This bench times the two instrumented hot paths —
//! sampling on the tuner's long-lived `SolveSession`, and GBDT fitting —
//! three ways: disabled tracer, enabled manual-clock tracer, and the
//! bounded flight-recorder ring sink (`set_ring(64, true)`, the always-on
//! mode long-lived `heron_serve` runs use). It prints the enabled and ring
//! overheads against the disabled row, plus the raw per-op tracer costs.
//! The ring numbers back DESIGN.md §12's <2% hot-path claim.

use heron_core::generate::{SpaceGenerator, SpaceOptions};
use heron_cost::{Gbdt, GbdtParams};
use heron_csp::{SolvePolicy, SolveSession};
use heron_dla::v100;
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

/// Benches `run` as `{path}/tracer-{disabled,enabled,ring}`, each row
/// from a fresh `seed`, and prints the enabled and ring overheads
/// against the disabled row.
fn tracer_rows(
    h: &mut Harness,
    path: &str,
    seed: u64,
    mut run: impl FnMut(&Tracer, &mut HeronRng) -> usize,
) {
    let ring = Tracer::manual();
    ring.set_ring(64, true);
    let tracers = [
        ("disabled", Tracer::disabled()),
        ("enabled", Tracer::manual()),
        ("ring", ring),
    ];
    let medians: Vec<u128> = tracers
        .iter()
        .map(|(mode, tracer)| {
            let mut rng = HeronRng::from_seed(seed);
            let row = format!("{path}/tracer-{mode}");
            h.bench(&row, || black_box(run(tracer, &mut rng))).median_ns
        })
        .collect();
    for ((mode, _), median) in tracers.iter().zip(&medians).skip(1) {
        let overhead = *median as f64 / medians[0] as f64 - 1.0;
        eprintln!(
            "  {path} {mode}-tracer overhead vs disabled: {:+.2}%",
            overhead * 100.0
        );
    }
}

fn main() {
    let mut h = Harness::new("trace_overhead");

    // Hot path 1: sampling on one session over a real generated space
    // (csp.solve spans + attempt/propagation counters when traced).
    let dag = ops::gemm(512, 512, 512);
    let space = SpaceGenerator::new(v100())
        .generate_named(&dag, &SpaceOptions::heron(), "gemm-512")
        .expect("generates");
    let mut session = SolveSession::new(&space.csp);
    let policy = SolvePolicy::fixed(4096);
    tracer_rows(&mut h, "solve", 7, |tracer, rng| {
        session.solve(rng, 16, &policy, tracer).solutions.len()
    });

    // Hot path 2: GBDT fit (cost.fit span + fit counters when traced).
    let (x, y) = synthetic(512, 80, 9);
    let params = GbdtParams::default();
    tracer_rows(&mut h, "gbdt-fit", 1, |tracer, rng| {
        Gbdt::fit_traced(&x, &y, &params, rng, tracer).num_trees()
    });

    // Hot path 3: the full tuner step loop, with search-health insight
    // disabled (the default — every insight hook behind a `is_some`
    // branch) vs enabled. The disabled-insight overhead relative to a
    // hypothetical uninstrumented tuner is a handful of branch tests per
    // round, so the enabled-vs-disabled delta printed here is a strict
    // upper bound on it; the acceptance bar is <2% for the disabled
    // path, which holds as long as the printed enabled overhead stays
    // single-digit.
    let tuner_dag = ops::gemm(256, 256, 256);
    let tuner_space = || {
        SpaceGenerator::new(v100())
            .generate_named(&tuner_dag, &SpaceOptions::heron(), "gemm-256")
            .expect("generates")
    };
    let base = h
        .bench("tuner/insight-disabled", || {
            let mut tuner = heron_core::tuner::Tuner::new(
                tuner_space(),
                heron_dla::Measurer::new(v100()),
                heron_core::tuner::TuneConfig::quick(16),
                7,
            );
            black_box(tuner.run().curve.len())
        })
        .median_ns;
    let enabled = h
        .bench("tuner/insight-enabled", || {
            let mut tuner = heron_core::tuner::Tuner::new(
                tuner_space(),
                heron_dla::Measurer::new(v100()),
                heron_core::tuner::TuneConfig::quick(16),
                7,
            )
            .with_insight(8);
            black_box(tuner.run().curve.len())
        })
        .median_ns;
    let overhead = enabled as f64 / base as f64 - 1.0;
    eprintln!(
        "  tuner insight-enabled overhead (upper bound on disabled): {:+.2}%",
        overhead * 100.0
    );

    // Raw per-operation cost of the insight log itself.
    let mut log = heron_insight::SearchLog::new("bench", "v100", 7, 8);
    log.set_vars((0..20).map(|i| (format!("v{i}"), 16u64)));
    let mut rng = HeronRng::from_seed(3);
    let rows: Vec<Vec<i64>> = (0..32)
        .map(|_| (0..20).map(|_| (rng.random::<u64>() % 16) as i64).collect())
        .collect();
    h.bench("insight/observe-assignment/10k", || {
        for _ in 0..500u32 {
            for row in &rows {
                log.observe_assignment(row);
            }
        }
        black_box(log.vars.len())
    });
    h.bench("insight/population-entropy/32x20", || {
        black_box(heron_insight::population_entropy_bits(&rows))
    });

    // Raw per-operation cost of the tracer itself.
    let off = Tracer::disabled();
    h.bench("tracer/span-disabled/10k", || {
        for i in 0..10_000u64 {
            let _g = off.span_with("bench.span", || [("i", i.to_string())]);
        }
        black_box(off.event_count())
    });
    h.bench("tracer/counter-disabled/10k", || {
        for _ in 0..10_000u64 {
            off.counter_add("bench.count", 1);
        }
        black_box(off.metrics_len())
    });
    let live = Tracer::manual();
    h.bench("tracer/span-enabled/10k", || {
        for i in 0..10_000u64 {
            let _g = live.span_with("bench.span", || [("i", i.to_string())]);
        }
        black_box(live.event_count())
    });
    let ring_raw = Tracer::manual();
    ring_raw.set_ring(64, true);
    h.bench("tracer/span-ring/10k", || {
        for i in 0..10_000u64 {
            let _g = ring_raw.span_with("bench.span", || [("i", i.to_string())]);
        }
        black_box(ring_raw.event_count())
    });
    h.bench("tracer/counter-enabled/10k", || {
        for _ in 0..10_000u64 {
            live.counter_add("bench.count", 1);
        }
        black_box(live.metrics_len())
    });
    h.finish();
}

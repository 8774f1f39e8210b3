//! Regenerates **Figure 7 (+ Table 9)**: GEMM (G1–G5) and C2D (C1–C5) on
//! the simulated NVIDIA T4 and A100, with absolute performance so hardware
//! utilisation is visible, comparing Heron to AutoTVM / Ansor / AMOS and
//! the vendor libraries (cuDNN/cuBLAS model).

use heron_baselines::{akg_outcome, Approach};
use heron_bench::{row, run_approach, run_vendor, seed, trials};
use heron_workloads::{table9_c2d, table9_gemm};

fn main() {
    let trials = trials();
    println!("Figure 7 / Table 9: absolute Gops on T4 and A100 (trials={trials})");
    row(&[
        "platform", "workload", "Heron", "AutoTVM", "Ansor", "AMOS", "AKG", "Vendor", "peak%",
    ]
    .map(String::from));
    for spec in [heron_dla::t4(), heron_dla::a100()] {
        let peak = spec.peak_ops_per_sec() / 1e9;
        for w in table9_gemm().into_iter().chain(table9_c2d()) {
            let heron = run_approach(Approach::Heron, &spec, &w, trials, seed());
            let autotvm = run_approach(Approach::AutoTvm, &spec, &w, trials, seed());
            let ansor = run_approach(Approach::Ansor, &spec, &w, trials, seed());
            let amos = run_approach(Approach::Amos, &spec, &w, trials, seed());
            let vendor = run_vendor(&spec, &w, seed());
            let akg = akg_outcome(&spec, &w.build(spec.in_dtype), &w.name, seed());
            let hg = heron.as_ref().map_or(0.0, |o| o.best_gflops);
            let fmt = |o: &Option<heron_baselines::Outcome>| {
                o.as_ref()
                    .map_or("-".into(), |o| format!("{:.0}", o.best_gflops))
            };
            row(&[
                spec.name.to_string(),
                w.name.clone(),
                format!("{hg:.0}"),
                fmt(&autotvm),
                fmt(&ansor),
                fmt(&amos),
                akg.map_or("-".into(), |o| format!("{:.0}", o.gflops)),
                vendor.map_or("-".into(), |(g, _)| format!("{g:.0}")),
                format!("{:.1}", hg / peak * 100.0),
            ]);
        }
    }
}

//! `bench_compare` — the perf-trajectory regression gate (DESIGN.md §7).
//!
//! ```text
//! bench_compare BASE.json NEW.json [--max-perf-drop F] [--max-latency-rise F]
//!               [--max-throughput-drop F] [--max-accuracy-drop F]
//! ```
//!
//! Reads two `BENCH_heron.json` snapshots (both must validate against
//! the `heron-bench-v1` schema), runs [`heron_insight::compare`] with
//! the default deterministic thresholds (overridable per-metric via the
//! `--max-*` flags, fractions not percent), prints every regression
//! message, and exits 1 when the gate fails (2 when an input cannot be
//! loaded). Comparing a snapshot against itself always passes, which is
//! what `verify.sh` uses as its smoke check.

use heron_bench::{flag, read_json};
use heron_insight::{compare, BenchReport, CompareConfig};

fn load(path: &str) -> BenchReport {
    BenchReport::from_json(&read_json(path)).unwrap_or_else(|e| {
        eprintln!("`{path}` fails the heron-bench-v1 schema: {e}");
        if e.contains("randsat_") || e.contains("sol_per_kprop") {
            eprintln!(
                "  note: `{path}` predates the solver-throughput snapshot fields; \
                 regenerate it with bench_snapshot (only `randsat_max_trail` and \
                 `incremental_hits` are optional for old baselines)"
            );
        }
        std::process::exit(2)
    })
}

fn frac(args: &[String], name: &str, default: f64) -> f64 {
    match flag(args, name) {
        None => default,
        Some(v) => match v.parse::<f64>() {
            Ok(f) if f.is_finite() && f >= 0.0 => f,
            _ => {
                eprintln!("{name} expects a non-negative fraction, got `{v}`");
                std::process::exit(2);
            }
        },
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let positional: Vec<&String> = {
        // Drop `--flag value` pairs, keep bare operands.
        let mut out = Vec::new();
        let mut i = 0;
        while i < args.len() {
            if args[i].starts_with("--") {
                i += 2;
            } else {
                out.push(&args[i]);
                i += 1;
            }
        }
        out
    };
    let [base_path, new_path] = positional.as_slice() else {
        eprintln!(
            "usage: bench_compare BASE.json NEW.json [--max-perf-drop F] \
             [--max-latency-rise F] [--max-throughput-drop F] [--max-accuracy-drop F]"
        );
        std::process::exit(2);
    };

    let defaults = CompareConfig::default();
    let cfg = CompareConfig {
        max_perf_drop: frac(&args, "--max-perf-drop", defaults.max_perf_drop),
        max_latency_rise: frac(&args, "--max-latency-rise", defaults.max_latency_rise),
        max_throughput_drop: frac(&args, "--max-throughput-drop", defaults.max_throughput_drop),
        max_accuracy_drop: frac(&args, "--max-accuracy-drop", defaults.max_accuracy_drop),
    };

    let base = load(base_path);
    let new = load(new_path);
    let regressions = compare(&base, &new, &cfg);
    if regressions.is_empty() {
        println!(
            "bench_compare: OK — {} workloads, geomean {:.2} → {:.2} Gops",
            base.workloads.len(),
            base.geomean_gflops(),
            new.geomean_gflops()
        );
        return;
    }
    eprintln!(
        "bench_compare: FAIL — {} regression(s) vs `{base_path}`:",
        regressions.len()
    );
    for r in &regressions {
        eprintln!("  {r}");
    }
    std::process::exit(1);
}

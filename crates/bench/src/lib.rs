//! Shared harness code for the figure/table regeneration binaries.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the
//! paper; see `DESIGN.md` for the experiment index. Binaries print
//! tab-separated tables to stdout so their output can be diffed, plotted,
//! or pasted into EXPERIMENTS.md.
//!
//! Two environment knobs keep runtimes manageable:
//!
//! * `HERON_TRIALS` — measured trials per tuning run (default 300; the
//!   paper uses 2,000). Rankings are stable well below the paper budget
//!   because the simulated measurement is noise-controlled.
//! * `HERON_SEED` — RNG seed (default 2023).

use heron_baselines::{tune, vendor_outcome, Approach, Outcome};
use heron_dla::DlaSpec;
use heron_tensor::DType;
use heron_trace::{Json, Tracer};
use heron_workloads::{operator_names, operator_suite, Workload};

/// Measured trials per tuning run (`HERON_TRIALS`, default 300).
pub fn trials() -> usize {
    env_num("HERON_TRIALS").unwrap_or(300)
}

/// Base RNG seed (`HERON_SEED`, default 2023).
pub fn seed() -> u64 {
    env_num("HERON_SEED").unwrap_or(2023)
}

/// Geometric mean of positive values (ignores non-positive entries).
pub fn geomean(values: &[f64]) -> f64 {
    let logs: Vec<f64> = values
        .iter()
        .filter(|&&v| v > 0.0)
        .map(|v| v.ln())
        .collect();
    if logs.is_empty() {
        return 0.0;
    }
    (logs.iter().sum::<f64>() / logs.len() as f64).exp()
}

/// The input element type a platform's intrinsics consume.
pub fn platform_dtype(spec: &DlaSpec) -> DType {
    spec.in_dtype
}

/// Runs one approach on one workload, returning `None` when the operator
/// cannot target the platform (reported as `n/a` in tables).
pub fn run_approach(
    approach: Approach,
    spec: &DlaSpec,
    workload: &Workload,
    trials: usize,
    seed: u64,
) -> Option<Outcome> {
    let dag = workload.build(platform_dtype(spec));
    tune(approach, spec, &dag, &workload.name, trials, seed).ok()
}

/// Vendor-library data point for a workload.
pub fn run_vendor(spec: &DlaSpec, workload: &Workload, seed: u64) -> Option<(f64, f64)> {
    let dag = workload.build(platform_dtype(spec));
    vendor_outcome(spec, &dag, &workload.name, seed).map(|v| (v.gflops, v.latency_s))
}

/// Prints the rows of an operator figure (Figures 6 and 8) under its
/// header: for each operator, Heron's geomean Gop/s over the operator's
/// shapes and its geomean speedups over AutoTVM, Ansor, AMOS and the
/// vendor library, then the geomean speedups over every shape.
pub fn print_operator_speedups(spec: &DlaSpec, trials: usize, seed: u64) {
    let mut all: [Vec<f64>; 4] = Default::default();
    for op in operator_names() {
        let mut speedups: [Vec<f64>; 4] = Default::default();
        let mut heron_scores = Vec::new();
        for w in operator_suite(op) {
            let Some(heron) = run_approach(Approach::Heron, spec, &w, trials, seed) else {
                continue;
            };
            heron_scores.push(heron.best_gflops);
            let others = [
                run_approach(Approach::AutoTvm, spec, &w, trials, seed).map(|o| o.best_gflops),
                run_approach(Approach::Ansor, spec, &w, trials, seed).map(|o| o.best_gflops),
                run_approach(Approach::Amos, spec, &w, trials, seed).map(|o| o.best_gflops),
                run_vendor(spec, &w, seed).map(|(g, _)| g),
            ];
            for (i, other) in others.iter().enumerate() {
                if let Some(g) = other {
                    if *g > 0.0 && heron.best_gflops > 0.0 {
                        speedups[i].push(heron.best_gflops / g);
                    }
                }
            }
        }
        println!(
            "{op}\t{:.0}\t{:.2}\t{:.2}\t{:.2}\t{:.2}",
            geomean(&heron_scores),
            geomean(&speedups[0]),
            geomean(&speedups[1]),
            geomean(&speedups[2]),
            geomean(&speedups[3])
        );
        for i in 0..4 {
            all[i].extend(speedups[i].iter());
        }
    }
    println!(
        "geomean\t-\t{:.2}\t{:.2}\t{:.2}\t{:.2}",
        geomean(&all[0]),
        geomean(&all[1]),
        geomean(&all[2]),
        geomean(&all[3])
    );
}

/// Prints a TSV row.
pub fn row(cells: &[String]) {
    println!("{}", cells.join("\t"));
}

/// Value of a `--name VALUE` flag, shared by every binary's argument
/// parsing; `None` when the flag is absent. A flag with no value after
/// it is a usage error, as for [`num_flag`].
pub fn flag(args: &[String], name: &str) -> Option<String> {
    num_flag(args, name)
}

/// Parsed value of a numeric `--name VALUE` flag, `None` when the flag
/// is absent. A value that does not parse, or a flag with no value after
/// it, is a usage error: exits with status 2 naming the flag, never
/// falling back to a default.
pub fn num_flag<T: std::str::FromStr>(args: &[String], name: &str) -> Option<T> {
    value_after(args, name).map(|raw| or_usage_exit(parse_value(name, raw)))
}

/// The argument after the flag `name`: `None` when the flag is absent,
/// `Some(None)` when nothing follows it or the next argument is itself a
/// `--flag` (so `--trace-out --metrics-out M` never writes a file named
/// `--metrics-out`).
fn value_after<'a>(args: &'a [String], name: &str) -> Option<Option<&'a str>> {
    let i = args.iter().position(|a| a == name)?;
    Some(
        args.get(i + 1)
            .map(String::as_str)
            .filter(|v| !v.starts_with("--")),
    )
}

/// Parsed value of the numeric environment variable `var`, `None` when
/// it is unset. Exits with status 2 naming `var` when it does not parse.
pub fn env_num<T: std::str::FromStr>(var: &str) -> Option<T> {
    let raw = std::env::var(var).ok()?;
    Some(or_usage_exit(parse_value(var, Some(&raw))))
}

/// Parses `raw`, the value of the flag or environment variable `name`
/// (`None`: a flag with no value after it).
fn parse_value<T: std::str::FromStr>(name: &str, raw: Option<&str>) -> Result<T, String> {
    let raw = raw.ok_or_else(|| format!("{name} expects a value"))?;
    raw.parse().map_err(|_| {
        let ty = std::any::type_name::<T>();
        format!("{name} expects a {ty}, got `{raw}`")
    })
}

fn or_usage_exit<T>(parsed: Result<T, String>) -> T {
    parsed.unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2)
    })
}

/// Whether a bare `--name` flag is present.
pub fn has_flag(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

/// Handles the shared `--metrics-out PATH` flag, read before any work:
/// writes the tracer's metrics snapshot to `path`, if given, and confirms
/// on stderr (stdout stays pure TSV). Exits non-zero when the file
/// cannot be written.
pub fn write_metrics_flag(path: Option<&str>, tracer: &Tracer) {
    if let Some(path) = path {
        if let Err(e) = tracer.write_metrics_tsv(path) {
            eprintln!("cannot write metrics to `{path}`: {e}");
            std::process::exit(1);
        }
        eprintln!("metrics written to `{path}`");
    }
}

/// Reads and parses the JSON document at `path`. Exits with status 2
/// and a message naming the file when it cannot be read or is not JSON
/// — the load-error status every binary that reads an artifact shares.
pub fn read_json(path: &str) -> Json {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read `{path}`: {e}");
        std::process::exit(2)
    });
    heron_trace::json::parse(&text).unwrap_or_else(|e| {
        eprintln!("`{path}` is not valid JSON: {e}");
        std::process::exit(2)
    })
}

/// Reads and parses the SLO spec at `path`, exiting with status 1 and a
/// message naming the file when it cannot be read or parsed.
pub fn read_slo(path: &str) -> heron_pulse::SloSpec {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read SLO spec `{path}`: {e}");
        std::process::exit(1)
    });
    heron_pulse::SloSpec::parse(&text).unwrap_or_else(|e| {
        eprintln!("bad SLO spec `{path}`: {e}");
        std::process::exit(1)
    })
}

/// Writes `data` to `path` and confirms on stderr; exits with status 1
/// and a message naming the file when it cannot be written.
pub fn write_file(path: &str, data: &str, what: &str) {
    if let Err(e) = std::fs::write(path, data) {
        eprintln!("cannot write {what} `{path}`: {e}");
        std::process::exit(1);
    }
    eprintln!("{what} written to `{path}`");
}

/// Returns the validated value, or exits with status 1 when a document
/// this binary is about to write fails its own validator — release
/// builds included, so a writer bug never reaches disk.
pub fn must_validate<T>(what: &str, checked: Result<T, String>) -> T {
    checked.unwrap_or_else(|e| {
        eprintln!("internal error: {what} fails its own schema: {e}");
        std::process::exit(1)
    })
}

/// Downsamples a curve to at most `n` evenly spaced points (always keeps
/// the last).
pub fn downsample(curve: &[f64], n: usize) -> Vec<(usize, f64)> {
    if curve.is_empty() {
        return Vec::new();
    }
    let step = (curve.len() as f64 / n as f64).max(1.0);
    let mut out = Vec::new();
    let mut i = 0.0;
    while (i as usize) < curve.len() {
        let idx = i as usize;
        out.push((idx + 1, curve[idx]));
        i += step;
    }
    if out.last().map(|(i, _)| *i) != Some(curve.len()) {
        out.push((curve.len(), *curve.last().expect("non-empty")));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-9);
        assert_eq!(geomean(&[]), 0.0);
        assert!(
            (geomean(&[3.0, 0.0, 3.0]) - 3.0).abs() < 1e-9,
            "zeros ignored"
        );
    }

    #[test]
    fn downsample_keeps_last() {
        let curve: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let pts = downsample(&curve, 10);
        assert!(pts.len() <= 12);
        assert_eq!(pts.last(), Some(&(100, 100.0)));
    }

    #[test]
    fn flag_helpers_parse_args() {
        let args: Vec<String> = ["--seed", "7", "--smoke"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(flag(&args, "--seed"), Some("7".into()));
        assert_eq!(flag(&args, "--trials"), None);
        // `--smoke` is last: read as a value flag it has no value, which
        // is a usage error.
        assert_eq!(value_after(&args, "--smoke"), Some(None));
        assert_eq!(
            parse_value::<String>("--smoke", None),
            Err("--smoke expects a value".to_string())
        );
        assert!(has_flag(&args, "--smoke"));
        assert!(!has_flag(&args, "--resume"));
        // A value flag followed by another flag has no value either: the
        // next flag is not swallowed as a path.
        let args: Vec<String> = ["--trace-out", "--metrics-out", "M"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(value_after(&args, "--trace-out"), Some(None));
        assert_eq!(value_after(&args, "--metrics-out"), Some(Some("M")));
        assert_eq!(flag(&args, "--metrics-out"), Some("M".into()));
    }

    #[test]
    fn numeric_settings_parse_or_name_the_setting() {
        let args: Vec<String> = ["--trials", "24", "--fault-rate", "0.2"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(num_flag::<usize>(&args, "--trials"), Some(24));
        assert_eq!(num_flag::<f64>(&args, "--fault-rate"), Some(0.2));
        assert_eq!(num_flag::<u64>(&args, "--seed"), None);
        assert_eq!(
            parse_value::<usize>("--trials", Some("1O")),
            Err("--trials expects a usize, got `1O`".to_string())
        );
        assert_eq!(
            parse_value::<f64>("--fault-rate", Some("0,2")),
            Err("--fault-rate expects a f64, got `0,2`".to_string())
        );
        assert_eq!(
            parse_value::<u64>("--seed", None),
            Err("--seed expects a value".to_string())
        );
        assert_eq!(
            parse_value::<usize>("HERON_TRIALS", Some("abc")),
            Err("HERON_TRIALS expects a usize, got `abc`".to_string())
        );
    }
}

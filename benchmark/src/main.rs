//! heron-hostbench — host-time benchmark of the Heron reproduction.
//!
//! ```text
//! heron-hostbench --workload NAME --seed N --seconds S --trace 0|1 [--smoke]
//! heron-hostbench run [--seed N] [--seconds S] [--traced] [--smoke] [--out FILE]
//! heron-hostbench compare A.json B.json
//! ```
//!
//! The first form measures one workload and prints, as the last line of
//! standard output, one JSON object with `correct`, `attempted`, `failed`
//! and `metrics`: the end-to-end metrics with `--trace 0` (tracing off), the
//! per-layer metrics with `--trace 1`. `run` does that for every workload,
//! each in a fresh child process so that peak memory is per workload, prints
//! every metric by name with its unit and writes one result file;
//! `compare` judges two such files. README.md describes the method.
//!
//! Exit codes: 0 ok; 1 `compare` found a regression or a count mismatch, or
//! `run` saw an incorrect output; 2 usage or unreadable input.

mod checks;
mod measure;
mod names;
mod procfs;
mod report;
mod stats;
mod traced;
mod workloads;

use std::process::{Command, ExitCode};

use heron_trace::json::{self, Json};

use names::{MetricDef, END_TO_END, PER_LAYER, WORKLOADS};

/// `run_seconds` of `BENCHMARK.json`, the default of `--seconds`.
const RUN_SECONDS: u64 = 20;
/// `--seconds` under `--smoke`.
const SMOKE_SECONDS: u64 = 1;
/// Where traces go, and `run`'s result file unless `--out` says otherwise.
const OUT_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/out");

const USAGE: &str =
    "usage: heron-hostbench --workload NAME --seed N --seconds S --trace 0|1 [--smoke]
       heron-hostbench run [--seed N] [--seconds S] [--traced] [--smoke] [--out FILE]
       heron-hostbench compare A.json B.json";

/// The value following `name` in `args`.
fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    let at = args.iter().position(|a| a == name)?;
    args.get(at + 1).map(String::as_str)
}

/// The numeric value of flag `name`, `default` when absent.
fn numeric_flag(args: &[String], name: &str, default: u64) -> Result<u64, String> {
    match flag(args, name) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("`{name}` needs a whole number, got `{v}`")),
    }
}

/// Measures one workload and prints its one-line result last.
fn measure_one(args: &[String]) -> Result<ExitCode, String> {
    let workload = flag(args, "--workload").ok_or("`--workload` is required")?;
    let smoke = args.iter().any(|a| a == "--smoke");
    let seed = numeric_flag(args, "--seed", workloads::REFERENCE_SEED)?;
    let seconds = numeric_flag(
        args,
        "--seconds",
        if smoke { SMOKE_SECONDS } else { RUN_SECONDS },
    )?;
    let trace = match flag(args, "--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("`--trace` is 0 or 1, got `{other}`")),
    };
    let units = workloads::units(workload, seed, smoke).ok_or_else(|| {
        format!(
            "unknown workload `{workload}`; known: {}",
            WORKLOADS.join(", ")
        )
    })?;
    eprintln!(
        "{workload}: seed {seed}, {seconds} s, {}",
        if trace { "traced" } else { "untraced" }
    );

    let (defs, line): (&[MetricDef], Json) = if trace {
        let (ledger, checks) = traced::per_layer(workload, &units, seconds, smoke);
        for failure in &checks.failures {
            eprintln!("  FAILED {failure}");
        }
        let line = report::result_json(
            &PER_LAYER,
            |name| Some(ledger.get(name)),
            checks.attempted(),
            checks.failed(),
        );
        (&PER_LAYER, line)
    } else {
        let e = measure::end_to_end(&units, seconds, smoke);
        for failure in &e.checks.failures {
            eprintln!("  FAILED {failure}");
        }
        eprintln!("  {} passes", e.passes);
        let line = report::result_json(
            &END_TO_END,
            |name| match name {
                "wall_s" => Some(e.wall_s),
                "setup_s" => Some(e.setup_s),
                "peak_rss_mb" => e.peak_rss_mib,
                "quality_gflops" => Some(e.quality_gflops),
                _ => None,
            },
            e.checks.attempted(),
            e.checks.failed(),
        );
        (&END_TO_END, line)
    };
    eprint!("{}", report::render_table(workload, defs, &line));
    println!("{}", line.render());
    Ok(ExitCode::SUCCESS)
}

/// Runs this executable on one workload in a child process and parses the
/// last line of its standard output.
fn child_result(
    workload: &str,
    seed: u64,
    seconds: u64,
    trace: bool,
    smoke: bool,
) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if smoke {
        cmd.arg("--smoke");
    }
    // `output` waits for the child; its progress lines go to our stderr.
    let out = cmd
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the child for `{workload}`: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "the child for `{workload}` exited with {}",
            out.status
        ));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("the child for `{workload}` printed nothing"))?;
    json::parse(last).map_err(|e| format!("the child for `{workload}` printed no result: {e}"))
}

/// Measures every workload and writes one `heron-hostbench-v1` file.
fn run_all(args: &[String]) -> Result<ExitCode, String> {
    let smoke = args.iter().any(|a| a == "--smoke");
    let traced = args.iter().any(|a| a == "--traced");
    let seed = numeric_flag(args, "--seed", workloads::REFERENCE_SEED)?;
    let seconds = numeric_flag(
        args,
        "--seconds",
        if smoke { SMOKE_SECONDS } else { RUN_SECONDS },
    )?;
    let out_path = flag(args, "--out")
        .map(str::to_string)
        .unwrap_or_else(|| format!("{OUT_DIR}/result_seed{seed}.json"));

    let mut all_correct = true;
    let mut rows = Vec::new();
    for workload in WORKLOADS {
        let untraced = child_result(workload, seed, seconds, false, smoke)?;
        print!("{}", report::render_table(workload, &END_TO_END, &untraced));
        let mut correct = untraced.get("correct") == Some(&Json::Bool(true));
        let mut metrics = match untraced.get("metrics") {
            Some(Json::Obj(m)) => m.clone(),
            _ => return Err(format!("the child for `{workload}` printed no metrics")),
        };
        if traced {
            let per_layer = child_result(workload, seed, seconds, true, smoke)?;
            print!("{}", report::render_table(workload, &PER_LAYER, &per_layer));
            correct &= per_layer.get("correct") == Some(&Json::Bool(true));
            if let Some(Json::Obj(m)) = per_layer.get("metrics") {
                metrics.extend(m.iter().cloned());
            }
        }
        println!("  {:<32} {:>18}", "correct", correct);
        all_correct &= correct;
        rows.push(Json::Obj(vec![
            ("name".into(), Json::Str(workload.to_string())),
            ("correct".into(), Json::Bool(correct)),
            (
                "attempted".into(),
                untraced.get("attempted").cloned().unwrap_or(Json::Null),
            ),
            (
                "failed".into(),
                untraced.get("failed").cloned().unwrap_or(Json::Null),
            ),
            ("metrics".into(), Json::Obj(metrics)),
        ]));
    }
    let doc = Json::Obj(vec![
        ("schema".into(), Json::Str(report::SCHEMA.into())),
        ("seed".into(), Json::Num(seed as f64)),
        ("seconds".into(), Json::Num(seconds as f64)),
        ("smoke".into(), Json::Bool(smoke)),
        ("workloads".into(), Json::Arr(rows)),
    ]);
    if let Some(dir) = std::path::Path::new(&out_path).parent() {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create `{}`: {e}", dir.display()))?;
    }
    std::fs::write(&out_path, doc.render_pretty())
        .map_err(|e| format!("cannot write `{out_path}`: {e}"))?;
    println!("result written to {out_path}");
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

/// Loads a file `run` wrote.
fn load_run_file(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("`{path}` is not JSON: {e}"))?;
    if doc.get("schema").and_then(Json::as_str) != Some(report::SCHEMA) {
        return Err(format!("`{path}` is not a {} file", report::SCHEMA));
    }
    Ok(doc)
}

fn compare_files(args: &[String]) -> Result<ExitCode, String> {
    let [a, b] = args else {
        return Err("`compare` needs exactly two files".to_string());
    };
    let (text, bad) = report::compare(&load_run_file(a)?, &load_run_file(b)?);
    print!("{text}");
    Ok(if bad {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => run_all(&args[1..]),
        Some("compare") => compare_files(&args[1..]),
        Some(first) if first.starts_with("--") => measure_one(&args),
        _ => Err("no command given".to_string()),
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("error: {e}\n{USAGE}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the root of the repository.
    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json is readable"))
            .expect("BENCHMARK.json is JSON")
    }

    fn names_of(doc: &Json, key: &str) -> Vec<String> {
        doc.get(key)
            .and_then(Json::as_arr)
            .unwrap_or_else(|| panic!("`{key}` is an array"))
            .iter()
            .map(|m| {
                m.get("name")
                    .and_then(Json::as_str)
                    .expect("named")
                    .to_string()
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_what_is_emitted() {
        let doc = benchmark_json();
        assert_eq!(names_of(&doc, "workloads"), WORKLOADS);
        for (key, defs) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed = doc.get(key).and_then(Json::as_arr).unwrap();
            assert_eq!(
                names_of(&doc, key),
                defs.iter().map(|d| d.name).collect::<Vec<_>>()
            );
            for (entry, def) in listed.iter().zip(defs) {
                assert_eq!(
                    entry.get("unit").and_then(Json::as_str),
                    Some(def.unit),
                    "{}",
                    def.name
                );
                assert_eq!(
                    entry.get("better").and_then(Json::as_str),
                    Some(def.better.as_str()),
                    "{}",
                    def.name
                );
                assert_eq!(
                    entry.get("bound").and_then(Json::as_f64),
                    def.bound,
                    "{}",
                    def.name
                );
            }
        }
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_u64),
            Some(RUN_SECONDS)
        );
        assert_eq!(
            doc.get("paths").and_then(Json::as_arr).map(<[Json]>::len),
            Some(1)
        );
    }

    /// The whole harness on tiny budgets: every workload, untraced and
    /// traced, must be correct, and the ledger must attribute the time.
    #[test]
    fn a_smoke_run_of_every_workload_is_correct_and_attributed() {
        for workload in WORKLOADS {
            let units = workloads::units(workload, 7, true).unwrap();
            let e = measure::end_to_end(&units, 0, true);
            assert_eq!(e.checks.failed(), 0, "{workload}: {:?}", e.checks.failures);
            assert!(e.wall_s > 0.0 && e.setup_s > 0.0 && e.quality_gflops > 0.0);
            assert!(e.passes >= measure::MIN_PASSES_SMOKE);

            let (ledger, checks) = traced::per_layer(workload, &units, 0, true);
            assert_eq!(checks.failed(), 0, "{workload}: {:?}", checks.failures);
            let step_s = ledger.get("tuner.step_s");
            let parts: f64 = [
                "cga.populate_s",
                "cga.evolve_s",
                "cost.fit_s",
                "dla.measure_s",
                "tuner.step_self_s",
            ]
            .iter()
            .map(|n| ledger.get(n))
            .sum();
            assert!(step_s > 0.0 && (parts - step_s).abs() < 1e-6 * step_s.max(1.0));
            assert!(ledger.get("csp.propagations") > 0.0);
            assert_eq!(ledger.get("dla.invalid_trials"), 0.0);
            assert_eq!(ledger.get("bench.failed_share"), 0.0);
            match workload {
                "compile_resnet50" => {
                    assert_eq!(
                        ledger.get("generate.spaces"),
                        ledger.get("graph.tuned_workloads")
                    );
                    assert!(ledger.get("graph.cache_hits") > 0.0);
                }
                "serve_chaos" => {
                    assert_eq!(ledger.get("serve.jobs_completed"), 12.0);
                    assert_eq!(ledger.get("serve.recoveries"), 4.0);
                    assert_eq!(ledger.get("serve.attempts"), 16.0);
                    assert!(ledger.get("serve.inline_s") > 0.0);
                }
                _ => assert_eq!(ledger.get("serve.run_s"), 0.0),
            }
        }
    }

    #[test]
    fn flags_are_read_by_name() {
        let args: Vec<String> = ["--workload", "w", "--seed", "7", "--trace"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(flag(&args, "--workload"), Some("w"));
        assert_eq!(flag(&args, "--trace"), None);
        assert_eq!(numeric_flag(&args, "--seed", 1), Ok(7));
        assert_eq!(numeric_flag(&args, "--seconds", 20), Ok(20));
        assert!(numeric_flag(&args, "--workload", 1).is_err());
    }
}

//! `heron_scope` — validate and render `scope.json` schedule documents.
//!
//! Reads a `heron-scope-v1` document written by
//! `heron_serve --scope-out` and either validates it or draws the
//! per-worker occupancy timeline it describes.
//!
//! ```text
//! heron_scope scope.json              # summary + text timeline
//! heron_scope scope.json --width 120  # wider timeline
//! heron_scope scope.json --check      # validate only; exit 1 if invalid
//! ```
//!
//! A file that cannot be read or is not JSON exits 2.
//!
//! Validation enforces the document invariants — schema, per-segment
//! structure, lane accounting — and the central one: the critical path
//! is a contiguous chain from 0 to the makespan whose durations sum
//! *exactly* to `makespan_ns`. The summary line printed on success
//! states that equality, so the CI stage can grep for it.

use heron_bench::{has_flag, num_flag, read_json};
use heron_scope::{render_timeline, validate_scope};
use heron_trace::Json;

fn usage() -> ! {
    eprintln!("usage: heron_scope <scope.json> [--check] [--width N]");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(path) = args
        .iter()
        .enumerate()
        .find(|(i, a)| !a.starts_with("--") && (*i == 0 || args[i - 1] != "--width"))
        .map(|(_, a)| a)
    else {
        usage();
    };
    let width = num_flag(&args, "--width").unwrap_or(72);
    let doc = read_json(path);
    if let Err(e) = validate_scope(&doc) {
        eprintln!("invalid scope document `{path}`: {e}");
        std::process::exit(1);
    }
    let jobs = doc
        .get("jobs")
        .and_then(Json::as_arr)
        .map_or(0, <[Json]>::len);
    let workers = doc.get("workers").and_then(Json::as_u64).unwrap_or(0);
    let makespan_ns = doc.get("makespan_ns").and_then(Json::as_u64).unwrap_or(0);
    let makespan_s = doc.get("makespan_s").and_then(Json::as_f64).unwrap_or(0.0);
    let critical = doc
        .get("critical_path")
        .and_then(Json::as_arr)
        .map_or(0, <[Json]>::len);
    println!("ok: {jobs} job(s), {workers} worker(s), makespan {makespan_s:.3}s");
    println!("critical-path sum == makespan ({makespan_ns} ns, {critical} segment(s))");
    if has_flag(&args, "--check") {
        return;
    }
    print!("{}", render_timeline(&doc, width));
}

//! `heron_status` — the deterministic ops dashboard for `heron-serve`.
//!
//! Reads a `pulse.json` document (written by `heron_serve --pulse-out`),
//! validates it against the `heron-pulse-v1` schema, and renders the
//! service dashboard: one row per job with its SLI columns and breach
//! flags, service totals, the hottest spans per job, recorded
//! `pulse.warn.*` anomalies, and any SLO breaches.
//!
//! ```text
//! heron_status pulse.json                 # render the dashboard
//! heron_status pulse.json --top 5         # …with 5 hottest spans per job
//! heron_status pulse.json --slo SPEC      # re-judge under a different SLO spec
//! heron_status pulse.json --check         # exit 1 if any SLO rule is breached
//! ```
//!
//! A file that cannot be read or is not JSON exits 2; one that is not a
//! valid `heron-pulse-v1` document exits 1.
//!
//! The dashboard is a pure function of `pulse.json` (itself
//! byte-identical across reruns of the same service script), so its
//! output is byte-stable too — `--check` is the CI gate that fails the
//! build when a committed SLO spec is breached.

use heron_bench::{flag, has_flag, num_flag, read_json, read_slo};
use heron_pulse::{attach_slo, breach_count, render_dashboard, validate_pulse};

fn usage() -> ! {
    eprintln!("usage: heron_status <pulse.json> [--check] [--top N] [--slo SPEC]");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if has_flag(&args, "--help") {
        usage();
    }
    let Some(path) = args
        .iter()
        .enumerate()
        .find(|(i, a)| {
            !a.starts_with("--") && (*i == 0 || (args[i - 1] != "--top" && args[i - 1] != "--slo"))
        })
        .map(|(_, a)| a)
    else {
        usage();
    };
    let mut doc = read_json(path);
    if let Err(e) = validate_pulse(&doc) {
        eprintln!("`{path}` is not a valid heron-pulse-v1 document: {e}");
        std::process::exit(1);
    }
    if let Some(spec_path) = flag(&args, "--slo") {
        doc = attach_slo(doc, &read_slo(&spec_path));
    }
    let top = num_flag(&args, "--top").unwrap_or(3);
    print!("{}", render_dashboard(&doc, top));
    if has_flag(&args, "--check") {
        let breaches = breach_count(&doc);
        if breaches > 0 {
            eprintln!("SLO check FAILED: {breaches} rule(s) breached");
            std::process::exit(1);
        }
        println!("SLO check: PASS");
    }
}

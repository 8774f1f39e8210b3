//! `trace_report` — validate and render session traces.
//!
//! Reads a JSONL trace written by `heron-cli tune --trace-out` (or any
//! `heron_trace::Tracer::write_jsonl` output) and either validates it or
//! renders the hierarchical profile tree it implies.
//!
//! ```text
//! trace_report trace.jsonl            # profile tree + span/point totals
//! trace_report trace.jsonl --top 5    # …plus the 5 hottest spans, flat
//! trace_report trace.jsonl --job g2   # one job's slice of a service trace
//! trace_report trace.jsonl --check    # validate only; exit 1 if invalid
//! ```
//!
//! Validation enforces the trace invariants (one JSON object per line,
//! contiguous `seq`, monotone timestamps, LIFO span closes, no unclosed
//! spans — all per correlation context), so `--check` doubles as the CI
//! gate for the tracing pipeline. A file whose *final* line was cut off
//! mid-write (crashed producer) fails with a dedicated "truncated"
//! message naming the recovery. On a merged service trace, `--top`
//! aggregates by (job, span name) so one job's hot loop is not blurred
//! into another's, and `--job ID` restricts the whole report to that
//! job's slice.

use std::io::BufRead as _;

use heron_bench::{flag, has_flag, num_flag};
use heron_trace::{
    check_trace, check_trace_lines, profile_from_summary, slice_by_job, TraceSummary,
};

fn usage() -> ! {
    eprintln!("usage: trace_report <trace.jsonl> [--check] [--top N] [--job ID]");
    std::process::exit(2);
}

fn check(text: &str, path: &str) -> TraceSummary {
    match check_trace(text) {
        Ok(summary) => summary,
        Err(e) => {
            eprintln!("invalid trace `{path}`: {e}");
            std::process::exit(1);
        }
    }
}

/// Validates `path` without buffering it: lines stream from disk
/// straight into [`check_trace_lines`], so `--check` holds one line in
/// memory at a time no matter how large the trace is.
fn check_streaming(path: &str) -> TraceSummary {
    let file = match std::fs::File::open(path) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("cannot read `{path}`: {e}");
            std::process::exit(1);
        }
    };
    match check_trace_lines(std::io::BufReader::new(file).lines()) {
        Ok(summary) => summary,
        Err(e) => {
            eprintln!("invalid trace `{path}`: {e}");
            std::process::exit(1);
        }
    }
}

/// Renders the `n` hottest spans as a flat table: call count, total and
/// mean duration, and share of the top-level wall time. Aggregation is
/// by (job, span name) — service-level spans aggregate under job `-`
/// (see [`TraceSummary::hottest_spans`] for the order).
fn hottest_spans(summary: &TraceSummary, n: usize) -> String {
    let hot = summary.hottest_spans();
    let shown = n.min(hot.len());
    let wall_ns: u64 = summary
        .spans
        .iter()
        .filter(|s| s.parent == 0)
        .map(|s| s.dur_ns())
        .sum();
    let mut out = format!(
        "hottest spans (top {shown} of {} by total time)\n",
        hot.len()
    );
    out.push_str(&format!(
        "  {:<8} {:<24} {:>7} {:>12} {:>10} {:>7}\n",
        "job", "span", "count", "total_ms", "mean_ms", "%wall"
    ));
    for t in hot.iter().take(n) {
        let total_ms = t.total_ns as f64 / 1e6;
        let mean_ms = total_ms / t.count as f64;
        let pct = if wall_ns == 0 {
            0.0
        } else {
            t.total_ns as f64 * 100.0 / wall_ns as f64
        };
        out.push_str(&format!(
            "  {:<8} {:<24} {:>7} {total_ms:>12.3} {mean_ms:>10.3} {pct:>6.1}%\n",
            t.job.unwrap_or("-"),
            t.name,
            t.count
        ));
    }
    out
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(path) = args
        .iter()
        .enumerate()
        .find(|(i, a)| {
            !a.starts_with("--") && (*i == 0 || (args[i - 1] != "--top" && args[i - 1] != "--job"))
        })
        .map(|(_, a)| a)
    else {
        usage();
    };
    let top = num_flag(&args, "--top");
    // Plain `--check` never needs the whole file in memory: stream it.
    // (`--job` slicing and profile rendering still buffer the text.)
    if has_flag(&args, "--check") && flag(&args, "--job").is_none() {
        let summary = check_streaming(path);
        println!(
            "ok: {} events ({} spans, {} points), all spans balanced",
            summary.events,
            summary.spans.len(),
            summary.points
        );
        return;
    }
    let mut text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read `{path}`: {e}");
            std::process::exit(1);
        }
    };
    if let Some(job) = flag(&args, "--job") {
        match slice_by_job(&text).remove(&job) {
            Some(slice) => text = slice,
            None => {
                eprintln!("no events tagged with job `{job}` in `{path}`");
                std::process::exit(1);
            }
        }
    }
    let summary = check(&text, path);
    if has_flag(&args, "--check") {
        println!(
            "ok: {} events ({} spans, {} points), all spans balanced",
            summary.events,
            summary.spans.len(),
            summary.points
        );
        return;
    }
    print!("{}", profile_from_summary(&summary).render());
    if let Some(n) = top {
        print!("{}", hottest_spans(&summary, n));
    }
    println!(
        "{} events, {} spans ({} distinct names), {} points",
        summary.events,
        summary.spans.len(),
        summary.span_names().len(),
        summary.points
    );
}

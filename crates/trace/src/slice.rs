//! Per-job trace slicing and merging for service traces.
//!
//! A supervised service run produces one merged JSONL trace: the
//! supervisor's own (untagged) lifecycle events plus each completed
//! job's worker-session segment, every worker line carrying a trailing
//! `"ctx"` member ([`TraceContext`]). This module is the read side of
//! that schema:
//!
//! * [`slice_by_job`] splits a merged trace into per-job sub-traces —
//!   ctx stripped and sequence numbers rewritten, so each slice is a
//!   self-contained trace that validates under
//!   [`crate::check_trace`] and compares byte-for-byte against an
//!   uninterrupted single-session run;
//! * [`service_slice`] extracts the untagged service-level events the
//!   same way;
//! * [`merge_traces`] is the write side the supervisor uses to assemble
//!   the merged document from its own log and each job's tagged log.
//!
//! All functions are line-oriented and infallible: callers are
//! expected to validate with [`crate::check_trace`] first, and any
//! line that does not parse is passed through as service-level.

use std::collections::BTreeMap;

use crate::json::{self, Json};
use crate::tracer::TraceContext;

/// The correlation context of one JSONL event line (`None` for
/// untagged/service-level lines and lines that do not parse).
pub fn line_ctx(line: &str) -> Option<TraceContext> {
    let obj = json::parse(line).ok()?;
    crate::check::event_ctx(&json::Cursor::line(&obj, 0))
        .ok()
        .flatten()
}

fn edit_members(line: &str, edit: impl FnOnce(&mut Vec<(String, Json)>)) -> String {
    match json::parse(line) {
        Ok(Json::Obj(mut members)) => {
            edit(&mut members);
            Json::Obj(members).render()
        }
        _ => line.to_string(),
    }
}

/// Removes the `"ctx"` member from one event line. Because the tracer
/// emits ctx as the trailing member and [`Json::render`] round-trips
/// tracer output byte-for-byte, stripping a tagged line yields exactly
/// the bytes the same session would have written untagged.
pub fn strip_ctx_line(line: &str) -> String {
    edit_members(line, |members| members.retain(|(k, _)| k != "ctx"))
}

/// Rewrites every line's `"seq"` to its line index, making any
/// concatenation of trace segments a well-formed trace again.
pub fn reseq_jsonl(jsonl: &str) -> String {
    let mut out = String::with_capacity(jsonl.len());
    for (idx, line) in jsonl.lines().enumerate() {
        out.push_str(&edit_members(line, |members| {
            for (k, v) in members.iter_mut() {
                if k == "seq" {
                    *v = Json::Num(idx as f64);
                }
            }
        }));
        out.push('\n');
    }
    out
}

/// Concatenates trace segments (skipping empty ones) and rewrites the
/// sequence numbers, producing one merged trace. Each segment must be
/// internally well-formed; segments with distinct contexts validate
/// independently under the per-context checker.
pub fn merge_traces(segments: &[&str]) -> String {
    let mut joined = String::new();
    for seg in segments {
        joined.push_str(seg);
        if !seg.is_empty() && !seg.ends_with('\n') {
            joined.push('\n');
        }
    }
    reseq_jsonl(&joined)
}

/// Splits a merged service trace into per-job sub-traces: for each job
/// id, its tagged lines in input order, ctx stripped and re-sequenced.
/// Each slice is a self-contained trace that validates under
/// [`crate::check_trace`] and whose profile tree sums to that job's
/// recorded wall-clock.
pub fn slice_by_job(jsonl: &str) -> BTreeMap<String, String> {
    let mut bodies: BTreeMap<String, String> = BTreeMap::new();
    for line in jsonl.lines() {
        if let Some(ctx) = line_ctx(line) {
            let body = bodies.entry(ctx.job).or_default();
            body.push_str(&strip_ctx_line(line));
            body.push('\n');
        }
    }
    bodies
        .into_iter()
        .map(|(job, body)| (job, reseq_jsonl(&body)))
        .collect()
}

/// The untagged (service-level) lines of a merged trace, re-sequenced
/// into a self-contained trace.
pub fn service_slice(jsonl: &str) -> String {
    let mut body = String::new();
    for line in jsonl.lines() {
        if line_ctx(line).is_none() {
            body.push_str(line);
            body.push('\n');
        }
    }
    reseq_jsonl(&body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::check_trace;
    use crate::tracer::Tracer;

    fn session(job: &str, attempt: u32, epoch: u64, charge_s: f64) -> String {
        let t = Tracer::manual();
        t.set_context(Some(TraceContext::new(job, attempt, epoch)));
        {
            let _s = t.span("tuner.step");
            {
                let _m = t.span("measure.batch");
                t.advance_s(charge_s);
            }
            t.point("measure.retry");
        }
        t.to_jsonl()
    }

    fn service() -> String {
        let t = Tracer::manual();
        let _run = t.span("serve.run");
        t.advance_s(1.0);
        t.point_with("serve.submit", || [("job", "a".to_string())]);
        drop(_run);
        t.to_jsonl()
    }

    #[test]
    fn merged_trace_validates_and_slices_losslessly() {
        let (svc, a, b) = (service(), session("a", 1, 2, 2.0), session("b", 0, 1, 3.0));
        let merged = merge_traces(&[&svc, &a, &b]);
        let summary = check_trace(&merged).expect("merged trace validates per context");
        assert_eq!(summary.jobs(), vec!["a", "b"]);

        // Slices are byte-identical to the original untagged sessions
        // (ctx stripped, reseq restores each segment's own numbering).
        let slices = slice_by_job(&merged);
        let untagged = |jsonl: &str| {
            jsonl
                .lines()
                .map(strip_ctx_line)
                .map(|l| l + "\n")
                .collect::<String>()
        };
        assert_eq!(slices["a"], untagged(&a));
        assert_eq!(slices["b"], untagged(&b));
        assert_eq!(service_slice(&merged), svc);

        // Lossless: the union of slice span multisets plus the service
        // slice reproduces the merged trace's span multiset.
        let count_spans = |jsonl: &str| check_trace(jsonl).expect("valid").spans.len();
        assert_eq!(
            count_spans(&merged),
            count_spans(&slices["a"]) + count_spans(&slices["b"]) + count_spans(&svc)
        );
        assert_eq!(summary.points, 3);
    }

    #[test]
    fn tagging_then_stripping_roundtrips() {
        let t = Tracer::manual();
        {
            let _s = t.span_with("s", || [("k", "v".to_string())]);
            t.advance_s(0.5);
        }
        let plain = t.to_jsonl();
        t.set_context(Some(TraceContext::new("j", 2, 9)));
        let tagged = t.to_jsonl();
        assert_eq!(
            tagged.lines().map(line_ctx).collect::<Vec<_>>(),
            vec![Some(TraceContext::new("j", 2, 9)); 2]
        );
        let stripped: String = tagged.lines().map(|l| strip_ctx_line(l) + "\n").collect();
        assert_eq!(stripped, plain, "tag → strip is the identity");
    }

    #[test]
    fn empty_and_untagged_inputs_are_benign() {
        assert!(slice_by_job("").is_empty());
        assert_eq!(service_slice(""), "");
        assert_eq!(merge_traces(&["", ""]), "");
        let plain = service();
        assert!(slice_by_job(&plain).is_empty());
        assert_eq!(service_slice(&plain), plain);
    }
}

//! Trace validation: parses a JSONL export back and checks that it is a
//! well-formed span trace (`trace_report --check` and the determinism
//! tests build on this).
//!
//! A trace is valid iff every line parses as a JSON object, events carry
//! the fields their `ev` kind requires, sequence numbers are the line
//! indices, every `close` matches the innermost open span (strict LIFO),
//! timestamps are monotone non-decreasing, and no span is left open at
//! end of input.
//!
//! Span nesting, LIFO discipline and timestamp monotonicity are checked
//! **per correlation context** ([`TraceContext`], the optional trailing
//! `"ctx"` member): a merged service trace interleaves the supervisor's
//! own events with per-job worker segments whose manual clocks each
//! started at zero, so span ids collide and timestamps rewind *between*
//! contexts while staying well-formed *within* each. Untagged traces
//! have a single context (`None`) and validate exactly as before.

use std::collections::BTreeMap;

use crate::json::{self, Cursor, Json};
use crate::tracer::TraceContext;

/// One reconstructed span (open + close pair).
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRec {
    /// Span id as recorded.
    pub id: u64,
    /// Enclosing span id (0 at top level).
    pub parent: u64,
    /// Span name.
    pub name: String,
    /// Timestamp of the open event, nanoseconds.
    pub t_open_ns: u64,
    /// Timestamp of the close event, nanoseconds.
    pub t_close_ns: u64,
    /// Structured fields recorded at open.
    pub fields: Vec<(String, String)>,
    /// Correlation context (`None` = service-level / untagged).
    pub ctx: Option<TraceContext>,
}

impl SpanRec {
    /// Span duration (close − open), nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.t_close_ns.saturating_sub(self.t_open_ns)
    }
}

/// The result of validating a trace.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceSummary {
    /// Every completed span, in order of the *open* events.
    pub spans: Vec<SpanRec>,
    /// Number of point events.
    pub points: usize,
    /// Total number of events (lines).
    pub events: usize,
}

impl TraceSummary {
    /// Distinct span names, in first-seen order.
    pub fn span_names(&self) -> Vec<&str> {
        let mut names: Vec<&str> = Vec::new();
        for s in &self.spans {
            if !names.contains(&s.name.as_str()) {
                names.push(&s.name);
            }
        }
        names
    }

    /// Spans grouped by (context job, name), with each group's call count
    /// and total duration: hottest first, ties (job, name)-ascending with
    /// untagged (service-level) spans before any job's, so the order is
    /// deterministic.
    pub fn hottest_spans(&self) -> Vec<SpanTotal<'_>> {
        let mut totals: BTreeMap<(Option<&str>, &str), (u64, u64)> = BTreeMap::new();
        for s in &self.spans {
            let job = s.ctx.as_ref().map(|c| c.job.as_str());
            let (count, total_ns) = totals.entry((job, &s.name)).or_default();
            *count += 1;
            *total_ns += s.dur_ns();
        }
        let mut hot: Vec<SpanTotal<'_>> = totals
            .into_iter()
            .map(|((job, name), (count, total_ns))| SpanTotal {
                job,
                name,
                count,
                total_ns,
            })
            .collect();
        // Stable: equal totals keep the map's (job, name) order.
        hot.sort_by_key(|t| std::cmp::Reverse(t.total_ns));
        hot
    }

    /// Distinct job ids among tagged spans, in first-seen order.
    pub fn jobs(&self) -> Vec<&str> {
        let mut jobs: Vec<&str> = Vec::new();
        for s in &self.spans {
            if let Some(ctx) = &s.ctx {
                if !jobs.contains(&ctx.job.as_str()) {
                    jobs.push(&ctx.job);
                }
            }
        }
        jobs
    }
}

/// One group of [`TraceSummary::hottest_spans`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanTotal<'a> {
    /// Job of the spans' correlation context (`None` = service-level).
    pub job: Option<&'a str>,
    /// Span name.
    pub name: &'a str,
    /// Spans in the group.
    pub count: u64,
    /// Their summed duration, nanoseconds.
    pub total_ns: u64,
}

/// The optional `"ctx"` member of an event line.
///
/// # Errors
/// The member's path when `ctx` is present but malformed.
pub(crate) fn event_ctx(event: &Cursor) -> Result<Option<TraceContext>, String> {
    if !event.has("ctx") {
        return Ok(None);
    }
    let ctx = event.get("ctx")?;
    let job = ctx.str("job")?;
    let attempt = ctx.u32("attempt")?;
    Ok(Some(TraceContext::new(job, attempt, ctx.u64("epoch")?)))
}

/// The optional `"fields"` member of an event line: string values only.
fn event_fields(event: &Cursor) -> Result<Vec<(String, String)>, String> {
    if !event.has("fields") {
        return Ok(Vec::new());
    }
    let fields = event.get("fields")?;
    let Json::Obj(members) = fields.value() else {
        return Err(fields.fail("expected an object"));
    };
    members
        .iter()
        .map(|(k, _)| Ok((k.clone(), fields.str(k.as_str())?.to_string())))
        .collect()
}

/// Validates a JSONL trace and reconstructs its spans.
///
/// # Errors
/// A human-readable message naming the first offending line.
pub fn check_trace(jsonl: &str) -> Result<TraceSummary, String> {
    check_trace_lines(jsonl.lines().map(|l| Ok(l.to_string())))
}

/// Per-context validation state: pending open spans, innermost last
/// (as `(index into spans, id)`), and the monotonicity watermark.
#[derive(Default)]
struct Group {
    stack: Vec<(usize, u64)>,
    last_t_ns: u64,
}

/// Streaming trace validation state, fed one line at a time. Peak
/// memory is the reconstructed spans, never the raw JSONL — this is
/// what lets `trace_report` check multi-gigabyte merged service traces
/// line-at-a-time.
#[derive(Default)]
pub struct TraceChecker {
    groups: BTreeMap<Option<TraceContext>, Group>,
    spans: Vec<SpanRec>,
    points: usize,
    events: usize,
}

impl TraceChecker {
    /// A checker with no lines consumed yet.
    pub fn new() -> Self {
        TraceChecker::default()
    }

    /// Consumes the next line. `last` marks the final line of the input
    /// so a trailing parse failure can be diagnosed as a truncated
    /// write.
    ///
    /// # Errors
    /// A message naming the offending line; the checker must not be fed
    /// further lines after an error.
    pub fn feed(&mut self, line: &str, last: bool) -> Result<(), String> {
        let idx = self.events;
        let lineno = idx + 1;
        if line.trim().is_empty() {
            return Err(format!("line {lineno}: empty line in trace"));
        }
        let obj = json::parse(line).map_err(|e| {
            // A parse failure on the *final* line of a file that does not
            // end in `}` is the signature of a write interrupted mid-line
            // (crash, kill -9, full disk). Name that case explicitly so
            // `trace_report --check` tells the operator what happened
            // instead of surfacing a bare parse error.
            if last && !line.trim_end().ends_with('}') {
                format!(
                    "line {lineno}: final line is truncated (interrupted write?) — \
                     recover by dropping it and re-checking: {e}"
                )
            } else {
                format!("line {lineno}: {e}")
            }
        })?;
        if !matches!(obj, Json::Obj(_)) {
            return Err(format!("line {lineno}: event is not a JSON object"));
        }
        self.events += 1;
        let event = Cursor::line(&obj, lineno);

        let seq = event.u64("seq")?;
        if seq != idx as u64 {
            return Err(event.fail(format!("seq {seq} does not match line index {idx}")));
        }
        let t_ns = event.u64("t_ns")?;
        let ctx = event_ctx(&event)?;
        let group = self.groups.entry(ctx.clone()).or_default();
        if t_ns < group.last_t_ns {
            return Err(event.fail(format!(
                "timestamp {t_ns} goes backwards (previous {} in the same context)",
                group.last_t_ns
            )));
        }
        group.last_t_ns = t_ns;

        match event.one_of("ev", &["open", "close", "point"])? {
            "open" => {
                let id = event.u64("id")?;
                if id == 0 {
                    return Err(event.fail("span id 0 is reserved"));
                }
                let parent = event.u64("parent")?;
                let expected_parent = group.stack.last().map_or(0, |&(_, id)| id);
                if parent != expected_parent {
                    return Err(event.fail(format!(
                        "span {id} claims parent {parent} but innermost open span is {expected_parent}"
                    )));
                }
                let name = event.str("name")?.to_string();
                let fields = event_fields(&event)?;
                group.stack.push((self.spans.len(), id));
                self.spans.push(SpanRec {
                    id,
                    parent,
                    name,
                    t_open_ns: t_ns,
                    t_close_ns: t_ns,
                    fields,
                    ctx,
                });
            }
            "close" => {
                let id = event.u64("id")?;
                match group.stack.pop() {
                    Some((slot, open_id)) if open_id == id => {
                        self.spans[slot].t_close_ns = t_ns;
                    }
                    Some((_, open_id)) => {
                        return Err(event.fail(format!(
                            "close of span {id} but innermost open span is {open_id} (not LIFO)"
                        )));
                    }
                    None => {
                        return Err(event.fail(format!("close of span {id} with no span open")));
                    }
                }
            }
            _ => {
                event.str("name")?;
                event_fields(&event)?;
                self.points += 1;
            }
        }
        Ok(())
    }

    /// Finishes validation: every span must be closed.
    ///
    /// # Errors
    /// Names the first never-closed span.
    pub fn finish(self) -> Result<TraceSummary, String> {
        for group in self.groups.values() {
            if let Some(&(slot, id)) = group.stack.last() {
                return Err(format!(
                    "span {id} (`{}`) is never closed",
                    self.spans[slot].name
                ));
            }
        }
        Ok(TraceSummary {
            spans: self.spans,
            points: self.points,
            events: self.events,
        })
    }
}

/// Validates a trace supplied as a fallible line iterator (e.g.
/// [`std::io::BufRead::lines`]), holding only one raw line in memory at
/// a time. [`check_trace`] is this over an in-memory string.
///
/// # Errors
/// An I/O error reading a line, or the first validation failure.
pub fn check_trace_lines<I>(lines: I) -> Result<TraceSummary, String>
where
    I: Iterator<Item = Result<String, std::io::Error>>,
{
    let mut checker = TraceChecker::new();
    let mut lines = lines.peekable();
    while let Some(line) = lines.next() {
        let line = line.map_err(|e| format!("read error: {e}"))?;
        checker.feed(&line, lines.peek().is_none())?;
    }
    checker.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tracer::Tracer;

    #[test]
    fn accepts_a_real_trace_and_reconstructs_it() {
        let t = Tracer::manual();
        {
            let _a = t.span("tuner.step");
            t.advance_s(0.25);
            {
                let _b = t.span_with("model.fit", || vec![("rows", "32".to_string())]);
                t.advance_s(0.25);
            }
            t.point("measure.retry");
        }
        let summary = check_trace(&t.to_jsonl()).expect("valid");
        assert_eq!(summary.events, 5);
        assert_eq!(summary.points, 1);
        assert_eq!(summary.span_names(), vec!["tuner.step", "model.fit"]);
        let fit = &summary.spans[1];
        assert_eq!(fit.fields, vec![("rows".to_string(), "32".to_string())]);
        assert_eq!(fit.dur_ns(), 250_000_000);
        let hot = summary.hottest_spans();
        let row = |name, total_ns| SpanTotal {
            job: None,
            name,
            count: 1,
            total_ns,
        };
        assert_eq!(
            hot,
            vec![
                row("tuner.step", 500_000_000),
                row("model.fit", 250_000_000)
            ]
        );
    }

    #[test]
    fn rejects_unbalanced_and_malformed_traces() {
        // Unclosed span.
        let open = r#"{"seq":0,"ev":"open","id":1,"parent":0,"name":"a","t_ns":0,"fields":{}}"#;
        let err = check_trace(open).unwrap_err();
        assert!(err.contains("never closed"), "{err}");

        // Close without open.
        let close = r#"{"seq":0,"ev":"close","id":1,"t_ns":0}"#;
        assert!(check_trace(close).unwrap_err().contains("no span open"));

        // Non-LIFO close.
        let bad = [
            r#"{"seq":0,"ev":"open","id":1,"parent":0,"name":"a","t_ns":0,"fields":{}}"#,
            r#"{"seq":1,"ev":"open","id":2,"parent":1,"name":"b","t_ns":0,"fields":{}}"#,
            r#"{"seq":2,"ev":"close","id":1,"t_ns":0}"#,
        ]
        .join("\n");
        assert!(check_trace(&bad).unwrap_err().contains("not LIFO"));

        // Wrong parent claim.
        let orphan = [
            r#"{"seq":0,"ev":"open","id":1,"parent":0,"name":"a","t_ns":0,"fields":{}}"#,
            r#"{"seq":1,"ev":"open","id":2,"parent":7,"name":"b","t_ns":0,"fields":{}}"#,
        ]
        .join("\n");
        assert!(check_trace(&orphan).unwrap_err().contains("claims parent"));

        // Bad seq numbering.
        let seq = r#"{"seq":5,"ev":"point","name":"p","t_ns":0,"fields":{}}"#;
        assert!(check_trace(seq).unwrap_err().contains("seq"));

        // Time going backwards.
        let back = [
            r#"{"seq":0,"ev":"point","name":"p","t_ns":10,"fields":{}}"#,
            r#"{"seq":1,"ev":"point","name":"q","t_ns":5,"fields":{}}"#,
        ]
        .join("\n");
        assert!(check_trace(&back).unwrap_err().contains("backwards"));

        // Not JSON at all.
        assert!(check_trace("not json").is_err());
    }

    #[test]
    fn truncated_final_line_gets_a_specific_message() {
        // A valid point event followed by a line cut off mid-write.
        let trace = [
            r#"{"seq":0,"ev":"point","name":"p","t_ns":0,"fields":{}}"#,
            r#"{"seq":1,"ev":"poi"#,
        ]
        .join("\n");
        let err = check_trace(&trace).unwrap_err();
        assert!(err.contains("truncated"), "{err}");
        assert!(err.contains("interrupted write"), "{err}");
        assert!(err.contains("line 2"), "{err}");

        // A malformed line that is NOT last keeps the plain parse error.
        let trace = [
            r#"{"seq":0,"ev":"poi"#,
            r#"{"seq":1,"ev":"point","name":"p","t_ns":0,"fields":{}}"#,
        ]
        .join("\n");
        let err = check_trace(&trace).unwrap_err();
        assert!(!err.contains("truncated"), "{err}");
        assert!(err.contains("line 1"), "{err}");
    }

    #[test]
    fn contexts_validate_independently_in_a_merged_trace() {
        // Service events at t=50 interleaved with a job segment whose
        // manual clock restarted at 0 and whose span id collides with
        // the service span: valid per-context, invalid globally.
        let ctx = r#","ctx":{"job":"a","attempt":0,"epoch":1}"#;
        let merged = [
            r#"{"seq":0,"ev":"open","id":1,"parent":0,"name":"serve.run","t_ns":50,"fields":{}}"#.to_string(),
            format!(r#"{{"seq":1,"ev":"open","id":1,"parent":0,"name":"tuner.step","t_ns":0,"fields":{{}}{ctx}}}"#),
            format!(r#"{{"seq":2,"ev":"close","id":1,"t_ns":7{ctx}}}"#),
            r#"{"seq":3,"ev":"close","id":1,"t_ns":60}"#.to_string(),
        ]
        .join("\n");
        let summary = check_trace(&merged).expect("per-context validation accepts the merge");
        assert_eq!(summary.spans.len(), 2);
        assert_eq!(summary.jobs(), vec!["a"]);
        let tagged = summary.spans.iter().find(|s| s.ctx.is_some()).unwrap();
        assert_eq!(tagged.dur_ns(), 7);
        assert_eq!(tagged.ctx.as_ref().unwrap().job, "a");

        // Within one context the old rules still bite: a backwards
        // timestamp *inside* the job segment is rejected.
        let bad = [
            format!(r#"{{"seq":0,"ev":"point","name":"p","t_ns":9,"fields":{{}}{ctx}}}"#),
            format!(r#"{{"seq":1,"ev":"point","name":"q","t_ns":3,"fields":{{}}{ctx}}}"#),
        ]
        .join("\n");
        assert!(check_trace(&bad).unwrap_err().contains("backwards"));

        // A malformed ctx is named, not ignored.
        let malformed =
            r#"{"seq":0,"ev":"point","name":"p","t_ns":0,"fields":{},"ctx":{"job":"a"}}"#;
        assert!(check_trace(malformed).unwrap_err().contains("attempt"));
    }

    #[test]
    fn empty_trace_is_valid_and_empty() {
        let s = check_trace("").expect("empty ok");
        assert_eq!(s, TraceSummary::default());
    }

    #[test]
    fn streaming_checker_matches_whole_string_validation() {
        let t = Tracer::manual();
        {
            let _a = t.span("tuner.step");
            t.advance_s(0.5);
            t.point("measure.retry");
        }
        let jsonl = t.to_jsonl();
        let streamed = check_trace_lines(jsonl.lines().map(|l| Ok(l.to_string()))).expect("valid");
        assert_eq!(streamed, check_trace(&jsonl).expect("valid"));

        // The truncated-final-line diagnosis survives streaming: the
        // checker only knows "last" via lookahead, not a line count.
        let truncated = [
            r#"{"seq":0,"ev":"point","name":"p","t_ns":0,"fields":{}}"#,
            r#"{"seq":1,"ev":"poi"#,
        ];
        let err = check_trace_lines(truncated.iter().map(|l| Ok((*l).to_string()))).unwrap_err();
        assert!(err.contains("truncated"), "{err}");

        // An I/O error mid-stream is surfaced, not swallowed.
        let io_err = check_trace_lines(std::iter::once(Err(std::io::Error::other("disk gone"))))
            .unwrap_err();
        assert!(io_err.contains("disk gone"), "{io_err}");
    }
}

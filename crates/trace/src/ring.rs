//! The flight-recorder snapshot format, `heron-ring-v1` (DESIGN.md
//! §12): the last ~K events of a trace, cut from the tracer's own log by
//! [`crate::Tracer::tail_jsonl`], so a crash, hang or quarantine in a
//! long-lived `heron_serve` run can be autopsied from a bounded record.
//!
//! # The tail is cut on span boundaries
//!
//! The tail starts at a **top-level** event — an `open` or `point`
//! recorded with no span open. Spans close LIFO before the stack returns
//! to depth zero, so every span that closes inside the tail also opens
//! inside it: the body, re-sequenced from 0, is a well-formed trace that
//! [`crate::check_trace`] accepts once its spans have closed. The price
//! is that capacity is a *soft* bound: the tail starts at the first
//! top-level event whose suffix holds at most K events, or at the last
//! top-level event if none does, so it can hold
//! `K + (largest top-level group)` events. `evicted` counts the events
//! before the tail.
//!
//! # Snapshot format
//!
//! A header line
//!
//! ```text
//! {"schema":"heron-ring-v1","capacity":64,"evicted":12,"events":60,"now_ns":1500000000}
//! ```
//!
//! followed by the tail's events re-sequenced from 0 — the body alone
//! is a valid trace. [`check_ring_snapshot`] validates both parts.

use crate::check::{check_trace, TraceSummary};
use crate::json::{self, Cursor};

/// The schema identifier stamped into every ring snapshot header.
pub const RING_SCHEMA: &str = "heron-ring-v1";

/// A validated ring snapshot: the header fields plus the checked body.
#[derive(Debug, Clone, PartialEq)]
pub struct RingSummary {
    /// The capacity the tail was cut at.
    pub capacity: u64,
    /// Events of the log before the tail.
    pub evicted: u64,
    /// Clock reading when the snapshot was taken, nanoseconds.
    pub now_ns: u64,
    /// The validated body (the tail's events).
    pub summary: TraceSummary,
}

/// Validates a `heron-ring-v1` snapshot: parses the header line, checks
/// the schema and event count, and runs the body through
/// [`check_trace`].
///
/// # Errors
/// A message naming the offending header field or body line.
pub fn check_ring_snapshot(jsonl: &str) -> Result<RingSummary, String> {
    let (header, body) = jsonl.split_once('\n').unwrap_or((jsonl, ""));
    let doc = json::parse(header).map_err(|e| format!("ring header: {e}"))?;
    let header = Cursor::new(&doc, "ring header");
    header.one_of("schema", &[RING_SCHEMA])?;
    let events = header.u64("events")?;
    let ring = RingSummary {
        capacity: header.u64("capacity")?,
        evicted: header.u64("evicted")?,
        now_ns: header.u64("now_ns")?,
        summary: check_trace(body)?,
    };
    if ring.summary.events as u64 != events {
        return Err(header.get("events")?.fail(format!(
            "declares {events} events but body has {}",
            ring.summary.events
        )));
    }
    Ok(ring)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tracer::{TraceContext, Tracer};

    /// `steps` top-level spans, each enclosing one child span and one
    /// point (5 events per group), on a manual clock.
    fn run_steps(steps: usize) -> Tracer {
        let t = Tracer::manual();
        for i in 0..steps {
            let _s = t.span_with("tuner.step", || vec![("round", i.to_string())]);
            {
                let _m = t.span("measure.batch");
                t.advance_s(0.25);
            }
            t.point("tuner.round_done");
            t.advance_s(0.25);
        }
        t
    }

    #[test]
    fn tail_cuts_whole_groups_and_snapshot_stays_valid() {
        let t = run_steps(12);
        let snap = t.tail_jsonl(10);
        assert_eq!(snap, run_steps(12).tail_jsonl(10));
        let rs = check_ring_snapshot(&snap).expect("snapshot validates");
        assert_eq!(rs.capacity, 10);
        // 12 groups × 5 events = 60 recorded; the tail starts on a group
        // boundary, so the last 2 groups (10 events) remain.
        assert_eq!(rs.summary.events, 10);
        assert_eq!(rs.evicted, 50);
        // The tail holds the *last* rounds, and the log is untouched.
        assert!(snap.contains("\"round\":\"11\""), "{snap}");
        assert!(!snap.contains("\"round\":\"9\""), "{snap}");
        assert_eq!(t.event_count(), 60);
    }

    #[test]
    fn open_spans_are_never_torn() {
        let t = Tracer::manual();
        let _outer = t.span("serve.run");
        for _ in 0..5 {
            let _inner = t.span("tuner.step");
            t.advance_s(0.1);
        }
        // Everything lives under one still-open top-level span: nothing
        // is cut even though the tail exceeds capacity.
        let snap = t.tail_jsonl(3);
        assert!(snap.contains("\"evicted\":0,\"events\":11,"), "{snap}");
    }

    #[test]
    fn tagged_ring_snapshots_carry_context() {
        let t = Tracer::manual();
        t.set_context(Some(TraceContext::new("g1", 2, 7)));
        for _ in 0..6 {
            let _s = t.span("tuner.step");
            t.advance_s(0.5);
        }
        let rs = check_ring_snapshot(&t.tail_jsonl(4)).expect("valid");
        assert_eq!(rs.summary.jobs(), vec!["g1"]);
        assert_eq!(rs.summary.spans[0].ctx, Some(TraceContext::new("g1", 2, 7)));
    }

    #[test]
    fn damaged_snapshots_are_rejected_with_named_errors() {
        let snap = run_steps(4).tail_jsonl(8);
        let wrong_schema = snap.replace(RING_SCHEMA, "heron-ring-v0");
        assert!(check_ring_snapshot(&wrong_schema)
            .unwrap_err()
            .contains("heron-ring-v1"));
        let wrong_count = snap.replace("\"events\":5", "\"events\":9");
        assert!(check_ring_snapshot(&wrong_count)
            .unwrap_err()
            .contains("declares 9 events"));
        assert!(check_ring_snapshot("").unwrap_err().contains("header"));
    }
}

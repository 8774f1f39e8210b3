//! The flight-recorder ring sink: a fixed-capacity buffer of the most
//! recent trace events with deterministic eviction accounting
//! (DESIGN.md §12).
//!
//! The ring retains the last ~K events alongside the full trace, so a
//! crash, hang or quarantine in a long-lived `heron_serve` run can be
//! autopsied from a bounded always-on record.
//!
//! # Eviction is span-boundary safe
//!
//! Events are only evicted in whole **top-level groups** — from one
//! event recorded with no span open (a top-level `open` or `point`) up
//! to, but excluding, the next such event. Spans close LIFO before the
//! stack returns to depth zero, so every span opened before a cut point
//! is also closed before it: the retained suffix, re-sequenced from 0,
//! is always a well-formed trace that [`crate::check_trace`] accepts.
//! The price is that capacity is a *soft* bound: a top-level group
//! whose close has not been recorded yet is never torn, so the buffer
//! can transiently hold `capacity + (largest open top-level group)`
//! events. Enable the ring before opening spans — a ring attached
//! mid-span starts on a non-boundary event and its first snapshot may
//! not validate until that group is evicted.
//!
//! Every eviction increments the `trace.ring_evicted` counter in the
//! tracer's metrics registry, so eviction pressure is visible in the
//! TSV snapshot and byte-deterministic across same-seed runs.
//!
//! # Snapshot format (`heron-ring-v1`)
//!
//! [`crate::Tracer::ring_snapshot_jsonl`] renders a header line
//!
//! ```text
//! {"schema":"heron-ring-v1","capacity":64,"evicted":12,"events":60,"now_ns":1500000000}
//! ```
//!
//! followed by the retained events re-sequenced from 0 — the body alone
//! is a valid trace. [`check_ring_snapshot`] validates both parts.

use std::collections::VecDeque;

use crate::check::{check_trace, TraceSummary};
use crate::json::{self, Cursor};
use crate::tracer::{Event, TraceContext};

/// The schema identifier stamped into every ring snapshot header.
pub const RING_SCHEMA: &str = "heron-ring-v1";

/// The bounded event buffer embedded in a [`crate::Tracer`] when the
/// ring sink is enabled.
#[derive(Debug)]
pub(crate) struct RingBuf {
    /// Soft capacity: eviction runs whenever the buffer exceeds it.
    pub(crate) capacity: usize,
    /// Retained `(event, context, is_top_level_boundary)` triples.
    buf: VecDeque<(Event, Option<TraceContext>, bool)>,
    /// Total events evicted so far.
    pub(crate) evicted: u64,
}

impl RingBuf {
    pub(crate) fn new(capacity: usize) -> Self {
        RingBuf {
            capacity: capacity.max(1),
            buf: VecDeque::new(),
            evicted: 0,
        }
    }

    /// Appends one event; `boundary` marks a safe cut point (an `open`
    /// or `point` recorded with no span open). Returns how many events
    /// were evicted to respect capacity.
    pub(crate) fn push(&mut self, ev: Event, ctx: Option<TraceContext>, boundary: bool) -> u64 {
        self.buf.push_back((ev, ctx, boundary));
        let mut dropped = 0u64;
        while self.buf.len() > self.capacity {
            // Evict the whole top-level group at the front. If no later
            // boundary exists yet (one oversized group, or its close is
            // still pending) the bound is soft until the next top-level
            // event arrives.
            let Some(cut) = self
                .buf
                .iter()
                .skip(1)
                .position(|(_, _, b)| *b)
                .map(|p| p + 1)
            else {
                break;
            };
            drop(self.buf.drain(..cut));
            dropped += cut as u64;
        }
        self.evicted += dropped;
        dropped
    }

    pub(crate) fn len(&self) -> usize {
        self.buf.len()
    }

    /// Retained `(event, context)` pairs, oldest first.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (&Event, Option<&TraceContext>)> {
        self.buf.iter().map(|(ev, ctx, _)| (ev, ctx.as_ref()))
    }
}

/// A validated ring snapshot: the header fields plus the checked body.
#[derive(Debug, Clone, PartialEq)]
pub struct RingSummary {
    /// Configured ring capacity.
    pub capacity: u64,
    /// Events evicted before this snapshot was taken.
    pub evicted: u64,
    /// Clock reading when the snapshot was taken, nanoseconds.
    pub now_ns: u64,
    /// The validated body (retained events).
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
    use crate::tracer::Tracer;

    /// `steps` top-level spans, each enclosing one child span and one
    /// point (5 events per group), on a manual clock.
    fn run_steps(ring: Option<usize>, steps: usize) -> Tracer {
        let t = Tracer::manual();
        if let Some(cap) = ring {
            t.set_ring(cap);
        }
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
    fn mirror_mode_leaves_the_full_log_untouched() {
        let plain = run_steps(None, 6);
        let ringed = run_steps(Some(8), 6);
        assert_eq!(plain.to_jsonl(), ringed.to_jsonl());
        assert_eq!(plain.event_count(), ringed.event_count());
        // The ring still evicted deterministically alongside.
        assert!(ringed.ring_evicted() > 0);
        assert_eq!(
            ringed.counter("trace.ring_evicted"),
            Some(ringed.ring_evicted())
        );
    }

    #[test]
    fn eviction_is_deterministic_and_snapshot_stays_valid() {
        let a = run_steps(Some(10), 12);
        let b = run_steps(Some(10), 12);
        assert_eq!(a.ring_snapshot_jsonl(), b.ring_snapshot_jsonl());

        let snap = a.ring_snapshot_jsonl();
        let rs = check_ring_snapshot(&snap).expect("snapshot validates");
        assert_eq!(rs.capacity, 10);
        // 12 groups × 5 events = 60 recorded; eviction cuts on whole
        // group boundaries, so the last 2 groups (10 events) remain.
        assert_eq!(rs.summary.events, 10);
        assert_eq!(rs.evicted, 50);
        assert_eq!(a.ring_evicted(), 50);
        // Retained suffix holds the *last* rounds.
        assert!(snap.contains("\"round\":\"11\""), "{snap}");
        assert!(!snap.contains("\"round\":\"9\""), "{snap}");
    }

    #[test]
    fn open_spans_are_never_torn() {
        let t = Tracer::manual();
        t.set_ring(3);
        let _outer = t.span("serve.run");
        for _ in 0..5 {
            let _inner = t.span("tuner.step");
            t.advance_s(0.1);
        }
        // Everything lives under one still-open top-level span: nothing
        // may be evicted even though the buffer exceeds capacity.
        assert_eq!(t.ring_evicted(), 0);
        assert_eq!(t.ring_len(), 11);
    }

    #[test]
    fn tagged_ring_snapshots_carry_context() {
        use crate::tracer::TraceContext;
        let t = Tracer::manual();
        t.set_ring(4);
        t.set_context(Some(TraceContext::new("g1", 2, 7)));
        for _ in 0..6 {
            let _s = t.span("tuner.step");
            t.advance_s(0.5);
        }
        let rs = check_ring_snapshot(&t.ring_snapshot_jsonl()).expect("valid");
        assert_eq!(rs.summary.jobs(), vec!["g1"]);
        assert_eq!(rs.summary.spans[0].ctx, Some(TraceContext::new("g1", 2, 7)));
    }

    #[test]
    fn damaged_snapshots_are_rejected_with_named_errors() {
        let t = run_steps(Some(8), 4);
        let snap = t.ring_snapshot_jsonl();
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

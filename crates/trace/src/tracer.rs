//! The span tracer: structured, append-only events with nested spans,
//! point events, and an embedded metrics registry.
//!
//! # Design
//!
//! A [`Tracer`] is a cheap handle (`Option<Rc<RefCell<…>>>`). The
//! disabled tracer is `None`: every operation early-returns after one
//! branch, so instrumented code can call the tracer unconditionally in
//! hot paths (the host benchmark's `trace.overhead_share` measures what
//! an *enabled* tracer adds over a disabled one). Callers that would
//! *allocate* to build an event (dynamic names, field strings) should
//! guard with [`Tracer::is_enabled`] or use the closure-taking `*_with`
//! variants, which never invoke the closure when disabled.
//!
//! # Determinism
//!
//! Events are appended in program order; the sequence number is the
//! event's index. Nothing in the tracer consumes session RNG, so tracing
//! a run cannot change it. With a [`Clock::manual`] clock, timestamps
//! advance only by explicitly charged simulated seconds and the whole
//! JSONL export is byte-identical across same-seed runs; with a real
//! clock, [`normalize_jsonl`] zeroes the `t_ns` fields so the *event
//! sequence and fields* can still be compared byte-for-byte.

use std::cell::RefCell;
use std::rc::Rc;

use crate::clock::Clock;
use crate::json::{escape, Json};
use crate::metrics::MetricsRegistry;
use crate::ring::RING_SCHEMA;

/// Correlation context of a whole session log: which service job, which
/// attempt, which supervisor epoch produced it. A service worker sets it
/// on its session's tracer ([`Tracer::set_context`]), so every line of
/// the JSONL export carries it (as a trailing `"ctx"` member) and a
/// merged service trace can be split back into per-job sub-traces
/// (`slice_by_job`). Untagged logs (context unset) are service-level.
#[derive(Debug, Clone, Default, PartialEq, Eq, PartialOrd, Ord)]
pub struct TraceContext {
    /// Job id the event belongs to.
    pub job: String,
    /// Attempt number (0 = first run; increments per recovery).
    pub attempt: u32,
    /// Supervisor epoch the attempt was started under.
    pub epoch: u64,
}

impl TraceContext {
    /// A context for one attempt of one job.
    pub fn new(job: impl Into<String>, attempt: u32, epoch: u64) -> Self {
        TraceContext {
            job: job.into(),
            attempt,
            epoch,
        }
    }

    /// The canonical JSON spelling: `{"job":…,"attempt":…,"epoch":…}`.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"job\":\"{}\",\"attempt\":{},\"epoch\":{}}}",
            escape(&self.job),
            self.attempt,
            self.epoch
        )
    }
}

/// One recorded trace event. The event's sequence number is its index in
/// the tracer's event list.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A span opened.
    Open {
        /// Span id (1-based; 0 is the root "no parent" sentinel).
        id: u64,
        /// Id of the enclosing span (0 at top level).
        parent: u64,
        /// Span name, `layer.noun_verb`.
        name: String,
        /// Clock timestamp at open, nanoseconds.
        t_ns: u64,
        /// Structured fields rendered at open time.
        fields: Vec<(&'static str, String)>,
    },
    /// A span closed (LIFO with respect to `Open`).
    Close {
        /// Id of the span being closed.
        id: u64,
        /// Clock timestamp at close, nanoseconds.
        t_ns: u64,
    },
    /// An instantaneous event.
    Point {
        /// Event name, `layer.noun_verb`.
        name: String,
        /// Clock timestamp, nanoseconds.
        t_ns: u64,
        /// Structured fields.
        fields: Vec<(&'static str, String)>,
    },
}

#[derive(Debug)]
struct Inner {
    clock: Clock,
    events: Vec<Event>,
    /// The log's correlation context, carried by every exported line.
    ctx: Option<TraceContext>,
    /// Ids of currently open spans, innermost last.
    stack: Vec<u64>,
    next_id: u64,
    metrics: MetricsRegistry,
}

/// A handle to a trace session. Clones share the same underlying
/// session; [`Tracer::disabled`] is a no-op handle.
#[derive(Debug, Clone, Default)]
pub struct Tracer(Option<Rc<RefCell<Inner>>>);

impl Tracer {
    /// The no-op tracer: every operation returns immediately.
    pub fn disabled() -> Self {
        Tracer(None)
    }

    /// An enabled tracer over the given clock.
    pub fn enabled(clock: Clock) -> Self {
        Tracer(Some(Rc::new(RefCell::new(Inner {
            clock,
            events: Vec::new(),
            ctx: None,
            stack: Vec::new(),
            next_id: 0,
            metrics: MetricsRegistry::new(),
        }))))
    }

    /// An enabled tracer on the monotonic wall clock.
    pub fn real() -> Self {
        Tracer::enabled(Clock::real())
    }

    /// An enabled tracer on the simulated clock (deterministic
    /// timestamps; used by tests).
    pub fn manual() -> Self {
        Tracer::enabled(Clock::manual())
    }

    /// Whether events are being recorded.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Opens a span; the returned guard closes it on drop (LIFO).
    #[inline]
    pub fn span(&self, name: &str) -> SpanGuard {
        self.open_span(name, Vec::new())
    }

    /// Opens a span with fields; the closure is only invoked when the
    /// tracer is enabled, so building field strings is free when
    /// disabled.
    #[inline]
    pub fn span_with<F, I>(&self, name: &str, fields: F) -> SpanGuard
    where
        F: FnOnce() -> I,
        I: IntoIterator<Item = (&'static str, String)>,
    {
        if self.0.is_none() {
            return SpanGuard {
                tracer: Tracer(None),
                id: 0,
            };
        }
        self.open_span(name, fields().into_iter().collect())
    }

    fn open_span(&self, name: &str, fields: Vec<(&'static str, String)>) -> SpanGuard {
        let Some(inner) = &self.0 else {
            return SpanGuard {
                tracer: Tracer(None),
                id: 0,
            };
        };
        let mut inner = inner.borrow_mut();
        inner.next_id += 1;
        let id = inner.next_id;
        let parent = inner.stack.last().copied().unwrap_or(0);
        let t_ns = inner.clock.now_ns();
        inner.events.push(Event::Open {
            id,
            parent,
            name: name.to_string(),
            t_ns,
            fields,
        });
        inner.stack.push(id);
        SpanGuard {
            tracer: self.clone(),
            id,
        }
    }

    fn close_span(&self, id: u64) {
        let Some(inner) = &self.0 else { return };
        let mut inner = inner.borrow_mut();
        // Defensive: close any spans left open above `id` (guards dropped
        // out of order only on panic unwind).
        while let Some(top) = inner.stack.pop() {
            let t_ns = inner.clock.now_ns();
            inner.events.push(Event::Close { id: top, t_ns });
            if top == id {
                break;
            }
        }
    }

    /// Records an instantaneous event.
    #[inline]
    pub fn point(&self, name: &str) {
        if self.0.is_none() {
            return;
        }
        self.record_point(name, Vec::new());
    }

    /// Records an instantaneous event with fields; the closure only runs
    /// when enabled.
    #[inline]
    pub fn point_with<F, I>(&self, name: &str, fields: F)
    where
        F: FnOnce() -> I,
        I: IntoIterator<Item = (&'static str, String)>,
    {
        if self.0.is_none() {
            return;
        }
        self.record_point(name, fields().into_iter().collect());
    }

    fn record_point(&self, name: &str, fields: Vec<(&'static str, String)>) {
        let Some(inner) = &self.0 else { return };
        let mut inner = inner.borrow_mut();
        let t_ns = inner.clock.now_ns();
        inner.events.push(Event::Point {
            name: name.to_string(),
            t_ns,
            fields,
        });
    }

    /// Sets (or clears, with `None`) the correlation context of the
    /// whole log: every event, recorded before the call or after it,
    /// exports carrying it. No-op when disabled.
    pub fn set_context(&self, ctx: Option<TraceContext>) {
        if let Some(inner) = &self.0 {
            inner.borrow_mut().ctx = ctx;
        }
    }

    /// The tracer clock's current reading in nanoseconds (0 when
    /// disabled). On a manual clock this is the total simulated time
    /// charged so far — the session's simulated wall-clock.
    pub fn now_ns(&self) -> u64 {
        self.0.as_ref().map_or(0, |i| i.borrow().clock.now_ns())
    }

    /// Adds `n` to a named counter.
    #[inline]
    pub fn counter_add(&self, name: &str, n: u64) {
        if let Some(inner) = &self.0 {
            inner.borrow_mut().metrics.counter_add(name, n);
        }
    }

    /// Sets a named gauge.
    #[inline]
    pub fn gauge_set(&self, name: &str, v: f64) {
        if let Some(inner) = &self.0 {
            inner.borrow_mut().metrics.gauge_set(name, v);
        }
    }

    /// Accumulates into a named gauge.
    #[inline]
    pub fn gauge_add(&self, name: &str, v: f64) {
        if let Some(inner) = &self.0 {
            inner.borrow_mut().metrics.gauge_add(name, v);
        }
    }

    /// Records a value into a named histogram.
    #[inline]
    pub fn hist_record(&self, name: &str, v: f64) {
        if let Some(inner) = &self.0 {
            inner.borrow_mut().metrics.hist_record(name, v);
        }
    }

    /// Advances the simulated clock by `seconds` (no-op on a real clock
    /// or a disabled tracer). The tuner charges simulated hardware time
    /// here so manual-clock traces carry the deployment timeline.
    #[inline]
    pub fn advance_s(&self, seconds: f64) {
        if let Some(inner) = &self.0 {
            let ns = (seconds.max(0.0) * 1e9).round() as u64;
            inner.borrow_mut().clock.advance_ns(ns);
        }
    }

    /// Advances the simulated clock by `ns` nanoseconds (no-op on a real
    /// clock or a disabled tracer).
    #[inline]
    pub fn advance_ns(&self, ns: u64) {
        if let Some(inner) = &self.0 {
            inner.borrow_mut().clock.advance_ns(ns);
        }
    }

    /// The flight-recorder tail of the log as a `heron-ring-v1`
    /// snapshot: a header line carrying `capacity`, the number of events
    /// `evicted` before the tail, the tail's event count and the clock
    /// reading, followed by the tail's events re-sequenced from 0 (see
    /// [`crate::check_ring_snapshot`]). The tail starts at the first
    /// top-level event whose suffix holds at most `capacity` events, or
    /// at the last top-level event if none does (DESIGN.md §12). Empty
    /// string when disabled.
    pub fn tail_jsonl(&self, capacity: usize) -> String {
        let Some(inner) = &self.0 else {
            return String::new();
        };
        let inner = inner.borrow();
        let n = inner.events.len();
        let start = tail_start(&inner.events, inner.stack.len(), capacity);
        let mut out = format!(
            "{{\"schema\":\"{RING_SCHEMA}\",\"capacity\":{capacity},\"evicted\":{start},\"events\":{},\"now_ns\":{}}}\n",
            n - start,
            inner.clock.now_ns()
        );
        let ctx = ctx_member(inner.ctx.as_ref());
        for (seq, ev) in inner.events[start..].iter().enumerate() {
            out.push_str(&event_json(seq, ev, &ctx));
            out.push('\n');
        }
        out
    }

    /// Number of recorded events (0 when disabled).
    pub fn event_count(&self) -> usize {
        self.0.as_ref().map_or(0, |i| i.borrow().events.len())
    }

    /// Current value of a named counter.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.0
            .as_ref()
            .and_then(|i| i.borrow().metrics.counter(name))
    }

    /// Current value of a named gauge.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.0.as_ref().and_then(|i| i.borrow().metrics.gauge(name))
    }

    /// A clone of the recorded events (empty when disabled).
    pub fn events(&self) -> Vec<Event> {
        self.0
            .as_ref()
            .map_or_else(Vec::new, |i| i.borrow().events.clone())
    }

    /// The JSONL export: one event object per line, in sequence order.
    /// Empty string when disabled.
    pub fn to_jsonl(&self) -> String {
        let Some(inner) = &self.0 else {
            return String::new();
        };
        let inner = inner.borrow();
        let ctx = ctx_member(inner.ctx.as_ref());
        let mut out = String::new();
        for (seq, ev) in inner.events.iter().enumerate() {
            out.push_str(&event_json(seq, ev, &ctx));
            out.push('\n');
        }
        out
    }

    /// The metrics registry snapshot as TSV (header only when disabled).
    pub fn metrics_tsv(&self) -> String {
        match &self.0 {
            Some(inner) => inner.borrow().metrics.to_tsv(),
            None => MetricsRegistry::new().to_tsv(),
        }
    }

    /// Writes the JSONL export to `path`.
    ///
    /// # Errors
    /// Propagates filesystem errors.
    pub fn write_jsonl(&self, path: &str) -> std::io::Result<()> {
        std::fs::write(path, self.to_jsonl())
    }

    /// Writes the metrics TSV snapshot to `path`.
    ///
    /// # Errors
    /// Propagates filesystem errors.
    pub fn write_metrics_tsv(&self, path: &str) -> std::io::Result<()> {
        std::fs::write(path, self.metrics_tsv())
    }
}

/// RAII guard closing its span on drop.
#[derive(Debug)]
pub struct SpanGuard {
    tracer: Tracer,
    id: u64,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if self.id != 0 {
            self.tracer.close_span(self.id);
        }
    }
}

/// Where the tail of `events` starts (see [`Tracer::tail_jsonl`]): a
/// backward scan from the end, where `depth` spans are open, that stops
/// at the first top-level event past `capacity`. A top-level event is an
/// open or a point recorded with no span open, so no close in the tail
/// is cut off from its open.
fn tail_start(events: &[Event], mut depth: usize, capacity: usize) -> usize {
    let mut start = None;
    for (i, ev) in events.iter().enumerate().rev() {
        let top_level = match ev {
            Event::Open { .. } => {
                depth -= 1;
                depth == 0
            }
            Event::Close { .. } => {
                depth += 1;
                false
            }
            Event::Point { .. } => depth == 0,
        };
        if top_level {
            if events.len() - i > capacity {
                return start.unwrap_or(i);
            }
            start = Some(i);
        }
    }
    start.unwrap_or(0)
}

fn fields_json(fields: &[(&'static str, String)]) -> String {
    let members: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("\"{}\":\"{}\"", escape(k), escape(v)))
        .collect();
    format!("{{{}}}", members.join(","))
}

/// The `,"ctx":{…}` suffix every exported line of a log carries; empty
/// for an untagged log. The context is a *trailing* member, so untagged
/// lines are exactly the pre-context schema (backward compatible
/// byte-for-byte).
fn ctx_member(ctx: Option<&TraceContext>) -> String {
    ctx.map_or_else(String::new, |c| format!(",\"ctx\":{}", c.to_json()))
}

fn event_json(seq: usize, ev: &Event, ctx_suffix: &str) -> String {
    match ev {
        Event::Open {
            id,
            parent,
            name,
            t_ns,
            fields,
        } => format!(
            "{{\"seq\":{seq},\"ev\":\"open\",\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"t_ns\":{t_ns},\"fields\":{}{ctx_suffix}}}",
            escape(name),
            fields_json(fields)
        ),
        Event::Close { id, t_ns } => {
            format!("{{\"seq\":{seq},\"ev\":\"close\",\"id\":{id},\"t_ns\":{t_ns}{ctx_suffix}}}")
        }
        Event::Point { name, t_ns, fields } => format!(
            "{{\"seq\":{seq},\"ev\":\"point\",\"name\":\"{}\",\"t_ns\":{t_ns},\"fields\":{}{ctx_suffix}}}",
            escape(name),
            fields_json(fields)
        ),
    }
}

/// Canonicalizes a JSONL trace for comparison: zeroes every top-level
/// `t_ns` value (the determinism contract excludes wall-clock
/// timestamps) and canonicalizes label ordering — `fields` members are
/// sorted by key and the `ctx` member is rewritten to its canonical
/// `{job, attempt, epoch}` order and moved to the end of the line — so
/// tagged real-clock traces from producers that order labels
/// differently compare byte-identical after normalization. Lines that
/// do not parse as JSON fall back to timestamp zeroing only.
pub fn normalize_jsonl(jsonl: &str) -> String {
    let mut out = String::with_capacity(jsonl.len());
    for line in jsonl.lines() {
        match crate::json::parse(line) {
            Ok(Json::Obj(members)) => {
                out.push_str(&Json::Obj(canonicalize_members(members)).render());
            }
            _ => out.push_str(&normalize_line(line)),
        }
        out.push('\n');
    }
    out
}

fn canonicalize_members(mut members: Vec<(String, Json)>) -> Vec<(String, Json)> {
    let mut ctx: Option<Json> = None;
    for (key, value) in &mut members {
        match key.as_str() {
            "t_ns" => *value = Json::Num(0.0),
            "fields" => {
                if let Json::Obj(fields) = value {
                    fields.sort_by(|a, b| a.0.cmp(&b.0));
                }
            }
            _ => {}
        }
    }
    if let Some(pos) = members.iter().position(|(k, _)| k == "ctx") {
        let (_, value) = members.remove(pos);
        ctx = Some(match value {
            Json::Obj(mut m) => {
                // Canonical order: job, attempt, epoch, then anything
                // else a future producer added, key-sorted.
                let rank = |k: &str| match k {
                    "job" => 0,
                    "attempt" => 1,
                    "epoch" => 2,
                    _ => 3,
                };
                m.sort_by(|a, b| rank(&a.0).cmp(&rank(&b.0)).then_with(|| a.0.cmp(&b.0)));
                Json::Obj(m)
            }
            other => other,
        });
    }
    if let Some(ctx) = ctx {
        members.push(("ctx".to_string(), ctx));
    }
    members
}

fn normalize_line(line: &str) -> String {
    const KEY: &str = "\"t_ns\":";
    let mut out = String::with_capacity(line.len());
    let mut rest = line;
    while let Some(idx) = rest.find(KEY) {
        let (head, tail) = rest.split_at(idx + KEY.len());
        out.push_str(head);
        out.push('0');
        let digits = tail.bytes().take_while(u8::is_ascii_digit).count();
        rest = &tail[digits..];
    }
    out.push_str(rest);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::check_trace;

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::disabled();
        {
            let _g = t.span("outer");
            let _h = t.span_with("inner", || vec![("k", "v".to_string())]);
            t.point("p");
            t.counter_add("c", 1);
            t.gauge_add("g", 1.0);
            t.hist_record("h", 1.0);
            t.advance_s(10.0);
        }
        assert!(!t.is_enabled());
        assert_eq!(t.event_count(), 0);
        assert_eq!(t.to_jsonl(), "");
        assert_eq!(t.counter("c"), None);
    }

    #[test]
    fn spans_nest_and_balance() {
        let t = Tracer::manual();
        {
            let _a = t.span("tune.step");
            t.advance_s(1.0);
            {
                let _b = t.span_with("csp.solve", || vec![("n", "4".to_string())]);
                t.advance_s(0.5);
                t.point_with("measure.retry", || vec![("tag", "timeout".to_string())]);
            }
        }
        let jsonl = t.to_jsonl();
        let summary = check_trace(&jsonl).expect("valid trace");
        assert_eq!(summary.spans.len(), 2);
        assert_eq!(summary.points, 1);
        // Nested span has the outer as parent.
        let inner = summary
            .spans
            .iter()
            .find(|s| s.name == "csp.solve")
            .expect("inner span present");
        let outer = summary
            .spans
            .iter()
            .find(|s| s.name == "tune.step")
            .expect("outer span present");
        assert_eq!(inner.parent, outer.id);
        assert_eq!(outer.parent, 0);
        // Manual clock: timestamps reflect charged seconds exactly.
        assert_eq!(inner.t_open_ns, 1_000_000_000);
        assert_eq!(inner.t_close_ns, 1_500_000_000);
        assert_eq!(outer.t_close_ns, 1_500_000_000);
    }

    #[test]
    fn manual_clock_traces_are_byte_identical() {
        let run = || {
            let t = Tracer::manual();
            let _g = t.span("a");
            t.advance_s(2.0);
            t.counter_add("x.count", 3);
            drop(_g);
            (t.to_jsonl(), t.metrics_tsv())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn normalize_zeroes_timestamps_only() {
        let t = Tracer::real();
        {
            let _g = t.span_with("s", || vec![("t_ns_like", "99".to_string())]);
            t.point("p");
        }
        let norm = normalize_jsonl(&t.to_jsonl());
        for line in norm.lines() {
            assert!(
                line.contains("\"t_ns\":0,") || line.contains("\"t_ns\":0}"),
                "{line}"
            );
        }
        // Field values survive normalization.
        assert!(norm.contains("\"t_ns_like\":\"99\""));
        // Normalized output still parses and balances.
        check_trace(&norm).expect("normalized trace stays valid");
    }

    #[test]
    fn panic_unwind_closes_orphan_spans() {
        let t = Tracer::manual();
        let outer = t.span("outer");
        let inner = t.span("inner");
        // Simulate out-of-order drop (as on unwind): outer first.
        drop(outer);
        drop(inner); // already closed defensively; must not double-close
        let summary = check_trace(&t.to_jsonl()).expect("balanced");
        assert_eq!(summary.spans.len(), 2);
    }

    #[test]
    fn context_tags_every_event_of_the_log() {
        let t = Tracer::manual();
        t.point("before");
        let untagged = t.to_jsonl();
        t.set_context(Some(TraceContext::new("g1", 1, 3)));
        {
            let _g = t.span("tagged");
            t.advance_s(1.0);
        }
        let jsonl = t.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 3);
        // Events recorded before the context was set carry it too.
        for tagged in &lines {
            assert!(
                tagged.ends_with(",\"ctx\":{\"job\":\"g1\",\"attempt\":1,\"epoch\":3}}"),
                "{tagged}"
            );
        }
        assert!(t
            .tail_jsonl(8)
            .lines()
            .skip(1)
            .all(|l| l.contains("\"ctx\"")));
        // Clearing it exports the same events untagged again.
        t.set_context(None);
        assert!(t.to_jsonl().starts_with(&untagged));
        assert!(!t.to_jsonl().contains("\"ctx\""));
        // Tagged traces still validate.
        let summary = check_trace(&jsonl).expect("tagged trace is valid");
        assert_eq!(summary.spans.len(), 1);
        assert_eq!(
            summary.spans[0].ctx,
            Some(TraceContext::new("g1", 1, 3)),
            "span carries its context"
        );
    }

    #[test]
    fn normalize_canonicalizes_label_order_and_ctx() {
        // Two real-clock producers record the same events with fields in
        // different orders; after normalization they are byte-identical.
        let run = |swap: bool| {
            let t = Tracer::real();
            t.set_context(Some(TraceContext::new("j", 0, 1)));
            let fields = || {
                let mut f = vec![("a", "1".to_string()), ("b", "2".to_string())];
                if swap {
                    f.reverse();
                }
                f
            };
            {
                let _g = t.span_with("s", fields);
                t.point_with("p", fields);
            }
            t.to_jsonl()
        };
        let (x, y) = (run(false), run(true));
        assert_ne!(x, y, "raw field order differs");
        assert_eq!(normalize_jsonl(&x), normalize_jsonl(&y));
        check_trace(&normalize_jsonl(&x)).expect("normalized tagged trace stays valid");
    }

    #[test]
    fn metrics_shared_across_clones() {
        let t = Tracer::manual();
        let u = t.clone();
        t.counter_add("shared.count", 2);
        u.counter_add("shared.count", 3);
        assert_eq!(t.counter("shared.count"), Some(5));
        assert_eq!(u.counter("shared.count"), Some(5));
    }
}

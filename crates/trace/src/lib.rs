//! `heron-trace`: zero-dependency structured tracing, metrics and
//! profiling for the Heron tuning pipeline.
//!
//! The crate provides four pieces (DESIGN.md §7):
//!
//! * [`Tracer`] — span-based structured tracing with nested spans, point
//!   events and JSONL export. The disabled tracer is a one-branch no-op
//!   so instrumentation can stay in hot paths unconditionally.
//! * [`MetricsRegistry`] — named counters, gauges and fixed-bucket
//!   histograms, snapshotable to TSV (embedded in every enabled tracer).
//! * [`Clock`] — pluggable time: a real monotonic clock for the CLI, a
//!   simulated clock (advanced only by charged simulated seconds) for
//!   byte-identical traces in the determinism tests.
//! * [`check_trace`] / [`ProfileNode`] — a validator that re-parses a
//!   JSONL trace and checks span balance, and a flamegraph-style text
//!   profile tree built from traces or known totals.
//!
//! plus the flight-recorder **tail** ([`Tracer::tail_jsonl`], DESIGN.md
//! §12): the last ~K events of the log, cut on span boundaries into a
//! `heron-ring-v1` snapshot, the bounded record a long-lived service run
//! is autopsied from; and [`kv`], the CRC-sealed `key = value` text codec
//! every checkpoint is written in (DESIGN.md §6).
//!
//! # Example
//!
//! ```
//! use heron_trace::{check_trace, Tracer};
//!
//! let tracer = Tracer::manual();
//! {
//!     let _step = tracer.span("tuner.step");
//!     tracer.advance_s(0.5); // charge simulated time
//!     tracer.counter_add("csp.propagations", 17);
//! }
//! let summary = check_trace(&tracer.to_jsonl()).unwrap();
//! assert_eq!(summary.spans[0].name, "tuner.step");
//! assert_eq!(tracer.counter("csp.propagations"), Some(17));
//! ```

pub mod check;
pub mod clock;
pub mod json;
pub mod kv;
pub mod metrics;
pub mod profile;
pub mod ring;
pub mod slice;
pub mod tracer;

pub use check::{check_trace, check_trace_lines, SpanRec, SpanTotal, TraceChecker, TraceSummary};
pub use clock::Clock;
pub use json::{Cursor, Json};
pub use metrics::{Histogram, Instrument, MetricsRegistry, DEFAULT_BUCKETS};
pub use profile::{profile_from_summary, ProfileNode};
pub use ring::{check_ring_snapshot, RingSummary, RING_SCHEMA};
pub use slice::{jobs_in, merge_traces, service_slice, slice_by_job, tag_jsonl};
pub use tracer::{normalize_jsonl, Event, SpanGuard, TraceContext, Tracer};

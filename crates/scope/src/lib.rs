//! heron-scope: service schedule forensics for `heron-serve` runs
//! (DESIGN.md §12).
//!
//! A supervised tuning service answers *what* happened through its
//! manifest and *how healthy* it was through `pulse.json`; this crate
//! answers *where the time went*. It schedules nothing: the schedule is
//! the service policy's own, placed on a simulated clock by
//! `heron_serve::sim` (a [`heron_serve::Timeline`] of timed runs, each
//! with the end event that caused it). This crate cuts that timeline into
//! per-job queue/backoff/run Gantt segments and per-worker occupancy with
//! idle-gap accounting, and finds the **critical path** through the
//! makespan with per-segment CPM slack. Integer-nanosecond arithmetic
//! makes the critical-path sum equal the makespan exactly, and the
//! validator enforces that equality.
//!
//! Module map:
//!
//! * [`mod@segments`] — segments, binding predecessors (each run's cause),
//!   the critical path and slack;
//! * [`report`] — `heron-scope-v1` document assembly and the text
//!   timeline renderer;
//! * [`schema`] — the structural validator with `$.path` errors.
//!
//! # Example
//!
//! ```
//! use heron_scope::{build_scope, validate_scope};
//! use heron_serve::{timeline, Event, JobReport, JobSpec, Policy, ServeConfig};
//!
//! // A one-job run: the policy starts `g1` (epoch 1), which completes
//! // after 2 simulated seconds.
//! let mut policy = Policy::new(ServeConfig::default());
//! policy.submit(JobSpec::new("g1", "gemm", "32x32x32")).unwrap();
//! policy.step(Event::Run);
//! let report = JobReport { wall_ns: 2_000_000_000, ..JobReport::default() };
//! policy.step(Event::Completed { job: "g1".into(), epoch: 1, report: Box::new(report) });
//!
//! let doc = build_scope(&timeline(&policy), &[]);
//! validate_scope(&doc).unwrap();
//! assert_eq!(doc.get("makespan_ns").unwrap().as_u64(), Some(2_000_000_000));
//! ```

pub mod report;
pub mod schema;
pub mod segments;

pub use report::{build_scope, render_timeline, SCOPE_SCHEMA};
pub use schema::validate_scope;
pub use segments::{makespan_ns, segments, Phase, Segment};

//! `heron-insight`: search-health analytics, cost-model explainability
//! and the perf-trajectory regression gate (DESIGN.md §7).
//!
//! The crate is layered on `heron-trace`'s zero-dependency JSON
//! reader/writer and stays free of any other dependency, so it can sit
//! *below* `heron-core`: the tuner owns a [`SearchLog`] and appends one
//! [`RoundRecord`] per tuning round plus one [`RefitRecord`] per cost
//! model refit. Everything here is deterministic — same-seed runs
//! produce byte-identical `insight.json` and `BENCH_heron.json`
//! documents, which is what lets the regression gate and the
//! determinism suite treat them as artifacts.
//!
//! Three pieces:
//!
//! * [`SearchLog`] — the per-round structured event stream (best-so-far,
//!   regret inputs, population diversity/entropy, ε-greedy split,
//!   per-refit model quality, importance snapshots, constraint
//!   pressure) with an exact text checkpoint encoding so resumed runs
//!   are insight-exact.
//! * [`analyze`] / [`InsightReport`] — the post-run analyzer:
//!   convergence round, stagnation windows, importance churn,
//!   miscalibration warnings, per-variable coverage; rendered as
//!   deterministic `insight.json` ([`InsightReport::to_json`]) and as a
//!   human text report ([`InsightReport::render_text`]).
//! * [`BenchReport`] — the canonical `BENCH_heron.json` snapshot plus
//!   the [`compare`] regression gate with deterministic thresholds.
//!
//! # Example
//!
//! ```
//! use heron_insight::{analyze, RoundRecord, SearchLog};
//!
//! let mut log = SearchLog::new("gemm-64", "v100", 7, 4);
//! for round in 0..3u32 {
//!     let mut rec = RoundRecord::new(round);
//!     rec.best_gflops = 100.0 + round as f64 * 10.0;
//!     rec.batch_size = 8;
//!     log.push_round(rec);
//! }
//! let report = analyze(&log);
//! assert_eq!(report.rounds, 3);
//! let json = report.to_json(&log).render();
//! assert!(json.contains("\"schema\":\"heron-insight-v1\""));
//! ```

pub mod analyze;
pub mod bench;
pub mod log;
pub mod schema;

pub use analyze::{analyze, InsightReport, Warning};
pub use bench::{
    compare, trajectory_line, validate_trajectory, BenchReport, CompareConfig, WorkloadBench,
    TRAJECTORY_SCHEMA,
};
pub use log::{population_entropy_bits, RefitRecord, RoundRecord, SearchLog, VarCoverage};
pub use schema::validate_insight;

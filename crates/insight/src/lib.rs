//! `heron-insight`: search-health analytics and cost-model
//! explainability (DESIGN.md §7).
//!
//! The crate is layered on `heron-trace`'s zero-dependency JSON
//! reader/writer and stays free of any other dependency, so it can sit
//! *below* `heron-core`: the tuner owns a [`SearchLog`] and appends one
//! [`RoundRecord`] per tuning round plus one [`RefitRecord`] per cost
//! model refit. Everything here is deterministic — same-seed runs
//! produce byte-identical `insight.json` documents, which is what lets
//! the determinism suite treat them as artifacts. (The committed
//! `BENCH_heron.json` is not one of this crate's documents: it is the
//! expected-scores file that `heron-hostbench` reads and
//! `tests/determinism.rs` pins.)
//!
//! Two pieces:
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
pub mod log;
pub mod schema;

pub use analyze::{analyze, InsightReport, Warning};
pub use log::{population_entropy_bits, RefitRecord, RoundRecord, SearchLog, VarCoverage};
pub use schema::validate_insight;

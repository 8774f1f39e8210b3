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

/// Serializes an `f64` as its exact 16-hex-digit bit pattern (the same
/// encoding `heron-checkpoint v2` uses), so checkpointed insight state
/// round-trips bit-exactly.
pub fn f64_hex(x: f64) -> String {
    format!("{:016x}", x.to_bits())
}

/// Parses an [`f64_hex`] bit pattern back.
///
/// # Errors
/// A message naming the bad token when it is not 16 hex digits.
pub fn parse_f64_hex(s: &str) -> Result<f64, String> {
    if s.len() != 16 {
        return Err(format!("bad f64 hex `{s}`: expected 16 hex digits"));
    }
    u64::from_str_radix(s, 16)
        .map(f64::from_bits)
        .map_err(|_| format!("bad f64 hex `{s}`"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f64_hex_roundtrips_exactly() {
        for x in [0.0, -0.0, 1.5, f64::NAN, f64::INFINITY, 1e-308, -3.25] {
            let back = parse_f64_hex(&f64_hex(x)).unwrap();
            assert_eq!(back.to_bits(), x.to_bits());
        }
        assert!(parse_f64_hex("zz").is_err());
        assert!(parse_f64_hex("00000000000000000").is_err());
    }
}

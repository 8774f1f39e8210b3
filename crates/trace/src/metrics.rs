//! Named-instrument metrics registry: counters, gauges and fixed-bucket
//! histograms, snapshotable to TSV.
//!
//! Naming convention (DESIGN.md §7): `layer.noun_verb`, lower-case, with
//! the pipeline layer as the first dotted component — `csp.propagations`,
//! `cga.offspring_invalid`, `model.fit_ms`, `measure.retries`. Dynamic
//! tags append one more component (`dla.fault_injected.timeout`).
//!
//! The registry is a `BTreeMap`, so snapshots list instruments in stable
//! lexicographic order — a prerequisite for diffable, deterministic TSV
//! output.

use std::collections::BTreeMap;

/// Default histogram bucket upper bounds (inclusive), tuned for
/// millisecond-scale timings: `v <= bound` lands in the bucket. Values
/// above the last bound land in the implicit `inf` bucket.
pub const DEFAULT_BUCKETS: [f64; 7] = [0.01, 0.1, 1.0, 10.0, 100.0, 1_000.0, 10_000.0];

/// A fixed-bucket histogram with running count/sum/min/max.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    /// Inclusive upper bounds of the finite buckets, ascending.
    pub bounds: Vec<f64>,
    /// One count per finite bucket, plus a final overflow (`inf`) bucket.
    pub counts: Vec<u64>,
    /// Total number of recorded values.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: f64,
    /// Smallest recorded value (`inf` when empty).
    pub min: f64,
    /// Largest recorded value (`-inf` when empty).
    pub max: f64,
}

impl Histogram {
    /// An empty histogram over the given bounds.
    pub fn new(bounds: &[f64]) -> Self {
        Histogram {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Records one value.
    pub fn record(&mut self, v: f64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(self.bounds.len());
        self.counts[idx] += 1;
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// The `q`-quantile (`0 ≤ q ≤ 1`) estimated from the fixed buckets,
    /// linearly interpolated within the bucket that holds the rank.
    ///
    /// Fully deterministic: the estimate depends only on the bucket
    /// counts and the recorded min/max. The interpolation range of a
    /// finite bucket is `[previous bound (or min), bound]`; the overflow
    /// bucket interpolates over `[last bound, max]`. Estimates are
    /// clamped to `[min, max]` so a sparsely filled bucket cannot place
    /// a quantile outside the observed range. Returns `None` when the
    /// histogram is empty or `q` is not in `[0, 1]`.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 || !(0.0..=1.0).contains(&q) {
            return None;
        }
        // Rank of the target value in [0, count]; rank r means "r
        // recorded values lie at or below the estimate".
        let rank = q * self.count as f64;
        let mut below = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let upto = below + c;
            if rank <= upto as f64 {
                let lo = if idx == 0 {
                    self.min
                } else {
                    self.bounds[idx - 1].max(self.min)
                };
                let hi = if idx < self.bounds.len() {
                    self.bounds[idx].min(self.max)
                } else {
                    self.max
                };
                let frac = (rank - below as f64) / c as f64;
                let est = lo + (hi - lo) * frac.clamp(0.0, 1.0);
                return Some(est.clamp(self.min, self.max));
            }
            below = upto;
        }
        Some(self.max)
    }

    /// Renders the buckets as `le<bound>:<count>;…;inf:<count>`.
    pub fn buckets_string(&self) -> String {
        let mut parts: Vec<String> = self
            .bounds
            .iter()
            .zip(&self.counts)
            .map(|(b, c)| format!("le{b}:{c}"))
            .collect();
        parts.push(format!("inf:{}", self.counts[self.bounds.len()]));
        parts.join(";")
    }
}

/// One registered instrument.
#[derive(Debug, Clone, PartialEq)]
pub enum Instrument {
    /// Monotonically increasing integer count.
    Counter(u64),
    /// Last-write-wins (or accumulated) floating-point value.
    Gauge(f64),
    /// Fixed-bucket distribution.
    Hist(Histogram),
}

impl Instrument {
    /// Short type tag used in the TSV snapshot.
    pub fn type_tag(&self) -> &'static str {
        match self {
            Instrument::Counter(_) => "counter",
            Instrument::Gauge(_) => "gauge",
            Instrument::Hist(_) => "histogram",
        }
    }
}

/// The registry: instrument name → instrument, in stable order.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    map: BTreeMap<String, Instrument>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Adds `n` to the named counter (created at 0 on first use).
    /// Panics in debug builds if the name is already registered with a
    /// different instrument type.
    pub fn counter_add(&mut self, name: &str, n: u64) {
        match self
            .map
            .entry(name.to_string())
            .or_insert(Instrument::Counter(0))
        {
            Instrument::Counter(c) => *c += n,
            other => debug_assert!(false, "{name} is a {}, not a counter", other.type_tag()),
        }
    }

    /// Sets the named gauge.
    pub fn gauge_set(&mut self, name: &str, v: f64) {
        match self
            .map
            .entry(name.to_string())
            .or_insert(Instrument::Gauge(0.0))
        {
            Instrument::Gauge(g) => *g = v,
            other => debug_assert!(false, "{name} is a {}, not a gauge", other.type_tag()),
        }
    }

    /// Adds `v` to the named gauge (accumulating seconds, bytes, …).
    pub fn gauge_add(&mut self, name: &str, v: f64) {
        match self
            .map
            .entry(name.to_string())
            .or_insert(Instrument::Gauge(0.0))
        {
            Instrument::Gauge(g) => *g += v,
            other => debug_assert!(false, "{name} is a {}, not a gauge", other.type_tag()),
        }
    }

    /// Records a value into the named histogram (default buckets on first
    /// use).
    pub fn hist_record(&mut self, name: &str, v: f64) {
        match self
            .map
            .entry(name.to_string())
            .or_insert_with(|| Instrument::Hist(Histogram::new(&DEFAULT_BUCKETS)))
        {
            Instrument::Hist(h) => h.record(v),
            other => debug_assert!(false, "{name} is a {}, not a histogram", other.type_tag()),
        }
    }

    /// Looks up the current value of a counter (`None` when absent or not
    /// a counter).
    pub fn counter(&self, name: &str) -> Option<u64> {
        match self.map.get(name) {
            Some(Instrument::Counter(c)) => Some(*c),
            _ => None,
        }
    }

    /// Looks up the current value of a gauge.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        match self.map.get(name) {
            Some(Instrument::Gauge(g)) => Some(*g),
            _ => None,
        }
    }

    /// Iterates `(name, instrument)` in lexicographic order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Instrument)> {
        self.map.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// TSV snapshot: header row plus one row per instrument, in stable
    /// lexicographic order.
    ///
    /// ```text
    /// metric              type       value  count  min  max  p50  p90  p99  buckets
    /// csp.propagations    counter    1234   -      -    -    -    -    -    -
    /// measure.latency_ms  histogram  42.5   16     0.9  9.1  2.1  8.4  9.0  le0.01:0;…;inf:0
    /// ```
    /// (columns are separated by single tab characters; the quantile
    /// columns are bucket-interpolated estimates, see
    /// [`Histogram::quantile`])
    pub fn to_tsv(&self) -> String {
        let mut out =
            String::from("metric\ttype\tvalue\tcount\tmin\tmax\tp50\tp90\tp99\tbuckets\n");
        for (name, inst) in &self.map {
            let row = match inst {
                Instrument::Counter(c) => format!("{name}\tcounter\t{c}\t-\t-\t-\t-\t-\t-\t-"),
                Instrument::Gauge(g) => format!("{name}\tgauge\t{g}\t-\t-\t-\t-\t-\t-\t-"),
                Instrument::Hist(h) => {
                    let (min, max) = if h.count == 0 {
                        ("-".to_string(), "-".to_string())
                    } else {
                        (h.min.to_string(), h.max.to_string())
                    };
                    let quant = |q: f64| {
                        h.quantile(q)
                            .map_or_else(|| "-".to_string(), |v| v.to_string())
                    };
                    format!(
                        "{name}\thistogram\t{}\t{}\t{min}\t{max}\t{}\t{}\t{}\t{}",
                        h.sum,
                        h.count,
                        quant(0.5),
                        quant(0.9),
                        quant(0.99),
                        h.buckets_string()
                    )
                }
            };
            out.push_str(&row);
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_gauges_histograms_roundtrip() {
        let mut m = MetricsRegistry::new();
        m.counter_add("csp.propagations", 3);
        m.counter_add("csp.propagations", 4);
        m.gauge_set("tuner.best_gflops", 12.5);
        m.gauge_add("measure.hw_s", 1.5);
        m.gauge_add("measure.hw_s", 2.5);
        m.hist_record("model.fit_ms", 0.5);
        m.hist_record("model.fit_ms", 50.0);
        assert_eq!(m.counter("csp.propagations"), Some(7));
        assert_eq!(m.gauge("tuner.best_gflops"), Some(12.5));
        assert_eq!(m.gauge("measure.hw_s"), Some(4.0));
        assert_eq!(m.iter().count(), 4);
    }

    #[test]
    fn tsv_snapshot_is_sorted_and_complete() {
        let mut m = MetricsRegistry::new();
        m.counter_add("z.last", 1);
        m.counter_add("a.first", 2);
        m.hist_record("m.mid_ms", 5.0);
        let tsv = m.to_tsv();
        let lines: Vec<&str> = tsv.lines().collect();
        assert_eq!(
            lines[0],
            "metric\ttype\tvalue\tcount\tmin\tmax\tp50\tp90\tp99\tbuckets"
        );
        assert!(lines[1].starts_with("a.first\tcounter\t2"));
        // Single-value histogram: every quantile collapses to that value.
        assert!(lines[2].starts_with("m.mid_ms\thistogram\t5\t1\t5\t5\t5\t5\t5\t"));
        assert!(lines[2].contains("le10:1"));
        assert!(lines[3].starts_with("z.last\tcounter\t1"));
        for line in &lines[1..] {
            assert_eq!(line.split('\t').count(), 10, "row {line}");
        }
    }

    #[test]
    fn histogram_buckets_cover_overflow() {
        let mut h = Histogram::new(&[1.0, 10.0]);
        h.record(0.5);
        h.record(10.0); // inclusive upper bound
        h.record(99.0); // overflow
        assert_eq!(h.counts, vec![1, 1, 1]);
        assert_eq!(h.count, 3);
        assert_eq!(h.buckets_string(), "le1:1;le10:1;inf:1");
        assert_eq!(h.min, 0.5);
        assert_eq!(h.max, 99.0);
    }

    /// Every default bound, recorded exactly, must land in its *own*
    /// bucket (the bounds are inclusive), and the next representable
    /// value above it must land in the following bucket.
    #[test]
    fn histogram_default_bounds_are_inclusive_edges() {
        for (i, &bound) in DEFAULT_BUCKETS.iter().enumerate() {
            let mut h = Histogram::new(&DEFAULT_BUCKETS);
            h.record(bound);
            assert_eq!(h.counts[i], 1, "bound {bound} must land in bucket {i}");

            let mut h = Histogram::new(&DEFAULT_BUCKETS);
            let above = bound + bound * f64::EPSILON * 4.0;
            assert!(above > bound);
            h.record(above);
            assert_eq!(
                h.counts[i + 1],
                1,
                "value just above {bound} must land in bucket {}",
                i + 1
            );
        }
    }

    /// Saturation: extreme and non-finite values must not corrupt the
    /// bucket structure. `+inf` (and anything above the last bound)
    /// lands in the overflow bucket; `-inf` and negatives land in the
    /// first bucket; the total count always equals the bucket sum.
    #[test]
    fn histogram_saturates_without_corruption() {
        let mut h = Histogram::new(&DEFAULT_BUCKETS);
        h.record(f64::MAX);
        h.record(f64::INFINITY);
        h.record(1e300);
        assert_eq!(h.counts[DEFAULT_BUCKETS.len()], 3, "all in overflow");

        h.record(-1.0);
        h.record(f64::NEG_INFINITY);
        h.record(f64::MIN_POSITIVE);
        assert_eq!(h.counts[0], 3, "all at or below the first bound");

        assert_eq!(h.count, 6);
        assert_eq!(h.counts.iter().sum::<u64>(), h.count);
        assert_eq!(h.counts.len(), DEFAULT_BUCKETS.len() + 1);
        assert_eq!(h.min, f64::NEG_INFINITY);
        assert_eq!(h.max, f64::INFINITY);
    }

    /// NaN comparisons are all-false, so a NaN value falls through to
    /// the overflow bucket and leaves min/max untouched — the histogram
    /// stays internally consistent (count still matches bucket sum).
    #[test]
    fn histogram_nan_lands_in_overflow_and_keeps_invariants() {
        let mut h = Histogram::new(&[1.0, 10.0]);
        h.record(0.5);
        h.record(f64::NAN);
        assert_eq!(h.counts, vec![1, 0, 1]);
        assert_eq!(h.count, 2);
        assert_eq!(h.counts.iter().sum::<u64>(), h.count);
        assert_eq!(h.min, 0.5, "NaN must not clobber min");
        assert_eq!(h.max, 0.5, "NaN must not clobber max");
        assert!(h.sum.is_nan());
    }

    /// An empty histogram renders `-` sentinels for min/max in the TSV
    /// snapshot rather than `inf`/`-inf`.
    #[test]
    fn empty_histogram_renders_dash_min_max() {
        let mut m = MetricsRegistry::new();
        // Force an empty histogram into the registry via a typed entry.
        m.hist_record("x.empty_ms", 1.0);
        match m.map.get_mut("x.empty_ms") {
            Some(Instrument::Hist(h)) => *h = Histogram::new(&DEFAULT_BUCKETS),
            _ => unreachable!(),
        }
        let tsv = m.to_tsv();
        let row = tsv.lines().nth(1).unwrap();
        let cols: Vec<&str> = row.split('\t').collect();
        assert_eq!(cols[3], "0", "count");
        assert_eq!(cols[4], "-", "min placeholder");
        assert_eq!(cols[5], "-", "max placeholder");
        assert_eq!(&cols[6..9], ["-", "-", "-"], "quantile placeholders");
    }

    /// Quantiles interpolate linearly within the bucket holding the
    /// rank, with the recorded min/max tightening the edge buckets.
    #[test]
    fn quantiles_interpolate_within_buckets() {
        let mut h = Histogram::new(&[10.0, 20.0, 30.0]);
        // Ten values spread uniformly through (10, 20]: ranks land in
        // the le20 bucket, whose interpolation range [10, 20] tightens
        // to the observed [11, 20].
        for i in 1..=10 {
            h.record(10.0 + i as f64);
        }
        assert_eq!(h.quantile(0.0), Some(11.0), "p0 is the min");
        assert_eq!(h.quantile(0.5), Some(15.5));
        assert_eq!(h.quantile(1.0), Some(20.0), "p100 is the max");
        let p90 = h.quantile(0.9).unwrap();
        assert!((p90 - 19.1).abs() < 1e-9, "p90 ≈ 19.1, got {p90}");
        // Out-of-range q and empty histograms yield None.
        assert_eq!(h.quantile(1.5), None);
        assert_eq!(h.quantile(-0.1), None);
        assert_eq!(Histogram::new(&[1.0]).quantile(0.5), None);
    }

    /// Boundary buckets: values exactly on a bound stay inside it, and
    /// the first bucket interpolates from the observed min, not from an
    /// implicit zero.
    #[test]
    fn quantiles_respect_bucket_boundaries() {
        let mut h = Histogram::new(&[10.0, 20.0]);
        h.record(10.0); // inclusive edge of le10
        h.record(10.0);
        // Both values in the first bucket: min == max == 10.
        assert_eq!(h.quantile(0.5), Some(10.0));
        assert_eq!(h.quantile(0.99), Some(10.0));

        let mut h = Histogram::new(&[10.0, 20.0]);
        h.record(4.0);
        h.record(8.0);
        // First bucket spans [min, max∧bound] = [4, 8]; p50 at rank 1
        // of 2 is the midpoint.
        assert_eq!(h.quantile(0.5), Some(6.0));
    }

    /// A saturated overflow bucket interpolates over the observed
    /// [min∨last bound, max] and never reports beyond the extremes.
    #[test]
    fn quantiles_handle_saturated_overflow_bucket() {
        // Every value in the overflow bucket and identical: all
        // quantiles collapse to that value.
        let mut h = Histogram::new(&[1.0]);
        for _ in 0..100 {
            h.record(50.0);
        }
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(q), Some(50.0), "q={q}");
        }
        // Spread values in the overflow bucket: interpolate over
        // [min, max] since no finite bound brackets them.
        let mut h = Histogram::new(&[1.0]);
        for i in 1..=10 {
            h.record(i as f64 * 10.0);
        }
        assert_eq!(h.quantile(0.5), Some(55.0));
        assert_eq!(h.quantile(1.0), Some(100.0));
    }

    /// Same recordings ⇒ byte-identical quantile columns (the TSV path
    /// the determinism suite depends on).
    #[test]
    fn quantiles_are_deterministic_in_tsv() {
        let run = || {
            let mut m = MetricsRegistry::new();
            for i in 0..37 {
                m.hist_record("x.lat_ms", (i % 11) as f64 * 0.7 + 0.05);
            }
            m.to_tsv()
        };
        assert_eq!(run(), run());
    }
}

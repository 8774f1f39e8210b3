//! Finite integer domains with explicit value sets or intervals.
//!
//! Decision variables (tile factors, locations, vector lengths) have small
//! explicit value sets; auxiliary variables produced by PROD/SUM rules
//! (memory footprints, totals) have potentially huge ranges and are kept as
//! intervals with bounds propagation. All Heron variables are non-negative.

use std::fmt;

/// A set of possible values for one variable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Domain {
    /// Explicit, sorted, deduplicated value set (always non-empty unless
    /// wiped out by propagation).
    Values(Vec<i64>),
    /// Contiguous inclusive interval `[lo, hi]`.
    Range {
        /// Inclusive lower bound.
        lo: i64,
        /// Inclusive upper bound.
        hi: i64,
    },
}

// Propagation-internal methods signal a domain wipeout with `Err(())`; the
// caller (the propagator) maps it to its own `Infeasible` error, so a
// dedicated error type here would be pure ceremony.
#[allow(clippy::result_unit_err)]
impl Domain {
    /// Explicit value set.
    ///
    /// # Panics
    /// Panics if the iterator is empty or contains negative values.
    pub fn values(values: impl IntoIterator<Item = i64>) -> Self {
        let mut v: Vec<i64> = values.into_iter().collect();
        assert!(!v.is_empty(), "domain must be non-empty");
        v.sort_unstable();
        v.dedup();
        assert!(v[0] >= 0, "Heron domains are non-negative");
        Domain::Values(v)
    }

    /// Interval domain `[lo, hi]`.
    ///
    /// # Panics
    /// Panics if `lo > hi` or `lo < 0`.
    pub fn range(lo: i64, hi: i64) -> Self {
        assert!(lo <= hi, "empty range domain [{lo}, {hi}]");
        assert!(lo >= 0, "Heron domains are non-negative");
        Domain::Range { lo, hi }
    }

    /// Singleton domain.
    pub fn singleton(v: i64) -> Self {
        Domain::values([v])
    }

    /// Domain of all positive divisors of `n`, the natural domain of a tile
    /// factor.
    ///
    /// ```
    /// use heron_csp::Domain;
    /// assert_eq!(Domain::divisors_of(12).iter_values().count(), 6);
    /// ```
    pub fn divisors_of(n: i64) -> Self {
        assert!(n >= 1, "divisors_of requires n >= 1");
        let mut v = Vec::new();
        let mut d = 1;
        while d * d <= n {
            if n % d == 0 {
                v.push(d);
                if d != n / d {
                    v.push(n / d);
                }
            }
            d += 1;
        }
        Domain::values(v)
    }

    /// Boolean domain `{0, 1}`.
    pub fn boolean() -> Self {
        Domain::values([0, 1])
    }

    /// Smallest value in the domain.
    pub fn min(&self) -> i64 {
        match self {
            Domain::Values(v) => v[0],
            Domain::Range { lo, .. } => *lo,
        }
    }

    /// Largest value in the domain.
    pub fn max(&self) -> i64 {
        match self {
            Domain::Values(v) => *v.last().expect("non-empty"),
            Domain::Range { hi, .. } => *hi,
        }
    }

    /// Number of values. Exact for every domain: `hi - lo` of a
    /// non-negative interval fits in `i64`, so the count (at most 2^63)
    /// fits in `u64`.
    pub fn size(&self) -> u64 {
        match self {
            Domain::Values(v) => v.len() as u64,
            Domain::Range { lo, hi } => (hi - lo) as u64 + 1,
        }
    }

    /// Whether the domain contains exactly one value.
    pub fn is_fixed(&self) -> bool {
        self.size() == 1
    }

    /// The single value, if fixed.
    pub fn fixed_value(&self) -> Option<i64> {
        if self.is_fixed() {
            Some(self.min())
        } else {
            None
        }
    }

    /// Membership test.
    pub fn contains(&self, v: i64) -> bool {
        match self {
            Domain::Values(vals) => vals.binary_search(&v).is_ok(),
            Domain::Range { lo, hi } => v >= *lo && v <= *hi,
        }
    }

    /// Iterator over the explicit values.
    ///
    /// # Panics
    /// Panics on a `Range` domain wider than 2^20 values — call sites
    /// should only enumerate decision domains, which are always small.
    pub fn iter_values(&self) -> Box<dyn Iterator<Item = i64> + '_> {
        match self {
            Domain::Values(v) => Box::new(v.iter().copied()),
            Domain::Range { lo, hi } => {
                assert!(hi - lo < (1 << 20), "refusing to enumerate a huge range");
                Box::new(*lo..=*hi)
            }
        }
    }

    /// Restricts to values `>= bound`. Returns `Ok(changed)` or `Err(())` if
    /// the domain would become empty.
    pub fn restrict_min(&mut self, bound: i64) -> Result<bool, ()> {
        match self {
            Domain::Values(v) => {
                let before = v.len();
                v.retain(|&x| x >= bound);
                if v.is_empty() {
                    return Err(());
                }
                Ok(v.len() != before)
            }
            Domain::Range { lo, hi } => {
                if bound > *hi {
                    return Err(());
                }
                if bound > *lo {
                    *lo = bound;
                    Ok(true)
                } else {
                    Ok(false)
                }
            }
        }
    }

    /// Restricts to values `<= bound`.
    pub fn restrict_max(&mut self, bound: i64) -> Result<bool, ()> {
        match self {
            Domain::Values(v) => {
                let before = v.len();
                v.retain(|&x| x <= bound);
                if v.is_empty() {
                    return Err(());
                }
                Ok(v.len() != before)
            }
            Domain::Range { lo, hi } => {
                if bound < *lo {
                    return Err(());
                }
                if bound < *hi {
                    *hi = bound;
                    Ok(true)
                } else {
                    Ok(false)
                }
            }
        }
    }

    /// Restricts to the given sorted candidate set. An interval becomes
    /// an explicit set only if a value is removed: a restriction that
    /// removes nothing leaves the domain as it was, as every other
    /// mutator does (and as [`crate::DomainStore`] does).
    pub fn restrict_to(&mut self, candidates: &[i64]) -> Result<bool, ()> {
        match self {
            Domain::Values(v) => {
                let before = v.len();
                v.retain(|x| candidates.binary_search(x).is_ok());
                if v.is_empty() {
                    return Err(());
                }
                Ok(v.len() != before)
            }
            Domain::Range { lo, hi } => {
                let kept: Vec<i64> = candidates
                    .iter()
                    .copied()
                    .filter(|&c| c >= *lo && c <= *hi)
                    .collect();
                if kept.is_empty() {
                    return Err(());
                }
                if kept.len() as u64 == self.size() {
                    return Ok(false);
                }
                *self = Domain::Values(kept);
                Ok(true)
            }
        }
    }

    /// Fixes the domain to a single value (a domain already fixed to it
    /// is left as it was).
    pub fn fix(&mut self, v: i64) -> Result<bool, ()> {
        if !self.contains(v) {
            return Err(());
        }
        if self.is_fixed() {
            return Ok(false);
        }
        *self = Domain::Values(vec![v]);
        Ok(true)
    }

    /// Intersects with another domain.
    pub fn intersect(&mut self, other: &Domain) -> Result<bool, ()> {
        match other {
            Domain::Values(vals) => self.restrict_to(vals),
            Domain::Range { lo, hi } => {
                let a = self.restrict_min(*lo)?;
                let b = self.restrict_max(*hi)?;
                Ok(a || b)
            }
        }
    }
}

impl fmt::Display for Domain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Domain::Values(v) if v.len() <= 8 => write!(f, "{v:?}"),
            Domain::Values(v) => {
                write!(
                    f,
                    "{{{}, …, {}}} ({} values)",
                    v[0],
                    v[v.len() - 1],
                    v.len()
                )
            }
            Domain::Range { lo, hi } => write!(f, "[{lo}, {hi}]"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn divisors() {
        let d = Domain::divisors_of(16);
        assert_eq!(d.iter_values().collect::<Vec<_>>(), vec![1, 2, 4, 8, 16]);
    }

    #[test]
    fn restrict_bounds_on_values() {
        let mut d = Domain::values([1, 2, 4, 8, 16]);
        assert_eq!(d.restrict_min(3), Ok(true));
        assert_eq!(d.restrict_max(8), Ok(true));
        assert_eq!(d.iter_values().collect::<Vec<_>>(), vec![4, 8]);
        assert!(d.restrict_min(100).is_err());
    }

    #[test]
    fn restrict_bounds_on_range() {
        let mut d = Domain::range(0, 100);
        assert_eq!(d.restrict_min(10), Ok(true));
        assert_eq!(d.restrict_max(20), Ok(true));
        assert_eq!(d, Domain::range(10, 20));
        assert_eq!(d.size(), 11);
    }

    #[test]
    fn restrict_to_candidates_converts_range() {
        let mut d = Domain::range(0, 100);
        assert_eq!(d.restrict_to(&[5, 50, 500]), Ok(true));
        assert_eq!(d, Domain::values([5, 50]));
    }

    #[test]
    fn restrictions_that_remove_nothing_keep_an_interval() {
        let mut d = Domain::range(3, 5);
        assert_eq!(d.restrict_to(&[1, 3, 4, 5, 9]), Ok(false));
        assert_eq!(d.intersect(&Domain::values([3, 4, 5])), Ok(false));
        assert_eq!(d, Domain::range(3, 5));
        let mut one = Domain::range(7, 7);
        assert_eq!(one.fix(7), Ok(false));
        assert_eq!(one, Domain::range(7, 7));
    }

    #[test]
    fn intersect_values_with_range() {
        let mut d = Domain::values([1, 4, 9, 16]);
        assert_eq!(d.intersect(&Domain::range(2, 10)), Ok(true));
        assert_eq!(d, Domain::values([4, 9]));
    }

    #[test]
    fn fix_and_fixed_value() {
        let mut d = Domain::values([2, 3, 5]);
        assert!(!d.is_fixed());
        assert_eq!(d.fix(3), Ok(true));
        assert_eq!(d.fixed_value(), Some(3));
        assert!(d.fix(5).is_err());
    }

    #[test]
    fn display_is_compact() {
        assert_eq!(Domain::range(1, 9).to_string(), "[1, 9]");
        assert_eq!(Domain::values([1, 2]).to_string(), "[1, 2]");
    }

    #[test]
    fn size_of_the_widest_interval_does_not_overflow() {
        let d = Domain::range(0, i64::MAX);
        assert_eq!(d.size(), 1 << 63);
        assert!(!d.is_fixed());
        assert_eq!(d.fixed_value(), None);
        assert_eq!(
            Domain::range(i64::MAX, i64::MAX).fixed_value(),
            Some(i64::MAX)
        );
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_values_panics() {
        Domain::values(std::iter::empty());
    }
}

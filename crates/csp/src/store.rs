//! Trail-based domain store with flat cached bounds and bitset small
//! domains.
//!
//! The RandSAT hot path is one propagation pass, and a pass mostly *reads
//! bounds*. The store is laid out for that:
//!
//! * **Cached bounds** — `lo[v]` / `hi[v]` are plain arrays beside the
//!   domains, so [`DomainStore::min`], [`max`](DomainStore::max),
//!   [`is_fixed`](DomainStore::is_fixed) and
//!   [`fixed_value`](DomainStore::fixed_value) are array reads, and a
//!   bound restriction that is already met (the common case) or that
//!   crosses the opposite bound is answered without touching the domain.
//!   An interval domain *is* its cached bounds and stores nothing else.
//! * **Bitset small domains** — a variable declared with an explicit set
//!   of at most 64 values (every Heron tunable) is one `u64` indexing
//!   into its sorted value table, so PROD/SUM/SELECT/IN filtering is word
//!   operations. The tables live in one flat array; variables declared
//!   with the same set share one table, so `EQ` between them is a word
//!   AND.
//! * **Trail** — every first write to a variable inside a
//!   [`DomainStore::mark`] scope records the old domain and bounds;
//!   [`DomainStore::undo_to`] pops the trail to restore them.
//!   Backtracking is O(changes), not O(vars). The store keeps the trail
//!   index of each variable's save in the current scope, so the domain a
//!   variable had when the scope opened is one read away.
//! * **No allocation in steady state** — every write goes through one
//!   funnel that either trails the old domain or recycles its buffer, so
//!   the explicit sets that interval variables turn into (`restrict_to`,
//!   `fix`, `EQ` with a set) reuse buffers instead of allocating.
//!
//! The store also tracks per-constraint *dormancy* flags (entailed
//! constraints the propagator may skip); these are trailed alongside
//! domain writes so entailment discovered inside a dive is undone on
//! backtrack, while entailment discovered at the root (before
//! [`DomainStore::commit`]) is permanent.
//!
//! Save-on-write dedup uses monotone epochs: `mark()` hands out a fresh
//! epoch, a variable is trailed at most once per epoch, and epochs are
//! never reused so stale `saved` entries are harmless after an undo.
//! Epoch 0 means "untracked": writes before the first `mark()` (or after
//! a `commit()`) mutate the base state directly without trailing.
//!
//! A mutator that returns `Err(())` (the restriction would empty the
//! domain) leaves domains, bounds and trail exactly as they were. The
//! semantics of every mutator are those of the same-named [`Domain`]
//! operation, including when an interval turns into an explicit set;
//! `tests/prop_store.rs` holds the two equal.

use std::collections::HashMap;
use std::rc::Rc;

use crate::domain::Domain;
use crate::problem::Csp;

/// Sorted value tables of the bitset variables, in one flat array.
#[derive(Debug)]
pub(crate) struct VarTables {
    values: Vec<i64>,
    /// `(start, len)` of each variable's table in `values`; `len == 0`
    /// means the variable has no bitset representation. Variables
    /// declared with the same set share one span, so equal spans mean
    /// equal tables.
    spans: Vec<(u32, u32)>,
}

impl VarTables {
    /// Builds the tables for every variable of `csp`: a table for each
    /// explicit value set of at most 64 values.
    pub(crate) fn for_csp(csp: &Csp) -> Self {
        // Sized for every set to be distinct, so neither grows.
        let (mut sets, mut total) = (0, 0);
        for (_, d) in csp.vars() {
            if let Domain::Values(v) = &d.domain {
                if v.len() <= 64 {
                    sets += 1;
                    total += v.len();
                }
            }
        }
        let mut values: Vec<i64> = Vec::with_capacity(total);
        let mut distinct: HashMap<&[i64], (u32, u32)> = HashMap::with_capacity(sets);
        let spans = csp
            .vars()
            .map(|(_, d)| match &d.domain {
                Domain::Values(v) if v.len() <= 64 => *distinct.entry(v).or_insert_with(|| {
                    let span = (values.len() as u32, v.len() as u32);
                    values.extend_from_slice(v);
                    span
                }),
                _ => (0, 0),
            })
            .collect();
        VarTables { values, spans }
    }

    /// The sorted value table of `v`; empty if it has none.
    #[inline]
    pub(crate) fn table(&self, v: usize) -> &[i64] {
        let (start, len) = self.spans[v];
        &self.values[start as usize..(start + len) as usize]
    }

    /// Bitmask over `v`'s table selecting the values in `values` (which
    /// must be sorted). `None` if `v` has no table.
    pub(crate) fn mask_of(&self, v: usize, values: &[i64]) -> Option<u64> {
        let table = self.table(v);
        if table.is_empty() {
            return None;
        }
        let mut mask = 0u64;
        for (i, val) in table.iter().enumerate() {
            if values.binary_search(val).is_ok() {
                mask |= 1u64 << i;
            }
        }
        Some(mask)
    }
}

/// One variable's current domain. The bounds of every kind are cached in
/// the store's `lo`/`hi` arrays.
///
/// A bitset variable stays a bitset; an interval turns into an explicit
/// set exactly when the same [`Domain`] operation would turn a
/// `Domain::Range` into a `Domain::Values`.
#[derive(Debug, Clone)]
enum Dom {
    /// Bitset over the variable's sorted value table (never 0).
    Bits(u64),
    /// The interval `[lo[v], hi[v]]`.
    Range,
    /// Sorted explicit set without a table: declared with more than 64
    /// values, or derived from an interval.
    Values(Vec<i64>),
}

/// A trailed write: the variable's domain and bounds before it.
#[derive(Debug, Clone)]
struct Saved {
    var: u32,
    lo: i64,
    hi: i64,
    dom: Dom,
}

/// What intersecting a domain with a sorted sequence would leave.
enum Met {
    Empty,
    Same,
    /// The old and the new word of a bitset variable (which may be equal,
    /// or the new one empty).
    Bits(u64, u64),
    /// The new explicit set is in the caller's buffer.
    Values,
}

/// Ascending iterator over a variable's current values.
enum ValueIter<'a> {
    Bits(&'a [i64], u64),
    Range(std::ops::RangeInclusive<i64>),
    Values(std::slice::Iter<'a, i64>),
}

impl Iterator for ValueIter<'_> {
    type Item = i64;

    #[inline]
    fn next(&mut self) -> Option<i64> {
        match self {
            ValueIter::Bits(table, bits) => {
                if *bits == 0 {
                    return None;
                }
                let i = bits.trailing_zeros() as usize;
                *bits &= *bits - 1;
                Some(table[i])
            }
            ValueIter::Range(r) => r.next(),
            ValueIter::Values(it) => it.next().copied(),
        }
    }
}

/// A variable's domain as the propagator's nogood memo records and
/// compares it: a bitset word, an interval's bounds, or an explicit set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum View<'a> {
    Bits(u64),
    Range(i64, i64),
    Values(&'a [i64]),
}

impl View<'_> {
    /// The number of values.
    pub(crate) fn len(&self) -> u64 {
        match *self {
            View::Bits(w) => u64::from(w.count_ones()),
            View::Range(lo, hi) => (hi - lo) as u64 + 1,
            View::Values(x) => x.len() as u64,
        }
    }
}

/// A snapshot token returned by [`DomainStore::mark`].
#[derive(Debug, Clone, Copy)]
pub struct Mark {
    trail_len: usize,
    dormant_len: usize,
    epoch: u64,
}

/// Mutable domain state with cached bounds, trailing, dormancy flags and
/// bitset domains.
#[derive(Debug, Clone)]
pub struct DomainStore {
    tables: Rc<VarTables>,
    doms: Vec<Dom>,
    /// Smallest value of each variable's domain.
    lo: Vec<i64>,
    /// Largest value of each variable's domain.
    hi: Vec<i64>,
    /// Per-constraint "entailed, skip me" flags (owned here, not by the
    /// propagator, so they backtrack with the domains).
    dormant: Vec<bool>,
    trail: Vec<Saved>,
    dormant_trail: Vec<u32>,
    /// Each variable's last save: the epoch it was saved in, and its trail
    /// index.
    saved: Vec<(u64, u32)>,
    epoch: u64,
    next_epoch: u64,
    max_trail: usize,
    /// Emptied buffers of discarded explicit sets, reused by the next one.
    spare: Vec<Vec<i64>>,
}

// Wipeouts are signalled with `Err(())` exactly like `Domain`'s own
// mutators; the propagator maps them to `Infeasible`.
#[allow(clippy::result_unit_err)]
impl DomainStore {
    /// A store over the declared domains of `csp` with dormancy flags for
    /// `ncons` constraints, starting untracked (epoch 0) with none of
    /// them dormant.
    pub(crate) fn new(tables: Rc<VarTables>, csp: &Csp, ncons: usize) -> Self {
        let nvars = csp.num_vars();
        let mut doms = Vec::with_capacity(nvars);
        let mut lo = Vec::with_capacity(nvars);
        let mut hi = Vec::with_capacity(nvars);
        for (r, d) in csp.vars() {
            let n = tables.table(r.0).len();
            doms.push(match &d.domain {
                Domain::Values(_) if n > 0 => {
                    debug_assert!(
                        matches!(&d.domain, Domain::Values(x) if x[..] == *tables.table(r.0))
                    );
                    Dom::Bits(if n >= 64 { !0u64 } else { (1u64 << n) - 1 })
                }
                Domain::Values(x) => Dom::Values(x.clone()),
                Domain::Range { .. } => Dom::Range,
            });
            lo.push(d.domain.min());
            hi.push(d.domain.max());
        }
        DomainStore {
            tables,
            doms,
            lo,
            hi,
            dormant: vec![false; ncons],
            trail: Vec::new(),
            dormant_trail: Vec::new(),
            saved: vec![(0, 0); nvars],
            epoch: 0,
            next_epoch: 1,
            max_trail: 0,
            spare: Vec::new(),
        }
    }

    /// A store over no variables and no constraints.
    pub(crate) fn empty(tables: Rc<VarTables>) -> Self {
        DomainStore {
            tables,
            doms: Vec::new(),
            lo: Vec::new(),
            hi: Vec::new(),
            dormant: Vec::new(),
            trail: Vec::new(),
            dormant_trail: Vec::new(),
            saved: Vec::new(),
            epoch: 0,
            next_epoch: 1,
            max_trail: 0,
            spare: Vec::new(),
        }
    }

    /// Opens a backtrack scope: subsequent writes are trailed until the
    /// matching [`undo_to`](Self::undo_to).
    pub fn mark(&mut self) -> Mark {
        let m = Mark {
            trail_len: self.trail.len(),
            dormant_len: self.dormant_trail.len(),
            epoch: self.epoch,
        };
        self.epoch = self.next_epoch;
        self.next_epoch += 1;
        m
    }

    /// Restores every domain, bound and dormancy flag changed since `m`.
    pub fn undo_to(&mut self, m: Mark) {
        while self.trail.len() > m.trail_len {
            let saved = self.trail.pop().expect("trail non-empty");
            let v = saved.var as usize;
            let undone = std::mem::replace(&mut self.doms[v], saved.dom);
            self.discard(undone);
            self.lo[v] = saved.lo;
            self.hi[v] = saved.hi;
        }
        while self.dormant_trail.len() > m.dormant_len {
            let ci = self.dormant_trail.pop().expect("dormant trail non-empty");
            self.dormant[ci as usize] = false;
        }
        self.epoch = m.epoch;
    }

    /// Makes the current state the new untracked baseline: clears the
    /// trail (changes become permanent) and returns to epoch 0.
    pub fn commit(&mut self) {
        self.trail.clear();
        self.dormant_trail.clear();
        self.epoch = 0;
    }

    /// Deepest trail length observed since the last call; resets the
    /// high-water mark to the current depth.
    pub fn take_max_trail(&mut self) -> u64 {
        let m = self.max_trail as u64;
        self.max_trail = self.trail.len();
        m
    }

    /// Current trail length.
    pub fn trail_depth(&self) -> u64 {
        self.trail.len() as u64
    }

    /// `v`'s domain now, or — `at_mark` — when the innermost open scope
    /// was opened.
    pub(crate) fn view(&self, v: usize, at_mark: bool) -> View<'_> {
        let (dom, lo, hi) = if at_mark && self.epoch != 0 && self.saved[v].0 == self.epoch {
            let saved = &self.trail[self.saved[v].1 as usize];
            (&saved.dom, saved.lo, saved.hi)
        } else {
            (&self.doms[v], self.lo[v], self.hi[v])
        };
        match dom {
            &Dom::Bits(w) => View::Bits(w),
            Dom::Range => View::Range(lo, hi),
            Dom::Values(x) => View::Values(x),
        }
    }

    /// Runs `f` on the store, then forgets the trail depth it reached, so
    /// a check that debug builds add moves no counter.
    #[cfg(debug_assertions)]
    pub(crate) fn unobserved<T>(&mut self, f: impl FnOnce(&mut Self) -> T) -> T {
        let max_trail = self.max_trail;
        let out = f(self);
        self.max_trail = max_trail;
        out
    }

    /// Marks constraint `ci` entailed (skippable). Trailed unless the
    /// store is untracked, in which case the flag is permanent.
    pub fn set_dormant(&mut self, ci: usize) {
        if !self.dormant[ci] {
            self.dormant[ci] = true;
            if self.epoch != 0 {
                self.dormant_trail.push(ci as u32);
                self.max_trail = self.max_trail.max(self.trail.len());
            }
        }
    }

    /// Whether constraint `ci` is currently entailed.
    #[inline]
    pub fn is_dormant(&self, ci: usize) -> bool {
        self.dormant[ci]
    }

    /// Smallest value in `v`'s domain.
    #[inline]
    pub fn min(&self, v: usize) -> i64 {
        self.lo[v]
    }

    /// Largest value in `v`'s domain.
    #[inline]
    pub fn max(&self, v: usize) -> i64 {
        self.hi[v]
    }

    /// Whether `v` is fixed to a single value.
    #[inline]
    pub fn is_fixed(&self, v: usize) -> bool {
        self.lo[v] == self.hi[v]
    }

    /// The single value of `v`, if fixed.
    #[inline]
    pub fn fixed_value(&self, v: usize) -> Option<i64> {
        if self.is_fixed(v) {
            Some(self.lo[v])
        } else {
            None
        }
    }

    /// Number of values in `v`'s domain.
    pub fn size(&self, v: usize) -> u64 {
        match &self.doms[v] {
            Dom::Bits(w) => u64::from(w.count_ones()),
            Dom::Range => (self.hi[v] - self.lo[v]) as u64 + 1,
            Dom::Values(x) => x.len() as u64,
        }
    }

    /// Membership test.
    pub fn contains(&self, v: usize, val: i64) -> bool {
        if val < self.lo[v] || val > self.hi[v] {
            return false;
        }
        match &self.doms[v] {
            Dom::Bits(w) => match self.tables.table(v).binary_search(&val) {
                Ok(i) => w & (1u64 << i) != 0,
                Err(_) => false,
            },
            Dom::Range => true,
            Dom::Values(x) => x.binary_search(&val).is_ok(),
        }
    }

    /// The current values of `v` in ascending order.
    ///
    /// # Panics
    /// Panics on an interval wider than 2^20 values, like
    /// [`Domain::iter_values`].
    pub fn values(&self, v: usize) -> impl Iterator<Item = i64> + '_ {
        match &self.doms[v] {
            Dom::Bits(w) => ValueIter::Bits(self.tables.table(v), *w),
            Dom::Range => {
                let (lo, hi) = (self.lo[v], self.hi[v]);
                assert!(hi - lo < (1 << 20), "refusing to enumerate a huge range");
                ValueIter::Range(lo..=hi)
            }
            Dom::Values(x) => ValueIter::Values(x.iter()),
        }
    }

    /// Appends to `out` the values a search may branch `v` on, ascending,
    /// and returns whether that is the whole domain: every value of an
    /// explicit set, but only the bound(s) of an interval, which is never
    /// enumerated.
    pub fn branch_values(&self, v: usize, out: &mut Vec<i64>) -> bool {
        if let Dom::Range = self.doms[v] {
            out.push(self.lo[v]);
            if self.hi[v] > self.lo[v] {
                out.push(self.hi[v]);
            }
            false
        } else {
            out.extend(self.values(v));
            true
        }
    }

    /// Materialises `v`'s domain as a [`Domain`].
    pub fn domain(&self, v: usize) -> Domain {
        match &self.doms[v] {
            Dom::Range => Domain::Range {
                lo: self.lo[v],
                hi: self.hi[v],
            },
            _ => Domain::Values(self.values(v).collect()),
        }
    }

    /// Restricts `v` to values `>= bound`.
    #[inline]
    pub fn restrict_min(&mut self, v: usize, bound: i64) -> Result<bool, ()> {
        if bound <= self.lo[v] {
            Ok(false)
        } else if bound > self.hi[v] {
            Err(())
        } else {
            self.clamp(v, bound, self.hi[v])
        }
    }

    /// Restricts `v` to values `<= bound`.
    #[inline]
    pub fn restrict_max(&mut self, v: usize, bound: i64) -> Result<bool, ()> {
        if bound >= self.hi[v] {
            Ok(false)
        } else if bound < self.lo[v] {
            Err(())
        } else {
            self.clamp(v, self.lo[v], bound)
        }
    }

    /// Restricts `v` to the given sorted candidate set.
    pub fn restrict_to(&mut self, v: usize, candidates: &[i64]) -> Result<bool, ()> {
        let mut buf = self.spare.pop().unwrap_or_default();
        let met = self.meet(v, candidates.iter().copied(), &mut buf);
        self.write_met(v, met, buf)
    }

    /// Intersects a bitset variable with a precompiled value mask (the
    /// compiled form of an `IN` constraint).
    ///
    /// # Panics
    /// Panics if `v` is not a bitset variable.
    pub fn and_mask(&mut self, v: usize, mask: u64) -> Result<bool, ()> {
        match self.doms[v] {
            Dom::Bits(w) => self.write_bits(v, w, w & mask),
            _ => panic!("and_mask on a variable without a bitset"),
        }
    }

    /// Fixes `v` to a single value.
    pub fn fix(&mut self, v: usize, val: i64) -> Result<bool, ()> {
        if let Dom::Bits(w) = self.doms[v] {
            return match self.tables.table(v).binary_search(&val) {
                Ok(i) => self.write_bits(v, w, w & (1u64 << i)),
                Err(_) => Err(()),
            };
        }
        if !self.contains(v, val) {
            Err(())
        } else if self.is_fixed(v) {
            Ok(false)
        } else {
            let mut one = self.spare.pop().unwrap_or_default();
            one.push(val);
            self.write(v, Dom::Values(one), val, val);
            Ok(true)
        }
    }

    /// Intersects `target`'s domain with `src`'s (EQ propagation). A
    /// self-intersection is a no-op.
    pub fn intersect_var(&mut self, target: usize, src: usize) -> Result<bool, ()> {
        if target == src {
            return Ok(false);
        }
        match (&self.doms[target], &self.doms[src]) {
            (_, Dom::Range) => self.clamp(target, self.lo[src], self.hi[src]),
            (&Dom::Bits(tw), &Dom::Bits(sw))
                if self.tables.spans[target] == self.tables.spans[src] =>
            {
                self.write_bits(target, tw, tw & sw)
            }
            _ => {
                let mut buf = self.spare.pop().unwrap_or_default();
                let met = self.meet(target, self.values(src), &mut buf);
                self.write_met(target, met, buf)
            }
        }
    }

    /// Keeps only non-zero divisors of `p` in `v`'s domain (PROD's
    /// divisibility rule). Applies only to explicit value sets; an
    /// interval is left untouched, mirroring the historical filter.
    pub fn retain_divisors(&mut self, v: usize, p: i64) -> Result<bool, ()> {
        let divides = |x: i64| x != 0 && p % x == 0;
        match &self.doms[v] {
            &Dom::Bits(w) => {
                let table = self.tables.table(v);
                let mut nw = 0u64;
                let mut bits = w;
                while bits != 0 {
                    let i = bits.trailing_zeros() as usize;
                    if divides(table[i]) {
                        nw |= 1u64 << i;
                    }
                    bits &= bits - 1;
                }
                self.write_bits(v, w, nw)
            }
            Dom::Range => Ok(false),
            Dom::Values(x) => {
                let mut buf = self.spare.pop().unwrap_or_default();
                buf.extend(x.iter().copied().filter(|&e| divides(e)));
                let met = match buf.len() {
                    0 => Met::Empty,
                    n if n == x.len() => Met::Same,
                    _ => Met::Values,
                };
                self.write_met(v, met, buf)
            }
        }
    }

    /// Restricts `v` to `[lo, hi]` in one step (so a wipeout leaves the
    /// store untouched).
    fn clamp(&mut self, v: usize, lo: i64, hi: i64) -> Result<bool, ()> {
        let (cur_lo, cur_hi) = (self.lo[v], self.hi[v]);
        let (lo, hi) = (lo.max(cur_lo), hi.min(cur_hi));
        if lo > hi {
            return Err(());
        }
        if lo == cur_lo && hi == cur_hi {
            return Ok(false);
        }
        match &self.doms[v] {
            &Dom::Bits(w) => {
                // Both cut points are below the index of `cur_hi`'s bit,
                // so the shifts cannot overflow.
                let table = self.tables.table(v);
                let mut nw = w;
                if lo > cur_lo {
                    nw &= !0u64 << table.partition_point(|&x| x < lo);
                }
                if hi < cur_hi {
                    nw &= (1u64 << table.partition_point(|&x| x <= hi)) - 1;
                }
                self.write_bits(v, w, nw)
            }
            Dom::Range => {
                self.write(v, Dom::Range, lo, hi);
                Ok(true)
            }
            Dom::Values(x) => {
                let kept = &x[x.partition_point(|&e| e < lo)..x.partition_point(|&e| e <= hi)];
                if kept.is_empty() {
                    return Err(());
                }
                let mut buf = self.spare.pop().unwrap_or_default();
                buf.extend_from_slice(kept);
                self.write_met(v, Met::Values, buf)
            }
        }
    }

    /// What `v`'s domain ∩ `other` (ascending) would be. A new explicit
    /// set that has no bitset form is left in `buf` (which must be empty).
    fn meet(&self, v: usize, mut other: impl Iterator<Item = i64>, buf: &mut Vec<i64>) -> Met {
        // Advances `other` to its first value `>= val`; whether that is `val`.
        let mut cur = other.next();
        let mut has = |val: i64| {
            while cur.is_some_and(|c| c < val) {
                cur = other.next();
            }
            cur == Some(val)
        };
        match &self.doms[v] {
            &Dom::Bits(w) => {
                let table = self.tables.table(v);
                let mut nw = 0u64;
                let mut bits = w;
                while bits != 0 {
                    let i = bits.trailing_zeros() as usize;
                    if has(table[i]) {
                        nw |= 1u64 << i;
                    }
                    bits &= bits - 1;
                }
                Met::Bits(w, nw)
            }
            Dom::Range => {
                // Every candidate inside the interval, duplicates
                // included, exactly as `Domain::restrict_to` keeps them.
                let (lo, hi) = (self.lo[v], self.hi[v]);
                while let Some(c) = cur.filter(|&c| c <= hi) {
                    if c >= lo {
                        buf.push(c);
                    }
                    cur = other.next();
                }
                match buf.len() as u64 {
                    0 => Met::Empty,
                    n if n == self.size(v) => Met::Same,
                    _ => Met::Values,
                }
            }
            Dom::Values(x) => {
                buf.extend(x.iter().copied().filter(|&e| has(e)));
                match buf.len() {
                    0 => Met::Empty,
                    n if n == x.len() => Met::Same,
                    _ => Met::Values,
                }
            }
        }
    }

    /// Applies a [`Met`] to `v`; `buf` holds the set of `Met::Values` and
    /// goes back to the pool otherwise.
    fn write_met(&mut self, v: usize, met: Met, mut buf: Vec<i64>) -> Result<bool, ()> {
        let result = match met {
            Met::Empty => Err(()),
            Met::Same => Ok(false),
            Met::Bits(old, new) => self.write_bits(v, old, new),
            Met::Values => {
                let (lo, hi) = (buf[0], buf[buf.len() - 1]);
                self.write(v, Dom::Values(std::mem::take(&mut buf)), lo, hi);
                Ok(true)
            }
        };
        self.recycle(buf);
        result
    }

    /// Writes a new bitset word. `Err(())` on wipeout (the store is left
    /// untouched).
    #[inline]
    fn write_bits(&mut self, v: usize, old: u64, new: u64) -> Result<bool, ()> {
        if new == 0 {
            return Err(());
        }
        if new == old {
            return Ok(false);
        }
        let table = self.tables.table(v);
        let lo = table[new.trailing_zeros() as usize];
        let hi = table[63 - new.leading_zeros() as usize];
        self.write(v, Dom::Bits(new), lo, hi);
        Ok(true)
    }

    /// The single write funnel: installs `v`'s new domain and bounds,
    /// trailing the old ones as its pre-scope value (at most once per
    /// epoch; never while untracked).
    #[inline]
    fn write(&mut self, v: usize, dom: Dom, lo: i64, hi: i64) {
        let old = std::mem::replace(&mut self.doms[v], dom);
        if self.epoch != 0 && self.saved[v].0 != self.epoch {
            self.saved[v] = (self.epoch, self.trail.len() as u32);
            self.trail.push(Saved {
                var: v as u32,
                lo: self.lo[v],
                hi: self.hi[v],
                dom: old,
            });
            self.max_trail = self.max_trail.max(self.trail.len());
        } else {
            self.discard(old);
        }
        self.lo[v] = lo;
        self.hi[v] = hi;
    }

    /// Drops a domain no undo can restore, keeping an explicit set's
    /// buffer.
    #[inline]
    fn discard(&mut self, dom: Dom) {
        if let Dom::Values(buf) = dom {
            self.recycle(buf);
        }
    }

    /// Returns a buffer to the pool.
    #[inline]
    fn recycle(&mut self, mut buf: Vec<i64>) {
        if buf.capacity() > 0 {
            buf.clear();
            self.spare.push(buf);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::VarCategory;

    fn store_for(csp: &Csp) -> DomainStore {
        DomainStore::new(Rc::new(VarTables::for_csp(csp)), csp, csp.num_constraints())
    }

    fn vals(s: &DomainStore, v: usize) -> Vec<i64> {
        s.values(v).collect()
    }

    #[test]
    fn bitset_ops_match_domain_semantics() {
        let mut csp = Csp::new();
        let x = csp.add_var("x", Domain::values([1, 2, 4, 8, 16]), VarCategory::Tunable);
        let mut s = store_for(&csp);
        assert!(matches!(s.doms[x.0], Dom::Bits(0b11111)));
        assert_eq!(s.min(x.0), 1);
        assert_eq!(s.max(x.0), 16);
        assert_eq!(s.size(x.0), 5);
        assert_eq!(s.restrict_min(x.0, 3), Ok(true));
        assert_eq!(s.restrict_max(x.0, 8), Ok(true));
        assert_eq!(vals(&s, x.0), vec![4, 8]);
        assert_eq!(s.restrict_to(x.0, &[2, 8, 32]), Ok(true));
        assert_eq!(s.fixed_value(x.0), Some(8));
        assert!(s.restrict_min(x.0, 100).is_err());
        // The failed restriction left the domain intact.
        assert_eq!(s.fixed_value(x.0), Some(8));
    }

    #[test]
    fn size_of_the_widest_interval_does_not_overflow() {
        let mut csp = Csp::new();
        let x = csp.add_var("x", Domain::range(0, i64::MAX), VarCategory::Other);
        let s = store_for(&csp);
        assert_eq!(s.size(x.0), 1 << 63);
        assert_eq!(s.fixed_value(x.0), None);
    }

    #[test]
    fn trail_restores_domains_and_dormancy() {
        let mut csp = Csp::new();
        let x = csp.add_var("x", Domain::values([1, 2, 3]), VarCategory::Tunable);
        let y = csp.add_var("y", Domain::range(0, 100), VarCategory::Other);
        csp.post_le(x, y);
        let mut s = store_for(&csp);
        // Untracked changes are permanent.
        s.restrict_max(y.0, 50).unwrap();
        s.commit();
        let m = s.mark();
        s.fix(x.0, 2).unwrap();
        s.restrict_min(y.0, 10).unwrap();
        s.set_dormant(0);
        assert!(s.is_dormant(0));
        let inner = s.mark();
        s.restrict_max(y.0, 20).unwrap();
        s.undo_to(inner);
        assert_eq!(s.max(y.0), 50);
        s.undo_to(m);
        assert_eq!(vals(&s, x.0), vec![1, 2, 3]);
        assert_eq!(s.min(y.0), 0);
        assert_eq!(s.max(y.0), 50);
        assert!(!s.is_dormant(0));
        assert!(s.take_max_trail() >= 2);
    }

    #[test]
    fn save_on_write_dedups_per_scope() {
        let mut csp = Csp::new();
        let x = csp.add_var("x", Domain::values([1, 2, 3, 4]), VarCategory::Tunable);
        let mut s = store_for(&csp);
        s.commit();
        let m = s.mark();
        s.restrict_min(x.0, 2).unwrap();
        s.restrict_max(x.0, 3).unwrap();
        // Two writes, one trail entry.
        assert_eq!(s.take_max_trail(), 1);
        s.undo_to(m);
        assert_eq!(s.size(x.0), 4);
    }

    #[test]
    fn wide_domains_round_trip() {
        let mut csp = Csp::new();
        let big: Vec<i64> = (0..100).collect();
        let x = csp.add_var("x", Domain::values(big), VarCategory::Other);
        let y = csp.add_var("y", Domain::range(0, 1_000_000), VarCategory::Other);
        let mut s = store_for(&csp);
        assert!(matches!(s.doms[x.0], Dom::Values(_)));
        s.commit();
        let m = s.mark();
        s.restrict_min(x.0, 90).unwrap();
        s.intersect_var(y.0, x.0).unwrap();
        assert_eq!(s.min(y.0), 90);
        assert_eq!(s.max(y.0), 99);
        s.undo_to(m);
        assert_eq!(s.min(x.0), 0);
        assert_eq!(s.max(y.0), 1_000_000);
    }

    #[test]
    fn equal_declared_sets_share_a_table_and_discarded_sets_are_reused() {
        let mut csp = Csp::new();
        let x = csp.add_var("x", Domain::divisors_of(64), VarCategory::Tunable);
        let y = csp.add_var("y", Domain::divisors_of(64), VarCategory::Tunable);
        let z = csp.add_var("z", Domain::divisors_of(32), VarCategory::Tunable);
        let r = csp.add_var("r", Domain::range(0, 9), VarCategory::Other);
        let mut s = store_for(&csp);
        assert_eq!(s.tables.spans[x.0], s.tables.spans[y.0]);
        assert_ne!(s.tables.spans[x.0], s.tables.spans[z.0]);
        s.restrict_max(y.0, 8).unwrap();
        assert_eq!(s.intersect_var(x.0, y.0), Ok(true));
        assert_eq!(vals(&s, x.0), vec![1, 2, 4, 8]);
        assert_eq!(s.intersect_var(z.0, x.0), Ok(true));
        assert_eq!(vals(&s, z.0), vec![1, 2, 4, 8]);
        // An interval that becomes an explicit set takes a buffer, and
        // undoing it hands the buffer back.
        s.commit();
        let m = s.mark();
        assert_eq!(s.restrict_to(r.0, &[3, 5, 12]), Ok(true));
        assert_eq!(s.domain(r.0), Domain::values([3, 5]));
        s.undo_to(m);
        assert_eq!(s.domain(r.0), Domain::range(0, 9));
        assert_eq!(s.spare.len(), 1);
        let m = s.mark();
        assert_eq!(s.fix(r.0, 7), Ok(true));
        assert!(s.spare.is_empty());
        s.undo_to(m);
    }
}

//! The space builder: a thin facade coupling the CSP, the schedule
//! template's primitives, and the kernel template so that every schedule
//! decision and its constraints stay consistent.
//!
//! The constraint generation rules C1–C6 are methods here, but for C2:
//!
//! * [`SpaceBuilder::tile_split`] — Rule-C1 `AddLoopSplit` (PROD over the
//!   split parts, plus the paper's `tile.*` twin variables),
//! * Rule-C2 `AddLoopFuse` is posted by `tensorcore::fuse_mac_axes`,
//!   which every platform's generator shares (PROD of the fused axes,
//!   LE the padded extent),
//! * [`SpaceBuilder::candidates`] — Rule-C3 `AddCandidates` (IN),
//! * [`SpaceBuilder::select`] — Rule-C4 `AddStageFuse` (SELECT over
//!   location-dependent loop lengths),
//! * [`SpaceBuilder::mem_limit`] — Rule-C5 `AddMemLimit` (PROD footprints,
//!   SUM totals, LE capacity),
//! * free-form constraints for Rule-C6 `AddDLASpecific`.

use std::sync::Arc;

use heron_csp::{Csp, Domain, VarCategory, VarRef};
use heron_dla::DlaSpec;
use heron_sched::template::{BufferSpec, KernelTemplate};
use heron_sched::{MemScope, ScheduleState};

use super::GeneratedSpace;

/// A variable name: the concatenation of `parts`, allocated once at its
/// length and written without the formatting machinery (names are built
/// by the hundred per space).
pub(crate) fn var_name(parts: &[&str]) -> String {
    let mut name = String::with_capacity(parts.iter().map(|p| p.len()).sum());
    for p in parts {
        name.push_str(p);
    }
    name
}

/// The decimal text of a non-negative `v` (every Heron value is), on the
/// stack.
struct Decimal {
    digits: [u8; 20],
    start: usize,
}

impl Decimal {
    fn of(v: i64) -> Decimal {
        assert!(v >= 0, "Heron values are non-negative");
        let mut d = Decimal {
            digits: [0; 20],
            start: 20,
        };
        let mut v = v as u64;
        loop {
            d.start -= 1;
            d.digits[d.start] = b'0' + (v % 10) as u8;
            v /= 10;
            if v == 0 {
                return d;
            }
        }
    }

    fn as_str(&self) -> &str {
        std::str::from_utf8(&self.digits[self.start..]).expect("ASCII digits")
    }
}

/// Room a builder reserves for its CSP: a generated space declares a couple
/// of hundred variables and constraints at most (ResNet-50's v100 spaces
/// average 163 and 144), so its tables are allocated once.
const CSP_ROOM: usize = 256;

/// Room a builder reserves for its on-chip buffers and its shared
/// constants (a space has a handful of each, a few dozen constants at most).
const BUFFER_ROOM: usize = 8;
const CONST_ROOM: usize = 32;

/// Room a builder reserves for its schedule primitives (three dozen at
/// most).
const PRIMITIVE_ROOM: usize = 40;

/// Builder accumulating the CSP and the schedule primitives side by side.
#[derive(Debug)]
pub struct SpaceBuilder {
    /// The growing `CSP_initial`.
    pub csp: Csp,
    /// The growing schedule template.
    pub state: ScheduleState,
    /// On-chip buffers registered so far (for the kernel template).
    pub buffers: Vec<BufferSpec>,
    /// The shared constants, sorted by value.
    consts: Vec<(i64, VarRef)>,
}

impl Default for SpaceBuilder {
    fn default() -> Self {
        SpaceBuilder {
            csp: Csp::with_capacity(CSP_ROOM, CSP_ROOM),
            state: ScheduleState::with_capacity(PRIMITIVE_ROOM),
            buffers: Vec::with_capacity(BUFFER_ROOM),
            consts: Vec::with_capacity(CONST_ROOM),
        }
    }
}

impl SpaceBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        SpaceBuilder::default()
    }

    /// A shared constant variable (named `const.<v>`), categorised as an
    /// architectural variable.
    pub fn constant(&mut self, v: i64) -> VarRef {
        let at = match self.consts.binary_search_by_key(&v, |&(c, _)| c) {
            Ok(i) => return self.consts[i].1,
            Err(at) => at,
        };
        let r = self
            .csp
            .add_const(var_name(&["const.", Decimal::of(v).as_str()]), v);
        self.consts.insert(at, (v, r));
        r
    }

    /// A named constant in the Arch category (dedicated architectural
    /// variables such as `m`, `cap.shared`).
    pub fn arch_const(&mut self, name: impl Into<String>, v: i64) -> VarRef {
        self.csp.add_const(name, v)
    }

    /// An architectural variable restricted to candidate values
    /// (Rule-C3, e.g. `m ∈ {8, 16, 32}`).
    pub fn arch_candidates(&mut self, name: impl Into<String>, values: &[i64]) -> VarRef {
        let r = self.csp.add_var(
            name,
            Domain::values(values.iter().copied()),
            VarCategory::Arch,
        );
        self.csp.post_in(r, values.iter().copied());
        self.add_indicators(r, values);
        r
    }

    /// The paper expresses `v ∈ {c1, …, cn}` with helper boolean variables
    /// (`m == 8`, `m == 16`, … in Table 4's "others" column). We encode the
    /// same structure with a selector index plus one indicator boolean per
    /// candidate, each tied through a SELECT constraint. The helpers are
    /// named after `var`.
    fn add_indicators(&mut self, var: VarRef, values: &[i64]) {
        if values.len() < 2 || values.len() > 8 {
            return;
        }
        let consts: Vec<VarRef> = values.iter().map(|&c| self.constant(c)).collect();
        let idx_name = var_name(&["idx.", &self.csp.var(var).name]);
        let idx = self.aux(idx_name, 0, values.len() as i64 - 1);
        self.csp.post_select(var, idx, consts);
        for (i, c) in values.iter().enumerate() {
            let c = Decimal::of(*c);
            let name = var_name(&["is.", &self.csp.var(var).name, ".", c.as_str()]);
            let b = self
                .csp
                .add_var(name, Domain::boolean(), VarCategory::Other);
            let choices: Vec<VarRef> = (0..values.len())
                .map(|j| self.constant(i64::from(j == i)))
                .collect();
            self.csp.post_select(b, idx, choices);
        }
    }

    /// A tunable variable with an explicit value set (Rule-C3 posts the IN,
    /// plus the paper's indicator-boolean helpers).
    pub fn tunable(&mut self, name: impl Into<String>, values: &[i64]) -> VarRef {
        let r = self.csp.add_var(
            name,
            Domain::values(values.iter().copied()),
            VarCategory::Tunable,
        );
        self.csp.post_in(r, values.iter().copied());
        self.add_indicators(r, values);
        r
    }

    /// An auxiliary variable with range `[lo, hi]`.
    pub fn aux(&mut self, name: impl Into<String>, lo: i64, hi: i64) -> VarRef {
        self.csp
            .add_var(name, Domain::range(lo, hi.max(lo)), VarCategory::Other)
    }

    /// Rule-C1 `AddLoopSplit`: splits `loop_name` of `stage` into parts.
    ///
    /// For each part this declares a loop-length variable (divisors of
    /// `extent`) and a tunable twin `tile.<part>` with an EQ constraint —
    /// the structure the paper's Table 4 describes — and posts
    /// `PROD(extent, parts)`.
    ///
    /// Returns the part loop-length variables, outermost first.
    pub fn tile_split<const N: usize>(
        &mut self,
        stage: &str,
        loop_name: &str,
        extent: i64,
        parts: [&str; N],
    ) -> [VarRef; N] {
        self.state.split(stage, loop_name, &parts);
        let total = self.constant(extent);
        // Two variables per part share the divisors: the last takes the
        // original.
        let mut divisors = std::iter::repeat_n(Domain::divisors_of(extent), 2 * N);
        let refs = parts.map(|part| {
            let mut domain = || divisors.next().expect("two domains per part");
            let lv = self.csp.add_var(part, domain(), VarCategory::LoopLength);
            let tv = self
                .csp
                .add_var(var_name(&["tile.", part]), domain(), VarCategory::Tunable);
            self.csp.post_eq(tv, lv);
            lv
        });
        self.csp.post_prod(total, refs.to_vec());
        refs
    }

    /// Rule-C3 `AddCandidates`: posts `var ∈ values`.
    pub fn candidates(&mut self, var: VarRef, values: &[i64]) {
        self.csp.post_in(var, values.iter().copied());
    }

    /// Rule-C4 `AddStageFuse`: `out == choices[index]`.
    pub fn select(&mut self, out: VarRef, index: VarRef, choices: Vec<VarRef>) {
        self.csp.post_select(out, index, choices);
    }

    /// PROD helper: declares `name = Π factors` as an auxiliary variable.
    /// Both bounds saturate: a product past `i64::MAX` cannot overflow
    /// (the domain is capped at 2^56 anyway).
    pub fn prod(&mut self, name: impl Into<String>, factors: impl Into<Vec<VarRef>>) -> VarRef {
        let factors = factors.into();
        let hi = factors
            .iter()
            .map(|f| self.csp.var(*f).domain.max())
            .fold(1_i64, |a, b| a.saturating_mul(b))
            .min(1 << 56);
        let lo = factors
            .iter()
            .map(|f| self.csp.var(*f).domain.min())
            .fold(1_i64, |a, b| a.saturating_mul(b))
            .max(0);
        let out = self.aux(name, lo.min(hi), hi);
        self.csp.post_prod(out, factors);
        out
    }

    /// SUM helper: declares `name = Σ terms` as an auxiliary variable.
    /// Both bounds saturate at `i64::MAX`.
    pub fn sum(&mut self, name: impl Into<String>, terms: &[VarRef]) -> VarRef {
        let lo = terms
            .iter()
            .map(|t| self.csp.var(*t).domain.min())
            .fold(0_i64, |a, b| a.saturating_add(b));
        let hi: i64 = terms
            .iter()
            .map(|t| self.csp.var(*t).domain.max())
            .fold(0_i64, |a, b| a.saturating_add(b));
        let out = self.aux(name, lo, hi);
        self.csp.post_sum(out, terms.to_vec());
        out
    }

    /// Rule-C5 `AddMemLimit`: registers a buffer of `elem_vars`-product
    /// elements × `elem_bytes`, posts the byte-count PROD, and returns the
    /// byte variable. Call [`SpaceBuilder::cap_total`] afterwards to post
    /// the SUM + LE over a scope.
    pub fn mem_limit(
        &mut self,
        buffer: &str,
        scope: MemScope,
        elems: VarRef,
        elem_bytes: u64,
    ) -> VarRef {
        let b = self.constant(elem_bytes as i64);
        let bytes = self.prod(var_name(&["bytes.", buffer]), [elems, b]);
        self.buffers.push(BufferSpec {
            name: buffer.to_string(),
            scope,
            var_bytes: self.csp.var(bytes).name.clone(),
        });
        bytes
    }

    /// Posts `Σ byte_vars <= capacity` for a scope (the second half of
    /// Rule-C5).
    pub fn cap_total(
        &mut self,
        name: impl Into<String>,
        byte_vars: &[VarRef],
        capacity: u64,
    ) -> VarRef {
        let total = self.sum(name, byte_vars);
        let cap = self.constant(capacity as i64);
        self.csp.post_le(total, cap);
        total
    }

    /// Posts a divisibility requirement `divisor | value` by introducing a
    /// hidden quotient: `value == divisor * q` (used for vectorised access
    /// alignment, a Rule-C6 pattern).
    pub fn divides(&mut self, divisor: VarRef, value: VarRef, tag: &str) {
        let hi = self.csp.var(value).domain.max();
        let q = self.aux(var_name(&["quot.", tag]), 1, hi);
        self.csp.post_prod(value, vec![divisor, q]);
    }

    /// Declares a loop-length twin variable `name` EQ-linked to `of` —
    /// the paper's per-stage loop-length variables (`stage.i6`, …) that
    /// mirror quantities already defined by the tile structure.
    pub fn loop_twin(&mut self, name: impl Into<String>, of: VarRef) -> VarRef {
        let hi = self.csp.var(of).domain.max();
        let lo = self.csp.var(of).domain.min();
        let v = self.csp.add_var(
            name,
            Domain::range(lo.max(0), hi.max(lo.max(0))),
            VarCategory::LoopLength,
        );
        self.csp.post_eq(v, of);
        v
    }

    /// Name of a variable (for wiring template slots).
    pub fn name_of(&self, r: VarRef) -> String {
        self.csp.var(r).name.clone()
    }

    /// Finishes the space: `template` receives the buffers, the schedule
    /// primitives and the tunables' names, and the CSP becomes the
    /// space's shared `CSP_initial`.
    pub fn finish(
        self,
        mut template: KernelTemplate,
        spec: &DlaSpec,
        workload: &str,
    ) -> GeneratedSpace {
        let tunables = || {
            self.csp
                .vars()
                .filter(|(_, d)| d.category == VarCategory::Tunable)
        };
        template.tunables = Vec::with_capacity(tunables().count());
        template
            .tunables
            .extend(tunables().map(|(_, d)| d.name.clone()));
        template.buffers = self.buffers;
        template.primitives = self.state.into_template();
        GeneratedSpace {
            csp: Arc::new(self.csp),
            template,
            dla: spec.clone(),
            workload: workload.to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use heron_rng::HeronRng;

    #[test]
    fn tile_split_posts_prod_and_twins() {
        let mut b = SpaceBuilder::new();
        let parts = b.tile_split("C", "C.i", 64, ["C.i0", "C.i1", "C.i2"]);
        assert_eq!(parts.len(), 3);
        assert!(b.csp.var_by_name("tile.C.i1").is_some());
        // Solve: every sample multiplies to 64.
        let mut rng = HeronRng::from_seed(0);
        let sols =
            heron_testkit::solve_once(&b.csp, &mut rng, 8, &heron_csp::SolvePolicy::default())
                .expect_sat("builder space");
        assert!(!sols.is_empty());
        for s in &sols {
            let p: i64 = parts.iter().map(|r| s.value(*r)).product();
            assert_eq!(p, 64);
            // twins track the loop vars
            let t = s.value_by_name(&b.csp, "tile.C.i0").expect("twin");
            assert_eq!(t, s.value(parts[0]));
        }
    }

    #[test]
    fn mem_limit_and_cap_total_bound_tiles() {
        let mut b = SpaceBuilder::new();
        let parts = b.tile_split("C", "C.i", 4096, ["C.i0", "C.i1"]);
        let elems = b.prod("elems.buf", [parts[1]]);
        let bytes = b.mem_limit("buf", MemScope::Shared, elems, 2);
        b.cap_total("smem.total", &[bytes], 1024); // tile_inner * 2 <= 1024
        let mut rng = HeronRng::from_seed(1);
        let sols =
            heron_testkit::solve_once(&b.csp, &mut rng, 16, &heron_csp::SolvePolicy::default())
                .expect_sat("builder space");
        assert!(!sols.is_empty());
        for s in &sols {
            assert!(s.value(parts[1]) * 2 <= 1024);
        }
        assert_eq!(b.buffers.len(), 1);
        assert_eq!(b.buffers[0].var_bytes, "bytes.buf");
    }

    #[test]
    fn divides_enforces_alignment() {
        let mut b = SpaceBuilder::new();
        let parts = b.tile_split("C", "C.r", 96, ["C.r0", "C.r1"]);
        let vec = b.tunable("vec", &[1, 2, 4, 8]);
        b.divides(vec, parts[1], "vec.row");
        let mut rng = HeronRng::from_seed(2);
        let sols =
            heron_testkit::solve_once(&b.csp, &mut rng, 24, &heron_csp::SolvePolicy::default())
                .expect_sat("builder space");
        assert!(!sols.is_empty());
        for s in &sols {
            let v = s.value(vec);
            let r1 = s.value(parts[1]);
            assert_eq!(r1 % v, 0, "vec {v} must divide row {r1}");
        }
    }

    #[test]
    fn prod_lower_bound_saturates() {
        let mut b = SpaceBuilder::new();
        let x = b.aux("x", 1 << 40, 1 << 41);
        let y = b.aux("y", 1 << 40, 1 << 41);
        let p = b.prod("p", [x, y]);
        // 2^80 saturates, and the domain stays capped at 2^56.
        assert_eq!(b.csp.var(p).domain, Domain::range(1 << 56, 1 << 56));
    }

    #[test]
    fn sum_lower_bound_saturates() {
        let mut b = SpaceBuilder::new();
        let x = b.aux("x", i64::MAX - 1, i64::MAX);
        let y = b.aux("y", 2, 3);
        let s = b.sum("s", &[x, y]);
        assert_eq!(b.csp.var(s).domain, Domain::range(i64::MAX, i64::MAX));
    }

    #[test]
    fn var_names_are_allocated_at_their_length() {
        let name = var_name(&["kchunk.", "A.shared", ".at", Decimal::of(0).as_str()]);
        assert_eq!(name, "kchunk.A.shared.at0");
        assert_eq!(name.capacity(), name.len());
        for v in [0, 7, 10, 49_152, i64::MAX] {
            assert_eq!(Decimal::of(v).as_str(), v.to_string());
        }
    }

    #[test]
    fn constants_are_shared() {
        let mut b = SpaceBuilder::new();
        let a = b.constant(48 * 1024);
        let c = b.constant(48 * 1024);
        assert_eq!(a, c);
        assert_eq!(b.csp.num_vars(), 1);
    }
}

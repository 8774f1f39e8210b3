//! The space builder: a thin facade coupling the CSP, the symbolic schedule
//! state, and the kernel template so that every schedule decision and its
//! constraints stay consistent.
//!
//! The constraint generation rules C1–C6 are methods here:
//!
//! * [`SpaceBuilder::tile_split`] — Rule-C1 `AddLoopSplit` (PROD over the
//!   split parts, plus the paper's `tile.*` twin variables),
//! * [`SpaceBuilder::fuse_loops`] — Rule-C2 `AddLoopFuse`,
//! * [`SpaceBuilder::candidates`] — Rule-C3 `AddCandidates` (IN),
//! * [`SpaceBuilder::select`] — Rule-C4 `AddStageFuse` (SELECT over
//!   location-dependent loop lengths),
//! * [`SpaceBuilder::mem_limit`] — Rule-C5 `AddMemLimit` (PROD footprints,
//!   SUM totals, LE capacity),
//! * free-form constraints for Rule-C6 `AddDLASpecific`.

use std::collections::BTreeMap;
use std::fmt::Write;
use std::sync::Arc;

use heron_csp::{Csp, Domain, VarCategory, VarRef};
use heron_dla::DlaSpec;
use heron_sched::template::{BufferSpec, KernelTemplate};
use heron_sched::{MemScope, ScheduleState};

use super::GeneratedSpace;

/// Builder accumulating the CSP and the schedule state side by side.
#[derive(Debug, Default)]
pub struct SpaceBuilder {
    /// The growing `CSP_initial`.
    pub csp: Csp,
    /// The growing symbolic schedule.
    pub state: ScheduleState,
    /// On-chip buffers registered so far (for the kernel template).
    pub buffers: Vec<BufferSpec>,
    consts: BTreeMap<i64, VarRef>,
}

impl SpaceBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        SpaceBuilder::default()
    }

    /// A shared constant variable (named `const.<v>`), categorised as an
    /// architectural variable.
    pub fn constant(&mut self, v: i64) -> VarRef {
        if let Some(&r) = self.consts.get(&v) {
            return r;
        }
        let r = self.csp.add_const(format!("const.{v}"), v);
        self.consts.insert(v, r);
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
        // Each helper's name, allocated at its final size (a `format!`
        // would start it at 8 bytes and grow it).
        let tag = &self.csp.var(var).name;
        let named = |prefix: &str, value: Option<i64>| {
            let mut name = String::with_capacity(prefix.len() + tag.len() + 21);
            name.push_str(prefix);
            name.push_str(tag);
            if let Some(v) = value {
                write!(name, ".{v}").expect("writing to a String cannot fail");
            }
            name
        };
        let idx_name = named("idx.", None);
        let names: Vec<String> = values.iter().map(|&c| named("is.", Some(c))).collect();
        let consts: Vec<VarRef> = values.iter().map(|&c| self.constant(c)).collect();
        let idx = self.aux(idx_name, 0, values.len() as i64 - 1);
        self.csp.post_select(var, idx, consts);
        for (i, name) in names.into_iter().enumerate() {
            let b = self
                .csp
                .add_var(name, Domain::boolean(), VarCategory::Other);
            let choices: Vec<VarRef> = (0..values.len())
                .map(|j| self.constant(i64::from(j == i)))
                .collect();
            self.csp.post_select(b, idx, choices);
        }
    }

    /// A loop-length variable with range `[1, max]`.
    pub fn loop_var(&mut self, name: impl Into<String>, max: i64) -> VarRef {
        self.csp
            .add_var(name, Domain::range(1, max.max(1)), VarCategory::LoopLength)
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
    pub fn tile_split(
        &mut self,
        stage: &str,
        loop_name: &str,
        extent: i64,
        parts: &[&str],
    ) -> Vec<VarRef> {
        self.state.split(stage, loop_name, parts);
        let total = self.constant(extent);
        let divisors = Domain::divisors_of(extent);
        let mut refs = Vec::with_capacity(parts.len());
        for part in parts {
            let lv = self
                .csp
                .add_var(*part, divisors.clone(), VarCategory::LoopLength);
            let tv = self.csp.add_var(
                format!("tile.{part}"),
                divisors.clone(),
                VarCategory::Tunable,
            );
            self.csp.post_eq(tv, lv);
            refs.push(lv);
        }
        self.csp.post_prod(total, refs.clone());
        refs
    }

    /// Rule-C2 `AddLoopFuse`: declares the fused loop length as the product
    /// of the fused parts.
    pub fn fuse_loops(
        &mut self,
        stage: &str,
        loops: &[&str],
        fused: &str,
        part_refs: &[VarRef],
        max: i64,
    ) -> VarRef {
        self.state.fuse(stage, loops, fused);
        let f = self.loop_var(fused, max);
        self.csp.post_prod(f, part_refs.to_vec());
        f
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
    pub fn prod(&mut self, name: impl Into<String>, factors: &[VarRef]) -> VarRef {
        let hi = factors
            .iter()
            .map(|f| self.csp.var(*f).domain.max())
            .fold(1_i64, |a, b| a.saturating_mul(b))
            .min(1 << 56);
        let lo = factors
            .iter()
            .map(|f| self.csp.var(*f).domain.min())
            .product::<i64>()
            .max(0);
        let out = self.aux(name, lo.min(hi), hi);
        self.csp.post_prod(out, factors.to_vec());
        out
    }

    /// SUM helper: declares `name = Σ terms` as an auxiliary variable.
    pub fn sum(&mut self, name: impl Into<String>, terms: &[VarRef]) -> VarRef {
        let lo: i64 = terms.iter().map(|t| self.csp.var(*t).domain.min()).sum();
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
        let bytes = self.prod(format!("bytes.{buffer}"), &[elems, b]);
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
        let q = self.aux(format!("quot.{tag}"), 1, hi);
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
        template.tunables = self
            .csp
            .tunables()
            .iter()
            .map(|r| self.csp.var(*r).name.clone())
            .collect();
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
    use heron_sched::{LoopSym, StageRole};
    use heron_tensor::{DType, IterKind};

    fn builder_with_stage() -> SpaceBuilder {
        let mut b = SpaceBuilder::new();
        b.state.add_stage(
            "C",
            StageRole::Compute,
            MemScope::Global,
            MemScope::Global,
            DType::F16,
            vec![
                LoopSym::new("C.i", IterKind::Spatial, "i"),
                LoopSym::new("C.r", IterKind::Reduce, "r"),
            ],
        );
        b
    }

    #[test]
    fn tile_split_posts_prod_and_twins() {
        let mut b = builder_with_stage();
        let parts = b.tile_split("C", "C.i", 64, &["C.i0", "C.i1", "C.i2"]);
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
        let mut b = builder_with_stage();
        let parts = b.tile_split("C", "C.i", 4096, &["C.i0", "C.i1"]);
        let elems = b.prod("elems.buf", &[parts[1]]);
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
        let mut b = builder_with_stage();
        let parts = b.tile_split("C", "C.r", 96, &["C.r0", "C.r1"]);
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
    fn constants_are_shared() {
        let mut b = SpaceBuilder::new();
        let a = b.constant(48 * 1024);
        let c = b.constant(48 * 1024);
        assert_eq!(a, c);
        assert_eq!(b.csp.num_vars(), 1);
    }
}

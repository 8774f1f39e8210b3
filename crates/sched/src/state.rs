//! Symbolic schedule state: stages and loop structure under transformation.
//!
//! The state is the "current program" `S` of the paper's generation rules.
//! All loop extents are names of CSP variables; applying a primitive both
//! rewrites the loop structure and appends the primitive to the growing
//! schedule template.

use std::fmt;

use heron_tensor::{DType, IterKind};

use crate::primitive::Primitive;
use crate::scope::{MemScope, StageRole, ThreadAxis};

/// One symbolic loop: its extent is the CSP variable `name`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoopSym {
    /// CSP variable carrying the loop extent (also the loop's identity).
    pub name: String,
    /// Spatial or reduction loop.
    pub kind: IterKind,
    /// Name of the original compute axis this loop descends from.
    pub origin: String,
    /// Hardware binding, if any.
    pub bind: Option<ThreadAxis>,
    /// Whether the loop was consumed by a `tensorize`.
    pub tensorized: bool,
}

impl LoopSym {
    /// Unbound serial loop descending from `origin`.
    pub fn new(name: impl Into<String>, kind: IterKind, origin: impl Into<String>) -> Self {
        LoopSym {
            name: name.into(),
            kind,
            origin: origin.into(),
            bind: None,
            tensorized: false,
        }
    }
}

/// A stage in the symbolic schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageSym {
    /// Stage name (`C.wmma`, `A.shared`, …).
    pub name: String,
    /// Load / compute / store.
    pub role: StageRole,
    /// Scope data is read from.
    pub src_scope: MemScope,
    /// Scope data is written to.
    pub dst_scope: MemScope,
    /// Element type handled by the stage.
    pub dtype: DType,
    /// Current loop nest, outermost first.
    pub loops: Vec<LoopSym>,
    /// `(parent stage, location variable, candidate loops)` if anchored.
    pub compute_at: Option<(String, String, Vec<String>)>,
    /// Intrinsic shape variables `(m, n, k)` if tensorized.
    pub tensorize: Option<(String, String, String)>,
    /// Vector-width variable for data movement.
    pub vector_var: Option<String>,
    /// Maximum-unroll variable.
    pub unroll_var: Option<String>,
    /// Storage-align padding variable.
    pub align_pad_var: Option<String>,
}

impl StageSym {
    fn loop_index(&self, name: &str) -> Option<usize> {
        self.loops.iter().position(|l| l.name == name)
    }
}

/// The evolving symbolic schedule (paper's state `S`).
#[derive(Debug, Clone, Default)]
pub struct ScheduleState {
    stages: Vec<StageSym>,
    template: Vec<Primitive>,
}

impl ScheduleState {
    /// Creates an empty state.
    pub fn new() -> Self {
        ScheduleState::default()
    }

    /// Adds a fresh stage with the given initial loops.
    ///
    /// # Panics
    /// Panics on duplicate stage names.
    pub fn add_stage(
        &mut self,
        name: impl Into<String>,
        role: StageRole,
        src_scope: MemScope,
        dst_scope: MemScope,
        dtype: DType,
        loops: Vec<LoopSym>,
    ) -> &mut StageSym {
        let name = name.into();
        assert!(
            self.stages.iter().all(|s| s.name != name),
            "duplicate stage `{name}`"
        );
        self.stages.push(StageSym {
            name,
            role,
            src_scope,
            dst_scope,
            dtype,
            loops,
            compute_at: None,
            tensorize: None,
            vector_var: None,
            unroll_var: None,
            align_pad_var: None,
        });
        self.stages.last_mut().expect("just pushed")
    }

    /// Adds a cache-read stage (Rules S2/S3) and records the primitive.
    #[allow(clippy::too_many_arguments)]
    pub fn cache_read(
        &mut self,
        tensor: impl Into<String>,
        scope: MemScope,
        new_stage: impl Into<String>,
        src_scope: MemScope,
        dtype: DType,
        loops: Vec<LoopSym>,
    ) -> &mut StageSym {
        let tensor = tensor.into();
        let new_stage = new_stage.into();
        self.template.push(Primitive::CacheRead {
            tensor,
            scope,
            new_stage: new_stage.clone(),
        });
        self.add_stage(new_stage, StageRole::Load, src_scope, scope, dtype, loops)
    }

    /// Adds a cache-write stage (Rule S3) and records the primitive.
    pub fn cache_write(
        &mut self,
        tensor: impl Into<String>,
        scope: MemScope,
        new_stage: impl Into<String>,
        dst_scope: MemScope,
        dtype: DType,
        loops: Vec<LoopSym>,
    ) -> &mut StageSym {
        let tensor = tensor.into();
        let new_stage = new_stage.into();
        self.template.push(Primitive::CacheWrite {
            tensor,
            scope,
            new_stage: new_stage.clone(),
        });
        self.add_stage(new_stage, StageRole::Store, scope, dst_scope, dtype, loops)
    }

    /// Stage lookup.
    pub fn stage(&self, name: &str) -> Option<&StageSym> {
        self.stages.iter().find(|s| s.name == name)
    }

    fn stage_mut(&mut self, name: &str) -> &mut StageSym {
        self.stages
            .iter_mut()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("unknown stage `{name}`"))
    }

    /// All stages in insertion order.
    pub fn stages(&self) -> &[StageSym] {
        &self.stages
    }

    /// The accumulated schedule template.
    pub fn template(&self) -> &[Primitive] {
        &self.template
    }

    /// The accumulated schedule template, taken out of the finished state.
    pub fn into_template(self) -> Vec<Primitive> {
        self.template
    }

    /// Splits `loop_name` of `stage` into `parts` (outermost first),
    /// replacing it in place.
    ///
    /// # Panics
    /// Panics if the stage or loop is unknown, or `parts.len() < 2`.
    pub fn split(&mut self, stage: &str, loop_name: &str, parts: &[&str]) {
        assert!(parts.len() >= 2, "split needs at least two parts");
        let st = self.stage_mut(stage);
        let idx = st
            .loop_index(loop_name)
            .unwrap_or_else(|| panic!("stage `{stage}` has no loop `{loop_name}`"));
        let old = st.loops.remove(idx);
        assert!(old.bind.is_none(), "cannot split a bound loop");
        for (off, part) in parts.iter().enumerate() {
            st.loops
                .insert(idx + off, LoopSym::new(*part, old.kind, old.origin.clone()));
        }
        self.template.push(Primitive::Split {
            stage: stage.into(),
            loop_name: loop_name.into(),
            parts: parts.iter().map(|p| (*p).to_string()).collect(),
        });
    }

    /// Fuses the (adjacent, in order) `loops` of `stage` into `fused`.
    ///
    /// # Panics
    /// Panics if the loops are not adjacent in the given order.
    pub fn fuse(&mut self, stage: &str, loops: &[&str], fused: &str) {
        assert!(loops.len() >= 2, "fuse needs at least two loops");
        let st = self.stage_mut(stage);
        let first = st
            .loop_index(loops[0])
            .unwrap_or_else(|| panic!("stage `{stage}` has no loop `{}`", loops[0]));
        for (off, l) in loops.iter().enumerate() {
            assert_eq!(
                st.loops.get(first + off).map(|x| x.name.as_str()),
                Some(*l),
                "loops must be adjacent and in order to fuse"
            );
        }
        let kind = st.loops[first].kind;
        let origin = st.loops[first].origin.clone();
        for l in &st.loops[first..first + loops.len()] {
            assert_eq!(l.kind, kind, "cannot fuse spatial with reduce loops");
        }
        st.loops.drain(first..first + loops.len());
        st.loops.insert(first, LoopSym::new(fused, kind, origin));
        self.template.push(Primitive::Fuse {
            stage: stage.into(),
            loops: loops.iter().map(|l| (*l).to_string()).collect(),
            fused: fused.into(),
        });
    }

    /// Reorders the loops of `stage` to the permutation `order`.
    ///
    /// # Panics
    /// Panics unless `order` is a permutation of the current loops.
    pub fn reorder(&mut self, stage: &str, order: &[&str]) {
        let st = self.stage_mut(stage);
        assert_eq!(order.len(), st.loops.len(), "reorder must list every loop");
        let mut new_loops = Vec::with_capacity(order.len());
        for name in order {
            let idx = st
                .loop_index(name)
                .unwrap_or_else(|| panic!("stage `{stage}` has no loop `{name}`"));
            new_loops.push(st.loops[idx].clone());
        }
        assert_eq!(
            new_loops.len(),
            order.iter().collect::<std::collections::HashSet<_>>().len(),
            "reorder contains duplicates"
        );
        st.loops = new_loops;
        self.template.push(Primitive::Reorder {
            stage: stage.into(),
            order: order.iter().map(|o| (*o).to_string()).collect(),
        });
    }

    /// Binds a loop to a thread axis.
    pub fn bind(&mut self, stage: &str, loop_name: &str, axis: ThreadAxis) {
        let st = self.stage_mut(stage);
        let idx = st
            .loop_index(loop_name)
            .unwrap_or_else(|| panic!("stage `{stage}` has no loop `{loop_name}`"));
        assert!(
            st.loops[idx].bind.is_none(),
            "loop `{loop_name}` already bound"
        );
        st.loops[idx].bind = Some(axis);
        self.template.push(Primitive::Bind {
            stage: stage.into(),
            loop_name: loop_name.into(),
            axis,
        });
    }

    /// Tensorizes the innermost loops of `stage` with intrinsic shape
    /// variables `(m, n, k)`; marks the loops named by those variables.
    pub fn tensorize(&mut self, stage: &str, loops: &[&str], m: &str, n: &str, k: &str) {
        let st = self.stage_mut(stage);
        for l in loops {
            let idx = st
                .loop_index(l)
                .unwrap_or_else(|| panic!("stage `{stage}` has no loop `{l}`"));
            st.loops[idx].tensorized = true;
        }
        st.tensorize = Some((m.into(), n.into(), k.into()));
        self.template.push(Primitive::Tensorize {
            stage: stage.into(),
            m: m.into(),
            n: n.into(),
            k: k.into(),
        });
    }

    /// Anchors `stage` inside `parent` at a position selected by
    /// `location_var` among `candidates` (loop names of the parent).
    pub fn compute_at(
        &mut self,
        stage: &str,
        parent: &str,
        location_var: &str,
        candidates: &[&str],
    ) {
        assert!(!candidates.is_empty(), "compute_at needs candidates");
        {
            let p = self
                .stage(parent)
                .unwrap_or_else(|| panic!("unknown parent stage `{parent}`"));
            for c in candidates {
                assert!(
                    p.loop_index(c).is_some(),
                    "parent `{parent}` has no loop `{c}`"
                );
            }
        }
        let st = self.stage_mut(stage);
        st.compute_at = Some((
            parent.into(),
            location_var.into(),
            candidates.iter().map(|c| (*c).to_string()).collect(),
        ));
        self.template.push(Primitive::ComputeAt {
            stage: stage.into(),
            parent: parent.into(),
            location_var: location_var.into(),
            candidates: candidates.iter().map(|c| (*c).to_string()).collect(),
        });
    }

    /// Attaches a tunable maximum-unroll variable to `stage`.
    pub fn unroll(&mut self, stage: &str, length_var: &str) {
        self.stage_mut(stage).unroll_var = Some(length_var.into());
        self.template.push(Primitive::Unroll {
            stage: stage.into(),
            length_var: length_var.into(),
        });
    }

    /// Attaches a tunable vector width to `stage`'s innermost loop.
    pub fn vectorize(&mut self, stage: &str, length_var: &str) {
        self.stage_mut(stage).vector_var = Some(length_var.into());
        self.template.push(Primitive::Vectorize {
            stage: stage.into(),
            length_var: length_var.into(),
        });
    }

    /// Attaches a tunable storage-align pad to `stage`'s buffer.
    pub fn storage_align(&mut self, stage: &str, pad_var: &str) {
        self.stage_mut(stage).align_pad_var = Some(pad_var.into());
        self.template.push(Primitive::StorageAlign {
            stage: stage.into(),
            pad_var: pad_var.into(),
        });
    }
}

impl ScheduleState {
    /// Renders the whole scheduled program as a symbolic loop nest (the
    /// paper's Figure 4, right panel): anchored stages appear nested under
    /// their parent's loops at the *first* candidate location, with the
    /// location variable noted; extents print as the CSP variable names.
    pub fn to_program_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        // Stages that are anchored render inside their parent.
        let anchored: Vec<&StageSym> = self
            .stages
            .iter()
            .filter(|s| s.compute_at.is_some())
            .collect();
        for stage in self.stages.iter().filter(|s| s.compute_at.is_none()) {
            self.render_stage(stage, &anchored, 0, &mut out);
            let _ = writeln!(out);
        }
        out
    }

    fn render_stage(
        &self,
        stage: &StageSym,
        anchored: &[&StageSym],
        indent: usize,
        out: &mut String,
    ) {
        use std::fmt::Write as _;
        let pad = |n: usize| "  ".repeat(n);
        let _ = writeln!(
            out,
            "{}// stage {} [{} {}→{}]",
            pad(indent),
            stage.name,
            stage.role,
            stage.src_scope,
            stage.dst_scope
        );
        let mut depth = indent;
        for l in &stage.loops {
            let mut suffix = String::new();
            if let Some(b) = l.bind {
                let _ = write!(suffix, " // @{b}");
            }
            if l.tensorized {
                suffix.push_str(" // tensorized");
            }
            let _ = writeln!(
                out,
                "{}for {} in 0..{} {{{}",
                pad(depth),
                l.name,
                l.name,
                suffix
            );
            depth += 1;
            // Children anchored at this loop (first candidate position).
            for child in anchored {
                if let Some((parent, loc_var, candidates)) = &child.compute_at {
                    if parent == &stage.name && candidates.first() == Some(&l.name) {
                        let _ = writeln!(
                            out,
                            "{}// compute_at location tunable: {loc_var} in 0..{}",
                            pad(depth),
                            candidates.len()
                        );
                        self.render_stage(child, &[], depth, out);
                    }
                }
            }
        }
        let _ = writeln!(out, "{}{}(...)", pad(depth), stage.name.replace('.', "_"));
        for d in (indent..depth).rev() {
            let _ = writeln!(out, "{}}}", pad(d));
        }
    }
}

impl fmt::Display for ScheduleState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "schedule template ({} primitives):", self.template.len())?;
        for p in &self.template {
            writeln!(f, "  {p}")?;
        }
        writeln!(f, "stages:")?;
        for s in &self.stages {
            write!(
                f,
                "  {} [{} {}→{}]:",
                s.name, s.role, s.src_scope, s.dst_scope
            )?;
            for l in &s.loops {
                write!(f, " {}", l.name)?;
                if let Some(b) = l.bind {
                    write!(f, "@{b}")?;
                }
                if l.tensorized {
                    write!(f, "*")?;
                }
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gemm_state() -> ScheduleState {
        let mut st = ScheduleState::new();
        st.add_stage(
            "C",
            StageRole::Compute,
            MemScope::Global,
            MemScope::Global,
            DType::F16,
            vec![
                LoopSym::new("C.i", IterKind::Spatial, "i"),
                LoopSym::new("C.j", IterKind::Spatial, "j"),
                LoopSym::new("C.r", IterKind::Reduce, "r"),
            ],
        );
        st
    }

    #[test]
    fn split_replaces_loop_in_place() {
        let mut st = gemm_state();
        st.split("C", "C.i", &["C.i0", "C.i1", "C.i2"]);
        let loops: Vec<&str> = st
            .stage("C")
            .expect("exists")
            .loops
            .iter()
            .map(|l| l.name.as_str())
            .collect();
        assert_eq!(loops, vec!["C.i0", "C.i1", "C.i2", "C.j", "C.r"]);
        assert_eq!(st.template().len(), 1);
        // Split parts inherit the origin axis of the loop they replace.
        assert!(st
            .stage("C")
            .expect("exists")
            .loops
            .iter()
            .filter(|l| l.name.starts_with("C.i"))
            .all(|l| l.origin == "i"));
    }

    #[test]
    fn fuse_requires_adjacency() {
        let mut st = gemm_state();
        st.fuse("C", &["C.i", "C.j"], "C.ij");
        let loops: Vec<&str> = st
            .stage("C")
            .expect("exists")
            .loops
            .iter()
            .map(|l| l.name.as_str())
            .collect();
        assert_eq!(loops, vec!["C.ij", "C.r"]);
    }

    #[test]
    #[should_panic(expected = "adjacent")]
    fn fuse_non_adjacent_panics() {
        let mut st = gemm_state();
        st.fuse("C", &["C.i", "C.r"], "C.ir");
    }

    #[test]
    #[should_panic(expected = "spatial with reduce")]
    fn fuse_mixed_kinds_panics() {
        let mut st = gemm_state();
        st.reorder("C", &["C.j", "C.r", "C.i"]);
        st.fuse("C", &["C.r", "C.i"], "C.ri");
    }

    #[test]
    fn reorder_permutes() {
        let mut st = gemm_state();
        st.reorder("C", &["C.r", "C.i", "C.j"]);
        let loops: Vec<&str> = st
            .stage("C")
            .expect("exists")
            .loops
            .iter()
            .map(|l| l.name.as_str())
            .collect();
        assert_eq!(loops, vec!["C.r", "C.i", "C.j"]);
    }

    #[test]
    fn bind_marks_loop() {
        let mut st = gemm_state();
        st.split("C", "C.i", &["C.i0", "C.i1"]);
        st.bind("C", "C.i0", ThreadAxis::BlockX);
        let l = &st.stage("C").expect("exists").loops[0];
        assert_eq!(l.bind, Some(ThreadAxis::BlockX));
    }

    #[test]
    #[should_panic(expected = "already bound")]
    fn double_bind_panics() {
        let mut st = gemm_state();
        st.bind("C", "C.i", ThreadAxis::BlockX);
        st.bind("C", "C.i", ThreadAxis::BlockY);
    }

    #[test]
    fn tensorize_marks_and_records() {
        let mut st = gemm_state();
        st.split("C", "C.i", &["C.i0", "C.i1"]);
        st.split("C", "C.j", &["C.j0", "C.j1"]);
        st.split("C", "C.r", &["C.r0", "C.r1"]);
        st.reorder("C", &["C.i0", "C.j0", "C.r0", "C.i1", "C.j1", "C.r1"]);
        st.tensorize("C", &["C.i1", "C.j1", "C.r1"], "m", "n", "k");
        let s = st.stage("C").expect("exists");
        assert_eq!(s.tensorize, Some(("m".into(), "n".into(), "k".into())));
        assert!(s.loops.iter().filter(|l| l.tensorized).count() == 3);
    }

    #[test]
    fn compute_at_validates_candidates() {
        let mut st = gemm_state();
        st.split("C", "C.r", &["C.r0", "C.r1"]);
        st.add_stage(
            "A.shared",
            StageRole::Load,
            MemScope::Global,
            MemScope::Shared,
            DType::F16,
            vec![LoopSym::new("A.shared.x", IterKind::Spatial, "x")],
        );
        st.compute_at("A.shared", "C", "loc.A.shared", &["C.r0", "C.r1"]);
        let s = st.stage("A.shared").expect("exists");
        assert!(s.compute_at.is_some());
    }

    #[test]
    #[should_panic(expected = "has no loop")]
    fn compute_at_unknown_candidate_panics() {
        let mut st = gemm_state();
        st.add_stage(
            "A.shared",
            StageRole::Load,
            MemScope::Global,
            MemScope::Shared,
            DType::F16,
            vec![],
        );
        st.compute_at("A.shared", "C", "loc", &["C.zzz"]);
    }

    #[test]
    fn program_text_nests_anchored_stages() {
        let mut st = gemm_state();
        st.split("C", "C.r", &["C.r0", "C.r1"]);
        st.add_stage(
            "A.shared",
            StageRole::Load,
            MemScope::Global,
            MemScope::Shared,
            DType::F16,
            vec![LoopSym::new("A.shared.x", IterKind::Spatial, "x")],
        );
        st.compute_at("A.shared", "C", "loc.A", &["C.r0", "C.r1"]);
        let text = st.to_program_text();
        assert!(text.contains("compute_at location tunable: loc.A"));
        // The anchored stage appears after (inside) the parent's r0 loop.
        let r0_pos = text.find("for C.r0").expect("r0 loop present");
        let child_pos = text.find("stage A.shared").expect("child present");
        assert!(
            child_pos > r0_pos,
            "anchored stage must render inside the parent"
        );
        assert_eq!(text.matches('{').count(), text.matches('}').count());
    }

    #[test]
    fn display_renders_template_and_stages() {
        let mut st = gemm_state();
        st.split("C", "C.i", &["C.i0", "C.i1"]);
        st.bind("C", "C.i0", ThreadAxis::BlockX);
        let text = st.to_string();
        assert!(text.contains("C.split"));
        assert!(text.contains("@blockIdx.x"));
    }
}

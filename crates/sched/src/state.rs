//! Symbolic schedule state: stages and loop structure under transformation.
//!
//! The state is the "current program" `S` of the paper's generation rules.
//! All loop extents are names of CSP variables; applying a primitive both
//! rewrites the loop structure and appends the primitive to the growing
//! schedule template.
//!
//! The template is the state's only output, so the state keeps nothing the
//! template already says. Stage and loop names live back to back in one
//! string (a [`SymName`] is a span of it), a split part inherits its loop's
//! origin by copying a span, every stage's nest is a run of one loop list,
//! and the attachments of a stage — its `compute_at` anchor, intrinsic,
//! vector, unroll and padding variables — are read off the template's
//! primitives. Building a nest allocates nothing per stage or per name.

use std::fmt::{self, Write as _};

use heron_tensor::{DType, IterKind};

use crate::primitive::Primitive;
use crate::scope::{MemScope, StageRole, ThreadAxis};

/// A stage or loop name held by a [`ScheduleState`]; read it with
/// [`ScheduleState::name`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SymName {
    start: u32,
    end: u32,
}

/// One symbolic loop: its extent is the CSP variable `name`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoopSym {
    /// CSP variable carrying the loop extent (also the loop's identity).
    pub name: SymName,
    /// Spatial or reduction loop.
    pub kind: IterKind,
    /// Name of the original compute axis this loop descends from.
    pub origin: SymName,
    /// Hardware binding, if any.
    pub bind: Option<ThreadAxis>,
    /// Whether the loop was consumed by a `tensorize`.
    pub tensorized: bool,
}

/// A stage in the symbolic schedule; its loops are
/// [`ScheduleState::nest`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageSym {
    /// Stage name (`C.wmma`, `A.shared`, …).
    pub name: SymName,
    /// Load / compute / store.
    pub role: StageRole,
    /// Scope data is read from.
    pub src_scope: MemScope,
    /// Scope data is written to.
    pub dst_scope: MemScope,
    /// Element type handled by the stage.
    pub dtype: DType,
    /// Its nest, `loops[start..start + len]` of the state.
    start: u32,
    len: u32,
}

/// The evolving symbolic schedule (paper's state `S`).
#[derive(Debug, Clone, Default)]
pub struct ScheduleState {
    stages: Vec<StageSym>,
    /// Every stage's nest, outermost loop first, one stage after another
    /// in stage order.
    loops: Vec<LoopSym>,
    /// Every stage and loop name, back to back.
    names: String,
    template: Vec<Primitive>,
}

impl ScheduleState {
    /// Creates an empty state.
    pub fn new() -> Self {
        ScheduleState::default()
    }

    /// An empty state with room for `stages` stages, `loops` loops,
    /// `primitives` primitives and `name_bytes` bytes of stage and loop
    /// names.
    pub fn with_capacity(
        stages: usize,
        loops: usize,
        primitives: usize,
        name_bytes: usize,
    ) -> Self {
        ScheduleState {
            stages: Vec::with_capacity(stages),
            loops: Vec::with_capacity(loops),
            names: String::with_capacity(name_bytes),
            template: Vec::with_capacity(primitives),
        }
    }

    /// The text of `name`.
    pub fn name(&self, name: SymName) -> &str {
        &self.names[name.start as usize..name.end as usize]
    }

    /// Stores the concatenation of `parts` and returns its name.
    fn intern(names: &mut String, parts: &[&str]) -> SymName {
        let start = names.len() as u32;
        for p in parts {
            names.push_str(p);
        }
        SymName {
            start,
            end: names.len() as u32,
        }
    }

    /// Adds a fresh stage with no loops (see [`ScheduleState::push_loop`]).
    ///
    /// # Panics
    /// Panics on duplicate stage names.
    pub fn add_stage(
        &mut self,
        name: &str,
        role: StageRole,
        src_scope: MemScope,
        dst_scope: MemScope,
        dtype: DType,
    ) {
        assert!(self.stage(name).is_none(), "duplicate stage `{name}`");
        let name = Self::intern(&mut self.names, &[name]);
        self.stages.push(StageSym {
            name,
            role,
            src_scope,
            dst_scope,
            dtype,
            start: self.loops.len() as u32,
            len: 0,
        });
    }

    /// The loops of `stage`, outermost first.
    pub fn nest(&self, stage: &StageSym) -> &[LoopSym] {
        &self.loops[stage.start as usize..(stage.start + stage.len) as usize]
    }

    /// Inserts `new` loops into the nest of stage `si` at position `at` of
    /// the loop list, moving the nests of the stages after it.
    fn grow_nest(&mut self, si: usize, at: usize, new: impl ExactSizeIterator<Item = LoopSym>) {
        let n = new.len() as u32;
        self.loops.splice(at..at, new);
        self.stages[si].len += n;
        for st in &mut self.stages[si + 1..] {
            st.start += n;
        }
    }

    /// Removes the loops `range` of the loop list from the nest of stage
    /// `si`, moving the nests of the stages after it.
    fn shrink_nest(&mut self, si: usize, range: std::ops::Range<usize>) {
        let n = range.len() as u32;
        self.loops.drain(range);
        self.stages[si].len -= n;
        for st in &mut self.stages[si + 1..] {
            st.start -= n;
        }
    }

    /// Appends an unbound serial loop, named by the concatenation of
    /// `name` (so a caller need not build the string) and descending from
    /// the compute axis `origin`, as the innermost loop of `stage`.
    ///
    /// # Panics
    /// Panics if the stage is unknown.
    pub fn push_loop(&mut self, stage: &str, name: &[&str], kind: IterKind, origin: &str) {
        let si = self.stage_index(stage);
        let name = Self::intern(&mut self.names, name);
        let origin = Self::intern(&mut self.names, &[origin]);
        let end = (self.stages[si].start + self.stages[si].len) as usize;
        let new = LoopSym {
            name,
            kind,
            origin,
            bind: None,
            tensorized: false,
        };
        self.grow_nest(si, end, std::iter::once(new));
    }

    /// Adds a cache-read stage (Rules S2/S3), with no loops, and records
    /// the primitive.
    pub fn cache_read(
        &mut self,
        tensor: &str,
        scope: MemScope,
        new_stage: &str,
        src_scope: MemScope,
        dtype: DType,
    ) {
        self.add_stage(new_stage, StageRole::Load, src_scope, scope, dtype);
        self.template.push(Primitive::CacheRead {
            tensor: tensor.into(),
            scope,
            new_stage: new_stage.into(),
        });
    }

    /// Adds a cache-write stage (Rule S3), with no loops, and records the
    /// primitive.
    pub fn cache_write(
        &mut self,
        tensor: &str,
        scope: MemScope,
        new_stage: &str,
        dst_scope: MemScope,
        dtype: DType,
    ) {
        self.add_stage(new_stage, StageRole::Store, scope, dst_scope, dtype);
        self.template.push(Primitive::CacheWrite {
            tensor: tensor.into(),
            scope,
            new_stage: new_stage.into(),
        });
    }

    /// Stage lookup.
    pub fn stage(&self, name: &str) -> Option<&StageSym> {
        self.stages.iter().find(|s| self.name(s.name) == name)
    }

    fn stage_index(&self, name: &str) -> usize {
        self.stages
            .iter()
            .position(|s| self.name(s.name) == name)
            .unwrap_or_else(|| panic!("unknown stage `{name}`"))
    }

    /// The position of `loop_name` in the loop list, if `stage` has it.
    fn loop_index(&self, stage: &StageSym, loop_name: &str) -> Option<usize> {
        let at = self
            .nest(stage)
            .iter()
            .position(|l| self.name(l.name) == loop_name)?;
        Some(stage.start as usize + at)
    }

    /// The stage index of `stage` and the position of its `loop_name` in
    /// the loop list.
    ///
    /// # Panics
    /// Panics if the stage or loop is unknown.
    fn find_loop(&self, stage: &str, loop_name: &str) -> (usize, usize) {
        let si = self.stage_index(stage);
        let li = self
            .loop_index(&self.stages[si], loop_name)
            .unwrap_or_else(|| panic!("stage `{stage}` has no loop `{loop_name}`"));
        (si, li)
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

    /// Where `stage` is anchored: `(parent, location variable, candidate
    /// loops)` of its latest `compute_at`.
    fn anchor(&self, stage: &str) -> Option<(&str, &str, &[String])> {
        self.template.iter().rev().find_map(|p| match p {
            Primitive::ComputeAt {
                stage: s,
                parent,
                location_var,
                candidates,
            } if s == stage => Some((parent.as_str(), location_var.as_str(), &candidates[..])),
            _ => None,
        })
    }

    /// Splits `loop_name` of `stage` into `parts` (outermost first),
    /// replacing it in place.
    ///
    /// # Panics
    /// Panics if the stage or loop is unknown, or `parts.len() < 2`.
    pub fn split(&mut self, stage: &str, loop_name: &str, parts: &[&str]) {
        assert!(parts.len() >= 2, "split needs at least two parts");
        let (si, li) = self.find_loop(stage, loop_name);
        let old = self.loops[li];
        assert!(old.bind.is_none(), "cannot split a bound loop");
        // The parts' names, stored one after another from `at`.
        let mut at = self.names.len() as u32;
        for part in parts {
            self.names.push_str(part);
        }
        let mut new = parts.iter().map(|part| {
            let name = SymName {
                start: at,
                end: at + part.len() as u32,
            };
            at = name.end;
            LoopSym {
                name,
                kind: old.kind,
                origin: old.origin,
                bind: None,
                tensorized: false,
            }
        });
        self.loops[li] = new.next().expect("at least two parts");
        self.grow_nest(si, li + 1, new);
        self.template.push(Primitive::Split {
            stage: stage.into(),
            loop_name: loop_name.into(),
            parts: parts.iter().map(|p| (*p).to_string()).collect(),
        });
    }

    /// Fuses the (adjacent, in order) `loops` of `stage` into `fused`. The
    /// recorded primitive keeps the names it is given.
    ///
    /// # Panics
    /// Panics if the loops are not adjacent in the given order.
    pub fn fuse(&mut self, stage: &str, loops: Vec<String>, fused: String) {
        assert!(loops.len() >= 2, "fuse needs at least two loops");
        let (si, first) = self.find_loop(stage, &loops[0]);
        let nest = self.nest(&self.stages[si]);
        let first_in_nest = first - self.stages[si].start as usize;
        for (off, l) in loops.iter().enumerate() {
            assert_eq!(
                nest.get(first_in_nest + off).map(|x| self.name(x.name)),
                Some(l.as_str()),
                "loops must be adjacent and in order to fuse"
            );
        }
        let head = self.loops[first];
        for l in &self.loops[first..first + loops.len()] {
            assert_eq!(l.kind, head.kind, "cannot fuse spatial with reduce loops");
        }
        let name = Self::intern(&mut self.names, &[&fused]);
        self.loops[first] = LoopSym {
            name,
            kind: head.kind,
            origin: head.origin,
            bind: None,
            tensorized: false,
        };
        self.shrink_nest(si, first + 1..first + loops.len());
        self.template.push(Primitive::Fuse {
            stage: stage.into(),
            loops,
            fused,
        });
    }

    /// Reorders the loops of `stage` to the permutation `order`.
    ///
    /// # Panics
    /// Panics unless `order` is a permutation of the current loops.
    pub fn reorder(&mut self, stage: &str, order: &[&str]) {
        let si = self.stage_index(stage);
        let st = &self.stages[si];
        assert_eq!(order.len(), st.len as usize, "reorder must list every loop");
        for name in order {
            if self.loop_index(st, name).is_none() {
                panic!("stage `{stage}` has no loop `{name}`");
            }
        }
        assert!(
            (1..order.len()).all(|i| !order[..i].contains(&order[i])),
            "reorder contains duplicates"
        );
        // `order` names every loop once, so each loop sorts to its place.
        let span = st.start as usize..(st.start + st.len) as usize;
        let ScheduleState { loops, names, .. } = self;
        let position = |l: &LoopSym| {
            let name = &names[l.name.start as usize..l.name.end as usize];
            order.iter().position(|o| *o == name)
        };
        loops[span].sort_unstable_by_key(position);
        self.template.push(Primitive::Reorder {
            stage: stage.into(),
            order: order.iter().map(|o| (*o).to_string()).collect(),
        });
    }

    /// Binds a loop to a thread axis.
    pub fn bind(&mut self, stage: &str, loop_name: &str, axis: ThreadAxis) {
        let (_, li) = self.find_loop(stage, loop_name);
        let l = &mut self.loops[li];
        assert!(l.bind.is_none(), "loop `{loop_name}` already bound");
        l.bind = Some(axis);
        self.template.push(Primitive::Bind {
            stage: stage.into(),
            loop_name: loop_name.into(),
            axis,
        });
    }

    /// Tensorizes the innermost loops of `stage` with intrinsic shape
    /// variables `(m, n, k)`; marks the loops named by those variables.
    pub fn tensorize(&mut self, stage: &str, loops: &[&str], m: &str, n: &str, k: &str) {
        self.stage_index(stage);
        for l in loops {
            let (_, li) = self.find_loop(stage, l);
            self.loops[li].tensorized = true;
        }
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
        let p = self
            .stage(parent)
            .unwrap_or_else(|| panic!("unknown parent stage `{parent}`"));
        for c in candidates {
            assert!(
                self.loop_index(p, c).is_some(),
                "parent `{parent}` has no loop `{c}`"
            );
        }
        self.stage_index(stage);
        self.template.push(Primitive::ComputeAt {
            stage: stage.into(),
            parent: parent.into(),
            location_var: location_var.into(),
            candidates: candidates.iter().map(|c| (*c).to_string()).collect(),
        });
    }

    /// Attaches a tunable maximum-unroll variable to `stage`.
    pub fn unroll(&mut self, stage: &str, length_var: &str) {
        self.stage_index(stage);
        self.template.push(Primitive::Unroll {
            stage: stage.into(),
            length_var: length_var.into(),
        });
    }

    /// Attaches a tunable vector width to `stage`'s innermost loop.
    pub fn vectorize(&mut self, stage: &str, length_var: &str) {
        self.stage_index(stage);
        self.template.push(Primitive::Vectorize {
            stage: stage.into(),
            length_var: length_var.into(),
        });
    }

    /// Attaches a tunable storage-align pad to `stage`'s buffer.
    pub fn storage_align(&mut self, stage: &str, pad_var: &str) {
        self.stage_index(stage);
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
        let mut out = String::new();
        // Stages that are anchored render inside their parent.
        for stage in &self.stages {
            if self.anchor(self.name(stage.name)).is_none() {
                self.render_stage(stage, true, 0, &mut out);
                let _ = writeln!(out);
            }
        }
        out
    }

    fn render_stage(&self, stage: &StageSym, children: bool, indent: usize, out: &mut String) {
        let pad = |n: usize| "  ".repeat(n);
        let name = self.name(stage.name);
        let _ = writeln!(
            out,
            "{}// stage {} [{} {}→{}]",
            pad(indent),
            name,
            stage.role,
            stage.src_scope,
            stage.dst_scope
        );
        let mut depth = indent;
        for l in self.nest(stage) {
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
                self.name(l.name),
                self.name(l.name),
                suffix
            );
            depth += 1;
            // Children anchored at this loop (first candidate position).
            if !children {
                continue;
            }
            for child in &self.stages {
                let Some((parent, loc_var, candidates)) = self.anchor(self.name(child.name)) else {
                    continue;
                };
                if parent == name
                    && candidates.first().map(String::as_str) == Some(self.name(l.name))
                {
                    let _ = writeln!(
                        out,
                        "{}// compute_at location tunable: {loc_var} in 0..{}",
                        pad(depth),
                        candidates.len()
                    );
                    self.render_stage(child, false, depth, out);
                }
            }
        }
        let _ = writeln!(out, "{}{}(...)", pad(depth), name.replace('.', "_"));
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
                self.name(s.name),
                s.role,
                s.src_scope,
                s.dst_scope
            )?;
            for l in self.nest(s) {
                write!(f, " {}", self.name(l.name))?;
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
        );
        st.push_loop("C", &["C.i"], IterKind::Spatial, "i");
        st.push_loop("C", &["C.j"], IterKind::Spatial, "j");
        st.push_loop("C", &["C.r"], IterKind::Reduce, "r");
        st
    }

    fn names(loops: &[&str]) -> Vec<String> {
        loops.iter().map(|l| l.to_string()).collect()
    }

    /// The loop names of `stage`, outermost first.
    fn loop_names<'a>(st: &'a ScheduleState, stage: &str) -> Vec<&'a str> {
        st.nest(st.stage(stage).expect("exists"))
            .iter()
            .map(|l| st.name(l.name))
            .collect()
    }

    #[test]
    fn split_replaces_loop_in_place() {
        let mut st = gemm_state();
        st.split("C", "C.i", &["C.i0", "C.i1", "C.i2"]);
        assert_eq!(
            loop_names(&st, "C"),
            vec!["C.i0", "C.i1", "C.i2", "C.j", "C.r"]
        );
        assert_eq!(st.template().len(), 1);
        // Split parts inherit the origin axis of the loop they replace.
        assert!(st
            .nest(st.stage("C").expect("exists"))
            .iter()
            .filter(|l| st.name(l.name).starts_with("C.i"))
            .all(|l| st.name(l.origin) == "i"));
    }

    #[test]
    fn fuse_requires_adjacency() {
        let mut st = gemm_state();
        st.fuse("C", names(&["C.i", "C.j"]), "C.ij".into());
        assert_eq!(loop_names(&st, "C"), vec!["C.ij", "C.r"]);
    }

    #[test]
    #[should_panic(expected = "adjacent")]
    fn fuse_non_adjacent_panics() {
        let mut st = gemm_state();
        st.fuse("C", names(&["C.i", "C.r"]), "C.ir".into());
    }

    #[test]
    #[should_panic(expected = "spatial with reduce")]
    fn fuse_mixed_kinds_panics() {
        let mut st = gemm_state();
        st.reorder("C", &["C.j", "C.r", "C.i"]);
        st.fuse("C", names(&["C.r", "C.i"]), "C.ri".into());
    }

    #[test]
    fn reorder_permutes() {
        let mut st = gemm_state();
        st.reorder("C", &["C.r", "C.i", "C.j"]);
        assert_eq!(loop_names(&st, "C"), vec!["C.r", "C.i", "C.j"]);
    }

    #[test]
    fn bind_marks_loop() {
        let mut st = gemm_state();
        st.split("C", "C.i", &["C.i0", "C.i1"]);
        st.bind("C", "C.i0", ThreadAxis::BlockX);
        let l = &st.nest(st.stage("C").expect("exists"))[0];
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
        assert!(matches!(
            st.template().last(),
            Some(Primitive::Tensorize { stage, m, n, k }) if stage == "C" && m == "m" && n == "n" && k == "k"
        ));
        assert!(st.nest(s).iter().filter(|l| l.tensorized).count() == 3);
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
        );
        st.push_loop("A.shared", &["A.shared.x"], IterKind::Spatial, "x");
        st.compute_at("A.shared", "C", "loc.A.shared", &["C.r0", "C.r1"]);
        assert_eq!(
            st.anchor("A.shared"),
            Some((
                "C",
                "loc.A.shared",
                &["C.r0".to_string(), "C.r1".to_string()][..]
            ))
        );
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
        );
        st.push_loop("A.shared", &["A.shared.x"], IterKind::Spatial, "x");
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

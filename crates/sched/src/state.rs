//! The schedule template as the generation rules record it.
//!
//! The state is the "current program" `S` of the paper's generation rules,
//! kept as what it outputs: the list of [`Primitive`]s applied so far, in
//! order. All loop extents are names of CSP variables. The stages the
//! template describes are the [`crate::template::StageSpec`]s lowering
//! reads; the state holds nothing but the list.

use crate::primitive::Primitive;
use crate::scope::{MemScope, ThreadAxis};

/// The evolving schedule template (paper's state `S`): each method appends
/// one primitive.
#[derive(Debug, Clone, Default)]
pub struct ScheduleState {
    template: Vec<Primitive>,
}

/// Owned copies of `names`.
fn owned(names: &[&str]) -> Vec<String> {
    names.iter().map(|n| (*n).to_string()).collect()
}

impl ScheduleState {
    /// Creates an empty state.
    pub fn new() -> Self {
        ScheduleState::default()
    }

    /// An empty state with room for `primitives` primitives.
    pub fn with_capacity(primitives: usize) -> Self {
        ScheduleState {
            template: Vec::with_capacity(primitives),
        }
    }

    /// The accumulated schedule template.
    pub fn template(&self) -> &[Primitive] {
        &self.template
    }

    /// The accumulated schedule template, taken out of the finished state.
    pub fn into_template(self) -> Vec<Primitive> {
        self.template
    }

    /// Records a cache-read stage `new_stage` of `tensor` in `scope`
    /// (Rules S2/S3).
    pub fn cache_read(&mut self, tensor: &str, scope: MemScope, new_stage: &str) {
        self.template.push(Primitive::CacheRead {
            tensor: tensor.into(),
            scope,
            new_stage: new_stage.into(),
        });
    }

    /// Records a cache-write stage `new_stage` of `tensor` in `scope`
    /// (Rule S3).
    pub fn cache_write(&mut self, tensor: &str, scope: MemScope, new_stage: &str) {
        self.template.push(Primitive::CacheWrite {
            tensor: tensor.into(),
            scope,
            new_stage: new_stage.into(),
        });
    }

    /// Records the split of `loop_name` of `stage` into `parts`, outermost
    /// first.
    pub fn split(&mut self, stage: &str, loop_name: &str, parts: &[&str]) {
        self.template.push(Primitive::Split {
            stage: stage.into(),
            loop_name: loop_name.into(),
            parts: owned(parts),
        });
    }

    /// Records the fusion of the adjacent `loops` of `stage` into `fused`.
    pub fn fuse(&mut self, stage: &str, loops: Vec<String>, fused: String) {
        self.template.push(Primitive::Fuse {
            stage: stage.into(),
            loops,
            fused,
        });
    }

    /// Records the loop order `order` of `stage`, outermost first.
    pub fn reorder(&mut self, stage: &str, order: &[&str]) {
        self.template.push(Primitive::Reorder {
            stage: stage.into(),
            order: owned(order),
        });
    }

    /// Records the binding of a loop to a thread axis.
    pub fn bind(&mut self, stage: &str, loop_name: &str, axis: ThreadAxis) {
        self.template.push(Primitive::Bind {
            stage: stage.into(),
            loop_name: loop_name.into(),
            axis,
        });
    }

    /// Records the tensorization of `stage`'s innermost loops with
    /// intrinsic shape variables `(m, n, k)`.
    pub fn tensorize(&mut self, stage: &str, m: &str, n: &str, k: &str) {
        self.template.push(Primitive::Tensorize {
            stage: stage.into(),
            m: m.into(),
            n: n.into(),
            k: k.into(),
        });
    }

    /// Records the anchoring of `stage` inside `parent` at a position
    /// selected by `location_var` among `candidates` (loop names of the
    /// parent).
    pub fn compute_at(
        &mut self,
        stage: &str,
        parent: &str,
        location_var: &str,
        candidates: &[&str],
    ) {
        self.template.push(Primitive::ComputeAt {
            stage: stage.into(),
            parent: parent.into(),
            location_var: location_var.into(),
            candidates: owned(candidates),
        });
    }

    /// Records a tunable maximum-unroll variable of `stage`.
    pub fn unroll(&mut self, stage: &str, length_var: &str) {
        self.template.push(Primitive::Unroll {
            stage: stage.into(),
            length_var: length_var.into(),
        });
    }

    /// Records a tunable vector width of `stage`'s innermost loop.
    pub fn vectorize(&mut self, stage: &str, length_var: &str) {
        self.template.push(Primitive::Vectorize {
            stage: stage.into(),
            length_var: length_var.into(),
        });
    }

    /// Records a tunable storage-align pad of `stage`'s buffer.
    pub fn storage_align(&mut self, stage: &str, pad_var: &str) {
        self.template.push(Primitive::StorageAlign {
            stage: stage.into(),
            pad_var: pad_var.into(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_call_records_one_primitive_in_order() {
        let mut st = ScheduleState::new();
        st.split("C", "C.r", &["C.r0", "C.r1"]);
        st.fuse("C", vec!["C.i".into(), "C.j".into()], "C.ij".into());
        st.reorder("C", &["C.ij", "C.r0", "C.r1"]);
        st.bind("C", "C.ij", ThreadAxis::BlockX);
        st.compute_at("A.shared", "C", "loc.A.shared", &["C.r0", "C.r1"]);
        st.tensorize("C", "m", "n", "k");
        let s = |v: &str| v.to_string();
        assert_eq!(
            st.into_template(),
            vec![
                Primitive::Split {
                    stage: s("C"),
                    loop_name: s("C.r"),
                    parts: vec![s("C.r0"), s("C.r1")],
                },
                Primitive::Fuse {
                    stage: s("C"),
                    loops: vec![s("C.i"), s("C.j")],
                    fused: s("C.ij"),
                },
                Primitive::Reorder {
                    stage: s("C"),
                    order: vec![s("C.ij"), s("C.r0"), s("C.r1")],
                },
                Primitive::Bind {
                    stage: s("C"),
                    loop_name: s("C.ij"),
                    axis: ThreadAxis::BlockX,
                },
                Primitive::ComputeAt {
                    stage: s("A.shared"),
                    parent: s("C"),
                    location_var: s("loc.A.shared"),
                    candidates: vec![s("C.r0"), s("C.r1")],
                },
                Primitive::Tensorize {
                    stage: s("C"),
                    m: s("m"),
                    n: s("n"),
                    k: s("k"),
                },
            ]
        );
    }
}

//! The computation DAG: stages connected by tensor reads.

use std::collections::HashMap;
use std::fmt;

use crate::compute::{ComputeOp, Stage, StageKind};
use crate::tensor::Tensor;

/// Index of a stage within a [`Dag`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StageId(pub usize);

impl fmt::Display for StageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// A directed acyclic graph of tensor-computation stages.
///
/// Stages must be appended in a valid topological order (producers before
/// consumers), which all the builders in [`crate::ops`] do naturally.
#[derive(Debug, Clone, Default)]
pub struct Dag {
    stages: Vec<Stage>,
    by_name: HashMap<String, StageId>,
}

impl Dag {
    /// Creates an empty DAG.
    pub fn new() -> Self {
        Dag::default()
    }

    /// Adds an input placeholder stage.
    ///
    /// # Panics
    /// Panics if a stage of the same name already exists.
    pub fn placeholder(&mut self, tensor: Tensor) -> StageId {
        self.push(Stage {
            name: tensor.name.clone(),
            kind: StageKind::Placeholder(tensor),
        })
    }

    /// Adds a compute stage.
    ///
    /// # Panics
    /// Panics if the stage name collides or an input tensor is not defined
    /// by an earlier stage.
    pub fn compute(&mut self, op: ComputeOp) -> StageId {
        op.body.for_each_access(&mut |a| {
            assert!(
                self.by_name.contains_key(&a.tensor.name),
                "stage `{}` reads undefined tensor `{}`",
                op.output.name,
                a.tensor.name
            );
        });
        self.push(Stage {
            name: op.output.name.clone(),
            kind: StageKind::Compute(op),
        })
    }

    fn push(&mut self, stage: Stage) -> StageId {
        assert!(
            !self.by_name.contains_key(&stage.name),
            "duplicate stage name `{}`",
            stage.name
        );
        let id = StageId(self.stages.len());
        self.by_name.insert(stage.name.clone(), id);
        self.stages.push(stage);
        id
    }

    /// Number of stages (placeholders + computes).
    pub fn len(&self) -> usize {
        self.stages.len()
    }

    /// Whether the DAG has no stages.
    pub fn is_empty(&self) -> bool {
        self.stages.is_empty()
    }

    /// Stage lookup by id.
    ///
    /// # Panics
    /// Panics if the id is out of range.
    pub fn stage(&self, id: StageId) -> &Stage {
        &self.stages[id.0]
    }

    /// Stage lookup by name.
    pub fn stage_by_name(&self, name: &str) -> Option<(StageId, &Stage)> {
        self.by_name.get(name).map(|&id| (id, &self.stages[id.0]))
    }

    /// Iterator over `(id, stage)` pairs in insertion (topological) order.
    pub fn iter(&self) -> impl Iterator<Item = (StageId, &Stage)> {
        self.stages.iter().enumerate().map(|(i, s)| (StageId(i), s))
    }

    /// Iterator over compute stages only.
    pub fn compute_stages(&self) -> impl Iterator<Item = (StageId, &ComputeOp)> {
        self.iter()
            .filter_map(|(id, s)| s.compute().map(|op| (id, op)))
    }

    /// Producer stage ids for each input tensor of `id`, in the order of
    /// the tensors' names.
    pub fn producers(&self, id: StageId) -> Vec<StageId> {
        let mut ids = Vec::new();
        if let StageKind::Compute(op) = &self.stage(id).kind {
            op.body.for_each_access(&mut |a| {
                ids.push(
                    *self
                        .by_name
                        .get(&a.tensor.name)
                        .expect("validated at insert"),
                );
            });
        }
        ids.sort_unstable_by(|a, b| self.stages[a.0].name.cmp(&self.stages[b.0].name));
        ids.dedup();
        ids
    }

    /// Stage ids that read the tensor produced by `id`.
    pub fn consumers(&self, id: StageId) -> Vec<StageId> {
        let name = &self.stage(id).name;
        self.compute_stages()
            .filter(|(_, op)| op.reads(name))
            .map(|(cid, _)| cid)
            .collect()
    }

    /// The final output stage: the unique stage with no consumers, found
    /// in one pass over the reads.
    ///
    /// # Panics
    /// Panics if the DAG is empty or has multiple sink stages.
    pub fn output(&self) -> StageId {
        let mut read = vec![false; self.stages.len()];
        for (_, op) in self.compute_stages() {
            op.body
                .for_each_access(&mut |a| read[self.by_name[&a.tensor.name].0] = true);
        }
        let sinks = read.iter().filter(|&&r| !r).count();
        assert_eq!(
            sinks, 1,
            "DAG must have exactly one output stage, has {sinks}"
        );
        StageId(read.iter().position(|&r| !r).expect("one sink"))
    }

    /// Post-order traversal from the output stage (paper's
    /// `post_order_traverse`): children (producers) before parents, output
    /// stage last; the schedule generator pops from the back.
    pub fn post_order_traverse(&self) -> Vec<StageId> {
        let mut order = Vec::with_capacity(self.stages.len());
        let output = self.output();
        self.post_order_visit(output, &mut order);
        order
    }

    /// Appends the producers of `id` not yet in `order`, children first,
    /// then `id` itself (a DAG is small: `order` doubles as the visited
    /// set).
    fn post_order_visit(&self, id: StageId, order: &mut Vec<StageId>) {
        if order.contains(&id) {
            return;
        }
        // The producers in the order of their names (as
        // [`Dag::producers`] lists them), each picked as the least name
        // after the last one visited, so the walk collects nothing.
        if let StageKind::Compute(op) = &self.stage(id).kind {
            let mut last: Option<&str> = None;
            loop {
                let mut next: Option<&str> = None;
                op.body.for_each_access(&mut |a| {
                    let name = a.tensor.name.as_str();
                    if last.is_none_or(|l| name > l) && next.is_none_or(|n| name < n) {
                        next = Some(name);
                    }
                });
                let Some(name) = next else { break };
                self.post_order_visit(self.by_name[name], order);
                last = next;
            }
        }
        order.push(id);
    }

    /// Total arithmetic work of all compute stages.
    pub fn total_flops(&self) -> u64 {
        self.compute_stages().map(|(_, op)| op.flops()).sum()
    }
}

impl fmt::Display for Dag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (id, s) in self.iter() {
            match &s.kind {
                StageKind::Placeholder(t) => writeln!(f, "{id}: placeholder {t}")?,
                StageKind::Compute(op) => writeln!(f, "{id}: compute {op}")?,
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops;

    #[test]
    fn gemm_dag_shape() {
        let dag = ops::gemm(64, 64, 64);
        assert_eq!(dag.len(), 3); // A, B, C
        assert_eq!(dag.compute_stages().count(), 1);
        let out = dag.output();
        assert_eq!(dag.stage(out).name, "C");
        assert_eq!(dag.producers(out).len(), 2);
    }

    #[test]
    fn post_order_ends_at_output() {
        let dag = ops::conv2d(ops::Conv2dConfig::new(1, 56, 56, 64, 64, 3, 3, 1, 1));
        let order = dag.post_order_traverse();
        assert_eq!(order.len(), dag.len());
        let last = *order.last().expect("non-empty");
        assert_eq!(last, dag.output());
        // producers precede consumers
        for (pos, id) in order.iter().enumerate() {
            for p in dag.producers(*id) {
                let ppos = order.iter().position(|x| *x == p).expect("present");
                assert!(ppos < pos, "producer after consumer");
            }
        }
    }

    #[test]
    fn consumers_inverse_of_producers() {
        let dag = ops::gemm(16, 16, 16);
        let (a, _) = dag.stage_by_name("A").expect("A exists");
        let out = dag.output();
        assert_eq!(dag.consumers(a), vec![out]);
    }

    #[test]
    #[should_panic(expected = "undefined tensor")]
    fn reading_unknown_tensor_panics() {
        use crate::compute::ReduceKind;
        use crate::dtype::DType;
        use crate::expr::{IndexExpr, IterVar, ScalarExpr};
        let mut dag = Dag::new();
        let ghost = Tensor::new("ghost", vec![4], DType::F32);
        let c = Tensor::new("C", vec![4], DType::F32);
        let i = IterVar::spatial(0, "i", 4);
        let body = ScalarExpr::load(ghost, vec![IndexExpr::var(&i)]);
        dag.compute(ComputeOp::new(c, vec![i], vec![], body, ReduceKind::None));
    }
}

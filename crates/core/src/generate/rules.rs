//! Algorithm 1's rule engine: schedule generation rules with explicit
//! conditions, applied to DAG nodes in reverse topological order.
//!
//! The engine produces a [`RulePlan`]: which stages are inlined
//! (Always-Inline), whether the output is tensorized (Rule-S1), and which
//! cache levels/scopes the platform's SPM hierarchy injects (Rules S2/S3).
//! The platform space builders then materialise the plan — mirroring how
//! the paper's rules "apply" transformations returning a new program.

use heron_dla::{DlaFamily, DlaSpec};
use heron_sched::MemScope;
use heron_tensor::{Dag, StageId};

use super::axes::{mac_view, MacView};

/// One recorded rule application (for reporting and tests).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuleApplication<'a> {
    /// Rule identifier (`S1`, `S2`, `S3`, `Always-Inline`,
    /// `Multi-Level-Tiling`).
    pub rule: &'static str,
    /// Stage the rule fired on.
    pub stage: &'a str,
}

/// The outcome of running Algorithm 1's condition checks over a DAG, naming
/// the DAG's stages and axes.
#[derive(Debug, Clone, PartialEq)]
pub struct RulePlan<'a> {
    /// Stages fused into their consumers (padding stages, element-wise
    /// epilogues).
    pub inlined: Vec<&'a str>,
    /// The MAC view when Rule-S1's `Tensorizable` condition holds.
    pub mac: Option<MacView<'a>>,
    /// SPM scopes Rule-S2 (multi-level) injects cache stages for.
    pub cache_levels: Vec<MemScope>,
    /// SPM scopes Rule-S3 (multi-scope) injects cache stages for.
    pub cache_scopes: Vec<MemScope>,
    /// Every rule application in firing order.
    pub applications: Vec<RuleApplication<'a>>,
}

/// Runs the rule conditions of Algorithm 1 over `dag` for `spec`.
pub fn plan<'a>(dag: &'a Dag, spec: &DlaSpec, allow_tensorize: bool) -> RulePlan<'a> {
    let mut plan = RulePlan {
        inlined: Vec::new(),
        mac: None,
        cache_levels: Vec::new(),
        cache_scopes: Vec::new(),
        // Rule applications: Always-Inline per inlined stage, then at
        // most four on the output.
        applications: Vec::with_capacity(dag.len() + 4),
    };
    // Visit nodes output-first (pop from the back of the post-order list).
    let mut order: Vec<StageId> = dag.post_order_traverse();
    let output = *order.last().expect("the output is visited last");
    while let Some(id) = order.pop() {
        let stage = dag.stage(id);
        let Some(op) = stage.compute() else { continue };
        let is_output = id == output;

        // Rule Always-Inline: strictly inlinable non-output stages fuse
        // into their consumers (the padding stages of convolutions).
        if !is_output && op.is_strict_inlinable() {
            plan.inlined.push(&stage.name);
            plan.applications.push(RuleApplication {
                rule: "Always-Inline",
                stage: &stage.name,
            });
            continue;
        }
        if !is_output {
            continue;
        }

        // Rule-S1 Tensorize: the MAC pattern must match and the platform
        // must expose an intrinsic.
        if allow_tensorize && !spec.intrinsic_shapes.is_empty() {
            if let Some(view) = mac_view(dag, id) {
                plan.mac = Some(view);
                plan.applications.push(RuleApplication {
                    rule: "S1-Tensorize",
                    stage: &stage.name,
                });
            }
        }

        // Rules S2/S3 need data reuse.
        if op.has_data_reuse() {
            plan.applications.push(RuleApplication {
                rule: "Multi-Level-Tiling",
                stage: &stage.name,
            });
            match &spec.family {
                DlaFamily::Gpu(_) => {
                    // S2: two levels of SPM (shared memory + fragments).
                    plan.cache_levels.push(MemScope::Shared);
                    plan.applications.push(RuleApplication {
                        rule: "S2-MultiLevelSPM",
                        stage: &stage.name,
                    });
                    if plan.mac.is_some() {
                        // S3: distinct fragment scopes per operand.
                        plan.cache_scopes.push(MemScope::FragA);
                        plan.cache_scopes.push(MemScope::FragB);
                        plan.applications.push(RuleApplication {
                            rule: "S3-MultiScopeSPM",
                            stage: &stage.name,
                        });
                    }
                }
                DlaFamily::Cpu(_) => {
                    plan.cache_levels.push(MemScope::L2);
                    plan.cache_levels.push(MemScope::L1);
                    plan.applications.push(RuleApplication {
                        rule: "S2-MultiLevelSPM",
                        stage: &stage.name,
                    });
                }
                DlaFamily::Vta(_) => {
                    plan.cache_scopes.push(MemScope::VtaInput);
                    plan.cache_scopes.push(MemScope::VtaWeight);
                    plan.cache_scopes.push(MemScope::VtaAcc);
                    plan.applications.push(RuleApplication {
                        rule: "S3-MultiScopeSPM",
                        stage: &stage.name,
                    });
                }
            }
        }
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use heron_dla::{dlboost, v100, vta};
    use heron_tensor::ops;

    #[test]
    fn gemm_on_v100_fires_s1_s2_s3() {
        let dag = ops::gemm(512, 512, 512);
        let p = plan(&dag, &v100(), true);
        let rules: Vec<&str> = p.applications.iter().map(|a| a.rule).collect();
        assert!(rules.contains(&"S1-Tensorize"));
        assert!(rules.contains(&"S2-MultiLevelSPM"));
        assert!(rules.contains(&"S3-MultiScopeSPM"));
        assert!(p.mac.is_some());
        assert!(p.inlined.is_empty());
    }

    #[test]
    fn padded_conv_inlines_pad_stage() {
        let dag = ops::conv2d(ops::Conv2dConfig::new(1, 28, 28, 64, 64, 3, 3, 1, 1));
        let p = plan(&dag, &v100(), true);
        assert_eq!(p.inlined, vec!["pad"]);
        assert!(p.mac.is_some());
    }

    #[test]
    fn scan_is_not_tensorized_but_still_tiled() {
        let dag = ops::scan(16, 512);
        let p = plan(&dag, &v100(), true);
        assert!(p.mac.is_none());
        let rules: Vec<&str> = p.applications.iter().map(|a| a.rule).collect();
        assert!(rules.contains(&"Multi-Level-Tiling"));
    }

    #[test]
    fn tensorize_can_be_disabled_for_ansor() {
        let dag = ops::gemm(256, 256, 256);
        let p = plan(&dag, &v100(), false);
        assert!(p.mac.is_none());
        assert!(p.cache_scopes.is_empty());
    }

    #[test]
    fn cpu_plan_uses_cache_levels() {
        let dag = ops::gemm(256, 256, 256);
        let p = plan(&dag, &dlboost(), true);
        assert_eq!(p.cache_levels, vec![MemScope::L2, MemScope::L1]);
    }

    #[test]
    fn vta_plan_uses_three_scopes() {
        let dag = ops::gemm(256, 256, 256);
        let p = plan(&dag, &vta(), true);
        assert_eq!(
            p.cache_scopes,
            vec![MemScope::VtaInput, MemScope::VtaWeight, MemScope::VtaAcc]
        );
    }
}

//! Constrained space generation (the paper's Section 4).
//!
//! [`SpaceGenerator::generate`] runs Algorithm 1: the rule engine
//! ([`rules`]) decides which schedule generation rules fire on the compute
//! DAG; the platform builders ([`tensorcore`], [`dlboost`], [`vta`]) then
//! materialise the schedule template and post the Rule-C1…C6 constraints
//! through the [`builder::SpaceBuilder`], yielding `CSP_initial` plus a
//! symbolic kernel template.
//!
//! [`SpaceOptions`] selects which expressive features the space includes;
//! the non-default configurations model the paper's baselines (AutoTVM's
//! fixed manual template, Ansor's intrinsic-free auto-scheduling, AMOS's
//! mapping exploration without `storage_align`/location tuning).

pub mod axes;
pub mod builder;
pub mod dlboost;
pub mod rules;
pub mod tensorcore;
pub mod vta;

use std::fmt;
use std::sync::Arc;

use heron_csp::Csp;
use heron_dla::{DlaFamily, DlaSpec};
use heron_sched::KernelTemplate;
use heron_tensor::Dag;

/// Which features the generated space exposes — Heron's full space or one
/// of the baseline approximations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpaceOptions {
    /// Apply Rule-S1 (use the DLA intrinsic). Off for the Ansor baseline.
    pub tensorize: bool,
    /// Tune `storage_align` pads (GPU) / packed layouts (CPU).
    pub storage_align: bool,
    /// Tune compute_at locations with SELECT constraints (Rule-C4).
    pub tunable_locations: bool,
    /// Hard-code the intrinsic shape to 16×16×16 (AutoTVM-style template).
    pub fixed_intrinsic: bool,
    /// Restrict serial blocking levels (AutoTVM's fixed tiling structure).
    pub fixed_serial_level: bool,
    /// Post the architectural constraints (capacities, launch limits,
    /// alignment) into the CSP. Ansor/AMOS know these generic hardware
    /// parameters; AutoTVM's template relies on manual bounds instead and
    /// discovers violations only when measurement fails.
    pub arch_constraints: bool,
    /// Post the register/fragment budget constraints. AMOS's hardware
    /// abstraction does not model register pressure, so its mappings can
    /// fail at compile time — the invalid-trial source on TensorCore.
    pub register_constraints: bool,
    /// Apply AutoTVM-style conservative hand-written bounds on the tile
    /// factors (the "few simple constraints" of the paper's Figure 1a):
    /// they keep most samples valid but exclude many high-performance
    /// programs.
    pub manual_bounds: bool,
    /// Hand-chosen storage_align padding used when `storage_align` tuning
    /// is off: AutoTVM's manual template ships a fixed pad of 8 halves;
    /// AMOS cannot use the primitive at all (`None` = no padding).
    pub fixed_align_pad: Option<i64>,
}

impl SpaceOptions {
    /// Heron's full automatically-constrained space.
    pub fn heron() -> Self {
        SpaceOptions {
            tensorize: true,
            storage_align: true,
            tunable_locations: true,
            fixed_intrinsic: false,
            fixed_serial_level: false,
            arch_constraints: true,
            register_constraints: true,
            manual_bounds: false,
            fixed_align_pad: None,
        }
    }

    /// AutoTVM-like manual template: fixed intrinsic and tiling structure,
    /// conservative hand-written tile bounds instead of derived
    /// constraints, no storage_align/location tuning.
    pub fn autotvm() -> Self {
        SpaceOptions {
            tensorize: true,
            storage_align: false,
            tunable_locations: false,
            fixed_intrinsic: true,
            fixed_serial_level: true,
            arch_constraints: false,
            register_constraints: false,
            manual_bounds: true,
            fixed_align_pad: Some(8),
        }
    }

    /// Ansor-like auto-scheduling: generic GPU hardware parameters are
    /// respected but the DLA intrinsics are not usable.
    pub fn ansor() -> Self {
        SpaceOptions {
            tensorize: false,
            storage_align: false,
            tunable_locations: false,
            fixed_intrinsic: false,
            fixed_serial_level: false,
            arch_constraints: true,
            register_constraints: true,
            manual_bounds: false,
            fixed_align_pad: Some(2),
        }
    }

    /// AMOS-like mapping exploration: free intrinsic mapping with validated
    /// memory capacities, but no storage_align, fixed compute locations,
    /// and no register-pressure model.
    pub fn amos() -> Self {
        SpaceOptions {
            tensorize: true,
            storage_align: false,
            tunable_locations: false,
            fixed_intrinsic: false,
            fixed_serial_level: false,
            arch_constraints: true,
            register_constraints: false,
            manual_bounds: false,
            fixed_align_pad: None,
        }
    }
}

/// A generated constrained search space: `CSP_initial` plus the symbolic
/// kernel template it parameterises.
#[derive(Debug, Clone)]
pub struct GeneratedSpace {
    /// The constraint satisfaction problem (`CSP_initial`), shared with
    /// every [`heron_csp::SolveSession`] built on it.
    pub csp: Arc<Csp>,
    /// The symbolic kernel template for lowering.
    pub template: KernelTemplate,
    /// The target platform.
    pub dla: DlaSpec,
    /// Workload label.
    pub workload: String,
}

/// Errors from space generation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GenerateError {
    /// The platform requires tensorization but the compute has no MAC
    /// pattern (e.g. SCAN on VTA).
    NotTensorizable {
        /// Platform name.
        platform: String,
    },
}

impl fmt::Display for GenerateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GenerateError::NotTensorizable { platform } => {
                write!(f, "operator has no MAC pattern required by `{platform}`")
            }
        }
    }
}

impl std::error::Error for GenerateError {}

/// The space generator for one platform.
#[derive(Debug, Clone)]
pub struct SpaceGenerator {
    spec: DlaSpec,
}

impl SpaceGenerator {
    /// Creates a generator targeting `spec`.
    pub fn new(spec: DlaSpec) -> Self {
        SpaceGenerator { spec }
    }

    /// The target platform.
    pub fn spec(&self) -> &DlaSpec {
        &self.spec
    }

    /// Runs Algorithm 1 on `dag`, deriving a workload label from the DAG.
    ///
    /// # Errors
    /// Returns [`GenerateError`] when the platform cannot execute the
    /// operator at all.
    pub fn generate(
        &self,
        dag: &Dag,
        opts: &SpaceOptions,
    ) -> Result<GeneratedSpace, GenerateError> {
        let out = dag.stage(dag.output());
        let label = format!("{}{:?}", out.name, out.tensor().shape);
        self.generate_named(dag, opts, &label)
    }

    /// Runs Algorithm 1 with an explicit workload label.
    ///
    /// # Errors
    /// Returns [`GenerateError`] when the platform cannot execute the
    /// operator at all.
    pub fn generate_named(
        &self,
        dag: &Dag,
        opts: &SpaceOptions,
        workload: &str,
    ) -> Result<GeneratedSpace, GenerateError> {
        let plan = rules::plan(dag, &self.spec, opts.tensorize);
        match (&self.spec.family, &plan.mac) {
            (DlaFamily::Gpu(g), Some(view)) if opts.tensorize => Ok(tensorcore::build_tensorized(
                &self.spec, g, dag, view, opts, workload,
            )),
            (DlaFamily::Gpu(g), _) => {
                // Scalar CUDA path: Ansor baseline or non-tensorizable ops.
                let view = plan.mac.clone().or_else(|| fallback_view(dag));
                let view = view.expect("every operator has a fallback view");
                Ok(tensorcore::build_scalar(
                    &self.spec, g, dag, &view, opts, workload,
                ))
            }
            (DlaFamily::Cpu(c), Some(view)) if opts.tensorize => {
                Ok(dlboost::build(&self.spec, c, dag, view, opts, workload))
            }
            (DlaFamily::Cpu(c), _) => {
                let view = plan.mac.clone().or_else(|| fallback_view(dag));
                let view = view.expect("every operator has a fallback view");
                Ok(dlboost::build_scalar(
                    &self.spec, c, dag, &view, opts, workload,
                ))
            }
            (DlaFamily::Vta(v), Some(view)) => {
                Ok(vta::build(&self.spec, v, dag, view, opts, workload))
            }
            (DlaFamily::Vta(_), None) => Err(GenerateError::NotTensorizable {
                platform: self.spec.name.clone(),
            }),
        }
    }
}

/// Pseudo-MAC view for non-tensorizable operators: the last spatial axis
/// becomes N, the rest M, reductions K.
fn fallback_view(dag: &Dag) -> Option<axes::MacView<'_>> {
    let out = dag.output();
    let op = dag.stage(out).compute()?;
    let mut view = axes::MacView {
        stage: out,
        m_axes: Vec::new(),
        n_axes: Vec::new(),
        k_axes: Vec::new(),
        batch_axes: Vec::new(),
        m_extent: 1,
        n_extent: 1,
        k_extent: 1,
        batch_extent: 1,
        axis_extents: op.all_axes().map(|a| (a.name.as_str(), a.extent)).collect(),
    };
    let spatial = &op.axes;
    for (idx, a) in spatial.iter().enumerate() {
        if idx + 1 == spatial.len() && spatial.len() > 1 {
            view.n_axes.push(&a.name);
            view.n_extent *= a.extent;
        } else {
            view.m_axes.push(&a.name);
            view.m_extent *= a.extent;
        }
    }
    if view.n_axes.is_empty() {
        view.n_axes.push("one");
    }
    for a in &op.reduce_axes {
        view.k_axes.push(&a.name);
        view.k_extent *= a.extent;
    }
    if view.k_axes.is_empty() {
        view.k_axes.push("rk");
    }
    Some(view)
}

#[cfg(test)]
mod tests {
    use super::*;
    use heron_csp::SpaceCensus;
    use heron_dla::{dlboost, v100, vta};
    use heron_rng::HeronRng;
    use heron_sched::lower;
    use heron_tensor::ops;

    fn solve_and_lower(space: &GeneratedSpace, seed: u64) -> heron_sched::Kernel {
        let mut rng = HeronRng::from_seed(seed);
        let sols =
            heron_testkit::solve_once(&space.csp, &mut rng, 4, &heron_csp::SolvePolicy::default())
                .solutions;
        assert!(!sols.is_empty(), "space must be satisfiable");
        let sol = &sols[0];
        let csp = &space.csp;
        lower(&space.template, sol.fingerprint(), &|name| {
            sol.value_by_name(csp, name)
        })
        .expect("lowering must cover every referenced variable")
    }

    #[test]
    fn gemm_v100_space_solves_and_lowers() {
        let dag = ops::gemm(256, 256, 256);
        let space = SpaceGenerator::new(v100())
            .generate_named(&dag, &SpaceOptions::heron(), "gemm-256")
            .expect("generates");
        let k = solve_and_lower(&space, 1);
        assert!(k.grid >= 1);
        assert!(k.threads >= 1);
        assert!(k.tensorized_stage().is_some());
        // Every Heron solution passes the measurer's validation.
        let m = heron_dla::Measurer::new(v100());
        m.validate(&k)
            .expect("heron kernels are valid by construction");
    }

    #[test]
    fn gemm_census_magnitude_matches_table4() {
        let dag = ops::gemm(512, 512, 512);
        let space = SpaceGenerator::new(v100())
            .generate_named(&dag, &SpaceOptions::heron(), "gemm-512")
            .expect("generates");
        let c = SpaceCensus::of(&space.csp);
        // Paper Table 4/5: 173 variables, 372 constraints for GEMM. Ours
        // should be the same order of magnitude.
        assert!(c.total_vars() >= 60, "vars {}", c.total_vars());
        assert!(
            c.total_constraints() >= 60,
            "constraints {}",
            c.total_constraints()
        );
        assert!(c.tunable_vars >= 15, "tunables {}", c.tunable_vars);
    }

    #[test]
    fn conv2d_dlboost_space_solves() {
        let dag = ops::conv2d(
            ops::Conv2dConfig::new(1, 28, 28, 128, 128, 3, 3, 1, 1)
                .with_dtype(heron_tensor::DType::I8),
        );
        let space = SpaceGenerator::new(dlboost())
            .generate_named(&dag, &SpaceOptions::heron(), "c2d")
            .expect("generates");
        let k = solve_and_lower(&space, 2);
        let m = heron_dla::Measurer::new(dlboost());
        m.validate(&k).expect("valid");
        assert_eq!(
            k.tensorized_stage().and_then(|s| s.intrinsic),
            Some((1, 16, 4))
        );
    }

    #[test]
    fn gemm_vta_space_solves() {
        let dag = ops::gemm_dtyped(256, 256, 256, heron_tensor::DType::I8);
        let space = SpaceGenerator::new(vta())
            .generate_named(&dag, &SpaceOptions::heron(), "gemm-vta")
            .expect("generates");
        let k = solve_and_lower(&space, 3);
        let m = heron_dla::Measurer::new(vta());
        m.validate(&k).expect("valid");
    }

    #[test]
    fn scan_falls_back_to_scalar_gpu() {
        let dag = ops::scan(16, 512);
        let space = SpaceGenerator::new(v100())
            .generate_named(&dag, &SpaceOptions::heron(), "scan")
            .expect("generates");
        let k = solve_and_lower(&space, 4);
        assert!(k.tensorized_stage().is_none());
    }

    #[test]
    fn scan_on_vta_is_rejected() {
        let dag = ops::scan(4, 64);
        let err = SpaceGenerator::new(vta())
            .generate_named(&dag, &SpaceOptions::heron(), "scan")
            .expect_err("vta requires the GEMM intrinsic");
        assert!(matches!(err, GenerateError::NotTensorizable { .. }));
    }

    #[test]
    fn baseline_spaces_have_fewer_constraints() {
        let dag = ops::gemm(512, 512, 512);
        let heron = SpaceGenerator::new(v100())
            .generate_named(&dag, &SpaceOptions::heron(), "g")
            .expect("generates");
        let amos = SpaceGenerator::new(v100())
            .generate_named(&dag, &SpaceOptions::amos(), "g")
            .expect("generates");
        assert!(
            SpaceCensus::of(&amos.csp).total_constraints()
                < SpaceCensus::of(&heron.csp).total_constraints()
        );
    }

    fn invalid_fraction(space: &GeneratedSpace, n: usize, seed: u64) -> (usize, usize) {
        let mut rng = HeronRng::from_seed(seed);
        let sols =
            heron_testkit::solve_once(&space.csp, &mut rng, n, &heron_csp::SolvePolicy::default())
                .solutions;
        assert!(!sols.is_empty());
        let measurer = heron_dla::Measurer::new(space.dla.clone());
        let csp = &space.csp;
        let invalid = sols
            .iter()
            .filter(|s| {
                let k = lower(&space.template, s.fingerprint(), &|n| {
                    s.value_by_name(csp, n)
                })
                .expect("lowers");
                measurer.validate(&k).is_err()
            })
            .count();
        (invalid, sols.len())
    }

    #[test]
    fn baseline_spaces_contain_invalid_kernels_but_herons_does_not() {
        let dag = ops::gemm(1024, 1024, 1024);
        let gen = SpaceGenerator::new(v100());
        // AMOS: no register-pressure model => compile failures.
        let amos = gen
            .generate_named(&dag, &SpaceOptions::amos(), "g")
            .expect("generates");
        let (amos_bad, amos_n) = invalid_fraction(&amos, 40, 7);
        assert!(
            amos_bad > 0,
            "AMOS mappings should sometimes overflow registers"
        );
        assert!(amos_bad < amos_n, "AMOS still finds runnable mappings");
        // Heron: valid by construction.
        let heron = gen
            .generate_named(&dag, &SpaceOptions::heron(), "g")
            .expect("generates");
        let (heron_bad, _) = invalid_fraction(&heron, 40, 7);
        assert_eq!(heron_bad, 0, "Heron samples are valid by construction");
    }
}

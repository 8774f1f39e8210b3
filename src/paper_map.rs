//! Map from the paper's sections, algorithms, tables and figures to the
//! code that implements them — a reviewer's index.
//!
//! | Paper element | Implementation |
//! |---|---|
//! | §2.1 deep learning compilers (graph opts, tensor expressions) | [`heron_graph`] (fusion front end), [`heron_tensor`] (compute/DAG) |
//! | §2.2 schedule templates, Table 1 primitives | [`heron_sched::template::KernelTemplate`] (its `StageSpec`s drive lowering; its primitives, each a [`heron_sched::primitive::Primitive`] recorded through [`heron_sched::state::ScheduleState`], are what `heron_cli census` prints) |
//! | §2.2 Ansor derivation rules (Table 2) | [`heron_core::generate::rules`] (`Always-Inline`, `Multi-Level-Tiling`, cache-stage conditions) |
//! | §2.3 genetic algorithm background | [`heron_core::explore::classic::GaExplorer`] (population 20, 30 % of offspring mutated), roulette-wheel selection in [`heron_core::explore::roulette_wheel`] |
//! | §2.4 Observation 1 (Table 3 constraints) | [`heron_dla::platforms`] (machine-readable per-DLA constraint sets) |
//! | §2.4 Observation 2 (Tables 4–5 census) | [`heron_csp::stats::SpaceCensus`], `table04_05_space_census` binary |
//! | §2.4 Observation 3 / Figure 2 | [`heron_core::explore::classic`] (`RAND`/`SA`/`GA`), `fig02_irregular_space` binary |
//! | §3 system overview (Figure 3) | Space Generator = [`heron_core::generate`]; Space Explorer = [`heron_core::explore`]; DLA Measurer = [`heron_dla::Measurer`]; Cost Model = [`heron_core::model::CostModel`] over [`heron_cost::Gbdt`] |
//! | §4 Algorithm 1 (constrained space generation) | [`heron_core::generate::SpaceGenerator::generate`], rule engine in [`heron_core::generate::rules::plan`] |
//! | §4 schedule rules S1–S3 (Table 6) | Tensorize/SPM handling inside [`heron_core::generate::tensorcore`], [`heron_core::generate::dlboost`], [`heron_core::generate::vta`] |
//! | §4 constraint types T1–T6 (Table 7) | [`heron_csp::constraint::Constraint`] |
//! | §4 constraint rules C1–C6 (Table 8) | [`heron_core::generate::builder::SpaceBuilder`] (`tile_split`, `candidates`, `select`, `mem_limit`, platform-specific rules); C2 `AddLoopFuse` is posted by `heron_core::generate::tensorcore::fuse_mac_axes` |
//! | §4 Figure 4 example | `examples/inspect_space.rs`, `heron_cli census` |
//! | §4 customization | `examples/custom_dla.rs` (new accelerator from a spec) |
//! | §5 Algorithm 2 (CGA-based exploration) | [`heron_core::tuner::Tuner::run`]; Steps 1–2 in [`heron_core::explore::cga::evolve_population`] |
//! | §5 Algorithm 3 (constraint-based crossover/mutation) | [`heron_core::explore::cga::offspring_pins`], materialised by [`heron_core::explore::cga::materialize_offspring`] |
//! | §5 CSP solver (RandSAT) | [`heron_csp::SolveSession`] ([`solve`][heron_csp::SolveSession::solve], [`solve_pinned`][heron_csp::SolveSession::solve_pinned]) |
//! | §5 key-variable extraction | [`heron_core::model::CostModel::key_variables`] via [`heron_cost::Gbdt::top_features`] |
//! | §5 Figure 5 example | unit tests in [`heron_core::explore::cga`] |
//! | §6 platforms | [`heron_dla::v100`], [`heron_dla::t4`], [`heron_dla::a100`], [`heron_dla::dlboost`], [`heron_dla::vta`] |
//! | §6 benchmarks | [`heron_workloads`] (operator suites, Table 9, networks) |
//! | §6 baselines | [`heron_baselines`] (AutoTVM/Ansor/AMOS/AKG models, vendor libraries) |
//! | §7.1 Figures 6–9 | `fig06_tensorcore_ops`, `fig07_t4_a100`, `fig08_dlboost_ops`, `fig09_vta_ops` binaries |
//! | §7.2 Figure 10 | `fig10_networks` binary, [`heron_graph::compile()`][heron_graph::compile()] for the fused-model path |
//! | §7.3 Figure 11 | `fig11_space_quality` binary |
//! | §7.4 Figures 12–13 | `fig12_cga_convergence`, `fig13_constraint_handling` binaries; variants in [`heron_core::explore::variants`] |
//! | §7.5 Table 10 / Figure 14 | `table10_fig14_compile_time` binary, [`heron_core::tuner::TuneTiming`] |
//! | library generation (title!) | [`heron_core::library::KernelLibrary`], `examples/generate_library.rs` |
//!
//! Every referenced binary lives in `crates/bench/src/bin/` and prints TSV;
//! `EXPERIMENTS.md` records paper-vs-measured numbers for each.

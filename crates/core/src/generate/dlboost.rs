//! Constrained-space construction for DL Boost (VNNI) CPUs.
//!
//! The template parallelises outer tiles across cores, stages packed
//! operand panels through L2 and L1 (with Rule-C5 capacity constraints on
//! both), fixes the innermost tiles to the VNNI `(1, 16, 4)` intrinsic, and
//! exposes the two knobs the paper highlights for this platform: tunable
//! compute locations for the packing stages (SELECT constraints that AMOS
//! cannot express) and a cache-friendly weight-layout choice worth ~30%.

use heron_dla::{CpuParams, DlaSpec};
use heron_sched::template::{IntrinsicRef, KernelTemplate, StageSpec};
use heron_sched::{MemScope, StageRole, ThreadAxis};
use heron_tensor::{DType, Dag};

use super::axes::MacView;
use super::builder::SpaceBuilder;
use super::tensorcore::fuse_mac_axes;
use super::{GeneratedSpace, SpaceOptions};

/// Builds the VNNI-tensorized CPU space.
pub fn build(
    spec: &DlaSpec,
    cpu: &CpuParams,
    dag: &Dag,
    view: &MacView<'_>,
    opts: &SpaceOptions,
    workload: &str,
) -> GeneratedSpace {
    let mut b = SpaceBuilder::new();
    let (im, inn, ik) = spec.intrinsic_shapes[0];
    let m = b.arch_const("m", im);
    let n = b.arch_const("n", inn);
    let k = b.arch_const("k", ik);

    let fused = fuse_mac_axes(&mut b, view, "C.wmma", im, inn, ik);
    let tc = "C.wmma";

    let i = b.tile_split(tc, "C.wmma.M", fused.m_ext, ["C.i0", "C.i1", "C.i2"]);
    let j = b.tile_split(tc, "C.wmma.N", fused.n_ext, ["C.j0", "C.j1", "C.j2"]);
    let r = b.tile_split(tc, "C.wmma.K", fused.k_ext, ["C.r0", "C.r1", "C.r2"]);
    // VNNI consumes fixed (1, 16, 4) tiles; the M direction is register
    // blocking (i2 rows of independent accumulators).
    b.csp.post_eq(j[2], n);
    b.csp.post_eq(r[2], k);
    let _ = m;
    if opts.manual_bounds {
        // Hand-written template ranges (fixed AutoTVM tiling structure).
        b.candidates(i[1], &[1, 2, 4, 8, 16, 32]);
        b.candidates(j[1], &[1, 2, 4, 8, 16, 32]);
    }
    if opts.fixed_serial_level {
        b.candidates(i[2], &[1, 2, 4, 8, 14]);
        b.candidates(r[1], &[1, 2, 4, 8]);
    } else {
        // Register blocking cannot exceed the 32 zmm accumulators.
        b.candidates(i[2], &[1, 2, 4, 6, 8, 12, 14]);
    }

    b.state.reorder(
        tc,
        &[
            "C.i0", "C.j0", "C.r0", "C.i1", "C.j1", "C.r1", "C.i2", "C.j2", "C.r2",
        ],
    );
    b.state.bind(tc, "C.i0", ThreadAxis::BlockX);
    b.state.bind(tc, "C.j0", ThreadAxis::BlockY);
    b.state.tensorize(tc, "m", "n", "k");

    let batch = b.arch_const("batch", fused.batch_ext);
    let grid = b.prod("grid", [batch, i[0], j[0]]);
    let threads = b.arch_const("warps", 1);
    let _ = (grid, threads);

    // ---- Packed operand stages through L2 (Rules S2/C4/C5) --------------
    let a_rows = b.prod("rows.A.l2", [i[1], i[2]]);
    let kc_shallow = b.prod("row.A.l2.at0", [r[1], r[2]]);
    let a_execs_deep = b.prod("execs.A.l2.at1", [r[0], r[1]]);
    b.state.cache_read("A", MemScope::L2, "A.l2");
    let (a_row, a_execs) = if opts.tunable_locations {
        let loc = b.tunable("loc.A.l2", &[0, 1]);
        b.state
            .compute_at("A.l2", tc, "loc.A.l2", &["C.r0", "C.r1"]);
        let row = b.aux("row.A.l2", 1, fused.k_ext);
        b.select(row, loc, vec![kc_shallow, r[2]]);
        let execs = b.aux("execs.A.l2", 1, i64::from(u32::MAX));
        b.select(execs, loc, vec![r[0], a_execs_deep]);
        (row, execs)
    } else if opts.fixed_align_pad.is_some() {
        // AutoTVM's manual template hard-codes the sensible shallow fusion
        // point.
        (kc_shallow, r[0])
    } else {
        // AMOS cannot tune the compute location of the fused packing stage
        // (paper Section 7.1, DL Boost): its mapping fixes the stage at the
        // inner reduction level, fragmenting the stream into
        // intrinsic-width rows.
        (r[2], a_execs_deep)
    };
    let a_elems = b.prod("elems.A.l2", [a_rows, a_row]);
    let a_bytes = b.mem_limit("A.l2", MemScope::L2, a_elems, spec.in_dtype.bytes());

    // Weight panel, packed: the layout tunable chooses the contiguous run
    // the streaming-efficiency model sees (Ohwi16o-style packing).
    b.state.cache_read("B", MemScope::L2, "B.l2");
    let b_cols = b.prod("cols.B.l2", [j[1], j[2]]);
    let b_rows = b.prod("rows.B.l2", [r[1], r[2]]);
    let b_elems = b.prod("elems.B.l2", [b_rows, b_cols]);
    let b_bytes = b.mem_limit("B.l2", MemScope::L2, b_elems, spec.in_dtype.bytes());
    let packed = b.prod("row.B.l2.packed", [b_rows, j[2]]);
    let b_row = if opts.storage_align {
        // `storage_align` on CPU models layout packing: contiguous run is
        // either one intrinsic column tile (plain layout) or the whole
        // packed panel row.
        let layout = b.tunable("layout.B", &[0, 1]);
        let row = b.aux("row.B.l2", 1, fused.n_ext.max(fused.k_ext * 16));
        b.select(row, layout, vec![j[2], packed]);
        row
    } else if opts.fixed_align_pad.is_some() {
        // AutoTVM's manual x86 templates ship a packed weight layout.
        packed
    } else {
        // AMOS cannot express the packed layout (plain 16-wide tiles).
        j[2]
    };

    if opts.arch_constraints {
        let l2cap = spec.capacity(MemScope::L2).unwrap_or(cpu.l2_bytes);
        b.cap_total("l2.total", &[a_bytes, b_bytes], l2cap);
    }

    // ---- L1 micro-kernel working set (Rule-C5 on L1) ---------------------
    let a_mk = b.prod("elems.A.l1", [i[2], r[1], r[2]]);
    let a_l1_bytes = b.mem_limit("A.l1", MemScope::L1, a_mk, spec.in_dtype.bytes());
    let b_panel = b.prod("elems.B.l1", [r[1], r[2], j[2]]);
    let b_l1_bytes = b.mem_limit("B.l1", MemScope::L1, b_panel, spec.in_dtype.bytes());
    let c_tile = b.prod("elems.C.l1", [i[2], j[2]]);
    let c_l1_bytes = b.mem_limit("C.l1", MemScope::L1, c_tile, 4);
    if opts.arch_constraints {
        let l1cap = spec.capacity(MemScope::L1).unwrap_or(cpu.l1_bytes);
        b.cap_total("l1.total", &[a_l1_bytes, b_l1_bytes, c_l1_bytes], l1cap);
    }

    // ---- Compute and store ------------------------------------------------
    let intrin = b.prod("intrin.C", [i[1], i[2], j[1], r[0], r[1]]);
    let unroll = b.tunable("unroll", &[0, 16, 64, 512]);
    b.state.unroll(tc, "unroll");
    let store_elems = b.prod("elems.C.store", [i[1], i[2], j[1], j[2]]);
    let vec_store = b.tunable("vec.C", &[1, 4, 16]);

    let mut template = KernelTemplate::new(&spec.name, workload, dag.total_flops());
    template.var_grid = "grid".into();
    template.var_threads = "warps".into();

    b.loop_twin("A.l2.rows.len", a_rows);
    b.loop_twin("A.l2.cols.len", a_row);
    b.loop_twin("B.l2.rows.len", b_rows);
    b.loop_twin("B.l2.cols.len", b_cols);
    let mut a_spec = StageSpec::new(
        "A.l2",
        StageRole::Load,
        MemScope::Global,
        MemScope::L2,
        spec.in_dtype,
    );
    a_spec.var_elems = Some(b.name_of(a_elems));
    a_spec.var_execs = Some(b.name_of(a_execs));
    a_spec.var_row_elems = Some(b.name_of(a_row));
    template.stages.push(a_spec);

    let mut b_spec = StageSpec::new(
        "B.l2",
        StageRole::Load,
        MemScope::Global,
        MemScope::L2,
        spec.in_dtype,
    );
    b_spec.var_elems = Some(b.name_of(b_elems));
    b_spec.var_execs = Some(b.name_of(r[0]));
    b_spec.var_row_elems = Some(b.name_of(b_row));
    template.stages.push(b_spec);

    let mut l1_spec = StageSpec::new(
        "A.l1",
        StageRole::Load,
        MemScope::L2,
        MemScope::L1,
        spec.in_dtype,
    );
    l1_spec.var_elems = Some(b.name_of(a_mk));
    let l1_execs = b.prod("execs.A.l1", [r[0], i[1], j[1]]);
    l1_spec.var_execs = Some(b.name_of(l1_execs));
    template.stages.push(l1_spec);

    let mut compute = StageSpec::new(
        tc,
        StageRole::Compute,
        MemScope::L1,
        MemScope::L1,
        spec.in_dtype,
    );
    compute.intrinsic = Some(IntrinsicRef {
        m: "m".into(),
        n: "n".into(),
        k: "k".into(),
    });
    compute.var_intrinsic_execs = Some(b.name_of(intrin));
    compute.var_unroll = Some(b.name_of(unroll));
    template.stages.push(compute);

    let mut store = StageSpec::new(
        "C",
        StageRole::Store,
        MemScope::L1,
        MemScope::Global,
        DType::I32,
    );
    store.var_elems = Some(b.name_of(store_elems));
    store.var_vector = Some(b.name_of(vec_store));
    store.var_row_elems = Some(b.name_of(b_cols));
    template.stages.push(store);

    b.finish(template, spec, workload)
}

/// Builds the scalar (AVX, non-VNNI) CPU space: the Ansor-like baseline on
/// DL Boost, and Heron's own fallback for non-tensorizable operators.
pub fn build_scalar(
    spec: &DlaSpec,
    cpu: &CpuParams,
    dag: &Dag,
    view: &MacView<'_>,
    opts: &SpaceOptions,
    workload: &str,
) -> GeneratedSpace {
    let mut b = SpaceBuilder::new();
    let fused = fuse_mac_axes(&mut b, view, "C", 1, 1, 1);
    let tc = "C";

    let i = b.tile_split(tc, "C.M", fused.m_ext, ["C.i0", "C.i1", "C.i2"]);
    let j = b.tile_split(tc, "C.N", fused.n_ext, ["C.j0", "C.j1", "C.j2"]);
    let r = b.tile_split(tc, "C.K", fused.k_ext, ["C.r0", "C.r1"]);
    b.state.reorder(
        tc,
        &[
            "C.i0", "C.j0", "C.r0", "C.i1", "C.j1", "C.r1", "C.i2", "C.j2",
        ],
    );
    b.state.bind(tc, "C.i0", ThreadAxis::BlockX);
    b.state.bind(tc, "C.j0", ThreadAxis::BlockY);

    let batch = b.arch_const("batch", fused.batch_ext);
    let grid = b.prod("grid", [batch, i[0], j[0]]);
    b.arch_const("warps", 1);
    let _ = grid;

    b.state.cache_read("A", MemScope::L2, "A.l2");
    let a_rows = b.prod("rows.A.l2", [i[1], i[2]]);
    let a_elems = b.prod("elems.A.l2", [a_rows, r[1]]);
    let a_bytes = b.mem_limit("A.l2", MemScope::L2, a_elems, spec.in_dtype.bytes());
    b.state.cache_read("B", MemScope::L2, "B.l2");
    let b_cols = b.prod("cols.B.l2", [j[1], j[2]]);
    let b_elems = b.prod("elems.B.l2", [r[1], b_cols]);
    let b_bytes = b.mem_limit("B.l2", MemScope::L2, b_elems, spec.in_dtype.bytes());
    if opts.arch_constraints {
        let l2cap = spec.capacity(MemScope::L2).unwrap_or(cpu.l2_bytes);
        b.cap_total("l2.total", &[a_bytes, b_bytes], l2cap);
    }

    let two = b.constant(2);
    let kc = b.constant(fused.k_ext);
    let scalar_ops = b.prod("scalar.C", [two, i[1], i[2], j[1], j[2], kc]);
    let unroll = b.tunable("unroll", &[0, 16, 64, 512]);
    b.state.unroll(tc, "unroll");
    let store_elems = b.prod("elems.C.store", [i[1], i[2], j[1], j[2]]);
    let vec_store = b.tunable("vec.C", &[1, 4, 16]);

    let mut template = KernelTemplate::new(&spec.name, workload, dag.total_flops());
    template.var_grid = "grid".into();
    template.var_threads = "warps".into();

    let mut a_spec = StageSpec::new(
        "A.l2",
        StageRole::Load,
        MemScope::Global,
        MemScope::L2,
        spec.in_dtype,
    );
    a_spec.var_elems = Some(b.name_of(a_elems));
    a_spec.var_execs = Some(b.name_of(r[0]));
    a_spec.var_row_elems = Some(b.name_of(r[1]));
    template.stages.push(a_spec);
    let mut b_spec = StageSpec::new(
        "B.l2",
        StageRole::Load,
        MemScope::Global,
        MemScope::L2,
        spec.in_dtype,
    );
    b_spec.var_elems = Some(b.name_of(b_elems));
    b_spec.var_execs = Some(b.name_of(r[0]));
    b_spec.var_row_elems = Some(b.name_of(b_cols));
    template.stages.push(b_spec);

    let mut compute = StageSpec::new(
        tc,
        StageRole::Compute,
        MemScope::L2,
        MemScope::L1,
        spec.in_dtype,
    );
    compute.var_scalar_ops = Some(b.name_of(scalar_ops));
    compute.var_unroll = Some(b.name_of(unroll));
    template.stages.push(compute);

    let mut store = StageSpec::new(
        "C.st",
        StageRole::Store,
        MemScope::L1,
        MemScope::Global,
        DType::I32,
    );
    store.var_elems = Some(b.name_of(store_elems));
    store.var_vector = Some(b.name_of(vec_store));
    template.stages.push(store);

    b.finish(template, spec, workload)
}

#[cfg(test)]
mod tests {
    use super::super::{SpaceGenerator, SpaceOptions};
    use heron_csp::SpaceCensus;
    use heron_dla::dlboost;
    use heron_rng::HeronRng;
    use heron_tensor::{ops, DType};

    #[test]
    fn vnni_space_pins_intrinsic_dimensions() {
        let dag = ops::gemm_dtyped(512, 512, 512, DType::I8);
        let space = SpaceGenerator::new(dlboost())
            .generate_named(&dag, &SpaceOptions::heron(), "g")
            .expect("generates");
        let mut rng = HeronRng::from_seed(3);
        for sol in
            heron_testkit::solve_once(&space.csp, &mut rng, 8, &heron_csp::SolvePolicy::default())
                .solutions
        {
            assert_eq!(sol.value_by_name(&space.csp, "C.j2"), Some(16));
            assert_eq!(sol.value_by_name(&space.csp, "C.r2"), Some(4));
            // L1 working set respects the cache.
            let total = sol.value_by_name(&space.csp, "l1.total").expect("declared");
            assert!(total <= 32 * 1024, "L1 overflow: {total}");
        }
    }

    #[test]
    fn layout_select_links_row_length() {
        let dag = ops::gemm_dtyped(512, 512, 512, DType::I8);
        let space = SpaceGenerator::new(dlboost())
            .generate_named(&dag, &SpaceOptions::heron(), "g")
            .expect("generates");
        let mut rng = HeronRng::from_seed(4);
        let mut seen_packed = false;
        for sol in
            heron_testkit::solve_once(&space.csp, &mut rng, 24, &heron_csp::SolvePolicy::default())
                .solutions
        {
            let layout = sol.value_by_name(&space.csp, "layout.B").expect("tunable");
            let row = sol.value_by_name(&space.csp, "row.B.l2").expect("declared");
            if layout == 0 {
                assert_eq!(row, 16, "plain layout streams one intrinsic tile");
            } else {
                seen_packed = true;
                assert!(row >= 16, "packed layout streams at least a tile");
            }
        }
        assert!(seen_packed, "sampling never chose the packed layout");
    }

    #[test]
    fn scalar_cpu_space_has_no_intrinsic() {
        let dag = ops::gemm_dtyped(256, 256, 256, DType::I8);
        let space = SpaceGenerator::new(dlboost())
            .generate_named(&dag, &SpaceOptions::ansor(), "g")
            .expect("generates");
        assert!(space.template.stages.iter().all(|s| s.intrinsic.is_none()));
        assert!(space
            .template
            .stages
            .iter()
            .any(|s| s.var_scalar_ops.is_some()));
    }

    #[test]
    fn census_counts_both_cache_levels() {
        let dag = ops::gemm_dtyped(512, 512, 512, DType::I8);
        let space = SpaceGenerator::new(dlboost())
            .generate_named(&dag, &SpaceOptions::heron(), "g")
            .expect("generates");
        let census = SpaceCensus::of(&space.csp);
        // L1 + L2 capacity rows both posted.
        assert!(census.constraints_by_type["LE"] >= 2);
        assert!(space
            .template
            .buffers
            .iter()
            .any(|b| b.name.contains("l1") || b.name.contains("A.l1")));
    }
}

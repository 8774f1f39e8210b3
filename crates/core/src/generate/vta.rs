//! Constrained-space construction for VTA-style explicit-SRAM accelerators.
//!
//! Two-level tiling: an outer DRAM loop streams tiles into the input,
//! weight, and accumulator SRAMs (each with a Rule-C5 capacity constraint),
//! and an inner schedule drives the fixed `(1, 16, 16)` GEMM unit. The
//! platform's special Rule-C6 constraint — at least `min_access_cycle`
//! cycles between writes to the same accumulator address — becomes a lower
//! bound on the innermost reduction extent, exactly the "constraints on the
//! tiling structures" the paper credits Heron with handling on VTA.

use heron_dla::{DlaSpec, VtaParams};
use heron_sched::template::{IntrinsicRef, KernelTemplate, StageSpec};
use heron_sched::{MemScope, StageRole, ThreadAxis};
use heron_tensor::{DType, Dag};

use super::axes::MacView;
use super::builder::SpaceBuilder;
use super::tensorcore::fuse_mac_axes;
use super::{GeneratedSpace, SpaceOptions};

/// Builds the VTA space.
pub fn build(
    spec: &DlaSpec,
    vta: &VtaParams,
    dag: &Dag,
    view: &MacView<'_>,
    opts: &SpaceOptions,
    workload: &str,
) -> GeneratedSpace {
    let mut b = SpaceBuilder::new();
    // Intrinsic shape: fixed for VTA proper; flexible accelerators in the
    // same family (Cambricon-style) expose several legal (m, n, k) tuples,
    // encoded with a selector index and SELECT constraints so only legal
    // combinations are reachable (Rule-C6).
    let shapes = &spec.intrinsic_shapes;
    let (m, n, k) = if shapes.len() == 1 {
        let (im, inn, ik) = shapes[0];
        (
            b.arch_const("m", im),
            b.arch_const("n", inn),
            b.arch_const("k", ik),
        )
    } else {
        let idx = b.tunable(
            "intrin.shape",
            &(0..shapes.len() as i64).collect::<Vec<_>>(),
        );
        let m_choices: Vec<_> = shapes.iter().map(|s| b.constant(s.0)).collect();
        let n_choices: Vec<_> = shapes.iter().map(|s| b.constant(s.1)).collect();
        let k_choices: Vec<_> = shapes.iter().map(|s| b.constant(s.2)).collect();
        let mmax = shapes.iter().map(|s| s.0).max().expect("non-empty");
        let nmax = shapes.iter().map(|s| s.1).max().expect("non-empty");
        let kmax = shapes.iter().map(|s| s.2).max().expect("non-empty");
        let m = b.csp.add_var(
            "m",
            heron_csp::Domain::range(1, mmax),
            heron_csp::VarCategory::Arch,
        );
        let n = b.csp.add_var(
            "n",
            heron_csp::Domain::range(1, nmax),
            heron_csp::VarCategory::Arch,
        );
        let k = b.csp.add_var(
            "k",
            heron_csp::Domain::range(1, kmax),
            heron_csp::VarCategory::Arch,
        );
        b.select(m, idx, m_choices);
        b.select(n, idx, n_choices);
        b.select(k, idx, k_choices);
        (m, n, k)
    };
    let pad_m = shapes.iter().map(|s| s.0).max().expect("non-empty");
    let pad_n = shapes.iter().map(|s| s.1).max().expect("non-empty");
    let pad_k = shapes.iter().map(|s| s.2).max().expect("non-empty");

    let fused = fuse_mac_axes(&mut b, view, "C.wmma", pad_m, pad_n, pad_k);
    let tc = "C.wmma";

    let i = b.tile_split(tc, "C.wmma.M", fused.m_ext, ["C.i0", "C.i1", "C.i2"]);
    let j = b.tile_split(tc, "C.wmma.N", fused.n_ext, ["C.j0", "C.j1", "C.j2"]);
    let r = b.tile_split(tc, "C.wmma.K", fused.k_ext, ["C.r0", "C.r1", "C.r2"]);
    b.csp.post_eq(i[2], m);
    b.csp.post_eq(j[2], n);
    b.csp.post_eq(r[2], k);
    if opts.fixed_serial_level && fused.k_ext > pad_k {
        // The template author knows the access-cycle rule, so the manual
        // range starts at 2 — but the fixed structure cannot explore the
        // deeper tilings Heron reaches.
        b.candidates(r[1], &[2, 4]);
    }
    if opts.manual_bounds {
        b.candidates(i[1], &[1, 2, 4, 8, 16, 32, 64]);
        b.candidates(j[1], &[1, 2, 4, 8, 16]);
    }

    b.state.reorder(
        tc,
        &[
            "C.i0", "C.j0", "C.r0", "C.i1", "C.j1", "C.r1", "C.i2", "C.j2", "C.r2",
        ],
    );
    b.state.bind(tc, "C.i0", ThreadAxis::BlockX);
    b.state.tensorize(tc, "m", "n", "k");

    // Rule-C6: accumulator write-port hazard — the inner reduction extent
    // must cover the pipeline latency. The hazard only exists when the
    // reduction iterates at all (K > k); a single-step reduction writes
    // each accumulator address once.
    let reduction_iterates = fused.k_ext > pad_k;
    if opts.arch_constraints && reduction_iterates {
        let min_cycle = b.constant(vta.min_access_cycle);
        b.csp.post_le(min_cycle, r[1]);
    }

    let batch = b.arch_const("batch", fused.batch_ext);
    let grid = b.prod("grid", [batch, i[0], j[0]]);
    b.arch_const("warps", 1);
    let _ = grid;

    // ---- SRAM tiles (Rule-C5 on all three buffers) -----------------------
    b.state.cache_read("A", MemScope::VtaInput, "A.sram");
    let kc = b.prod("row.A.sram", [r[1], r[2]]);
    let in_elems = b.prod("elems.A.sram", [i[1], i[2], kc]);
    let in_bytes = b.mem_limit(
        "A.sram",
        MemScope::VtaInput,
        in_elems,
        spec.in_dtype.bytes(),
    );

    b.state.cache_read("B", MemScope::VtaWeight, "B.sram");
    let nc = b.prod("cols.B.sram", [j[1], j[2]]);
    let w_elems = b.prod("elems.B.sram", [kc, nc]);
    let w_bytes = b.mem_limit(
        "B.sram",
        MemScope::VtaWeight,
        w_elems,
        spec.in_dtype.bytes(),
    );

    let acc_elems = b.prod("elems.C.sram", [i[1], i[2], nc]);
    let acc_bytes = b.mem_limit("C.sram", MemScope::VtaAcc, acc_elems, 4);

    if opts.arch_constraints {
        let icap = b.constant(vta.input_buf_bytes as i64);
        b.csp.post_le(in_bytes, icap);
        let wcap = b.constant(vta.weight_buf_bytes as i64);
        b.csp.post_le(w_bytes, wcap);
        let acap = b.constant(vta.acc_buf_bytes as i64);
        b.csp.post_le(acc_bytes, acap);
    }

    // ---- Compute / stores -------------------------------------------------
    let intrin = b.prod("intrin.C", [i[1], j[1], r[0], r[1]]);
    let unroll = b.tunable("unroll", &[0, 8, 32, 128]);
    b.state.unroll(tc, "unroll");
    let vec_st = b.tunable("vec.C", &[1, 4, 16]);

    let mut template = KernelTemplate::new(&spec.name, workload, dag.total_flops());
    template.var_grid = "grid".into();
    template.var_threads = "warps".into();

    b.loop_twin("A.sram.rows.len", i[1]);
    b.loop_twin("A.sram.cols.len", kc);
    b.loop_twin("B.sram.rows.len", kc);
    b.loop_twin("B.sram.cols.len", nc);
    let mut a_spec = StageSpec::new(
        "A.sram",
        StageRole::Load,
        MemScope::Global,
        MemScope::VtaInput,
        spec.in_dtype,
    );
    a_spec.var_elems = Some(b.name_of(in_elems));
    a_spec.var_execs = Some(b.name_of(r[0]));
    a_spec.var_row_elems = Some(b.name_of(kc));
    template.stages.push(a_spec);

    let mut w_spec = StageSpec::new(
        "B.sram",
        StageRole::Load,
        MemScope::Global,
        MemScope::VtaWeight,
        spec.in_dtype,
    );
    w_spec.var_elems = Some(b.name_of(w_elems));
    w_spec.var_execs = Some(b.name_of(r[0]));
    w_spec.var_row_elems = Some(b.name_of(nc));
    template.stages.push(w_spec);

    let mut compute = StageSpec::new(
        tc,
        StageRole::Compute,
        MemScope::VtaInput,
        MemScope::VtaAcc,
        spec.in_dtype,
    );
    compute.intrinsic = Some(IntrinsicRef {
        m: "m".into(),
        n: "n".into(),
        k: "k".into(),
    });
    compute.var_intrinsic_execs = Some(b.name_of(intrin));
    compute.var_unroll = Some(b.name_of(unroll));
    // The access-cycle extent the VTA model checks (skipped for
    // single-step reductions, which have no write hazard).
    if reduction_iterates {
        compute.var_row_elems = Some(b.name_of(r[1]));
    }
    template.stages.push(compute);

    let mut store = StageSpec::new(
        "C",
        StageRole::Store,
        MemScope::VtaAcc,
        MemScope::Global,
        DType::I32,
    );
    store.var_elems = Some(b.name_of(acc_elems));
    store.var_vector = Some(b.name_of(vec_st));
    template.stages.push(store);

    b.finish(template, spec, workload)
}

#[cfg(test)]
mod tests {
    use super::super::{SpaceGenerator, SpaceOptions};
    use heron_dla::{cambricon, vta};
    use heron_rng::HeronRng;
    use heron_tensor::{ops, DType};

    #[test]
    fn access_cycle_constraint_holds_in_every_sample() {
        let dag = ops::gemm_dtyped(512, 512, 512, DType::I8);
        let space = SpaceGenerator::new(vta())
            .generate_named(&dag, &SpaceOptions::heron(), "g")
            .expect("generates");
        let mut rng = HeronRng::from_seed(5);
        let sols =
            heron_testkit::solve_once(&space.csp, &mut rng, 16, &heron_csp::SolvePolicy::default())
                .expect_sat("vta space");
        assert!(!sols.is_empty());
        for sol in sols {
            let r1 = sol.value_by_name(&space.csp, "C.r1").expect("declared");
            assert!(r1 >= 2, "access-cycle rule violated: r1={r1}");
        }
    }

    #[test]
    fn buffer_capacities_hold_in_every_sample() {
        let dag = ops::gemm_dtyped(1024, 1024, 1024, DType::I8);
        let space = SpaceGenerator::new(vta())
            .generate_named(&dag, &SpaceOptions::heron(), "g")
            .expect("generates");
        let mut rng = HeronRng::from_seed(6);
        for sol in
            heron_testkit::solve_once(&space.csp, &mut rng, 12, &heron_csp::SolvePolicy::default())
                .solutions
        {
            let input = sol
                .value_by_name(&space.csp, "bytes.A.sram")
                .expect("declared");
            let weight = sol
                .value_by_name(&space.csp, "bytes.B.sram")
                .expect("declared");
            let acc = sol
                .value_by_name(&space.csp, "bytes.C.sram")
                .expect("declared");
            assert!(input <= 32 * 1024);
            assert!(weight <= 256 * 1024);
            assert!(acc <= 128 * 1024);
        }
    }

    #[test]
    fn multi_shape_intrinsics_stay_legal() {
        let spec = cambricon();
        let dag = ops::gemm_dtyped(512, 512, 512, DType::I8);
        let space = SpaceGenerator::new(spec.clone())
            .generate_named(&dag, &SpaceOptions::heron(), "g")
            .expect("generates");
        let mut rng = HeronRng::from_seed(7);
        let mut shapes_seen = std::collections::HashSet::new();
        for sol in
            heron_testkit::solve_once(&space.csp, &mut rng, 32, &heron_csp::SolvePolicy::default())
                .solutions
        {
            let m = sol.value_by_name(&space.csp, "m").expect("declared");
            let n = sol.value_by_name(&space.csp, "n").expect("declared");
            let k = sol.value_by_name(&space.csp, "k").expect("declared");
            assert!(
                spec.allows_intrinsic(m, n, k),
                "illegal shape ({m},{n},{k})"
            );
            shapes_seen.insert((m, n, k));
        }
        assert!(
            shapes_seen.len() > 1,
            "sampling never varied the intrinsic shape"
        );
    }
}

//! Constrained-space construction for TensorCore-style GPUs.
//!
//! Builds the paper's five-stage pipeline (Equation 1):
//!
//! ```text
//! global --s1--> shared --s2--> fragments --s3(tensorized)--> acc --s4/s5--> global
//! ```
//!
//! with four-level spatial tiling (block / warp / serial / intrinsic),
//! three-level reduction tiling, tunable vector widths, `storage_align`
//! pads, compute_at locations for the shared loads (SELECT constraints),
//! and the full Rule-C1…C6 constraint set. A scalar (CUDA-core) variant of
//! the same structure serves both non-tensorizable operators (SCAN) and the
//! Ansor-like baseline.

use std::ops::Range;

use heron_csp::VarRef;
use heron_dla::{DlaSpec, GpuParams};
use heron_sched::template::{IntrinsicRef, KernelTemplate, StageSpec};
use heron_sched::{MemScope, StageRole, ThreadAxis};
use heron_tensor::{DType, Dag};

use super::axes::MacView;
use super::builder::{var_name, SpaceBuilder};
use super::{GeneratedSpace, SpaceOptions};

/// Builds the tensorized TensorCore space for a MAC-patterned operator.
pub fn build_tensorized(
    spec: &DlaSpec,
    gpu: &GpuParams,
    dag: &Dag,
    view: &MacView<'_>,
    opts: &SpaceOptions,
    workload: &str,
) -> GeneratedSpace {
    let mut b = SpaceBuilder::new();

    // ---- Architectural variables (Rule-C6 dedicated variables) ----------
    let shapes = &spec.intrinsic_shapes;
    let mut dims = Vec::with_capacity(3 * shapes.len());
    let m_span = push_distinct(&mut dims, shapes.iter().map(|s| s.0));
    let n_span = push_distinct(&mut dims, shapes.iter().map(|s| s.1));
    let k_span = push_distinct(&mut dims, shapes.iter().map(|s| s.2));
    let (m_cands, n_cands, k_cands) = (&dims[m_span], &dims[n_span], &dims[k_span]);
    let (m, n, k) = if opts.fixed_intrinsic {
        // AutoTVM-style template: hard-coded 16x16x16.
        (
            b.arch_const("m", 16),
            b.arch_const("n", 16),
            b.arch_const("k", 16),
        )
    } else {
        let m = b.arch_candidates("m", m_cands);
        let n = b.arch_candidates("n", n_cands);
        let k = b.arch_candidates("k", k_cands);
        // m * n * k == product constraint (e.g. 4096 on wmma).
        let prod =
            spec.intrinsic_shapes[0].0 * spec.intrinsic_shapes[0].1 * spec.intrinsic_shapes[0].2;
        if spec
            .intrinsic_shapes
            .iter()
            .all(|s| s.0 * s.1 * s.2 == prod)
        {
            let mnk = b.arch_const("mnk", prod);
            b.csp.post_prod(mnk, vec![m, n, k]);
        }
        (m, n, k)
    };

    // ---- Compute stage with fused + tiled loops --------------------------
    // Tail-pad the fused extents to the *largest* legal intrinsic
    // dimension so that every (m, n, k) choice divides the padded extents
    // (awkward shapes such as M = 1000 would otherwise leave no feasible
    // intrinsic assignment).
    let (pad_m, pad_n, pad_k) = if opts.fixed_intrinsic {
        (16, 16, 16)
    } else {
        (
            *m_cands.last().unwrap_or(&8),
            *n_cands.last().unwrap_or(&8),
            *k_cands.last().unwrap_or(&8),
        )
    };
    let fused = fuse_mac_axes(&mut b, view, "C.wmma", pad_m, pad_n, pad_k);
    let tc = "C.wmma";

    let i = b.tile_split(
        tc,
        "C.wmma.M",
        fused.m_ext,
        ["C.i0", "C.i1", "C.i2", "C.i3"],
    );
    let j = b.tile_split(
        tc,
        "C.wmma.N",
        fused.n_ext,
        ["C.j0", "C.j1", "C.j2", "C.j3"],
    );
    let r = b.tile_split(tc, "C.wmma.K", fused.k_ext, ["C.r0", "C.r1", "C.r2"]);
    // Intrinsic equalities: innermost tiles are the wmma shape.
    b.csp.post_eq(i[3], m);
    b.csp.post_eq(j[3], n);
    b.csp.post_eq(r[2], k);
    if opts.fixed_serial_level {
        // AutoTVM-style fixed structure: limited serial blocking.
        b.candidates(i[2], &[1, 2, 4]);
        b.candidates(j[2], &[1, 2, 4]);
        b.candidates(r[1], &[1, 2, 4]);
    }
    if opts.manual_bounds {
        // Hand-written template ranges: at most 4 warps per dimension and
        // modest reduction chunks keep nearly all samples valid at the
        // price of excluding the largest (often optimal) tiles.
        b.candidates(i[1], &[1, 2, 4]);
        b.candidates(j[1], &[1, 2, 4]);
    }

    b.state.reorder(
        tc,
        &[
            "C.i0", "C.j0", "C.i1", "C.j1", "C.r0", "C.r1", "C.i2", "C.j2", "C.i3", "C.j3", "C.r2",
        ],
    );
    b.state.bind(tc, "C.i0", ThreadAxis::BlockX);
    b.state.bind(tc, "C.j0", ThreadAxis::BlockY);
    b.state.bind(tc, "C.i1", ThreadAxis::ThreadY);
    b.state.bind(tc, "C.j1", ThreadAxis::ThreadY);
    b.state.tensorize(tc, "m", "n", "k");

    // ---- Launch geometry --------------------------------------------------
    let batch = b.arch_const("batch", fused.batch_ext);
    let _grid = b.prod("grid", [batch, i[0], j[0]]);
    let warps = b.prod("warps", [i[1], j[1]]);
    if opts.arch_constraints {
        let wl = b.constant(gpu.max_warps_per_block);
        b.csp.post_le(warps, wl);
    }

    // ---- Shared-memory load stages (Rules S2 + C4 + C5) ------------------
    let in_bytes = spec.in_dtype.bytes();
    let a_stage = shared_load_stage(
        &mut b,
        spec,
        opts,
        SharedLoad {
            tensor: "A",
            stage: "A.shared",
            parent: tc,
            fixed_dim: &[i[1], i[2], i[3]],
            dep_shallow: &[r[1], r[2]],
            dep_deep: r[2],
            contiguous_is_fixed: false,
            execs_shallow: r[0],
            execs_deep: &[r[0], r[1]],
            dtype: spec.in_dtype,
            max_row: fused.k_ext,
        },
    );
    let b_stage = shared_load_stage(
        &mut b,
        spec,
        opts,
        SharedLoad {
            tensor: "B",
            stage: "B.shared",
            parent: tc,
            fixed_dim: &[j[1], j[2], j[3]],
            dep_shallow: &[r[1], r[2]],
            dep_deep: r[2],
            contiguous_is_fixed: true,
            execs_shallow: r[0],
            execs_deep: &[r[0], r[1]],
            dtype: spec.in_dtype,
            max_row: fused.n_ext,
        },
    );
    if opts.arch_constraints {
        let cap = spec.capacity(MemScope::Shared).unwrap_or(48 * 1024);
        b.cap_total("smem.total", &[a_stage.bytes, b_stage.bytes], cap);
    }
    let _ = in_bytes;

    // ---- Fragment load stages (Rule S3: multi-scope SPM) -----------------
    let frag_a = fragment_stage(
        &mut b,
        spec,
        opts,
        "A.wmma",
        MemScope::FragA,
        &[i[2], i[3], r[2]],
        &[r[0], r[1], warps],
        &a_stage,
    );
    let frag_b = fragment_stage(
        &mut b,
        spec,
        opts,
        "B.wmma",
        MemScope::FragB,
        &[r[2], j[2], j[3]],
        &[r[0], r[1], warps],
        &b_stage,
    );

    // Accumulator fragments per warp (register budget).
    let acc_elems = b.prod("elems.C.frag", [i[2], i[3], j[2], j[3]]);
    let acc_bytes = b.mem_limit("C.frag", MemScope::FragAcc, acc_elems, 4);
    if opts.register_constraints {
        let cap = spec.capacity(MemScope::FragAcc).unwrap_or(16 * 16 * 16 * 4);
        let capv = b.constant(cap as i64);
        b.csp.post_le(acc_bytes, capv);
    }

    // ---- Compute + store specs -------------------------------------------
    let intrin_execs = b.prod("intrin.C", [warps, i[2], j[2], r[0], r[1]]);
    let unroll = b.tunable("unroll", &[0, 16, 64, 512]);
    b.state.unroll(tc, "unroll");

    // ---- Output path (Eq. 1 stages 4 and 5): TensorCores → shared →
    // global. Each warp drains one accumulator fragment at a time through a
    // small shared staging buffer (counted against the 48 KiB budget), so
    // coalesced vectorised stores reach global memory; the staging buffer's
    // row is storage_align-tunable like the input tiles.
    b.state.cache_write("C", MemScope::Shared, "C.shared");
    let frag_elems = b.prod("elems.C.stage4", [m, n]);
    let stage4_execs = b.prod("execs.C.stage4", [warps, i[2], j[2]]);
    let out_pad = if opts.storage_align {
        let pad = b.tunable("pad.C.shared", &[0, 1, 2, 4, 8]);
        b.state.storage_align("C.shared", "pad.C.shared");
        pad
    } else {
        b.constant(opts.fixed_align_pad.unwrap_or(0))
    };
    let out_row = b.loop_twin("C.shared.cols.len", n);
    let padded_out_row = b.sum("prow.C.shared", &[out_row, out_pad]);
    let stage_buf_rows = b.prod("rows.C.shared", [warps, m]);
    let stage_buf_elems = b.prod("belems.C.shared", [stage_buf_rows, padded_out_row]);
    let cshared_bytes = b.mem_limit("C.shared", MemScope::Shared, stage_buf_elems, 4);
    if opts.arch_constraints {
        // The staging buffer shares the shared-memory budget with A and B.
        let cap = spec.capacity(MemScope::Shared).unwrap_or(48 * 1024);
        b.cap_total(
            "smem.total.out",
            &[a_stage.bytes, b_stage.bytes, cshared_bytes],
            cap,
        );
    }

    let store_elems = b.prod("elems.C.store", [i[1], i[2], i[3], j[1], j[2], j[3]]);
    let vec_store = b.tunable("vec.C", &[1, 2, 4]);

    // ---- Assemble the kernel template -------------------------------------
    let mut template = KernelTemplate::new(&spec.name, workload, dag.total_flops());
    template.var_grid = "grid".into();
    template.var_threads = "warps".into();
    template.stages.push(a_stage.spec);
    template.stages.push(b_stage.spec);
    template.stages.push(frag_a);
    template.stages.push(frag_b);

    let mut compute = StageSpec::new(
        tc,
        StageRole::Compute,
        MemScope::FragA,
        MemScope::FragAcc,
        spec.in_dtype,
    );
    compute.intrinsic = Some(IntrinsicRef {
        m: "m".into(),
        n: "n".into(),
        k: "k".into(),
    });
    compute.var_intrinsic_execs = Some(b.name_of(intrin_execs));
    compute.var_unroll = Some(b.name_of(unroll));
    template.stages.push(compute);

    // Stage 4: accumulator fragments → shared staging buffer.
    let mut stage4 = StageSpec::new(
        "C.shared",
        StageRole::Store,
        MemScope::FragAcc,
        MemScope::Shared,
        DType::F32,
    );
    stage4.var_elems = Some(b.name_of(frag_elems));
    stage4.var_execs = Some(b.name_of(stage4_execs));
    stage4.var_row_elems = Some(b.name_of(out_row));
    stage4.var_align_pad = Some(b.name_of(out_pad));
    template.stages.push(stage4);

    // Stage 5: shared → global, vectorised and coalesced.
    let mut store = StageSpec::new(
        "C",
        StageRole::Store,
        MemScope::Shared,
        MemScope::Global,
        DType::F32,
    );
    store.var_elems = Some(b.name_of(store_elems));
    store.var_vector = Some(b.name_of(vec_store));
    template.stages.push(store);

    b.finish(template, spec, workload)
}

/// Builds the scalar (CUDA-core) GPU space: the Ansor-like template, also
/// used by Heron itself for non-tensorizable operators such as SCAN.
pub fn build_scalar(
    spec: &DlaSpec,
    gpu: &GpuParams,
    dag: &Dag,
    view: &MacView<'_>,
    opts: &SpaceOptions,
    workload: &str,
) -> GeneratedSpace {
    let mut b = SpaceBuilder::new();
    let fused = fuse_mac_axes(&mut b, view, "C", 1, 1, 1);
    let tc = "C";

    let i = b.tile_split(tc, "C.M", fused.m_ext, ["C.i0", "C.i1", "C.i2", "C.i3"]);
    let j = b.tile_split(tc, "C.N", fused.n_ext, ["C.j0", "C.j1", "C.j2", "C.j3"]);
    let r = b.tile_split(tc, "C.K", fused.k_ext, ["C.r0", "C.r1"]);
    b.state.reorder(
        tc,
        &[
            "C.i0", "C.j0", "C.i1", "C.j1", "C.r0", "C.r1", "C.i2", "C.j2", "C.i3", "C.j3",
        ],
    );
    b.state.bind(tc, "C.i0", ThreadAxis::BlockX);
    b.state.bind(tc, "C.j0", ThreadAxis::BlockY);
    b.state.bind(tc, "C.i1", ThreadAxis::ThreadY);
    b.state.bind(tc, "C.j1", ThreadAxis::ThreadY);

    let batch = b.arch_const("batch", fused.batch_ext);
    let grid = b.prod("grid", [batch, i[0], j[0]]);
    let warps = b.prod("warps", [i[1], j[1]]);
    if opts.arch_constraints {
        let wl = b.constant(gpu.max_warps_per_block);
        b.csp.post_le(warps, wl);
    }
    let _ = grid;

    // Shared caches for both operands.
    let a_stage = shared_load_stage(
        &mut b,
        spec,
        opts,
        SharedLoad {
            tensor: "A",
            stage: "A.shared",
            parent: tc,
            fixed_dim: &[i[1], i[2], i[3]],
            dep_shallow: &[r[1]],
            dep_deep: r[1],
            contiguous_is_fixed: false,
            execs_shallow: r[0],
            execs_deep: &[r[0]],
            dtype: spec.in_dtype,
            max_row: fused.k_ext,
        },
    );
    let b_stage = shared_load_stage(
        &mut b,
        spec,
        opts,
        SharedLoad {
            tensor: "B",
            stage: "B.shared",
            parent: tc,
            fixed_dim: &[j[1], j[2], j[3]],
            dep_shallow: &[r[1]],
            dep_deep: r[1],
            contiguous_is_fixed: true,
            execs_shallow: r[0],
            execs_deep: &[r[0]],
            dtype: spec.in_dtype,
            max_row: fused.n_ext,
        },
    );
    if opts.arch_constraints {
        let cap = spec.capacity(MemScope::Shared).unwrap_or(48 * 1024);
        b.cap_total("smem.total", &[a_stage.bytes, b_stage.bytes], cap);
    }

    // Scalar arithmetic per block: 2 * blockM * blockN * K.
    let two = b.constant(2);
    let kc = b.constant(fused.k_ext);
    let scalar_ops = b.prod("scalar.C", [two, i[1], i[2], i[3], j[1], j[2], j[3], kc]);
    let unroll = b.tunable("unroll", &[0, 16, 64, 512]);
    b.state.unroll(tc, "unroll");
    let store_elems = b.prod("elems.C.store", [i[1], i[2], i[3], j[1], j[2], j[3]]);
    let vec_store = b.tunable("vec.C", &[1, 2, 4]);

    let mut template = KernelTemplate::new(&spec.name, workload, dag.total_flops());
    template.var_grid = "grid".into();
    template.var_threads = "warps".into();
    template.stages.push(a_stage.spec);
    template.stages.push(b_stage.spec);
    let mut compute = StageSpec::new(
        tc,
        StageRole::Compute,
        MemScope::Shared,
        MemScope::Register,
        DType::F32,
    );
    compute.var_scalar_ops = Some(b.name_of(scalar_ops));
    compute.var_unroll = Some(b.name_of(unroll));
    template.stages.push(compute);
    let mut store = StageSpec::new(
        "C.st",
        StageRole::Store,
        MemScope::Register,
        MemScope::Global,
        DType::F32,
    );
    store.var_elems = Some(b.name_of(store_elems));
    store.var_vector = Some(b.name_of(vec_store));
    template.stages.push(store);

    b.finish(template, spec, workload)
}

/// Fused MAC loop extents after padding.
pub(super) struct FusedMac {
    pub m_ext: i64,
    pub n_ext: i64,
    pub k_ext: i64,
    pub batch_ext: i64,
}

/// Logs the Rule-C2 fuse primitives that collapse the original operator
/// axes of the compute stage `prefix` into the fused `M`, `N`, `K` loops
/// (the implicit im2col view), and returns the padded fused extents the
/// tile splits operate on. A single-axis group has nothing to fuse: its
/// loop is the fused `<prefix>.M` (`N`, `K`) the splits name.
pub(super) fn fuse_mac_axes(
    b: &mut SpaceBuilder,
    view: &MacView<'_>,
    prefix: &str,
    m_base: i64,
    n_base: i64,
    k_base: i64,
) -> FusedMac {
    let groups = [
        (&view.m_axes, "M", m_base),
        (&view.n_axes, "N", n_base),
        (&view.k_axes, "K", k_base),
    ];
    // Declare the per-axis loop-length variables of the census (paper
    // Table 4: `stage.i6` et al.), one after another from `first`, and log
    // the Rule-C2 fusions for multi-axis groups, tying the fused product to
    // the padded extent.
    let first = b.csp.num_vars();
    for (name, ext) in &view.axis_extents {
        b.csp.add_var(
            var_name(&[prefix, ".ax.", name]),
            heron_csp::Domain::singleton(*ext),
            heron_csp::VarCategory::LoopLength,
        );
    }
    for &(axes, group, base) in &groups {
        if axes.len() >= 2 {
            let names = axes.iter().map(|a| var_name(&[prefix, ".", a])).collect();
            b.state.fuse(prefix, names, var_name(&[prefix, ".", group]));
            // Rule-C2: fused-loop product, bounded by the padded extent.
            let parts: Vec<heron_csp::VarRef> = axes
                .iter()
                .filter_map(|a| view.axis_extents.iter().position(|(n, _)| n == a))
                .map(|i| heron_csp::VarRef(first + i))
                .collect();
            let padded_ext = super::axes::round_up(
                parts.iter().map(|p| b.csp.var(*p).domain.max()).product(),
                base,
            );
            let orig = b.prod(var_name(&[prefix, ".", group, ".orig"]), parts);
            let padded = b.constant(padded_ext);
            b.csp.post_le(orig, padded);
        }
    }
    FusedMac {
        m_ext: super::axes::round_up(view.m_extent, m_base),
        n_ext: super::axes::round_up(view.n_extent, n_base),
        k_ext: super::axes::round_up(view.k_extent, k_base),
        batch_ext: view.batch_extent,
    }
}

/// Appends the distinct `values`, ascending, to `buf` and returns their
/// span of it.
fn push_distinct(buf: &mut Vec<i64>, values: impl Iterator<Item = i64>) -> Range<usize> {
    let start = buf.len();
    buf.extend(values);
    buf[start..].sort_unstable();
    let mut end = start;
    for i in start..buf.len() {
        if end == start || buf[i] != buf[end - 1] {
            buf[end] = buf[i];
            end += 1;
        }
    }
    buf.truncate(end);
    start..end
}

/// Parameters for one global→shared load stage.
///
/// A shared tile has a *fixed* dimension (the operand's spatial tile: the
/// M block for `A`, the N block for `B`) and a *location-dependent*
/// dimension (the K chunk, which shrinks when the load is anchored deeper
/// in the reduction nest). Exactly one of the two is contiguous in memory:
/// the K chunk for row-major `A[M, K]`, the N tile for `B[K, N]`.
struct SharedLoad<'a> {
    tensor: &'a str,
    stage: &'a str,
    /// The compute stage the load is anchored in.
    parent: &'a str,
    /// Variables whose product is the fixed (spatial) tile dimension.
    fixed_dim: &'a [VarRef],
    /// K-chunk factors when computed at the shallow location (`r0`).
    dep_shallow: &'a [VarRef],
    /// K-chunk variable at the deep location (`r1`), i.e. `r2`.
    dep_deep: VarRef,
    /// Whether the contiguous row is the fixed dimension (`B`) or the
    /// location-dependent K chunk (`A`).
    contiguous_is_fixed: bool,
    /// Executions per block at the shallow location (`r0`).
    execs_shallow: VarRef,
    /// Execution factors at the deep location (`r0 * r1`).
    execs_deep: &'a [VarRef],
    dtype: DType,
    /// Upper bound of the contiguous row length.
    max_row: i64,
}

/// Result of building a shared-load stage.
struct SharedStage {
    spec: StageSpec,
    bytes: VarRef,
}

/// Builds one shared-memory load stage with location SELECTs (Rule-C4),
/// footprint PRODs (Rule-C5), vector alignment and storage_align (Rule-C6).
#[allow(clippy::too_many_arguments)]
fn shared_load_stage(
    b: &mut SpaceBuilder,
    spec: &DlaSpec,
    opts: &SpaceOptions,
    p: SharedLoad<'_>,
) -> SharedStage {
    let st = p.stage;
    b.state.cache_read(p.tensor, MemScope::Shared, st);

    let fixed = b.prod(var_name(&["fixdim.", st]), p.fixed_dim);
    let dep_shallow = b.prod(var_name(&["kchunk.", st, ".at0"]), p.dep_shallow);
    let execs_deep = b.prod(var_name(&["execs.", st, ".at1"]), p.execs_deep);

    // The K chunk and execution count depend on the compute_at location
    // (Rule-C4); total traffic is invariant, but footprint and granularity
    // trade off.
    let (dep, execs) = if opts.tunable_locations {
        let loc = b.tunable(var_name(&["loc.", st]), &[0, 1]);
        b.state
            .compute_at(st, p.parent, &b.csp.var(loc).name, &["C.r0", "C.r1"]);
        let dep = b.aux(var_name(&["kchunk.", st]), 1, i64::from(u32::MAX));
        b.select(dep, loc, vec![dep_shallow, p.dep_deep]);
        let execs = b.aux(var_name(&["execs.", st]), 1, i64::from(u32::MAX));
        b.select(execs, loc, vec![p.execs_shallow, execs_deep]);
        (dep, execs)
    } else {
        (dep_shallow, p.execs_shallow)
    };

    // Contiguous row of the tile, aliased under a stable name for the
    // template and the bank-conflict model.
    let row = b.aux(var_name(&["row.", st]), 1, p.max_row);
    let contiguous = if p.contiguous_is_fixed { fixed } else { dep };
    b.csp.post_eq(row, contiguous);

    // Vectorised access width must divide the row (Rule-C6).
    let vec = b.tunable(var_name(&["vec.", st]), &spec.vector_lengths);
    b.state.vectorize(st, &b.csp.var(vec).name);
    if opts.arch_constraints {
        b.divides(vec, row, st);
    }

    // storage_align padding (Rule-C6 on TensorCore).
    let pad = if opts.storage_align {
        let pad = b.tunable(var_name(&["pad.", st]), &[0, 1, 2, 4, 8]);
        b.state.storage_align(st, &b.csp.var(pad).name);
        pad
    } else {
        b.constant(opts.fixed_align_pad.unwrap_or(0))
    };
    let padded_row = b.sum(var_name(&["prow.", st]), &[row, pad]);

    // Footprints: transfer elements (unpadded) and buffer bytes (padded):
    // (#rows of the buffer) x (padded contiguous row).
    let elems = b.prod(var_name(&["elems.", st]), [fixed, dep]);
    let nrows = if p.contiguous_is_fixed { dep } else { fixed };
    let buf_elems = b.prod(var_name(&["belems.", st]), [nrows, padded_row]);
    let bytes = b.mem_limit(st, MemScope::Shared, buf_elems, p.dtype.bytes());

    // Per-stage loop-length variables (the cache stage's own nest).
    b.loop_twin(var_name(&[st, ".rows.len"]), nrows);
    b.loop_twin(var_name(&[st, ".cols.len"]), row);

    let mut spec_out = StageSpec::new(
        st,
        StageRole::Load,
        MemScope::Global,
        MemScope::Shared,
        p.dtype,
    );
    spec_out.var_elems = Some(b.name_of(elems));
    spec_out.var_execs = Some(b.name_of(execs));
    spec_out.var_vector = Some(b.name_of(vec));
    spec_out.var_align_pad = Some(b.name_of(pad));
    spec_out.var_row_elems = Some(b.name_of(row));
    SharedStage {
        spec: spec_out,
        bytes,
    }
}

/// Builds one shared→fragment load stage (Rule-S3 multi-scope SPM).
#[allow(clippy::too_many_arguments)]
fn fragment_stage(
    b: &mut SpaceBuilder,
    spec: &DlaSpec,
    opts: &SpaceOptions,
    name: &str,
    scope: MemScope,
    elem_factors: &[VarRef],
    exec_factors: &[VarRef],
    src: &SharedStage,
) -> StageSpec {
    b.state
        .cache_read(name.split('.').next().unwrap_or(name), scope, name);
    let elems = b.prod(var_name(&["elems.", name]), elem_factors);
    let execs = b.prod(var_name(&["execs.", name]), exec_factors);
    let bytes = b.mem_limit(name, scope, elems, spec.in_dtype.bytes());
    if opts.register_constraints {
        if let Some(cap) = spec.capacity(scope) {
            let capv = b.constant(cap as i64);
            b.csp.post_le(bytes, capv);
        }
    }
    b.loop_twin(var_name(&[name, ".x.len"]), elems);
    let mut s = StageSpec::new(
        name,
        StageRole::Load,
        MemScope::Shared,
        scope,
        spec.in_dtype,
    );
    s.var_elems = Some(b.name_of(elems));
    s.var_execs = Some(b.name_of(execs));
    // Reads shared memory with the producer's row geometry: bank conflicts
    // depend on the shared buffer's stride and padding.
    s.var_row_elems = src.spec.var_row_elems.clone();
    s.var_align_pad = src.spec.var_align_pad.clone();
    s
}

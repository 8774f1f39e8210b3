//! Space-generation matrix: every platform × approach × operator must
//! produce a satisfiable space whose solutions lower cleanly, and Heron's
//! spaces must be valid-by-construction everywhere.

use heron::prelude::*;
use heron::sched::lower;
use heron::tensor::ops;
use heron_rng::HeronRng;

fn check_space(
    spec: &heron::dla::DlaSpec,
    opts: &SpaceOptions,
    dag: &heron::tensor::Dag,
    label: &str,
    expect_all_valid: bool,
) {
    let Ok(space) = SpaceGenerator::new(spec.clone()).generate_named(dag, opts, label) else {
        panic!("{label}: generation failed");
    };
    let mut rng = HeronRng::from_seed(11);
    let sols = heron_testkit::solve_once(
        &space.csp,
        &mut rng,
        12,
        &heron::csp::SolvePolicy::default(),
    );
    assert!(
        sols.is_sat() && !sols.solutions.is_empty(),
        "{label}: space unsatisfiable ({})",
        sols.status
    );
    let sols = sols.solutions;
    let measurer = Measurer::new(spec.clone());
    let mut valid = 0;
    for sol in &sols {
        assert!(
            heron::csp::validate(&space.csp, sol),
            "{label}: solver returned non-solution"
        );
        let kernel = lower(&space.template, sol.fingerprint(), &|n| {
            sol.value_by_name(&space.csp, n)
        })
        .unwrap_or_else(|e| panic!("{label}: lowering failed: {e}"));
        if measurer.validate(&kernel).is_ok() {
            valid += 1;
        }
    }
    if expect_all_valid {
        assert_eq!(
            valid,
            sols.len(),
            "{label}: Heron sample violated arch limits"
        );
    } else {
        assert!(valid > 0, "{label}: no runnable sample at all");
    }
}

fn approaches() -> [(&'static str, SpaceOptions, bool); 4] {
    [
        ("heron", SpaceOptions::heron(), true),
        ("autotvm", SpaceOptions::autotvm(), false),
        ("ansor", SpaceOptions::ansor(), false),
        ("amos", SpaceOptions::amos(), false),
    ]
}

#[test]
fn v100_matrix() {
    let spec = heron::dla::v100();
    let dags = [
        ("gemm", ops::gemm(512, 512, 512)),
        (
            "c2d",
            ops::conv2d(ops::Conv2dConfig::new(8, 28, 28, 128, 128, 3, 3, 1, 1)),
        ),
        ("scan", ops::scan(16, 512)),
    ];
    for (op, dag) in &dags {
        for (name, opts, all_valid) in approaches() {
            check_space(&spec, &opts, dag, &format!("v100/{op}/{name}"), all_valid);
        }
    }
}

#[test]
fn dlboost_matrix() {
    let spec = heron::dla::dlboost();
    let dags = [
        ("gemm", ops::gemm_dtyped(512, 512, 512, DType::I8)),
        (
            "c2d",
            ops::conv2d(
                ops::Conv2dConfig::new(8, 28, 28, 128, 128, 3, 3, 1, 1).with_dtype(DType::I8),
            ),
        ),
    ];
    for (op, dag) in &dags {
        for (name, opts, all_valid) in approaches() {
            check_space(
                &spec,
                &opts,
                dag,
                &format!("dlboost/{op}/{name}"),
                all_valid,
            );
        }
    }
}

#[test]
fn vta_matrix() {
    let spec = heron::dla::vta();
    let dags = [
        ("gemm", ops::gemm_dtyped(512, 512, 512, DType::I8)),
        ("bmm", ops::bmm_dtyped(8, 128, 128, 128, DType::I8)),
    ];
    // Ansor is not evaluated on VTA in the paper (no scalar path on the
    // GEMM-unit accelerator), so only the intrinsic-capable approaches.
    for (op, dag) in &dags {
        for (name, opts, all_valid) in [
            ("heron", SpaceOptions::heron(), true),
            ("autotvm", SpaceOptions::autotvm(), false),
            ("amos", SpaceOptions::amos(), false),
        ] {
            check_space(&spec, &opts, dag, &format!("vta/{op}/{name}"), all_valid);
        }
    }
}

#[test]
fn flexible_intrinsic_platforms_generate() {
    // Cambricon-style multi-shape intrinsics exercise the SELECT-linked
    // shape choice.
    let spec = heron::dla::cambricon();
    let dag = ops::gemm_dtyped(512, 512, 512, DType::I8);
    check_space(
        &spec,
        &SpaceOptions::heron(),
        &dag,
        "cambricon/gemm/heron",
        true,
    );
    let tpu = heron::dla::tpu();
    let big = ops::gemm_dtyped(1024, 1024, 1024, DType::I8);
    check_space(&tpu, &SpaceOptions::heron(), &big, "tpu/gemm/heron", true);
}

/// FNV-1a over `bytes`, continuing from `hash`.
fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Every space the generated-space pin covers, labelled: ResNet-50's
/// distinct v100 MAC layers (batch 16, first-use order, named as a compile
/// names them), gemm-512 and c2d-14x64 on each platform, scan on v100, and
/// gemm-512 under the baseline approaches.
fn pinned_spaces() -> Vec<(String, heron::dla::DlaSpec, Workload, SpaceOptions)> {
    use heron::graph::{fuse, models, LayerOp};
    use heron::workloads::OpKind;
    let gemm512 = || {
        Workload::new(
            "gemm-512",
            OpKind::Gemm {
                m: 512,
                n: 512,
                k: 512,
            },
        )
    };
    let c2d = || {
        Workload::new(
            "c2d-14x64",
            OpKind::C2d(ops::Conv2dConfig::new(1, 14, 14, 64, 64, 3, 3, 1, 1)),
        )
    };
    let mut out = Vec::new();
    let graph = models::resnet50(16);
    let mut seen: Vec<OpKind> = Vec::new();
    for layer in &fuse(&graph).layers {
        let kind = match &graph.node(layer.anchor).op {
            LayerOp::Conv2d(c) => OpKind::C2d(*c),
            LayerOp::Gemm { m, n, k } => OpKind::Gemm {
                m: *m,
                n: *n,
                k: *k,
            },
            _ => continue,
        };
        if seen.contains(&kind) {
            continue;
        }
        seen.push(kind.clone());
        let name = format!("layer{}", seen.len() - 1);
        out.push((
            format!("resnet50/{name}"),
            heron::dla::v100(),
            Workload::new(name, kind),
            SpaceOptions::heron(),
        ));
    }
    assert_eq!(seen.len(), 21, "ResNet-50 has 21 distinct MAC layers");
    for spec in [heron::dla::v100(), heron::dla::vta(), heron::dla::dlboost()] {
        for w in [gemm512(), c2d()] {
            out.push((
                format!("{}/{}", spec.name, w.name),
                spec.clone(),
                w,
                SpaceOptions::heron(),
            ));
        }
    }
    out.push((
        "v100/scan".to_string(),
        heron::dla::v100(),
        Workload::new("scan", OpKind::Scan { b: 16, l: 512 }),
        SpaceOptions::heron(),
    ));
    for spec in [heron::dla::v100(), heron::dla::dlboost()] {
        for (approach, opts) in [
            ("autotvm", SpaceOptions::autotvm()),
            ("ansor", SpaceOptions::ansor()),
            ("amos", SpaceOptions::amos()),
        ] {
            out.push((
                format!("{}/gemm-512/{approach}", spec.name),
                spec.clone(),
                gemm512(),
                opts,
            ));
        }
    }
    out
}

/// FNV-1a digests of each pinned space's `heron-csp v2` export followed by
/// its template's `Debug` text.
const SPACE_DIGESTS: &[(&str, &str)] = &[
    ("resnet50/layer0", "0fff107fbef190bd"),
    ("resnet50/layer1", "79ed22cb2e42fed1"),
    ("resnet50/layer2", "d8dfd046c55a6127"),
    ("resnet50/layer3", "5479c6ac1628841e"),
    ("resnet50/layer4", "754aea4cfc5ec85b"),
    ("resnet50/layer5", "a397b3cbbb39badc"),
    ("resnet50/layer6", "0d89ac62a430f5df"),
    ("resnet50/layer7", "f2d128f9ec2d8267"),
    ("resnet50/layer8", "a8a0c7308a5f56f4"),
    ("resnet50/layer9", "6ff5604194be5f5a"),
    ("resnet50/layer10", "f39a4f2083db20f3"),
    ("resnet50/layer11", "298980482e5e4b5a"),
    ("resnet50/layer12", "1002add661e32b2c"),
    ("resnet50/layer13", "90cd627e2d3e6354"),
    ("resnet50/layer14", "947ce636cbcf2201"),
    ("resnet50/layer15", "9e68d233974c102a"),
    ("resnet50/layer16", "ba2c83487e92d2b1"),
    ("resnet50/layer17", "3a28515873fc81db"),
    ("resnet50/layer18", "bfe4297fad3066fd"),
    ("resnet50/layer19", "c4843f7315760541"),
    ("resnet50/layer20", "536bba5f95697478"),
    ("v100/gemm-512", "e270b4cb3db2e573"),
    ("v100/c2d-14x64", "5765185799160460"),
    ("vta/gemm-512", "88e0072c14a51d12"),
    ("vta/c2d-14x64", "701a58c752ee672a"),
    ("dlboost/gemm-512", "fbce5a22dabd7750"),
    ("dlboost/c2d-14x64", "96a7f37eaa6ef09f"),
    ("v100/scan", "25c548b29daa0a87"),
    ("v100/gemm-512/autotvm", "5e1345b948d18f98"),
    ("v100/gemm-512/ansor", "89d414f20ee8f0e7"),
    ("v100/gemm-512/amos", "c25dc9586876e48a"),
    ("dlboost/gemm-512/autotvm", "95fee3615690e558"),
    ("dlboost/gemm-512/ansor", "123a508592ea3977"),
    ("dlboost/gemm-512/amos", "ee9534f5eecefe44"),
];

#[test]
fn generated_spaces_are_pinned() {
    let mut got = Vec::new();
    for (label, spec, w, opts) in pinned_spaces() {
        let dag = w.build(spec.in_dtype);
        let space = SpaceGenerator::new(spec)
            .generate_named(&dag, &opts, &w.name)
            .unwrap_or_else(|e| panic!("{label}: generation failed: {e}"));
        let csp = heron::csp::serialize::to_text(&space.csp)
            .unwrap_or_else(|e| panic!("{label}: export failed: {e}"));
        let template = format!("{:?}", space.template);
        let digest = fnv1a(
            fnv1a(0xcbf2_9ce4_8422_2325, csp.as_bytes()),
            template.as_bytes(),
        );
        got.push((label, format!("{digest:016x}")));
    }
    let table: String = got
        .iter()
        .map(|(l, d)| format!("    (\"{l}\", \"{d}\"),\n"))
        .collect();
    let pinned: Vec<(String, String)> = SPACE_DIGESTS
        .iter()
        .map(|(l, d)| (l.to_string(), d.to_string()))
        .collect();
    assert_eq!(got, pinned, "generated spaces moved; now:\n{table}");
}

/// Lowering resolves every name the template refers to, and a name the CSP
/// does not declare makes every trial of the space invalid: each name a
/// stage, the launch geometry, a buffer or a primitive's variable slot
/// (split parts, compute_at location, unroll and vector lengths,
/// storage_align pad, intrinsic shape) holds is a variable of the space.
#[test]
fn generated_templates_name_only_declared_variables() {
    for (label, spec, w, opts) in pinned_spaces() {
        let dag = w.build(spec.in_dtype);
        let space = SpaceGenerator::new(spec)
            .generate_named(&dag, &opts, &w.name)
            .unwrap_or_else(|e| panic!("{label}: generation failed: {e}"));
        let slots = space.template.primitives.iter().flat_map(|p| {
            let mut vars = p.tunable_vars();
            if let heron::sched::Primitive::Tensorize { m, n, k, .. } = p {
                vars.extend([m.as_str(), n.as_str(), k.as_str()]);
            }
            vars
        });
        for name in space.template.referenced_vars().into_iter().chain(slots) {
            assert!(
                space.csp.var_by_name(name).is_some(),
                "{label}: the template names `{name}`, which the CSP does not declare"
            );
        }
    }
}

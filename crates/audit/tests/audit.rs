//! Integration tests for the differential constraint-space auditor:
//! clean committed specs audit clean, same-seed runs are byte-identical,
//! witnesses replay, and the seeded mutation gate detects every
//! certified drop/tighten.

use heron_audit::{
    audit_space, certified_corpus, corpus, detects, mutated_space, validate_audit, AuditConfig,
    Oracle,
};
use heron_core::generate::{GeneratedSpace, SpaceGenerator, SpaceOptions};
use heron_dla::DlaSpec;
use heron_testkit::rule_mutation::MutationKind;
use heron_trace::Tracer;
use heron_workloads::{OpKind, Workload};

fn platform(name: &str) -> DlaSpec {
    heron_dla::platforms::all()
        .into_iter()
        .find(|s| s.name == name)
        .expect("platform exists")
}

fn space(dla: &str, kind: OpKind, label: &str) -> GeneratedSpace {
    let spec = platform(dla);
    let workload = Workload::new(label.to_string(), kind);
    let dag = workload.build(spec.in_dtype);
    SpaceGenerator::new(spec)
        .generate_named(&dag, &SpaceOptions::heron(), &workload.name)
        .expect("generates")
}

fn gemm(dla: &str, n: i64) -> GeneratedSpace {
    space(dla, OpKind::Gemm { m: n, n, k: n }, &format!("gemm-{n}"))
}

#[test]
fn clean_specs_audit_clean_on_all_platforms() {
    for dla in ["v100", "dlboost", "vta"] {
        let s = gemm(dla, 128);
        let report = audit_space(&s, &AuditConfig::new(2023), &Tracer::disabled());
        assert!(
            report.clean(),
            "{dla}: clean spec produced witnesses:\n{}",
            report.render_text()
        );
        assert!(!report.infeasible);
        assert!(report.distinct > 0, "{dla}: under-probe sampled nothing");
        assert!(report.anchors_used > 0, "{dla}: over-probe had no anchors");
        assert!(report.perturbations > 0, "{dla}: over-probe tried nothing");
    }
}

#[test]
fn same_seed_audit_json_is_byte_identical() {
    let s = gemm("v100", 128);
    let cfg = AuditConfig::new(7);
    let a = audit_space(&s, &cfg, &Tracer::disabled()).to_json();
    let b = audit_space(&s, &cfg, &Tracer::manual()).to_json();
    assert!(validate_audit(&a).is_ok(), "{:?}", validate_audit(&a));
    assert_eq!(a.render_pretty(), b.render_pretty());
    // A different seed samples differently (the summary block records it).
    let c = audit_space(&s, &AuditConfig::new(8), &Tracer::disabled()).to_json();
    assert_ne!(a.render_pretty(), c.render_pretty());
}

#[test]
fn mutation_gate_detects_every_certified_drop_and_tighten() {
    let s = gemm("v100", 128);
    let seed = 2023;
    let certified = certified_corpus(&s, seed);
    assert!(
        certified
            .iter()
            .any(|c| c.mutation.kind == MutationKind::Drop),
        "no certified drop mutation — the gate proves nothing"
    );
    assert!(
        certified
            .iter()
            .any(|c| c.mutation.kind == MutationKind::Tighten),
        "no certified tighten mutation — the gate proves nothing"
    );
    let mut missed = Vec::new();
    for c in &certified {
        if c.mutation.kind == MutationKind::Widen {
            continue; // widen detection is best-effort (see DESIGN.md §11)
        }
        if !detects(&s, &c.mutation, seed) {
            missed.push(format!("{} ({})", c.mutation.detail, c.reason));
        }
    }
    assert!(
        missed.is_empty(),
        "gate missed {}/{} certified mutations:\n{}",
        missed.len(),
        certified.len(),
        missed.join("\n")
    );
}

#[test]
fn under_witnesses_replay_against_csp_and_oracle() {
    let s = gemm("v100", 128);
    let seed = 2023;
    // Drop the warp-limit rule: the classic under-constraint bug.
    let m = corpus(&s, seed)
        .into_iter()
        .find(|m| m.kind == MutationKind::Drop && m.detail.contains("LE(warps)"))
        .expect("drop LE(warps) exists");
    let ms = mutated_space(&s, &m);
    let report = audit_space(&ms, &AuditConfig::new(seed), &Tracer::disabled());
    assert!(
        !report.under.is_empty(),
        "dropping the warp limit must surface under-witnesses:\n{}",
        report.render_text()
    );
    let oracle = Oracle::new(&ms, Tracer::disabled());
    for w in &report.under {
        // CSP-SAT…
        assert!(
            heron_csp::validate(&ms.csp, &w.solution),
            "witness is not a CSP solution"
        );
        // …but sim-invalid, with a reproducible attribution.
        let verdict = oracle.check(&w.solution);
        assert!(!verdict.is_valid(), "witness replays as valid");
        assert_eq!(verdict.tag(), w.tag);
        assert_eq!(verdict.rule(), w.rule);
        assert_eq!(w.rule, "C6", "warp-limit violations are Rule C6");
        assert!(!w.diff.is_empty(), "minimizer lost the implicated diff");
    }
}

#[test]
fn over_witnesses_replay_against_csp_and_oracle() {
    let s = gemm("v100", 128);
    let seed = 2023;
    // Find a certified tighten whose over-probe witness is reproducible.
    let tighten = certified_corpus(&s, seed)
        .into_iter()
        .find(|c| c.mutation.kind == MutationKind::Tighten && c.reason.starts_with("over-probe"))
        .expect("a certified, feasible tighten mutation exists");
    let ms = mutated_space(&s, &tighten.mutation);
    let report = audit_space(&ms, &AuditConfig::new(seed), &Tracer::disabled());
    assert!(
        !report.over.is_empty(),
        "tightened space must surface over-witnesses ({}):\n{}",
        tighten.mutation.detail,
        report.render_text()
    );
    let oracle = Oracle::new(&ms, Tracer::disabled());
    for w in &report.over {
        // Sim-valid…
        assert!(
            oracle.check(&w.solution).is_valid(),
            "over-witness replays as sim-invalid"
        );
        // …but the CSP rejects it.
        assert!(
            !heron_csp::validate(&ms.csp, &w.solution),
            "over-witness is admitted by the CSP after all"
        );
        assert!(!w.blocking.is_empty(), "no blocking set attributed");
    }
}

#[test]
fn infeasible_space_is_reported_with_a_removal_set() {
    let s = gemm("v100", 128);
    // Tighten every capacity to 1: guaranteed root-infeasible.
    let mut csp = (*s.csp).clone();
    let one = csp.add_const("mut.one", 1);
    for t in csp.tunables() {
        csp.post_le(t, one);
    }
    let ms = GeneratedSpace {
        csp: csp.into(),
        template: s.template.clone(),
        dla: s.dla.clone(),
        workload: "gemm-128 [crushed]".into(),
    };
    if heron_csp::root_feasible(&ms.csp) {
        return; // space degenerated to all-ones and stayed feasible
    }
    let report = audit_space(&ms, &AuditConfig::new(1), &Tracer::disabled());
    assert!(report.infeasible);
    assert!(!report.clean());
    assert!(report.confirmed() >= 1);
    assert!(
        !report.infeasible_removal.is_empty(),
        "diagnosis must name a removal set"
    );
    assert!(validate_audit(&report.to_json()).is_ok());
}

#[test]
fn audit_counters_are_registered_names() {
    let s = gemm("v100", 128);
    let tracer = Tracer::manual();
    audit_space(&s, &AuditConfig::new(2023), &tracer);
    for name in [
        "audit.samples",
        "audit.oracle_checks",
        "audit.perturbations",
    ] {
        assert!(
            tracer.counter(name).unwrap_or(0) > 0,
            "counter `{name}` never incremented"
        );
    }
}

//! `heron_audit` — differential constraint-space auditor CLI
//! (DESIGN.md §11).
//!
//! ```text
//! heron_audit --dla v100 --op gemm --shape 512x512x512 [--seed S]
//!             [--samples N] [--anchors N] [--out audit.json] [--check]
//! heron_audit ... --list-mutations
//! heron_audit ... --mutate <INDEX|drop-le|drop-in|tighten-le|tighten-in|widen-le|widen-in>
//! ```
//!
//! The audit samples the generated space's CSP and replays every point
//! through the fault-free simulator oracle (under-constraint probe),
//! then perturbs known-valid schedules one knob at a time and pins any
//! oracle-valid completion back into the CSP (over-constraint probe).
//! `--check` exits non-zero when any witness is confirmed — the CI gate.
//! `--mutate` damages one posted rule first (the seeded negative test:
//! a mutated space **must** fail `--check`).

use heron_audit::{audit_space, validate_audit, AuditConfig};
use heron_bench::{flag, has_flag, must_validate, num_flag, write_file};
use heron_core::generate::{SpaceGenerator, SpaceOptions};
use heron_dla::DlaSpec;
use heron_testkit::rule_mutation::RuleMutation;
use heron_trace::Tracer;
use heron_workloads::Workload;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if has_flag(&args, "--help") {
        usage();
        return;
    }
    // Every value flag is read before any work, so one given without its
    // value exits 2 before the space is generated.
    let spec = platform(&flag(&args, "--dla").unwrap_or_else(|| "v100".into()));
    let op = flag(&args, "--op").unwrap_or_else(|| "gemm".into());
    let shape = flag(&args, "--shape").unwrap_or_else(|| "512x512x512".into());
    let workload = parse_workload(&op, &shape);
    let seed = num_flag(&args, "--seed").unwrap_or(2023);
    let mut cfg = AuditConfig::new(seed);
    if let Some(n) = num_flag(&args, "--samples") {
        cfg.samples = n;
    }
    if let Some(n) = num_flag(&args, "--anchors") {
        cfg.anchors = n;
    }
    let mutate = flag(&args, "--mutate");
    let out = flag(&args, "--out");
    let metrics_out = flag(&args, "--metrics-out");

    let dag = workload.build(spec.in_dtype);
    let mut space = match SpaceGenerator::new(spec.clone()).generate_named(
        &dag,
        &SpaceOptions::heron(),
        &workload.name,
    ) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot generate: {e}");
            std::process::exit(1);
        }
    };

    if has_flag(&args, "--list-mutations") {
        println!("{:<5} {:<8} {:<6} detail", "index", "kind", "probe");
        for (i, m) in heron_audit::corpus(&space, seed).iter().enumerate() {
            println!(
                "{:<5} {:<8} {:<6} {}",
                i,
                m.kind.tag(),
                m.kind.expected_probe(),
                m.detail
            );
        }
        return;
    }
    if let Some(which) = mutate {
        let m = select_mutation(&space, seed, &which);
        println!("mutating rule #{}: {}", m.index, m.detail);
        space = heron_audit::mutated_space(&space, &m);
    }

    let tracer = Tracer::manual();
    let report = audit_space(&space, &cfg, &tracer);
    print!("{}", report.render_text());
    if let Some(path) = out {
        let doc = report.to_json();
        must_validate("audit.json", validate_audit(&doc));
        write_file(&path, &doc.render_pretty(), "audit");
    }
    heron_bench::write_metrics_flag(metrics_out.as_deref(), &tracer);
    if has_flag(&args, "--check") && !report.clean() {
        eprintln!(
            "audit check FAILED: {} confirmed witness(es), {} invalid sample(s)",
            report.confirmed(),
            report.invalid_total
        );
        std::process::exit(1);
    }
}

fn usage() {
    eprintln!(
        "usage: heron_audit [--dla NAME] [--op OP] [--shape SHAPE] [--seed S] \
         [--samples N] [--anchors N] [--out FILE.json] [--metrics-out FILE.tsv] [--check] \
         [--list-mutations] [--mutate INDEX|drop-le|drop-in|tighten-le|tighten-in|widen-le|widen-in]"
    );
}

/// Resolves `--mutate`: a corpus index, or a `kind-target` shorthand
/// (`drop-le` = first dropped `LE` rule, `tighten-in` = first tightened
/// `IN` rule, …).
fn select_mutation(
    space: &heron_core::generate::GeneratedSpace,
    seed: u64,
    which: &str,
) -> RuleMutation {
    let corpus = heron_audit::corpus(space, seed);
    if let Ok(i) = which.parse::<usize>() {
        if i < corpus.len() {
            return corpus[i].clone();
        }
        eprintln!(
            "mutation index {i} out of range (corpus has {})",
            corpus.len()
        );
        std::process::exit(2);
    }
    let Some((kind, target)) = which.split_once('-') else {
        eprintln!("bad --mutate `{which}` (want INDEX or e.g. drop-le)");
        std::process::exit(2);
    };
    let target = target.to_uppercase();
    corpus
        .into_iter()
        .find(|m| m.kind.tag() == kind && m.detail.contains(&format!("{kind} {target}(")))
        .unwrap_or_else(|| {
            eprintln!("no `{which}` mutation applies to this space");
            std::process::exit(2);
        })
}

fn platform(name: &str) -> DlaSpec {
    heron_dla::platforms::all()
        .into_iter()
        .find(|s| s.name == name)
        .unwrap_or_else(|| {
            eprintln!("unknown platform `{name}`");
            std::process::exit(2);
        })
}

/// The workload of `--op` × `--shape`, for the operators the oracle
/// covers; exits 2 naming what is wrong.
fn parse_workload(op: &str, shape: &str) -> Workload {
    if !["gemm", "gemv", "c2d"].contains(&op) {
        eprintln!("unknown op `{op}` (heron_audit supports gemm, gemv, c2d)");
        std::process::exit(2);
    }
    heron_serve::parse_workload(op, shape).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    })
}

//! heron_serve: in-process driver for the supervised tuning service.
//!
//! No network, no daemon management: the service reads a deterministic
//! **job script** (or the built-in `--smoke` scenario), drives the
//! supervisor to completion on this process's thread pool, prints the
//! results manifest, and optionally writes per-job artifacts and the
//! service trace. The `--smoke` mode is the chaos harness the CI
//! service-robustness stage runs: it submits six jobs, kill-injects
//! three workers (two crashes, one hang), drives one job past its
//! restart budget into quarantine, overflows the admission queue, and
//! then *proves* the robustness contract — every recovered job's
//! deterministic record is byte-identical to an uninterrupted run, no
//! job was lost or double-run, and a second service run reproduces the
//! manifest byte for byte.

use heron_bench::{flag, has_flag, num_flag, read_slo, write_file};
use heron_pulse::{build_pulse, render_dashboard, render_slo_report, SloSpec};
use heron_serve::{chaos, parse_script, JobScript, JobState, Supervisor};
use heron_trace::Json;

/// The built-in chaos scenario for `--smoke` (and a worked example of
/// the job-script language).
const SMOKE_SCRIPT: &str = "\
# heron-serve chaos smoke: 6 jobs, 3 worker kills, 1 poisoned job,
# 1 admission rejection.
workers = 3
queue_capacity = 5
restart_budget = 2
checkpoint_every = 2
hang_grace_polls = 150
poll_interval_ms = 10

job g1 op=gemm shape=96x96x96 trials=40 seed=11
job g2 op=gemm shape=64x128x64 trials=40 seed=12 fault_rate=0.15
job g3 op=gemm shape=128x64x128 trials=32 seed=13
job g4 op=gemm shape=64x64x64 trials=32 seed=14
job g5 op=gemm shape=48x48x48 trials=24 seed=15
job g6 op=gemm shape=32x32x32 trials=16 seed=16

# g1: crash after round 3 (recovers from its round-2 checkpoint).
kill g1 attempt=0 round=3 kind=crash
# g2: hang at round 2 (watchdog fences the epoch and recovers).
kill g2 attempt=0 round=2 kind=hang
# g5: poisoned — every attempt dies, exhausting the restart budget.
kill g5 attempt=0 round=1 kind=crash
kill g5 attempt=1 round=2 kind=crash
kill g5 attempt=2 round=1 kind=crash
";

/// The permissive default SLO spec used when `--slo` is not given:
/// the service must settle without excessive rejection or recovery
/// latency. All thresholds are in simulated time.
const DEFAULT_SLO: &str = "\
reject_rate <= 0.5
recovery_max_s <= 600
queue_wait_s <= 1800
";

fn usage() {
    eprintln!(
        "usage: heron_serve (--jobs FILE | --smoke) [--workers N] [--manifest FILE] \
         [--trace-out FILE.jsonl] [--artifact-dir DIR] [--verify-recovery] \
         [--pulse-out FILE.json] [--slo SPEC] [--slo-report FILE] [--scope-out FILE.json] \
         [--postmortem-dir DIR]"
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if has_flag(&args, "--help") {
        usage();
        return;
    }
    let smoke = has_flag(&args, "--smoke");
    // Every value flag is read before any work, so one given without its
    // value exits 2 before a job runs.
    let jobs = flag(&args, "--jobs");
    let workers = num_flag(&args, "--workers");
    let slo = flag(&args, "--slo");
    let postmortem_dir = flag(&args, "--postmortem-dir");
    let scope_out = flag(&args, "--scope-out");
    let pulse_out = flag(&args, "--pulse-out");
    let slo_report = flag(&args, "--slo-report");
    let manifest_out = flag(&args, "--manifest");
    let trace_out = flag(&args, "--trace-out");
    let artifact_dir = flag(&args, "--artifact-dir");

    let script_text = if smoke {
        SMOKE_SCRIPT.to_string()
    } else if let Some(path) = jobs {
        match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("cannot read job script `{path}`: {e}");
                std::process::exit(1);
            }
        }
    } else {
        usage();
        std::process::exit(2);
    };
    let mut script = match parse_script(&script_text) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("bad job script: {e}");
            std::process::exit(1);
        }
    };
    if let Some(w) = workers {
        script.config.workers = w;
    }
    let slo_spec = match slo {
        Some(path) => read_slo(&path),
        None => SloSpec::parse(DEFAULT_SLO).expect("builtin SLO spec parses"),
    };

    let specs = script.jobs.clone();
    let sup = run_service(script.clone(), &slo_spec, postmortem_dir.as_deref());
    let manifest = sup.manifest();
    print!("{manifest}");
    if let Some(dir) = &postmortem_dir {
        eprintln!(
            "{} postmortem bundle(s) written to `{dir}`",
            sup.postmortems().len()
        );
    }

    let pulse_input = sup.pulse_input();
    let scope_doc = heron_scope::build_scope(&sup.timeline(), &pulse_input.jobs);
    if let Some(path) = scope_out {
        write_file(&path, &scope_doc.render_pretty(), "scope document");
    }

    let pulse_doc = build_pulse(&pulse_input, &slo_spec);
    if let Some(path) = pulse_out {
        write_file(&path, &pulse_doc.render_pretty(), "pulse document");
    }
    if let Some(path) = slo_report {
        write_file(&path, &render_slo_report(&pulse_doc), "SLO report");
    }

    if let Some(path) = manifest_out {
        write_file(&path, &manifest, "manifest");
    }
    if let Some(path) = trace_out {
        // The merged trace: supervisor events plus every completed
        // job's tagged session trace — `trace_report --job` slices it.
        let merged = sup.merged_trace_jsonl();
        if let Err(e) = std::fs::write(&path, &merged) {
            eprintln!("cannot write trace `{path}`: {e}");
            std::process::exit(1);
        }
        eprintln!(
            "merged service trace written to `{path}` ({} events)",
            merged.lines().count()
        );
    }
    if let Some(dir) = artifact_dir {
        write_artifacts(&sup, &dir);
    }

    if smoke || has_flag(&args, "--verify-recovery") {
        match chaos::verify_run(&sup, &specs) {
            Ok(verified) => println!(
                "chaos verification: {} job(s) byte-identical to uninterrupted runs",
                verified.len()
            ),
            Err(problems) => {
                eprintln!("chaos verification FAILED:\n{problems}");
                std::process::exit(1);
            }
        }
    }
    if smoke {
        smoke_assertions(&sup, script, &manifest, &slo_spec, &pulse_doc, &scope_doc);
        println!("service-robustness smoke: PASS");
    }
}

fn run_service(script: JobScript, slo: &SloSpec, postmortem_dir: Option<&str>) -> Supervisor {
    let mut sup = Supervisor::from_script(script).with_slo(slo.clone());
    if let Some(dir) = postmortem_dir {
        sup = sup.with_postmortem_dir(dir);
    }
    sup.run();
    sup
}

/// Per-job artifacts: the deterministic record, the search-health
/// `insight.json`, and the final attempt's session trace.
fn write_artifacts(sup: &Supervisor, dir: &str) {
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("cannot create artifact dir `{dir}`: {e}");
        std::process::exit(1);
    }
    let base = std::path::Path::new(dir);
    let write = |name: String, data: &str| {
        if let Err(e) = std::fs::write(base.join(&name), data) {
            eprintln!("cannot write artifact `{name}`: {e}");
            std::process::exit(1);
        }
    };
    for row in sup.rows() {
        let Some(report) = sup.report(&row.id) else {
            continue;
        };
        write(format!("{}.record.txt", row.id), &report.record);
        if !report.insight_json.is_empty() {
            write(format!("{}.insight.json", row.id), &report.insight_json);
        }
        if !report.trace_jsonl.is_empty() {
            write(format!("{}.trace.jsonl", row.id), &report.trace_jsonl);
        }
    }
    // Flight-recorder deposits: every job's last ring snapshot, whether
    // or not the job completed (crashed jobs are the whole point).
    for (job, entry) in sup.recorder().entries() {
        write(format!("{job}.ring.jsonl"), &entry.ring_jsonl);
    }
    eprintln!("artifacts written to `{dir}`");
}

/// The assertions behind the CI smoke stage. Process exit 1 with a
/// pointed message on any violation.
fn smoke_assertions(
    first: &Supervisor,
    script: JobScript,
    first_manifest: &str,
    slo_spec: &SloSpec,
    first_pulse: &Json,
    first_scope: &Json,
) {
    let fail = |msg: String| {
        eprintln!("smoke FAILED: {msg}");
        std::process::exit(1);
    };
    let jobs_in = |s: JobState| first.rows().iter().filter(|r| r.state == s).count() as u64;
    let counter = |name: &str| first.tracer().counter(name).unwrap_or(0);
    let exactly = [
        ("completed jobs", jobs_in(JobState::Completed), 4),
        ("poisoned jobs", jobs_in(JobState::Quarantined), 1),
        ("admission rejections", first.rejected().len() as u64, 1),
    ];
    for (what, got, want) in exactly {
        if got != want {
            fail(format!("expected {want} {what}, got {got}"));
        }
    }
    // Anomaly hooks: the injected hang (g2) must surface a heartbeat
    // stall *precursor* before the watchdog declares it hung, and the
    // warning must be listed in the manifest.
    let at_least = [
        ("crash detections", counter("serve.crashes_detected"), 2),
        ("hang detections", counter("serve.hangs_detected"), 1),
        ("recoveries", counter("serve.jobs_recovered"), 2),
        ("hang precursors", counter("pulse.warn.heartbeat_stall"), 1),
    ];
    for (what, got, want) in at_least {
        if got < want {
            fail(format!("expected >= {want} {what}, got {got}"));
        }
    }
    if !first_manifest.contains("warn g2 pulse.warn.heartbeat_stall") {
        fail("manifest does not list g2's heartbeat-stall warning".to_string());
    }
    // Forensics plane: every injected death leaves exactly one
    // postmortem bundle — g1's crash, g2's confirmed hang (exactly one,
    // not one per watchdog poll), g5's three crashes plus its final
    // budget-exhaustion quarantine — and every bundle validates.
    let postmortems = first.postmortems();
    let files: Vec<&str> = postmortems.iter().map(|p| p.file.as_str()).collect();
    let expected_files = [
        "g1.attempt0.crash.jsonl",
        "g2.attempt0.hang.jsonl",
        "g5.attempt0.crash.jsonl",
        "g5.attempt1.crash.jsonl",
        "g5.attempt2.crash.jsonl",
        "g5.attempt2.quarantine.jsonl",
    ];
    if files != expected_files {
        fail(format!(
            "expected postmortem bundles {expected_files:?}, got {files:?}"
        ));
    }
    for pm in postmortems {
        if let Err(e) = heron_serve::check_postmortem(&pm.bundle) {
            fail(format!("postmortem `{}` does not validate: {e}", pm.file));
        }
    }
    if first.tracer().counter("serve.postmortems") != Some(expected_files.len() as u64) {
        fail(format!(
            "serve.postmortems counter disagrees with the bundle list: {:?}",
            first.tracer().counter("serve.postmortems")
        ));
    }
    if !first_manifest.contains("postmortems = 6")
        || !first_manifest
            .contains("postmortem g2 attempt=0 reason=hang file=g2.attempt0.hang.jsonl")
    {
        fail("manifest does not list the postmortem bundles".to_string());
    }
    // Schedule forensics: the scope document validates and its critical
    // path telescopes exactly to the makespan.
    if let Err(e) = heron_scope::validate_scope(first_scope) {
        fail(format!("scope document does not validate: {e}"));
    }
    let scope_u64 = |key: &str| first_scope.get(key).and_then(Json::as_u64).unwrap_or(0);
    if scope_u64("critical_sum_ns") != scope_u64("makespan_ns") || scope_u64("makespan_ns") == 0 {
        fail(format!(
            "critical-path sum {} != makespan {}",
            scope_u64("critical_sum_ns"),
            scope_u64("makespan_ns")
        ));
    }
    // Determinism: a second full service run reproduces the manifest
    // byte for byte — states, attempts, rounds, fingerprints and all —
    // the whole pulse plane (pulse.json, SLO report, dashboard), the
    // scope document, every postmortem bundle, and every ring snapshot.
    let second = run_service(script, slo_spec, None);
    let second_manifest = second.manifest();
    if second_manifest != first_manifest {
        eprintln!("--- first run ---\n{first_manifest}");
        eprintln!("--- second run ---\n{second_manifest}");
        fail("service manifest is not deterministic across runs".to_string());
    }
    let second_input = second.pulse_input();
    let second_pulse = build_pulse(&second_input, slo_spec);
    if second_pulse.render_pretty() != first_pulse.render_pretty() {
        fail("pulse.json is not deterministic across runs".to_string());
    }
    if render_slo_report(&second_pulse) != render_slo_report(first_pulse) {
        fail("SLO report is not deterministic across runs".to_string());
    }
    if render_dashboard(&second_pulse, 3) != render_dashboard(first_pulse, 3) {
        fail("status dashboard is not deterministic across runs".to_string());
    }
    let second_scope = heron_scope::build_scope(&second.timeline(), &second_input.jobs);
    if second_scope.render_pretty() != first_scope.render_pretty() {
        fail("scope.json is not deterministic across runs".to_string());
    }
    if second.postmortems() != first.postmortems() {
        fail("postmortem bundles are not byte-identical across runs".to_string());
    }
    if second.recorder().entries() != first.recorder().entries() {
        fail("flight-recorder ring snapshots are not byte-identical across runs".to_string());
    }
    println!(
        "manifest, pulse.json, SLO report, dashboard, scope.json, {} \
         postmortem bundle(s) and {} ring snapshot(s) deterministic \
         across two service runs ({} jobs)",
        first.postmortems().len(),
        first.recorder().entries().len(),
        first.rows().len()
    );
}

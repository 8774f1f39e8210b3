//! SLI computation and `pulse.json` assembly (`heron-pulse-v1`).
//!
//! Every SLI is defined in **simulated time** over the deterministic
//! projection in [`crate::ServiceInput`] (DESIGN.md §10):
//!
//! * `queue_wait_s` — total simulated time the job spent waiting to be
//!   (re)assigned: the sum of its recovery backoffs,
//!   `Σ_{k=1..recoveries} base·2^(k-1)`. Initial assignment consumes
//!   no simulated time.
//! * `recovery_max_s` — the largest single crash-detect→resumed
//!   latency, `base·2^(recoveries-1)` (0 with no recoveries).
//! * `makespan_s` — final attempt's simulated wall-clock plus the
//!   queue wait.
//! * `ttfc_s` — time to first checkpoint within the final attempt: the
//!   close timestamp of its `checkpoint_every`-th top-level
//!   `tuner.step` span (the attempt's wall-clock when it ran fewer
//!   rounds than a checkpoint period).
//! * `sol_per_kprop` — solver throughput, `1000·csp.solutions /
//!   csp.propagations` from the attempt's metrics snapshot.
//! * `rank_accuracy_final` — the last recorded per-round
//!   `batch_rank_accuracy` from the job's insight document.
//!
//! The document also carries per-round trajectories
//! (`batch_rank_accuracy`, `solver_propagations`), the top hottest
//! spans per job (via the trace slicer), and the SLO verdicts
//! ([`attach_slo`]).

use heron_trace::json::{self, Json};
use heron_trace::{check_trace, Json as J};

use crate::input::{JobInput, ServiceInput};
use crate::slo::{SloOp, SloSpec};

/// The schema identifier stamped into every document.
pub const PULSE_SCHEMA: &str = "heron-pulse-v1";

/// How many hottest spans each job records in `pulse.json`.
pub const HOT_SPANS: usize = 5;

fn num(v: f64) -> Json {
    Json::Num(v)
}

fn opt_num(v: Option<f64>) -> Json {
    v.map_or(Json::Null, Json::Num)
}

fn s(v: &str) -> Json {
    Json::Str(v.to_string())
}

/// Solver throughput from a metrics TSV snapshot:
/// `1000 · csp.solutions / csp.propagations`, or `None` when either
/// counter is missing or no propagation happened.
pub fn sol_per_kprop_from_tsv(tsv: &str) -> Option<f64> {
    let mut solutions: Option<f64> = None;
    let mut propagations: Option<f64> = None;
    for line in tsv.lines() {
        let cols: Vec<&str> = line.split('\t').collect();
        if cols.len() < 3 {
            continue;
        }
        match cols[0] {
            "csp.solutions" => solutions = cols[2].parse().ok(),
            "csp.propagations" => propagations = cols[2].parse().ok(),
            _ => {}
        }
    }
    match (solutions, propagations) {
        (Some(sol), Some(prop)) if prop > 0.0 => Some(1000.0 * sol / prop),
        _ => None,
    }
}

/// The simulated backoff before recovery `k`: `base·2^(k−1)` seconds
/// in whole nanoseconds, 0 for `k = 0`. The one backoff formula: the
/// service policy waits it, and pulse, postmortems and scope report it.
pub fn backoff_ns(base_s: f64, k: u32) -> u64 {
    if k == 0 {
        return 0;
    }
    (base_s * f64::powi(2.0, k as i32 - 1) * 1e9).round() as u64
}

/// The two recovery SLIs of a job after `recoveries` recoveries, in
/// simulated seconds: `queue_wait_s`, the sum of its backoffs, and
/// `recovery_max_s`, the last and largest one. `pulse.json` and the
/// postmortem's verdicts at time of death both report these.
pub fn recovery_slis(base_s: f64, recoveries: u32) -> (f64, f64) {
    let wait_ns: u64 = (1..=recoveries).map(|k| backoff_ns(base_s, k)).sum();
    (
        wait_ns as f64 / 1e9,
        backoff_ns(base_s, recoveries) as f64 / 1e9,
    )
}

/// Per-round trajectories pulled from a job's insight document.
fn trajectories(insight_json: &str) -> (Json, Option<f64>) {
    let mut rank = Vec::new();
    let mut props = Vec::new();
    let mut rank_final = None;
    if let Ok(doc) = json::parse(insight_json) {
        if let Some(J::Arr(rounds)) = doc.get("rounds") {
            for round in rounds {
                let acc = round.get("batch_rank_accuracy").and_then(J::as_f64);
                if let Some(a) = acc {
                    rank_final = Some(a);
                }
                rank.push(opt_num(acc));
                props.push(opt_num(
                    round.get("solver_propagations").and_then(J::as_f64),
                ));
            }
        }
    }
    let traj = Json::Obj(vec![
        ("batch_rank_accuracy".to_string(), Json::Arr(rank)),
        ("solver_propagations".to_string(), Json::Arr(props)),
    ]);
    (traj, rank_final)
}

/// The job's hottest spans (name, count, total seconds) and its
/// time-to-first-checkpoint, both from the sliced session trace.
fn slice_stats(job: &JobInput, checkpoint_every: u64) -> (Json, Option<f64>) {
    let Ok(summary) = check_trace(&job.trace_jsonl) else {
        return (Json::Arr(Vec::new()), None);
    };
    if summary.spans.is_empty() {
        return (Json::Arr(Vec::new()), None);
    }
    // Hottest spans: aggregate by name, total-time descending,
    // name-ascending on ties.
    let mut by_name: Vec<(String, u64, u64)> = Vec::new();
    for span in &summary.spans {
        match by_name.iter_mut().find(|(n, _, _)| *n == span.name) {
            Some((_, count, total)) => {
                *count += 1;
                *total += span.dur_ns();
            }
            None => by_name.push((span.name.clone(), 1, span.dur_ns())),
        }
    }
    by_name.sort_by(|a, b| b.2.cmp(&a.2).then_with(|| a.0.cmp(&b.0)));
    let hot: Vec<Json> = by_name
        .iter()
        .take(HOT_SPANS)
        .map(|(name, count, total_ns)| {
            Json::Obj(vec![
                ("name".to_string(), s(name)),
                ("count".to_string(), num(*count as f64)),
                ("total_s".to_string(), num(*total_ns as f64 / 1e9)),
            ])
        })
        .collect();
    // Time to first checkpoint: close of the checkpoint_every-th
    // top-level tuner.step, else the attempt's whole wall-clock.
    let steps: Vec<u64> = summary
        .spans
        .iter()
        .filter(|sp| sp.parent == 0 && sp.name == "tuner.step")
        .map(|sp| sp.t_close_ns)
        .collect();
    let k = checkpoint_every.max(1) as usize;
    let ttfc_ns = if steps.is_empty() {
        job.wall_ns
    } else {
        steps.get(k - 1).copied().unwrap_or(job.wall_ns)
    };
    (Json::Arr(hot), Some(ttfc_ns as f64 / 1e9))
}

fn job_json(job: &JobInput, input: &ServiceInput) -> Json {
    let (queue_wait_s, recovery_max_s) = recovery_slis(input.config.backoff_base_s, job.recoveries);
    let completed = job.state == "completed";
    let wall_s = job.wall_ns as f64 / 1e9;
    let (hot_spans, ttfc_s) = slice_stats(job, input.config.checkpoint_every);
    let (traj, rank_final) = trajectories(&job.insight_json);
    let slis = Json::Obj(vec![
        ("queue_wait_s".to_string(), num(queue_wait_s)),
        ("recovery_max_s".to_string(), num(recovery_max_s)),
        (
            "makespan_s".to_string(),
            if completed {
                num(wall_s + queue_wait_s)
            } else {
                Json::Null
            },
        ),
        ("ttfc_s".to_string(), opt_num(ttfc_s)),
        (
            "sol_per_kprop".to_string(),
            opt_num(sol_per_kprop_from_tsv(&job.metrics_tsv)),
        ),
        ("rank_accuracy_final".to_string(), opt_num(rank_final)),
    ]);
    Json::Obj(vec![
        ("id".to_string(), s(&job.id)),
        ("state".to_string(), s(&job.state)),
        ("attempts".to_string(), num(f64::from(job.attempts))),
        ("recoveries".to_string(), num(f64::from(job.recoveries))),
        ("postmortems".to_string(), num(job.postmortems as f64)),
        ("rounds".to_string(), num(job.rounds as f64)),
        ("trials".to_string(), num(job.trials as f64)),
        (
            "termination".to_string(),
            job.termination.as_deref().map_or(Json::Null, s),
        ),
        ("wall_s".to_string(), num(wall_s)),
        (
            "warnings".to_string(),
            Json::Arr(job.warnings.iter().map(|w| s(w)).collect()),
        ),
        ("slis".to_string(), slis),
        ("trajectories".to_string(), traj),
        ("hot_spans".to_string(), hot_spans),
    ])
}

/// Assembles the `pulse.json` document for a finished service run and
/// evaluates the SLO spec into its `slo` section.
pub fn build_pulse(input: &ServiceInput, spec: &SloSpec) -> Json {
    let count = |state: &str| input.jobs.iter().filter(|j| j.state == state).count() as f64;
    let admitted = input.jobs.len() as f64;
    let rejected = input.rejected.len() as f64;
    let reject_rate = if admitted + rejected > 0.0 {
        rejected / (admitted + rejected)
    } else {
        0.0
    };
    let warnings: usize = input.jobs.iter().map(|j| j.warnings.len()).sum();
    let service = Json::Obj(vec![
        ("jobs".to_string(), num(admitted)),
        ("completed".to_string(), num(count("completed"))),
        ("preempted".to_string(), num(count("preempted"))),
        ("quarantined".to_string(), num(count("quarantined"))),
        ("queued".to_string(), num(count("queued"))),
        ("rejected".to_string(), num(rejected)),
        ("reject_rate".to_string(), num(reject_rate)),
        ("warnings".to_string(), num(warnings as f64)),
        ("workers".to_string(), num(input.config.workers as f64)),
    ]);
    let jobs = Json::Arr(input.jobs.iter().map(|j| job_json(j, input)).collect());
    let doc = Json::Obj(vec![
        ("schema".to_string(), s(PULSE_SCHEMA)),
        ("service".to_string(), service),
        ("jobs".to_string(), jobs),
    ]);
    attach_slo(doc, spec)
}

/// The `(job, value)` samples a metric name resolves to: the service
/// SLI of that name if one exists, else the non-null per-job SLI from
/// every job. Unknown names resolve to no samples (the rule passes and
/// its report row says so).
fn metric_samples(doc: &Json, metric: &str) -> Vec<(Option<String>, f64)> {
    if let Some(v) = doc.get("service").and_then(|svc| svc.get(metric)) {
        if let Some(n) = v.as_f64() {
            return vec![(None, n)];
        }
    }
    let mut samples = Vec::new();
    if let Some(J::Arr(jobs)) = doc.get("jobs") {
        for job in jobs {
            let id = job.get("id").and_then(J::as_str).unwrap_or("?").to_string();
            if let Some(v) = job
                .get("slis")
                .and_then(|slis| slis.get(metric))
                .and_then(J::as_f64)
            {
                samples.push((Some(id), v));
            }
        }
    }
    samples
}

/// Evaluates `spec` against the SLIs already in `doc` and replaces (or
/// adds) the document's `slo` section. `heron_status --slo` uses this
/// to re-judge an existing `pulse.json` under a different spec.
pub fn attach_slo(doc: Json, spec: &SloSpec) -> Json {
    let mut rules = Vec::new();
    let (mut pass, mut warn, mut breach) = (0u32, 0u32, 0u32);
    for rule in &spec.rules {
        let samples = metric_samples(&doc, &rule.metric);
        // Worst sample: the one closest to (or furthest past) the bound.
        let worst = samples.iter().reduce(|a, b| match rule.op {
            SloOp::Le => {
                if b.1 > a.1 {
                    b
                } else {
                    a
                }
            }
            SloOp::Ge => {
                if b.1 < a.1 {
                    b
                } else {
                    a
                }
            }
        });
        let verdict = match worst {
            None => "pass",
            Some((_, v)) if rule.op.violates(*v, rule.threshold) => "breach",
            Some((_, v)) if rule.warn.is_some_and(|w| rule.op.violates(*v, w)) => "warn",
            Some(_) => "pass",
        };
        match verdict {
            "breach" => breach += 1,
            "warn" => warn += 1,
            _ => pass += 1,
        }
        rules.push(Json::Obj(vec![
            ("metric".to_string(), s(&rule.metric)),
            ("op".to_string(), s(rule.op.symbol())),
            ("threshold".to_string(), num(rule.threshold)),
            ("warn".to_string(), opt_num(rule.warn)),
            ("value".to_string(), opt_num(worst.map(|(_, v)| *v))),
            (
                "job".to_string(),
                worst
                    .and_then(|(job, _)| job.as_deref())
                    .map_or(Json::Null, s),
            ),
            ("verdict".to_string(), s(verdict)),
        ]));
    }
    let slo = Json::Obj(vec![
        ("rules".to_string(), Json::Arr(rules)),
        ("pass".to_string(), num(f64::from(pass))),
        ("warn".to_string(), num(f64::from(warn))),
        ("breach".to_string(), num(f64::from(breach))),
    ]);
    match doc {
        Json::Obj(mut members) => {
            members.retain(|(k, _)| k != "slo");
            members.push(("slo".to_string(), slo));
            Json::Obj(members)
        }
        other => other,
    }
}

/// The number of breached rules in a pulse document (0 when absent).
pub fn breach_count(doc: &Json) -> u64 {
    doc.get("slo")
        .and_then(|slo| slo.get("breach"))
        .and_then(J::as_u64)
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::input::PulseConfig;
    use heron_trace::Tracer;

    fn session_trace(steps: usize, per_step_s: f64) -> (String, u64) {
        let t = Tracer::manual();
        for _ in 0..steps {
            let _s = t.span("tuner.step");
            {
                let _m = t.span("measure.batch");
                t.advance_s(per_step_s / 2.0);
            }
            t.advance_s(per_step_s / 2.0);
        }
        (t.to_jsonl(), t.now_ns())
    }

    fn job(id: &str, recoveries: u32) -> JobInput {
        let (trace_jsonl, wall_ns) = session_trace(4, 2.0);
        JobInput {
            id: id.to_string(),
            state: "completed".to_string(),
            attempts: recoveries + 1,
            recoveries,
            rounds: 4,
            trials: 16,
            termination: Some("trials-exhausted".to_string()),
            warnings: Vec::new(),
            insight_json: String::new(),
            metrics_tsv: "metric\ttype\tvalue\ncsp.solutions\tcounter\t50\ncsp.propagations\tcounter\t20000\n".to_string(),
            wall_ns,
            trace_jsonl,
            postmortems: 0,
        }
    }

    fn input(jobs: Vec<JobInput>) -> ServiceInput {
        ServiceInput {
            config: PulseConfig {
                backoff_base_s: 0.5,
                checkpoint_every: 2,
                workers: 2,
            },
            jobs,
            rejected: vec![("r1".to_string(), "queue full".to_string())],
        }
    }

    #[test]
    fn slis_are_exact_in_simulated_time() {
        let doc = build_pulse(&input(vec![job("a", 2)]), &SloSpec::empty());
        let jobs = doc.get("jobs").and_then(Json::as_arr).unwrap();
        let slis = jobs[0].get("slis").unwrap();
        let get = |k: &str| slis.get(k).and_then(Json::as_f64).unwrap();
        // backoffs 0.5 + 1.0; last backoff 1.0; wall 8s; ttfc = close of
        // 2nd step = 4s; 1000·50/20000 = 2.5.
        assert_eq!(get("queue_wait_s"), 1.5);
        assert_eq!(get("recovery_max_s"), 1.0);
        assert_eq!(get("makespan_s"), 9.5);
        assert_eq!(get("ttfc_s"), 4.0);
        assert_eq!(get("sol_per_kprop"), 2.5);
        assert_eq!(slis.get("rank_accuracy_final"), Some(&Json::Null));
        // reject_rate = 1 rejected / (1 admitted + 1 rejected).
        assert_eq!(
            doc.get("service").unwrap().get("reject_rate"),
            Some(&Json::Num(0.5))
        );
        let hot = jobs[0].get("hot_spans").and_then(Json::as_arr).unwrap();
        assert_eq!(
            hot[0].get("name").and_then(Json::as_str),
            Some("tuner.step")
        );
        assert_eq!(hot[0].get("total_s").and_then(Json::as_f64), Some(8.0));
    }

    #[test]
    fn slo_verdicts_pass_warn_breach_and_name_the_worst_job() {
        let spec = SloSpec::parse(
            "\
reject_rate <= 0.6
queue_wait_s <= 1.0
sol_per_kprop >= 1.0 warn 3.0
",
        )
        .unwrap();
        let doc = build_pulse(&input(vec![job("a", 0), job("b", 2)]), &spec);
        let slo = doc.get("slo").unwrap();
        assert_eq!(slo.get("pass").and_then(Json::as_u64), Some(1));
        assert_eq!(slo.get("warn").and_then(Json::as_u64), Some(1));
        assert_eq!(slo.get("breach").and_then(Json::as_u64), Some(1));
        assert_eq!(breach_count(&doc), 1);
        let rules = slo.get("rules").and_then(Json::as_arr).unwrap();
        // queue_wait_s breaches via job b (1.5 > 1.0).
        assert_eq!(
            rules[1].get("verdict").and_then(Json::as_str),
            Some("breach")
        );
        assert_eq!(rules[1].get("job").and_then(Json::as_str), Some("b"));
        assert_eq!(rules[1].get("value").and_then(Json::as_f64), Some(1.5));
        // sol_per_kprop 2.5 ≥ 1.0 but < warn 3.0.
        assert_eq!(rules[2].get("verdict").and_then(Json::as_str), Some("warn"));
        // Re-judging under a looser spec flips the breach to pass.
        let loose = SloSpec::parse("queue_wait_s <= 10\n").unwrap();
        let rejudged = attach_slo(doc, &loose);
        assert_eq!(breach_count(&rejudged), 0);
    }

    #[test]
    fn document_is_byte_stable() {
        let spec = SloSpec::parse("reject_rate <= 1\n").unwrap();
        let a = build_pulse(&input(vec![job("a", 1)]), &spec).render_pretty();
        let b = build_pulse(&input(vec![job("a", 1)]), &spec).render_pretty();
        assert_eq!(a, b);
        assert!(a.contains("heron-pulse-v1"));
    }
}

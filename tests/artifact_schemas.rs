//! One schema test across every `heron-*-v1` artifact.
//!
//! Each document is produced by its real writer from inputs rich enough
//! that every array holds at least one element somewhere. Then:
//!
//! * the unmodified document validates;
//! * deleting any single object member is rejected with an error naming
//!   that member's exact path (`<root>.<path>: …`);
//! * retyping any single leaf to a different JSON type is rejected the
//!   same way;
//!
//! except for the optional members in [`optional`].

use std::collections::BTreeSet;

use heron::audit::{
    validate_audit, AuditReport, BlockingEntry, DiffEntry, OverWitness, UnderWitness,
};
use heron::csp::Solution;
use heron::insight::{analyze, validate_insight, RefitRecord, RoundRecord, SearchLog};
use heron::pulse::{build_pulse, validate_pulse, JobInput, PulseConfig, ServiceInput, SloSpec};
use heron::scope::{build_scope, validate_scope};
use heron::serve::postmortem::build;
use heron::serve::{check_postmortem, DeathReport, FlightEntry, JobState, TimedRun, Timeline};
use heron::trace::json::parse;
use heron::trace::{check_ring_snapshot, Json, TraceContext, Tracer};

/// A produced document and the validator that guards it.
struct Artifact {
    text: String,
    /// `None`: one JSON document rooted at `$`. `Some`: JSONL, with the
    /// error root of each line.
    line_roots: Option<Vec<String>>,
    check: fn(&str) -> Result<(), String>,
}

#[derive(Clone, Debug)]
enum Seg {
    Key(String),
    Index(usize),
}

fn show(root: &str, path: &[Seg]) -> String {
    let mut out = root.to_string();
    for seg in path {
        match seg {
            Seg::Key(k) => out += &format!(".{k}"),
            Seg::Index(i) => out += &format!("[{i}]"),
        }
    }
    out
}

/// Members a document may omit: a trace event's `ctx` tag and free-form
/// `fields` map.
fn optional(path: &[Seg]) -> bool {
    let keys: Vec<&str> = path
        .iter()
        .rev()
        .take(2)
        .map(|seg| match seg {
            Seg::Key(k) => k.as_str(),
            Seg::Index(_) => "",
        })
        .collect();
    matches!(keys[0], "ctx" | "fields") || keys.get(1) == Some(&"fields")
}

/// Every value below the root, with its path.
fn values<'a>(v: &'a Json, path: &mut Vec<Seg>, out: &mut Vec<(Vec<Seg>, &'a Json)>) {
    let children: Vec<(Seg, &Json)> = match v {
        Json::Obj(members) => members
            .iter()
            .map(|(k, c)| (Seg::Key(k.clone()), c))
            .collect(),
        Json::Arr(items) => items
            .iter()
            .enumerate()
            .map(|(i, c)| (Seg::Index(i), c))
            .collect(),
        _ => Vec::new(),
    };
    for (seg, child) in children {
        path.push(seg);
        out.push((path.clone(), child));
        values(child, path, out);
        path.pop();
    }
}

/// `doc` with the value at `path` deleted (`None`) or replaced.
fn edited(doc: &Json, path: &[Seg], with: Option<Json>) -> Json {
    let mut doc = doc.clone();
    let mut at = &mut doc;
    for seg in &path[..path.len() - 1] {
        at = match (seg, at) {
            (Seg::Key(k), Json::Obj(m)) => &mut m.iter_mut().find(|(mk, _)| mk == k).unwrap().1,
            (Seg::Index(i), Json::Arr(items)) => &mut items[*i],
            _ => unreachable!("paths come from the document"),
        };
    }
    match (&path[path.len() - 1], at, with) {
        (Seg::Key(k), Json::Obj(m), None) => m.retain(|(mk, _)| mk != k),
        (Seg::Key(k), Json::Obj(m), Some(v)) => {
            m.iter_mut().find(|(mk, _)| mk == k).unwrap().1 = v;
        }
        (Seg::Index(i), Json::Arr(items), Some(v)) => items[*i] = v,
        _ => unreachable!("only members are deleted"),
    }
    doc
}

/// A leaf of a different JSON type.
fn retyped(leaf: &Json) -> Json {
    match leaf {
        Json::Num(_) => Json::Str("0".into()),
        Json::Str(_) => Json::Num(0.0),
        Json::Bool(_) => Json::Str("true".into()),
        _ => Json::Bool(false),
    }
}

fn names(err: &str, path: &str) -> bool {
    let at = format!("{path}: ");
    err.starts_with(&at) || err.contains(&format!(": {at}"))
}

fn assert_every_member_checked(a: Artifact) {
    (a.check)(&a.text).unwrap_or_else(|e| panic!("unmodified document rejected: {e}"));
    let units: Vec<&str> = match a.line_roots {
        Some(_) => a.text.lines().collect(),
        None => vec![a.text.as_str()],
    };
    let (mut empty, mut filled) = (BTreeSet::new(), BTreeSet::new());
    for (u, unit) in units.iter().enumerate() {
        let root = a.line_roots.as_ref().map_or("$", |roots| roots[u].as_str());
        let doc = parse(unit).expect("writer output parses");
        let with_unit = |doc: Json| match a.line_roots {
            None => doc.render_pretty(),
            Some(_) => {
                let mut lines: Vec<String> = units.iter().map(|l| l.to_string()).collect();
                lines[u] = doc.render();
                lines.join("\n") + "\n"
            }
        };
        let mut all = Vec::new();
        values(&doc, &mut Vec::new(), &mut all);
        for (path, value) in all {
            let shown = show(root, &path);
            if let Json::Arr(items) = value {
                let shape: String = shown
                    .split('[')
                    .map(|s| s.rsplit(']').next().unwrap())
                    .collect();
                if items.is_empty() {
                    &mut empty
                } else {
                    &mut filled
                }
                .insert(shape);
            }
            let mut probes = Vec::new();
            if matches!(path.last(), Some(Seg::Key(_))) && !optional(&path) {
                probes.push(("deleting", edited(&doc, &path, None)));
            }
            if !matches!(value, Json::Arr(_) | Json::Obj(_)) {
                probes.push(("retyping", edited(&doc, &path, Some(retyped(value)))));
            }
            for (what, probe) in probes {
                match (a.check)(&with_unit(probe)) {
                    Ok(()) => panic!("{what} `{shown}` was accepted"),
                    Err(e) => assert!(names(&e, &shown), "{what} `{shown}` reported `{e}`"),
                }
            }
        }
    }
    let uncovered: Vec<_> = empty.difference(&filled).collect();
    assert!(uncovered.is_empty(), "arrays never filled: {uncovered:?}");
}

/// Three rounds of spans, fields and points on a manual clock.
fn session(ctx: Option<TraceContext>) -> Tracer {
    let t = Tracer::manual();
    t.set_context(ctx);
    for round in 0..3 {
        let _step = t.span_with("tuner.step", || vec![("round", round.to_string())]);
        {
            let _m = t.span("measure.batch");
            t.advance_s(0.5);
        }
        t.point_with("tuner.round_done", || vec![("best", "1.5".to_string())]);
    }
    t
}

fn search_log() -> SearchLog {
    let mut log = SearchLog::new("gemm-64", "v100", 7, 4);
    log.set_vars(vec![("tile_x".to_string(), 8), ("tile_y".to_string(), 4)]);
    log.observe_assignment(&[2, 1]);
    for i in 0..8u32 {
        let mut r = RoundRecord::new(i);
        // Round 0 improves once; rounds 2..=7 stagnate.
        r.best_gflops = if i == 0 { 10.0 } else { 20.0 };
        r.trials_done = (i + 1) * 4;
        r.batch_size = 4;
        r.population = 8;
        r.distinct_solutions = 6;
        r.diversity = 0.75;
        r.entropy_bits = 1.5;
        r.batch_rank_accuracy = (i > 0).then_some(0.8);
        r.batch_spearman = (i > 0).then_some(0.6);
        r.stalled = i == 7;
        log.push_round(r);
    }
    for round in [1, 4] {
        log.push_refit(RefitRecord {
            round,
            samples: 8 * round,
            train_rank_accuracy: 0.9,
            train_spearman: 0.8,
            top_importance: vec![(round, 0.5), (2, 0.25)],
        });
    }
    log
}

fn insight_json() -> Json {
    let log = search_log();
    analyze(&log).to_json(&log)
}

fn jsonl(header: &str, body_lines: usize) -> Option<Vec<String>> {
    let body = (1..=body_lines).map(|n| format!("line {n}"));
    Some(std::iter::once(header.to_string()).chain(body).collect())
}

#[test]
fn pulse_json() {
    let job = |id: &str, completed: bool| JobInput {
        id: id.into(),
        state: if completed {
            "completed"
        } else {
            "quarantined"
        }
        .into(),
        attempts: 2,
        recoveries: 1,
        rounds: 3,
        trials: 12,
        termination: completed.then(|| "trials-exhausted".into()),
        warnings: if completed {
            vec!["pulse.warn.heartbeat_stall attempt=0".into()]
        } else {
            Vec::new()
        },
        insight_json: if completed {
            insight_json().render()
        } else {
            String::new()
        },
        metrics_tsv:
            "metric\ttype\tvalue\ncsp.solutions\tcounter\t50\ncsp.propagations\tcounter\t20000\n"
                .into(),
        wall_ns: 1_500_000_000,
        trace_jsonl: if completed {
            session(None).to_jsonl()
        } else {
            String::new()
        },
        postmortems: 1,
    };
    let input = ServiceInput {
        config: PulseConfig {
            backoff_base_s: 0.5,
            checkpoint_every: 2,
            workers: 2,
        },
        jobs: vec![job("a", true), job("b", false)],
        rejected: vec![("r".into(), "queue full".into())],
    };
    let spec =
        SloSpec::parse("reject_rate <= 0.5\nmakespan_s <= 60 warn 30\nno_such_sli <= 1\n").unwrap();
    assert_every_member_checked(Artifact {
        text: build_pulse(&input, &spec).render_pretty(),
        line_roots: None,
        check: |t| validate_pulse(&parse(t)?),
    });
}

#[test]
fn scope_json() {
    // One slot: `a` crashes at 1 s and its retry holds the slot through a
    // 0.5 s backoff, then runs 0.5 s; `b` waits in the queue for it.
    let run = |job, attempt, start_ns, run_ns, end_ns, cause| TimedRun {
        job,
        attempt,
        slot: 0,
        start_ns,
        run_ns,
        end_ns,
        cause,
    };
    let timeline = Timeline {
        workers: 1,
        jobs: vec![
            ("a".into(), JobState::Completed),
            ("b".into(), JobState::Completed),
        ],
        runs: vec![
            run(0, 0, 0, 0, 1_000_000_000, None),
            run(0, 1, 1_000_000_000, 1_500_000_000, 2_000_000_000, Some(0)),
            run(1, 0, 2_000_000_000, 2_000_000_000, 2_300_000_000, Some(1)),
        ],
        unplaced: 0,
    };
    let profiles = [JobInput {
        id: "a".into(),
        trace_jsonl: session(None).to_jsonl(),
        ..JobInput::default()
    }];
    assert_every_member_checked(Artifact {
        text: build_scope(&timeline, &profiles).render_pretty(),
        line_roots: None,
        check: |t| validate_scope(&parse(t)?),
    });
}

#[test]
fn insight_json_document() {
    assert_every_member_checked(Artifact {
        text: insight_json().render_pretty(),
        line_roots: None,
        check: |t| validate_insight(&parse(t)?),
    });
}

#[test]
fn ring_snapshot() {
    let text = session(Some(TraceContext::new("g1", 1, 2))).tail_jsonl(64);
    let events = text.lines().count() - 1;
    assert_every_member_checked(Artifact {
        text,
        line_roots: jsonl("ring header", events),
        check: |t| check_ring_snapshot(t).map(drop),
    });
}

#[test]
fn postmortem_bundle() {
    let t = session(Some(TraceContext::new("g1", 1, 2)));
    let flight = FlightEntry {
        attempt: 1,
        epoch: 2,
        rounds: 3,
        sim_ns: t.now_ns(),
        ring_jsonl: t.tail_jsonl(64),
    };
    let slo = SloSpec::parse("queue_wait_s <= 60 warn 30\nrecovery_max_s <= 0.1\n").unwrap();
    let bundle = build(&DeathReport {
        job: "g1",
        attempt: 1,
        epoch: 2,
        reason: "crash",
        recoveries: 1,
        restart_budget: 2,
        backoff_base_s: 0.5,
        checkpoint: Some("seed = 7\n"),
        flight: Some(&flight),
        slo: &slo,
    })
    .bundle;
    let mut roots = jsonl("ring header", bundle.lines().count() - 2).unwrap();
    roots.insert(0, "postmortem header".into());
    assert_every_member_checked(Artifact {
        text: bundle,
        line_roots: Some(roots),
        check: |t| check_postmortem(t).map(drop),
    });
}

#[test]
fn audit_json() {
    let report = AuditReport {
        workload: "gemm-128".into(),
        dla: "v100".into(),
        seed: 7,
        samples_cfg: 32,
        anchors_cfg: 4,
        max_domain_cfg: 16,
        distinct: 30,
        invalid_total: 1,
        boundary_invalid: 1,
        perturbations: 40,
        anchors_used: 2,
        infeasible: false,
        infeasible_removal: vec![(3, "LE(smem, 49152)".into())],
        under: vec![UnderWitness {
            solution: Solution::new(vec![4, -2]),
            tag: "smem-overflow".into(),
            rule: "C4",
            message: "shared memory exceeded".into(),
            diff: vec![DiffEntry {
                var: "tile_x".into(),
                value: 4,
                reference: 2,
            }],
        }],
        over: vec![OverWitness {
            solution: Solution::new(vec![8, 1]),
            var: "tile_y".into(),
            value: 1,
            anchor: 0xfeed,
            blocking: vec![BlockingEntry {
                index: 5,
                constraint: "IN(tile_y, {2, 4})".into(),
                rule: "C2",
            }],
            removal: vec![(5, "IN(tile_y, {2, 4})".into())],
            diagnosed: true,
        }],
    };
    assert_every_member_checked(Artifact {
        text: report.to_json().render_pretty(),
        line_roots: None,
        check: |t| validate_audit(&parse(t)?),
    });
}

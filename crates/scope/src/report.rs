//! `scope.json` assembly and the text timeline renderer.
//!
//! [`build_scope`] folds a run's [`Timeline`], cut into
//! [`crate::segments::Segment`]s, plus per-job trace profiles into one
//! `heron-scope-v1` document; [`render_timeline`] draws it as a
//! fixed-width per-worker occupancy chart with a critical-path row. Both
//! are pure functions of the input, so two same-seed service runs render
//! byte-identical output.

use heron_trace::Json;

use heron_pulse::{JobDigest, JobInput};
use heron_serve::Timeline;

use crate::segments::{makespan_ns, segments, Phase, Segment};

/// The schema identifier stamped into every document.
pub const SCOPE_SCHEMA: &str = "heron-scope-v1";

fn num(v: f64) -> Json {
    Json::Num(v)
}

fn ns(v: u64) -> Json {
    Json::Num(v as f64)
}

fn s(v: &str) -> Json {
    Json::Str(v.to_string())
}

fn obj<const N: usize>(members: [(&str, Json); N]) -> Json {
    let mut out = Vec::with_capacity(N);
    for (key, value) in members {
        out.push((key.to_string(), value));
    }
    Json::Obj(out)
}

fn worker(seg: &Segment) -> Json {
    seg.worker.map_or(Json::Null, |w| ns(w as u64))
}

/// Per-job span profile from its session's digest: event counts and the
/// top-3 span names by total duration.
fn profile_json(d: &JobDigest) -> Json {
    let top = d.spans.iter().take(3).map(|t| {
        obj([
            ("name", s(&t.name)),
            ("count", ns(t.count)),
            ("total_ns", ns(t.total_ns)),
        ])
    });
    obj([
        ("events", ns(d.events)),
        ("points", ns(d.points)),
        ("top_spans", Json::Arr(top.collect())),
    ])
}

/// Assembles the `scope.json` document for a finished service run from
/// the policy's timeline; each job's profile reads its digest from the
/// pulse projection (`Supervisor::pulse_input`).
pub fn build_scope(timeline: &Timeline, profiles: &[JobInput]) -> Json {
    let segs = segments(timeline);
    let makespan_ns = makespan_ns(&segs);
    let id = |seg: &Segment| s(&timeline.jobs[seg.job].0);
    let jobs = timeline.jobs.iter().enumerate().map(|(j, (job, state))| {
        // Nanoseconds per phase, indexed by `Phase as usize`.
        let mut total = [0; 3];
        let mut segments = Vec::new();
        for seg in segs.iter().filter(|x| x.job == j) {
            total[seg.phase as usize] += seg.dur_ns();
            segments.push(obj([
                ("phase", s(seg.phase.as_str())),
                ("worker", worker(seg)),
                ("attempt", ns(u64::from(seg.attempt))),
                ("start_ns", ns(seg.start_ns)),
                ("end_ns", ns(seg.end_ns)),
                ("slack_ns", ns(seg.slack_ns)),
            ]));
        }
        let digest = profiles.iter().find(|p| p.id == *job).map(|p| &p.digest);
        obj([
            ("id", s(job)),
            ("state", Json::Str(state.to_string())),
            ("queue_ns", ns(total[Phase::Queue as usize])),
            ("run_ns", ns(total[Phase::Run as usize])),
            ("backoff_ns", ns(total[Phase::Backoff as usize])),
            ("segments", Json::Arr(segments)),
            (
                "profile",
                profile_json(digest.unwrap_or(&JobDigest::default())),
            ),
        ])
    });
    // Per-slot occupancy: only runs keep a slot busy, so a backoff the
    // slot is held through counts as idle.
    let lanes = (0..timeline.workers).map(|l| {
        let (mut busy_ns, mut runs) = (0, Vec::new());
        for seg in segs
            .iter()
            .filter(|x| x.phase == Phase::Run && x.worker == Some(l))
        {
            busy_ns += seg.dur_ns();
            runs.push(obj([
                ("job", id(seg)),
                ("attempt", ns(u64::from(seg.attempt))),
                ("start_ns", ns(seg.start_ns)),
                ("end_ns", ns(seg.end_ns)),
            ]));
        }
        let utilization = if makespan_ns > 0 {
            busy_ns as f64 / makespan_ns as f64
        } else {
            0.0
        };
        obj([
            ("worker", ns(l as u64)),
            ("busy_ns", ns(busy_ns)),
            ("idle_ns", ns(makespan_ns - busy_ns)),
            ("utilization", num(utilization)),
            ("segments", Json::Arr(runs)),
        ])
    });
    let critical = segs.iter().filter(|x| x.critical);
    let critical_sum_ns: u64 = critical.clone().map(Segment::dur_ns).sum();
    let critical = critical.map(|seg| {
        obj([
            ("job", id(seg)),
            ("phase", s(seg.phase.as_str())),
            ("attempt", ns(u64::from(seg.attempt))),
            ("worker", worker(seg)),
            ("start_ns", ns(seg.start_ns)),
            ("end_ns", ns(seg.end_ns)),
        ])
    });
    let mut doc = obj([
        ("schema", s(SCOPE_SCHEMA)),
        ("workers", ns(timeline.workers as u64)),
        ("makespan_ns", ns(makespan_ns)),
        ("makespan_s", num(makespan_ns as f64 / 1e9)),
        ("jobs", Json::Arr(jobs.collect())),
        ("workers_timeline", Json::Arr(lanes.collect())),
        ("critical_path", Json::Arr(critical.collect())),
        ("critical_sum_ns", ns(critical_sum_ns)),
    ]);
    // A partial schedule says so: recorded attempts it could not place.
    if let (Json::Obj(members), n @ 1..) = (&mut doc, timeline.unplaced) {
        members.push(("unplaced_attempts".to_string(), ns(n as u64)));
    }
    doc
}

const SYMBOLS: &[u8] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZ";

fn symbol(job_index: usize) -> char {
    SYMBOLS[job_index % SYMBOLS.len()] as char
}

fn paint(row: &mut [u8], start_ns: f64, end_ns: f64, makespan_ns: f64, ch: u8) {
    let width = row.len();
    if makespan_ns <= 0.0 || width == 0 {
        return;
    }
    let a = ((start_ns / makespan_ns) * width as f64).floor() as usize;
    let b = ((end_ns / makespan_ns) * width as f64).ceil() as usize;
    for cell in row.iter_mut().take(b.min(width)).skip(a.min(width)) {
        *cell = ch;
    }
}

/// Renders a `scope.json` document as a fixed-width text timeline:
/// one row per worker (letters = jobs, `.` = idle) plus a critical-path
/// row (`~` = backoff) and a legend.
pub fn render_timeline(doc: &Json, width: usize) -> String {
    let width = width.clamp(10, 400);
    let makespan_ns = doc.get("makespan_ns").and_then(Json::as_f64).unwrap_or(0.0);
    let makespan_s = doc.get("makespan_s").and_then(Json::as_f64).unwrap_or(0.0);
    let jobs: &[Json] = doc.get("jobs").and_then(Json::as_arr).unwrap_or(&[]);
    let job_index = |id: &str| {
        jobs.iter()
            .position(|j| j.get("id").and_then(Json::as_str) == Some(id))
    };
    let mut out = String::new();
    out.push_str(&format!(
        "heron-scope timeline  makespan={makespan_s:.3}s  workers={}\n",
        doc.get("workers").and_then(Json::as_f64).unwrap_or(0.0) as usize
    ));
    for lane in doc
        .get("workers_timeline")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
    {
        let mut row = vec![b'.'; width];
        for seg in lane.get("segments").and_then(Json::as_arr).unwrap_or(&[]) {
            let id = seg.get("job").and_then(Json::as_str).unwrap_or("");
            let ch = job_index(id).map_or(b'?', |i| symbol(i) as u8);
            paint(
                &mut row,
                seg.get("start_ns").and_then(Json::as_f64).unwrap_or(0.0),
                seg.get("end_ns").and_then(Json::as_f64).unwrap_or(0.0),
                makespan_ns,
                ch,
            );
        }
        let w = lane.get("worker").and_then(Json::as_f64).unwrap_or(0.0) as usize;
        let util = lane
            .get("utilization")
            .and_then(Json::as_f64)
            .unwrap_or(0.0);
        out.push_str(&format!(
            "w{w} |{}| {:5.1}% busy\n",
            String::from_utf8_lossy(&row),
            util * 100.0
        ));
    }
    let mut cp = vec![b'.'; width];
    for seg in doc
        .get("critical_path")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
    {
        let phase = seg.get("phase").and_then(Json::as_str).unwrap_or("");
        let id = seg.get("job").and_then(Json::as_str).unwrap_or("");
        let ch = if phase == "backoff" {
            b'~'
        } else {
            job_index(id).map_or(b'?', |i| symbol(i) as u8)
        };
        paint(
            &mut cp,
            seg.get("start_ns").and_then(Json::as_f64).unwrap_or(0.0),
            seg.get("end_ns").and_then(Json::as_f64).unwrap_or(0.0),
            makespan_ns,
            ch,
        );
    }
    out.push_str(&format!(
        "cp |{}| critical path (~ = backoff)\n",
        String::from_utf8_lossy(&cp)
    ));
    for (i, job) in jobs.iter().enumerate() {
        let id = job.get("id").and_then(Json::as_str).unwrap_or("?");
        let state = job.get("state").and_then(Json::as_str).unwrap_or("?");
        out.push_str(&format!("   {} = {id} ({state})\n", symbol(i)));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::validate_scope;
    use crate::segments::fixtures::{timeline, S};

    /// Two slots: `g1` crashes at 1.5 s and reruns 2 s after its 0.5 s
    /// backoff on slot 0; `g2` runs 1 s. Only `g1` has a session trace.
    fn sample() -> (Timeline, Vec<JobInput>) {
        let tracer = heron_trace::Tracer::manual();
        for _ in 0..3 {
            let _step = tracer.span("tuner.step");
            {
                let _m = tracer.span("measure.batch");
                tracer.advance_s(0.2);
            }
            tracer.advance_s(0.3);
        }
        let t = timeline(
            2,
            &["g1", "g2"],
            &[
                (0, 0, 0, 0, 0, 3 * S / 2, None),
                (1, 0, 1, 0, 0, S, None),
                (0, 1, 0, 3 * S / 2, 2 * S, 4 * S, Some(0)),
            ],
        );
        let profile = JobInput {
            id: "g1".to_string(),
            digest: tracer.with_events(JobDigest::of_log),
            ..JobInput::default()
        };
        (t, vec![profile])
    }

    #[test]
    fn documents_are_deterministic_and_validate() {
        let (t, profiles) = sample();
        let a = build_scope(&t, &profiles).render_pretty();
        let b = build_scope(&t, &profiles).render_pretty();
        assert_eq!(a, b, "assembly is pure");
        let doc = build_scope(&t, &profiles);
        validate_scope(&doc).expect("document validates");
        assert_eq!(doc.get("schema").and_then(Json::as_str), Some(SCOPE_SCHEMA));
        let makespan = doc.get("makespan_ns").and_then(Json::as_u64).unwrap();
        let sum = doc.get("critical_sum_ns").and_then(Json::as_u64).unwrap();
        assert_eq!(sum, makespan, "critical path telescopes to the makespan");
        // Slot 0 runs g1 for 1.5 s and 2 s; its held backoff is idle.
        let lane = &doc.get("workers_timeline").and_then(Json::as_arr).unwrap()[0];
        let lane_ns = |k: &str| lane.get(k).and_then(Json::as_u64);
        assert_eq!(lane_ns("busy_ns"), Some(7 * S / 2));
        assert_eq!(lane_ns("idle_ns"), Some(S / 2));
    }

    #[test]
    fn a_partial_schedule_counts_what_it_left_off() {
        let (mut t, profiles) = sample();
        assert!(build_scope(&t, &profiles)
            .get("unplaced_attempts")
            .is_none());
        t.unplaced = 2;
        let doc = build_scope(&t, &profiles);
        validate_scope(&doc).expect("document validates");
        assert_eq!(doc.get("unplaced_attempts").and_then(Json::as_u64), Some(2));
        let zero = doc
            .render()
            .replace("\"unplaced_attempts\":2", "\"unplaced_attempts\":0");
        let zero = heron_trace::json::parse(&zero).expect("still JSON");
        assert_eq!(
            validate_scope(&zero).unwrap_err(),
            "$.unplaced_attempts: present but 0"
        );
    }

    #[test]
    fn profiles_surface_the_hottest_spans() {
        let (t, profiles) = sample();
        let doc = build_scope(&t, &profiles);
        let jobs = doc.get("jobs").and_then(Json::as_arr).unwrap();
        let profile = jobs[0].get("profile").unwrap();
        assert_eq!(profile.get("points").and_then(Json::as_u64), Some(0));
        let top = profile.get("top_spans").and_then(Json::as_arr).unwrap();
        assert_eq!(
            top[0].get("name").and_then(Json::as_str),
            Some("tuner.step"),
            "outermost span dominates total time"
        );
        // The traceless job still carries a (zeroed) profile.
        let empty = jobs[1].get("profile").unwrap();
        assert_eq!(empty.get("events").and_then(Json::as_u64), Some(0));
    }

    #[test]
    fn timelines_paint_lanes_and_the_critical_path() {
        let (t, profiles) = sample();
        let doc = build_scope(&t, &profiles);
        let text = render_timeline(&doc, 40);
        assert_eq!(text, render_timeline(&doc, 40), "rendering is pure");
        assert!(text.contains("heron-scope timeline"));
        assert!(text.contains("w0 |"));
        assert!(text.contains("w1 |"));
        assert!(text.contains("cp |"));
        assert!(text.contains('~'), "backoff appears on the critical row");
        assert!(text.contains("A = g1"));
        assert!(text.contains("B = g2"));
    }
}

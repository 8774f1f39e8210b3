//! Structural validator for `heron-scope-v1` documents.
//!
//! `heron_scope --check` runs every input file through
//! [`validate_scope`] before rendering, so a truncated or hand-edited
//! `scope.json` fails with a named path instead of a garbled timeline.
//! Beyond structure, the validator enforces what the policy's schedule
//! guarantees: every slot is one of the pool's, the runs on one slot are
//! disjoint and in start order, and — the central invariant — the
//! critical path is a contiguous chain from 0 to the makespan whose
//! segment durations sum *exactly* to `makespan_ns`.

use heron_trace::{Cursor, Json};

use crate::report::SCOPE_SCHEMA;

/// A slot index, which must be one of the pool's `workers`.
fn check_worker(seg: &Cursor, workers: u64) -> Result<(), String> {
    let worker = seg.u64("worker")?;
    if worker >= workers {
        let msg = format!("worker {worker} is not below workers {workers}");
        return Err(seg.get("worker")?.fail(msg));
    }
    Ok(())
}

/// A Gantt segment's phase, attempt and slot: `run` and `backoff`
/// segments name the slot they hold (the policy starts a retry at once
/// and holds its slot through the backoff), a `queue` wait carries
/// `null`.
fn check_phase<'j>(seg: &Cursor<'j, '_>, workers: u64) -> Result<&'j str, String> {
    let phase = seg.one_of("phase", &["queue", "run", "backoff"])?;
    seg.u64("attempt")?;
    if phase != "queue" {
        check_worker(seg, workers)?;
    } else if !matches!(seg.get("worker")?.value(), Json::Null) {
        return Err(seg.get("worker")?.fail("`queue` segments hold no slot"));
    }
    Ok(phase)
}

fn check_span(seg: &Cursor) -> Result<(u64, u64), String> {
    let start = seg.u64("start_ns")?;
    let end = seg.u64("end_ns")?;
    if end < start {
        return Err(seg.fail(format!("end_ns {end} precedes start_ns {start}")));
    }
    Ok((start, end))
}

/// Validates the structure and invariants of a `scope.json` document.
///
/// # Errors
/// A message naming the offending JSON path.
pub fn validate_scope(doc: &Json) -> Result<(), String> {
    let doc = Cursor::new(doc, "$");
    doc.one_of("schema", &[SCOPE_SCHEMA])?;
    let workers = doc.u64("workers")?;
    let makespan_ns = doc.u64("makespan_ns")?;
    doc.num("makespan_s")?;
    for job in doc.arr("jobs")?.items() {
        job.each(["id", "state"], Cursor::str)?;
        job.each(["queue_ns", "run_ns", "backoff_ns"], Cursor::u64)?;
        for seg in job.arr("segments")?.items() {
            check_phase(&seg, workers)?;
            check_span(&seg)?;
            seg.u64("slack_ns")?;
        }
        let profile = job.get("profile")?;
        profile.each(["events", "points"], Cursor::u64)?;
        for span in profile.arr("top_spans")?.items() {
            span.str("name")?;
            span.each(["count", "total_ns"], Cursor::u64)?;
        }
    }
    for lane in doc.arr("workers_timeline")?.items() {
        let busy = lane.u64("busy_ns")?;
        let idle = lane.u64("idle_ns")?;
        check_worker(&lane, workers)?;
        lane.num("utilization")?;
        if busy.checked_add(idle) != Some(makespan_ns) {
            return Err(lane.fail(format!(
                "busy {busy} + idle {idle} != makespan {makespan_ns}"
            )));
        }
        let mut free_at = 0;
        for seg in lane.arr("segments")?.items() {
            seg.str("job")?;
            seg.u64("attempt")?;
            let (start, end) = check_span(&seg)?;
            if start < free_at {
                let msg =
                    format!("starts at {start}, before the slot's previous run ends at {free_at}");
                return Err(seg.fail(msg));
            }
            free_at = end;
        }
    }
    // The central invariant: the critical path is contiguous from 0 to
    // the makespan and sums to it exactly.
    let critical = doc.arr("critical_path")?;
    if critical.items().len() == 0 && makespan_ns != 0 {
        return Err(critical.fail("empty with a non-zero makespan"));
    }
    let mut chain_end = 0u64;
    let mut sum = 0u64;
    for seg in critical.items() {
        seg.str("job")?;
        if check_phase(&seg, workers)? == "queue" {
            return Err(seg.fail("queue segments are never critical"));
        }
        let (start, end) = check_span(&seg)?;
        if start != chain_end {
            return Err(seg.fail(format!(
                "chain gap — starts at {start}, previous ended at {chain_end}"
            )));
        }
        chain_end = end;
        sum = sum.saturating_add(end - start);
    }
    if chain_end != makespan_ns {
        return Err(critical.fail(format!(
            "chain ends at {chain_end}, makespan is {makespan_ns}"
        )));
    }
    let declared = doc.u64("critical_sum_ns")?;
    if declared != sum {
        return Err(doc
            .get("critical_sum_ns")?
            .fail(format!("declared {declared}, segments sum to {sum}")));
    }
    // Present only on a partial schedule (DESIGN.md §12).
    if doc.has("unplaced_attempts") && doc.u64("unplaced_attempts")? == 0 {
        return Err(doc.get("unplaced_attempts")?.fail("present but 0"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::build_scope;
    use crate::segments::fixtures::{timeline, S};
    use heron_trace::json::parse;

    /// Two slots: `a` crashes at 1 s and its retry waits out its backoff
    /// on slot 0 until 1.5 s, then runs to 2 s; `b` runs 0.3 s on slot 1.
    fn sample() -> Json {
        let t = timeline(
            2,
            &["a", "b"],
            &[
                (0, 0, 0, 0, 0, S, None),
                (1, 0, 1, 0, 0, 3 * S / 10, None),
                (0, 1, 0, S, 3 * S / 2, 2 * S, Some(0)),
            ],
        );
        build_scope(&t, &[])
    }

    #[test]
    fn accepts_generated_documents_and_roundtrips() {
        let doc = sample();
        validate_scope(&doc).expect("valid");
        let reparsed = parse(&doc.render_pretty()).expect("parses");
        validate_scope(&reparsed).expect("still valid");
    }

    #[test]
    fn rejects_structural_damage_with_named_paths() {
        let base = sample().render();
        for (damage, want_msg) in [
            ("heron-scope-v1", "heron-scope-v0", "$.schema"),
            ("\"makespan_ns\":2", "\"makespan_ns\":3", "makespan"),
            (
                "\"critical_sum_ns\":2",
                "\"critical_sum_ns\":1",
                "critical_sum_ns",
            ),
            ("\"phase\":\"backoff\"", "\"phase\":\"nap\"", "phase"),
            // A retry's run starts before the slot's previous run ends.
            (
                "\"start_ns\":1500000000",
                "\"start_ns\":500000000",
                "$.workers_timeline[0].segments[1]: starts at 500000000",
            ),
            // `b` ran on slot 1 of a one-slot pool.
            (
                "\"workers\":2",
                "\"workers\":1",
                "$.jobs[1].segments[0].worker: worker 1 is not below workers 1",
            ),
            // A backoff holds the retry's slot.
            (
                "\"phase\":\"backoff\",\"worker\":0",
                "\"phase\":\"backoff\",\"worker\":null",
                "$.jobs[0].segments[1].worker",
            ),
        ]
        .map(|(from, to, want)| (base.replace(from, to), want))
        {
            let doc = parse(&damage).expect("still JSON");
            let err = validate_scope(&doc).unwrap_err();
            assert!(err.contains(want_msg), "want `{want_msg}` in `{err}`");
        }
    }

    #[test]
    fn nanosecond_fields_must_be_non_negative_integers() {
        // Both documents were accepted when `*_ns` fields were read as
        // numbers and cast: -5 saturated to 0 (an empty chain then
        // "matched"), and 2.7 / 2.9 both truncated to the chain's 2.
        let head = r#"{"schema":"heron-scope-v1","workers":1,"makespan_s":0,"jobs":[],"workers_timeline":[],"#;
        for tail in [
            r#""makespan_ns":-5,"critical_path":[],"critical_sum_ns":0}"#,
            r#""makespan_ns":2.7,"critical_path":[{"job":"a","phase":"run","attempt":0,"worker":0,"start_ns":0,"end_ns":2}],"critical_sum_ns":2.9}"#,
        ] {
            let doc = parse(&format!("{head}{tail}")).expect("JSON");
            assert_eq!(
                validate_scope(&doc).unwrap_err(),
                "$.makespan_ns: expected a non-negative integer"
            );
        }
    }
}

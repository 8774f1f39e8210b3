//! Gantt segments, CPM slack and the critical path of a service run's
//! [`Timeline`] (DESIGN.md §12).
//!
//! The timeline is the service policy's own schedule on the simulated
//! clock (`heron_serve::sim`), so nothing here schedules: it cuts each
//! timed run into segments — a first attempt's wait in the queue, a
//! retry's backoff on the slot the policy gave it, the run itself — and
//! analyses them. All arithmetic is integer nanoseconds, so the
//! critical-path sum telescopes *exactly* to the makespan — the
//! validator checks equality, not closeness.
//!
//! Each segment's **binding predecessor** is the run's *cause*: the end
//! event whose step started it (the previous run on the slot for a
//! queued job, the job's own death for a retry's backoff), or the
//! backoff for a retry's run. Walking binding predecessors from the
//! last-finishing run yields the critical path, a contiguous chain from
//! 0 to the makespan. Slack comes from a standard CPM backward pass over
//! the job-chain and slot-succession edges; critical segments have zero.

use heron_serve::Timeline;

/// What a segment of schedule time represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Admitted but waiting for a free slot (no worker).
    Queue,
    /// Running on a slot.
    Run,
    /// Simulated recovery backoff between a death and the retry's run,
    /// holding the slot the retry will run on.
    Backoff,
}

impl Phase {
    /// The phase name as rendered into `scope.json`.
    pub fn as_str(self) -> &'static str {
        match self {
            Phase::Queue => "queue",
            Phase::Run => "run",
            Phase::Backoff => "backoff",
        }
    }
}

/// One segment of schedule time.
#[derive(Debug, Clone, PartialEq)]
pub struct Segment {
    /// Index into [`Timeline::jobs`] (submission order).
    pub job: usize,
    /// Attempt number the segment belongs to.
    pub attempt: u32,
    /// Queue, run, or backoff.
    pub phase: Phase,
    /// The slot a run or backoff holds; `None` for a queue wait.
    pub worker: Option<usize>,
    /// Segment start, simulated nanoseconds.
    pub start_ns: u64,
    /// Segment end, simulated nanoseconds.
    pub end_ns: u64,
    /// CPM slack: how far the segment could slip without moving the
    /// makespan. Zero on the critical path.
    pub slack_ns: u64,
    /// Whether the segment is on the critical path.
    pub critical: bool,
}

impl Segment {
    /// Segment duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Cuts `timeline` into segments, each with its CPM slack and whether it
/// is on the critical path, in start order of their runs.
pub fn segments(timeline: &Timeline) -> Vec<Segment> {
    let mut segments: Vec<Segment> = Vec::new();
    // CPM edges (successor lists) and binding predecessors, both indexed
    // like `segments`.
    let mut succs: Vec<Vec<usize>> = Vec::new();
    let mut binding: Vec<Option<usize>> = Vec::new();
    // The run segment of each timed run, and the last segment on each
    // slot and of each job.
    let mut run_seg: Vec<usize> = Vec::with_capacity(timeline.runs.len());
    let mut slot_last: Vec<Option<usize>> = vec![None; timeline.workers.max(1)];
    let mut job_last: Vec<Option<usize>> = vec![None; timeline.jobs.len()];

    for run in &timeline.runs {
        let mut add = |phase, worker, start_ns, end_ns, pred, after: &[Option<usize>]| {
            let idx = segments.len();
            segments.push(Segment {
                job: run.job,
                attempt: run.attempt,
                phase,
                worker,
                start_ns,
                end_ns,
                slack_ns: 0,
                critical: false,
            });
            succs.push(Vec::new());
            binding.push(pred);
            for &p in after.iter().flatten() {
                succs[p].push(idx);
            }
            idx
        };
        let slot = Some(run.slot);
        let mut pred = run.cause.map(|c| run_seg[c]);
        let queue = (run.attempt == 0 && run.start_ns > 0)
            .then(|| add(Phase::Queue, None, 0, run.start_ns, None, &[]));
        let mut after = [job_last[run.job], slot_last[run.slot]];
        if run.run_ns > run.start_ns {
            let b = add(Phase::Backoff, slot, run.start_ns, run.run_ns, pred, &after);
            (pred, after) = (Some(b), [Some(b), None]);
        }
        let r = add(Phase::Run, slot, run.run_ns, run.end_ns, pred, &after);
        // A queue segment slips with its run: same slack.
        if let Some(q) = queue {
            succs[q].push(r);
        }
        run_seg.push(r);
        slot_last[run.slot] = Some(r);
        job_last[run.job] = Some(r);
    }

    // CPM backward pass: creation order is topological (every edge
    // points forward), so one reverse sweep computes latest finishes.
    let makespan_ns = makespan_ns(&segments);
    let mut latest_finish = vec![makespan_ns; segments.len()];
    for i in (0..segments.len()).rev() {
        for &s in &succs[i] {
            let latest_start = latest_finish[s] - segments[s].dur_ns();
            latest_finish[i] = latest_finish[i].min(latest_start);
        }
        segments[i].slack_ns = latest_finish[i] - segments[i].end_ns;
    }

    // Critical path: binding predecessors back from the last finisher.
    let last = segments
        .iter()
        .position(|s| s.phase == Phase::Run && s.end_ns == makespan_ns);
    let mut cursor = last;
    while let Some(i) = cursor {
        segments[i].critical = true;
        cursor = binding[i];
    }
    segments
}

/// The last run segment's end, nanoseconds; 0 when nothing ran.
pub fn makespan_ns(segments: &[Segment]) -> u64 {
    let runs = segments.iter().filter(|s| s.phase == Phase::Run);
    runs.map(|s| s.end_ns).max().unwrap_or(0)
}

#[cfg(test)]
pub(crate) mod fixtures {
    use heron_serve::{JobState, TimedRun, Timeline};

    pub(crate) const S: u64 = 1_000_000_000;

    /// A timed run as `(job, attempt, slot, start_ns, run_ns, end_ns,
    /// cause)`.
    type Row = (usize, u32, usize, u64, u64, u64, Option<usize>);

    /// A timeline of completed jobs `ids` on `workers` slots.
    pub(crate) fn timeline(workers: usize, ids: &[&str], runs: &[Row]) -> Timeline {
        Timeline {
            workers,
            jobs: ids
                .iter()
                .map(|id| (id.to_string(), JobState::Completed))
                .collect(),
            runs: runs
                .iter()
                .map(
                    |&(job, attempt, slot, start_ns, run_ns, end_ns, cause)| TimedRun {
                        job,
                        attempt,
                        slot,
                        start_ns,
                        run_ns,
                        end_ns,
                        cause,
                    },
                )
                .collect(),
            unplaced: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::fixtures::{timeline, S};
    use super::*;
    use Phase::{Backoff, Queue, Run};

    /// A segment as `(job, phase, worker, start_ns, end_ns, slack_ns,
    /// critical)`.
    type View = (usize, Phase, Option<usize>, u64, u64, u64, bool);

    /// The segments of `t`, after checking that the critical path runs
    /// from 0 to the makespan without a gap.
    fn view(t: &Timeline) -> Vec<View> {
        let segs = segments(t);
        let mut cursor = 0;
        for seg in segs.iter().filter(|s| s.critical) {
            assert_eq!(seg.start_ns, cursor, "critical chain gap");
            cursor = seg.end_ns;
        }
        assert_eq!(cursor, makespan_ns(&segs), "critical chain misses makespan");
        let view = |s: &Segment| {
            (
                s.job, s.phase, s.worker, s.start_ns, s.end_ns, s.slack_ns, s.critical,
            )
        };
        segs.iter().map(view).collect()
    }

    #[test]
    fn backoffs_hold_their_slot_and_queued_jobs_bind_to_their_cause() {
        // One slot: `a` crashes at 2 s and its retry holds the slot through
        // a 0.5 s backoff, then runs to 5.5 s; `b`, queued since 0, is
        // started by the retry's end. The critical path is a's run, backoff
        // and rerun, then b's run — never its queue wait.
        let t = timeline(
            1,
            &["a", "b"],
            &[
                (0, 0, 0, 0, 0, 2 * S, None),
                (0, 1, 0, 2 * S, 5 * S / 2, 11 * S / 2, Some(0)),
                (1, 0, 0, 11 * S / 2, 11 * S / 2, 15 * S / 2, Some(1)),
            ],
        );
        assert_eq!(
            view(&t),
            [
                (0, Run, Some(0), 0, 2 * S, 0, true),
                (0, Backoff, Some(0), 2 * S, 5 * S / 2, 0, true),
                (0, Run, Some(0), 5 * S / 2, 11 * S / 2, 0, true),
                (1, Queue, None, 0, 11 * S / 2, 0, false),
                (1, Run, Some(0), 11 * S / 2, 15 * S / 2, 0, true),
            ]
        );
    }

    #[test]
    fn off_path_jobs_carry_slack() {
        // Two slots: a runs 5 s (critical), b runs 2 s with 3 s of slack.
        let t = timeline(
            2,
            &["a", "b"],
            &[(0, 0, 0, 0, 0, 5 * S, None), (1, 0, 1, 0, 0, 2 * S, None)],
        );
        assert_eq!(
            view(&t),
            [
                (0, Run, Some(0), 0, 5 * S, 0, true),
                (1, Run, Some(1), 0, 2 * S, 3 * S, false)
            ]
        );
    }

    #[test]
    fn empty_runs_and_never_started_jobs_are_harmless() {
        assert!(view(&timeline(2, &["a"], &[])).is_empty());
    }
}

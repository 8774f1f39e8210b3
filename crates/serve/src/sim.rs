//! The simulated-clock driver: a finished run's schedule, as the service
//! policy itself places it (DESIGN.md §12).
//!
//! The threaded [`crate::Supervisor`] runs attempts on OS threads, so its
//! real start times are racy. [`timeline`] replays a finished run's
//! deterministic facts — its configuration, its submission order and
//! how each attempt ended after how much simulated time — through a
//! fresh [`Policy`] in a discrete-event loop with no threads. Each
//! [`Effect::Start`] schedules that attempt's recorded end event at its
//! start plus its backoff plus its simulated duration; events due at the
//! same simulated time are fed in `(time, slot)` order. Every placement
//! is therefore the product's own decision, and each run carries its
//! *cause*: the end event whose step started it.
//!
//! The driver never invents an attempt. A start the run never recorded
//! is left off the timeline and its slot stays held (the attempt never
//! ran, so it never ends); a recorded attempt the replayed policy never
//! starts is left off too, and counted in [`Timeline::unplaced`]. Both
//! happen only when a drain's position followed host timing, or the
//! drain came from outside the config: `tests/serve_explore.rs` steps
//! [`Event::Drain`] into its policy directly, the only such drain.

use std::collections::BTreeMap;

use heron_trace::Tracer;

use crate::policy::{Effect, Event, JobState, Policy};

/// One attempt on the simulated clock: its slot is held from `start_ns`,
/// it runs from `run_ns` (after a retry's backoff) and ends at `end_ns`.
#[derive(Debug, Clone, PartialEq)]
pub struct TimedRun {
    /// Index into [`Timeline::jobs`].
    pub job: usize,
    /// Attempt number (0 = first run).
    pub attempt: u32,
    /// The worker slot the policy gave it.
    pub slot: usize,
    /// When the policy started it, ns.
    pub start_ns: u64,
    /// When its run began: `start_ns` plus its backoff, ns.
    pub run_ns: u64,
    /// When its recorded end event fired, ns.
    pub end_ns: u64,
    /// Index into [`Timeline::runs`] of the run whose end event started
    /// this one; `None` when [`Event::Run`] did. The binding predecessor.
    pub cause: Option<usize>,
}

/// A finished run's schedule on the simulated clock.
#[derive(Debug, Clone, PartialEq)]
pub struct Timeline {
    /// Worker slots.
    pub workers: usize,
    /// Every admitted job in submission order: id and final state.
    pub jobs: Vec<(String, JobState)>,
    /// Every placed attempt, in start order.
    pub runs: Vec<TimedRun>,
    /// Recorded attempts the replay left off: 0 unless a drain's position
    /// followed host timing.
    pub unplaced: usize,
}

/// Replays the finished run `run` on the simulated clock. Every job was
/// admitted before the run started, so resubmitting them in order to a
/// fresh policy admits each of them again. The replay records no trace:
/// the run's own trace is the record.
pub fn timeline(run: &Policy) -> Timeline {
    let jobs = run.submissions();
    let mut policy = Policy::traced_by(run.config().clone(), Tracer::disabled());
    for (spec, ..) in &jobs {
        policy.submit((*spec).clone()).expect("admitted once");
    }
    let mut runs: Vec<TimedRun> = Vec::new();
    // Pending end events by (time, slot), each naming its run.
    let mut ends: BTreeMap<(u64, usize), usize> = BTreeMap::new();
    let (mut event, mut now, mut cause) = (Event::Run, 0, None);
    loop {
        for effect in policy.step(event) {
            let Effect::Start {
                slot,
                spec,
                attempt,
                backoff_ns,
                ..
            } = effect
            else {
                continue;
            };
            let job = jobs.iter().position(|(s, ..)| s.id == spec.id);
            let job = job.expect("the policy starts only the run's jobs");
            let Some(end) = jobs[job].2.get(attempt as usize) else {
                continue;
            };
            let run_ns = now + backoff_ns;
            let end_ns = run_ns + end.sim_ns();
            let clash = ends.insert((end_ns, slot), runs.len());
            assert!(clash.is_none(), "one pending end per slot");
            runs.push(TimedRun {
                job,
                attempt,
                slot,
                start_ns: now,
                run_ns,
                end_ns,
                cause,
            });
        }
        let Some(((at, _), r)) = ends.pop_first() else {
            break;
        };
        // Attempt k of a job runs under epoch k + 1 in every run of the
        // policy, so the recorded event is the replayed attempt's own.
        let TimedRun { job, attempt, .. } = runs[r];
        (event, now, cause) = (jobs[job].2[attempt as usize].clone(), at, Some(r));
    }
    let recorded: usize = jobs.iter().map(|(.., log)| log.len()).sum();
    Timeline {
        workers: run.config().workers.max(1),
        unplaced: recorded - runs.len(),
        jobs: jobs
            .into_iter()
            .map(|(spec, state, _)| (spec.id.clone(), state))
            .collect(),
        runs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{JobSpec, ServeConfig};
    use crate::worker::JobReport;

    const S: u64 = 1_000_000_000;

    /// How an attempt ends in a test script, after how many ns.
    #[derive(Clone, Copy)]
    enum End {
        Completed(u64),
        Crashed(u64),
        Hung(u64),
        Preempted(u64),
    }
    use End::{Completed, Crashed, Hung, Preempted};

    /// A finished run of `jobs` on `workers` slots with backoff base 0.5 s,
    /// each attempt ending as scripted, in the order the attempts started.
    fn finished(workers: usize, drain_after: usize, jobs: &[(&str, &[End])]) -> Policy {
        let config = ServeConfig {
            workers,
            drain_after_completions: drain_after,
            ..ServeConfig::default()
        };
        let mut policy = Policy::new(config);
        for (id, _) in jobs {
            policy.submit(JobSpec::new(*id, "gemm", "8x8x8")).unwrap();
        }
        let mut started = std::collections::VecDeque::new();
        let mut event = Event::Run;
        loop {
            started.extend(policy.step(event).into_iter().filter_map(|e| match e {
                Effect::Start {
                    spec,
                    attempt,
                    epoch,
                    ..
                } => Some((spec.id, attempt, epoch)),
                _ => None,
            }));
            let Some((job, attempt, epoch)) = started.pop_front() else {
                return policy;
            };
            let script = jobs.iter().find(|(j, _)| *j == job).unwrap().1;
            event = match script[attempt as usize] {
                Completed(wall_ns) => {
                    let report = Box::new(JobReport {
                        wall_ns,
                        ..JobReport::default()
                    });
                    Event::Completed { job, epoch, report }
                }
                Crashed(sim_ns) => Event::Exited {
                    job,
                    epoch,
                    rounds: 1,
                    sim_ns,
                },
                Hung(sim_ns) => Event::Stalled {
                    job,
                    epoch,
                    rounds: 1,
                    sim_ns,
                },
                Preempted(wall_ns) => Event::Preempted {
                    job,
                    epoch,
                    rounds: 1,
                    trials: 1,
                    wall_ns,
                },
            };
        }
    }

    /// Each run as `(job, attempt, slot, start_ns, run_ns, end_ns, cause)`.
    type Row = (usize, u32, usize, u64, u64, u64, Option<usize>);

    fn rows(t: &Timeline) -> Vec<Row> {
        let row = |r: &TimedRun| {
            (
                r.job, r.attempt, r.slot, r.start_ns, r.run_ns, r.end_ns, r.cause,
            )
        };
        t.runs.iter().map(row).collect()
    }

    #[test]
    fn a_retry_holds_its_slot_and_the_queued_job_waits() {
        // One worker: `a` crashes at 2 s and its retry runs 3 s; `b` runs
        // 2 s. The retry starts at once and waits out its 0.5 s backoff
        // on the slot, so `b` runs last, started by the retry's end.
        let run = finished(
            1,
            0,
            &[
                ("a", &[Crashed(2 * S), Completed(3 * S)]),
                ("b", &[Completed(2 * S)]),
            ],
        );
        assert_eq!(
            rows(&timeline(&run)),
            [
                (0, 0, 0, 0, 0, 2 * S, None),
                (0, 1, 0, 2 * S, 5 * S / 2, 11 * S / 2, Some(0)),
                (1, 0, 0, 11 * S / 2, 11 * S / 2, 15 * S / 2, Some(1)),
            ]
        );
    }

    #[test]
    fn a_retry_takes_the_lowest_free_slot() {
        // Three workers: slot 2 frees at 1 s, slot 0 at 2 s, and `b` hangs
        // on slot 1 at 3 s; its retry takes slot 0, not the
        // earliest-freed slot 2.
        let run = finished(
            3,
            0,
            &[
                ("a", &[Completed(2 * S)]),
                ("b", &[Hung(3 * S), Completed(S)]),
                ("c", &[Completed(S)]),
            ],
        );
        let retry = rows(&timeline(&run))[3];
        assert_eq!(retry, (1, 1, 0, 3 * S, 7 * S / 2, 9 * S / 2, Some(1)));
    }

    #[test]
    fn an_unrecorded_start_is_never_invented() {
        // The run drained on `first`'s completion with `third` queued, but
        // `second`'s preemption was recorded at 1 s: on the simulated
        // clock it ends first, and the policy starts `third`, which never
        // ran. It stays off the timeline; every placed run is recorded.
        let run = finished(
            2,
            1,
            &[
                ("first", &[Completed(2 * S)]),
                ("second", &[Preempted(S)]),
                ("third", &[]),
            ],
        );
        let t = timeline(&run);
        assert_eq!(
            rows(&t),
            [(0, 0, 0, 0, 0, 2 * S, None), (1, 0, 1, 0, 0, S, None)]
        );
        assert_eq!(t.jobs[2], ("third".to_string(), JobState::Queued));
        assert_eq!(t.unplaced, 0);
    }

    #[test]
    fn a_recorded_attempt_the_replay_never_starts_is_counted() {
        // On the host `a`'s preemption settled first and `c` took its
        // slot before `b`'s completion drained the run. On the simulated
        // clock `b` completes at 1 s, before `a` ends at 4 s, so the
        // replay drains with `c` still queued: its recorded attempt is
        // left off and counted.
        let run = finished(
            2,
            1,
            &[
                ("a", &[Preempted(4 * S)]),
                ("b", &[Completed(S)]),
                ("c", &[Preempted(S / 2)]),
            ],
        );
        let t = timeline(&run);
        assert_eq!(
            rows(&t),
            [(0, 0, 0, 0, 0, 4 * S, None), (1, 0, 1, 0, 0, S, None)]
        );
        assert_eq!(t.unplaced, 1);
    }
}

//! The service policy: admission, assignment, epoch fencing, recovery,
//! quarantine, drain and postmortems as one transition function.
//!
//! [`Policy`] owns the admission queue, the job table, the worker slots
//! and the service trace, and changes them only in [`Policy::submit`] and
//! [`Policy::step`], which maps one [`Event`] to the [`Effect`]s a driver
//! must carry out. It starts no thread, reads no clock and touches no
//! checkpoint store, so a test can drive it with synthetic workers and
//! search every kill schedule of a small job set
//! (`tests/serve_explore.rs`); [`crate::supervisor::Supervisor`] is the
//! threaded driver. The lifecycle per job:
//!
//! ```text
//! submit ──► Queued ──assign──► Running ──► Completed
//!    │                            │  ▲
//!    └─► rejected (with reason)   │  └── recover (≤ restart_budget)
//!                                 │            │
//!                                 ├─ preempt ─► Preempted (checkpointed)
//!                                 └─ budget exhausted ─► Quarantined
//! ```
//!
//! Every edge is checked against `JobState::can_become`. An attempt
//! ends once — by a report, a crash or a hang — and every end settles
//! through `Policy::settle`. A dead attempt is recovered from the job's
//! last checkpoint after a *simulated* backoff (the service trace's
//! manual clock advances, wall time does not) until `restart_budget`
//! recoveries are spent, then quarantined: the tuner's per-kernel
//! quarantine, lifted to jobs, with a new epoch so that the dead
//! attempt's late save cannot land. A drain stops assignment and preempts
//! every attempt, recoveries included: an attempt that starts while
//! draining is asked to preempt as it starts, so it resumes from the
//! store's checkpoint and checkpoints again under its own epoch.

use std::collections::BTreeMap;

use heron_pulse::backoff_ns;
use heron_trace::Tracer;

use crate::job::{JobSpec, ServeConfig};
use crate::queue::{AdmitError, AdmitQueue};
use crate::worker::JobReport;

/// Where a job is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Admitted, waiting for a worker (terminal only after a drain).
    Queued,
    /// A worker attempt is in flight.
    Running,
    /// Finished; its [`JobReport`] is available.
    Completed,
    /// Preempted (job deadline or drain); checkpoint is in the store.
    Preempted,
    /// Poisoned: failed past the restart budget (or unbuildable).
    Quarantined,
}

impl JobState {
    /// The transition table: `Queued → Running` (assign), `Running →
    /// Running` (a recovery's new attempt), and `Running` to each
    /// terminal state. No other edge exists.
    fn can_become(self, to: JobState) -> bool {
        use JobState::*;
        matches!(
            (self, to),
            (Queued, Running) | (Running, Running | Completed | Preempted | Quarantined)
        )
    }
}

impl std::fmt::Display for JobState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Completed => "completed",
            JobState::Preempted => "preempted",
            JobState::Quarantined => "quarantined",
        };
        write!(f, "{s}")
    }
}

/// Everything the policy is told. Workers send the first four over the
/// driver's channel, each quoting the epoch its attempt was started
/// under, so a fenced-off zombie's messages can be told apart; the
/// watchdog and the driver send the rest.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// The session finished on its own; here is the result.
    Completed {
        /// Job id.
        job: String,
        /// Epoch the reporting worker was started under.
        epoch: u64,
        /// The deterministic result.
        report: Box<JobReport>,
    },
    /// The session honoured a preempt (deadline or drain) and its
    /// checkpoint is in the store.
    Preempted {
        /// Job id.
        job: String,
        /// Epoch the reporting worker was started under.
        epoch: u64,
        /// Lifetime rounds at preemption.
        rounds: u64,
        /// Trials completed at preemption.
        trials: usize,
        /// The attempt's simulated wall-clock at preemption, ns.
        wall_ns: u64,
    },
    /// The session could not be built or resumed.
    Failed {
        /// Job id.
        job: String,
        /// Epoch the reporting worker was started under.
        epoch: u64,
        /// Why.
        reason: String,
    },
    /// The worker thread ended. Sent last, on return and panic alike; an
    /// exit that no report preceded is a crash.
    Exited {
        /// Job id.
        job: String,
        /// Epoch the exiting worker was started under.
        epoch: u64,
        /// Lifetime rounds at the attempt's last flight-recorder flush
        /// (0 if it never flushed). The worker sends 0; the driver reads
        /// the recorder.
        rounds: u64,
        /// The attempt's simulated clock at that flush, ns.
        sim_ns: u64,
    },
    /// The watchdog confirmed that the attempt stopped beating: a hang.
    Stalled {
        /// Job id.
        job: String,
        /// Epoch of the stalled attempt.
        epoch: u64,
        /// Lifetime rounds at the attempt's last flight-recorder flush.
        rounds: u64,
        /// The attempt's simulated clock at that flush, ns.
        sim_ns: u64,
    },
    /// Start serving: from now on queued jobs go to free worker slots.
    Run,
    /// Graceful drain: stop assigning and preempt every running attempt.
    Drain,
}

impl Event {
    /// The `(job, epoch)` of the attempt the event ends; `None` for `Run`
    /// and `Drain`.
    pub fn attempt(&self) -> Option<(&str, u64)> {
        match self {
            Event::Completed { job, epoch, .. }
            | Event::Preempted { job, epoch, .. }
            | Event::Failed { job, epoch, .. }
            | Event::Exited { job, epoch, .. }
            | Event::Stalled { job, epoch, .. } => Some((job, *epoch)),
            Event::Run | Event::Drain => None,
        }
    }

    /// The simulated wall-clock the ended attempt consumed, ns: 0 for a
    /// failure, and for `Run` and `Drain`.
    pub(crate) fn sim_ns(&self) -> u64 {
        match self {
            Event::Completed { report, .. } => report.wall_ns,
            Event::Preempted { wall_ns: ns, .. }
            | Event::Exited { sim_ns: ns, .. }
            | Event::Stalled { sim_ns: ns, .. } => *ns,
            Event::Failed { .. } | Event::Run | Event::Drain => 0,
        }
    }
}

/// What the driver must do, in order.
#[derive(Debug, Clone)]
pub enum Effect {
    /// Run attempt `attempt` of `spec` on worker slot `slot` under
    /// `epoch`: open that epoch in the checkpoint store (fencing every
    /// older one) and resume from the store's checkpoint, if any. A
    /// retry holds the slot through its simulated backoff first.
    Start {
        /// Worker slot, the lowest free one.
        slot: usize,
        /// The job.
        spec: JobSpec,
        /// Attempt number (0 = first run).
        attempt: u32,
        /// The attempt's fencing token.
        epoch: u64,
        /// Simulated backoff before the attempt runs, ns (0 for a first
        /// run).
        backoff_ns: u64,
    },
    /// Open epoch `epoch` of `job` in the checkpoint store, fencing every
    /// older one; nothing runs under it. Sent on quarantine, so a hung
    /// attempt's late save cannot land.
    Fence {
        /// Job id.
        job: String,
        /// The new epoch.
        epoch: u64,
    },
    /// Ask attempt `epoch` of `job` to checkpoint and report `Preempted`.
    Preempt {
        /// Job id.
        job: String,
        /// The attempt's epoch.
        epoch: u64,
    },
    /// Attempt `epoch` of `job` hung and is fenced off: wake it so its
    /// thread can exit.
    Cancel {
        /// Job id.
        job: String,
        /// The hung attempt's epoch.
        epoch: u64,
    },
    /// Assemble the postmortem bundle for a death.
    Postmortem {
        /// Job id.
        job: String,
        /// The attempt that died.
        attempt: u32,
        /// Its epoch.
        epoch: u64,
        /// `crash`, `hang` or `quarantine`.
        reason: &'static str,
        /// Recoveries performed at the instant of death.
        recoveries: u32,
    },
}

/// Policy-side record of one admitted job.
struct JobEntry {
    spec: JobSpec,
    /// Written only by [`JobEntry::become_`].
    state: JobState,
    /// Current (or final) attempt number; attempt 0 is the first run.
    attempt: u32,
    /// Recoveries performed (crash + hang combined).
    recoveries: u32,
    /// The current attempt's fencing token; 0 until the first start.
    epoch: u64,
    report: Option<Box<JobReport>>,
    /// Anomaly warnings (`pulse.warn.*`) recorded for this job.
    warnings: Vec<String>,
    /// Human-readable context for quarantine/preemption.
    note: Option<String>,
    /// Admission order (0-based).
    submit_seq: usize,
    /// Every settled attempt's end event, in attempt order: the run log
    /// the simulated-clock driver ([`crate::sim`]) replays.
    attempts_log: Vec<Event>,
}

impl JobEntry {
    /// A newly admitted job, the `submit_seq`-th.
    fn queued(spec: JobSpec, submit_seq: usize) -> Self {
        JobEntry {
            spec,
            state: JobState::Queued,
            attempt: 0,
            recoveries: 0,
            epoch: 0,
            report: None,
            warnings: Vec::new(),
            note: None,
            submit_seq,
            attempts_log: Vec::new(),
        }
    }

    /// The one writer of `state`.
    fn become_(&mut self, to: JobState) {
        assert!(
            self.state.can_become(to),
            "job `{}`: illegal transition {} -> {to}",
            self.spec.id,
            self.state
        );
        self.state = to;
    }
}

/// Read-only snapshot of a job for manifests and assertions.
#[derive(Debug, Clone, PartialEq)]
pub struct JobRow {
    /// Job id.
    pub id: String,
    /// Lifecycle state at snapshot time.
    pub state: JobState,
    /// Attempts started (attempt index + 1 once running).
    pub attempts: u32,
    /// Recoveries performed.
    pub recoveries: u32,
    /// Lifetime rounds (completed or preempted sessions; 0 otherwise).
    pub rounds: u64,
    /// Trials completed.
    pub trials: usize,
    /// Final termination (completed jobs).
    pub termination: Option<String>,
    /// Determinism fingerprint (completed jobs).
    pub fingerprint: Option<u64>,
    /// Best throughput in Gops/s (completed jobs).
    pub best_gflops: Option<f64>,
    /// Anomaly warnings (`pulse.warn.*`) recorded for this job.
    pub warnings: Vec<String>,
    /// Quarantine/preemption context.
    pub note: Option<String>,
}

/// The service's decisions, as a state machine over the job table.
pub struct Policy {
    config: ServeConfig,
    queue: AdmitQueue,
    jobs: BTreeMap<String, JobEntry>,
    /// The job each worker slot runs, if any.
    slots: Vec<Option<String>>,
    rejected: Vec<(String, String)>,
    draining: bool,
    tracer: Tracer,
}

impl Policy {
    /// An idle policy with an empty queue and `config.workers` slots.
    pub fn new(config: ServeConfig) -> Self {
        Policy::traced_by(config, Tracer::manual())
    }

    /// An idle policy that records into `tracer`.
    pub(crate) fn traced_by(config: ServeConfig, tracer: Tracer) -> Self {
        Policy {
            queue: AdmitQueue::new(config.queue_capacity),
            slots: vec![None; config.workers.max(1)],
            config,
            jobs: BTreeMap::new(),
            rejected: Vec::new(),
            draining: false,
            tracer,
        }
    }

    /// Admits one job onto the queue, or records and returns why not.
    /// Admission never starts anything; [`Event::Run`] does.
    pub fn submit(&mut self, spec: JobSpec) -> Result<(), AdmitError> {
        let id = spec.id.clone();
        if let Err(e) = self.queue.submit(spec.clone()) {
            self.tracer.counter_add("serve.jobs_rejected", 1);
            self.tracer.point_with("serve.reject", || {
                [("job", id.clone()), ("reason", e.to_string())]
            });
            self.rejected.push((id, e.to_string()));
            return Err(e);
        }
        self.mark("serve.jobs_submitted", "serve.submit", &id);
        self.jobs
            .insert(id, JobEntry::queued(spec, self.jobs.len()));
        Ok(())
    }

    /// The transition function: applies `event` and returns what the
    /// driver must do. Every event ends by filling free slots from the
    /// queue, unless draining.
    pub fn step(&mut self, event: Event) -> Vec<Effect> {
        let mut fx = Vec::new();
        match event {
            Event::Run => {}
            Event::Drain => self.drain(&mut fx),
            end => self.settle(end, &mut fx),
        }
        while !self.draining && self.slots.contains(&None) {
            let Some(spec) = self.queue.pop() else { break };
            self.start(&spec.id, 0, 0, &mut fx);
        }
        fx
    }

    /// Ends an attempt — the single settle-and-recover path. Only the
    /// live attempt can end: a report or stall from any other is a
    /// zombie's (counted as a stale event), and an exit from any other is
    /// how every thread that already settled ends.
    fn settle(&mut self, end: Event, fx: &mut Vec<Effect>) {
        let (id, epoch) = end.attempt().expect("run and drain end no attempt");
        let id = id.to_string();
        if !self.is_live(&id, epoch) {
            if !matches!(end, Event::Exited { .. }) {
                self.tracer.counter_add("serve.stale_events", 1);
            }
            return;
        }
        let slot = self
            .slots
            .iter()
            .position(|s| s.as_deref() == Some(id.as_str()));
        self.slots[slot.expect("a live attempt holds a slot")] = None;
        let entry = self.jobs.get_mut(&id).expect("live jobs exist");
        // Logged with a completed report cut down to its timing.
        entry.attempts_log.push(match &end {
            Event::Completed { job, epoch, report } => Event::Completed {
                job: job.clone(),
                epoch: *epoch,
                report: Box::new(JobReport {
                    rounds: report.rounds,
                    wall_ns: report.wall_ns,
                    ..JobReport::default()
                }),
            },
            other => other.clone(),
        });
        match end {
            Event::Completed { report, .. } => {
                entry.report = Some(report);
                entry.become_(JobState::Completed);
                self.mark("serve.jobs_completed", "serve.complete", &id);
                let done = self
                    .jobs
                    .values()
                    .filter(|e| e.state == JobState::Completed);
                let after = self.config.drain_after_completions;
                if after > 0 && done.count() >= after {
                    self.drain(fx);
                }
            }
            Event::Preempted { rounds, .. } => {
                entry.note = Some(format!("checkpointed at round {rounds}"));
                entry.become_(JobState::Preempted);
                self.mark("serve.jobs_preempted", "serve.preempt", &id);
            }
            // A session that cannot be built is deterministically
            // poisoned; retrying cannot help.
            Event::Failed { reason, .. } => self.quarantine(&id, format!("poisoned: {reason}"), fx),
            Event::Exited { .. } => {
                self.mark("serve.crashes_detected", "serve.crash_detected", &id);
                self.postmortem(&id, "crash", fx);
                self.recover(&id, fx);
            }
            _ => {
                // A confirmed hang is a deterministic function of the
                // chaos plan, so — unlike the driver's half-grace
                // precursor — it is recorded on the job.
                let warning = format!("pulse.warn.heartbeat_stall attempt={}", entry.attempt);
                entry.warnings.push(warning);
                fx.push(Effect::Cancel {
                    job: id.clone(),
                    epoch,
                });
                self.mark("serve.hangs_detected", "serve.hang_detected", &id);
                self.postmortem(&id, "hang", fx);
                self.recover(&id, fx);
            }
        }
    }

    /// Retry-with-backoff, bounded by the restart budget.
    fn recover(&mut self, id: &str, fx: &mut Vec<Effect>) {
        let entry = self.jobs.get_mut(id).expect("recovering a known job");
        entry.recoveries += 1;
        let (recoveries, next) = (entry.recoveries, entry.attempt + 1);
        let budget = self.config.restart_budget;
        if recoveries > budget {
            let note =
                format!("poisoned: restart budget ({budget}) exhausted after {next} attempts");
            return self.quarantine(id, note, fx);
        }
        let backoff = backoff_ns(self.config.backoff_base_s, recoveries);
        self.tracer.advance_ns(backoff);
        self.tracer.counter_add("serve.jobs_recovered", 1);
        self.tracer.point_with("serve.recover", || {
            [("job", id.to_string()), ("attempt", next.to_string())]
        });
        self.start(id, next, backoff, fx);
    }

    fn quarantine(&mut self, id: &str, note: String, fx: &mut Vec<Effect>) {
        let entry = self.jobs.get_mut(id).expect("quarantining a known job");
        entry.note = Some(note);
        entry.become_(JobState::Quarantined);
        self.mark("serve.jobs_quarantined", "serve.quarantine", id);
        self.postmortem(id, "quarantine", fx);
        // Fence the dead attempt: a hung one may still try to save.
        let entry = self.jobs.get_mut(id).expect("quarantining a known job");
        entry.epoch += 1;
        fx.push(Effect::Fence {
            job: id.to_string(),
            epoch: entry.epoch,
        });
    }

    /// Opens a new epoch for attempt `attempt` of `id` on the lowest free
    /// slot, which it holds through `backoff_ns` of simulated backoff. Only
    /// a recovery starts while draining, and it is preempted at once.
    fn start(&mut self, id: &str, attempt: u32, backoff_ns: u64, fx: &mut Vec<Effect>) {
        let slot = self.slots.iter().position(Option::is_none);
        let slot = slot.expect("a start always has a free slot");
        self.slots[slot] = Some(id.to_string());
        let entry = self.jobs.get_mut(id).expect("starting a known job");
        entry.become_(JobState::Running);
        entry.attempt = attempt;
        entry.epoch += 1;
        fx.push(Effect::Start {
            slot,
            spec: entry.spec.clone(),
            attempt,
            epoch: entry.epoch,
            backoff_ns,
        });
        if self.draining {
            fx.push(Effect::Preempt {
                job: id.to_string(),
                epoch: entry.epoch,
            });
        }
        self.tracer.counter_add("serve.assignments", 1);
        self.tracer.point_with("serve.assign", || {
            [
                ("job", id.to_string()),
                ("attempt", attempt.to_string()),
                ("worker", slot.to_string()),
            ]
        });
    }

    fn drain(&mut self, fx: &mut Vec<Effect>) {
        if self.draining {
            return;
        }
        self.draining = true;
        self.tracer.point("serve.drain");
        for (id, e) in &self.jobs {
            if e.state == JobState::Running {
                fx.push(Effect::Preempt {
                    job: id.clone(),
                    epoch: e.epoch,
                });
            }
        }
    }

    fn postmortem(&mut self, id: &str, reason: &'static str, fx: &mut Vec<Effect>) {
        let e = &self.jobs[id];
        fx.push(Effect::Postmortem {
            job: id.to_string(),
            attempt: e.attempt,
            epoch: e.epoch,
            reason,
            recoveries: e.recoveries,
        });
        self.tracer.counter_add("serve.postmortems", 1);
        self.tracer.point_with("serve.postmortem", || {
            [("job", id.to_string()), ("reason", reason.to_string())]
        });
    }

    /// One lifecycle edge in the trace: a counter and a point naming the
    /// job.
    fn mark(&self, counter: &str, point: &str, id: &str) {
        self.tracer.counter_add(counter, 1);
        self.tracer.point_with(point, || [("job", id.to_string())]);
    }

    /// Whether attempt `epoch` of `job` is the one running — the only
    /// attempt whose messages count and the only one the watchdog
    /// watches.
    pub fn is_live(&self, job: &str, epoch: u64) -> bool {
        self.jobs
            .get(job)
            .is_some_and(|e| e.state == JobState::Running && e.epoch == epoch)
    }

    /// Whether every admitted job is settled: completed, preempted,
    /// quarantined — or still queued after a drain.
    pub fn settled(&self) -> bool {
        (self.draining || self.queue.is_empty())
            && self.jobs.values().all(|e| match e.state {
                JobState::Completed | JobState::Preempted | JobState::Quarantined => true,
                JobState::Queued => self.draining,
                JobState::Running => false,
            })
    }

    /// The configuration the policy runs under.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// Snapshot of every admitted job, in id order.
    pub fn rows(&self) -> Vec<JobRow> {
        self.jobs
            .iter()
            .map(|(id, e)| {
                let (rounds, trials) = match (&e.report, e.attempts_log.last()) {
                    (Some(r), _) => (r.rounds, r.trials),
                    (None, Some(Event::Preempted { rounds, trials, .. })) => (*rounds, *trials),
                    _ => (0, 0),
                };
                JobRow {
                    id: id.clone(),
                    state: e.state,
                    attempts: if e.epoch > 0 { e.attempt + 1 } else { 0 },
                    recoveries: e.recoveries,
                    rounds,
                    trials,
                    termination: e.report.as_ref().map(|r| r.termination.clone()),
                    fingerprint: e.report.as_ref().map(|r| r.fingerprint),
                    best_gflops: e.report.as_ref().map(|r| r.best_gflops),
                    warnings: e.warnings.clone(),
                    note: e.note.clone(),
                }
            })
            .collect()
    }

    /// Every admitted job in submission order: its spec, its state and
    /// each of its attempts' end event.
    pub(crate) fn submissions(&self) -> Vec<(&JobSpec, JobState, &[Event])> {
        let mut jobs: Vec<&JobEntry> = self.jobs.values().collect();
        jobs.sort_by_key(|e| e.submit_seq);
        jobs.into_iter()
            .map(|e| (&e.spec, e.state, e.attempts_log.as_slice()))
            .collect()
    }

    /// Rejected submissions as `(id, reason)`, in submission order.
    pub fn rejected(&self) -> &[(String, String)] {
        &self.rejected
    }

    /// A completed job's report.
    pub fn report(&self, id: &str) -> Option<&JobReport> {
        self.jobs.get(id).and_then(|e| e.report.as_deref())
    }

    /// A job's lifecycle state.
    pub fn state(&self, id: &str) -> Option<JobState> {
        self.jobs.get(id).map(|e| e.state)
    }

    /// The service-level trace (lifecycle points and counters).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }
}

//! The supervisor: admission, assignment, watchdog, recovery, drain.
//!
//! One single-threaded event loop owns the whole job table; workers
//! only ever talk back over an mpsc channel, and every message quotes
//! the worker's **epoch** so a fenced-off zombie can be ignored rather
//! than corrupting the table. The lifecycle per job:
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
//! Failure detection is two-pronged, matching the two ways a worker
//! can die:
//!
//! * **crash** — the thread is finished but no event for the current
//!   epoch ever arrived (a real killed process looks exactly like
//!   this). Detected on the next poll; pending events are drained
//!   first so a completion racing the scan is never misread as a
//!   crash.
//! * **hang** — the thread is alive but its heartbeat (bumped by the
//!   tuner at every round boundary) stands still for
//!   `hang_grace_polls` consecutive polls. The supervisor cancels the
//!   epoch (fencing its checkpoint saves off), parks the zombie handle
//!   for later joining, and recovers from the last snapshot.
//!
//! Recovery resumes from the job's last accepted checkpoint — or from
//! scratch if it never checkpointed — after a *simulated* backoff
//! (advancing the manual-clock service trace, not wall time; the
//! deterministic-in-simulated-time watchdog contract). Each job gets
//! `restart_budget` recoveries before it is quarantined as poisoned —
//! the same policy the tuner applies to crashing kernel candidates,
//! lifted to job granularity.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::thread::JoinHandle;
use std::time::Duration;

use heron_core::TunerControl;
use heron_pulse::SloSpec;
use heron_trace::Tracer;

use crate::job::{JobScript, JobSpec, ServeConfig};
use crate::manifest;
use crate::plan::ChaosPlan;
use crate::postmortem::{self, DeathReport, Postmortem};
use crate::queue::{AdmitError, AdmitQueue};
use crate::recorder::FlightRecorder;
use crate::store::CheckpointStore;
use crate::worker::{run_order, Event, JobReport, WorkOrder};

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

/// Supervisor-side record of one admitted job.
struct JobEntry {
    spec: JobSpec,
    state: JobState,
    /// Current (or final) attempt number; attempt 0 is the first run.
    attempt: u32,
    /// Recoveries performed (crash + hang combined).
    recoveries: u32,
    epoch: u64,
    control: TunerControl,
    handle: Option<JoinHandle<()>>,
    last_heartbeat: u64,
    stall_polls: u32,
    report: Option<Box<JobReport>>,
    /// Anomaly warnings (`pulse.warn.*`) recorded for this job.
    warnings: Vec<String>,
    /// Human-readable context for quarantine/preemption.
    note: Option<String>,
    /// Rounds/trials at preemption (from the worker's event).
    preempted_rounds: u64,
    preempted_trials: usize,
    /// Admission order (0-based), for schedule reconstruction.
    submit_seq: usize,
    /// Outcome of every settled attempt, in attempt order.
    attempts_log: Vec<AttemptRecord>,
}

/// The deterministic outcome of one worker attempt, for schedule
/// reconstruction (`heron-scope`, DESIGN.md §12).
#[derive(Debug, Clone, PartialEq)]
pub struct AttemptRecord {
    /// Attempt number (0 = first run).
    pub attempt: u32,
    /// `completed`, `preempted`, `crashed`, `hung`, or `failed`.
    pub outcome: String,
    /// Simulated wall-clock the attempt consumed before settling, ns.
    pub sim_ns: u64,
    /// Lifetime rounds when the attempt settled.
    pub rounds: u64,
}

/// One job's deterministic scheduling facts: submission order, final
/// state, and every attempt's outcome. The projection `heron-scope`
/// rebuilds the service schedule from.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduleRow {
    /// Job id.
    pub id: String,
    /// Admission order (0-based).
    pub submit_seq: usize,
    /// Final lifecycle state.
    pub state: JobState,
    /// Attempts in order (empty for jobs that never ran).
    pub attempts: Vec<AttemptRecord>,
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

/// The tuning service: a bounded queue, a worker pool, and a watchdog,
/// all driven by [`Supervisor::run`] on the calling thread.
/// How far below baseline a job's solver throughput may fall before a
/// `pulse.warn.solver_throughput` anomaly is recorded (fraction).
const THROUGHPUT_SLACK: f64 = 0.25;

/// Degradation check against a committed per-workload throughput
/// baseline (`sol_per_kprop`, as in `BENCH_heron.json`).
fn throughput_warning(
    baseline: &[(String, f64)],
    spec: &JobSpec,
    report: &JobReport,
) -> Option<String> {
    let name = spec.workload().ok()?.name;
    let base = baseline.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)?;
    let measured = heron_pulse::sol_per_kprop_from_tsv(&report.metrics_tsv)?;
    if base > 0.0 && measured < base * (1.0 - THROUGHPUT_SLACK) {
        Some(format!(
            "pulse.warn.solver_throughput sol_per_kprop={measured:.3} baseline={base:.3}"
        ))
    } else {
        None
    }
}

pub struct Supervisor {
    config: ServeConfig,
    plan: ChaosPlan,
    baseline: Vec<(String, f64)>,
    store: CheckpointStore,
    tracer: Tracer,
    queue: AdmitQueue,
    jobs: BTreeMap<String, JobEntry>,
    rejected: Vec<(String, String)>,
    tx: Sender<Event>,
    rx: Receiver<Event>,
    zombies: Vec<JoinHandle<()>>,
    spawn_counter: usize,
    submit_counter: usize,
    draining: bool,
    recorder: FlightRecorder,
    slo: SloSpec,
    postmortem_dir: Option<PathBuf>,
    postmortems: Vec<Postmortem>,
}

impl Supervisor {
    /// A supervisor with no chaos plan and a fresh in-memory store.
    pub fn new(config: ServeConfig) -> Self {
        let (tx, rx) = channel();
        let queue = AdmitQueue::new(config.queue_capacity);
        Supervisor {
            config,
            plan: ChaosPlan::none(),
            baseline: Vec::new(),
            store: CheckpointStore::new(),
            tracer: Tracer::manual(),
            queue,
            jobs: BTreeMap::new(),
            rejected: Vec::new(),
            tx,
            rx,
            zombies: Vec::new(),
            spawn_counter: 0,
            submit_counter: 0,
            draining: false,
            recorder: FlightRecorder::new(),
            slo: SloSpec::empty(),
            postmortem_dir: None,
            postmortems: Vec::new(),
        }
    }

    /// Installs a kill-injection plan (chaos harness).
    pub fn with_plan(mut self, plan: ChaosPlan) -> Self {
        self.plan = plan;
        self
    }

    /// Installs a per-workload solver-throughput baseline
    /// (`(workload name, sol_per_kprop)`); completed jobs that fall
    /// more than [`THROUGHPUT_SLACK`] below it are flagged with a
    /// `pulse.warn.solver_throughput` anomaly.
    pub fn with_baseline(mut self, baseline: Vec<(String, f64)>) -> Self {
        self.baseline = baseline;
        self
    }

    /// Installs the SLO spec judged inside postmortem bundles (the
    /// "verdicts at time of death"; defaults to the empty spec).
    pub fn with_slo(mut self, slo: SloSpec) -> Self {
        self.slo = slo;
        self
    }

    /// Mirrors every postmortem bundle to `<dir>/<job>.attempt<N>.
    /// <reason>.jsonl`. Bundles are assembled (and listed in the
    /// manifest) whether or not a directory is set, so the manifest is
    /// identical with and without one.
    pub fn with_postmortem_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.postmortem_dir = Some(dir.into());
        self
    }

    /// Builds a supervisor from a parsed job script and submits every
    /// job, recording rejections. Returns the supervisor ready to
    /// [`Supervisor::run`].
    pub fn from_script(script: JobScript) -> Self {
        let mut sup = Supervisor::new(script.config).with_plan(script.plan);
        for spec in script.jobs {
            let _ = sup.submit(spec);
        }
        sup
    }

    /// Submits one job through admission control. Rejections are
    /// recorded (for the manifest) and returned.
    pub fn submit(&mut self, spec: JobSpec) -> Result<(), AdmitError> {
        let id = spec.id.clone();
        match self.queue.submit(spec.clone()) {
            Ok(()) => {
                self.tracer.counter_add("serve.jobs_submitted", 1);
                self.tracer
                    .point_with("serve.submit", || [("job", id.clone())]);
                let submit_seq = self.submit_counter;
                self.submit_counter += 1;
                self.jobs.insert(
                    id,
                    JobEntry {
                        spec,
                        state: JobState::Queued,
                        attempt: 0,
                        recoveries: 0,
                        epoch: 0,
                        control: TunerControl::new(),
                        handle: None,
                        last_heartbeat: 0,
                        stall_polls: 0,
                        report: None,
                        warnings: Vec::new(),
                        note: None,
                        preempted_rounds: 0,
                        preempted_trials: 0,
                        submit_seq,
                        attempts_log: Vec::new(),
                    },
                );
                Ok(())
            }
            Err(e) => {
                self.tracer.counter_add("serve.jobs_rejected", 1);
                self.tracer.point_with("serve.reject", || {
                    [("job", id.clone()), ("reason", e.to_string())]
                });
                self.rejected.push((id, e.to_string()));
                Err(e)
            }
        }
    }

    /// Drives the service to completion: assigns queued jobs to free
    /// workers, processes worker events, runs the watchdog, recovers
    /// failures, and returns once every admitted job is settled
    /// (completed, preempted, quarantined — or still queued after a
    /// drain).
    pub fn run(&mut self) {
        {
            let _span = self.tracer.span("serve.run");
            loop {
                self.assign_ready();
                if self.all_settled() {
                    break;
                }
                match self
                    .rx
                    .recv_timeout(Duration::from_millis(self.config.poll_interval_ms))
                {
                    Ok(ev) => {
                        self.handle_event(ev);
                        while let Ok(ev) = self.rx.try_recv() {
                            self.handle_event(ev);
                        }
                    }
                    Err(RecvTimeoutError::Timeout) => {}
                    // We hold a sender for the workers; disconnection is
                    // impossible while `self` lives.
                    Err(RecvTimeoutError::Disconnected) => break,
                }
                self.scan_workers();
            }
        }
        self.join_all();
        self.tracer
            .counter_add("serve.checkpoint_saves", self.store.saves());
        self.tracer
            .counter_add("serve.stale_checkpoint_saves", self.store.stale_saves());
    }

    /// Requests a graceful drain: stop assigning, preempt everything
    /// running (each drains to a checkpoint in the store).
    pub fn begin_drain(&mut self) {
        if self.draining {
            return;
        }
        self.draining = true;
        self.tracer.point("serve.drain");
        for entry in self.jobs.values() {
            if entry.state == JobState::Running {
                entry.control.request_preempt();
            }
        }
    }

    fn running_count(&self) -> usize {
        self.jobs
            .values()
            .filter(|e| e.state == JobState::Running)
            .count()
    }

    fn assign_ready(&mut self) {
        if self.draining {
            return;
        }
        while self.running_count() < self.config.workers.max(1) {
            let Some(spec) = self.queue.pop() else { break };
            self.spawn(&spec.id.clone(), None, 0);
        }
    }

    /// Starts (or restarts) a worker attempt for `id`. Opens a fresh
    /// epoch so any previous worker for this job is fenced off.
    fn spawn(&mut self, id: &str, resume_from: Option<String>, attempt: u32) {
        let epoch = self.store.open_epoch(id);
        let control = TunerControl::new();
        let worker_id = self.spawn_counter % self.config.workers.max(1);
        self.spawn_counter += 1;
        let entry = self.jobs.get_mut(id).expect("spawn of unknown job");
        entry.state = JobState::Running;
        entry.attempt = attempt;
        entry.epoch = epoch;
        entry.control = control.clone();
        entry.last_heartbeat = 0;
        entry.stall_polls = 0;
        let order = WorkOrder {
            spec: entry.spec.clone(),
            attempt,
            epoch,
            resume_from,
            control,
            store: self.store.clone(),
            plan: self.plan.clone(),
            checkpoint_every: self.config.checkpoint_every,
            worker_id,
            ring_capacity: self.config.ring_capacity,
            ring_only: self.config.ring_only,
            recorder: self.recorder.clone(),
        };
        let tx = self.tx.clone();
        let handle = std::thread::Builder::new()
            .name(format!("heron-serve-w{worker_id}"))
            .spawn(move || run_order(order, tx))
            .expect("spawn worker thread");
        entry.handle = Some(handle);
        self.tracer.counter_add("serve.assignments", 1);
        let id_owned = id.to_string();
        self.tracer.point_with("serve.assign", move || {
            [
                ("job", id_owned),
                ("attempt", attempt.to_string()),
                ("worker", worker_id.to_string()),
            ]
        });
    }

    fn handle_event(&mut self, ev: Event) {
        match ev {
            Event::Completed { job, epoch, report } => {
                let Some(entry) = self.jobs.get_mut(&job) else {
                    return;
                };
                if entry.epoch != epoch || entry.state != JobState::Running {
                    self.tracer.counter_add("serve.stale_events", 1);
                    return;
                }
                if let Some(h) = entry.handle.take() {
                    let _ = h.join();
                }
                // Anomaly hook: completed-but-degraded solver throughput
                // versus the committed baseline.
                if let Some(warning) = throughput_warning(&self.baseline, &entry.spec, &report) {
                    entry.warnings.push(warning.clone());
                    self.tracer.counter_add("pulse.warn.solver_throughput", 1);
                    let job_owned = job.clone();
                    self.tracer
                        .point_with("pulse.warn.solver_throughput", move || {
                            [("job", job_owned), ("detail", warning)]
                        });
                }
                entry.attempts_log.push(AttemptRecord {
                    attempt: entry.attempt,
                    outcome: "completed".to_string(),
                    sim_ns: report.wall_ns,
                    rounds: report.rounds,
                });
                entry.state = JobState::Completed;
                entry.report = Some(report);
                self.tracer.counter_add("serve.jobs_completed", 1);
                self.tracer
                    .point_with("serve.complete", move || [("job", job)]);
                let done = self
                    .jobs
                    .values()
                    .filter(|e| e.state == JobState::Completed)
                    .count();
                if self.config.drain_after_completions > 0
                    && done >= self.config.drain_after_completions
                {
                    self.begin_drain();
                }
            }
            Event::Preempted {
                job,
                epoch,
                rounds,
                trials,
                wall_ns,
            } => {
                let Some(entry) = self.jobs.get_mut(&job) else {
                    return;
                };
                if entry.epoch != epoch || entry.state != JobState::Running {
                    self.tracer.counter_add("serve.stale_events", 1);
                    return;
                }
                if let Some(h) = entry.handle.take() {
                    let _ = h.join();
                }
                entry.attempts_log.push(AttemptRecord {
                    attempt: entry.attempt,
                    outcome: "preempted".to_string(),
                    sim_ns: wall_ns,
                    rounds,
                });
                entry.state = JobState::Preempted;
                entry.preempted_rounds = rounds;
                entry.preempted_trials = trials;
                entry.note = Some(format!("checkpointed at round {rounds}"));
                self.tracer.counter_add("serve.jobs_preempted", 1);
                self.tracer
                    .point_with("serve.preempt", move || [("job", job)]);
            }
            Event::Failed { job, epoch, reason } => {
                let Some(entry) = self.jobs.get_mut(&job) else {
                    return;
                };
                if entry.epoch != epoch || entry.state != JobState::Running {
                    self.tracer.counter_add("serve.stale_events", 1);
                    return;
                }
                if let Some(h) = entry.handle.take() {
                    let _ = h.join();
                }
                // A session that cannot be built is deterministically
                // poisoned; retrying cannot help.
                entry.attempts_log.push(AttemptRecord {
                    attempt: entry.attempt,
                    outcome: "failed".to_string(),
                    sim_ns: 0,
                    rounds: 0,
                });
                entry.state = JobState::Quarantined;
                entry.note = Some(format!("poisoned: {reason}"));
                self.tracer.counter_add("serve.jobs_quarantined", 1);
                let job_owned = job.clone();
                self.tracer
                    .point_with("serve.quarantine", move || [("job", job_owned)]);
                self.emit_postmortem(&job, "quarantine");
            }
        }
    }

    /// The watchdog pass: detect crashed workers (finished thread, no
    /// event) and hung workers (live thread, flat heartbeat).
    fn scan_workers(&mut self) {
        let running: Vec<String> = self
            .jobs
            .iter()
            .filter(|(_, e)| e.state == JobState::Running && e.handle.is_some())
            .map(|(id, _)| id.clone())
            .collect();
        for id in running {
            let finished = self
                .jobs
                .get(&id)
                .and_then(|e| e.handle.as_ref())
                .is_some_and(|h| h.is_finished());
            if finished {
                // Drain the channel first: a completion racing this scan
                // must never be misread as a crash (a worker's event is
                // sent strictly before its thread exits).
                while let Ok(ev) = self.rx.try_recv() {
                    self.handle_event(ev);
                }
                let entry = self.jobs.get_mut(&id).expect("scanned job exists");
                if entry.state != JobState::Running {
                    continue; // the drained event settled it
                }
                if let Some(h) = entry.handle.take() {
                    let _ = h.join();
                }
                self.tracer.counter_add("serve.crashes_detected", 1);
                let id_owned = id.clone();
                self.tracer
                    .point_with("serve.crash_detected", move || [("job", id_owned)]);
                let (sim_ns, rounds) = self.attempt_facts(&id);
                let entry = self.jobs.get_mut(&id).expect("scanned job exists");
                entry.attempts_log.push(AttemptRecord {
                    attempt: entry.attempt,
                    outcome: "crashed".to_string(),
                    sim_ns,
                    rounds,
                });
                self.emit_postmortem(&id, "crash");
                self.recover(&id);
            } else {
                let entry = self.jobs.get_mut(&id).expect("scanned job exists");
                let hb = entry.control.heartbeat();
                if hb != entry.last_heartbeat {
                    entry.last_heartbeat = hb;
                    entry.stall_polls = 0;
                    continue;
                }
                entry.stall_polls += 1;
                // Anomaly hook, live half: a flat heartbeat at half the
                // hang grace is a stall *precursor* — surfaced as a
                // counter and point well before the watchdog fires. A
                // slow-but-healthy round can trip this too, so only the
                // trace records it; the job's durable warning list
                // (manifest, pulse.json) waits for confirmation below.
                if entry.stall_polls == (self.config.hang_grace_polls / 2).max(1) {
                    let attempt = entry.attempt;
                    self.tracer.counter_add("pulse.warn.heartbeat_stall", 1);
                    let id_owned = id.clone();
                    self.tracer
                        .point_with("pulse.warn.heartbeat_stall", move || {
                            [("job", id_owned), ("attempt", attempt.to_string())]
                        });
                }
                if entry.stall_polls < self.config.hang_grace_polls {
                    continue;
                }
                // Anomaly hook, durable half: the stall is now a
                // confirmed hang — a deterministic function of the
                // chaos plan — so record it on the job.
                entry.warnings.push(format!(
                    "pulse.warn.heartbeat_stall attempt={}",
                    entry.attempt
                ));
                // Hang: fence the epoch off (cancel wakes the zombie so
                // it can exit; its checkpoint saves are already stale
                // the moment we respawn), park the handle, recover.
                entry.control.request_cancel();
                if let Some(h) = entry.handle.take() {
                    self.zombies.push(h);
                }
                self.tracer.counter_add("serve.hangs_detected", 1);
                let id_owned = id.clone();
                self.tracer
                    .point_with("serve.hang_detected", move || [("job", id_owned)]);
                let (sim_ns, rounds) = self.attempt_facts(&id);
                let entry = self.jobs.get_mut(&id).expect("scanned job exists");
                entry.attempts_log.push(AttemptRecord {
                    attempt: entry.attempt,
                    outcome: "hung".to_string(),
                    sim_ns,
                    rounds,
                });
                self.emit_postmortem(&id, "hang");
                self.recover(&id);
            }
        }
    }

    /// Retry-with-backoff, bounded by the restart budget. Resumes from
    /// the last accepted checkpoint, or from scratch if the job died
    /// before ever snapshotting.
    fn recover(&mut self, id: &str) {
        let (recoveries, next_attempt) = {
            let entry = self.jobs.get_mut(id).expect("recovering unknown job");
            entry.recoveries += 1;
            (entry.recoveries, entry.attempt + 1)
        };
        if recoveries > self.config.restart_budget {
            let entry = self.jobs.get_mut(id).expect("recovering unknown job");
            entry.state = JobState::Quarantined;
            entry.note = Some(format!(
                "poisoned: restart budget ({}) exhausted after {} attempts",
                self.config.restart_budget, next_attempt
            ));
            self.tracer.counter_add("serve.jobs_quarantined", 1);
            let id_owned = id.to_string();
            self.tracer
                .point_with("serve.quarantine", move || [("job", id_owned)]);
            self.emit_postmortem(id, "quarantine");
            return;
        }
        // Exponential backoff in *simulated* time: the service trace's
        // manual clock advances, wall time does not. Step-based
        // supervision stays deterministic and tests stay fast.
        let backoff_s = self.config.backoff_base_s * f64::powi(2.0, recoveries as i32 - 1);
        self.tracer.advance_s(backoff_s);
        self.tracer.counter_add("serve.jobs_recovered", 1);
        let resume_from = self.store.load(id);
        let resumed = resume_from.is_some();
        let id_owned = id.to_string();
        self.tracer.point_with("serve.recover", move || {
            [
                ("job", id_owned),
                ("attempt", next_attempt.to_string()),
                ("from_checkpoint", resumed.to_string()),
            ]
        });
        self.spawn(id, resume_from, next_attempt);
    }

    /// The dying attempt's last-flushed `(sim_ns, rounds)` — zeros when
    /// no deposit from the job's current epoch exists (e.g. a session
    /// that never completed a round).
    fn attempt_facts(&self, id: &str) -> (u64, u64) {
        let entry = &self.jobs[id];
        match self.recorder.get(id) {
            Some(f) if f.epoch == entry.epoch => (f.sim_ns, f.rounds),
            _ => (0, 0),
        }
    }

    /// Assembles the postmortem bundle for one death, records it for
    /// the manifest, and mirrors it to `--postmortem-dir` when set.
    fn emit_postmortem(&mut self, id: &str, reason: &str) {
        let entry = self.jobs.get(id).expect("postmortem for unknown job");
        let checkpoint = self.store.load(id);
        let flight = self.recorder.get(id);
        let flight_ref = flight.as_ref().filter(|f| f.epoch == entry.epoch);
        let pm = postmortem::build(&DeathReport {
            job: id,
            attempt: entry.attempt,
            epoch: entry.epoch,
            reason,
            recoveries: entry.recoveries,
            restart_budget: self.config.restart_budget,
            backoff_base_s: self.config.backoff_base_s,
            checkpoint: checkpoint.as_deref(),
            flight: flight_ref,
            slo: &self.slo,
        });
        self.tracer.counter_add("serve.postmortems", 1);
        let id_owned = id.to_string();
        let reason_owned = reason.to_string();
        self.tracer.point_with("serve.postmortem", move || {
            [("job", id_owned), ("reason", reason_owned)]
        });
        if let Some(dir) = &self.postmortem_dir {
            let _ = std::fs::create_dir_all(dir);
            let _ = std::fs::write(dir.join(&pm.file), &pm.bundle);
        }
        self.postmortems.push(pm);
        // Detection order is scheduling-dependent (a hang takes
        // `hang_grace_polls` to confirm; a crash one poll), so the list
        // is kept in canonical (job, attempt, reason) order — the
        // manifest and the byte-identity checks depend on it.
        self.postmortems
            .sort_by(|a, b| (&a.job, a.attempt, &a.reason).cmp(&(&b.job, b.attempt, &b.reason)));
    }

    fn all_settled(&self) -> bool {
        let queue_done = self.draining || self.queue.is_empty();
        queue_done
            && self.jobs.values().all(|e| match e.state {
                JobState::Completed | JobState::Preempted | JobState::Quarantined => true,
                JobState::Queued => self.draining,
                JobState::Running => false,
            })
    }

    fn join_all(&mut self) {
        for entry in self.jobs.values_mut() {
            if let Some(h) = entry.handle.take() {
                entry.control.request_cancel();
                let _ = h.join();
            }
        }
        for h in self.zombies.drain(..) {
            let _ = h.join();
        }
    }

    /// Snapshot of every admitted job, in id order.
    pub fn rows(&self) -> Vec<JobRow> {
        self.jobs
            .iter()
            .map(|(id, e)| {
                let (rounds, trials) = match (&e.report, e.state) {
                    (Some(r), _) => (r.rounds, r.trials),
                    (None, JobState::Preempted) => (e.preempted_rounds, e.preempted_trials),
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

    /// Rejected submissions as `(id, reason)`, in submission order.
    pub fn rejected(&self) -> &[(String, String)] {
        &self.rejected
    }

    /// Every postmortem bundle assembled this run, in emission order.
    pub fn postmortems(&self) -> &[Postmortem] {
        &self.postmortems
    }

    /// The shared flight recorder (per-job latest ring deposits).
    pub fn recorder(&self) -> &FlightRecorder {
        &self.recorder
    }

    /// Deterministic scheduling facts for every admitted job, in
    /// submission order — the `heron-scope` input projection.
    pub fn schedule_rows(&self) -> Vec<ScheduleRow> {
        let mut rows: Vec<ScheduleRow> = self
            .jobs
            .iter()
            .map(|(id, e)| ScheduleRow {
                id: id.clone(),
                submit_seq: e.submit_seq,
                state: e.state,
                attempts: e.attempts_log.clone(),
            })
            .collect();
        rows.sort_by_key(|r| r.submit_seq);
        rows
    }

    /// The deterministic results manifest.
    pub fn manifest(&self) -> String {
        manifest::render(&self.rows(), self.rejected(), self.postmortems())
    }

    /// A completed job's report.
    pub fn report(&self, id: &str) -> Option<&JobReport> {
        self.jobs.get(id).and_then(|e| e.report.as_deref())
    }

    /// A job's lifecycle state.
    pub fn state(&self, id: &str) -> Option<JobState> {
        self.jobs.get(id).map(|e| e.state)
    }

    /// The shared checkpoint store (e.g. to resume preempted jobs).
    pub fn store(&self) -> &CheckpointStore {
        &self.store
    }

    /// The service-level trace (lifecycle spans, points, counters).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// One correlated trace for the whole run: the supervisor's own
    /// (untagged) events merged with every completed job's tagged
    /// session trace, in job-id order, resequenced. Validates under
    /// `check_trace` (per-context discipline) and slices losslessly
    /// back apart with `slice_by_job`.
    pub fn merged_trace_jsonl(&self) -> String {
        let service = self.tracer.to_jsonl();
        let mut parts: Vec<&str> = vec![service.as_str()];
        for entry in self.jobs.values() {
            if let Some(report) = &entry.report {
                parts.push(report.trace_jsonl.as_str());
            }
        }
        heron_trace::merge_traces(&parts)
    }

    /// The deterministic projection of this run for the pulse engine
    /// ([`heron_pulse::build_pulse`]): manifest-grade job rows plus
    /// per-job artifacts, nothing scheduling-dependent.
    pub fn pulse_input(&self) -> heron_pulse::ServiceInput {
        let jobs = self
            .jobs
            .iter()
            .map(|(id, e)| {
                let report = e.report.as_deref();
                let (rounds, trials) = match (report, e.state) {
                    (Some(r), _) => (r.rounds, r.trials),
                    (None, JobState::Preempted) => (e.preempted_rounds, e.preempted_trials),
                    _ => (0, 0),
                };
                heron_pulse::JobInput {
                    id: id.clone(),
                    state: e.state.to_string(),
                    attempts: if e.epoch > 0 { e.attempt + 1 } else { 0 },
                    recoveries: e.recoveries,
                    rounds,
                    trials: trials as u64,
                    termination: report.map(|r| r.termination.clone()),
                    warnings: e.warnings.clone(),
                    insight_json: report.map(|r| r.insight_json.clone()).unwrap_or_default(),
                    metrics_tsv: report.map(|r| r.metrics_tsv.clone()).unwrap_or_default(),
                    wall_ns: report.map_or(0, |r| r.wall_ns),
                    postmortems: self.postmortems.iter().filter(|p| p.job == *id).count() as u64,
                    trace_jsonl: report
                        .map(|r| {
                            heron_trace::slice_by_job(&r.trace_jsonl)
                                .remove(id.as_str())
                                .unwrap_or_default()
                        })
                        .unwrap_or_default(),
                }
            })
            .collect();
        heron_pulse::ServiceInput {
            config: heron_pulse::PulseConfig {
                backoff_base_s: self.config.backoff_base_s,
                checkpoint_every: self.config.checkpoint_every,
                workers: self.config.workers,
            },
            jobs,
            rejected: self.rejected.clone(),
        }
    }
}

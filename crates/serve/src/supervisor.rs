//! The supervisor: the threaded driver of the service [`Policy`].
//!
//! Every decision is the policy's; the supervisor carries its effects out
//! with one OS thread per worker attempt ([`run_order`]), one mpsc channel
//! back, and the shared checkpoint store and flight recorder. A thread's
//! end is itself a message — its drop guard sends [`Event::Exited`] after
//! any report, on return and panic alike — so a crash is seen the moment
//! the thread ends. Only a hang is polled for: every `poll_interval_ms`,
//! and after every batch of messages, the watchdog compares each live
//! attempt's heartbeat with the last one seen. Flat for half of
//! `hang_grace_polls` polls, it records a `pulse.warn.heartbeat_stall`
//! precursor in the service trace only (a slow but healthy round can trip
//! it too); flat for all of them, it hands the policy a confirmed stall.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread::JoinHandle;
use std::time::Duration;

use heron_core::TunerControl;
use heron_pulse::SloSpec;
use heron_trace::Tracer;

use crate::job::{JobScript, JobSpec, ServeConfig};
use crate::manifest;
use crate::plan::ChaosPlan;
use crate::policy::{Effect, Event, Policy};
use crate::postmortem::{self, DeathReport, Postmortem};
use crate::queue::AdmitError;
use crate::recorder::FlightRecorder;
use crate::store::CheckpointStore;
use crate::worker::{run_order, JobReport, WorkOrder};

pub use crate::policy::{JobRow, JobState};

/// A worker thread not yet joined.
struct Worker {
    attempt: u32,
    control: TunerControl,
    handle: JoinHandle<()>,
    /// The heartbeat last seen, and for how many polls it has stood still.
    heartbeat: u64,
    stall_polls: u32,
}

/// The tuning service: a bounded queue, a worker pool, and a watchdog,
/// all driven by [`Supervisor::run`] on the calling thread.
pub struct Supervisor {
    policy: Policy,
    plan: ChaosPlan,
    store: CheckpointStore,
    recorder: FlightRecorder,
    slo: SloSpec,
    postmortem_dir: Option<PathBuf>,
    postmortems: Vec<Postmortem>,
    tx: Sender<Event>,
    rx: Receiver<Event>,
    /// Worker threads by `(job, epoch)`, joined on their report or exit.
    workers: BTreeMap<(String, u64), Worker>,
}

impl Supervisor {
    /// A supervisor with no chaos plan and a fresh in-memory store.
    pub fn new(config: ServeConfig) -> Self {
        let (tx, rx) = channel();
        Supervisor {
            policy: Policy::new(config),
            plan: ChaosPlan::none(),
            store: CheckpointStore::new(),
            recorder: FlightRecorder::new(),
            slo: SloSpec::empty(),
            postmortem_dir: None,
            postmortems: Vec::new(),
            tx,
            rx,
            workers: BTreeMap::new(),
        }
    }

    /// Installs a kill-injection plan (chaos harness).
    pub fn with_plan(mut self, plan: ChaosPlan) -> Self {
        self.plan = plan;
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
        self.policy.submit(spec)
    }

    /// Drives the service to completion: assigns queued jobs to free
    /// workers, processes worker events, runs the watchdog, recovers
    /// failures, and returns once every admitted job is settled
    /// (completed, preempted, quarantined — or still queued after a
    /// drain).
    pub fn run(&mut self) {
        {
            let _span = self.policy.tracer().span("serve.run");
            self.apply(Event::Run);
            let poll = Duration::from_millis(self.policy.config().poll_interval_ms);
            while !self.policy.settled() {
                // `self.tx` keeps the channel connected, so an error is a
                // timeout: a watchdog poll with nothing to deliver.
                if let Ok(event) = self.rx.recv_timeout(poll) {
                    self.deliver(event);
                    while let Ok(event) = self.rx.try_recv() {
                        self.deliver(event);
                    }
                }
                self.watch();
            }
        }
        for (_, worker) in std::mem::take(&mut self.workers) {
            worker.control.request_cancel();
            // A worker's panic already reached the policy as its exit.
            let _ = worker.handle.join();
        }
        // Detection order depends on scheduling (a hang takes
        // `hang_grace_polls` to confirm, a crash none), so the list is kept
        // in canonical (job, attempt, reason) order — the manifest and the
        // byte-identity checks depend on it.
        self.postmortems
            .sort_by(|a, b| (&a.job, a.attempt, &a.reason).cmp(&(&b.job, b.attempt, &b.reason)));
        let tracer = self.policy.tracer();
        tracer.counter_add("serve.checkpoint_saves", self.store.saves());
        tracer.counter_add("serve.stale_checkpoint_saves", self.store.stale_saves());
    }

    fn deliver(&mut self, mut event: Event) {
        // A report is a worker's last act before it exits: join the thread
        // first, so its session is freed before a successor starts. A
        // panic reaches the policy as an exit with no report: a crash.
        // An exit quotes the attempt's last flush, as a stall does.
        if let Some((job, epoch)) = event.attempt() {
            let key = (job.to_string(), epoch);
            if let Some(worker) = self.workers.remove(&key) {
                let _ = worker.handle.join();
            }
            if let Event::Exited { rounds, sim_ns, .. } = &mut event {
                (*rounds, *sim_ns) = self.last_flush(&key.0, key.1);
            }
        }
        self.apply(event);
    }

    /// Lifetime rounds and simulated clock at attempt `epoch` of `job`'s
    /// last flight-recorder flush; zeros if it never flushed.
    fn last_flush(&self, job: &str, epoch: u64) -> (u64, u64) {
        self.recorder
            .get(job)
            .filter(|f| f.epoch == epoch)
            .map_or((0, 0), |f| (f.rounds, f.sim_ns))
    }

    /// Steps the policy and carries out its effects in order.
    fn apply(&mut self, event: Event) {
        for effect in self.policy.step(event) {
            match effect {
                // The backoff is simulated: the service trace's manual
                // clock has advanced by it, wall time does not wait.
                Effect::Start {
                    slot,
                    spec,
                    attempt,
                    epoch,
                    ..
                } => self.spawn(slot, spec, attempt, epoch),
                Effect::Fence { job, epoch } => self.open_epoch(&job, epoch),
                Effect::Preempt { job, epoch } => {
                    if let Some(w) = self.workers.get(&(job, epoch)) {
                        w.control.request_preempt();
                    }
                }
                Effect::Cancel { job, epoch } => {
                    if let Some(w) = self.workers.get(&(job, epoch)) {
                        w.control.request_cancel();
                    }
                }
                Effect::Postmortem {
                    job,
                    attempt,
                    epoch,
                    reason,
                    recoveries,
                } => self.postmortem(&job, attempt, epoch, reason, recoveries),
            }
        }
    }

    /// Opens the policy's epoch `epoch` of `job` in the store.
    fn open_epoch(&self, job: &str, epoch: u64) {
        let opened = self.store.open_epoch(job);
        assert_eq!(opened, epoch, "the store's epoch follows the policy's");
    }

    fn spawn(&mut self, slot: usize, spec: JobSpec, attempt: u32, epoch: u64) {
        self.open_epoch(&spec.id, epoch);
        // Job ids are unique, so only a recovery finds a checkpoint.
        let resume_from = self.store.load(&spec.id);
        let config = self.policy.config();
        let control = TunerControl::new();
        let key = (spec.id.clone(), epoch);
        let order = WorkOrder {
            spec,
            attempt,
            epoch,
            resume_from,
            control: control.clone(),
            store: self.store.clone(),
            plan: self.plan.clone(),
            checkpoint_every: config.checkpoint_every,
            worker_id: slot,
            recorder: self.recorder.clone(),
        };
        let tx = self.tx.clone();
        let handle = std::thread::Builder::new()
            .name(format!("heron-serve-w{slot}"))
            .spawn(move || run_order(order, tx))
            .expect("spawn worker thread");
        let worker = Worker {
            attempt,
            control,
            handle,
            heartbeat: 0,
            stall_polls: 0,
        };
        self.workers.insert(key, worker);
    }

    /// The watchdog pass over every live attempt's heartbeat.
    fn watch(&mut self) {
        let grace = self.policy.config().hang_grace_polls;
        let mut stalled = Vec::new();
        for ((job, epoch), w) in &mut self.workers {
            if !self.policy.is_live(job, *epoch) {
                continue;
            }
            let heartbeat = w.control.heartbeat();
            if heartbeat != w.heartbeat {
                w.heartbeat = heartbeat;
                w.stall_polls = 0;
                continue;
            }
            w.stall_polls += 1;
            if w.stall_polls == (grace / 2).max(1) {
                let tracer = self.policy.tracer();
                tracer.counter_add("pulse.warn.heartbeat_stall", 1);
                tracer.point_with("pulse.warn.heartbeat_stall", || {
                    [("job", job.clone()), ("attempt", w.attempt.to_string())]
                });
            }
            if w.stall_polls >= grace {
                stalled.push((job.clone(), *epoch));
            }
        }
        for (job, epoch) in stalled {
            let (rounds, sim_ns) = self.last_flush(&job, epoch);
            self.apply(Event::Stalled {
                job,
                epoch,
                rounds,
                sim_ns,
            });
        }
    }

    /// Assembles the postmortem bundle for one death, records it for
    /// the manifest, and mirrors it to `--postmortem-dir` when set.
    fn postmortem(&mut self, job: &str, attempt: u32, epoch: u64, reason: &str, recoveries: u32) {
        let checkpoint = self.store.load(job);
        let flight = self.recorder.get(job).filter(|f| f.epoch == epoch);
        let config = self.policy.config();
        let pm = postmortem::build(&DeathReport {
            job,
            attempt,
            epoch,
            reason,
            recoveries,
            restart_budget: config.restart_budget,
            backoff_base_s: config.backoff_base_s,
            checkpoint: checkpoint.as_deref(),
            flight: flight.as_ref(),
            slo: &self.slo,
        });
        if let Some(dir) = &self.postmortem_dir {
            let _ = std::fs::create_dir_all(dir);
            let _ = std::fs::write(dir.join(&pm.file), &pm.bundle);
        }
        self.postmortems.push(pm);
    }

    /// Snapshot of every admitted job, in id order.
    pub fn rows(&self) -> Vec<JobRow> {
        self.policy.rows()
    }

    /// Rejected submissions as `(id, reason)`, in submission order.
    pub fn rejected(&self) -> &[(String, String)] {
        self.policy.rejected()
    }

    /// Every postmortem bundle assembled this run, in (job, attempt,
    /// reason) order.
    pub fn postmortems(&self) -> &[Postmortem] {
        &self.postmortems
    }

    /// The shared flight recorder (per-job latest ring deposits).
    pub fn recorder(&self) -> &FlightRecorder {
        &self.recorder
    }

    /// The run's schedule as the policy places it on the simulated clock.
    pub fn timeline(&self) -> crate::sim::Timeline {
        crate::sim::timeline(&self.policy)
    }

    /// The deterministic results manifest.
    pub fn manifest(&self) -> String {
        manifest::render(&self.rows(), self.rejected(), self.postmortems())
    }

    /// A completed job's report.
    pub fn report(&self, id: &str) -> Option<&JobReport> {
        self.policy.report(id)
    }

    /// A job's lifecycle state.
    pub fn state(&self, id: &str) -> Option<JobState> {
        self.policy.state(id)
    }

    /// The shared checkpoint store (e.g. to resume preempted jobs).
    pub fn store(&self) -> &CheckpointStore {
        &self.store
    }

    /// The service-level trace (lifecycle spans, points, counters).
    pub fn tracer(&self) -> &Tracer {
        self.policy.tracer()
    }

    /// One correlated trace for the whole run: the supervisor's own
    /// (untagged) events merged with every completed job's tagged
    /// session trace, in job-id order, resequenced. Validates under
    /// `check_trace` (per-context discipline) and slices losslessly
    /// back apart with `slice_by_job`.
    pub fn merged_trace_jsonl(&self) -> String {
        let service = self.tracer().to_jsonl();
        let rows = self.rows();
        let mut parts: Vec<&str> = vec![service.as_str()];
        parts.extend(
            rows.iter()
                .filter_map(|r| self.report(&r.id))
                .map(|r| r.trace_jsonl.as_str()),
        );
        heron_trace::merge_traces(&parts)
    }

    /// The deterministic projection of this run for the pulse engine
    /// ([`heron_pulse::build_pulse`]): manifest-grade job rows plus
    /// per-job artifacts, nothing scheduling-dependent.
    pub fn pulse_input(&self) -> heron_pulse::ServiceInput {
        let jobs = self
            .rows()
            .into_iter()
            .map(|row| {
                let report = self.report(&row.id);
                heron_pulse::JobInput {
                    state: row.state.to_string(),
                    attempts: row.attempts,
                    recoveries: row.recoveries,
                    rounds: row.rounds,
                    trials: row.trials as u64,
                    termination: row.termination,
                    warnings: row.warnings,
                    insight_json: report.map(|r| r.insight_json.clone()).unwrap_or_default(),
                    metrics_tsv: report.map(|r| r.metrics_tsv.clone()).unwrap_or_default(),
                    wall_ns: report.map_or(0, |r| r.wall_ns),
                    postmortems: self.postmortems.iter().filter(|p| p.job == row.id).count() as u64,
                    trace_jsonl: report
                        .and_then(|r| heron_trace::slice_by_job(&r.trace_jsonl).remove(&row.id))
                        .unwrap_or_default(),
                    id: row.id,
                }
            })
            .collect();
        let config = self.policy.config();
        heron_pulse::ServiceInput {
            config: heron_pulse::PulseConfig {
                backoff_base_s: config.backoff_base_s,
                checkpoint_every: config.checkpoint_every,
                workers: config.workers,
            },
            jobs,
            rejected: self.rejected().to_vec(),
        }
    }
}

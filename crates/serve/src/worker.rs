//! Worker execution: one OS thread, one owned `Tuner` session.
//!
//! `Tuner` is deliberately not `Send` (its tracer and solver sessions
//! are `Rc`-based), so a worker never receives a session object — it
//! receives a [`WorkOrder`] of plain `Send` data (the job spec, the
//! checkpoint *text* to resume from, the shared control handle and
//! store) and constructs the session entirely in-thread via
//! [`build_session`]. That same constructor is what the chaos harness
//! uses for uninterrupted reference runs, which is the crux of the
//! byte-identity proof: service and reference sessions are the same
//! code path, differing only in who calls `step()`.
//!
//! The round loop consults the chaos plan at every round boundary
//! (*after* the round's work, *before* the periodic checkpoint — so a
//! kill always loses the rounds since the last snapshot and recovery
//! genuinely has to replay them) and the [`TunerControl`] is consulted
//! by the tuner itself inside `step()`. Exits:
//!
//! * finished → [`Event::Completed`] with the full [`JobReport`];
//! * preempted (job deadline or supervisor drain) → checkpoint to the
//!   store, then [`Event::Preempted`];
//! * cancelled (epoch fenced off after a false start) → no report;
//! * chaos crash → no report (the supervisor sees an exit that no
//!   report preceded);
//! * chaos hang → park until cancelled, then no report (the supervisor
//!   sees a live thread whose heartbeat stands still).
//!
//! Every exit, panics included, ends with [`Event::Exited`].

use std::sync::mpsc::Sender;

use heron_core::checkpoint::TuneCheckpoint;
use heron_core::generate::{SpaceGenerator, SpaceOptions};
use heron_core::tuner::{Termination, Tuner};
use heron_core::TunerControl;
use heron_dla::{FaultPlan, Measurer};
use heron_trace::{TraceContext, Tracer};

use crate::job::JobSpec;
use crate::plan::{ChaosPlan, KillKind};
pub use crate::policy::Event;
use crate::recorder::{FlightEntry, FlightRecorder};
use crate::store::CheckpointStore;

/// Everything a worker thread needs to run one attempt of one job.
/// All fields are `Send`; the non-`Send` session is built in-thread.
pub struct WorkOrder {
    /// The job to run.
    pub spec: JobSpec,
    /// Attempt number (0 = first run; increments per recovery).
    pub attempt: u32,
    /// Epoch fencing token quoted on every checkpoint save.
    pub epoch: u64,
    /// Checkpoint text to resume from (`None` = fresh session).
    pub resume_from: Option<String>,
    /// Cancellation/preemption/heartbeat handle shared with the
    /// supervisor.
    pub control: TunerControl,
    /// Shared checkpoint store.
    pub store: CheckpointStore,
    /// Kill-injection schedule.
    pub plan: ChaosPlan,
    /// Periodic checkpoint cadence in rounds (0 = only on preempt).
    pub checkpoint_every: u64,
    /// Worker slot this attempt runs on (observability only).
    pub worker_id: usize,
    /// Where per-round ring snapshots are deposited for postmortems.
    pub recorder: FlightRecorder,
}

/// Events in the flight-recorder tail each round deposits (DESIGN.md
/// §12).
const RING_EVENTS: usize = 64;

/// The deterministic outcome of a completed job, shipped back over the
/// event channel (plain data — safe to send across threads).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct JobReport {
    /// Job id.
    pub job: String,
    /// `TuneResult::deterministic_record()` — the byte string the chaos
    /// harness compares against uninterrupted reference runs.
    pub record: String,
    /// `TuneResult::determinism_fingerprint()` over the record.
    pub fingerprint: u64,
    /// Best throughput found (Gops/s).
    pub best_gflops: f64,
    /// Lifetime rounds (survives checkpoint/resume).
    pub rounds: u64,
    /// Trials completed.
    pub trials: usize,
    /// Final `Termination`, rendered.
    pub termination: String,
    /// Per-job `insight.json` document (search-health analytics).
    pub insight_json: String,
    /// The attempt's metrics registry snapshot (TSV).
    pub metrics_tsv: String,
    /// The attempt's simulated wall-clock, nanoseconds.
    pub wall_ns: u64,
    /// The attempt's session trace (manual clock, JSONL; every line
    /// carries the job's correlation context).
    pub trace_jsonl: String,
}

/// Sends [`Event::Exited`] when dropped. The driver fills in the flush
/// facts from the flight recorder.
struct ExitNotice {
    events: Sender<Event>,
    job: String,
    epoch: u64,
}

impl Drop for ExitNotice {
    fn drop(&mut self) {
        let _ = self.events.send(Event::Exited {
            job: std::mem::take(&mut self.job),
            epoch: self.epoch,
            rounds: 0,
            sim_ns: 0,
        });
    }
}

/// Builds a tuning session for `spec`, fresh or resumed from checkpoint
/// text. This is the *single* session-construction path shared by
/// service workers and uninterrupted chaos-reference runs — byte
/// identity between the two is only meaningful because of that.
pub fn build_session(spec: &JobSpec, resume_from: Option<&str>) -> Result<Tuner, String> {
    let workload = spec.workload().map_err(|e| e.to_string())?;
    let platform = spec.platform().map_err(|e| e.to_string())?;
    let dag = workload.build(platform.in_dtype);
    let config = heron_baselines::tune::heron_config(spec.trials);
    let space = SpaceGenerator::new(platform.clone())
        .generate_named(&dag, &SpaceOptions::heron(), &workload.name)
        .map_err(|e| format!("cannot generate space: {e}"))?;
    let fault_plan = if spec.fault_rate > 0.0 {
        FaultPlan::uniform(spec.seed, spec.fault_rate)
    } else {
        FaultPlan::none(spec.seed)
    };
    let measurer = Measurer::new(platform);
    let mut tuner = match resume_from {
        Some(text) => {
            let ckpt =
                TuneCheckpoint::from_text(text).map_err(|e| format!("corrupt checkpoint: {e}"))?;
            Tuner::resume(space, measurer, config, fault_plan, &ckpt)
                .map_err(|e| format!("cannot resume: {e}"))?
        }
        None => Tuner::new(space, measurer, config, spec.seed).with_faults(fault_plan),
    };
    // Manual clock: session traces advance by simulated measurement
    // time, so they are reproducible from the seed.
    tuner.set_tracer(Tracer::enabled(heron_trace::Clock::manual()));
    // Resume restores the insight log from the checkpoint; resetting it
    // would lose pre-pause rounds and break insight-exact resumption.
    if tuner.insight().is_none() {
        tuner.enable_insight(8);
    }
    Ok(tuner)
}

/// Renders the per-job `insight.json` for a finished session.
pub fn render_insight(tuner: &Tuner) -> String {
    match tuner.insight() {
        Some(log) => heron_insight::analyze(log).to_json(log).render_pretty(),
        None => String::new(),
    }
}

/// The worker thread body: builds the session, runs it round by round
/// under the chaos plan, and reports (or pointedly fails to report)
/// to the supervisor.
pub fn run_order(order: WorkOrder, events: Sender<Event>) {
    let WorkOrder {
        spec,
        attempt,
        epoch,
        resume_from,
        control,
        store,
        plan,
        checkpoint_every,
        worker_id: _,
        recorder,
    } = order;
    let job = spec.id.clone();
    let _exit = ExitNotice {
        events: events.clone(),
        job: job.clone(),
        epoch,
    };

    let mut tuner = match build_session(&spec, resume_from.as_deref()) {
        Ok(t) => t,
        Err(reason) => {
            let _ = events.send(Event::Failed { job, epoch, reason });
            return;
        }
    };
    tuner.set_control(control.clone());
    // Correlation: tag every event this attempt emits so the merged
    // service trace can be sliced back per job. Set here — not in
    // `build_session` — so chaos reference runs stay untagged.
    tuner
        .tracer()
        .set_context(Some(TraceContext::new(job.as_str(), attempt, epoch)));
    if spec.deadline_rounds > 0 {
        control.set_deadline_rounds(spec.deadline_rounds);
    }

    while tuner.step() {
        let round = tuner.rounds_total() as u64;
        // Flush the log's tail *before* the chaos kill check: the deposit
        // must cover the fatal round, because a killed worker flushes
        // nothing ever again. Epoch-guarded like checkpoint saves.
        recorder.save(
            &spec.id,
            FlightEntry {
                attempt,
                epoch,
                rounds: round,
                sim_ns: tuner.tracer().now_ns(),
                ring_jsonl: tuner.tracer().tail_jsonl(RING_EVENTS),
            },
        );
        match plan.kill_at(&spec.id, attempt, round) {
            Some(KillKind::Crash) => {
                // A killed process reports nothing; the rounds since the
                // last checkpoint die with it.
                return;
            }
            Some(KillKind::Hang) => {
                // Stop beating but stay alive until the supervisor
                // fences this epoch off and cancels us.
                while !control.cancel_requested() {
                    std::thread::park_timeout(std::time::Duration::from_millis(5));
                }
                return;
            }
            None => {}
        }
        if checkpoint_every > 0 && round.is_multiple_of(checkpoint_every) {
            // Epoch-guarded: a fenced-off zombie's save is rejected (and
            // counted) by the store rather than corrupting its
            // replacement's state.
            store.save(&spec.id, epoch, tuner.checkpoint().to_text());
        }
    }

    let result = tuner.result();
    match result.termination {
        Termination::Preempted => {
            store.save(&spec.id, epoch, tuner.checkpoint().to_text());
            let _ = events.send(Event::Preempted {
                job,
                epoch,
                rounds: result.rounds_total as u64,
                trials: tuner.trials_done(),
                wall_ns: tuner.tracer().now_ns(),
            });
        }
        Termination::Cancelled => {
            // Fenced off; our results are nobody's business.
        }
        _ => {
            let report = JobReport {
                job: job.clone(),
                record: result.deterministic_record(),
                fingerprint: result.determinism_fingerprint(),
                best_gflops: result.best_gflops,
                rounds: result.rounds_total as u64,
                trials: tuner.trials_done(),
                termination: result.termination.to_string(),
                insight_json: render_insight(&tuner),
                metrics_tsv: tuner.tracer().metrics_tsv(),
                wall_ns: tuner.tracer().now_ns(),
                trace_jsonl: tuner.tracer().to_jsonl(),
            };
            let _ = events.send(Event::Completed {
                job,
                epoch,
                report: Box::new(report),
            });
        }
    }
}

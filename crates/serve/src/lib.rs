//! heron-serve: a supervised, crash-recoverable tuning-as-a-service
//! daemon.
//!
//! The one-shot CLI turns each tuning request into a process; a
//! production service turns them into *jobs*: admitted onto a bounded
//! queue (or rejected with a reason — backpressure is explicit), run
//! on a pool of OS-thread workers each owning an independent
//! non-`Send` `Tuner` session, and supervised by a step-based watchdog
//! that is deterministic in simulated time. The robustness substrate
//! is the checkpoint-v2 + deterministic-resume machinery from
//! `heron_core`: a crashed or hung worker costs at most the rounds
//! since its last atomic snapshot, and a recovered job provably
//! produces the **byte-identical** `TuneResult` of an uninterrupted
//! run — the chaos harness in [`chaos`] kill-injects workers mid-round
//! and checks exactly that.
//!
//! Module map, in lifecycle order:
//!
//! * [`job`] — job specs, the deterministic job-script language, and
//!   the service configuration;
//! * [`queue`] — bounded admission with reject-with-reason
//!   ([`queue::AdmitError`]);
//! * [`store`] — the epoch-fenced per-job store: each job's latest
//!   checkpoint and latest flush of its trace tail, under the policy's
//!   epoch (zombie workers cannot clobber their replacement's state);
//! * [`worker`] — one thread, one session: builds the `Tuner`
//!   in-thread from `Send` data, checkpoints periodically, reports
//!   over a channel;
//! * [`policy`] — the service's decisions as one transition function:
//!   assignment, epoch fencing, retry-with-backoff under a restart
//!   budget, quarantine, graceful drain, postmortems;
//! * [`supervisor`] — the threaded driver: worker threads, the event
//!   channel, the heartbeat watchdog;
//! * [`sim`] — the simulated-clock driver: a finished run's schedule as
//!   the policy places it, for `heron-scope` (DESIGN.md §12);
//! * [`plan`] — worker-kill injection for the chaos harness;
//! * [`postmortem`] — schema-versioned crash/hang/quarantine autopsy
//!   bundles (`heron-postmortem-v1`);
//! * [`manifest`] — the deterministic results manifest;
//! * [`chaos`] — uninterrupted reference runs and the byte-identity
//!   verifier.
//!
//! # Quickstart
//!
//! ```
//! use heron_serve::{parse_script, Supervisor};
//!
//! let script = "\
//! workers = 2
//! job a op=gemm shape=32x32x32 trials=16 seed=7
//! ";
//! let mut sup = Supervisor::from_script(parse_script(script).unwrap());
//! sup.run();
//! println!("{}", sup.manifest());
//! ```

pub mod chaos;
pub mod job;
pub mod manifest;
pub mod plan;
pub mod policy;
pub mod postmortem;
pub mod queue;
pub mod sim;
pub mod store;
pub mod supervisor;
pub mod worker;

pub use job::{parse_script, parse_workload, JobError, JobScript, JobSpec, ServeConfig};
pub use plan::{ChaosPlan, KillKind, KillRule};
pub use policy::{Effect, Event, JobRow, JobState, Policy};
pub use postmortem::{
    check_postmortem, DeathReport, Postmortem, PostmortemSummary, POSTMORTEM_SCHEMA,
};
pub use queue::{AdmitError, AdmitQueue};
pub use sim::{timeline, TimedRun, Timeline};
pub use store::{CheckpointStore, FlightEntry};
pub use supervisor::Supervisor;
pub use worker::{build_session, JobReport, WorkOrder};

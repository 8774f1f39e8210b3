//! The deterministic projection of a finished service run that the
//! pulse engine folds into `pulse.json`.
//!
//! Everything here is a deterministic function of (job script, seeds,
//! chaos plan): manifest-grade job rows, per-job artifacts (insight
//! document, metrics snapshot, session trace) and the simulated
//! wall-clock. Scheduling-dependent data (event interleavings, worker
//! ids, host wall-clock) is deliberately *absent*, which is what makes
//! `pulse.json` byte-identical across reruns of the same script.

/// Service configuration the SLI definitions depend on.
#[derive(Debug, Clone)]
pub struct PulseConfig {
    /// Recovery backoff base in simulated seconds (doubles per retry).
    pub backoff_base_s: f64,
    /// Periodic checkpoint cadence in rounds (0 = only on preempt).
    pub checkpoint_every: u64,
    /// Worker pool size.
    pub workers: usize,
}

/// One admitted job's deterministic outcome.
#[derive(Debug, Clone, Default)]
pub struct JobInput {
    /// Job id.
    pub id: String,
    /// Final lifecycle state, rendered (`completed`, `quarantined`, …).
    pub state: String,
    /// Attempts started.
    pub attempts: u32,
    /// Recoveries performed.
    pub recoveries: u32,
    /// Lifetime rounds (0 when never reported).
    pub rounds: u64,
    /// Trials completed.
    pub trials: u64,
    /// Final termination for completed jobs.
    pub termination: Option<String>,
    /// Anomaly warnings recorded by the supervisor (`pulse.warn.*`).
    pub warnings: Vec<String>,
    /// Per-job `insight.json` (empty when unavailable).
    pub insight_json: String,
    /// Final attempt's metrics snapshot TSV (empty when unavailable).
    pub metrics_tsv: String,
    /// Final attempt's simulated wall-clock, nanoseconds.
    pub wall_ns: u64,
    /// Final attempt's session trace as recorded: every line carries the
    /// attempt's one correlation context (empty when unavailable).
    pub trace_jsonl: String,
    /// Postmortem bundles emitted for this job (crash/hang/quarantine
    /// deaths; deterministic under a fixed chaos plan).
    pub postmortems: u64,
}

/// The whole service run, ready for [`crate::build_pulse`].
#[derive(Debug, Clone)]
pub struct ServiceInput {
    /// Service configuration.
    pub config: PulseConfig,
    /// Every admitted job in id order.
    pub jobs: Vec<JobInput>,
    /// Rejected submissions as `(id, reason)` in submission order.
    pub rejected: Vec<(String, String)>,
}

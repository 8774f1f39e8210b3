//! The full Heron tuning session: Algorithm 2 with instrumentation and a
//! fault-tolerant measurement pipeline.
//!
//! Couples the generated space, the CGA evolutionary loop, the ε-greedy
//! measurement selection, the DLA measurer, and the cost model. Records
//! the best program found, the best-so-far curve, and a compilation-time
//! breakdown (CGA / measurement / model-training) used to regenerate the
//! paper's Table 10 and Figure 14.
//!
//! # Fault tolerance
//!
//! Real measurement infrastructure (the paper's V100/T4/A100 boards, DL
//! Boost sockets, VTA FPGAs behind TVM RPC) times out, drops sessions and
//! reports noisy latencies. The loop therefore:
//!
//! * takes each hardware number as the **median** of
//!   `MEASURE_REPEATS` independent runs (outlier rejection);
//! * **retries** transient failures ([`heron_dla::ErrorClass::Transient`])
//!   with capped exponential backoff, charging both the fault cost and the
//!   backoff wait to the simulated `hw_measure_s` clock;
//! * **quarantines** (by solution fingerprint) any candidate that exhausts
//!   `MAX_RETRIES` retries, so a configuration that reliably hangs
//!   the board cannot eat the session's measurement budget;
//! * trains the cost model on failures with a **penalty score**
//!   (`PENALTY_FRACTION` of the current best) instead of a
//!   raw `0.0`, which would drag predictions toward zero in fault-heavy
//!   regimes;
//! * runs in resumable **steps**: [`Tuner::checkpoint`] captures the whole
//!   session (including RNG state) and [`Tuner::resume`] continues it so a
//!   killed session reproduces the uninterrupted run bit-for-bit.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::time::Instant;

use heron_csp::{tunable_domains, Solution, SolveSession, SolveStatus};
use heron_dla::{FaultPlan, FaultyMeasurer, MeasureError, Measurement, Measurer};
use heron_insight::{population_entropy_bits, RefitRecord, RoundRecord, SearchLog};
use heron_rng::HeronRng;
use heron_sched::{lower, Kernel, LowerError};
use heron_trace::{ProfileNode, Tracer};

use crate::checkpoint::{write_result, CheckpointError, TuneCheckpoint};
use crate::control::TunerControl;
use crate::explore::cga::{evolve_population, CgaConfig, GenerationStats};
use crate::explore::{eps_greedy, push_best, Chromosome};
use crate::generate::GeneratedSpace;
use crate::model::CostModel;

/// Fork-stream base for cost-model fitting: fit at iteration `i` draws
/// from `rng.fork(FIT_STREAM + i)`, which depends only on `(seed, i)` —
/// never on how many values the main stream has consumed — so a resumed
/// session can refit the exact model of the interrupted one.
const FIT_STREAM: u64 = 0x4649_5453_5452_4d00; // "FITSTRM\0"

/// Why one evaluation failed: the template could not be lowered under the
/// solution (a generator bug — but one bad template variable must not
/// kill a 2,000-trial session) or the measurer rejected / failed the
/// kernel.
#[derive(Debug, Clone, PartialEq)]
pub enum EvalError {
    /// Lowering referenced an undefined variable.
    Lower(LowerError),
    /// The device rejected or failed the kernel.
    Measure(MeasureError),
}

impl std::fmt::Display for EvalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EvalError::Lower(e) => write!(f, "lowering failed: {e}"),
            EvalError::Measure(e) => write!(f, "measurement failed: {e}"),
        }
    }
}

impl std::error::Error for EvalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EvalError::Lower(e) => Some(e),
            EvalError::Measure(e) => Some(e),
        }
    }
}

impl From<LowerError> for EvalError {
    fn from(e: LowerError) -> Self {
        EvalError::Lower(e)
    }
}

impl From<MeasureError> for EvalError {
    fn from(e: MeasureError) -> Self {
        EvalError::Measure(e)
    }
}

impl EvalError {
    /// Stable short tag for per-error-class accounting.
    pub fn tag(&self) -> &'static str {
        match self {
            EvalError::Lower(_) => "lower",
            EvalError::Measure(e) => e.tag(),
        }
    }

    /// Whether a retry of the identical candidate can succeed.
    pub fn is_transient(&self) -> bool {
        match self {
            EvalError::Lower(_) => false,
            EvalError::Measure(e) => e.is_transient(),
        }
    }
}

/// Lowers and measures one solution.
///
/// # Errors
/// Returns [`EvalError`] when lowering fails or the measurer rejects the
/// kernel. Never panics: lowering failures are generator bugs, but they
/// surface as errors so one bad template variable cannot kill a session.
pub fn evaluate(
    space: &GeneratedSpace,
    measurer: &Measurer,
    sol: &Solution,
) -> Result<(Kernel, Measurement), EvalError> {
    let csp = &space.csp;
    let kernel = lower(&space.template, sol.fingerprint(), &|name| {
        sol.value_by_name(csp, name)
    })?;
    let m = measurer.measure(&kernel)?;
    Ok((kernel, m))
}

/// ε of the ε-greedy measurement selection.
const EPS: f64 = 0.15;
/// Per-trial fixed overhead charged to the simulated wall clock
/// (compilation + transfer on a real deployment), seconds.
const TRIAL_OVERHEAD_S: f64 = 0.8;
/// Repeats per hardware measurement; the trial latency is the *median*
/// of the repeats (outlier rejection for noisy boards).
const MEASURE_REPEATS: u32 = 3;
/// Transient-failure retries per candidate before it is quarantined.
const MAX_RETRIES: u32 = 3;
/// First retry backoff, seconds (doubles per retry, charged to the
/// simulated measurement clock).
const BACKOFF_BASE_S: f64 = 0.5;
/// Backoff cap, seconds.
const BACKOFF_CAP_S: f64 = 8.0;
/// Failed/quarantined trials train the cost model with
/// `PENALTY_FRACTION × best_gflops_so_far` instead of raw `0.0` (which
/// would drag predictions toward zero in fault-heavy regimes).
const PENALTY_FRACTION: f64 = 0.1;

/// Tuning-session configuration.
#[derive(Debug, Clone, Copy)]
pub struct TuneConfig {
    /// Total hardware-measurement trials (the paper uses 2,000).
    pub trials: usize,
    /// CGA hyper-parameters.
    pub cga: CgaConfig,
    /// Space-exhaustion heuristic: after this many consecutive ε-greedy
    /// rounds in which evolution produced no yet-unmeasured candidate,
    /// the session concludes the reachable space is exhausted and stops
    /// ([`Termination::SpaceExhausted`]). Small constrained spaces (e.g.
    /// VTA conv layers) genuinely run dry long before the trial budget;
    /// without this bail-out the loop would spin forever re-deriving
    /// already-measured configurations.
    pub max_stall_rounds: usize,
    /// Bound on the per-fingerprint quarantine set. Quarantine is a
    /// *cache* of known-bad configurations, and a week-long service
    /// session on a fault-heavy board would otherwise grow it without
    /// limit; past the cap the **oldest** entry is evicted (deterministic
    /// FIFO of insertion order, checkpointed in that order so resume
    /// evicts identically). `0` disables the bound.
    pub max_quarantined: usize,
}

impl TuneConfig {
    /// The paper's configuration: 2,000 trials.
    pub fn paper() -> Self {
        TuneConfig {
            trials: 2_000,
            cga: CgaConfig::default(),
            max_stall_rounds: 16,
            max_quarantined: 4096,
        }
    }

    /// A reduced-budget configuration for tests and quick demos.
    pub fn quick(trials: usize) -> Self {
        TuneConfig {
            trials,
            cga: CgaConfig {
                population: 16,
                generations: 2,
                offspring: 10,
                key_vars: 6,
                measure_batch: 8,
                solver_budget: 300,
            },
            ..TuneConfig::paper()
        }
    }
}

/// Why a tuning session ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Termination {
    /// The session is still in progress (only observable through
    /// [`Tuner::result`] on a live session).
    Running,
    /// The full trial budget was spent.
    TrialsExhausted,
    /// Evolution stalled for [`TuneConfig::max_stall_rounds`] consecutive
    /// rounds without producing an unmeasured candidate: the reachable
    /// space is exhausted.
    SpaceExhausted,
    /// The constraint space admits no solution at all.
    Infeasible,
    /// The space was never proven infeasible, but the solver repeatedly
    /// failed to materialise any chromosome within its budget
    /// ([`TuneConfig::max_stall_rounds`] consecutive starved rounds).
    SolverStarved,
    /// The session was preempted at a round boundary — by a supervisor's
    /// [`TunerControl::request_preempt`] or by reaching a
    /// [`TunerControl::set_deadline_rounds`] deadline. The session is
    /// expected to be checkpointed and resumed later; a resumed run
    /// continues bit-for-bit where the preempted one stopped.
    Preempted,
    /// The session was cancelled at a round boundary
    /// ([`TunerControl::request_cancel`]): it is being abandoned and its
    /// result will not be collected.
    Cancelled,
}

impl std::fmt::Display for Termination {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Termination::Running => "running",
            Termination::TrialsExhausted => "trials-exhausted",
            Termination::SpaceExhausted => "space-exhausted",
            Termination::Infeasible => "infeasible",
            Termination::SolverStarved => "solver-starved",
            Termination::Preempted => "preempted",
            Termination::Cancelled => "cancelled",
        })
    }
}

/// Wall-clock breakdown of a tuning session (paper Figure 14).
#[derive(Debug, Clone, Copy, Default)]
pub struct TuneTiming {
    /// Real seconds spent in CGA evolution + CSP solving.
    pub cga_s: f64,
    /// Real seconds spent in the simulator.
    pub sim_s: f64,
    /// Real seconds spent fitting the cost model.
    pub model_s: f64,
    /// *Simulated deployment* measurement wall clock: per-trial overhead,
    /// per-run latencies, fault costs (timeout budgets, device resets,
    /// RPC reconnects) and retry backoff — what "hardware measurement"
    /// would cost on the physical DLA.
    pub hw_measure_s: f64,
}

impl TuneTiming {
    /// Total simulated compilation time: exploration + model + deployment
    /// measurements.
    pub fn total_s(&self) -> f64 {
        self.cga_s + self.model_s + self.hw_measure_s
    }
}

/// Per-iteration statistics of the Algorithm-2 loop (for session reports
/// and convergence debugging).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IterationStats {
    /// Iteration index (one ε-greedy measurement round each).
    pub iteration: usize,
    /// Total trials measured so far.
    pub trials_done: usize,
    /// Best score so far, Gops.
    pub best_gflops: f64,
    /// Mean score of this iteration's measured batch.
    pub batch_mean_gflops: f64,
    /// Whether the cost model was fitted after this iteration.
    pub model_fitted: bool,
    /// Distinct chromosomes in the evolved population.
    pub population: usize,
}

/// Result of one tuning session.
#[derive(Debug, Clone)]
pub struct TuneResult {
    /// Best observed throughput in Gops.
    pub best_gflops: f64,
    /// Latency of the best program, seconds.
    pub best_latency_s: f64,
    /// The best assignment, if any valid program was found.
    pub best_solution: Option<Solution>,
    /// The best lowered kernel.
    pub best_kernel: Option<Kernel>,
    /// Best-so-far score after every trial.
    pub curve: Vec<f64>,
    /// Trials that produced a running program.
    pub valid_trials: usize,
    /// Trials rejected by the measurer (compile/run errors) or
    /// quarantined after exhausting their retries.
    pub invalid_trials: usize,
    /// Trials that needed at least one transient-failure retry.
    pub retried_trials: usize,
    /// Total transient-failure retries across all trials.
    pub total_retries: usize,
    /// Candidates *currently* quarantined after exhausting
    /// `MAX_RETRIES` retries (bounded by
    /// [`TuneConfig::max_quarantined`]).
    pub quarantined: usize,
    /// Quarantine entries evicted by the [`TuneConfig::max_quarantined`]
    /// bound (oldest-first, deterministic).
    pub quarantine_evictions: usize,
    /// Lifetime ε-greedy rounds this session has executed, *including*
    /// rounds before a checkpoint/resume — the counter a
    /// [`TunerControl`] round deadline is measured against.
    pub rounds_total: usize,
    /// Trials that experienced at least one measurement timeout.
    pub timeout_trials: usize,
    /// Offspring CSPs that needed at least one injected constraint
    /// dropped before the solver could materialise them.
    pub repaired_offspring: usize,
    /// Total injected constraints dropped across all repairs.
    pub relaxed_constraints: usize,
    /// Offspring slots filled by a fresh random sample of `CSP_initial`
    /// after repair could not recover the offspring CSP.
    pub fallback_samples: usize,
    /// Error occurrences by class tag (`capacity`, `intrinsic`, `launch`,
    /// `timeout`, `rpc-dropped`, …), counting every failed attempt
    /// including retried ones.
    pub error_counts: BTreeMap<String, usize>,
    /// Why the session ended.
    pub termination: Termination,
    /// Pairwise rank accuracy of the final cost model on its training
    /// samples (`None` if it never fitted) — the fidelity signal that
    /// matters for ε-greedy selection, reported so fault-heavy sessions
    /// can prove the penalty policy kept the model sane.
    pub model_rank_accuracy: Option<f64>,
    /// Timing breakdown.
    pub timing: TuneTiming,
    /// Per-iteration statistics.
    pub iterations: Vec<IterationStats>,
}

impl Default for TuneResult {
    /// The result of a session that has not measured anything yet.
    fn default() -> Self {
        TuneResult {
            best_gflops: 0.0,
            best_latency_s: f64::INFINITY,
            best_solution: None,
            best_kernel: None,
            curve: Vec::new(),
            valid_trials: 0,
            invalid_trials: 0,
            retried_trials: 0,
            total_retries: 0,
            quarantined: 0,
            quarantine_evictions: 0,
            rounds_total: 0,
            timeout_trials: 0,
            repaired_offspring: 0,
            relaxed_constraints: 0,
            fallback_samples: 0,
            error_counts: BTreeMap::new(),
            termination: Termination::Running,
            model_rank_accuracy: None,
            timing: TuneTiming::default(),
            iterations: Vec::new(),
        }
    }
}

impl TuneResult {
    /// Flamegraph-style text breakdown of the session's simulated
    /// compilation time. Built directly from [`TuneTiming`], so the layer
    /// totals sum exactly to [`TuneTiming::total_s`] (the trace-derived
    /// profile of `trace_report` is span-based and may differ by the
    /// uninstrumented slack).
    pub fn profile(&self) -> String {
        let mut root = ProfileNode::new("tune", self.timing.total_s());
        root.push(
            ProfileNode::new("cga.evolve", self.timing.cga_s).with_note("evolution + csp solving"),
        );
        root.push(ProfileNode::new("model.fit", self.timing.model_s));
        root.push(
            ProfileNode::new("measure.hw", self.timing.hw_measure_s)
                .with_note("simulated deployment"),
        );
        root.render()
    }

    /// Multi-line human-readable session report.
    pub fn report(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "tuning session: {} trials ({} valid, {} invalid), best {:.1} Gops @ {:.1} us",
            self.curve.len(),
            self.valid_trials,
            self.invalid_trials,
            self.best_gflops,
            self.best_latency_s * 1e6
        );
        let _ = writeln!(
            out,
            "resilience: {} retried trials ({} retries), {} quarantined, {} timeout trials; termination: {}",
            self.retried_trials,
            self.total_retries,
            self.quarantined,
            self.timeout_trials,
            self.termination
        );
        if self.quarantine_evictions > 0 {
            let _ = writeln!(
                out,
                "quarantine: {} oldest entries evicted by the max_quarantined bound",
                self.quarantine_evictions
            );
        }
        if self.repaired_offspring > 0 || self.fallback_samples > 0 {
            let _ = writeln!(
                out,
                "solver: {} repaired offspring ({} constraints relaxed), {} fallback samples",
                self.repaired_offspring, self.relaxed_constraints, self.fallback_samples
            );
        }
        if !self.error_counts.is_empty() {
            let classes: Vec<String> = self
                .error_counts
                .iter()
                .map(|(tag, n)| format!("{tag}={n}"))
                .collect();
            let _ = writeln!(out, "errors: {}", classes.join(", "));
        }
        if let Some(acc) = self.model_rank_accuracy {
            let _ = writeln!(out, "cost model rank accuracy: {acc:.3}");
        }
        let _ = writeln!(
            out,
            "time: cga {:.2}s, simulator {:.2}s, model {:.2}s, simulated hw measurement {:.1}s",
            self.timing.cga_s, self.timing.sim_s, self.timing.model_s, self.timing.hw_measure_s
        );
        for line in self.profile().lines() {
            let _ = writeln!(out, "  {line}");
        }
        for it in &self.iterations {
            let _ = writeln!(
                out,
                "  iter {:>3}: {:>5} trials, best {:>9.1}, batch mean {:>9.1}, pop {:>3}{}",
                it.iteration,
                it.trials_done,
                it.best_gflops,
                it.batch_mean_gflops,
                it.population,
                if it.model_fitted {
                    ", model fitted"
                } else {
                    ""
                }
            );
        }
        out
    }

    /// Canonical serialisation of everything **deterministic** about the
    /// session: the checkpoint's result lines (best program and solution
    /// as exact float bits, best-so-far curve, per-iteration stats, every
    /// resilience/solver counter, the *simulated* measurement clock) plus
    /// the quarantined count and the termination. Host wall-clock timings
    /// (`cga_s`, `sim_s`, `model_s`) are excluded — they vary run to run
    /// on the same machine — and so is the best kernel, a pure function
    /// of the template and the recorded best solution.
    ///
    /// Two runs of the same `(space, seed, config)` produce byte-equal
    /// records; so does a run recovered from any round-boundary
    /// checkpoint versus its uninterrupted original. That equality is the
    /// crash-recovery proof obligation of `heron-serve`'s chaos harness.
    pub fn deterministic_record(&self) -> String {
        let mut w = heron_trace::kv::Writer::default();
        write_result(&mut w, self);
        w.line("quarantined", self.quarantined);
        w.line("termination", self.termination);
        w.finish()
    }

    /// FNV-1a 64-bit hash of [`TuneResult::deterministic_record`] — a
    /// compact determinism fingerprint for manifests and sweep tests.
    pub fn determinism_fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in self.deterministic_record().as_bytes() {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }
}

/// The bounded per-fingerprint quarantine: a membership set plus the
/// insertion-order queue that makes the [`TuneConfig::max_quarantined`]
/// eviction deterministic (oldest entry out first). Checkpointed in
/// insertion order so a resumed session evicts identically.
#[derive(Debug, Default)]
struct Quarantine {
    set: BTreeSet<u64>,
    order: VecDeque<u64>,
    evictions: usize,
}

impl Quarantine {
    /// Rebuilds the quarantine from its checkpointed insertion-order
    /// fingerprint list and eviction count.
    fn from_ordered(fps: &[u64], evictions: usize) -> Self {
        let mut q = Quarantine {
            evictions,
            ..Quarantine::default()
        };
        for &fp in fps {
            if q.set.insert(fp) {
                q.order.push_back(fp);
            }
        }
        q
    }

    /// Inserts a fingerprint, then evicts oldest-first past `cap`
    /// (`cap == 0` means unbounded). Returns how many entries were
    /// evicted by this insertion.
    fn insert(&mut self, fp: u64, cap: usize) -> usize {
        if self.set.insert(fp) {
            self.order.push_back(fp);
        }
        let mut evicted = 0;
        while cap > 0 && self.set.len() > cap {
            let Some(old) = self.order.pop_front() else {
                break;
            };
            self.set.remove(&old);
            self.evictions += 1;
            evicted += 1;
        }
        evicted
    }

    fn len(&self) -> usize {
        self.set.len()
    }

    /// Fingerprints in insertion order (the serialisation order).
    fn ordered(&self) -> Vec<u64> {
        self.order.iter().copied().collect()
    }
}

/// The mutable mid-session state (everything a checkpoint captures,
/// except the RNG which lives beside it on the [`Tuner`]).
#[derive(Debug)]
struct SessionState {
    /// Also the session's one copy of its samples ([`CostModel::samples`]).
    model: CostModel,
    result: TuneResult,
    measured: BTreeSet<u64>,
    quarantined: Quarantine,
    survivors: Vec<Chromosome>,
    stall_rounds: usize,
    finished: bool,
    /// Search-health log (`None` unless [`Tuner::with_insight`] enabled
    /// it). Checkpointed alongside the rest of the session so a resumed
    /// run reports the identical insight stream.
    insight: Option<SearchLog>,
}

impl SessionState {
    fn fresh(space: &GeneratedSpace) -> Self {
        SessionState {
            model: CostModel::new(&space.csp),
            result: TuneResult::default(),
            measured: BTreeSet::new(),
            quarantined: Quarantine::default(),
            survivors: Vec::new(),
            stall_rounds: 0,
            finished: false,
            insight: None,
        }
    }
}

/// Capped exponential backoff for retry `retry` (1-based), seconds.
fn backoff_s(retry: u32) -> f64 {
    (BACKOFF_BASE_S * 2f64.powi(retry.saturating_sub(1).min(62) as i32)).min(BACKOFF_CAP_S)
}

/// Median of a slice (mean of the middle two for even lengths).
fn median(xs: &mut [f64]) -> f64 {
    debug_assert!(!xs.is_empty());
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        0.5 * (xs[n / 2 - 1] + xs[n / 2])
    }
}

/// A tuning session for one generated space.
#[derive(Debug)]
pub struct Tuner {
    space: GeneratedSpace,
    measurer: FaultyMeasurer,
    config: TuneConfig,
    rng: HeronRng,
    state: SessionState,
    tracer: Tracer,
    /// Cooperative stop-token + heartbeat shared with a supervisor
    /// (idle/no-op unless one was attached via [`Tuner::set_control`]).
    control: TunerControl,
    /// Long-lived solver state: propagator adjacency and the cached root
    /// fixpoint, built once per session (and rebuilt identically on
    /// resume — its setup cost is never charged to any round's stats, so
    /// resumed runs stay byte-identical).
    solver: SolveSession,
    /// CGA-1 ablation: draw key variables at random instead of from the
    /// cost model. Set only by [`crate::explore::cga::CgaExplorer::cga1`]'s
    /// adapter, which never checkpoints, so the checkpoint does not carry
    /// it and [`Tuner::resume`] starts with `false`.
    pub(crate) random_key_vars: bool,
}

impl Tuner {
    /// Creates a session with a perfectly reliable (fault-free) device.
    pub fn new(space: GeneratedSpace, measurer: Measurer, config: TuneConfig, seed: u64) -> Self {
        let measurer = FaultyMeasurer::new(
            measurer.with_protocol(MEASURE_REPEATS, 0.01),
            FaultPlan::none(seed),
        );
        let state = SessionState::fresh(&space);
        let solver = SolveSession::new(&space.csp);
        Tuner {
            space,
            measurer,
            config,
            rng: HeronRng::from_seed(seed),
            state,
            tracer: Tracer::disabled(),
            control: TunerControl::new(),
            solver,
            random_key_vars: false,
        }
    }

    /// Replaces the fault-injection plan (builder style):
    /// `Tuner::new(..).with_faults(FaultPlan::uniform(seed, 0.2))`.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.measurer = FaultyMeasurer::new(self.measurer.inner().clone(), plan)
            .with_tracer(self.tracer.clone());
        self
    }

    /// Attaches a tracer (builder style). All pipeline layers the session
    /// touches — CSP solving, CGA evolution, ε-greedy measurement, fault
    /// injection, cost-model fitting — record spans and metrics on it.
    /// The tracer observes only: it never draws from the session RNG, so
    /// traced and untraced runs are bit-identical.
    #[must_use]
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.set_tracer(tracer);
        self
    }

    /// Replaces the attached tracer in place (used by checkpoint/resume
    /// tests to start tracing at an iteration boundary).
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer.clone();
        self.measurer.set_tracer(tracer.clone());
        self.state.model.set_tracer(tracer);
    }

    /// The attached tracer ([`Tracer::disabled`] unless one was set).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Attaches a supervisor control handle, replacing the current one
    /// (a recovered job is re-attached to a fresh worker epoch this way).
    /// The tuner consults it at every round boundary
    /// ([`Termination::Preempted`] / [`Termination::Cancelled`]) and
    /// publishes a heartbeat on it. Like the tracer, the control observes
    /// only: attaching one never perturbs the deterministic session
    /// stream.
    pub fn set_control(&mut self, control: TunerControl) {
        self.control = control;
    }

    /// The attached control handle (an idle default unless one was set).
    pub fn control(&self) -> &TunerControl {
        &self.control
    }

    /// Lifetime ε-greedy rounds executed, checkpoint/resume included —
    /// the counter round deadlines are measured against.
    pub fn rounds_total(&self) -> usize {
        self.state.result.rounds_total
    }

    /// Enables the search-health log (builder style): per-round
    /// exploration statistics, per-refit cost-model quality and drift,
    /// and per-variable domain coverage accumulate on a [`SearchLog`]
    /// readable through [`Tuner::insight`]. `top_k` caps the
    /// feature-importance snapshot recorded per refit. Like the tracer,
    /// the log observes only: it never draws from the session RNG, so
    /// logged and unlogged runs are bit-identical.
    #[must_use]
    pub fn with_insight(mut self, top_k: u32) -> Self {
        self.enable_insight(top_k);
        self
    }

    /// Enables (or resets) the search-health log in place, registering
    /// every tunable variable's initial domain size as the coverage
    /// denominator.
    pub fn enable_insight(&mut self, top_k: u32) {
        let mut log = SearchLog::new(
            &self.space.workload,
            &self.space.dla.name,
            self.rng.seed(),
            top_k,
        );
        log.set_vars(tunable_domains(&self.space.csp));
        self.state.insight = Some(log);
    }

    /// The accumulated search-health log (`None` unless insight is
    /// enabled).
    pub fn insight(&self) -> Option<&SearchLog> {
        self.state.insight.as_ref()
    }

    /// Base per-round record: round index, trials, best-so-far, and the
    /// round's robustness counters plus all of its solver work
    /// (population, offspring and fallback solves).
    fn insight_round_record(
        &self,
        evolved: &GenerationStats,
        population: usize,
    ) -> Option<RoundRecord> {
        let log = self.state.insight.as_ref()?;
        let r = &self.state.result;
        let mut rec = RoundRecord::new(log.next_round());
        rec.trials_done = r.curve.len() as u32;
        rec.best_gflops = r.best_gflops;
        rec.population = population as u32;
        rec.repaired_offspring = evolved.repaired_offspring as u32;
        rec.relaxed_constraints = evolved.relaxed_constraints as u32;
        rec.fallback_samples = evolved.fallback_samples as u32;
        let mut solver = evolved.fresh;
        solver.absorb(&evolved.offspring);
        rec.solver_attempts = solver.attempts;
        rec.solver_propagations = solver.propagations;
        rec.solver_wipeouts = solver.wipeouts;
        rec.solver_max_trail = solver.max_trail_depth;
        rec.solver_incremental = solver.incremental_hits;
        Some(rec)
    }

    /// The tuned space.
    pub fn space(&self) -> &GeneratedSpace {
        &self.space
    }

    /// The session's cost model, as last refitted.
    pub fn model(&self) -> &CostModel {
        &self.state.model
    }

    /// Trials measured so far.
    pub fn trials_done(&self) -> usize {
        self.state.result.curve.len()
    }

    /// Whether the session has terminated.
    pub fn is_finished(&self) -> bool {
        self.state.finished
    }

    /// A snapshot of the session result so far (termination is
    /// [`Termination::Running`] until the session ends).
    pub fn result(&self) -> TuneResult {
        self.state.result.clone()
    }

    /// Runs Algorithm 2 to completion.
    pub fn run(&mut self) -> TuneResult {
        while self.step() {}
        self.state.result.clone()
    }

    /// Runs until at least `trials_done` trials have been measured (or
    /// the session terminates first); returns whether the session is
    /// finished. Because the loop advances in whole ε-greedy iterations,
    /// the session stops at the first iteration boundary at or past the
    /// requested count — the granularity at which [`Tuner::checkpoint`]
    /// is exact.
    pub fn run_until(&mut self, trials_done: usize) -> bool {
        while !self.state.finished && self.state.result.curve.len() < trials_done {
            if !self.step() {
                break;
            }
        }
        self.state.finished
    }

    fn finish(&mut self, termination: Termination) {
        self.state.result.termination = termination;
        self.state.result.model_rank_accuracy = self.state.model.rank_accuracy();
        self.state.finished = true;
    }

    /// One Algorithm-2 iteration: (re)populate, evolve on CSPs, ε-greedy
    /// measure one batch with retries/quarantine, refit the model.
    /// Returns `false` once the session has terminated.
    pub fn step(&mut self) -> bool {
        if self.state.finished {
            return false;
        }
        let cfg = self.config;
        if self.state.result.curve.len() >= cfg.trials {
            self.finish(Termination::TrialsExhausted);
            return false;
        }
        // Cooperative control checks, round-boundary granularity only:
        // cancellation (session abandoned) wins over preemption (session
        // to be checkpointed and resumed); an explicit preempt request
        // and an expired round deadline share one exit path.
        if self.control.cancel_requested() {
            self.tracer.counter_add("tuner.cancelled", 1);
            self.finish(Termination::Cancelled);
            return false;
        }
        let deadline = self.control.deadline_rounds();
        if self.control.preempt_requested()
            || (deadline > 0 && self.state.result.rounds_total as u64 >= deadline)
        {
            self.tracer.counter_add("tuner.preempted", 1);
            self.finish(Termination::Preempted);
            return false;
        }
        // This round is now committed: count it (stalled or not) on the
        // lifetime counter and publish progress to any supervisor.
        self.state.result.rounds_total += 1;
        self.control.beat();
        let tracer = self.tracer.clone();
        let iter_no = self.state.result.iterations.len();
        let _step_span = tracer.span_with("tuner.step", || [("iter", iter_no.to_string())]);
        tracer.counter_add("tuner.steps", 1);
        let insight_on = self.state.insight.is_some();

        // ---- Steps 1–2: first generation, then evolve on CSPs ---------
        let t = Instant::now();
        let (mut pop, evolved) = evolve_population(
            &mut self.solver,
            &self.state.model,
            &self.state.survivors,
            &cfg.cga,
            self.random_key_vars,
            &mut self.rng,
            &tracer,
        );
        let r = &mut self.state.result;
        r.repaired_offspring += evolved.repaired_offspring;
        r.relaxed_constraints += evolved.relaxed_constraints;
        r.fallback_samples += evolved.fallback_samples;
        if pop.is_empty() {
            if let Some(mut rec) = self.insight_round_record(&evolved, 0) {
                rec.stalled = true;
                if let Some(log) = &mut self.state.insight {
                    log.push_round(rec);
                }
            }
            if evolved.populate_status == SolveStatus::RootInfeasible {
                // A propagation wipeout at the root is an UNSAT *proof*:
                // the space admits no solution at all.
                self.finish(Termination::Infeasible);
                return false;
            }
            // The solver merely starved (budget) on a space not
            // proven infeasible: retry a bounded number of rounds instead
            // of misreporting `Infeasible`.
            self.state.stall_rounds += 1;
            tracer.counter_add("tuner.solver_starved", 1);
            self.state.result.timing.cga_s += t.elapsed().as_secs_f64();
            if self.state.stall_rounds > cfg.max_stall_rounds {
                self.finish(Termination::SolverStarved);
                return false;
            }
            return true;
        }
        self.state.result.timing.cga_s += t.elapsed().as_secs_f64();
        tracer.gauge_set("tuner.cga_s", self.state.result.timing.cga_s);

        // Search-health observables over the evolved population: per-column
        // Shannon entropy of the tunable assignments and the distinct-
        // solution count. Computed only when insight is enabled (the
        // tunable projection is O(population × variables)).
        let tunables = if insight_on {
            self.space.csp.tunables()
        } else {
            Vec::new()
        };
        let mut entropy_bits = 0.0;
        let mut distinct = 0usize;
        if insight_on {
            let rows: Vec<Vec<i64>> = pop
                .iter()
                .map(|c| tunables.iter().map(|&v| c.solution.value(v)).collect())
                .collect();
            entropy_bits = population_entropy_bits(&rows);
            distinct = pop
                .iter()
                .map(|c| c.solution.fingerprint())
                .collect::<BTreeSet<u64>>()
                .len();
        }

        // ---- Step 3: ε-greedy measurement -----------------------------
        let unmeasured: Vec<&Chromosome> = pop
            .iter()
            .filter(|c| !self.state.measured.contains(&c.solution.fingerprint()))
            .collect();
        if unmeasured.is_empty() {
            let population = pop.len();
            drop(unmeasured);
            drop(pop);
            if let Some(mut rec) = self.insight_round_record(&evolved, population) {
                rec.stalled = true;
                rec.entropy_bits = entropy_bits;
                rec.distinct_solutions = distinct as u32;
                rec.diversity = distinct as f64 / population.max(1) as f64;
                if let Some(log) = &mut self.state.insight {
                    log.push_round(rec);
                }
            }
            self.state.stall_rounds += 1;
            self.state.survivors.clear();
            tracer.counter_add("tuner.stall_rounds", 1);
            if self.state.stall_rounds > cfg.max_stall_rounds {
                self.finish(Termination::SpaceExhausted);
                return false;
            }
            return true;
        }
        self.state.stall_rounds = 0;
        let predicted: Vec<f64> = unmeasured.iter().map(|c| c.fitness).collect();
        let budget = cfg
            .cga
            .measure_batch
            .min(cfg.trials - self.state.result.curve.len());
        let sel = eps_greedy(&predicted, budget, EPS, &mut self.rng);
        tracer.counter_add("tuner.eps_rounds", 1);
        let chosen: Vec<Solution> = sel
            .picks
            .iter()
            .map(|&i| unmeasured[i].solution.clone())
            .collect();
        // Pre-measurement predictions of the chosen batch: the per-batch
        // calibration signal (prediction vs measurement on fresh data).
        let chosen_predicted: Vec<f64> = sel.picks.iter().map(|&i| predicted[i]).collect();
        let model_was_fitted = self.state.model.is_fitted();
        let batch_span =
            tracer.span_with("measure.batch", || [("batch", chosen.len().to_string())]);
        let mut batch_scores: Vec<f64> = Vec::with_capacity(chosen.len());
        let population = pop.len();
        for sol in chosen {
            self.state.measured.insert(sol.fingerprint());
            let score = self.measure_trial(&sol);
            batch_scores.push(score);
            if insight_on {
                let row: Vec<i64> = tunables.iter().map(|&v| sol.value(v)).collect();
                if let Some(log) = &mut self.state.insight {
                    log.observe_assignment(&row);
                }
            }
        }
        drop(batch_span);
        tracer.gauge_set("tuner.hw_measure_s", self.state.result.timing.hw_measure_s);

        // ---- Step 4: update the cost model -----------------------------
        let t = Instant::now();
        let iter_index = self.state.result.iterations.len() as u64;
        let mut fit_rng = self.rng.fork(FIT_STREAM.wrapping_add(iter_index));
        self.state.model.fit(&mut fit_rng);
        self.state.result.timing.model_s += t.elapsed().as_secs_f64();
        tracer.gauge_set("tuner.model_s", self.state.result.timing.model_s);
        tracer.gauge_set("tuner.best_gflops", self.state.result.best_gflops);
        self.state.result.iterations.push(IterationStats {
            iteration: iter_index as usize,
            trials_done: self.state.result.curve.len(),
            best_gflops: self.state.result.best_gflops,
            batch_mean_gflops: batch_scores.iter().sum::<f64>() / batch_scores.len().max(1) as f64,
            model_fitted: self.state.model.is_fitted(),
            population,
        });

        // ---- Search-health log record for this round ------------------
        if let Some(mut rec) = self.insight_round_record(&evolved, population) {
            rec.batch_size = batch_scores.len() as u32;
            rec.batch_best_gflops = batch_scores.iter().copied().fold(0.0_f64, f64::max);
            rec.batch_mean_gflops =
                batch_scores.iter().sum::<f64>() / batch_scores.len().max(1) as f64;
            rec.exploit_picks = sel.exploit;
            rec.explore_picks = sel.explore;
            rec.distinct_solutions = distinct as u32;
            rec.diversity = distinct as f64 / population.max(1) as f64;
            rec.entropy_bits = entropy_bits;
            // Per-batch calibration: the model's pre-measurement ranking
            // of the chosen batch vs what the hardware actually said.
            // Only meaningful when a fitted model produced the ranking
            // and the batch has at least one comparable pair.
            if model_was_fitted && chosen_predicted.len() >= 2 {
                rec.batch_rank_accuracy = Some(heron_cost::pairwise_rank_accuracy(
                    &chosen_predicted,
                    &batch_scores,
                ));
                rec.batch_spearman =
                    Some(heron_cost::spearman_rho(&chosen_predicted, &batch_scores));
            }
            let round_no = rec.round;
            let refit_quality = self.state.model.train_quality();
            let refit_samples = self.state.model.len() as u32;
            let top_k = self.state.insight.as_ref().map_or(0, |l| l.top_k);
            let top_importance = self.state.model.importance_topk(top_k as usize);
            if let Some(log) = &mut self.state.insight {
                log.push_round(rec);
                if let Some((acc, rho)) = refit_quality {
                    log.push_refit(RefitRecord {
                        round: round_no,
                        samples: refit_samples,
                        train_rank_accuracy: acc,
                        train_spearman: rho,
                        top_importance,
                    });
                }
            }
        }

        for c in &mut pop {
            c.fitness = self.state.model.predict(&c.solution);
        }
        pop.sort_by(|a, b| b.fitness.total_cmp(&a.fitness));
        self.state.survivors = pop.into_iter().take(cfg.cga.population / 2).collect();

        if self.state.result.curve.len() >= cfg.trials {
            self.finish(Termination::TrialsExhausted);
            return false;
        }
        true
    }

    /// Measures one candidate with the full resilience protocol
    /// (median-of-repeats, transient retries with backoff, quarantine)
    /// and records the trial in the session result and the cost model.
    /// Returns the score the trial was trained with.
    fn measure_trial(&mut self, sol: &Solution) -> f64 {
        let cfg = self.config;
        let tracer = self.tracer.clone();
        let _trial_span =
            tracer.span_with("measure.trial", || [("fp", sol.fingerprint().to_string())]);
        tracer.counter_add("measure.trials", 1);
        let t = Instant::now();
        let csp = &self.space.csp;
        let lowered = lower(&self.space.template, sol.fingerprint(), &|name| {
            sol.value_by_name(csp, name)
        });

        let mut retries: u32 = 0;
        let mut saw_timeout = false;
        let mut quarantine = false;
        let res = &mut self.state.result;
        res.timing.hw_measure_s += TRIAL_OVERHEAD_S;
        tracer.advance_s(TRIAL_OVERHEAD_S);
        tracer.gauge_add("measure.overhead_s", TRIAL_OVERHEAD_S);

        let outcome: Result<(Kernel, Measurement), EvalError> = match lowered {
            Err(e) => Err(EvalError::Lower(e)),
            Ok(kernel) => {
                let repeats = MEASURE_REPEATS as usize;
                let mut runs: Vec<f64> = Vec::with_capacity(repeats);
                let mut attempt: u32 = 0;
                let mut fail: Option<MeasureError> = None;
                while runs.len() < repeats {
                    match self.measurer.measure_attempt(&kernel, attempt) {
                        Ok(m) => {
                            res.timing.hw_measure_s += m.latency_s;
                            tracer.advance_s(m.latency_s);
                            tracer.gauge_add("measure.run_s", m.latency_s);
                            runs.push(m.latency_s);
                        }
                        Err(e) if e.is_transient() => {
                            *res.error_counts.entry(e.tag().to_string()).or_insert(0) += 1;
                            if matches!(e, MeasureError::Timeout { .. }) {
                                saw_timeout = true;
                            }
                            retries += 1;
                            let fault_s = self.measurer.fault_cost_s(&e);
                            let wait_s = backoff_s(retries);
                            res.timing.hw_measure_s += fault_s + wait_s;
                            tracer.advance_s(fault_s + wait_s);
                            tracer.gauge_add("measure.fault_s", fault_s);
                            tracer.gauge_add("measure.backoff_s", wait_s);
                            tracer.counter_add("measure.retries", 1);
                            tracer.point_with("measure.retry", || {
                                [("tag", e.tag().to_string()), ("retry", retries.to_string())]
                            });
                            if retries > MAX_RETRIES {
                                quarantine = true;
                                fail = Some(e);
                                break;
                            }
                        }
                        Err(e) => {
                            *res.error_counts.entry(e.tag().to_string()).or_insert(0) += 1;
                            fail = Some(e);
                            break;
                        }
                    }
                    attempt += 1;
                }
                match fail {
                    Some(e) => Err(EvalError::Measure(e)),
                    None => {
                        let latency_s = median(&mut runs);
                        let m = Measurement {
                            latency_s,
                            gflops: kernel.total_flops as f64 / latency_s / 1e9,
                        };
                        Ok((kernel, m))
                    }
                }
            }
        };

        if retries > 0 {
            res.retried_trials += 1;
            res.total_retries += retries as usize;
        }
        if saw_timeout {
            res.timeout_trials += 1;
            tracer.counter_add("measure.timeout_trials", 1);
        }
        let score = match outcome {
            Ok((kernel, m)) => {
                res.valid_trials += 1;
                if m.gflops > res.best_gflops {
                    res.best_gflops = m.gflops;
                    res.best_latency_s = m.latency_s;
                    res.best_solution = Some(sol.clone());
                    res.best_kernel = Some(kernel);
                }
                m.gflops
            }
            Err(e) => {
                if let EvalError::Lower(_) = e {
                    *res.error_counts.entry(e.tag().to_string()).or_insert(0) += 1;
                }
                res.invalid_trials += 1;
                tracer.counter_add("measure.invalid_trials", 1);
                if quarantine {
                    let evicted = self
                        .state
                        .quarantined
                        .insert(sol.fingerprint(), cfg.max_quarantined);
                    res.quarantined = self.state.quarantined.len();
                    res.quarantine_evictions = self.state.quarantined.evictions;
                    tracer.counter_add("measure.quarantined", 1);
                    if evicted > 0 {
                        tracer.counter_add("tuner.quarantine_evictions", evicted as u64);
                    }
                    tracer.point_with("measure.quarantine", || {
                        [("fp", sol.fingerprint().to_string())]
                    });
                }
                // Penalty policy: teach the model "bad", not "zero".
                res.best_gflops * PENALTY_FRACTION
            }
        };
        res.timing.sim_s += t.elapsed().as_secs_f64();
        push_best(&mut res.curve, score);
        self.state.model.add_sample(sol, score);
        score
    }

    /// Captures the complete session state — result so far, measured and
    /// quarantined fingerprints, cost-model samples, survivor population
    /// and the exact RNG stream position — as a serialisable
    /// [`TuneCheckpoint`]. Exact at iteration boundaries (which is where
    /// [`Tuner::run_until`] stops).
    pub fn checkpoint(&self) -> TuneCheckpoint {
        TuneCheckpoint {
            workload: self.space.workload.clone(),
            dla: self.space.dla.name.clone(),
            seed: self.rng.seed(),
            rng_state: self.rng.state_words(),
            stall_rounds: self.state.stall_rounds,
            result: self.state.result.clone(),
            measured: self.state.measured.iter().copied().collect(),
            quarantined: self.state.quarantined.ordered(),
            samples: self.state.model.samples().collect(),
            survivors: self
                .state
                .survivors
                .iter()
                .map(|c| c.solution.values().to_vec())
                .collect(),
            insight: self.state.insight.clone(),
        }
    }

    /// Reconstructs a session from a checkpoint so that continuing it
    /// produces *exactly* what the uninterrupted run would have: the RNG
    /// resumes at its saved stream position, the cost model is refitted
    /// from the replayed samples with the same fork stream it was
    /// originally fitted with, and survivor fitness is re-derived from
    /// that model.
    ///
    /// # Errors
    /// [`CheckpointError::Mismatch`] when the checkpoint does not belong
    /// to this `(space, platform)` pair or its solutions have the wrong
    /// arity.
    pub fn resume(
        space: GeneratedSpace,
        measurer: Measurer,
        config: TuneConfig,
        plan: FaultPlan,
        ckpt: &TuneCheckpoint,
    ) -> Result<Tuner, CheckpointError> {
        if ckpt.workload != space.workload {
            return Err(CheckpointError::Mismatch(format!(
                "checkpoint is for workload `{}`, space is `{}`",
                ckpt.workload, space.workload
            )));
        }
        if ckpt.dla != space.dla.name {
            return Err(CheckpointError::Mismatch(format!(
                "checkpoint is for platform `{}`, space targets `{}`",
                ckpt.dla, space.dla.name
            )));
        }
        let num_vars = space.csp.num_vars();
        let arity_check = |values: &[i64], what: &str| match values.len() {
            n if n == num_vars => Ok(()),
            n => Err(CheckpointError::Mismatch(format!(
                "{what} has {n} variables, space has {num_vars}"
            ))),
        };

        let rng = HeronRng::restore(ckpt.seed, ckpt.rng_state);

        // Replay the sample log into a fresh model and refit it with the
        // same fork stream the interrupted session last used.
        let mut model = CostModel::new(&space.csp);
        for (values, score) in &ckpt.samples {
            arity_check(values, "a recorded sample")?;
            model.add_sample(&Solution::new(values.clone()), *score);
        }
        if let Some(last_iter) = ckpt.result.iterations.len().checked_sub(1) {
            let mut fit_rng = rng.fork(FIT_STREAM.wrapping_add(last_iter as u64));
            model.fit(&mut fit_rng);
        }

        let mut survivors = Vec::with_capacity(ckpt.survivors.len());
        for values in &ckpt.survivors {
            arity_check(values, "a survivor solution")?;
            let solution = Solution::new(values.clone());
            survivors.push(Chromosome {
                fitness: model.predict(&solution),
                solution,
            });
        }

        let quarantined =
            Quarantine::from_ordered(&ckpt.quarantined, ckpt.result.quarantine_evictions);
        let mut result = TuneResult {
            quarantined: quarantined.len(),
            termination: Termination::Running,
            model_rank_accuracy: None,
            ..ckpt.result.clone()
        };
        if let Some(sol) = &result.best_solution {
            arity_check(sol.values(), "the best solution")?;
            result.best_kernel = lower(&space.template, sol.fingerprint(), &|name| {
                sol.value_by_name(&space.csp, name)
            })
            .ok();
        }

        let state = SessionState {
            model,
            result,
            measured: ckpt.measured.iter().copied().collect(),
            quarantined,
            survivors,
            stall_rounds: ckpt.stall_rounds,
            finished: false,
            insight: ckpt.insight.clone(),
        };
        let measurer = FaultyMeasurer::new(measurer.with_protocol(MEASURE_REPEATS, 0.01), plan);
        let solver = SolveSession::new(&space.csp);
        Ok(Tuner {
            space,
            measurer,
            config,
            rng,
            state,
            tracer: Tracer::disabled(),
            control: TunerControl::new(),
            solver,
            random_key_vars: false,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{SpaceGenerator, SpaceOptions};
    use heron_dla::{v100, vta};
    use heron_tensor::ops;

    fn gemm_space(n: i64, name: &str) -> GeneratedSpace {
        let dag = ops::gemm(n, n, n);
        SpaceGenerator::new(v100())
            .generate_named(&dag, &SpaceOptions::heron(), name)
            .expect("generates")
    }

    #[test]
    fn tuner_finds_valid_programs_and_improves() {
        let space = gemm_space(256, "gemm-256");
        let mut tuner = Tuner::new(space, Measurer::new(v100()), TuneConfig::quick(48), 7);
        let result = tuner.run();
        assert!(result.best_gflops > 0.0, "no valid program found");
        assert_eq!(
            result.invalid_trials, 0,
            "Heron never measures invalid programs"
        );
        assert_eq!(
            result.curve.len(),
            result.valid_trials + result.invalid_trials
        );
        // Curve is monotone.
        for w in result.curve.windows(2) {
            assert!(w[1] >= w[0]);
        }
        // Later exploration should beat the very first measurement.
        assert!(
            result.curve.last().expect("non-empty") >= result.curve.first().expect("non-empty")
        );
        assert!(result.best_kernel.is_some());
        assert!(result.timing.total_s() > 0.0);
        // A fault-free session retries and quarantines nothing.
        assert_eq!(result.retried_trials, 0);
        assert_eq!(result.quarantined, 0);
        assert_eq!(result.timeout_trials, 0);
        assert!(result.error_counts.is_empty());
        assert_eq!(result.termination, Termination::TrialsExhausted);
        let report = result.report();
        assert!(report.contains("termination: trials-exhausted"));
    }

    #[test]
    fn evaluate_reports_lowering_failures_instead_of_panicking() {
        let space = gemm_space(256, "gemm-el");
        // A solution with the right arity but evaluated against a measurer
        // still works; to exercise the lowering error we strip the CSP of
        // its variables by handing evaluate a foreign space whose template
        // references names the solution's CSP does not declare.
        let mut broken = space.clone();
        broken.csp = heron_csp::Csp::new().into(); // no variables declared at all
        let sol = Solution::new(Vec::new());
        let err = evaluate(&broken, &Measurer::new(v100()), &sol)
            .expect_err("lowering must fail, not panic");
        assert!(matches!(err, EvalError::Lower(_)));
        assert_eq!(err.tag(), "lower");
        assert!(!err.is_transient());
        assert!(err.to_string().contains("lowering failed"));
    }

    #[test]
    fn mismatched_platform_counts_invalid_trials_without_aborting() {
        // A space generated for V100 lowers kernels whose (16,16,16)
        // intrinsic VTA rejects deterministically: every trial is invalid,
        // the session completes anyway, and the penalty policy keeps
        // scores at 0 (no best to take a fraction of).
        let space = gemm_space(256, "gemm-mismatch");
        let mut tuner = Tuner::new(space, Measurer::new(vta()), TuneConfig::quick(16), 3);
        let result = tuner.run();
        assert_eq!(result.valid_trials, 0);
        assert!(result.invalid_trials > 0, "trials must be counted");
        assert_eq!(result.best_gflops, 0.0);
        assert!(result.best_solution.is_none());
        assert!(
            result.error_counts.contains_key("intrinsic")
                || result.error_counts.contains_key("missing-intrinsic"),
            "deterministic rejection must be classified: {:?}",
            result.error_counts
        );
        assert_eq!(result.quarantined, 0, "deterministic errors never retry");
        assert_eq!(result.retried_trials, 0);
    }

    #[test]
    fn transient_faults_are_retried_and_repeat_offenders_quarantined() {
        let space = gemm_space(256, "gemm-faulty");
        let seed = 11;
        let mut tuner = Tuner::new(space, Measurer::new(v100()), TuneConfig::quick(48), seed)
            .with_faults(FaultPlan::uniform(seed, 0.35));
        let result = tuner.run();
        assert_eq!(result.curve.len(), 48, "all trials must complete");
        assert!(result.best_gflops > 0.0, "faults must not kill the session");
        assert!(result.retried_trials > 0, "no retries at 35% fault rate");
        assert!(
            result.quarantined > 0,
            "persistent offenders must be quarantined: {}",
            result.report()
        );
        assert_eq!(result.invalid_trials + result.valid_trials, 48);
        assert!(result.total_retries >= result.retried_trials);
        // Fault costs and backoff are charged to the simulated clock:
        // strictly more expensive than the same session without faults.
        let space2 = gemm_space(256, "gemm-faulty");
        let mut reliable = Tuner::new(space2, Measurer::new(v100()), TuneConfig::quick(48), seed);
        let base = reliable.run();
        assert!(result.timing.hw_measure_s > base.timing.hw_measure_s);
    }

    #[test]
    fn stall_bailout_is_configurable_and_reported() {
        // Pin every tunable to one known-satisfying assignment: the space
        // now admits a single configuration. With a huge trial budget the
        // session must drain it immediately and report SpaceExhausted
        // instead of spinning on the remaining budget forever.
        let mut space = gemm_space(256, "gemm-stall");
        let mut pin_rng = HeronRng::from_seed(9);
        let sol = heron_testkit::solve_once(
            &space.csp,
            &mut pin_rng,
            1,
            &heron_csp::SolvePolicy::fixed(2_000),
        )
        .one()
        .expect("satisfiable");
        for v in space.csp.tunables() {
            let value = sol.value(v);
            std::sync::Arc::make_mut(&mut space.csp).post_in(v, [value]);
        }
        let mut config = TuneConfig::quick(10_000);
        config.max_stall_rounds = 2;
        let mut tuner = Tuner::new(space, Measurer::new(v100()), config, 5);
        let result = tuner.run();
        assert_eq!(result.termination, Termination::SpaceExhausted);
        assert!(result.curve.len() < 10_000);
        assert!(result.report().contains("space-exhausted"));
    }

    #[test]
    fn traced_session_matches_untraced_and_emits_balanced_trace() {
        let run = |tracer: Option<Tracer>| {
            let space = gemm_space(256, "gemm-traced");
            let mut tuner = Tuner::new(space, Measurer::new(v100()), TuneConfig::quick(24), 7)
                .with_faults(FaultPlan::uniform(7, 0.3));
            if let Some(t) = tracer {
                tuner = tuner.with_tracer(t);
            }
            tuner.run()
        };
        let tracer = Tracer::manual();
        let traced = run(Some(tracer.clone()));
        let plain = run(None);
        assert_eq!(traced.best_gflops, plain.best_gflops);
        assert_eq!(
            traced.curve, plain.curve,
            "tracing must not perturb the session"
        );
        assert_eq!(traced.total_retries, plain.total_retries);

        // The trace parses, balances, and covers every pipeline layer.
        let summary = heron_trace::check_trace(&tracer.to_jsonl()).expect("balanced trace");
        let names = summary.span_names();
        for want in [
            "tuner.step",
            "cga.populate",
            "csp.solve",
            "cga.evolve",
            "measure.batch",
            "measure.trial",
            "model.fit",
            "cost.fit",
        ] {
            assert!(names.contains(&want), "span {want} missing: {names:?}");
        }
        assert!(
            tracer.metrics_tsv().lines().count() > 12,
            "expected a rich instrument set:\n{}",
            tracer.metrics_tsv()
        );
        assert_eq!(
            tracer.counter("measure.trials"),
            Some(traced.curve.len() as u64)
        );
        assert_eq!(
            tracer.counter("measure.retries"),
            Some(traced.total_retries as u64)
        );
        assert_eq!(
            tracer.counter("measure.quarantined"),
            Some(traced.quarantined as u64)
        );
        // The manual clock advanced by exactly the simulated charges.
        let last_t = summary.spans.iter().map(|s| s.t_close_ns).max().unwrap();
        let hw_ns = (traced.timing.hw_measure_s * 1e9).round() as u64;
        assert!(
            last_t.abs_diff(hw_ns) < 1_000,
            "manual clock {last_t} vs charged {hw_ns}"
        );
        // The profile tree is exposed in the report and sums to total_s.
        assert!(traced.profile().starts_with("tune "));
        assert!(traced.report().contains("tune "));
        assert!(traced.report().contains("measure.hw"));
    }

    #[test]
    fn insight_rounds_account_for_every_solve() {
        // Offspring re-solves are most of a round's solver work: the
        // per-round records must add up to everything the solver counted.
        let space = gemm_space(256, "gemm-insight");
        let mut tuner =
            Tuner::new(space, Measurer::new(v100()), TuneConfig::quick(32), 7).with_insight(5);
        let tracer = Tracer::manual();
        tuner.set_tracer(tracer.clone());
        tuner.run();
        let rounds = &tuner.insight().expect("insight enabled").rounds;
        let sum = |f: fn(&RoundRecord) -> u64| rounds.iter().map(f).sum::<u64>();
        assert_eq!(
            sum(|r| r.solver_attempts),
            tracer.counter("csp.attempts").unwrap_or(0)
        );
        assert_eq!(
            sum(|r| r.solver_propagations),
            tracer.counter("csp.propagations").unwrap_or(0)
        );
        assert_eq!(
            sum(|r| r.solver_wipeouts),
            tracer.counter("csp.wipeouts").unwrap_or(0)
        );
        assert!(
            sum(|r| r.solver_incremental) > 0,
            "offspring were re-solved"
        );
    }

    #[test]
    fn insight_log_observes_without_perturbing_the_session() {
        let run = |insight: bool| {
            let space = gemm_space(256, "gemm-insight");
            let mut tuner = Tuner::new(space, Measurer::new(v100()), TuneConfig::quick(32), 7);
            if insight {
                tuner = tuner.with_insight(5);
            }
            let result = tuner.run();
            let log = tuner.insight().cloned();
            (result, log)
        };
        let (plain, none) = run(false);
        let (logged, log) = run(true);
        assert!(none.is_none());
        let log = log.expect("insight enabled");

        // Observation only: the session is bit-identical either way.
        assert_eq!(plain.best_gflops, logged.best_gflops);
        assert_eq!(plain.curve, logged.curve);

        // The log is populated and internally consistent.
        assert_eq!(log.workload, "gemm-insight");
        assert_eq!(log.seed, 7);
        assert!(!log.rounds.is_empty());
        for (i, r) in log.rounds.iter().enumerate() {
            assert_eq!(r.round as usize, i, "rounds are sequential");
        }
        let last = log
            .rounds
            .iter()
            .rev()
            .find(|r| !r.stalled)
            .expect("measured rounds");
        assert_eq!(last.best_gflops, logged.best_gflops);
        assert_eq!(log.final_best(), logged.best_gflops);
        let trials: u32 = log.rounds.iter().map(|r| r.batch_size).sum();
        assert_eq!(trials as usize, logged.curve.len());
        let picks: u32 = log
            .rounds
            .iter()
            .map(|r| r.exploit_picks + r.explore_picks)
            .sum();
        assert_eq!(picks, trials, "every measured trial came from ε-greedy");
        // Population observables are recorded on measured rounds.
        assert!(log.rounds.iter().any(|r| r.entropy_bits > 0.0));
        assert!(log
            .rounds
            .iter()
            .filter(|r| !r.stalled)
            .all(|r| r.population > 0 && r.distinct_solutions > 0 && r.diversity > 0.0));
        // Solver work is visible.
        assert!(log.rounds.iter().any(|r| r.solver_attempts > 0));
        assert!(log.rounds.iter().any(|r| r.solver_propagations > 0));
        // 32 trials cross the 8-sample fit threshold: refits recorded
        // with quality and a non-empty importance snapshot.
        assert!(!log.refits.is_empty(), "model refits must be logged");
        let refit = log.refits.last().unwrap();
        assert!(refit.samples >= 8);
        assert!((0.0..=1.0).contains(&refit.train_rank_accuracy));
        assert!((-1.0..=1.0).contains(&refit.train_spearman));
        assert!(!refit.top_importance.is_empty());
        assert!(refit.top_importance.len() <= 5);
        // Once the model is fitted, later batches carry calibration.
        assert!(log
            .rounds
            .iter()
            .any(|r| r.batch_rank_accuracy.is_some() && r.batch_spearman.is_some()));
        // Coverage accumulated on the tunable variables.
        assert!(!log.vars.is_empty());
        assert!(log.vars.iter().any(|v| !v.seen.is_empty()));
        for v in &log.vars {
            assert!(v.seen.len() as u64 <= v.domain_size);
        }

        // The log survives the checkpoint roundtrip bit-exactly.
        let space = gemm_space(256, "gemm-insight");
        let mut tuner =
            Tuner::new(space, Measurer::new(v100()), TuneConfig::quick(32), 7).with_insight(5);
        tuner.run_until(16);
        let ckpt = tuner.checkpoint();
        let reparsed = TuneCheckpoint::from_text(&ckpt.to_text()).expect("parses");
        assert_eq!(reparsed.insight, ckpt.insight);
        let space = gemm_space(256, "gemm-insight");
        let resumed = Tuner::resume(
            space,
            Measurer::new(v100()),
            TuneConfig::quick(32),
            FaultPlan::none(7),
            &reparsed,
        )
        .expect("resumes");
        assert_eq!(resumed.insight(), tuner.insight());
    }

    #[test]
    fn deadline_preempts_at_round_boundary_and_resume_completes_identically() {
        let seed = 7;
        let mut reference = Tuner::new(
            gemm_space(256, "gemm-ctl"),
            Measurer::new(v100()),
            TuneConfig::quick(24),
            seed,
        );
        let expected = reference.run();
        assert_eq!(expected.termination, Termination::TrialsExhausted);
        assert!(expected.rounds_total > 2, "budget must span several rounds");

        // A 2-round deadline preempts the session at the boundary.
        let mut tuner = Tuner::new(
            gemm_space(256, "gemm-ctl"),
            Measurer::new(v100()),
            TuneConfig::quick(24),
            seed,
        );
        tuner.control().set_deadline_rounds(2);
        let preempted = tuner.run();
        assert_eq!(preempted.termination, Termination::Preempted);
        assert_eq!(preempted.rounds_total, 2);
        assert!(preempted.report().contains("termination: preempted"));
        assert!(preempted.curve.len() < expected.curve.len());

        // The preempted checkpoint resumes (deadline lifted) to a result
        // byte-identical to the uninterrupted run — including the
        // determinism fingerprint heron-serve's chaos harness compares.
        let ckpt = TuneCheckpoint::from_text(&tuner.checkpoint().to_text()).expect("roundtrips");
        assert_eq!(ckpt.result.rounds_total, 2);
        let mut resumed = Tuner::resume(
            gemm_space(256, "gemm-ctl"),
            Measurer::new(v100()),
            TuneConfig::quick(24),
            FaultPlan::none(seed),
            &ckpt,
        )
        .expect("resumes");
        let finished = resumed.run();
        assert_eq!(finished.rounds_total, expected.rounds_total);
        assert_eq!(
            finished.deterministic_record(),
            expected.deterministic_record()
        );
        assert_eq!(
            finished.determinism_fingerprint(),
            expected.determinism_fingerprint()
        );

        // The lifetime counter survives resume: re-imposing the already-
        // spent deadline preempts immediately, before any new round.
        let mut stale = Tuner::resume(
            gemm_space(256, "gemm-ctl"),
            Measurer::new(v100()),
            TuneConfig::quick(24),
            FaultPlan::none(seed),
            &ckpt,
        )
        .expect("resumes");
        stale.control().set_deadline_rounds(2);
        assert!(!stale.step());
        assert_eq!(stale.result().termination, Termination::Preempted);
        assert_eq!(stale.result().rounds_total, 2);
    }

    #[test]
    fn cancellation_stops_the_session_without_consuming_a_round() {
        let mut tuner = Tuner::new(
            gemm_space(256, "gemm-cancel"),
            Measurer::new(v100()),
            TuneConfig::quick(24),
            3,
        );
        assert!(tuner.step(), "first round runs");
        assert_eq!(tuner.rounds_total(), 1);
        let control = tuner.control().clone();
        control.request_cancel();
        assert!(!tuner.step());
        let result = tuner.result();
        assert_eq!(result.termination, Termination::Cancelled);
        assert_eq!(result.rounds_total, 1, "cancel must not start a round");
        assert!(tuner.is_finished());
        assert_eq!(control.heartbeat(), 1, "one beat per executed round");
    }

    #[test]
    fn quarantine_eviction_is_bounded_deterministic_and_observation_only() {
        let seed = 11;
        let run = |max_quarantined: usize, tracer: Option<Tracer>| {
            let mut config = TuneConfig::quick(48);
            config.max_quarantined = max_quarantined;
            let space = gemm_space(256, "gemm-lru");
            let mut tuner = Tuner::new(space, Measurer::new(v100()), config, seed)
                .with_faults(FaultPlan::uniform(seed, 0.35));
            if let Some(t) = tracer {
                tuner = tuner.with_tracer(t);
            }
            tuner.run()
        };
        let unbounded = run(0, None);
        assert!(
            unbounded.quarantined >= 2,
            "need ≥2 quarantined candidates to exercise eviction: {}",
            unbounded.report()
        );
        assert_eq!(unbounded.quarantine_evictions, 0);

        let tracer = Tracer::manual();
        let bounded = run(1, Some(tracer.clone()));
        assert_eq!(bounded.quarantined, 1, "cap of 1 keeps exactly one entry");
        assert_eq!(
            bounded.quarantine_evictions,
            unbounded.quarantined - 1,
            "every older entry was evicted oldest-first"
        );
        assert_eq!(
            tracer.counter("tuner.quarantine_evictions"),
            Some(bounded.quarantine_evictions as u64)
        );
        assert!(bounded.report().contains("evicted by the max_quarantined"));
        // Eviction is bookkeeping only: the search stream is untouched.
        assert_eq!(bounded.curve, unbounded.curve);
        assert_eq!(bounded.best_gflops, unbounded.best_gflops);

        // Insertion order and the eviction counter survive the
        // checkpoint roundtrip, so a resumed session evicts identically.
        let mut config = TuneConfig::quick(48);
        config.max_quarantined = 1;
        let space = gemm_space(256, "gemm-lru");
        let mut half = Tuner::new(space, Measurer::new(v100()), config, seed)
            .with_faults(FaultPlan::uniform(seed, 0.35));
        half.run_until(24);
        let ckpt = TuneCheckpoint::from_text(&half.checkpoint().to_text()).expect("roundtrips");
        let resumed_result = {
            let space = gemm_space(256, "gemm-lru");
            let mut resumed = Tuner::resume(
                space,
                Measurer::new(v100()),
                config,
                FaultPlan::uniform(seed, 0.35),
                &ckpt,
            )
            .expect("resumes");
            resumed.run()
        };
        assert_eq!(
            resumed_result.deterministic_record(),
            bounded.deterministic_record()
        );
    }

    #[test]
    fn median_rejects_outliers_and_backoff_caps() {
        let mut xs = [1.0, 100.0, 1.2];
        assert_eq!(median(&mut xs), 1.2);
        let mut ys = [4.0, 1.0];
        assert_eq!(median(&mut ys), 2.5);
        assert_eq!(backoff_s(1), BACKOFF_BASE_S);
        assert_eq!(backoff_s(2), BACKOFF_BASE_S * 2.0);
        assert_eq!(backoff_s(30), BACKOFF_CAP_S);
    }
}

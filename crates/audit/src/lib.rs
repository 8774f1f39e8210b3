//! `heron-audit` — differential constraint-space auditor (DESIGN.md
//! §11).
//!
//! Heron's premise is that the generated `CSP_initial` *is* the set of
//! valid schedules. This crate tests that premise in both directions
//! against the simulator's ground truth:
//!
//! * **Under-constraint probe** ([`under`]): sample diverse CSP-SAT
//!   assignments and replay each through the fault-free validity oracle
//!   ([`Oracle`]). Any CSP-SAT-but-sim-invalid point is a witness,
//!   minimized by greedy assignment-perturbation delta debugging and
//!   attributed to the implicated rule (`C1`…`C6`) via the simulator's
//!   machine-readable error taxonomy.
//! * **Over-constraint probe** ([`over`]): perturb known-valid
//!   schedules one knob at a time, re-complete them through the space's
//!   functional structure, and pin any completion the oracle still
//!   accepts back into the full CSP. A proven `RootInfeasible` is a
//!   witness — a real schedule the space cannot express — and the
//!   greedy-deletion diagnoser names the blocking constraint set.
//!
//! Results fold into a schema-versioned, byte-deterministic
//! `audit.json` ([`report::AUDIT_SCHEMA`]). The auditor's sharpness is
//! certified by the seeded single-rule mutation gate ([`mutate`]):
//! drop/tighten/widen one posted rule, and the audit must notice.

pub mod mutate;
pub mod oracle;
pub mod over;
pub mod report;
pub mod under;

pub use mutate::{certified_corpus, corpus, detects, mutated_space, CertifiedMutation};
pub use oracle::{Oracle, OracleVerdict};
pub use over::{run_over, BlockingEntry, OverOutcome, OverWitness};
pub use report::{validate_audit, AuditReport, AUDIT_SCHEMA};
pub use under::{boundary_probe, minimize, run_under, DiffEntry, UnderState, UnderWitness};

use heron_core::generate::GeneratedSpace;
use heron_csp::{diagnose_root_conflict, SolvePolicy, SolveSession};
use heron_trace::Tracer;

/// RNG stream ids (forked off the audit seed). Each phase owns a
/// stream, and the under-probe forks a per-chunk sub-stream, so one
/// phase's draws never shift another's.
pub(crate) const STREAM_UNDER: u64 = 1;
pub(crate) const STREAM_MINIMIZE: u64 = 2;
pub(crate) const STREAM_ANCHOR: u64 = 3;
pub(crate) const STREAM_COMPLETE: u64 = 4;
pub(crate) const STREAM_FULLCHECK: u64 = 5;
pub(crate) const STREAM_BOUNDARY: u64 = 6;
pub(crate) const STREAM_EXTREME: u64 = 7;

/// Samples requested per under-probe chunk.
pub(crate) const CHUNK: usize = 16;
/// Per-tunable domain values tried by the over-probe.
pub(crate) const MAX_DOMAIN: usize = 12;
/// Per-sample backtracking budget for every solve.
const BUDGET: u32 = 4000;

/// Audit parameters. Every field participates in the determinism
/// contract: the produced report is a pure function of
/// `(space, AuditConfig)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditConfig {
    /// Master seed; every phase forks its own stream from it.
    pub seed: u64,
    /// Distinct-sample target for the under-probe.
    pub samples: usize,
    /// Known-valid anchors for the over-probe.
    pub anchors: usize,
    /// Stored witnesses per probe (further ones are counted, not kept).
    pub max_witnesses: usize,
    /// Over-probe witnesses that get the greedy-deletion diagnosis.
    pub max_diagnoses: usize,
    /// Stop each probe at its first witness (the mutation gate's mode).
    pub stop_at_first: bool,
}

impl AuditConfig {
    /// The full-audit configuration `heron_audit` runs by default.
    pub fn new(seed: u64) -> Self {
        AuditConfig {
            seed,
            samples: 64,
            anchors: 3,
            max_witnesses: 8,
            max_diagnoses: 4,
            stop_at_first: false,
        }
    }

    /// The cheap detect-only configuration the mutation gate uses: stop
    /// at the first witness and skip the expensive diagnosis, but keep
    /// the full audit's probe breadth (anchors / domain coverage) so a
    /// witness the certifier can reach is reachable here too.
    pub fn gate(seed: u64) -> Self {
        AuditConfig {
            samples: 48,
            max_witnesses: 1,
            max_diagnoses: 0,
            stop_at_first: true,
            ..AuditConfig::new(seed)
        }
    }

    /// The solve policy every audit solve uses (fixed budget — no
    /// escalation, so solve behaviour is a pure function of the seed).
    pub fn policy(&self) -> SolvePolicy {
        SolvePolicy::fixed(BUDGET)
    }
}

/// Runs the full audit on `space` and assembles the report.
pub fn audit_space(space: &GeneratedSpace, cfg: &AuditConfig, tracer: &Tracer) -> AuditReport {
    let span = tracer.span_with("audit.run", || {
        [
            ("workload", space.workload.clone()),
            ("dla", space.dla.name.clone()),
            ("seed", cfg.seed.to_string()),
        ]
    });
    let mut session = SolveSession::new(&space.csp);
    let mut report = AuditReport {
        workload: space.workload.clone(),
        dla: space.dla.name.clone(),
        seed: cfg.seed,
        samples_cfg: cfg.samples,
        anchors_cfg: cfg.anchors,
        max_domain_cfg: MAX_DOMAIN,
        distinct: 0,
        invalid_total: 0,
        boundary_invalid: 0,
        perturbations: 0,
        anchors_used: 0,
        infeasible: false,
        infeasible_removal: Vec::new(),
        under: Vec::new(),
        over: Vec::new(),
    };
    if !session.root_feasible() {
        // The extreme over-constraint bug: the space admits nothing.
        report.infeasible = true;
        if let Some(conflict) = diagnose_root_conflict(&space.csp) {
            report.infeasible_removal = conflict
                .removal
                .iter()
                .map(|e| (e.index, e.constraint.clone()))
                .collect();
        }
        drop(span);
        return report;
    }
    let oracle = Oracle::new(space, tracer.clone());
    let mut state = UnderState::new();
    run_under(&mut session, &oracle, cfg, &mut state, tracer);
    // In gate mode a sampled witness already decides the audit.
    if !cfg.stop_at_first || state.raw_witnesses.is_empty() {
        boundary_probe(&mut session, &oracle, cfg, &mut state, tracer);
    }
    report.distinct = state.seen.len();
    report.invalid_total = state.invalid_total;
    report.boundary_invalid = state.boundary_invalid;
    report.under = minimize(&mut session, &oracle, cfg, &state, tracer);
    // In gate mode an under-witness already decides the audit; skip the
    // (comparatively expensive) over-probe.
    if !cfg.stop_at_first || report.under.is_empty() {
        let over = run_over(space, &mut session, &oracle, cfg, tracer);
        report.perturbations = over.perturbations;
        report.anchors_used = over.anchors_used;
        report.over = over.witnesses;
    }
    drop(span);
    report
}

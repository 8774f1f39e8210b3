//! The over-constraint probe: find oracle-valid schedules the CSP
//! rejects.
//!
//! Known-valid starting points (*anchors*) are oracle-valid points of
//! the space itself: the two deterministic greedy-extreme corners
//! (which lean against every capacity frontier, so a tightened bound is
//! one knob away on any seed) followed by seeded random samples. Each
//! anchor is perturbed one tunable at a time
//! across that tunable's declared domain; the perturbed assignment is
//! re-completed through the space's *functional* constraints only
//! (`PROD`/`SUM`/`EQ`/`SELECT` — the structure that makes an assignment
//! a schedule at all), and the completion is checked against the
//! simulator oracle. A completion that the simulator accepts but the
//! full CSP proves infeasible (pinned incremental solve returns
//! `RootInfeasible`) is a confirmed over-constraint witness: a real
//! schedule the space cannot express.
//!
//! Attribution is two-level: the *blocking set* names every restrictive
//! (`IN`/`LE`) constraint the completion violates directly, and — for
//! the first few witnesses — the greedy-deletion conflict diagnoser
//! (`heron_csp::diagnose_root_conflict`) confirms a removal set that
//! provably restores feasibility under the witness's pins.

use heron_core::generate::GeneratedSpace;
use heron_csp::{
    diagnose_root_conflict, Constraint, Csp, Solution, SolveSession, SolveStatus, VarRef,
};
use heron_rng::HeronRng;
use heron_trace::Tracer;

use crate::oracle::Oracle;
use crate::under::extreme_solution;
use crate::{
    AuditConfig, MAX_DOMAIN, STREAM_ANCHOR, STREAM_COMPLETE, STREAM_EXTREME, STREAM_FULLCHECK,
};

/// One directly-violated restrictive constraint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockingEntry {
    /// Constraint index in the audited problem's posting order.
    pub index: usize,
    /// Human-readable rendering.
    pub constraint: String,
    /// Heuristic rule classification (`C3`/`C5`/`C6`, `-` when unclear).
    pub rule: &'static str,
}

/// A confirmed over-constraint witness.
#[derive(Debug, Clone)]
pub struct OverWitness {
    /// The oracle-valid completion the CSP rejects.
    pub solution: Solution,
    /// The perturbed tunable.
    pub var: String,
    /// Its perturbed value.
    pub value: i64,
    /// Fingerprint of the anchor the perturbation started from.
    pub anchor: u64,
    /// Restrictive constraints the completion violates directly.
    pub blocking: Vec<BlockingEntry>,
    /// Greedy-deletion removal set (base-constraint indices) when the
    /// diagnoser ran for this witness; empty otherwise.
    pub removal: Vec<(usize, String)>,
    /// Whether the diagnoser confirmed the removal set.
    pub diagnosed: bool,
}

/// Classifies a restrictive constraint to the paper rule it most likely
/// materialises: `IN` candidate sets are Rule C3, `LE` capacity sums
/// (`*.bytes`/`*.total` footprints) are Rule C5, other `LE` bounds
/// (launch limits, alignment quotients) are Rule C6.
pub fn classify_rule(csp: &Csp, c: &Constraint) -> &'static str {
    match c {
        Constraint::In { .. } => "C3",
        Constraint::Le(a, _) => {
            let name = &csp.var(*a).name;
            if name.contains("bytes") || name.contains("total") || name.contains("mem") {
                "C5"
            } else {
                "C6"
            }
        }
        _ => "-",
    }
}

/// Result of one [`run_over`] call.
#[derive(Debug, Clone, Default)]
pub struct OverOutcome {
    /// Confirmed witnesses (capped at `cfg.max_witnesses`).
    pub witnesses: Vec<OverWitness>,
    /// Single-knob perturbations evaluated.
    pub perturbations: u64,
    /// Oracle-valid anchors actually used.
    pub anchors_used: usize,
}

/// Runs the over-constraint probe on `space` using the (already-built)
/// full-space `session`.
pub fn run_over(
    space: &GeneratedSpace,
    session: &mut SolveSession,
    oracle: &Oracle,
    cfg: &AuditConfig,
    tracer: &Tracer,
) -> OverOutcome {
    let csp = &space.csp;
    let tunables = csp.tunables();
    let mut out = OverOutcome::default();

    // Deterministic extreme anchors first: an over-tightened bound is
    // crossed by a single knob precisely when the anchor already leans
    // against it, and randomly sampled anchors usually do not. The
    // greedy full-pressure corners (the boundary probe's pass-2 shape)
    // are found on every seed, which keeps the mutation gate sharp for
    // tighten mutations.
    let mut anchors: Vec<Solution> = Vec::new();
    let extreme_root = HeronRng::from_seed(cfg.seed).fork(STREAM_EXTREME);
    let mut extreme_counter = 0u64;
    for descending in [true, false] {
        let sol = extreme_solution(
            session,
            descending,
            cfg,
            &extreme_root,
            &mut extreme_counter,
            tracer,
        );
        if let Some(sol) = sol {
            if !anchors.iter().any(|a| a.fingerprint() == sol.fingerprint())
                && oracle.check(&sol).is_valid()
            {
                anchors.push(sol);
            }
        }
    }
    let extremes = anchors.len();

    // Then `cfg.anchors` oracle-valid samples of the space itself,
    // deduplicated.
    let mut rng = HeronRng::from_seed(cfg.seed).fork(STREAM_ANCHOR);
    let sampled = session.solve(&mut rng, cfg.anchors * 4, &cfg.policy(), tracer);
    for sol in &sampled.solutions {
        if anchors.len() >= extremes + cfg.anchors {
            break;
        }
        if anchors.iter().any(|a| a.fingerprint() == sol.fingerprint()) {
            continue;
        }
        if oracle.check(sol).is_valid() {
            anchors.push(sol.clone());
        }
    }
    out.anchors_used = anchors.len();

    // The functional-only subproblem used to complete perturbations.
    let functional: Vec<usize> = csp
        .constraints()
        .iter()
        .enumerate()
        .filter(|(_, c)| {
            matches!(
                c,
                Constraint::Prod { .. }
                    | Constraint::Sum { .. }
                    | Constraint::Eq(..)
                    | Constraint::Select { .. }
            )
        })
        .map(|(i, _)| i)
        .collect();
    let restrictive: Vec<usize> = (0..csp.num_constraints())
        .filter(|i| !functional.contains(i))
        .collect();
    let mut fun_session = SolveSession::new(&csp.with_constraint_subset(&functional));

    let complete_root = HeronRng::from_seed(cfg.seed).fork(STREAM_COMPLETE);
    let full_root = HeronRng::from_seed(cfg.seed).fork(STREAM_FULLCHECK);
    let mut counter = 0u64;
    // Perturbations already confirmed as witnesses: (tunable, value).
    let mut seen: Vec<(usize, i64)> = Vec::new();

    for anchor in &anchors {
        for &t in &tunables {
            let values: Vec<i64> = csp.var(t).domain.iter_values().take(MAX_DOMAIN).collect();
            for v in values {
                if v == anchor.value(t) || seen.contains(&(t.0, v)) {
                    continue;
                }
                counter += 1;
                tracer.counter_add("audit.perturbations", 1);
                out.perturbations += 1;
                let pins: Vec<(VarRef, Vec<i64>)> = tunables
                    .iter()
                    .map(|&u| (u, vec![if u == t { v } else { anchor.value(u) }]))
                    .collect();
                // 1. Complete through the functional structure only.
                let mut crng = complete_root.fork(counter);
                let completed =
                    fun_session.solve_pinned(&pins, &mut crng, 1, &cfg.policy(), tracer);
                let Some(s) = completed.solutions.first() else {
                    continue; // no schedule exists with this knob value
                };
                // 2. The simulator must accept it...
                if !oracle.check(s).is_valid() {
                    continue;
                }
                // 3. ...and the full CSP must admit *some* completion of
                // the same tunable assignment. A direct check short-cuts
                // the common clean case; RootInfeasible on the pinned
                // incremental solve is the proof of rejection.
                if heron_csp::validate(csp, s) {
                    continue;
                }
                let mut frng = full_root.fork(counter);
                let full = session.solve_pinned(&pins, &mut frng, 1, &cfg.policy(), tracer);
                if full.status != SolveStatus::RootInfeasible {
                    continue; // admitted (or unproven) — not a witness
                }
                let blocking: Vec<BlockingEntry> = restrictive
                    .iter()
                    .filter(|&&i| !csp.constraints()[i].check(&|r| s.value(r)))
                    .map(|&i| BlockingEntry {
                        index: i,
                        constraint: csp.constraints()[i].to_string(),
                        rule: classify_rule(csp, &csp.constraints()[i]),
                    })
                    .collect();
                let (removal, diagnosed) = if out.witnesses.len() < cfg.max_diagnoses {
                    diagnose_pinned(csp, &pins)
                } else {
                    (Vec::new(), false)
                };
                seen.push((t.0, v));
                tracer.counter_add("audit.witnesses.over", 1);
                out.witnesses.push(OverWitness {
                    solution: s.clone(),
                    var: csp.var(t).name.clone(),
                    value: v,
                    anchor: anchor.fingerprint(),
                    blocking,
                    removal,
                    diagnosed,
                });
                if out.witnesses.len() >= cfg.max_witnesses || cfg.stop_at_first {
                    return out;
                }
            }
        }
    }
    out
}

/// Greedy-deletion diagnosis of a pinned-infeasible space: the pins are
/// posted *first* so the greedy pass keeps them (they are feasible on
/// their own) and the removal set names the blocking base rules, mapped
/// back to base posting indices.
fn diagnose_pinned(csp: &Csp, pins: &[(VarRef, Vec<i64>)]) -> (Vec<(usize, String)>, bool) {
    let mut d = csp.with_constraint_subset(&[]);
    for (u, values) in pins {
        d.post_in(*u, values.iter().copied());
    }
    let npins = d.num_constraints();
    for c in csp.constraints() {
        d.post(c.clone());
    }
    match diagnose_root_conflict(&d) {
        Some(report) => (
            report
                .removal
                .iter()
                .filter(|e| e.index >= npins)
                .map(|e| (e.index - npins, e.constraint.clone()))
                .collect(),
            true,
        ),
        None => (Vec::new(), false),
    }
}

//! The under-constraint probe: find CSP-SAT points the simulator
//! rejects.
//!
//! Sampling is *chunked and per-chunk seeded*: chunk `k` draws from
//! `HeronRng::from_seed(seed).fork(STREAM_UNDER).fork(k)`, so every
//! chunk's samples are a pure function of `(csp, seed, k)` (DESIGN.md
//! §11).
//!
//! Each witness is minimized by greedy assignment-perturbation delta
//! debugging against the first oracle-valid sample: walk the tunables
//! in posting order, try reverting each differing tunable to its
//! reference value (re-completing the assignment through
//! `SolveSession::solve_pinned`), and keep the revert whenever the
//! completed point is still oracle-invalid. The surviving differences
//! are the witness's implicated core.

use heron_csp::{Solution, SolveSession, VarRef};
use heron_rng::HeronRng;
use heron_trace::Tracer;

use crate::oracle::{Oracle, OracleVerdict};
use crate::{AuditConfig, CHUNK, STREAM_BOUNDARY, STREAM_MINIMIZE, STREAM_UNDER};

/// One tunable the minimizer could not revert to the reference value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiffEntry {
    /// Tunable name.
    pub var: String,
    /// Its value in the minimized witness.
    pub value: i64,
    /// Its value in the oracle-valid reference sample.
    pub reference: i64,
}

/// A confirmed, minimized under-constraint witness: a full CSP solution
/// the simulator rejects.
#[derive(Debug, Clone)]
pub struct UnderWitness {
    /// The (minimized) witness assignment.
    pub solution: Solution,
    /// Machine-readable error tag (`launch.warp-limit`, …).
    pub tag: String,
    /// The implicated constraint rule (`C1`…`C6`, or `-`).
    pub rule: &'static str,
    /// Human-readable oracle error.
    pub message: String,
    /// Tunables still differing from the valid reference after
    /// minimization (empty when no valid reference was found).
    pub diff: Vec<DiffEntry>,
}

/// The under-probe's findings, shared by sampling, the boundary probe
/// and the minimizer.
#[derive(Debug, Clone, Default)]
pub struct UnderState {
    /// Fingerprints of every distinct sample, in discovery order.
    pub seen: Vec<u64>,
    /// Total oracle-invalid samples (witnesses beyond the storage cap
    /// are counted here but not stored).
    pub invalid_total: u64,
    /// Stored raw (pre-minimization) witnesses.
    pub raw_witnesses: Vec<Solution>,
    /// First oracle-valid sample — the minimizer's reference point.
    pub reference: Option<Solution>,
    /// Oracle-invalid *boundary* points (see [`boundary_probe`]).
    pub boundary_invalid: u64,
}

impl UnderState {
    /// A fresh probe.
    pub fn new() -> Self {
        UnderState::default()
    }
}

/// Samples the space chunk by chunk, replaying every new distinct point
/// through the oracle into `state`, until `cfg.samples` points, two dry
/// chunks in a row, the chunk cap or (in gate mode) a first witness.
pub fn run_under(
    session: &mut SolveSession,
    oracle: &Oracle,
    cfg: &AuditConfig,
    state: &mut UnderState,
    tracer: &Tracer,
) {
    let root = HeronRng::from_seed(cfg.seed).fork(STREAM_UNDER);
    // Tiny spaces never reach `samples` distinct points; bound the chunk
    // count and stop after two consecutive dry chunks.
    let max_chunks = cfg.samples.div_ceil(CHUNK) * 4;
    let mut dry = 0;
    for chunk in 0..max_chunks {
        if state.seen.len() >= cfg.samples
            || dry >= 2
            || (cfg.stop_at_first && !state.raw_witnesses.is_empty())
        {
            return;
        }
        let mut rng = root.fork(chunk as u64);
        let out = session.solve(&mut rng, CHUNK, &cfg.policy(), tracer);
        let mut new_any = false;
        for sol in &out.solutions {
            if state.seen.len() >= cfg.samples {
                break;
            }
            let fp = sol.fingerprint();
            if state.seen.contains(&fp) {
                continue;
            }
            state.seen.push(fp);
            new_any = true;
            tracer.counter_add("audit.samples", 1);
            match oracle.check(sol) {
                OracleVerdict::Valid => {
                    if state.reference.is_none() {
                        state.reference = Some(sol.clone());
                    }
                }
                _ => {
                    state.invalid_total += 1;
                    tracer.counter_add("audit.witnesses.under", 1);
                    if state.raw_witnesses.len() < cfg.max_witnesses {
                        state.raw_witnesses.push(sol.clone());
                    }
                }
            }
        }
        dry = if new_any { 0 } else { dry + 1 };
    }
}

/// The deterministic boundary probe: uniform sampling almost never
/// lands in a thin newly-legal region (a dropped capacity rule opens up
/// maybe 1% of the space), but under-constraint bugs live at the
/// extremes by construction. Two directed passes, both deterministic —
/// a mutated space's boundary witness is found on *every* seed, which
/// is what makes the mutation gate sharp:
///
/// 1. **Per-variable extremes**: for every non-constant variable —
///    tunables *and* derived pressure variables like `warps` or
///    `smem.total` — pin it alone to the most extreme value the space
///    still satisfies (descending, then ascending) and replay the
///    completion. A dropped capacity rule makes the implicated pressure
///    variable's maximum jump straight past the hardware limit.
/// 2. **Greedy full-pressure sweep**: pin every tunable in posting
///    order to the most extreme value that keeps the pinned space
///    satisfiable, accumulating pins — the combined max-pressure /
///    min-pressure corner a correct space must still keep legal.
pub fn boundary_probe(
    session: &mut SolveSession,
    oracle: &Oracle,
    cfg: &AuditConfig,
    state: &mut UnderState,
    tracer: &Tracer,
) {
    let csp = session.csp().clone();
    let root = HeronRng::from_seed(cfg.seed).fork(STREAM_BOUNDARY);
    let mut counter = 0u64;

    let replay = |sol: &Solution, state: &mut UnderState| {
        let fp = sol.fingerprint();
        if state.seen.contains(&fp) {
            return;
        }
        state.seen.push(fp);
        tracer.counter_add("audit.boundary_points", 1);
        match oracle.check(sol) {
            OracleVerdict::Valid => {
                if state.reference.is_none() {
                    state.reference = Some(sol.clone());
                }
            }
            _ => {
                state.invalid_total += 1;
                state.boundary_invalid += 1;
                tracer.counter_add("audit.witnesses.under", 1);
                if state.raw_witnesses.len() < cfg.max_witnesses {
                    state.raw_witnesses.push(sol.clone());
                }
            }
        }
    };

    // Pass 1: per-variable extremes. A candidate that is not an exact
    // product of the tunable domains is unsatisfiable but not always
    // propagation-refuted, so the walk uses a deliberately small search
    // budget: real extremes (products of power-of-two-ish factors)
    // complete almost immediately, dead candidates fail fast.
    let probe_policy = heron_csp::SolvePolicy::fixed(300);
    for i in 0..csp.num_vars() {
        let v = VarRef(i);
        if csp.var(v).domain.size() <= 1 {
            continue; // constants have no extreme to push
        }
        for descending in [true, false] {
            let values = extreme_candidates(&csp.var(v).domain, descending);
            for val in values {
                counter += 1;
                let mut rng = root.fork(counter);
                let pins = [(v, vec![val])];
                let out = session.solve_pinned(&pins, &mut rng, 1, &probe_policy, tracer);
                if let Some(sol) = out.solutions.first() {
                    replay(sol, state);
                    break; // most extreme feasible value found
                }
            }
        }
    }

    // Pass 2: greedy full-pressure sweeps.
    for descending in [true, false] {
        if let Some(sol) = extreme_solution(session, descending, cfg, &root, &mut counter, tracer) {
            replay(&sol, state);
        }
    }
}

/// The greedy full-pressure corner of the space: every tunable pinned,
/// in posting order, to the most extreme value that keeps the
/// accumulated pins satisfiable. Deterministic up to the solver's draws
/// from `root.fork(counter)` — the same `(space, cfg, root)` always
/// reaches the same corner. Shared by the boundary probe (pass 2) and
/// the over-probe's deterministic anchors.
pub(crate) fn extreme_solution(
    session: &mut SolveSession,
    descending: bool,
    cfg: &AuditConfig,
    root: &HeronRng,
    counter: &mut u64,
    tracer: &Tracer,
) -> Option<Solution> {
    let csp = session.csp().clone();
    let mut pins: Vec<(VarRef, Vec<i64>)> = Vec::new();
    for t in csp.tunables() {
        let mut values: Vec<i64> = csp.var(t).domain.iter_values().collect();
        if descending {
            values.reverse();
        }
        for v in values {
            *counter += 1;
            pins.push((t, vec![v]));
            let mut rng = root.fork(*counter);
            let out = session.solve_pinned(&pins, &mut rng, 1, &cfg.policy(), tracer);
            if out.solutions.is_empty() {
                pins.pop(); // this extreme is infeasible; try the next
            } else {
                break;
            }
        }
    }
    *counter += 1;
    let mut rng = root.fork(*counter);
    session
        .solve_pinned(&pins, &mut rng, 1, &cfg.policy(), tracer)
        .solutions
        .into_iter()
        .next()
}

/// Candidate pin values for one per-variable extreme search, most
/// extreme first. Small (decision-sized) domains are enumerated
/// outright; wide `Range` domains — derived pressure variables like
/// byte footprints — get a geometric ladder from the far end toward the
/// near end, so the search reaches the feasible frontier in O(log)
/// steps without enumerating millions of values.
fn extreme_candidates(domain: &heron_csp::Domain, descending: bool) -> Vec<i64> {
    const ENUMERABLE: u64 = 64;
    if domain.size() <= ENUMERABLE {
        let mut values: Vec<i64> = domain.iter_values().collect();
        if descending {
            values.reverse();
        }
        return values;
    }
    let (lo, hi) = (domain.min(), domain.max());
    let mut out = Vec::new();
    if descending {
        let mut v = hi;
        while v > lo {
            out.push(v);
            v = lo + (v - lo) / 2;
        }
        out.push(lo);
    } else {
        let mut v = lo;
        while v < hi {
            out.push(v);
            v = hi - (hi - v) / 2;
        }
        out.push(hi);
    }
    out.dedup();
    out
}

/// Minimizes every stored raw witness against the valid reference (see
/// the module docs) and attaches the oracle's attribution.
pub fn minimize(
    session: &mut SolveSession,
    oracle: &Oracle,
    cfg: &AuditConfig,
    state: &UnderState,
    tracer: &Tracer,
) -> Vec<UnderWitness> {
    let csp = session.csp().clone();
    let tunables = csp.tunables();
    let mut rng = HeronRng::from_seed(cfg.seed).fork(STREAM_MINIMIZE);
    let mut out = Vec::with_capacity(state.raw_witnesses.len());
    for raw in &state.raw_witnesses {
        let mut current = raw.clone();
        if let Some(reference) = &state.reference {
            for &t in &tunables {
                if current.value(t) == reference.value(t) {
                    continue;
                }
                let pins: Vec<(VarRef, Vec<i64>)> = tunables
                    .iter()
                    .map(|&u| {
                        let v = if u == t {
                            reference.value(u)
                        } else {
                            current.value(u)
                        };
                        (u, vec![v])
                    })
                    .collect();
                tracer.counter_add("audit.minimize_steps", 1);
                let step = session.solve_pinned(&pins, &mut rng, 1, &cfg.policy(), tracer);
                if let Some(s) = step.solutions.first() {
                    // Keep the revert only while the point stays invalid:
                    // the final diff is a 1-minimal implicated core.
                    if !oracle.check(s).is_valid() {
                        current = s.clone();
                    }
                }
            }
        }
        let verdict = oracle.check(&current);
        debug_assert!(!verdict.is_valid(), "minimizer accepted a valid point");
        let diff = state
            .reference
            .as_ref()
            .map(|r| {
                tunables
                    .iter()
                    .filter(|&&t| current.value(t) != r.value(t))
                    .map(|&t| DiffEntry {
                        var: csp.var(t).name.clone(),
                        value: current.value(t),
                        reference: r.value(t),
                    })
                    .collect()
            })
            .unwrap_or_default();
        out.push(UnderWitness {
            tag: verdict.tag(),
            rule: verdict.rule(),
            message: verdict.message(),
            solution: current,
            diff,
        });
    }
    out
}

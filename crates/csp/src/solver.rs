//! `RandSAT`: randomised constraint satisfaction.
//!
//! The paper's explorer needs two primitives from its CSP solver:
//! *validate* (is a concrete assignment a solution?) and *sample* (return
//! multiple random, valid, concrete assignments). Sampling is implemented
//! as propagation-guided backtracking search with randomised variable and
//! value order, restarted per requested sample.
//!
//! Search state lives in a [`DomainStore`]: branching fixes a value and
//! propagates on the shared store, and backtracking pops the store's
//! trail — O(changes) per node instead of the historical full
//! `Vec<Domain>` clone per candidate trial. The branch order's inputs
//! (tunable set and mask, the constant non-tunable suffix) and the dive's
//! buffers (branch order, candidate values) live in one `Brancher` per
//! CSP, so a dive allocates nothing until it has a solution to return.
//!
//! Solver failure is a first-class outcome, not a silent empty `Vec`:
//! every sampling call returns a [`SolveOutcome`] whose [`SolveStatus`]
//! distinguishes a satisfiable space ([`SolveStatus::Sat`]) from a
//! root-infeasible one ([`SolveStatus::RootInfeasible`]), an exhausted
//! backtracking budget ([`SolveStatus::BudgetExhausted`]) and an exceeded
//! solve deadline ([`SolveStatus::DeadlineExceeded`]). Callers must match
//! on the status — the explorer uses it to drive offspring repair and
//! graceful degradation instead of silently shrinking generations.

use heron_rng::Rng;
use heron_rng::SliceRandom;
use heron_trace::Tracer;

use crate::problem::{Csp, Solution, VarRef};
use crate::propagate::Propagator;
use crate::store::DomainStore;

/// Counters describing one [`rand_sat_traced`] call.
///
/// All counts are exact and deterministic for a fixed `(csp, seed, n,
/// policy)` tuple, which is what the exact-count unit tests pin down.
/// `attempts`, `restarts`, `wipeouts`, `solutions` and `escalations` are
/// facts of the sampled stream, fixed by the search itself;
/// `propagations` and `max_trail_depth` also depend on the propagation
/// schedule, which may change them without moving a single sample.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolveStats {
    /// Randomised backtracking dives started (including the ones that
    /// found a duplicate or nothing).
    pub attempts: u64,
    /// Single-constraint filtering passes executed, root propagation
    /// included (for session solves the root fixpoint is one-time setup
    /// and is excluded — see `SolveSession`).
    pub propagations: u64,
    /// Dives that ended without contributing a new solution — either the
    /// budget ran out or the result duplicated an earlier sample — and
    /// therefore restarted the search from the root.
    pub restarts: u64,
    /// Domain wipeouts (infeasibility proofs) hit during propagation.
    pub wipeouts: u64,
    /// Distinct solutions returned.
    pub solutions: u64,
    /// Budget-escalation rounds taken: each multiplies the per-sample
    /// backtracking budget by [`SolvePolicy::escalation_factor`] after a
    /// round that produced zero solutions on a root-feasible space.
    pub escalations: u64,
    /// Deepest trail (undo-stack) length reached while backtracking.
    pub max_trail_depth: u64,
    /// Solves served incrementally from a session's cached root fixpoint
    /// (1 for a `SolveSession::solve_pinned` call, 0 otherwise).
    pub incremental_hits: u64,
}

impl SolveStats {
    /// Accumulates another call's counters into this one. The tuner's
    /// search log uses this to aggregate per-round solver pressure
    /// across the populate / evolve / fallback solve calls of a round.
    /// `max_trail_depth` aggregates as a maximum, everything else sums.
    pub fn absorb(&mut self, other: &SolveStats) {
        self.attempts += other.attempts;
        self.propagations += other.propagations;
        self.restarts += other.restarts;
        self.wipeouts += other.wipeouts;
        self.solutions += other.solutions;
        self.escalations += other.escalations;
        self.max_trail_depth = self.max_trail_depth.max(other.max_trail_depth);
        self.incremental_hits += other.incremental_hits;
    }
}

/// Classification of one sampling call — the solver's answer is never a
/// bare (possibly empty) solution list.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SolveStatus {
    /// At least one solution was materialised (or zero were requested).
    Sat,
    /// Root propagation wiped out a domain: the CSP has *no* solutions,
    /// proven before any search. [`crate::diagnose::diagnose_root_conflict`]
    /// can name a culpable constraint subset.
    RootInfeasible,
    /// The space may be satisfiable, but every dive exhausted its
    /// backtracking budget (after any escalation rounds) without finding a
    /// solution.
    BudgetExhausted,
    /// The step deadline ([`SolvePolicy::deadline_steps`]) ran out before
    /// the requested samples materialised. Any solutions found before the
    /// deadline are still carried in [`SolveOutcome::solutions`].
    DeadlineExceeded,
}

impl SolveStatus {
    /// Short stable tag, used in traces and error counters.
    pub fn tag(&self) -> &'static str {
        match self {
            SolveStatus::Sat => "sat",
            SolveStatus::RootInfeasible => "root-infeasible",
            SolveStatus::BudgetExhausted => "budget-exhausted",
            SolveStatus::DeadlineExceeded => "deadline-exceeded",
        }
    }
}

impl std::fmt::Display for SolveStatus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.tag())
    }
}

/// Solve-effort policy: per-sample backtracking budget, the geometric
/// budget-escalation restart schedule, and an optional deterministic step
/// deadline.
///
/// The deadline counts *candidate-value trials* (branch decisions), not
/// wall-clock time, so same-seed runs remain byte-identical on any
/// machine; it is a deterministic proxy for a wall deadline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SolvePolicy {
    /// Initial per-sample backtracking budget (counted in failures).
    pub budget: u32,
    /// Extra rounds allowed after a zero-solution round on a feasible
    /// root; each multiplies the budget by `escalation_factor`.
    pub max_escalations: u32,
    /// Geometric budget growth per escalation round.
    pub escalation_factor: u32,
    /// Hard ceiling on the escalated budget.
    pub budget_cap: u32,
    /// Maximum branch decisions for the whole call; `0` disables the
    /// deadline.
    pub deadline_steps: u64,
}

impl Default for SolvePolicy {
    fn default() -> Self {
        SolvePolicy {
            budget: 2_000,
            max_escalations: 2,
            escalation_factor: 4,
            budget_cap: 32_000,
            deadline_steps: 0,
        }
    }
}

impl SolvePolicy {
    /// A fixed-budget policy with no escalation and no deadline — the
    /// behaviour of the historical `rand_sat_with_budget` contract.
    pub fn fixed(budget: u32) -> Self {
        SolvePolicy {
            budget,
            max_escalations: 0,
            escalation_factor: 1,
            budget_cap: budget,
            deadline_steps: 0,
        }
    }

    /// Sets the step deadline (`0` disables it).
    pub fn with_deadline(mut self, steps: u64) -> Self {
        self.deadline_steps = steps;
        self
    }

    /// Sets the initial budget, keeping the escalation schedule.
    pub fn with_budget(mut self, budget: u32) -> Self {
        self.budget = budget;
        self.budget_cap = self.budget_cap.max(budget);
        self
    }
}

/// The full result of one sampling call: classification, the solutions
/// materialised (possibly fewer than requested), and exact counters.
#[derive(Debug, Clone)]
pub struct SolveOutcome {
    /// What happened.
    pub status: SolveStatus,
    /// Distinct solutions found, in discovery order.
    pub solutions: Vec<Solution>,
    /// Exact deterministic counters for this call.
    pub stats: SolveStats,
}

impl SolveOutcome {
    /// `true` iff the call is classified [`SolveStatus::Sat`].
    pub fn is_sat(&self) -> bool {
        self.status == SolveStatus::Sat
    }

    /// Unwraps the solutions, panicking with `ctx` and the status if the
    /// call was not `Sat`. For tests, benches and pipeline stages where a
    /// non-`Sat` outcome is a bug, never an expected condition.
    #[track_caller]
    pub fn expect_sat(self, ctx: &str) -> Vec<Solution> {
        assert!(
            self.status == SolveStatus::Sat,
            "{ctx}: solver returned `{}` with {} solution(s)",
            self.status,
            self.solutions.len()
        );
        self.solutions
    }

    /// First solution, if any — for single-sample decode paths that handle
    /// absence explicitly via `Option`.
    pub fn one(self) -> Option<Solution> {
        self.solutions.into_iter().next()
    }
}

/// Deterministic step deadline threaded through the dives.
struct Deadline {
    remaining: u64,
    enabled: bool,
    hit: bool,
}

impl Deadline {
    fn new(steps: u64) -> Self {
        Deadline {
            remaining: steps,
            enabled: steps > 0,
            hit: false,
        }
    }

    /// Consumes one branch decision; returns `false` once exhausted.
    fn tick(&mut self) -> bool {
        if !self.enabled {
            return true;
        }
        if self.remaining == 0 {
            self.hit = true;
            return false;
        }
        self.remaining -= 1;
        true
    }
}

/// Checks a complete assignment against every declared domain and every
/// posted constraint.
pub fn validate(csp: &Csp, sol: &Solution) -> bool {
    sol.values().len() == csp.num_vars() && satisfies(csp, &|r| sol.value(r))
}

/// [`validate`] for an assignment given as a function of the variable.
fn satisfies(csp: &Csp, value: &dyn Fn(VarRef) -> i64) -> bool {
    csp.vars().all(|(r, decl)| decl.domain.contains(value(r)))
        && csp.constraints().iter().all(|c| c.check(value))
}

/// Draws up to `n` *distinct* random solutions of `csp` under the default
/// [`SolvePolicy`] (budget 2 000, two 4× escalation rounds, no deadline).
///
/// The returned [`SolveOutcome`] classifies the result; an empty solution
/// list always comes with a non-`Sat` status explaining why.
pub fn rand_sat<R: Rng>(csp: &Csp, rng: &mut R, n: usize) -> SolveOutcome {
    rand_sat_policy(csp, rng, n, &SolvePolicy::default())
}

/// [`rand_sat`] with an explicit fixed per-sample backtracking budget and
/// no escalation (see [`SolvePolicy::fixed`]).
pub fn rand_sat_with_budget<R: Rng>(csp: &Csp, rng: &mut R, n: usize, budget: u32) -> SolveOutcome {
    rand_sat_policy(csp, rng, n, &SolvePolicy::fixed(budget))
}

/// [`rand_sat_traced`] without a tracer.
pub fn rand_sat_policy<R: Rng>(
    csp: &Csp,
    rng: &mut R,
    n: usize,
    policy: &SolvePolicy,
) -> SolveOutcome {
    rand_sat_traced(csp, rng, n, policy, &Tracer::disabled())
}

/// The canonical one-shot sampling entry point: applies the full
/// [`SolvePolicy`] (budget, escalation, deadline), reports exact solver
/// counters and records them on `tracer` (span `csp.solve`, counters
/// `csp.*`). The tracer never touches `rng`, so traced and untraced runs
/// draw identical samples.
///
/// This is the one sampling driver (`Root::sample`) over a root built for
/// the call, so — unlike a `SolveSession` solve — the root fixpoint's
/// propagations and wipeouts are part of the reported counters.
pub fn rand_sat_traced<R: Rng>(
    csp: &Csp,
    rng: &mut R,
    n: usize,
    policy: &SolvePolicy,
    tracer: &Tracer,
) -> SolveOutcome {
    Root::new(csp).sample(csp, None, rng, n, policy, tracer)
}

/// One CSP's propagator, branch-order state and committed root fixpoint:
/// what every sampling call runs on. [`rand_sat_traced`] builds one per
/// call, a `SolveSession` keeps one for its lifetime.
#[derive(Debug)]
pub(crate) struct Root {
    pub(crate) prop: Propagator,
    brancher: Brancher,
    /// The committed root fixpoint; `None` iff the root is infeasible.
    store: Option<DomainStore>,
}

impl Root {
    /// Builds the propagator adjacency, the tunable mask and the root
    /// fixpoint, retiring the constraints already entailed there (a free,
    /// fixpoint-preserving bounds sweep).
    pub(crate) fn new(csp: &Csp) -> Self {
        let prop = Propagator::new(csp);
        let mut store = prop.store();
        let store = prop.run_all(&mut store).is_ok().then(|| {
            store.commit();
            prop.sweep_entailed(&mut store);
            store
        });
        Root {
            prop,
            brancher: Brancher::new(csp),
            store,
        }
    }

    pub(crate) fn is_feasible(&self) -> bool {
        self.store.is_some()
    }

    /// The one sampling driver: draws up to `n` distinct solutions of
    /// `csp` (the problem this root was built from), further constrained
    /// by `pins` when given.
    ///
    /// Pins (`var ∈ values`, sorted and deduplicated) and their fixpoint
    /// are one backtrack scope on the root store, undone when the call
    /// ends: nothing is copied. A feasible pinned call counts one
    /// [`SolveStats::incremental_hits`]; an infeasible pin set classifies
    /// as [`SolveStatus::RootInfeasible`]. The reported propagations and
    /// wipeouts are everything the propagator counted since its last
    /// `reset_stats`.
    pub(crate) fn sample<R: Rng>(
        &mut self,
        csp: &Csp,
        pins: Option<&[(VarRef, Vec<i64>)]>,
        rng: &mut R,
        n: usize,
        policy: &SolvePolicy,
        tracer: &Tracer,
    ) -> SolveOutcome {
        let span = tracer.span_with("csp.solve", || {
            [
                ("n", n.to_string()),
                ("budget", policy.budget.to_string()),
                ("vars", csp.num_vars().to_string()),
            ]
        });
        // Wipeouts of earlier calls must not steer this call's schedule.
        self.prop.clear_hot();
        let mut stats = SolveStats::default();
        let mut deadline = Deadline::new(policy.deadline_steps);
        let mut out = Vec::with_capacity(n);
        let mut root_ok = false;
        if let Some(store) = self.store.as_mut() {
            let scope = store.mark();
            root_ok = pins.is_none_or(|pins| apply_pins(&self.prop, store, pins, &mut stats));
            stats.incremental_hits = u64::from(root_ok && pins.is_some());
            if root_ok && n > 0 {
                // The reported depth is that of the dives, above the
                // pinned fixpoint's own trail entries.
                store.take_max_trail();
                let pinned_depth = store.trail_depth();
                let ctx = SampleCtx {
                    csp,
                    prop: &self.prop,
                };
                sample_into(
                    &ctx,
                    &mut self.brancher,
                    store,
                    rng,
                    n,
                    policy,
                    &mut deadline,
                    &mut stats,
                    &mut out,
                );
                stats.max_trail_depth = store.take_max_trail() - pinned_depth;
            }
            store.undo_to(scope);
            // The next call's depth starts from the root's empty trail.
            store.take_max_trail();
        }
        stats.propagations = self.prop.propagations();
        stats.wipeouts += self.prop.wipeouts();
        stats.solutions = out.len() as u64;
        let status = classify(root_ok, &deadline, &out, n);
        record(tracer, &stats, status);
        drop(span);
        SolveOutcome {
            status,
            solutions: out,
            stats,
        }
    }
}

/// Restricts `store` to `pins` and propagates from the variables they
/// changed; `false` iff the pinned space is proven empty. Pins typically
/// fix variables, so the newly entailed constraints are retired for the
/// scope.
fn apply_pins(
    prop: &Propagator,
    store: &mut DomainStore,
    pins: &[(VarRef, Vec<i64>)],
    stats: &mut SolveStats,
) -> bool {
    let mut changed: Vec<VarRef> = Vec::with_capacity(pins.len());
    for (v, values) in pins {
        match store.restrict_to(v.0, values) {
            Ok(true) => changed.push(*v),
            Ok(false) => {}
            Err(()) => {
                // A pin outside the variable's domain wipes it out before
                // any filtering pass could count it.
                stats.wipeouts += 1;
                return false;
            }
        }
    }
    let feasible = prop.run_from_vars(store, &changed).is_ok();
    if feasible {
        prop.sweep_entailed(store);
    }
    feasible
}

/// Maps the terminal solver state to a [`SolveStatus`].
fn classify(root_ok: bool, deadline: &Deadline, out: &[Solution], n: usize) -> SolveStatus {
    if !root_ok {
        SolveStatus::RootInfeasible
    } else if deadline.hit {
        SolveStatus::DeadlineExceeded
    } else if out.is_empty() && n > 0 {
        SolveStatus::BudgetExhausted
    } else {
        SolveStatus::Sat
    }
}

/// Emits the per-call counters.
fn record(tracer: &Tracer, stats: &SolveStats, status: SolveStatus) {
    tracer.counter_add("csp.attempts", stats.attempts);
    tracer.counter_add("csp.propagations", stats.propagations);
    tracer.counter_add("csp.restarts", stats.restarts);
    tracer.counter_add("csp.wipeouts", stats.wipeouts);
    tracer.counter_add("csp.solutions", stats.solutions);
    tracer.counter_add("csp.escalations", stats.escalations);
    if status == SolveStatus::DeadlineExceeded {
        tracer.counter_add("csp.deadline_exceeded", 1);
    }
    if status == SolveStatus::RootInfeasible {
        tracer.counter_add("csp.root_infeasible", 1);
    }
    if stats.incremental_hits > 0 {
        tracer.counter_add("csp.incremental_hits", stats.incremental_hits);
    }
}

/// What a dive reads besides the store and the [`Brancher`]: the problem
/// (for leaf validation) and the shared propagator.
struct SampleCtx<'a> {
    csp: &'a Csp,
    prop: &'a Propagator,
}

/// The branch-order inputs of one CSP and the buffers its dives reuse,
/// built once per solve (once per session).
#[derive(Debug)]
struct Brancher {
    tunables: Vec<VarRef>,
    tmask: Vec<bool>,
    /// Branch order of the dive in progress: the tunables, reshuffled by
    /// every dive, then everything else in declaration order.
    order: Vec<VarRef>,
    /// Candidate values of the open branch decisions, stacked by depth.
    candidates: Vec<i64>,
}

impl Brancher {
    fn new(csp: &Csp) -> Self {
        let tunables = csp.tunables();
        let mut tmask = vec![false; csp.num_vars()];
        for t in &tunables {
            tmask[t.0] = true;
        }
        let mut order = tunables.clone();
        order.extend((0..csp.num_vars()).filter(|&i| !tmask[i]).map(VarRef));
        Brancher {
            tunables,
            tmask,
            order,
            candidates: Vec::new(),
        }
    }
}

/// The sampling loop of [`Root::sample`]: draws up to `n > 0` distinct
/// solutions on `store` (which must hold a fixpoint), applying the
/// attempt/escalation schedule.
#[allow(clippy::too_many_arguments)]
fn sample_into<R: Rng>(
    ctx: &SampleCtx<'_>,
    brancher: &mut Brancher,
    store: &mut DomainStore,
    rng: &mut R,
    n: usize,
    policy: &SolvePolicy,
    deadline: &mut Deadline,
    stats: &mut SolveStats,
    out: &mut Vec<Solution>,
) {
    let mut seen = std::collections::HashSet::new();
    let mut budget = policy.budget;
    let mut escalation = 0u32;
    loop {
        // Give each requested sample a few attempts before giving up,
        // so that a handful of unlucky random walks does not starve
        // the population.
        let mut attempts = n * 3;
        while out.len() < n && attempts > 0 && !deadline.hit {
            attempts -= 1;
            stats.attempts += 1;
            let mut fails = budget;
            let found = match search_one(ctx, brancher, store, rng, &mut fails, deadline) {
                Some(sol) => {
                    debug_assert!(
                        validate(ctx.csp, &sol),
                        "search produced an invalid solution"
                    );
                    if seen.insert(sol.fingerprint()) {
                        out.push(sol);
                        true
                    } else {
                        false
                    }
                }
                None => false,
            };
            if !found {
                stats.restarts += 1;
            }
        }
        // Budget escalation: a zero-solution round on a feasible root
        // retries the whole round with a geometrically larger budget,
        // up to the cap — the restart policy for knife-edge spaces
        // whose only solutions hide behind deep backtracking.
        if !out.is_empty()
            || deadline.hit
            || escalation >= policy.max_escalations
            || budget >= policy.budget_cap
        {
            break;
        }
        escalation += 1;
        stats.escalations += 1;
        budget = budget
            .max(1)
            .saturating_mul(policy.escalation_factor.max(1))
            .min(policy.budget_cap.max(1));
    }
}

/// One randomised dive with chronological backtracking on the store's
/// trail. The store is returned to its pre-call state regardless of the
/// result.
fn search_one<R: Rng>(
    ctx: &SampleCtx<'_>,
    brancher: &mut Brancher,
    store: &mut DomainStore,
    rng: &mut R,
    fails: &mut u32,
    deadline: &mut Deadline,
) -> Option<Solution> {
    // Branch order: tunables in random order, then everything else in
    // declaration order (those are functionally determined in well-formed
    // Heron spaces, so they rarely need branching).
    let Brancher {
        tunables,
        tmask,
        order,
        candidates,
    } = brancher;
    order[..tunables.len()].copy_from_slice(tunables);
    order[..tunables.len()].shuffle(rng);
    candidates.clear();
    let top = store.mark();
    let mut dive = Dive {
        ctx,
        tmask,
        order,
        candidates,
        rng,
        fails,
        deadline,
    };
    let sol = dive.descend(store, 0);
    store.undo_to(top);
    sol
}

/// The state of one dive besides the store.
struct Dive<'a, R> {
    ctx: &'a SampleCtx<'a>,
    tmask: &'a [bool],
    order: &'a [VarRef],
    candidates: &'a mut Vec<i64>,
    rng: &'a mut R,
    fails: &'a mut u32,
    deadline: &'a mut Deadline,
}

impl<R: Rng> Dive<'_, R> {
    /// Branches on the next unfixed variable at or after `depth`.
    fn descend(&mut self, store: &mut DomainStore, depth: usize) -> Option<Solution> {
        let mut d = depth;
        while d < self.order.len() && store.is_fixed(self.order[d].0) {
            d += 1;
        }
        if d == self.order.len() {
            // Propagation is deliberately incomplete (bounds consistency), so a
            // fully fixed assignment must still pass the exact check.
            let csp = self.ctx.csp;
            if satisfies(csp, &|r| store.min(r.0)) {
                let values = (0..csp.num_vars()).map(|i| store.min(i)).collect();
                return Some(Solution::new(values));
            }
            *self.fails = self.fails.saturating_sub(1);
            return None;
        }
        let var = self.order[d];
        // This decision's candidates sit on top of the open ones below it.
        let base = self.candidates.len();
        if store.branch_values(var.0, self.candidates) {
            self.candidates[base..].shuffle(self.rng);
        } else if let [lo, hi] = self.candidates[base..] {
            // Auxiliary range variable still unfixed: try the bounds and a
            // random value. Occurs only for slack-like variables. The
            // random draw joins the candidate list only when it is a
            // genuinely new value (the historical adjacent-only `dedup`
            // let `random == lo` through as a duplicate trial).
            let r = self.rng.random_range(lo..=hi);
            if r != lo && r != hi {
                self.candidates.push(r);
            }
        }
        let count = self.candidates.len() - base;
        let try_limit = if self.tmask[var.0] {
            count
        } else {
            count.min(4)
        };
        let mut sol = None;
        for k in base..base + try_limit {
            if *self.fails == 0 || !self.deadline.tick() {
                break;
            }
            let val = self.candidates[k];
            let m = store.mark();
            let (pre_lo, pre_hi) = (store.min(var.0), store.max(var.0));
            if store.fix(var.0, val).is_ok()
                && self
                    .ctx
                    .prop
                    .run_from_fixed(store, var, pre_lo, pre_hi)
                    .is_ok()
            {
                sol = self.descend(store, d + 1);
                if sol.is_some() {
                    // No undo on success: the top-level mark unwinds the
                    // whole branch in one pass.
                    break;
                }
            }
            store.undo_to(m);
            *self.fails = self.fails.saturating_sub(1);
        }
        self.candidates.truncate(base);
        sol
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::Domain;
    use crate::problem::VarCategory;
    use heron_rng::HeronRng;

    /// A miniature tiling space: i0 * i1 * i2 == 64, i1 * i2 <= 32,
    /// vec ∈ {1,2,4,8}, vec <= i2.
    fn tiling_csp() -> (Csp, [VarRef; 4]) {
        let mut csp = Csp::new();
        let n = csp.add_const("n", 64);
        let i0 = csp.add_var("i0", Domain::divisors_of(64), VarCategory::Tunable);
        let i1 = csp.add_var("i1", Domain::divisors_of(64), VarCategory::Tunable);
        let i2 = csp.add_var("i2", Domain::divisors_of(64), VarCategory::Tunable);
        csp.post_prod(n, vec![i0, i1, i2]);
        let inner = csp.add_var("inner", Domain::range(1, 4096), VarCategory::Other);
        csp.post_prod(inner, vec![i1, i2]);
        let cap = csp.add_const("cap", 32);
        csp.post_le(inner, cap);
        let vec = csp.add_var("vec", Domain::values([1, 2, 4, 8]), VarCategory::Tunable);
        csp.post_le(vec, i2);
        (csp, [i0, i1, i2, vec])
    }

    #[test]
    fn solutions_satisfy_all_constraints() {
        let (csp, [i0, i1, i2, vec]) = tiling_csp();
        let mut rng = HeronRng::from_seed(42);
        let sols = rand_sat(&csp, &mut rng, 32).expect_sat("tiling space");
        assert!(
            sols.len() >= 16,
            "expected many solutions, got {}",
            sols.len()
        );
        for s in &sols {
            assert!(validate(&csp, s));
            assert_eq!(s.value(i0) * s.value(i1) * s.value(i2), 64);
            assert!(s.value(i1) * s.value(i2) <= 32);
            assert!(s.value(vec) <= s.value(i2));
        }
    }

    #[test]
    fn solutions_are_distinct_and_diverse() {
        let (csp, [i0, ..]) = tiling_csp();
        let mut rng = HeronRng::from_seed(1);
        let sols = rand_sat(&csp, &mut rng, 24).expect_sat("tiling space");
        let fps: std::collections::HashSet<u64> = sols.iter().map(|s| s.fingerprint()).collect();
        assert_eq!(fps.len(), sols.len(), "duplicate solutions returned");
        let i0_values: std::collections::HashSet<i64> = sols.iter().map(|s| s.value(i0)).collect();
        assert!(i0_values.len() > 1, "sampling is not random");
    }

    #[test]
    fn infeasible_is_classified_root_infeasible() {
        let mut csp = Csp::new();
        let a = csp.add_var("a", Domain::values([2, 3]), VarCategory::Tunable);
        csp.post_in(a, [7, 9]);
        let mut rng = HeronRng::from_seed(0);
        let outcome = rand_sat(&csp, &mut rng, 4);
        assert_eq!(outcome.status, SolveStatus::RootInfeasible);
        assert!(outcome.solutions.is_empty());
        assert!(!outcome.is_sat());
        // Escalation never fires on a proven-infeasible root.
        assert_eq!(outcome.stats.escalations, 0);
    }

    #[test]
    #[should_panic(expected = "root-infeasible")]
    fn expect_sat_panics_with_context_on_failure() {
        let mut csp = Csp::new();
        let a = csp.add_var("a", Domain::values([2, 3]), VarCategory::Tunable);
        csp.post_in(a, [7, 9]);
        let mut rng = HeronRng::from_seed(0);
        rand_sat(&csp, &mut rng, 4).expect_sat("unit test");
    }

    #[test]
    fn validate_rejects_wrong_length_and_values() {
        let (csp, _) = tiling_csp();
        assert!(!validate(&csp, &Solution::new(vec![1, 2])));
        let mut rng = HeronRng::from_seed(3);
        let sols = rand_sat(&csp, &mut rng, 1).expect_sat("tiling space");
        let s = &sols[0];
        let mut bad = s.values().to_vec();
        bad[1] += 1; // break PROD
        assert!(!validate(&csp, &Solution::new(bad)));
    }

    #[test]
    fn solve_stats_exact_counts_on_trivial_space() {
        // One variable, no constraints: a single dive, no propagation,
        // exactly one trailed write (the branched variable).
        let mut csp = Csp::new();
        csp.add_var("a", Domain::values([1, 2]), VarCategory::Tunable);
        let mut rng = HeronRng::from_seed(5);
        let outcome = rand_sat_policy(&csp, &mut rng, 1, &SolvePolicy::fixed(100));
        assert_eq!(outcome.status, SolveStatus::Sat);
        assert_eq!(outcome.solutions.len(), 1);
        assert_eq!(
            outcome.stats,
            SolveStats {
                attempts: 1,
                propagations: 0,
                restarts: 0,
                wipeouts: 0,
                solutions: 1,
                escalations: 0,
                max_trail_depth: 1,
                incremental_hits: 0,
            }
        );
    }

    #[test]
    fn solve_stats_exact_counts_with_one_constraint() {
        // `a IN {1}` filters once and is then entailed (dormant): exactly
        // 1 propagation at the root, and the dive finds everything fixed
        // (no trail).
        let mut csp = Csp::new();
        let a = csp.add_var("a", Domain::values([1, 2]), VarCategory::Tunable);
        csp.post_in(a, [1]);
        let mut rng = HeronRng::from_seed(5);
        let outcome = rand_sat_policy(&csp, &mut rng, 1, &SolvePolicy::fixed(100));
        assert_eq!(outcome.solutions.len(), 1);
        assert_eq!(outcome.solutions[0].value(a), 1);
        assert_eq!(
            outcome.stats,
            SolveStats {
                attempts: 1,
                propagations: 1,
                restarts: 0,
                wipeouts: 0,
                solutions: 1,
                escalations: 0,
                max_trail_depth: 0,
                incremental_hits: 0,
            }
        );
    }

    #[test]
    fn solve_stats_count_wipeouts_and_restarts() {
        // Infeasible: the root propagation wipes out immediately, no dives.
        let mut csp = Csp::new();
        let a = csp.add_var("a", Domain::values([2, 3]), VarCategory::Tunable);
        csp.post_in(a, [7, 9]);
        let mut rng = HeronRng::from_seed(0);
        let outcome = rand_sat_policy(&csp, &mut rng, 4, &SolvePolicy::fixed(100));
        assert_eq!(outcome.status, SolveStatus::RootInfeasible);
        assert!(outcome.solutions.is_empty());
        assert_eq!(
            outcome.stats,
            SolveStats {
                attempts: 0,
                propagations: 1,
                restarts: 0,
                wipeouts: 1,
                solutions: 0,
                escalations: 0,
                max_trail_depth: 0,
                incremental_hits: 0,
            }
        );

        // A one-solution space asked for two: every extra dive rediscovers
        // the duplicate and counts as a restart (attempt budget = n * 3).
        let mut csp = Csp::new();
        csp.add_var("b", Domain::values([7]), VarCategory::Tunable);
        let mut rng = HeronRng::from_seed(1);
        let outcome = rand_sat_policy(&csp, &mut rng, 2, &SolvePolicy::fixed(100));
        assert_eq!(outcome.status, SolveStatus::Sat);
        assert_eq!(outcome.solutions.len(), 1);
        assert_eq!(outcome.stats.attempts, 6);
        assert_eq!(outcome.stats.restarts, 5);
        assert_eq!(outcome.stats.solutions, 1);
    }

    #[test]
    fn zero_budget_is_budget_exhausted_and_escalation_recovers() {
        // With a zero backtracking budget no dive can fix a value, so the
        // feasible space classifies as BudgetExhausted…
        let (csp, _) = tiling_csp();
        let mut rng = HeronRng::from_seed(2);
        let starved = rand_sat_policy(&csp, &mut rng, 4, &SolvePolicy::fixed(0));
        assert_eq!(starved.status, SolveStatus::BudgetExhausted);
        assert!(starved.solutions.is_empty());
        assert_eq!(starved.stats.escalations, 0);

        // …and the escalation schedule recovers from a starvation budget
        // by geometric restarts (0 → 4 → 16 → 64 → 256 here).
        let mut rng = HeronRng::from_seed(2);
        let policy = SolvePolicy {
            budget: 0,
            max_escalations: 4,
            escalation_factor: 4,
            budget_cap: 1_000,
            deadline_steps: 0,
        };
        let escalated = rand_sat_policy(&csp, &mut rng, 4, &policy);
        assert_eq!(escalated.status, SolveStatus::Sat);
        assert!(escalated.stats.escalations >= 1);
        assert!(!escalated.solutions.is_empty());
    }

    #[test]
    fn deadline_exceeded_is_classified_and_deterministic() {
        let (csp, _) = tiling_csp();
        // One branch decision is never enough to fix every tunable.
        let policy = SolvePolicy::default().with_deadline(1);
        let run = |seed: u64| {
            let mut rng = HeronRng::from_seed(seed);
            rand_sat_policy(&csp, &mut rng, 8, &policy)
        };
        let a = run(3);
        assert_eq!(a.status, SolveStatus::DeadlineExceeded);
        assert!(a.solutions.is_empty());
        let b = run(3);
        assert_eq!(a.stats, b.stats, "same-seed deadline runs diverged");

        // A generous deadline changes nothing: still Sat.
        let generous = SolvePolicy::default().with_deadline(1_000_000);
        let mut rng = HeronRng::from_seed(3);
        let ok = rand_sat_policy(&csp, &mut rng, 8, &generous);
        assert_eq!(ok.status, SolveStatus::Sat);
        assert_eq!(ok.solutions.len(), 8);
    }

    #[test]
    fn deadline_keeps_partial_solutions() {
        let (csp, _) = tiling_csp();
        // Binary-search the smallest deadline that still yields all 8
        // samples (step consumption is deterministic and monotone in the
        // deadline for a fixed seed), then run just under it: the
        // truncated call must classify DeadlineExceeded and carry fewer
        // than 8 solutions — without discarding the ones it found.
        let run = |deadline: u64| {
            let mut rng = HeronRng::from_seed(9);
            rand_sat_policy(
                &csp,
                &mut rng,
                8,
                &SolvePolicy::default().with_deadline(deadline),
            )
        };
        assert_eq!(run(1_000_000).status, SolveStatus::Sat);
        let (mut lo, mut hi) = (1u64, 1_000_000u64);
        while lo + 1 < hi {
            let mid = lo + (hi - lo) / 2;
            if run(mid).status == SolveStatus::Sat {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        assert!(hi > 2, "tiling space cannot be solved in two steps");
        let cut = run(hi - 1);
        assert_eq!(cut.status, SolveStatus::DeadlineExceeded);
        assert!(cut.solutions.len() < 8);
    }

    #[test]
    fn traced_solve_records_span_and_counters_without_touching_rng() {
        let (csp, _) = tiling_csp();
        let tracer = Tracer::manual();
        let mut rng_a = HeronRng::from_seed(11);
        let mut rng_b = HeronRng::from_seed(11);
        let policy = SolvePolicy::fixed(2_000);
        let traced = rand_sat_traced(&csp, &mut rng_a, 8, &policy, &tracer);
        let untraced = rand_sat_with_budget(&csp, &mut rng_b, 8, 2_000);
        assert_eq!(
            traced.solutions, untraced.solutions,
            "tracing must not perturb sampling"
        );
        assert_eq!(traced.status, untraced.status);
        let stats = traced.stats;
        assert_eq!(tracer.counter("csp.attempts"), Some(stats.attempts));
        assert_eq!(tracer.counter("csp.propagations"), Some(stats.propagations));
        assert_eq!(tracer.counter("csp.solutions"), Some(stats.solutions));
        assert_eq!(tracer.counter("csp.escalations"), Some(0));
        assert!(stats.propagations > 0);
        assert!(stats.max_trail_depth > 0, "dives must exercise the trail");
        let summary = heron_trace::check_trace(&tracer.to_jsonl()).expect("balanced trace");
        assert_eq!(summary.spans.len(), 1);
        assert_eq!(summary.spans[0].name, "csp.solve");
        assert!(summary.spans[0]
            .fields
            .iter()
            .any(|(k, v)| k == "n" && v == "8"));
    }

    #[test]
    fn sum_bounds_past_i64_max_do_not_overflow() {
        // The terms' upper bounds sum to 2^63, one past i64::MAX; a
        // wrapping sum made this satisfiable space root-infeasible.
        let mut csp = Csp::new();
        let big = 1 << 62;
        let out = csp.add_var("out", Domain::range(0, i64::MAX), VarCategory::Other);
        let a = csp.add_var("a", Domain::values([1, big]), VarCategory::Tunable);
        let b = csp.add_var("b", Domain::values([1, big]), VarCategory::Tunable);
        csp.post_sum(out, vec![a, b]);
        let mut rng = HeronRng::from_seed(4);
        let sols = rand_sat(&csp, &mut rng, 4).expect_sat("sum near i64::MAX");
        // (2^62, 2^62) has no i64 sum; the other three pairs do.
        assert_eq!(sols.len(), 3);
        for s in &sols {
            assert!(validate(&csp, s));
            assert_eq!(s.value(out), s.value(a) + s.value(b));
        }
    }

    #[test]
    fn select_spaces_are_solvable() {
        // Mimics Rule-C4: stage2 length depends on a location parameter.
        let mut csp = Csp::new();
        let l1 = csp.add_const("l1", 4);
        let l2 = csp.add_const("l2", 16);
        let l3 = csp.add_const("l3", 64);
        let loc = csp.add_var("loc", Domain::values([0, 1, 2]), VarCategory::Tunable);
        let len = csp.add_var("len", Domain::range(1, 64), VarCategory::LoopLength);
        csp.post_select(len, loc, vec![l1, l2, l3]);
        let mut rng = HeronRng::from_seed(9);
        let sols = rand_sat(&csp, &mut rng, 16).expect_sat("select space");
        assert!(!sols.is_empty());
        for s in &sols {
            let expected = [4, 16, 64][s.value(loc) as usize];
            assert_eq!(s.value(len), expected);
        }
    }
}

//! `RandSAT`: randomised constraint satisfaction.
//!
//! The paper's explorer needs two primitives from its CSP solver:
//! *validate* (is a concrete assignment a solution?) and *sample* (return
//! multiple random, valid, concrete assignments). Sampling is implemented
//! as propagation-guided backtracking search with randomised variable and
//! value order, restarted per requested sample.
//!
//! There is one way in: a [`SolveSession`] is built once per CSP and then
//! sampled by [`SolveSession::solve`] (the CSP as posted) and
//! [`SolveSession::solve_pinned`] (the CSP further constrained by value
//! pins, e.g. a CGA offspring's crossover `IN`s, or a baseline's fixed
//! tunables). Building the session presolves the CSP, builds the
//! propagator adjacency and the branch order, and runs the root fixpoint,
//! exactly once; every call then samples on that cached root. The session
//! shares its problem: built from an `Arc<Csp>` (a generated space's) it
//! keeps a second handle, not a copy (see [`SessionCsp`]). A pinned
//! call opens a backtrack scope on it, applies the pins and propagates
//! only from the pinned variables. Because the filters are monotone,
//! `fixpoint(root_fixpoint + pins)` equals the from-scratch
//! `fixpoint(initial + IN pins)`, so the sampled stream is the one the
//! materialised CSP would draw, at a fraction of the propagation work.
//!
//! Search state lives in a [`DomainStore`]: branching fixes a value and
//! propagates on the shared store, and backtracking pops the store's
//! trail — O(changes) per node instead of the historical full
//! `Vec<Domain>` clone per candidate trial. The branch order's inputs
//! (the tunables, the constant non-tunable suffix) and the dive's buffers
//! (branch order, candidate values, the leaf assignment) live in one
//! `Brancher` per session, so a dive allocates nothing until it has a
//! solution to return.
//!
//! The presolve (`Presolve`; DESIGN.md §5, "Presolve") merges `EQ` twins
//! of alike declared domains into one store variable, and takes
//! helper-boolean `SELECT`s out of the propagator and the branch order,
//! their outputs read as `choices[index]` and their pins translated to
//! pins on the index. The fixpoints the dive reads, and so every sample,
//! stay as they were.
//!
//! Solver failure is a first-class outcome, not a silent empty `Vec`:
//! every sampling call returns a [`SolveOutcome`] whose [`SolveStatus`]
//! distinguishes a satisfiable space ([`SolveStatus::Sat`]) from a
//! root-infeasible one ([`SolveStatus::RootInfeasible`]) and an exhausted
//! backtracking budget ([`SolveStatus::BudgetExhausted`]). Callers must match
//! on the status — the explorer uses it to drive offspring repair and
//! graceful degradation instead of silently shrinking generations.
//!
//! **Determinism note:** the root fixpoint is one-time session set-up and
//! is *never* folded into any reported [`SolveStats`]. A tuner killed and
//! resumed mid-run rebuilds its session; if the root cost were charged to
//! the first solve after construction, a resumed run's round records
//! would differ from an uninterrupted run's.

use std::sync::Arc;

use heron_rng::Rng;
use heron_rng::SliceRandom;
use heron_trace::Tracer;

use crate::constraint::Constraint;
use crate::domain::Domain;
use crate::problem::{Csp, Solution, VarCategory, VarRef};
use crate::propagate::{Kind, KindWork, Propagator};
use crate::store::DomainStore;

/// Counters describing one [`SolveSession`] call: the work of that call
/// alone. The root fixpoint is session set-up and is never reported, and
/// no earlier call shows in a later one's counters.
///
/// All counts are exact and deterministic for a fixed `(csp, pins, seed,
/// n, policy)` tuple, which is what the exact-count unit tests pin down.
/// `attempts`, `restarts`, `wipeouts`, `solutions` and `escalations` are
/// facts of the sampled stream, fixed by the search itself;
/// `propagations`, `max_trail_depth`, `nogood_hits` and `by_kind` also
/// depend on the propagation schedule, the presolve and the nogood memo,
/// which may change them without moving a single sample.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolveStats {
    /// Randomised backtracking dives started (including the ones that
    /// found a duplicate or nothing).
    pub attempts: u64,
    /// Single-constraint filtering passes executed: the pins' fixpoint
    /// and the dives', never the root's.
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
    /// backtracking budget by [`ESCALATION_FACTOR`] after a
    /// round that produced zero solutions on a root-feasible space.
    pub escalations: u64,
    /// Deepest trail (undo-stack) length reached while backtracking.
    pub max_trail_depth: u64,
    /// Solves served incrementally from the session's cached root
    /// fixpoint (1 for a feasible [`SolveSession::solve_pinned`] call, 0
    /// otherwise).
    pub incremental_hits: u64,
    /// Branch trials refuted by the call's nogood memo: each is one of
    /// the `wipeouts`, proved without a filtering pass.
    pub nogood_hits: u64,
    /// `propagations` split by the kind of the constraint that ran,
    /// indexed by `Kind as usize`, with the wipeouts those passes proved
    /// (`wipeouts` also counts pins that empty a domain before any pass).
    /// A traced call records it as the `csp.passes.<kind>` and
    /// `csp.wipeouts.<kind>` counters (see [`record`]).
    pub by_kind: [KindWork; Kind::COUNT],
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
        self.nogood_hits += other.nogood_hits;
        for (mine, theirs) in self.by_kind.iter_mut().zip(&other.by_kind) {
            mine.passes += theirs.passes;
            mine.wipeouts += theirs.wipeouts;
        }
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
}

impl SolveStatus {
    /// Short stable tag, used in traces and error counters.
    pub fn tag(&self) -> &'static str {
        match self {
            SolveStatus::Sat => "sat",
            SolveStatus::RootInfeasible => "root-infeasible",
            SolveStatus::BudgetExhausted => "budget-exhausted",
        }
    }
}

impl std::fmt::Display for SolveStatus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.tag())
    }
}

/// Geometric budget growth per escalation round.
pub const ESCALATION_FACTOR: u32 = 4;

/// Solve-effort policy: the per-sample backtracking budget and the
/// geometric budget-escalation restart schedule. Both count failures,
/// never wall-clock time, so same-seed runs are byte-identical on any
/// machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SolvePolicy {
    /// Initial per-sample backtracking budget (counted in failures).
    pub budget: u32,
    /// Extra rounds allowed after a zero-solution round on a feasible
    /// root; each multiplies the budget by [`ESCALATION_FACTOR`].
    pub max_escalations: u32,
}

impl Default for SolvePolicy {
    fn default() -> Self {
        SolvePolicy {
            budget: 2_000,
            max_escalations: 2,
        }
    }
}

impl SolvePolicy {
    /// A fixed-budget policy with no escalation.
    pub const fn fixed(budget: u32) -> Self {
        SolvePolicy {
            budget,
            max_escalations: 0,
        }
    }

    /// Sets the initial budget, keeping the escalation schedule.
    pub fn with_budget(mut self, budget: u32) -> Self {
        self.budget = budget;
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
    /// call was not `Sat`. For tests and pipeline stages where a
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

/// What a [`SolveSession`] can be built from. The session keeps its
/// problem behind an `Arc`: a shared `&Arc<Csp>` (as a generated space
/// holds it) is shared, a borrowed `&Csp` is copied once.
pub trait SessionCsp {
    /// The problem as the session keeps it.
    fn into_shared(self) -> Arc<Csp>;
}

impl SessionCsp for &Csp {
    fn into_shared(self) -> Arc<Csp> {
        Arc::new(self.clone())
    }
}

impl SessionCsp for &Arc<Csp> {
    fn into_shared(self) -> Arc<Csp> {
        Arc::clone(self)
    }
}

/// One CSP's presolved propagator, branch order and committed root
/// fixpoint, built once and sampled by every call (see the module docs).
#[derive(Debug)]
pub struct SolveSession {
    csp: Arc<Csp>,
    prop: Propagator,
    /// How each variable of the CSP is read (see [`Read`]).
    reads: Vec<Read>,
    brancher: Brancher,
    /// The committed root fixpoint; `None` iff the root is infeasible.
    store: Option<DomainStore>,
    /// The store variables the pins of the call in progress changed.
    pinned: Vec<VarRef>,
    /// A pin on a retired helper boolean, translated to its index.
    translated: Vec<i64>,
}

impl SolveSession {
    /// Builds the session: presolves `csp` (see [`Presolve`]), then builds
    /// the propagator adjacency, the branch order and the root fixpoint,
    /// retiring the constraints already entailed there (a free,
    /// fixpoint-preserving bounds sweep).
    pub fn new(csp: impl SessionCsp) -> Self {
        let csp = csp.into_shared();
        let pre = Presolve::of(&csp);
        let mut prop = Propagator::build(
            &csp,
            csp.constraints().iter().filter(|c| pre.runs(c)),
            |v| match pre.reads[v.0] {
                Read::Store(r) => VarRef(r),
                Read::Helper { .. } => unreachable!("a retired output is in no live constraint"),
            },
            if pre.empty_class { &[] } else { &pre.narrow },
        );
        let Presolve {
            reads, empty_class, ..
        } = pre;
        let store = if empty_class {
            // The EQ chain joining the class would wipe it out.
            None
        } else {
            let mut store = prop.take_store();
            prop.run_all(&mut store).is_ok().then(|| {
                store.commit();
                prop.sweep_entailed(&mut store);
                store
            })
        };
        SolveSession {
            brancher: Brancher::new(&csp, &reads),
            csp,
            prop,
            reads,
            store,
            pinned: Vec::new(),
            translated: Vec::new(),
        }
    }

    /// The session's problem.
    pub fn csp(&self) -> &Csp {
        &self.csp
    }

    /// Whether the root fixpoint is feasible.
    pub fn root_feasible(&self) -> bool {
        self.store.is_some()
    }

    /// Draws up to `n` *distinct* random solutions of the session's CSP
    /// under `policy` (budget and escalation), reporting exact
    /// counters and recording them on `tracer` (span `csp.solve`, counters
    /// `csp.*`). The tracer never touches `rng`, so traced and untraced
    /// calls draw identical samples. An empty solution list always comes
    /// with a non-`Sat` status explaining why.
    pub fn solve<R: Rng>(
        &mut self,
        rng: &mut R,
        n: usize,
        policy: &SolvePolicy,
        tracer: &Tracer,
    ) -> SolveOutcome {
        self.sample(None, rng, n, policy, tracer)
    }

    /// [`SolveSession::solve`] on the CSP further constrained by
    /// per-variable value pins (`var ∈ values`): the stream sampling the
    /// CSP with each pin posted as an `IN` constraint would draw, started
    /// from the cached root fixpoint instead of from scratch. A feasible
    /// call counts one [`SolveStats::incremental_hits`]; an infeasible pin
    /// set — a pin outside its variable's domain included — classifies as
    /// [`SolveStatus::RootInfeasible`] before any draw from `rng`.
    ///
    /// # Panics
    /// Panics, naming the variable, if a pin's `values` are not strictly
    /// ascending (sorted and deduplicated, as `Csp::post_in` leaves them).
    pub fn solve_pinned<R: Rng>(
        &mut self,
        pins: &[(VarRef, Vec<i64>)],
        rng: &mut R,
        n: usize,
        policy: &SolvePolicy,
        tracer: &Tracer,
    ) -> SolveOutcome {
        for (v, values) in pins {
            assert!(
                values.windows(2).all(|w| w[0] < w[1]),
                "solve_pinned: the values pinned on `{}` are not strictly ascending: {values:?}",
                self.csp.var(*v).name
            );
        }
        self.sample(Some(pins), rng, n, policy, tracer)
    }

    /// The one sampling driver: draws up to `n` distinct solutions,
    /// further constrained by `pins` when given.
    ///
    /// Pins and their fixpoint are one backtrack scope on the root store,
    /// undone when the call ends: nothing is copied. The call's counters
    /// start from zero and depend on nothing an earlier call did.
    fn sample<R: Rng>(
        &mut self,
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
                ("vars", self.csp.num_vars().to_string()),
            ]
        });
        // Neither the root fixpoint nor earlier calls' work or wipeouts
        // may show in, or steer, this call.
        self.prop.reset_stats();
        self.prop.begin_call();
        let mut stats = SolveStats::default();
        let mut out = Vec::with_capacity(n);
        let mut root_ok = false;
        if let Some(store) = self.store.as_mut() {
            let scope = store.mark();
            root_ok = pins.is_none_or(|pins| {
                let pinned = restrict_to_pins(
                    &self.reads,
                    store,
                    pins,
                    &mut self.pinned,
                    &mut self.translated,
                );
                let feasible = match pinned {
                    Ok(()) => self.prop.run_from_vars(store, &self.pinned).is_ok(),
                    Err(()) => {
                        // A pin outside the variable's domain wipes it out
                        // before any filtering pass could count it.
                        stats.wipeouts += 1;
                        false
                    }
                };
                if feasible {
                    // Pins typically fix variables, so the newly entailed
                    // constraints are retired for the scope.
                    self.prop.sweep_entailed(store);
                }
                feasible
            });
            stats.incremental_hits = u64::from(root_ok && pins.is_some());
            if root_ok && n > 0 {
                // The reported depth is that of the dives, above the
                // pinned fixpoint's own trail entries.
                store.take_max_trail();
                let pinned_depth = store.trail_depth();
                self.prop.set_dive_root(store);
                let ctx = SampleCtx {
                    csp: &self.csp,
                    prop: &self.prop,
                    reads: &self.reads,
                };
                sample_into(
                    &ctx,
                    &mut self.brancher,
                    store,
                    rng,
                    n,
                    policy,
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
        stats.nogood_hits = self.prop.nogood_hits();
        stats.by_kind = self.prop.work_by_kind();
        stats.solutions = out.len() as u64;
        let status = classify(root_ok, &out, n);
        record(tracer, &stats, status);
        drop(span);
        SolveOutcome {
            status,
            solutions: out,
            stats,
        }
    }
}

/// How the sampler reads one variable of the CSP.
#[derive(Debug, Clone, Copy)]
enum Read {
    /// As store variable `.0`: the representative of the variable's `EQ`
    /// class (the variable itself when it has no twin).
    Store(usize),
    /// As `choices[index]` of a retired helper-boolean `SELECT`: bit
    /// `store value of index` of `ones`, over `n` choices.
    Helper { index: usize, n: u32, ones: u64 },
}

impl Read {
    /// The variable's value once the store has fixed what it reads.
    #[inline]
    fn value(self, store: &DomainStore) -> i64 {
        match self {
            Read::Store(v) => store.min(v),
            Read::Helper { index, ones, .. } => ((ones >> store.min(index)) & 1) as i64,
        }
    }
}

/// The rewriting of a CSP that [`SolveSession::new`] builds its propagator
/// from.
/// It leaves every fixpoint the dive reads, and so every sample, as it
/// was (DESIGN.md §5, "Presolve"):
///
/// * `EQ(a, b)` between two declared intervals, or two equal declared
///   value sets, makes `a` and `b` one store variable (union-find; the
///   smallest member represents the class, and an interval class's
///   domain is the intersection of its members'). An `EQ` between
///   differing representations stays a constraint.
/// * A helper-boolean `SELECT` (see [`retired_helper`]) leaves the
///   propagator, and its output leaves the branch order: the output is
///   read as `choices[index]` ([`Read::Helper`]).
#[derive(Debug)]
struct Presolve {
    reads: Vec<Read>,
    /// `(representative, lo, hi)` of each interval class narrower than its
    /// representative's declared interval.
    narrow: Vec<(VarRef, i64, i64)>,
    /// Whether some interval class is empty.
    empty_class: bool,
}

impl Presolve {
    fn of(csp: &Csp) -> Presolve {
        let nvars = csp.num_vars();
        let decl = |v: VarRef| &csp.var(v).domain;
        let mut rep: Vec<u32> = (0..nvars as u32).collect();
        let find = |rep: &mut [u32], mut v: usize| {
            while rep[v] as usize != v {
                rep[v] = rep[rep[v] as usize];
                v = rep[v] as usize;
            }
            v
        };
        let mut mentions = vec![0u32; nvars];
        for c in csp.constraints() {
            for v in c.vars() {
                mentions[v.0] += 1;
            }
            let Constraint::Eq(a, b) = c else { continue };
            let alike = match (decl(*a), decl(*b)) {
                (Domain::Range { .. }, Domain::Range { .. }) => true,
                (Domain::Values(x), Domain::Values(y)) => x == y,
                _ => false,
            };
            if alike {
                let (ra, rb) = (find(&mut rep, a.0), find(&mut rep, b.0));
                rep[ra.max(rb)] = ra.min(rb) as u32;
            }
        }
        let mut reads: Vec<Read> = (0..nvars).map(|v| Read::Store(find(&mut rep, v))).collect();

        // An interval class's domain: the intersection of its members'.
        let mut bounds: Vec<(i64, i64)> = csp
            .vars()
            .map(|(_, d)| (d.domain.min(), d.domain.max()))
            .collect();
        for (v, d) in csp.vars() {
            let Read::Store(r) = reads[v.0] else { continue };
            if r != v.0 && matches!(d.domain, Domain::Range { .. }) {
                bounds[r] = (
                    bounds[r].0.max(bounds[v.0].0),
                    bounds[r].1.min(bounds[v.0].1),
                );
            }
        }
        let narrow: Vec<(VarRef, i64, i64)> = csp
            .vars()
            .filter(|&(r, d)| bounds[r.0] != (d.domain.min(), d.domain.max()))
            .map(|(r, _)| (r, bounds[r.0].0, bounds[r.0].1))
            .collect();
        let empty_class = narrow.iter().any(|&(_, lo, hi)| lo > hi);

        // The helper booleans.
        for c in csp.constraints() {
            if let Some((out, helper)) = retired_helper(csp, c, &mentions, &reads) {
                reads[out.0] = helper;
            }
        }
        Presolve {
            reads,
            narrow,
            empty_class,
        }
    }

    /// Whether the propagator runs `c` (over store variables, read through
    /// `reads`): every constraint but a retired helper's `SELECT` and an
    /// `EQ` inside one class.
    fn runs(&self, c: &Constraint) -> bool {
        match c {
            Constraint::Select { out, .. } => matches!(self.reads[out.0], Read::Store(_)),
            Constraint::Eq(a, b) => !matches!(
                (self.reads[a.0], self.reads[b.0]),
                (Read::Store(x), Read::Store(y)) if x == y
            ),
            _ => true,
        }
    }
}

/// The output of `c` and how to read it, if `c` is a helper-boolean
/// `SELECT` the presolve retires: its choices are declared 0/1 constants,
/// its output is a non-tunable boolean holding every choice and in no
/// other constraint (`mentions` counts each variable's mentions over all
/// constraints), and its index is declared within the choices and
/// precedes the output in the branch order. Such a `SELECT` can only
/// narrow its own output, which is fixed before the dive reaches it.
fn retired_helper(
    csp: &Csp,
    c: &Constraint,
    mentions: &[u32],
    reads: &[Read],
) -> Option<(VarRef, Read)> {
    let Constraint::Select {
        out,
        index,
        choices,
    } = c
    else {
        return None;
    };
    let decl = |v: VarRef| &csp.var(v).domain;
    let tunable = |v: VarRef| csp.var(v).category == VarCategory::Tunable;
    let n = choices.len() as i64;
    let (o, ix) = (decl(*out), decl(*index));
    let helper = n <= 64
        && !tunable(*out)
        && mentions[out.0] == 1
        && o.min() >= 0
        && o.max() <= 1
        && ix.min() >= 0
        && ix.max() < n
        && (tunable(*index) || index.0 < out.0);
    if !helper {
        return None;
    }
    let mut ones = 0u64;
    for (i, ch) in choices.iter().enumerate() {
        match decl(*ch).fixed_value() {
            Some(b @ (0 | 1)) if o.contains(b) => ones |= (b as u64) << i,
            _ => return None,
        }
    }
    // A retired output is mentioned by its own SELECT only, and the index
    // is mentioned by this one too: it is never retired itself.
    let Read::Store(index) = reads[index.0] else {
        return None;
    };
    let read = Read::Helper {
        index,
        n: n as u32,
        ones,
    };
    Some((*out, read))
}

/// Restricts `store` to `pins`, read through `reads` (a pin on a retired
/// helper boolean becomes a pin on its index), and collects the store
/// variables that changed in `pinned`; `Err` iff a pin empties a domain.
fn restrict_to_pins(
    reads: &[Read],
    store: &mut DomainStore,
    pins: &[(VarRef, Vec<i64>)],
    pinned: &mut Vec<VarRef>,
    translated: &mut Vec<i64>,
) -> Result<(), ()> {
    pinned.clear();
    for (v, values) in pins {
        let (var, changed) = match reads[v.0] {
            Read::Store(var) => (var, store.restrict_to(var, values)?),
            Read::Helper { index, n, ones } => {
                // For a boolean, SELECT's bounds-overlap test is
                // membership, so `out ∈ values` is exactly
                // `index ∈ {i : choices[i] ∈ values}`.
                translated.clear();
                translated.extend(
                    (0..i64::from(n))
                        .filter(|&i| values.binary_search(&(((ones >> i) & 1) as i64)).is_ok()),
                );
                (index, store.restrict_to(index, translated)?)
            }
        };
        if changed {
            pinned.push(VarRef(var));
        }
    }
    Ok(())
}

/// Maps the terminal solver state to a [`SolveStatus`].
fn classify(root_ok: bool, out: &[Solution], n: usize) -> SolveStatus {
    if !root_ok {
        SolveStatus::RootInfeasible
    } else if out.is_empty() && n > 0 {
        SolveStatus::BudgetExhausted
    } else {
        SolveStatus::Sat
    }
}

/// Counter names of [`SolveStats::by_kind`], indexed by `Kind as usize`.
const PASSES_BY_KIND: [&str; Kind::COUNT] = [
    "csp.passes.eq",
    "csp.passes.in",
    "csp.passes.le",
    "csp.passes.prod",
    "csp.passes.sum",
    "csp.passes.select",
];
const WIPEOUTS_BY_KIND: [&str; Kind::COUNT] = [
    "csp.wipeouts.eq",
    "csp.wipeouts.in",
    "csp.wipeouts.le",
    "csp.wipeouts.prod",
    "csp.wipeouts.sum",
    "csp.wipeouts.select",
];

/// Emits the per-call counters. The per-kind split is emitted for the
/// kinds that ran a pass in this call only, so a snapshot carries rows
/// for the kinds a space actually exercises.
fn record(tracer: &Tracer, stats: &SolveStats, status: SolveStatus) {
    tracer.counter_add("csp.attempts", stats.attempts);
    tracer.counter_add("csp.propagations", stats.propagations);
    tracer.counter_add("csp.restarts", stats.restarts);
    tracer.counter_add("csp.wipeouts", stats.wipeouts);
    tracer.counter_add("csp.solutions", stats.solutions);
    tracer.counter_add("csp.escalations", stats.escalations);
    if status == SolveStatus::RootInfeasible {
        tracer.counter_add("csp.root_infeasible", 1);
    }
    if stats.incremental_hits > 0 {
        tracer.counter_add("csp.incremental_hits", stats.incremental_hits);
    }
    if stats.nogood_hits > 0 {
        tracer.counter_add("csp.nogood_hits", stats.nogood_hits);
    }
    for (k, work) in stats.by_kind.iter().enumerate() {
        if work.passes > 0 {
            tracer.counter_add(PASSES_BY_KIND[k], work.passes);
            tracer.counter_add(WIPEOUTS_BY_KIND[k], work.wipeouts);
        }
    }
}

/// What a dive reads besides the store and the [`Brancher`]: the problem
/// (for leaf validation), the shared propagator and how each variable is
/// read.
struct SampleCtx<'a> {
    csp: &'a Csp,
    prop: &'a Propagator,
    reads: &'a [Read],
}

/// The branch-order inputs of one CSP and the buffers its dives reuse,
/// built once per session.
#[derive(Debug)]
struct Brancher {
    /// The store variable of each tunable, in declaration order.
    tunables: Vec<VarRef>,
    /// Branch order of the dive in progress: the tunables' store
    /// variables, reshuffled by every dive, then those of every other
    /// variable a dive may find unfixed, in declaration order. So the
    /// decision at depth `d` is on a tunable iff `d < tunables.len()`.
    order: Vec<VarRef>,
    /// Candidate values of the open branch decisions, stacked by depth.
    candidates: Vec<i64>,
    /// The assignment at the leaf being checked.
    leaf: Vec<i64>,
}

impl Brancher {
    fn new(csp: &Csp, reads: &[Read]) -> Self {
        let store_var = |v: VarRef| match reads[v.0] {
            Read::Store(r) => Some(VarRef(r)),
            Read::Helper { .. } => None,
        };
        let tunables: Vec<VarRef> = csp.tunables().into_iter().filter_map(store_var).collect();
        let mut order = Vec::with_capacity(csp.num_vars());
        order.extend_from_slice(&tunables);
        order.extend(
            csp.vars()
                .filter(|(_, d)| d.category != VarCategory::Tunable)
                .filter_map(|(v, _)| store_var(v)),
        );
        Brancher {
            tunables,
            order,
            candidates: Vec::new(),
            leaf: vec![0; csp.num_vars()],
        }
    }
}

/// The sampling loop of [`SolveSession::solve`]: draws up to `n > 0` distinct
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
        while out.len() < n && attempts > 0 {
            attempts -= 1;
            stats.attempts += 1;
            let mut fails = budget;
            let found = match search_one(ctx, brancher, store, rng, &mut fails) {
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
        // retries the whole round with a geometrically larger budget —
        // the restart policy for knife-edge spaces whose only solutions
        // hide behind deep backtracking.
        if !out.is_empty() || escalation >= policy.max_escalations {
            break;
        }
        escalation += 1;
        stats.escalations += 1;
        budget = budget.max(1).saturating_mul(ESCALATION_FACTOR);
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
) -> Option<Solution> {
    // Branch order: tunables in random order, then everything else in
    // declaration order (those are functionally determined in well-formed
    // Heron spaces, so they rarely need branching).
    let Brancher {
        tunables,
        order,
        candidates,
        leaf,
    } = brancher;
    order[..tunables.len()].copy_from_slice(tunables);
    order[..tunables.len()].shuffle(rng);
    candidates.clear();
    let top = store.mark();
    let mut dive = Dive {
        ctx,
        tunables: tunables.len(),
        order,
        candidates,
        leaf,
        rng,
        fails,
    };
    let sol = dive.descend(store, 0);
    store.undo_to(top);
    sol
}

/// The state of one dive besides the store.
struct Dive<'a, R> {
    ctx: &'a SampleCtx<'a>,
    /// How many decisions of `order` are on tunables.
    tunables: usize,
    order: &'a [VarRef],
    candidates: &'a mut Vec<i64>,
    leaf: &'a mut Vec<i64>,
    rng: &'a mut R,
    fails: &'a mut u32,
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
            for (value, read) in self.leaf.iter_mut().zip(self.ctx.reads) {
                *value = read.value(store);
            }
            let leaf = &*self.leaf;
            if satisfies(self.ctx.csp, &|r| leaf[r.0]) {
                return Some(Solution::new(leaf.clone()));
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
        let try_limit = if d < self.tunables {
            count
        } else {
            count.min(4)
        };
        let mut sol = None;
        for k in base..base + try_limit {
            if *self.fails == 0 {
                break;
            }
            let val = self.candidates[k];
            let m = store.mark();
            if self.ctx.prop.branch(store, var, val).is_ok() {
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

    /// One call on a session built for it.
    fn solve_once(csp: &Csp, rng: &mut HeronRng, n: usize, policy: &SolvePolicy) -> SolveOutcome {
        SolveSession::new(csp).solve(rng, n, policy, &Tracer::disabled())
    }

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
        let sols =
            solve_once(&csp, &mut rng, 32, &SolvePolicy::default()).expect_sat("tiling space");
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
        let sols =
            solve_once(&csp, &mut rng, 24, &SolvePolicy::default()).expect_sat("tiling space");
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
        let outcome = solve_once(&csp, &mut rng, 4, &SolvePolicy::default());
        assert_eq!(outcome.status, SolveStatus::RootInfeasible);
        assert!(outcome.solutions.is_empty());
        assert!(!outcome.is_sat());
        // Escalation never fires on a proven-infeasible root, and the
        // root's own wipeout is session set-up: nothing is reported.
        assert_eq!(outcome.stats.escalations, 0);
        assert_eq!(outcome.stats, SolveStats::default());
    }

    #[test]
    #[should_panic(expected = "root-infeasible")]
    fn expect_sat_panics_with_context_on_failure() {
        let mut csp = Csp::new();
        let a = csp.add_var("a", Domain::values([2, 3]), VarCategory::Tunable);
        csp.post_in(a, [7, 9]);
        let mut rng = HeronRng::from_seed(0);
        solve_once(&csp, &mut rng, 4, &SolvePolicy::default()).expect_sat("unit test");
    }

    #[test]
    fn validate_rejects_wrong_length_and_values() {
        let (csp, _) = tiling_csp();
        assert!(!validate(&csp, &Solution::new(vec![1, 2])));
        let mut rng = HeronRng::from_seed(3);
        let sols =
            solve_once(&csp, &mut rng, 1, &SolvePolicy::default()).expect_sat("tiling space");
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
        let outcome = solve_once(&csp, &mut rng, 1, &SolvePolicy::fixed(100));
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
                nogood_hits: 0,
                by_kind: Default::default(),
            }
        );
    }

    #[test]
    fn solve_stats_exact_counts_with_one_constraint() {
        // `a IN {1}` filters once at the root, which is session set-up,
        // and is then entailed (dormant): no propagation in the call, and
        // the dive finds everything fixed (no trail).
        let mut csp = Csp::new();
        let a = csp.add_var("a", Domain::values([1, 2]), VarCategory::Tunable);
        csp.post_in(a, [1]);
        let mut rng = HeronRng::from_seed(5);
        let outcome = solve_once(&csp, &mut rng, 1, &SolvePolicy::fixed(100));
        assert_eq!(outcome.solutions.len(), 1);
        assert_eq!(outcome.solutions[0].value(a), 1);
        assert_eq!(
            outcome.stats,
            SolveStats {
                attempts: 1,
                propagations: 0,
                restarts: 0,
                wipeouts: 0,
                solutions: 1,
                escalations: 0,
                max_trail_depth: 0,
                incremental_hits: 0,
                nogood_hits: 0,
                by_kind: Default::default(),
            }
        );
    }

    #[test]
    fn solve_stats_count_wipeouts_and_restarts() {
        // Infeasible: the root propagation (session set-up, unreported)
        // wipes out immediately, so the call makes no dives.
        let mut csp = Csp::new();
        let a = csp.add_var("a", Domain::values([2, 3]), VarCategory::Tunable);
        csp.post_in(a, [7, 9]);
        let mut rng = HeronRng::from_seed(0);
        let outcome = solve_once(&csp, &mut rng, 4, &SolvePolicy::fixed(100));
        assert_eq!(outcome.status, SolveStatus::RootInfeasible);
        assert!(outcome.solutions.is_empty());
        assert_eq!(
            outcome.stats,
            SolveStats {
                attempts: 0,
                propagations: 0,
                restarts: 0,
                wipeouts: 0,
                solutions: 0,
                escalations: 0,
                max_trail_depth: 0,
                incremental_hits: 0,
                nogood_hits: 0,
                by_kind: Default::default(),
            }
        );

        // A one-solution space asked for two: every extra dive rediscovers
        // the duplicate and counts as a restart (attempt budget = n * 3).
        let mut csp = Csp::new();
        csp.add_var("b", Domain::values([7]), VarCategory::Tunable);
        let mut rng = HeronRng::from_seed(1);
        let outcome = solve_once(&csp, &mut rng, 2, &SolvePolicy::fixed(100));
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
        let starved = solve_once(&csp, &mut rng, 4, &SolvePolicy::fixed(0));
        assert_eq!(starved.status, SolveStatus::BudgetExhausted);
        assert!(starved.solutions.is_empty());
        assert_eq!(starved.stats.escalations, 0);

        // …and the escalation schedule recovers from a starvation budget
        // by geometric restarts (0 → 4 → 16 → 64 → 256 here).
        let mut rng = HeronRng::from_seed(2);
        let policy = SolvePolicy {
            budget: 0,
            max_escalations: 4,
        };
        let escalated = solve_once(&csp, &mut rng, 4, &policy);
        assert_eq!(escalated.status, SolveStatus::Sat);
        assert!(escalated.stats.escalations >= 1);
        assert!(!escalated.solutions.is_empty());
    }

    #[test]
    fn traced_solve_records_span_and_counters_without_touching_rng() {
        let (csp, _) = tiling_csp();
        let tracer = Tracer::manual();
        let mut rng_a = HeronRng::from_seed(11);
        let mut rng_b = HeronRng::from_seed(11);
        let policy = SolvePolicy::fixed(2_000);
        let traced = SolveSession::new(&csp).solve(&mut rng_a, 8, &policy, &tracer);
        let untraced = solve_once(&csp, &mut rng_b, 8, &policy);
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
        let sols =
            solve_once(&csp, &mut rng, 4, &SolvePolicy::default()).expect_sat("sum near i64::MAX");
        // (2^62, 2^62) has no i64 sum; the other three pairs do.
        assert_eq!(sols.len(), 3);
        for s in &sols {
            assert!(validate(&csp, s));
            assert_eq!(s.value(out), s.value(a) + s.value(b));
        }
    }

    /// A miniature Heron space: a tile split with `tile.*` twins (same
    /// divisor set), a loop-length twin (an interval `EQ` a set), two
    /// interval twins of differing bounds, and a candidate set `v` with
    /// a selector and one helper boolean per value.
    fn heron_like_csp() -> Csp {
        let mut csp = Csp::new();
        let n = csp.add_const("n", 16);
        let p0 = csp.add_var("p0", Domain::divisors_of(16), VarCategory::LoopLength);
        let t0 = csp.add_var("tile.p0", Domain::divisors_of(16), VarCategory::Tunable);
        let p1 = csp.add_var("p1", Domain::divisors_of(16), VarCategory::LoopLength);
        let t1 = csp.add_var("tile.p1", Domain::divisors_of(16), VarCategory::Tunable);
        csp.post_eq(t0, p0);
        csp.post_eq(t1, p1);
        csp.post_prod(n, vec![p0, p1]);
        let len = csp.add_var("len.p0", Domain::range(1, 16), VarCategory::LoopLength);
        csp.post_eq(len, p0);
        let wide = csp.add_var("wide", Domain::range(0, 100), VarCategory::Other);
        let narrow = csp.add_var("narrow", Domain::range(2, 40), VarCategory::Other);
        csp.post_prod(wide, vec![p0, p1]);
        csp.post_eq(narrow, wide);
        let v = csp.add_var("v", Domain::values([1, 2, 4]), VarCategory::Tunable);
        csp.post_in(v, [1, 2, 4]);
        let idx = csp.add_var("idx.v", Domain::range(0, 2), VarCategory::Other);
        let consts: Vec<VarRef> = [1, 2, 4].map(|c| csp.add_const(format!("c{c}"), c)).into();
        csp.post_select(v, idx, consts);
        let (zero, one) = (csp.add_const("zero", 0), csp.add_const("one", 1));
        for (i, c) in [1, 2, 4].into_iter().enumerate() {
            let b = csp.add_var(format!("is.v.{c}"), Domain::boolean(), VarCategory::Other);
            let choices = (0..3).map(|j| if j == i { one } else { zero }).collect();
            csp.post_select(b, idx, choices);
        }
        csp.post_le(v, t1);
        csp
    }

    #[test]
    fn presolve_merges_alike_twins_and_retires_helper_booleans() {
        let csp = heron_like_csp();
        let var = |name: &str| csp.var_by_name(name).expect("declared");
        let pre = Presolve::of(&csp);
        let store_var = |name: &str| match pre.reads[var(name).0] {
            Read::Store(r) => r,
            Read::Helper { .. } => panic!("{name} is retired"),
        };
        // Same-set twins and interval twins share a store variable; the
        // mixed pair does not.
        assert_eq!(store_var("tile.p0"), store_var("p0"));
        assert_eq!(store_var("tile.p1"), store_var("p1"));
        assert_eq!(store_var("narrow"), store_var("wide"));
        assert_ne!(store_var("len.p0"), store_var("p0"));
        // The interval class is the intersection of its members.
        assert_eq!(pre.narrow, [(var("wide"), 2, 40)]);
        assert!(!pre.empty_class);
        for c in [1, 2, 4] {
            assert!(matches!(
                pre.reads[var(&format!("is.v.{c}")).0],
                Read::Helper { n: 3, .. }
            ));
        }
        // Of 12 constraints, three merged EQs and three helper SELECTs go.
        assert_eq!(csp.num_constraints(), 12);
        let live: Vec<&Constraint> = csp.constraints().iter().filter(|c| pre.runs(c)).collect();
        assert_eq!(live.len(), 6);
        assert!(live.contains(&&Constraint::Eq(var("len.p0"), var("p0"))));
        // `LE(v, tile.p1)` runs, and reads `tile.p1` as `p1`.
        assert!(live.contains(&&Constraint::Le(var("v"), var("tile.p1"))));
    }

    #[test]
    fn presolve_keeps_near_miss_helpers() {
        // A helper mentioned twice, a tunable helper, a helper declared
        // before its non-tunable selector and a non-boolean output all
        // stay `SELECT`s.
        let mut csp = Csp::new();
        let early = csp.add_var("early", Domain::boolean(), VarCategory::Other);
        let idx = csp.add_var("idx", Domain::range(0, 1), VarCategory::Other);
        let (zero, one) = (csp.add_const("zero", 0), csp.add_const("one", 1));
        let twice = csp.add_var("twice", Domain::boolean(), VarCategory::Other);
        let tunable = csp.add_var("tunable", Domain::boolean(), VarCategory::Tunable);
        let wide = csp.add_var("wide", Domain::range(0, 3), VarCategory::Other);
        let kept = csp.add_var("kept", Domain::boolean(), VarCategory::Other);
        for b in [early, twice, tunable, wide, kept] {
            csp.post_select(b, idx, vec![zero, one]);
        }
        csp.post_le(twice, one);
        let pre = Presolve::of(&csp);
        let retired: Vec<bool> = [early, twice, tunable, wide, kept]
            .map(|b| matches!(pre.reads[b.0], Read::Helper { .. }))
            .into();
        assert_eq!(retired, [false, false, false, false, true]);
        assert_eq!(csp.constraints().iter().filter(|c| pre.runs(c)).count(), 5);
    }

    #[test]
    fn presolved_samples_read_every_twin_and_helper() {
        let csp = heron_like_csp();
        let var = |name: &str| csp.var_by_name(name).expect("declared");
        let mut rng = HeronRng::from_seed(6);
        let sols =
            solve_once(&csp, &mut rng, 16, &SolvePolicy::default()).expect_sat("heron-like space");
        for s in &sols {
            assert!(validate(&csp, s));
            assert_eq!(s.value(var("tile.p0")), s.value(var("p0")));
            assert_eq!(s.value(var("narrow")), s.value(var("wide")));
            let v = s.value(var("v"));
            for c in [1, 2, 4] {
                assert_eq!(s.value(var(&format!("is.v.{c}"))), i64::from(v == c));
            }
        }
        // A pin on a helper boolean is a pin on its selector.
        let mut session = SolveSession::new(&csp);
        let policy = SolvePolicy::default();
        let pinned = session
            .solve_pinned(
                &[(var("is.v.2"), vec![1])],
                &mut rng,
                8,
                &policy,
                &Tracer::disabled(),
            )
            .expect_sat("v = 2");
        assert!(pinned.iter().all(|s| s.value(var("v")) == 2));
        let none = session.solve_pinned(
            &[(var("is.v.2"), vec![5])],
            &mut rng,
            8,
            &policy,
            &Tracer::disabled(),
        );
        assert_eq!(none.status, SolveStatus::RootInfeasible);
        assert_eq!(none.stats.wipeouts, 1);
    }

    #[test]
    fn empty_interval_class_is_root_infeasible() {
        let mut csp = Csp::new();
        let a = csp.add_var("a", Domain::range(0, 4), VarCategory::Tunable);
        let b = csp.add_var("b", Domain::range(6, 9), VarCategory::Other);
        csp.post_eq(a, b);
        let mut session = SolveSession::new(&csp);
        assert!(!session.root_feasible());
        let mut rng = HeronRng::from_seed(0);
        let policy = SolvePolicy::default();
        let outcome = session.solve(&mut rng, 2, &policy, &Tracer::disabled());
        assert_eq!(outcome.status, SolveStatus::RootInfeasible);
        // The class's wipeout is the root's, and the root is set-up.
        assert_eq!(outcome.stats, SolveStats::default());
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
        let sols =
            solve_once(&csp, &mut rng, 16, &SolvePolicy::default()).expect_sat("select space");
        assert!(!sols.is_empty());
        for s in &sols {
            let expected = [4, 16, 64][s.value(loc) as usize];
            assert_eq!(s.value(len), expected);
        }
    }

    fn three_way_csp() -> (Csp, [VarRef; 3]) {
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
        (csp, [i0, i1, i2])
    }

    #[test]
    fn reused_session_matches_a_fresh_session_per_call() {
        let (csp, _) = three_way_csp();
        let policy = SolvePolicy::fixed(2_000);
        let mut session = SolveSession::new(&csp);
        let mut rng_a = HeronRng::from_seed(17);
        let mut rng_b = HeronRng::from_seed(17);
        for _ in 0..3 {
            let a = session.solve(&mut rng_a, 8, &policy, &Tracer::disabled());
            let b = solve_once(&csp, &mut rng_b, 8, &policy);
            assert_eq!(a.status, b.status);
            assert_eq!(a.solutions, b.solutions, "reused session diverged");
            // Neither call pays for the root fixpoint or an earlier call.
            assert_eq!(a.stats, b.stats);
        }
    }

    #[test]
    fn pinned_solve_matches_materialised_offspring() {
        let (csp, [i0, i1, _]) = three_way_csp();
        let policy = SolvePolicy::fixed(2_000);
        let mut session = SolveSession::new(&csp);
        let pins = vec![(i0, vec![2, 8]), (i1, vec![1, 4])];
        let mut offspring = csp.clone();
        for (v, vals) in &pins {
            offspring.post_in(*v, vals.iter().copied());
        }
        let mut rng_a = HeronRng::from_seed(23);
        let mut rng_b = HeronRng::from_seed(23);
        let a = session.solve_pinned(&pins, &mut rng_a, 6, &policy, &Tracer::disabled());
        let b = solve_once(&offspring, &mut rng_b, 6, &policy);
        assert_eq!(a.status, b.status);
        assert_eq!(
            a.solutions, b.solutions,
            "incremental re-solve diverged from the from-scratch offspring solve"
        );
        assert_eq!(a.stats.incremental_hits, 1);
        assert_eq!(b.stats.incremental_hits, 0);
        // The facts of the sampled stream are the same; only the pins'
        // fixpoint (the offspring's root, unreported) tells them apart.
        let stream = |s: &SolveStats| (s.attempts, s.restarts, s.solutions, s.escalations);
        assert_eq!(stream(&a.stats), stream(&b.stats));
    }

    #[test]
    fn pinned_solve_classifies_infeasible_pins() {
        let (csp, [i0, _, _]) = three_way_csp();
        let mut session = SolveSession::new(&csp);
        // 3 is not a divisor of 64: the pin wipes i0 out.
        let pins = vec![(i0, vec![3])];
        let mut rng = HeronRng::from_seed(1);
        let out = session.solve_pinned(
            &pins,
            &mut rng,
            4,
            &SolvePolicy::fixed(100),
            &Tracer::disabled(),
        );
        assert_eq!(out.status, SolveStatus::RootInfeasible);
        assert!(out.solutions.is_empty());
        assert_eq!(out.stats.incremental_hits, 0);
        // The cached root is untouched: the base space still solves.
        let ok = session.solve(&mut rng, 4, &SolvePolicy::fixed(2_000), &Tracer::disabled());
        assert_eq!(ok.status, SolveStatus::Sat);
    }

    #[test]
    fn pinned_solve_stats_do_not_depend_on_earlier_calls() {
        // Every field of a call's counters — the schedule-dependent
        // propagation count and trail depth included — must be the same
        // on a fresh session and on one that has served failing calls,
        // or a resumed tune would count differently from an
        // uninterrupted one.
        let (csp, [i0, i1, i2]) = three_way_csp();
        let policy = SolvePolicy::fixed(2_000);
        let pins = vec![(i0, vec![1, 2, 4, 8]), (i2, vec![2, 4, 8, 16])];
        let call = |session: &mut SolveSession| {
            let mut rng = HeronRng::from_seed(8);
            session.solve_pinned(&pins, &mut rng, 16, &policy, &Tracer::disabled())
        };
        let fresh = call(&mut SolveSession::new(&csp));
        assert!(fresh.stats.wipeouts > 0, "the call must fail somewhere");

        let mut used = SolveSession::new(&csp);
        let mut rng = HeronRng::from_seed(3);
        // i1 · i2 = 4096 breaks both products: a propagation wipeout.
        let dead = used.solve_pinned(
            &[(i1, vec![64]), (i2, vec![64])],
            &mut rng,
            4,
            &policy,
            &Tracer::disabled(),
        );
        assert_eq!(dead.status, SolveStatus::RootInfeasible);
        assert_eq!(dead.stats.wipeouts, 1);
        let busy = used.solve(&mut rng, 16, &policy, &Tracer::disabled());
        assert!(busy.stats.wipeouts > 0);
        let again = call(&mut used);
        assert_eq!(again.solutions, fresh.solutions);
        assert_eq!(again.stats, fresh.stats);
    }

    /// `x ∈ [0, 10]` pinned to `[50, 2]`: a binary-search pin would call
    /// the space infeasible although `x = 2` is allowed.
    #[test]
    #[should_panic(expected = "values pinned on `x` are not strictly ascending")]
    fn unsorted_pin_on_an_interval_is_rejected() {
        let mut csp = Csp::new();
        let x = csp.add_var("x", Domain::range(0, 10), VarCategory::Tunable);
        let mut session = SolveSession::new(&csp);
        let mut rng = HeronRng::from_seed(1);
        let policy = SolvePolicy::default();
        session.solve_pinned(
            &[(x, vec![50, 2])],
            &mut rng,
            1,
            &policy,
            &Tracer::disabled(),
        );
    }

    /// `y ∈ {2, 4, 8}` pinned to `[8, 2]`: a merge-walk pin would keep
    /// only `y = 8`.
    #[test]
    #[should_panic(expected = "values pinned on `y` are not strictly ascending")]
    fn unsorted_pin_on_a_value_set_is_rejected() {
        let mut csp = Csp::new();
        let y = csp.add_var("y", Domain::values([2, 4, 8]), VarCategory::Tunable);
        let mut session = SolveSession::new(&csp);
        let mut rng = HeronRng::from_seed(1);
        let policy = SolvePolicy::default();
        session.solve_pinned(
            &[(y, vec![8, 2])],
            &mut rng,
            4,
            &policy,
            &Tracer::disabled(),
        );
    }

    #[test]
    fn zero_sample_requests_report_no_sampling_work() {
        // Nothing asked for, nothing attempted: in particular the
        // escalation schedule must not run on the empty result.
        let (csp, [i0, _, _]) = three_way_csp();
        let policy = SolvePolicy::default();
        let tracer = Tracer::manual();
        let mut rng = HeronRng::from_seed(5);
        let mut session = SolveSession::new(&csp);
        let base = session.solve(&mut rng, 0, &policy, &tracer);
        let pinned = session.solve_pinned(&[(i0, vec![2, 8])], &mut rng, 0, &policy, &tracer);
        let fresh = SolveSession::new(&csp).solve(&mut rng, 0, &policy, &tracer);
        for out in [&base, &pinned, &fresh] {
            assert_eq!(out.status, SolveStatus::Sat);
            assert!(out.solutions.is_empty());
            // What is left is fixpoint work: none on the cached root, the
            // pins' for the pinned call.
            let fixpoint_only = SolveStats {
                propagations: out.stats.propagations,
                wipeouts: out.stats.wipeouts,
                incremental_hits: out.stats.incremental_hits,
                by_kind: out.stats.by_kind,
                ..SolveStats::default()
            };
            assert_eq!(out.stats, fixpoint_only);
        }
        assert_eq!(base.stats, SolveStats::default());
        assert_eq!(fresh.stats, SolveStats::default());
        assert_eq!(pinned.stats.incremental_hits, 1);
        assert_eq!(tracer.counter("csp.escalations"), Some(0));
        assert_eq!(tracer.counter("csp.attempts"), Some(0));
    }

    #[test]
    fn root_infeasible_session_classifies_every_solve() {
        let mut csp = Csp::new();
        let a = csp.add_var("a", Domain::values([2, 3]), VarCategory::Tunable);
        csp.post_in(a, [7, 9]);
        let mut session = SolveSession::new(&csp);
        assert!(!session.root_feasible());
        let mut rng = HeronRng::from_seed(0);
        let out = session.solve(&mut rng, 4, &SolvePolicy::fixed(100), &Tracer::disabled());
        assert_eq!(out.status, SolveStatus::RootInfeasible);
        let out = session.solve_pinned(
            &[],
            &mut rng,
            4,
            &SolvePolicy::fixed(100),
            &Tracer::disabled(),
        );
        assert_eq!(out.status, SolveStatus::RootInfeasible);
    }
}

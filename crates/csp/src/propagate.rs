//! Worklist-based domain propagation over a [`DomainStore`].
//!
//! Each constraint contributes a (bounds-consistent, sometimes stronger)
//! filtering rule. Propagation is *sound*: it only removes values that
//! cannot appear in any solution; it is deliberately not complete (complete
//! filtering of PROD is NP-hard), which is the standard CP trade-off.
//!
//! The engine is built once per CSP and owns everything it needs —
//! constraint list, per-variable watch lists (properly deduplicated, so a
//! constraint mentioning a variable in non-adjacent positions is woken
//! once), precompiled `IN` bitmasks, and the initial domain state — so a
//! tuner session can reuse one `Propagator` across thousands of solves
//! instead of rebuilding the adjacency on every offspring.
//!
//! Because every filter is sound and monotone, chaotic iteration reaches
//! the *same* least fixpoint (and the same wipeout verdict) under any
//! fair schedule — so the engine is free to reorder and skip work as
//! long as it never skips a pass that could still prune. After a wipeout
//! the caller undoes the store to its mark, so a schedule that finds the
//! wipeout sooner leaves every later domain, and every RNG draw of the
//! sampler, unchanged. Seven propagation-count optimisations exploit that
//! freedom:
//!
//! * **Entailment dormancy** — a filter pass reports when its constraint
//!   has become *entailed* (can never prune again while domains only
//!   shrink: `IN` after any successful pass, `LE` once `max(a) ≤ min(b)`,
//!   `EQ`/`PROD`/`SUM`/`SELECT` once the touched variables are fixed).
//!   Dormant constraints are skipped at enqueue time; the flags live on
//!   the [`DomainStore`] trail, so entailment discovered inside a dive is
//!   undone on backtrack.
//! * **Local-fixpoint filters (no self-wakes)** — one `IN`/`LE`/`EQ`
//!   pass is naturally idempotent, and a `PROD`/`SUM`/`SELECT` pass runs
//!   its filtering rule *to its own local fixpoint* before returning
//!   (bounds feedback between the output and the factors converges
//!   within the pass). Re-running any filter immediately is therefore a
//!   guaranteed no-op, so constraints never re-enqueue themselves — the
//!   historical engine paid one no-op verification pass per productive
//!   `PROD`/`SUM`/`SELECT` pass.
//! * **Event-based wakeups** — each domain change is classified as
//!   min-raised / max-lowered / interior-only, and a watcher is woken
//!   only when the event can enable new pruning. `PROD`/`SUM` filters
//!   read nothing but bounds, so interior-only removals never wake them;
//!   `LE(a, b)` additionally only consumes `min(a)` and `max(b)`, so it
//!   wakes on exactly that event on exactly that side. `EQ`/`IN`/`SELECT`
//!   read whole value sets and keep wake-on-any-change. A skipped wake
//!   can at most delay a *dormancy marking*, never a pruning, so
//!   fixpoints are unchanged (enforced against the historical engine by
//!   `tests/prop_equiv.rs`).
//! * **Two-tier priority queue** — the worklist drains cheap filters
//!   (`EQ`/`IN`/`LE`) before expensive local-fixpoint filters
//!   (`PROD`/`SUM`/`SELECT`), so each heavy pass runs against the
//!   tightest bounds the cheap tier can derive and converges in fewer
//!   rounds. Scheduling order cannot change the fixpoint (confluence
//!   above), only how many passes it takes to get there.
//! * **Fail-first hot tier** — a heavy constraint that wiped out once is
//!   flagged *hot*, and hot constraints drain after the cheap tier but
//!   before the other heavy ones. In a sampling call the same few
//!   constraints end most failing propagations, so a failing run reaches
//!   its wipeout after fewer passes. The flags are cleared at the start
//!   of every sampling call (`Propagator::begin_call`), so a call's pass
//!   count depends only on its own inputs and a resumed session counts
//!   exactly what an uninterrupted one does.
//! * **Nogood memo** — a branch trial `x = v` of the dive
//!   (`Propagator::branch`) that wipes out is remembered with its cause:
//!   the passes that led to the wipeout, found by one backward sweep over
//!   the run's pass log, and the domains the *source* variables they read
//!   had when the trial began. A later trial of the same literal in the
//!   same call whose sources all lie inside those domains fails at once,
//!   without a pass: monotone filters on smaller domains wipe out again.
//!   It counts the one wipeout the recorded pass proved, and debug builds
//!   re-propagate every such trial to check it. The memo is cleared with
//!   the hot flags, and its storage is bounded.
//! * **Settled `PROD`/`SUM` runs** — the local-fixpoint loop of a
//!   `PROD`/`SUM` pass stops after a run that moved only `out` (when
//!   `out` is not also an operand), because that run already filtered
//!   every operand against the new `out` bounds: the confirming run it
//!   skips is a guaranteed no-op, so the pass and its changes are the
//!   same.
//!
//! One more makes each pass cheaper instead of fewer:
//!
//! * **Exact `PROD`** — a `PROD` whose factors are at least 1, distinct
//!   and not `out`, and whose upper bounds multiply to less than
//!   `i64::MAX` (decided once per constraint, when the engine is built),
//!   computes its bounds with plain multiplications and divides a
//!   factor's bound out only when a multiplication shows the quotient
//!   prunes (`filter_prod_exact`). Every other `PROD` keeps the
//!   saturating prefix/suffix path. Both make the same changes.
//!
//! Passes and wipeouts are counted per constraint [`Kind`]
//! ([`crate::SolveStats::by_kind`]).

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::rc::Rc;

use crate::constraint::Constraint;
use crate::problem::{Csp, VarRef};
use crate::store::{DomainStore, VarTables, View};

/// Returned when propagation proves the current domains unsatisfiable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Infeasible;

impl std::fmt::Display for Infeasible {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("constraint propagation wiped out a domain")
    }
}

impl std::error::Error for Infeasible {}

/// One domain shrink, classified for event-based wakeups: which bounds
/// moved. `min: false, max: false` means only interior values were
/// removed — invisible to pure bounds consumers.
#[derive(Debug, Clone, Copy)]
struct Change {
    var: VarRef,
    min: bool,
    max: bool,
}

impl Change {
    /// A change whose kind is derived by comparing the variable's bounds
    /// against a pre-operation snapshot.
    fn since(store: &DomainStore, var: VarRef, pre_lo: i64, pre_hi: i64) -> Change {
        Change {
            var,
            min: store.min(var.0) != pre_lo,
            max: store.max(var.0) != pre_hi,
        }
    }

    /// A `restrict_min` result: only the lower bound moved.
    fn min_raised(var: VarRef) -> Change {
        Change {
            var,
            min: true,
            max: false,
        }
    }

    /// A `restrict_max` result: only the upper bound moved.
    fn max_lowered(var: VarRef) -> Change {
        Change {
            var,
            min: false,
            max: true,
        }
    }
}

/// A constraint's type as one byte, so the scheduling questions asked of
/// every woken watcher (which tier? does this event wake it?) read a
/// dense array instead of the constraint list. Ordered cheap-first; the
/// discriminant indexes [`crate::SolveStats::by_kind`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    Eq,
    In,
    Le,
    Prod,
    Sum,
    Select,
}

impl Kind {
    /// Number of kinds.
    pub const COUNT: usize = 6;

    pub(crate) fn of(c: &Constraint) -> Kind {
        match c {
            Constraint::Eq(..) => Kind::Eq,
            Constraint::In { .. } => Kind::In,
            Constraint::Le(..) => Kind::Le,
            Constraint::Prod { .. } => Kind::Prod,
            Constraint::Sum { .. } => Kind::Sum,
            Constraint::Select { .. } => Kind::Select,
        }
    }

    /// Cheap constraints (`EQ`/`IN`/`LE`: one bounds comparison or a
    /// single mask AND) drain before expensive ones (`PROD`/`SUM`/
    /// `SELECT`: local-fixpoint loops over many variables), so a heavy
    /// pass always sees the strongest bounds the cheap tier can provide.
    fn is_cheap(self) -> bool {
        self <= Kind::Le
    }
}

/// Filtering passes run, and wipeouts they proved, for one [`Kind`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KindWork {
    /// Single-constraint filtering passes.
    pub passes: u64,
    /// Passes that wiped out a domain.
    pub wipeouts: u64,
}

/// The three-tier worklist of one `run`. Between runs every queue is
/// empty and every `queued` flag is false — `drain` restores that on both
/// its exits. The `hot` flags outlive a run: they are set by wipeouts and
/// cleared only by `Propagator::begin_call`.
#[derive(Debug)]
struct Worklist {
    /// Per-constraint "already in a queue" flags.
    queued: Vec<bool>,
    /// Per-constraint "wiped out since the last `begin_call`" flags, read
    /// for heavy constraints only.
    hot: Vec<bool>,
    cheap: VecDeque<u32>,
    /// Queued heavy constraints whose `hot` flag is set.
    hot_heavy: VecDeque<u32>,
    heavy: VecDeque<u32>,
}

impl Worklist {
    /// Queues constraint `ci` on its tier unless it is already queued or
    /// dormant.
    #[inline]
    fn push(&mut self, ci: u32, kind: Kind, store: &DomainStore) {
        if !self.queued[ci as usize] && !store.is_dormant(ci as usize) {
            self.queued[ci as usize] = true;
            if kind.is_cheap() {
                self.cheap.push_back(ci);
            } else if self.hot[ci as usize] {
                self.hot_heavy.push_back(ci);
            } else {
                self.heavy.push_back(ci);
            }
        }
    }

    /// The next constraint to run: cheap tier first, then the hot heavy
    /// constraints, then the rest.
    #[inline]
    fn pop(&mut self) -> Option<usize> {
        let ci = self
            .cheap
            .pop_front()
            .or_else(|| self.hot_heavy.pop_front())
            .or_else(|| self.heavy.pop_front())? as usize;
        self.queued[ci] = false;
        Some(ci)
    }

    /// Drops everything still queued.
    fn clear(&mut self) {
        let queued = self.cheap.drain(..).chain(self.hot_heavy.drain(..));
        for ci in queued.chain(self.heavy.drain(..)) {
            self.queued[ci as usize] = false;
        }
    }
}

/// The worklist and buffers of one `run`, owned by the engine so that a
/// propagation pass allocates nothing.
#[derive(Debug)]
struct Scratch {
    work: Worklist,
    /// The changes of the pass in progress.
    changed: Vec<Change>,
    /// The passes of the run in progress: each constraint run, with the
    /// end of its changed variables in `log_vars`.
    log: Vec<(u32, u32)>,
    log_vars: Vec<u32>,
    /// Per-variable "a cause of the wipeout being learned" flags, and the
    /// variables they are set for.
    needed: Vec<bool>,
    sources: Vec<u32>,
    /// Each variable's domain size at the root of the call's dives.
    dive_root: Vec<u64>,
    memo: Memo,
    /// `SELECT`'s feasible indices.
    feasible: Vec<i64>,
    /// `PROD`'s suffix products.
    suffix: Vec<[SatProd; 2]>,
    /// Exact `PROD`'s suffix products, sized for the longest factor list.
    exact: Vec<[i64; 2]>,
}

/// Reusable propagation engine for one CSP.
///
/// Owns a copy of the constraints and the precomputed variable →
/// constraint adjacency, so it has no borrow of the originating [`Csp`]
/// and can live inside a long-lived solver session.
#[derive(Debug)]
pub struct Propagator {
    constraints: Vec<Constraint>,
    kinds: Vec<Kind>,
    /// Per-constraint: a `PROD` whose bounds [`filter_prod_exact`] may
    /// compute (see [`exact_prod`]).
    exact: Vec<bool>,
    /// The (sorted, deduplicated) indices of the constraints mentioning
    /// each variable, flattened: variable `v`'s are
    /// `watching[watch_start[v]..watch_start[v + 1]]`.
    watching: Vec<u32>,
    watch_start: Vec<u32>,
    /// The (sorted, deduplicated) variables of each constraint,
    /// flattened the same way: constraint `ci`'s are
    /// `mentions[mention_start[ci]..mention_start[ci + 1]]`.
    mentions: Vec<u32>,
    mention_start: Vec<u32>,
    tables: Rc<VarTables>,
    /// The initial domains (untracked, no dormancy).
    init: DomainStore,
    /// Per-constraint precompiled `IN` mask (constraints that are `IN` on
    /// a bitset variable filter with a single AND).
    in_masks: Vec<Option<u64>>,
    /// Filtering passes and wipeouts executed so far, per [`Kind`]
    /// (observability counters; `Cell` keeps the propagation API `&self`).
    work: [Cell<KindWork>; Kind::COUNT],
    /// Branch trials the nogood memo refuted without a pass.
    nogood_hits: Cell<u64>,
    scratch: RefCell<Scratch>,
}

impl Propagator {
    /// Builds the engine for `csp`.
    pub fn new(csp: &Csp) -> Self {
        Propagator::with_constraints(csp, csp.constraints().to_vec(), &[])
    }

    /// Builds the engine for `constraints` over `csp`'s variables, whose
    /// declared domains are first narrowed to the intervals
    /// `(v, lo, hi)` of `narrow` (each inside `v`'s declared interval and
    /// non-empty). The presolve of [`crate::solver`] passes its rewritten
    /// constraint list and the merged domains of its `EQ` classes.
    pub(crate) fn with_constraints(
        csp: &Csp,
        constraints: Vec<Constraint>,
        narrow: &[(VarRef, i64, i64)],
    ) -> Self {
        let tables = Rc::new(VarTables::for_csp(csp));
        let ncons = constraints.len();
        let mut init = DomainStore::new(tables.clone(), csp, ncons);
        for &(v, lo, hi) in narrow {
            let narrowed = init.restrict_min(v.0, lo).and(init.restrict_max(v.0, hi));
            debug_assert!(narrowed.is_ok(), "narrowing {v} to [{lo}, {hi}] empties it");
        }
        let mut watchers = vec![Vec::new(); csp.num_vars()];
        let mut mentions = Vec::new();
        let mut mention_start = Vec::with_capacity(ncons + 1);
        for (ci, c) in constraints.iter().enumerate() {
            // A constraint may mention the same variable in non-adjacent
            // positions (SELECT with `out` among the choices, PROD with a
            // repeated factor): sort + dedup so each variable watches the
            // constraint exactly once.
            let mut vars = c.vars();
            vars.sort_unstable();
            vars.dedup();
            mention_start.push(mentions.len() as u32);
            for v in vars {
                watchers[v.0].push(ci as u32);
                mentions.push(v.0 as u32);
            }
        }
        mention_start.push(mentions.len() as u32);
        let mut watch_start = Vec::with_capacity(watchers.len() + 1);
        let mut watching = Vec::new();
        for w in &watchers {
            watch_start.push(watching.len() as u32);
            watching.extend_from_slice(w);
        }
        watch_start.push(watching.len() as u32);
        let in_masks = constraints
            .iter()
            .map(|c| match c {
                Constraint::In { var, values } => tables.mask_of(var.0, values),
                _ => None,
            })
            .collect();
        let exact = constraints.iter().map(|c| exact_prod(c, &init)).collect();
        let longest = constraints.iter().map(|c| match c {
            Constraint::Prod { factors, .. } => factors.len(),
            _ => 0,
        });
        let longest = longest.max().unwrap_or(0);
        let memo = Memo::new(&tables, csp.num_vars());
        Propagator {
            kinds: constraints.iter().map(Kind::of).collect(),
            constraints,
            exact,
            watching,
            watch_start,
            mentions,
            mention_start,
            tables,
            init,
            in_masks,
            work: Default::default(),
            nogood_hits: Cell::new(0),
            // A constraint is queued at most once at a time, so the
            // queues never outgrow this capacity.
            scratch: RefCell::new(Scratch {
                work: Worklist {
                    queued: vec![false; ncons],
                    hot: vec![false; ncons],
                    cheap: VecDeque::with_capacity(ncons),
                    hot_heavy: VecDeque::with_capacity(ncons),
                    heavy: VecDeque::with_capacity(ncons),
                },
                changed: Vec::new(),
                log: Vec::new(),
                log_vars: Vec::new(),
                needed: vec![false; csp.num_vars()],
                sources: Vec::new(),
                dive_root: vec![0; csp.num_vars()],
                memo,
                feasible: Vec::new(),
                suffix: Vec::new(),
                exact: vec![[1, 1]; longest + 1],
            }),
        }
    }

    /// A fresh store over the declared domains (untracked, no dormancy).
    pub fn store(&self) -> DomainStore {
        self.init.clone()
    }

    /// Total single-constraint filtering passes executed so far.
    pub fn propagations(&self) -> u64 {
        self.work.iter().map(|w| w.get().passes).sum()
    }

    /// Total domain wipeouts (infeasibility proofs) observed so far.
    pub fn wipeouts(&self) -> u64 {
        self.work.iter().map(|w| w.get().wipeouts).sum()
    }

    /// [`Propagator::propagations`] and [`Propagator::wipeouts`] split by
    /// constraint kind, indexed by `Kind as usize`.
    pub(crate) fn work_by_kind(&self) -> [KindWork; Kind::COUNT] {
        std::array::from_fn(|k| self.work[k].get())
    }

    /// Branch trials refuted by the nogood memo so far.
    pub(crate) fn nogood_hits(&self) -> u64 {
        self.nogood_hits.get()
    }

    /// Resets the observability counters to zero.
    pub fn reset_stats(&self) {
        for w in &self.work {
            w.set(KindWork::default());
        }
        self.nogood_hits.set(0);
    }

    /// Forgets which constraints have wiped out and every learned nogood,
    /// so the schedule — and with it the pass count — of later runs
    /// depends on nothing that happened before this call. [`crate::solver`]
    /// calls it at the start of every sampling call.
    pub(crate) fn begin_call(&self) {
        let mut s = self.scratch.borrow_mut();
        s.work.hot.fill(false);
        s.memo.clear();
    }

    /// Notes `store` as the state every dive of the call starts from, so
    /// that a nogood leaves out the sources a dive has not narrowed. Until
    /// a call sets it, every source is kept.
    pub(crate) fn set_dive_root(&self, store: &DomainStore) {
        let mut s = self.scratch.borrow_mut();
        for (v, size) in s.dive_root.iter_mut().enumerate() {
            *size = store.size(v);
        }
    }

    /// Schedules constraint `ci` as if it had already wiped out (which
    /// moves nothing for a cheap constraint: those always run first).
    /// Wipeouts do this themselves; it is public so that tests can check
    /// that any hot set leaves fixpoints and verdicts unchanged.
    pub fn mark_hot(&self, ci: usize) {
        self.scratch.borrow_mut().work.hot[ci] = true;
    }

    /// The constraints mentioning `v`, ascending.
    #[inline]
    fn watchers(&self, v: VarRef) -> &[u32] {
        &self.watching[self.watch_start[v.0] as usize..self.watch_start[v.0 + 1] as usize]
    }

    /// The variables constraint `ci` mentions, ascending.
    #[inline]
    fn mentioned(&self, ci: usize) -> &[u32] {
        &self.mentions[self.mention_start[ci] as usize..self.mention_start[ci + 1] as usize]
    }

    /// Marks every already-entailed constraint dormant using read-only
    /// bounds checks — no filtering pass runs and no domain changes, so
    /// the propagation counter and the fixpoint are untouched.
    ///
    /// Only meaningful when `store` holds a propagation fixpoint: the
    /// per-type entailment predicates are the ones `filter` reports at
    /// the end of a pass, and they assume the last pass has already
    /// enforced consistency. Called after the root fixpoint (and after
    /// an incremental pin fixpoint), it catches constraints whose
    /// entailment arose *after* their final filtering pass — without the
    /// sweep, every subsequent dive re-runs them for a guaranteed no-op.
    pub fn sweep_entailed(&self, store: &mut DomainStore) {
        for (ci, c) in self.constraints.iter().enumerate() {
            if store.is_dormant(ci) {
                continue;
            }
            let entailed = match c {
                Constraint::Prod { out, factors } => {
                    store.is_fixed(out.0) && factors.iter().all(|f| store.is_fixed(f.0))
                }
                Constraint::Sum { out, terms } => {
                    store.is_fixed(out.0) && terms.iter().all(|t| store.is_fixed(t.0))
                }
                Constraint::Eq(a, b) => a == b || (store.is_fixed(a.0) && store.is_fixed(b.0)),
                Constraint::Le(a, b) => store.max(a.0) <= store.min(b.0),
                // IN goes dormant on its first pass; nothing to sweep.
                Constraint::In { .. } => false,
                Constraint::Select {
                    out,
                    index,
                    choices,
                } => {
                    store.is_fixed(index.0) && store.is_fixed(out.0) && {
                        let i = store.min(index.0);
                        store.is_fixed(choices[i as usize].0)
                    }
                }
            };
            if entailed {
                store.set_dormant(ci);
            }
        }
    }

    /// Runs propagation to fixpoint starting from every constraint.
    pub fn run_all(&self, store: &mut DomainStore) -> Result<(), Infeasible> {
        let mut s = self.scratch.borrow_mut();
        for ci in 0..self.constraints.len() {
            s.work.push(ci as u32, self.kinds[ci], store);
        }
        let run = self.drain(&mut s, store, false);
        verdict(&mut s, run)
    }

    /// Runs propagation to fixpoint starting from the constraints watching
    /// `changed_var`.
    pub fn run_from(&self, store: &mut DomainStore, changed_var: VarRef) -> Result<(), Infeasible> {
        self.run_from_vars(store, &[changed_var])
    }

    /// [`Propagator::run_from`] for a variable just *fixed* by branching,
    /// given its pre-fix bounds: seeds only the watchers whose wake
    /// events actually fired (fixing to the old min leaves `min`
    /// untouched, so min-sensitive `LE` sides stay asleep).
    pub fn run_from_fixed(
        &self,
        store: &mut DomainStore,
        var: VarRef,
        pre_lo: i64,
        pre_hi: i64,
    ) -> Result<(), Infeasible> {
        let mut s = self.scratch.borrow_mut();
        let run = self.drain_fixed(&mut s, store, var, pre_lo, pre_hi, false);
        verdict(&mut s, run)
    }

    /// Seeds the watchers of `var`, just fixed from `[pre_lo, pre_hi]`,
    /// whose wake events fired, and drains.
    fn drain_fixed(
        &self,
        s: &mut Scratch,
        store: &mut DomainStore,
        var: VarRef,
        pre_lo: i64,
        pre_hi: i64,
        log: bool,
    ) -> Result<(), usize> {
        let ch = Change::since(store, var, pre_lo, pre_hi);
        for &wi in self.watchers(var) {
            if self.wakes_on(wi as usize, &ch) {
                s.work.push(wi, self.kinds[wi as usize], store);
            }
        }
        self.drain(s, store, log)
    }

    /// The branch trial `var = val` (`val` a value of `var`'s domain, in a
    /// scope the caller opened for it): fixes `var` and propagates as
    /// [`Propagator::run_from_fixed`] does, behind the call's nogood memo.
    ///
    /// A trial that wipes out teaches the memo why: the passes that led
    /// to the wipeout and the *source* variables whose domains at the
    /// start of the trial they read (see [`Propagator::learn`]). A later
    /// trial of the same literal whose sources all lie inside a recorded
    /// set of domains is refuted before anything is written: every filter
    /// is sound and monotone, so the same passes would wipe out again. It
    /// counts the one wipeout the recorded pass proved, on that pass's
    /// kind, and no pass.
    pub(crate) fn branch(
        &self,
        store: &mut DomainStore,
        var: VarRef,
        val: i64,
    ) -> Result<(), Infeasible> {
        let mut s = self.scratch.borrow_mut();
        let lit = s.memo.literal(&self.tables, var.0, val);
        if let Some(kind) = lit.and_then(|lit| s.memo.refuted(lit, store)) {
            #[cfg(debug_assertions)]
            self.assert_refuted(&mut s, store, var, val);
            let count = &self.work[kind as usize];
            let mut tally = count.get();
            tally.wipeouts += 1;
            count.set(tally);
            self.nogood_hits.set(self.nogood_hits.get() + 1);
            return Err(Infeasible);
        }
        let (pre_lo, pre_hi) = (store.min(var.0), store.max(var.0));
        store.fix(var.0, val).map_err(|()| Infeasible)?;
        let run = self.drain_fixed(&mut s, store, var, pre_lo, pre_hi, lit.is_some());
        if let (Err(failed), Some(lit)) = (run, lit) {
            self.learn(&mut s, store, var, lit, failed);
        }
        verdict(&mut s, run)
    }

    /// Records why the trial of literal `lit` (`var` fixed) wiped out on
    /// constraint `failed`. One sweep down the run's pass log finds the
    /// passes that caused the wipeout: a pass is a cause if it changed a
    /// variable that a later cause reads, and every variable a cause
    /// mentions is read by it. The variables read by causes are the
    /// sources; their domains at the start of the trial (`store`'s
    /// innermost scope) make the nogood. A source recorded as an interval
    /// that has since become an explicit set is not learned from, since
    /// the two representations filter differently (DESIGN.md §5).
    fn learn(&self, s: &mut Scratch, store: &DomainStore, var: VarRef, lit: u32, failed: usize) {
        let Scratch {
            log,
            log_vars,
            needed,
            sources,
            dive_root,
            memo,
            ..
        } = s;
        let mut need = |ci: usize, needed: &mut [bool]| {
            for &u in self.mentioned(ci) {
                if !needed[u as usize] {
                    needed[u as usize] = true;
                    sources.push(u);
                }
            }
        };
        need(failed, needed);
        for (i, &(ci, end)) in log.iter().enumerate().rev() {
            let start = if i == 0 { 0 } else { log[i - 1].1 };
            let changed = &log_vars[start as usize..end as usize];
            if changed.iter().any(|&u| needed[u as usize]) {
                need(ci as usize, needed);
            }
        }
        for &u in sources.iter() {
            needed[u as usize] = false;
        }
        // The branched variable is the literal itself, and a source still
        // as wide as at the dives' root lies inside its record in every
        // state of the call.
        let x = var.0 as u32;
        memo.record(lit, self.kinds[failed], sources, |u| {
            let start = store.view(u as usize, true);
            if matches!(start, View::Range(..))
                && matches!(store.view(u as usize, false), View::Values(_))
            {
                return Err(());
            }
            Ok((u != x && start.len() != dive_root[u as usize]).then_some(start))
        });
        sources.clear();
    }

    /// Debug builds re-propagate every trial the memo refutes, inside its
    /// own scope, and insist that it wipes out. The check leaves every
    /// counter, hot flag and trail depth as it found them.
    #[cfg(debug_assertions)]
    fn assert_refuted(&self, s: &mut Scratch, store: &mut DomainStore, var: VarRef, val: i64) {
        let work = self.work_by_kind();
        let run = store.unobserved(|store| {
            let m = store.mark();
            let (pre_lo, pre_hi) = (store.min(var.0), store.max(var.0));
            store
                .fix(var.0, val)
                .expect("a branch value is in the domain");
            let run = self.drain_fixed(s, store, var, pre_lo, pre_hi, false);
            store.undo_to(m);
            run
        });
        for (count, w) in self.work.iter().zip(work) {
            count.set(w);
        }
        assert!(
            run.is_err(),
            "the nogood memo refuted {var} = {val}, which propagates without a wipeout"
        );
    }

    /// Runs propagation to fixpoint starting from the constraints watching
    /// any of `changed` — the incremental re-solve entry point.
    pub fn run_from_vars(
        &self,
        store: &mut DomainStore,
        changed: &[VarRef],
    ) -> Result<(), Infeasible> {
        let mut s = self.scratch.borrow_mut();
        for v in changed {
            for &wi in self.watchers(*v) {
                s.work.push(wi, self.kinds[wi as usize], store);
            }
        }
        let run = self.drain(&mut s, store, false);
        verdict(&mut s, run)
    }

    /// Drains the worklist to the fixpoint, logging every pass for
    /// [`Propagator::learn`] if `log_passes`; `Err` names the constraint
    /// whose pass wiped out.
    fn drain(
        &self,
        s: &mut Scratch,
        store: &mut DomainStore,
        log_passes: bool,
    ) -> Result<(), usize> {
        let Scratch {
            work,
            changed,
            log,
            log_vars,
            feasible,
            suffix,
            exact,
            ..
        } = s;
        if log_passes {
            log.clear();
            log_vars.clear();
        }
        while let Some(ci) = work.pop() {
            if store.is_dormant(ci) {
                // Went dormant while queued; skipping is not a pass.
                continue;
            }
            changed.clear();
            let count = &self.work[self.kinds[ci] as usize];
            let mut tally = count.get();
            tally.passes += 1;
            count.set(tally);
            let Ok(entailed) = self.filter(ci, store, changed, feasible, suffix, exact) else {
                tally.wipeouts += 1;
                count.set(tally);
                work.clear();
                return Err(ci);
            };
            if entailed {
                store.set_dormant(ci);
            }
            if log_passes {
                log_vars.extend(changed.iter().map(|c| c.var.0 as u32));
                log.push((ci as u32, log_vars.len() as u32));
            }
            // Filters run to their local fixpoint, so an immediate
            // re-run of `ci` is always a no-op: no self-wake.
            for ch in changed.iter() {
                for &wi in self.watchers(ch.var) {
                    let w = wi as usize;
                    if w != ci && self.wakes_on(w, ch) {
                        work.push(wi, self.kinds[w], store);
                    }
                }
            }
        }
        Ok(())
    }

    /// Event filter: whether constraint `wi` can possibly prune after
    /// `ch`. Pure bounds consumers ignore interior-only removals; `LE`
    /// additionally only reads one bound of each side.
    #[inline]
    fn wakes_on(&self, wi: usize, ch: &Change) -> bool {
        match self.kinds[wi] {
            Kind::Eq | Kind::In | Kind::Select => true,
            Kind::Prod | Kind::Sum => ch.min || ch.max,
            Kind::Le => {
                let Constraint::Le(a, b) = &self.constraints[wi] else {
                    unreachable!("kinds mirrors constraints")
                };
                (ch.var == *a && ch.min) || (ch.var == *b && ch.max)
            }
        }
    }

    /// Applies one constraint's filtering rule, recording changed
    /// variables. `Ok(true)` means the constraint is now entailed.
    /// Non-idempotent rules (`PROD`/`SUM`/`SELECT`) iterate to their
    /// local fixpoint, so re-applying any rule immediately is a no-op.
    fn filter(
        &self,
        ci: usize,
        store: &mut DomainStore,
        changed: &mut Vec<Change>,
        feasible: &mut Vec<i64>,
        suffix: &mut Vec<[SatProd; 2]>,
        exact: &mut [[i64; 2]],
    ) -> Result<bool, ()> {
        match &self.constraints[ci] {
            Constraint::Prod { out, factors } => {
                loop {
                    let before = changed.len();
                    if self.exact[ci] {
                        filter_prod_exact(store, *out, factors, changed, exact)?;
                    } else {
                        filter_prod(store, *out, factors, changed, suffix)?;
                    }
                    if settled(&changed[before..], *out, factors) {
                        break;
                    }
                }
                Ok(store.is_fixed(out.0) && factors.iter().all(|f| store.is_fixed(f.0)))
            }
            Constraint::Sum { out, terms } => {
                loop {
                    let before = changed.len();
                    filter_sum(store, *out, terms, changed)?;
                    if settled(&changed[before..], *out, terms) {
                        break;
                    }
                }
                Ok(store.is_fixed(out.0) && terms.iter().all(|t| store.is_fixed(t.0)))
            }
            Constraint::Eq(a, b) => {
                let (alo, ahi) = (store.min(a.0), store.max(a.0));
                if store.intersect_var(a.0, b.0)? {
                    changed.push(Change::since(store, *a, alo, ahi));
                }
                let (blo, bhi) = (store.min(b.0), store.max(b.0));
                if store.intersect_var(b.0, a.0)? {
                    changed.push(Change::since(store, *b, blo, bhi));
                }
                Ok(a == b || (store.is_fixed(a.0) && store.is_fixed(b.0)))
            }
            Constraint::Le(a, b) => {
                let bhi = store.max(b.0);
                if store.restrict_max(a.0, bhi)? {
                    changed.push(Change::max_lowered(*a));
                }
                let alo = store.min(a.0);
                if store.restrict_min(b.0, alo)? {
                    changed.push(Change::min_raised(*b));
                }
                Ok(store.max(a.0) <= store.min(b.0))
            }
            Constraint::In { var, values } => {
                let (lo, hi) = (store.min(var.0), store.max(var.0));
                let ch = match self.in_masks[ci] {
                    Some(mask) => store.and_mask(var.0, mask)?,
                    None => store.restrict_to(var.0, values)?,
                };
                if ch {
                    changed.push(Change::since(store, *var, lo, hi));
                }
                // Domains only shrink, so once inside the IN set, always
                // inside: entailed after any successful pass.
                Ok(true)
            }
            Constraint::Select {
                out,
                index,
                choices,
            } => {
                loop {
                    let before = changed.len();
                    filter_select(store, *out, *index, choices, changed, feasible)?;
                    if changed.len() == before {
                        break;
                    }
                }
                Ok(store.is_fixed(index.0) && store.is_fixed(out.0) && {
                    let i = store.min(index.0);
                    store.is_fixed(choices[i as usize].0)
                })
            }
        }
    }
}

/// A run's result as the public entry points report it. A constraint
/// that wiped out is flagged hot: it is the likeliest to fail the next
/// propagation of the same call.
fn verdict(s: &mut Scratch, run: Result<(), usize>) -> Result<(), Infeasible> {
    run.map_err(|failed| {
        s.work.hot[failed] = true;
        Infeasible
    })
}

/// Nogoods kept per literal.
const WAYS: usize = 8;
/// Sources kept over all nogoods, and values over all their explicit
/// sets: at these the memo starts over, so its storage is bounded
/// whatever the length of a call.
const MAX_SOURCES: usize = 1 << 11;
const MAX_VALUES: usize = 1 << 11;
/// The largest explicit set a nogood records.
const MAX_SET: usize = 256;
/// The flag of [`Memo::src_vars`] that marks an explicit set.
const SET: u32 = 1 << 31;

/// One nogood: the trial of its literal wipes out, on a constraint of
/// kind `kind`, whenever every source lies inside its recorded domain.
#[derive(Debug, Clone, Copy)]
struct Nogood {
    kind: Kind,
    /// Its span of the memo's sources.
    start: u32,
    end: u32,
}

/// The nogoods of one literal: `len` of them, then the oldest replaced.
#[derive(Debug, Clone, Copy)]
struct Block {
    len: usize,
    ways: [Nogood; WAYS],
}

/// The nogoods of the sampling call in progress, for the literals
/// `x = v` of the variables with a value table: literal
/// `base[x] + (index of v in x's table)`. A literal takes a block when it
/// first fails.
#[derive(Debug)]
struct Memo {
    /// Each variable's first literal; `u32::MAX` without a value table.
    base: Vec<u32>,
    /// Each literal's block; `u32::MAX` for none.
    owner: Vec<u32>,
    blocks: Vec<Block>,
    /// The sources of the live nogoods. A source is its variable, with
    /// [`SET`] for an explicit set, and its recorded domain: a bitset
    /// word (in `[0]`), an interval's bounds, or a span of `values`.
    src_vars: Vec<u32>,
    src_doms: Vec<[i64; 2]>,
    values: Vec<i64>,
}

impl Memo {
    fn new(tables: &VarTables, nvars: usize) -> Memo {
        let mut literals = 0;
        let base = (0..nvars)
            .map(|v| match tables.table(v).len() {
                0 => u32::MAX,
                n => {
                    literals += n;
                    (literals - n) as u32
                }
            })
            .collect();
        Memo {
            base,
            owner: vec![u32::MAX; literals],
            blocks: Vec::new(),
            src_vars: Vec::new(),
            src_doms: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Empties the memo.
    fn clear(&mut self) {
        self.owner.fill(u32::MAX);
        self.blocks.clear();
        self.src_vars.clear();
        self.src_doms.clear();
        self.values.clear();
    }

    /// The literal `x = val`, if `x` has a value table holding `val`.
    #[inline]
    fn literal(&self, tables: &VarTables, x: usize, val: i64) -> Option<u32> {
        let base = self.base[x];
        if base == u32::MAX {
            return None;
        }
        let i = tables.table(x).binary_search(&val).ok()?;
        Some(base + i as u32)
    }

    /// The kind of a nogood of `lit` that `store`'s domains lie inside.
    #[inline]
    fn refuted(&self, lit: u32, store: &DomainStore) -> Option<Kind> {
        let Block { len, ways } = self.blocks.get(self.owner[lit as usize] as usize)?;
        ways[..*len]
            .iter()
            .find(|n| {
                let span = n.start as usize..n.end as usize;
                self.src_vars[span.clone()]
                    .iter()
                    .zip(&self.src_doms[span])
                    .all(|(&u, &dom)| self.covers(u, dom, store.view((u & !SET) as usize, false)))
            })
            .map(|n| n.kind)
    }

    /// Whether `now` lies inside the domain `dom` recorded for source
    /// `u`. An interval's bounds bound any domain, but an explicit set
    /// covers only an explicit set: `PROD`'s divisor rule skips an
    /// interval, so an interval inside a set it filtered need not wipe
    /// out.
    #[inline]
    fn covers(&self, u: u32, dom: [i64; 2], now: View<'_>) -> bool {
        match now {
            View::Bits(w) => w & !(dom[0] as u64) == 0,
            View::Range(lo, hi) => u & SET == 0 && dom[0] <= lo && hi <= dom[1],
            View::Values(x) if u & SET == 0 => dom[0] <= x[0] && x[x.len() - 1] <= dom[1],
            View::Values(x) => {
                let mut set = self.values[dom[0] as usize..dom[1] as usize].iter();
                x.iter().all(|v| set.any(|s| s == v))
            }
        }
    }

    /// Learns that `lit` wipes out on a `kind` constraint while every
    /// source lies inside its domain: `at(u)` is that domain, or `None`
    /// to leave `u` out, or `Err` to learn nothing.
    fn record<'a>(
        &mut self,
        lit: u32,
        kind: Kind,
        sources: &[u32],
        mut at: impl FnMut(u32) -> Result<Option<View<'a>>, ()>,
    ) {
        if sources.len() > MAX_SOURCES {
            return;
        }
        if self.src_vars.len() + sources.len() > MAX_SOURCES
            || self.values.len() + MAX_SET > MAX_VALUES
        {
            self.clear();
        }
        let start = self.src_vars.len();
        for &u in sources {
            let (flag, dom) = match at(u) {
                Ok(None) => continue,
                Ok(Some(View::Bits(w))) => (0, [w as i64, 0]),
                Ok(Some(View::Range(lo, hi))) => (0, [lo, hi]),
                Ok(Some(View::Values(x))) if x.len() <= MAX_SET => {
                    let from = self.values.len() as i64;
                    self.values.extend_from_slice(x);
                    (SET, [from, self.values.len() as i64])
                }
                Ok(Some(View::Values(_))) | Err(()) => {
                    self.src_vars.truncate(start);
                    self.src_doms.truncate(start);
                    return;
                }
            };
            self.src_vars.push(u | flag);
            self.src_doms.push(dom);
        }
        let nogood = Nogood {
            kind,
            start: start as u32,
            end: self.src_vars.len() as u32,
        };
        let owner = &mut self.owner[lit as usize];
        if *owner == u32::MAX {
            *owner = self.blocks.len() as u32;
            self.blocks.push(Block {
                len: 0,
                ways: [nogood; WAYS],
            });
        }
        let Block { len, ways } = &mut self.blocks[*owner as usize];
        let way = if *len < WAYS {
            *len += 1;
            *len - 1
        } else {
            (0..WAYS).min_by_key(|&i| ways[i].start).expect("WAYS > 0")
        };
        ways[way] = nogood;
    }
}

/// Whether a `PROD`/`SUM` run that made the changes `run` left its
/// constraint at its local fixpoint: nothing moved, or only `out` did and
/// `out` is not also an operand. A run narrows `out` first and then filters
/// every operand against the narrowed `out`, so in the second case the
/// operands were already filtered against the bounds a confirming run
/// would read, and that run is a guaranteed no-op.
fn settled(run: &[Change], out: VarRef, operands: &[VarRef]) -> bool {
    run.is_empty() || (run.iter().all(|c| c.var == out) && !operands.contains(&out))
}

/// The bound of a product of non-negative values as the historical
/// left-to-right saturating fold computed it — `i64::MAX` as soon as a
/// running product reaches it, even when a later factor is 0 — in a form
/// that composes: `a.then(b)` is the fold over `a`'s values followed by
/// `b`'s, so "the product of the others" is a prefix joined to a suffix.
#[derive(Debug, Clone, Copy)]
struct SatProd {
    /// Saturating product of the values before the first 0.
    head: i64,
    /// Whether a 0 follows.
    zero: bool,
}

impl SatProd {
    const ONE: SatProd = SatProd {
        head: 1,
        zero: false,
    };

    fn of(v: i64) -> SatProd {
        SatProd {
            head: if v == 0 { 1 } else { v },
            zero: v == 0,
        }
    }

    fn then(self, rhs: SatProd) -> SatProd {
        if self.zero {
            self
        } else {
            SatProd {
                head: self.head.saturating_mul(rhs.head),
                zero: rhs.zero,
            }
        }
    }

    fn value(self) -> i64 {
        if self.head == i64::MAX || !self.zero {
            self.head
        } else {
            0
        }
    }
}

/// Fills `suffix` so that `suffix[i]` bounds the product of
/// `factors[i..]` (`[lower, upper]`; `suffix[factors.len()]` is the empty
/// product) and returns the bounds of the product of `factors[..upto]`.
fn bound_products(
    store: &DomainStore,
    factors: &[VarRef],
    upto: usize,
    suffix: &mut Vec<[SatProd; 2]>,
) -> [SatProd; 2] {
    let bounds = |f: &VarRef| [SatProd::of(store.min(f.0)), SatProd::of(store.max(f.0))];
    suffix.clear();
    suffix.resize(factors.len() + 1, [SatProd::ONE; 2]);
    for (i, f) in factors.iter().enumerate().rev() {
        let [lo, hi] = bounds(f);
        suffix[i] = [lo.then(suffix[i + 1][0]), hi.then(suffix[i + 1][1])];
    }
    factors[..upto].iter().fold([SatProd::ONE; 2], |acc, f| {
        let [lo, hi] = bounds(f);
        [acc[0].then(lo), acc[1].then(hi)]
    })
}

fn filter_prod(
    store: &mut DomainStore,
    out: VarRef,
    factors: &[VarRef],
    changed: &mut Vec<Change>,
    suffix: &mut Vec<[SatProd; 2]>,
) -> Result<(), ()> {
    // Bounds for the product.
    let mut prefix = bound_products(store, factors, 0, suffix);
    let lo = suffix[0][0].value();
    let hi = suffix[0][1].value();
    // Every bound below is read as it stands when it is used, so the
    // prefix/suffix products are recomputed after any change (`out` or a
    // repeated factor may be among the factors still to come) — which is
    // rare: a pass mostly confirms bounds.
    let mut seen = changed.len();
    if store.restrict_min(out.0, lo)? {
        changed.push(Change::min_raised(out));
    }
    if hi < i64::MAX && store.restrict_max(out.0, hi)? {
        changed.push(Change::max_lowered(out));
    }
    let out_lo = store.min(out.0);
    let out_hi = store.max(out.0);
    let out_fixed = store.fixed_value(out.0);

    for (i, f) in factors.iter().enumerate() {
        if changed.len() != seen {
            prefix = bound_products(store, factors, i, suffix);
            seen = changed.len();
        }
        let others_lo = prefix[0].then(suffix[i + 1][0]).value();
        let others_hi = prefix[1].then(suffix[i + 1][1]).value();
        if others_hi > 0 && others_hi < i64::MAX {
            let min_f = out_lo.div_euclid(others_hi) + i64::from(out_lo.rem_euclid(others_hi) != 0);
            if store.restrict_min(f.0, min_f)? {
                changed.push(Change::min_raised(*f));
            }
        }
        if others_lo > 0 {
            let max_f = out_hi / others_lo;
            if store.restrict_max(f.0, max_f)? {
                changed.push(Change::max_lowered(*f));
            }
        }
        // Divisibility: with a fixed positive product, every factor divides it.
        if let Some(p) = out_fixed {
            let (flo, fhi) = (store.min(f.0), store.max(f.0));
            if p > 0 && store.retain_divisors(f.0, p)? {
                changed.push(Change::since(store, *f, flo, fhi));
            }
        }
        prefix = [
            prefix[0].then(SatProd::of(store.min(f.0))),
            prefix[1].then(SatProd::of(store.max(f.0))),
        ];
    }
    Ok(())
}

/// Whether `c` is a `PROD` that [`filter_prod_exact`] may filter over
/// domains no wider than `init`'s: `out` non-negative, every factor at
/// least 1, the factors
/// distinct, `out` not among them, and the product of the factors' upper
/// bounds below `i64::MAX`. Then no product of bounds saturates or hits
/// a 0, and a change to one factor moves no other operand's bounds.
fn exact_prod(c: &Constraint, init: &DomainStore) -> bool {
    let Constraint::Prod { out, factors } = c else {
        return false;
    };
    let distinct = factors
        .iter()
        .enumerate()
        .all(|(i, f)| f != out && !factors[..i].contains(f));
    let positive = init.min(out.0) >= 0 && factors.iter().all(|f| init.min(f.0) >= 1);
    let bounded = factors
        .iter()
        .try_fold(1i64, |p, f| p.checked_mul(init.max(f.0)))
        .is_some_and(|p| p < i64::MAX);
    distinct && positive && bounded
}

/// [`filter_prod`] for a constraint that [`exact_prod`] admits, with the
/// same changes in the same order. Every product of bounds is exact, so
/// the suffix products are multiplied once per run and never recomputed,
/// and a factor's bound is only divided out when a multiplication shows
/// that the quotient prunes: `⌈out_lo / others_hi⌉ > min(f)` exactly when
/// `out_lo > min(f) · others_hi` (and then `out_lo ≥ 1`, so the ceiling
/// is `(out_lo − 1) / others_hi + 1`), and `⌊out_hi / others_lo⌋ < max(f)`
/// exactly when `out_hi < max(f) · others_lo`. All operands are
/// non-negative and no product exceeds the product of the upper bounds.
/// `suffix` needs room for `factors.len() + 1` entries.
fn filter_prod_exact(
    store: &mut DomainStore,
    out: VarRef,
    factors: &[VarRef],
    changed: &mut Vec<Change>,
    suffix: &mut [[i64; 2]],
) -> Result<(), ()> {
    let n = factors.len();
    suffix[n] = [1, 1];
    for i in (0..n).rev() {
        let f = factors[i].0;
        suffix[i] = [
            store.min(f) * suffix[i + 1][0],
            store.max(f) * suffix[i + 1][1],
        ];
    }
    if store.restrict_min(out.0, suffix[0][0])? {
        changed.push(Change::min_raised(out));
    }
    if store.restrict_max(out.0, suffix[0][1])? {
        changed.push(Change::max_lowered(out));
    }
    let out_lo = store.min(out.0);
    let out_hi = store.max(out.0);
    let out_fixed = store.fixed_value(out.0);
    let mut prefix = [1i64, 1];
    for (i, f) in factors.iter().enumerate() {
        let others_lo = prefix[0] * suffix[i + 1][0];
        let others_hi = prefix[1] * suffix[i + 1][1];
        if out_lo > store.min(f.0) * others_hi
            && store.restrict_min(f.0, (out_lo - 1) / others_hi + 1)?
        {
            changed.push(Change::min_raised(*f));
        }
        if out_hi < store.max(f.0) * others_lo && store.restrict_max(f.0, out_hi / others_lo)? {
            changed.push(Change::max_lowered(*f));
        }
        if let Some(p) = out_fixed {
            let (flo, fhi) = (store.min(f.0), store.max(f.0));
            if p > 0 && store.retain_divisors(f.0, p)? {
                changed.push(Change::since(store, *f, flo, fhi));
            }
        }
        prefix = [prefix[0] * store.min(f.0), prefix[1] * store.max(f.0)];
    }
    Ok(())
}

fn filter_sum(
    store: &mut DomainStore,
    out: VarRef,
    terms: &[VarRef],
    changed: &mut Vec<Change>,
) -> Result<(), ()> {
    // Bounds are summed in `i128`, exact for any `i64` operands; a bound
    // beyond `i64` is clamped to it on the way into a domain, which only
    // weakens the pruning.
    let sums = |store: &DomainStore| {
        let lo: i128 = terms.iter().map(|t| i128::from(store.min(t.0))).sum();
        let hi: i128 = terms.iter().map(|t| i128::from(store.max(t.0))).sum();
        (lo, hi)
    };
    let clamp = |x: i128| x.clamp(i64::MIN.into(), i64::MAX.into()) as i64;
    let (mut lo, mut hi) = sums(store);
    // As in `filter_prod`: the sums are taken again after any change, so
    // "the sum of the others" is always over the bounds as they stand.
    let mut seen = changed.len();
    if store.restrict_min(out.0, clamp(lo))? {
        changed.push(Change::min_raised(out));
    }
    if store.restrict_max(out.0, clamp(hi))? {
        changed.push(Change::max_lowered(out));
    }
    let out_lo = i128::from(store.min(out.0));
    let out_hi = i128::from(store.max(out.0));
    for t in terms {
        if changed.len() != seen {
            (lo, hi) = sums(store);
            seen = changed.len();
        }
        let others_lo = lo - i128::from(store.min(t.0));
        let others_hi = hi - i128::from(store.max(t.0));
        if store.restrict_min(t.0, clamp(out_lo - others_hi))? {
            changed.push(Change::min_raised(*t));
        }
        if store.restrict_max(t.0, clamp(out_hi - others_lo))? {
            changed.push(Change::max_lowered(*t));
        }
    }
    Ok(())
}

fn filter_select(
    store: &mut DomainStore,
    out: VarRef,
    index: VarRef,
    choices: &[VarRef],
    changed: &mut Vec<Change>,
    feasible: &mut Vec<i64>,
) -> Result<(), ()> {
    let n = choices.len() as i64;
    if store.restrict_min(index.0, 0)? {
        changed.push(Change::min_raised(index));
    }
    if store.restrict_max(index.0, n - 1)? {
        changed.push(Change::max_lowered(index));
    }
    // Prune indices whose choice cannot overlap the output (bounds check).
    let out_lo = store.min(out.0);
    let out_hi = store.max(out.0);
    feasible.clear();
    feasible.extend(store.values(index.0));
    let size = feasible.len();
    feasible.retain(|&i| {
        let c = choices[i as usize].0;
        store.max(c) >= out_lo && store.min(c) <= out_hi
    });
    if feasible.is_empty() {
        return Err(());
    }
    if feasible.len() != size {
        let (ilo, ihi) = (store.min(index.0), store.max(index.0));
        store.restrict_to(index.0, feasible)?;
        changed.push(Change::since(store, index, ilo, ihi));
    }
    // Output bounds from remaining choices.
    let lo = feasible
        .iter()
        .map(|&i| store.min(choices[i as usize].0))
        .min()
        .expect("nonempty");
    let hi = feasible
        .iter()
        .map(|&i| store.max(choices[i as usize].0))
        .max()
        .expect("nonempty");
    if store.restrict_min(out.0, lo)? {
        changed.push(Change::min_raised(out));
    }
    if store.restrict_max(out.0, hi)? {
        changed.push(Change::max_lowered(out));
    }
    // Fixed index degenerates to EQ.
    if let Some(i) = store.fixed_value(index.0) {
        let ch = choices[i as usize];
        let (olo, ohi) = (store.min(out.0), store.max(out.0));
        if store.intersect_var(out.0, ch.0)? {
            changed.push(Change::since(store, out, olo, ohi));
        }
        let (clo, chi) = (store.min(ch.0), store.max(ch.0));
        if store.intersect_var(ch.0, out.0)? {
            changed.push(Change::since(store, ch, clo, chi));
        }
    }
    Ok(())
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::Domain;
    use crate::problem::VarCategory;

    fn vals(s: &DomainStore, v: VarRef) -> Vec<i64> {
        s.values(v.0).collect()
    }

    #[test]
    fn prod_fixes_last_factor() {
        let mut csp = Csp::new();
        let n = csp.add_const("n", 24);
        let a = csp.add_var("a", Domain::values([2]), VarCategory::Tunable);
        let b = csp.add_var(
            "b",
            Domain::values([1, 2, 3, 4, 6, 12, 24]),
            VarCategory::Tunable,
        );
        csp.post_prod(n, vec![a, b]);
        let p = Propagator::new(&csp);
        let mut s = p.store();
        p.run_all(&mut s).expect("feasible");
        assert_eq!(s.fixed_value(b.0), Some(12));
    }

    #[test]
    fn prod_divisibility_filter() {
        let mut csp = Csp::new();
        let n = csp.add_const("n", 12);
        let a = csp.add_var(
            "a",
            Domain::values([1, 2, 3, 4, 5, 6, 7, 8, 12]),
            VarCategory::Tunable,
        );
        let b = csp.add_var("b", Domain::range(1, 12), VarCategory::Other);
        csp.post_prod(n, vec![a, b]);
        let p = Propagator::new(&csp);
        let mut s = p.store();
        p.run_all(&mut s).expect("feasible");
        // 5, 7, 8 do not divide 12
        assert_eq!(vals(&s, a), vec![1, 2, 3, 4, 6, 12]);
    }

    #[test]
    fn sum_bounds() {
        let mut csp = Csp::new();
        let total = csp.add_var("t", Domain::range(0, 100), VarCategory::Other);
        let a = csp.add_var("a", Domain::range(10, 60), VarCategory::Other);
        let b = csp.add_var("b", Domain::range(20, 70), VarCategory::Other);
        csp.post_sum(total, vec![a, b]);
        let limit = csp.add_const("lim", 50);
        csp.post_le(total, limit);
        let p = Propagator::new(&csp);
        let mut s = p.store();
        p.run_all(&mut s).expect("feasible");
        // a + b <= 50 with b >= 20 forces a <= 30
        assert!(s.max(a.0) <= 30);
        assert!(s.max(b.0) <= 40);
        assert!(s.min(total.0) >= 30);
    }

    #[test]
    fn self_referencing_sum_and_prod_run_to_their_fixpoint() {
        // `x = x + y` with y = 1 has no solution, but a run moves only
        // `x` each time: stopping after such a run is right only when
        // `out` is not also an operand.
        let mut csp = Csp::new();
        let x = csp.add_var("x", Domain::range(0, 5), VarCategory::Other);
        let y = csp.add_var("y", Domain::values([1]), VarCategory::Other);
        csp.post_sum(x, vec![x, y]);
        let p = Propagator::new(&csp);
        assert_eq!(p.run_all(&mut p.store()), Err(Infeasible));

        // `x = x · y` with y = 2 leaves only x = 0.
        let mut csp = Csp::new();
        let x = csp.add_var("x", Domain::range(0, 40), VarCategory::Other);
        let y = csp.add_var("y", Domain::values([2]), VarCategory::Other);
        csp.post_prod(x, vec![x, y]);
        let p = Propagator::new(&csp);
        let mut s = p.store();
        p.run_all(&mut s).expect("x = 0 is a solution");
        assert_eq!(s.fixed_value(x.0), Some(0));
    }

    #[test]
    fn exact_prod_admits_only_products_that_cannot_saturate() {
        let mut csp = Csp::new();
        let n = csp.add_const("n", 64);
        let x = csp.add_var("x", Domain::divisors_of(64), VarCategory::Tunable);
        let y = csp.add_var("y", Domain::range(1, 64), VarCategory::Other);
        let z = csp.add_var("z", Domain::values([0, 1, 2]), VarCategory::Tunable);
        let big = csp.add_var("big", Domain::values([1, 1 << 32]), VarCategory::Tunable);
        let out = csp.add_var("out", Domain::range(0, i64::MAX), VarCategory::Other);
        csp.post_prod(n, vec![x, y]); // exact
        csp.post_prod(out, vec![x, z]); // a factor may be 0
        csp.post_prod(out, vec![x, y, x]); // a repeated factor
        csp.post_prod(y, vec![y, x]); // `out` among the factors
        csp.post_prod(out, vec![big, big, y]); // the bounds' product saturates
        csp.post_prod(out, vec![big, x, y]); // 2^32 · 64 · 64 is exact
        let p = Propagator::new(&csp);
        assert_eq!(p.exact, [true, false, false, false, false, true]);
    }

    #[test]
    fn exact_prod_makes_the_saturating_filters_changes() {
        // Random bounds on `out = f0 · f1 · f2` (explicit sets, so the
        // divisor rule runs too): both filters leave the same domains
        // and report the same changes in the same order.
        let mut rng = heron_rng::HeronRng::from_seed(7);
        for case in 0..2_000 {
            let mut csp = Csp::new();
            let mut draw = |lo: i64, hi: i64| heron_rng::Rng::random_range(&mut rng, lo..=hi);
            let factors: Vec<VarRef> = (0..3)
                .map(|i| {
                    let values: Vec<i64> = (0..draw(1, 5)).map(|_| draw(1, 12)).collect();
                    csp.add_var(
                        format!("f{i}"),
                        Domain::values(values),
                        VarCategory::Tunable,
                    )
                })
                .collect();
            let lo = draw(0, 200);
            let out = if draw(0, 2) == 0 {
                csp.add_const("out", lo)
            } else {
                csp.add_var(
                    "out",
                    Domain::range(lo, lo + draw(0, 400)),
                    VarCategory::Other,
                )
            };
            csp.post_prod(out, factors.clone());
            let p = Propagator::new(&csp);
            assert!(p.exact[0]);
            let (mut a, mut b) = (p.store(), p.store());
            let (mut ca, mut cb) = (Vec::new(), Vec::new());
            let ra = filter_prod(&mut a, out, &factors, &mut ca, &mut Vec::new());
            let rb = filter_prod_exact(&mut b, out, &factors, &mut cb, &mut [[0; 2]; 4]);
            assert_eq!(ra, rb, "case {case}: verdict");
            if ra.is_ok() {
                let key = |c: &Change| (c.var, c.min, c.max);
                assert_eq!(
                    ca.iter().map(key).collect::<Vec<_>>(),
                    cb.iter().map(key).collect::<Vec<_>>(),
                    "case {case}: changes"
                );
                for v in 0..csp.num_vars() {
                    assert_eq!(
                        vals(&a, VarRef(v)),
                        vals(&b, VarRef(v)),
                        "case {case}: x{v}"
                    );
                }
            }
        }
    }

    #[test]
    fn a_refuted_trial_counts_one_wipeout_and_no_pass() {
        // x · y = 16 and x ≤ y: the root keeps x = 8, but its trial
        // forces y = 2 and wipes out.
        let mut csp = Csp::new();
        let n = csp.add_const("n", 16);
        let x = csp.add_var("x", Domain::values([1, 2, 4, 8]), VarCategory::Tunable);
        let y = csp.add_var("y", Domain::values([1, 2, 4, 8]), VarCategory::Tunable);
        csp.post_prod(n, vec![x, y]);
        csp.post_le(x, y);
        let p = Propagator::new(&csp);
        let mut s = p.store();
        p.run_all(&mut s).expect("feasible");
        s.commit();
        p.reset_stats();
        p.begin_call();
        let trial = |s: &mut DomainStore| {
            let m = s.mark();
            let verdict = p.branch(s, x, 8);
            s.undo_to(m);
            verdict
        };
        assert_eq!(trial(&mut s), Err(Infeasible));
        let learned = p.work_by_kind();
        assert_eq!(p.nogood_hits(), 0);
        assert_eq!(trial(&mut s), Err(Infeasible));
        let hit = p.work_by_kind();
        assert_eq!(p.nogood_hits(), 1);
        for k in 0..Kind::COUNT {
            assert_eq!(hit[k].passes, learned[k].passes, "kind {k}");
            let extra = u64::from(learned[k].wipeouts > 0);
            assert_eq!(hit[k].wipeouts, 2 * extra, "kind {k}");
        }
        // A new call forgets the nogood.
        p.begin_call();
        assert_eq!(trial(&mut s), Err(Infeasible));
        assert_eq!(p.nogood_hits(), 1);
        assert!(p.propagations() > hit.iter().map(|w| w.passes).sum());
    }

    #[test]
    fn an_explicit_set_source_never_matches_an_interval() {
        let mut csp = Csp::new();
        csp.add_var("x", Domain::range(0, 9), VarCategory::Other);
        let mut memo = Memo::new(&VarTables::for_csp(&csp), 1);
        memo.values.extend([2, 3, 5]);
        let set = [0, 3];
        // The same values as an interval are not covered…
        assert!(!memo.covers(SET, set, View::Range(2, 3)));
        assert!(!memo.covers(SET, set, View::Range(3, 3)));
        // …but an explicit subset is, and an interval covers both.
        assert!(memo.covers(SET, set, View::Values(&[2, 5])));
        assert!(!memo.covers(SET, set, View::Values(&[2, 4])));
        assert!(memo.covers(0, [2, 5], View::Values(&[2, 3])));
        assert!(memo.covers(0, [2, 5], View::Range(3, 5)));
        assert!(!memo.covers(0, [2, 5], View::Range(1, 3)));
    }

    #[test]
    fn le_infeasible_detected() {
        let mut csp = Csp::new();
        let a = csp.add_var("a", Domain::range(10, 20), VarCategory::Other);
        let b = csp.add_var("b", Domain::range(0, 5), VarCategory::Other);
        csp.post_le(a, b);
        let p = Propagator::new(&csp);
        let mut s = p.store();
        assert_eq!(p.run_all(&mut s), Err(Infeasible));
        assert_eq!(p.wipeouts(), 1);
    }

    #[test]
    fn select_prunes_index_and_out() {
        let mut csp = Csp::new();
        let c0 = csp.add_const("c0", 5);
        let c1 = csp.add_const("c1", 50);
        let c2 = csp.add_const("c2", 500);
        let idx = csp.add_var("idx", Domain::values([0, 1, 2]), VarCategory::Tunable);
        let out = csp.add_var("out", Domain::range(10, 100), VarCategory::Other);
        csp.post_select(out, idx, vec![c0, c1, c2]);
        let p = Propagator::new(&csp);
        let mut s = p.store();
        p.run_all(&mut s).expect("feasible");
        // Only choice 1 (=50) fits in [10, 100].
        assert_eq!(s.fixed_value(idx.0), Some(1));
        assert_eq!(s.fixed_value(out.0), Some(50));
    }

    #[test]
    fn eq_intersects_both_sides() {
        let mut csp = Csp::new();
        let a = csp.add_var("a", Domain::values([1, 2, 3, 4]), VarCategory::Other);
        let b = csp.add_var("b", Domain::values([3, 4, 5, 6]), VarCategory::Other);
        csp.post_eq(a, b);
        let p = Propagator::new(&csp);
        let mut s = p.store();
        p.run_all(&mut s).expect("feasible");
        assert_eq!(vals(&s, a), vec![3, 4]);
        assert_eq!(vals(&s, b), vec![3, 4]);
    }

    #[test]
    fn chained_propagation_fixes_after_branching() {
        // x * y == 64, x == y: propagation alone is bounds-consistent and
        // keeps the divisor domains, but fixing x must immediately fix y.
        let mut csp = Csp::new();
        let n = csp.add_const("n", 64);
        let x = csp.add_var("x", Domain::divisors_of(64), VarCategory::Tunable);
        let y = csp.add_var("y", Domain::divisors_of(64), VarCategory::Tunable);
        csp.post_prod(n, vec![x, y]);
        csp.post_eq(x, y);
        let p = Propagator::new(&csp);
        let mut s = p.store();
        p.run_all(&mut s).expect("feasible");
        s.commit();
        let m = s.mark();
        s.fix(x.0, 8).expect("8 is a divisor");
        p.run_from(&mut s, x).expect("feasible");
        assert_eq!(s.fixed_value(y.0), Some(8));
        // An inconsistent branch is rejected — and the trail restores the
        // pre-branch domains, dormancy included.
        s.undo_to(m);
        let m2 = s.mark();
        s.fix(x.0, 4).expect("4 is a divisor");
        assert_eq!(p.run_from(&mut s, x), Err(Infeasible));
        s.undo_to(m2);
        assert_eq!(
            vals(&s, x),
            Domain::divisors_of(64).iter_values().collect::<Vec<_>>()
        );
    }

    #[test]
    fn watcher_dedup_handles_non_adjacent_repeats() {
        // PROD with a repeated factor and SELECT with `out` among the
        // choices: `c.vars()` lists the repeated variable in non-adjacent
        // positions, which the old adjacent-only dedup kept as duplicate
        // watch entries (double wakeups). Each variable must watch each
        // constraint exactly once.
        let mut csp = Csp::new();
        let n = csp.add_const("n", 16);
        let x = csp.add_var("x", Domain::divisors_of(16), VarCategory::Tunable);
        let y = csp.add_var("y", Domain::divisors_of(16), VarCategory::Tunable);
        csp.post_prod(n, vec![x, y, x]); // x² · y == 16
        let idx = csp.add_var("idx", Domain::values([0, 1]), VarCategory::Tunable);
        let out = csp.add_var("out", Domain::range(1, 16), VarCategory::Other);
        csp.post_select(out, idx, vec![y, out]);
        let p = Propagator::new(&csp);
        for v in 0..csp.num_vars() {
            let w = p.watchers(VarRef(v));
            let mut dd = w.to_vec();
            dd.dedup();
            assert_eq!(w, dd, "duplicate watch entries for x{v}: {w:?}");
        }
        assert_eq!(p.watchers(x), [0], "x watches PROD once");
        assert_eq!(p.watchers(out), [1], "out watches SELECT once");
    }

    #[test]
    fn dormant_in_constraint_propagates_once() {
        // `a IN {1}` prunes on its first pass and is then entailed: the
        // fixpoint must cost exactly one filtering pass (the old engine
        // re-enqueued the constraint against itself for a no-op second
        // pass).
        let mut csp = Csp::new();
        let a = csp.add_var("a", Domain::values([1, 2]), VarCategory::Tunable);
        csp.post_in(a, [1]);
        let p = Propagator::new(&csp);
        let mut s = p.store();
        p.run_all(&mut s).expect("feasible");
        assert_eq!(s.fixed_value(a.0), Some(1));
        assert_eq!(p.propagations(), 1);
        assert!(s.is_dormant(0));
        // Re-running from the changed variable is free: the constraint
        // stays dormant and no pass executes.
        p.run_from(&mut s, a).expect("feasible");
        assert_eq!(p.propagations(), 1);
    }

    #[test]
    fn dormancy_does_not_change_fixpoints() {
        // Entailment skipping must be invisible in the computed domains:
        // compare against a store where dormancy never kicks in because
        // every pass is seeded fresh.
        let mut csp = Csp::new();
        let n = csp.add_const("n", 64);
        let x = csp.add_var("x", Domain::divisors_of(64), VarCategory::Tunable);
        let y = csp.add_var("y", Domain::divisors_of(64), VarCategory::Tunable);
        let z = csp.add_var("z", Domain::divisors_of(64), VarCategory::Tunable);
        csp.post_prod(n, vec![x, y, z]);
        let cap = csp.add_const("cap", 16);
        let inner = csp.add_var("inner", Domain::range(1, 4096), VarCategory::Other);
        csp.post_prod(inner, vec![y, z]);
        csp.post_le(inner, cap);
        csp.post_in(x, [4, 8, 16, 32, 64]);
        let p = Propagator::new(&csp);
        let mut s = p.store();
        p.run_all(&mut s).expect("feasible");
        s.commit();
        let m = s.mark();
        s.fix(y.0, 4).expect("in domain");
        p.run_from(&mut s, y).expect("feasible");
        let fixed: Vec<Vec<i64>> = (0..csp.num_vars()).map(|v| vals(&s, VarRef(v))).collect();
        s.undo_to(m);
        // Second, identical branch: dormancy discovered the first time was
        // rolled back, so the result must be identical.
        let m2 = s.mark();
        s.fix(y.0, 4).expect("in domain");
        p.run_from(&mut s, y).expect("feasible");
        let again: Vec<Vec<i64>> = (0..csp.num_vars()).map(|v| vals(&s, VarRef(v))).collect();
        s.undo_to(m2);
        assert_eq!(fixed, again);
    }
}

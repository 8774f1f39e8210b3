//! A reusable solver session: one [`crate::propagate::Propagator`] +
//! cached root fixpoint shared across many solves.
//!
//! The CGA explorer solves thousands of closely-related CSPs per tune:
//! the initial space for population seeding, and per-offspring variants
//! that only *add* a handful of `IN` pins on tunables. Historically each
//! solve rebuilt the propagator adjacency and re-ran the root fixpoint
//! from scratch. A [`SolveSession`] does that work once:
//!
//! * [`SolveSession::solve`] samples the base space directly on the
//!   cached committed root store (the per-dive trail restores it).
//! * [`SolveSession::solve_pinned`] is the incremental re-solve: it
//!   opens a backtrack scope on the cached fixpoint (nothing is copied;
//!   the scope's trail restores the root when the call ends), applies the
//!   offspring's value pins, and propagates only from the pinned
//!   variables. Because the filters are monotone,
//!   `fixpoint(root_fixpoint + pins)` equals the from-scratch
//!   `fixpoint(initial + IN pins)`, so the sampled solution stream is
//!   identical to materialising the offspring CSP — at a fraction of the
//!   propagation work. Each such call counts one *incremental hit*
//!   ([`crate::SolveStats::incremental_hits`]).
//!
//! Both are the one sampling driver of [`crate::solver`] on the session's
//! root; the one-shot [`crate::solver::rand_sat_traced`] is the same
//! driver on a root built for that call.
//!
//! **Determinism note:** the root fixpoint's propagations are one-time
//! session setup and are *never* folded into any reported
//! [`crate::SolveStats`]. A tuner killed and resumed mid-run rebuilds its
//! session; if the root cost were charged to the first solve after
//! construction, a resumed run's round records would differ from an
//! uninterrupted run's. Excluding it keeps checkpoint/resume runs
//! byte-identical.

use heron_rng::Rng;
use heron_trace::Tracer;

use crate::problem::{Csp, VarRef};
use crate::solver::{Root, SolveOutcome, SolvePolicy};

/// Long-lived solver state for one CSP (see the module docs).
#[derive(Debug)]
pub struct SolveSession {
    csp: Csp,
    root: Root,
    incremental_hits: u64,
    max_trail: u64,
}

impl SolveSession {
    /// Builds the session: the presolve, the propagator adjacency, the
    /// branch order and the root fixpoint, computed exactly once.
    pub fn new(csp: &Csp) -> Self {
        SolveSession {
            root: Root::new(csp),
            csp: csp.clone(),
            incremental_hits: 0,
            max_trail: 0,
        }
    }

    /// The session's problem.
    pub fn csp(&self) -> &Csp {
        &self.csp
    }

    /// Whether the root fixpoint is feasible.
    pub fn root_feasible(&self) -> bool {
        self.root.is_feasible()
    }

    /// Total incremental (pinned) re-solves served so far.
    pub fn incremental_hits(&self) -> u64 {
        self.incremental_hits
    }

    /// Deepest trail depth observed across all solves so far.
    pub fn max_trail(&self) -> u64 {
        self.max_trail
    }

    /// Samples up to `n` distinct solutions of the base space — the
    /// session-owned equivalent of [`crate::solver::rand_sat_traced`],
    /// minus the per-call propagator/root rebuild.
    pub fn solve<R: Rng>(
        &mut self,
        rng: &mut R,
        n: usize,
        policy: &SolvePolicy,
        tracer: &Tracer,
    ) -> SolveOutcome {
        self.sample(None, rng, n, policy, tracer)
    }

    /// Incremental re-solve: samples the base space further constrained
    /// by per-variable value pins (`var ∈ values`, the compiled form of
    /// an offspring's crossover `IN` constraints), starting from the
    /// cached root fixpoint instead of propagating from scratch.
    ///
    /// An infeasible pin set classifies as
    /// [`crate::SolveStatus::RootInfeasible`], exactly like materialising
    /// the offspring CSP would.
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

    fn sample<R: Rng>(
        &mut self,
        pins: Option<&[(VarRef, Vec<i64>)]>,
        rng: &mut R,
        n: usize,
        policy: &SolvePolicy,
        tracer: &Tracer,
    ) -> SolveOutcome {
        // Root set-up and earlier calls are not this call's work (see the
        // module's determinism note).
        self.root.prop.reset_stats();
        let outcome = self.root.sample(&self.csp, pins, rng, n, policy, tracer);
        self.incremental_hits += outcome.stats.incremental_hits;
        self.max_trail = self.max_trail.max(outcome.stats.max_trail_depth);
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::Domain;
    use crate::problem::VarCategory;
    use crate::solver::{rand_sat_traced, SolveStats, SolveStatus};
    use heron_rng::HeronRng;

    fn tiling_csp() -> (Csp, [VarRef; 3]) {
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
    fn session_solve_matches_rand_sat_stream() {
        let (csp, _) = tiling_csp();
        let policy = SolvePolicy::fixed(2_000);
        let mut session = SolveSession::new(&csp);
        let mut rng_a = HeronRng::from_seed(17);
        let mut rng_b = HeronRng::from_seed(17);
        for _ in 0..3 {
            let a = session.solve(&mut rng_a, 8, &policy, &Tracer::disabled());
            let b = rand_sat_traced(&csp, &mut rng_b, 8, &policy, &Tracer::disabled());
            assert_eq!(a.status, b.status);
            assert_eq!(a.solutions, b.solutions, "session diverged from rand_sat");
            // The session never re-pays the root fixpoint.
            assert!(a.stats.propagations < b.stats.propagations);
        }
    }

    #[test]
    fn pinned_solve_matches_materialised_offspring() {
        let (csp, [i0, i1, _]) = tiling_csp();
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
        let b = rand_sat_traced(&offspring, &mut rng_b, 6, &policy, &Tracer::disabled());
        assert_eq!(a.status, b.status);
        assert_eq!(
            a.solutions, b.solutions,
            "incremental re-solve diverged from the from-scratch offspring solve"
        );
        assert_eq!(a.stats.incremental_hits, 1);
        assert_eq!(session.incremental_hits(), 1);
        assert!(
            a.stats.propagations < b.stats.propagations,
            "incremental solve must propagate less ({} vs {})",
            a.stats.propagations,
            b.stats.propagations
        );
    }

    #[test]
    fn pinned_solve_classifies_infeasible_pins() {
        let (csp, [i0, _, _]) = tiling_csp();
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
        let (csp, [i0, i1, i2]) = tiling_csp();
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
        let (csp, [i0, _, _]) = tiling_csp();
        let policy = SolvePolicy::default();
        let tracer = Tracer::manual();
        let mut rng = HeronRng::from_seed(5);
        let mut session = SolveSession::new(&csp);
        let base = session.solve(&mut rng, 0, &policy, &tracer);
        let pinned = session.solve_pinned(&[(i0, vec![2, 8])], &mut rng, 0, &policy, &tracer);
        let one_shot = rand_sat_traced(&csp, &mut rng, 0, &policy, &tracer);
        for out in [&base, &pinned, &one_shot] {
            assert_eq!(out.status, SolveStatus::Sat);
            assert!(out.solutions.is_empty());
            // What is left is fixpoint work: none on the cached root, the
            // pins' for the pinned call, the root's for the one-shot.
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
        assert_eq!(pinned.stats.incremental_hits, 1);
        let root_cost = Root::new(&csp).prop.propagations();
        assert_eq!(one_shot.stats.propagations, root_cost);
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

//! A reusable solver session: one [`Propagator`] + cached root fixpoint
//! shared across many solves.
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
//!   ([`SolveStats::incremental_hits`]).
//!
//! **Determinism note:** the root fixpoint's propagations are one-time
//! session setup and are *never* folded into any reported
//! [`SolveStats`]. A tuner killed and resumed mid-run rebuilds its
//! session; if the root cost were charged to the first solve after
//! construction, a resumed run's round records would differ from an
//! uninterrupted run's. Excluding it keeps checkpoint/resume runs
//! byte-identical.

use heron_rng::Rng;
use heron_trace::Tracer;

use crate::problem::{Csp, VarRef};
use crate::propagate::Propagator;
use crate::solver::{
    classify, record, sample_into, Brancher, Deadline, SampleCtx, SolveOutcome, SolvePolicy,
    SolveStats,
};
use crate::store::DomainStore;

/// Long-lived solver state for one CSP (see the module docs).
#[derive(Debug)]
pub struct SolveSession {
    csp: Csp,
    prop: Propagator,
    brancher: Brancher,
    /// The committed root fixpoint; `None` iff the root is infeasible.
    root: Option<DomainStore>,
    incremental_hits: u64,
    max_trail: u64,
}

impl SolveSession {
    /// Builds the session: propagator adjacency, tunable mask, and the
    /// root fixpoint, computed exactly once.
    pub fn new(csp: &Csp) -> Self {
        let csp = csp.clone();
        let prop = Propagator::new(&csp);
        let mut store = prop.store();
        let root = if prop.run_all(&mut store).is_ok() {
            store.commit();
            // Retire constraints already entailed at the root for the
            // session's whole lifetime (read-only, fixpoint-preserving).
            prop.sweep_entailed(&mut store);
            store.take_max_trail();
            Some(store)
        } else {
            None
        };
        // Root-setup propagations are not attributable to any one solve
        // (see the module's determinism note).
        prop.reset_stats();
        SolveSession {
            brancher: Brancher::new(&csp),
            csp,
            prop,
            root,
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
        self.root.is_some()
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
        let span = tracer.span_with("csp.solve", || {
            [
                ("n", n.to_string()),
                ("budget", policy.budget.to_string()),
                ("vars", self.csp.num_vars().to_string()),
            ]
        });
        let mut stats = SolveStats::default();
        let mut deadline = Deadline::new(policy.deadline_steps);
        let mut out = Vec::with_capacity(n);
        let root_ok = self.root.is_some();
        if let Some(store) = self.root.as_mut() {
            let p0 = self.prop.propagations();
            let w0 = self.prop.wipeouts();
            let ctx = SampleCtx {
                csp: &self.csp,
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
            stats.propagations = self.prop.propagations() - p0;
            stats.wipeouts = self.prop.wipeouts() - w0;
            stats.max_trail_depth = store.take_max_trail();
        }
        stats.solutions = out.len() as u64;
        self.max_trail = self.max_trail.max(stats.max_trail_depth);
        let status = classify(root_ok, &deadline, &out, n);
        record(tracer, &stats, status);
        drop(span);
        SolveOutcome {
            status,
            solutions: out,
            stats,
        }
    }

    /// Incremental re-solve: samples the base space further constrained
    /// by per-variable value pins (`var ∈ values`, the compiled form of
    /// an offspring's crossover `IN` constraints), starting from the
    /// cached root fixpoint instead of propagating from scratch.
    ///
    /// `values` slices must be sorted and deduplicated (as produced by
    /// `Csp::post_in`). An infeasible pin set classifies as
    /// [`SolveStatus::RootInfeasible`], exactly like materialising the
    /// offspring CSP would.
    pub fn solve_pinned<R: Rng>(
        &mut self,
        pins: &[(VarRef, Vec<i64>)],
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
        let mut stats = SolveStats::default();
        let mut deadline = Deadline::new(policy.deadline_steps);
        let mut out = Vec::with_capacity(n);
        let p0 = self.prop.propagations();
        let w0 = self.prop.wipeouts();
        let mut root_ok = false;
        if let Some(store) = self.root.as_mut() {
            // The pins and their fixpoint are one backtrack scope on the
            // cached root, undone when the call ends: nothing is copied.
            let scope = store.mark();
            let mut changed: Vec<VarRef> = Vec::with_capacity(pins.len());
            let mut wiped = false;
            for (v, values) in pins {
                match store.restrict_to(v.0, values) {
                    Ok(true) => changed.push(*v),
                    Ok(false) => {}
                    Err(()) => {
                        stats.wipeouts += 1;
                        wiped = true;
                        break;
                    }
                }
            }
            if !wiped && self.prop.run_from_vars(store, &changed).is_ok() {
                root_ok = true;
                // Pins typically fix variables: retire the newly
                // entailed constraints for this pinned solve.
                self.prop.sweep_entailed(store);
                // The reported depth is that of the dives, above the
                // pinned fixpoint's own trail entries.
                store.take_max_trail();
                let pinned_depth = store.trail_depth();
                stats.incremental_hits = 1;
                self.incremental_hits += 1;
                let ctx = SampleCtx {
                    csp: &self.csp,
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
            // The next solve's depth starts from the root's empty trail.
            store.take_max_trail();
        }
        stats.propagations = self.prop.propagations() - p0;
        stats.wipeouts += self.prop.wipeouts() - w0;
        stats.solutions = out.len() as u64;
        self.max_trail = self.max_trail.max(stats.max_trail_depth);
        let status = classify(root_ok, &deadline, &out, n);
        record(tracer, &stats, status);
        if stats.incremental_hits > 0 {
            tracer.counter_add("csp.incremental_hits", stats.incremental_hits);
        }
        drop(span);
        SolveOutcome {
            status,
            solutions: out,
            stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::Domain;
    use crate::problem::VarCategory;
    use crate::solver::{rand_sat_traced, SolveStatus};
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

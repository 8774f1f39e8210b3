//! Equivalence of the trail + bitset engine against the historical
//! clone-based reference solver (`heron_testkit::csp_reference`).
//!
//! The trail rewrite is only allowed to change *how much work* sampling
//! does, never *what it samples*: for any `(csp, seed, n, policy)` the
//! production engine must return the same solution sequence and the same
//! classification as the clone-per-node reference, because both consume
//! the RNG identically (same shuffles, same candidate lists, same
//! branch/backtrack schedule). Propagation counts are the one sanctioned
//! difference — dormancy and self-wake suppression must only ever make
//! the new engine cheaper.

use heron_csp::propagate::Propagator;
use heron_csp::{
    rand_sat_policy, Constraint, Csp, Domain, DomainStore, SolvePolicy, SolveSession, SolveStats,
    VarCategory, VarRef,
};
use heron_rng::HeronRng;
use heron_testkit::csp_reference::{fixpoint_reference, rand_sat_reference};
use heron_testkit::{csp_corpus, property_cases, Gen};
use heron_trace::Tracer;

/// Runs both engines on the same seed and asserts identical outcomes.
fn assert_engines_agree(csp: &Csp, seed: u64, n: usize, policy: &SolvePolicy, label: &str) {
    let mut rng_new = HeronRng::from_seed(seed);
    let mut rng_ref = HeronRng::from_seed(seed);
    let new = rand_sat_policy(csp, &mut rng_new, n, policy);
    let reference = rand_sat_reference(csp, &mut rng_ref, n, policy);
    assert_eq!(
        new.status, reference.status,
        "{label}: status diverged (seed {seed})"
    );
    assert_eq!(
        new.solutions, reference.solutions,
        "{label}: solution sequence diverged (seed {seed})"
    );
    assert_eq!(
        new.stats.attempts, reference.stats.attempts,
        "{label}: attempt schedule diverged (seed {seed})"
    );
    assert!(
        new.stats.propagations <= reference.stats.propagations,
        "{label}: trail engine propagated more ({} > {}) (seed {seed})",
        new.stats.propagations,
        reference.stats.propagations,
    );
}

#[test]
fn trail_engine_matches_reference_on_base_corpus() {
    property_cases("trail_engine_matches_reference_on_base_corpus", 48, |g| {
        let n_vars = g.index(2, 7);
        let csp = csp_corpus::base_csp(g, n_vars);
        let seed = g.int(0, 1_000_000) as u64;
        let n = g.index(1, 9);
        assert_engines_agree(&csp, seed, n, &SolvePolicy::default(), "base");
    });
}

#[test]
fn trail_engine_matches_reference_on_unsat_corpus() {
    property_cases("trail_engine_matches_reference_on_unsat_corpus", 32, |g| {
        let csp = csp_corpus::unsat_csp(g);
        let seed = g.int(0, 1_000_000) as u64;
        assert_engines_agree(&csp, seed, 4, &SolvePolicy::default(), "unsat");
    });
}

#[test]
fn trail_engine_matches_reference_on_single_solution_corpus() {
    property_cases(
        "trail_engine_matches_reference_on_single_solution_corpus",
        32,
        |g| {
            let (csp, pinned) = csp_corpus::single_solution_csp(g);
            let seed = g.int(0, 1_000_000) as u64;
            let mut rng = HeronRng::from_seed(seed);
            let new = rand_sat_policy(&csp, &mut rng, 4, &SolvePolicy::default());
            if new.is_sat() {
                assert_eq!(new.solutions, vec![pinned.clone()]);
            }
            assert_engines_agree(&csp, seed, 4, &SolvePolicy::default(), "single-solution");
        },
    );
}

#[test]
fn trail_engine_matches_reference_on_knife_edge_corpus() {
    property_cases(
        "trail_engine_matches_reference_on_knife_edge_corpus",
        24,
        |g| {
            let csp = csp_corpus::knife_edge_csp(g);
            let seed = g.int(0, 1_000_000) as u64;
            // Small budget + escalation exercises the restart schedule on
            // both sides; a deadline exercises DeadlineExceeded parity.
            let policy = SolvePolicy {
                budget: 8,
                max_escalations: 2,
                escalation_factor: 4,
                budget_cap: 512,
                deadline_steps: 0,
            };
            assert_engines_agree(&csp, seed, 4, &policy, "knife-edge");
            let deadlined = SolvePolicy::default().with_deadline(50);
            assert_engines_agree(&csp, seed, 4, &deadlined, "knife-edge-deadline");
        },
    );
}

/// The session's two entry points share one driver: a pinned solve with
/// no pins is the plain solve — same status, same solutions, same
/// counters — except that it counts as an incremental hit on a feasible
/// root.
#[test]
fn session_solve_equals_pinned_solve_without_pins() {
    property_cases("session_solve_equals_pinned_solve_without_pins", 64, |g| {
        let n_vars = g.index(2, 7);
        let csp = match g.index(0, 4) {
            0 => csp_corpus::base_csp(g, n_vars),
            1 => csp_corpus::unsat_csp(g),
            2 => csp_corpus::single_solution_csp(g).0,
            _ => csp_corpus::knife_edge_csp(g),
        };
        let seed = g.int(0, 1_000_000) as u64;
        let n = g.index(0, 9);
        let policy = if g.index(0, 2) == 0 {
            SolvePolicy::default()
        } else {
            SolvePolicy::fixed(g.index(0, 64) as u32).with_deadline(g.index(0, 200) as u64)
        };
        let tracer = Tracer::disabled();
        let mut session = SolveSession::new(&csp);
        // Two rounds on one session: the second starts from whatever the
        // first left behind on the cached root.
        for round in 0..2 {
            let mut rng_a = HeronRng::from_seed(seed + round);
            let mut rng_b = HeronRng::from_seed(seed + round);
            let plain = session.solve(&mut rng_a, n, &policy, &tracer);
            let pinned = session.solve_pinned(&[], &mut rng_b, n, &policy, &tracer);
            assert_eq!(plain.status, pinned.status, "status (seed {seed})");
            assert_eq!(plain.solutions, pinned.solutions, "solutions (seed {seed})");
            assert_eq!(plain.stats.incremental_hits, 0);
            assert_eq!(
                pinned.stats.incremental_hits,
                u64::from(session.root_feasible())
            );
            let without_hits = SolveStats {
                incremental_hits: 0,
                ..pinned.stats
            };
            assert_eq!(plain.stats, without_hits, "counters (seed {seed})");
        }
    });
}

/// A random problem over every constraint type: 2..=5 variables with up
/// to six values in 0..=12, and 1..=5 constraints whose `PROD`/`SUM` take
/// one to four operands, plus `out` itself a third of the time.
fn mixed_csp(g: &mut Gen) -> Csp {
    let mut csp = Csp::new();
    let n = g.index(2, 6);
    for i in 0..n {
        let values = g.vec(1, 6, |g| g.int(0, 13));
        csp.add_var(
            format!("v{i}"),
            Domain::values(values),
            VarCategory::Tunable,
        );
    }
    let var = |g: &mut Gen| VarRef(g.index(0, n));
    let operands = |g: &mut Gen, out: VarRef| {
        let mut ops = g.vec(1, 4, var);
        if g.bool(0.33) {
            ops.push(out);
        }
        ops
    };
    for _ in 0..g.index(1, 6) {
        let c = match g.index(0, 6) {
            0 => {
                let out = var(g);
                Constraint::Prod {
                    out,
                    factors: operands(g, out),
                }
            }
            1 => {
                let out = var(g);
                Constraint::Sum {
                    out,
                    terms: operands(g, out),
                }
            }
            2 => Constraint::Eq(var(g), var(g)),
            3 => Constraint::Le(var(g), var(g)),
            4 => {
                let values: std::collections::BTreeSet<i64> =
                    g.vec(1, 5, |g| g.int(0, 13)).into_iter().collect();
                Constraint::In {
                    var: var(g),
                    values: values.into_iter().collect(),
                }
            }
            _ => Constraint::Select {
                out: var(g),
                index: var(g),
                choices: g.vec(1, 4, var),
            },
        };
        csp.post(c);
    }
    csp
}

fn assert_same_domains(store: &DomainStore, reference: &[Domain], label: &str) {
    for (v, d) in reference.iter().enumerate() {
        let got: Vec<i64> = store.values(v).collect();
        let want: Vec<i64> = d.iter_values().collect();
        assert_eq!(got, want, "{label}: domain of v{v}");
    }
}

/// The fail-first hot tier and the settled `PROD`/`SUM` early exit change
/// only how many passes a fixpoint costs. With an arbitrary hot set
/// pre-seeded before every run, each fixpoint along a random sequence of
/// pins (restricting a variable to a subset) and decisions (fixing it) has
/// the reference engine's domains and wipeout verdict, and a wipeout's
/// undo restores the previous fixpoint.
#[test]
fn fixpoints_match_reference_under_any_hot_set() {
    property_cases("fixpoints_match_reference_under_any_hot_set", 1024, |g| {
        let csp = mixed_csp(g);
        let prop = Propagator::new(&csp);
        let seed_hot = |g: &mut Gen| {
            for ci in 0..csp.num_constraints() {
                if g.bool(0.5) {
                    prop.mark_hot(ci);
                }
            }
        };
        seed_hot(g);
        let mut store = prop.store();
        let mut reference: Vec<Domain> = csp.vars().map(|(_, d)| d.domain.clone()).collect();
        let root_ok = prop.run_all(&mut store).is_ok();
        assert_eq!(
            root_ok,
            fixpoint_reference(&csp, &mut reference),
            "root verdict"
        );
        if !root_ok {
            return;
        }
        assert_same_domains(&store, &reference, "root");
        store.commit();
        for step in 0..g.index(1, 7) {
            seed_hot(g);
            let v = VarRef(g.index(0, csp.num_vars()));
            let values: Vec<i64> = store.values(v.0).collect();
            let keep: Vec<i64> = values.iter().copied().filter(|_| g.bool(0.6)).collect();
            let Some(&first) = keep.first() else {
                continue;
            };
            let decide = keep.len() == 1 || g.bool(0.5);
            let keep = if decide { &keep[..1] } else { &keep[..] };
            let mut next = reference.clone();
            next[v.0].restrict_to(keep).expect("a subset of the domain");
            let want_ok = fixpoint_reference(&csp, &mut next);
            let m = store.mark();
            let (lo, hi) = (store.min(v.0), store.max(v.0));
            let got_ok = if decide {
                store.fix(v.0, first).expect("a value of the domain");
                prop.run_from_fixed(&mut store, v, lo, hi).is_ok()
            } else {
                store
                    .restrict_to(v.0, keep)
                    .expect("a subset of the domain");
                prop.run_from_vars(&mut store, &[v]).is_ok()
            };
            let label = format!(
                "step {step} ({} v{} to {keep:?})",
                if decide { "fix" } else { "pin" },
                v.0
            );
            assert_eq!(got_ok, want_ok, "{label}: verdict");
            if got_ok {
                assert_same_domains(&store, &next, &label);
                reference = next;
            } else {
                store.undo_to(m);
                assert_same_domains(&store, &reference, &label);
            }
        }
    });
}

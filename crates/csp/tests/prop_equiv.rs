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

use heron_csp::{rand_sat_policy, Csp, SolvePolicy, SolveSession, SolveStats};
use heron_rng::HeronRng;
use heron_testkit::csp_reference::rand_sat_reference;
use heron_testkit::{csp_corpus, property_cases};
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

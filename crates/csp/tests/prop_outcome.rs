//! Property tests pinning the `SolveOutcome` classification contract
//! (DESIGN.md §6): a solve never silently returns an empty solution
//! set — every non-`Sat` outcome carries an explanatory status, proven
//! UNSAT roots are *classified* (and diagnosable).
//!
//! Inputs come from the adversarial corpus in
//! `heron_testkit::csp_corpus` (UNSAT clashes, single-solution pins,
//! knife-edge product spaces).

use heron_csp::{diagnose_root_conflict, validate, SolvePolicy, SolveStatus};
use heron_rng::HeronRng;
use heron_testkit::csp_corpus::{knife_edge_csp, single_solution_csp, unsat_csp};
use heron_testkit::{property_cases, solve_once, Gen};

fn solver_rng(g: &mut Gen) -> HeronRng {
    HeronRng::from_seed(g.int(0, i64::MAX) as u64)
}

/// A proven-UNSAT root is classified `RootInfeasible` with zero
/// solutions, and the diagnoser names a removal set that restores
/// feasibility.
#[test]
fn unsat_roots_are_classified_and_diagnosable() {
    property_cases("outcome_unsat_classified", 48, |g| {
        let csp = unsat_csp(g);
        let mut rng = solver_rng(g);
        let outcome = solve_once(&csp, &mut rng, 4, &SolvePolicy::default());
        assert_eq!(
            outcome.status,
            SolveStatus::RootInfeasible,
            "clash must be classified, not silently empty"
        );
        assert!(outcome.solutions.is_empty());
        assert!(!outcome.is_sat());
        let report = diagnose_root_conflict(&csp)
            .expect("diagnoser must report on a root-infeasible problem");
        assert!(
            report.removal_restores_feasibility(&csp),
            "diagnosed removal set must restore feasibility"
        );
    });
}

/// A single-solution space is solved (the needle is found) and the
/// returned solution is exactly the pinned one.
#[test]
fn single_solution_spaces_are_solved_exactly() {
    property_cases("outcome_single_solution", 48, |g| {
        let (csp, expected) = single_solution_csp(g);
        let mut rng = solver_rng(g);
        let outcome = solve_once(&csp, &mut rng, 1, &SolvePolicy::default());
        assert!(
            outcome.is_sat(),
            "pinned-but-satisfiable space must solve, got {:?}",
            outcome.status
        );
        let sol = outcome.one().expect("sat outcome carries a solution");
        assert!(validate(&csp, &sol), "returned solution must validate");
        assert_eq!(
            sol.values(),
            expected.values(),
            "a single-solution space admits exactly one answer"
        );
    });
}

/// The no-silent-empty contract on knife-edge spaces: whatever the
/// budget, an empty solution set always carries a non-`Sat` status, and
/// every returned solution validates against the problem.
#[test]
fn knife_edges_never_return_silent_empty() {
    property_cases("outcome_knife_edge_contract", 48, |g| {
        let csp = knife_edge_csp(g);
        // Deliberately starve the solver sometimes: tiny budgets force
        // the budget-exhausted / escalation paths.
        let budget = *g.pick(&[1u32, 4, 64, 2_000]);
        let policy = SolvePolicy::fixed(budget);
        let mut rng = solver_rng(g);
        let outcome = solve_once(&csp, &mut rng, 2, &policy);
        if outcome.solutions.is_empty() {
            assert_ne!(
                outcome.status,
                SolveStatus::Sat,
                "empty solution set must be classified"
            );
        } else {
            assert_eq!(outcome.status, SolveStatus::Sat);
            for sol in &outcome.solutions {
                assert!(validate(&csp, sol), "solutions must satisfy the CSP");
            }
        }
        // Knife-edge spaces are satisfiable by construction, so the
        // solver must never call the root infeasible.
        assert_ne!(outcome.status, SolveStatus::RootInfeasible);
    });
}

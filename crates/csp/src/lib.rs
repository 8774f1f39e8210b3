//! Finite-domain constraint satisfaction problems for Heron.
//!
//! This crate replaces the paper's use of Google or-tools: it provides
//! exactly what the Heron pipeline needs — declaring integer variables,
//! posting the six constraint types of Table 7 (PROD, SUM, EQ, LE, IN,
//! SELECT), checking assignments for validity, and *randomised constraint
//! satisfaction* (`RandSAT`): drawing many random valid assignments via
//! propagation-guided backtracking search.
//!
//! # Example
//!
//! ```
//! use heron_csp::{Csp, Domain, VarCategory};
//!
//! let mut csp = Csp::new();
//! let x = csp.add_var("x", Domain::values([1, 2, 3, 4, 6, 12]), VarCategory::Tunable);
//! let y = csp.add_var("y", Domain::values([1, 2, 3, 4, 6, 12]), VarCategory::Tunable);
//! let n = csp.add_const("n", 12);
//! csp.post_prod(n, vec![x, y]); // x * y == 12
//! let mut rng = heron_rng::HeronRng::from_seed(7);
//! let outcome = heron_csp::solver::rand_sat(&csp, &mut rng, 8);
//! let sols = outcome.expect_sat("doc example");
//! assert!(!sols.is_empty());
//! for s in &sols {
//!     assert_eq!(s.value(x) * s.value(y), 12);
//! }
//! ```

pub mod constraint;
pub mod diagnose;
pub mod domain;
pub mod problem;
pub mod propagate;
pub mod serialize;
pub mod session;
pub mod solver;
pub mod stats;
pub mod store;

pub use constraint::Constraint;
pub use diagnose::{diagnose_root_conflict, root_feasible, ConflictEntry, ConflictReport};
pub use domain::Domain;
pub use problem::{Csp, Solution, VarCategory, VarRef};
pub use propagate::{Kind, KindWork};
pub use serialize::{from_text, solution_from_text, solution_to_text, to_text};
pub use session::SolveSession;
pub use solver::{
    rand_sat, rand_sat_policy, rand_sat_traced, rand_sat_with_budget, validate, SolveOutcome,
    SolvePolicy, SolveStats, SolveStatus,
};
pub use stats::{tunable_domains, SpaceCensus};
pub use store::DomainStore;

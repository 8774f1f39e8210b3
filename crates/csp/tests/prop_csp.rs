//! Property-based tests of the CSP engine: solver soundness against a
//! brute-force oracle on randomly generated small problems.
//! (heron-testkit harness; see DESIGN.md, "Zero-dependency &
//! determinism policy".)

use heron_csp::propagate::Propagator;
use heron_csp::{validate, Constraint, Csp, Domain, Solution, SolvePolicy, VarCategory, VarRef};
use heron_testkit::{property_cases, solve_once, Gen};
use std::collections::BTreeSet;

/// A small random CSP description we can brute-force.
#[derive(Debug, Clone)]
struct SmallCsp {
    domains: Vec<Vec<i64>>,
    constraints: Vec<Constraint>,
}

impl SmallCsp {
    fn build(&self) -> Csp {
        let mut csp = Csp::new();
        for (i, d) in self.domains.iter().enumerate() {
            csp.add_var(
                format!("v{i}"),
                Domain::values(d.iter().copied()),
                VarCategory::Tunable,
            );
        }
        for c in &self.constraints {
            csp.post(c.clone());
        }
        csp
    }

    /// All solutions by exhaustive enumeration.
    fn brute_force(&self) -> Vec<Vec<i64>> {
        let mut out = Vec::new();
        let mut current = vec![0i64; self.domains.len()];
        self.enumerate(0, &mut current, &mut out);
        out
    }

    fn enumerate(&self, idx: usize, current: &mut Vec<i64>, out: &mut Vec<Vec<i64>>) {
        if idx == self.domains.len() {
            let env = |r: VarRef| current[r.0];
            if self.constraints.iter().all(|c| c.check(&env)) {
                out.push(current.clone());
            }
            return;
        }
        for &v in &self.domains[idx] {
            current[idx] = v;
            self.enumerate(idx + 1, current, out);
        }
    }
}

/// A sorted, deduplicated domain of 1..=3 values drawn from 0..6.
fn small_domain(g: &mut Gen) -> Vec<i64> {
    let set: BTreeSet<i64> = g.vec(1, 3, |g| g.int(0, 6)).into_iter().collect();
    set.into_iter().collect()
}

fn constraint(g: &mut Gen, nvars: usize) -> Constraint {
    let n = nvars as i64;
    match g.int(0, 6) {
        0 => Constraint::Prod {
            out: VarRef(g.int(0, n) as usize),
            factors: vec![VarRef(g.int(0, n) as usize), VarRef(g.int(0, n) as usize)],
        },
        1 => Constraint::Sum {
            out: VarRef(g.int(0, n) as usize),
            terms: vec![VarRef(g.int(0, n) as usize), VarRef(g.int(0, n) as usize)],
        },
        2 => Constraint::Eq(VarRef(g.int(0, n) as usize), VarRef(g.int(0, n) as usize)),
        3 => Constraint::Le(VarRef(g.int(0, n) as usize), VarRef(g.int(0, n) as usize)),
        4 => {
            let values: BTreeSet<i64> = g.vec(1, 3, |g| g.int(0, 6)).into_iter().collect();
            Constraint::In {
                var: VarRef(g.int(0, n) as usize),
                values: values.into_iter().collect(),
            }
        }
        _ => {
            let o = VarRef(g.int(0, n) as usize);
            Constraint::Select {
                out: o,
                index: VarRef(g.int(0, n) as usize),
                choices: vec![VarRef(g.int(0, n) as usize), o],
            }
        }
    }
}

fn small_csp(g: &mut Gen) -> SmallCsp {
    let domains = g.vec(2, 4, small_domain);
    let n = domains.len();
    let constraints = g.vec(0, 3, |g| constraint(g, n));
    SmallCsp {
        domains,
        constraints,
    }
}

/// Every solution RandSAT returns is a real solution.
#[test]
fn rand_sat_solutions_validate() {
    property_cases("rand_sat_solutions_validate", 64, |g| {
        let small = small_csp(g);
        let seed = g.int(0, 1000) as u64;
        let csp = small.build();
        let mut rng = heron_rng::HeronRng::from_seed(seed);
        for sol in solve_once(&csp, &mut rng, 8, &SolvePolicy::default()).solutions {
            assert!(
                validate(&csp, &sol),
                "invalid RandSAT solution for {small:?}"
            );
        }
    });
}

/// RandSAT is complete on satisfiable small problems (finds at least
/// one solution when brute force does).
#[test]
fn rand_sat_finds_solutions_when_they_exist() {
    property_cases("rand_sat_finds_solutions_when_they_exist", 64, |g| {
        let small = small_csp(g);
        let seed = g.int(0, 1000) as u64;
        let solutions = small.brute_force();
        let csp = small.build();
        let mut rng = heron_rng::HeronRng::from_seed(seed);
        let found = solve_once(&csp, &mut rng, 4, &SolvePolicy::default());
        if !solutions.is_empty() {
            assert!(
                found.is_sat() && !found.solutions.is_empty(),
                "solver missed a satisfiable problem ({}): {small:?}",
                found.status
            );
        } else {
            assert!(
                !found.is_sat() && found.solutions.is_empty(),
                "solver invented a solution: {small:?}"
            );
        }
    });
}

/// Propagation is sound: it never removes a value that appears in some
/// brute-force solution, and only reports infeasibility for truly
/// unsatisfiable problems.
#[test]
fn propagation_is_sound() {
    property_cases("propagation_is_sound", 64, |g| {
        let small = small_csp(g);
        let solutions = small.brute_force();
        let csp = small.build();
        let prop = Propagator::new(&csp);
        let mut store = prop.store();
        match prop.run_all(&mut store) {
            Err(_) => assert!(
                solutions.is_empty(),
                "propagation wiped a satisfiable problem: {small:?}"
            ),
            Ok(()) => {
                for sol in &solutions {
                    for (i, &v) in sol.iter().enumerate() {
                        assert!(
                            store.contains(i, v),
                            "propagation removed value {v} of v{i} used by solution {sol:?}"
                        );
                    }
                }
            }
        }
    });
}

/// `validate` agrees with the brute-force membership test.
#[test]
fn validate_matches_brute_force() {
    property_cases("validate_matches_brute_force", 64, |g| {
        let small = small_csp(g);
        let solutions = small.brute_force();
        let csp = small.build();
        for sol in solutions.iter().take(16) {
            assert!(validate(&csp, &Solution::new(sol.clone())));
        }
    });
}

/// Serialisation round-trips arbitrary small CSPs exactly.
#[test]
fn serialization_roundtrip() {
    property_cases("serialization_roundtrip", 64, |g| {
        let small = small_csp(g);
        let csp = small.build();
        let text = heron_csp::to_text(&csp).expect("generated names are tokens");
        let back = heron_csp::from_text(&text).expect("parses its own output");
        assert_eq!(back.num_vars(), csp.num_vars());
        assert_eq!(back.num_constraints(), csp.num_constraints());
        assert_eq!(heron_csp::to_text(&back).unwrap(), text);
        // Brute-force solution sets agree.
        for sol in small.brute_force().into_iter().take(8) {
            assert!(validate(&back, &Solution::new(sol)));
        }
    });
}

/// Domain operations preserve the min/max envelope.
#[test]
fn domain_restrict_envelope() {
    property_cases("domain_restrict_envelope", 64, |g| {
        let values: BTreeSet<i64> = g.vec(1, 11, |g| g.int(0, 100)).into_iter().collect();
        let lo = g.int(0, 100);
        let hi = g.int(0, 100);
        let mut d = Domain::values(values.iter().copied());
        let lo_bound = lo.min(hi);
        let hi_bound = lo.max(hi);
        let a = d.restrict_min(lo_bound);
        if a.is_ok() {
            let b = d.restrict_max(hi_bound);
            if b.is_ok() {
                assert!(d.min() >= lo_bound);
                assert!(d.max() <= hi_bound);
                for v in d.iter_values() {
                    assert!(values.contains(&v));
                }
            }
        }
    });
}

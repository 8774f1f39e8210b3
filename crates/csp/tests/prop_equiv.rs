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
//!
//! The same holds for the presolve every sampling root applies (merged
//! `EQ` classes, retired helper booleans, exact `PROD` bounds): a session
//! draws the reference's stream on Heron-shaped problems and on every
//! space of `tests/space_matrix.rs`, and a pinned re-solve draws the
//! reference's stream on the CSP with the pins posted as `IN`s.

use heron_core::generate::{SpaceGenerator, SpaceOptions};
use heron_csp::propagate::Propagator;
use heron_csp::{
    rand_sat_policy, Constraint, Csp, Domain, DomainStore, SolvePolicy, SolveSession, SolveStats,
    VarCategory, VarRef,
};
use heron_rng::{HeronRng, Rng};
use heron_tensor::{ops, DType};
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

/// `csp` with every pin posted as an `IN` constraint: the offspring CSP a
/// pinned re-solve stands for.
fn materialised(csp: &Csp, pins: &[(VarRef, Vec<i64>)]) -> Csp {
    let mut offspring = csp.clone();
    for (v, values) in pins {
        offspring.post_in(*v, values.iter().copied());
    }
    offspring
}

/// Asserts that `session`'s plain solve and a pinned solve under `pins`
/// draw the reference engine's status and solution stream, on `csp` and
/// on the materialised offspring respectively.
fn assert_session_matches_reference(
    session: &mut SolveSession,
    pins: &[(VarRef, Vec<i64>)],
    seed: u64,
    n: usize,
    policy: &SolvePolicy,
    label: &str,
) {
    let tracer = Tracer::disabled();
    let csp = session.csp().clone();
    for (what, pinned, problem) in [
        ("solve", None, csp.clone()),
        ("solve_pinned", Some(pins), materialised(&csp, pins)),
    ] {
        let mut rng_new = HeronRng::from_seed(seed);
        let mut rng_ref = HeronRng::from_seed(seed);
        let new = match pinned {
            None => session.solve(&mut rng_new, n, policy, &tracer),
            Some(pins) => session.solve_pinned(pins, &mut rng_new, n, policy, &tracer),
        };
        let reference = rand_sat_reference(&problem, &mut rng_ref, n, policy);
        assert_eq!(
            new.status, reference.status,
            "{label}: {what} status diverged (seed {seed}, pins {pins:?})"
        );
        assert_eq!(
            new.solutions, reference.solutions,
            "{label}: {what} stream diverged (seed {seed}, pins {pins:?})"
        );
        assert_eq!(
            new.stats.attempts, reference.stats.attempts,
            "{label}: {what} attempts"
        );
        for sol in &new.solutions {
            assert!(
                heron_csp::validate(&problem, sol),
                "{label}: {what} invalid"
            );
        }
    }
}

/// One to three pins on distinct variables of `csp`, each a sorted random
/// set of values drawn around the variable's declared domain. Most pins
/// land on a variable the presolve rewrites — an `EQ` operand, or a
/// `SELECT`'s output or index — the others on any variable.
fn random_pins(g: &mut Gen, csp: &Csp) -> Vec<(VarRef, Vec<i64>)> {
    let mut rewritten: Vec<VarRef> = Vec::new();
    for c in csp.constraints() {
        match c {
            Constraint::Eq(a, b) => rewritten.extend([*a, *b]),
            Constraint::Select { out, index, .. } => rewritten.extend([*out, *index]),
            _ => {}
        }
    }
    let mut pins: Vec<(VarRef, Vec<i64>)> = Vec::new();
    for _ in 0..g.index(1, 4) {
        let v = if !rewritten.is_empty() && g.bool(0.7) {
            *g.pick(&rewritten)
        } else {
            VarRef(g.index(0, csp.num_vars()))
        };
        if pins.iter().any(|(p, _)| *p == v) {
            continue;
        }
        let d = &csp.var(v).domain;
        let (lo, hi) = (d.min(), d.max().min(d.min() + 40));
        let mut values: Vec<i64> = match d {
            Domain::Values(vals) => vals.iter().copied().filter(|_| g.bool(0.5)).collect(),
            Domain::Range { .. } => (0..g.index(1, 6))
                .map(|_| g.int_inclusive(lo, hi))
                .collect(),
        };
        if g.bool(0.1) {
            values.push(hi + 1);
        }
        values.sort_unstable();
        values.dedup();
        if !values.is_empty() {
            pins.push((v, values));
        }
    }
    pins
}

/// Presolve equivalence on the Heron-shaped corpus: merged `EQ` classes
/// (with pins on any member), retired helper booleans (with pins on them
/// and on their selectors) and `PROD`s off the exact fast path.
#[test]
fn session_matches_reference_on_heron_shaped_corpus() {
    property_cases(
        "session_matches_reference_on_heron_shaped_corpus",
        384,
        |g| {
            let csp = csp_corpus::heron_shaped_csp(g);
            let seed = g.int(0, 1_000_000) as u64;
            let n = g.index(1, 7);
            let policy = if g.bool(0.7) {
                SolvePolicy::default()
            } else {
                SolvePolicy::fixed(g.index(1, 40) as u32)
            };
            let mut session = SolveSession::new(&csp);
            for round in 0..2 {
                let pins = random_pins(g, &csp);
                assert_session_matches_reference(
                    &mut session,
                    &pins,
                    seed + round,
                    n,
                    &policy,
                    "heron-shaped",
                );
            }
            // The one-shot door runs the same presolved root.
            let mut rng_new = HeronRng::from_seed(seed);
            let mut rng_ref = HeronRng::from_seed(seed);
            let one_shot = rand_sat_policy(&csp, &mut rng_new, n, &policy);
            let reference = rand_sat_reference(&csp, &mut rng_ref, n, &policy);
            assert_eq!(one_shot.status, reference.status, "one-shot status");
            assert_eq!(one_shot.solutions, reference.solutions, "one-shot stream");
        },
    );
}

/// Every space of `tests/space_matrix.rs`, at two seeds: a session's
/// samples, and a crossover-like re-solve pinning four random variables
/// to the values of its first sample, match the reference engine.
#[test]
fn session_matches_reference_on_every_matrix_space() {
    let heron_only = [("heron", SpaceOptions::heron())];
    let all = [
        ("heron", SpaceOptions::heron()),
        ("autotvm", SpaceOptions::autotvm()),
        ("ansor", SpaceOptions::ansor()),
        ("amos", SpaceOptions::amos()),
    ];
    let intrinsic_only = [
        ("heron", SpaceOptions::heron()),
        ("autotvm", SpaceOptions::autotvm()),
        ("amos", SpaceOptions::amos()),
    ];
    let c2d = ops::Conv2dConfig::new(8, 28, 28, 128, 128, 3, 3, 1, 1);
    let matrix = [
        (
            heron_dla::v100(),
            "gemm",
            ops::gemm(512, 512, 512),
            &all[..],
        ),
        (heron_dla::v100(), "c2d", ops::conv2d(c2d), &all[..]),
        (heron_dla::v100(), "scan", ops::scan(16, 512), &all[..]),
        (
            heron_dla::dlboost(),
            "gemm",
            ops::gemm_dtyped(512, 512, 512, DType::I8),
            &all[..],
        ),
        (
            heron_dla::dlboost(),
            "c2d",
            ops::conv2d(c2d.with_dtype(DType::I8)),
            &all[..],
        ),
        (
            heron_dla::vta(),
            "gemm",
            ops::gemm_dtyped(512, 512, 512, DType::I8),
            &intrinsic_only[..],
        ),
        (
            heron_dla::vta(),
            "bmm",
            ops::bmm_dtyped(8, 128, 128, 128, DType::I8),
            &intrinsic_only[..],
        ),
        (
            heron_dla::cambricon(),
            "gemm",
            ops::gemm_dtyped(512, 512, 512, DType::I8),
            &heron_only[..],
        ),
        (
            heron_dla::tpu(),
            "gemm",
            ops::gemm_dtyped(1024, 1024, 1024, DType::I8),
            &heron_only[..],
        ),
    ];
    let policy = SolvePolicy::default();
    for (spec, op, dag, approaches) in &matrix {
        for (name, opts) in approaches.iter() {
            let label = format!("{}/{op}/{name}", spec.name);
            let space = SpaceGenerator::new(spec.clone())
                .generate_named(dag, opts, &label)
                .unwrap_or_else(|e| panic!("{label}: generation failed: {e}"));
            let mut session = SolveSession::new(&space.csp);
            for seed in [11, 2023] {
                let first = session
                    .solve(
                        &mut HeronRng::from_seed(seed),
                        1,
                        &policy,
                        &Tracer::disabled(),
                    )
                    .expect_sat(&label);
                let mut rng = HeronRng::from_seed(seed);
                let mut pins: Vec<(VarRef, Vec<i64>)> = Vec::new();
                for _ in 0..4 {
                    let v = VarRef(rng.random_range(0..space.csp.num_vars()));
                    if pins.iter().all(|(p, _)| *p != v) {
                        pins.push((v, vec![first[0].value(v)]));
                    }
                }
                assert_session_matches_reference(&mut session, &pins, seed, 4, &policy, &label);
            }
        }
    }
}

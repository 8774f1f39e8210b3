//! The domain store against a model made of plain [`Domain`]s.
//!
//! `DomainStore` keeps every variable's bounds in flat arrays beside the
//! domains, represents small sets as bitsets over (possibly shared) value
//! tables, recycles the buffers of explicit sets, and undoes writes from a
//! trail. None of that may be observable. Under random sequences of every
//! mutator and of `mark` / `undo_to` / `commit`, over bitset, wide-set and
//! interval variables:
//!
//! * each operation returns what the same-named `Domain` operation returns
//!   and leaves the domain that operation leaves — including when an
//!   interval turns into an explicit set and when it does not;
//! * the cached `min` / `max` / `is_fixed` / `fixed_value` / `size` equal
//!   the values recomputed from the domain, at every step;
//! * an operation that returns `Err(())` leaves domains, bounds, dormancy
//!   flags and trail exactly as they were;
//! * `undo_to` restores the state at its `mark`, dormancy flags included,
//!   and state written outside any scope (or committed) is permanent.
//!   (heron-testkit harness; see DESIGN.md §5.)

use heron_csp::propagate::Propagator;
use heron_csp::store::Mark;
use heron_csp::{Csp, Domain, DomainStore, VarCategory};
use heron_testkit::{property_cases, Gen};
use std::collections::BTreeSet;

/// Values live in `0..UNIVERSE` so that operations on different variables
/// interact; one interval is far too wide to enumerate.
const UNIVERSE: i64 = 160;
const HUGE: i64 = 1 << 40;

/// Constraints posted only for their dormancy flags.
const FLAGS: usize = 3;

fn small_set(g: &mut Gen, max_len: usize) -> Vec<i64> {
    let set: BTreeSet<i64> = g
        .vec(1, max_len, |g| g.int(0, UNIVERSE))
        .into_iter()
        .collect();
    set.into_iter().collect()
}

/// Bitset variables (two sharing one table, one with all 64 bits in use),
/// a wide explicit set, and intervals.
fn declared(g: &mut Gen) -> Vec<Domain> {
    let shared = small_set(g, 12);
    let lo = g.int(0, UNIVERSE / 2);
    vec![
        Domain::values(shared.clone()),
        Domain::values(shared),
        Domain::values(small_set(g, 40)),
        Domain::values((0..64).map(|i| 2 * i + g.int(0, 2))),
        Domain::values((0..80).map(|i| 2 * i + g.int(0, 2))),
        Domain::range(lo, lo + g.int(0, UNIVERSE / 2)),
        Domain::range(0, UNIVERSE),
        Domain::range(g.int(0, 4), HUGE),
    ]
}

/// `op` as the historical store applied it: on a copy, installed only when
/// it reports a change.
fn apply(d: &mut Domain, op: impl FnOnce(&mut Domain) -> Result<bool, ()>) -> Result<bool, ()> {
    let mut next = d.clone();
    let changed = op(&mut next)?;
    if changed {
        *d = next;
    }
    Ok(changed)
}

/// PROD's divisibility rule on a `Domain`: explicit sets only.
fn retain_divisors(d: &mut Domain, p: i64) -> Result<bool, ()> {
    let Domain::Values(vals) = d else {
        return Ok(false);
    };
    let before = vals.len();
    vals.retain(|&x| x != 0 && p % x == 0);
    if vals.is_empty() {
        return Err(());
    }
    Ok(vals.len() != before)
}

#[derive(Clone, PartialEq, Debug)]
struct Model {
    domains: Vec<Domain>,
    dormant: Vec<bool>,
}

/// Everything observable about the store, for before/after comparisons.
fn observe(store: &DomainStore, nvars: usize) -> (Model, Vec<(i64, i64)>, u64) {
    let model = Model {
        domains: (0..nvars).map(|v| store.domain(v)).collect(),
        dormant: (0..FLAGS).map(|c| store.is_dormant(c)).collect(),
    };
    let bounds = (0..nvars).map(|v| (store.min(v), store.max(v))).collect();
    (model, bounds, store.trail_depth())
}

fn assert_matches(store: &DomainStore, model: &Model, step: &str) {
    for (v, d) in model.domains.iter().enumerate() {
        assert_eq!(&store.domain(v), d, "domain of x{v} after {step}");
        assert_eq!(store.min(v), d.min(), "min of x{v} after {step}");
        assert_eq!(store.max(v), d.max(), "max of x{v} after {step}");
        assert_eq!(store.size(v), d.size(), "size of x{v} after {step}");
        assert_eq!(
            store.is_fixed(v),
            d.is_fixed(),
            "is_fixed of x{v} after {step}"
        );
        assert_eq!(
            store.fixed_value(v),
            d.fixed_value(),
            "fixed_value of x{v} after {step}"
        );
        if d.size() <= 1 << 10 {
            assert!(
                store.values(v).eq(d.iter_values()),
                "values of x{v} after {step}"
            );
        }
        for probe in [
            d.min() - 1,
            d.min(),
            (d.min() + d.max()) / 2,
            d.max(),
            d.max() + 1,
        ] {
            assert_eq!(
                store.contains(v, probe),
                d.contains(probe),
                "contains({probe}) of x{v} after {step}"
            );
        }
    }
    for (c, &flag) in model.dormant.iter().enumerate() {
        assert_eq!(store.is_dormant(c), flag, "dormancy of c{c} after {step}");
    }
}

#[test]
fn store_matches_domain_model_under_random_operations() {
    property_cases(
        "store_matches_domain_model_under_random_operations",
        96,
        |g| {
            let decls = declared(g);
            let nvars = decls.len();
            let mut csp = Csp::new();
            let vars: Vec<_> = decls
                .iter()
                .enumerate()
                .map(|(i, d)| csp.add_var(format!("x{i}"), d.clone(), VarCategory::Other))
                .collect();
            for c in 0..FLAGS {
                csp.post_le(vars[c], vars[c + 1]);
            }
            let mut store = Propagator::new(&csp).store();
            let mut model = Model {
                domains: decls.clone(),
                dormant: vec![false; FLAGS],
            };
            // Open scopes, innermost last, with the model state at their mark.
            let mut scopes: Vec<(Mark, Model)> = Vec::new();
            assert_matches(&store, &model, "construction");

            for _ in 0..g.index(1, 60) {
                let v = g.index(0, nvars);
                let before = observe(&store, nvars);
                let (step, got, want) = match g.int(0, 11) {
                    0 => {
                        let b = g.int(-2, UNIVERSE + 2);
                        (
                            format!("restrict_min(x{v}, {b})"),
                            store.restrict_min(v, b),
                            apply(&mut model.domains[v], |d| d.restrict_min(b)),
                        )
                    }
                    1 => {
                        let b = g.int(-2, UNIVERSE + 2);
                        (
                            format!("restrict_max(x{v}, {b})"),
                            store.restrict_max(v, b),
                            apply(&mut model.domains[v], |d| d.restrict_max(b)),
                        )
                    }
                    2 => {
                        let c = small_set(g, 10);
                        (
                            format!("restrict_to(x{v}, {c:?})"),
                            store.restrict_to(v, &c),
                            apply(&mut model.domains[v], |d| d.restrict_to(&c)),
                        )
                    }
                    3 => {
                        // Mostly a value the domain holds.
                        let val = if g.bool(0.7) && model.domains[v].size() <= 1 << 10 {
                            let vals: Vec<i64> = model.domains[v].iter_values().collect();
                            *g.pick(&vals)
                        } else {
                            g.int(0, UNIVERSE)
                        };
                        (
                            format!("fix(x{v}, {val})"),
                            store.fix(v, val),
                            apply(&mut model.domains[v], |d| d.fix(val)),
                        )
                    }
                    4 => {
                        // Only bitset variables take a mask: the mask selects
                        // from the declared (table) values.
                        let v = g.index(0, 4);
                        let mask = g.choice(u64::MAX) | g.choice(u64::MAX);
                        let Domain::Values(table) = &decls[v] else {
                            unreachable!("the first four variables are explicit sets")
                        };
                        let selected: Vec<i64> = table
                            .iter()
                            .enumerate()
                            .filter(|(i, _)| mask & (1u64 << i) != 0)
                            .map(|(_, &x)| x)
                            .collect();
                        (
                            format!("and_mask(x{v}, {mask:#x})"),
                            store.and_mask(v, mask),
                            apply(&mut model.domains[v], |d| d.restrict_to(&selected)),
                        )
                    }
                    5 => {
                        let p = g.int(0, 400);
                        (
                            format!("retain_divisors(x{v}, {p})"),
                            store.retain_divisors(v, p),
                            apply(&mut model.domains[v], |d| retain_divisors(d, p)),
                        )
                    }
                    6 | 7 => {
                        let src = g.index(0, nvars);
                        let other = model.domains[src].clone();
                        (
                            format!("intersect_var(x{v}, x{src})"),
                            store.intersect_var(v, src),
                            if v == src {
                                Ok(false)
                            } else {
                                apply(&mut model.domains[v], |d| d.intersect(&other))
                            },
                        )
                    }
                    8 => {
                        let c = g.index(0, FLAGS);
                        store.set_dormant(c);
                        model.dormant[c] = true;
                        (format!("set_dormant(c{c})"), Ok(false), Ok(false))
                    }
                    9 => {
                        scopes.push((store.mark(), model.clone()));
                        ("mark".to_string(), Ok(false), Ok(false))
                    }
                    _ => match scopes.pop() {
                        Some((mark, at_mark)) => {
                            store.undo_to(mark);
                            model = at_mark;
                            ("undo_to".to_string(), Ok(false), Ok(false))
                        }
                        None => {
                            store.commit();
                            assert_eq!(store.trail_depth(), 0);
                            ("commit".to_string(), Ok(false), Ok(false))
                        }
                    },
                };
                assert_eq!(got, want, "result of {step}");
                assert_matches(&store, &model, &step);
                if got.is_err() {
                    assert_eq!(
                        observe(&store, nvars),
                        before,
                        "{step} failed and still touched the store"
                    );
                }
            }
            // Unwinding every open scope ends at the state outside them all.
            while let Some((mark, at_mark)) = scopes.pop() {
                store.undo_to(mark);
                assert_matches(&store, &at_mark, "final undo_to");
            }
            assert_eq!(store.trail_depth(), 0);
        },
    );
}

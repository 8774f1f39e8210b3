//! Adversarial CSP corpus — generators for pathological constraint
//! problems (DESIGN.md §6, "Solver-side failure & repair").
//!
//! The hardened solver contract says `rand_sat` must *classify* every
//! failure (`root-infeasible`, `budget-exhausted`, `deadline-exceeded`)
//! instead of silently returning an empty solution set, and the CGA
//! repair loop must keep valid-by-construction sampling alive on
//! over-constrained spaces. Those guarantees only bite on nasty inputs,
//! so this module generates three adversarial families on demand:
//!
//! * [`unsat_csp`] — *provably* root-infeasible problems (a clash of two
//!   disjoint `IN` sets on one variable, buried among benign
//!   constraints). The solver must report `RootInfeasible`; the
//!   diagnoser must name a removal set.
//! * [`single_solution_csp`] — problems squeezed down to exactly one
//!   solution by singleton `IN` pins. The solver must *find* it — a
//!   needle-in-a-haystack check on restart/escalation behaviour.
//! * [`knife_edge_csp`] — barely-satisfiable product constraints
//!   (`f0·…·fk == N` over divisor domains) where almost every random
//!   assignment wipes out. Exercises budget escalation and deadline
//!   classification without ever being UNSAT.
//!
//! Three more families are shaped like Heron's own spaces, for the
//! solver's presolve (DESIGN.md §5, "Presolve"), which must leave every
//! sample as it was:
//!
//! * [`eq_twin_csp`] — `EQ` chains over interval/interval, set/set and
//!   mixed pairs, as Rule-C1's `tile.*` twins and the loop-length twins
//!   build them.
//! * [`helper_boolean_csp`] — candidate sets encoded with a selector
//!   index and one helper boolean per value, each tied by a `SELECT`, plus
//!   near misses the presolve must leave alone.
//! * [`prod_fallback_csp`] — `PROD`s outside the exact fast path: a zero
//!   lower bound, a repeated factor, `out` among the factors, bounds whose
//!   product saturates.
//!
//! [`heron_shaped_csp`] draws from all three.
//!
//! All generators draw exclusively from the harness [`Gen`], so corpus
//! problems shrink and replay like any other property input.

use crate::Gen;
use heron_csp::{Csp, Domain, Solution, VarCategory, VarRef};

/// A random benign base problem: `n_vars` multi-value tunables plus a
/// sprinkling of `LE` chains so propagation has real work to do.
///
/// Every domain has at least two values, and the `LE` chain is posted
/// between *adjacent* variables only, so the base problem is always
/// satisfiable (take each domain's minimum… maximum ordering argument:
/// assigning every variable its domain minimum cannot violate
/// `v_i <= v_{i+1}` in general, so we instead order by sorted domain
/// minima — see the constructor body).
pub fn base_csp(g: &mut Gen, n_vars: usize) -> Csp {
    let n_vars = n_vars.max(2);
    let mut csp = Csp::new();
    let mut vars: Vec<VarRef> = Vec::with_capacity(n_vars);
    for i in 0..n_vars {
        // 2..=4 distinct values in 0..=9.
        let lo = g.int(0, 5);
        let width = g.int(1, 3);
        let dom = Domain::range(lo, lo + width);
        vars.push(csp.add_var(format!("t{i}"), dom, VarCategory::Tunable));
    }
    // A few benign LE edges from a lower-min domain to a higher-max
    // domain; such an edge always admits at least one satisfying pair.
    let edges = g.index(0, n_vars);
    for _ in 0..edges {
        let a = vars[g.index(0, n_vars)];
        let b = vars[g.index(0, n_vars)];
        if a == b {
            continue;
        }
        let (lo_side, hi_side) = if csp.var(a).domain.min() <= csp.var(b).domain.min() {
            (a, b)
        } else {
            (b, a)
        };
        if csp.var(lo_side).domain.min() <= csp.var(hi_side).domain.max() {
            csp.post_le(lo_side, hi_side);
        }
    }
    csp
}

/// A provably root-infeasible problem: [`base_csp`] plus two disjoint
/// singleton `IN` constraints on one multi-value tunable.
///
/// Propagation alone wipes out the clashing variable's domain, so the
/// solver must classify the root as `RootInfeasible` (never return a
/// silent empty `Sat`), and `diagnose_root_conflict` must produce a
/// removal set that restores feasibility.
pub fn unsat_csp(g: &mut Gen) -> Csp {
    let n_vars = g.index(2, 6);
    let mut csp = base_csp(g, n_vars);
    let tunables = csp.tunables();
    let victims: Vec<VarRef> = tunables
        .iter()
        .copied()
        .filter(|&v| csp.var(v).domain.size() >= 2)
        .collect();
    let v = victims[g.index(0, victims.len())];
    let values: Vec<i64> = csp.var(v).domain.iter_values().collect();
    let a = g.index(0, values.len());
    let mut b = g.index(0, values.len());
    if b == a {
        b = (a + 1) % values.len();
    }
    csp.post_in(v, [values[a]]);
    csp.post_in(v, [values[b]]);
    csp
}

/// A problem with **exactly one** solution: every tunable of a
/// [`base_csp`] is pinned to a per-variable value drawn from its domain
/// (re-drawn until the pinned assignment satisfies the benign `LE`
/// edges, which is guaranteed to terminate because the base problem is
/// satisfiable and domains are tiny).
///
/// Returns the problem and its unique expected [`Solution`].
pub fn single_solution_csp(g: &mut Gen) -> (Csp, Solution) {
    let n_vars = g.index(2, 6);
    let mut csp = base_csp(g, n_vars);
    let tunables = csp.tunables();
    // Draw assignments until one satisfies every posted LE edge.
    // Domains are <= 4 values and edges are benign, so the loop is
    // short; bound it anyway and fall back to domain minima sorted by
    // construction (assign lo side its min, hi side its max).
    let mut values: Vec<i64> = Vec::new();
    'search: for _attempt in 0..64 {
        let candidate: Vec<i64> = tunables
            .iter()
            .map(|&v| {
                let dom: Vec<i64> = csp.var(v).domain.iter_values().collect();
                dom[g.index(0, dom.len())]
            })
            .collect();
        let env = |r: VarRef| candidate[r.0];
        if csp.constraints().iter().all(|c| c.check(&env)) {
            values = candidate;
            break 'search;
        }
    }
    if values.is_empty() {
        // Deterministic fallback: everything at its domain minimum with
        // LE edges repaired by raising the hi side to its max.
        values = tunables.iter().map(|&v| csp.var(v).domain.min()).collect();
        for c in csp.constraints().to_vec() {
            if let heron_csp::Constraint::Le(a, b) = c {
                values[b.0] = values[b.0].max(values[a.0]).min(csp.var(b).domain.max());
            }
        }
    }
    for (&v, &val) in tunables.iter().zip(values.iter()) {
        csp.post_in(v, [val]);
    }
    (csp, Solution::new(values))
}

/// A barely-satisfiable "knife-edge" problem: `k` tunable factors over
/// divisor domains whose product must equal a fixed composite `N`.
///
/// Always satisfiable (`N · 1 · … · 1` works) but random assignment
/// almost always violates the product, so restart pressure is high —
/// exactly the regime where budget escalation and step deadlines earn
/// their keep.
pub fn knife_edge_csp(g: &mut Gen) -> Csp {
    const COMPOSITES: [i64; 5] = [12, 36, 64, 90, 128];
    let n = COMPOSITES[g.index(0, COMPOSITES.len())];
    let k = g.index(2, 4); // 2..=3 factors
    let mut csp = Csp::new();
    let out = csp.add_const("N", n);
    let factors: Vec<VarRef> = (0..k)
        .map(|i| {
            csp.add_var(
                format!("f{i}"),
                Domain::divisors_of(n),
                VarCategory::Tunable,
            )
        })
        .collect();
    csp.post_prod(out, factors);
    csp
}

/// A random variable category: the presolve treats tunables specially.
fn category(g: &mut Gen) -> VarCategory {
    *g.pick(&[
        VarCategory::Tunable,
        VarCategory::LoopLength,
        VarCategory::Other,
    ])
}

/// A non-empty random subset of `values`.
fn subset(g: &mut Gen, values: &[i64]) -> Vec<i64> {
    let mut kept: Vec<i64> = values.iter().copied().filter(|_| g.bool(0.5)).collect();
    if kept.is_empty() {
        kept.push(*g.pick(values));
    }
    kept
}

/// Heron's `EQ` twins: a tile split `PROD(N, parts)` whose parts each
/// carry up to three `EQ`-linked twins — the same divisor set (set/set,
/// the `tile.*` twin), an interval (mixed, a loop-length twin) or a
/// smaller set (differing tables) — chained to the part or to the
/// previous twin; then the product of the first two parts with a chain
/// of interval twins of differing bounds (interval/interval), an optional
/// `LE` cap and an optional `IN` that turns that interval class into a
/// value set.
pub fn eq_twin_csp(g: &mut Gen) -> Csp {
    let mut csp = Csp::new();
    let n = *g.pick(&[12, 16, 24, 36]);
    let divisors: Vec<i64> = Domain::divisors_of(n).iter_values().collect();
    let total = csp.add_const("N", n);
    let mut parts = Vec::new();
    for p in 0..g.index(2, 4) {
        let part = csp.add_var(format!("p{p}"), Domain::divisors_of(n), category(g));
        let mut prev = part;
        for t in 0..g.index(0, 4) {
            let domain = match g.index(0, 3) {
                0 => Domain::divisors_of(n),
                1 => Domain::range(g.int(0, 3), n + g.int(0, 3)),
                _ => Domain::values(subset(g, &divisors)),
            };
            let twin = csp.add_var(format!("p{p}.{t}"), domain, category(g));
            let to = if g.bool(0.5) { prev } else { part };
            if g.bool(0.5) {
                csp.post_eq(twin, to);
            } else {
                csp.post_eq(to, twin);
            }
            prev = twin;
        }
        parts.push(part);
    }
    csp.post_prod(total, parts.clone());
    let fused = csp.add_var("fused", Domain::range(1, n * n), category(g));
    csp.post_prod(fused, vec![parts[0], parts[1]]);
    let mut prev = fused;
    for t in 0..g.index(1, 4) {
        let lo = g.int(0, 4);
        let twin = csp.add_var(
            format!("fused.{t}"),
            Domain::range(lo, g.int(n, n * n + 8)),
            category(g),
        );
        let to = if g.bool(0.5) { prev } else { fused };
        csp.post_eq(twin, to);
        prev = twin;
    }
    if g.bool(0.5) {
        let cap = csp.add_const("cap", g.int(n / 2, 2 * n));
        csp.post_le(prev, cap);
    }
    if g.bool(0.4) {
        let values: Vec<i64> = (1..=n).filter(|_| g.bool(0.3)).collect();
        if !values.is_empty() {
            csp.post_in(prev, values);
        }
    }
    csp
}

/// Heron's candidate-set encoding (`SpaceBuilder::tunable`): a variable
/// `v ∈ values` with `IN(v, values)`, a selector `idx ∈ [0, n)` with
/// `SELECT(v, idx, values)`, and one helper boolean `is.v.c` per value
/// with `SELECT(is.v.c, idx, [i == c])` — one to three such groups and an
/// `LE` between two of the variables. `v` is mostly a tunable, so its
/// branch decision fixes the selector; now and then it is not, and a
/// near miss the presolve must keep shows: a helper that is tunable,
/// mentioned by an `LE`, wider than a boolean, or declared before its
/// (non-tunable) selector and its variable, where a dive reaches it
/// before anything fixed it.
pub fn helper_boolean_csp(g: &mut Gen) -> Csp {
    let mut csp = Csp::new();
    let zero = csp.add_const("const.0", 0);
    let one = csp.add_const("const.1", 1);
    let mut vars = Vec::new();
    for k in 0..g.index(1, 4) {
        let values = subset(g, &[1, 2, 4, 8, 16]);
        let n = values.len() as i64;
        let early = (n >= 2 && g.bool(0.2))
            .then(|| csp.add_var(format!("early.t{k}"), Domain::boolean(), VarCategory::Other));
        let v_category = if g.bool(0.75) {
            VarCategory::Tunable
        } else {
            VarCategory::Other
        };
        let v = csp.add_var(
            format!("t{k}"),
            Domain::values(values.iter().copied()),
            v_category,
        );
        csp.post_in(v, values.iter().copied());
        vars.push(v);
        if n < 2 {
            continue;
        }
        let idx_category = if g.bool(0.2) {
            VarCategory::Tunable
        } else {
            VarCategory::Other
        };
        let idx = csp.add_var(format!("idx.t{k}"), Domain::range(0, n - 1), idx_category);
        let consts: Vec<VarRef> = values
            .iter()
            .map(|&c| csp.add_const(format!("c{k}.{c}"), c))
            .collect();
        csp.post_select(v, idx, consts);
        for (i, c) in values.iter().enumerate() {
            let (domain, category) = match g.index(0, 8) {
                0 => (Domain::boolean(), VarCategory::Tunable),
                1 => (Domain::range(0, 3), VarCategory::Other),
                _ => (Domain::boolean(), VarCategory::Other),
            };
            let b = match early {
                Some(b) if i == 0 => b,
                _ => csp.add_var(format!("is.t{k}.{c}"), domain, category),
            };
            let choices = (0..values.len())
                .map(|j| if j == i { one } else { zero })
                .collect();
            csp.post_select(b, idx, choices);
            if g.bool(0.08) {
                csp.post_le(b, one);
            }
        }
    }
    if vars.len() >= 2 && g.bool(0.5) {
        csp.post_le(vars[0], vars[1]);
    }
    csp
}

/// `PROD`s the exact fast path must leave to the saturating one, each
/// beside an ordinary `PROD(N, [f0, f1])` over divisors: a factor with
/// lower bound 0, a repeated factor, `out` among its own factors, or
/// factors whose upper bounds multiply past `i64::MAX`.
pub fn prod_fallback_csp(g: &mut Gen) -> Csp {
    let mut csp = Csp::new();
    let n = *g.pick(&[12, 16, 36]);
    let total = csp.add_const("N", n);
    let f: Vec<VarRef> = (0..2)
        .map(|i| csp.add_var(format!("f{i}"), Domain::divisors_of(n), category(g)))
        .collect();
    csp.post_prod(total, f.clone());
    match g.index(0, 4) {
        0 => {
            let z = csp.add_var("z", Domain::values([0, 1, 2, 4]), category(g));
            let out = csp.add_var("out", Domain::range(0, 4 * n), category(g));
            csp.post_prod(out, vec![z, f[0]]);
        }
        1 => {
            let out = csp.add_var("sq", Domain::range(1, n * n * n), category(g));
            csp.post_prod(out, vec![f[0], f[1], f[0]]);
        }
        2 => {
            let x = csp.add_var("x", Domain::range(0, 4 * n), category(g));
            csp.post_prod(x, vec![x, f[1]]);
        }
        _ => {
            let big = 1i64 << g.int(31, 40);
            let a = csp.add_var("a", Domain::values([1, 2, big]), category(g));
            let b = csp.add_var("b", Domain::values([1, 3, big]), category(g));
            let out = csp.add_var("out", Domain::range(1, i64::MAX), category(g));
            csp.post_prod(out, vec![a, b, f[0]]);
        }
    }
    csp
}

/// A problem from one of the three presolve families, chosen at random.
pub fn heron_shaped_csp(g: &mut Gen) -> Csp {
    match g.index(0, 3) {
        0 => eq_twin_csp(g),
        1 => helper_boolean_csp(g),
        _ => prod_fallback_csp(g),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::property_cases;
    use heron_csp::VarRef;

    #[test]
    fn unsat_csp_has_no_solutions_by_brute_force() {
        property_cases("corpus_unsat_brute_force", 32, |g| {
            let csp = unsat_csp(g);
            assert!(!has_any_solution(&csp), "clash must kill every assignment");
        });
    }

    #[test]
    fn single_solution_csp_expected_solution_checks_out() {
        property_cases("corpus_single_solution_valid", 32, |g| {
            let (csp, sol) = single_solution_csp(g);
            let env = |r: VarRef| sol.value(r);
            assert!(
                csp.constraints().iter().all(|c| c.check(&env)),
                "pinned solution must satisfy the pinned problem"
            );
        });
    }

    #[test]
    fn knife_edge_csp_is_satisfiable() {
        property_cases("corpus_knife_edge_sat", 32, |g| {
            let csp = knife_edge_csp(g);
            assert!(has_any_solution(&csp), "knife-edge spaces stay satisfiable");
        });
    }

    /// Exhaustive satisfiability oracle for tiny problems.
    fn has_any_solution(csp: &Csp) -> bool {
        let doms: Vec<Vec<i64>> = (0..csp.num_vars())
            .map(|i| csp.var(VarRef(i)).domain.iter_values().collect())
            .collect();
        let mut current = vec![0i64; doms.len()];
        fn rec(csp: &Csp, doms: &[Vec<i64>], idx: usize, current: &mut Vec<i64>) -> bool {
            if idx == doms.len() {
                let env = |r: VarRef| current[r.0];
                return csp.constraints().iter().all(|c| c.check(&env));
            }
            for &v in &doms[idx] {
                current[idx] = v;
                if rec(csp, doms, idx + 1, current) {
                    return true;
                }
            }
            false
        }
        rec(csp, &doms, 0, &mut current)
    }
}

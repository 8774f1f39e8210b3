//! Seeded single-rule mutation of a real constraint space — the
//! negative-test corpus behind the constraint-space auditor
//! (DESIGN.md §11).
//!
//! A *mutation* damages exactly one posted rule of a `CSP_initial`:
//!
//! * [`MutationKind::Drop`] — the rule disappears (the classic
//!   under-constraint bug: someone forgot `AddMemLimit`);
//! * [`MutationKind::Tighten`] — the rule admits strictly less (a
//!   candidate value removed from an `IN`, a capacity halved): the
//!   over-constraint bug that silently caps the performance ceiling;
//! * [`MutationKind::Widen`] — the rule admits strictly more (an extra
//!   candidate value, a doubled capacity): under-constraint again, but
//!   with the rule still present — the off-by-a-factor spec typo.
//!
//! Only *restrictive* constraints (`IN`, `LE`) are mutated: `PROD` /
//! `SUM` / `EQ` / `SELECT` define the space's functional structure, and
//! damaging them yields assignments that no longer describe a schedule
//! at all rather than a mis-bounded schedule space.
//!
//! Generation is deterministic: `mutations(csp, seed)` enumerates every
//! applicable mutation in constraint-posting order, with any value
//! choice (which `IN` member to remove) drawn from a stream forked per
//! constraint index — inserting a rule does not reshuffle the choices
//! made for the others. The harness makes **no validity claim**: which
//! mutations are actually *detectable* (change the set of admitted
//! valid schedules) is certified downstream by `heron-audit` against
//! the simulator oracle.

use heron_csp::{Constraint, Csp, VarRef};
use heron_rng::HeronRng;

/// How a single rule was damaged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MutationKind {
    /// The rule was removed entirely.
    Drop,
    /// The rule admits strictly fewer assignments.
    Tighten,
    /// The rule admits strictly more assignments.
    Widen,
}

impl MutationKind {
    /// Stable short tag (`drop` / `tighten` / `widen`).
    pub fn tag(&self) -> &'static str {
        match self {
            MutationKind::Drop => "drop",
            MutationKind::Tighten => "tighten",
            MutationKind::Widen => "widen",
        }
    }

    /// Which audit probe is expected to catch this mutation class:
    /// under-constraint probes catch `drop`/`widen`, the over-constraint
    /// probe catches `tighten`.
    pub fn expected_probe(&self) -> &'static str {
        match self {
            MutationKind::Drop | MutationKind::Widen => "under",
            MutationKind::Tighten => "over",
        }
    }
}

impl std::fmt::Display for MutationKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.tag())
    }
}

/// One single-rule mutation of a base problem.
#[derive(Debug, Clone)]
pub struct RuleMutation {
    /// How the rule was damaged.
    pub kind: MutationKind,
    /// Index of the mutated constraint in the *base* problem's posting
    /// order (the diagnoser and audit attribution report this index).
    pub index: usize,
    /// Deterministic human-readable description, e.g.
    /// `tighten IN(tile.C.i1): removed 8`.
    pub detail: String,
    /// The mutated problem.
    pub csp: Csp,
}

/// Enumerates every applicable single-rule mutation of `csp`,
/// deterministically derived from `seed`.
///
/// For each `IN` constraint: one drop, one tighten (if it has ≥ 2
/// values; removes a seeded choice of member), one widen (adds a value
/// outside the set and widens the variable's domain along its `EQ`
/// closure so the new value is actually reachable). For each `LE`: one
/// drop, one tighten (halved bound), one widen (doubled bound).
pub fn mutations(csp: &Csp, seed: u64) -> Vec<RuleMutation> {
    let root = HeronRng::from_seed(seed);
    let mut out = Vec::new();
    for (i, c) in csp.constraints().iter().enumerate() {
        let mut rng = root.fork(i as u64);
        match c {
            Constraint::In { var, values } => {
                let name = csp.var(*var).name.clone();
                out.push(drop_rule(csp, i, &format!("drop IN({name})")));
                if values.len() >= 2 {
                    let removed = values[(rng.next_u64() % values.len() as u64) as usize];
                    let kept: Vec<i64> = values.iter().copied().filter(|&v| v != removed).collect();
                    let mut m = csp.clone();
                    m.replace_constraint(
                        i,
                        Constraint::In {
                            var: *var,
                            values: kept,
                        },
                    );
                    out.push(RuleMutation {
                        kind: MutationKind::Tighten,
                        index: i,
                        detail: format!("tighten IN({name}): removed {removed}"),
                        csp: m,
                    });
                }
                let extra = values.last().copied().unwrap_or(1).saturating_mul(2).max(2);
                if !values.contains(&extra) {
                    let mut m = csp.clone();
                    let mut widened = values.clone();
                    widened.push(extra);
                    m.replace_constraint(
                        i,
                        Constraint::In {
                            var: *var,
                            values: widened,
                        },
                    );
                    for v in eq_closure(csp, *var) {
                        m.widen_domain(v, [extra]);
                    }
                    out.push(RuleMutation {
                        kind: MutationKind::Widen,
                        index: i,
                        detail: format!("widen IN({name}): added {extra}"),
                        csp: m,
                    });
                }
            }
            Constraint::Le(a, b) => {
                let (an, bound) = (csp.var(*a).name.clone(), csp.var(*b).domain.max());
                out.push(drop_rule(csp, i, &format!("drop LE({an})")));
                if bound >= 2 {
                    out.push(rebound_le(
                        csp,
                        i,
                        *a,
                        &an,
                        bound / 2,
                        MutationKind::Tighten,
                    ));
                }
                if bound >= 1 {
                    out.push(rebound_le(
                        csp,
                        i,
                        *a,
                        &an,
                        bound.saturating_mul(2),
                        MutationKind::Widen,
                    ));
                }
            }
            // Functional structure: never mutated (see module docs).
            Constraint::Prod { .. }
            | Constraint::Sum { .. }
            | Constraint::Eq(..)
            | Constraint::Select { .. } => {}
        }
    }
    out
}

fn drop_rule(csp: &Csp, index: usize, detail: &str) -> RuleMutation {
    let keep: Vec<usize> = (0..csp.num_constraints()).filter(|&j| j != index).collect();
    RuleMutation {
        kind: MutationKind::Drop,
        index,
        detail: detail.to_string(),
        csp: csp.with_constraint_subset(&keep),
    }
}

/// Replaces `LE(a, _)` at `index` with `LE(a, const new_bound)`,
/// declaring a fresh constant so shared cap constants used by other
/// rules stay untouched.
fn rebound_le(
    csp: &Csp,
    index: usize,
    a: VarRef,
    a_name: &str,
    new_bound: i64,
    kind: MutationKind,
) -> RuleMutation {
    let mut m = csp.clone();
    let cap = m.add_const(format!("mut.cap.{index}"), new_bound);
    m.replace_constraint(index, Constraint::Le(a, cap));
    RuleMutation {
        kind,
        index,
        detail: format!("{} LE({a_name}): bound -> {new_bound}", kind.tag()),
        csp: m,
    }
}

/// The `EQ`-connected component of `start`: widening a candidate set is
/// only reachable when every equality twin (loop var ↔ `tile.*`
/// tunable) is widened along with it, otherwise domain intersection
/// removes the new value again during propagation.
fn eq_closure(csp: &Csp, start: VarRef) -> Vec<VarRef> {
    let mut seen = vec![start];
    loop {
        let mut grew = false;
        for c in csp.constraints() {
            if let Constraint::Eq(a, b) = c {
                for (x, y) in [(*a, *b), (*b, *a)] {
                    if seen.contains(&x) && !seen.contains(&y) {
                        seen.push(y);
                        grew = true;
                    }
                }
            }
        }
        if !grew {
            return seen;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use heron_csp::{Domain, SolvePolicy, VarCategory};
    use heron_rng::HeronRng;

    /// tile-split-shaped toy: extent 16 over two parts with a twin, a
    /// candidate tunable, and a capacity rule.
    fn toy() -> Csp {
        let mut csp = Csp::new();
        let total = csp.add_const("extent", 16);
        let p0 = csp.add_var("p0", Domain::divisors_of(16), VarCategory::LoopLength);
        let t0 = csp.add_var("tile.p0", Domain::divisors_of(16), VarCategory::Tunable);
        let p1 = csp.add_var("p1", Domain::divisors_of(16), VarCategory::LoopLength);
        csp.post_eq(t0, p0);
        csp.post_prod(total, vec![p0, p1]);
        let vec = csp.add_var("vec", Domain::values([1, 2, 4]), VarCategory::Tunable);
        csp.post_in(vec, [1, 2, 4]);
        let cap = csp.add_const("cap", 8);
        csp.post_le(p1, cap);
        csp
    }

    #[test]
    fn enumeration_is_deterministic_and_seed_sensitive() {
        let csp = toy();
        let a = mutations(&csp, 7);
        let b = mutations(&csp, 7);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.detail, y.detail);
            assert_eq!(x.kind, y.kind);
            assert_eq!(x.index, y.index);
        }
        assert!(!a.is_empty());
    }

    #[test]
    fn only_restrictive_rules_are_mutated() {
        let csp = toy();
        for m in mutations(&csp, 1) {
            let tag = csp.constraints()[m.index].type_tag();
            assert!(tag == "IN" || tag == "LE", "mutated {tag}");
        }
    }

    #[test]
    fn drop_removes_exactly_one_constraint() {
        let csp = toy();
        for m in mutations(&csp, 1)
            .into_iter()
            .filter(|m| m.kind == MutationKind::Drop)
        {
            assert_eq!(m.csp.num_constraints(), csp.num_constraints() - 1);
        }
    }

    #[test]
    fn tighten_in_shrinks_and_widen_in_is_reachable() {
        let csp = toy();
        let ms = mutations(&csp, 3);
        let tighten = ms
            .iter()
            .find(|m| m.kind == MutationKind::Tighten && m.detail.contains("IN(vec)"))
            .expect("tighten IN exists");
        match &tighten.csp.constraints()[tighten.index] {
            Constraint::In { values, .. } => assert_eq!(values.len(), 2),
            other => panic!("not IN: {other}"),
        }
        let widen = ms
            .iter()
            .find(|m| m.kind == MutationKind::Widen && m.detail.contains("IN(vec)"))
            .expect("widen IN exists");
        // The added value (8) is in the IN *and* in the widened domain,
        // so the mutated space actually admits it.
        let var = widen.csp.var_by_name("vec").unwrap();
        assert!(widen.csp.var(var).domain.contains(8));
        let mut rng = HeronRng::from_seed(0);
        let sols = crate::solve_once(&widen.csp, &mut rng, 64, &SolvePolicy::default())
            .expect_sat("widened toy");
        assert!(
            sols.iter().any(|s| s.value(var) == 8),
            "widened value never sampled"
        );
    }

    #[test]
    fn widen_le_doubles_and_tighten_le_halves_the_bound() {
        let csp = toy();
        let ms = mutations(&csp, 3);
        for (kind, want) in [(MutationKind::Tighten, 4), (MutationKind::Widen, 16)] {
            let m = ms
                .iter()
                .find(|m| m.kind == kind && m.detail.contains("LE(p1)"))
                .expect("LE mutation exists");
            match &m.csp.constraints()[m.index] {
                Constraint::Le(_, b) => {
                    assert_eq!(m.csp.var(*b).domain.max(), want);
                    assert!(m.csp.var(*b).name.starts_with("mut.cap."));
                }
                other => panic!("not LE: {other}"),
            }
        }
        // The shared original cap constant is untouched.
        let cap = csp.var_by_name("cap").unwrap();
        for m in &ms {
            assert_eq!(m.csp.var(cap).domain.max(), 8);
        }
    }

    #[test]
    fn expected_probe_maps_kinds() {
        assert_eq!(MutationKind::Drop.expected_probe(), "under");
        assert_eq!(MutationKind::Widen.expected_probe(), "under");
        assert_eq!(MutationKind::Tighten.expected_probe(), "over");
        assert_eq!(MutationKind::Tighten.to_string(), "tighten");
    }
}

//! Historical clone-based `RandSAT` reference engine.
//!
//! This is the pre-trail solver preserved verbatim as an executable
//! specification: a fresh `Vec<Domain>` clone per search node, array-based
//! filtering, and a per-call watcher table. The equivalence property suite
//! (`crates/csp/tests/prop_equiv.rs`) checks that the production trail +
//! bitset engine draws *identical solution sequences* on the adversarial
//! corpus.
//!
//! Two deliberate differences from the historical code, both required for
//! stream comparability with the fixed engine:
//!
//! * the `Range` candidate list applies the duplicate-random fix (the old
//!   adjacent-only `dedup` re-tried `random == lo`);
//! * watcher lists are fully deduplicated (domain-neutral either way).
//!
//! Everything else — clone-per-node search state, propagation order,
//! filtering math, attempt/escalation schedule — matches the historical
//! engine, propagation counts included.

use std::collections::VecDeque;

use heron_csp::{Constraint, Csp, Domain, Solution, SolvePolicy, SolveStatus, VarRef};
use heron_rng::{Rng, SliceRandom};

/// Counters reported by [`rand_sat_reference`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RefStats {
    /// Dives started.
    pub attempts: u64,
    /// Single-constraint filtering passes executed (root included).
    pub propagations: u64,
    /// Distinct solutions returned.
    pub solutions: u64,
}

/// Result of one reference sampling call.
#[derive(Debug, Clone)]
pub struct RefOutcome {
    /// Classification, matching the production solver's statuses.
    pub status: SolveStatus,
    /// Distinct solutions in discovery order.
    pub solutions: Vec<Solution>,
    /// Reference counters.
    pub stats: RefStats,
}

struct RefPropagator<'a> {
    csp: &'a Csp,
    watching: Vec<Vec<u32>>,
    propagations: u64,
}

impl<'a> RefPropagator<'a> {
    fn new(csp: &'a Csp) -> Self {
        let mut watching = vec![Vec::new(); csp.num_vars()];
        for (ci, c) in csp.constraints().iter().enumerate() {
            let mut vars = c.vars();
            vars.sort_unstable();
            vars.dedup();
            for v in vars {
                watching[v.0].push(ci as u32);
            }
        }
        RefPropagator {
            csp,
            watching,
            propagations: 0,
        }
    }

    fn initial_domains(&self) -> Vec<Domain> {
        self.csp.vars().map(|(_, d)| d.domain.clone()).collect()
    }

    fn run_all(&mut self, domains: &mut [Domain]) -> Result<(), ()> {
        let all: Vec<u32> = (0..self.csp.num_constraints() as u32).collect();
        self.run(domains, all)
    }

    fn run_from(&mut self, domains: &mut [Domain], changed_var: VarRef) -> Result<(), ()> {
        self.run(domains, self.watching[changed_var.0].clone())
    }

    fn run(&mut self, domains: &mut [Domain], seed: Vec<u32>) -> Result<(), ()> {
        let ncons = self.csp.num_constraints();
        let mut queued = vec![false; ncons];
        let mut queue: VecDeque<u32> = VecDeque::with_capacity(seed.len());
        for ci in seed {
            if !queued[ci as usize] {
                queued[ci as usize] = true;
                queue.push_back(ci);
            }
        }
        let mut changed_vars: Vec<VarRef> = Vec::new();
        while let Some(ci) = queue.pop_front() {
            queued[ci as usize] = false;
            changed_vars.clear();
            self.propagations += 1;
            filter(
                &self.csp.constraints()[ci as usize],
                domains,
                &mut changed_vars,
            )?;
            for v in &changed_vars {
                for &wi in &self.watching[v.0] {
                    // The triggering constraint re-enqueues itself too, as
                    // the historical engine did for every constraint type.
                    if !queued[wi as usize] {
                        queued[wi as usize] = true;
                        queue.push_back(wi);
                    }
                }
            }
        }
        Ok(())
    }
}

fn filter(c: &Constraint, domains: &mut [Domain], changed: &mut Vec<VarRef>) -> Result<(), ()> {
    match c {
        Constraint::Prod { out, factors } => filter_prod(*out, factors, domains, changed),
        Constraint::Sum { out, terms } => filter_sum(*out, terms, domains, changed),
        Constraint::Eq(a, b) => {
            let db = domains[b.0].clone();
            if domains[a.0].intersect(&db)? {
                changed.push(*a);
            }
            let da = domains[a.0].clone();
            if domains[b.0].intersect(&da)? {
                changed.push(*b);
            }
            Ok(())
        }
        Constraint::Le(a, b) => {
            let bhi = domains[b.0].max();
            if domains[a.0].restrict_max(bhi)? {
                changed.push(*a);
            }
            let alo = domains[a.0].min();
            if domains[b.0].restrict_min(alo)? {
                changed.push(*b);
            }
            Ok(())
        }
        Constraint::In { var, values } => {
            if domains[var.0].restrict_to(values)? {
                changed.push(*var);
            }
            Ok(())
        }
        Constraint::Select {
            out,
            index,
            choices,
        } => filter_select(*out, *index, choices, domains, changed),
    }
}

fn sat_prod(vals: impl Iterator<Item = i64>) -> i64 {
    let mut p: i64 = 1;
    for v in vals {
        p = p.saturating_mul(v);
        if p == i64::MAX {
            return i64::MAX;
        }
    }
    p
}

fn filter_prod(
    out: VarRef,
    factors: &[VarRef],
    domains: &mut [Domain],
    changed: &mut Vec<VarRef>,
) -> Result<(), ()> {
    let lo = sat_prod(factors.iter().map(|f| domains[f.0].min()));
    let hi = sat_prod(factors.iter().map(|f| domains[f.0].max()));
    if domains[out.0].restrict_min(lo)? {
        changed.push(out);
    }
    if hi < i64::MAX && domains[out.0].restrict_max(hi)? {
        changed.push(out);
    }
    let out_lo = domains[out.0].min();
    let out_hi = domains[out.0].max();
    let out_fixed = domains[out.0].fixed_value();

    for (i, f) in factors.iter().enumerate() {
        let others_lo = sat_prod(
            factors
                .iter()
                .enumerate()
                .filter(|(j, _)| *j != i)
                .map(|(_, g)| domains[g.0].min()),
        );
        let others_hi = sat_prod(
            factors
                .iter()
                .enumerate()
                .filter(|(j, _)| *j != i)
                .map(|(_, g)| domains[g.0].max()),
        );
        if others_hi > 0 && others_hi < i64::MAX {
            let min_f = out_lo.div_euclid(others_hi) + i64::from(out_lo.rem_euclid(others_hi) != 0);
            if domains[f.0].restrict_min(min_f)? {
                changed.push(*f);
            }
        }
        if others_lo > 0 {
            let max_f = out_hi / others_lo;
            if domains[f.0].restrict_max(max_f)? {
                changed.push(*f);
            }
        }
        if let Some(p) = out_fixed {
            if p > 0 {
                if let Domain::Values(vals) = &domains[f.0] {
                    if vals.iter().any(|&v| v == 0 || p % v != 0) {
                        let kept: Vec<i64> = vals
                            .iter()
                            .copied()
                            .filter(|&v| v != 0 && p % v == 0)
                            .collect();
                        if kept.is_empty() {
                            return Err(());
                        }
                        domains[f.0] = Domain::Values(kept);
                        changed.push(*f);
                    }
                }
            }
        }
    }
    Ok(())
}

fn filter_sum(
    out: VarRef,
    terms: &[VarRef],
    domains: &mut [Domain],
    changed: &mut Vec<VarRef>,
) -> Result<(), ()> {
    let lo: i64 = terms.iter().map(|t| domains[t.0].min()).sum();
    let hi: i64 = terms.iter().map(|t| domains[t.0].max()).sum();
    if domains[out.0].restrict_min(lo)? {
        changed.push(out);
    }
    if domains[out.0].restrict_max(hi)? {
        changed.push(out);
    }
    let out_lo = domains[out.0].min();
    let out_hi = domains[out.0].max();
    for (i, t) in terms.iter().enumerate() {
        let others_lo: i64 = terms
            .iter()
            .enumerate()
            .filter(|(j, _)| *j != i)
            .map(|(_, g)| domains[g.0].min())
            .sum();
        let others_hi: i64 = terms
            .iter()
            .enumerate()
            .filter(|(j, _)| *j != i)
            .map(|(_, g)| domains[g.0].max())
            .sum();
        if domains[t.0].restrict_min(out_lo - others_hi)? {
            changed.push(*t);
        }
        if domains[t.0].restrict_max(out_hi - others_lo)? {
            changed.push(*t);
        }
    }
    Ok(())
}

fn filter_select(
    out: VarRef,
    index: VarRef,
    choices: &[VarRef],
    domains: &mut [Domain],
    changed: &mut Vec<VarRef>,
) -> Result<(), ()> {
    let n = choices.len() as i64;
    if domains[index.0].restrict_min(0)? {
        changed.push(index);
    }
    if domains[index.0].restrict_max(n - 1)? {
        changed.push(index);
    }
    let out_lo = domains[out.0].min();
    let out_hi = domains[out.0].max();
    let feasible: Vec<i64> = domains[index.0]
        .iter_values()
        .filter(|&i| {
            let d = &domains[choices[i as usize].0];
            d.max() >= out_lo && d.min() <= out_hi
        })
        .collect();
    if feasible.is_empty() {
        return Err(());
    }
    if feasible.len() as u64 != domains[index.0].size() {
        domains[index.0] = Domain::Values(feasible.clone());
        changed.push(index);
    }
    let lo = feasible
        .iter()
        .map(|&i| domains[choices[i as usize].0].min())
        .min()
        .expect("nonempty");
    let hi = feasible
        .iter()
        .map(|&i| domains[choices[i as usize].0].max())
        .max()
        .expect("nonempty");
    if domains[out.0].restrict_min(lo)? {
        changed.push(out);
    }
    if domains[out.0].restrict_max(hi)? {
        changed.push(out);
    }
    if let Some(i) = domains[index.0].fixed_value() {
        let ch = choices[i as usize];
        let dch = domains[ch.0].clone();
        if domains[out.0].intersect(&dch)? {
            changed.push(out);
        }
        let dout = domains[out.0].clone();
        if domains[ch.0].intersect(&dout)? {
            changed.push(ch);
        }
    }
    Ok(())
}

struct Deadline {
    remaining: u64,
    enabled: bool,
    hit: bool,
}

impl Deadline {
    fn new(steps: u64) -> Self {
        Deadline {
            remaining: steps,
            enabled: steps > 0,
            hit: false,
        }
    }

    fn tick(&mut self) -> bool {
        if !self.enabled {
            return true;
        }
        if self.remaining == 0 {
            self.hit = true;
            return false;
        }
        self.remaining -= 1;
        true
    }
}

/// Filters `domains` to the reference engine's propagation fixpoint,
/// every constraint of `csp` seeded; `false` is a wipeout (`domains` is
/// then partially filtered).
pub fn fixpoint_reference(csp: &Csp, domains: &mut [Domain]) -> bool {
    RefPropagator::new(csp).run_all(domains).is_ok()
}

/// Clone-based sampling under `policy` — the historical `rand_sat`.
pub fn rand_sat_reference<R: Rng>(
    csp: &Csp,
    rng: &mut R,
    n: usize,
    policy: &SolvePolicy,
) -> RefOutcome {
    let mut stats = RefStats::default();
    let mut prop = RefPropagator::new(csp);
    let mut root = prop.initial_domains();
    let root_ok = prop.run_all(&mut root).is_ok();
    let mut out = Vec::with_capacity(n);
    let mut deadline = Deadline::new(policy.deadline_steps);
    if root_ok && n > 0 {
        let mut seen = std::collections::HashSet::new();
        let mut budget = policy.budget;
        let mut escalation = 0u32;
        loop {
            let mut attempts = n * 3;
            while out.len() < n && attempts > 0 && !deadline.hit {
                attempts -= 1;
                stats.attempts += 1;
                let mut fails = budget;
                if let Some(sol) = search_one(csp, &mut prop, &root, rng, &mut fails, &mut deadline)
                {
                    if seen.insert(sol.fingerprint()) {
                        out.push(sol);
                    }
                }
            }
            if !out.is_empty()
                || deadline.hit
                || escalation >= policy.max_escalations
                || budget >= policy.budget_cap
            {
                break;
            }
            escalation += 1;
            budget = budget
                .max(1)
                .saturating_mul(policy.escalation_factor.max(1))
                .min(policy.budget_cap.max(1));
        }
    }
    stats.propagations = prop.propagations;
    stats.solutions = out.len() as u64;
    let status = if !root_ok {
        SolveStatus::RootInfeasible
    } else if deadline.hit {
        SolveStatus::DeadlineExceeded
    } else if out.is_empty() && n > 0 {
        SolveStatus::BudgetExhausted
    } else {
        SolveStatus::Sat
    };
    RefOutcome {
        status,
        solutions: out,
        stats,
    }
}

fn search_one<R: Rng>(
    csp: &Csp,
    prop: &mut RefPropagator<'_>,
    root: &[Domain],
    rng: &mut R,
    fails: &mut u32,
    deadline: &mut Deadline,
) -> Option<Solution> {
    let mut order = csp.tunables();
    order.shuffle(rng);
    for (r, _) in csp.vars() {
        if !order.contains(&r) {
            order.push(r);
        }
    }
    let mut domains = root.to_vec();
    dive(csp, prop, &mut domains, &order, 0, rng, fails, deadline)
}

#[allow(clippy::too_many_arguments)]
fn dive<R: Rng>(
    csp: &Csp,
    prop: &mut RefPropagator<'_>,
    domains: &mut [Domain],
    order: &[VarRef],
    depth: usize,
    rng: &mut R,
    fails: &mut u32,
    deadline: &mut Deadline,
) -> Option<Solution> {
    let mut d = depth;
    while d < order.len() && domains[order[d].0].is_fixed() {
        d += 1;
    }
    if d == order.len() {
        let values: Vec<i64> = domains.iter().map(|dom| dom.min()).collect();
        let sol = Solution::new(values);
        if heron_csp::validate(csp, &sol) {
            return Some(sol);
        }
        *fails = fails.saturating_sub(1);
        return None;
    }
    let var = order[d];
    let is_tunable = csp.tunables().contains(&var);
    let candidates: Vec<i64> = match &domains[var.0] {
        Domain::Values(v) => {
            let mut v = v.clone();
            v.shuffle(rng);
            v
        }
        Domain::Range { lo, hi } => {
            // Candidate rule with the duplicate-random fix applied (see
            // the module docs): the draw always happens when `hi > lo`,
            // and joins the list only when it is a new value.
            let (lo, hi) = (*lo, *hi);
            if hi > lo {
                let mut v = vec![lo, hi];
                let r = rng.random_range(lo..=hi);
                if r != lo && r != hi {
                    v.push(r);
                }
                v
            } else {
                vec![lo]
            }
        }
    };
    let try_limit = if is_tunable {
        candidates.len()
    } else {
        candidates.len().min(4)
    };
    for &val in candidates.iter().take(try_limit) {
        if *fails == 0 {
            return None;
        }
        if !deadline.tick() {
            return None;
        }
        let mut trial = domains.to_vec();
        if trial[var.0].fix(val).is_ok() && prop.run_from(&mut trial, var).is_ok() {
            if let Some(sol) = dive(csp, prop, &mut trial, order, d + 1, rng, fails, deadline) {
                return Some(sol);
            }
        }
        *fails = fails.saturating_sub(1);
    }
    None
}

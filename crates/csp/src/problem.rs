//! CSP definition: variables, categories, constraints, and solutions.

use std::fmt;
use std::hash::{BuildHasher, RandomState};

use crate::constraint::Constraint;
use crate::domain::Domain;

/// Handle to a CSP variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarRef(pub usize);

impl fmt::Display for VarRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

/// Variable category, following the paper's Table 4 breakdown.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VarCategory {
    /// Dedicated architectural-constraint variables (m, n, k, capacities…).
    Arch,
    /// Loop-length variables (`stage.i0`, …).
    LoopLength,
    /// Tunable parameters (tile factors, locations, unroll…). These are the
    /// decision variables the explorer branches on and the genes of CGA
    /// chromosomes.
    Tunable,
    /// Other auxiliary variables (footprints, totals, indicator bits…).
    Other,
}

/// One declared variable.
#[derive(Debug, Clone)]
pub struct VarDecl {
    /// Unique name.
    pub name: String,
    /// Initial domain.
    pub domain: Domain,
    /// Census category.
    pub category: VarCategory,
}

/// A constraint satisfaction problem: the representation of Heron's
/// constrained search space (`CSP_initial` in the paper) and of the derived
/// CSPs created by constraint-based crossover/mutation.
#[derive(Debug, Clone, Default)]
pub struct Csp {
    vars: Vec<VarDecl>,
    by_name: NameIndex,
    constraints: Vec<Constraint>,
}

/// Each variable's handle by name, with the name stored once: in its
/// [`VarDecl`]. An open-addressing table of variable indices, probed by
/// the name's hash and confirmed against `vars`. The hash is std's keyed
/// SipHash, so names crafted to collide (a `heron-csp v2` document is
/// untrusted input) cannot make declaring them quadratic.
#[derive(Debug, Clone, Default)]
struct NameIndex {
    hasher: RandomState,
    /// `(hash, variable index)`, `EMPTY` in the index for a free slot;
    /// the length is 0 or a power of two, at most half full.
    slots: Vec<(u32, u32)>,
}

impl NameIndex {
    const EMPTY: u32 = u32::MAX;

    /// The variable of `vars` named `name`, or else the free slot where
    /// it belongs (the table must have one).
    fn probe(&self, vars: &[VarDecl], name: &str, hash: u32) -> Result<VarRef, usize> {
        let mask = self.slots.len() - 1;
        let mut i = hash as usize & mask;
        loop {
            match self.slots[i] {
                (_, Self::EMPTY) => return Err(i),
                (h, v) if h == hash && vars[v as usize].name == name => {
                    return Ok(VarRef(v as usize));
                }
                _ => i = (i + 1) & mask,
            }
        }
    }

    fn hash(&self, name: &str) -> u32 {
        self.hasher.hash_one(name) as u32
    }

    fn get(&self, vars: &[VarDecl], name: &str) -> Option<VarRef> {
        if self.slots.is_empty() {
            return None;
        }
        self.probe(vars, name, self.hash(name)).ok()
    }

    /// Claims the slot of `name` for the next variable, `vars.len()`.
    ///
    /// # Panics
    /// Panics if a variable of `vars` has that name.
    fn claim(&mut self, vars: &[VarDecl], name: &str) {
        if 2 * (vars.len() + 1) > self.slots.len() {
            let mut grown = vec![(0, Self::EMPTY); (2 * self.slots.len()).max(16)];
            let mask = grown.len() - 1;
            for &(h, v) in self.slots.iter().filter(|s| s.1 != Self::EMPTY) {
                let mut i = h as usize & mask;
                while grown[i].1 != Self::EMPTY {
                    i = (i + 1) & mask;
                }
                grown[i] = (h, v);
            }
            self.slots = grown;
        }
        let hash = self.hash(name);
        match self.probe(vars, name, hash) {
            Ok(_) => panic!("duplicate variable `{name}`"),
            Err(slot) => self.slots[slot] = (hash, vars.len() as u32),
        }
    }
}

impl Csp {
    /// Creates an empty problem.
    pub fn new() -> Self {
        Csp::default()
    }

    /// An empty problem with room for `vars` variables and `constraints`
    /// constraints, so declaring that many allocates no table twice.
    pub fn with_capacity(vars: usize, constraints: usize) -> Self {
        let mut slots = 16;
        while slots < 2 * vars {
            slots *= 2;
        }
        Csp {
            vars: Vec::with_capacity(vars),
            by_name: NameIndex {
                hasher: RandomState::new(),
                slots: vec![(0, NameIndex::EMPTY); slots],
            },
            constraints: Vec::with_capacity(constraints),
        }
    }

    /// Declares a variable.
    ///
    /// # Panics
    /// Panics on duplicate names.
    pub fn add_var(
        &mut self,
        name: impl Into<String>,
        domain: Domain,
        category: VarCategory,
    ) -> VarRef {
        let name = name.into();
        self.by_name.claim(&self.vars, &name);
        self.vars.push(VarDecl {
            name,
            domain,
            category,
        });
        VarRef(self.vars.len() - 1)
    }

    /// Declares a constant as a fixed architectural variable.
    pub fn add_const(&mut self, name: impl Into<String>, value: i64) -> VarRef {
        self.add_var(name, Domain::singleton(value), VarCategory::Arch)
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.vars.len()
    }

    /// Number of constraints.
    pub fn num_constraints(&self) -> usize {
        self.constraints.len()
    }

    /// Variable declaration by handle.
    pub fn var(&self, r: VarRef) -> &VarDecl {
        &self.vars[r.0]
    }

    /// Variable lookup by name.
    pub fn var_by_name(&self, name: &str) -> Option<VarRef> {
        self.by_name.get(&self.vars, name)
    }

    /// Iterator over `(handle, declaration)` pairs.
    pub fn vars(&self) -> impl Iterator<Item = (VarRef, &VarDecl)> {
        self.vars.iter().enumerate().map(|(i, v)| (VarRef(i), v))
    }

    /// Handles of all tunable (decision) variables.
    pub fn tunables(&self) -> Vec<VarRef> {
        let tunable =
            |(r, d): (VarRef, &VarDecl)| (d.category == VarCategory::Tunable).then_some(r);
        let mut out = Vec::with_capacity(self.vars().filter_map(tunable).count());
        out.extend(self.vars().filter_map(tunable));
        out
    }

    /// The posted constraints.
    pub fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    /// Posts an arbitrary constraint.
    ///
    /// # Panics
    /// Panics if the constraint references an undeclared variable.
    pub fn post(&mut self, c: Constraint) {
        for v in c.vars() {
            assert!(
                v.0 < self.vars.len(),
                "constraint references undeclared {v}"
            );
        }
        self.constraints.push(c);
    }

    /// Posts `out == v1 * v2 * … * vn` (type T1, PROD).
    pub fn post_prod(&mut self, out: VarRef, factors: Vec<VarRef>) {
        self.post(Constraint::Prod { out, factors });
    }

    /// Posts `out == v1 + v2 + … + vn` (type T2, SUM).
    pub fn post_sum(&mut self, out: VarRef, terms: Vec<VarRef>) {
        self.post(Constraint::Sum { out, terms });
    }

    /// Posts `a == b` (type T3, EQ).
    pub fn post_eq(&mut self, a: VarRef, b: VarRef) {
        self.post(Constraint::Eq(a, b));
    }

    /// Posts `a <= b` (type T4, LE).
    pub fn post_le(&mut self, a: VarRef, b: VarRef) {
        self.post(Constraint::Le(a, b));
    }

    /// Posts `var ∈ {c1, …, cn}` (type T5, IN).
    ///
    /// # Panics
    /// Panics if `values` is empty.
    pub fn post_in(&mut self, var: VarRef, values: impl IntoIterator<Item = i64>) {
        let mut v: Vec<i64> = values.into_iter().collect();
        assert!(!v.is_empty(), "IN constraint needs at least one value");
        v.sort_unstable();
        v.dedup();
        self.post(Constraint::In { var, values: v });
    }

    /// Posts `out == choices[index]` (type T6, SELECT).
    ///
    /// # Panics
    /// Panics if `choices` is empty.
    pub fn post_select(&mut self, out: VarRef, index: VarRef, choices: Vec<VarRef>) {
        assert!(!choices.is_empty(), "SELECT needs at least one choice");
        self.post(Constraint::Select {
            out,
            index,
            choices,
        });
    }

    /// Replaces the constraint at `index` in place, keeping posting order.
    /// Used by the rule-mutation harness to swap one rule for a
    /// tightened / widened variant without renumbering the others.
    ///
    /// # Panics
    /// Panics if `index` is out of range or the replacement references an
    /// undeclared variable.
    pub fn replace_constraint(&mut self, index: usize, c: Constraint) {
        assert!(index < self.constraints.len(), "no constraint {index}");
        for v in c.vars() {
            assert!(
                v.0 < self.vars.len(),
                "constraint references undeclared {v}"
            );
        }
        self.constraints[index] = c;
    }

    /// Widens a variable's declared domain with extra candidate values —
    /// the "widen one rule" mutation of the audit harness. The domain
    /// becomes the union of its current values and `extra`; posted
    /// constraints are untouched (rewrite the matching IN separately via
    /// [`Csp::replace_constraint`]).
    ///
    /// # Panics
    /// Panics if the current domain is unbounded-large (over `1 << 20`
    /// values): widening is only meant for candidate-set variables.
    pub fn widen_domain(&mut self, r: VarRef, extra: impl IntoIterator<Item = i64>) {
        let decl = &mut self.vars[r.0];
        assert!(
            decl.domain.size() <= 1 << 20,
            "refusing to enumerate huge domain of `{}`",
            decl.name
        );
        let merged: Vec<i64> = decl.domain.iter_values().chain(extra).collect();
        decl.domain = Domain::values(merged);
    }

    /// A copy of this problem with the same variables but only the
    /// constraints whose indices appear in `keep` (in `keep` order).
    /// Used by the conflict diagnoser to test feasibility of constraint
    /// subsets.
    ///
    /// # Panics
    /// Panics if an index in `keep` is out of range.
    pub fn with_constraint_subset(&self, keep: &[usize]) -> Csp {
        let mut sub = Csp {
            vars: self.vars.clone(),
            by_name: self.by_name.clone(),
            constraints: Vec::with_capacity(keep.len()),
        };
        for &i in keep {
            sub.constraints.push(self.constraints[i].clone());
        }
        sub
    }

    /// Size (in assignments, log10) of the raw cross product of tunable
    /// domains — the unconstrained search-space size reported in figures.
    pub fn tunable_space_log10(&self) -> f64 {
        self.vars()
            .filter(|(_, d)| d.category == VarCategory::Tunable)
            .map(|(_, d)| (d.domain.size() as f64).log10())
            .sum()
    }
}

impl fmt::Display for Csp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "CSP: {} variables, {} constraints",
            self.num_vars(),
            self.num_constraints()
        )?;
        for (r, decl) in self.vars() {
            writeln!(
                f,
                "  {r} {} : {} [{:?}]",
                decl.name, decl.domain, decl.category
            )?;
        }
        for c in self.constraints() {
            writeln!(f, "  {c}")?;
        }
        Ok(())
    }
}

/// A complete assignment of every CSP variable.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Solution {
    values: Vec<i64>,
}

impl Solution {
    /// Creates a solution from a dense value vector (one per variable, in
    /// declaration order).
    pub fn new(values: Vec<i64>) -> Self {
        Solution { values }
    }

    /// Value of a variable.
    pub fn value(&self, r: VarRef) -> i64 {
        self.values[r.0]
    }

    /// Value lookup by name.
    pub fn value_by_name(&self, csp: &Csp, name: &str) -> Option<i64> {
        csp.var_by_name(name).map(|r| self.value(r))
    }

    /// All values in declaration order.
    pub fn values(&self) -> &[i64] {
        &self.values
    }

    /// A stable 64-bit fingerprint of the assignment (used for dedup and
    /// for deterministic simulator jitter).
    pub fn fingerprint(&self) -> u64 {
        // FNV-1a over the little-endian value bytes.
        let mut h: u64 = 0xcbf29ce484222325;
        for v in &self.values {
            for b in v.to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x100000001b3);
            }
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declare_and_lookup() {
        let mut csp = Csp::new();
        let x = csp.add_var("x", Domain::range(0, 9), VarCategory::Tunable);
        assert_eq!(csp.var_by_name("x"), Some(x));
        assert_eq!(csp.var(x).category, VarCategory::Tunable);
        assert_eq!(csp.num_vars(), 1);
        assert_eq!(csp.tunables(), vec![x]);
    }

    #[test]
    fn names_are_found_across_index_growth() {
        let mut csp = Csp::new();
        let refs: Vec<VarRef> = (0..1000)
            .map(|i| csp.add_var(format!("v{i}"), Domain::boolean(), VarCategory::Other))
            .collect();
        let copy = csp.clone();
        for (i, r) in refs.into_iter().enumerate() {
            assert_eq!(csp.var_by_name(&format!("v{i}")), Some(r));
            assert_eq!(copy.var_by_name(&format!("v{i}")), Some(r));
        }
        assert_eq!(csp.var_by_name("v1000"), None);
        assert_eq!(Csp::new().var_by_name("v0"), None);
    }

    #[test]
    #[should_panic(expected = "duplicate variable")]
    fn duplicate_name_panics() {
        let mut csp = Csp::new();
        csp.add_var("x", Domain::boolean(), VarCategory::Other);
        csp.add_var("x", Domain::boolean(), VarCategory::Other);
    }

    #[test]
    #[should_panic(expected = "undeclared")]
    fn dangling_constraint_panics() {
        let mut csp = Csp::new();
        let x = csp.add_var("x", Domain::boolean(), VarCategory::Other);
        csp.post(Constraint::Eq(x, VarRef(99)));
    }

    #[test]
    fn replace_constraint_swaps_in_place() {
        let mut csp = Csp::new();
        let x = csp.add_var("x", Domain::range(0, 9), VarCategory::Tunable);
        csp.post_in(x, [1, 2]);
        csp.post_in(x, [2, 3]);
        csp.replace_constraint(
            0,
            Constraint::In {
                var: x,
                values: vec![2],
            },
        );
        assert_eq!(csp.num_constraints(), 2);
        assert!(matches!(
            &csp.constraints()[0],
            Constraint::In { values, .. } if values == &vec![2]
        ));
    }

    #[test]
    fn widen_domain_unions_values() {
        let mut csp = Csp::new();
        let x = csp.add_var("x", Domain::values([1, 2, 4]), VarCategory::Tunable);
        csp.widen_domain(x, [8, 2, 16]);
        let d = &csp.var(x).domain;
        assert_eq!(d.size(), 5);
        for v in [1, 2, 4, 8, 16] {
            assert!(d.contains(v), "{v}");
        }
    }

    #[test]
    fn fingerprint_distinguishes_solutions() {
        let a = Solution::new(vec![1, 2, 3]);
        let b = Solution::new(vec![1, 2, 4]);
        assert_ne!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.fingerprint(), Solution::new(vec![1, 2, 3]).fingerprint());
    }

    #[test]
    fn display_lists_vars_and_constraints() {
        let mut csp = Csp::new();
        let x = csp.add_var("x", Domain::values([1, 2, 4]), VarCategory::Tunable);
        let n = csp.add_const("n", 4);
        csp.post_le(x, n);
        let text = csp.to_string();
        assert!(text.contains("CSP: 2 variables, 1 constraints"));
        assert!(text.contains("x : [1, 2, 4]"));
        assert!(text.contains("LE(x0, x1)"));
    }

    #[test]
    fn space_size_counts_tunables_only() {
        let mut csp = Csp::new();
        csp.add_var(
            "t",
            Domain::values([1, 2, 4, 8, 16, 32, 64, 128, 256, 512]),
            VarCategory::Tunable,
        );
        csp.add_var("aux", Domain::range(0, 1_000_000), VarCategory::Other);
        assert!((csp.tunable_space_log10() - 1.0).abs() < 1e-9);
    }
}

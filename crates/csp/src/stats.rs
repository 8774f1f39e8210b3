//! Census of a constrained search space — reproduces the numbers behind the
//! paper's Tables 4 and 5 (how many variables of each category and how many
//! constraints describe an operator's space).

use std::collections::BTreeMap;

use crate::problem::{Csp, VarCategory};

/// Counts of variables (by category) and constraints (by type) in a CSP.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SpaceCensus {
    /// Architectural-constraint variables (paper Table 4 column 1).
    pub arch_vars: usize,
    /// Loop-length variables (column 2).
    pub loop_length_vars: usize,
    /// Tunable-parameter variables (column 3).
    pub tunable_vars: usize,
    /// Other auxiliary variables (column 4).
    pub other_vars: usize,
    /// Constraint counts keyed by type tag (`PROD`, `SUM`, …).
    pub constraints_by_type: BTreeMap<&'static str, usize>,
}

impl SpaceCensus {
    /// Computes the census of a CSP.
    pub fn of(csp: &Csp) -> Self {
        let mut census = SpaceCensus::default();
        for (_, decl) in csp.vars() {
            match decl.category {
                VarCategory::Arch => census.arch_vars += 1,
                VarCategory::LoopLength => census.loop_length_vars += 1,
                VarCategory::Tunable => census.tunable_vars += 1,
                VarCategory::Other => census.other_vars += 1,
            }
        }
        for c in csp.constraints() {
            *census.constraints_by_type.entry(c.type_tag()).or_insert(0) += 1;
        }
        census
    }

    /// Total variable count.
    pub fn total_vars(&self) -> usize {
        self.arch_vars + self.loop_length_vars + self.tunable_vars + self.other_vars
    }

    /// Total constraint count.
    pub fn total_constraints(&self) -> usize {
        self.constraints_by_type.values().sum()
    }
}

/// `(name, initial domain size)` for every tunable variable, in
/// declaration order — the coverage denominator the search-health log
/// registers before the first tuning round (per-variable coverage vs.
/// domain size in `insight.json`).
pub fn tunable_domains(csp: &Csp) -> Vec<(String, u64)> {
    csp.vars()
        .filter(|(_, d)| d.category == VarCategory::Tunable)
        .map(|(_, d)| (d.name.clone(), d.domain.size()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::Domain;

    #[test]
    fn census_counts_categories_and_types() {
        let mut csp = Csp::new();
        let m = csp.add_const("m", 16); // Arch
        let l = csp.add_var("C.i", Domain::range(1, 64), VarCategory::LoopLength);
        let t = csp.add_var("tile.C.i", Domain::divisors_of(64), VarCategory::Tunable);
        let o = csp.add_var("aux", Domain::boolean(), VarCategory::Other);
        csp.post_eq(l, t);
        csp.post_le(l, m);
        csp.post_in(o, [0, 1]);
        let c = SpaceCensus::of(&csp);
        assert_eq!(c.arch_vars, 1);
        assert_eq!(c.loop_length_vars, 1);
        assert_eq!(c.tunable_vars, 1);
        assert_eq!(c.other_vars, 1);
        assert_eq!(c.total_vars(), 4);
        assert_eq!(c.total_constraints(), 3);
        assert_eq!(c.constraints_by_type["EQ"], 1);
    }
}

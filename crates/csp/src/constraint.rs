//! The six constraint types of the paper's Table 7.

use std::fmt;

use crate::problem::VarRef;

/// A constraint over CSP variables.
///
/// | Type | Paper name | Meaning |
/// |------|-----------|---------|
/// | T1   | PROD      | `out = f1 * … * fn` |
/// | T2   | SUM       | `out = t1 + … + tn` |
/// | T3   | EQ        | `a = b` |
/// | T4   | LE        | `a <= b` |
/// | T5   | IN        | `var ∈ {c1, …, cn}` |
/// | T6   | SELECT    | `out = choices[index]` |
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Constraint {
    /// T1: `out == product of factors`.
    Prod {
        /// Product result.
        out: VarRef,
        /// Factor variables (at least one).
        factors: Vec<VarRef>,
    },
    /// T2: `out == sum of terms`.
    Sum {
        /// Sum result.
        out: VarRef,
        /// Term variables (at least one).
        terms: Vec<VarRef>,
    },
    /// T3: equality of two variables.
    Eq(VarRef, VarRef),
    /// T4: `lhs <= rhs`.
    Le(VarRef, VarRef),
    /// T5: membership in a constant set (sorted, deduplicated).
    In {
        /// Constrained variable.
        var: VarRef,
        /// Allowed values.
        values: Vec<i64>,
    },
    /// T6: `out == choices[index]`, `index ∈ [0, choices.len())`.
    Select {
        /// Selected value.
        out: VarRef,
        /// Selector (a tunable such as a compute_at location).
        index: VarRef,
        /// Candidate variables.
        choices: Vec<VarRef>,
    },
}

impl Constraint {
    /// All variables referenced by the constraint.
    pub fn vars(&self) -> Vec<VarRef> {
        match self {
            Constraint::Prod { out, factors } => {
                let mut v = vec![*out];
                v.extend_from_slice(factors);
                v
            }
            Constraint::Sum { out, terms } => {
                let mut v = vec![*out];
                v.extend_from_slice(terms);
                v
            }
            Constraint::Eq(a, b) | Constraint::Le(a, b) => vec![*a, *b],
            Constraint::In { var, .. } => vec![*var],
            Constraint::Select {
                out,
                index,
                choices,
            } => {
                let mut v = vec![*out, *index];
                v.extend_from_slice(choices);
                v
            }
        }
    }

    /// The constraint with every variable `v` replaced by `f(v)`.
    pub(crate) fn map_vars(&self, f: impl Fn(VarRef) -> VarRef) -> Constraint {
        let all = |vs: &[VarRef]| vs.iter().map(|&v| f(v)).collect();
        match self {
            Constraint::Prod { out, factors } => Constraint::Prod {
                out: f(*out),
                factors: all(factors),
            },
            Constraint::Sum { out, terms } => Constraint::Sum {
                out: f(*out),
                terms: all(terms),
            },
            Constraint::Eq(a, b) => Constraint::Eq(f(*a), f(*b)),
            Constraint::Le(a, b) => Constraint::Le(f(*a), f(*b)),
            Constraint::In { var, values } => Constraint::In {
                var: f(*var),
                values: values.clone(),
            },
            Constraint::Select {
                out,
                index,
                choices,
            } => Constraint::Select {
                out: f(*out),
                index: f(*index),
                choices: all(choices),
            },
        }
    }

    /// Checks the constraint against a complete assignment.
    pub fn check(&self, value: &dyn Fn(VarRef) -> i64) -> bool {
        match self {
            Constraint::Prod { out, factors } => {
                let mut p: i64 = 1;
                for f in factors {
                    p = p.saturating_mul(value(*f));
                }
                value(*out) == p
            }
            Constraint::Sum { out, terms } => {
                // Summed in i128 so that no assignment overflows.
                i128::from(value(*out)) == terms.iter().map(|t| i128::from(value(*t))).sum()
            }
            Constraint::Eq(a, b) => value(*a) == value(*b),
            Constraint::Le(a, b) => value(*a) <= value(*b),
            Constraint::In { var, values } => values.binary_search(&value(*var)).is_ok(),
            Constraint::Select {
                out,
                index,
                choices,
            } => {
                let i = value(*index);
                if i < 0 || i as usize >= choices.len() {
                    return false;
                }
                value(*out) == value(choices[i as usize])
            }
        }
    }

    /// Short type tag for census reporting (`PROD`, `SUM`, …).
    pub fn type_tag(&self) -> &'static str {
        match self {
            Constraint::Prod { .. } => "PROD",
            Constraint::Sum { .. } => "SUM",
            Constraint::Eq(..) => "EQ",
            Constraint::Le(..) => "LE",
            Constraint::In { .. } => "IN",
            Constraint::Select { .. } => "SELECT",
        }
    }
}

impl fmt::Display for Constraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Constraint::Prod { out, factors } => {
                write!(f, "PROD({out}, {factors:?})")
            }
            Constraint::Sum { out, terms } => write!(f, "SUM({out}, {terms:?})"),
            Constraint::Eq(a, b) => write!(f, "EQ({a}, {b})"),
            Constraint::Le(a, b) => write!(f, "LE({a}, {b})"),
            Constraint::In { var, values } => write!(f, "IN({var}, {values:?})"),
            Constraint::Select {
                out,
                index,
                choices,
            } => {
                write!(f, "SELECT({out}, {index}, {choices:?})")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env(vals: &[i64]) -> impl Fn(VarRef) -> i64 + '_ {
        move |r: VarRef| vals[r.0]
    }

    #[test]
    fn prod_check() {
        let c = Constraint::Prod {
            out: VarRef(0),
            factors: vec![VarRef(1), VarRef(2)],
        };
        assert!(c.check(&env(&[12, 3, 4])));
        assert!(!c.check(&env(&[11, 3, 4])));
    }

    #[test]
    fn sum_check() {
        let c = Constraint::Sum {
            out: VarRef(0),
            terms: vec![VarRef(1), VarRef(2)],
        };
        assert!(c.check(&env(&[7, 3, 4])));
        assert!(!c.check(&env(&[8, 3, 4])));
        let big = 1 << 62;
        assert!(c.check(&env(&[big + 1, big, 1])));
        // 2^62 + 2^62 is past i64::MAX: no i64 value equals it.
        assert!(!c.check(&env(&[i64::MIN, big, big])));
        assert!(!c.check(&env(&[i64::MAX, big, big])));
    }

    #[test]
    fn eq_le_check() {
        assert!(Constraint::Eq(VarRef(0), VarRef(1)).check(&env(&[5, 5])));
        assert!(Constraint::Le(VarRef(0), VarRef(1)).check(&env(&[4, 5])));
        assert!(!Constraint::Le(VarRef(0), VarRef(1)).check(&env(&[6, 5])));
    }

    #[test]
    fn in_check() {
        let c = Constraint::In {
            var: VarRef(0),
            values: vec![1, 2, 4, 8],
        };
        assert!(c.check(&env(&[4])));
        assert!(!c.check(&env(&[3])));
    }

    #[test]
    fn select_check() {
        let c = Constraint::Select {
            out: VarRef(0),
            index: VarRef(1),
            choices: vec![VarRef(2), VarRef(3)],
        };
        assert!(c.check(&env(&[40, 1, 30, 40])));
        assert!(!c.check(&env(&[30, 1, 30, 40])));
        assert!(!c.check(&env(&[30, 9, 30, 40]))); // index out of range
    }

    #[test]
    fn vars_cover_all_operands() {
        let c = Constraint::Select {
            out: VarRef(0),
            index: VarRef(1),
            choices: vec![VarRef(2), VarRef(3)],
        };
        assert_eq!(c.vars(), vec![VarRef(0), VarRef(1), VarRef(2), VarRef(3)]);
    }

    #[test]
    fn type_tags() {
        assert_eq!(Constraint::Eq(VarRef(0), VarRef(0)).type_tag(), "EQ");
    }
}

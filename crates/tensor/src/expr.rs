//! Scalar and index expressions over iteration variables.
//!
//! Index expressions are deliberately affine-ish: they are built from
//! iteration variables, integer constants, `+`, `-`, `*` and `min`/`max`,
//! which is all that the paper's nine operators (GEMM, convolutions, scan,
//! …) need. Keeping the language small lets the schedule generator perform
//! exact static analysis: tensorizability pattern-matching (Rule-S1), data
//! reuse detection (Rule-S2/S3) and footprint computation (Rule-C5).

use std::fmt;

use crate::tensor::Tensor;

/// Identifier of an [`IterVar`] unique within one stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarId(pub u32);

impl fmt::Display for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// Kind of an iteration variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IterKind {
    /// Spatial (data-parallel) axis: each value writes a distinct output
    /// element.
    Spatial,
    /// Reduction axis: values are accumulated into the same output element.
    Reduce,
}

/// An iteration variable: a named loop axis with a static extent.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct IterVar {
    /// Identifier, unique within the owning stage.
    pub id: VarId,
    /// Human-readable name (`i`, `j`, `rc`, …).
    pub name: String,
    /// Loop extent (trip count); always ≥ 1.
    pub extent: i64,
    /// Spatial or reduction axis.
    pub kind: IterKind,
}

impl IterVar {
    /// Creates a spatial iteration variable.
    ///
    /// # Panics
    /// Panics if `extent < 1`.
    pub fn spatial(id: u32, name: impl Into<String>, extent: i64) -> Self {
        assert!(extent >= 1, "iteration extent must be >= 1");
        IterVar {
            id: VarId(id),
            name: name.into(),
            extent,
            kind: IterKind::Spatial,
        }
    }

    /// Creates a reduction iteration variable.
    ///
    /// # Panics
    /// Panics if `extent < 1`.
    pub fn reduce(id: u32, name: impl Into<String>, extent: i64) -> Self {
        assert!(extent >= 1, "iteration extent must be >= 1");
        IterVar {
            id: VarId(id),
            name: name.into(),
            extent,
            kind: IterKind::Reduce,
        }
    }
}

/// An index expression used inside tensor accesses.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum IndexExpr {
    /// Integer literal.
    Const(i64),
    /// Reference to an iteration variable of the enclosing stage.
    Var(VarId),
    /// Sum of two index expressions.
    Add(Box<IndexExpr>, Box<IndexExpr>),
    /// Difference of two index expressions.
    Sub(Box<IndexExpr>, Box<IndexExpr>),
    /// Product of two index expressions.
    Mul(Box<IndexExpr>, Box<IndexExpr>),
    /// Floor division by a positive constant.
    Div(Box<IndexExpr>, i64),
    /// Remainder by a positive constant.
    Mod(Box<IndexExpr>, i64),
}

impl IndexExpr {
    /// Index expression referring to an iteration variable.
    pub fn var(v: &IterVar) -> Self {
        IndexExpr::Var(v.id)
    }

    /// Constant index expression.
    pub fn constant(c: i64) -> Self {
        IndexExpr::Const(c)
    }

    /// All iteration variables referenced by this expression.
    pub fn vars(&self) -> Vec<VarId> {
        let mut out = Vec::new();
        self.collect_vars(&mut out);
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Whether the expression reads variable `v`.
    pub(crate) fn mentions(&self, v: VarId) -> bool {
        match self {
            IndexExpr::Const(_) => false,
            IndexExpr::Var(x) => *x == v,
            IndexExpr::Add(a, b) | IndexExpr::Sub(a, b) | IndexExpr::Mul(a, b) => {
                a.mentions(v) || b.mentions(v)
            }
            IndexExpr::Div(a, _) | IndexExpr::Mod(a, _) => a.mentions(v),
        }
    }

    /// Calls `f` on every variable occurrence, repeats included.
    pub(crate) fn for_each_var(&self, f: &mut impl FnMut(VarId)) {
        match self {
            IndexExpr::Const(_) => {}
            IndexExpr::Var(v) => f(*v),
            IndexExpr::Add(a, b) | IndexExpr::Sub(a, b) | IndexExpr::Mul(a, b) => {
                a.for_each_var(f);
                b.for_each_var(f);
            }
            IndexExpr::Div(a, _) | IndexExpr::Mod(a, _) => a.for_each_var(f),
        }
    }

    fn collect_vars(&self, out: &mut Vec<VarId>) {
        self.for_each_var(&mut |v| out.push(v));
    }

    /// Evaluates the expression under a variable assignment.
    ///
    /// Returns `None` if a referenced variable is missing from `env`.
    pub fn eval(&self, env: &dyn Fn(VarId) -> Option<i64>) -> Option<i64> {
        Some(match self {
            IndexExpr::Const(c) => *c,
            IndexExpr::Var(v) => env(*v)?,
            IndexExpr::Add(a, b) => a.eval(env)? + b.eval(env)?,
            IndexExpr::Sub(a, b) => a.eval(env)? - b.eval(env)?,
            IndexExpr::Mul(a, b) => a.eval(env)? * b.eval(env)?,
            IndexExpr::Div(a, c) => a.eval(env)?.div_euclid(*c),
            IndexExpr::Mod(a, c) => a.eval(env)?.rem_euclid(*c),
        })
    }

    /// Inclusive (min, max) range of the expression when each variable `v`
    /// ranges over `[0, extent(v) - 1]`.
    ///
    /// Multiplication is only supported with at most one non-constant
    /// operand (affine usage), which holds for all built-in operators.
    pub fn range(&self, extent: &dyn Fn(VarId) -> i64) -> (i64, i64) {
        match self {
            IndexExpr::Const(c) => (*c, *c),
            IndexExpr::Var(v) => (0, extent(*v) - 1),
            IndexExpr::Add(a, b) => {
                let (al, ah) = a.range(extent);
                let (bl, bh) = b.range(extent);
                (al + bl, ah + bh)
            }
            IndexExpr::Sub(a, b) => {
                let (al, ah) = a.range(extent);
                let (bl, bh) = b.range(extent);
                (al - bh, ah - bl)
            }
            IndexExpr::Mul(a, b) => {
                let (al, ah) = a.range(extent);
                let (bl, bh) = b.range(extent);
                let corners = [al * bl, al * bh, ah * bl, ah * bh];
                (
                    corners.iter().copied().min().expect("non-empty"),
                    corners.iter().copied().max().expect("non-empty"),
                )
            }
            IndexExpr::Div(a, c) => {
                let (al, ah) = a.range(extent);
                (al.div_euclid(*c), ah.div_euclid(*c))
            }
            IndexExpr::Mod(_, c) => (0, *c - 1),
        }
    }

    /// Renders with variable names supplied by `name`.
    pub fn display_with(&self, name: &dyn Fn(VarId) -> String) -> String {
        match self {
            IndexExpr::Const(c) => c.to_string(),
            IndexExpr::Var(v) => name(*v),
            IndexExpr::Add(a, b) => {
                format!("({} + {})", a.display_with(name), b.display_with(name))
            }
            IndexExpr::Sub(a, b) => {
                format!("({} - {})", a.display_with(name), b.display_with(name))
            }
            IndexExpr::Mul(a, b) => {
                format!("({} * {})", a.display_with(name), b.display_with(name))
            }
            IndexExpr::Div(a, c) => format!("({} / {})", a.display_with(name), c),
            IndexExpr::Mod(a, c) => format!("({} % {})", a.display_with(name), c),
        }
    }
}

impl std::ops::Add for IndexExpr {
    type Output = IndexExpr;
    fn add(self, rhs: IndexExpr) -> IndexExpr {
        IndexExpr::Add(Box::new(self), Box::new(rhs))
    }
}

impl std::ops::Sub for IndexExpr {
    type Output = IndexExpr;
    fn sub(self, rhs: IndexExpr) -> IndexExpr {
        IndexExpr::Sub(Box::new(self), Box::new(rhs))
    }
}

impl std::ops::Mul for IndexExpr {
    type Output = IndexExpr;
    fn mul(self, rhs: IndexExpr) -> IndexExpr {
        IndexExpr::Mul(Box::new(self), Box::new(rhs))
    }
}

/// A read of one tensor element: `tensor[indices...]`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Access {
    /// Tensor being read.
    pub tensor: Tensor,
    /// One index expression per tensor dimension.
    pub indices: Vec<IndexExpr>,
}

impl Access {
    /// Creates an access, validating dimensionality.
    ///
    /// # Panics
    /// Panics if `indices.len()` differs from the tensor rank.
    pub fn new(tensor: Tensor, indices: Vec<IndexExpr>) -> Self {
        assert_eq!(
            tensor.shape.len(),
            indices.len(),
            "access to `{}` has {} indices but rank is {}",
            tensor.name,
            indices.len(),
            tensor.shape.len()
        );
        Access { tensor, indices }
    }

    /// Whether some index expression reads variable `v`.
    pub fn mentions(&self, v: VarId) -> bool {
        self.indices.iter().any(|i| i.mentions(v))
    }

    /// All iteration variables referenced by the access.
    pub fn vars(&self) -> Vec<VarId> {
        let mut out = Vec::new();
        for i in &self.indices {
            i.collect_vars(&mut out);
        }
        out.sort_unstable();
        out.dedup();
        out
    }
}

/// A scalar expression forming the body of a compute stage.
#[derive(Debug, Clone, PartialEq)]
pub enum ScalarExpr {
    /// Floating-point immediate.
    Imm(f64),
    /// Read of a tensor element.
    Load(Access),
    /// Addition.
    Add(Box<ScalarExpr>, Box<ScalarExpr>),
    /// Subtraction.
    Sub(Box<ScalarExpr>, Box<ScalarExpr>),
    /// Multiplication.
    Mul(Box<ScalarExpr>, Box<ScalarExpr>),
    /// Element-wise maximum (used by ReLU-style stages).
    Max(Box<ScalarExpr>, Box<ScalarExpr>),
    /// Conditional on an index predicate: `if lhs_index in [lo, hi] then
    /// value else 0` — used to express padding without a dedicated stage.
    Guarded {
        /// Index expression tested against the bounds.
        index: IndexExpr,
        /// Inclusive lower bound.
        lo: i64,
        /// Inclusive upper bound.
        hi: i64,
        /// Value produced when the guard holds.
        value: Box<ScalarExpr>,
    },
}

impl ScalarExpr {
    /// Load of a tensor element.
    pub fn load(tensor: Tensor, indices: Vec<IndexExpr>) -> Self {
        ScalarExpr::Load(Access::new(tensor, indices))
    }

    /// All tensor accesses in the expression, left to right.
    pub fn accesses(&self) -> Vec<&Access> {
        let mut out = Vec::new();
        self.for_each_access(&mut |a| out.push(a));
        out
    }

    /// Calls `f` on every tensor read, in [`ScalarExpr::accesses`] order,
    /// without collecting them.
    pub(crate) fn for_each_access<'a>(&'a self, f: &mut impl FnMut(&'a Access)) {
        match self {
            ScalarExpr::Imm(_) => {}
            ScalarExpr::Load(a) => f(a),
            ScalarExpr::Add(a, b)
            | ScalarExpr::Sub(a, b)
            | ScalarExpr::Mul(a, b)
            | ScalarExpr::Max(a, b) => {
                a.for_each_access(f);
                b.for_each_access(f);
            }
            ScalarExpr::Guarded { value, .. } => value.for_each_access(f),
        }
    }

    /// Whether the expression is a product of exactly two tensor loads —
    /// the multiply-accumulate pattern that Rule-S1 (Tensorize) matches.
    pub fn as_mac_pattern(&self) -> Option<(&Access, &Access)> {
        match self {
            ScalarExpr::Mul(a, b) => match (a.as_ref(), b.as_ref()) {
                (ScalarExpr::Load(x), ScalarExpr::Load(y)) => Some((x, y)),
                _ => None,
            },
            _ => None,
        }
    }

    /// Number of arithmetic operations (adds/muls/maxes) in one evaluation.
    pub fn op_count(&self) -> u64 {
        match self {
            ScalarExpr::Imm(_) | ScalarExpr::Load(_) => 0,
            ScalarExpr::Add(a, b)
            | ScalarExpr::Sub(a, b)
            | ScalarExpr::Mul(a, b)
            | ScalarExpr::Max(a, b) => 1 + a.op_count() + b.op_count(),
            ScalarExpr::Guarded { value, .. } => value.op_count(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dtype::DType;

    fn t(name: &str, shape: &[i64]) -> Tensor {
        Tensor::new(name, shape.to_vec(), DType::F16)
    }

    #[test]
    fn index_expr_vars_dedup() {
        let i = IterVar::spatial(0, "i", 4);
        let e = IndexExpr::var(&i) + IndexExpr::var(&i) * IndexExpr::constant(2);
        assert_eq!(e.vars(), vec![VarId(0)]);
    }

    #[test]
    fn index_expr_eval() {
        let i = IterVar::spatial(0, "i", 4);
        let r = IterVar::reduce(1, "r", 3);
        let e = IndexExpr::var(&i) * IndexExpr::constant(2) + IndexExpr::var(&r);
        let env = |v: VarId| -> Option<i64> {
            match v.0 {
                0 => Some(3),
                1 => Some(1),
                _ => None,
            }
        };
        assert_eq!(e.eval(&env), Some(7));
    }

    #[test]
    fn index_expr_range_affine() {
        let i = IterVar::spatial(0, "i", 8);
        let r = IterVar::reduce(1, "r", 3);
        // i + r - 1 ranges over [-1, 8]: the padded-convolution pattern.
        let e = IndexExpr::var(&i) + IndexExpr::var(&r) - IndexExpr::constant(1);
        let ext = |v: VarId| if v.0 == 0 { 8 } else { 3 };
        assert_eq!(e.range(&ext), (-1, 8));
    }

    #[test]
    fn access_rank_checked() {
        let a = t("A", &[4, 4]);
        let i = IterVar::spatial(0, "i", 4);
        let acc = Access::new(a, vec![IndexExpr::var(&i), IndexExpr::constant(0)]);
        assert_eq!(acc.vars(), vec![VarId(0)]);
    }

    #[test]
    #[should_panic(expected = "indices")]
    fn access_rank_mismatch_panics() {
        let a = t("A", &[4, 4]);
        Access::new(a, vec![IndexExpr::constant(0)]);
    }

    #[test]
    fn mac_pattern_detection() {
        let a = t("A", &[4, 4]);
        let b = t("B", &[4, 4]);
        let i = IterVar::spatial(0, "i", 4);
        let j = IterVar::spatial(1, "j", 4);
        let r = IterVar::reduce(2, "r", 4);
        let body = ScalarExpr::Mul(
            Box::new(ScalarExpr::load(
                a,
                vec![IndexExpr::var(&i), IndexExpr::var(&r)],
            )),
            Box::new(ScalarExpr::load(
                b,
                vec![IndexExpr::var(&r), IndexExpr::var(&j)],
            )),
        );
        let (x, y) = body.as_mac_pattern().expect("is a MAC");
        assert_eq!(x.tensor.name, "A");
        assert_eq!(y.tensor.name, "B");
        assert_eq!(body.op_count(), 1);
    }

    #[test]
    fn non_mac_patterns_rejected() {
        let a = t("A", &[4]);
        let i = IterVar::spatial(0, "i", 4);
        let e = ScalarExpr::Add(
            Box::new(ScalarExpr::load(a, vec![IndexExpr::var(&i)])),
            Box::new(ScalarExpr::Imm(1.0)),
        );
        assert!(e.as_mac_pattern().is_none());
    }
}

//! Linear expression builder.
//!
//! Colog selection expressions such as `C == V * Cpu` (where `Cpu` is a
//! constant from a regular table and `V` a solver variable) and aggregates
//! such as `SUM<C>` compile into linear expressions over solver variables.
//! [`LinExpr`] is the convenience type used by the Cologne runtime to
//! accumulate these terms before posting them into a [`crate::Model`].

use crate::model::VarId;

/// A linear expression `Σ coeff_i · var_i + constant`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LinExpr {
    /// Terms of the expression. Multiple terms over the same variable are
    /// allowed and are merged by [`LinExpr::normalized`].
    pub terms: Vec<(i64, VarId)>,
    /// Constant offset.
    pub constant: i64,
}

impl LinExpr {
    /// The expression `0`.
    pub fn zero() -> Self {
        LinExpr::default()
    }

    /// A constant expression.
    pub fn constant(c: i64) -> Self {
        LinExpr {
            terms: Vec::new(),
            constant: c,
        }
    }

    /// The expression `1 · v`.
    pub fn var(v: VarId) -> Self {
        LinExpr {
            terms: vec![(1, v)],
            constant: 0,
        }
    }

    /// The expression `coeff · v`.
    pub fn scaled_var(coeff: i64, v: VarId) -> Self {
        LinExpr {
            terms: vec![(coeff, v)],
            constant: 0,
        }
    }

    /// Add a term in place.
    pub fn add_term(&mut self, coeff: i64, v: VarId) {
        self.terms.push((coeff, v));
    }

    /// Add a constant in place.
    pub fn add_constant(&mut self, c: i64) {
        self.constant += c;
    }

    /// Add another expression in place.
    pub fn add_expr(&mut self, other: &LinExpr) {
        self.terms.extend_from_slice(&other.terms);
        self.constant += other.constant;
    }

    /// Return `self + other`.
    pub fn plus(&self, other: &LinExpr) -> LinExpr {
        let mut out = self.clone();
        out.add_expr(other);
        out
    }

    /// Return `self - other`.
    pub fn minus(&self, other: &LinExpr) -> LinExpr {
        let mut out = self.clone();
        for &(c, v) in &other.terms {
            out.terms.push((-c, v));
        }
        out.constant -= other.constant;
        out
    }

    /// Return `k · self`.
    pub fn scale(&self, k: i64) -> LinExpr {
        LinExpr {
            terms: self.terms.iter().map(|&(c, v)| (c * k, v)).collect(),
            constant: self.constant * k,
        }
    }

    /// True if the expression has no variable terms (after normalization).
    pub fn is_constant(&self) -> bool {
        self.normalized().terms.is_empty()
    }

    /// The variable `v` when the expression is exactly `1 · v` (as written:
    /// the check does not normalize).
    pub fn as_var(&self) -> Option<VarId> {
        match self.terms[..] {
            [(1, v)] if self.constant == 0 => Some(v),
            _ => None,
        }
    }

    /// Value of the expression under an assignment of its variables.
    pub fn eval(&self, value: impl Fn(VarId) -> i64) -> i64 {
        self.terms
            .iter()
            .fold(self.constant, |acc, &(c, v)| acc + c * value(v))
    }

    /// Merge duplicate variables and drop zero coefficients.
    pub fn normalized(&self) -> LinExpr {
        let mut merged: Vec<(i64, VarId)> = Vec::with_capacity(self.terms.len());
        let mut sorted = self.terms.clone();
        sorted.sort_by_key(|&(_, v)| v);
        for (c, v) in sorted {
            match merged.last_mut() {
                Some((mc, mv)) if *mv == v => *mc += c,
                _ => merged.push((c, v)),
            }
        }
        merged.retain(|&(c, _)| c != 0);
        LinExpr {
            terms: merged,
            constant: self.constant,
        }
    }
}

impl From<VarId> for LinExpr {
    fn from(v: VarId) -> Self {
        LinExpr::var(v)
    }
}

impl From<i64> for LinExpr {
    fn from(c: i64) -> Self {
        LinExpr::constant(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Model;

    #[test]
    fn build_and_normalize() {
        let mut m = Model::new();
        let x = m.new_var(0, 5);
        let y = m.new_var(0, 5);
        let mut e = LinExpr::var(x);
        e.add_term(2, y);
        e.add_term(3, x);
        e.add_constant(7);
        let n = e.normalized();
        assert_eq!(n.constant, 7);
        assert_eq!(n.terms.len(), 2);
        assert!(n.terms.contains(&(4, x)));
        assert!(n.terms.contains(&(2, y)));
    }

    #[test]
    fn arithmetic_combinators() {
        let mut m = Model::new();
        let x = m.new_var(0, 5);
        let y = m.new_var(0, 5);
        let a = LinExpr::var(x).plus(&LinExpr::scaled_var(2, y));
        let b = a.minus(&LinExpr::var(x));
        let n = b.normalized();
        assert_eq!(n.terms, vec![(2, y)]);
        let s = n.scale(-3);
        assert_eq!(s.terms, vec![(-6, y)]);
    }

    #[test]
    fn zero_coefficients_dropped() {
        let mut m = Model::new();
        let x = m.new_var(0, 5);
        let e = LinExpr::var(x).minus(&LinExpr::var(x)).normalized();
        assert!(e.is_constant());
        assert_eq!(e.constant, 0);
    }

    #[test]
    fn as_var_and_eval() {
        let mut m = Model::new();
        let x = m.new_var(0, 5);
        let y = m.new_var(0, 5);
        assert_eq!(LinExpr::var(x).as_var(), Some(x));
        assert_eq!(LinExpr::scaled_var(2, x).as_var(), None);
        assert_eq!(LinExpr::var(x).plus(&LinExpr::constant(1)).as_var(), None);
        let e = LinExpr::scaled_var(3, x)
            .minus(&LinExpr::var(y))
            .plus(&LinExpr::constant(4));
        let value = |v: VarId| if v == x { 2 } else { 5 };
        assert_eq!(e.eval(value), 3 * 2 - 5 + 4);
    }

    #[test]
    fn conversions() {
        let mut m = Model::new();
        let x = m.new_var(0, 1);
        let from_var: LinExpr = x.into();
        assert_eq!(from_var.terms, vec![(1, x)]);
        let from_const: LinExpr = 5i64.into();
        assert_eq!(from_const.constant, 5);
        assert!(from_const.is_constant());
    }
}

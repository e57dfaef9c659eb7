//! Reified (boolean-controlled) linear constraints.
//!
//! Colog's conditional expressions compile into reified constraints. For
//! example `(V==1)==(C==1)` in the ACloud migration-count rule becomes two
//! reified equalities sharing the same boolean, and the wireless
//! interference cost `(C==1)==(|C1-C2| < F_mindiff)` becomes a reified
//! inequality over an absolute-value view.

use crate::model::VarId;
use crate::propagator::{Conflict, PropStatus, Propagator, PropagatorContext};

fn term_min(coeff: i64, ctx: &PropagatorContext<'_>, v: VarId) -> i64 {
    if coeff >= 0 {
        coeff * ctx.min(v)
    } else {
        coeff * ctx.max(v)
    }
}

fn term_max(coeff: i64, ctx: &PropagatorContext<'_>, v: VarId) -> i64 {
    if coeff >= 0 {
        coeff * ctx.max(v)
    } else {
        coeff * ctx.min(v)
    }
}

fn ceil_div(a: i64, b: i64) -> i64 {
    let q = a / b;
    if a % b != 0 && ((a < 0) == (b < 0)) {
        q + 1
    } else {
        q
    }
}

/// `b == 1  <=>  Σ coeff_i · x_i <= bound`, where `b` is a 0/1 variable.
#[derive(Debug, Clone)]
pub struct ReifLinearLe {
    pub b: VarId,
    pub terms: Vec<(i64, VarId)>,
    pub bound: i64,
}

impl ReifLinearLe {
    pub fn new(b: VarId, terms: Vec<(i64, VarId)>, bound: i64) -> Self {
        ReifLinearLe { b, terms, bound }
    }

    fn sum_bounds(&self, ctx: &PropagatorContext<'_>) -> (i64, i64) {
        let lo = self.terms.iter().map(|&(c, v)| term_min(c, ctx, v)).sum();
        let hi = self.terms.iter().map(|&(c, v)| term_max(c, ctx, v)).sum();
        (lo, hi)
    }
}

impl Propagator for ReifLinearLe {
    fn name(&self) -> &'static str {
        "reif_linear_le"
    }

    fn dependencies(&self) -> Vec<VarId> {
        let mut v: Vec<VarId> = self.terms.iter().map(|&(_, x)| x).collect();
        v.push(self.b);
        v
    }

    fn prune(&self, ctx: &mut PropagatorContext<'_>) -> Result<PropStatus, Conflict> {
        let (lo, hi) = self.sum_bounds(ctx);
        // Entailment detection drives the boolean.
        if hi <= self.bound {
            ctx.assign(self.b, 1)?;
            return Ok(PropStatus::Entailed);
        }
        if lo > self.bound {
            ctx.assign(self.b, 0)?;
            return Ok(PropStatus::Entailed);
        }
        // If the boolean is decided, enforce/forbid the inequality.
        match ctx.fixed_value(self.b) {
            Some(1) => {
                // enforce Σ <= bound
                for &(c, v) in &self.terms {
                    if c == 0 {
                        continue;
                    }
                    let rest_min = lo - term_min(c, ctx, v);
                    let slack = self.bound - rest_min;
                    if c > 0 {
                        ctx.set_max(v, slack.div_euclid(c))?;
                    } else {
                        ctx.set_min(v, ceil_div(slack, c))?;
                    }
                }
                Ok(PropStatus::Active)
            }
            Some(0) => {
                // enforce Σ >= bound + 1, i.e. Σ(-c) <= -(bound+1)
                let neg_bound = -(self.bound + 1);
                for &(c, v) in &self.terms {
                    if c == 0 {
                        continue;
                    }
                    let nc = -c;
                    let rest_min: i64 = self
                        .terms
                        .iter()
                        .filter(|&&(_, w)| w != v)
                        .map(|&(cc, w)| term_min(-cc, ctx, w))
                        .sum();
                    let slack = neg_bound - rest_min;
                    if nc > 0 {
                        ctx.set_max(v, slack.div_euclid(nc))?;
                    } else {
                        ctx.set_min(v, ceil_div(slack, nc))?;
                    }
                }
                Ok(PropStatus::Active)
            }
            Some(_) => Err(Conflict),
            None => Ok(PropStatus::Active),
        }
    }

    fn check(&self, values: &dyn Fn(VarId) -> i64) -> bool {
        let s: i64 = self.terms.iter().map(|&(c, v)| c * values(v)).sum();
        let holds = s <= self.bound;
        (values(self.b) == 1) == holds
    }
}

/// `b == 1  <=>  Σ coeff_i · x_i == bound`, where `b` is a 0/1 variable.
#[derive(Debug, Clone)]
pub struct ReifLinearEq {
    pub b: VarId,
    pub terms: Vec<(i64, VarId)>,
    pub bound: i64,
}

impl ReifLinearEq {
    pub fn new(b: VarId, terms: Vec<(i64, VarId)>, bound: i64) -> Self {
        ReifLinearEq { b, terms, bound }
    }
}

impl Propagator for ReifLinearEq {
    fn name(&self) -> &'static str {
        "reif_linear_eq"
    }

    fn dependencies(&self) -> Vec<VarId> {
        let mut v: Vec<VarId> = self.terms.iter().map(|&(_, x)| x).collect();
        v.push(self.b);
        v
    }

    fn prune(&self, ctx: &mut PropagatorContext<'_>) -> Result<PropStatus, Conflict> {
        let lo: i64 = self.terms.iter().map(|&(c, v)| term_min(c, ctx, v)).sum();
        let hi: i64 = self.terms.iter().map(|&(c, v)| term_max(c, ctx, v)).sum();
        if lo == self.bound && hi == self.bound {
            ctx.assign(self.b, 1)?;
            return Ok(PropStatus::Entailed);
        }
        if lo > self.bound || hi < self.bound {
            ctx.assign(self.b, 0)?;
            return Ok(PropStatus::Entailed);
        }
        match ctx.fixed_value(self.b) {
            Some(1) => {
                // enforce equality (bounds reasoning as in LinearEq)
                for &(c, v) in &self.terms {
                    if c == 0 {
                        continue;
                    }
                    let rest_min = lo - term_min(c, ctx, v);
                    let rest_max = hi - term_max(c, ctx, v);
                    let lo_c = self.bound - rest_max;
                    let hi_c = self.bound - rest_min;
                    let (l, h) = if c > 0 {
                        (ceil_div(lo_c, c), hi_c.div_euclid(c))
                    } else {
                        // Sound but not bounds-consistent for c < -1: see
                        // the same bound in `LinearEq::prune`.
                        (ceil_div(hi_c, c), lo_c.div_euclid(c))
                    };
                    ctx.intersect(v, l, h)?;
                }
                Ok(PropStatus::Active)
            }
            Some(0) => {
                // disequality: only propagate when one unfixed var remains
                let mut unfixed: Option<(i64, VarId)> = None;
                let mut fixed_sum = 0i64;
                for &(c, v) in &self.terms {
                    match ctx.fixed_value(v) {
                        Some(val) => fixed_sum += c * val,
                        None => {
                            if unfixed.is_some() {
                                return Ok(PropStatus::Active);
                            }
                            unfixed = Some((c, v));
                        }
                    }
                }
                match unfixed {
                    None => {
                        if fixed_sum == self.bound {
                            Err(Conflict)
                        } else {
                            Ok(PropStatus::Entailed)
                        }
                    }
                    // A zero coefficient leaves the sum fixed already.
                    Some((0, _)) if fixed_sum == self.bound => Err(Conflict),
                    Some((0, _)) => Ok(PropStatus::Entailed),
                    Some((c, v)) => {
                        let remaining = self.bound - fixed_sum;
                        if remaining % c == 0 {
                            ctx.remove_value(v, remaining / c)?;
                        }
                        Ok(PropStatus::Entailed)
                    }
                }
            }
            Some(_) => Err(Conflict),
            None => Ok(PropStatus::Active),
        }
    }

    fn check(&self, values: &dyn Fn(VarId) -> i64) -> bool {
        let s: i64 = self.terms.iter().map(|&(c, v)| c * values(v)).sum();
        (values(self.b) == 1) == (s == self.bound)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Model, SearchConfig};

    #[test]
    fn reif_eq_false_with_zero_coefficient_on_the_open_variable() {
        // b = 0 means 3x + 0y != 0, which x = 0 violates whatever y is.
        let mut m = Model::new();
        let b = m.new_var(0, 0);
        let x = m.new_var(0, 0);
        let y = m.new_var(0, 7);
        m.reif_linear_eq(b, &[(3, x), (0, y)], 0);
        assert!(m.propagate_root().is_err());
    }

    #[test]
    fn reif_le_entailed_sets_bool() {
        let mut m = Model::new();
        let x = m.new_var(0, 3);
        let b = m.new_var(0, 1);
        m.post(ReifLinearLe::new(b, vec![(1, x)], 5));
        m.propagate_root().unwrap();
        assert_eq!(m.domain(b).fixed_value(), Some(1));
    }

    #[test]
    fn reif_le_violated_clears_bool() {
        let mut m = Model::new();
        let x = m.new_var(6, 9);
        let b = m.new_var(0, 1);
        m.post(ReifLinearLe::new(b, vec![(1, x)], 5));
        m.propagate_root().unwrap();
        assert_eq!(m.domain(b).fixed_value(), Some(0));
    }

    #[test]
    fn reif_le_bool_true_enforces() {
        let mut m = Model::new();
        let x = m.new_var(0, 10);
        let b = m.new_var(1, 1);
        m.post(ReifLinearLe::new(b, vec![(1, x)], 5));
        m.propagate_root().unwrap();
        assert_eq!(m.domain(x).max(), 5);
    }

    #[test]
    fn reif_le_bool_false_enforces_negation() {
        let mut m = Model::new();
        let x = m.new_var(0, 10);
        let b = m.new_var(0, 0);
        m.post(ReifLinearLe::new(b, vec![(1, x)], 5));
        m.propagate_root().unwrap();
        assert_eq!(m.domain(x).min(), 6);
    }

    #[test]
    fn reif_eq_detects_equality_and_inequality() {
        let mut m = Model::new();
        let x = m.new_var(4, 4);
        let b = m.new_var(0, 1);
        m.post(ReifLinearEq::new(b, vec![(1, x)], 4));
        m.propagate_root().unwrap();
        assert_eq!(m.domain(b).fixed_value(), Some(1));

        let mut m2 = Model::new();
        let y = m2.new_var(0, 3);
        let b2 = m2.new_var(0, 1);
        m2.post(ReifLinearEq::new(b2, vec![(1, y)], 9));
        m2.propagate_root().unwrap();
        assert_eq!(m2.domain(b2).fixed_value(), Some(0));
    }

    #[test]
    fn reif_eq_forced_true_fixes_var() {
        let mut m = Model::new();
        let x = m.new_var(0, 10);
        let b = m.new_var(1, 1);
        m.post(ReifLinearEq::new(b, vec![(1, x)], 7));
        m.propagate_root().unwrap();
        assert_eq!(m.domain(x).fixed_value(), Some(7));
    }

    #[test]
    fn reif_eq_forced_false_removes_value() {
        let mut m = Model::new();
        let x = m.new_var(0, 10);
        let b = m.new_var(0, 0);
        m.post(ReifLinearEq::new(b, vec![(1, x)], 7));
        m.propagate_root().unwrap();
        assert!(!m.domain(x).contains(7));
    }

    #[test]
    fn equivalence_of_two_conditions_via_shared_bool() {
        // (v == 1) == (c == 1): searching all solutions must give v == c.
        let mut m = Model::new();
        let v = m.new_var(0, 1);
        let c = m.new_var(0, 1);
        let b = m.new_var(0, 1);
        m.post(ReifLinearEq::new(b, vec![(1, v)], 1));
        m.post(ReifLinearEq::new(b, vec![(1, c)], 1));
        let sols = m.solve_all(&SearchConfig::default());
        assert_eq!(sols.solutions.len(), 2);
        for s in &sols.solutions {
            assert_eq!(s.value(v), s.value(c));
        }
    }

    #[test]
    fn reified_check_functions() {
        let mut m = Model::new();
        let x = m.new_var(0, 10);
        let b = m.new_var(0, 1);
        let p = ReifLinearLe::new(b, vec![(1, x)], 5);
        assert!(p.check(&|v| if v == x { 3 } else { 1 }));
        assert!(p.check(&|v| if v == x { 8 } else { 0 }));
        assert!(!p.check(&|v| if v == x { 8 } else { 1 }));
        let q = ReifLinearEq::new(b, vec![(1, x)], 5);
        assert!(q.check(&|v| if v == x { 5 } else { 1 }));
        assert!(!q.check(&|v| if v == x { 5 } else { 0 }));
    }
}

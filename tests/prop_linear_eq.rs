//! Differential test of the linear equality propagators against brute
//! force: every solution of a random small `linear_eq` or `reif_linear_eq`
//! model (coefficients in −5..=5) is enumerated by the solver and compared
//! with the set of assignments that satisfy the constraint.
//!
//! This pins soundness, not bounds consistency: for a coefficient `c < -1`
//! both propagators bound the variable from above one past the floor when
//! `c` does not divide the bound (see the comments at the `div_euclid`
//! calls), which search then refutes. A lost solution or a wrong one fails
//! here.

use std::collections::BTreeSet;

use proptest::prelude::*;

use cologne_solver::{Model, SearchConfig, VarId};

/// Every assignment of `domains` (inclusive bounds) in lexicographic order.
fn assignments(domains: &[(i64, i64)]) -> Vec<Vec<i64>> {
    let mut out = vec![Vec::new()];
    for &(lo, hi) in domains {
        out = out
            .into_iter()
            .flat_map(|prefix| {
                (lo..=hi).map(move |v| {
                    let mut next = prefix.clone();
                    next.push(v);
                    next
                })
            })
            .collect();
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn linear_equalities_enumerate_exactly_the_brute_force_solutions(
        domains in prop::collection::vec((-4i64..2, 0i64..5), 1..4),
        coeffs in prop::collection::vec(-5i64..6, 3..4),
        bound in -12i64..13,
        reified in prop::bool::ANY,
    ) {
        let domains: Vec<(i64, i64)> =
            domains.iter().map(|&(lo, width)| (lo, lo + width)).collect();
        let mut m = Model::new();
        let vars: Vec<VarId> = domains.iter().map(|&(lo, hi)| m.new_var(lo, hi)).collect();
        let terms: Vec<(i64, VarId)> = coeffs.iter().copied().zip(vars.iter().copied()).collect();
        let sum = |values: &[i64]| -> i64 {
            coeffs.iter().zip(values).map(|(c, v)| c * v).sum()
        };
        let (solver, expected): (Vec<Vec<i64>>, BTreeSet<Vec<i64>>) = if reified {
            let b = m.new_bool();
            m.reif_linear_eq(b, &terms, bound);
            let out = m.solve_all(&SearchConfig::default());
            prop_assert!(out.complete);
            let mut all = vars.clone();
            all.push(b);
            let solver = out
                .solutions
                .iter()
                .map(|s| all.iter().map(|&v| s.value(v)).collect())
                .collect();
            let expected = assignments(&domains)
                .into_iter()
                .map(|mut values| {
                    let holds = sum(&values) == bound;
                    values.push(i64::from(holds));
                    values
                })
                .collect();
            (solver, expected)
        } else {
            m.linear_eq(&terms, bound);
            let out = m.solve_all(&SearchConfig::default());
            prop_assert!(out.complete);
            let solver = out
                .solutions
                .iter()
                .map(|s| vars.iter().map(|&v| s.value(v)).collect())
                .collect();
            let expected = assignments(&domains)
                .into_iter()
                .filter(|values| sum(values) == bound)
                .collect();
            (solver, expected)
        };
        let found: BTreeSet<Vec<i64>> = solver.iter().cloned().collect();
        prop_assert!(found.len() == solver.len(), "a solution was reported twice");
        prop_assert_eq!(found, expected);
    }
}

/// The example of the comments in `linear.rs`/`reified.rs`: root
/// propagation bounds `x` by 3 where 2 is the largest supported value; the
/// bound is sound, and search refutes `x = 3`.
#[test]
fn negative_coefficient_bound_is_sound() {
    let mut m = Model::new();
    let x = m.new_var(0, 10);
    let y = m.new_var(0, 5);
    m.linear_eq(&[(-2, x), (1, y)], 0);
    m.propagate_root().expect("feasible");
    assert!(m.domain(x).max() >= 2, "a supported value was pruned");
    let xs: BTreeSet<i64> = m
        .solve_all(&SearchConfig::default())
        .solutions
        .iter()
        .map(|s| s.value(x))
        .collect();
    assert_eq!(xs, (0..=2).collect());
}

//! Brute-force oracle tests: every exact kernel is compared against a naive
//! `O(n · distinct)` scan that recomputes both children's impurities from
//! scratch for each candidate condition. The classification oracles demand
//! *bitwise* gain equality — identical integer counts feed the same impurity
//! function, so the incremental kernels must land on the same floats. The
//! regression oracles allow a small tolerance because the kernels accumulate
//! `sum`/`sum_sq` incrementally while the oracle resums from scratch.
//!
//! The Gini boundary scan keeps `Σ c²` per side as an integer updated in
//! `O(1)` per row; its oracle here is the brute-force scan through the
//! `O(k)` [`ClassCounts::weighted_impurity`] sum, over several class counts
//! and columns full of duplicates, infinities, signed zeros and NaN. Case
//! seeds derive from `TS_SEED`.

use ts_datatable::SortedColumn;
use ts_datatable::MISSING_CAT;
use ts_splits::exact::{
    best_cat_split_classification, best_cat_split_regression, best_numeric_split,
};
use ts_splits::impurity::{ClassCounts, Impurity, LabelView, RegAgg};
use ts_splits::sorted::{best_split_at, ColumnRef, NodeRows};
use tscheck::prelude::*;

const K: u32 = 3;

fn numeric_class_data() -> impl Strategy<Value = (Vec<f64>, Vec<u32>)> {
    (2usize..100).prop_flat_map(|n| {
        (
            tscheck::collection::vec(prop_oneof![5 => -40.0..40.0f64, 1 => Just(f64::NAN)], n),
            tscheck::collection::vec(0u32..K, n),
        )
    })
}

/// Columns built to stress the boundary scan: few distinct values (heavy
/// duplicates), both infinities, both zeros (equal under `<`, so never a
/// boundary between them) and missing rows.
fn special_values(n: usize) -> impl Strategy<Value = Vec<f64>> {
    tscheck::collection::vec(
        prop_oneof![
            4 => (0u32..6).prop_map(|i| f64::from(i) * 0.5),
            2 => -40.0..40.0f64,
            1 => Just(f64::INFINITY),
            1 => Just(f64::NEG_INFINITY),
            1 => Just(0.0),
            1 => Just(-0.0),
            1 => Just(f64::NAN),
        ],
        n,
    )
}

/// Naive exact numeric split for classification: for every boundary between
/// adjacent distinct present values, rebuild both children's class counts
/// from scratch and take the best strictly-positive gain.
fn oracle_numeric_class(values: &[f64], ys: &[u32], imp: Impurity) -> Option<f64> {
    oracle_numeric_k(values, ys, K, imp)
}

/// [`oracle_numeric_class`] for `k` classes.
fn oracle_numeric_k(values: &[f64], ys: &[u32], k: u32, imp: Impurity) -> Option<f64> {
    let mut distinct: Vec<f64> = values.iter().copied().filter(|v| !v.is_nan()).collect();
    distinct.sort_unstable_by(f64::total_cmp);
    distinct.dedup();
    if distinct.len() < 2 {
        return None;
    }
    let mut total = ClassCounts::new(k);
    for (i, v) in values.iter().enumerate() {
        if !v.is_nan() {
            total.add(ys[i]);
        }
    }
    let total_w = total.weighted_impurity(imp);
    let mut best: Option<f64> = None;
    for cut in &distinct[..distinct.len() - 1] {
        let mut left = ClassCounts::new(k);
        let mut right = ClassCounts::new(k);
        for (i, v) in values.iter().enumerate() {
            if v.is_nan() {
                continue;
            }
            if *v <= *cut {
                left.add(ys[i]);
            } else {
                right.add(ys[i]);
            }
        }
        let gain = total_w - left.weighted_impurity(imp) - right.weighted_impurity(imp);
        if gain > 0.0 && best.is_none_or(|b| gain > b) {
            best = Some(gain);
        }
    }
    best
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Numeric classification, Gini and entropy: the kernel's gain equals
    /// the oracle's best gain bitwise, and a split exists iff the oracle
    /// finds one.
    #[test]
    fn numeric_class_matches_oracle((values, ys) in numeric_class_data()) {
        for imp in [Impurity::Gini, Impurity::Entropy] {
            let kernel = best_numeric_split(&values, LabelView::Class(&ys, K), imp);
            let oracle = oracle_numeric_class(&values, &ys, imp);
            match (&kernel, oracle) {
                (Some(s), Some(g)) => prop_assert_eq!(
                    s.gain.total_cmp(&g),
                    std::cmp::Ordering::Equal,
                    "kernel gain {} != oracle gain {} ({:?})", s.gain, g, imp
                ),
                (None, None) => {}
                _ => prop_assert!(
                    false,
                    "kernel {:?} vs oracle {:?} disagree on splittability", kernel, oracle
                ),
            }
        }
    }

    /// Gini at k = 2, 7 and 33 classes: the `O(1)`-per-row scan's gain is
    /// the brute-force `O(k)` gain bit for bit, through both the gathered
    /// kernel and the sorted-column engine.
    #[test]
    fn gini_scan_matches_bruteforce_bitwise(
        (k, values, ys) in (prop_oneof![Just(2u32), Just(7u32), Just(33u32)], 2usize..160)
            .prop_flat_map(|(k, n)| {
                (Just(k), special_values(n), tscheck::collection::vec(0u32..k, n))
            })
    ) {
        let labels = LabelView::Class(&ys, k);
        let oracle = oracle_numeric_k(&values, &ys, k, Impurity::Gini);
        let index = SortedColumn::from_numeric(&values);
        let col = ColumnRef::Numeric { values: &values, index: &index };
        let kernels = [
            best_numeric_split(&values, labels, Impurity::Gini),
            best_split_at(col, NodeRows::All(values.len()), None, labels, Impurity::Gini),
        ];
        for kernel in &kernels {
            prop_assert_eq!(
                kernel.as_ref().map(|s| s.gain.to_bits()),
                oracle.map(f64::to_bits),
                "k={}: kernel {:?} vs oracle {:?}", k, kernel, oracle
            );
        }
    }

    /// Numeric regression: same scan with fresh `RegAgg`s per boundary;
    /// tolerance because of the differing summation order.
    #[test]
    fn numeric_regression_matches_oracle(
        values in tscheck::collection::vec(
            prop_oneof![5 => -40.0..40.0f64, 1 => Just(f64::NAN)], 2..100),
        ys in tscheck::collection::vec(-10.0..10.0f64, 100),
    ) {
        let ys = &ys[..values.len()];
        let kernel_gain = best_numeric_split(&values, LabelView::Real(ys), Impurity::Variance)
            .map_or(0.0, |s| s.gain);
        let mut distinct: Vec<f64> = values.iter().copied().filter(|v| !v.is_nan()).collect();
        distinct.sort_unstable_by(f64::total_cmp);
        distinct.dedup();
        let mut total = RegAgg::default();
        for (i, v) in values.iter().enumerate() {
            if !v.is_nan() {
                total.add(ys[i]);
            }
        }
        let total_w = total.weighted_impurity();
        let mut oracle_gain: f64 = 0.0;
        if distinct.len() >= 2 {
            for cut in &distinct[..distinct.len() - 1] {
                let mut left = RegAgg::default();
                let mut right = RegAgg::default();
                for (i, v) in values.iter().enumerate() {
                    if v.is_nan() {
                        continue;
                    }
                    if *v <= *cut { left.add(ys[i]) } else { right.add(ys[i]) }
                }
                oracle_gain =
                    oracle_gain.max(total_w - left.weighted_impurity() - right.weighted_impurity());
            }
        }
        prop_assert!(
            (kernel_gain - oracle_gain).abs() <= 1e-7 * oracle_gain.abs().max(1.0),
            "kernel {} vs oracle {}", kernel_gain, oracle_gain
        );
    }

    /// Categorical classification (one-vs-rest, Appendix B Case 3): fresh
    /// per-code recount must reproduce the kernel's gain bitwise.
    #[test]
    fn categorical_class_matches_oracle(
        raw in tscheck::collection::vec(
            prop_oneof![6 => 0u32..5, 1 => Just(MISSING_CAT)], 2..100),
        ys in tscheck::collection::vec(0u32..K, 100),
    ) {
        let ys = &ys[..raw.len()];
        let kernel = best_cat_split_classification(&raw, 5, ys, K, Impurity::Gini);
        let mut total = ClassCounts::new(K);
        for (i, &c) in raw.iter().enumerate() {
            if c != MISSING_CAT {
                total.add(ys[i]);
            }
        }
        let mut oracle: Option<f64> = None;
        if total.total() >= 2 {
            let total_w = total.weighted_impurity(Impurity::Gini);
            for code in 0u32..5 {
                let mut left = ClassCounts::new(K);
                let mut right = ClassCounts::new(K);
                for (i, &c) in raw.iter().enumerate() {
                    if c == MISSING_CAT {
                        continue;
                    }
                    if c == code { left.add(ys[i]) } else { right.add(ys[i]) }
                }
                if left.total() == 0 || right.total() == 0 {
                    continue;
                }
                let gain = total_w
                    - left.weighted_impurity(Impurity::Gini)
                    - right.weighted_impurity(Impurity::Gini);
                if gain > 0.0 && oracle.is_none_or(|b| gain > b) {
                    oracle = Some(gain);
                }
            }
        }
        match (&kernel, oracle) {
            (Some(s), Some(g)) => prop_assert_eq!(
                s.gain.total_cmp(&g),
                std::cmp::Ordering::Equal,
                "kernel gain {} != oracle gain {}", s.gain, g
            ),
            (None, None) => {}
            _ => prop_assert!(
                false,
                "kernel {:?} vs oracle {:?} disagree on splittability", kernel, oracle
            ),
        }
    }

    /// Categorical regression (Breiman prefix-of-sorted-means, Appendix B
    /// Case 2): the kernel only inspects |Si| prefixes, the oracle all
    /// 2^|Si| subsets — the theorem says they agree on the best gain.
    #[test]
    fn categorical_regression_prefix_theorem_holds(
        raw in tscheck::collection::vec(
            prop_oneof![6 => 0u32..5, 1 => Just(MISSING_CAT)], 2..80),
        ys in tscheck::collection::vec(-10.0..10.0f64, 80),
    ) {
        let ys = &ys[..raw.len()];
        let kernel_gain =
            best_cat_split_regression(&raw, 5, ys).map_or(0.0, |s| s.gain);
        let mut total = RegAgg::default();
        for (i, &c) in raw.iter().enumerate() {
            if c != MISSING_CAT {
                total.add(ys[i]);
            }
        }
        let mut oracle_gain: f64 = 0.0;
        if total.n >= 2 {
            let total_w = total.weighted_impurity();
            for subset in 1u32..(1 << 5) - 1 {
                let mut left = RegAgg::default();
                let mut right = RegAgg::default();
                for (i, &c) in raw.iter().enumerate() {
                    if c == MISSING_CAT {
                        continue;
                    }
                    if subset & (1 << c) != 0 { left.add(ys[i]) } else { right.add(ys[i]) }
                }
                if left.n == 0 || right.n == 0 {
                    continue;
                }
                oracle_gain =
                    oracle_gain.max(total_w - left.weighted_impurity() - right.weighted_impurity());
            }
        }
        prop_assert!(
            (kernel_gain - oracle_gain).abs() <= 1e-7 * oracle_gain.abs().max(1.0),
            "kernel {} vs exhaustive-subset oracle {}", kernel_gain, oracle_gain
        );
    }
}

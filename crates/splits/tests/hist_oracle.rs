//! Differential oracle for the histogram split engine (`ts_splits::hist`):
//! the exact kernel is ground truth.
//!
//! Two regimes, two contracts:
//!
//! - **Lossless** (at most `bins` distinct present values): binning keeps
//!   every value its own bin (`BinCuts::equi_depth` fast path), so the
//!   histogram kernel must agree with the exact kernel *bitwise* on gain,
//!   missing routing and child stats — classification impurities are pure
//!   functions of integer counts, so no summation-order slack is needed.
//!   Only the threshold representation differs (the bin's upper cut versus
//!   the exact kernel's midpoint), and both must route the node's rows
//!   identically.
//! - **Lossy** (more distinct values than bins): the histogram gain is a
//!   restriction of the exact candidate set, so it can never exceed the
//!   exact gain — and on planted threshold signal it must capture most of
//!   it, since equi-depth cuts land within one rank-quantile of any
//!   boundary.
//!
//! Across both regimes the gain-only entry point the workers nominate from
//! (`best_hist_gain_at`) must report exactly the gain of the full kernel
//! the elected worker runs on fetch.

use ts_datatable::{BinIds, BinnedColumn, Column};
use ts_splits::condition::partition_rows;
use ts_splits::exact::best_numeric_split;
use ts_splits::hist::{
    best_hist_gain_at, best_hist_split_at, best_hist_split_numeric_at, HistColumnRef,
};
use ts_splits::histogram::NumericHistogram;
use ts_splits::impurity::{Impurity, LabelView, NodeStats};
use ts_splits::sorted::NodeRows;
use ts_splits::{top_k_candidates, HistCandidate};
use tscheck::prelude::*;
use tsrand::rngs::StdRng;
use tsrand::{Rng, SeedableRng};

/// Columns with at most 12 distinct present values — far below the 64-bin
/// budget, so binning is lossless by construction.
fn few_distinct_data() -> impl Strategy<Value = (Vec<f64>, Vec<u32>)> {
    (2usize..150).prop_flat_map(|n| {
        (
            tscheck::collection::vec(
                prop_oneof![5 => (0u32..12).prop_map(|v| v as f64 * 1.5 - 7.0), 1 => Just(f64::NAN)],
                n,
            ),
            tscheck::collection::vec(0u32..3, n),
        )
    })
}

/// One seeded gain-vs-fetch case: a column with 1 (single bin), a few or
/// ~all distinct present values and a share of NaN rows, class and real
/// labels, and a node that is every row, an ascending subset or empty.
struct GainCase {
    values: Vec<f64>,
    classes: Vec<u32>,
    reals: Vec<f64>,
    rows: Option<Vec<u32>>,
}

fn gain_case(seed: u64) -> GainCase {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = rng.gen_range(1usize..1_200);
    let levels: u32 = match rng.gen_range(0u32..4) {
        0 => 1,
        1 => rng.gen_range(2u32..12),
        _ => u32::MAX, // continuous: enough distinct values for u16 ids
    };
    let nan_rate = [0.0, 0.05, 0.5][rng.gen_range(0usize..3)];
    let values: Vec<f64> = (0..n)
        .map(|_| {
            if rng.gen::<f64>() < nan_rate {
                f64::NAN
            } else if levels == u32::MAX {
                rng.gen::<f64>() * 10.0 - 5.0
            } else {
                f64::from(rng.gen_range(0..levels)) * 0.5
            }
        })
        .collect();
    let classes: Vec<u32> = values
        .iter()
        .map(|&v| {
            if v > 0.7 {
                u32::from(rng.gen::<f64>() < 0.8)
            } else {
                rng.gen_range(0u32..3)
            }
        })
        .collect();
    let reals: Vec<f64> = values
        .iter()
        .map(|&v| if v.is_nan() { 1.5 } else { v * 0.3 } + rng.gen::<f64>() * 0.1)
        .collect();
    let rows = match rng.gen_range(0u32..3) {
        0 => None,
        1 => Some(Vec::new()),
        _ => {
            let keep = rng.gen_range(0.05..0.95);
            Some((0..n as u32).filter(|_| rng.gen::<f64>() < keep).collect())
        }
    };
    GainCase {
        values,
        classes,
        reals,
        rows,
    }
}

/// The mergeable per-bin histogram baseline over the node's rows: the
/// oracle for the fetched split's gain, threshold and missing side.
fn baseline_split(
    binned: &BinnedColumn,
    values: &[f64],
    node: NodeRows<'_>,
    view: LabelView<'_>,
    imp: Impurity,
) -> Option<ts_splits::ColumnSplit> {
    let cuts = binned.cuts();
    let mut h = match view {
        LabelView::Class(_, k) => NumericHistogram::new_class(cuts.n_bins(), k),
        LabelView::Real(_) => NumericHistogram::new_reg(cuts.n_bins()),
    };
    for r in node.iter().map(|r| r as usize) {
        match view {
            LabelView::Class(ys, _) => h.add_class(cuts, values[r], ys[r]),
            LabelView::Real(ys) => h.add_reg(cuts, values[r], ys[r]),
        }
    }
    h.best_split(cuts, imp)
}

proptest! {
    /// Lossless regime: bitwise agreement with the exact kernel on gain,
    /// missing side and child statistics, full node and subset alike.
    #[test]
    fn lossless_matches_exact_kernel_bitwise((values, ys) in few_distinct_data()) {
        let view = LabelView::Class(&ys, 3);
        let exact = best_numeric_split(&values, view, Impurity::Gini);
        let binned = BinnedColumn::build(&values, 64);
        let hist = best_hist_split_numeric_at(
            &binned,
            NodeRows::All(values.len()),
            view,
            Impurity::Gini,
        );
        match (exact, hist) {
            (None, None) => {}
            (Some(e), Some(h)) => {
                prop_assert_eq!(h.gain.to_bits(), e.gain.to_bits(),
                    "gain diverged: hist {} vs exact {}", h.gain, e.gain);
                prop_assert_eq!(h.missing_left, e.missing_left);
                prop_assert_eq!(&h.left, &e.left);
                prop_assert_eq!(&h.right, &e.right);
            }
            (e, h) => prop_assert!(false, "split existence disagrees: exact {:?} vs hist {:?}", e, h),
        }
    }

    /// Lossless regime over a node subset: gather-then-exact is the oracle
    /// for the histogram kernel's masked accumulation.
    #[test]
    fn lossless_subset_matches_gathered_exact((values, ys) in few_distinct_data(), stride in 2usize..5) {
        let rows: Vec<u32> = (0..values.len() as u32).filter(|r| *r % stride as u32 != 0).collect();
        if rows.len() < 2 {
            return Ok(());
        }
        let gathered_v: Vec<f64> = rows.iter().map(|&r| values[r as usize]).collect();
        let gathered_y: Vec<u32> = rows.iter().map(|&r| ys[r as usize]).collect();
        let exact = best_numeric_split(&gathered_v, LabelView::Class(&gathered_y, 3), Impurity::Gini);
        let binned = BinnedColumn::build(&values, 64);
        let hist = best_hist_split_numeric_at(
            &binned,
            NodeRows::Subset(&rows),
            LabelView::Class(&ys, 3),
            Impurity::Gini,
        );
        match (exact, hist) {
            (None, None) => {}
            (Some(e), Some(h)) => {
                prop_assert_eq!(h.gain.to_bits(), e.gain.to_bits());
                prop_assert_eq!(h.missing_left, e.missing_left);
                prop_assert_eq!(&h.left, &e.left);
                prop_assert_eq!(&h.right, &e.right);
            }
            (e, h) => prop_assert!(false, "split existence disagrees: exact {:?} vs hist {:?}", e, h),
        }
    }

    /// The returned condition routes the node exactly as the returned child
    /// stats claim — the invariant `ConfirmBest` partitioning relies on.
    #[test]
    fn hist_split_children_match_its_own_routing((values, ys) in few_distinct_data()) {
        let binned = BinnedColumn::build(&values, 8); // deliberately lossy too
        let view = LabelView::Class(&ys, 3);
        if let Some(s) = best_hist_split_numeric_at(
            &binned,
            NodeRows::All(values.len()),
            view,
            Impurity::Gini,
        ) {
            let col = Column::Numeric(values.clone());
            let ix: Vec<u32> = (0..values.len() as u32).collect();
            let (l, r) = partition_rows(&col, &ix, &s.test, s.missing_left);
            let ls = NodeStats::from_view_positions(view, l.iter().map(|&p| p as usize));
            let rs = NodeStats::from_view_positions(view, r.iter().map(|&p| p as usize));
            prop_assert_eq!(&ls, &s.left);
            prop_assert_eq!(&rs, &s.right);
        }
    }

    /// Lossy regime, seeded sweep: the histogram gain never exceeds the
    /// exact gain, and on a planted threshold concept it captures at least
    /// 90% of it — equi-depth cuts land within one rank-quantile of any
    /// boundary, so a 64-bin budget cannot lose more of a clean step signal.
    #[test]
    fn lossy_divergence_is_bounded_on_planted_signal(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = 2_000;
        let boundary = rng.gen_range(0.15..0.85);
        let values: Vec<f64> = (0..n).map(|_| rng.gen::<f64>()).collect();
        let ys: Vec<u32> = values
            .iter()
            .map(|&v| {
                let label = u32::from(v > boundary);
                if rng.gen::<f64>() < 0.02 { 1 - label } else { label } // 2% noise
            })
            .collect();
        let view = LabelView::Class(&ys, 2);
        let exact = best_numeric_split(&values, view, Impurity::Gini)
            .expect("planted signal must split");
        let binned = BinnedColumn::build(&values, 64);
        let hist = best_hist_split_numeric_at(&binned, NodeRows::All(n), view, Impurity::Gini)
            .expect("planted signal must split under binning");
        prop_assert!(hist.gain <= exact.gain + 1e-9,
            "histogram gain {} beat the exact kernel's {}", hist.gain, exact.gain);
        prop_assert!(hist.gain >= 0.9 * exact.gain,
            "histogram lost too much of the planted signal: {} vs exact {}",
            hist.gain, exact.gain);
    }

    /// Nomination order is input-order independent: any rotation of the
    /// candidate list elects the same top-k.
    #[test]
    fn top_k_is_input_order_independent(
        gains in tscheck::collection::vec(0.0f64..10.0, 1..20),
        rot in 0usize..20,
        k in 1usize..6,
    ) {
        let cands: Vec<HistCandidate> = gains
            .iter()
            .enumerate()
            .map(|(attr, &gain)| HistCandidate { attr, gain })
            .collect();
        let mut rotated = cands.clone();
        rotated.rotate_left(rot % cands.len());
        prop_assert_eq!(top_k_candidates(cands, k), top_k_candidates(rotated, k));
    }

    /// Gain-only scoring is the fetched kernel's gain, bit for bit, and the
    /// fetched split is the baseline's boundary with child stats that match
    /// its own routing — for `u8` (64 bins) and `u16` (300 bins) ids, full
    /// and subset nodes, class and real labels.
    #[test]
    fn gain_only_scoring_matches_the_fetched_split(seed in any::<u64>()) {
        let case = gain_case(seed);
        let all: Vec<u32> = (0..case.values.len() as u32).collect();
        let (node, ix) = match &case.rows {
            None => (NodeRows::All(case.values.len()), &all),
            Some(rows) => (NodeRows::Subset(rows), rows),
        };
        let col = Column::Numeric(case.values.clone());
        for bins in [64, 300] {
            let binned = BinnedColumn::build(&case.values, bins);
            let wide = binned.n_bins() + 1 > 256;
            prop_assert_eq!(matches!(binned.ids(), BinIds::U16(_)), wide);
            let cref = HistColumnRef::Numeric { binned: &binned };
            for (view, imp) in [
                (LabelView::Class(&case.classes, 3), Impurity::Gini),
                (LabelView::Class(&case.classes, 3), Impurity::Entropy),
                (LabelView::Real(&case.reals), Impurity::Variance),
            ] {
                let gain = best_hist_gain_at(cref, node, view, imp);
                let split = best_hist_split_at(cref, node, view, imp);
                prop_assert_eq!(gain.map(f64::to_bits), split.as_ref().map(|s| s.gain.to_bits()));
                let base = baseline_split(&binned, &case.values, node, view, imp);
                match (&split, &base) {
                    (None, None) => {}
                    (Some(s), Some(b)) => {
                        prop_assert_eq!(&s.test, &b.test);
                        prop_assert_eq!(s.gain.to_bits(), b.gain.to_bits());
                        prop_assert_eq!(s.missing_left, b.missing_left);
                        let (l, r) = partition_rows(&col, ix, &s.test, s.missing_left);
                        let ls = NodeStats::from_view_positions(view, l.iter().map(|&p| p as usize));
                        let rs = NodeStats::from_view_positions(view, r.iter().map(|&p| p as usize));
                        prop_assert_eq!(&ls, &s.left);
                        prop_assert_eq!(&rs, &s.right);
                    }
                    (s, b) => prop_assert!(false, "split existence disagrees: kernel {:?} vs baseline {:?}", s, b),
                }
            }
        }
    }

    /// Categoricals keep the full kernel: the gain-only entry point reports
    /// its gain unchanged.
    #[test]
    fn gain_only_scoring_matches_categorical_kernel((values, ys) in few_distinct_data()) {
        let codes: Vec<u32> = values
            .iter()
            .map(|v| if v.is_nan() { ts_datatable::MISSING_CAT } else { ((v + 7.0) / 1.5) as u32 })
            .collect();
        let cref = HistColumnRef::Categorical { codes: &codes, n_values: 12 };
        let node = NodeRows::All(codes.len());
        let view = LabelView::Class(&ys, 3);
        prop_assert_eq!(
            best_hist_gain_at(cref, node, view, Impurity::Gini).map(f64::to_bits),
            best_hist_split_at(cref, node, view, Impurity::Gini).map(|s| s.gain.to_bits())
        );
    }
}

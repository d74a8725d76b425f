//! Kernel-equivalence property suite (satellite of the sorted-column split
//! engine): for random columns, labels, and node row subsets, the engine's
//! indexed kernels must pick **byte-identical** splits to the legacy
//! gathered kernels — on both explicit numeric paths, not just the one the
//! `Auto` heuristic would take. Gains are compared bitwise: both paths feed
//! the same integer/float accumulations in the same row order, so there is
//! no tolerance to hide behind. Deterministic edge-case tests cover ties,
//! duplicates, NaN/missing routing, single-distinct, all-missing, and empty
//! subsets.
//!
//! The engine's building blocks get their own oracles: the branchless
//! node-mask filter against a plain branchy filter, the keyed gather sort
//! against the `total_cmp` comparator sort, and score-then-finish against
//! the one-call kernel, field by field.

use ts_datatable::{SortedColumn, MISSING_CAT};
use ts_splits::exact::{
    best_cat_split_classification, best_cat_split_regression, best_numeric_split,
    distinct_categories, ColumnSplit,
};
use ts_splits::impurity::{Impurity, LabelView};
use ts_splits::sorted::{
    best_cat_split_classification_at, best_cat_split_regression_at, best_numeric_split_at_path,
    best_split_at, distinct_categories_at, filter_presorted, finish_split_at, fold_scores,
    gather_sorted, score_split_at, with_node_mask, ColumnRef, NodeRows, NumericPath, RowBitmap,
};
use tscheck::prelude::*;

const K: u32 = 3;
const NV: u32 = 6;

fn ascending_rows(keep: &[bool]) -> Vec<u32> {
    keep.iter()
        .enumerate()
        .filter(|&(_, &k)| k)
        .map(|(i, _)| i as u32)
        .collect()
}

fn gather_f(values: &[f64], rows: &[u32]) -> Vec<f64> {
    rows.iter().map(|&r| values[r as usize]).collect()
}

fn gather_u(values: &[u32], rows: &[u32]) -> Vec<u32> {
    rows.iter().map(|&r| values[r as usize]).collect()
}

/// Splits must agree exactly; when both exist the gain must agree *bitwise*.
fn assert_same_split(
    legacy: &Option<ColumnSplit>,
    sorted: &Option<ColumnSplit>,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(legacy, sorted);
    if let (Some(l), Some(s)) = (legacy, sorted) {
        prop_assert_eq!(
            l.gain.to_bits(),
            s.gain.to_bits(),
            "gain must match bitwise"
        );
    }
    Ok(())
}

fn numeric_values(n: usize) -> impl Strategy<Value = Vec<f64>> {
    tscheck::collection::vec(prop_oneof![5 => -40.0..40.0f64, 1 => Just(f64::NAN)], n)
}

fn cat_codes(n: usize) -> impl Strategy<Value = Vec<u32>> {
    tscheck::collection::vec(prop_oneof![5 => 0u32..NV, 1 => Just(MISSING_CAT)], n)
}

fn class_labels(n: usize) -> impl Strategy<Value = Vec<u32>> {
    tscheck::collection::vec(0u32..K, n)
}

fn real_labels(n: usize) -> impl Strategy<Value = Vec<f64>> {
    tscheck::collection::vec(-10.0..10.0f64, n)
}

fn keep_mask(n: usize) -> impl Strategy<Value = Vec<bool>> {
    tscheck::collection::vec(any::<bool>(), n)
}

/// Node membership for the filter oracle: empty, full, or a random subset.
fn node_rows(n: usize) -> impl Strategy<Value = Vec<u32>> {
    (0u32..4, keep_mask(n)).prop_map(|(shape, keep)| match shape {
        0 => Vec::new(),
        1 => (0..keep.len() as u32).collect(),
        _ => ascending_rows(&keep),
    })
}

/// Values whose sort order is easy to get subtly wrong: signed zeros,
/// subnormals, infinities and duplicates, plus missing rows.
fn tricky_values(n: usize) -> impl Strategy<Value = Vec<f64>> {
    tscheck::collection::vec(
        prop_oneof![
            2 => (0u32..4).prop_map(f64::from),
            2 => -40.0..40.0f64,
            1 => Just(0.0),
            1 => Just(-0.0),
            1 => Just(f64::from_bits(1)),
            1 => Just(-f64::from_bits(1)),
            1 => Just(f64::MIN_POSITIVE / 4.0),
            1 => Just(f64::INFINITY),
            1 => Just(f64::NEG_INFINITY),
            1 => Just(f64::NAN),
        ],
        n,
    )
}

/// The filter the branchless one replaces: keep a pair iff its row is in
/// the node.
fn branchy_filter(svals: &[f64], order: &[u32], mask: &RowBitmap) -> Vec<(f64, u32)> {
    let mut out = Vec::new();
    for (&v, &r) in svals.iter().zip(order) {
        if mask.contains(r) {
            out.push((v, r));
        }
    }
    out
}

/// `(value bits, row)` pairs: bitwise comparison that tells `-0.0` from
/// `0.0`.
fn bits(pairs: &[(f64, u32)]) -> Vec<(u64, u32)> {
    pairs.iter().map(|&(v, r)| (v.to_bits(), r)).collect()
}

/// Checks that `branchy_filter` and `filter_presorted` keep the same
/// pairs, also when appending after existing contents.
fn check_filter(values: &[f64], rows: &[u32]) {
    let index = SortedColumn::from_numeric(values);
    let (svals, order) = (index.numeric_values(), index.numeric_order());
    let mut mask = RowBitmap::with_rows(values.len());
    mask.insert_all(rows);
    let want = branchy_filter(svals, order, &mask);
    let mut got = Vec::new();
    filter_presorted(svals, order, &mask, &mut got);
    assert_eq!(bits(&got), bits(&want), "rows {rows:?}");
    let mut appended = vec![(-1.0, u32::MAX)];
    filter_presorted(svals, order, &mask, &mut appended);
    assert_eq!(
        bits(&appended[1..]),
        bits(&want),
        "append after rows {rows:?}"
    );
    assert_eq!(appended[0].1, u32::MAX, "existing contents must be kept");
}

/// The gather arm's sort, by comparator: what `gather_sorted` must equal.
fn comparator_sorted(values: &[f64], node: NodeRows<'_>) -> Vec<(f64, u32)> {
    let mut present: Vec<(f64, u32)> = node
        .iter()
        .map(|r| (values[r as usize], r))
        .filter(|(v, _)| !v.is_nan())
        .collect();
    present.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    present
}

/// Checks score-then-finish against the one-call kernel, field by field,
/// over one column and node.
fn check_score_finish(
    col: ColumnRef<'_>,
    node: NodeRows<'_>,
    mask: Option<&RowBitmap>,
    labels: LabelView<'_>,
    imp: Impurity,
) -> Result<(), TestCaseError> {
    let whole = best_split_at(col, node, mask, labels, imp);
    let scored = score_split_at(col, node, mask, labels, imp);
    prop_assert_eq!(scored.is_some(), whole.is_some(), "existence differs");
    let (Some(scored), Some(whole)) = (scored, whole) else {
        return Ok(());
    };
    prop_assert_eq!(scored.gain().to_bits(), whole.gain.to_bits(), "score gain");
    let finished = finish_split_at(col, node, labels, scored);
    prop_assert_eq!(&finished.test, &whole.test, "test");
    prop_assert_eq!(finished.gain.to_bits(), whole.gain.to_bits(), "gain");
    prop_assert_eq!(finished.missing_left, whole.missing_left, "missing_left");
    prop_assert_eq!(&finished.left, &whole.left, "left stats");
    prop_assert_eq!(&finished.right, &whole.right, "right stats");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// The branchless node-mask filter keeps exactly the pairs the branchy
    /// filter keeps, in the same order, for empty, full and random nodes.
    #[test]
    fn mask_filter_matches_branchy_filter(
        (values, rows) in (0usize..300).prop_flat_map(|n| (numeric_values(n), node_rows(n)))
    ) {
        check_filter(&values, &rows);
    }

    /// The keyed gather sort equals the comparator sort bit for bit: signed
    /// zeros, subnormals, infinities and duplicates keep `total_cmp` order
    /// and row tie-breaks; NaN rows drop out.
    #[test]
    fn keyed_gather_sort_matches_comparator_sort(
        (values, keep) in (0usize..200).prop_flat_map(|n| (tricky_values(n), keep_mask(n)))
    ) {
        let rows = ascending_rows(&keep);
        for node in [NodeRows::Subset(&rows), NodeRows::All(values.len())] {
            let mut keyed = vec![(7.0, 7)];
            gather_sorted(&values, node, &mut keyed);
            prop_assert_eq!(bits(&keyed), bits(&comparator_sorted(&values, node)));
        }
    }

    /// Score then finish equals `best_split_at` field by field, for numeric
    /// and categorical columns under class and real labels, on the whole
    /// column and on a subset; folding scores picks the column folding
    /// full splits picks.
    #[test]
    fn score_then_finish_matches_best_split_at(
        (values, codes, ys_c, ys_r, keep) in (2usize..120).prop_flat_map(|n| {
            (numeric_values(n), cat_codes(n), class_labels(n), real_labels(n), keep_mask(n))
        })
    ) {
        let rows = ascending_rows(&keep);
        let index = SortedColumn::from_numeric(&values);
        let cols = [
            ColumnRef::Numeric { values: &values, index: &index },
            ColumnRef::Categorical { codes: &codes, n_values: NV },
            ColumnRef::Numeric { values: &values, index: &index },
        ];
        let label_kinds = [
            (LabelView::Class(&ys_c, K), Impurity::Gini),
            (LabelView::Class(&ys_c, K), Impurity::Entropy),
            (LabelView::Real(&ys_r), Impurity::Variance),
        ];
        for (labels, imp) in label_kinds {
            with_node_mask(values.len(), &rows, |mask| {
                let nodes = [
                    (NodeRows::All(values.len()), None),
                    (NodeRows::Subset(&rows), Some(mask)),
                ];
                for (node, mask) in nodes {
                    for &col in &cols {
                        check_score_finish(col, node, mask, labels, imp)?;
                    }
                    // Columns 0 and 2 tie exactly: the smaller attr must win.
                    let mut full: Option<(usize, ColumnSplit)> = None;
                    for (attr, &col) in cols.iter().enumerate() {
                        let Some(s) = best_split_at(col, node, mask, labels, imp) else {
                            continue;
                        };
                        let wins = full
                            .as_ref()
                            .is_none_or(|(ba, bs)| ColumnSplit::challenger_wins(&s, attr, bs, *ba));
                        if wins {
                            full = Some((attr, s));
                        }
                    }
                    let folded = fold_scores(cols.iter().enumerate().filter_map(|(attr, &col)| {
                        Some((attr, attr, score_split_at(col, node, mask, labels, imp)?))
                    }))
                    .map(|(attr, s)| (attr, finish_split_at(cols[attr], node, labels, s)));
                    prop_assert_eq!(folded, full);
                }
                Ok(())
            })?;
        }
    }

    /// Numeric classification over random subsets: both explicit engine
    /// paths equal the legacy gather kernel, for Gini and entropy.
    #[test]
    fn numeric_class_subset_equivalence(
        (values, ys, keep) in (2usize..120).prop_flat_map(|n| {
            (numeric_values(n), class_labels(n), keep_mask(n))
        })
    ) {
        let rows = ascending_rows(&keep);
        let index = SortedColumn::from_numeric(&values);
        let legacy_view_data = gather_u(&ys, &rows);
        let legacy = best_numeric_split(
            &gather_f(&values, &rows),
            LabelView::Class(&legacy_view_data, K),
            Impurity::Gini,
        );
        for imp in [Impurity::Gini, Impurity::Entropy] {
            let gathered_vals = gather_f(&values, &rows);
            let legacy = if imp == Impurity::Gini {
                legacy.clone()
            } else {
                best_numeric_split(&gathered_vals, LabelView::Class(&legacy_view_data, K), imp)
            };
            for path in [NumericPath::SortedScan, NumericPath::GatherSort] {
                let sorted = with_node_mask(values.len(), &rows, |mask| {
                    best_numeric_split_at_path(
                        path,
                        &values,
                        &index,
                        NodeRows::Subset(&rows),
                        Some(mask),
                        LabelView::Class(&ys, K),
                        imp,
                    )
                });
                assert_same_split(&legacy, &sorted)?;
            }
        }
    }

    /// Numeric regression over random subsets, including the whole-column
    /// `NodeRows::All` fast path.
    #[test]
    fn numeric_reg_subset_and_full_equivalence(
        (values, ys, keep) in (2usize..120).prop_flat_map(|n| {
            (numeric_values(n), real_labels(n), keep_mask(n))
        })
    ) {
        let index = SortedColumn::from_numeric(&values);
        let rows = ascending_rows(&keep);
        let gys = gather_f(&ys, &rows);
        let legacy = best_numeric_split(
            &gather_f(&values, &rows),
            LabelView::Real(&gys),
            Impurity::Variance,
        );
        for path in [NumericPath::SortedScan, NumericPath::GatherSort] {
            let sorted = with_node_mask(values.len(), &rows, |mask| {
                best_numeric_split_at_path(
                    path,
                    &values,
                    &index,
                    NodeRows::Subset(&rows),
                    Some(mask),
                    LabelView::Real(&ys),
                    Impurity::Variance,
                )
            });
            assert_same_split(&legacy, &sorted)?;
        }
        // Full column: All(n) against the legacy kernel on the raw values.
        let full_legacy = best_numeric_split(&values, LabelView::Real(&ys), Impurity::Variance);
        for path in [NumericPath::SortedScan, NumericPath::GatherSort] {
            let full_sorted = best_numeric_split_at_path(
                path,
                &values,
                &index,
                NodeRows::All(values.len()),
                None,
                LabelView::Real(&ys),
                Impurity::Variance,
            );
            assert_same_split(&full_legacy, &full_sorted)?;
        }
    }

    /// One-vs-rest categorical classification over random subsets.
    #[test]
    fn cat_class_subset_equivalence(
        (codes, ys, keep) in (2usize..120).prop_flat_map(|n| {
            (cat_codes(n), class_labels(n), keep_mask(n))
        })
    ) {
        let rows = ascending_rows(&keep);
        let gys = gather_u(&ys, &rows);
        for imp in [Impurity::Gini, Impurity::Entropy] {
            let legacy = best_cat_split_classification(
                &gather_u(&codes, &rows),
                NV,
                &gys,
                K,
                imp,
            );
            let sorted =
                best_cat_split_classification_at(&codes, NV, NodeRows::Subset(&rows), &ys, K, imp);
            assert_same_split(&legacy, &sorted)?;
        }
    }

    /// Breiman categorical regression over random subsets: identical
    /// accumulation order makes even the float-sorted group means agree
    /// bitwise.
    #[test]
    fn cat_reg_subset_equivalence(
        (codes, ys, keep) in (2usize..120).prop_flat_map(|n| {
            (cat_codes(n), real_labels(n), keep_mask(n))
        })
    ) {
        let rows = ascending_rows(&keep);
        let gys = gather_f(&ys, &rows);
        let legacy = best_cat_split_regression(&gather_u(&codes, &rows), NV, &gys);
        let sorted = best_cat_split_regression_at(&codes, NV, NodeRows::Subset(&rows), &ys);
        assert_same_split(&legacy, &sorted)?;
    }

    /// The pooled distinct-category scan equals gather + sort + dedup.
    #[test]
    fn distinct_categories_subset_equivalence(
        (codes, keep) in (1usize..120).prop_flat_map(|n| (cat_codes(n), keep_mask(n)))
    ) {
        let rows = ascending_rows(&keep);
        let legacy = distinct_categories(&gather_u(&codes, &rows));
        let sorted = distinct_categories_at(&codes, NodeRows::Subset(&rows), NV);
        prop_assert_eq!(legacy, sorted);
    }
}

/// Runs every numeric kernel variant over one column/labels/subset triple
/// and asserts all agree with the legacy gathered kernel.
fn check_numeric_class(values: &[f64], ys: &[u32], rows: &[u32], imp: Impurity) {
    let index = SortedColumn::from_numeric(values);
    let gys: Vec<u32> = rows.iter().map(|&r| ys[r as usize]).collect();
    let legacy = best_numeric_split(&gather_f(values, rows), LabelView::Class(&gys, K), imp);
    for path in [
        NumericPath::Auto,
        NumericPath::SortedScan,
        NumericPath::GatherSort,
    ] {
        let sorted = with_node_mask(values.len(), rows, |mask| {
            best_numeric_split_at_path(
                path,
                values,
                &index,
                NodeRows::Subset(rows),
                Some(mask),
                LabelView::Class(ys, K),
                imp,
            )
        });
        assert_eq!(legacy, sorted, "path {path:?} diverged");
    }
}

#[test]
fn ties_and_duplicates_pick_the_same_boundary() {
    // Heavy duplicates force tie-breaks on both the value ordering (by row
    // id) and the boundary midpoint; all paths must land on the same split.
    let values = [2.0, 1.0, 2.0, 1.0, 2.0, 1.0, 3.0, 3.0, 2.0, 1.0];
    let ys = [0, 1, 0, 1, 0, 1, 2, 2, 0, 1];
    let rows: Vec<u32> = (0..values.len() as u32).collect();
    check_numeric_class(&values, &ys, &rows, Impurity::Gini);
    check_numeric_class(&values, &ys, &rows[2..8], Impurity::Entropy);
}

#[test]
fn nan_rows_route_identically() {
    // Missing rows are absent from the presorted order but must still be
    // routed (majority side) into the chosen split's child stats.
    let values = [1.0, f64::NAN, 3.0, f64::NAN, 5.0, 2.0, f64::NAN, 4.0];
    let ys = [0, 1, 2, 1, 2, 0, 0, 2];
    let rows: Vec<u32> = (0..values.len() as u32).collect();
    check_numeric_class(&values, &ys, &rows, Impurity::Gini);
    check_numeric_class(&values, &ys, &[1, 3, 6], Impurity::Gini); // all-missing subset
}

#[test]
fn single_distinct_value_yields_no_split() {
    let values = [7.0; 6];
    let ys = [0, 1, 0, 1, 0, 1];
    check_numeric_class(&values, &ys, &[0, 2, 3, 5], Impurity::Gini);
    let index = SortedColumn::from_numeric(&values);
    assert_eq!(
        best_numeric_split_at_path(
            NumericPath::SortedScan,
            &values,
            &index,
            NodeRows::All(6),
            None,
            LabelView::Class(&ys, K),
            Impurity::Gini,
        ),
        None
    );
}

#[test]
fn all_missing_column_yields_no_split() {
    let values = [f64::NAN; 5];
    let ys = [0, 1, 2, 0, 1];
    let rows: Vec<u32> = (0..5).collect();
    check_numeric_class(&values, &ys, &rows, Impurity::Gini);
    let codes = [MISSING_CAT; 5];
    assert_eq!(
        best_cat_split_classification_at(
            &codes,
            NV,
            NodeRows::Subset(&rows),
            &ys,
            K,
            Impurity::Gini
        ),
        None
    );
    assert_eq!(
        distinct_categories_at(&codes, NodeRows::Subset(&rows), NV),
        Vec::<u32>::new()
    );
}

#[test]
fn empty_subset_yields_no_split() {
    let values = [1.0, 2.0, 3.0];
    let ys = [0u32, 1, 2];
    check_numeric_class(&values, &ys, &[], Impurity::Gini);
    let codes = [0u32, 1, 2];
    assert_eq!(
        best_cat_split_classification_at(&codes, NV, NodeRows::Subset(&[]), &ys, K, Impurity::Gini),
        None
    );
    let reals = [1.0, 2.0, 3.0];
    assert_eq!(
        best_cat_split_regression_at(&codes, NV, NodeRows::Subset(&[]), &reals),
        None
    );
}

#[test]
fn mask_filter_on_word_boundaries_and_ends() {
    // 193 rows span four 64-bit mask words: exercise the first and last
    // row and the rows either side of each word boundary.
    let values: Vec<f64> = (0..193u32).map(|i| f64::from((i * 37) % 101)).collect();
    let all: Vec<u32> = (0..193).collect();
    for rows in [
        vec![],
        vec![0],
        vec![192],
        vec![63, 64],
        vec![127, 128],
        vec![0, 63, 64, 127, 128, 191, 192],
        all.clone(),
    ] {
        check_filter(&values, &rows);
    }
    check_filter(&[], &[]);
}

//! Load-time index equivalence: the keyed presort of
//! `SortedColumn::from_numeric` and the presorted bin cuts of
//! `BinCuts::equi_depth_sorted` must reproduce, bit for bit, what the
//! indirect `(total_cmp, row id)` comparator sort and `BinCuts::equi_depth`
//! over the raw column produce. Inputs stress the total order: ±0.0, ±inf,
//! NaN, subnormals and heavy duplicate runs.

use ts_datatable::{BinCuts, SortedColumn};
use tscheck::prelude::*;

/// The comparator presort the keyed sort replaces: present row ids sorted
/// by `(f64::total_cmp, row id)`, and their values in that order.
fn comparator_presort(values: &[f64]) -> (Vec<u32>, Vec<f64>) {
    let mut order: Vec<u32> = (0..values.len() as u32)
        .filter(|&r| !values[r as usize].is_nan())
        .collect();
    order.sort_unstable_by(|&a, &b| {
        values[a as usize]
            .total_cmp(&values[b as usize])
            .then(a.cmp(&b))
    });
    let sorted = order.iter().map(|&r| values[r as usize]).collect();
    (order, sorted)
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn assert_equivalent(values: &[f64]) {
    let index = SortedColumn::from_numeric(values);
    let (order, sorted) = comparator_presort(values);
    assert_eq!(index.numeric_order(), &order[..], "presort order moved");
    assert_eq!(
        bits(index.numeric_values()),
        bits(&sorted),
        "presorted values moved"
    );
    for max_bins in [2, 4, 64, 300] {
        let raw = BinCuts::equi_depth(values, max_bins);
        let presorted = BinCuts::equi_depth_sorted(index.numeric_values(), max_bins);
        assert_eq!(
            bits(presorted.cuts()),
            bits(raw.cuts()),
            "equi_depth_sorted diverged at {max_bins} bins"
        );
    }
}

/// Every value the total order treats specially, once each.
const SPECIALS: [f64; 12] = [
    0.0,
    -0.0,
    f64::INFINITY,
    f64::NEG_INFINITY,
    f64::NAN,
    f64::MIN_POSITIVE,
    -f64::MIN_POSITIVE,
    5e-324,  // smallest positive subnormal
    -5e-324, // smallest negative subnormal
    2.2e-308,
    f64::MAX,
    f64::MIN,
];

#[test]
fn specials_presort_like_the_comparator() {
    assert_equivalent(&SPECIALS);
    let mut reversed = SPECIALS.to_vec();
    reversed.reverse();
    assert_equivalent(&reversed);
}

#[test]
fn signed_zeros_keep_their_bits_and_order() {
    let values = [0.0, -0.0, 0.0, -0.0];
    let index = SortedColumn::from_numeric(&values);
    // total_cmp puts -0.0 first; ties break by row id.
    assert_eq!(index.numeric_order(), &[1, 3, 0, 2]);
    assert_eq!(bits(index.numeric_values()), bits(&[-0.0, -0.0, 0.0, 0.0]));
    assert_equivalent(&values);
}

#[test]
fn degenerate_columns() {
    assert_equivalent(&[]);
    assert_equivalent(&[f64::NAN; 5]);
    assert_equivalent(&[7.0; 50]);
    assert_equivalent(&[f64::NEG_INFINITY, f64::INFINITY]);
}

#[test]
fn heavy_duplicates_with_a_rare_value() {
    let mut values = vec![2.0; 999];
    values.push(1.0);
    values.extend(std::iter::repeat_n(f64::NAN, 30));
    values.extend(std::iter::repeat_n(-0.0, 40));
    assert_equivalent(&values);
}

fn special_mix() -> impl Strategy<Value = Vec<f64>> {
    tscheck::collection::vec(
        prop_oneof![
            3 => (0usize..SPECIALS.len()).prop_map(|i| SPECIALS[i]),
            3 => (0u32..6).prop_map(f64::from),
            2 => -1e6f64..1e6,
            1 => (1u64..1 << 20).prop_map(f64::from_bits), // subnormals
        ],
        0..600,
    )
}

proptest! {
    /// Random mixes of specials, subnormals, short duplicate runs and
    /// plain values: same order, same values, same cuts.
    #[test]
    fn keyed_presort_and_presorted_cuts_match(values in special_mix()) {
        assert_equivalent(&values);
    }
}

//! Presorted per-column indices for the sorted-column split engine.
//!
//! The exact numeric kernel's dominant cost is re-sorting a column's values
//! for every node (`O(|Dx| log |Dx|)` per node per candidate column). Paying
//! the sort **once per column** at load time turns each node's scan into a
//! filtered linear pass over the presorted order — the structure the exact
//! distributed Random Forest literature builds on (see PAPERS.md) and the
//! hot-path optimization of docs/PERF.md.
//!
//! Determinism contract: the numeric order sorts by `(value, row id)` with
//! `f64::total_cmp`, exactly the comparator the legacy gather+sort kernel
//! uses on `(value, gathered position)`. Because node row sets are always
//! ascending, filtering this order by node membership yields the *same*
//! sequence the legacy kernel produces, so both paths pick byte-identical
//! splits.

use crate::column::{Column, ValuesBuf, MISSING_CAT};

/// A per-column index built once when a column enters a store (worker column
/// load, `LocalDataset` assembly) and shared by every node's split search.
#[derive(Debug, Clone, PartialEq)]
pub enum SortedColumn {
    /// Numeric column: row ids of all *present* (non-NaN) rows, sorted by
    /// `(value, row id)`. Missing rows are segregated out entirely — the
    /// kernels route them to the majority side after the boundary is chosen.
    Numeric {
        /// Presorted present-row ids.
        order: Vec<u32>,
        /// The rows' values in the same order. Redundant with gathering
        /// `column[order[i]]`, but that gather is a random-access pass the
        /// whole-column scan would otherwise repeat per node per column —
        /// caching it keeps the hot scan fully sequential.
        values: Vec<f64>,
    },
    /// Categorical column: the sorted distinct set of present codes. The
    /// one-vs-rest / Breiman kernels need no value order, but the distinct
    /// set ("seen during training", Appendix D) is otherwise recomputed per
    /// node.
    Categorical {
        /// Sorted, deduplicated present category codes.
        distinct: Vec<u32>,
    },
}

impl SortedColumn {
    /// Builds the index for a full column.
    pub fn build(col: &Column) -> Self {
        match col {
            Column::Numeric(v) => Self::from_numeric(v),
            Column::Categorical(c) => Self::from_categorical(c),
        }
    }

    /// Builds the index for a gathered buffer (positions play the role of
    /// row ids).
    pub fn build_buf(buf: &ValuesBuf) -> Self {
        match buf {
            ValuesBuf::Numeric(v) => Self::from_numeric(v),
            ValuesBuf::Categorical(c) => Self::from_categorical(c),
        }
    }

    /// Presorted index over a numeric slice.
    ///
    /// Sorts contiguous `(key, row)` pairs, where the key is the value's
    /// bit pattern remapped so unsigned order is `f64::total_cmp` order: the
    /// result is the `(total_cmp, row id)` order without an indirect
    /// comparator, and the values decode straight back from the keys.
    pub fn from_numeric(values: &[f64]) -> Self {
        let mut keyed: Vec<(u64, u32)> = values
            .iter()
            .enumerate()
            .filter(|(_, v)| !v.is_nan())
            .map(|(r, &v)| (total_order_key(v), r as u32))
            .collect();
        keyed.sort_unstable();
        SortedColumn::Numeric {
            order: keyed.iter().map(|&(_, r)| r).collect(),
            values: keyed
                .iter()
                .map(|&(k, _)| from_total_order_key(k))
                .collect(),
        }
    }

    /// Distinct-code index over a categorical slice.
    pub fn from_categorical(codes: &[u32]) -> Self {
        let mut distinct: Vec<u32> = codes
            .iter()
            .copied()
            .filter(|&c| c != MISSING_CAT)
            .collect();
        distinct.sort_unstable();
        distinct.dedup();
        SortedColumn::Categorical { distinct }
    }

    /// The presorted present-row order of a numeric index.
    ///
    /// # Panics
    /// Panics when called on a categorical index — the caller dispatched on
    /// the wrong attribute type.
    pub fn numeric_order(&self) -> &[u32] {
        match self {
            SortedColumn::Numeric { order, .. } => order,
            SortedColumn::Categorical { .. } => {
                panic!("numeric_order on a categorical sorted index")
            }
        }
    }

    /// The present rows' values in presorted order (parallel to
    /// [`Self::numeric_order`]).
    ///
    /// # Panics
    /// Panics when called on a categorical index.
    pub fn numeric_values(&self) -> &[f64] {
        match self {
            SortedColumn::Numeric { values, .. } => values,
            SortedColumn::Categorical { .. } => {
                panic!("numeric_values on a categorical sorted index")
            }
        }
    }

    /// The cached sorted distinct set of a categorical index.
    ///
    /// # Panics
    /// Panics when called on a numeric index.
    pub fn distinct(&self) -> &[u32] {
        match self {
            SortedColumn::Categorical { distinct } => distinct,
            SortedColumn::Numeric { .. } => panic!("distinct on a numeric sorted index"),
        }
    }

    /// In-memory size of the index payload (for memory accounting).
    pub fn payload_bytes(&self) -> usize {
        match self {
            SortedColumn::Numeric { order, values } => {
                order.len() * std::mem::size_of::<u32>() + values.len() * std::mem::size_of::<f64>()
            }
            SortedColumn::Categorical { distinct } => distinct.len() * std::mem::size_of::<u32>(),
        }
    }
}

/// Maps an `f64` to a `u64` whose unsigned order is `f64::total_cmp`
/// order: negative values have every bit flipped, the rest only the sign.
/// Sorting `(key, row)` pairs with plain integer order therefore yields the
/// `(f64::total_cmp, row)` order without an indirect comparator.
pub fn total_order_key(v: f64) -> u64 {
    let bits = v.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | (1 << 63)
    }
}

/// Inverse of [`total_order_key`], bit for bit.
pub fn from_total_order_key(key: u64) -> f64 {
    f64::from_bits(if key >> 63 == 1 {
        key & !(1 << 63)
    } else {
        !key
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numeric_order_sorted_by_value_then_row() {
        let s = SortedColumn::from_numeric(&[3.0, 1.0, 2.0, 1.0]);
        // Value 1.0 appears at rows 1 and 3; the tie breaks by row id.
        assert_eq!(s.numeric_order(), &[1, 3, 2, 0]);
    }

    #[test]
    fn numeric_order_excludes_missing() {
        let s = SortedColumn::from_numeric(&[f64::NAN, 5.0, f64::NAN, 4.0]);
        assert_eq!(s.numeric_order(), &[3, 1]);
        assert_eq!(s.numeric_values(), &[4.0, 5.0]);
        assert_eq!(s.payload_bytes(), 2 * 4 + 2 * 8);
    }

    #[test]
    fn numeric_order_total_order_on_specials() {
        // total_cmp puts -inf first and +inf last; NaN rows are dropped.
        let s = SortedColumn::from_numeric(&[f64::INFINITY, 0.0, f64::NEG_INFINITY, f64::NAN]);
        assert_eq!(s.numeric_order(), &[2, 1, 0]);
    }

    #[test]
    fn categorical_distinct_sorted_dedup_no_missing() {
        let s = SortedColumn::from_categorical(&[3, 1, 3, MISSING_CAT, 0]);
        assert_eq!(s.distinct(), &[0, 1, 3]);
        let empty = SortedColumn::from_categorical(&[MISSING_CAT]);
        assert!(empty.distinct().is_empty());
    }

    #[test]
    fn build_dispatches_on_column_kind() {
        let num = SortedColumn::build(&Column::Numeric(vec![2.0, 1.0]));
        assert_eq!(num.numeric_order(), &[1, 0]);
        let cat = SortedColumn::build_buf(&ValuesBuf::Categorical(vec![7, 7, 2]));
        assert_eq!(cat.distinct(), &[2, 7]);
    }

    #[test]
    #[should_panic(expected = "categorical sorted index")]
    fn numeric_order_on_categorical_panics() {
        SortedColumn::from_categorical(&[0]).numeric_order();
    }
}

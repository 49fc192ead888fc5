//! The [`Column`] type and the raw-value [`ValueMap`].

use std::collections::BTreeMap;

/// A single indexed attribute: `N` row values, each in `0 .. cardinality`.
///
/// This is the paper's normalized setting — actual attribute values are
/// consecutive integers starting at 0. Use [`ValueMap`] to normalize an
/// arbitrary integer column first.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Column {
    values: Vec<u32>,
    cardinality: u32,
}

impl Column {
    /// Wraps row values with a declared attribute cardinality `C`.
    ///
    /// # Panics
    /// Panics if `cardinality == 0`, or if any value is `>= cardinality`.
    pub fn new(values: Vec<u32>, cardinality: u32) -> Self {
        assert!(cardinality > 0, "attribute cardinality must be positive");
        if let Some(&bad) = values.iter().find(|&&v| v >= cardinality) {
            panic!("column value {bad} >= cardinality {cardinality}");
        }
        Self {
            values,
            cardinality,
        }
    }

    /// Appends rows in place, validating only the new values.
    ///
    /// # Panics
    /// Panics at the first value `>= cardinality`; the rows before it stay
    /// appended.
    pub fn extend(&mut self, values: impl IntoIterator<Item = u32>) {
        for v in values {
            assert!(
                v < self.cardinality,
                "column value {v} >= cardinality {}",
                self.cardinality
            );
            self.values.push(v);
        }
    }

    /// Builds a column from raw values, inferring `C = max + 1`.
    ///
    /// # Panics
    /// Panics if `values` is empty.
    pub fn from_values(values: Vec<u32>) -> Self {
        let max = *values
            .iter()
            .max()
            .expect("cannot infer cardinality of an empty column");
        Self::new(values, max + 1)
    }

    /// Number of rows (`N`, the relation cardinality).
    #[inline]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// `true` if the column has no rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The attribute cardinality `C`.
    #[inline]
    pub fn cardinality(&self) -> u32 {
        self.cardinality
    }

    /// Row values.
    #[inline]
    pub fn values(&self) -> &[u32] {
        &self.values
    }

    /// Value of row `rid`.
    #[inline]
    pub fn get(&self, rid: usize) -> u32 {
        self.values[rid]
    }

    /// Number of *distinct* values actually present (≤ `C`).
    pub fn distinct_count(&self) -> usize {
        let mut seen = vec![false; self.cardinality as usize];
        let mut n = 0;
        for &v in &self.values {
            if !seen[v as usize] {
                seen[v as usize] = true;
                n += 1;
            }
        }
        n
    }

    /// Histogram of value frequencies, length `C`.
    pub fn histogram(&self) -> Vec<usize> {
        let mut h = vec![0usize; self.cardinality as usize];
        for &v in &self.values {
            h[v as usize] += 1;
        }
        h
    }
}

/// Lookup table mapping arbitrary (non-consecutive) integer attribute values
/// to their dense ranks `0 .. C-1`, as Section 2 of the paper prescribes for
/// the general case.
#[derive(Debug, Clone, Default)]
pub struct ValueMap {
    /// rank -> raw value, ascending.
    raw_of_rank: Vec<i64>,
    /// raw value -> rank.
    rank_of_raw: BTreeMap<i64, u32>,
}

impl ValueMap {
    /// Builds the map and the normalized column from raw integer values.
    pub fn normalize(raw: &[i64]) -> (Self, Column) {
        let mut sorted: Vec<i64> = raw.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        let rank_of_raw: BTreeMap<i64, u32> = sorted
            .iter()
            .enumerate()
            .map(|(r, &v)| (v, r as u32))
            .collect();
        let column = Column::new(
            raw.iter().map(|v| rank_of_raw[v]).collect(),
            sorted.len().max(1) as u32,
        );
        (
            Self {
                raw_of_rank: sorted,
                rank_of_raw,
            },
            column,
        )
    }

    /// Number of distinct raw values (the normalized cardinality).
    pub fn cardinality(&self) -> u32 {
        self.raw_of_rank.len() as u32
    }

    /// Rank of a raw value, if present.
    pub fn rank(&self, raw: i64) -> Option<u32> {
        self.rank_of_raw.get(&raw).copied()
    }

    /// Raw value of a rank.
    ///
    /// # Panics
    /// Panics if `rank` is out of range.
    pub fn raw(&self, rank: u32) -> i64 {
        self.raw_of_rank[rank as usize]
    }

    /// Rank of the largest raw value `<= raw`, for translating range
    /// predicates on raw values into rank space. `None` if `raw` is smaller
    /// than every value.
    pub fn rank_le(&self, raw: i64) -> Option<u32> {
        self.rank_of_raw.range(..=raw).next_back().map(|(_, &r)| r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn column_basics() {
        let c = Column::new(vec![0, 2, 1, 2, 0], 3);
        assert_eq!(c.len(), 5);
        assert_eq!(c.cardinality(), 3);
        assert_eq!(c.distinct_count(), 3);
        assert_eq!(c.histogram(), vec![2, 1, 2]);
        assert_eq!(c.get(1), 2);
        let mut grown = c.clone();
        grown.extend([1, 1]);
        assert_eq!(grown, Column::new(vec![0, 2, 1, 2, 0, 1, 1], 3));
    }

    #[test]
    fn from_values_infers_cardinality() {
        let c = Column::from_values(vec![5, 0, 3]);
        assert_eq!(c.cardinality(), 6);
    }

    #[test]
    #[should_panic(expected = ">= cardinality")]
    fn rejects_out_of_range() {
        Column::new(vec![0, 3], 3);
    }

    #[test]
    #[should_panic(expected = ">= cardinality")]
    fn extend_rejects_out_of_range() {
        Column::new(vec![0, 2], 3).extend([1, 3]);
    }

    #[test]
    fn value_map_normalizes_sparse_domain() {
        let raw = vec![100, -7, 100, 2000, -7];
        let (map, col) = ValueMap::normalize(&raw);
        assert_eq!(map.cardinality(), 3);
        assert_eq!(col.cardinality(), 3);
        assert_eq!(col.values(), &[1, 0, 1, 2, 0]);
        assert_eq!(map.raw(0), -7);
        assert_eq!(map.rank(2000), Some(2));
        assert_eq!(map.rank(3), None);
    }

    #[test]
    fn rank_le_for_range_predicates() {
        let (map, _) = ValueMap::normalize(&[10, 20, 30]);
        assert_eq!(map.rank_le(9), None);
        assert_eq!(map.rank_le(10), Some(0));
        assert_eq!(map.rank_le(25), Some(1));
        assert_eq!(map.rank_le(99), Some(2));
    }
}

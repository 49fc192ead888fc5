//! The answer oracle: every count reply is checked in O(1) against prefix
//! sums of the column's value histogram, so `error_rate` counts wrong
//! answers and not just failed requests.

use crate::query::{Op, Query, Threshold};

/// Expected counts for one version of the column.
#[derive(Debug, Clone)]
pub struct Oracle {
    hist: Vec<u64>,
    /// `below[v]` = rows whose value is `< v`; `below[C]` = all rows.
    below: Vec<u64>,
}

impl Oracle {
    /// Builds the oracle for `values` over the domain `0..cardinality`.
    pub fn new(values: &[u32], cardinality: u32) -> Self {
        let mut hist = vec![0u64; cardinality as usize];
        for &v in values {
            hist[v as usize] += 1;
        }
        Self::from_hist(hist)
    }

    fn from_hist(hist: Vec<u64>) -> Self {
        let mut below = Vec::with_capacity(hist.len() + 1);
        let mut acc = 0u64;
        below.push(0);
        for &h in &hist {
            acc += h;
            below.push(acc);
        }
        Self { hist, below }
    }

    /// The oracle after `values` are appended to the column.
    pub fn appended(&self, values: &[u32]) -> Self {
        let mut hist = self.hist.clone();
        for &v in values {
            hist[v as usize] += 1;
        }
        Self::from_hist(hist)
    }

    /// Rows in the column.
    pub fn rows(&self) -> u64 {
        *self.below.last().expect("prefix sums are never empty")
    }

    /// Rows satisfying `q` (no nulls: every workload's column is total).
    pub fn count(&self, q: Query) -> u64 {
        let c = self.hist.len();
        let v = (q.v as usize).min(c);
        let lt = self.below[v];
        let le = self.below[(v + 1).min(c)];
        match q.op {
            Op::Lt => lt,
            Op::Le => le,
            Op::Gt => self.rows() - le,
            Op::Ge => self.rows() - lt,
            Op::Eq => le - lt,
            Op::Ne => self.rows() - (le - lt),
        }
    }

    /// Rows satisfying the threshold query — O(C · predicates), used once
    /// per query of the fixed batch.
    pub fn threshold_count(&self, t: &Threshold) -> u64 {
        self.hist
            .iter()
            .enumerate()
            .filter(|(v, _)| t.holds(*v as u32))
            .map(|(_, &h)| h)
            .sum()
    }
}

/// The foundset of a per-value predicate over `values`, as bitmap words
/// (bit `r % 64` of word `r / 64` is row `r`): the bit-for-bit reference
/// for threshold answers, through a truth table over the value domain so
/// that 2^23 rows cost a table lookup each.
pub fn reference_words(values: &[u32], cardinality: u32, holds: impl Fn(u32) -> bool) -> Vec<u64> {
    let table: Vec<bool> = (0..cardinality).map(holds).collect();
    values
        .chunks(64)
        .map(|chunk| {
            chunk
                .iter()
                .enumerate()
                .fold(0u64, |w, (i, &v)| w | (u64::from(table[v as usize]) << i))
        })
        .collect()
}

/// The oracle under ingest: one [`Oracle`] per acknowledged-batch count.
/// A read that overlaps an in-flight batch may see either side, so a reply
/// is right when it matches any version the read could have observed.
#[derive(Debug, Clone)]
pub struct VersionedOracle {
    versions: Vec<Oracle>,
}

impl VersionedOracle {
    /// Version 0 is `base`; version `i` has the first `i` of `batches`
    /// appended.
    pub fn new(base: Oracle, batches: &[Vec<u32>]) -> Self {
        let mut versions = Vec::with_capacity(batches.len() + 1);
        versions.push(base);
        for batch in batches {
            let next = versions.last().expect("base pushed").appended(batch);
            versions.push(next);
        }
        Self { versions }
    }

    /// The oracle after `acked` batches.
    pub fn at(&self, acked: usize) -> &Oracle {
        &self.versions[acked.min(self.versions.len() - 1)]
    }

    /// `true` when `got` is the right count for `q` at some version in
    /// `acked_before ..= sent_after`: the batches acknowledged before the
    /// read was sent are visible for certain, those sent before its reply
    /// arrived may be.
    pub fn admits(&self, q: Query, acked_before: usize, sent_after: usize, got: u64) -> bool {
        (acked_before..=sent_after.max(acked_before)).any(|v| self.at(v).count(q) == got)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn brute(values: &[u32], q: Query) -> u64 {
        values.iter().filter(|&&v| q.holds(v)).count() as u64
    }

    #[test]
    fn counts_match_a_row_scan_for_the_whole_query_space() {
        let values: Vec<u32> = (0..5000u32).map(|i| (i * 7919 + i / 3) % 50).collect();
        let oracle = Oracle::new(&values, 50);
        assert_eq!(oracle.rows(), 5000);
        for op in Op::ALL {
            for v in 0..50 {
                let q = Query { op, v };
                assert_eq!(oracle.count(q), brute(&values, q), "{q:?}");
            }
        }
    }

    #[test]
    fn threshold_counts_match_a_row_scan() {
        let values: Vec<u32> = (0..3000u32).map(|i| (i * 31 + 7) % 40).collect();
        let oracle = Oracle::new(&values, 40);
        let t = Threshold {
            k: 2,
            preds: vec![
                Query { op: Op::Lt, v: 10 },
                Query { op: Op::Ge, v: 5 },
                Query { op: Op::Eq, v: 7 },
                Query { op: Op::Ne, v: 30 },
            ],
        };
        let want = values.iter().filter(|&&v| t.holds(v)).count() as u64;
        assert_eq!(oracle.threshold_count(&t), want);
    }

    #[test]
    fn reference_words_set_exactly_the_qualifying_rows() {
        let values: Vec<u32> = (0..130u32).map(|i| i % 7).collect();
        let words = reference_words(&values, 7, |v| v == 3);
        assert_eq!(words.len(), 3);
        for (r, &v) in values.iter().enumerate() {
            assert_eq!((words[r / 64] >> (r % 64)) & 1 == 1, v == 3, "row {r}");
        }
        assert_eq!(words[2] >> 2, 0, "bits past the last row stay clear");
    }

    #[test]
    fn a_read_overlapping_an_in_flight_batch_may_match_either_side() {
        let base = Oracle::new(&[1, 1, 2], 4);
        let oracle = VersionedOracle::new(base, &[vec![1, 1], vec![3]]);
        let q = Query { op: Op::Eq, v: 1 };
        assert_eq!(oracle.at(0).count(q), 2);
        assert_eq!(oracle.at(1).count(q), 4);
        // Batch 1 in flight: both counts are right, a third is not.
        assert!(oracle.admits(q, 0, 1, 2));
        assert!(oracle.admits(q, 0, 1, 4));
        assert!(!oracle.admits(q, 0, 1, 3));
        // Batch 1 acknowledged before the read was sent: the old count is stale.
        assert!(!oracle.admits(q, 1, 1, 2));
        assert_eq!(oracle.at(2).rows(), 6);
        assert_eq!(oracle.at(9).rows(), 6);
    }
}

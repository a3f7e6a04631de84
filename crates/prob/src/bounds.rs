//! Deterministic certain/possible top-K bounds from decided pairwise
//! orders.
//!
//! The sweep-line pairwise matrix resolves every strictly-disjoint pair to
//! an exact 0/1 entry, and overlapping pairs can still saturate within
//! [`ORDER_EPS`]. Those *decided* pairs pin parts of the top-K answer
//! before a single possible world is sampled:
//!
//! * a tuple with at least `n − K` tuples certainly below it is in the
//!   top-K of **every** possible world (*certainly in*);
//! * a tuple with at least `K` tuples certainly above it is in the top-K
//!   of **no** possible world (*certainly out*); everything else is
//!   *possibly in*.
//!
//! When the certain set has exactly `K` members and additionally every
//! rank `0..K` is pinned to a single tuple, the whole ordered prefix is
//! decided and the Monte-Carlo builder can skip sampling entirely —
//! [`TopKBounds::pinned_order`] is the zero-worlds early exit of the
//! adaptive precision layer (DESIGN.md §13).

use crate::compare::{PairwiseMatrix, ORDER_EPS};
use crate::error::{ProbError, Result};

/// Certain/possible top-K membership bounds derived from the decided
/// entries of a [`PairwiseMatrix`].
///
/// All fields are pure functions of the matrix and `k`; computing the
/// bounds costs one O(n²) scan and no sampling.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TopKBounds {
    n: usize,
    k: usize,
    /// Per tuple: how many other tuples are certainly above it.
    above: Vec<u32>,
    /// Per tuple: how many other tuples are certainly below it.
    below: Vec<u32>,
    /// Tuples certainly in the top-K (ascending index).
    certain: Vec<u32>,
    /// Tuples possibly in the top-K (ascending index); superset of
    /// `certain`.
    possible: Vec<u32>,
}

impl TopKBounds {
    /// Derives the bounds for a depth-`k` query from `matrix`.
    pub fn from_matrix(matrix: &PairwiseMatrix, k: usize) -> Result<Self> {
        let n = matrix.len();
        if k == 0 || k > n {
            return Err(ProbError::InvalidK { k, n });
        }
        let (above, below) = matrix.certain_dominance_counts();
        let certain: Vec<u32> = (0..n as u32)
            .filter(|&t| below[t as usize] as usize >= n - k)
            .collect();
        let possible: Vec<u32> = (0..n as u32)
            .filter(|&t| (above[t as usize] as usize) < k)
            .collect();
        Ok(Self {
            n,
            k,
            above,
            below,
            certain,
            possible,
        })
    }

    /// Number of tuples in the underlying table.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True over an empty table (unreachable through `from_matrix`, which
    /// rejects `k > n` and `k == 0`).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The query depth the bounds were derived for.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Tuples certainly in the top-K of every possible world, ascending.
    pub fn certain(&self) -> &[u32] {
        &self.certain
    }

    /// Tuples possibly in the top-K of some possible world, ascending.
    pub fn possible(&self) -> &[u32] {
        &self.possible
    }

    /// How many tuples are certainly above tuple `t`.
    #[cfg(test)]
    pub(crate) fn certainly_above(&self, t: usize) -> usize {
        self.above[t] as usize
    }

    /// How many tuples are certainly below tuple `t`.
    #[cfg(test)]
    pub(crate) fn certainly_below(&self, t: usize) -> usize {
        self.below[t] as usize
    }

    /// True if tuple `t` appears in the top-K of every possible world.
    #[cfg(test)]
    pub(crate) fn is_certainly_in(&self, t: usize) -> bool {
        self.below[t] as usize >= self.n - self.k
    }

    /// True if tuple `t` appears in the top-K of at least one world
    /// (equivalently: fewer than `k` tuples are certainly above it).
    pub fn is_possibly_in(&self, t: usize) -> bool {
        (self.above[t] as usize) < self.k
    }

    /// True when the top-K *membership* is fully decided: exactly `k`
    /// tuples are certainly in and no further tuple is possibly in.
    #[cfg(test)]
    pub(crate) fn membership_decided(&self) -> bool {
        self.certain.len() == self.k && self.possible.len() == self.k
    }

    /// The fully pinned ordered top-K prefix, if every rank is decided.
    ///
    /// Rank `r` is pinned when exactly one tuple has `r` tuples certainly
    /// above it and `n − 1 − r` certainly below it — that tuple occupies
    /// rank `r` in every possible world. If all of `0..k` are pinned the
    /// query's answer is a single ordering and no sampling is needed.
    pub fn pinned_order(&self) -> Option<Vec<u32>> {
        let mut prefix = Vec::with_capacity(self.k);
        for r in 0..self.k {
            let mut found = None;
            for t in 0..self.n {
                if self.above[t] as usize == r && self.below[t] as usize == self.n - 1 - r {
                    if found.is_some() {
                        // Two candidates for one rank can only arise from
                        // eps-boundary inconsistencies; treat as undecided.
                        return None;
                    }
                    found = Some(t as u32);
                }
            }
            prefix.push(found?);
        }
        Some(prefix)
    }
}

/// True when `p` is saturated at (numerically) certain `i > j`.
#[inline]
pub(crate) fn certainly_greater(p: f64) -> bool {
    p >= 1.0 - ORDER_EPS
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::ScoreDist;
    use crate::table::UncertainTable;

    fn u(lo: f64, hi: f64) -> ScoreDist {
        ScoreDist::uniform(lo, hi).unwrap()
    }

    /// Four tuples in a fully decided staircase.
    fn decided_table() -> UncertainTable {
        UncertainTable::new(vec![u(0.0, 0.5), u(1.0, 1.5), u(2.0, 2.5), u(3.0, 3.5)]).unwrap()
    }

    /// Two decided extremes around an overlapping middle pair.
    fn half_decided_table() -> UncertainTable {
        UncertainTable::new(vec![u(0.0, 0.5), u(1.0, 2.0), u(1.5, 2.5), u(3.0, 3.5)]).unwrap()
    }

    #[test]
    fn invalid_k_rejected() {
        let m = PairwiseMatrix::compute(&decided_table());
        assert!(matches!(
            TopKBounds::from_matrix(&m, 0),
            Err(ProbError::InvalidK { .. })
        ));
        assert!(TopKBounds::from_matrix(&m, 5).is_err());
        assert!(TopKBounds::from_matrix(&m, 4).is_ok());
    }

    #[test]
    fn fully_decided_table_pins_the_order() {
        let m = PairwiseMatrix::compute(&decided_table());
        let b = TopKBounds::from_matrix(&m, 2).unwrap();
        assert_eq!(b.certain(), &[2, 3]);
        assert_eq!(b.possible(), &[2, 3]);
        assert!(b.membership_decided());
        assert_eq!(b.pinned_order(), Some(vec![3, 2]));
        assert_eq!(b.certainly_above(3), 0);
        assert_eq!(b.certainly_below(3), 3);
        assert!(b.is_certainly_in(2) && !b.is_possibly_in(0));
        assert_eq!(b.k(), 2);
        assert_eq!(b.len(), 4);
        assert!(!b.is_empty());
    }

    #[test]
    fn overlapping_middle_keeps_membership_decided_but_not_order() {
        // K = 3: {1, 2, 3} are certainly in (tuple 0 is below everyone),
        // but ranks 1 and 2 are shared between tuples 1 and 2.
        let m = PairwiseMatrix::compute(&half_decided_table());
        let b = TopKBounds::from_matrix(&m, 3).unwrap();
        assert_eq!(b.certain(), &[1, 2, 3]);
        assert_eq!(b.possible(), &[1, 2, 3]);
        assert!(b.membership_decided());
        assert_eq!(b.pinned_order(), None, "middle pair order is open");
    }

    #[test]
    fn undecided_membership_separates_certain_from_possible() {
        // K = 2 over the half-decided table: 3 is certainly in; 1 and 2
        // compete for the second slot; 0 is certainly out.
        let m = PairwiseMatrix::compute(&half_decided_table());
        let b = TopKBounds::from_matrix(&m, 2).unwrap();
        assert_eq!(b.certain(), &[3]);
        assert_eq!(b.possible(), &[1, 2, 3]);
        assert!(!b.membership_decided());
        assert_eq!(b.pinned_order(), None);
    }

    #[test]
    fn certain_is_always_a_subset_of_possible() {
        let tables = [decided_table(), half_decided_table()];
        for table in &tables {
            let m = PairwiseMatrix::compute(table);
            for k in 1..=table.len() {
                let b = TopKBounds::from_matrix(&m, k).unwrap();
                for &t in b.certain() {
                    assert!(
                        b.possible().contains(&t),
                        "k={k}: certain tuple {t} missing from possible"
                    );
                }
            }
        }
    }

    #[test]
    fn iid_table_decides_nothing() {
        let table = UncertainTable::new((0..4).map(|_| u(0.0, 1.0)).collect()).unwrap();
        let m = PairwiseMatrix::compute(&table);
        let b = TopKBounds::from_matrix(&m, 2).unwrap();
        assert!(b.certain().is_empty());
        assert_eq!(b.possible().len(), 4);
        assert_eq!(b.pinned_order(), None);
    }
}

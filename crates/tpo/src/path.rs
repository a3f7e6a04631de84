//! Weighted path sets: the flat representation of a TPO's leaf level.
//!
//! Every root-to-leaf path of the tree of possible orderings is one
//! possible ordered top-K result `ω` with probability `Pr(ω)`. All the
//! uncertainty measures and selection algorithms operate on this flat
//! `(path, probability)` representation; the arena tree in
//! [`crate::tree`] is derived from it when level structure or
//! visualization is needed.

use crate::error::{Result, TpoError};
use ctk_rank::RankList;
use std::fmt;

/// One possible ordered top-k result and its probability.
#[derive(Debug, Clone, PartialEq)]
pub struct Path {
    /// Tuple ids, best first; length == the path set's depth (or less, for
    /// partially built trees used by the `incr` algorithm).
    pub items: Vec<u32>,
    /// Probability mass of this ordering.
    pub prob: f64,
}

impl Path {
    /// The path as a [`RankList`] (for distance computations).
    pub fn rank_list(&self) -> RankList {
        RankList::new_unchecked(self.items.clone())
    }
}

impl fmt::Display for Path {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.4} :", self.prob)?;
        for it in &self.items {
            write!(f, " t{it}")?;
        }
        Ok(())
    }
}

/// A normalized distribution over possible ordered top-k prefixes.
#[derive(Debug, Clone, PartialEq)]
pub struct PathSet {
    k: usize,
    paths: Vec<Path>,
}

impl PathSet {
    /// Builds a path set of target depth `k` from `(items, weight)` pairs.
    ///
    /// Weights are normalized; zero-weight paths are dropped; the result is
    /// deterministically sorted (descending probability, then
    /// lexicographic). Fails if nothing remains.
    pub fn from_weighted(k: usize, weighted: Vec<(Vec<u32>, f64)>) -> Result<Self> {
        let mut paths: Vec<Path> = weighted
            .into_iter()
            .filter(|(items, prob)| {
                debug_assert!(items.len() <= k, "path longer than depth k");
                *prob > 0.0
            })
            .map(|(items, prob)| Path { items, prob })
            .collect();
        if paths.is_empty() {
            return Err(TpoError::EmptyPathSet);
        }
        // Canonical order *before* summation: callers may feed paths in
        // hash-map order, and float addition is not associative — without
        // this, bitwise reproducibility across runs would be lost.
        paths.sort_unstable_by(|a, b| a.items.cmp(&b.items));
        let total: f64 = paths.iter().map(|p| p.prob).sum();
        if total <= 0.0 {
            return Err(TpoError::EmptyPathSet);
        }
        for p in &mut paths {
            p.prob /= total;
        }
        sort_paths(&mut paths);
        Ok(Self { k, paths })
    }

    /// Target depth `K` of the underlying query.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The possible orderings (normalized, deterministically sorted).
    pub fn paths(&self) -> &[Path] {
        &self.paths
    }

    /// Number of possible orderings — the paper's headline uncertainty
    /// proxy (`|T_K|`).
    pub fn len(&self) -> usize {
        self.paths.len()
    }

    /// Path sets are never empty (enforced at construction).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// True when a single ordering remains: the query result is certain.
    pub fn is_resolved(&self) -> bool {
        self.paths.len() == 1
    }

    /// The most probable ordering (MPO). Ties broken by the deterministic
    /// sort order.
    pub fn most_probable(&self) -> &Path {
        // Paths are sorted descending by probability.
        &self.paths[0]
    }

    /// Sum of probabilities (≈ 1; exposed for invariant tests).
    pub fn total_prob(&self) -> f64 {
        self.paths.iter().map(|p| p.prob).sum()
    }

    /// Sorted union of tuple ids appearing in any path.
    pub fn tuples(&self) -> Vec<u32> {
        let mut ids: Vec<u32> = Vec::new();
        for p in &self.paths {
            for &it in &p.items {
                if let Err(pos) = ids.binary_search(&it) {
                    ids.insert(pos, it);
                }
            }
        }
        ids
    }

    /// The paths as weighted [`RankList`]s (for tournaments / measures).
    pub fn to_weighted_lists(&self) -> Vec<(RankList, f64)> {
        self.paths.iter().map(|p| (p.rank_list(), p.prob)).collect()
    }

    /// Shannon entropy (nats) of the path distribution.
    pub fn entropy(&self) -> f64 {
        -self
            .paths
            .iter()
            .filter(|p| p.prob > 0.0)
            .map(|p| p.prob * p.prob.ln())
            .sum::<f64>()
    }

    /// Internal: rebuilds from already-normalized parts (used by prune /
    /// update, which maintain the invariants themselves).
    pub(crate) fn from_parts_unchecked(k: usize, mut paths: Vec<Path>) -> Self {
        sort_paths(&mut paths);
        Self { k, paths }
    }
}

impl fmt::Display for PathSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "PathSet(k={}, {} orderings)", self.k, self.paths.len())?;
        for p in &self.paths {
            writeln!(f, "  {p}")?;
        }
        Ok(())
    }
}

fn sort_paths(paths: &mut [Path]) {
    paths.sort_unstable_by(|a, b| {
        b.prob
            .total_cmp(&a.prob)
            .then_with(|| a.items.cmp(&b.items))
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ps(weighted: Vec<(Vec<u32>, f64)>) -> PathSet {
        PathSet::from_weighted(2, weighted).unwrap()
    }

    #[test]
    fn normalizes_and_sorts() {
        let s = ps(vec![
            (vec![0, 1], 1.0),
            (vec![1, 0], 3.0),
            (vec![0, 2], 0.0), // dropped
        ]);
        assert_eq!(s.len(), 2);
        assert!((s.total_prob() - 1.0).abs() < 1e-12);
        assert_eq!(s.paths()[0].items, vec![1, 0]);
        assert!((s.paths()[0].prob - 0.75).abs() < 1e-12);
        assert_eq!(s.most_probable().items, vec![1, 0]);
        assert!(!s.is_resolved());
        assert!(!s.is_empty());
    }

    #[test]
    fn empty_inputs_rejected() {
        assert!(matches!(
            PathSet::from_weighted(2, vec![]),
            Err(TpoError::EmptyPathSet)
        ));
        assert!(PathSet::from_weighted(2, vec![(vec![0, 1], 0.0)]).is_err());
    }

    #[test]
    fn tuples_union_sorted() {
        let s = ps(vec![(vec![3, 1], 0.5), (vec![1, 2], 0.5)]);
        assert_eq!(s.tuples(), vec![1, 2, 3]);
    }

    #[test]
    fn entropy_of_uniform_two() {
        let s = ps(vec![(vec![0, 1], 0.5), (vec![1, 0], 0.5)]);
        assert!((s.entropy() - (2.0f64).ln()).abs() < 1e-12);
        let resolved = ps(vec![(vec![0, 1], 1.0)]);
        assert_eq!(resolved.entropy(), 0.0);
        assert!(resolved.is_resolved());
    }

    #[test]
    fn tie_breaking_is_deterministic() {
        let s1 = ps(vec![(vec![1, 0], 0.5), (vec![0, 1], 0.5)]);
        let s2 = ps(vec![(vec![0, 1], 0.5), (vec![1, 0], 0.5)]);
        assert_eq!(s1, s2);
        assert_eq!(s1.most_probable().items, vec![0, 1]);
    }

    #[test]
    fn weighted_lists_align() {
        let s = ps(vec![(vec![0, 1], 0.25), (vec![1, 0], 0.75)]);
        let lists = s.to_weighted_lists();
        assert_eq!(lists.len(), 2);
        assert_eq!(lists[0].0.items(), &[1, 0]);
        assert!((lists[0].1 - 0.75).abs() < 1e-12);
    }

    #[test]
    fn display_formats() {
        let s = ps(vec![(vec![0, 1], 1.0)]);
        let txt = format!("{s}");
        assert!(txt.contains("1 orderings"));
        assert!(txt.contains("t0 t1"));
    }
}

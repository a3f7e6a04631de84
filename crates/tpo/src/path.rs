//! Weighted path sets: the flat representation of a TPO's leaf level.
//!
//! Every root-to-leaf path of the tree of possible orderings is one
//! possible ordered top-K result `ω` with probability `Pr(ω)`. All the
//! uncertainty measures and selection algorithms operate on this flat
//! `(path, probability)` representation; the arena tree in
//! [`crate::tree`] is derived from it when level structure or
//! visualization is needed.
//!
//! A path set also carries its prefix structure ([`PrefixGroups`]: each
//! path's rank in items order and its dense prefix-group id per level),
//! which `U_Hw`'s level distributions and the residual partition's index
//! read. It is derived when the set is built, never by a sort: a built
//! set's paths pass through items order before they are normalized, and a
//! pruned or reweighted set keeps its parent's items order with the
//! dropped paths filtered out, so one linear pass over that order numbers
//! the groups. The structure sits behind an [`Arc`], so clones (a stored
//! belief and every session started from it) share it.

use crate::error::{Result, TpoError};
use crate::stats::PrefixGroups;
use ctk_rank::RankList;
use std::fmt;
use std::sync::Arc;

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
    /// The prefix groups of `paths`, shared by clones.
    groups: Arc<PrefixGroups>,
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
        // Repeated orderings go by descending weight, the order the
        // probability sort below keeps them in.
        paths.sort_unstable_by(|a, b| a.items.cmp(&b.items).then(b.prob.total_cmp(&a.prob)));
        let total: f64 = paths.iter().map(|p| p.prob).sum();
        if total <= 0.0 {
            return Err(TpoError::EmptyPathSet);
        }
        for p in &mut paths {
            p.prob /= total;
        }
        let order = (0..paths.len() as u32).collect();
        Ok(Self::from_parts_unchecked(k, paths, order))
    }

    /// The paths of `self` that `mass` keeps, renormalized: `mass(path)` is
    /// a path's new unnormalized mass, and paths with none are dropped.
    /// Returns the set and the mass that survived (summed in path order),
    /// or [`TpoError::ContradictoryAnswer`] when none did. The survivors
    /// keep `self`'s items order, so their groups need no sort.
    pub(crate) fn reweighted(&self, mut mass: impl FnMut(&Path) -> f64) -> Result<(Self, f64)> {
        let mut kept: Vec<Path> = Vec::with_capacity(self.len());
        // `by_rank[r]`: the survivor at items rank `r` of `self`, if any.
        let mut by_rank = vec![u32::MAX; self.len()];
        for (p, path) in self.paths.iter().enumerate() {
            let m = mass(path);
            if m > 0.0 {
                by_rank[self.groups.rank(p) as usize] = kept.len() as u32;
                kept.push(Path {
                    items: path.items.clone(),
                    prob: m,
                });
            }
        }
        let total: f64 = kept.iter().map(|p| p.prob).sum();
        if kept.is_empty() || total <= 0.0 {
            return Err(TpoError::ContradictoryAnswer);
        }
        for p in &mut kept {
            p.prob /= total;
        }
        by_rank.retain(|&i| i != u32::MAX);
        Ok((Self::from_parts_unchecked(self.k, kept, by_rank), total))
    }

    /// Internal: builds from normalized paths (their invariants are the
    /// caller's), where `order` lists `paths`' indices in items order,
    /// repeated orderings by descending probability. Sorts the paths by
    /// descending probability, ties by items, and numbers the prefix
    /// groups in one pass over `order`. A pruned or reweighted set hands
    /// its survivors over in its parent's path order, which is nearly
    /// sorted by probability already; a repeated ordering's copies share
    /// every factor, so they keep their parent's relative order.
    fn from_parts_unchecked(k: usize, mut paths: Vec<Path>, order: Vec<u32>) -> Self {
        let n = paths.len();
        let mut rank = vec![0u32; n];
        for (r, &i) in order.iter().enumerate() {
            rank[i as usize] = r as u32;
        }
        // `(probability, items rank)` in `paths` order, sorted by
        // descending probability, then rank.
        let mut by_prob: Vec<(f64, u32)> = paths
            .iter()
            .map(|p| p.prob)
            .zip(rank.iter().copied())
            .collect();
        by_prob.sort_unstable_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
        // `at[i]`: the position of `paths[i]` in the built set.
        let mut at = rank;
        for (p, &(_, r)) in by_prob.iter().enumerate() {
            at[order[r as usize] as usize] = p as u32;
        }
        let groups = PrefixGroups::from_items_order(&paths, &order, &at);
        let paths: Vec<Path> = by_prob
            .iter()
            .map(|&(_, r)| {
                let p = &mut paths[order[r as usize] as usize];
                Path {
                    items: std::mem::take(&mut p.items),
                    prob: p.prob,
                }
            })
            .collect();
        #[cfg(feature = "debug-invariants")]
        assert!(
            groups == PrefixGroups::sorted_reference(&paths),
            "the derived prefix groups differ from the sorted grouping"
        );
        Self {
            k,
            paths,
            groups: Arc::new(groups),
        }
    }

    /// Target depth `K` of the underlying query.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The possible orderings (normalized, deterministically sorted).
    pub fn paths(&self) -> &[Path] {
        &self.paths
    }

    /// The prefix groups of [`PathSet::paths`], derived when the set was
    /// built and shared by its clones.
    pub fn prefix_groups(&self) -> &Arc<PrefixGroups> {
        &self.groups
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
    fn clones_share_the_prefix_groups() {
        let s = ps(vec![(vec![0, 1], 0.25), (vec![1, 0], 0.75)]);
        assert!(Arc::ptr_eq(s.prefix_groups(), s.clone().prefix_groups()));
        assert_eq!(s.prefix_groups().count(0), 2);
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

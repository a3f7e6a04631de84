//! Statistics over path sets: level-wise prefix distributions (for the
//! weighted-entropy measure), pairwise precedence probabilities (for
//! question selection), and assorted summaries.

use crate::answers::{implication, Implication};
use crate::path::{Path, PathSet};

/// Dense prefix-group ids of a slice of paths, level by level.
///
/// Paths are ranked by their items (lexicographic, a prefix before its
/// extensions). At level `ℓ` a path's key is `items[..min(ℓ, len)]`, and
/// paths sharing a key sit next to each other in items order, so numbering
/// the runs of equal keys gives every distinct prefix a dense id. Ids
/// ascend in key order — the iteration order of a map keyed by prefix.
#[derive(Debug, Clone)]
pub struct PrefixGroups {
    depth: usize,
    /// `rank[p]`: position of path `p` in items order (ties by index).
    rank: Vec<u32>,
    /// `ids[p · depth + ℓ]`: group of path `p` at level `ℓ + 1`.
    ids: Vec<u32>,
    /// Number of distinct prefixes at each level.
    counts: Vec<usize>,
}

impl PrefixGroups {
    /// Groups `paths` (one sort by items, then one pass per level).
    pub fn new(paths: &[Path]) -> Self {
        let depth = paths.iter().map(|p| p.items.len()).max().unwrap_or(0);
        let n = paths.len();
        let mut order: Vec<u32> = (0..n as u32).collect();
        order.sort_unstable_by(|&a, &b| {
            paths[a as usize]
                .items
                .cmp(&paths[b as usize].items)
                .then(a.cmp(&b))
        });
        let mut rank = vec![0u32; n];
        for (r, &p) in order.iter().enumerate() {
            rank[p as usize] = r as u32;
        }
        let mut ids = vec![0u32; n * depth];
        let mut counts = vec![0usize; depth];
        for (l, count) in counts.iter_mut().enumerate() {
            let mut prev: Option<&[u32]> = None;
            for &p in &order {
                let items = &paths[p as usize].items;
                let key = &items[..(l + 1).min(items.len())];
                if prev != Some(key) {
                    prev = Some(key);
                    *count += 1;
                }
                ids[p as usize * depth + l] = (*count - 1) as u32;
            }
        }
        Self {
            depth,
            rank,
            ids,
            counts,
        }
    }

    /// Number of levels (the longest path's length).
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Position of path `p` in items order.
    #[inline]
    pub fn rank(&self, p: usize) -> u32 {
        self.rank[p]
    }

    /// Group id of path `p`'s prefix at 0-based level `l`.
    #[inline]
    pub fn id(&self, p: usize, l: usize) -> usize {
        self.ids[p * self.depth + l] as usize
    }

    /// Number of distinct prefixes at 0-based level `l`.
    pub fn count(&self, l: usize) -> usize {
        self.counts[l]
    }
}

/// For each level `ℓ = 1..=depth`, the probability distribution over the
/// distinct length-`ℓ` prefixes of the path set (each inner vector sums to
/// ~1). Level `ℓ`'s entropy is the paper's `H(T_K, ℓ)` ingredient of
/// `U_Hw`.
///
/// Group sums accumulate in path-set order, and each level is sorted
/// descending, so the entropy summation order is reproducible.
pub fn level_distributions(ps: &PathSet) -> Vec<Vec<f64>> {
    let groups = PrefixGroups::new(ps.paths());
    (0..groups.depth())
        .map(|l| {
            let mut probs = vec![0.0; groups.count(l)];
            for (p, path) in ps.paths().iter().enumerate() {
                probs[groups.id(p, l)] += path.prob;
            }
            probs.sort_unstable_by(|a, b| b.total_cmp(a));
            probs
        })
        .collect()
}

/// Probability that tuple `i` ranks above tuple `j` under the path
/// distribution; paths that do not determine the pair contribute `prior`.
pub fn precedence_probability(ps: &PathSet, i: u32, j: u32, prior: f64) -> f64 {
    let mut p = 0.0;
    for path in ps.paths() {
        p += path.prob
            * match implication(&path.items, i, j) {
                Implication::Yes => 1.0,
                Implication::No => 0.0,
                Implication::Undetermined => prior,
            };
    }
    p.clamp(0.0, 1.0)
}

/// Marginal probability that tuple `t` appears at rank `r` (0-based).
pub fn rank_probability(ps: &PathSet, t: u32, r: usize) -> f64 {
    // `+ 0.0` normalizes the empty sum, which is -0.0 in std.
    ps.paths()
        .iter()
        .filter(|p| p.items.get(r) == Some(&t))
        .map(|p| p.prob)
        .sum::<f64>()
        + 0.0
}

/// Marginal probability that tuple `t` appears anywhere in the top-k.
pub fn membership_probability(ps: &PathSet, t: u32) -> f64 {
    ps.paths()
        .iter()
        .filter(|p| p.items.contains(&t))
        .map(|p| p.prob)
        .sum::<f64>()
        + 0.0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ps() -> PathSet {
        PathSet::from_weighted(
            2,
            vec![(vec![0, 1], 0.5), (vec![0, 2], 0.2), (vec![1, 0], 0.3)],
        )
        .unwrap()
    }

    #[test]
    fn level_distributions_shape_and_mass() {
        let levels = level_distributions(&ps());
        assert_eq!(levels.len(), 2);
        // Level 1: prefixes [0] (0.7) and [1] (0.3).
        assert_eq!(levels[0].len(), 2);
        assert!((levels[0].iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!((levels[0][0] - 0.7).abs() < 1e-12);
        // Level 2: three distinct prefixes.
        assert_eq!(levels[1].len(), 3);
        assert!((levels[1].iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn precedence_probabilities() {
        let s = ps();
        // 0 above 1: paths [0,1] yes (0.5), [0,2] yes via membership (0.2),
        // [1,0] no. => 0.7
        assert!((precedence_probability(&s, 0, 1, 0.5) - 0.7).abs() < 1e-12);
        assert!((precedence_probability(&s, 1, 0, 0.5) - 0.3).abs() < 1e-12);
        // Pair (5,6) absent everywhere: prior.
        assert!((precedence_probability(&s, 5, 6, 0.25) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn rank_and_membership() {
        let s = ps();
        assert!((rank_probability(&s, 0, 0) - 0.7).abs() < 1e-12);
        assert!((rank_probability(&s, 0, 1) - 0.3).abs() < 1e-12);
        assert!((rank_probability(&s, 2, 1) - 0.2).abs() < 1e-12);
        assert!((membership_probability(&s, 0) - 1.0).abs() < 1e-12);
        assert!((membership_probability(&s, 2) - 0.2).abs() < 1e-12);
        assert_eq!(membership_probability(&s, 9), 0.0);
    }

    #[test]
    fn complementarity_of_precedence() {
        let s = ps();
        for &(i, j) in &[(0u32, 1u32), (0, 2), (1, 2)] {
            let p = precedence_probability(&s, i, j, 0.5);
            let q = precedence_probability(&s, j, i, 0.5);
            assert!((p + q - 1.0).abs() < 1e-12, "({i},{j})");
        }
    }
}

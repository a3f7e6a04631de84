//! Statistics over path sets: level-wise prefix distributions (for the
//! weighted-entropy measure), pairwise precedence probabilities (for
//! question selection), and assorted summaries.
//!
//! A path set's prefix groups ([`PrefixGroups`]) are derived once, when
//! the set is built ([`PathSet::prefix_groups`]), and shared by its
//! clones; [`level_distributions`] reads them and never regroups.

use crate::answers::{implication, Implication};
use crate::path::{Path, PathSet};

/// Dense prefix-group ids of a path set, level by level.
///
/// Paths are ranked by their items (lexicographic, a prefix before its
/// extensions; identical orderings by path-set position). At level `ℓ` a
/// path's key is `items[..min(ℓ, len)]`, and paths sharing a key sit next
/// to each other in items order, so numbering the runs of equal keys gives
/// every distinct prefix a dense id. Ids ascend in key order — the
/// iteration order of a map keyed by prefix.
///
/// Ranks and ids are below the path count, so they are stored at the
/// narrowest width it allows: one byte per entry up to 256 paths, two up
/// to 65 536, four beyond.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrefixGroups {
    depth: usize,
    /// `rank[p]`: position of path `p` in items order.
    rank: Dense,
    /// `ids[p · depth + ℓ]`: group of path `p` at level `ℓ + 1`.
    ids: Dense,
    /// Number of distinct prefixes at each level.
    counts: Vec<usize>,
}

/// Values below a bound, at the narrowest width that holds the bound.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Dense {
    Byte(Box<[u8]>),
    Half(Box<[u16]>),
    Word(Box<[u32]>),
}

impl Dense {
    /// `len` zeros at the width of values below `bound`.
    fn zeroed(len: usize, bound: usize) -> Self {
        if bound <= 1 << 8 {
            Dense::Byte(vec![0; len].into_boxed_slice())
        } else if bound <= 1 << 16 {
            Dense::Half(vec![0; len].into_boxed_slice())
        } else {
            Dense::Word(vec![0; len].into_boxed_slice())
        }
    }

    #[inline]
    fn get(&self, i: usize) -> usize {
        match self {
            Dense::Byte(v) => v[i] as usize,
            Dense::Half(v) => v[i] as usize,
            Dense::Word(v) => v[i] as usize,
        }
    }

    /// Stores `x`, which is below the bound the width was chosen for.
    #[inline]
    fn set(&mut self, i: usize, x: usize) {
        match self {
            Dense::Byte(v) => v[i] = x as u8,
            Dense::Half(v) => v[i] = x as u16,
            Dense::Word(v) => v[i] = x as u32,
        }
    }

    /// Stores `row` (values below the bound) from index `start`.
    #[inline]
    fn set_row(&mut self, start: usize, row: &[usize]) {
        let slots = start..start + row.len();
        match self {
            Dense::Byte(v) => v[slots]
                .iter_mut()
                .zip(row)
                .for_each(|(d, &x)| *d = x as u8),
            Dense::Half(v) => v[slots]
                .iter_mut()
                .zip(row)
                .for_each(|(d, &x)| *d = x as u16),
            Dense::Word(v) => v[slots]
                .iter_mut()
                .zip(row)
                .for_each(|(d, &x)| *d = x as u32),
        }
    }

    /// Bytes of the stored values.
    fn bytes(&self) -> usize {
        match self {
            Dense::Byte(v) => v.len(),
            Dense::Half(v) => 2 * v.len(),
            Dense::Word(v) => 4 * v.len(),
        }
    }
}

/// The first 0-based level at which `b`'s prefix key differs from `a`'s,
/// or `depth` when the orderings are identical. Keys that differ at one
/// level differ at every deeper one.
fn first_split(a: &[u32], b: &[u32], depth: usize) -> usize {
    let common = a.iter().zip(b).take_while(|(x, y)| x == y).count();
    if common == a.len() && common == b.len() {
        depth
    } else {
        common
    }
}

impl PrefixGroups {
    /// Groups a path set from its items order: `order[r]` indexes the
    /// `r`-th path in items order within `paths`, and `at[i]` is path
    /// `paths[i]`'s position in the path set. Identical orderings must
    /// appear in ascending position. Each path opens a new group at every
    /// level from the first one where its key differs from its
    /// predecessor's, so one pass numbers every level.
    pub(crate) fn from_items_order(paths: &[Path], order: &[u32], at: &[u32]) -> Self {
        let n = paths.len();
        let depth = paths.iter().map(|p| p.items.len()).max().unwrap_or(0);
        let mut rank = Dense::zeroed(n, n);
        let mut ids = Dense::zeroed(n * depth, n);
        // The current group id at each level; the first path wraps every
        // level to group 0.
        let mut current = vec![usize::MAX; depth];
        let mut prev: &[u32] = &[];
        for (r, &i) in order.iter().enumerate() {
            let items = &paths[i as usize].items;
            let split = if r == 0 {
                0
            } else {
                first_split(prev, items, depth)
            };
            prev = items;
            let p = at[i as usize] as usize;
            rank.set(p, r);
            for id in &mut current[split..] {
                *id = id.wrapping_add(1);
            }
            ids.set_row(p * depth, &current);
        }
        let counts = current.iter().map(|id| id.wrapping_add(1)).collect();
        Self {
            depth,
            rank,
            ids,
            counts,
        }
    }

    /// The grouping by one sort of the paths by items, then one pass per
    /// level comparing keys: the reference [`PrefixGroups::from_items_order`]
    /// is checked against.
    #[cfg(any(test, feature = "debug-invariants"))]
    pub(crate) fn sorted_reference(paths: &[Path]) -> Self {
        let depth = paths.iter().map(|p| p.items.len()).max().unwrap_or(0);
        let n = paths.len();
        let mut order: Vec<u32> = (0..n as u32).collect();
        order.sort_unstable_by(|&a, &b| {
            paths[a as usize]
                .items
                .cmp(&paths[b as usize].items)
                .then(a.cmp(&b))
        });
        let mut rank = Dense::zeroed(n, n);
        for (r, &p) in order.iter().enumerate() {
            rank.set(p as usize, r);
        }
        let mut ids = Dense::zeroed(n * depth, n);
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
                ids.set(p as usize * depth + l, *count - 1);
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
        self.rank.get(p) as u32
    }

    /// Group id of path `p`'s prefix at 0-based level `l`.
    #[inline]
    pub fn id(&self, p: usize, l: usize) -> usize {
        self.ids.get(p * self.depth + l)
    }

    /// Number of distinct prefixes at 0-based level `l`.
    pub fn count(&self, l: usize) -> usize {
        self.counts[l]
    }

    /// Bytes the grouping holds.
    pub fn bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.rank.bytes()
            + self.ids.bytes()
            + self.counts.len() * std::mem::size_of::<usize>()
    }
}

/// For each level `ℓ = 1..=depth`, the probability distribution over the
/// distinct length-`ℓ` prefixes of the path set (each inner vector sums to
/// ~1). Level `ℓ`'s entropy is the paper's `H(T_K, ℓ)` ingredient of
/// `U_Hw`.
///
/// The groups are the path set's stored [`PrefixGroups`]. Group sums
/// accumulate in path-set order, and each level is sorted descending, so
/// the entropy summation order is reproducible.
pub fn level_distributions(ps: &PathSet) -> Vec<Vec<f64>> {
    let groups = ps.prefix_groups();
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

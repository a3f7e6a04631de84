//! Weighted majority tournaments.
//!
//! A tournament summarizes a probability distribution over (top-k) rank
//! lists into pairwise precedence weights `w(i, j) = P(i ranked above j)`.
//! The Optimal Rank Aggregation of Soliman et al. (SIGMOD'11) — the
//! representative ordering behind the paper's `U_ORA` measure — is the
//! ordering minimizing the total weight of disagreeing pairs, i.e. a
//! minimum weighted feedback-arc-set problem over this tournament.

use crate::list::RankList;

/// Pairwise precedence weights over a candidate item set.
#[derive(Debug, Clone)]
pub struct Tournament {
    items: Vec<u32>,
    /// Row-major `n x n`; `w[i*n+j] = P(items[i] above items[j])`.
    w: Vec<f64>,
}

impl Tournament {
    /// Builds a tournament from weighted rank lists (weights need not sum
    /// to 1; they are normalized).
    ///
    /// Membership-aware precedence semantics for a top-k list `ω` and pair
    /// `(u, v)`:
    /// * both ranked — precedence by position;
    /// * only `u` ranked — `u` precedes (`v` is below the top-k);
    /// * neither ranked — the list is uninformative: mass splits evenly.
    pub fn from_weighted_lists(lists: &[(RankList, f64)]) -> Self {
        // Candidate set: union of all ranked items, sorted for determinism.
        let mut items: Vec<u32> = Vec::new();
        for (l, _) in lists {
            for &it in l.items() {
                if !items.contains(&it) {
                    items.push(it);
                }
            }
        }
        items.sort_unstable();
        let n = items.len();
        let total: f64 = lists.iter().map(|(_, m)| *m).sum();
        let mut w = vec![0.0; n * n];
        if n == 0 || total <= 0.0 {
            return Self { items, w };
        }
        for (l, mass) in lists {
            let frac = mass / total;
            for (a, &u) in items.iter().enumerate() {
                for (b, &v) in items.iter().enumerate() {
                    if a == b {
                        continue;
                    }
                    let pu = l.position(u);
                    let pv = l.position(v);
                    let p_u_above = match (pu, pv) {
                        (Some(x), Some(y)) => {
                            if x < y {
                                1.0
                            } else {
                                0.0
                            }
                        }
                        (Some(_), None) => 1.0,
                        (None, Some(_)) => 0.0,
                        (None, None) => 0.5,
                    };
                    w[a * n + b] += frac * p_u_above;
                }
            }
        }
        // Diagonal convention.
        for a in 0..n {
            w[a * n + a] = 0.5;
        }
        Self { items, w }
    }

    /// Builds directly from items and a weight function (for tests and for
    /// tournaments derived from pairwise marginals rather than lists).
    pub fn from_fn<F>(items: Vec<u32>, f: F) -> Self
    where
        F: Fn(u32, u32) -> f64,
    {
        let n = items.len();
        let mut w = vec![0.5; n * n];
        for a in 0..n {
            for b in 0..n {
                if a != b {
                    w[a * n + b] = f(items[a], items[b]);
                }
            }
        }
        Self { items, w }
    }

    /// Candidate items (sorted ascending).
    pub fn items(&self) -> &[u32] {
        &self.items
    }

    /// Number of candidates.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when there are no candidates.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// `P(items[a] above items[b])` by *index* into [`Tournament::items`].
    pub fn weight(&self, a: usize, b: usize) -> f64 {
        self.w[a * self.items.len() + b]
    }

    /// Index of `item` in the candidate set.
    fn index_of(&self, item: u32) -> Option<usize> {
        self.items.binary_search(&item).ok()
    }

    /// Cost of an ordering (given as indices into the candidate set): the
    /// total weight of voter preferences it violates,
    /// `Σ_{a before b} w(b, a)`.
    pub fn cost_of_indices(&self, order: &[usize]) -> f64 {
        let mut c = 0.0;
        for x in 0..order.len() {
            for y in (x + 1)..order.len() {
                c += self.weight(order[y], order[x]);
            }
        }
        c
    }

    /// Cost of an ordering given as a [`RankList`] of item ids; the list
    /// must rank every candidate exactly once.
    pub fn cost_of(&self, order: &RankList) -> f64 {
        let idx: Vec<usize> = order
            .items()
            .iter()
            // ctk-allow(panic-unwrap): RankList is validated against this tournament's item set
            .map(|&it| self.index_of(it).expect("ordering over tournament items"))
            .collect();
        self.cost_of_indices(&idx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rl(items: &[u32]) -> RankList {
        RankList::new(items.to_vec()).unwrap()
    }

    #[test]
    fn single_list_is_deterministic() {
        let t = Tournament::from_weighted_lists(&[(rl(&[2, 0, 1]), 1.0)]);
        assert_eq!(t.items(), &[0, 1, 2]);
        let i2 = t.index_of(2).unwrap();
        let i0 = t.index_of(0).unwrap();
        let i1 = t.index_of(1).unwrap();
        assert_eq!(t.weight(i2, i0), 1.0);
        assert_eq!(t.weight(i0, i2), 0.0);
        assert_eq!(t.weight(i0, i1), 1.0);
        // Consistent ordering has zero cost; reversal has max cost 3.
        assert_eq!(t.cost_of(&rl(&[2, 0, 1])), 0.0);
        assert_eq!(t.cost_of(&rl(&[1, 0, 2])), 3.0);
    }

    #[test]
    fn weights_are_complementary() {
        let lists = [
            (rl(&[0, 1, 2]), 0.5),
            (rl(&[1, 0, 2]), 0.25),
            (rl(&[2, 1, 0]), 0.25),
        ];
        let t = Tournament::from_weighted_lists(&lists);
        for a in 0..t.len() {
            for b in 0..t.len() {
                if a != b {
                    assert!(
                        (t.weight(a, b) + t.weight(b, a) - 1.0).abs() < 1e-12,
                        "({a},{b})"
                    );
                }
            }
        }
    }

    #[test]
    fn membership_implies_precedence() {
        // Two top-2 lists over a 3-item universe.
        let lists = [(rl(&[0, 1]), 0.5), (rl(&[0, 2]), 0.5)];
        let t = Tournament::from_weighted_lists(&lists);
        let (i0, i1, i2) = (
            t.index_of(0).unwrap(),
            t.index_of(1).unwrap(),
            t.index_of(2).unwrap(),
        );
        // 0 precedes both in every list.
        assert_eq!(t.weight(i0, i1), 1.0);
        assert_eq!(t.weight(i0, i2), 1.0);
        // 1 vs 2: first list says 1 (member vs non-member), second says 2.
        assert!((t.weight(i1, i2) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn prior_fills_unknown_pairs() {
        // Lists that never mention 1 vs 2 together: the both-absent case
        // needs k < |items|.
        let lists = [(rl(&[0]), 1.0), (rl(&[1]), 1.0), (rl(&[2]), 1.0)];
        let t = Tournament::from_weighted_lists(&lists);
        let (i1, i2) = (t.index_of(1).unwrap(), t.index_of(2).unwrap());
        // For the list [0]: both 1 and 2 absent -> even split 0.5 for (1,2).
        // For [1]: 1 present -> 1.0. For [2]: 2 present -> 0.0.
        let expect = (0.5 + 1.0 + 0.0) / 3.0;
        assert!((t.weight(i1, i2) - expect).abs() < 1e-12);
    }

    #[test]
    fn from_fn_and_cost() {
        let t = Tournament::from_fn(vec![10, 20], |u, _| if u == 10 { 0.8 } else { 0.2 });
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
        // Order [10, 20] violates the 0.2 mass preferring 20 first.
        assert!((t.cost_of(&rl(&[10, 20])) - 0.2).abs() < 1e-12);
        assert!((t.cost_of(&rl(&[20, 10])) - 0.8).abs() < 1e-12);
    }

    #[test]
    fn empty_input() {
        let t = Tournament::from_weighted_lists(&[]);
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
    }
}

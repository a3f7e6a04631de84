//! Exact Kemeny/ORA solver: Held-Karp style dynamic programming over
//! subsets. `dp[S]` is the minimum cost of arranging the candidate set `S`
//! as a prefix of the ordering; transitioning appends candidate `v ∉ S` at
//! the next position, paying the weight of all still-unplaced candidates
//! preferred above `v`.
//!
//! Complexity `O(2^n · n^2)` time, `O(2^n)` space — exact up to `n ≈ 20`,
//! although [`super::optimal_rank_aggregation`] uses it only up to 14
//! candidates to keep worst-case latency in interactive use low.

use crate::tournament::Tournament;

/// Computes the exact minimum-cost ordering (as candidate indices).
///
/// # Panics
/// Panics if the tournament has more than 24 candidates (the DP table would
/// exceed memory) — callers should route big instances to the heuristics.
pub fn exact_kemeny(t: &Tournament) -> Vec<usize> {
    let n = t.len();
    assert!(n <= 24, "exact Kemeny DP limited to 24 candidates, got {n}");
    if n == 0 {
        return Vec::new();
    }
    if n == 1 {
        return vec![0];
    }
    let full: u32 = if n == 32 { u32::MAX } else { (1u32 << n) - 1 };
    let size = 1usize << n;
    let mut dp = vec![f64::INFINITY; size];
    let mut parent = vec![u8::MAX; size];
    dp[0] = 0.0;

    // cost_add(v, S) = sum over u not in S and u != v of w(u, v):
    // placing v next violates every remaining candidate's preference to be
    // above v. Precompute column sums for the rest-of-world term.
    let colsum: Vec<f64> = (0..n)
        .map(|v| (0..n).filter(|&u| u != v).map(|u| t.weight(u, v)).sum())
        .collect();

    for s in 0..size as u32 {
        let base = dp[s as usize];
        if !base.is_finite() {
            continue;
        }
        #[allow(clippy::needless_range_loop)] // v is a bit index, not a slice cursor
        for v in 0..n {
            let bit = 1u32 << v;
            if s & bit != 0 {
                continue;
            }
            // Subtract the placed candidates' contributions from colsum.
            let mut add = colsum[v];
            let mut placed = s;
            while placed != 0 {
                let u = placed.trailing_zeros() as usize;
                add -= t.weight(u, v);
                placed &= placed - 1;
            }
            let ns = s | bit;
            let cand = base + add;
            if cand < dp[ns as usize] {
                dp[ns as usize] = cand;
                parent[ns as usize] = v as u8;
            }
        }
    }

    // Reconstruct.
    let mut order = vec![0usize; n];
    let mut s = full;
    for slot in (0..n).rev() {
        let v = parent[s as usize] as usize;
        order[slot] = v;
        s &= !(1u32 << v);
    }
    debug_assert_eq!(s, 0);
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::list::RankList;

    #[test]
    fn trivial_sizes() {
        let t0 = Tournament::from_weighted_lists(&[]);
        assert!(exact_kemeny(&t0).is_empty());
        let t1 = Tournament::from_weighted_lists(&[(RankList::new(vec![7]).unwrap(), 1.0)]);
        assert_eq!(exact_kemeny(&t1), vec![0]);
    }

    #[test]
    fn unanimous_tournament_is_free() {
        let l = RankList::new(vec![2, 4, 0, 1, 3]).unwrap();
        let t = Tournament::from_weighted_lists(&[(l.clone(), 1.0)]);
        let order = exact_kemeny(&t);
        assert_eq!(t.cost_of_indices(&order), 0.0);
        let items: Vec<u32> = order.iter().map(|&i| t.items()[i]).collect();
        assert_eq!(items, l.items());
    }

    #[test]
    fn breaks_condorcet_cycle_optimally() {
        // 3-cycle with asymmetric strengths: 0>1 (0.9), 1>2 (0.8), 2>0 (0.6).
        // Optimal ordering cuts the weakest edge (2>0): [0,1,2] costs
        // w(1,0)+w(2,0)+w(2,1) = 0.1+0.6+0.2 = 0.9. Alternatives cost more.
        let t = Tournament::from_fn(vec![0, 1, 2], |u, v| match (u, v) {
            (0, 1) => 0.9,
            (1, 0) => 0.1,
            (1, 2) => 0.8,
            (2, 1) => 0.2,
            (2, 0) => 0.6,
            (0, 2) => 0.4,
            _ => 0.5,
        });
        let order = exact_kemeny(&t);
        let items: Vec<u32> = order.iter().map(|&i| t.items()[i]).collect();
        assert_eq!(items, vec![0, 1, 2]);
        assert!((t.cost_of_indices(&order) - 0.9).abs() < 1e-12);
    }

    #[test]
    fn matches_brute_force_on_random_instances() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(2024);
        for n in 2..=7usize {
            let mut w = vec![0.5; n * n];
            for a in 0..n {
                for b in (a + 1)..n {
                    let x: f64 = rng.gen();
                    w[a * n + b] = x;
                    w[b * n + a] = 1.0 - x;
                }
            }
            let t = Tournament::from_fn((0..n as u32).collect(), move |u, v| {
                w[u as usize * n + v as usize]
            });
            let dp_cost = t.cost_of_indices(&exact_kemeny(&t));
            // Brute force.
            let mut idx: Vec<usize> = (0..n).collect();
            let mut best = f64::INFINITY;
            permute(&mut idx, 0, &mut |p| {
                best = best.min(t.cost_of_indices(p));
            });
            assert!((dp_cost - best).abs() < 1e-9, "n={n}: {dp_cost} vs {best}");
        }
    }

    fn permute<F: FnMut(&[usize])>(v: &mut Vec<usize>, k: usize, f: &mut F) {
        if k == v.len() {
            f(v);
            return;
        }
        for i in k..v.len() {
            v.swap(k, i);
            permute(v, k + 1, f);
            v.swap(k, i);
        }
    }
}

//! Rank aggregation over a weighted tournament.
//!
//! The Optimal Rank Aggregation (ORA) of Soliman et al. (SIGMOD'11) is the
//! ordering of the tournament's candidates minimizing the expected Kendall
//! disagreement with the distribution over orderings — equivalently the
//! minimum weighted feedback-arc-set ordering. Kemeny aggregation is NP-hard
//! in general, so this module offers:
//!
//! * `exact` — Held-Karp style bitmask DP, `O(2^n · n^2)`, exact for
//!   `n ≤ ~18` candidates (a TPO at the paper's `K = 5…10` rarely mentions
//!   more);
//! * `borda`, `copeland`, `kwiksort` — classic constant-factor
//!   heuristics;
//! * `local_search` — adjacent-swap + single-item-reinsertion descent
//!   used to polish any candidate ordering.
//!
//! [`optimal_rank_aggregation`] picks the exact solver when the instance is
//! small and otherwise the best-of-heuristics polished by local search.

mod borda;
mod copeland;
mod exact;
mod kwiksort;
mod local_search;

use borda::borda;
use copeland::copeland;
use exact::exact_kemeny;
use kwiksort::kwiksort;
use local_search::local_search;

use crate::error::{RankError, Result};
use crate::list::RankList;
use crate::tournament::Tournament;

/// The exact DP runs when the candidate count is at most this.
const EXACT_THRESHOLD: usize = 14;
/// Number of randomized KwikSort restarts in heuristic mode.
const KWIKSORT_RESTARTS: usize = 4;
/// Seed for the randomized KwikSort restarts.
const KWIKSORT_SEED: u64 = 0x5eed_0f0a;

/// Outcome of an aggregation: the ordering and its tournament cost.
#[derive(Debug, Clone)]
pub struct Aggregation {
    /// The aggregated ordering (over all tournament candidates).
    pub ordering: RankList,
    /// Its weighted feedback-arc-set cost.
    pub cost: f64,
    /// Whether the exact solver produced it.
    pub exact: bool,
}

/// Computes the ORA of a tournament: exact for at most 14 candidates, the
/// best heuristic polished by local search otherwise.
pub fn optimal_rank_aggregation(t: &Tournament) -> Result<Aggregation> {
    if t.is_empty() {
        return Err(RankError::NoCandidates);
    }
    if t.len() <= EXACT_THRESHOLD {
        let order = exact_kemeny(t);
        let cost = t.cost_of_indices(&order);
        return Ok(Aggregation {
            ordering: indices_to_list(t, &order),
            cost,
            exact: true,
        });
    }
    Ok(heuristic_aggregation(t))
}

/// The heuristic branch of [`optimal_rank_aggregation`] on a non-empty
/// tournament: the cheapest of Borda, Copeland and the KwikSort restarts,
/// polished by local search.
pub(crate) fn heuristic_aggregation(t: &Tournament) -> Aggregation {
    let mut best: Option<(Vec<usize>, f64)> = None;
    let mut consider = |order: Vec<usize>, t: &Tournament| {
        let cost = t.cost_of_indices(&order);
        if best.as_ref().map(|(_, c)| cost < *c).unwrap_or(true) {
            best = Some((order, cost));
        }
    };
    consider(borda(t), t);
    consider(copeland(t), t);
    for r in 0..KWIKSORT_RESTARTS {
        consider(kwiksort(t, KWIKSORT_SEED.wrapping_add(r as u64)), t);
    }
    // ctk-allow(panic-unwrap): borda and copeland always run, so best is Some
    let (mut order, mut cost) = best.expect("at least one heuristic ran");
    let polished = local_search(t, &order);
    let pc = t.cost_of_indices(&polished);
    if pc < cost {
        order = polished;
        cost = pc;
    }
    Aggregation {
        ordering: indices_to_list(t, &order),
        cost,
        exact: false,
    }
}

fn indices_to_list(t: &Tournament, order: &[usize]) -> RankList {
    RankList::new_unchecked(order.iter().map(|&i| t.items()[i]).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn rl(items: &[u32]) -> RankList {
        RankList::new(items.to_vec()).unwrap()
    }

    /// Brute-force Kemeny by enumerating all permutations (n <= 8).
    pub(crate) fn brute_force(t: &Tournament) -> (Vec<usize>, f64) {
        let n = t.len();
        let mut idx: Vec<usize> = (0..n).collect();
        let mut best: Option<(Vec<usize>, f64)> = None;
        permute(&mut idx, 0, &mut |perm| {
            let c = t.cost_of_indices(perm);
            if best.as_ref().map(|(_, bc)| c < *bc).unwrap_or(true) {
                best = Some((perm.to_vec(), c));
            }
        });
        best.expect("non-empty")
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

    #[test]
    fn empty_tournament_is_error() {
        let t = Tournament::from_weighted_lists(&[]);
        assert!(matches!(
            optimal_rank_aggregation(&t),
            Err(RankError::NoCandidates)
        ));
    }

    #[test]
    fn unanimous_tournament_recovers_the_list() {
        let t = Tournament::from_weighted_lists(&[(rl(&[3, 0, 2, 1]), 1.0)]);
        let agg = optimal_rank_aggregation(&t).unwrap();
        assert_eq!(agg.ordering.items(), &[3, 0, 2, 1]);
        assert_eq!(agg.cost, 0.0);
        assert!(agg.exact);
    }

    #[test]
    fn exact_matches_brute_force_on_random_tournaments() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(42);
        for trial in 0..20 {
            let n = 2 + (trial % 6);
            let items: Vec<u32> = (0..n as u32).collect();
            let mut weights = vec![0.5; n * n];
            for a in 0..n {
                for b in (a + 1)..n {
                    let w: f64 = rng.gen();
                    weights[a * n + b] = w;
                    weights[b * n + a] = 1.0 - w;
                }
            }
            let wclone = weights.clone();
            let t = Tournament::from_fn(items, move |u, v| wclone[u as usize * n + v as usize]);
            let agg = optimal_rank_aggregation(&t).unwrap();
            let (_, bc) = brute_force(&t);
            assert!(
                (agg.cost - bc).abs() < 1e-9,
                "trial {trial}: exact {} vs brute {bc}",
                agg.cost
            );
        }
    }

    #[test]
    fn heuristic_mode_is_close_to_optimal() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(7);
        let n = 8;
        let mut weights = vec![0.5; n * n];
        for a in 0..n {
            for b in (a + 1)..n {
                let w: f64 = rng.gen();
                weights[a * n + b] = w;
                weights[b * n + a] = 1.0 - w;
            }
        }
        let items: Vec<u32> = (0..n as u32).collect();
        let wclone = weights.clone();
        let t = Tournament::from_fn(items, move |u, v| wclone[u as usize * n + v as usize]);
        let agg = heuristic_aggregation(&t);
        assert!(!agg.exact);
        let (_, bc) = brute_force(&t);
        // Polished heuristics should be within 10% of optimal on tiny inputs.
        assert!(
            agg.cost <= bc * 1.10 + 1e-9,
            "heuristic {} vs optimal {bc}",
            agg.cost
        );
    }

    #[test]
    fn aggregation_is_deterministic() {
        let lists = [
            (rl(&[0, 1, 2, 3, 4]), 0.4),
            (rl(&[1, 0, 3, 2, 4]), 0.3),
            (rl(&[0, 2, 1, 4, 3]), 0.3),
        ];
        let t = Tournament::from_weighted_lists(&lists);
        let a = optimal_rank_aggregation(&t).unwrap();
        let b = optimal_rank_aggregation(&t).unwrap();
        assert_eq!(a.ordering, b.ordering);
        assert_eq!(a.cost, b.cost);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn heuristics_no_worse_than_double_optimal(
            seed in any::<u64>()
        ) {
            use rand::rngs::StdRng;
            use rand::{Rng, SeedableRng};
            let n = 7usize;
            let mut rng = StdRng::seed_from_u64(seed);
            let mut w = vec![0.5; n * n];
            for a in 0..n {
                for b in (a + 1)..n {
                    let x: f64 = rng.gen();
                    w[a * n + b] = x;
                    w[b * n + a] = 1.0 - x;
                }
            }
            let t = Tournament::from_fn((0..n as u32).collect(), move |u, v| w[u as usize * n + v as usize]);
            let exact = optimal_rank_aggregation(&t).unwrap();
            let heur = heuristic_aggregation(&t);
            prop_assert!(heur.cost + 1e-9 >= exact.cost, "heuristic beat exact?");
            prop_assert!(heur.cost <= 2.0 * exact.cost + 1e-6,
                "heuristic {} vs exact {}", heur.cost, exact.cost);
        }
    }
}

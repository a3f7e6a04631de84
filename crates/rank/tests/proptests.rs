//! Property-based tests for rank distances and aggregation.

use ctk_rank::aggregate::optimal_rank_aggregation;
use ctk_rank::kendall::{count_inversions, kendall_distance, kendall_distance_normalized};
use ctk_rank::topk::{topk_distance, topk_kendall, topk_kendall_normalized};
use ctk_rank::{RankList, Tournament};
use proptest::prelude::*;

/// A random permutation of `0..n`.
fn permutation(n: usize) -> impl Strategy<Value = RankList> {
    Just(()).prop_perturb(move |_, mut rng| {
        let mut items: Vec<u32> = (0..n as u32).collect();
        // Fisher-Yates with proptest's rng for shrink-stability.
        for i in (1..items.len()).rev() {
            let j = (rng.next_u32() as usize) % (i + 1);
            items.swap(i, j);
        }
        RankList::new_unchecked(items)
    })
}

/// A random top-k list drawn from a universe of `u` items.
fn topk_list(u: u32, k: usize) -> impl Strategy<Value = RankList> {
    Just(()).prop_perturb(move |_, mut rng| {
        let mut items: Vec<u32> = (0..u).collect();
        for i in (1..items.len()).rev() {
            let j = (rng.next_u32() as usize) % (i + 1);
            items.swap(i, j);
        }
        items.truncate(k.min(items.len()));
        RankList::new_unchecked(items)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn inversion_count_matches_brute_force(mut seq in proptest::collection::vec(0u32..50, 0..40)) {
        let brute: u64 = {
            let mut c = 0u64;
            for i in 0..seq.len() {
                for j in (i + 1)..seq.len() {
                    if seq[i] > seq[j] { c += 1; }
                }
            }
            c
        };
        prop_assert_eq!(count_inversions(&mut seq), brute);
    }

    #[test]
    fn kendall_is_a_metric_sample(a in permutation(7), b in permutation(7), c in permutation(7)) {
        let dab = kendall_distance(&a, &b).unwrap();
        let dba = kendall_distance(&b, &a).unwrap();
        prop_assert_eq!(dab, dba, "symmetry");
        prop_assert_eq!(kendall_distance(&a, &a.clone()).unwrap(), 0, "identity");
        let dac = kendall_distance(&a, &c).unwrap();
        let dbc = kendall_distance(&b, &c).unwrap();
        prop_assert!(dac <= dab + dbc, "triangle: {dac} > {dab} + {dbc}");
    }

    #[test]
    fn kendall_normalized_bounded(a in permutation(9), b in permutation(9)) {
        let d = kendall_distance_normalized(&a, &b).unwrap();
        prop_assert!((0.0..=1.0).contains(&d));
    }

    #[test]
    fn topk_kendall_symmetric_and_bounded(a in topk_list(12, 5), b in topk_list(12, 5), p in 0.0..=1.0f64) {
        let dab = topk_kendall(&a, &b, p);
        let dba = topk_kendall(&b, &a, p);
        prop_assert!((dab - dba).abs() < 1e-9, "symmetry: {dab} vs {dba}");
        let n = topk_kendall_normalized(&a, &b, p);
        prop_assert!((0.0..=1.0).contains(&n));
        prop_assert!(topk_kendall(&a, &a.clone(), p) == 0.0, "identity");
    }

    #[test]
    fn topk_distance_relaxed_triangle_neutral(a in topk_list(10, 4), b in topk_list(10, 4), c in topk_list(10, 4)) {
        // K^(1/2) over top-k lists with different item sets is a *near*
        // metric (Fagin, Kumar & Sivakumar): it satisfies the triangle
        // inequality up to a constant factor of 2. Normalization by the
        // (constant, equal-length) maximum preserves that.
        let dab = topk_distance(&a, &b);
        let dac = topk_distance(&a, &c);
        let dbc = topk_distance(&b, &c);
        prop_assert!(dac <= 2.0 * (dab + dbc) + 1e-9, "relaxed triangle: {dac} > 2({dab}+{dbc})");
    }

    #[test]
    fn aggregation_never_beaten_by_input_lists(
        lists in proptest::collection::vec((topk_list(8, 8), 0.01..1.0f64), 1..6)
    ) {
        // The exact ORA cost is <= the cost of any single input ordering
        // (when inputs are full permutations of the same universe).
        let t = Tournament::from_weighted_lists(&lists);
        let agg = optimal_rank_aggregation(&t).unwrap();
        prop_assert!(agg.exact);
        for (l, _) in &lists {
            prop_assert!(agg.cost <= t.cost_of(l) + 1e-9,
                "ORA cost {} beaten by input {} with cost {}", agg.cost, l, t.cost_of(l));
        }
    }

    #[test]
    fn aggregation_output_is_permutation_of_candidates(
        lists in proptest::collection::vec((topk_list(9, 4), 0.01..1.0f64), 1..5)
    ) {
        let t = Tournament::from_weighted_lists(&lists);
        if t.is_empty() { return Ok(()); }
        let agg = optimal_rank_aggregation(&t).unwrap();
        let mut got: Vec<u32> = agg.ordering.items().to_vec();
        got.sort_unstable();
        prop_assert_eq!(got, t.items().to_vec());
    }
}

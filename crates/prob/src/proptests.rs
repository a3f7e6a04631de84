//! Property-based tests that pin the fast paths against this crate's
//! test-only reference implementations.

use crate::compare::{pr_greater, pr_greater_reference_res};
use crate::sample::{
    candidate_ranks_into, ranking_by_comparator, ranking_into, sample_scores, top_k_prefix_into,
    WorldSampler,
};
use crate::{ScoreDist, UncertainTable};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

// The module is declared `#[cfg(test)]` in lib.rs; the helpers repeat the
// attribute because ctk-analyze reads one file at a time.

/// A moderate-parameter distribution for quadrature-agreement pins: spiky
/// enough to exercise every closed form, tame enough that the *reference*
/// trapezoid's own truncation error at the pin resolution stays far below
/// the 1e-6 bound being asserted (see DESIGN.md §10 on tolerance policy).
#[cfg(test)]
fn moderate_continuous() -> impl Strategy<Value = ScoreDist> {
    prop_oneof![
        (-2.0..2.0f64, 0.2..2.0f64).prop_map(|(c, w)| ScoreDist::uniform_centered(c, w).unwrap()),
        (-2.0..2.0f64, 0.2..0.8f64).prop_map(|(m, s)| ScoreDist::gaussian(m, s).unwrap()),
        (-2.0..2.0f64, 0.5..2.0f64, 0.0..1.0f64).prop_map(|(lo, w, frac)| {
            ScoreDist::triangular(lo, lo + frac * w, lo + w).unwrap()
        }),
        (-2.0..2.0f64, 0.5..2.0f64, 0.5..3.0f64, 0.5..3.0f64).prop_map(|(lo, w, w1, w2)| {
            ScoreDist::piecewise(&[
                (lo, 0.0),
                (lo + w / 3.0, w1),
                (lo + 2.0 * w / 3.0, w2),
                (lo + w, 0.0),
            ])
            .unwrap()
        }),
    ]
}

#[cfg(test)]
fn moderate_dist() -> impl Strategy<Value = ScoreDist> {
    prop_oneof![
        moderate_continuous(),
        (-2.0..2.0f64).prop_map(ScoreDist::point),
        proptest::collection::vec((-2.0..2.0f64, 0.1..1.0f64), 1..4)
            .prop_map(|pairs| ScoreDist::discrete(&pairs).unwrap()),
        (moderate_continuous(), -2.0..2.0f64, 0.2..0.8f64).prop_map(|(c, atom, w)| {
            ScoreDist::bimodal(w, c, 1.0 - w, ScoreDist::point(atom)).unwrap()
        }),
    ]
}

/// One score with the tie shapes the ranking kernels must order exactly:
/// coarse quantized values (exact ties), both signed zeros, and free
/// values.
#[cfg(test)]
fn tied_score() -> impl Strategy<Value = f64> {
    prop_oneof![
        (0u8..5).prop_map(|v| v as f64 / 2.0 - 1.0),
        Just(0.0f64),
        Just(-0.0f64),
        -2.0..2.0f64,
    ]
}

/// Asserts the ranking kernels equal the comparator-sort oracle on
/// `scores`, at depths 1, n/2 and n plus `extra_k`.
#[cfg(test)]
fn assert_kernels_match_oracle(
    scores: &[f64],
    extra_k: usize,
    scratch: &mut Vec<(i64, u32)>,
) -> Result<(), TestCaseError> {
    let n = scores.len();
    let oracle = ranking_by_comparator(scores);
    let every: Vec<u32> = (0..n as u32).collect();
    let mut full = vec![0u32; n];
    ranking_into(scores, scratch, &mut full);
    prop_assert_eq!(&full, &oracle, "full ranking of {:?}", scores);
    // Candidate ranks over every id are the oracle's positions.
    let mut ranks = vec![0u32; n];
    candidate_ranks_into(scores, &every, scratch, &mut ranks);
    for (rank, &t) in oracle.iter().enumerate() {
        prop_assert_eq!(
            ranks[t as usize] as usize,
            rank,
            "rank of t{} in {:?}",
            t,
            scores
        );
    }
    for k in [1, n / 2, n, extra_k % n + 1] {
        if k == 0 {
            continue;
        }
        let mut prefix = vec![0u32; k];
        top_k_prefix_into(scores, &every, scratch, &mut prefix);
        prop_assert_eq!(&prefix[..], &oracle[..k], "k = {} of {:?}", k, scores);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn ranking_kernels_match_comparator_sort_on_ties(
        scores in proptest::collection::vec(tied_score(), 1..72),
        extra_k in any::<usize>(),
    ) {
        // n = 1 and every depth class, over exact ties and signed zeros;
        // depths past 32 take the sorted fallback of deep prefixes.
        let mut scratch = Vec::new();
        assert_kernels_match_oracle(&scores, extra_k, &mut scratch)?;
    }

    #[test]
    fn ranking_kernels_match_comparator_sort_on_sampled_worlds(
        dists in proptest::collection::vec(moderate_dist(), 1..12),
        seed in any::<u64>(),
        extra_k in any::<usize>(),
    ) {
        // Worlds of non-uniform families: point masses and discrete or
        // mixture atoms tie across tuples, continuous families do not.
        let table = UncertainTable::new(dists).unwrap();
        let sampler = WorldSampler::new(&table);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut scores = vec![0.0; table.len()];
        let mut scratch = Vec::new();
        for world in 0..8 {
            if world % 2 == 0 {
                sampler.sample_into(&mut rng, &mut scores);
            } else {
                scores = sample_scores(&table, &mut rng);
            }
            assert_kernels_match_oracle(&scores, extra_k, &mut scratch)?;
        }
    }

    #[test]
    fn fast_path_matches_reference_quadrature(a in moderate_dist(), b in moderate_dist()) {
        // The acceptance pin of the analytic arms: closed forms within
        // 1e-6 of the (converged) reference grid quadrature.
        let fast = pr_greater(&a, &b);
        let slow = pr_greater_reference_res(&a, &b, 65_536);
        prop_assert!(
            (fast - slow).abs() < 1e-6,
            "fast {fast} vs reference {slow} for {a:?} vs {b:?}"
        );
    }
}

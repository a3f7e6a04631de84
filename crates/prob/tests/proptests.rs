//! Property-based tests for the probability substrate: distribution
//! invariants that must hold for *any* valid parameters, not just the
//! hand-picked cases in the unit tests.

use ctk_prob::compare::{pr_greater, PairwiseMatrix};
use ctk_prob::nested::prefix_probability;
use ctk_prob::sample::{ranking_from_scores, sample_scores, top_k_prefix_into, WorldSampler};
use ctk_prob::{ScoreDist, SupportGrid, TopKBounds, UncertainTable};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Strategy producing an arbitrary continuous score distribution with
/// support roughly inside [-10, 10].
fn continuous_dist() -> impl Strategy<Value = ScoreDist> {
    prop_oneof![
        (-5.0..5.0f64, 0.01..3.0f64).prop_map(|(c, w)| ScoreDist::uniform_centered(c, w).unwrap()),
        (-5.0..5.0f64, 0.01..1.0f64).prop_map(|(m, s)| ScoreDist::gaussian(m, s).unwrap()),
        (-5.0..5.0f64, 0.1..2.0f64, 0.0..1.0f64).prop_map(|(lo, w, frac)| {
            let hi = lo + w;
            let mode = lo + frac * w;
            ScoreDist::triangular(lo, mode, hi).unwrap()
        }),
        (-5.0..5.0f64, 0.1..2.0f64, 1.0..5.0f64, 1.0..5.0f64).prop_map(|(lo, w, w1, w2)| {
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

/// Any score distribution, including atoms.
fn any_dist() -> impl Strategy<Value = ScoreDist> {
    prop_oneof![
        continuous_dist(),
        (-5.0..5.0f64).prop_map(ScoreDist::point),
        proptest::collection::vec((-5.0..5.0f64, 0.01..1.0f64), 1..6)
            .prop_map(|pairs| ScoreDist::discrete(&pairs).unwrap()),
    ]
}

/// Every `ScoreDist` kind, *including* mixtures whose components may carry
/// atoms — the case the `(_, Discrete)` tie-split fix exists for.
fn any_dist_kind() -> impl Strategy<Value = ScoreDist> {
    prop_oneof![
        any_dist(),
        (any_dist(), any_dist(), 0.1..0.9f64).prop_map(|(a, b, w)| ScoreDist::bimodal(
            w,
            a,
            1.0 - w,
            b
        )
        .unwrap()),
    ]
}

/// A moderate-parameter distribution: spiky enough to exercise every
/// closed form, tame enough for grid-resolution pins (the same strategy
/// pins the fast path against the reference quadrature in
/// `src/proptests.rs`).
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn cdf_monotone_and_bounded(d in any_dist(), xs in proptest::collection::vec(-12.0..12.0f64, 2..20)) {
        let mut xs = xs;
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mut prev = 0.0;
        for &x in &xs {
            let c = d.cdf(x);
            prop_assert!((0.0..=1.0).contains(&c));
            prop_assert!(c >= prev - 1e-12);
            prev = c;
        }
    }

    #[test]
    fn cdf_saturates_outside_support(d in any_dist()) {
        let (lo, hi) = d.support();
        prop_assert!(d.cdf(lo - 1.0) == 0.0);
        prop_assert!(d.cdf(hi + 1.0) == 1.0);
    }

    #[test]
    fn quantile_roundtrip(d in continuous_dist(), p in 0.01..0.99f64) {
        let x = d.quantile(p);
        prop_assert!((d.cdf(x) - p).abs() < 1e-5, "cdf(quantile({p})) = {}", d.cdf(x));
    }

    #[test]
    fn pdf_nonnegative(d in continuous_dist(), x in -12.0..12.0f64) {
        prop_assert!(d.pdf(x) >= 0.0);
    }

    #[test]
    fn comparison_complementarity(a in any_dist(), b in any_dist()) {
        let p = pr_greater(&a, &b);
        let q = pr_greater(&b, &a);
        prop_assert!((0.0..=1.0).contains(&p));
        prop_assert!((p + q - 1.0).abs() < 1e-4, "p={p} q={q}");
    }

    #[test]
    fn comparison_self_is_half(a in any_dist()) {
        let p = pr_greater(&a, &a.clone());
        prop_assert!((p - 0.5).abs() < 1e-4, "self-comparison p = {p}");
    }

    #[test]
    fn comparison_symmetry_over_all_kinds(a in any_dist_kind(), b in any_dist_kind()) {
        // The analytic arms are complementary by construction, so the
        // tolerance here is float noise, not quadrature error. Before the
        // (_, Discrete) tie-split fix this failed for atom-carrying
        // mixtures against discretes.
        let p = pr_greater(&a, &b);
        let q = pr_greater(&b, &a);
        prop_assert!((0.0..=1.0).contains(&p));
        prop_assert!((p + q - 1.0).abs() < 1e-9, "p={p} q={q} for {a:?} vs {b:?}");
    }

    #[test]
    fn partial_prefix_matches_full_sort_prefix(
        raw in proptest::collection::vec(0u8..12, 1..40),
        kseed in any::<u64>(),
    ) {
        // Coarse quantization forces exact score ties; the id tie-break
        // must make partial selection agree with the full sort anyway.
        let scores: Vec<f64> = raw.iter().map(|&v| v as f64 / 4.0).collect();
        let full = ranking_from_scores(&scores);
        let k = (kseed as usize % scores.len()) + 1;
        let every: Vec<u32> = (0..scores.len() as u32).collect();
        let mut ids = Vec::new();
        let mut prefix = vec![0u32; k];
        top_k_prefix_into(&scores, &every, &mut ids, &mut prefix);
        prop_assert_eq!(&prefix[..], &full[..k], "k = {}", k);
    }

    #[test]
    fn compiled_sampler_matches_dist_sampling(
        dists in proptest::collection::vec(any_dist_kind(), 1..8),
        seed in any::<u64>(),
    ) {
        let table = UncertainTable::new(dists).unwrap();
        let sampler = WorldSampler::new(&table);
        let mut a = StdRng::seed_from_u64(seed);
        let mut b = StdRng::seed_from_u64(seed);
        let mut buf = vec![0.0; table.len()];
        for _ in 0..16 {
            let reference = sample_scores(&table, &mut a);
            sampler.sample_into(&mut b, &mut buf);
            for (x, y) in reference.iter().zip(&buf) {
                prop_assert_eq!(x.to_bits(), y.to_bits(), "{} vs {}", x, y);
            }
        }
    }

    #[test]
    fn samples_lie_in_support(d in any_dist(), seed in any::<u64>()) {
        let (lo, hi) = d.support();
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..64 {
            let s = d.sample(&mut rng);
            prop_assert!(s >= lo - 1e-9 && s <= hi + 1e-9);
        }
    }

    #[test]
    fn mean_within_support_hull(d in any_dist()) {
        let (lo, hi) = d.support();
        let m = d.mean();
        prop_assert!(m >= lo - 1e-9 && m <= hi + 1e-9);
        prop_assert!(d.variance() >= -1e-12);
    }

    #[test]
    fn nested_single_matches_pairwise(a in continuous_dist(), b in continuous_dist()) {
        let grid = SupportGrid::build([&a, &b], 2048);
        let nested = prefix_probability(&grid, &[&a], &[&b]).unwrap();
        let pairwise = pr_greater(&a, &b);
        prop_assert!((nested - pairwise).abs() < 2e-3, "nested={nested} pairwise={pairwise}");
    }

    #[test]
    fn two_tuple_orderings_partition(a in continuous_dist(), b in continuous_dist()) {
        let grid = SupportGrid::build([&a, &b], 2048);
        let ab = prefix_probability(&grid, &[&a, &b], &[]).unwrap();
        let ba = prefix_probability(&grid, &[&b, &a], &[]).unwrap();
        prop_assert!((ab + ba - 1.0).abs() < 2e-3, "ab={ab} ba={ba}");
    }

    #[test]
    fn ranking_is_permutation(scores in proptest::collection::vec(-100.0..100.0f64, 1..30)) {
        let r = ranking_from_scores(&scores);
        let mut sorted = r.clone();
        sorted.sort_unstable();
        let expect: Vec<u32> = (0..scores.len() as u32).collect();
        prop_assert_eq!(sorted, expect);
        // Scores along the ranking are non-increasing.
        for w in r.windows(2) {
            prop_assert!(scores[w[0] as usize] >= scores[w[1] as usize]);
        }
    }

    #[test]
    fn topk_bounds_bracket_every_sampled_world(
        dists in proptest::collection::vec(moderate_dist(), 2..9),
        seed in any::<u64>(),
        kseed in any::<usize>(),
    ) {
        // PR 8 pin: the deterministic certain/possible sets derived from
        // the pairwise matrix bracket the top-K of *every* possible world
        // — certain tuples appear in each sampled world's top-K, and no
        // sampled top-K member falls outside the possible set.
        let table = UncertainTable::new(dists).unwrap();
        let k = kseed % table.len() + 1;
        let bounds = TopKBounds::from_matrix(&PairwiseMatrix::compute(&table), k).unwrap();
        prop_assert!(bounds.certain().len() <= k);
        prop_assert!(bounds.possible().len() >= k);
        let mut rng = StdRng::seed_from_u64(seed);
        let every: Vec<u32> = (0..table.len() as u32).collect();
        let mut ids = Vec::new();
        let mut prefix = vec![0u32; k];
        for _ in 0..64 {
            let scores = sample_scores(&table, &mut rng);
            top_k_prefix_into(&scores, &every, &mut ids, &mut prefix);
            for &c in bounds.certain() {
                prop_assert!(
                    prefix.contains(&c),
                    "certain tuple t{} missing from a sampled top-{}", c, k
                );
            }
            for &t in &prefix {
                prop_assert!(
                    bounds.is_possibly_in(t as usize),
                    "sampled top-{} member t{} outside the possible set", k, t
                );
            }
        }
    }

    #[test]
    fn world_sampling_matches_table_size(n in 1usize..12, seed in any::<u64>()) {
        let dists: Vec<ScoreDist> = (0..n)
            .map(|i| ScoreDist::uniform(i as f64, i as f64 + 2.0).unwrap())
            .collect();
        let table = UncertainTable::new(dists).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let s = sample_scores(&table, &mut rng);
        prop_assert_eq!(s.len(), n);
    }
}

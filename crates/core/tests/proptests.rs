//! Property-based tests for measures, residual uncertainty and selection.

use ctk_core::measures::MeasureKind;
use ctk_core::residual::{
    answer_probability, expected_residual_set, expected_residual_single, ResidualCtx,
};
use ctk_core::select::OnlineSelector;
use ctk_core::select::{
    relevant_questions, AStarOff, COff, NaiveSelector, OfflineSelector, RandomSelector, T1On, TbOff,
};
use ctk_crowd::Question;
use ctk_prob::compare::PairwiseMatrix;
use ctk_prob::{ScoreDist, UncertainTable};
use ctk_tpo::build::{build_mc, McConfig};
use ctk_tpo::stats::precedence_probability;
use ctk_tpo::PathSet;
use proptest::prelude::*;

/// Arbitrary overlapping table of `n` uniform scores, with its pairwise
/// matrix and a depth-3 TPO.
fn fixture(n: usize) -> impl Strategy<Value = (UncertainTable, PairwiseMatrix, PathSet)> {
    (
        proptest::collection::vec((0.0..1.0f64, 0.2..0.6f64), n..=n),
        any::<u64>(),
    )
        .prop_map(|(params, seed)| {
            let table = UncertainTable::new(
                params
                    .into_iter()
                    .map(|(c, w)| ScoreDist::uniform_centered(c, w).unwrap())
                    .collect(),
            )
            .unwrap();
            let pw = PairwiseMatrix::compute(&table);
            let ps = build_mc(&table, 3.min(table.len()), &McConfig::fixed(1500, seed)).unwrap();
            (table, pw, ps)
        })
}

/// Degenerate inputs: one tuple, `k = n`, identical distributions (many
/// equal path probabilities, so tie order decides every summation order),
/// point-mass ties, and an exactly uniform set over all orderings.
fn degenerate() -> impl Strategy<Value = (PairwiseMatrix, PathSet)> {
    (0usize..5, 2usize..6, any::<u64>()).prop_map(|(case, n, seed)| {
        let (dists, k) = match case {
            0 => (vec![ScoreDist::uniform(0.0, 1.0).unwrap()], 1),
            1 => (
                (0..n)
                    .map(|t| ScoreDist::uniform_centered(0.1 * t as f64, 0.5).unwrap())
                    .collect(),
                n,
            ),
            2 | 4 => (vec![ScoreDist::uniform(0.0, 1.0).unwrap(); n], 3.min(n)),
            _ => (
                (0..n)
                    .map(|t| {
                        if t % 2 == 0 {
                            ScoreDist::point(0.5)
                        } else {
                            ScoreDist::discrete(&[(0.5, 1.0), (0.8, 1.0)]).unwrap()
                        }
                    })
                    .collect(),
                3.min(n),
            ),
        };
        let table = UncertainTable::new(dists).unwrap();
        let pw = PairwiseMatrix::compute(&table);
        let mut ps = build_mc(&table, k, &McConfig::fixed(400, seed)).unwrap();
        if case == 4 {
            // Every ordering the sample found, with exactly equal weight.
            let uniform = ps.paths().iter().map(|p| (p.items.clone(), 1.0)).collect();
            ps = PathSet::from_weighted(k, uniform).unwrap();
        }
        (pw, ps)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn relevant_questions_match_the_per_pair_scan(
        (pw, ps) in prop_oneof![degenerate(), fixture(6).prop_map(|(_, pw, ps)| (pw, ps))],
    ) {
        let m = MeasureKind::Entropy.build();
        let ctx = ResidualCtx { measure: m.as_ref(), pairwise: &pw };
        let tuples = ps.tuples();
        let mut expected = Vec::new();
        for (a, &i) in tuples.iter().enumerate() {
            for &j in &tuples[a + 1..] {
                let p = precedence_probability(&ps, i, j, ctx.prior(i, j));
                if p > 1e-9 && p < 1.0 - 1e-9 {
                    expected.push(Question::new(i, j));
                }
            }
        }
        prop_assert_eq!(relevant_questions(&ps, &ctx), expected);
    }

    #[test]
    fn measures_are_nonnegative_and_zero_on_resolved((_, _pw, ps) in fixture(5)) {
        for kind in MeasureKind::all() {
            let m = kind.build();
            prop_assert!(m.uncertainty(&ps) >= 0.0, "{}", kind.name());
        }
        let resolved = PathSet::from_weighted(3, vec![(vec![0, 1, 2], 1.0)]).unwrap();
        for kind in MeasureKind::all() {
            prop_assert!(kind.build().uncertainty(&resolved).abs() < 1e-12);
        }
    }

    #[test]
    fn answer_probabilities_complement((_, pw, ps) in fixture(5)) {
        let m = MeasureKind::Entropy.build();
        let ctx = ResidualCtx { measure: m.as_ref(), pairwise: &pw };
        for q in relevant_questions(&ps, &ctx) {
            let p = answer_probability(&ps, &q, &ctx);
            let pr = answer_probability(&ps, &q.flipped(), &ctx);
            prop_assert!((p + pr - 1.0).abs() < 1e-9);
            prop_assert!(p > 0.0 && p < 1.0, "relevant question must be uncertain");
        }
    }

    #[test]
    fn residual_never_exceeds_current_entropy((_, pw, ps) in fixture(5)) {
        // Conditioning reduces entropy in expectation — for every relevant
        // question, with the entropy-family measures.
        for kind in [MeasureKind::Entropy, MeasureKind::WeightedEntropy] {
            let m = kind.build();
            let ctx = ResidualCtx { measure: m.as_ref(), pairwise: &pw };
            let u = m.uncertainty(&ps);
            for q in relevant_questions(&ps, &ctx).into_iter().take(6) {
                let r = expected_residual_single(&ps, &q, &ctx);
                prop_assert!(r <= u + 1e-9, "{}: residual {r} > current {u}", kind.name());
            }
        }
    }

    #[test]
    fn selectors_return_valid_budgeted_sets((_, pw, ps) in fixture(6), budget in 1usize..6) {
        let m = MeasureKind::WeightedEntropy.build();
        let ctx = ResidualCtx { measure: m.as_ref(), pairwise: &pw };
        let mut selectors: Vec<Box<dyn OfflineSelector>> = vec![
            Box::new(RandomSelector::new(1)),
            Box::new(NaiveSelector::new(2)),
            Box::new(TbOff),
            Box::new(COff),
        ];
        for sel in &mut selectors {
            let qs = sel.select(&ps, budget, &ctx);
            prop_assert!(qs.len() <= budget, "{} overspent", sel.name());
            let mut seen = std::collections::HashSet::new();
            for q in &qs {
                prop_assert!(seen.insert(q.canonical()), "{} duplicated {q}", sel.name());
            }
        }
    }

    #[test]
    fn astar_never_worse_than_greedy((_, pw, ps) in fixture(5), budget in 1usize..4) {
        let m = MeasureKind::Entropy.build();
        let ctx = ResidualCtx { measure: m.as_ref(), pairwise: &pw };
        let a = AStarOff::new().search(&ps, budget, &ctx);
        prop_assert!(a.optimal);
        let ra = expected_residual_set(&ps, &a.questions, &ctx);
        let rt = expected_residual_set(&ps, &TbOff.select(&ps, budget, &ctx), &ctx);
        let rc = expected_residual_set(&ps, &COff.select(&ps, budget, &ctx), &ctx);
        prop_assert!(ra <= rt + 1e-9, "A* {ra} vs TB {rt}");
        prop_assert!(ra <= rc + 1e-9, "A* {ra} vs C {rc}");
    }

    #[test]
    fn t1_on_picks_a_relevant_question((_, pw, ps) in fixture(6)) {
        let m = MeasureKind::WeightedEntropy.build();
        let ctx = ResidualCtx { measure: m.as_ref(), pairwise: &pw };
        let pool = relevant_questions(&ps, &ctx);
        match T1On.next_question(&ps, 10, &ctx) {
            Some(q) => prop_assert!(pool.contains(&q)),
            None => prop_assert!(pool.is_empty() || ps.is_resolved()),
        }
    }
}

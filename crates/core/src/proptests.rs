//! Property-based tests that pin the residual kernel and the selectors
//! against this crate's test-only materializing reference evaluation and
//! `2^|Q|` brute-force enumeration, and the decisive scan against the
//! eager one.

use crate::measures::{Entropy, MeasureKind, UncertaintyMeasure, WeightedEntropy};
use crate::residual::{
    expected_residual_set, expected_residual_set_bruteforce, AnswerPartition, ResidualCtx,
};
use crate::select::{all_tree_pairs, relevant_questions, COff, OfflineSelector, T1On, TbOff};
use crate::select::{OnlineSelector, Scoring};
use ctk_crowd::Question;
use ctk_prob::compare::PairwiseMatrix;
use ctk_prob::{ScoreDist, UncertainTable};
use ctk_tpo::build::{build_mc, McConfig};
use ctk_tpo::PathSet;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

// The module is declared `#[cfg(test)]` in lib.rs; the helpers repeat the
// attribute because ctk-analyze reads one file at a time.

/// Arbitrary overlapping table of `n` uniform scores, with its pairwise
/// matrix and a depth-3 TPO.
#[cfg(test)]
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
#[cfg(test)]
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

/// Tables whose priors include exact 0s and 1s: one tuple always on top,
/// two tuples with disjoint supports in the middle, and overlapping
/// tuples around them, so some orderings leave the disjoint pair out
/// entirely and undetermined members carry weight 0 or 1. Two more
/// tuples score far below the rest, so no ordering holds them and a
/// question comparing them leaves every class whole.
#[cfg(test)]
fn disjoint_priors() -> impl Strategy<Value = (PairwiseMatrix, PathSet)> {
    (2usize..4, 2usize..4, any::<u64>()).prop_map(|(k, extra, seed)| {
        let mut dists = vec![
            ScoreDist::uniform(10.0, 11.0).unwrap(),
            ScoreDist::uniform(0.0, 1.0).unwrap(),
            ScoreDist::uniform(1.2, 2.2).unwrap(),
            ScoreDist::uniform(-20.0, -10.0).unwrap(),
            ScoreDist::uniform(-15.0, -5.0).unwrap(),
        ];
        dists.extend((0..extra).map(|t| ScoreDist::uniform(0.1 * t as f64, 3.0).unwrap()));
        let table = UncertainTable::new(dists).unwrap();
        let pw = PairwiseMatrix::compute(&table);
        let ps = build_mc(&table, k, &McConfig::fixed(600, seed)).unwrap();
        (pw, ps)
    })
}

/// Every shape of level-entropy measure: `U_H`, default `U_Hw`, `U_Hw`
/// with explicit weights, and `U_Hw` with all-zero weights (the uniform
/// fallback).
#[cfg(test)]
fn entropy_measures(explicit: &[f64]) -> Vec<Box<dyn UncertaintyMeasure>> {
    vec![
        Box::new(Entropy),
        Box::new(WeightedEntropy::default()),
        Box::new(WeightedEntropy::with_weights(explicit.to_vec())),
        Box::new(WeightedEntropy::with_weights(vec![0.0; explicit.len()])),
    ]
}

/// Every pair of the table's tuples — tree pairs, and pairs with a tuple
/// no ordering holds — in an order shuffled by `seed`.
#[cfg(test)]
fn shuffled_pool(pw: &PairwiseMatrix, seed: u64) -> Vec<Question> {
    let n = pw.len() as u32;
    let mut pool: Vec<Question> = (0..n)
        .flat_map(|i| (i + 1..n).map(move |j| Question::new(i, j)))
        .collect();
    pool.shuffle(&mut StdRng::seed_from_u64(seed));
    pool
}

/// An arbitrary uniform path set: distinct orderings of `k` of `n`
/// tuples (up to 48 draws) with arbitrary weights, and the pairwise
/// matrix of an arbitrary overlapping table over the `n` tuples.
#[cfg(test)]
fn uniform_paths() -> impl Strategy<Value = (PairwiseMatrix, PathSet)> {
    (2usize..8, 1usize..5, 1usize..48, any::<u64>()).prop_map(|(n, k, draws, seed)| {
        let mut rng = StdRng::seed_from_u64(seed);
        let table = UncertainTable::new(
            (0..n)
                .map(|_| {
                    ScoreDist::uniform_centered(rng.gen_range(0.0..1.0), rng.gen_range(0.2..0.6))
                        .unwrap()
                })
                .collect(),
        )
        .unwrap();
        let k = k.min(n);
        let mut tuples: Vec<u32> = (0..n as u32).collect();
        let mut weighted: Vec<(Vec<u32>, f64)> = Vec::new();
        for _ in 0..draws {
            tuples.shuffle(&mut rng);
            let items = tuples[..k].to_vec();
            if weighted.iter().all(|(seen, _)| *seen != items) {
                weighted.push((items, rng.gen_range(0.01..1.0)));
            }
        }
        let pw = PairwiseMatrix::compute(&table);
        (pw, PathSet::from_weighted(k, weighted).unwrap())
    })
}

/// `TB-off`, `C-off` and `T1-on` re-implemented over the materializing
/// reference evaluation: the selectors must pick exactly these questions.
mod reference_selector {
    use super::*;

    fn scored(ps: &PathSet, ctx: &ResidualCtx<'_>) -> Vec<(f64, Question)> {
        let root = AnswerPartition::root(ps);
        relevant_questions(ps, ctx)
            .into_iter()
            .map(|q| (root.expected_with_question_reference(&q, ctx), q))
            .collect()
    }

    pub fn tb_off(ps: &PathSet, budget: usize, ctx: &ResidualCtx<'_>) -> Vec<Question> {
        let mut scored = scored(ps, ctx);
        scored.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
        scored.into_iter().take(budget).map(|(_, q)| q).collect()
    }

    pub fn t1_on(ps: &PathSet, ctx: &ResidualCtx<'_>) -> Option<Question> {
        if ps.is_resolved() {
            return None;
        }
        scored(ps, ctx)
            .into_iter()
            .min_by(|a, b| a.0.total_cmp(&b.0).then_with(|| a.1.cmp(&b.1)))
            .map(|(_, q)| q)
    }

    pub fn c_off(ps: &PathSet, budget: usize, ctx: &ResidualCtx<'_>) -> Vec<Question> {
        let pool = relevant_questions(ps, ctx);
        let mut chosen: Vec<Question> = Vec::new();
        let mut partition = AnswerPartition::root(ps);
        while chosen.len() < budget.min(pool.len()) {
            let mut best: Option<(f64, Question)> = None;
            for &q in pool.iter().filter(|q| !chosen.contains(q)) {
                let r = partition.expected_with_question_reference(&q, ctx);
                let better = match &best {
                    None => true,
                    Some((br, bq)) => r < *br - 1e-15 || ((r - *br).abs() <= 1e-15 && q < *bq),
                };
                if better {
                    best = Some((r, q));
                }
            }
            let Some((_, q)) = best else { break };
            partition.refine(&q, ctx);
            chosen.push(q);
        }
        chosen
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn kernel_is_bit_identical_on_degenerate_inputs(
        (pw, ps) in degenerate(),
        picks in proptest::collection::vec(any::<u64>(), 0..4),
    ) {
        // Every measure, after a random refine sequence over all tree
        // pairs (informative or not): the index kernel reproduces the
        // materializing evaluation bit for bit, sign of zero included.
        for kind in MeasureKind::all() {
            let m = kind.build();
            let ctx = ResidualCtx { measure: m.as_ref(), pairwise: &pw };
            let pool = all_tree_pairs(&ps);
            let mut part = AnswerPartition::root(&ps);
            for step in 0..=picks.len() {
                let reference = part.expected_uncertainty_reference(ctx.measure);
                prop_assert_eq!(part.expected_uncertainty(ctx.measure).to_bits(),
                    reference.to_bits(), "{} at step {}", kind.name(), step);
                for q in &pool {
                    let reference = part.expected_with_question_reference(q, &ctx);
                    prop_assert_eq!(part.expected_with_question(q, &ctx).to_bits(),
                        reference.to_bits(), "{} with {} at step {}", kind.name(), q, step);
                }
                if let Some(&pick) = picks.get(step) {
                    if !pool.is_empty() {
                        part.refine(&pool[pick as usize % pool.len()], &ctx);
                    }
                }
            }
        }
    }

    #[test]
    fn selectors_match_reference_scoring(
        (pw, ps) in prop_oneof![degenerate(), fixture(5).prop_map(|(_, pw, ps)| (pw, ps))],
        budget in 1usize..4,
    ) {
        for kind in MeasureKind::all() {
            let m = kind.build();
            let ctx = ResidualCtx { measure: m.as_ref(), pairwise: &pw };
            prop_assert_eq!(TbOff.select(&ps, budget, &ctx),
                reference_selector::tb_off(&ps, budget, &ctx), "TB-off, {}", kind.name());
            prop_assert_eq!(COff.select(&ps, budget, &ctx),
                reference_selector::c_off(&ps, budget, &ctx), "C-off, {}", kind.name());
            prop_assert_eq!(T1On.next_question(&ps, budget, &ctx),
                reference_selector::t1_on(&ps, &ctx), "T1-on, {}", kind.name());
        }
    }

    #[test]
    fn partition_equals_bruteforce((_, pw, ps) in fixture(4)) {
        let m = MeasureKind::WeightedEntropy.build();
        let ctx = ResidualCtx { measure: m.as_ref(), pairwise: &pw };
        let qs: Vec<Question> = relevant_questions(&ps, &ctx).into_iter().take(3).collect();
        if qs.is_empty() { return Ok(()); }
        let fast = expected_residual_set(&ps, &qs, &ctx);
        let brute = expected_residual_set_bruteforce(&ps, &qs, &ctx);
        prop_assert!((fast - brute).abs() < 1e-9, "{fast} vs {brute}");
    }

    #[test]
    fn interned_partition_is_bit_identical_to_reference((_, pw, ps) in fixture(5)) {
        // The index-kernel/memo evaluation path of the partition must
        // reproduce the naive fresh-PathSet-per-class evaluation bit for
        // bit, for every measure, through an arbitrary refine sequence.
        for kind in MeasureKind::all() {
            let m = kind.build();
            let ctx = ResidualCtx { measure: m.as_ref(), pairwise: &pw };
            let qs: Vec<Question> = relevant_questions(&ps, &ctx).into_iter().take(4).collect();
            let mut part = AnswerPartition::root(&ps);
            for q in &qs {
                let reference = part.expected_uncertainty_reference(ctx.measure);
                let fast = part.expected_uncertainty(ctx.measure);
                prop_assert_eq!(fast.to_bits(), reference.to_bits(),
                    "{}: {} vs {}", kind.name(), fast, reference);
                // Memoized re-query must not drift either.
                prop_assert_eq!(part.expected_uncertainty(ctx.measure).to_bits(),
                    reference.to_bits());
                part.refine(q, &ctx);
            }
            let reference = part.expected_uncertainty_reference(ctx.measure);
            prop_assert_eq!(part.expected_uncertainty(ctx.measure).to_bits(),
                reference.to_bits(), "{} after full refine", kind.name());
        }
    }

    #[test]
    fn lookahead_equals_refine_then_reference((_, pw, ps) in fixture(5)) {
        // One-step lookahead over memoized classes == materializing the
        // refine and evaluating with the naive reference path.
        let m = MeasureKind::WeightedEntropy.build();
        let ctx = ResidualCtx { measure: m.as_ref(), pairwise: &pw };
        for q in relevant_questions(&ps, &ctx).into_iter().take(5) {
            let looked = AnswerPartition::root(&ps).expected_with_question(&q, &ctx);
            let mut part = AnswerPartition::root(&ps);
            part.refine(&q, &ctx);
            let reference = part.expected_uncertainty_reference(ctx.measure);
            prop_assert!((looked - reference).abs() < 1e-12,
                "{looked} vs {reference} for {q}");
        }
    }

    #[test]
    fn chain_rule_estimate_matches_exact_lookahead(
        (pw, ps) in prop_oneof![
            degenerate(),
            disjoint_priors(),
            fixture(6).prop_map(|(_, pw, ps)| (pw, ps)),
        ],
        explicit in proptest::collection::vec(0.0..2.0f64, 1..5),
        picks in proptest::collection::vec(any::<u64>(), 0..4),
        shuffle in any::<u64>(),
    ) {
        // One batch over every pair of the table's tuples (informative,
        // certain, undetermined, or about tuples no ordering holds, which
        // leave classes whole), in shuffled order, after 0–3 refines that
        // leave single-path and split classes behind.
        let pool = shuffled_pool(&pw, shuffle);
        let tree = all_tree_pairs(&ps);
        let mut estimates = Vec::new();
        for m in entropy_measures(&explicit) {
            let ctx = ResidualCtx { measure: m.as_ref(), pairwise: &pw };
            let mut part = AnswerPartition::root(&ps);
            for step in 0..=picks.len() {
                prop_assert!(part.estimate_with_questions(&pool, &ctx, &mut estimates),
                    "{} has level weights", m.name());
                prop_assert_eq!(estimates.len(), pool.len());
                for (q, &estimate) in pool.iter().zip(&estimates) {
                    let exact = part.expected_with_question(q, &ctx);
                    prop_assert!((estimate - exact).abs() <= 1e-10,
                        "{}: estimate {} vs exact {} for {} at step {}",
                        m.name(), estimate, exact, q, step);
                }
                if let Some(&pick) = picks.get(step) {
                    if !tree.is_empty() {
                        part.refine(&tree[pick as usize % tree.len()], &ctx);
                    }
                }
            }
        }
    }

    #[test]
    fn batched_estimates_do_not_depend_on_the_batch(
        (pw, ps) in prop_oneof![
            degenerate(),
            disjoint_priors(),
            fixture(6).prop_map(|(_, pw, ps)| (pw, ps)),
        ],
        picks in proptest::collection::vec(any::<u64>(), 0..3),
        shuffle in any::<u64>(),
        cut in any::<u64>(),
    ) {
        // A question's estimate is bit for bit the same alone, inside the
        // whole pool, inside the pool reversed, and inside a sub-pool.
        let pool = shuffled_pool(&pw, shuffle);
        let tree = all_tree_pairs(&ps);
        let reversed: Vec<Question> = pool.iter().rev().copied().collect();
        let sub = &pool[cut as usize % (pool.len() + 1)..];
        let (mut whole, mut other, mut alone) = (Vec::new(), Vec::new(), Vec::new());
        for m in entropy_measures(&[1.0, 0.5, 2.0]) {
            let ctx = ResidualCtx { measure: m.as_ref(), pairwise: &pw };
            let mut part = AnswerPartition::root(&ps);
            for &pick in &picks {
                if !tree.is_empty() {
                    part.refine(&tree[pick as usize % tree.len()], &ctx);
                }
            }
            prop_assert!(part.estimate_with_questions(&pool, &ctx, &mut whole));
            prop_assert!(part.estimate_with_questions(&reversed, &ctx, &mut other));
            for (a, b) in whole.iter().zip(other.iter().rev()) {
                prop_assert_eq!(a.to_bits(), b.to_bits(), "{}: reversed pool", m.name());
            }
            prop_assert!(part.estimate_with_questions(sub, &ctx, &mut other));
            for (a, b) in whole[pool.len() - sub.len()..].iter().zip(&other) {
                prop_assert_eq!(a.to_bits(), b.to_bits(), "{}: sub-pool", m.name());
            }
            for (q, e) in pool.iter().zip(&whole) {
                prop_assert!(part.estimate_with_questions(&[*q], &ctx, &mut alone));
                prop_assert_eq!(alone[0].to_bits(), e.to_bits(), "{}: {} alone", m.name(), q);
            }
        }
    }

    #[test]
    fn nested_kernel_matches_the_flat_reference(
        (pw, ps) in prop_oneof![
            uniform_paths(),
            degenerate(),
            fixture(6).prop_map(|(_, pw, ps)| (pw, ps)),
        ],
        explicit in proptest::collection::vec(0.0..2.0f64, 1..5),
        picks in proptest::collection::vec(any::<u64>(), 0..5),
        shuffle in any::<u64>(),
        keep in any::<u64>(),
    ) {
        // The answer-kind table, the nested runs and the branch-free
        // member pass against the flat per-level kernel: after 0–4
        // refines, over the whole pool, a candidate subset of it (the
        // table read through a column map), and the empty batch.
        let pool = shuffled_pool(&pw, shuffle);
        let subset: Vec<Question> = pool
            .iter()
            .enumerate()
            .filter(|&(c, _)| keep >> (c % 64) & 1 == 1)
            .map(|(_, &q)| q)
            .collect();
        let tree = all_tree_pairs(&ps);
        let (mut nested, mut flat) = (Vec::new(), Vec::new());
        for m in entropy_measures(&explicit) {
            let ctx = ResidualCtx { measure: m.as_ref(), pairwise: &pw };
            let mut part = AnswerPartition::root(&ps);
            for step in 0..=picks.len() {
                for batch in [&pool[..], &subset[..], &[]] {
                    let estimated = part.estimate_with_questions(batch, &ctx, &mut nested);
                    prop_assert_eq!(estimated,
                        part.estimate_with_questions_reference(batch, &ctx, &mut flat));
                    prop_assert_eq!(nested.len(), flat.len());
                    for ((q, a), b) in batch.iter().zip(&nested).zip(&flat) {
                        prop_assert!((a - b).abs() <= 1e-12,
                            "{}: nested {} vs flat {} for {} at step {}", m.name(), a, b, q, step);
                    }
                }
                if let Some(&pick) = picks.get(step) {
                    if !tree.is_empty() {
                        part.refine(&tree[pick as usize % tree.len()], &ctx);
                    }
                }
            }
            prop_assert_eq!(T1On::next_by(&ps, &ctx, Scoring::Decisive),
                T1On::next_by(&ps, &ctx, Scoring::FlatReference), "T1-on, {}", m.name());
            for budget in [1usize, 3, 6] {
                prop_assert_eq!(TbOff::select_by(&ps, budget, &ctx, Scoring::Decisive),
                    TbOff::select_by(&ps, budget, &ctx, Scoring::FlatReference),
                    "TB-off B={}, {}", budget, m.name());
                prop_assert_eq!(COff::select_by(&ps, budget, &ctx, Scoring::Decisive),
                    COff::select_by(&ps, budget, &ctx, Scoring::FlatReference),
                    "C-off B={}, {}", budget, m.name());
            }
        }
    }

    #[test]
    fn estimate_fallback_covers_the_whole_batch(
        (pw, ps) in prop_oneof![
            degenerate(),
            disjoint_priors(),
            fixture(6).prop_map(|(_, pw, ps)| (pw, ps)),
        ],
        shuffle in any::<u64>(),
    ) {
        // No level weights (U_ORA, U_MPO), or orderings that repeat or
        // differ in length: no estimate for any question of the batch, and
        // the output is left empty.
        let pool = shuffled_pool(&pw, shuffle);
        let mut out = vec![f64::NAN; 3];
        for kind in [MeasureKind::Ora, MeasureKind::Mpo] {
            let m = kind.build();
            let ctx = ResidualCtx { measure: m.as_ref(), pairwise: &pw };
            prop_assert!(!AnswerPartition::root(&ps).estimate_with_questions(&pool, &ctx, &mut out));
            prop_assert!(out.is_empty(), "{}", kind.name());
        }
        let paths = || ps.paths().iter().map(|p| (p.items.clone(), p.prob));
        let mut odd_sets = vec![(
            "repeated",
            PathSet::from_weighted(ps.k(), paths().chain(paths().take(1)).collect()).unwrap(),
        )];
        if ps.k() > 1 && ps.len() > 1 {
            let mut ragged: Vec<(Vec<u32>, f64)> = paths().collect();
            ragged[0].0.pop();
            odd_sets.push(("ragged", PathSet::from_weighted(ps.k(), ragged).unwrap()));
        }
        for (name, odd) in odd_sets {
            for m in entropy_measures(&[1.0, 0.5]) {
                let ctx = ResidualCtx { measure: m.as_ref(), pairwise: &pw };
                out.push(f64::NAN);
                prop_assert!(!AnswerPartition::root(&odd).estimate_with_questions(&pool, &ctx, &mut out),
                    "{}: {} orderings", m.name(), name);
                prop_assert!(out.is_empty());
            }
        }
    }

    #[test]
    fn decisive_selectors_match_the_eager_scan(
        (pw, ps) in prop_oneof![
            degenerate(),
            disjoint_priors(),
            fixture(6).prop_map(|(_, pw, ps)| (pw, ps)),
        ],
        explicit in proptest::collection::vec(0.0..2.0f64, 1..5),
    ) {
        // Identical distributions (degenerate cases 2 and 4) make exact
        // score ties, which the tie-breaks must resolve as the eager scan
        // does.
        let mut measures = entropy_measures(&explicit);
        measures.push(MeasureKind::Mpo.build());
        for m in measures {
            let ctx = ResidualCtx { measure: m.as_ref(), pairwise: &pw };
            prop_assert_eq!(T1On.next_question(&ps, 1, &ctx),
                T1On::next_by(&ps, &ctx, Scoring::Eager), "T1-on, {}", m.name());
            for budget in [1usize, 3, 6] {
                prop_assert_eq!(TbOff.select(&ps, budget, &ctx),
                    TbOff::select_by(&ps, budget, &ctx, Scoring::Eager),
                    "TB-off B={}, {}", budget, m.name());
                prop_assert_eq!(COff.select(&ps, budget, &ctx),
                    COff::select_by(&ps, budget, &ctx, Scoring::Eager),
                    "C-off B={}, {}", budget, m.name());
            }
        }
    }
}

/// `K^(p)` by the pairwise walk of the two lists' union (`a`'s items,
/// then `b`'s items absent from `a`, every pair once), looking up both
/// members of each pair in both lists: the oracle the report trail's
/// kernel must equal bit for bit.
#[cfg(test)]
fn pairwise_union_kendall(a: &[u32], b: &[u32], p: f64) -> f64 {
    let union: Vec<u32> = a
        .iter()
        .chain(b.iter().filter(|t| !a.contains(t)))
        .copied()
        .collect();
    let pos = |list: &[u32], t: u32| list.iter().position(|&x| x == t);
    let mut total = 0.0;
    for x in 0..union.len() {
        for y in x + 1..union.len() {
            let (i, j) = (union[x], union[y]);
            let disagree = |x: bool, y: bool| f64::from(u8::from(x != y));
            total += match (pos(a, i), pos(a, j), pos(b, i), pos(b, j)) {
                (Some(ai), Some(aj), Some(bi), Some(bj)) => disagree(ai < aj, bi < bj),
                // Both in `a`, one in `b`: `b` ranks its member above.
                (Some(ai), Some(aj), bi, bj) if bi.is_some() != bj.is_some() => {
                    disagree(ai < aj, bi.is_some())
                }
                // Both in `b`, one in `a`: `a` ranks its member above.
                (ai, aj, Some(bi), Some(bj)) if ai.is_some() != aj.is_some() => {
                    disagree(bi < bj, ai.is_some())
                }
                (Some(_), Some(_), None, None) | (None, None, Some(_), Some(_)) => p,
                _ => 1.0,
            };
        }
    }
    total
}

/// `Σ prob · K^(p)_norm(path, target)` in path order over the oracle.
#[cfg(test)]
fn expected_pairwise_distance(ps: &PathSet, target: &[u32], p: f64) -> f64 {
    ps.paths()
        .iter()
        .map(|path| {
            let max = ctk_rank::topk::topk_kendall_max(path.items.len(), target.len(), p);
            let d = if max <= 0.0 {
                0.0
            } else {
                (pairwise_union_kendall(&path.items, target, p) / max).clamp(0.0, 1.0)
            };
            path.prob * d
        })
        .sum()
}

/// A path set and a truth for the report metrics: a depth-`k` tree
/// (`shallow` false) or `incr`'s depth-`d < k` grouping of the same
/// worlds, and a truth of length `k` drawn from the table's tuples
/// (`absent` false) or from ids no path holds (past the metric's indexed
/// id range for odd seeds).
#[cfg(test)]
fn report_inputs() -> impl Strategy<Value = (PathSet, Vec<u32>)> {
    (
        4usize..9,
        1usize..6,
        any::<bool>(),
        any::<bool>(),
        any::<u64>(),
    )
        .prop_map(|(n, k, shallow, absent, seed)| {
            let k = k.min(n);
            let table = UncertainTable::new(
                (0..n)
                    .map(|t| ScoreDist::uniform_centered(0.15 * t as f64, 0.6).unwrap())
                    .collect(),
            )
            .unwrap();
            let mut worlds = ctk_tpo::WorldModel::sample(&table, 300, seed).unwrap();
            let depth = if shallow && k > 1 {
                1 + (seed as usize % (k - 1))
            } else {
                k
            };
            let ps = worlds.path_set_cached(depth).unwrap();
            let offset = match (absent, seed % 2) {
                (false, _) => 0,
                (true, 0) => 100,
                (true, _) => 5000,
            };
            let mut ids: Vec<u32> = (0..n as u32).map(|t| t + offset).collect();
            ids.shuffle(&mut StdRng::seed_from_u64(seed ^ 0x5eed));
            ids.truncate(k);
            (ps, ids)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn report_distances_match_the_pairwise_walk_bit_for_bit(
        (ps, truth) in report_inputs(),
        penalty in 0.0..=1.0f64,
    ) {
        let truth_list = ctk_rank::RankList::new(truth.clone()).unwrap();
        prop_assert_eq!(
            crate::metrics::expected_distance_to_truth(&ps, &truth_list).to_bits(),
            expected_pairwise_distance(&ps, &truth, 0.5).to_bits()
        );
        let mpo = &ps.most_probable().items;
        for penalty in [penalty, 0.0, 0.5, 1.0] {
            let want = if ps.is_resolved() { 0.0 } else { expected_pairwise_distance(&ps, mpo, penalty) };
            prop_assert_eq!(
                crate::measures::MpoDistance { penalty }.uncertainty(&ps).to_bits(),
                want.to_bits(),
                "U_MPO at p = {}", penalty
            );
        }
    }
}

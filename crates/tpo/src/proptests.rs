//! Property-based tests that pin the fast paths against this crate's
//! test-only references.

use crate::build::{
    build_adaptive_reference, build_mc, build_mc_reference, sample_adaptive, sample_fixed,
    AdaptiveSample, Engine, McConfig,
};
use crate::error::TpoError;
use crate::precision::{StopReason, ADAPTIVE_INITIAL_BATCH};
use crate::prune::prune;
use crate::stats::{level_distributions, PrefixGroups};
use crate::update::bayes_update;
use crate::worlds::{WorldModel, WorldSample};
use crate::PathSet;
use ctk_prob::sample::WorldSampler;
use ctk_prob::{ScoreDist, UncertainTable};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;

// The module is declared `#[cfg(test)]` in lib.rs; the helpers repeat the
// attribute because ctk-analyze reads one file at a time.

/// A random table of `n` overlapping uniform scores.
#[cfg(test)]
fn uniform_table(n: usize) -> impl Strategy<Value = UncertainTable> {
    proptest::collection::vec((0.0..1.0f64, 0.1..0.6f64), n..=n).prop_map(|params| {
        UncertainTable::new(
            params
                .into_iter()
                .map(|(c, w)| ScoreDist::uniform_centered(c, w).unwrap())
                .collect(),
        )
        .unwrap()
    })
}

/// A staircase of `n` uniform scores, `spacing` apart and `width` wide:
/// disjoint steps pin the order, overlapping ones leave it open.
#[cfg(test)]
fn staircase(n: usize, spacing: f64, width: f64) -> UncertainTable {
    UncertainTable::new(
        (0..n)
            .map(|i| ScoreDist::uniform_centered(spacing * i as f64, width).unwrap())
            .collect(),
    )
    .unwrap()
}

/// Bit-for-bit path set equality (paths, order and probability bits).
#[cfg(test)]
fn assert_same_paths(a: &PathSet, b: &PathSet, what: &str) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.len(), b.len(), "{}", what);
    for (x, y) in a.paths().iter().zip(b.paths()) {
        prop_assert_eq!(&x.items, &y.items, "{}", what);
        prop_assert_eq!(x.prob.to_bits(), y.prob.to_bits(), "{}", what);
    }
    Ok(())
}

/// One tuple of a grid table: values are multiples of 1/4, so supports
/// touch (`lo_a == hi_t`) and point or discrete atoms tie across tuples.
#[cfg(test)]
fn grid_dist((kind, a, b): (u8, u8, u8)) -> ScoreDist {
    let (lo, hi) = (f64::from(a) / 4.0, f64::from(a + b) / 4.0);
    match kind {
        0 | 1 => ScoreDist::uniform(lo, hi).unwrap(),
        2 => ScoreDist::point(lo),
        3 => ScoreDist::discrete(&[(lo, 1.0), (hi, 2.0)]).unwrap(),
        // A narrow Gaussian: its support() (μ ± 8σ) sits far below most
        // lower ends, but its draws are unbounded.
        _ => ScoreDist::gaussian(lo - 2.0, 0.01).unwrap(),
    }
}

/// The candidates of depth `k` from first principles: a tuple is dropped
/// only when its family's draws are bounded (point, uniform, discrete;
/// grid values make `support()` exact for them) and at least `k` tuples
/// have a lower end strictly above its upper end. Every other family is
/// unbounded and always a candidate.
#[cfg(test)]
fn expected_candidates(table: &UncertainTable, k: usize) -> Vec<u32> {
    let reach = |d: &ScoreDist| match d {
        ScoreDist::Point(_) | ScoreDist::Uniform(_) | ScoreDist::Discrete(_) => d.support(),
        _ => (f64::NEG_INFINITY, f64::INFINITY),
    };
    let reaches: Vec<(f64, f64)> = table.dists().map(reach).collect();
    (0..table.len() as u32)
        .filter(|&t| {
            let hi = reaches[t as usize].1;
            reaches.iter().filter(|(lo, _)| *lo > hi).count() < k
        })
        .collect()
}

/// Runs the same `incr` session over a candidate-restricted sample and
/// the full-ranking sample of the same worlds: before every answer,
/// `pr_precedes` bits and the cached path sets at every depth up to `k`
/// must agree, and so must each answer's outcome. `answers` pick pairs
/// of candidates. A tuple outside the candidates and a depth past `k`
/// must fail with their typed errors on the restricted sample.
#[cfg(test)]
fn assert_same_session(
    restricted: Arc<WorldSample>,
    full: Arc<WorldSample>,
    answers: &[(usize, usize, bool, f64)],
    what: &str,
) -> Result<(), TestCaseError> {
    let (k, n) = (restricted.k(), restricted.n());
    let candidates = restricted.candidates().to_vec();
    let mut model = WorldModel::new(restricted);
    let mut reference = WorldModel::new(full);
    let c = candidates.len();
    if let Some(outside) = (0..n as u32).find(|t| !candidates.contains(t)) {
        prop_assert_eq!(
            model.pr_precedes(outside, candidates[0]),
            Err(TpoError::NotACandidate { tuple: outside }),
            "{}",
            what
        );
        prop_assert!(model
            .apply_answer_noisy(candidates[0], outside, true, 0.8)
            .is_err());
    }
    if k < n {
        prop_assert!(
            matches!(model.path_set_cached(k + 1), Err(TpoError::InvalidK { .. })),
            "{}",
            what
        );
    }
    for (step, &(a, b, yes, eta)) in answers.iter().enumerate() {
        let (i, j) = (candidates[a % c], candidates[b % c]);
        let here = format!("{what}, step {step}, pair ({i}, {j})");
        prop_assert_eq!(
            model.pr_precedes(i, j).unwrap().to_bits(),
            reference.pr_precedes(i, j).unwrap().to_bits(),
            "{}",
            here
        );
        for depth in 1..=k {
            assert_same_paths(
                &model.path_set_cached(depth).unwrap(),
                &reference.path_set_cached(depth).unwrap(),
                &format!("{here}, depth {depth}"),
            )?;
        }
        if i == j {
            continue;
        }
        let (x, y) = if eta > 0.9 {
            (
                model.apply_answer_hard(i, j, yes),
                reference.apply_answer_hard(i, j, yes),
            )
        } else {
            (
                model.apply_answer_noisy(i, j, yes, eta),
                reference.apply_answer_noisy(i, j, yes, eta),
            )
        };
        prop_assert_eq!(x, y, "{}", here);
    }
    for depth in 1..=k {
        assert_same_paths(
            &model.path_set_cached(depth).unwrap(),
            &reference.path_set_cached(depth).unwrap(),
            &format!("{what}, final depth {depth}"),
        )?;
    }
    Ok(())
}

/// Every Monte-Carlo build, which ranks the depth-`k` candidates only,
/// equals its full-ranking reference bit for bit: the fixed and adaptive
/// tree builds against `build_mc_reference` and
/// `build_adaptive_reference`, and the fixed and adaptive `incr` samples
/// (paths, probability bits and reports) against the same references,
/// with `incr` sessions over each sample agreeing answer by answer with
/// sessions over the full sample ([`WorldSample::sample`]) of the same
/// worlds.
#[cfg(test)]
fn assert_restricted_builds_equal_full(
    table: &UncertainTable,
    k: usize,
    seed: u64,
    answers: &[(usize, usize, bool, f64)],
) -> Result<(), TestCaseError> {
    let candidates = WorldSampler::new(table).candidates(k);
    prop_assert_eq!(&candidates, &expected_candidates(table, k), "k = {}", k);
    let what = format!(
        "n = {}, k = {k}, {} candidates",
        table.len(),
        candidates.len()
    );
    let (m, eps, delta) = (300, 0.08, 0.05);
    let reference = build_mc_reference(table, k, m, seed).unwrap();
    assert_same_paths(
        &build_mc(table, k, &McConfig::fixed(m, seed)).unwrap(),
        &reference,
        &format!("{what}: fixed tree"),
    )?;
    let (ps, report) = Engine::MonteCarlo(McConfig::adaptive(eps, delta, seed))
        .build_with_report(table, k, None)
        .unwrap();
    let (adaptive_reference, reference_report) =
        build_adaptive_reference(table, k, eps, delta, seed).unwrap();
    prop_assert!(
        report.same_outcome(&reference_report),
        "{}: adaptive tree",
        what
    );
    assert_same_paths(&ps, &adaptive_reference, &format!("{what}: adaptive tree"))?;

    let (worlds, paths) = sample_fixed(table, k, m, seed).unwrap();
    prop_assert_eq!(worlds.candidates(), &candidates[..], "{}", what);
    assert_same_paths(&paths, &reference, &format!("{what}: fixed sample"))?;
    let full = Arc::new(WorldSample::sample(table, m, seed).unwrap());
    prop_assert!(worlds.bytes() <= full.bytes());
    assert_same_session(worlds, full, answers, &format!("{what}: fixed session"))?;

    let (sample, report) = sample_adaptive(table, k, eps, delta, seed, None).unwrap();
    prop_assert!(
        report.same_outcome(&reference_report),
        "{}: adaptive sample",
        what
    );
    match sample {
        AdaptiveSample::Pinned(prefix) => {
            prop_assert_eq!(report.worlds_drawn, 0, "{}", what);
            prop_assert_eq!(
                &adaptive_reference.paths()[0].items,
                &prefix,
                "{}: pinned sample",
                what
            );
        }
        AdaptiveSample::Sampled { worlds, paths } => {
            assert_same_paths(
                &paths,
                &adaptive_reference,
                &format!("{what}: adaptive sample"),
            )?;
            let full = WorldSample::sample(table, report.worlds_drawn, seed).unwrap();
            assert_same_session(
                worlds,
                Arc::new(full),
                answers,
                &format!("{what}: adaptive session"),
            )?;
        }
    }
    Ok(())
}

/// The set's stored prefix groups equal the sort-based grouping (ranks,
/// ids and per-level counts), and its level distributions equal, bit for
/// bit, sums in path order over a prefix-keyed map.
#[cfg(test)]
fn assert_stored_groups(ps: &PathSet, what: &str) -> Result<(), TestCaseError> {
    prop_assert_eq!(
        &**ps.prefix_groups(),
        &PrefixGroups::sorted_reference(ps.paths()),
        "{}",
        what
    );
    let depth = ps.prefix_groups().depth();
    let levels = level_distributions(ps);
    prop_assert_eq!(levels.len(), depth, "{}", what);
    for (l, level) in levels.iter().enumerate() {
        let mut by_prefix: BTreeMap<&[u32], f64> = BTreeMap::new();
        for p in ps.paths() {
            *by_prefix
                .entry(&p.items[..(l + 1).min(p.items.len())])
                .or_insert(0.0) += p.prob;
        }
        let mut expected: Vec<f64> = by_prefix.into_values().collect();
        expected.sort_unstable_by(|a, b| b.total_cmp(a));
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(level), bits(&expected), "{} level {}", what, l);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn candidate_restricted_builds_equal_full_ranking_builds(
        (tuples, kseed, seed, answers) in (
            proptest::collection::vec((0u8..5, 0u8..12, 1u8..5), 1..9),
            any::<usize>(),
            any::<u64>(),
            proptest::collection::vec((any::<usize>(), any::<usize>(), any::<bool>(), 0.55..1.0f64), 0..5),
        ),
    ) {
        // Grid tables: staircases with dominated tuples and without,
        // point and discrete atoms, touching supports, unbounded
        // Gaussians; every depth from 1 to k = n.
        let table = UncertainTable::new(tuples.into_iter().map(grid_dist).collect()).unwrap();
        let k = kseed % table.len() + 1;
        assert_restricted_builds_equal_full(&table, k, seed, &answers)?;
        assert_restricted_builds_equal_full(&table, table.len(), seed, &answers)?;
    }

    #[test]
    fn stored_prefix_groups_equal_the_sorted_grouping(
        (k, weighted, steps, table, seed) in (
            1usize..5,
            proptest::collection::vec(
                (proptest::collection::vec(0u32..4, 0..5), prop_oneof![Just(0.0), 0.01..1.0f64]),
                1..40,
            ),
            proptest::collection::vec((0u32..4, 0u32..4, any::<bool>(), 0.5..1.0f64, 0.0..1.0f64), 0..5),
            uniform_table(5),
            any::<u64>(),
        ),
    ) {
        // Random sets over few tuple ids, so prefixes are shared, orderings
        // repeat and depths are ragged below k (as incr's are); then a
        // chain of 0–4 hard prunes and noisy updates, each checked.
        let weighted: Vec<(Vec<u32>, f64)> = weighted
            .into_iter()
            .map(|(mut items, w)| {
                items.truncate(k);
                (items, w)
            })
            .collect();
        if let Ok(mut ps) = PathSet::from_weighted(k, weighted) {
            assert_stored_groups(&ps, "built")?;
            for (step, (i, j, yes, eta, split)) in steps.into_iter().enumerate() {
                let next = if eta > 0.9 {
                    prune(&ps, i, j, yes, split).map(|(p, _)| p)
                } else {
                    bayes_update(&ps, i, j, yes, eta, split)
                };
                let Ok(next) = next else { break };
                ps = next;
                assert_stored_groups(&ps, &format!("step {step}"))?;
            }
        }
        // The cached grouping of a world sample, at every depth.
        let mut wm = WorldModel::sample(&table, 300, seed).unwrap();
        for depth in 1..=5 {
            let ps = wm.path_set_cached(depth).unwrap();
            assert_stored_groups(&ps, &format!("worlds at depth {depth}"))?;
        }
    }

    #[test]
    fn adaptive_tree_build_matches_world_model_route_and_fixed_build(
        (jitter, seed, k, eps) in (0.0..0.2f64, any::<u64>(), 1usize..4, 0.015..0.04f64),
    ) {
        // The streaming adaptive build keeps only depth-k prefixes; its
        // path set and report must equal the WorldModel route (grow a
        // model, rescan each look) and the fixed build of the same worlds.
        // One pinned, one mostly decided and one multi-look table per case.
        for (table, kind) in [
            (staircase(5, 1.0, 0.4 + jitter), "pinned"),
            (staircase(5, 0.5, 0.45 + jitter), "mostly decided"),
            (staircase(5, 0.05 * jitter, 1.0), "multi-look"),
        ] {
            let (ps, report) = Engine::MonteCarlo(McConfig::adaptive(eps, 0.05, seed))
                .build_with_report(&table, k, None)
                .unwrap();
            let (reference, ref_report) =
                build_adaptive_reference(&table, k, eps, 0.05, seed).unwrap();
            prop_assert!(report.same_outcome(&ref_report), "{}: {:?} vs {:?}", kind, report, ref_report);
            assert_same_paths(&ps, &reference, kind)?;
            match kind {
                "pinned" => prop_assert_eq!(report.reason, StopReason::CertainOrder),
                "multi-look" => prop_assert!(report.worlds_drawn > ADAPTIVE_INITIAL_BATCH),
                _ => {}
            }
            if report.worlds_drawn > 0 {
                let fixed = build_mc(&table, k, &McConfig::fixed(report.worlds_drawn, seed)).unwrap();
                assert_same_paths(&ps, &fixed, kind)?;
            }
            // The incr route runs the same loop: same stop, same worlds.
            let (sample, incr_report) = sample_adaptive(&table, k, eps, 0.05, seed, None).unwrap();
            prop_assert!(incr_report.same_outcome(&report), "{}", kind);
            if let AdaptiveSample::Sampled { worlds, paths } = sample {
                assert_same_paths(&WorldModel::new(worlds).path_set(k).unwrap(), &ps, kind)?;
                assert_same_paths(&paths, &ps, kind)?;
            }
        }
    }

    #[test]
    fn partial_selection_build_matches_full_sort_reference(
        (table, seed) in (uniform_table(7), any::<u64>()),
    ) {
        // The fast builder (compiled sampling + top-K partial
        // selection) is bit-identical to the full-sort WorldModel pipeline
        // at every depth.
        for k in [1usize, 3, 7] {
            let fast = build_mc(&table, k, &McConfig::fixed(1200, seed)).unwrap();
            let reference = build_mc_reference(&table, k, 1200, seed).unwrap();
            prop_assert_eq!(fast.len(), reference.len(), "k = {}", k);
            for (a, b) in fast.paths().iter().zip(reference.paths()) {
                prop_assert_eq!(&a.items, &b.items, "k = {}", k);
                prop_assert_eq!(a.prob.to_bits(), b.prob.to_bits(), "k = {}", k);
            }
        }
    }

    #[test]
    fn cached_path_sets_are_bit_identical_to_rebuilds(
        (table, seed, answers) in (
            uniform_table(6),
            any::<u64>(),
            proptest::collection::vec((0u32..6, 0u32..6, any::<bool>(), 0.55..1.0f64), 0..12),
        )
    ) {
        // The incr access pattern: nondecreasing depths with interleaved
        // hard/noisy answers, then a shallow call forcing a cache rebuild.
        // Every cached result must be bit-identical to the single-shot
        // hash-map grouping over the same belief.
        let mut wm = WorldModel::sample(&table, 2500, seed).unwrap();
        let mut depth = 1usize;
        for (i, j, yes, eta) in answers {
            if i == j {
                continue;
            }
            let cached = wm.path_set_cached(depth).unwrap();
            let fresh = wm.path_set(depth).unwrap();
            prop_assert_eq!(cached.len(), fresh.len());
            for (a, b) in cached.paths().iter().zip(fresh.paths()) {
                prop_assert_eq!(&a.items, &b.items);
                prop_assert_eq!(a.prob.to_bits(), b.prob.to_bits(),
                    "depth {}: {} vs {}", depth, a.prob, b.prob);
            }
            if eta > 0.97 {
                let _ = wm.apply_answer_hard(i, j, yes);
            } else {
                wm.apply_answer_noisy(i, j, yes, eta).unwrap();
            }
            depth = (depth + 1).min(3);
        }
        let cached = wm.path_set_cached(1).unwrap();
        let fresh = wm.path_set(1).unwrap();
        for (a, b) in cached.paths().iter().zip(fresh.paths()) {
            prop_assert_eq!(&a.items, &b.items);
            prop_assert_eq!(a.prob.to_bits(), b.prob.to_bits());
        }
    }
}

#[test]
fn candidate_restriction_keeps_gaussians_and_the_id_width_boundary() {
    // A Gaussian whose support() (μ ± 8σ = [-0.08, 0.08]) lies below the
    // lower ends of k = 3 uniforms must stay a candidate: its draws are
    // unbounded. The uniform below them all is dominated.
    let table = UncertainTable::new(vec![
        ScoreDist::gaussian(0.0, 0.01).unwrap(),
        ScoreDist::uniform(0.1, 0.2).unwrap(),
        ScoreDist::uniform(0.5, 1.0).unwrap(),
        ScoreDist::uniform(0.6, 1.1).unwrap(),
        ScoreDist::uniform(0.7, 1.2).unwrap(),
    ])
    .unwrap();
    assert_eq!(WorldSampler::new(&table).candidates(3), vec![0, 2, 3, 4]);
    let answers = [(0, 1, true, 0.8), (1, 2, false, 1.0), (3, 2, true, 0.6)];
    assert_restricted_builds_equal_full(&table, 3, 5, &answers).unwrap();
    // n = 256 is the widest relation stored in bytes and n = 257 the
    // narrowest stored in u32; a staircase leaves few candidates, and
    // the questions reach ids 255 and n - 1.
    for n in [256usize, 257] {
        let table = UncertainTable::new(
            (0..n)
                .map(|i| ScoreDist::uniform_centered(i as f64 * 0.01, 0.3).unwrap())
                .collect(),
        )
        .unwrap();
        let candidates = WorldSampler::new(&table).candidates(3);
        assert!(candidates.len() < 40, "n = {n}");
        assert!(candidates.contains(&255) && candidates.contains(&(n as u32 - 1)));
        let answers = [
            (0, 1, true, 0.8),
            (5, 9, true, 1.0),
            (2, 7, false, 0.7),
            (1, 4, true, 1.0),
        ];
        assert_restricted_builds_equal_full(&table, 3, n as u64, &answers).unwrap();
    }
}

//! Property-based tests for the TPO: construction, pruning and Bayesian
//! updates must preserve distribution invariants for arbitrary tables and
//! answer sequences.

use ctk_prob::compare::PairwiseMatrix;
use ctk_prob::{ScoreDist, TopKBounds, UncertainTable};
use ctk_tpo::build::{build_exact, build_mc, Engine, ExactConfig, McConfig};
use ctk_tpo::prune::prune;
use ctk_tpo::stats::{level_distributions, membership_probability, precedence_probability};
use ctk_tpo::tree::Tpo;
use ctk_tpo::update::bayes_update;
use ctk_tpo::worlds::WorldModel;
use ctk_tpo::{PrecisionReport, StopReason};
use proptest::prelude::*;

/// A random table of `n` overlapping uniform scores.
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn mc_paths_are_valid_prefixes((table, seed) in (uniform_table(6), any::<u64>())) {
        let ps = build_mc(&table, 3, &McConfig::fixed(2000, seed)).unwrap();
        prop_assert!((ps.total_prob() - 1.0).abs() < 1e-9);
        for p in ps.paths() {
            prop_assert_eq!(p.items.len(), 3);
            let mut sorted = p.items.clone();
            sorted.sort_unstable();
            sorted.dedup();
            prop_assert_eq!(sorted.len(), 3, "distinct tuples");
            prop_assert!(p.items.iter().all(|&t| (t as usize) < table.len()));
            prop_assert!(p.prob > 0.0);
        }
    }

    #[test]
    fn exact_children_sum_to_parents(table in uniform_table(5)) {
        let k = 3;
        let ps = build_exact(&table, k, &ExactConfig::default()).unwrap();
        // For every depth-2 prefix: mass equals sum of its depth-3 children
        // (within quadrature tolerance) — verified via the arena tree.
        let tree = Tpo::from_path_set(&ps);
        for idx in 0..tree.len() {
            let node = tree.node(idx);
            if !node.children.is_empty() {
                let child_mass: f64 = node.children.iter().map(|&c| tree.node(c).prob).sum();
                prop_assert!((child_mass - node.prob).abs() < 1e-9,
                    "node depth {} mass {} children {}", node.depth, node.prob, child_mass);
            }
        }
    }

    #[test]
    fn mc_close_to_exact((table, seed) in (uniform_table(4), any::<u64>())) {
        let exact = build_exact(&table, 2, &ExactConfig::default()).unwrap();
        let mc = build_mc(&table, 2, &McConfig::fixed(60_000, seed)).unwrap();
        for ep in exact.paths() {
            let mp = mc.paths().iter().find(|p| p.items == ep.items).map(|p| p.prob).unwrap_or(0.0);
            prop_assert!((ep.prob - mp).abs() < 0.02,
                "path {:?}: exact {} vs mc {}", ep.items, ep.prob, mp);
        }
    }

    #[test]
    fn pruning_conserves_and_shrinks((table, seed) in (uniform_table(6), any::<u64>())) {
        let ps = build_mc(&table, 3, &McConfig::fixed(3000, seed)).unwrap();
        // Take the most probable path's top pair as a consistent answer.
        let best = ps.most_probable().clone();
        let (i, j) = (best.items[0], best.items[1]);
        let (pruned, stats) = prune(&ps, i, j, true, 0.5).unwrap();
        prop_assert!(pruned.len() <= ps.len(), "consistent answers never grow the tree");
        prop_assert!((pruned.total_prob() - 1.0).abs() < 1e-9);
        prop_assert_eq!(stats.paths_before, ps.len());
        prop_assert_eq!(stats.paths_after, pruned.len());
        // Pruning preserves relative masses of surviving paths that
        // *determine* the pair (undetermined paths are scaled by the split
        // factor instead, so they are excluded here).
        for p in pruned.paths() {
            if !(p.items.contains(&i) || p.items.contains(&j)) {
                continue;
            }
            if let Some(orig) = ps.paths().iter().find(|o| o.items == p.items) {
                let ratio = p.prob / orig.prob;
                let expect = 1.0 / (1.0 - stats.mass_removed);
                prop_assert!((ratio - expect).abs() < 1e-6 || stats.mass_removed < 1e-12,
                    "restriction must scale determined paths uniformly");
            }
        }
    }

    #[test]
    fn bayes_update_preserves_support((table, seed, eta) in (uniform_table(5), any::<u64>(), 0.55..0.95f64)) {
        let ps = build_mc(&table, 3, &McConfig::fixed(2000, seed)).unwrap();
        let best = ps.most_probable().clone();
        let updated = bayes_update(&ps, best.items[0], best.items[1], true, eta, 0.5).unwrap();
        prop_assert_eq!(updated.len(), ps.len(), "noisy updates never eliminate paths");
        prop_assert!((updated.total_prob() - 1.0).abs() < 1e-9);
        // The agreeing path's mass must not decrease.
        let new_best = updated.paths().iter().find(|p| p.items == best.items).unwrap();
        prop_assert!(new_best.prob >= best.prob - 1e-12);
    }

    #[test]
    fn world_filtering_matches_path_pruning((table, seed) in (uniform_table(5), any::<u64>())) {
        // Hard-filtering worlds then grouping must equal pruning the grouped
        // paths, for pairs that appear in every path (here: the top pair of
        // the most probable path, answered consistently).
        let mut wm = WorldModel::sample(&table, 4000, seed).unwrap();
        let ps = wm.path_set_cached(3).unwrap();
        let best = ps.most_probable().clone();
        let (i, j) = (best.items[0], best.items[1]);
        if wm.apply_answer_hard(i, j, true).is_ok() {
            let via_worlds = wm.path_set_cached(3).unwrap();
            if let Ok((via_prune, _)) = prune(&ps, i, j, true, wm.pr_precedes(i, j).unwrap()) {
                // Same support set.
                let a: Vec<&[u32]> = via_worlds.paths().iter().map(|p| p.items.as_slice()).collect();
                for p in via_prune.paths() {
                    // Paths where the pair was determined must survive in both.
                    if p.items.contains(&i) || p.items.contains(&j) {
                        prop_assert!(a.contains(&p.items.as_slice()),
                            "path {:?} missing from world-filtered set", p.items);
                    }
                }
            }
        }
    }

    #[test]
    fn noisy_total_weight_stays_bounded(
        (table, seed, rounds) in (uniform_table(4), any::<u64>(), 1usize..200)
    ) {
        // Satellite regression: the renormalized noisy update keeps the
        // total weight pinned at M no matter how long the session runs.
        let mut wm = WorldModel::sample(&table, 300, seed).unwrap();
        for r in 0..rounds {
            wm.apply_answer_noisy(0, 1, r % 2 == 0, 0.55).unwrap();
        }
        let m = wm.num_worlds() as f64;
        prop_assert!((wm.total_weight() - m).abs() < 1e-6 * m);
        // The underflow collapse manifested as pr_precedes falling back to
        // the 0.5 "no surviving weight" default and path_set failing; a
        // unanimous pair may legitimately sit at exactly 0 or 1.
        let p = wm.pr_precedes(0, 1).unwrap();
        prop_assert!(p.is_finite() && (0.0..=1.0).contains(&p));
        prop_assert!((p + wm.pr_precedes(1, 0).unwrap() - 1.0).abs() < 1e-9);
        prop_assert_eq!(wm.effective_worlds(), wm.num_worlds(),
            "noisy updates must never zero a world");
        prop_assert!(wm.path_set_cached(2).is_ok());
    }

    #[test]
    fn level_distributions_are_distributions(table in uniform_table(6)) {
        let ps = build_mc(&table, 3, &McConfig::fixed(2000, 1)).unwrap();
        let levels = level_distributions(&ps);
        prop_assert_eq!(levels.len(), 3);
        let mut prev_len = 0usize;
        for l in &levels {
            prop_assert!((l.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            prop_assert!(l.iter().all(|&p| p > 0.0));
            prop_assert!(l.len() >= prev_len, "levels refine");
            prev_len = l.len();
        }
    }

    #[test]
    fn level_distributions_match_a_prefix_map(
        (table, seed, k, cut) in (uniform_table(6), any::<u64>(), 1usize..5, 0usize..40),
    ) {
        // The dense prefix groups reproduce a prefix-keyed map's sums bit
        // for bit: same groups, same path-order accumulation. Truncating
        // some paths mixes prefix lengths, as partially built trees do.
        let full = build_mc(&table, k, &McConfig::fixed(500, seed)).unwrap();
        let ps = ctk_tpo::PathSet::from_weighted(
            k,
            full.paths()
                .iter()
                .enumerate()
                .map(|(i, p)| {
                    let len = if i < cut { p.items.len() - 1 } else { p.items.len() };
                    (p.items[..len].to_vec(), p.prob)
                })
                .filter(|(items, _)| !items.is_empty())
                .collect(),
        );
        let Ok(ps) = ps else { return Ok(()) };
        let depth = ps.paths().iter().map(|p| p.items.len()).max().unwrap_or(0);
        let mut reference = Vec::new();
        for l in 1..=depth {
            let mut groups: std::collections::BTreeMap<&[u32], f64> = Default::default();
            for p in ps.paths() {
                *groups.entry(&p.items[..l.min(p.items.len())]).or_insert(0.0) += p.prob;
            }
            let mut probs: Vec<f64> = groups.into_values().collect();
            probs.sort_unstable_by(|a, b| b.total_cmp(a));
            reference.push(probs.iter().map(|p| p.to_bits()).collect::<Vec<_>>());
        }
        let dense: Vec<Vec<u64>> = level_distributions(&ps)
            .iter()
            .map(|l| l.iter().map(|p| p.to_bits()).collect())
            .collect();
        prop_assert_eq!(dense, reference);
    }

    #[test]
    fn bounds_bracket_the_converged_topk(
        (table, seed) in (uniform_table(6), any::<u64>()),
    ) {
        // PR 8 pin: the certain set sits inside, and the possible set
        // outside, every ordered top-K a converged reference build can
        // produce.
        let k = 3;
        let bounds = TopKBounds::from_matrix(&PairwiseMatrix::compute(&table), k).unwrap();
        let reference = build_mc(&table, k, &McConfig::fixed(8000, seed)).unwrap();
        for path in reference.paths() {
            for &c in bounds.certain() {
                prop_assert!(
                    path.items.contains(&c),
                    "certain tuple t{} missing from reference path {:?}", c, path.items
                );
            }
            for &t in &path.items {
                prop_assert!(
                    bounds.is_possibly_in(t as usize),
                    "reference path member t{} outside the possible set", t
                );
            }
        }
    }

    #[test]
    fn adaptive_build_meets_its_requested_target(
        (table, seed) in (uniform_table(6), any::<u64>()),
    ) {
        let (epsilon, delta) = (0.05, 0.05);
        let (ps, report) = Engine::MonteCarlo(McConfig::adaptive(epsilon, delta, seed))
            .build_with_report(&table, 3, None)
            .unwrap();
        prop_assert!((ps.total_prob() - 1.0).abs() < 1e-9);
        prop_assert_eq!(report.delta, Some(delta));
        match report.reason {
            StopReason::CertainOrder => {
                // Bounds pinned the prefix: no sampling, exact answer.
                prop_assert_eq!(report.worlds_drawn, 0);
                prop_assert_eq!(report.epsilon, Some(0.0));
                prop_assert_eq!(ps.len(), 1);
            }
            StopReason::Converged => {
                // Never under-run the request; never exceed the cap.
                prop_assert!(report.epsilon.unwrap() <= epsilon);
                prop_assert!(report.worlds_drawn >= 1024);
                prop_assert!(report.worlds_drawn <= 1 << 19);
            }
            StopReason::WorldCap => prop_assert_eq!(report.worlds_drawn, 1 << 19),
            other => prop_assert!(false, "unexpected stop reason {:?}", other),
        }
    }

    #[test]
    fn adaptive_build_tracks_a_converged_reference(
        (table, seed) in (uniform_table(5), any::<u64>()),
    ) {
        // Every adaptive path probability must lie within the requested
        // epsilon of a converged reference (60k worlds), plus a small
        // allowance for the reference's own sampling noise.
        let epsilon = 0.08;
        let (ps, report) = Engine::MonteCarlo(McConfig::adaptive(epsilon, 0.05, seed))
            .build_with_report(&table, 2, None)
            .unwrap();
        let reference = build_mc(&table, 2, &McConfig::fixed(60_000, seed ^ 0xABCD)).unwrap();
        for p in ps.paths() {
            let q = reference
                .paths()
                .iter()
                .find(|r| r.items == p.items)
                .map_or(0.0, |r| r.prob);
            prop_assert!(
                (p.prob - q).abs() <= epsilon + 0.03,
                "path {:?}: adaptive {:.4} vs reference {:.4} (reason {:?})",
                p.items, p.prob, q, report.reason
            );
        }
    }

    #[test]
    fn fixed_target_ignores_bounds_bit_for_bit(
        (table, seed) in (uniform_table(6), any::<u64>()),
    ) {
        // Compat mode: FixedWorlds(m) must replay the plain build_mc
        // pipeline bit for bit whether or not bounds are supplied.
        let cfg = McConfig::fixed(1500, seed);
        let plain = build_mc(&table, 3, &cfg).unwrap();
        let bounds = TopKBounds::from_matrix(&PairwiseMatrix::compute(&table), 3).unwrap();
        let (bounded, report) = Engine::MonteCarlo(cfg)
            .build_with_report(&table, 3, Some(&bounds))
            .unwrap();
        prop_assert!(report.same_outcome(&PrecisionReport::fixed(1500)));
        prop_assert_eq!(plain.len(), bounded.len());
        for (a, b) in plain.paths().iter().zip(bounded.paths()) {
            prop_assert_eq!(&a.items, &b.items);
            prop_assert_eq!(a.prob.to_bits(), b.prob.to_bits());
        }
    }

    #[test]
    fn precedence_and_membership_consistent(table in uniform_table(5)) {
        let ps = build_mc(&table, 2, &McConfig::fixed(3000, 9)).unwrap();
        for i in 0..table.len() as u32 {
            let m = membership_probability(&ps, i);
            prop_assert!((0.0..=1.0 + 1e-9).contains(&m));
            for j in 0..table.len() as u32 {
                if i != j {
                    let p = precedence_probability(&ps, i, j, 0.5);
                    let q = precedence_probability(&ps, j, i, 0.5);
                    prop_assert!((p + q - 1.0).abs() < 1e-9);
                }
            }
        }
    }
}

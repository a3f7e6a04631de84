//! Property-based tests that pin the fast paths against this crate's
//! test-only references and private thread-count entry points.

use crate::build::{build_mc, build_mc_reference, fixed_mc_with_threads, McConfig};
use crate::worlds::WorldModel;
use ctk_prob::{ScoreDist, UncertainTable};
use proptest::prelude::*;

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn partial_selection_build_matches_full_sort_reference(
        (table, seed) in (uniform_table(7), any::<u64>()),
    ) {
        // The fast builder (compiled sampling + top-K partial
        // selection) is bit-identical to the full-sort WorldModel pipeline
        // at every depth, for the auto and the forced-sequential paths.
        for k in [1usize, 3, 7] {
            let cfg = McConfig::fixed(1200, seed);
            let reference = build_mc_reference(&table, k, 1200, seed).unwrap();
            for fast in [
                build_mc(&table, k, &cfg).unwrap(),
                fixed_mc_with_threads(&table, k, 1200, seed, 1).unwrap(),
                fixed_mc_with_threads(&table, k, 1200, seed, 3).unwrap(),
            ] {
                prop_assert_eq!(fast.len(), reference.len(), "k = {}", k);
                for (a, b) in fast.paths().iter().zip(reference.paths()) {
                    prop_assert_eq!(&a.items, &b.items, "k = {}", k);
                    prop_assert_eq!(a.prob.to_bits(), b.prob.to_bits(), "k = {}", k);
                }
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

    #[test]
    fn parallel_builders_match_sequential(
        (table, seed, threads) in (uniform_table(5), any::<u64>(), 2usize..9)
    ) {
        // Thread-count independence of the Monte-Carlo build: sampling,
        // ranking and grouping must be bit-identical however chunked.
        let seq = fixed_mc_with_threads(&table, 3, 3000, seed, 1).unwrap();
        let par = fixed_mc_with_threads(&table, 3, 3000, seed, threads).unwrap();
        prop_assert_eq!(seq.len(), par.len());
        for (a, b) in seq.paths().iter().zip(par.paths()) {
            prop_assert_eq!(&a.items, &b.items);
            prop_assert_eq!(a.prob.to_bits(), b.prob.to_bits());
        }
    }
}

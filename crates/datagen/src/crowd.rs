//! Crowd roster presets: named worker populations for the quality-layer
//! experiments, deterministic in the run seed like the dataset
//! [`crate::scenarios`].
//!
//! The paper's evaluation assumes one uniform worker accuracy `eta`;
//! the `ctk-quality` experiments need the populations that break the
//! assumption — spammer-contaminated pools and the gold questions that
//! calibrate them. These presets are the single source of those rosters
//! for the `adversarial_crowd` example and the quality gates, so every
//! harness argues about the same crowds.

use ctk_crowd::Question;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The true accuracies of a roster of `size` workers where
/// `spammer_fraction` of them (rounded, placed at the end of the roster)
/// answer near or below chance while the rest are reliable experts.
///
/// Accuracies are drawn deterministically from the seed: experts in
/// `[0.85, 0.97)`, spammers in `[0.35, 0.55)` (some are systematically
/// wrong, not merely random). `spammer_fraction` is clamped to `[0, 1]`;
/// a zero `size` yields an empty roster that `QualityCrowd::new`
/// rejects.
pub fn spammer_pool(size: usize, spammer_fraction: f64, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let frac = if spammer_fraction.is_nan() {
        0.0
    } else {
        spammer_fraction.clamp(0.0, 1.0)
    };
    let spammers = ((size as f64) * frac).round() as usize;
    let reliable = size.saturating_sub(spammers);
    (0..size)
        .map(|i| {
            if i < reliable {
                rng.gen_range(0.85..0.97)
            } else {
                rng.gen_range(0.35..0.55)
            }
        })
        .collect()
}

/// A balanced gold question set for `QualityCrowd::calibrate_gold`:
/// `reps` passes over every unordered pair of `n_items` tuples, flipping
/// the orientation on every other question so the true answers are a
/// mix of yes and no (Dawid–Skene degrades on one-category gold sets).
pub fn gold_questions(n_items: u32, reps: usize) -> Vec<Question> {
    let mut out = Vec::new();
    let mut flip = false;
    for _ in 0..reps {
        for i in 0..n_items {
            for j in 0..i {
                out.push(if flip {
                    Question::new(j, i)
                } else {
                    Question::new(i, j)
                });
                flip = !flip;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spammer_pool_splits_and_prices_the_roster() {
        let accs = spammer_pool(8, 0.25, 7);
        assert_eq!(accs.len(), 8);
        let (experts, spammers) = accs.split_at(6);
        for &a in experts {
            assert!((0.85..0.97).contains(&a));
        }
        for &a in spammers {
            assert!((0.35..0.55).contains(&a));
        }
        assert_eq!(accs, spammer_pool(8, 0.25, 7), "seed-deterministic");
        assert_ne!(accs, spammer_pool(8, 0.25, 8));
    }

    #[test]
    fn spammer_pool_handles_degenerate_inputs() {
        assert!(spammer_pool(0, 0.5, 0).is_empty());
        assert!(spammer_pool(4, f64::NAN, 0).iter().all(|&a| a >= 0.85));
        assert!(spammer_pool(4, 7.0, 0).iter().all(|&a| a < 0.55));
    }

    #[test]
    fn gold_questions_are_balanced_and_cover_all_pairs() {
        let gold = gold_questions(5, 2);
        assert_eq!(gold.len(), 2 * 10);
        let flipped = gold.iter().filter(|q| q.i < q.j).count();
        assert_eq!(flipped, gold.len() / 2, "orientations alternate");
    }
}

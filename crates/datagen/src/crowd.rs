//! Crowd roster presets: named worker populations for the quality-layer
//! experiments, deterministic in the run seed like the dataset
//! [`crate::scenarios`].
//!
//! The paper's evaluation assumes one uniform worker accuracy `eta`;
//! the `ctk-quality` experiments need the populations that break the
//! assumption — spammer-contaminated pools, churning rosters, and
//! gold-calibrated setups. These presets are the single source of those
//! rosters for the `adversarial_crowd` example and the integration
//! tests, so every harness argues about the same crowds.

use ctk_crowd::Question;
use ctk_quality::WorkerSpec;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A roster of `size` workers where `spammer_fraction` of them (rounded,
/// placed at the end of the roster) answer near or below chance while
/// the rest are reliable experts. Experts are priced at 3 votes' worth
/// per vote, spammers at 1.
///
/// Accuracies are drawn deterministically from the seed: experts in
/// `[0.85, 0.97)`, spammers in `[0.35, 0.55)` (some are systematically
/// wrong, not merely random). `spammer_fraction` is clamped to `[0, 1]`;
/// a zero `size` yields an empty roster that `QualityCrowd::new`
/// rejects.
pub fn spammer_pool(size: usize, spammer_fraction: f64, seed: u64) -> Vec<WorkerSpec> {
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
                WorkerSpec::new(rng.gen_range(0.85..0.97)).with_cost(3)
            } else {
                WorkerSpec::new(rng.gen_range(0.35..0.55))
            }
        })
        .collect()
}

/// A churning roster: `size` reliable workers on staggered activity
/// shifts over `[0, horizon)` pool questions. Each worker is active for
/// two thirds of the horizon, with start offsets spread evenly so
/// roughly two thirds of the roster is active at any tick and the
/// active subset rotates — membership changes mid-run without ever
/// leaving the pool empty.
pub fn churn_pool(size: usize, horizon: u64, seed: u64) -> Vec<WorkerSpec> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xC0FF_EE00);
    let horizon = horizon.max(3);
    let shift = (horizon * 2) / 3;
    (0..size)
        .map(|i| {
            let join = if size <= 1 {
                0
            } else {
                // Even stagger across the third of the horizon not
                // covered by a shift starting at 0.
                (horizon - shift) * i as u64 / (size as u64 - 1).max(1)
            };
            WorkerSpec::new(rng.gen_range(0.8..0.95)).with_window(join, join + shift)
        })
        .collect()
}

/// A spammer-contaminated roster plus the balanced gold question set
/// that calibrates it: feed the questions to
/// `QualityCrowd::calibrate_gold` before live asks and the estimator
/// starts from graded evidence instead of the nominal prior.
///
/// The gold set cycles over the ordered pairs of an `n_items`-tuple
/// table, alternating orientations so the true answers are a mix of yes
/// and no — agreement statistics (Fleiss' kappa, Dawid–Skene) degrade
/// on one-category gold sets. `reps` controls how many gold questions
/// per worker-facing pair are emitted in total.
pub fn gold_calibrated(
    size: usize,
    spammer_fraction: f64,
    n_items: u32,
    reps: usize,
    seed: u64,
) -> (Vec<WorkerSpec>, Vec<Question>) {
    let specs = spammer_pool(size, spammer_fraction, seed);
    (specs, gold_questions(n_items, reps))
}

/// The balanced gold question set of [`gold_calibrated`], standalone:
/// `reps` passes over every unordered pair of `n_items` tuples, flipping
/// the orientation on every other question.
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
        let specs = spammer_pool(8, 0.25, 7);
        assert_eq!(specs.len(), 8);
        let (experts, spammers) = specs.split_at(6);
        for s in experts {
            assert!(s.accuracy() >= 0.85 && s.accuracy() < 0.97);
            assert_eq!(s.cost(), 3);
        }
        for s in spammers {
            assert!(s.accuracy() >= 0.35 && s.accuracy() < 0.55);
            assert_eq!(s.cost(), 1);
        }
        assert_eq!(specs, spammer_pool(8, 0.25, 7), "seed-deterministic");
        assert_ne!(specs, spammer_pool(8, 0.25, 8));
    }

    #[test]
    fn spammer_pool_handles_degenerate_inputs() {
        assert!(spammer_pool(0, 0.5, 0).is_empty());
        assert!(spammer_pool(4, f64::NAN, 0)
            .iter()
            .all(|s| s.accuracy() >= 0.85));
        assert!(spammer_pool(4, 7.0, 0).iter().all(|s| s.accuracy() < 0.55));
    }

    #[test]
    fn churn_pool_staggers_overlapping_shifts() {
        let specs = churn_pool(6, 300, 1);
        assert_eq!(specs.len(), 6);
        let windows: Vec<(u64, u64)> = specs
            .iter()
            .map(|s| s.window().expect("churn workers have windows"))
            .collect();
        assert_eq!(windows[0].0, 0, "someone covers the opening tick");
        assert_eq!(windows[5].1, 300, "someone covers the closing tick");
        for w in &windows {
            assert_eq!(w.1 - w.0, 200, "two-thirds shifts");
        }
        // Every tick of the horizon has at least one active worker.
        for t in 0..300u64 {
            assert!(
                windows.iter().any(|&(j, l)| j <= t && t < l),
                "tick {t} uncovered"
            );
        }
        assert_eq!(specs, churn_pool(6, 300, 1));
    }

    #[test]
    fn gold_questions_are_balanced_and_cover_all_pairs() {
        let gold = gold_questions(5, 2);
        assert_eq!(gold.len(), 2 * 10);
        let flipped = gold.iter().filter(|q| q.i < q.j).count();
        assert_eq!(flipped, gold.len() / 2, "orientations alternate");
        let (specs, same_gold) = gold_calibrated(6, 0.5, 5, 2, 3);
        assert_eq!(specs, spammer_pool(6, 0.5, 3));
        assert_eq!(same_gold, gold);
    }
}

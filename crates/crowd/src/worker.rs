//! Worker models: how a crowd member turns the true pairwise order into an
//! answer.
//!
//! §III-C models a worker by an *accuracy* — the probability that the
//! returned answer is correct. The experiment harness uses
//! [`PerfectWorker`] for the noiseless setting and [`NoisyWorker`] /
//! [`WorkerPool`] for the noisy-crowd experiments. [`WorkerId`] and
//! [`Vote`] name one worker's raw verdict, the raw material the
//! `ctk-quality` crate's per-worker accuracy estimation is built on.

use crate::error::CrowdError;
use crate::question::Question;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;

/// Identifies one worker within a roster (e.g. the index of a pool
/// member).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct WorkerId(pub u32);

impl fmt::Display for WorkerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "w{}", self.0)
    }
}

/// One worker's raw (un-aggregated) verdict on a question, attributed to
/// whoever produced it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Vote {
    /// Who answered.
    pub worker: WorkerId,
    /// `true` iff this worker said `i` ranks above `j`.
    pub yes: bool,
}

/// Turns the true answer of a question into the worker's (possibly wrong)
/// response.
///
/// `Send` is a supertrait so crowds built over any worker model can cross
/// thread boundaries (see the `Crowd` trait and the parallel service round
/// loop in `ctk-service`).
pub trait AnswerModel: Send {
    /// Produces the worker's answer given the correct one.
    fn answer(&mut self, q: &Question, truth: bool) -> bool;

    /// The model's (nominal) accuracy, used by the Bayesian update. For
    /// pools this is the average accuracy; for difficulty-aware workers it
    /// is the asymptotic (easy-pair) accuracy.
    fn accuracy(&self) -> f64;

    /// Like [`AnswerModel::answer`] but informed of the true score gap
    /// `|s_i - s_j|` of the compared pair. Models that err more on close
    /// calls override this; the default ignores the gap.
    fn answer_with_gap(&mut self, q: &Question, truth: bool, _gap: f64) -> bool {
        self.answer(q, truth)
    }
}

/// Always answers correctly (accuracy 1).
#[derive(Debug, Clone, Default)]
pub struct PerfectWorker;

impl AnswerModel for PerfectWorker {
    fn answer(&mut self, _q: &Question, truth: bool) -> bool {
        truth
    }

    fn accuracy(&self) -> f64 {
        1.0
    }
}

/// Answers correctly with fixed probability `accuracy`.
#[derive(Debug, Clone)]
pub struct NoisyWorker {
    accuracy: f64,
    rng: StdRng,
}

impl NoisyWorker {
    /// Creates a worker with the given accuracy (clamped to `[0.5, 1]`; an
    /// accuracy below a coin flip would be an adversarial worker, which the
    /// paper does not model) and RNG seed.
    pub fn new(accuracy: f64, seed: u64) -> Self {
        Self {
            accuracy: accuracy.clamp(0.5, 1.0),
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Creates a worker whose accuracy may drop below a coin flip
    /// (clamped to `[0, 1]` only) — the adversarial/spammer model the
    /// `ctk-quality` estimation layer exists to detect. A worker at
    /// accuracy 0.5 is a pure spammer; below 0.5 it is systematically
    /// misleading.
    pub fn adversarial(accuracy: f64, seed: u64) -> Self {
        Self {
            accuracy: accuracy.clamp(0.0, 1.0),
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl AnswerModel for NoisyWorker {
    fn answer(&mut self, _q: &Question, truth: bool) -> bool {
        if self.rng.gen::<f64>() < self.accuracy {
            truth
        } else {
            !truth
        }
    }

    fn accuracy(&self) -> f64 {
        self.accuracy
    }
}

/// A heterogeneous pool of workers; questions are assigned round-robin
/// (simulating a crowdsourcing platform distributing tasks). Generic over
/// the member model, defaulting to the classic [`NoisyWorker`] pool.
#[derive(Debug, Clone)]
pub struct WorkerPool<W = NoisyWorker> {
    workers: Vec<W>,
    cursor: usize,
}

impl WorkerPool<NoisyWorker> {
    /// Builds a pool from explicit accuracies.
    ///
    /// Fails with [`CrowdError::EmptyPool`] when no accuracies are given.
    pub fn new(accuracies: &[f64], seed: u64) -> Result<Self, CrowdError> {
        Self::from_workers(
            accuracies
                .iter()
                .enumerate()
                .map(|(i, &a)| NoisyWorker::new(a, seed.wrapping_add(i as u64)))
                .collect(),
        )
    }

    /// Builds a pool of `size` workers with accuracies drawn uniformly from
    /// `[lo, hi]` (deterministic given `seed`).
    ///
    /// Fails with [`CrowdError::EmptyPool`] when `size` is zero.
    pub fn uniform(size: usize, lo: f64, hi: f64, seed: u64) -> Result<Self, CrowdError> {
        let mut rng = StdRng::seed_from_u64(seed);
        let accuracies: Vec<f64> = (0..size)
            .map(|_| rng.gen_range(lo.min(hi)..=hi.max(lo)))
            .collect();
        Self::new(&accuracies, seed.wrapping_add(0x9e37_79b9))
    }
}

impl<W: AnswerModel> WorkerPool<W> {
    /// Builds a pool from prebuilt member models (any [`AnswerModel`] —
    /// difficulty-aware workers, adversarial workers, mixtures).
    ///
    /// Fails with [`CrowdError::EmptyPool`] when `workers` is empty.
    pub fn from_workers(workers: Vec<W>) -> Result<Self, CrowdError> {
        if workers.is_empty() {
            return Err(CrowdError::EmptyPool);
        }
        Ok(Self { workers, cursor: 0 })
    }

    /// Number of workers.
    pub fn len(&self) -> usize {
        self.workers.len()
    }

    /// Pools are never empty (enforced at construction).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Advances the round-robin cursor and returns the selected worker's
    /// index.
    fn next_index(&mut self) -> usize {
        let idx = self.cursor;
        self.cursor = (self.cursor + 1) % self.workers.len();
        idx
    }
}

impl<W: AnswerModel> AnswerModel for WorkerPool<W> {
    fn answer(&mut self, q: &Question, truth: bool) -> bool {
        let idx = self.next_index();
        self.workers[idx].answer(q, truth)
    }

    fn accuracy(&self) -> f64 {
        self.workers.iter().map(|w| w.accuracy()).sum::<f64>() / self.workers.len() as f64
    }

    /// Forwards the gap to the selected member. (Regression: the pool used
    /// to route `answer_with_gap` through `answer`, silently dropping the
    /// gap at the pool boundary — a pool of difficulty-aware workers
    /// behaved like its asymptotic-accuracy caricature.)
    fn answer_with_gap(&mut self, q: &Question, truth: bool, gap: f64) -> bool {
        let idx = self.next_index();
        self.workers[idx].answer_with_gap(q, truth, gap)
    }
}

/// A worker whose accuracy depends on how close the compared scores are:
/// `eta(gap) = 0.5 + (eta_max - 0.5) * (1 - exp(-gap / scale))`.
///
/// Human judges are nearly random on ties and nearly perfect on obvious
/// pairs; this is the standard difficulty-aware noise model from the
/// crowdsourcing literature, provided as an extension beyond the paper's
/// constant-accuracy workers (the Bayesian update keeps using the nominal
/// `eta_max`, deliberately stress-testing model mismatch).
#[derive(Debug, Clone)]
pub struct DifficultyWorker {
    eta_max: f64,
    scale: f64,
    rng: StdRng,
}

impl DifficultyWorker {
    /// Creates a difficulty-aware worker. `eta_max` is the accuracy on
    /// well-separated pairs (clamped to `[0.5, 1]`); `scale > 0` is the
    /// score gap at which ~63% of the accuracy headroom is reached.
    ///
    /// Fails with [`CrowdError::InvalidDifficultyScale`] when `scale` is
    /// not positive and finite.
    pub fn new(eta_max: f64, scale: f64, seed: u64) -> Result<Self, CrowdError> {
        if !(scale > 0.0 && scale.is_finite()) {
            return Err(CrowdError::InvalidDifficultyScale);
        }
        Ok(Self {
            eta_max: eta_max.clamp(0.5, 1.0),
            scale,
            rng: StdRng::seed_from_u64(seed),
        })
    }

    /// Accuracy on a pair with true score gap `gap`.
    fn accuracy_at(&self, gap: f64) -> f64 {
        0.5 + (self.eta_max - 0.5) * (1.0 - (-gap.abs() / self.scale).exp())
    }
}

impl AnswerModel for DifficultyWorker {
    fn answer(&mut self, q: &Question, truth: bool) -> bool {
        // No gap information: behave like the asymptotic worker.
        let eta = self.eta_max;
        let _ = q;
        if self.rng.gen::<f64>() < eta {
            truth
        } else {
            !truth
        }
    }

    fn accuracy(&self) -> f64 {
        self.eta_max
    }

    fn answer_with_gap(&mut self, _q: &Question, truth: bool, gap: f64) -> bool {
        if self.rng.gen::<f64>() < self.accuracy_at(gap) {
            truth
        } else {
            !truth
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q() -> Question {
        Question::new(0, 1)
    }

    #[test]
    fn perfect_worker_never_errs() {
        let mut w = PerfectWorker;
        assert_eq!(w.accuracy(), 1.0);
        for truth in [true, false] {
            for _ in 0..10 {
                assert_eq!(w.answer(&q(), truth), truth);
            }
        }
    }

    #[test]
    fn noisy_worker_error_rate_matches_accuracy() {
        let mut w = NoisyWorker::new(0.8, 42);
        assert_eq!(w.accuracy(), 0.8);
        const N: usize = 20_000;
        let correct = (0..N).filter(|_| w.answer(&q(), true)).count();
        let rate = correct as f64 / N as f64;
        assert!((rate - 0.8).abs() < 0.01, "rate = {rate}");
    }

    #[test]
    fn accuracy_clamped_to_half() {
        assert_eq!(NoisyWorker::new(0.2, 0).accuracy(), 0.5);
        assert_eq!(NoisyWorker::new(1.5, 0).accuracy(), 1.0);
    }

    #[test]
    fn adversarial_worker_can_be_systematically_wrong() {
        let mut w = NoisyWorker::adversarial(0.1, 3);
        assert_eq!(w.accuracy(), 0.1);
        assert_eq!(NoisyWorker::adversarial(-0.2, 0).accuracy(), 0.0);
        assert_eq!(NoisyWorker::adversarial(1.2, 0).accuracy(), 1.0);
        const N: usize = 20_000;
        let correct = (0..N).filter(|_| w.answer(&q(), true)).count();
        let rate = correct as f64 / N as f64;
        assert!((rate - 0.1).abs() < 0.01, "rate = {rate}");
    }

    #[test]
    fn pool_round_robin_and_average_accuracy() {
        let mut pool = WorkerPool::new(&[1.0, 0.5], 7).expect("non-empty");
        assert_eq!(pool.len(), 2);
        assert!(!pool.is_empty());
        assert!((pool.accuracy() - 0.75).abs() < 1e-12);
        // The accuracy-1.0 worker answers every other question correctly.
        let answers: Vec<bool> = (0..6).map(|_| pool.answer(&q(), true)).collect();
        assert!(answers[0] && answers[2] && answers[4]);
    }

    #[test]
    fn empty_pools_are_errors_not_aborts() {
        assert_eq!(WorkerPool::new(&[], 0).unwrap_err(), CrowdError::EmptyPool);
        assert_eq!(
            WorkerPool::uniform(0, 0.6, 0.9, 1).unwrap_err(),
            CrowdError::EmptyPool
        );
        assert_eq!(
            WorkerPool::<NoisyWorker>::from_workers(Vec::new()).unwrap_err(),
            CrowdError::EmptyPool
        );
    }

    #[test]
    fn uniform_pool_accuracies_in_range() {
        let pool = WorkerPool::uniform(50, 0.6, 0.9, 3).expect("non-empty");
        assert_eq!(pool.len(), 50);
        let avg = pool.accuracy();
        assert!(avg > 0.6 && avg < 0.9, "avg = {avg}");
    }

    #[test]
    fn pool_forwards_gap_to_members() {
        // Regression: `answer_with_gap` on a pool used to drop the gap, so
        // difficulty-aware members behaved like their asymptotic selves.
        // A pool of difficulty workers must be near-random on ties and
        // near-eta_max on wide gaps.
        let pool = || {
            WorkerPool::from_workers(
                (0..4)
                    .map(|i| DifficultyWorker::new(0.95, 0.1, i).expect("positive scale"))
                    .collect(),
            )
            .expect("non-empty")
        };
        const N: usize = 20_000;
        let mut tie_pool = pool();
        let tie_rate = (0..N)
            .filter(|_| tie_pool.answer_with_gap(&q(), true, 0.0))
            .count() as f64
            / N as f64;
        let mut wide_pool = pool();
        let wide_rate = (0..N)
            .filter(|_| wide_pool.answer_with_gap(&q(), true, 10.0))
            .count() as f64
            / N as f64;
        assert!(
            (tie_rate - 0.5).abs() < 0.02,
            "ties ~ coin flip: {tie_rate}"
        );
        assert!(wide_rate > 0.92, "wide gaps ~ eta_max: {wide_rate}");
    }

    #[test]
    fn difficulty_worker_errs_more_on_close_calls() {
        let w = DifficultyWorker::new(0.95, 0.1, 0).expect("positive scale");
        assert!(
            (w.accuracy_at(0.0) - 0.5).abs() < 1e-12,
            "ties are coin flips"
        );
        assert!(w.accuracy_at(0.05) < w.accuracy_at(0.2));
        assert!(w.accuracy_at(10.0) > 0.9499, "easy pairs approach eta_max");
        assert_eq!(w.accuracy(), 0.95);

        // Empirical check at a fixed gap.
        let mut w = DifficultyWorker::new(0.9, 0.1, 7).expect("positive scale");
        let expect = w.accuracy_at(0.1);
        const N: usize = 20_000;
        let correct = (0..N)
            .filter(|_| w.answer_with_gap(&q(), true, 0.1))
            .count();
        let rate = correct as f64 / N as f64;
        assert!((rate - expect).abs() < 0.01, "rate {rate} vs {expect}");
    }

    #[test]
    fn default_answer_with_gap_ignores_gap() {
        let mut w = PerfectWorker;
        assert!(w.answer_with_gap(&q(), true, 0.0));
        assert!(!w.answer_with_gap(&q(), false, 0.0));
    }

    #[test]
    fn difficulty_scale_must_be_positive_and_finite() {
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert_eq!(
                DifficultyWorker::new(0.9, bad, 0).unwrap_err(),
                CrowdError::InvalidDifficultyScale,
                "scale {bad} must be rejected"
            );
        }
    }

    #[test]
    fn workers_are_seed_deterministic() {
        let mut a = NoisyWorker::new(0.7, 5);
        let mut b = NoisyWorker::new(0.7, 5);
        for _ in 0..100 {
            assert_eq!(a.answer(&q(), true), b.answer(&q(), true));
        }
    }

    #[test]
    fn worker_id_display() {
        assert_eq!(format!("{}", WorkerId(3)), "w3");
    }
}

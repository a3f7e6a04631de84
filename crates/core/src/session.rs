//! The uncertainty-reduction session: couples a table, a TPO engine, an
//! uncertainty measure, a selection algorithm and a crowd into the paper's
//! end-to-end loop, producing a step-by-step report.
//!
//! Since the serving-layer refactor the actual state machine lives in
//! [`crate::driver::SessionDriver`]; [`UrSession::run`] is a thin blocking
//! loop that pipes the driver's question batches into one [`Crowd`] and
//! feeds the answers back. Schedulers that multiplex many sessions over a
//! shared crowd (the `ctk-service` crate) drive the same machine directly.

use crate::driver::{DriverStatus, SessionDriver};
use crate::error::{CoreError, Result};
use crate::measures::MeasureKind;
use ctk_crowd::{Crowd, Question};
use ctk_prob::UncertainTable;
use ctk_rank::RankList;
use ctk_tpo::build::Engine;
use std::time::Duration;

/// Which question-selection strategy to run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Algorithm {
    /// Baseline: random pairs from the whole tree.
    Random,
    /// Baseline: random pairs from the relevant set `Q_K`.
    Naive,
    /// Offline top-B by single-question reduction.
    TbOff,
    /// Offline conditional greedy.
    COff,
    /// Offline optimal best-first search (optionally capped).
    AStarOff {
        /// Expansion cap (None = provably optimal).
        max_expansions: Option<usize>,
    },
    /// Online greedy (budget-1 lookahead per round).
    T1On,
    /// Online re-planning A* (lookahead 0 = full remaining budget).
    AStarOn {
        /// Planning horizon per round.
        lookahead: usize,
        /// Expansion cap forwarded to the planner.
        max_expansions: Option<usize>,
    },
    /// Incremental hybrid: builds the TPO level by level, interleaving
    /// rounds of `questions_per_round` questions (§III-D). Requires a
    /// sampled-worlds belief, so [`SessionConfig::validate`] rejects it on
    /// [`Engine::Exact`]. Report caveat:
    /// intermediate [`StepRecord`]s are taken at the current construction
    /// depth; only `initial_*` and the final step are full-depth, so the
    /// per-step series is not depth-homogeneous like the other algorithms'.
    Incr {
        /// Questions asked per round (the paper's `n`, `1 <= n <= B`).
        questions_per_round: usize,
    },
}

impl Algorithm {
    /// The paper's name for the strategy.
    pub fn name(&self) -> &'static str {
        match self {
            Algorithm::Random => "random",
            Algorithm::Naive => "naive",
            Algorithm::TbOff => "TB-off",
            Algorithm::COff => "C-off",
            Algorithm::AStarOff { .. } => "A*-off",
            Algorithm::T1On => "T1-on",
            Algorithm::AStarOn { .. } => "A*-on",
            Algorithm::Incr { .. } => "incr",
        }
    }
}

/// Full session configuration.
#[derive(Debug, Clone)]
pub struct SessionConfig {
    /// Query depth `K`.
    pub k: usize,
    /// Question budget `B`.
    pub budget: usize,
    /// Uncertainty measure to optimize.
    pub measure: MeasureKind,
    /// Selection strategy.
    pub algorithm: Algorithm,
    /// TPO construction engine.
    pub engine: Engine,
    /// Seed for stochastic selectors (random / naive).
    pub seed: u64,
    /// Optional early-stop threshold: the session ends once the measured
    /// uncertainty drops to this value or below, even with budget left
    /// (useful when crowd cost matters more than squeezing out the last
    /// bit of certainty). For [`Algorithm::Incr`] the first check (before
    /// any question) uses the full-depth baseline uncertainty; once steps
    /// are recorded the check uses the uncertainty at the current
    /// construction depth (incr never rebuilds the full-depth tree during
    /// the loop), which is systematically lower than the full-depth value
    /// — so incr can stop with the *reported* final (full-depth)
    /// uncertainty still above the target.
    pub uncertainty_target: Option<f64>,
}

impl SessionConfig {
    /// Checks what a configuration must satisfy before any table is seen:
    /// a query depth of at least 1 and, for `incr`, at least one question
    /// per round and the Monte-Carlo engine, whose sampled worlds `incr`
    /// prunes.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidConfig`] naming the violated bound.
    pub fn validate(&self) -> Result<()> {
        if self.k == 0 {
            return Err(CoreError::InvalidConfig("k must be at least 1".into()));
        }
        if let Algorithm::Incr {
            questions_per_round,
        } = self.algorithm
        {
            if questions_per_round == 0 {
                return Err(CoreError::InvalidConfig(
                    "incr needs questions_per_round >= 1".into(),
                ));
            }
            if let Engine::Exact(_) = self.engine {
                return Err(CoreError::InvalidConfig(
                    "incr needs the Monte-Carlo engine's sampled worlds".into(),
                ));
            }
        }
        Ok(())
    }

    /// [`SessionConfig::validate`], and a query depth within `table`.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidConfig`] naming the violated bound.
    pub fn validate_for(&self, table: &UncertainTable) -> Result<()> {
        self.validate()?;
        if self.k > table.len() {
            return Err(CoreError::InvalidConfig(format!(
                "k = {} exceeds table size {}",
                self.k,
                table.len()
            )));
        }
        Ok(())
    }
}

impl Default for SessionConfig {
    fn default() -> Self {
        Self {
            k: 5,
            budget: 10,
            measure: MeasureKind::WeightedEntropy,
            algorithm: Algorithm::T1On,
            engine: Engine::default(),
            seed: 0,
            uncertainty_target: None,
        }
    }
}

/// One asked question and the belief state right after applying its
/// answer.
#[derive(Debug, Clone)]
pub struct StepRecord {
    /// The question as asked.
    pub question: Question,
    /// The crowd's (aggregated) answer.
    pub answer_yes: bool,
    /// Orderings remaining after the update.
    pub orderings: usize,
    /// Uncertainty after the update.
    pub uncertainty: f64,
    /// `D(ω_r, T_K)` after the update, when ground truth was provided.
    pub distance_to_truth: Option<f64>,
}

impl StepRecord {
    /// Bit-exact semantic equality (timing-free; used by
    /// [`UrReport::same_outcome`]).
    pub fn same_outcome(&self, other: &StepRecord) -> bool {
        self.question == other.question
            && self.answer_yes == other.answer_yes
            && self.orderings == other.orderings
            && self.uncertainty.to_bits() == other.uncertainty.to_bits()
            && match (self.distance_to_truth, other.distance_to_truth) {
                (None, None) => true,
                (Some(a), Some(b)) => a.to_bits() == b.to_bits(),
                _ => false,
            }
    }
}

/// Outcome of a full session.
#[derive(Debug, Clone)]
pub struct UrReport {
    /// Strategy name.
    pub algorithm: &'static str,
    /// Measure name.
    pub measure: &'static str,
    /// Orderings in the initial tree.
    pub initial_orderings: usize,
    /// Uncertainty of the initial tree.
    pub initial_uncertainty: f64,
    /// Initial `D(ω_r, T_K)` (when ground truth was provided).
    pub initial_distance: Option<f64>,
    /// One record per asked question.
    pub steps: Vec<StepRecord>,
    /// Answers that contradicted every remaining ordering (possible with
    /// sampled trees or noisy answers); such answers are skipped.
    pub contradictions: usize,
    /// True when the session ended with a single ordering.
    pub resolved: bool,
    /// The reported result: the most probable ordering of the final
    /// belief.
    pub final_topk: Vec<u32>,
    /// Possible worlds sampled to build the initial belief (0 for the
    /// exact engine and for certain-order early stops).
    pub worlds_drawn: usize,
    /// Simultaneous per-path half-width achieved by the build (`None`
    /// for fixed budgets and the exact engine, which claim no guarantee).
    pub achieved_epsilon: Option<f64>,
    /// Requested confidence parameter of an adaptive build (`None`
    /// outside adaptive mode).
    pub precision_delta: Option<f64>,
    /// True when the certain/possible bounds pinned the whole ordered
    /// prefix before any sampling — the session's result was decided by
    /// the score distributions alone and no crowd questions were needed.
    pub certain_early_stop: bool,
    /// Time spent inside question selection (the paper's Fig. 1(b) cost).
    pub selection_time: Duration,
    /// End-to-end wall time.
    pub total_time: Duration,
}

impl UrReport {
    /// Questions actually asked.
    pub fn questions_asked(&self) -> usize {
        self.steps.len()
    }

    /// Orderings after the last update.
    pub fn final_orderings(&self) -> usize {
        self.steps
            .last()
            .map(|s| s.orderings)
            .unwrap_or(self.initial_orderings)
    }

    /// Uncertainty after the last update.
    pub fn final_uncertainty(&self) -> f64 {
        self.steps
            .last()
            .map(|s| s.uncertainty)
            .unwrap_or(self.initial_uncertainty)
    }

    /// `D(ω_r, T_K)` after the last update.
    pub fn final_distance(&self) -> Option<f64> {
        self.steps
            .last()
            .and_then(|s| s.distance_to_truth)
            .or(self.initial_distance)
    }

    /// True when both reports describe the same session outcome: identical
    /// question/answer trail, belief trajectory (bit-exact floats) and
    /// final result. Timing fields are ignored — two runs of the same
    /// deterministic session never share wall clocks. This is the
    /// equivalence the serving layer guarantees against a standalone
    /// [`UrSession::run`] under the same seed.
    pub fn same_outcome(&self, other: &UrReport) -> bool {
        self.algorithm == other.algorithm
            && self.measure == other.measure
            && self.initial_orderings == other.initial_orderings
            && self.initial_uncertainty.to_bits() == other.initial_uncertainty.to_bits()
            && match (self.initial_distance, other.initial_distance) {
                (None, None) => true,
                (Some(a), Some(b)) => a.to_bits() == b.to_bits(),
                _ => false,
            }
            && self.steps.len() == other.steps.len()
            && self
                .steps
                .iter()
                .zip(&other.steps)
                .all(|(a, b)| a.same_outcome(b))
            && self.contradictions == other.contradictions
            && self.resolved == other.resolved
            && self.final_topk == other.final_topk
            && self.worlds_drawn == other.worlds_drawn
            && self.achieved_epsilon.map(f64::to_bits) == other.achieved_epsilon.map(f64::to_bits)
            && self.precision_delta.map(f64::to_bits) == other.precision_delta.map(f64::to_bits)
            && self.certain_early_stop == other.certain_early_stop
    }
}

/// A configured, runnable session.
#[derive(Debug, Clone)]
pub struct UrSession {
    config: SessionConfig,
}

impl UrSession {
    /// Validates and wraps a configuration.
    pub fn new(config: SessionConfig) -> Result<Self> {
        config.validate()?;
        Ok(Self { config })
    }

    /// The configuration.
    pub fn config(&self) -> &SessionConfig {
        &self.config
    }

    /// Runs the session without ground-truth metrics.
    pub fn run<C: Crowd>(&self, table: &UncertainTable, crowd: &mut C) -> Result<UrReport> {
        self.run_with_truth(table, crowd, None)
    }

    /// Runs the session; when `truth` (the real top-K) is given, every step
    /// records `D(ω_r, T_K)`.
    ///
    /// This is the classic blocking loop: build a [`SessionDriver`], pipe
    /// its batches into `crowd`, feed the answers back until the driver
    /// reports done.
    pub fn run_with_truth<C: Crowd>(
        &self,
        table: &UncertainTable,
        crowd: &mut C,
        truth: Option<&RankList>,
    ) -> Result<UrReport> {
        let mut driver = SessionDriver::new(self.config.clone(), table, truth)?;
        loop {
            let batch = driver.next_batch(crowd.remaining())?;
            if batch.is_empty() {
                break;
            }
            let mut answers = Vec::with_capacity(batch.len());
            for q in &batch {
                match crowd.ask(*q) {
                    Some(a) => answers.push(a),
                    None => break, // crowd exhausted: feed what we have
                }
            }
            if driver.feed(&answers, crowd.answer_accuracy())? == DriverStatus::Done {
                break;
            }
        }
        driver.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctk_crowd::{CrowdSimulator, GroundTruth, PerfectWorker, VotePolicy};
    use ctk_prob::ScoreDist;
    use ctk_tpo::build::McConfig;

    fn table() -> UncertainTable {
        UncertainTable::new(
            (0..8)
                .map(|i| ScoreDist::uniform_centered(i as f64 * 0.1, 0.35).unwrap())
                .collect(),
        )
        .unwrap()
    }

    fn config(algorithm: Algorithm, budget: usize) -> SessionConfig {
        SessionConfig {
            k: 3,
            budget,
            measure: MeasureKind::WeightedEntropy,
            algorithm,
            engine: Engine::MonteCarlo(McConfig::fixed(4000, 7)),
            seed: 11,
            uncertainty_target: None,
        }
    }

    fn run(algorithm: Algorithm, budget: usize) -> UrReport {
        let table = table();
        let truth = GroundTruth::sample(&table, 99);
        let top = truth.top_k(3);
        let mut crowd = CrowdSimulator::new(truth, PerfectWorker, VotePolicy::Single, budget)
            .expect("valid vote policy");
        let session = UrSession::new(config(algorithm, budget)).unwrap();
        session
            .run_with_truth(&table, &mut crowd, Some(&top))
            .unwrap()
    }

    #[test]
    fn t1_on_reduces_uncertainty_and_distance() {
        let r = run(Algorithm::T1On, 15);
        assert!(r.questions_asked() > 0);
        assert!(r.final_uncertainty() <= r.initial_uncertainty + 1e-9);
        assert!(r.final_orderings() <= r.initial_orderings);
        let d0 = r.initial_distance.unwrap();
        let d1 = r.final_distance().unwrap();
        assert!(d1 <= d0 + 1e-9, "distance should not grow: {d0} -> {d1}");
        assert_eq!(r.algorithm, "T1-on");
        assert_eq!(r.final_topk.len(), 3);
    }

    #[test]
    fn all_algorithms_run_within_budget() {
        for alg in [
            Algorithm::Random,
            Algorithm::Naive,
            Algorithm::TbOff,
            Algorithm::COff,
            Algorithm::T1On,
            Algorithm::Incr {
                questions_per_round: 3,
            },
        ] {
            let name = alg.name();
            let r = run(alg, 6);
            assert!(r.questions_asked() <= 6, "{name} overspent");
            assert!(r.final_uncertainty().is_finite());
            assert!(r.total_time >= r.selection_time);
        }
    }

    #[test]
    fn early_termination_when_resolved() {
        // Massive budget: T1-on must stop once a single ordering remains.
        let r = run(Algorithm::T1On, 500);
        assert!(
            r.questions_asked() < 100,
            "asked {} questions",
            r.questions_asked()
        );
        assert!(r.resolved || r.final_orderings() <= 2);
    }

    /// A perfect crowd that reports a NaN accuracy for every answer.
    struct NanAccuracy(CrowdSimulator<PerfectWorker>);

    impl Crowd for NanAccuracy {
        fn ask(&mut self, q: Question) -> Option<ctk_crowd::Answer> {
            self.0.ask(q)
        }
        fn remaining(&self) -> usize {
            self.0.remaining()
        }
        fn answer_accuracy(&self) -> f64 {
            f64::NAN
        }
        fn history(&self) -> &[ctk_crowd::Answer] {
            self.0.history()
        }
    }

    #[test]
    fn nan_accuracy_is_a_driver_error() {
        let table = table();
        for alg in [
            Algorithm::T1On,
            Algorithm::Incr {
                questions_per_round: 3,
            },
        ] {
            let name = alg.name();
            let truth = GroundTruth::sample(&table, 99);
            let mut crowd = NanAccuracy(
                CrowdSimulator::new(truth, PerfectWorker, VotePolicy::Single, 6)
                    .expect("valid vote policy"),
            );
            let result = UrSession::new(config(alg, 6))
                .unwrap()
                .run(&table, &mut crowd);
            assert!(
                matches!(result, Err(CoreError::Driver(_))),
                "{name}: a NaN accuracy must fail the session, got {result:?}"
            );
        }
    }

    #[test]
    fn incr_validates_round_size() {
        assert!(UrSession::new(config(
            Algorithm::Incr {
                questions_per_round: 0
            },
            5
        ))
        .is_err());
        assert!(UrSession::new(config(Algorithm::T1On, 5)).is_ok());
    }

    #[test]
    fn k_larger_than_table_rejected() {
        let mut cfg = config(Algorithm::T1On, 5);
        cfg.k = 100;
        let session = UrSession::new(cfg).unwrap();
        let table = table();
        let truth = GroundTruth::sample(&table, 1);
        let mut crowd = CrowdSimulator::new(truth, PerfectWorker, VotePolicy::Single, 5)
            .expect("valid vote policy");
        assert!(matches!(
            session.run(&table, &mut crowd),
            Err(CoreError::InvalidConfig(_))
        ));
    }

    #[test]
    fn noisy_crowd_uses_bayes_updates() {
        use ctk_crowd::NoisyWorker;
        let table = table();
        let truth = GroundTruth::sample(&table, 3);
        let top = truth.top_k(3);
        let mut crowd =
            CrowdSimulator::new(truth, NoisyWorker::new(0.8, 5), VotePolicy::Single, 10)
                .expect("valid vote policy");
        let session = UrSession::new(config(Algorithm::T1On, 10)).unwrap();
        let r = session
            .run_with_truth(&table, &mut crowd, Some(&top))
            .unwrap();
        // With noisy answers, orderings are reweighted, not pruned: the
        // ordering count after the first step must equal the initial count.
        assert!(!r.steps.is_empty());
        assert_eq!(r.steps[0].orderings, r.initial_orderings);
    }

    #[test]
    fn report_without_truth_has_no_distances() {
        let table = table();
        let truth = GroundTruth::sample(&table, 1);
        let mut crowd = CrowdSimulator::new(truth, PerfectWorker, VotePolicy::Single, 5)
            .expect("valid vote policy");
        let session = UrSession::new(config(Algorithm::Naive, 5)).unwrap();
        let r = session.run(&table, &mut crowd).unwrap();
        assert!(r.initial_distance.is_none());
        assert!(r.steps.iter().all(|s| s.distance_to_truth.is_none()));
    }

    #[test]
    fn same_outcome_detects_divergence() {
        let a = run(Algorithm::T1On, 6);
        let b = run(Algorithm::T1On, 6);
        assert!(a.same_outcome(&b), "identical runs must match");
        let c = run(Algorithm::TbOff, 6);
        assert!(!a.same_outcome(&c), "different strategies must not match");
        let mut d = a.clone();
        d.resolved = !d.resolved;
        assert!(!a.same_outcome(&d));
    }

    #[test]
    fn uncertainty_target_stops_early() {
        let table = table();
        let truth = GroundTruth::sample(&table, 99);
        let mut crowd = CrowdSimulator::new(truth, PerfectWorker, VotePolicy::Single, 50)
            .expect("valid vote policy");
        let mut cfg = config(Algorithm::T1On, 50);
        // A generous target: reached after a few questions.
        cfg.uncertainty_target = Some(1.0);
        let with_target = UrSession::new(cfg)
            .unwrap()
            .run(&table, &mut crowd)
            .unwrap();
        let without = run(Algorithm::T1On, 50);
        assert!(with_target.questions_asked() <= without.questions_asked());
        assert!(
            with_target.final_uncertainty() <= 1.0
                || with_target.questions_asked() == without.questions_asked()
        );
    }
}

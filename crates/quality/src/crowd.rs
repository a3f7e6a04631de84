//! [`QualityCrowd`]: a simulated crowd backend with per-worker quality
//! tracking and accuracy-weighted fusion.
//!
//! This is the quality-layer counterpart of
//! [`ctk_crowd::CrowdSimulator`]: same [`Crowd`] interface, same ground
//! truth and budget ledger, but the roster is heterogeneous — each
//! worker has a true (hidden) accuracy, a per-vote price, and an
//! optional activity window — and every answer is fused from attributed
//! votes using the *estimated* accuracies, never the hidden ones. In
//! [`Grading::Nominal`] + [`Calibration::Frozen`] mode it degrades
//! exactly to the plain majority simulator (bit-identical answers and
//! grades over the same seeds), which is how the
//! `majority_compat_replays_the_plain_pool_session` integration test
//! keeps the legacy baseline honest.

use crate::error::QualityError;
use crate::estimator::{dawid_skene, PanelRecord, VoteLog};
use crate::fusion::fuse_weighted;
use crate::gates::{fleiss_kappa, GateConfig};
use crate::posterior::BetaPosterior;
use ctk_crowd::aggregate::majority_vote;
use ctk_crowd::{
    Answer, AnswerModel, BudgetLedger, CostModel, Crowd, GroundTruth, NoisyWorker, Question, Vote,
    VotePolicy, WorkerId,
};
use std::collections::BTreeMap;

/// One roster member's declared properties.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkerSpec {
    accuracy: f64,
    cost: usize,
    window: Option<(u64, u64)>,
}

impl WorkerSpec {
    /// A unit-cost, always-active worker with the given true accuracy.
    pub fn new(accuracy: f64) -> Self {
        Self {
            accuracy,
            cost: 1,
            window: None,
        }
    }

    /// Sets the per-vote price (experts cost more).
    pub fn with_cost(mut self, cost: usize) -> Self {
        self.cost = cost;
        self
    }

    /// Restricts the worker to the activity window `[join, leave)`,
    /// measured in pool questions asked — the churn model.
    pub fn with_window(mut self, join: u64, leave: u64) -> Self {
        self.window = Some((join, leave));
        self
    }

    /// The true accuracy (hidden from the estimation layer).
    pub fn accuracy(&self) -> f64 {
        self.accuracy
    }

    /// The per-vote price.
    pub fn cost(&self) -> usize {
        self.cost
    }

    /// The activity window `[join, leave)`, if the worker churns.
    pub fn window(&self) -> Option<(u64, u64)> {
        self.window
    }

    fn validate(&self) -> Result<(), QualityError> {
        if !(self.accuracy.is_finite() && (0.0..=1.0).contains(&self.accuracy)) {
            return Err(QualityError::InvalidAccuracy);
        }
        if self.cost == 0 {
            return Err(QualityError::InvalidCost);
        }
        if let Some((join, leave)) = self.window {
            if join >= leave {
                return Err(QualityError::InvalidWindow);
            }
        }
        Ok(())
    }
}

/// How worker accuracies are maintained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Calibration {
    /// Posteriors never move (beyond explicit gold calibration): the
    /// compatibility mode that keeps a uniform pool bit-identical to the
    /// plain majority path.
    Frozen,
    /// Online Beta updates against the fused consensus, with a full
    /// Dawid–Skene EM re-estimation every `em_every` questions
    /// (0 disables the EM pass, keeping only the online updates).
    Online {
        /// Questions between EM passes (0 = never).
        em_every: u64,
    },
}

/// How the per-answer accuracy handed to the Bayesian update is graded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Grading {
    /// Legacy grading: the vote-policy effective accuracy of the roster's
    /// mean declared accuracy — exactly what `CrowdSimulator` reports
    /// for a `WorkerPool` under the same panel size.
    Nominal,
    /// The fused log-odds posterior σ(|score|) — per-answer, weighted by
    /// the estimated accuracy of whoever actually voted.
    Posterior,
}

/// Full quality-layer configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct QualityConfig {
    /// Votes per question (odd; 1 or >= 3).
    pub panel: usize,
    /// Quarantine policy.
    pub gates: GateConfig,
    /// Accuracy maintenance mode.
    pub calibration: Calibration,
    /// Per-answer accuracy grading mode.
    pub grading: Grading,
    /// Beta prior pseudo-counts applied to every worker.
    pub prior: (f64, f64),
    /// EM iterations per re-estimation pass.
    pub em_iters: usize,
    /// Vote-log capacity (questions remembered for EM and kappa).
    pub log_capacity: usize,
}

impl QualityConfig {
    /// The full quality stack: online calibration with EM every 32
    /// questions, posterior grading, the default spammer gate.
    pub fn weighted(panel: usize) -> Self {
        Self {
            panel,
            gates: GateConfig::spammer_default(),
            calibration: Calibration::Online { em_every: 32 },
            grading: Grading::Posterior,
            prior: (3.0, 1.0),
            em_iters: 8,
            log_capacity: 512,
        }
    }

    /// The compatibility mode: frozen posteriors, nominal grading, gates
    /// off — emulates `CrowdSimulator<WorkerPool>` bit for bit.
    pub fn majority_compat(panel: usize) -> Self {
        Self {
            panel,
            gates: GateConfig::disabled(),
            calibration: Calibration::Frozen,
            grading: Grading::Nominal,
            prior: (3.0, 1.0),
            em_iters: 0,
            log_capacity: 512,
        }
    }
}

#[derive(Debug, Clone)]
struct RosterEntry {
    model: NoisyWorker,
    cost: usize,
    window: Option<(u64, u64)>,
    posterior: BetaPosterior,
    graded: u64,
    quarantined_until: Option<u64>,
}

impl RosterEntry {
    fn active_at(&self, tick: u64) -> bool {
        match self.window {
            None => true,
            Some((join, leave)) => tick >= join && tick < leave,
        }
    }
}

/// The quality-aware crowd backend.
#[derive(Debug, Clone)]
pub struct QualityCrowd {
    truth: GroundTruth,
    roster: Vec<RosterEntry>,
    policy: VotePolicy,
    config: QualityConfig,
    ledger: BudgetLedger,
    log: VoteLog,
    cursor: usize,
    asked: u64,
    last_accuracy: f64,
    nominal_mean: f64,
    min_panel_cost: usize,
}

impl QualityCrowd {
    /// Creates a quality crowd over `specs`, with a **vote-denominated**
    /// budget (a panel answer costs the sum of its members' per-vote
    /// prices). Worker RNGs are seeded `seed.wrapping_add(index)`, the
    /// same scheme `WorkerPool::new` uses, so equal-spec rosters replay
    /// the same vote streams.
    pub fn new(
        truth: GroundTruth,
        specs: &[WorkerSpec],
        config: QualityConfig,
        budget: usize,
        seed: u64,
    ) -> Result<Self, QualityError> {
        if specs.is_empty() {
            return Err(QualityError::EmptyRoster);
        }
        let policy = match config.panel {
            1 => VotePolicy::Single,
            n if n >= 3 && n % 2 == 1 => VotePolicy::Majority(n),
            n => return Err(QualityError::InvalidPanel { size: n }),
        };
        let prior = BetaPosterior::new(config.prior.0, config.prior.1)?;
        let mut roster = Vec::with_capacity(specs.len());
        for (i, spec) in specs.iter().enumerate() {
            spec.validate()?;
            roster.push(RosterEntry {
                model: NoisyWorker::adversarial(spec.accuracy, seed.wrapping_add(i as u64)),
                cost: spec.cost,
                window: spec.window,
                posterior: prior.clone(),
                graded: 0,
                quarantined_until: None,
            });
        }
        let log = VoteLog::new(config.log_capacity)?;
        // Same fold order as `WorkerPool::accuracy()`: roster order sum,
        // then one divide — keeps nominal grading bit-identical to the
        // majority path.
        let nominal_mean = specs.iter().map(|s| s.accuracy).sum::<f64>() / specs.len() as f64;
        let mut costs: Vec<usize> = specs.iter().map(|s| s.cost).collect();
        costs.sort_unstable();
        let min_panel_cost: usize = (0..config.panel).map(|k| costs[k % costs.len()]).sum();
        let last_accuracy = policy.effective_accuracy(nominal_mean);
        Ok(Self {
            truth,
            roster,
            policy,
            config,
            ledger: BudgetLedger::with_cost_model(budget, CostModel::PerVote),
            log,
            cursor: 0,
            asked: 0,
            last_accuracy,
            nominal_mean,
            min_panel_cost,
        })
    }

    /// The hidden ground truth (evaluation only).
    pub fn ground_truth(&self) -> &GroundTruth {
        &self.truth
    }

    /// Budget ledger snapshot.
    pub fn ledger(&self) -> &BudgetLedger {
        &self.ledger
    }

    /// Questions asked so far.
    pub fn asked(&self) -> u64 {
        self.asked
    }

    /// The estimated accuracy (posterior mean) of a worker.
    pub fn posterior_mean(&self, worker: WorkerId) -> Option<f64> {
        self.roster
            .get(worker.0 as usize)
            .map(|e| e.posterior.mean())
    }

    /// Workers currently quarantined.
    pub fn quarantined(&self) -> usize {
        self.roster
            .iter()
            .filter(|e| e.quarantined_until.is_some())
            .count()
    }

    /// Fleiss' kappa over the logged vote window (`None` until multi-vote
    /// panels exist).
    pub fn kappa(&self) -> Option<f64> {
        fleiss_kappa(&self.log.panel_counts())
    }

    /// Runs a gold-question qualification round: every roster worker
    /// answers each question once and is graded against ground truth —
    /// the platform knows gold answers by construction, so this is
    /// legitimate supervised calibration, not an oracle leak. Gold tasks
    /// are financed outside the query budget (platform qualification
    /// rounds are priced separately from paid work); the ledger is not
    /// charged. Returns the number of graded votes.
    pub fn calibrate_gold(&mut self, questions: &[Question]) -> u64 {
        let mut graded = 0;
        for q in questions {
            let truth = self.truth.true_answer(q);
            let gap = (self.truth.scores()[q.i as usize] - self.truth.scores()[q.j as usize]).abs();
            for entry in self.roster.iter_mut() {
                let yes = entry.model.answer_with_gap(q, truth, gap);
                entry.posterior.observe(yes == truth);
                entry.graded += 1;
                graded += 1;
            }
        }
        graded
    }

    /// Re-admits quarantined workers whose cooldown expired, resetting
    /// their posterior so they are re-judged fresh.
    fn readmit_expired(&mut self, tick: u64) {
        for entry in self.roster.iter_mut() {
            if let Some(until) = entry.quarantined_until {
                if tick >= until {
                    entry.quarantined_until = None;
                    entry.posterior.reset();
                    entry.graded = 0;
                }
            }
        }
    }

    /// The candidate set for a panel: active un-quarantined workers,
    /// falling back to active-but-quarantined (an all-quarantined pool
    /// must still answer — degraded service beats none), then to the
    /// whole roster (nobody active at this tick).
    fn candidates(&self, tick: u64) -> Vec<usize> {
        let active_free: Vec<usize> = (0..self.roster.len())
            .filter(|&i| {
                self.roster[i].active_at(tick) && self.roster[i].quarantined_until.is_none()
            })
            .collect();
        if !active_free.is_empty() {
            return active_free;
        }
        let active: Vec<usize> = (0..self.roster.len())
            .filter(|&i| self.roster[i].active_at(tick))
            .collect();
        if !active.is_empty() {
            return active;
        }
        (0..self.roster.len()).collect()
    }

    /// Selects the panel (indices into the roster, `panel` long, repeats
    /// allowed when candidates are scarce) and the next cursor value, by
    /// round-robin rotation: with a full pool this visits workers in
    /// exactly `WorkerPool`'s cursor order. Pure: commits nothing, so an
    /// unaffordable ask leaves no trace.
    fn select_panel(&self, pool: &[usize]) -> (Vec<usize>, usize) {
        let n = self.policy.votes_per_question();
        let picks = (0..n)
            .map(|k| pool[(self.cursor + k) % pool.len()])
            .collect();
        (picks, (self.cursor + n) % pool.len())
    }

    /// Fuses the panel's votes into a verdict and a per-answer accuracy,
    /// per the grading mode.
    fn fuse(&self, votes: &[Vote]) -> (bool, f64) {
        match self.config.grading {
            Grading::Nominal => {
                let bools: Vec<bool> = votes.iter().map(|v| v.yes).collect();
                (
                    majority_vote(&bools),
                    self.policy.effective_accuracy(self.nominal_mean),
                )
            }
            Grading::Posterior => {
                let weighted: Vec<(bool, f64)> = votes
                    .iter()
                    .map(|v| (v.yes, self.roster[v.worker.0 as usize].posterior.log_odds()))
                    .collect();
                match fuse_weighted(&weighted) {
                    Some(f) => (f.yes, f.posterior),
                    // Unreachable (panels are non-empty), but degrade to
                    // an uninformative coin call rather than panic.
                    None => (false, 0.5),
                }
            }
        }
    }

    /// Post-answer bookkeeping: online posterior updates, quarantine
    /// checks, periodic EM re-estimation.
    fn update_estimates(&mut self, votes: &[Vote], fused_yes: bool, tick: u64) {
        self.log.push(PanelRecord {
            votes: votes.to_vec(),
            fused_yes,
        });
        let em_every = match self.config.calibration {
            Calibration::Frozen => return,
            Calibration::Online { em_every } => em_every,
        };
        for v in votes {
            let entry = &mut self.roster[v.worker.0 as usize];
            entry.posterior.observe(v.yes == fused_yes);
            entry.graded += 1;
        }
        for v in votes {
            let entry = &mut self.roster[v.worker.0 as usize];
            if entry.quarantined_until.is_none()
                && self
                    .config
                    .gates
                    .should_quarantine(entry.graded, entry.posterior.mean())
            {
                entry.quarantined_until = Some(tick + 1 + self.config.gates.cooldown);
            }
        }
        if em_every > 0 && (self.asked + 1).is_multiple_of(em_every) {
            let init: BTreeMap<WorkerId, f64> = self
                .roster
                .iter()
                .enumerate()
                .map(|(i, e)| (WorkerId(i as u32), e.posterior.mean()))
                .collect();
            let evidence = dawid_skene(&self.log, &init, self.config.prior, self.config.em_iters);
            for (w, e) in &evidence {
                if let Some(entry) = self.roster.get_mut(w.0 as usize) {
                    entry.posterior.set_evidence(e.correct, e.wrong());
                }
            }
        }
    }
}

impl Crowd for QualityCrowd {
    fn ask(&mut self, q: Question) -> Option<Answer> {
        let tick = self.asked;
        self.readmit_expired(tick);
        let pool = self.candidates(tick);
        let (panel, next_cursor) = self.select_panel(&pool);
        let cost: usize = panel.iter().map(|&i| self.roster[i].cost).sum();
        if !self.ledger.can_afford(cost) {
            // Refused outright — no cursor movement, no RNG draws.
            return None;
        }
        self.cursor = next_cursor;
        let truth = self.truth.true_answer(&q);
        let gap = (self.truth.scores()[q.i as usize] - self.truth.scores()[q.j as usize]).abs();
        let votes: Vec<Vote> = panel
            .iter()
            .map(|&i| Vote {
                worker: WorkerId(i as u32),
                yes: self.roster[i].model.answer_with_gap(&q, truth, gap),
            })
            .collect();
        let (yes, accuracy) = self.fuse(&votes);
        self.update_estimates(&votes, yes, tick);
        let answer = Answer { question: q, yes };
        let recorded = self.ledger.record(answer, cost);
        debug_assert!(recorded, "affordability was checked above");
        self.asked += 1;
        self.last_accuracy = accuracy;
        Some(answer)
    }

    fn remaining(&self) -> usize {
        self.ledger.questions_affordable(self.min_panel_cost)
    }

    fn answer_accuracy(&self) -> f64 {
        self.last_accuracy
    }

    fn history(&self) -> &[Answer] {
        self.ledger.history()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctk_crowd::{CrowdSimulator, WorkerPool};

    fn truth() -> GroundTruth {
        GroundTruth::from_scores(vec![0.1, 0.4, 0.7, 0.95])
    }

    fn specs(accs: &[f64]) -> Vec<WorkerSpec> {
        accs.iter().map(|&a| WorkerSpec::new(a)).collect()
    }

    #[test]
    fn constructor_validation() {
        let cfg = QualityConfig::weighted(3);
        let err = |specs: &[WorkerSpec], cfg: QualityConfig| {
            QualityCrowd::new(truth(), specs, cfg, 100, 1)
                .map(|_| ())
                .unwrap_err()
        };
        assert_eq!(err(&[], cfg.clone()), QualityError::EmptyRoster);
        assert_eq!(
            err(&specs(&[1.5]), cfg.clone()),
            QualityError::InvalidAccuracy
        );
        assert_eq!(
            err(&[WorkerSpec::new(0.8).with_cost(0)], cfg.clone()),
            QualityError::InvalidCost
        );
        assert_eq!(
            err(&[WorkerSpec::new(0.8).with_window(5, 5)], cfg.clone()),
            QualityError::InvalidWindow
        );
        let mut even = cfg.clone();
        even.panel = 4;
        assert_eq!(
            err(&specs(&[0.8]), even),
            QualityError::InvalidPanel { size: 4 }
        );
        let mut zero = cfg.clone();
        zero.panel = 0;
        assert_eq!(
            err(&specs(&[0.8]), zero),
            QualityError::InvalidPanel { size: 0 }
        );
        let mut bad_prior = cfg;
        bad_prior.prior = (0.0, 1.0);
        assert_eq!(err(&specs(&[0.8]), bad_prior), QualityError::InvalidPrior);
    }

    #[test]
    fn majority_compat_is_bit_identical_to_worker_pool() {
        // Satellite edge case: a uniform-accuracy pool in compat mode
        // must replay the plain majority simulator exactly — verdicts,
        // per-answer accuracies, budget trajectory.
        let accs = [0.85, 0.7, 0.9, 0.65, 0.8];
        let seed: u64 = 42;
        let budget = 60;
        let pool = WorkerPool::from_workers(
            accs.iter()
                .enumerate()
                .map(|(i, &a)| NoisyWorker::adversarial(a, seed.wrapping_add(i as u64)))
                .collect(),
        )
        .expect("non-empty");
        let mut legacy = CrowdSimulator::new(truth(), pool, VotePolicy::Majority(3), budget)
            .expect("valid policy");
        let mut quality = QualityCrowd::new(
            truth(),
            &specs(&accs),
            QualityConfig::majority_compat(3),
            budget,
            seed,
        )
        .expect("valid config");
        let questions: Vec<Question> = (0..4u32)
            .flat_map(|i| {
                (0..4u32)
                    .filter(move |&j| i != j)
                    .map(move |j| Question::new(i, j))
            })
            .collect();
        for q in questions.iter().cycle().take(25) {
            let a = legacy.ask(*q);
            let b = quality.ask(*q);
            match (a, b) {
                (Some(x), Some(y)) => {
                    assert_eq!(x, y, "verdicts diverged at {q:?}");
                    assert_eq!(
                        legacy.answer_accuracy().to_bits(),
                        quality.answer_accuracy().to_bits(),
                        "grades diverged at {q:?}"
                    );
                }
                (None, None) => {}
                (a, b) => panic!("affordability diverged: {a:?} vs {b:?}"),
            }
            assert_eq!(legacy.remaining(), quality.remaining());
        }
        assert_eq!(legacy.history(), quality.history());
    }

    #[test]
    fn weighted_fusion_outvotes_spammers_once_calibrated() {
        // 3 experts + 2 systematic liars. After gold calibration the
        // liars carry negative weight, so a panel they dominate by count
        // still fuses to the right answer.
        let accs = [0.95, 0.95, 0.95, 0.1, 0.1];
        let mut crowd = QualityCrowd::new(
            truth(),
            &specs(&accs),
            QualityConfig::weighted(5),
            10_000,
            7,
        )
        .expect("valid config");
        let gold: Vec<Question> = (0..4u32)
            .flat_map(|i| {
                (0..4u32)
                    .filter(move |&j| i != j)
                    .map(move |j| Question::new(i, j))
            })
            .collect();
        let graded = crowd.calibrate_gold(&gold);
        assert_eq!(graded, 60, "5 workers x 12 gold questions");
        assert!(crowd.posterior_mean(WorkerId(0)).unwrap() > 0.8);
        assert!(crowd.posterior_mean(WorkerId(3)).unwrap() < 0.5);
        let mut correct = 0;
        let mut total = 0;
        for _ in 0..40 {
            for (i, j) in [(3u32, 0u32), (2, 1), (1, 0), (3, 2)] {
                let q = Question::new(i, j);
                let want = crowd.ground_truth().true_answer(&q);
                let a = crowd.ask(q).expect("budget ample");
                total += 1;
                if a.yes == want {
                    correct += 1;
                }
                assert!(crowd.answer_accuracy() >= 0.5 && crowd.answer_accuracy() <= 1.0);
            }
        }
        let rate = correct as f64 / total as f64;
        assert!(rate > 0.9, "fused accuracy {rate}");
    }

    #[test]
    fn spammers_get_quarantined_and_readmitted() {
        // One spammer among four honest workers, panel 5: every question
        // grades everyone against a consensus the honest bloc controls,
        // so the spammer's posterior collapses and the gate fires.
        let accs = [0.9, 0.9, 0.9, 0.9, 0.5];
        let mut cfg = QualityConfig::weighted(5);
        cfg.gates = GateConfig::new(10, 0.62, 5).expect("valid gate");
        cfg.calibration = Calibration::Online { em_every: 0 };
        let mut crowd =
            QualityCrowd::new(truth(), &specs(&accs), cfg, 100_000, 3).expect("valid config");
        let mut quarantined_at = None;
        for n in 0..60u64 {
            let q = Question::new((n % 3) as u32 + 1, (n % 3) as u32);
            crowd.ask(q).expect("budget ample");
            if crowd.quarantined() > 0 && quarantined_at.is_none() {
                quarantined_at = Some(n);
            }
        }
        let at = quarantined_at.expect("the spammer must get quarantined");
        // Cooldown is 5 questions: by the end of the loop the spammer has
        // been re-admitted (and possibly re-quarantined) at least once —
        // re-admission resets the posterior to the prior.
        assert!(at + 6 < 60, "leave room to observe re-admission");
        // Honest workers were never gated.
        for w in 0..4u32 {
            assert!(crowd.posterior_mean(WorkerId(w)).unwrap() > 0.62);
        }
    }

    #[test]
    fn all_quarantined_pool_still_answers() {
        // Satellite edge case: every worker is a spammer; once the gate
        // quarantines them all, the fallback panel keeps answering
        // instead of deadlocking the session. The floor sits above 0.75
        // because an all-spammer panel agrees with its own consensus 3/4
        // of the time (each coin-flipper is in the majority of a 3-panel
        // with probability 3/4) — self-consensus grading inflates
        // spammers, which is exactly why the EM pass exists.
        let accs = [0.5, 0.5, 0.5];
        let mut cfg = QualityConfig::weighted(3);
        cfg.gates = GateConfig::new(6, 0.85, 1_000_000).expect("valid gate");
        cfg.calibration = Calibration::Online { em_every: 0 };
        let mut crowd =
            QualityCrowd::new(truth(), &specs(&accs), cfg, 100_000, 11).expect("valid config");
        let mut served = 0;
        for n in 0..200u64 {
            let q = Question::new((n % 3) as u32 + 1, (n % 3) as u32);
            if crowd.ask(q).is_some() {
                served += 1;
            }
        }
        assert_eq!(served, 200, "every ask is served");
        assert_eq!(crowd.quarantined(), 3, "the whole roster is gated");
    }

    #[test]
    fn churned_workers_sit_out_their_window() {
        // Worker 1 only active for ticks [0, 5); afterwards worker 0
        // serves everything (panel 1, Any = round-robin over actives).
        let specs = vec![WorkerSpec::new(1.0), WorkerSpec::new(0.0).with_window(0, 5)];
        let mut cfg = QualityConfig::weighted(1);
        cfg.calibration = Calibration::Frozen;
        cfg.grading = Grading::Posterior;
        let mut crowd = QualityCrowd::new(truth(), &specs, cfg, 1_000, 9).expect("valid config");
        // First 5 ticks alternate including the always-wrong worker.
        let q = Question::new(1, 0);
        let early: Vec<bool> = (0..5).map(|_| crowd.ask(q).expect("served").yes).collect();
        assert!(early.contains(&false), "the liar answered early: {early:?}");
        // After the window closes only the perfect worker remains.
        for _ in 0..10 {
            assert!(crowd.ask(q).expect("served").yes);
        }
    }

    #[test]
    fn unaffordable_ask_leaves_no_trace() {
        let mut crowd = QualityCrowd::new(
            truth(),
            &specs(&[0.9, 0.9, 0.9]),
            QualityConfig::weighted(3),
            2,
            1,
        )
        .expect("valid config");
        assert_eq!(crowd.remaining(), 0, "2 votes cannot buy a 3-panel");
        assert!(crowd.ask(Question::new(1, 0)).is_none());
        assert!(crowd.history().is_empty());
        assert_eq!(crowd.asked(), 0);
    }

    #[test]
    fn kappa_surfaces_panel_agreement() {
        let mut reliable = QualityCrowd::new(
            truth(),
            &specs(&[0.97, 0.97, 0.97]),
            QualityConfig::weighted(3),
            100_000,
            13,
        )
        .expect("valid config");
        let mut spammy = QualityCrowd::new(
            truth(),
            &specs(&[0.5, 0.5, 0.5]),
            QualityConfig::weighted(3),
            100_000,
            13,
        )
        .expect("valid config");
        // Alternate orientations so the true answers are half yes, half
        // no: Fleiss' kappa degenerates when one category dominates.
        for n in 0..300u64 {
            let (i, j) = ((n % 3) as u32 + 1, (n % 3) as u32);
            let q = if n % 2 == 0 {
                Question::new(i, j)
            } else {
                Question::new(j, i)
            };
            reliable.ask(q).expect("served");
            spammy.ask(q).expect("served");
        }
        let k_rel = reliable.kappa().expect("panels logged");
        let k_spam = spammy.kappa().expect("panels logged");
        assert!(k_rel > 0.7, "reliable kappa {k_rel}");
        assert!(k_spam < 0.2, "spammer kappa {k_spam}");
    }

    #[test]
    fn em_pass_separates_workers_without_gold() {
        // No gold questions: the EM pass alone should rate the honest
        // bloc above the systematic liar.
        let accs = [0.9, 0.9, 0.9, 0.15, 0.9];
        let mut crowd = QualityCrowd::new(
            truth(),
            &specs(&accs),
            QualityConfig::weighted(5),
            100_000,
            21,
        )
        .expect("valid config");
        for n in 0..64u64 {
            let q = Question::new((n % 3) as u32 + 1, (n % 3) as u32);
            crowd.ask(q).expect("served");
        }
        let liar = crowd.posterior_mean(WorkerId(3)).unwrap();
        let honest = crowd.posterior_mean(WorkerId(0)).unwrap();
        assert!(
            honest > liar + 0.2,
            "EM separation: honest {honest} vs liar {liar}"
        );
    }
}

//! [`QualityCrowd`]: a simulated crowd backend with per-worker quality
//! tracking and accuracy-weighted fusion.
//!
//! This is the quality-layer counterpart of
//! [`ctk_crowd::CrowdSimulator`]: same [`Crowd`] interface, same ground
//! truth and budget ledger, but the roster is heterogeneous — each
//! worker has a true (hidden) accuracy — and every answer is fused from
//! attributed votes using the *estimated* accuracies, never the hidden
//! ones. Estimates move online against the fused consensus and are
//! re-estimated jointly by a Dawid–Skene EM pass every `EM_EVERY`
//! questions. The plain-majority baseline is
//! `CrowdSimulator<WorkerPool>` under `VotePolicy::Majority`.

use crate::error::QualityError;
use crate::estimator::{dawid_skene, PanelRecord, VoteLog};
use crate::fusion::fuse_weighted;
use crate::gates::GateConfig;
use crate::posterior::{BetaPosterior, PRIOR};
use ctk_crowd::{
    Answer, AnswerModel, BudgetLedger, Crowd, GroundTruth, NoisyWorker, Question, Vote, VotePolicy,
    WorkerId,
};
use std::collections::BTreeMap;

/// Questions between Dawid–Skene EM passes.
const EM_EVERY: u64 = 32;

/// EM iterations per pass.
const EM_ITERS: usize = 8;

/// Quality-layer configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct QualityConfig {
    /// Votes per question (odd; 1 or >= 3).
    pub panel: usize,
    /// Quarantine policy.
    pub gates: GateConfig,
}

impl QualityConfig {
    /// The quality stack over `panel`-vote panels with the default
    /// spammer gate.
    pub fn weighted(panel: usize) -> Self {
        Self {
            panel,
            gates: GateConfig::spammer_default(),
        }
    }
}

#[derive(Debug, Clone)]
struct RosterEntry {
    model: NoisyWorker,
    posterior: BetaPosterior,
    graded: u64,
    quarantined_until: Option<u64>,
}

/// The quality-aware crowd backend.
#[derive(Debug, Clone)]
pub struct QualityCrowd {
    truth: GroundTruth,
    roster: Vec<RosterEntry>,
    policy: VotePolicy,
    gates: GateConfig,
    ledger: BudgetLedger,
    log: VoteLog,
    cursor: usize,
    asked: u64,
    last_accuracy: f64,
    /// Questions between EM passes (0 = never): `EM_EVERY` outside
    /// this crate's tests.
    em_every: u64,
}

impl QualityCrowd {
    /// Creates a quality crowd over workers with the given true
    /// `accuracies`, with a **vote-denominated** budget (a panel answer
    /// costs one unit per vote). Worker RNGs are seeded
    /// `seed.wrapping_add(index)`, the same scheme `WorkerPool::new`
    /// uses, so equal rosters replay the same vote streams.
    pub fn new(
        truth: GroundTruth,
        accuracies: &[f64],
        config: QualityConfig,
        budget: usize,
        seed: u64,
    ) -> Result<Self, QualityError> {
        if accuracies.is_empty() {
            return Err(QualityError::EmptyRoster);
        }
        let policy = match config.panel {
            1 => VotePolicy::Single,
            n if n >= 3 && n % 2 == 1 => VotePolicy::Majority(n),
            n => return Err(QualityError::InvalidPanel { size: n }),
        };
        let mut roster = Vec::with_capacity(accuracies.len());
        for (i, &accuracy) in accuracies.iter().enumerate() {
            if !(accuracy.is_finite() && (0.0..=1.0).contains(&accuracy)) {
                return Err(QualityError::InvalidAccuracy);
            }
            roster.push(RosterEntry {
                model: NoisyWorker::adversarial(accuracy, seed.wrapping_add(i as u64)),
                posterior: BetaPosterior::nominal(),
                graded: 0,
                quarantined_until: None,
            });
        }
        // Before the first answer, grade like a plain pool of the same
        // roster: the vote-policy accuracy of the mean true accuracy.
        let nominal_mean = accuracies.iter().sum::<f64>() / accuracies.len() as f64;
        Ok(Self {
            truth,
            roster,
            policy,
            gates: config.gates,
            ledger: BudgetLedger::new(budget),
            log: VoteLog::default(),
            cursor: 0,
            asked: 0,
            last_accuracy: policy.effective_accuracy(nominal_mean),
            em_every: EM_EVERY,
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

    /// Runs a gold-question qualification round: every roster worker
    /// answers each question once and is graded against ground truth —
    /// the platform knows gold answers by construction, so this is
    /// legitimate supervised calibration, not an oracle leak. Gold tasks
    /// are financed outside the query budget (platform qualification
    /// rounds are priced separately from paid work); the ledger is not
    /// charged. Returns the number of graded votes.
    ///
    /// Fails with [`QualityError::UnknownTuple`], naming the first
    /// offending question, when a question names a tuple the ground
    /// truth does not hold; the whole set is checked first, so a rejected
    /// set grades nothing and draws no vote.
    pub fn calibrate_gold(&mut self, questions: &[Question]) -> Result<u64, QualityError> {
        let judged = questions
            .iter()
            .map(|q| {
                self.truth.judge(q).ok_or(QualityError::UnknownTuple {
                    question: *q,
                    tuples: self.truth.scores().len(),
                })
            })
            .collect::<Result<Vec<_>, _>>()?;
        let mut graded = 0;
        for (q, (truth, gap)) in questions.iter().zip(judged) {
            for entry in self.roster.iter_mut() {
                let yes = entry.model.answer_with_gap(q, truth, gap);
                entry.posterior.observe(yes == truth);
                entry.graded += 1;
                graded += 1;
            }
        }
        Ok(graded)
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

    /// The candidate set for a panel: un-quarantined workers, falling
    /// back to the whole roster when everyone is quarantined (an
    /// all-quarantined pool must still answer — degraded service beats
    /// none).
    fn candidates(&self) -> Vec<usize> {
        let free: Vec<usize> = (0..self.roster.len())
            .filter(|&i| self.roster[i].quarantined_until.is_none())
            .collect();
        if free.is_empty() {
            (0..self.roster.len()).collect()
        } else {
            free
        }
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

    /// Fuses the panel's votes by estimated-accuracy log-odds into a
    /// verdict and its fused posterior σ(|score|), the per-answer
    /// accuracy.
    fn fuse(&self, votes: &[Vote]) -> (bool, f64) {
        let weighted: Vec<(bool, f64)> = votes
            .iter()
            .map(|v| (v.yes, self.roster[v.worker.0 as usize].posterior.log_odds()))
            .collect();
        match fuse_weighted(&weighted) {
            Some(f) => (f.yes, f.posterior),
            // Unreachable (panels are non-empty), but degrade to an
            // uninformative coin call rather than panic.
            None => (false, 0.5),
        }
    }

    /// Post-answer bookkeeping: online posterior updates, quarantine
    /// checks, periodic EM re-estimation.
    fn update_estimates(&mut self, votes: &[Vote], fused_yes: bool, tick: u64) {
        self.log.push(PanelRecord {
            votes: votes.to_vec(),
            fused_yes,
        });
        for v in votes {
            let entry = &mut self.roster[v.worker.0 as usize];
            entry.posterior.observe(v.yes == fused_yes);
            entry.graded += 1;
        }
        for v in votes {
            let entry = &mut self.roster[v.worker.0 as usize];
            if entry.quarantined_until.is_none()
                && self
                    .gates
                    .should_quarantine(entry.graded, entry.posterior.mean())
            {
                entry.quarantined_until = Some(tick + 1 + self.gates.cooldown);
            }
        }
        if self.em_every > 0 && (self.asked + 1).is_multiple_of(self.em_every) {
            let init: BTreeMap<WorkerId, f64> = self
                .roster
                .iter()
                .enumerate()
                .map(|(i, e)| (WorkerId(i as u32), e.posterior.mean()))
                .collect();
            let evidence = dawid_skene(&self.log, &init, PRIOR, EM_ITERS);
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
        // A question about a tuple the truth does not hold is refused
        // before anything moves.
        let (truth, gap) = self.truth.judge(&q)?;
        let tick = self.asked;
        self.readmit_expired(tick);
        let pool = self.candidates();
        let (panel, next_cursor) = self.select_panel(&pool);
        let cost = panel.len();
        if !self.ledger.can_afford(cost) {
            // Refused outright — no cursor movement, no RNG draws.
            return None;
        }
        self.cursor = next_cursor;
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
        self.ledger
            .questions_affordable(self.policy.votes_per_question())
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
    use ctk_datagen::{gold_questions, spammer_pool};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn truth() -> GroundTruth {
        GroundTruth::from_scores(vec![0.1, 0.4, 0.7, 0.95])
    }

    #[test]
    fn constructor_validation() {
        let cfg = QualityConfig::weighted(3);
        let err = |accs: &[f64], cfg: QualityConfig| {
            QualityCrowd::new(truth(), accs, cfg, 100, 1)
                .map(|_| ())
                .unwrap_err()
        };
        assert_eq!(err(&[], cfg.clone()), QualityError::EmptyRoster);
        for bad in [1.5, -0.1, f64::NAN] {
            assert_eq!(err(&[0.8, bad], cfg.clone()), QualityError::InvalidAccuracy);
        }
        let mut even = cfg.clone();
        even.panel = 4;
        assert_eq!(err(&[0.8], even), QualityError::InvalidPanel { size: 4 });
        let mut zero = cfg;
        zero.panel = 0;
        assert_eq!(err(&[0.8], zero), QualityError::InvalidPanel { size: 0 });
    }

    #[test]
    fn weighted_fusion_outvotes_spammers_once_calibrated() {
        // 3 experts + 2 systematic liars. After gold calibration the
        // liars carry negative weight, so a panel they dominate by count
        // still fuses to the right answer.
        let accs = [0.95, 0.95, 0.95, 0.1, 0.1];
        let mut crowd = QualityCrowd::new(truth(), &accs, QualityConfig::weighted(5), 10_000, 7)
            .expect("valid config");
        let gold: Vec<Question> = (0..4u32)
            .flat_map(|i| {
                (0..4u32)
                    .filter(move |&j| i != j)
                    .map(move |j| Question::new(i, j))
            })
            .collect();
        let graded = crowd
            .calibrate_gold(&gold)
            .expect("gold names table tuples");
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
        let mut crowd = QualityCrowd::new(truth(), &accs, cfg, 100_000, 3).expect("valid config");
        crowd.em_every = 0;
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
        let mut crowd = QualityCrowd::new(truth(), &accs, cfg, 100_000, 11).expect("valid config");
        crowd.em_every = 0;
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
    fn unaffordable_ask_leaves_no_trace() {
        let mut crowd =
            QualityCrowd::new(truth(), &[0.9, 0.9, 0.9], QualityConfig::weighted(3), 2, 1)
                .expect("valid config");
        assert_eq!(crowd.remaining(), 0, "2 votes cannot buy a 3-panel");
        assert!(crowd.ask(Question::new(1, 0)).is_none());
        assert!(crowd.history().is_empty());
        assert_eq!(crowd.asked(), 0);
    }

    #[test]
    fn em_pass_separates_workers_without_gold() {
        // No gold questions: the EM pass alone should rate the honest
        // bloc above the systematic liar.
        let accs = [0.9, 0.9, 0.9, 0.15, 0.9];
        let mut crowd = QualityCrowd::new(truth(), &accs, QualityConfig::weighted(5), 100_000, 21)
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

    #[test]
    fn calibrate_gold_rejects_unknown_tuples_untouched() {
        let accs = [0.9, 0.6, 0.3];
        let fresh = || {
            QualityCrowd::new(truth(), &accs, QualityConfig::weighted(3), 1_000, 5)
                .expect("valid config")
        };
        let mut crowd = fresh();
        // The valid question comes first: nothing may be graded before
        // the bad one is found.
        let bad = [Question::new(1, 0), Question::new(9, 0)];
        assert_eq!(
            crowd.calibrate_gold(&bad),
            Err(QualityError::UnknownTuple {
                question: Question::new(9, 0),
                tuples: 4,
            })
        );
        assert_eq!(
            crowd.calibrate_gold(&[Question::new(0, 4)]),
            Err(QualityError::UnknownTuple {
                question: Question::new(0, 4),
                tuples: 4,
            })
        );
        // A gold set built for a larger table is rejected too.
        assert!(crowd.calibrate_gold(&gold_questions(5, 1)).is_err());
        for w in 0..3 {
            assert_eq!(crowd.posterior_mean(WorkerId(w)), Some(0.75));
        }
        // No vote was drawn: the next asks replay a fresh crowd's.
        let mut reference = fresh();
        for n in 0..20u32 {
            let q = Question::new(n % 3 + 1, n % 3);
            assert_eq!(crowd.ask(q), reference.ask(q));
            assert_eq!(
                crowd.answer_accuracy().to_bits(),
                reference.answer_accuracy().to_bits()
            );
        }
    }

    #[test]
    fn ask_refuses_unknown_tuples_untouched() {
        let accs = [0.9, 0.6, 0.3];
        let fresh = || {
            QualityCrowd::new(truth(), &accs, QualityConfig::weighted(3), 1_000, 5)
                .expect("valid config")
        };
        let mut crowd = fresh();
        for q in [
            Question::new(9, 0),
            Question::new(0, 4),
            Question::new(4, 5),
        ] {
            assert_eq!(crowd.ask(q), None, "{q:?}");
        }
        assert_eq!(crowd.asked(), 0);
        assert_eq!((crowd.ledger().votes(), crowd.ledger().asked()), (0, 0));
        assert!(crowd.history().is_empty());
        assert_eq!(crowd.remaining(), fresh().remaining());
        // No vote was drawn and the panel cursor did not move: the next
        // asks replay a fresh crowd's.
        let mut reference = fresh();
        for n in 0..20u32 {
            let q = Question::new(n % 3 + 1, n % 3);
            assert_eq!(crowd.ask(q), reference.ask(q));
            assert_eq!(
                crowd.answer_accuracy().to_bits(),
                reference.answer_accuracy().to_bits()
            );
        }
    }

    /// Wrong fused answers over `asks` random questions on the
    /// gold-calibrated roster `spammer_pool(9, 1/3, 7000 + rep)`, panel 3,
    /// with EM every `em_every` questions (0 = never).
    fn wrong_answers(rep: u64, asks: usize, em_every: u64) -> usize {
        let n = 10u32;
        let truth = GroundTruth::from_scores((0..n).map(|i| f64::from(i) / 10.0).collect());
        let accs = spammer_pool(9, 1.0 / 3.0, 7000 + rep);
        let mut crowd = QualityCrowd::new(
            truth.clone(),
            &accs,
            QualityConfig::weighted(3),
            3 * asks,
            0xA5EED ^ rep,
        )
        .expect("valid roster");
        crowd.em_every = em_every;
        crowd
            .calibrate_gold(&gold_questions(n, 1))
            .expect("gold names table tuples");
        let mut rng = StdRng::seed_from_u64(rep);
        let mut wrong = 0;
        for _ in 0..asks {
            let i = rng.gen_range(0..n);
            let j = (i + rng.gen_range(1..n)) % n;
            let q = Question::new(i, j);
            let answer = crowd.ask(q).expect("budget covers every ask");
            if answer.yes != truth.true_answer(&q) {
                wrong += 1;
            }
        }
        wrong
    }

    #[test]
    fn em_pass_earns_its_code_on_a_long_stream() {
        // 336 asks (24 sessions' worth of T1-on at B = 14) fire the EM
        // pass 10 times. In each of three blocks of 8 rosters, the crowd
        // with EM must fuse fewer wrong answers than the same crowd with
        // only the online updates.
        const ASKS: usize = 336;
        for block in 0..3u64 {
            let (mut with_em, mut without) = (0, 0);
            for rep in 8 * block..8 * (block + 1) {
                with_em += wrong_answers(rep, ASKS, EM_EVERY);
                without += wrong_answers(rep, ASKS, 0);
            }
            assert!(
                with_em < without,
                "block {block}: {with_em} wrong fused answers with EM vs {without} without"
            );
        }
    }
}

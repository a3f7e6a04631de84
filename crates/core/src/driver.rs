//! The sans-IO session driver: the ask/update loop of a session as a pure
//! state machine.
//!
//! [`SessionDriver`] owns the belief state (a [`PathSet`] or, for `incr`, a
//! [`WorldModel`]) and the selection strategy, but never talks to a crowd.
//! A caller — [`crate::session::UrSession`] for the classic blocking run,
//! or a scheduler multiplexing many sessions over one crowd backend —
//! drives it through the cycle
//!
//! ```text
//! next_batch(crowd_remaining) -> Vec<Question>   // questions to ask now
//! feed(&answers, accuracy)    -> DriverStatus    // apply crowd answers
//! ...                                            // until Done
//! finish()                    -> UrReport
//! ```
//!
//! The driver reproduces the behaviour of the original monolithic loop
//! exactly: for a given configuration, table, truth and answer stream, the
//! report produced by driving this machine equals the one `UrSession::run`
//! produced before the split (and `UrSession::run` is now implemented on
//! top of it, so the property holds by construction).
//!
//! Batching contract: when no early-stop target is configured, offline
//! strategies emit their whole planned batch and `incr` emits a full
//! round in one `next_batch` call — answers cannot change the question
//! set, so a scheduler may farm the batch out at once. With an
//! `uncertainty_target`, questions are emitted one at a time because the
//! legacy loop re-checks the target between answers before spending more
//! budget.
//!
//! Drivers are `Send` (pinned by a compile-time assertion in the tests):
//! calls on *distinct* drivers touch disjoint state, so a serving layer
//! may split a round's `next_batch`/`feed` work across threads —
//! `ctk-service` does, with bit-identical per-session reports at any
//! thread count.
//!
//! First picks: a session's first selection (T1-on's first question, the
//! whole TB-off/C-off/A*-off plan, `incr`'s first round and its
//! construction depth) is a pure function of its initial belief, its
//! algorithm, its measure and the allowance it plans over. Sessions that
//! start from one stored belief may therefore share a [`FirstPickSlot`]
//! ([`SessionDriver::from_belief`]): the first session to select fills
//! it, and later ones copy the stored pick instead of running the
//! selector. Random and Naive read the session seed and get no slot.

use crate::belief::{Belief, BeliefKey};
use crate::error::{CoreError, Result};
use crate::measures::{MeasureKind, UncertaintyMeasure};
use crate::metrics::expected_distance_to_truth;
use crate::residual::ResidualCtx;
use crate::select::{
    AStarOff, AStarOn, COff, NaiveSelector, OfflineSelector, OnlineSelector, RandomSelector, T1On,
    TbOff,
};
use crate::session::{Algorithm, SessionConfig, StepRecord, UrReport};
use ctk_crowd::{Answer, Question};
use ctk_prob::compare::PairwiseMatrix;
use ctk_prob::{TopKBounds, UncertainTable};
use ctk_rank::RankList;
use ctk_tpo::prune::prune;
use ctk_tpo::update::bayes_update;
use ctk_tpo::{PathSet, PrecisionReport, StopReason, TpoError, WorldModel};
use std::collections::VecDeque;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Accuracy at or above which answers are treated as reliable (hard
/// pruning); below it the Bayesian update is used (§III-C).
pub const RELIABLE_ACCURACY: f64 = 1.0 - 1e-9;

/// Where the driver stands after a `feed`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DriverStatus {
    /// The session wants more questions answered.
    Active,
    /// The session is finished; call [`SessionDriver::finish`].
    Done,
}

/// Belief state + selection strategy of one running session.
enum Mode {
    /// Full-depth tree algorithms (everything except `incr`).
    Tree { ps: PathSet, sel: TreeSel },
    /// The incremental §III-D algorithm on a sampled-worlds belief.
    Incr {
        wm: WorldModel,
        depth: usize,
        n_per_round: usize,
    },
}

enum TreeSel {
    Online(Box<dyn OnlineSelector>),
    /// Offline strategies plan the whole batch once; `planned` flips after
    /// that single selection call.
    Offline {
        planned: bool,
    },
}

/// What a session's first selection left behind: the questions it queued,
/// `incr`'s construction depth after it (0 in tree mode) and whether an
/// offline plan was made.
#[derive(Debug, Clone, PartialEq, Eq)]
struct FirstPick {
    questions: Vec<Question>,
    depth: usize,
    planned: bool,
}

/// The shared first selection of the sessions that start from one initial
/// belief with one algorithm, measure and allowance (see the module
/// docs). Cloning shares the slot. It holds one pick at most, written
/// once by whichever session selects first; since the pick is a pure
/// function of the slot's inputs, which session writes it cannot change
/// any report.
#[derive(Debug, Clone)]
pub struct FirstPickSlot {
    algorithm: Algorithm,
    measure: MeasureKind,
    allowance: usize,
    /// The most questions the first selection can queue: see
    /// [`FirstPickSlot::max_bytes`].
    max_questions: usize,
    pick: Arc<OnceLock<FirstPick>>,
}

impl FirstPickSlot {
    /// An empty slot for the first selection of `config`'s sessions over a
    /// table of `n` tuples, planned over `allowance` answers (a service
    /// that never caps the crowd's side plans over the session budget).
    /// `None` for Random and Naive, whose selectors read the session
    /// seed.
    pub fn new(config: &SessionConfig, allowance: usize, n: usize) -> Option<Self> {
        let pairs = n.saturating_mul(n.saturating_sub(1)) / 2;
        let max_questions = match &config.algorithm {
            Algorithm::Random | Algorithm::Naive => return None,
            Algorithm::T1On | Algorithm::AStarOn { .. } => 1,
            Algorithm::TbOff | Algorithm::COff | Algorithm::AStarOff { .. } => allowance.min(pairs),
            Algorithm::Incr {
                questions_per_round,
            } => (*questions_per_round).min(allowance).min(pairs),
        };
        Some(Self {
            algorithm: config.algorithm.clone(),
            measure: config.measure,
            allowance,
            max_questions,
            pick: Arc::new(OnceLock::new()),
        })
    }

    /// True when the slot holds the first pick of `config`'s sessions
    /// planned over `allowance` answers.
    pub fn serves(&self, config: &SessionConfig, allowance: usize) -> bool {
        self.allowance == allowance
            && self.measure == config.measure
            && self.algorithm == config.algorithm
    }

    /// True once a session has written the pick.
    pub fn is_filled(&self) -> bool {
        self.pick.get().is_some()
    }

    /// An upper bound on the bytes the slot holds once filled, fixed when
    /// the slot is made: the slot record, its shared cell, and room for
    /// the most questions the selection can queue (one for an online
    /// strategy; the allowance, at most every pair of the table, for an
    /// offline plan; the round size, capped the same way, for `incr`). A
    /// pick over that bound is never stored.
    pub fn max_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + 2 * std::mem::size_of::<usize>()
            + std::mem::size_of::<OnceLock<FirstPick>>()
            + self.max_questions * std::mem::size_of::<Question>()
    }

    /// Stores `pick` unless the slot is filled already or the pick is over
    /// the slot's bound.
    fn fill(&self, pick: FirstPick) {
        if pick.questions.len() <= self.max_questions {
            // A concurrent writer stored the same pick; either value is it.
            let _ = self.pick.set(pick);
        }
    }
}

/// A sans-IO uncertainty-reduction session (see module docs).
pub struct SessionDriver {
    config: SessionConfig,
    measure: Box<dyn UncertaintyMeasure>,
    /// Shared so a serving layer can compute the n² quadratures once per
    /// table and hand the same matrix to every session over it.
    pairwise: Arc<PairwiseMatrix>,
    truth: Option<RankList>,
    report: UrReport,
    selection_time: Duration,
    started: Instant,
    /// Selected but not yet emitted questions.
    pending: VecDeque<Question>,
    /// Emitted questions awaiting answers (in emission order).
    outstanding: VecDeque<Question>,
    done: bool,
    mode: Mode,
    /// The slot the first selection reads or fills; taken by it.
    first_pick: Option<FirstPickSlot>,
    /// The first selection was copied from a filled slot.
    first_pick_reused: bool,
}

impl std::fmt::Debug for SessionDriver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionDriver")
            .field("algorithm", &self.report.algorithm)
            .field("steps", &self.report.steps.len())
            .field("pending", &self.pending.len())
            .field("outstanding", &self.outstanding.len())
            .field("done", &self.done)
            .finish_non_exhaustive()
    }
}

impl SessionDriver {
    /// Validates the configuration and builds the initial belief state
    /// (the TPO, or the world sample for `incr`).
    pub fn new(
        config: SessionConfig,
        table: &UncertainTable,
        truth: Option<&RankList>,
    ) -> Result<Self> {
        let pairwise = Arc::new(PairwiseMatrix::compute(table));
        Self::new_shared(config, table, truth, pairwise, None)
    }

    /// Like [`SessionDriver::new`] but reusing a precomputed pairwise
    /// matrix for `table` and, when given, certain/possible top-K bounds
    /// for `(table, k)`. A serving layer computes both once per table and
    /// shares them, so repeat tenants skip the n² comparisons and the
    /// O(n²) dominance scan. Bounds whose table size or depth do not
    /// match this session are ignored (recomputed), never trusted.
    ///
    /// For a keyed session this is [`Belief::build`] (or, for `incr`,
    /// [`Belief::build_with_worlds`]) followed by
    /// [`SessionDriver::from_belief`].
    pub fn new_shared(
        config: SessionConfig,
        table: &UncertainTable,
        truth: Option<&RankList>,
        pairwise: Arc<PairwiseMatrix>,
        shared_bounds: Option<Arc<TopKBounds>>,
    ) -> Result<Self> {
        let started = Instant::now(); // ctk-allow(det-wall-clock): timing metric for the report only; never feeds a decision
        admit(&config, table, &pairwise)?;
        // Certain/possible top-K bounds from the pairwise comparison
        // probabilities: an adaptive-precision build consults them before
        // sampling a single world, and a fully pinned prefix ends the
        // session with zero questions (the scores alone decide the query).
        let bounds = match shared_bounds {
            Some(b) if b.k() == config.k && b.len() == table.len() => b,
            _ => Arc::new(TopKBounds::from_matrix(&pairwise, config.k).map_err(TpoError::from)?),
        };
        let initial = Initial::new(&config, initial_belief(&config, table, &bounds)?)?;
        Self::assemble(config, truth, pairwise, started, initial, None)
    }

    /// Starts a session from an initial belief built earlier by
    /// [`Belief::build`] or [`Belief::build_with_worlds`] for `table` and
    /// `BeliefKey::of(&config)`. A serving layer that caches beliefs hands
    /// each repeat session a copy instead of re-sampling: an `incr`
    /// session shares the belief's world sample and weighs it with fresh
    /// weights, sampling the worlds first if the belief has none. The
    /// session is the one [`SessionDriver::new_shared`] would have
    /// started.
    ///
    /// `first_pick` is the slot shared by the sessions started from this
    /// belief with this configuration's algorithm and measure (made by
    /// [`FirstPickSlot::new`] over the same table): the session's first
    /// selection copies a filled slot's pick instead of running the
    /// selector, or fills an empty slot after running it. A slot made for
    /// another algorithm or measure is ignored, and so is one made for
    /// another allowance than the first selection's. The report is the
    /// same with or without a slot.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidConfig`] for an invalid configuration or a
    /// belief of another depth than `config.k`.
    pub fn from_belief(
        config: SessionConfig,
        table: &UncertainTable,
        truth: Option<&RankList>,
        pairwise: Arc<PairwiseMatrix>,
        mut belief: Belief,
        first_pick: Option<FirstPickSlot>,
    ) -> Result<Self> {
        let started = Instant::now(); // ctk-allow(det-wall-clock): timing metric for the report only; never feeds a decision
        admit(&config, table, &pairwise)?;
        if belief.paths.k() != config.k {
            return Err(CoreError::InvalidConfig(format!(
                "a depth-{} belief cannot start a session at k = {}",
                belief.paths.k(),
                config.k
            )));
        }
        if matches!(config.algorithm, Algorithm::Incr { .. }) {
            belief.attach_worlds(table, &BeliefKey::of(&config))?;
        }
        let initial = Initial::new(&config, belief)?;
        let first_pick = first_pick
            .filter(|slot| slot.measure == config.measure && slot.algorithm == config.algorithm);
        Self::assemble(config, truth, pairwise, started, initial, first_pick)
    }

    /// The driver over an initial belief state, with the report's
    /// baseline taken from it.
    fn assemble(
        config: SessionConfig,
        truth: Option<&RankList>,
        pairwise: Arc<PairwiseMatrix>,
        started: Instant,
        initial: Initial,
        first_pick: Option<FirstPickSlot>,
    ) -> Result<Self> {
        let measure = config.measure.build();
        let Initial {
            belief,
            precision,
            done,
        } = initial;
        let report = match &belief {
            // An `incr` baseline comes from its *full-depth* path set so
            // reports are comparable with the full-tree algorithms.
            InitialBelief::Tree { ps, .. } | InitialBelief::Incr { paths: ps, .. } => {
                report_skeleton(&config, ps, measure.as_ref(), truth, &precision)
            }
        };
        let mode = match belief {
            InitialBelief::Tree { ps, sel } => Mode::Tree { ps, sel },
            InitialBelief::Incr {
                wm, n_per_round, ..
            } => Mode::Incr {
                wm,
                depth: 1,
                n_per_round,
            },
        };
        Ok(Self {
            config,
            measure,
            pairwise,
            truth: truth.cloned(),
            report,
            selection_time: Duration::ZERO,
            started,
            pending: VecDeque::new(),
            outstanding: VecDeque::new(),
            done,
            mode,
            first_pick,
            first_pick_reused: false,
        })
    }

    /// The session configuration.
    pub fn config(&self) -> &SessionConfig {
        &self.config
    }

    /// The in-progress report (timing fields are filled in by
    /// [`SessionDriver::finish`]).
    pub fn report(&self) -> &UrReport {
        &self.report
    }

    /// True once the session will emit no further questions.
    #[cfg(test)]
    pub(crate) fn is_done(&self) -> bool {
        self.done
    }

    /// Emitted questions not yet answered via [`SessionDriver::feed`].
    pub fn outstanding(&self) -> usize {
        self.outstanding.len()
    }

    /// The emitted questions not yet answered, in emission order — the
    /// order [`SessionDriver::feed`] expects their answers in.
    pub fn outstanding_questions(&self) -> impl Iterator<Item = Question> + '_ {
        self.outstanding.iter().copied()
    }

    /// Questions answered so far.
    pub fn questions_asked(&self) -> usize {
        self.report.steps.len()
    }

    /// True while the first selection is still to come and will read a
    /// filled [`FirstPickSlot`] (given the allowance the slot was made
    /// for).
    pub fn first_pick_stored(&self) -> bool {
        self.first_pick
            .as_ref()
            .is_some_and(FirstPickSlot::is_filled)
    }

    /// True once the first selection was copied from a filled
    /// [`FirstPickSlot`] instead of running the selector.
    pub fn first_pick_reused(&self) -> bool {
        self.first_pick_reused
    }

    /// Returns the next questions to pose to the crowd. `crowd_remaining`
    /// is how many more answers the caller can deliver: for a standalone
    /// session, the crowd's remaining budget; for a multiplexed session,
    /// `usize::MAX`, because an answer cache may serve questions the
    /// shared crowd can no longer afford. The driver plans over the
    /// smaller of that and its own unspent budget, so a crowd holding
    /// more than the session's budget changes nothing. An empty batch
    /// with no outstanding answers means the session is done; an empty
    /// batch *with* outstanding answers means the caller must `feed`
    /// first.
    pub fn next_batch(&mut self, crowd_remaining: usize) -> Result<Vec<Question>> {
        if self.done {
            return Ok(Vec::new());
        }
        if !self.outstanding.is_empty() {
            // Waiting on answers: nothing new until the caller feeds them.
            return Ok(Vec::new());
        }
        if self.pending.is_empty() {
            let allowance =
                crowd_remaining.min(self.config.budget.saturating_sub(self.questions_asked()));
            if allowance == 0 || target_reached(&self.config, self.report.final_uncertainty()) {
                self.done = true;
                return Ok(Vec::new());
            }
            match self.first_pick.take() {
                Some(slot) if slot.allowance == allowance => self.select_first(&slot)?,
                _ => self.select_more(allowance)?,
            }
            if self.pending.is_empty() {
                // No informative question remains (early termination,
                // §III-B) or the offline plan is spent.
                self.done = true;
                return Ok(Vec::new());
            }
        }
        Ok(self.emit())
    }

    /// Applies crowd answers for previously emitted questions, in emission
    /// order (a prefix is accepted: fewer answers than outstanding
    /// questions signals an exhausted crowd and ends the session, exactly
    /// as the legacy loop stopped on the first unanswered question).
    /// `accuracy` is the nominal accuracy of one aggregated answer,
    /// consumed by the Bayesian update when below [`RELIABLE_ACCURACY`].
    ///
    /// # Errors
    ///
    /// [`CoreError::Driver`] for an unsolicited answer, an answer to a
    /// different pair than the outstanding question, or a non-finite
    /// accuracy (which would otherwise poison every world weight).
    pub fn feed(&mut self, answers: &[Answer], accuracy: f64) -> Result<DriverStatus> {
        self.feed_each(answers.len(), answers.iter().map(|a| (*a, accuracy)))
    }

    /// Like [`SessionDriver::feed`] but with a per-answer accuracy — for
    /// callers mixing answer sources of different reliability in one
    /// batch (e.g. a serving layer replaying cached answers bought under
    /// an older vote policy alongside fresh ones).
    pub fn feed_graded(&mut self, answers: &[(Answer, f64)]) -> Result<DriverStatus> {
        self.feed_each(answers.len(), answers.iter().copied())
    }

    fn feed_each(
        &mut self,
        count: usize,
        answers: impl Iterator<Item = (Answer, f64)>,
    ) -> Result<DriverStatus> {
        let expected = self.outstanding.len();
        for (ans, accuracy) in answers {
            if !accuracy.is_finite() {
                return Err(CoreError::Driver(format!(
                    "answer to {} carries non-finite accuracy {accuracy}",
                    ans.question
                )));
            }
            let Some(q) = self.outstanding.pop_front() else {
                return Err(CoreError::Driver(format!(
                    "unsolicited answer to {}",
                    ans.question
                )));
            };
            // Accept either orientation of the emitted question.
            let yes = if ans.question == q {
                ans.yes
            } else if ans.question == q.flipped() {
                !ans.yes
            } else {
                return Err(CoreError::Driver(format!(
                    "answer to {} does not match outstanding question {q}",
                    ans.question
                )));
            };
            self.apply(q, yes, accuracy)?;
        }
        if count < expected {
            // The crowd could not serve the whole batch: drop the rest of
            // the plan and end the session with what we have.
            self.pending.clear();
            self.outstanding.clear();
            self.done = true;
        }
        Ok(self.status())
    }

    /// Current status without feeding anything.
    pub fn status(&self) -> DriverStatus {
        if self.done
            || (self.pending.is_empty()
                && self.outstanding.is_empty()
                && (self.report.steps.len() >= self.config.budget
                    || target_reached(&self.config, self.report.final_uncertainty())))
        {
            DriverStatus::Done
        } else {
            DriverStatus::Active
        }
    }

    /// Finalizes and returns the report. Safe to call at any point; steps
    /// recorded so far are kept (an aborted session reports what it
    /// learned).
    pub fn finish(mut self) -> Result<UrReport> {
        match &mut self.mode {
            Mode::Tree { ps, .. } => {
                self.report.resolved = ps.is_resolved();
                self.report.final_topk = ps.most_probable().items.clone();
            }
            Mode::Incr { wm, .. } => {
                // Materialize the final full-depth result (cheap: the
                // belief is already pruned and the prefix groups carry
                // over from the last round).
                let final_ps = wm.path_set_cached(self.config.k)?;
                self.report.resolved = final_ps.is_resolved();
                self.report.final_topk = final_ps.most_probable().items.clone();
                // (On a zero-question run there is nothing to fix up: the
                // baseline was already computed at full depth.)
                if let Some(last) = self.report.steps.last_mut() {
                    last.orderings = final_ps.len();
                    last.uncertainty = self.measure.uncertainty(&final_ps);
                    if let Some(t) = &self.truth {
                        last.distance_to_truth = Some(expected_distance_to_truth(&final_ps, t));
                    }
                }
            }
        }
        self.report.selection_time = self.selection_time;
        self.report.total_time = self.started.elapsed();
        Ok(self.report)
    }

    /// Refills `pending` according to the strategy (runs the selector),
    /// planning over at most `allowance` more answers.
    fn select_more(&mut self, allowance: usize) -> Result<()> {
        let ctx = ResidualCtx {
            measure: self.measure.as_ref(),
            pairwise: &self.pairwise,
        };
        match &mut self.mode {
            Mode::Tree { ps, sel } => match sel {
                TreeSel::Online(s) => {
                    let t = Instant::now(); // ctk-allow(det-wall-clock): timing metric for the report only; never feeds a decision
                    let q = s.next_question(ps, allowance, &ctx);
                    self.selection_time += t.elapsed();
                    self.pending.extend(q);
                }
                TreeSel::Offline { planned } => {
                    if !*planned {
                        *planned = true;
                        let mut s: Box<dyn OfflineSelector> = match &self.config.algorithm {
                            Algorithm::Random => Box::new(RandomSelector::new(self.config.seed)),
                            Algorithm::Naive => Box::new(NaiveSelector::new(self.config.seed)),
                            Algorithm::TbOff => Box::new(TbOff),
                            Algorithm::COff => Box::new(COff),
                            Algorithm::AStarOff { max_expansions } => Box::new(AStarOff {
                                max_expansions: *max_expansions,
                            }),
                            other => unreachable!("{} is not an offline strategy", other.name()),
                        };
                        let t = Instant::now(); // ctk-allow(det-wall-clock): timing metric for the report only; never feeds a decision
                        let batch = s.select(ps, allowance, &ctx);
                        self.selection_time += t.elapsed();
                        self.pending.extend(batch);
                    }
                }
            },
            Mode::Incr {
                wm,
                depth,
                n_per_round,
            } => {
                let k = self.config.k;
                // “We only build new levels if there are not enough
                // questions to ask.” — where "enough" is the *effective*
                // round size: the last round of a nearly spent budget must
                // not force deep tree construction it can never use.
                let cap = (*n_per_round).min(allowance);
                let t = Instant::now(); // ctk-allow(det-wall-clock): timing metric for the report only; never feeds a decision
                let mut ps = wm.path_set_cached(*depth)?;
                let mut pool = crate::select::relevant_questions(&ps, &ctx);
                while pool.len() < cap && *depth < k {
                    *depth += 1;
                    ps = wm.path_set_cached(*depth)?;
                    pool = crate::select::relevant_questions(&ps, &ctx);
                }
                if pool.is_empty() {
                    self.selection_time += t.elapsed();
                    return Ok(()); // fully resolved at full depth
                }
                let n = cap.min(pool.len());
                let round = TbOff.select(&ps, n, &ctx);
                self.selection_time += t.elapsed();
                self.pending.extend(round);
            }
        }
        Ok(())
    }

    /// The first selection, read from `slot` when a session filled it and
    /// otherwise run and written there. Under `debug-invariants` a read
    /// pick is also recomputed on this session's own belief and must be
    /// equal.
    fn select_first(&mut self, slot: &FirstPickSlot) -> Result<()> {
        let Some(pick) = slot.pick.get() else {
            self.select_more(slot.allowance)?;
            slot.fill(self.first_pick_made());
            return Ok(());
        };
        #[cfg(feature = "debug-invariants")]
        {
            self.select_more(slot.allowance)?;
            assert_eq!(
                &self.first_pick_made(),
                pick,
                "a stored first pick differs from a fresh {} selection",
                self.config.algorithm.name()
            );
            self.pending.clear();
        }
        self.pending.extend(pick.questions.iter().copied());
        match &mut self.mode {
            Mode::Tree {
                sel: TreeSel::Offline { planned },
                ..
            } => *planned = pick.planned,
            Mode::Tree { .. } => {}
            Mode::Incr { depth, .. } => *depth = pick.depth,
        }
        self.first_pick_reused = true;
        Ok(())
    }

    /// The first pick as the selection just made it.
    fn first_pick_made(&self) -> FirstPick {
        let (depth, planned) = match &self.mode {
            Mode::Tree {
                sel: TreeSel::Offline { planned },
                ..
            } => (0, *planned),
            Mode::Tree { .. } => (0, false),
            Mode::Incr { depth, .. } => (*depth, false),
        };
        FirstPick {
            questions: self.pending.iter().copied().collect(),
            depth,
            planned,
        }
    }

    /// Moves selected questions to the wire. Without an early-stop target
    /// the whole pending set goes out at once; with one, questions go out
    /// one by one and the target is re-checked before each (mirroring the
    /// per-question check of the legacy loop).
    fn emit(&mut self) -> Vec<Question> {
        let batch: Vec<Question> = if self.config.uncertainty_target.is_none() {
            self.pending.drain(..).collect()
        } else if target_reached(&self.config, self.report.final_uncertainty()) {
            self.pending.clear();
            self.done = true;
            Vec::new()
        } else {
            self.pending.pop_front().into_iter().collect()
        };
        self.outstanding.extend(batch.iter().copied());
        batch
    }

    /// Applies one answer to the belief and records the step.
    fn apply(&mut self, q: Question, yes: bool, accuracy: f64) -> Result<()> {
        let prior = self.pairwise.pr(q.i as usize, q.j as usize);
        match &mut self.mode {
            Mode::Tree { ps, .. } => {
                let updated = if accuracy >= RELIABLE_ACCURACY {
                    prune(ps, q.i, q.j, yes, prior).map(|(s, _)| s)
                } else {
                    bayes_update(ps, q.i, q.j, yes, accuracy, prior)
                };
                match updated {
                    Ok(next) => *ps = next,
                    Err(TpoError::ContradictoryAnswer) => {
                        // Sampled trees can miss the real ordering; skip the
                        // answer rather than emptying the belief (counted in
                        // the report).
                        self.report.contradictions += 1;
                    }
                    Err(_) => unreachable!("prune/update only fail on contradictions"),
                }
                self.report.steps.push(StepRecord {
                    question: q,
                    answer_yes: yes,
                    orderings: ps.len(),
                    uncertainty: self.measure.uncertainty(ps),
                    distance_to_truth: self
                        .truth
                        .as_ref()
                        .map(|t| expected_distance_to_truth(ps, t)),
                });
            }
            Mode::Incr { wm, depth, .. } => {
                let res = if accuracy >= RELIABLE_ACCURACY {
                    wm.apply_answer_hard(q.i, q.j, yes)
                } else {
                    wm.apply_answer_noisy(q.i, q.j, yes, accuracy)
                };
                if res.is_err() {
                    self.report.contradictions += 1;
                }
                // Step records are taken at the current construction depth
                // (all incr can see without the full-depth build it exists
                // to avoid); finish() fixes up the last one. The cached
                // grouping re-sums surviving groups instead of rebuilding
                // a hash map per answer.
                let cur = wm.path_set_cached(*depth)?;
                self.report.steps.push(StepRecord {
                    question: q,
                    answer_yes: yes,
                    orderings: cur.len(),
                    uncertainty: self.measure.uncertainty(&cur),
                    distance_to_truth: self
                        .truth
                        .as_ref()
                        .map(|t| expected_distance_to_truth(&cur, t)),
                });
            }
        }
        Ok(())
    }
}

/// Checks that `config` is valid and that `pairwise` covers `table`.
fn admit(config: &SessionConfig, table: &UncertainTable, pairwise: &PairwiseMatrix) -> Result<()> {
    if pairwise.len() != table.len() {
        return Err(CoreError::InvalidConfig(format!(
            "pairwise matrix covers {} tuples but the table has {}",
            pairwise.len(),
            table.len()
        )));
    }
    config.validate_for(table)
}

/// A session's initial belief state, before its report baseline is read.
struct Initial {
    belief: InitialBelief,
    precision: PrecisionReport,
    /// The session ends before its first question.
    done: bool,
}

/// The belief a session starts from.
enum InitialBelief {
    /// The full-depth tree and the strategy's selector.
    Tree { ps: PathSet, sel: TreeSel },
    /// An `incr` session's worlds, and their depth-`k` path set from the
    /// build's prefix counts (read for the report baseline, then dropped).
    Incr {
        wm: WorldModel,
        paths: PathSet,
        n_per_round: usize,
    },
}

/// The initial belief `config` builds over `table`: the tree belief of
/// its key, with the worlds kept for `incr`, which interleaves
/// construction with pruning on a *sampled-worlds* belief (§III-D).
fn initial_belief(
    config: &SessionConfig,
    table: &UncertainTable,
    bounds: &TopKBounds,
) -> Result<Belief> {
    let key = BeliefKey::of(config);
    if matches!(config.algorithm, Algorithm::Incr { .. }) {
        Belief::build_with_worlds(table, &key, bounds)
    } else {
        Belief::build(table, &key, bounds)
    }
}

impl Initial {
    /// A session over `belief`, with its strategy's selector (`incr`
    /// weighs the belief's worlds).
    fn new(config: &SessionConfig, belief: Belief) -> Result<Self> {
        let sel = match &config.algorithm {
            Algorithm::T1On => TreeSel::Online(Box::new(T1On)),
            Algorithm::AStarOn {
                lookahead,
                max_expansions,
            } => TreeSel::Online(Box::new(AStarOn {
                lookahead: *lookahead,
                max_expansions: *max_expansions,
            })),
            // The certain bounds pinned the whole ordered prefix: the
            // belief is a single path, no crowd question is relevant, and
            // the session is done before it starts.
            Algorithm::Incr { .. } if belief.pinned() => {
                return Ok(Self {
                    belief: InitialBelief::Tree {
                        ps: belief.paths,
                        sel: TreeSel::Offline { planned: true },
                    },
                    precision: belief.precision,
                    done: true,
                })
            }
            Algorithm::Incr {
                questions_per_round,
            } => {
                let Some(worlds) = belief.worlds else {
                    return Err(CoreError::InvalidConfig(
                        "an incr session needs its belief's worlds".into(),
                    ));
                };
                return Ok(Self {
                    belief: InitialBelief::Incr {
                        wm: WorldModel::new(worlds),
                        paths: belief.paths,
                        n_per_round: *questions_per_round,
                    },
                    precision: belief.precision,
                    done: false,
                });
            }
            _ => TreeSel::Offline { planned: false },
        };
        Ok(Self {
            belief: InitialBelief::Tree {
                ps: belief.paths,
                sel,
            },
            precision: belief.precision,
            done: false,
        })
    }
}

fn target_reached(config: &SessionConfig, uncertainty: f64) -> bool {
    config
        .uncertainty_target
        .map(|t| uncertainty <= t)
        .unwrap_or(false)
}

fn report_skeleton(
    config: &SessionConfig,
    ps: &PathSet,
    measure: &dyn UncertaintyMeasure,
    truth: Option<&RankList>,
    precision: &PrecisionReport,
) -> UrReport {
    UrReport {
        algorithm: config.algorithm.name(),
        measure: config.measure.name(),
        initial_orderings: ps.len(),
        initial_uncertainty: measure.uncertainty(ps),
        initial_distance: truth.map(|t| expected_distance_to_truth(ps, t)),
        steps: Vec::new(),
        contradictions: 0,
        resolved: ps.is_resolved(),
        final_topk: ps.most_probable().items.clone(),
        worlds_drawn: precision.worlds_drawn,
        achieved_epsilon: precision.epsilon,
        precision_delta: precision.delta,
        certain_early_stop: precision.reason == StopReason::CertainOrder,
        selection_time: Duration::ZERO,
        total_time: Duration::ZERO,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measures::MeasureKind;
    use crate::session::UrSession;
    use ctk_crowd::{Crowd, CrowdSimulator, GroundTruth, NoisyWorker, PerfectWorker, VotePolicy};
    use ctk_prob::ScoreDist;
    use ctk_tpo::build::{Engine, McConfig};
    use ctk_tpo::WorldSample;

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
            engine: Engine::MonteCarlo(McConfig::fixed(3000, 7)),
            seed: 11,
            uncertainty_target: None,
        }
    }

    /// Drives the state machine by hand against a crowd, like a scheduler
    /// would.
    fn drive<C: Crowd>(cfg: SessionConfig, table: &UncertainTable, crowd: &mut C) -> UrReport {
        let truth_top = crowd_truth_top(crowd);
        let mut driver = SessionDriver::new(cfg, table, Some(&truth_top)).unwrap();
        loop {
            let batch = driver.next_batch(crowd.remaining()).unwrap();
            if batch.is_empty() {
                assert!(driver.is_done());
                break;
            }
            let mut answers = Vec::new();
            for q in &batch {
                match crowd.ask(*q) {
                    Some(a) => answers.push(a),
                    None => break,
                }
            }
            let status = driver.feed(&answers, crowd.answer_accuracy()).unwrap();
            if status == DriverStatus::Done {
                break;
            }
        }
        driver.finish().unwrap()
    }

    fn crowd_truth_top<C: Crowd>(_c: &C) -> RankList {
        // Test crowds below are built from GroundTruth::sample(table, 99).
        let truth = GroundTruth::sample(&table(), 99);
        truth.top_k(3)
    }

    #[test]
    fn incr_baseline_is_the_cached_grouping_of_its_worlds() {
        // The baseline path set of incr's sampled worlds comes from one
        // counting pass and must equal grouping the same worlds at depth k.
        let table = table();
        let bounds = TopKBounds::from_matrix(&PairwiseMatrix::compute(&table), 3).unwrap();
        for (engine, m, seed) in [
            (Engine::MonteCarlo(McConfig::fixed(3000, 7)), 3000, 7),
            (Engine::MonteCarlo(McConfig::fixed(1, 5)), 1, 5),
        ] {
            let mut cfg = config(
                Algorithm::Incr {
                    questions_per_round: 2,
                },
                4,
            );
            cfg.engine = engine;
            let initial =
                Initial::new(&cfg, initial_belief(&cfg, &table, &bounds).unwrap()).unwrap();
            let InitialBelief::Incr { wm, paths, .. } = initial.belief else {
                panic!("a sampled incr belief");
            };
            let worlds = WorldSample::sample_to_depth(&table, cfg.k, m, seed).unwrap();
            let mut reference = WorldModel::new(Arc::new(worlds));
            assert_eq!(wm.worlds(), reference.worlds());
            let baseline = Belief {
                paths,
                precision: initial.precision,
                worlds: None,
            };
            let grouped = Belief {
                paths: reference.path_set_cached(cfg.k).unwrap(),
                precision: PrecisionReport::fixed(m),
                worlds: None,
            };
            assert!(baseline.same_bits(&grouped), "{:?}", cfg.engine);
        }
    }

    #[test]
    fn driver_matches_session_run_for_all_algorithms() {
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
            let table = table();
            let truth = GroundTruth::sample(&table, 99);
            let top = truth.top_k(3);
            let mut crowd_a =
                CrowdSimulator::new(truth.clone(), PerfectWorker, VotePolicy::Single, 8)
                    .expect("valid vote policy");
            let mut crowd_b = CrowdSimulator::new(truth, PerfectWorker, VotePolicy::Single, 8)
                .expect("valid vote policy");
            let name = alg.name();
            let session = UrSession::new(config(alg.clone(), 8)).unwrap();
            let classic = session
                .run_with_truth(&table, &mut crowd_a, Some(&top))
                .unwrap();
            let driven = drive(config(alg, 8), &table, &mut crowd_b);
            assert!(
                classic.same_outcome(&driven),
                "{name}: driver diverged from Session::run"
            );
        }
    }

    #[test]
    fn driver_matches_session_with_noisy_crowd() {
        let table = table();
        let truth = GroundTruth::sample(&table, 99);
        let top = truth.top_k(3);
        let mut crowd_a = CrowdSimulator::new(
            truth.clone(),
            NoisyWorker::new(0.8, 5),
            VotePolicy::Single,
            10,
        )
        .expect("valid vote policy");
        let mut crowd_b =
            CrowdSimulator::new(truth, NoisyWorker::new(0.8, 5), VotePolicy::Single, 10)
                .expect("valid vote policy");
        let session = UrSession::new(config(Algorithm::T1On, 10)).unwrap();
        let classic = session
            .run_with_truth(&table, &mut crowd_a, Some(&top))
            .unwrap();
        let driven = drive(config(Algorithm::T1On, 10), &table, &mut crowd_b);
        assert!(classic.same_outcome(&driven));
    }

    #[test]
    fn offline_batch_is_emitted_whole_without_target() {
        let mut d = SessionDriver::new(config(Algorithm::TbOff, 6), &table(), None).unwrap();
        let batch = d.next_batch(6).unwrap();
        assert!(batch.len() > 1, "offline plan should batch: {batch:?}");
        // Until answers arrive, no further questions are emitted.
        assert!(d.next_batch(6).unwrap().is_empty());
        assert!(!d.is_done());
        assert_eq!(d.outstanding(), batch.len());
    }

    #[test]
    fn target_forces_single_question_batches() {
        let mut cfg = config(Algorithm::TbOff, 6);
        cfg.uncertainty_target = Some(0.0);
        let mut d = SessionDriver::new(cfg, &table(), None).unwrap();
        let batch = d.next_batch(6).unwrap();
        assert_eq!(batch.len(), 1, "target set: one question at a time");
    }

    #[test]
    fn partial_feed_ends_session() {
        let mut d = SessionDriver::new(config(Algorithm::TbOff, 6), &table(), None).unwrap();
        let batch = d.next_batch(6).unwrap();
        assert!(batch.len() >= 2);
        let truth = GroundTruth::sample(&table(), 99);
        let mut crowd = CrowdSimulator::new(truth, PerfectWorker, VotePolicy::Single, 1)
            .expect("valid vote policy");
        let answers: Vec<Answer> = vec![crowd.ask(batch[0]).unwrap()];
        let status = d.feed(&answers, 1.0).unwrap();
        assert_eq!(status, DriverStatus::Done);
        assert!(d.is_done());
        assert_eq!(d.questions_asked(), 1);
        let report = d.finish().unwrap();
        assert_eq!(report.steps.len(), 1);
    }

    #[test]
    fn flipped_answers_are_reoriented() {
        let mut d = SessionDriver::new(config(Algorithm::T1On, 4), &table(), None).unwrap();
        let batch = d.next_batch(4).unwrap();
        assert_eq!(batch.len(), 1);
        let q = batch[0];
        // Answer the flipped question with the opposite polarity: same
        // information, must be accepted and produce an identical step.
        let flipped = Answer {
            question: q.flipped(),
            yes: false,
        };
        d.feed(&[flipped], 1.0).unwrap();
        assert_eq!(d.report().steps[0].question, q);
        assert!(d.report().steps[0].answer_yes);
    }

    #[test]
    fn unsolicited_and_mismatched_answers_are_rejected() {
        let mut d = SessionDriver::new(config(Algorithm::T1On, 4), &table(), None).unwrap();
        let stray = Answer {
            question: Question::new(0, 1),
            yes: true,
        };
        assert!(matches!(d.feed(&[stray], 1.0), Err(CoreError::Driver(_))));
        let batch = d.next_batch(4).unwrap();
        let other = batch[0].i.wrapping_add(batch[0].j).wrapping_add(1) % 8;
        let wrong_pair = Answer {
            question: Question::new(other, (other + 1) % 8),
            yes: true,
        };
        if wrong_pair.question != batch[0] && wrong_pair.question != batch[0].flipped() {
            assert!(matches!(
                d.feed(&[wrong_pair], 1.0),
                Err(CoreError::Driver(_))
            ));
        }
    }

    #[test]
    fn feed_graded_applies_per_answer_accuracy() {
        let mut d = SessionDriver::new(config(Algorithm::TbOff, 6), &table(), None).unwrap();
        let batch = d.next_batch(6).unwrap();
        assert!(batch.len() >= 2);
        let truth = GroundTruth::sample(&table(), 99);
        let mut crowd = CrowdSimulator::new(truth, PerfectWorker, VotePolicy::Single, 10)
            .expect("valid vote policy");
        let a0 = crowd.ask(batch[0]).unwrap();
        let a1 = crowd.ask(batch[1]).unwrap();
        // First answer reliable (hard prune), second noisy (Bayes
        // reweight): the reweight must not shrink the ordering count.
        d.feed_graded(&[(a0, 1.0), (a1, 0.8)]).unwrap();
        let steps = &d.report().steps;
        assert_eq!(steps.len(), 2);
        assert!(steps[0].orderings <= d.report().initial_orderings);
        assert_eq!(
            steps[1].orderings, steps[0].orderings,
            "bayes update reweights instead of pruning"
        );
    }

    #[test]
    fn shared_pairwise_matrix_preserves_outcomes() {
        let table = table();
        let shared = Arc::new(PairwiseMatrix::compute(&table));
        for alg in [
            Algorithm::TbOff,
            Algorithm::Incr {
                questions_per_round: 3,
            },
        ] {
            let truth = GroundTruth::sample(&table, 99);
            let top = truth.top_k(3);
            let mut crowd_a =
                CrowdSimulator::new(truth.clone(), PerfectWorker, VotePolicy::Single, 8)
                    .expect("valid vote policy");
            let mut crowd_b = CrowdSimulator::new(truth, PerfectWorker, VotePolicy::Single, 8)
                .expect("valid vote policy");
            let fresh = drive(config(alg.clone(), 8), &table, &mut crowd_a);
            let mut driver = SessionDriver::new_shared(
                config(alg, 8),
                &table,
                Some(&top),
                Arc::clone(&shared),
                None,
            )
            .unwrap();
            loop {
                let batch = driver.next_batch(crowd_b.remaining()).unwrap();
                if batch.is_empty() {
                    break;
                }
                let answers: Vec<Answer> = batch.iter().filter_map(|q| crowd_b.ask(*q)).collect();
                if driver.feed(&answers, crowd_b.answer_accuracy()).unwrap() == DriverStatus::Done {
                    break;
                }
            }
            let shared_report = driver.finish().unwrap();
            assert!(fresh.same_outcome(&shared_report));
        }
    }

    #[test]
    fn mismatched_pairwise_matrix_rejected() {
        let table = table();
        let small = UncertainTable::new(vec![
            ScoreDist::uniform(0.0, 1.0).unwrap(),
            ScoreDist::uniform(0.5, 1.5).unwrap(),
        ])
        .unwrap();
        let wrong = Arc::new(PairwiseMatrix::compute(&small));
        assert!(matches!(
            SessionDriver::new_shared(config(Algorithm::T1On, 4), &table, None, wrong, None),
            Err(CoreError::InvalidConfig(_))
        ));
    }

    #[test]
    fn first_pick_slots_are_read_only_where_they_apply() {
        // One C-off slot at allowance 6: the first session fills it, a
        // repeat reads it and asks the same batch; a session planning
        // over another allowance, or of another strategy, ignores it.
        let table = table();
        let cfg = config(Algorithm::COff, 6);
        let key = BeliefKey::of(&cfg);
        let pairwise = Arc::new(PairwiseMatrix::compute(&table));
        let bounds = TopKBounds::from_matrix(&pairwise, cfg.k).unwrap();
        let belief = Belief::build(&table, &key, &bounds).unwrap();
        let slot = FirstPickSlot::new(&cfg, 6, table.len()).unwrap();
        let start = |cfg: &SessionConfig| {
            let pairwise = Arc::clone(&pairwise);
            let slot = Some(slot.clone());
            SessionDriver::from_belief(cfg.clone(), &table, None, pairwise, belief.clone(), slot)
                .unwrap()
        };
        let mut first = start(&cfg);
        let batch = first.next_batch(usize::MAX).unwrap();
        assert!(slot.is_filled() && !first.first_pick_reused());
        let mut repeat = start(&cfg);
        assert!(repeat.first_pick_stored());
        assert_eq!(repeat.next_batch(usize::MAX).unwrap(), batch);
        assert!(repeat.first_pick_reused() && !repeat.first_pick_stored());
        let mut narrow = start(&cfg);
        narrow.next_batch(4).unwrap();
        assert!(!narrow.first_pick_reused(), "another allowance");
        let mut online = start(&config(Algorithm::T1On, 6));
        assert!(!online.first_pick_stored(), "another strategy");
        assert_eq!(online.next_batch(usize::MAX).unwrap().len(), 1);
        assert!(FirstPickSlot::new(&config(Algorithm::Random, 6), 6, 8).is_none());
        assert!(FirstPickSlot::new(&config(Algorithm::Naive, 6), 6, 8).is_none());
    }

    #[test]
    fn drivers_are_send() {
        // The parallel service round loop moves `&mut SessionDriver`s to
        // scoped worker threads; keep that a compile-time guarantee.
        fn assert_send<T: Send>() {}
        assert_send::<SessionDriver>();
    }

    #[test]
    fn adaptive_certain_early_stop_ends_session_before_any_question() {
        // Disjoint staircase: the certain/possible bounds pin the whole
        // top-3 prefix, so every algorithm family ends with zero worlds
        // drawn and zero questions asked.
        let decided = UncertainTable::new(
            (0..6)
                .map(|i| ScoreDist::uniform_centered(i as f64, 0.2).unwrap())
                .collect(),
        )
        .unwrap();
        for alg in [
            Algorithm::T1On,
            Algorithm::TbOff,
            Algorithm::Incr {
                questions_per_round: 2,
            },
        ] {
            let name = alg.name();
            let mut cfg = config(alg, 8);
            cfg.engine = Engine::MonteCarlo(McConfig::adaptive(0.02, 0.05, 7));
            let mut d = SessionDriver::new(cfg, &decided, None).unwrap();
            assert!(d.next_batch(8).unwrap().is_empty(), "{name}");
            assert!(d.is_done(), "{name}");
            let r = d.finish().unwrap();
            assert!(r.certain_early_stop, "{name}");
            assert_eq!(r.worlds_drawn, 0, "{name}");
            assert_eq!(r.achieved_epsilon, Some(0.0), "{name}");
            assert!(r.resolved, "{name}");
            assert_eq!(r.final_topk, vec![5, 4, 3], "{name}");
            assert!(r.steps.is_empty(), "{name}");
        }
    }

    #[test]
    fn adaptive_sessions_report_their_achieved_precision() {
        // Overlapping table: sampling is needed, the report carries the
        // achieved half-width, and the session still answers questions.
        let truth = GroundTruth::sample(&table(), 99);
        for alg in [
            Algorithm::T1On,
            Algorithm::Incr {
                questions_per_round: 2,
            },
        ] {
            let name = alg.name();
            let mut cfg = config(alg, 6);
            cfg.engine = Engine::MonteCarlo(McConfig::adaptive(0.05, 0.05, 7));
            let mut crowd =
                CrowdSimulator::new(truth.clone(), PerfectWorker, VotePolicy::Single, 6)
                    .expect("valid vote policy");
            let r = drive(cfg, &table(), &mut crowd);
            assert!(r.worlds_drawn > 0, "{name}: overlap forces sampling");
            assert!(!r.certain_early_stop, "{name}");
            let achieved = r.achieved_epsilon.expect("adaptive builds report a width");
            assert!(achieved <= 0.05, "{name}: achieved {achieved}");
            assert_eq!(r.precision_delta, Some(0.05), "{name}");
            assert!(r.questions_asked() > 0, "{name}");
        }
    }

    #[test]
    fn fixed_worlds_reports_compat_budget() {
        let d = SessionDriver::new(config(Algorithm::T1On, 4), &table(), None).unwrap();
        let r = d.report();
        assert_eq!(r.worlds_drawn, 3000);
        assert_eq!(r.achieved_epsilon, None);
        assert_eq!(r.precision_delta, None);
        assert!(!r.certain_early_stop);
    }

    #[test]
    fn zero_allowance_finishes_immediately() {
        let mut d = SessionDriver::new(config(Algorithm::T1On, 4), &table(), None).unwrap();
        assert!(d.next_batch(0).unwrap().is_empty());
        assert!(d.is_done());
        let report = d.finish().unwrap();
        assert_eq!(report.steps.len(), 0);
        assert_eq!(report.final_topk.len(), 3);
    }

    #[test]
    fn invalid_configs_rejected() {
        assert!(SessionDriver::new(
            SessionConfig {
                k: 0,
                ..config(Algorithm::T1On, 4)
            },
            &table(),
            None
        )
        .is_err());
        assert!(SessionDriver::new(
            SessionConfig {
                k: 100,
                ..config(Algorithm::T1On, 4)
            },
            &table(),
            None
        )
        .is_err());
        assert!(SessionDriver::new(
            config(
                Algorithm::Incr {
                    questions_per_round: 0
                },
                4
            ),
            &table(),
            None
        )
        .is_err());
        // incr prunes sampled worlds: the exact engine is refused.
        let incr_on_exact = SessionConfig {
            engine: Engine::Exact(Default::default()),
            ..config(
                Algorithm::Incr {
                    questions_per_round: 2,
                },
                4,
            )
        };
        assert!(matches!(
            SessionDriver::new(incr_on_exact, &table(), None),
            Err(CoreError::InvalidConfig(_))
        ));
    }
}

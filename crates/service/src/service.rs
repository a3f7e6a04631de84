//! The serving loop: multiplexes many [`SessionDriver`]s over one shared
//! crowd backend through one phase-structured round,
//! [`TopKService::tick`] (DESIGN.md §14).
//!
//! The service owns one session table (the registry, where a session's id
//! is its slot and its entry is `Live`, `Done` or `Failed`), one
//! scheduler, the list of sessions parked on crowd budget, and one
//! [`AnswerCache`]. The crowd and the cache are the only state shared
//! across sessions, and only the sequential purchase phase touches them.
//!
//! One round runs six phases:
//!
//! 1. **resume** — take the parked list: sessions that met an empty crowd
//!    in an earlier round retry their unresolved tail;
//! 2. **plan** — the scheduler picks from its per-class queues, which
//!    sessions join and leave on their own transitions;
//! 3. **gather** (parallel over `std::thread::scope` worker chunks) —
//!    every planned driver emits its next question batch;
//! 4. **purchase** (sequential) — one walk, resumed sessions first (in id
//!    order) and planned ones second (in plan order), through the single
//!    cache-first purchase loop (`resolve_pending`). A cache miss on a
//!    crowd with no budget left parks the session `AwaitingBudget`; a
//!    refused or invalid answer cuts its batch;
//! 5. **feed** (parallel) — each resolved session's mailbox goes to its
//!    driver;
//! 6. **retire** (sequential) — sessions that finished or failed this
//!    round give up their driver and keep only their outcome.
//!
//! Drivers are independent state machines (`SessionDriver: Send`,
//! disjoint `&mut` borrows of the live sessions); every cross-session
//! effect — scheduling order, crowd spending, cache population, metrics —
//! happens sequentially, so per-tenant reports are deterministic at any
//! worker thread count.
//! [`TopKService::run_until_quiescent`] ticks while rounds make progress,
//! then tells "blocked on the crowd" ([`Quiescence::BlockedOnCrowd`])
//! apart from done.

use crate::batcher::{resolve_pending, AnswerCache, Disposition};
use crate::metrics::ServiceMetrics;
use crate::registry::{LiveSession, Registry, SessionEntry, SessionId, SessionSpec, SessionState};
use crate::scheduler::Scheduler;
use ctk_core::driver::{DriverStatus, SessionDriver};
use ctk_core::session::UrReport;
use ctk_core::{CoreError, Result};
use ctk_crowd::{Crowd, Question, RouteHint};
use ctk_prob::compare::PairwiseMatrix;
use ctk_prob::{TopKBounds, UncertainTable};
use ctk_quality::QuestionRouter;
use ctk_rank::RankList;
use ctk_tpo::build::Engine;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What one scheduling round did.
#[derive(Debug, Clone, Copy, Default)]
pub struct RoundOutcome {
    /// Sessions the scheduler picked.
    pub scheduled: usize,
    /// Answers delivered to sessions.
    pub answers_served: u64,
    /// Answers that came from the cache.
    pub cache_hits: u64,
    /// Sessions that reached `Done` or `Failed`.
    pub finished: usize,
}

impl RoundOutcome {
    /// True when the round moved any session forward. A round that
    /// neither schedules, delivers nor finishes — every runnable session
    /// done, every parked one still facing an empty crowd — cannot
    /// unblock anything by being repeated.
    pub fn progressed(&self) -> bool {
        self.scheduled > 0 || self.finished > 0 || self.answers_served > 0
    }
}

/// Why [`TopKService::run_until_quiescent`] stopped ticking.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Quiescence {
    /// Nothing left to do: every session is `Done` or `Failed`.
    Idle,
    /// No round can make progress *by computation alone*: these sessions
    /// hold unresolved questions the crowd has no budget for. The caller
    /// decides — top the crowd up and keep ticking, or force-starve
    /// (what `run_to_completion` does).
    BlockedOnCrowd {
        /// The parked sessions, in id order.
        sessions: Vec<SessionId>,
    },
}

/// One served table's shared derived state: the pairwise matrix plus the
/// certain/possible top-K bounds per query depth seen so far.
struct TableCacheEntry {
    table: UncertainTable,
    pairwise: Arc<PairwiseMatrix>,
    bounds: Vec<(usize, Arc<TopKBounds>)>,
}

/// A multi-tenant top-K query service over one crowd backend.
///
/// Sessions are submitted with [`TopKService::submit`] and served in
/// rounds: each [`TopKService::tick`] asks the scheduler which sessions
/// run, gathers their next question batches from the sans-IO drivers,
/// deduplicates the batch through the answer cache, spends crowd budget
/// only on cache misses, and feeds the answers back. With reliable
/// (accuracy-1) workers, every session's final report is identical to the
/// one a standalone [`ctk_core::session::UrSession::run`] produces under
/// the same seed — the cache serves facts, not approximations.
///
/// ```
/// use ctk_core::measures::MeasureKind;
/// use ctk_core::session::{Algorithm, SessionConfig};
/// use ctk_crowd::{CrowdSimulator, GroundTruth, PerfectWorker, VotePolicy};
/// use ctk_prob::{ScoreDist, UncertainTable};
/// use ctk_service::{SessionSpec, TopKService};
/// use ctk_tpo::build::{Engine, McConfig};
///
/// let table = UncertainTable::new((0..5).map(|i| {
///     ScoreDist::uniform_centered(0.2 * i as f64, 0.5).unwrap()
/// }).collect()).unwrap();
/// let truth = GroundTruth::sample(&table, 1);
/// let crowd = CrowdSimulator::new(truth, PerfectWorker, VotePolicy::Single, 1000).expect("valid vote policy");
///
/// let mut service = TopKService::new(crowd);
/// let config = SessionConfig {
///     k: 2,
///     budget: 6,
///     measure: MeasureKind::WeightedEntropy,
///     algorithm: Algorithm::T1On,
///     engine: Engine::MonteCarlo(McConfig::fixed(1500, 3)),
///     seed: 0,
///     uncertainty_target: None,
/// };
/// let a = service.submit(&table, SessionSpec::new(config.clone())).unwrap();
/// let b = service.submit(&table, SessionSpec::new(config)).unwrap();
/// service.run_to_completion();
///
/// // Identical configs: the second tenant rides the first one's answers.
/// assert!(service.report(a).unwrap().same_outcome(service.report(b).unwrap()));
/// assert!(service.metrics().cache_hits > 0);
/// ```
pub struct TopKService<C: Crowd> {
    crowd: C,
    cache: AnswerCache,
    registry: Registry,
    scheduler: Scheduler,
    /// Sessions parked on an empty crowd, retried by the next round's
    /// resume phase (maintained by the purchase phase, never rescanned
    /// from the registry).
    parked: Vec<SessionId>,
    metrics: ServiceMetrics,
    /// Worker threads the gather/feed phases split over (>= 1; 1 runs the
    /// classic sequential loop, any value produces bit-identical reports).
    threads: usize,
    /// One pairwise matrix per distinct table served: the n² comparisons
    /// dominate session setup, and tenants querying the same relation
    /// share a single `Arc` instead of recomputing per submit. Cache
    /// misses run `PairwiseMatrix::compute` — since PR 5 the analytic
    /// sweep-line fast path (DESIGN.md §10), so even the first tenant on
    /// a table pays milliseconds, not the old per-pair quadratures. Each
    /// entry also caches the certain/possible [`TopKBounds`] per query
    /// depth served over the table, so repeat tenants skip the O(n²)
    /// dominance scan too.
    pairwise_cache: Vec<TableCacheEntry>,
    /// Optional belief-margin routing policy: when set, each live
    /// question carries a [`RouteHint`] derived from the asking session's
    /// current belief margin, which hint-aware crowds (e.g.
    /// `ctk_quality::QualityCrowd`) use to pick cheap vs expert panels.
    /// Hint-blind crowds ignore it, so routing never changes verdicts on
    /// the plain simulator.
    router: Option<QuestionRouter>,
}

impl<C: Crowd> TopKService<C> {
    /// A service over `crowd` with unbounded per-round fanout, splitting
    /// round work over all available cores.
    pub fn new(crowd: C) -> Self {
        let threads = default_threads();
        let mut metrics = ServiceMetrics::default();
        metrics.worker_threads = threads;
        Self {
            crowd,
            cache: AnswerCache::new(),
            registry: Registry::default(),
            scheduler: Scheduler::default(),
            parked: Vec::new(),
            metrics,
            threads,
            pairwise_cache: Vec::new(),
            router: None,
        }
    }

    /// Bounds how many sessions are served per round (builder style).
    pub fn with_fanout(mut self, fanout: usize) -> Self {
        self.scheduler = Scheduler::with_fanout(fanout);
        self
    }

    /// Sets how many worker threads the round loop splits session work
    /// over (builder style). `0` means all available cores; `1` runs the
    /// sequential loop. Reports are bit-identical at every setting — the
    /// knob only trades wall clock.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = if threads == 0 {
            default_threads()
        } else {
            threads
        };
        self.metrics.worker_threads = self.threads;
        self
    }

    /// Worker threads the round loop splits over.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Routes live questions by belief margin (builder style): questions
    /// the asking session is still torn about (margin below the router's
    /// narrow threshold) are hinted [`RouteHint::Expert`], near-settled
    /// ones [`RouteHint::Cheap`]. Only crowds that implement
    /// [`Crowd::ask_routed`] beyond the default act on the hints.
    pub fn with_router(mut self, router: QuestionRouter) -> Self {
        self.router = Some(router);
        self
    }

    /// The configured routing policy, if any.
    pub fn router(&self) -> Option<&QuestionRouter> {
        self.router.as_ref()
    }

    /// Registers a session over `table`. The TPO (or world sample) is
    /// built now, so an invalid configuration fails fast.
    pub fn submit(&mut self, table: &UncertainTable, spec: SessionSpec) -> Result<SessionId> {
        self.submit_with_truth(table, spec, None)
    }

    /// Like [`TopKService::submit`], additionally recording
    /// `D(ω_r, T_K)` per step against the given ground-truth top-K.
    pub fn submit_with_truth(
        &mut self,
        table: &UncertainTable,
        spec: SessionSpec,
        truth: Option<&RankList>,
    ) -> Result<SessionId> {
        let mut config = spec.config;
        if let (Some(p), Engine::MonteCarlo(mc)) = (spec.precision, &mut config.engine) {
            mc.precision = p;
        }
        let (pairwise, bounds) = self.table_entry_for(table, config.k);
        let driver = SessionDriver::new_shared(config, table, truth, pairwise, bounds)?;
        let id = self.registry.insert(driver, spec.priority);
        self.scheduler.join(id, spec.priority);
        self.metrics.submitted += 1;
        Ok(id)
    }

    /// At most this many distinct tables keep a cached pairwise matrix;
    /// beyond it the oldest entry is evicted (running sessions keep their
    /// matrix alive through their own `Arc`). Bounds both the memory held
    /// by retired tables and the per-submit equality scan.
    const MAX_PAIRWISE_CACHE: usize = 32;

    /// The shared pairwise matrix and certain/possible top-K bounds for
    /// `(table, k)`, computing both on first use. Bounds for an invalid
    /// depth are not computed (`None`): the driver rejects the config
    /// with its usual error instead.
    fn table_entry_for(
        &mut self,
        table: &UncertainTable,
        k: usize,
    ) -> (Arc<PairwiseMatrix>, Option<Arc<TopKBounds>>) {
        let idx = match self.pairwise_cache.iter().position(|e| &e.table == table) {
            Some(idx) => {
                // Move to the back so eviction is least-recently-used.
                let entry = self.pairwise_cache.remove(idx);
                self.pairwise_cache.push(entry);
                self.pairwise_cache.len() - 1
            }
            None => {
                let pw = Arc::new(PairwiseMatrix::compute(table));
                if self.pairwise_cache.len() >= Self::MAX_PAIRWISE_CACHE {
                    self.pairwise_cache.remove(0);
                }
                self.pairwise_cache.push(TableCacheEntry {
                    table: table.clone(),
                    pairwise: pw,
                    bounds: Vec::new(),
                });
                self.pairwise_cache.len() - 1
            }
        };
        let entry = &mut self.pairwise_cache[idx];
        let pw = Arc::clone(&entry.pairwise);
        if k == 0 || k > table.len() {
            return (pw, None);
        }
        if let Some((_, b)) = entry.bounds.iter().find(|(depth, _)| *depth == k) {
            return (pw, Some(Arc::clone(b)));
        }
        match TopKBounds::from_matrix(&pw, k) {
            Ok(b) => {
                let b = Arc::new(b);
                entry.bounds.push((k, Arc::clone(&b)));
                (pw, Some(b))
            }
            Err(_) => (pw, None),
        }
    }

    /// Distinct tables whose pairwise matrices are cached (observability
    /// for tests and dashboards).
    pub fn pairwise_tables_cached(&self) -> usize {
        self.pairwise_cache.len()
    }

    /// Distinct `(table, k)` certain/possible bound sets currently cached
    /// beside the pairwise matrices.
    pub fn bounds_cached(&self) -> usize {
        self.pairwise_cache.iter().map(|e| e.bounds.len()).sum()
    }

    /// Runs one round: resume, plan, gather, purchase, feed, retire (see
    /// the module docs). Returns what happened; a round over an idle
    /// service is a no-op.
    ///
    /// All lifecycle transitions and metrics happen in the sequential
    /// steps, on the live sessions borrowed once for the round, so the
    /// outcome is independent of the thread count.
    pub fn tick(&mut self) -> RoundOutcome {
        // ctk-allow(det-wall-clock): round-duration metric only; never feeds a decision
        let t0 = Instant::now();
        let mut outcome = RoundOutcome::default();
        let Self {
            crowd,
            cache,
            registry,
            scheduler,
            parked,
            metrics,
            threads,
            router,
            ..
        } = self;

        // Resume: sessions parked on an empty crowd retry before anything
        // new is planned, in id order.
        let mut resumed = std::mem::take(parked);
        resumed.sort_unstable();

        // Plan: parked sessions left the scheduler, so the two sets are
        // disjoint and one borrow covers both.
        let plan = scheduler.plan_round();
        outcome.scheduled = plan.len();
        if plan.is_empty() && resumed.is_empty() {
            return outcome;
        }
        let ids: Vec<SessionId> = resumed.iter().chain(&plan).copied().collect();
        let mut resumed_live = registry.live_mut_in_order(&ids);
        let mut planned_live = resumed_live.split_off(resumed.len());

        // Gather phase (parallel): every planned driver computes its next
        // batch. The allowance is the *session's* remaining budget only —
        // the shared crowd's budget deliberately does not gate emission,
        // because the answer cache can serve a question at zero crowd
        // cost; only questions that actually need a live answer park or
        // starve (per question, in the purchase loop).
        let gathered = run_parallel(&mut planned_live, *threads, |live| {
            let allowance = live.ledger.remaining();
            live.driver.next_batch(allowance)
        });

        // Lifecycle transitions happen here, sequentially, in plan order.
        // When a router is configured, each question is tagged with the
        // hint its session's *current* belief margin implies — before any
        // of this round's answers move the belief.
        let mut ended: Vec<(SessionId, Result<()>)> = Vec::new();
        let mut to_buy: Vec<(SessionId, &mut LiveSession)> =
            resumed.into_iter().zip(resumed_live).collect();
        for ((id, live), batch) in plan.into_iter().zip(planned_live).zip(gathered) {
            match batch {
                Ok(batch) if batch.is_empty() => ended.push((id, Ok(()))),
                Ok(batch) => {
                    let hinted = hint_batch(router.as_ref(), &live.driver, batch);
                    live.begin_batch(hinted);
                    to_buy.push((id, live));
                }
                Err(err) => ended.push((id, Err(err))),
            }
        }

        // Purchase phase (sequential): one crowd walk, resumed sessions
        // first, keeps budget accounting and cache population independent
        // of how the other phases are spread over threads. Parking leaves
        // the scheduler (a resumed session already left).
        // ctk-allow(det-wall-clock): purchase-duration metric only; never feeds a decision
        let p0 = Instant::now();
        let hits_before = metrics.cache_hits;
        let mut to_feed: Vec<(SessionId, &mut LiveSession)> = Vec::with_capacity(to_buy.len());
        for (id, live) in to_buy {
            match resolve_pending(&mut live.pending, &mut live.served, cache, crowd, metrics) {
                Disposition::Parked => {
                    if !live.parked {
                        scheduler.leave(id, live.priority);
                        live.parked = true;
                    }
                    parked.push(id);
                }
                Disposition::Resolved | Disposition::Starved => to_feed.push((id, live)),
            }
        }
        outcome.cache_hits = metrics.cache_hits - hits_before;
        metrics.purchase_time += p0.elapsed();

        // Feed phase (parallel): apply each session's mailbox, each answer
        // with the accuracy it was actually bought at (a cached answer
        // keeps its purchase-time accuracy even if the backend's policy
        // drifted since). Ledger votes count *live* crowd interactions;
        // cache hits consume session budget but no crowd budget.
        let fed = run_parallel(&mut to_feed, *threads, |(_, live)| {
            let served = std::mem::take(&mut live.served);
            for ans in &served {
                live.ledger.record(ans.answer, usize::from(!ans.cached));
            }
            let graded: Vec<_> = served.iter().map(|a| (a.answer, a.accuracy)).collect();
            let status = live.driver.feed_graded(&graded);
            (served.len(), live.requested, status)
        });
        for ((id, live), (served, requested, status)) in to_feed.into_iter().zip(fed) {
            metrics.answers_served += served as u64;
            outcome.answers_served += served as u64;
            if served < requested {
                metrics.starved += 1;
            }
            match status {
                Ok(DriverStatus::Done) => ended.push((id, Ok(()))),
                // A resumed session that stays active rejoins its class.
                Ok(DriverStatus::Active) => {
                    if live.parked {
                        live.parked = false;
                        scheduler.join(id, live.priority);
                    }
                }
                Err(err) => ended.push((id, Err(err))),
            }
        }

        // Retire (sequential), once the round's borrows are released.
        outcome.finished = ended.len();
        for (id, result) in ended {
            registry.settle(id, |live| retire(id, live, result, scheduler, metrics));
        }

        if outcome.progressed() {
            metrics.rounds += 1;
        }
        metrics.serving_time += t0.elapsed();
        outcome
    }

    /// Ticks while rounds make progress. Stops either with every session
    /// done or failed ([`Quiescence::Idle`]) or with a set of sessions
    /// parked on crowd budget that does not exist
    /// ([`Quiescence::BlockedOnCrowd`]) — the caller decides whether to
    /// top the crowd up and keep ticking, or force-starve
    /// ([`TopKService::run_to_completion`]).
    pub fn run_until_quiescent(&mut self) -> Quiescence {
        while self.tick().progressed() {}
        if self.parked.is_empty() {
            Quiescence::Idle
        } else {
            self.parked.sort_unstable();
            Quiescence::BlockedOnCrowd {
                sessions: self.parked.clone(),
            }
        }
    }

    /// Runs until every session is done or failed. Sessions still blocked
    /// on crowd budget at quiescence are force-starved: each one's
    /// unresolved questions are dropped, so the next round's resume phase
    /// delivers the prefix it did resolve — exactly what a crowd refusal
    /// does mid-batch — and its driver winds down and finishes. Returns
    /// the accumulated metrics.
    pub fn run_to_completion(&mut self) -> &ServiceMetrics {
        while let Quiescence::BlockedOnCrowd { sessions } = self.run_until_quiescent() {
            for session in self.registry.live_mut_in_order(&sessions) {
                session.pending.clear();
            }
        }
        &self.metrics
    }

    /// Lifecycle state of a session.
    pub fn state(&self, id: SessionId) -> Option<SessionState> {
        self.registry.get(id).map(SessionEntry::state)
    }

    /// Final report of a `Done` session.
    pub fn report(&self, id: SessionId) -> Option<&UrReport> {
        match self.registry.get(id)? {
            SessionEntry::Done { report, .. } => Some(report),
            _ => None,
        }
    }

    /// Error of a `Failed` session.
    pub fn error(&self, id: SessionId) -> Option<&CoreError> {
        match self.registry.get(id)? {
            SessionEntry::Failed(err) => Some(err),
            _ => None,
        }
    }

    /// Submit-to-done latency of a `Done` session.
    pub fn latency(&self, id: SessionId) -> Option<Duration> {
        match self.registry.get(id)? {
            SessionEntry::Done { latency, .. } => Some(*latency),
            _ => None,
        }
    }

    /// Accumulated service metrics.
    pub fn metrics(&self) -> &ServiceMetrics {
        &self.metrics
    }

    /// The shared crowd backend.
    pub fn crowd(&self) -> &C {
        &self.crowd
    }

    /// The shared answer cache.
    pub fn cache(&self) -> &AnswerCache {
        &self.cache
    }
}

/// The entry a session that ended this round settles into: its report
/// when the driver finished cleanly and `finish` succeeds, its error
/// otherwise. A session still in its scheduler class leaves it.
fn retire(
    id: SessionId,
    session: LiveSession,
    result: Result<()>,
    scheduler: &mut Scheduler,
    metrics: &mut ServiceMetrics,
) -> SessionEntry {
    if !session.parked {
        scheduler.leave(id, session.priority);
    }
    match result.and_then(|()| session.driver.finish()) {
        Ok(report) => {
            metrics.worlds_drawn += report.worlds_drawn as u64;
            metrics.certain_early_stops += u64::from(report.certain_early_stop);
            let latency = session.submitted_at.elapsed();
            metrics.completed += 1;
            metrics.record_latency(latency);
            SessionEntry::Done { report, latency }
        }
        Err(err) => {
            metrics.failed += 1;
            SessionEntry::Failed(err)
        }
    }
}

/// Attaches a [`RouteHint`] to every question of a batch: the hint the
/// session's *current* belief margin implies when a router is
/// configured, [`RouteHint::Any`] otherwise.
fn hint_batch(
    router: Option<&QuestionRouter>,
    driver: &SessionDriver,
    batch: Vec<Question>,
) -> Vec<(Question, RouteHint)> {
    match router {
        Some(r) => batch
            .into_iter()
            .map(|q| {
                let hint = r.hint(driver.question_margin(&q));
                (q, hint)
            })
            .collect(),
        None => batch.into_iter().map(|q| (q, RouteHint::Any)).collect(),
    }
}

/// All available cores (the service's `threads = 0` resolution), read
/// through the workspace's single cached accessor.
fn default_threads() -> usize {
    ctk_prob::compare::available_cores()
}

/// Below this many sessions a parallel phase runs inline: spawning scoped
/// threads costs more than the work they would split.
const PARALLEL_SESSIONS_MIN: usize = 3;

/// Applies `work` to every item, fanning out over at most `threads`
/// scoped worker chunks, and returns the results in item order.
///
/// Determinism argument: `work` runs once per item on disjoint `&mut`
/// state, chunk boundaries only decide *where* an item runs, and results
/// are reassembled by chunk order (= item order). The sequential path is
/// the `threads == 1` special case of the same code shape, so any thread
/// count computes the identical result vector.
fn run_parallel<T: Send, R: Send>(
    items: &mut [T],
    threads: usize,
    work: impl Fn(&mut T) -> R + Sync,
) -> Vec<R> {
    let n = items.len();
    let threads = threads.clamp(1, n.max(1));
    if threads == 1 || n < PARALLEL_SESSIONS_MIN {
        return items.iter_mut().map(&work).collect();
    }
    let chunk = n.div_ceil(threads);
    let work = &work;
    // ctk-allow(det-thread-spawn): disjoint pre-chunked slices; merge happens sequentially in plan order
    std::thread::scope(|s| {
        let handles: Vec<_> = items
            .chunks_mut(chunk)
            .map(|c| s.spawn(move || c.iter_mut().map(work).collect::<Vec<R>>()))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| match h.join() {
                Ok(results) => results,
                Err(payload) => std::panic::resume_unwind(payload),
            })
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctk_core::measures::MeasureKind;
    use ctk_core::session::{Algorithm, SessionConfig, UrSession};
    use ctk_crowd::{CrowdSimulator, GroundTruth, PerfectWorker, VotePolicy};
    use ctk_prob::ScoreDist;
    use ctk_tpo::build::{Engine, McConfig};

    fn table() -> UncertainTable {
        UncertainTable::new(
            (0..7)
                .map(|i| ScoreDist::uniform_centered(i as f64 * 0.12, 0.4).unwrap())
                .collect(),
        )
        .unwrap()
    }

    fn config(algorithm: Algorithm, seed: u64) -> SessionConfig {
        SessionConfig {
            k: 3,
            budget: 6,
            measure: MeasureKind::WeightedEntropy,
            algorithm,
            engine: Engine::MonteCarlo(McConfig::fixed(2000, 7)),
            seed,
            uncertainty_target: None,
        }
    }

    fn service(budget: usize) -> TopKService<CrowdSimulator<PerfectWorker>> {
        let truth = GroundTruth::sample(&table(), 99);
        TopKService::new(
            CrowdSimulator::new(truth, PerfectWorker, VotePolicy::Single, budget)
                .expect("valid vote policy"),
        )
    }

    #[test]
    fn lifecycle_reaches_done() {
        let mut svc = service(1000);
        let id = svc
            .submit(&table(), SessionSpec::new(config(Algorithm::T1On, 0)))
            .unwrap();
        assert_eq!(svc.state(id), Some(SessionState::Queued));
        assert!(svc.report(id).is_none());
        svc.run_to_completion();
        assert_eq!(svc.state(id), Some(SessionState::Done));
        let report = svc.report(id).unwrap();
        assert!(report.questions_asked() > 0);
        assert_eq!(svc.metrics().completed, 1);
        assert_eq!(svc.metrics().failed, 0);
        assert!(svc.latency(id).is_some());
        assert!(svc.parked.is_empty());
        assert_eq!(
            svc.scheduler.entries(),
            0,
            "a finished session leaves no entry"
        );
    }

    #[test]
    fn invalid_config_fails_at_submit() {
        let mut svc = service(100);
        let mut bad = config(Algorithm::T1On, 0);
        bad.k = 100;
        assert!(svc.submit(&table(), SessionSpec::new(bad)).is_err());
        assert_eq!(svc.metrics().submitted, 0);
    }

    #[test]
    fn identical_tenants_share_crowd_answers() {
        let mut svc = service(1000);
        let a = svc
            .submit(&table(), SessionSpec::new(config(Algorithm::TbOff, 1)))
            .unwrap();
        let b = svc
            .submit(&table(), SessionSpec::new(config(Algorithm::TbOff, 1)))
            .unwrap();
        svc.run_to_completion();
        let (ra, rb) = (svc.report(a).unwrap(), svc.report(b).unwrap());
        assert!(ra.same_outcome(rb));
        assert!(svc.metrics().cache_hits > 0, "dedup must kick in");
        // The cache paid for half the questions.
        assert!(svc.metrics().crowd_questions < svc.metrics().answers_served);
    }

    #[test]
    fn starved_sessions_still_complete() {
        // Crowd can only afford 3 questions for two 6-question tenants
        // asking different things (different algorithms/seeds).
        let mut svc = service(3).with_fanout(1);
        let a = svc
            .submit(&table(), SessionSpec::new(config(Algorithm::T1On, 0)))
            .unwrap();
        let b = svc
            .submit(&table(), SessionSpec::new(config(Algorithm::Random, 5)))
            .unwrap();
        svc.run_to_completion();
        assert_eq!(svc.state(a), Some(SessionState::Done));
        assert_eq!(svc.state(b), Some(SessionState::Done));
        let asked: usize = [a, b]
            .iter()
            .map(|id| svc.report(*id).unwrap().questions_asked())
            .sum();
        // Every answer served reached a report, and the crowd was spent to
        // its last unit: live asks can neither exceed nor strand the
        // budget while sessions still want answers.
        assert_eq!(asked as u64, svc.metrics().answers_served);
        assert_eq!(svc.metrics().crowd_questions, 3);
        assert_eq!(svc.metrics().completed, 2);
        assert!(svc.parked.is_empty());
        assert_eq!(svc.scheduler.entries(), 0);
    }

    #[test]
    fn cache_rescues_sessions_after_crowd_exhaustion() {
        // Regression: the shared crowd affords exactly one tenant's
        // budget. Tenant A spends it all; identical tenant B must still
        // complete its FULL session from the cache — an exhausted crowd
        // must not gate questions the cache can answer for free.
        let mut svc = service(6).with_fanout(1);
        let cfg = config(Algorithm::TbOff, 1);
        let a = svc.submit(&table(), SessionSpec::new(cfg.clone())).unwrap();
        let b = svc.submit(&table(), SessionSpec::new(cfg.clone())).unwrap();
        svc.run_to_completion();
        assert_eq!(svc.state(a), Some(SessionState::Done));
        assert_eq!(svc.state(b), Some(SessionState::Done));
        let (ra, rb) = (svc.report(a).unwrap(), svc.report(b).unwrap());
        assert!(
            rb.questions_asked() == ra.questions_asked() && rb.same_outcome(ra),
            "tenant B must ride the cache to a full run: A {} steps, B {} steps",
            ra.questions_asked(),
            rb.questions_asked()
        );
        assert_eq!(
            svc.metrics().crowd_questions,
            ra.questions_asked() as u64,
            "only A's run spends crowd budget"
        );
        assert_eq!(svc.metrics().cache_hits, rb.questions_asked() as u64);
        // And B equals its standalone run, preserving losslessness.
        let truth = GroundTruth::sample(&table(), 99);
        let mut own = CrowdSimulator::new(truth, PerfectWorker, VotePolicy::Single, 6)
            .expect("valid vote policy");
        let standalone = UrSession::new(cfg)
            .unwrap()
            .run(&table(), &mut own)
            .unwrap();
        assert!(rb.same_outcome(&standalone));
    }

    #[test]
    fn priorities_finish_first_under_bounded_fanout() {
        let mut svc = service(1000).with_fanout(1);
        let low = svc
            .submit(
                &table(),
                SessionSpec::new(config(Algorithm::T1On, 0)).with_priority(0),
            )
            .unwrap();
        let high = svc
            .submit(
                &table(),
                SessionSpec::new(config(Algorithm::T1On, 1)).with_priority(9),
            )
            .unwrap();
        // Tick until one finishes: it must be the high-priority one.
        loop {
            svc.tick();
            let done_high = svc.state(high) == Some(SessionState::Done);
            let done_low = svc.state(low) == Some(SessionState::Done);
            if done_high || done_low {
                assert!(done_high, "high priority must finish first");
                break;
            }
        }
        svc.run_to_completion();
        assert_eq!(svc.metrics().completed, 2);
    }

    #[test]
    fn pairwise_matrix_shared_across_tenants_per_table() {
        let mut svc = service(1000);
        let t = table();
        svc.submit(&t, SessionSpec::new(config(Algorithm::T1On, 0)))
            .unwrap();
        svc.submit(&t, SessionSpec::new(config(Algorithm::TbOff, 1)))
            .unwrap();
        assert_eq!(svc.pairwise_tables_cached(), 1, "same table, one matrix");
        let other = UncertainTable::new(
            (0..4)
                .map(|i| ScoreDist::uniform_centered(i as f64 * 0.2, 0.5).unwrap())
                .collect(),
        )
        .unwrap();
        svc.submit(&other, SessionSpec::new(config(Algorithm::T1On, 2)))
            .unwrap();
        assert_eq!(svc.pairwise_tables_cached(), 2, "new table, new matrix");
        svc.run_to_completion();
        assert_eq!(svc.metrics().completed, 3);
    }

    #[test]
    fn pairwise_cache_is_bounded_lru() {
        let mut svc = service(1000);
        let distinct = TopKService::<CrowdSimulator<PerfectWorker>>::MAX_PAIRWISE_CACHE + 3;
        for d in 0..distinct {
            let t = UncertainTable::new(
                (0..4)
                    .map(|i| {
                        ScoreDist::uniform_centered(i as f64 * 0.2 + d as f64 * 1e-3, 0.5).unwrap()
                    })
                    .collect(),
            )
            .unwrap();
            svc.submit(&t, SessionSpec::new(config(Algorithm::T1On, d as u64)))
                .unwrap();
        }
        assert_eq!(
            svc.pairwise_tables_cached(),
            TopKService::<CrowdSimulator<PerfectWorker>>::MAX_PAIRWISE_CACHE,
            "cache must evict beyond its bound"
        );
        svc.run_to_completion();
        assert_eq!(svc.metrics().completed, distinct as u64);
    }

    #[test]
    fn per_tenant_precision_override_and_bounds_cache() {
        use ctk_tpo::PrecisionTarget;
        // A staircase with disjoint supports: the certain bounds pin the
        // whole top-3 prefix, so adaptive tenants stop at zero worlds and
        // zero questions while fixed-budget tenants still sample.
        let decided = UncertainTable::new(
            (0..5)
                .map(|i| ScoreDist::uniform_centered(i as f64, 0.1).unwrap())
                .collect(),
        )
        .unwrap();
        let mut svc = service(1000);
        let spec = SessionSpec::new(config(Algorithm::T1On, 0)).with_precision(
            PrecisionTarget::Adaptive {
                epsilon: 0.02,
                delta: 0.05,
            },
        );
        let a = svc.submit(&decided, spec.clone()).unwrap();
        let b = svc.submit(&decided, spec).unwrap();
        assert_eq!(svc.bounds_cached(), 1, "same (table, k): one bound set");
        svc.run_to_completion();
        for id in [a, b] {
            let r = svc.report(id).unwrap();
            assert!(r.certain_early_stop, "decided table must pin the prefix");
            assert_eq!(r.worlds_drawn, 0);
            assert_eq!(r.questions_asked(), 0);
            assert_eq!(r.final_topk, vec![4, 3, 2]);
        }
        assert_eq!(svc.metrics().certain_early_stops, 2);
        assert_eq!(svc.metrics().worlds_drawn, 0);
        assert!(svc.metrics().summary().contains("certain early stops"));
        // A fixed-budget tenant (no override) still draws its configured
        // worlds, and a new depth on the same table adds a bound set.
        let c = svc
            .submit(&table(), SessionSpec::new(config(Algorithm::T1On, 0)))
            .unwrap();
        svc.run_to_completion();
        assert_eq!(svc.report(c).unwrap().worlds_drawn, 2000);
        assert!(!svc.report(c).unwrap().certain_early_stop);
        assert_eq!(svc.metrics().worlds_drawn, 2000);
        assert_eq!(svc.bounds_cached(), 2, "second table, second bound set");
    }

    #[test]
    fn idle_tick_is_a_noop() {
        let mut svc = service(10);
        let outcome = svc.tick();
        assert!(!outcome.progressed());
        assert_eq!(svc.metrics().rounds, 0);
    }

    #[test]
    fn services_are_send() {
        // Benches run whole services on spawned threads; the parallel phases
        // move `&mut SessionEntry`s into scoped workers. Both require the
        // service (and thus crowd + drivers) to be `Send` at compile time.
        fn assert_send<T: Send>() {}
        assert_send::<TopKService<CrowdSimulator<PerfectWorker>>>();
    }

    /// One tenant per algorithm family, repeated so some tenants collide
    /// on the answer cache.
    fn mixed_algorithms() -> [Algorithm; 8] {
        [
            Algorithm::T1On,
            Algorithm::TbOff,
            Algorithm::Random,
            Algorithm::COff,
            Algorithm::Incr {
                questions_per_round: 2,
            },
            Algorithm::Naive,
            Algorithm::T1On,
            Algorithm::TbOff,
        ]
    }

    #[test]
    fn reports_bit_identical_across_worker_threads() {
        // The worker thread count must be invisible in the results: the
        // same mixed-tenant workload (bounded fanout, mixed priorities,
        // every algorithm family) produces bit-identical per-tenant
        // reports at 1, 2 and 4 worker threads.
        let algorithms = mixed_algorithms();
        let run = |threads: usize| {
            let mut svc = service(1000).with_fanout(3).with_threads(threads);
            let ids: Vec<_> = algorithms
                .iter()
                .enumerate()
                .map(|(t, alg)| {
                    let spec = SessionSpec::new(config(alg.clone(), t as u64))
                        .with_priority((t % 3) as u8);
                    svc.submit(&table(), spec).unwrap()
                })
                .collect();
            svc.run_to_completion();
            assert_eq!(svc.metrics().completed as usize, algorithms.len());
            ids.into_iter()
                .map(|id| svc.report(id).unwrap().clone())
                .collect::<Vec<_>>()
        };
        let sequential = run(1);
        for threads in [2usize, 4] {
            let parallel = run(threads);
            for (tenant, (a, b)) in sequential.iter().zip(&parallel).enumerate() {
                assert!(
                    a.same_outcome(b),
                    "tenant {tenant} diverged between 1 and {threads} worker threads"
                );
            }
        }
    }

    #[test]
    fn starved_event_service_blocks_then_completes() {
        // The livelock regression: with the crowd able to afford 3 of the
        // ~12 demanded questions, quiescence must report the parked
        // sessions as blocked on the crowd — and ticking a blocked
        // service must NOT count as progress. run_to_completion then
        // force-starves them to Done.
        let mut svc = service(3);
        let a = svc
            .submit(&table(), SessionSpec::new(config(Algorithm::T1On, 0)))
            .unwrap();
        let b = svc
            .submit(&table(), SessionSpec::new(config(Algorithm::Random, 5)))
            .unwrap();
        match svc.run_until_quiescent() {
            Quiescence::BlockedOnCrowd { sessions } => {
                assert!(!sessions.is_empty(), "someone must be parked");
                for id in &sessions {
                    assert_eq!(svc.state(*id), Some(SessionState::AwaitingBudget));
                }
            }
            Quiescence::Idle => panic!("a starved crowd must block, not idle"),
        }
        assert!(!svc.tick().progressed(), "blocked rounds must not spin");
        assert!(!svc.tick().progressed(), "…no matter how often ticked");
        svc.run_to_completion();
        assert_eq!(svc.state(a), Some(SessionState::Done));
        assert_eq!(svc.state(b), Some(SessionState::Done));
        assert!(svc.metrics().crowd_questions <= 3);
        assert!(
            svc.metrics().starved >= 1,
            "the cut batches count as starved"
        );
        assert_eq!(svc.metrics().completed, 2);
        assert!(svc.parked.is_empty(), "force-starved sessions unpark");
        assert_eq!(svc.scheduler.entries(), 0, "and leave no queue entry");
    }

    #[test]
    fn threaded_starvation_blocks_the_same_sessions_as_event() {
        // Crowd starvation across worker threads: the 2-thread run must
        // diagnose BlockedOnCrowd with exactly the session set the
        // 1-thread run reports, and force-starved completion must agree.
        let run = |threads: usize| {
            let mut svc = service(3).with_threads(threads);
            let ids: Vec<_> = (0..4)
                .map(|t| {
                    svc.submit(&table(), SessionSpec::new(config(Algorithm::Random, t)))
                        .unwrap()
                })
                .collect();
            let blocked = match svc.run_until_quiescent() {
                Quiescence::BlockedOnCrowd { mut sessions } => {
                    sessions.sort_unstable();
                    sessions
                }
                Quiescence::Idle => panic!("a starved crowd must block, not idle"),
            };
            svc.run_to_completion();
            let reports: Vec<_> = ids.iter().map(|id| svc.report(*id).cloned()).collect();
            (blocked, reports, svc.metrics().starved)
        };
        let (blocked_1, reports_1, starved_1) = run(1);
        let (blocked_2, reports_2, starved_2) = run(2);
        assert!(!blocked_1.is_empty(), "someone must be parked");
        assert_eq!(blocked_1, blocked_2, "blocked session sets must agree");
        assert_eq!(starved_1, starved_2);
        for (tenant, (a, b)) in reports_1.iter().zip(&reports_2).enumerate() {
            match (a, b) {
                (Some(a), Some(b)) => assert!(
                    a.same_outcome(b),
                    "tenant {tenant} diverged between 1 and 2 worker threads"
                ),
                _ => panic!("tenant {tenant} missing a report"),
            }
        }
    }

    #[test]
    fn accounting_reconciles_with_the_crowd_ledger() {
        // The service's counters must reconcile exactly with each other
        // and with the crowd's own ledger.
        let mut svc = service(1000);
        let ids: Vec<_> = (0..6)
            .map(|t| {
                svc.submit(&table(), SessionSpec::new(config(Algorithm::T1On, t)))
                    .unwrap()
            })
            .collect();
        svc.run_to_completion();
        for id in &ids {
            assert_eq!(svc.state(*id), Some(SessionState::Done));
        }
        let m = svc.metrics();
        assert_eq!(m.completed, 6);
        assert_eq!(m.crowd_questions, svc.crowd().ledger().asked() as u64);
        assert_eq!(m.crowd_questions + m.cache_hits, m.answers_served);
    }

    #[test]
    fn foreign_ids_look_up_nothing() {
        // Ids are slots: an id minted by a larger service names no
        // session here, and every public lookup says so.
        let mut big = service(10);
        let foreign = (0..3)
            .map(|t| {
                big.submit(&table(), SessionSpec::new(config(Algorithm::T1On, t)))
                    .unwrap()
            })
            .last()
            .unwrap();
        let mut small = service(10);
        let own = small
            .submit(&table(), SessionSpec::new(config(Algorithm::T1On, 0)))
            .unwrap();
        small.run_to_completion();
        assert!(small.report(own).is_some());
        assert_eq!(small.state(foreign), None);
        assert!(small.report(foreign).is_none());
        assert!(small.error(foreign).is_none());
        assert_eq!(small.latency(foreign), None);
    }

    /// A crowd that lies about one pair: the first pair it is asked, and
    /// every later ask of it, comes back with a NaN accuracy or as an
    /// answer about a different pair. Every other ask is honest.
    struct LyingCrowd {
        inner: CrowdSimulator<PerfectWorker>,
        wrong_pair: bool,
        bad: Option<ctk_crowd::Question>,
        lying: bool,
    }

    impl Crowd for LyingCrowd {
        fn ask(&mut self, q: ctk_crowd::Question) -> Option<ctk_crowd::Answer> {
            let bad = *self.bad.get_or_insert(q.canonical());
            let ans = self.inner.ask(q)?;
            self.lying = q.canonical() == bad;
            if self.lying && self.wrong_pair {
                let decoy = [(5, 6), (4, 6)]
                    .map(|(i, j)| ctk_crowd::Question::new(i, j))
                    .into_iter()
                    .find(|d| d.canonical() != bad)
                    .expect("two distinct decoys");
                return Some(ctk_crowd::Answer {
                    question: decoy,
                    ..ans
                });
            }
            Some(ans)
        }
        fn remaining(&self) -> usize {
            self.inner.remaining()
        }
        fn answer_accuracy(&self) -> f64 {
            if self.lying && !self.wrong_pair {
                f64::NAN
            } else {
                1.0
            }
        }
        fn history(&self) -> &[ctk_crowd::Answer] {
            self.inner.history()
        }
    }

    #[test]
    fn invalid_answers_are_neither_cached_nor_served() {
        for wrong_pair in [false, true] {
            let truth = GroundTruth::sample(&table(), 99);
            let crowd = LyingCrowd {
                inner: CrowdSimulator::new(truth, PerfectWorker, VotePolicy::Single, 1000)
                    .expect("valid vote policy"),
                wrong_pair,
                bad: None,
                lying: false,
            };
            // Fanout 1 serializes two identical tenants: the second asks
            // the poisoned pair only after the first was refused it.
            let mut svc = TopKService::new(crowd).with_fanout(1);
            let cfg = config(Algorithm::TbOff, 1);
            let a = svc.submit(&table(), SessionSpec::new(cfg.clone())).unwrap();
            let b = svc.submit(&table(), SessionSpec::new(cfg)).unwrap();
            svc.run_to_completion();
            let bad = svc.crowd().bad.expect("the crowd was asked");
            assert!(
                svc.cache().clone().get(bad).is_none(),
                "the poisoned pair must not be cached (wrong_pair = {wrong_pair})"
            );
            for id in [a, b] {
                assert_eq!(svc.state(id), Some(SessionState::Done));
                let report = svc.report(id).unwrap();
                assert!(
                    report.steps.iter().all(|st| st.question.canonical() != bad),
                    "no tenant may be served the poisoned pair"
                );
            }
            let m = svc.metrics();
            assert_eq!(m.invalid_answers, 2, "each tenant asked it live once");
            assert_eq!(m.starved, 2, "each invalid answer cut a batch");
            assert!(m.summary().contains("2 invalid"));
        }
    }

    /// A crowd whose answer accuracy drifts between rounds — the scenario
    /// that distinguishes per-answer accuracy plumbing from a scalar: a
    /// cached answer must be replayed at its *purchase-time* accuracy
    /// while fresh answers in the same batch carry the current one.
    struct DriftingCrowd {
        inner: CrowdSimulator<PerfectWorker>,
        accuracies: Vec<f64>,
        asked: usize,
    }

    impl Crowd for DriftingCrowd {
        fn ask(&mut self, q: ctk_crowd::Question) -> Option<ctk_crowd::Answer> {
            let ans = self.inner.ask(q)?;
            self.asked += 1;
            Some(ans)
        }
        fn remaining(&self) -> usize {
            self.inner.remaining()
        }
        fn answer_accuracy(&self) -> f64 {
            // Accuracy of the most recent purchase (the batcher reads it
            // right after `ask`): question #k was bought at accuracy[k-1].
            let k = self.asked.saturating_sub(1);
            self.accuracies[k.min(self.accuracies.len() - 1)]
        }
        fn history(&self) -> &[ctk_crowd::Answer] {
            self.inner.history()
        }
    }

    #[test]
    fn cached_answers_replay_their_purchase_time_accuracy() {
        // Tenant A buys its answers while the crowd advertises 0.9; by
        // the time tenant B runs, the policy has drifted to 0.7. B's
        // cache hits must be graded 0.9 (what they were bought at) and
        // only genuinely fresh purchases graded at the drifted accuracy.
        let table = table();
        let truth = GroundTruth::sample(&table, 99);
        let a_cfg = config(Algorithm::TbOff, 1);
        let mut b_cfg = config(Algorithm::TbOff, 1);
        b_cfg.budget = a_cfg.budget + 2; // B outruns the cache at the end
        let accuracies: Vec<f64> = (0..a_cfg.budget)
            .map(|_| 0.9)
            .chain(std::iter::repeat(0.7))
            .take(a_cfg.budget + 16)
            .collect();
        let crowd = DriftingCrowd {
            inner: CrowdSimulator::new(truth.clone(), PerfectWorker, VotePolicy::Single, 1000)
                .expect("valid vote policy"),
            accuracies,
            asked: 0,
        };
        // Fanout 1 serializes the tenants: A completes (buying at 0.9)
        // before B asks anything.
        let mut svc = TopKService::new(crowd).with_fanout(1);
        let a = svc.submit(&table, SessionSpec::new(a_cfg.clone())).unwrap();
        let b = svc.submit(&table, SessionSpec::new(b_cfg.clone())).unwrap();
        svc.run_to_completion();
        assert_eq!(svc.state(a), Some(SessionState::Done));
        assert_eq!(svc.state(b), Some(SessionState::Done));
        assert!(svc.metrics().cache_hits > 0, "B must hit A's answers");
        let served_b = svc.report(b).unwrap();

        // Reference: drive B's config by hand, grading each answer with
        // the accuracy the service should have used — purchase-time for
        // answers A already bought, drifted for fresh ones.
        let bought: std::collections::HashSet<_> = svc
            .crowd()
            .history()
            .iter()
            .take(svc.report(a).unwrap().questions_asked())
            .map(|ans| ans.question.canonical())
            .collect();
        let mut reference = SessionDriver::new(b_cfg.clone(), &table, None).expect("valid config");
        let mut oracle = CrowdSimulator::new(truth, PerfectWorker, VotePolicy::Single, 1000)
            .expect("valid vote policy");
        loop {
            let batch = reference.next_batch(usize::MAX).unwrap();
            if batch.is_empty() {
                break;
            }
            let graded: Vec<_> = batch
                .iter()
                .map(|q| {
                    let accuracy = if bought.contains(&q.canonical()) {
                        0.9
                    } else {
                        0.7
                    };
                    (oracle.ask(*q).unwrap(), accuracy)
                })
                .collect();
            if reference.feed_graded(&graded).unwrap() == DriverStatus::Done {
                break;
            }
        }
        let expected = reference.finish().unwrap();
        assert!(
            served_b.same_outcome(&expected),
            "B must mix purchase-time (0.9) and drifted (0.7) accuracies"
        );

        // And the scalar-accuracy grading would have produced a different
        // belief trajectory — the distinction this test exists to pin.
        let mut uniform = SessionDriver::new(b_cfg, &table, None).unwrap();
        let mut oracle2 = CrowdSimulator::new(
            GroundTruth::sample(&table, 99),
            PerfectWorker,
            VotePolicy::Single,
            1000,
        )
        .expect("valid vote policy");
        loop {
            let batch = uniform.next_batch(usize::MAX).unwrap();
            if batch.is_empty() {
                break;
            }
            let answers: Vec<_> = batch.iter().map(|q| oracle2.ask(*q).unwrap()).collect();
            if uniform.feed(&answers, 0.7).unwrap() == DriverStatus::Done {
                break;
            }
        }
        let flattened = uniform.finish().unwrap();
        assert!(
            !served_b.same_outcome(&flattened),
            "uniform 0.7 grading must be distinguishable, or the test is vacuous"
        );
    }

    #[test]
    fn routing_is_invisible_to_hint_blind_crowds() {
        // The plain simulator ignores hints (trait default), so a routed
        // service must produce bit-identical reports to an unrouted one —
        // routing only annotates, the backend decides whether to act.
        let run = |router: Option<QuestionRouter>| {
            let mut svc = service(1000);
            if let Some(r) = router {
                svc = svc.with_router(r);
            }
            let a = svc
                .submit(&table(), SessionSpec::new(config(Algorithm::T1On, 0)))
                .unwrap();
            let b = svc
                .submit(&table(), SessionSpec::new(config(Algorithm::TbOff, 1)))
                .unwrap();
            svc.run_to_completion();
            let reports = vec![
                svc.report(a).unwrap().clone(),
                svc.report(b).unwrap().clone(),
            ];
            (reports, svc.metrics().clone())
        };
        let (plain, plain_m) = run(None);
        // Thresholds (1, 1): every live question is hinted — sub-certain
        // margins go Expert, fully settled pairs Cheap — so the counter
        // arithmetic is exact: expert + cheap = live questions.
        let (routed, routed_m) = run(Some(QuestionRouter::new(1.0, 1.0).unwrap()));
        for (t, (x, y)) in plain.iter().zip(&routed).enumerate() {
            assert!(x.same_outcome(y), "tenant {t} diverged under routing");
        }
        assert_eq!(plain_m.routed_expert + plain_m.routed_cheap, 0);
        assert_eq!(
            routed_m.routed_expert + routed_m.routed_cheap,
            routed_m.crowd_questions,
            "with thresholds (1,1) every live ask carries a hint"
        );
        assert!(routed_m.routed_expert > 0, "uncertain pairs must exist");
        assert!(routed_m.summary().contains("expert"));
    }

    #[test]
    fn routed_service_completes_on_a_quality_crowd() {
        use ctk_quality::{QualityConfig, QualityCrowd, WorkerSpec};
        // End-to-end: a hint-aware quality crowd (cheap spammers, pricey
        // experts) behind the router. The session must complete, spend
        // live budget, and have its wide-margin questions routed cheap.
        let specs = vec![
            WorkerSpec::new(0.97).with_cost(5),
            WorkerSpec::new(0.95).with_cost(5),
            WorkerSpec::new(0.9).with_cost(5),
            WorkerSpec::new(0.55),
            WorkerSpec::new(0.55),
            WorkerSpec::new(0.5),
        ];
        let truth = GroundTruth::sample(&table(), 99);
        let crowd = QualityCrowd::new(truth, &specs, QualityConfig::weighted(3), 10_000, 13)
            .expect("valid roster");
        // Thresholds (0.5, 0.5): an empty Any band, so every live ask is
        // decisively routed and the counter assertion below is exact.
        let mut svc = TopKService::new(crowd).with_router(QuestionRouter::new(0.5, 0.5).unwrap());
        let id = svc
            .submit(&table(), SessionSpec::new(config(Algorithm::T1On, 3)))
            .unwrap();
        svc.run_to_completion();
        assert_eq!(svc.state(id), Some(SessionState::Done));
        assert!(svc.crowd().asked() > 0, "live questions were purchased");
        assert_eq!(
            svc.metrics().crowd_questions,
            svc.crowd().asked(),
            "service accounting must match the backend's"
        );
        assert_eq!(
            svc.metrics().routed_cheap + svc.metrics().routed_expert,
            svc.metrics().crowd_questions,
            "an empty Any band routes every live ask decisively"
        );
    }
}

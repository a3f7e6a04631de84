//! The serving loop: multiplexes many
//! [`SessionDriver`](ctk_core::driver::SessionDriver)s over one shared
//! crowd backend through one phase-structured round,
//! [`TopKService::tick`] (DESIGN.md §14).
//!
//! The service owns one session table (the registry, where a session's id
//! is its slot and its entry is `Live`, `Done` or `Failed`), one
//! scheduler, the list of sessions parked on crowd budget, and one answer
//! cache. The crowd and the cache are the only state shared
//! across sessions, and only the sequential purchase phase touches them.
//!
//! One round runs six phases:
//!
//! 1. **resume** — take the parked list: sessions that met an empty crowd
//!    in an earlier round retry their unresolved tail;
//! 2. **plan** — the scheduler picks from its round-robin queue, which
//!    sessions join and leave on their own transitions;
//! 3. **gather** (parallel: the calling thread and scoped helpers claim
//!    one session at a time, heaviest selector step first) — every
//!    planned driver emits its next question batch;
//! 4. **purchase** (sequential) — one walk, resumed sessions first (in id
//!    order) and planned ones second (in plan order), through the single
//!    cache-first purchase loop (`resolve_pending`). A cache miss on a
//!    crowd with no budget left parks the session `AwaitingBudget`; a
//!    refused or invalid answer cuts its batch;
//! 5. **feed** (parallel, claimed the same way, longest mailbox first) —
//!    each resolved session's mailbox goes to its driver;
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
use crate::tables::TableCache;
use ctk_core::driver::DriverStatus;
use ctk_core::session::{Algorithm, UrReport};
use ctk_core::{CoreError, Result};
use ctk_crowd::Crowd;
use ctk_prob::UncertainTable;
use ctk_rank::RankList;
use std::cmp::Reverse;
use std::sync::{Mutex, PoisonError};
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
    /// Per-table state shared by the sessions over a table: the
    /// pairwise matrix, the certain/possible top-K bounds per depth, and
    /// the initial beliefs of repeated `(table, k, engine)` submits (see
    /// [`crate::tables`]).
    tables: TableCache,
    /// Set by [`TopKService::run_to_completion`] at quiescence: the next
    /// resume phase feeds every parked session its served prefix instead
    /// of retrying the crowd, and clears the flag.
    starve_parked: bool,
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
            cache: AnswerCache::default(),
            registry: Registry::default(),
            scheduler: Scheduler::default(),
            parked: Vec::new(),
            metrics,
            threads,
            tables: TableCache::default(),
            starve_parked: false,
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

    /// Registers a session over `table`. The TPO (or world sample) is
    /// built now, so an invalid configuration fails fast; a session whose
    /// `(table, k, engine)` was submitted before may start from a copy of
    /// the stored belief instead, and a Monte-Carlo `incr` session from
    /// its shared world sample (DESIGN.md §8).
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
        let driver = self
            .tables
            .driver(table, spec.config, truth, &mut self.metrics)?;
        let id = self.registry.insert(driver);
        self.scheduler.join(id);
        self.metrics.submitted += 1;
        Ok(id)
    }

    /// Distinct `(table, k, engine)` initial beliefs currently stored
    /// beside the pairwise matrices.
    pub fn beliefs_cached(&self) -> usize {
        self.tables.beliefs()
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
            starve_parked,
            ..
        } = self;

        // Resume: sessions parked on an empty crowd retry before anything
        // new is planned, in id order — or, force-starved, go straight to
        // the feed with the prefix they have.
        let mut resumed = std::mem::take(parked);
        resumed.sort_unstable();
        let starve = std::mem::take(starve_parked);

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
        // batch. The service sets no allowance (`usize::MAX`), so the
        // driver's own unspent budget is the only bound — the shared
        // crowd's budget deliberately does not gate emission, because the
        // answer cache can serve a question at zero crowd cost; only
        // questions that actually need a live answer park or starve (per
        // question, in the purchase loop).
        // ctk-allow(det-wall-clock): gather-duration metric only; never feeds a decision
        let g0 = Instant::now();
        let (gathered, busy) = run_parallel(
            &mut planned_live,
            *threads,
            |live| gather_cost(live),
            |live| {
                let reused = live.driver.first_pick_reused();
                live.driver
                    .next_batch(usize::MAX)
                    .map(|batch| (batch.is_empty(), !reused && live.driver.first_pick_reused()))
            },
        );
        metrics.gather_busy += busy;
        metrics.gather_time += g0.elapsed();

        // Lifecycle transitions happen here, sequentially, in plan order;
        // an empty batch means the driver is done. A batch whose first
        // selection was copied from a stored first pick is counted.
        let mut ended: Vec<(SessionId, Result<()>)> = Vec::new();
        let mut to_buy: Vec<(SessionId, &mut LiveSession)> =
            resumed.into_iter().zip(resumed_live).collect();
        for ((id, live), batch) in plan.into_iter().zip(planned_live).zip(gathered) {
            match batch {
                Ok((empty, reused)) => {
                    metrics.first_picks_reused += u64::from(reused);
                    if empty {
                        ended.push((id, Ok(())));
                    } else {
                        to_buy.push((id, live));
                    }
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
            let disposition = if starve && live.parked {
                Disposition::Starved
            } else {
                let LiveSession { driver, served, .. } = &mut *live;
                let tail = driver.outstanding_questions().skip(served.len());
                resolve_pending(tail, served, cache, crowd, metrics)
            };
            match disposition {
                Disposition::Parked => {
                    if !live.parked {
                        scheduler.leave(id);
                        live.parked = true;
                    }
                    parked.push(id);
                }
                Disposition::Resolved | Disposition::Starved => to_feed.push((id, live)),
            }
        }
        outcome.cache_hits = metrics.cache_hits - hits_before;
        metrics.purchase_time += p0.elapsed();

        // Feed phase (parallel): the mailbox goes to the driver, each
        // answer with the accuracy it was actually bought at (a cached
        // answer keeps its purchase-time accuracy even if the backend's
        // policy drifted since). Fewer answers than outstanding questions
        // is a starved batch. A longer mailbox is more updates to apply,
        // so it is claimed first.
        // ctk-allow(det-wall-clock): feed-duration metric only; never feeds a decision
        let f0 = Instant::now();
        let feed_cost = |(_, live): &(SessionId, &mut LiveSession)| {
            u32::try_from(live.served.len()).unwrap_or(u32::MAX)
        };
        let (fed, busy) = run_parallel(&mut to_feed, *threads, feed_cost, |(_, live)| {
            let served = live.served.len();
            let starved = served < live.driver.outstanding();
            let status = live.driver.feed_graded(&live.served);
            live.served.clear();
            #[cfg(feature = "debug-invariants")]
            assert!(
                live.driver.questions_asked() <= live.driver.config().budget,
                "session overspent: {} answers on a budget of {}",
                live.driver.questions_asked(),
                live.driver.config().budget
            );
            (served, starved, status)
        });
        metrics.feed_busy += busy;
        metrics.feed_time += f0.elapsed();
        for ((id, live), (served, starved, status)) in to_feed.into_iter().zip(fed) {
            metrics.answers_served += served as u64;
            outcome.answers_served += served as u64;
            if starved {
                metrics.starved += 1;
            }
            match status {
                Ok(DriverStatus::Done) => ended.push((id, Ok(()))),
                // A resumed session that stays active rejoins the queue.
                Ok(DriverStatus::Active) => {
                    if live.parked {
                        live.parked = false;
                        scheduler.join(id);
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
    /// on crowd budget at quiescence are force-starved: the next round's
    /// resume phase delivers each one the prefix it did resolve instead
    /// of retrying the crowd — exactly what a crowd refusal does
    /// mid-batch — and its driver winds down and finishes. Returns the
    /// accumulated metrics.
    pub fn run_to_completion(&mut self) -> &ServiceMetrics {
        while let Quiescence::BlockedOnCrowd { .. } = self.run_until_quiescent() {
            self.starve_parked = true;
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
}

/// The entry a session that ended this round settles into: its report
/// when the driver finished cleanly and `finish` succeeds, its error
/// otherwise. A session still in the scheduler's queue leaves it.
fn retire(
    id: SessionId,
    session: LiveSession,
    result: Result<()>,
    scheduler: &mut Scheduler,
    metrics: &mut ServiceMetrics,
) -> SessionEntry {
    if !session.parked {
        scheduler.leave(id);
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

/// All available cores (the service's `threads = 0` resolution).
///
/// Cached: `std::thread::available_parallelism` re-reads cgroup quota
/// files on every call on Linux — tens of microseconds, which every
/// `TopKService::new` would pay again.
fn default_threads() -> usize {
    static CORES: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *CORES.get_or_init(|| {
        // ctk-allow(det-available-parallelism): the one core-count read; it sizes the round loop's fan-out, whose results merge in item order
        std::thread::available_parallelism().map_or(1, |n| n.get())
    })
}

/// Below this many sessions a parallel phase runs inline: spawning scoped
/// threads costs more than the work they would split.
const PARALLEL_SESSIONS_MIN: usize = 3;

/// Claim rank of a planned session's next `next_batch`, heaviest first:
/// an offline selector that has not planned yet (its first batch is the
/// whole plan), then an online tree selector's step, then an `incr`
/// step, then everything else — a session whose first batch is a copy of
/// a stored first pick, an offline session that has planned (its next
/// batch only emits or ends) and the random baselines. The rank only
/// orders the gather's claims; it never changes a result.
fn gather_cost(live: &LiveSession) -> u32 {
    if live.driver.first_pick_stored() {
        return 0;
    }
    let unplanned = live.driver.questions_asked() == 0;
    match live.driver.config().algorithm {
        Algorithm::AStarOff { .. } | Algorithm::COff | Algorithm::TbOff if unplanned => 3,
        Algorithm::AStarOn { .. } | Algorithm::T1On => 2,
        Algorithm::Incr { .. } => 1,
        _ => 0,
    }
}

/// Applies `work` to every item and returns the results in item order,
/// with the time summed over the `work` calls (the phase's busy time).
///
/// The calling thread and `threads - 1` scoped helpers each claim one
/// item at a time from a shared queue ordered by descending `cost`, ties
/// in item order, so the heaviest items start first and a light item
/// fills whichever claimer frees up. The queue's lock is held only to
/// take the next item, never while `work` runs. A helper's panic is
/// re-raised on the caller with its own payload.
///
/// Determinism argument: `work` runs exactly once per item on disjoint
/// `&mut` state, so the claim order only decides *where* and *when* an
/// item runs; each result is tagged with its item index and the merge
/// sorts by it. The inline path (`threads == 1`, or fewer than
/// [`PARALLEL_SESSIONS_MIN`] items) runs the items in item order, so any
/// thread count and any `cost` compute the identical result vector.
fn run_parallel<T: Send, R: Send>(
    items: &mut [T],
    threads: usize,
    cost: impl Fn(&T) -> u32,
    work: impl Fn(&mut T) -> R + Sync,
) -> (Vec<R>, Duration) {
    let n = items.len();
    let threads = threads.clamp(1, n.max(1));
    let mut busy = Duration::ZERO;
    if threads == 1 || n < PARALLEL_SESSIONS_MIN {
        let results = items
            .iter_mut()
            .map(|item| timed(&work, item, &mut busy))
            .collect();
        return (results, busy);
    }
    let mut order: Vec<(usize, &mut T)> = items.iter_mut().enumerate().collect();
    order.sort_unstable_by_key(|(i, item)| (Reverse(cost(item)), *i));
    let queue = Mutex::new(order.into_iter());
    let (queue, work) = (&queue, &work);
    let claim_all = move || {
        let mut done = Vec::new();
        let mut busy = Duration::ZERO;
        loop {
            // Nothing panics while the lock is held, so a poisoned lock
            // still guards a valid queue.
            let next = queue.lock().unwrap_or_else(PoisonError::into_inner).next();
            let Some((i, item)) = next else {
                return (done, busy);
            };
            done.push((i, timed(work, item, &mut busy)));
        }
    };
    // ctk-allow(det-thread-spawn): claimers take items from one queue; results merge sequentially in item order
    let mut done = std::thread::scope(|s| {
        let helpers: Vec<_> = (1..threads).map(|_| s.spawn(claim_all)).collect();
        let (mut done, own_busy) = claim_all();
        busy += own_busy;
        for helper in helpers {
            match helper.join() {
                Ok((theirs, their_busy)) => {
                    done.extend(theirs);
                    busy += their_busy;
                }
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        done
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    (done.into_iter().map(|(_, r)| r).collect(), busy)
}

/// Runs `work` on `item`, adding its duration to `busy`.
fn timed<T, R>(work: impl Fn(&mut T) -> R, item: &mut T, busy: &mut Duration) -> R {
    // ctk-allow(det-wall-clock): busy-time metric only; never feeds a decision
    let t0 = Instant::now();
    let result = work(item);
    *busy += t0.elapsed();
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctk_core::driver::SessionDriver;
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
    fn rejected_submits_touch_no_cache() {
        // A config the driver refuses is refused before the table cache
        // is consulted: no table entry, no belief build, nothing stored.
        let mut svc = service(100);
        let incr = |questions_per_round| Algorithm::Incr {
            questions_per_round,
        };
        let rejected = [
            config(incr(0), 0),
            SessionConfig {
                engine: Engine::Exact(ctk_tpo::build::ExactConfig {
                    resolution: 256,
                    ..Default::default()
                }),
                ..config(incr(2), 0)
            },
            SessionConfig {
                k: 0,
                ..config(Algorithm::T1On, 0)
            },
            SessionConfig {
                k: 8,
                ..config(Algorithm::T1On, 0)
            },
        ];
        for cfg in rejected {
            for _ in 0..2 {
                match svc.submit(&table(), SessionSpec::new(cfg.clone())) {
                    Err(CoreError::InvalidConfig(_)) => {}
                    other => panic!("{cfg:?} must be refused, got {other:?}"),
                }
            }
        }
        let m = svc.metrics();
        assert_eq!((m.submitted, m.belief_builds, m.belief_hits), (0, 0, 0));
        assert_eq!(m.stored_belief_bytes, 0);
        assert_eq!(svc.beliefs_cached(), 0);
        assert_eq!(svc.tables.tables(), 0, "no table entry either");
    }

    #[test]
    fn oversized_fixed_world_budgets_fail_at_submit() {
        // (1 << 62) + 1 worlds overflow the m·k prefix and m·n score
        // buffers: the budget is refused before anything is sampled.
        let mut svc = service(100);
        let incr = Algorithm::Incr {
            questions_per_round: 2,
        };
        for algorithm in [Algorithm::T1On, incr] {
            let oversized = SessionConfig {
                engine: Engine::MonteCarlo(McConfig::fixed((1 << 62) + 1, 1)),
                ..config(algorithm, 0)
            };
            match svc.submit(&table(), SessionSpec::new(oversized)) {
                Err(CoreError::Tpo(ctk_tpo::TpoError::InvalidWorlds)) => {}
                other => panic!("oversized budget must be refused, got {other:?}"),
            }
        }
        assert_eq!(svc.metrics().submitted, 0);
    }

    #[test]
    fn refused_builds_evict_nothing() {
        // 32 tables are held, the least recently used one with a stored
        // belief. A submit on a 33rd table passes validation, but the
        // engine refuses its build: no table and no belief may leave.
        let mut svc = service(100);
        let shifted = |s: usize| {
            UncertainTable::new(
                (0..7)
                    .map(|i| ScoreDist::uniform_centered(i as f64 * 0.12 + s as f64 * 0.01, 0.4))
                    .collect::<std::result::Result<_, _>>()
                    .unwrap(),
            )
            .unwrap()
        };
        let submit = |svc: &mut TopKService<_>, s, cfg: SessionConfig| {
            svc.submit(&shifted(s), SessionSpec::new(cfg))
        };
        for _ in 0..2 {
            submit(&mut svc, 0, config(Algorithm::T1On, 0)).unwrap();
        }
        for s in 1..crate::tables::MAX_TABLES {
            submit(&mut svc, s, config(Algorithm::T1On, 0)).unwrap();
        }
        assert_eq!(svc.beliefs_cached(), 1);
        let oversized = SessionConfig {
            engine: Engine::MonteCarlo(McConfig::fixed((1 << 62) + 1, 1)),
            ..config(Algorithm::T1On, 0)
        };
        match submit(&mut svc, crate::tables::MAX_TABLES, oversized) {
            Err(CoreError::Tpo(ctk_tpo::TpoError::InvalidWorlds)) => {}
            other => panic!("the engine must refuse the build, got {other:?}"),
        }
        assert_eq!(svc.beliefs_cached(), 1, "the stored belief stays");
        assert_eq!(svc.tables.tables(), crate::tables::MAX_TABLES);
        assert_eq!(svc.metrics().belief_builds, 33);
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
    fn pairwise_matrix_shared_across_tenants_per_table() {
        let mut svc = service(1000);
        let t = table();
        svc.submit(&t, SessionSpec::new(config(Algorithm::T1On, 0)))
            .unwrap();
        svc.submit(&t, SessionSpec::new(config(Algorithm::TbOff, 1)))
            .unwrap();
        assert_eq!(svc.tables.tables(), 1, "same table, one matrix");
        let other = UncertainTable::new(
            (0..4)
                .map(|i| ScoreDist::uniform_centered(i as f64 * 0.2, 0.5).unwrap())
                .collect(),
        )
        .unwrap();
        svc.submit(&other, SessionSpec::new(config(Algorithm::T1On, 2)))
            .unwrap();
        assert_eq!(svc.tables.tables(), 2, "new table, new matrix");
        svc.run_to_completion();
        assert_eq!(svc.metrics().completed, 3);
    }

    #[test]
    fn pairwise_cache_is_bounded_lru() {
        let mut svc = service(1000);
        let distinct = crate::tables::MAX_TABLES + 3;
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
            svc.tables.tables(),
            crate::tables::MAX_TABLES,
            "cache must evict beyond its bound"
        );
        svc.run_to_completion();
        assert_eq!(svc.metrics().completed, distinct as u64);
    }

    #[test]
    fn per_tenant_precision_and_bounds_cache() {
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
        let mut adaptive = config(Algorithm::T1On, 0);
        adaptive.engine = Engine::MonteCarlo(McConfig::adaptive(0.02, 0.05, 7));
        let spec = SessionSpec::new(adaptive);
        let a = svc.submit(&decided, spec.clone()).unwrap();
        let b = svc.submit(&decided, spec).unwrap();
        assert_eq!(svc.tables.bounds(), 1, "same (table, k): one bound set");
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
        // A fixed-budget tenant still draws its configured
        // worlds, and a new depth on the same table adds a bound set.
        let c = svc
            .submit(&table(), SessionSpec::new(config(Algorithm::T1On, 0)))
            .unwrap();
        svc.run_to_completion();
        assert_eq!(svc.report(c).unwrap().worlds_drawn, 2000);
        assert!(!svc.report(c).unwrap().certain_early_stop);
        assert_eq!(svc.metrics().worlds_drawn, 2000);
        assert_eq!(svc.tables.bounds(), 2, "second table, second bound set");
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
        // same mixed-tenant workload (bounded fanout, every algorithm
        // family) produces bit-identical per-tenant
        // reports at 1, 2, 3 and 4 worker threads.
        let algorithms = mixed_algorithms();
        let run = |threads: usize| {
            let mut svc = service(1000).with_fanout(3).with_threads(threads);
            let ids: Vec<_> = algorithms
                .iter()
                .enumerate()
                .map(|(t, alg)| {
                    svc.submit(&table(), SessionSpec::new(config(alg.clone(), t as u64)))
                        .unwrap()
                })
                .collect();
            svc.run_to_completion();
            assert_eq!(svc.metrics().completed as usize, algorithms.len());
            ids.into_iter()
                .map(|id| svc.report(id).unwrap().clone())
                .collect::<Vec<_>>()
        };
        let sequential = run(1);
        for threads in [2usize, 3, 4] {
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
    fn run_parallel_works_each_item_once_and_returns_item_order() {
        // Every claim order the costs can produce — constant (item
        // order), ascending, descending, scrambled — at every claimer
        // count, on sizes below, at and above the inline threshold.
        let costs: [fn(usize) -> u32; 4] = [
            |_| 7,
            |i| i as u32,
            |i| 1000 - i as u32,
            |i| (i as u32).wrapping_mul(2_654_435_761) >> 7,
        ];
        let names = ["constant", "ascending", "descending", "scrambled"];
        for n in [0usize, 1, 2, 3, 64] {
            for threads in [1usize, 2, 3, 7] {
                for (name, cost) in names.into_iter().zip(costs) {
                    let mut items: Vec<(usize, u32)> = (0..n).map(|i| (i, 0)).collect();
                    let (results, _) = run_parallel(
                        &mut items,
                        threads,
                        |&(i, _)| cost(i),
                        |(i, worked)| {
                            *worked += 1;
                            *i * 3
                        },
                    );
                    let expected: Vec<usize> = (0..n).map(|i| i * 3).collect();
                    assert_eq!(results, expected, "n {n}, {threads} threads, {name} cost");
                    assert!(
                        items.iter().all(|&(_, worked)| worked == 1),
                        "n {n}, {threads} threads, {name} cost: an item ran twice or never"
                    );
                }
            }
        }
    }

    #[test]
    fn run_parallel_reraises_the_panicking_items_own_payload() {
        // Two claimers over three items: a barrier holds the first two
        // claims until both claimers have one, so one item runs on the
        // caller and one on the helper. Whichever side the panicking
        // item lands on, the caller re-raises that item's own payload.
        #[derive(Debug, PartialEq)]
        struct Boom(&'static str);
        let caller = std::thread::current().id();
        for on_caller in [true, false] {
            let barrier = std::sync::Barrier::new(2);
            let claims = std::sync::atomic::AtomicUsize::new(0);
            let mut items = [0u8; 3];
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                run_parallel(
                    &mut items,
                    2,
                    |_| 0,
                    |_| {
                        if claims.fetch_add(1, std::sync::atomic::Ordering::SeqCst) < 2 {
                            barrier.wait();
                            if (std::thread::current().id() == caller) == on_caller {
                                std::panic::panic_any(Boom(if on_caller {
                                    "caller"
                                } else {
                                    "helper"
                                }));
                            }
                        }
                    },
                )
            }));
            let payload = caught.expect_err("the panic must reach the caller");
            let expected = Boom(if on_caller { "caller" } else { "helper" });
            assert_eq!(payload.downcast_ref::<Boom>(), Some(&expected));
        }
    }

    #[test]
    fn parallel_phases_record_wall_and_busy_time() {
        for threads in [1usize, 2] {
            let mut svc = service(1000).with_threads(threads);
            for t in 0..4 {
                svc.submit(&table(), SessionSpec::new(config(Algorithm::COff, t)))
                    .unwrap();
            }
            svc.run_to_completion();
            let m = svc.metrics();
            assert_eq!(m.completed, 4);
            for (phase, wall, busy) in [
                ("gather", m.gather_time, m.gather_busy),
                ("feed", m.feed_time, m.feed_busy),
            ] {
                assert!(wall > Duration::ZERO, "{phase} wall at {threads} threads");
                assert!(busy > Duration::ZERO, "{phase} busy at {threads} threads");
            }
            assert!(m.gather_balance() > 0.0);
            assert!(m.summary().contains("balance"));
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
                svc.cache.get(bad).is_none(),
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
    fn service_completes_on_a_quality_crowd() {
        use ctk_quality::{QualityConfig, QualityCrowd};
        // End-to-end: a quality crowd (experts and spammers). The
        // session must complete, spend live budget, and count its live
        // asks as the backend does.
        let accuracies = [0.97, 0.95, 0.9, 0.55, 0.55, 0.5];
        let truth = GroundTruth::sample(&table(), 99);
        let crowd = QualityCrowd::new(truth, &accuracies, QualityConfig::weighted(3), 10_000, 13)
            .expect("valid roster");
        let mut svc = TopKService::new(crowd);
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
    }

    #[test]
    fn crowds_that_miss_tuples_end_every_session() {
        use ctk_quality::{QualityConfig, QualityCrowd};
        // A 6-tuple table served by crowds that know only tuples 0..4:
        // a question about tuple 4 or 5 is refused, which cuts its batch
        // like any refusal, and every session still ends.
        let six = UncertainTable::new(
            (0..6)
                .map(|i| ScoreDist::uniform_centered(i as f64 * 0.12, 0.4).unwrap())
                .collect(),
        )
        .unwrap();
        let truth = || GroundTruth::from_scores(vec![0.1, 0.4, 0.3, 0.2]);
        fn serve<C: Crowd>(crowd: C, table: &UncertainTable) -> TopKService<C> {
            let mut svc = TopKService::new(crowd).with_fanout(3);
            for (t, alg) in mixed_algorithms().into_iter().enumerate() {
                svc.submit(table, SessionSpec::new(config(alg, t as u64)))
                    .unwrap();
            }
            svc.run_to_completion();
            svc
        }
        let plain = CrowdSimulator::new(truth(), PerfectWorker, VotePolicy::Single, 1000)
            .expect("valid vote policy");
        let quality = QualityCrowd::new(
            truth(),
            &[0.9, 0.8, 0.7],
            QualityConfig::weighted(3),
            10_000,
            13,
        )
        .expect("valid roster");
        let outcomes = [
            serve(plain, &six).metrics().clone(),
            serve(quality, &six).metrics().clone(),
        ];
        for m in outcomes {
            assert_eq!(m.completed + m.failed, mixed_algorithms().len() as u64);
            assert!(m.starved > 0, "some batch asked about an unknown tuple");
        }
    }

    #[test]
    fn quality_crowd_is_thread_count_invariant() {
        use ctk_quality::{QualityConfig, QualityCrowd};
        // A stateful crowd: every live ask moves the crowd's worker
        // posteriors, so any reordering of asks across worker threads
        // would show in the reports or the live-ask count.
        let accuracies = [0.97, 0.9, 0.55, 0.5];
        let run = |threads: usize| {
            let truth = GroundTruth::sample(&table(), 99);
            let crowd =
                QualityCrowd::new(truth, &accuracies, QualityConfig::weighted(3), 10_000, 13)
                    .expect("valid roster");
            let mut svc = TopKService::new(crowd).with_fanout(3).with_threads(threads);
            let ids: Vec<_> = mixed_algorithms()
                .into_iter()
                .enumerate()
                .map(|(t, alg)| {
                    svc.submit(&table(), SessionSpec::new(config(alg, t as u64)))
                        .unwrap()
                })
                .collect();
            svc.run_to_completion();
            let reports: Vec<_> = ids.iter().map(|id| svc.report(*id).cloned()).collect();
            (reports, svc.metrics().crowd_questions)
        };
        let (reports_1, live_1) = run(1);
        let (reports_4, live_4) = run(4);
        assert!(live_1 > 0, "live questions were purchased");
        assert_eq!(live_1, live_4, "live-ask counts diverged");
        for (tenant, (a, b)) in reports_1.iter().zip(&reports_4).enumerate() {
            match (a, b) {
                (Some(a), Some(b)) => assert!(
                    a.same_outcome(b),
                    "tenant {tenant} diverged between 1 and 4 worker threads"
                ),
                _ => panic!("tenant {tenant} missing a report"),
            }
        }
    }

    #[test]
    fn astar_on_plans_over_the_session_budget_not_the_crowd() {
        // A*-on with lookahead 0 plans over the whole remaining budget.
        // That is the session's budget B: a standalone crowd holding 10×
        // B must give the same session as one holding exactly B, and as
        // the service, which caps nothing but the session's own budget.
        for seed in 0..4 {
            let cfg = SessionConfig {
                budget: 4,
                algorithm: Algorithm::AStarOn {
                    lookahead: 0,
                    max_expansions: None,
                },
                engine: Engine::MonteCarlo(McConfig::fixed(1500, seed)),
                ..config(Algorithm::T1On, seed)
            };
            let standalone = |crowd_budget: usize| {
                let truth = GroundTruth::sample(&table(), 99);
                let mut crowd =
                    CrowdSimulator::new(truth, PerfectWorker, VotePolicy::Single, crowd_budget)
                        .expect("valid vote policy");
                UrSession::new(cfg.clone())
                    .unwrap()
                    .run(&table(), &mut crowd)
                    .unwrap()
            };
            let exact = standalone(cfg.budget);
            let rich = standalone(10 * cfg.budget);
            let mut svc = service(10 * cfg.budget);
            let id = svc.submit(&table(), SessionSpec::new(cfg.clone())).unwrap();
            svc.run_to_completion();
            assert!(
                rich.same_outcome(&exact),
                "seed {seed}: the crowd's surplus budget changed the session"
            );
            assert!(svc.report(id).unwrap().same_outcome(&exact), "seed {seed}");
        }
    }

    #[test]
    fn degenerate_tables_end_done_or_typed_error() {
        // n = 1, k = n, identical distributions and point-mass ties,
        // every strategy on every engine, each config submitted three
        // times so the third keyed submit starts from a stored belief.
        // Each session ends Done or Failed with an error, a refused
        // submit is a typed error, and nothing panics.
        let uniform = |c: f64| ScoreDist::uniform_centered(c, 0.4).unwrap();
        let cases: Vec<(&str, Vec<ScoreDist>, usize)> = vec![
            ("n = 1", vec![uniform(0.5)], 1),
            (
                "k = n",
                (0..4).map(|i| uniform(i as f64 * 0.1)).collect(),
                4,
            ),
            ("identical", vec![uniform(0.5); 5], 2),
            ("point ties", vec![ScoreDist::point(0.5); 4], 2),
            (
                "mixed point ties",
                [1.0, 1.0, 0.5, 0.5].map(ScoreDist::point).to_vec(),
                3,
            ),
        ];
        let algorithms = [
            Algorithm::T1On,
            Algorithm::TbOff,
            Algorithm::COff,
            Algorithm::AStarOff {
                max_expansions: Some(200),
            },
            Algorithm::AStarOn {
                lookahead: 1,
                max_expansions: Some(200),
            },
            Algorithm::Naive,
            Algorithm::Random,
            Algorithm::Incr {
                questions_per_round: 2,
            },
        ];
        let engines = [
            Engine::MonteCarlo(McConfig::fixed(300, 3)),
            Engine::MonteCarlo(McConfig::adaptive(0.1, 0.1, 3)),
            Engine::Exact(ctk_tpo::build::ExactConfig {
                resolution: 256,
                ..Default::default()
            }),
        ];
        for (name, dists, k) in cases {
            let table = UncertainTable::new(dists).unwrap();
            let truth = GroundTruth::sample(&table, 99);
            let crowd = CrowdSimulator::new(truth, PerfectWorker, VotePolicy::Single, 1000)
                .expect("valid vote policy");
            let mut svc = TopKService::new(crowd);
            let mut ids = Vec::new();
            for engine in &engines {
                for alg in &algorithms {
                    let cfg = SessionConfig {
                        k,
                        budget: 3,
                        engine: engine.clone(),
                        ..config(alg.clone(), 0)
                    };
                    let incr_on_exact =
                        matches!(alg, Algorithm::Incr { .. }) && engine.name() == "exact";
                    for _ in 0..3 {
                        // incr needs the Monte-Carlo engine's worlds, and
                        // the exact engine's nested quadrature needs
                        // continuous scores: it refuses point masses.
                        match svc.submit(&table, SessionSpec::new(cfg.clone())) {
                            Err(CoreError::InvalidConfig(_)) if incr_on_exact => {}
                            Ok(id) if !incr_on_exact => ids.push(id),
                            Ok(_) => panic!("{name}: incr on the exact engine was admitted"),
                            Err(err) => assert!(
                                matches!(err, CoreError::Tpo(_))
                                    && engine.name() == "exact"
                                    && name.contains("point"),
                                "{name}: {} on {} refused: {err}",
                                alg.name(),
                                engine.name()
                            ),
                        }
                    }
                }
            }
            assert!(svc.metrics().belief_hits > 0, "{name}: no submit hit");
            svc.run_to_completion();
            for id in ids {
                match svc.state(id) {
                    Some(SessionState::Done) => assert!(svc.report(id).is_some()),
                    Some(SessionState::Failed) => assert!(svc.error(id).is_some()),
                    other => panic!("{name}: session {id:?} ended {other:?}"),
                }
            }
        }
    }
}

//! The session registry: who is being served, with what allowance, and
//! where each session stands in its lifecycle.
//!
//! Since the shard-owned refactor (DESIGN.md §14) a service holds one
//! registry **per shard**: ids are assigned globally and strided across
//! shards (`shard = id mod shards`), so each registry stores a strictly
//! increasing id subsequence and resolves lookups by binary search.
//! [`Registry::entries_mut_in_order`] hands out disjoint `&mut` entries
//! for a planned id set in plan order, which is what lets the service fan
//! a round's driver work out over scoped worker threads without interior
//! mutability or locking.

use crate::batcher::ServedAnswer;
use ctk_core::driver::SessionDriver;
use ctk_core::session::{SessionConfig, UrReport};
use ctk_core::CoreError;
use ctk_crowd::{BudgetLedger, Question, RouteHint};
use ctk_tpo::PrecisionTarget;
use std::collections::VecDeque;
use std::fmt;
use std::time::{Duration, Instant};

/// Opaque handle to a submitted session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SessionId(pub(crate) u64);

impl fmt::Display for SessionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// Lifecycle of a served session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionState {
    /// Registered and runnable: the scheduler may request its next batch.
    Queued,
    /// Questions are on the wire; the session waits for crowd answers
    /// (transient within one service round).
    AwaitingAnswers,
    /// The crowd reported no budget left before one of the session's
    /// live asks: it keeps its served prefix and its unresolved tail, and
    /// every round's resume phase retries it — finishing the batch if the
    /// crowd was topped up, or staying parked. Named by
    /// [`crate::Quiescence::BlockedOnCrowd`]; `run_to_completion`
    /// force-starves it. Blocked on external input, not on computation.
    AwaitingBudget,
    /// Finished; the report is available.
    Done,
    /// The driver reported an error; see the stored [`CoreError`].
    Failed,
}

/// What a tenant submits: a session configuration plus scheduling
/// priority (higher runs first; equal priorities are served round-robin).
#[derive(Debug, Clone)]
pub struct SessionSpec {
    /// The session configuration (query depth, budget, algorithm, …).
    pub config: SessionConfig,
    /// Scheduling priority; higher is more urgent. Default 0.
    pub priority: u8,
    /// Optional per-tenant precision override for the Monte-Carlo engine:
    /// when set, it replaces the engine's own [`PrecisionTarget`] at
    /// submit time (a tenant on an exact engine is unaffected). `None`
    /// keeps whatever the config's engine specifies.
    pub precision: Option<PrecisionTarget>,
}

impl SessionSpec {
    /// A spec at the default priority.
    pub fn new(config: SessionConfig) -> Self {
        Self {
            config,
            priority: 0,
            precision: None,
        }
    }

    /// Sets the scheduling priority.
    pub fn with_priority(mut self, priority: u8) -> Self {
        self.priority = priority;
        self
    }

    /// Overrides the Monte-Carlo precision target for this tenant.
    pub fn with_precision(mut self, precision: PrecisionTarget) -> Self {
        self.precision = Some(precision);
        self
    }
}

/// One registered session.
pub(crate) struct SessionEntry {
    pub(crate) id: SessionId,
    pub(crate) priority: u8,
    /// Per-session budget accounting: every answer delivered to the
    /// session (cached or live) consumes one unit, exactly as a question
    /// consumes a standalone crowd's budget. Its `votes()` counts *live
    /// crowd interactions* (0 for cache hits) — worker-level vote counts
    /// under majority policies are visible only to the crowd backend's
    /// own ledger.
    pub(crate) ledger: BudgetLedger,
    pub(crate) state: SessionState,
    pub(crate) driver: Option<SessionDriver>,
    pub(crate) report: Option<UrReport>,
    pub(crate) error: Option<CoreError>,
    pub(crate) submitted_at: Instant,
    pub(crate) latency: Option<Duration>,
    /// Hinted questions of the current batch not yet resolved (front =
    /// next to serve). Non-empty only mid-purchase or while
    /// `AwaitingBudget`.
    pub(crate) pending: VecDeque<(Question, RouteHint)>,
    /// Answers resolved so far for the current batch, in request order —
    /// the session's mailbox, emptied by the feed phase.
    pub(crate) served: Vec<ServedAnswer>,
    /// How many questions the current batch posed.
    pub(crate) requested: usize,
}

impl SessionEntry {
    /// Arms the entry for one batch: the hinted questions become the
    /// pending queue, the mailbox empties, and the session moves to
    /// `AwaitingAnswers`.
    pub(crate) fn begin_batch(&mut self, hinted: Vec<(Question, RouteHint)>) {
        self.state = SessionState::AwaitingAnswers;
        self.requested = hinted.len();
        self.pending = VecDeque::from(hinted);
        self.served.clear();
    }
}

/// The set of sessions a service instance is responsible for.
#[derive(Default)]
pub struct Registry {
    entries: Vec<SessionEntry>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a new session in the `Queued` state under a
    /// caller-assigned id. Ids are handed out by the service's global
    /// counter and strided across shards, so within one registry they
    /// arrive strictly increasing — the invariant binary-search lookups
    /// rely on (checked here).
    pub(crate) fn insert(&mut self, id: SessionId, driver: SessionDriver, priority: u8) {
        if let Some(last) = self.entries.last() {
            assert!(
                last.id < id,
                "session ids must be inserted in increasing order"
            );
        }
        let budget = driver.config().budget;
        self.entries.push(SessionEntry {
            id,
            priority,
            ledger: BudgetLedger::new(budget),
            state: SessionState::Queued,
            driver: Some(driver),
            report: None,
            error: None,
            // ctk-allow(det-wall-clock): wall-clock latency metric only; never feeds scheduling or results
            submitted_at: Instant::now(),
            latency: None,
            pending: VecDeque::new(),
            served: Vec::new(),
            requested: 0,
        });
    }

    fn position(&self, id: SessionId) -> Option<usize> {
        self.entries.binary_search_by_key(&id, |e| e.id).ok()
    }

    pub(crate) fn get(&self, id: SessionId) -> Option<&SessionEntry> {
        self.position(id).map(|i| &self.entries[i])
    }

    pub(crate) fn get_mut(&mut self, id: SessionId) -> Option<&mut SessionEntry> {
        self.position(id).map(|i| &mut self.entries[i])
    }

    /// Disjoint `&mut` borrows of the entries named by `ids`, returned in
    /// the order `ids` lists them — the shard set of one service round.
    /// `ids` must be duplicate-free and every id must exist (invariants
    /// of the scheduler's plan). Violations panic in release builds too:
    /// the caller pairs this result with `ids` positionally, so a
    /// silently dropped id would misattribute every later session's
    /// answers to the wrong tenant — a loud failure is the only safe
    /// degradation, and the check costs one hash probe per id.
    pub(crate) fn entries_mut_in_order(&mut self, ids: &[SessionId]) -> Vec<&mut SessionEntry> {
        let mut rank: std::collections::BTreeMap<u64, usize> = std::collections::BTreeMap::new();
        for (i, id) in ids.iter().enumerate() {
            let previous = rank.insert(id.0, i);
            assert!(previous.is_none(), "duplicate {id} in shard set");
        }
        let mut picked: Vec<(usize, &mut SessionEntry)> = self
            .entries
            .iter_mut()
            .filter_map(|e| rank.remove(&e.id.0).map(|i| (i, e)))
            .collect();
        assert!(
            rank.is_empty(),
            "unknown session id(s) in shard set: {:?}",
            rank.keys().collect::<Vec<_>>()
        );
        picked.sort_unstable_by_key(|p| p.0);
        picked.into_iter().map(|(_, e)| e).collect()
    }

    /// Sessions the scheduler may serve this round, with their priority.
    pub(crate) fn runnable(&self) -> Vec<(SessionId, u8)> {
        self.entries
            .iter()
            .filter(|e| e.state == SessionState::Queued)
            .map(|e| (e.id, e.priority))
            .collect()
    }

    /// Total registered sessions.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing was ever submitted.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Sessions not yet done or failed.
    pub fn active(&self) -> usize {
        self.entries
            .iter()
            .filter(|e| {
                matches!(
                    e.state,
                    SessionState::Queued
                        | SessionState::AwaitingAnswers
                        | SessionState::AwaitingBudget
                )
            })
            .count()
    }

    /// Lifecycle state of a session.
    pub fn state(&self, id: SessionId) -> Option<SessionState> {
        self.get(id).map(|e| e.state)
    }

    /// Final report of a `Done` session.
    pub fn report(&self, id: SessionId) -> Option<&UrReport> {
        self.get(id).and_then(|e| e.report.as_ref())
    }

    /// Error of a `Failed` session.
    pub fn error(&self, id: SessionId) -> Option<&CoreError> {
        self.get(id).and_then(|e| e.error.as_ref())
    }

    /// Questions answered for a session so far (cached + live).
    pub fn questions_served(&self, id: SessionId) -> Option<usize> {
        self.get(id).map(|e| e.ledger.asked())
    }

    /// Enqueue-to-done latency of a finished session.
    pub fn latency(&self, id: SessionId) -> Option<Duration> {
        self.get(id).and_then(|e| e.latency)
    }

    /// All session ids in submission order.
    pub fn ids(&self) -> impl Iterator<Item = SessionId> + '_ {
        self.entries.iter().map(|e| e.id)
    }
}

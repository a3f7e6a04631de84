//! The session registry: who is being served, with what allowance, and
//! where each session stands in its lifecycle.
//!
//! A service holds one registry (DESIGN.md §14), and a session's id *is*
//! its slot: [`Registry::insert`] mints `SessionId(n)` for the `n`-th
//! submit, so lookups are a bounds-checked index and need no search.
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

    /// Registers a new session in the `Queued` state and mints its id:
    /// the next free slot.
    pub(crate) fn insert(&mut self, driver: SessionDriver, priority: u8) -> SessionId {
        let id = SessionId(self.entries.len() as u64);
        let budget = driver.config().budget;
        self.entries.push(SessionEntry {
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
        id
    }

    fn get(&self, id: SessionId) -> Option<&SessionEntry> {
        usize::try_from(id.0)
            .ok()
            .and_then(|slot| self.entries.get(slot))
    }

    /// Disjoint `&mut` borrows of the entries named by `ids`, returned in
    /// the order `ids` lists them — the session set of one service round.
    /// `ids` must be duplicate-free and every id must exist (invariants
    /// of the scheduler's plan and the parked list). Violations panic in
    /// release builds too: the caller pairs this result with `ids`
    /// positionally, so a silently dropped id would misattribute every
    /// later session's answers to the wrong tenant — a loud failure is the
    /// only safe degradation.
    ///
    /// O(|ids| log |ids|): the ids are visited in slot order, each one a
    /// constant-time skip of the slice iterator past the slots between.
    pub(crate) fn entries_mut_in_order(&mut self, ids: &[SessionId]) -> Vec<&mut SessionEntry> {
        let mut by_slot: Vec<(SessionId, usize)> = ids.iter().copied().zip(0..).collect();
        by_slot.sort_unstable();
        let mut picked = Vec::with_capacity(ids.len());
        let mut rest = self.entries.iter_mut();
        let mut next = 0u64; // the slot `rest` yields next
        for (id, pos) in by_slot {
            assert!(id.0 >= next, "duplicate {id} in session set");
            let gap = usize::try_from(id.0 - next).unwrap_or(usize::MAX);
            if let Some(entry) = rest.nth(gap) {
                picked.push((pos, entry));
            }
            next = id.0 + 1;
        }
        assert_eq!(picked.len(), ids.len(), "unknown session id in session set");
        picked.sort_unstable_by_key(|&(pos, _)| pos);
        picked.into_iter().map(|(_, entry)| entry).collect()
    }

    /// Sessions the scheduler may serve this round, with their priority.
    pub(crate) fn runnable(&self) -> Vec<(SessionId, u8)> {
        self.ids()
            .zip(&self.entries)
            .filter(|(_, e)| e.state == SessionState::Queued)
            .map(|(id, e)| (id, e.priority))
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
    pub fn ids(&self) -> impl Iterator<Item = SessionId> {
        (0..self.entries.len() as u64).map(SessionId)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctk_core::measures::MeasureKind;
    use ctk_core::session::Algorithm;
    use ctk_prob::{ScoreDist, UncertainTable};
    use ctk_tpo::build::{Engine, McConfig};

    /// A registry of `n` sessions; session `i` has priority `i`, so an
    /// entry's priority names its slot.
    fn registry(n: u8) -> Registry {
        let table = UncertainTable::new(
            (0..4)
                .map(|i| ScoreDist::uniform_centered(f64::from(i) * 0.2, 0.5).unwrap())
                .collect(),
        )
        .unwrap();
        let config = SessionConfig {
            k: 2,
            budget: 3,
            measure: MeasureKind::WeightedEntropy,
            algorithm: Algorithm::T1On,
            engine: Engine::MonteCarlo(McConfig::fixed(64, 1)),
            seed: 0,
            uncertainty_target: None,
        };
        let mut reg = Registry::new();
        for priority in 0..n {
            let driver = SessionDriver::new(config.clone(), &table, None).unwrap();
            assert_eq!(reg.insert(driver, priority), SessionId(u64::from(priority)));
        }
        reg
    }

    #[test]
    fn entries_come_back_in_the_requested_order() {
        let mut reg = registry(4);
        let ids = [SessionId(3), SessionId(0), SessionId(2)];
        let slots: Vec<u8> = reg
            .entries_mut_in_order(&ids)
            .iter()
            .map(|e| e.priority)
            .collect();
        assert_eq!(slots, [3, 0, 2]);
        assert!(reg.entries_mut_in_order(&[]).is_empty());
        assert_eq!(
            reg.ids().collect::<Vec<_>>(),
            (0..4).map(SessionId).collect::<Vec<_>>()
        );
    }

    #[test]
    #[should_panic(expected = "duplicate s2")]
    fn duplicate_ids_panic() {
        registry(4).entries_mut_in_order(&[SessionId(2), SessionId(0), SessionId(2)]);
    }

    #[test]
    #[should_panic(expected = "unknown session id")]
    fn unknown_ids_panic() {
        registry(2).entries_mut_in_order(&[SessionId(0), SessionId(5)]);
    }
}

//! The session registry: who is being served and where each session
//! stands in its lifecycle.
//!
//! A service holds one registry (DESIGN.md §14), and a session's id *is*
//! its slot: `Registry::insert` mints `SessionId(n)` for the `n`-th
//! submit, so lookups are a bounds-checked index and need no search. An
//! entry's variant is its lifecycle — live, done or failed — so a
//! finished session holds its outcome and nothing else.
//! `Registry::live_mut_in_order` hands out disjoint `&mut` live sessions
//! for a planned id set in plan order, which is what lets the service fan
//! a round's driver work out over scoped worker threads without interior
//! mutability or locking.

use ctk_core::driver::SessionDriver;
use ctk_core::session::{SessionConfig, UrReport};
use ctk_core::CoreError;
use ctk_crowd::Answer;
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

/// What a tenant submits: a session configuration. Every session is
/// scheduled alike (round-robin; see DESIGN.md §9).
#[derive(Debug, Clone)]
pub struct SessionSpec {
    /// The session configuration (query depth, budget, algorithm, …).
    pub config: SessionConfig,
}

impl SessionSpec {
    /// A spec for `config`.
    pub fn new(config: SessionConfig) -> Self {
        Self { config }
    }
}

/// A session still being served. The driver owns every fact about the
/// session's progress — its spend is its step count, its current batch
/// its outstanding questions — so the service keeps only the answers
/// resolved for that batch and its own scheduling state.
pub(crate) struct LiveSession {
    pub(crate) driver: SessionDriver,
    /// The mailbox: answers resolved so far for the driver's outstanding
    /// batch, in emission order, each with the accuracy it was bought at.
    /// The unresolved tail is the outstanding questions past its length;
    /// the feed phase empties it.
    pub(crate) served: Vec<(Answer, f64)>,
    pub(crate) submitted_at: Instant,
    /// True while the session waits in the service's parked list for
    /// crowd budget (`AwaitingBudget`); false while it is a member of the
    /// scheduler's queue (`Queued`).
    pub(crate) parked: bool,
}

/// One registered session: its lifecycle is the variant. A finished
/// session keeps only its outcome — no driver or mailbox —
/// and the live state is boxed, so a finished slot is no larger than that.
pub(crate) enum SessionEntry {
    Live(Box<LiveSession>),
    Done { report: UrReport, latency: Duration },
    Failed(CoreError),
}

impl SessionEntry {
    pub(crate) fn state(&self) -> SessionState {
        match self {
            SessionEntry::Live(session) if session.parked => SessionState::AwaitingBudget,
            SessionEntry::Live(_) => SessionState::Queued,
            SessionEntry::Done { .. } => SessionState::Done,
            SessionEntry::Failed(_) => SessionState::Failed,
        }
    }
}

/// The set of sessions a service instance is responsible for.
#[derive(Default)]
pub(crate) struct Registry {
    entries: Vec<SessionEntry>,
}

impl Registry {
    /// Registers a new live session and mints its id: the next free slot.
    pub(crate) fn insert(&mut self, driver: SessionDriver) -> SessionId {
        let id = SessionId(self.entries.len() as u64);
        self.entries.push(SessionEntry::Live(Box::new(LiveSession {
            driver,
            served: Vec::new(),
            // ctk-allow(det-wall-clock): wall-clock latency metric only; never feeds scheduling or results
            submitted_at: Instant::now(),
            parked: false,
        })));
        id
    }

    pub(crate) fn get(&self, id: SessionId) -> Option<&SessionEntry> {
        self.entries.get(usize::try_from(id.0).ok()?)
    }

    /// Replaces a live entry with what `f` makes of its session; other
    /// entries are left as they are.
    pub(crate) fn settle(&mut self, id: SessionId, f: impl FnOnce(LiveSession) -> SessionEntry) {
        let Some(entry) = self
            .entries
            .get_mut(usize::try_from(id.0).unwrap_or(usize::MAX))
        else {
            return;
        };
        // The stand-in is overwritten before this returns.
        let stand_in = SessionEntry::Failed(CoreError::Driver(String::new()));
        *entry = match std::mem::replace(entry, stand_in) {
            SessionEntry::Live(session) => f(*session),
            finished => finished,
        };
    }

    /// Disjoint `&mut` borrows of the live sessions named by `ids`,
    /// returned in the order `ids` lists them — the session set of one
    /// service round. `ids` must be duplicate-free and name only live
    /// sessions (invariants of the scheduler's plan and the parked list).
    /// Violations panic in release builds too: the caller pairs this
    /// result with `ids` positionally, so a silently dropped id would
    /// misattribute every later session's answers to the wrong tenant — a
    /// loud failure is the only safe degradation.
    ///
    /// O(|ids| log |ids|): the ids are visited in slot order, each one a
    /// constant-time skip of the slice iterator past the slots between.
    pub(crate) fn live_mut_in_order(&mut self, ids: &[SessionId]) -> Vec<&mut LiveSession> {
        let mut by_slot: Vec<(SessionId, usize)> = ids.iter().copied().zip(0..).collect();
        by_slot.sort_unstable();
        let mut picked = Vec::with_capacity(ids.len());
        let mut rest = self.entries.iter_mut();
        let mut next = 0u64; // the slot `rest` yields next
        for (id, pos) in by_slot {
            assert!(id.0 >= next, "duplicate {id} in session set");
            let gap = usize::try_from(id.0 - next).unwrap_or(usize::MAX);
            if let Some(SessionEntry::Live(session)) = rest.nth(gap) {
                picked.push((pos, &mut **session));
            }
            next = id.0 + 1;
        }
        assert_eq!(picked.len(), ids.len(), "unknown or finished session id");
        picked.sort_unstable_by_key(|&(pos, _)| pos);
        picked.into_iter().map(|(_, session)| session).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctk_core::measures::MeasureKind;
    use ctk_core::session::Algorithm;
    use ctk_prob::{ScoreDist, UncertainTable};
    use ctk_tpo::build::{Engine, McConfig};

    /// A registry of `n` sessions; session `i` has seed `i`, so a
    /// session's seed names its slot.
    fn registry(n: u64) -> Registry {
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
        let mut reg = Registry::default();
        for seed in 0..n {
            let config = SessionConfig {
                seed,
                ..config.clone()
            };
            let driver = SessionDriver::new(config, &table, None).unwrap();
            assert_eq!(reg.insert(driver), SessionId(seed));
        }
        reg
    }

    #[test]
    fn entries_come_back_in_the_requested_order() {
        let mut reg = registry(4);
        let ids = [SessionId(3), SessionId(0), SessionId(2)];
        let slots: Vec<u64> = reg
            .live_mut_in_order(&ids)
            .iter()
            .map(|s| s.driver.config().seed)
            .collect();
        assert_eq!(slots, [3, 0, 2]);
        assert!(reg.live_mut_in_order(&[]).is_empty());
        for slot in 0..4 {
            let state = reg.get(SessionId(slot)).map(SessionEntry::state);
            assert_eq!(state, Some(SessionState::Queued));
        }
        assert!(reg.get(SessionId(4)).is_none());
    }

    #[test]
    #[should_panic(expected = "duplicate s2")]
    fn duplicate_ids_panic() {
        registry(4).live_mut_in_order(&[SessionId(2), SessionId(0), SessionId(2)]);
    }

    #[test]
    #[should_panic(expected = "unknown or finished session id")]
    fn unknown_ids_panic() {
        registry(2).live_mut_in_order(&[SessionId(0), SessionId(5)]);
    }

    #[test]
    #[should_panic(expected = "unknown or finished session id")]
    fn finished_ids_panic() {
        let mut reg = registry(2);
        reg.settle(SessionId(1), |_| {
            SessionEntry::Failed(CoreError::Driver("test".into()))
        });
        assert_eq!(
            reg.get(SessionId(1)).map(SessionEntry::state),
            Some(SessionState::Failed)
        );
        reg.live_mut_in_order(&[SessionId(0), SessionId(1)]);
    }
}

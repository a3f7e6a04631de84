//! Shard-owned serving state: each shard owns its sessions end to end —
//! registry, scheduler queues and the list of sessions parked on crowd
//! budget (DESIGN.md §14).
//!
//! Sessions are strided across shards by id (`shard = id mod shards`);
//! the answer cache shards separately by question hash (see
//! `ShardedAnswerCache`), because an answer is a fact about a pair of
//! objects, not about the session that asked. The crowd and the cache
//! are the only cross-shard state, and only the service's sequential
//! purchase phase touches them.

use crate::metrics::ServiceMetrics;
use crate::registry::{Registry, SessionId, SessionState};
use crate::scheduler::Scheduler;
use ctk_core::CoreError;

/// One shard of the serving core: the sessions it owns, their scheduler,
/// and the sessions parked `AwaitingBudget`. Shards are processed in
/// index order in every sequential step, which is what makes the run
/// loop deterministic at any fixed shard count.
pub(crate) struct Shard {
    pub(crate) registry: Registry,
    pub(crate) scheduler: Scheduler,
    /// Sessions parked on an empty crowd, retried by the next round's
    /// resume phase (maintained by the run loop, never rescanned from
    /// the registry).
    pub(crate) parked: Vec<SessionId>,
}

impl Shard {
    pub(crate) fn new(fanout: Option<usize>) -> Self {
        Self {
            registry: Registry::new(),
            scheduler: match fanout {
                Some(f) => Scheduler::with_fanout(f),
                None => Scheduler::new(),
            },
            parked: Vec::new(),
        }
    }

    /// Finishes a `Done`/about-to-be-`Done` session: takes the driver,
    /// produces the report, and records completion metrics against shard
    /// index `s`.
    pub(crate) fn finalize_session(
        &mut self,
        s: usize,
        id: SessionId,
        metrics: &mut ServiceMetrics,
    ) {
        let entry = self.registry.get_mut(id).expect("finalized id exists"); // ctk-allow(panic-unwrap): finalize is called once per done/failed id
        let driver = entry.driver.take().expect("finalize once"); // ctk-allow(panic-unwrap): state machine guarantees a live driver here
        match driver.finish() {
            Ok(report) => {
                metrics.worlds_drawn += report.worlds_drawn as u64;
                metrics.certain_early_stops += u64::from(report.certain_early_stop);
                entry.report = Some(report);
                entry.state = SessionState::Done;
                let latency = entry.submitted_at.elapsed();
                entry.latency = Some(latency);
                metrics.completed += 1;
                metrics.record_latency(latency);
                metrics.record_shard_completed(s);
            }
            Err(err) => {
                entry.error = Some(err);
                entry.state = SessionState::Failed;
                metrics.failed += 1;
            }
        }
    }

    /// Marks a session `Failed` with `err` (driver dropped).
    pub(crate) fn fail_session(
        &mut self,
        id: SessionId,
        err: CoreError,
        metrics: &mut ServiceMetrics,
    ) {
        let entry = self.registry.get_mut(id).expect("failed id exists"); // ctk-allow(panic-unwrap): fail() receives ids from this round's plan
        entry.driver = None;
        entry.error = Some(err);
        entry.state = SessionState::Failed;
        metrics.failed += 1;
    }

    /// Force-starves a parked session: its unresolved questions are
    /// dropped, so the next round's resume phase delivers the prefix it
    /// did resolve — exactly what a crowd refusal does mid-batch.
    pub(crate) fn force_starve(&mut self, id: SessionId) {
        let entry = self.registry.get_mut(id).expect("parked id exists"); // ctk-allow(panic-unwrap): quiescence lists ids from this shard's parked list
        entry.pending.clear();
    }
}

/// Why [`crate::TopKService::run_until_quiescent`] stopped ticking.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Quiescence {
    /// Nothing left to do: every session is `Done` or `Failed`.
    Idle,
    /// No round can make progress *by computation alone*: these sessions
    /// hold unresolved questions the crowd has no budget for. The caller
    /// decides — top the crowd up and keep ticking, or force-starve
    /// (what `run_to_completion` does).
    BlockedOnCrowd {
        /// The parked sessions, in shard order then id order.
        sessions: Vec<SessionId>,
    },
}

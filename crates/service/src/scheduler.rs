//! Round scheduling: which live sessions get crowd attention this round.
//!
//! The policy is deficit round-robin over one **persistent service
//! queue**: every round the scheduler spends its fanout from the front of
//! the queue — served sessions recycle to the back, newly runnable
//! sessions join at the back, departed sessions drop out in place. The
//! queue *is* the cursor, and because it survives across rounds a
//! population larger than the fanout carries its service deficit over
//! instead of restarting the rotation. Every session is served alike: a
//! session has no priority.
//!
//! Sessions report their own transitions (DESIGN.md §14): submit and a
//! resume that stays active join, park, finish and fail leave. A
//! departure only marks the session's entry stale, and a plan drops it
//! when it reaches it, so a plan costs amortised O(fanout + departures)
//! and never scans the queue or the session table.
//!
//! Fairness bound (pinned by proptests in this module): every runnable
//! session is served within `ceil(n / fanout)` rounds, where `n` is the
//! runnable population over that window. The bound is churn-proof:
//! joiners enter *behind* every waiting session, so a waiting session's
//! queue position only ever decreases — by `min(fanout, n)` per round —
//! until it is served.

use crate::registry::SessionId;
use std::collections::{BTreeMap, VecDeque};

/// Deficit-round-robin scheduler (see module docs).
#[derive(Debug, Clone, Default)]
pub(crate) struct Scheduler {
    fanout: Option<usize>,
    /// Service queue; front = next to serve. Holds every admitted member
    /// once, behind any stale entries of its own earlier departures.
    queue: VecDeque<SessionId>,
    /// Members that joined since the last plan, admitted to the back of
    /// `queue` in id order by the next one.
    joined: Vec<SessionId>,
    /// Departed sessions and how many of their entries are stale.
    departed: BTreeMap<SessionId, usize>,
    /// Sessions that joined and have not left.
    members: usize,
    /// Every member, backing the `debug-invariants` check of the
    /// documented ceil(n / fanout) fairness bound.
    #[cfg(feature = "debug-invariants")]
    runnable: std::collections::BTreeSet<SessionId>,
    /// Per-session deficit tracker of the same check.
    #[cfg(feature = "debug-invariants")]
    waits: BTreeMap<SessionId, WaitState>,
}

/// How long a runnable session has waited, relative to the largest
/// population (`n_max`) and the smallest per-round slot allotment
/// (`slots_min`) it waited through.
#[cfg(feature = "debug-invariants")]
#[derive(Debug, Clone, Copy)]
struct WaitState {
    waited: usize,
    n_max: usize,
    slots_min: usize,
}

impl Scheduler {
    /// Serve at most `fanout` sessions per round (clamped to >= 1).
    pub(crate) fn with_fanout(fanout: usize) -> Self {
        Self {
            fanout: Some(fanout.max(1)),
            ..Self::default()
        }
    }

    /// `id` becomes runnable: it enters the back of the queue at the next
    /// plan. That matches the reconciling planner only if a plan passed
    /// since `id` last left (which kept its place otherwise); the service
    /// guarantees it by parking in one round and resuming in a later one.
    pub(crate) fn join(&mut self, id: SessionId) {
        #[cfg(feature = "debug-invariants")]
        self.runnable.insert(id);
        self.members += 1;
        self.joined.push(id);
    }

    /// `id`, a member, stops being runnable. Its entry drops out when a
    /// plan reaches it; the last member's departure clears the queue.
    pub(crate) fn leave(&mut self, id: SessionId) {
        if self.members == 0 {
            return;
        }
        #[cfg(feature = "debug-invariants")]
        self.runnable.remove(&id);
        self.members -= 1;
        if self.members == 0 {
            self.queue.clear();
            self.joined.clear();
            self.departed.clear();
        } else {
            *self.departed.entry(id).or_insert(0) += 1;
        }
    }

    /// Picks the sessions to serve this round, in queue order.
    pub(crate) fn plan_round(&mut self) -> Vec<SessionId> {
        let mut take = self.fanout.unwrap_or(self.members).min(self.members);
        let mut plan = Vec::with_capacity(take);
        // Admit the joiners, in id order, served or not; then pop from
        // the front and recycle to the back so the unserved remainder
        // keeps its place.
        self.joined.sort_unstable();
        self.queue.extend(self.joined.drain(..));
        while take > 0 {
            let Some(id) = self.queue.pop_front() else {
                break; // unreachable: the queue holds every member
            };
            if let Some(stale) = self.departed.get_mut(&id) {
                *stale -= 1;
                if *stale == 0 {
                    self.departed.remove(&id);
                }
                continue;
            }
            plan.push(id);
            self.queue.push_back(id);
            take -= 1;
        }
        #[cfg(feature = "debug-invariants")]
        self.check_fairness(&plan);
        plan
    }

    /// `debug-invariants` check: a session that stayed runnable is served
    /// within `ceil(n_max / s_min)` rounds, where `n_max` is the largest
    /// population and `s_min` the smallest plan size it waited through.
    /// O(members · fanout) per plan, under this feature only.
    #[cfg(feature = "debug-invariants")]
    fn check_fairness(&mut self, plan: &[SessionId]) {
        let (n, slots) = (self.members, plan.len());
        let runnable = &self.runnable;
        self.waits.retain(|id, _| runnable.contains(id));
        for &id in runnable {
            let fresh = WaitState {
                waited: 0,
                n_max: n,
                slots_min: slots,
            };
            if plan.contains(&id) {
                self.waits.insert(id, fresh);
                continue;
            }
            let w = self.waits.entry(id).or_insert(fresh);
            w.waited += 1;
            w.n_max = w.n_max.max(n);
            w.slots_min = w.slots_min.min(slots);
            assert!(
                w.waited < w.n_max.div_ceil(w.slots_min),
                "scheduler deficit bound violated: {id} waited {} rounds \
                 (population <= {}, slots >= {})",
                w.waited,
                w.n_max,
                w.slots_min
            );
        }
    }

    /// Queue entries held, stale or live, admitted or waiting to be.
    #[cfg(test)]
    pub(crate) fn entries(&self) -> usize {
        self.queue.len() + self.joined.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{BTreeSet, HashSet};

    fn ids(v: &[u64]) -> Vec<SessionId> {
        v.iter().map(|&i| SessionId(i)).collect()
    }

    /// A scheduler whose members joined in the order given.
    fn joined(mut s: Scheduler, members: &[u64]) -> Scheduler {
        for &id in members {
            s.join(SessionId(id));
        }
        s
    }

    /// The planner as it was before sessions reported their own
    /// transitions: every plan reconciles the persistent queue against
    /// the full runnable list. Kept as the reference the event-driven
    /// scheduler must match plan for plan.
    #[derive(Default)]
    struct Reference {
        fanout: Option<usize>,
        queue: VecDeque<SessionId>,
    }

    impl Reference {
        fn plan_round(&mut self, runnable: &[SessionId]) -> Vec<SessionId> {
            self.sync_queue(runnable);
            let take = self.fanout.unwrap_or(runnable.len()).min(self.queue.len());
            let mut plan = Vec::with_capacity(take);
            for _ in 0..take {
                let Some(id) = self.queue.pop_front() else {
                    break;
                };
                plan.push(id);
                self.queue.push_back(id);
            }
            plan
        }

        /// Departed sessions drop out in place, newly runnable sessions
        /// join at the back in id order.
        fn sync_queue(&mut self, runnable: &[SessionId]) {
            let runnable_now: BTreeSet<SessionId> = runnable.iter().copied().collect();
            self.queue.retain(|id| runnable_now.contains(id));
            let queued: BTreeSet<SessionId> = self.queue.iter().copied().collect();
            self.queue
                .extend(runnable_now.into_iter().filter(|id| !queued.contains(id)));
        }
    }

    #[test]
    fn unbounded_fanout_serves_everyone() {
        let mut s = joined(Scheduler::default(), &[0, 1, 2]);
        assert_eq!(s.plan_round().len(), 3);
    }

    #[test]
    fn round_robin_is_starvation_free() {
        let mut s = joined(Scheduler::with_fanout(1), &[0, 1, 2]);
        let mut served = Vec::new();
        for _ in 0..3 {
            served.extend(s.plan_round());
        }
        let mut sorted = served.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), 3, "each session served once in 3 rounds");
    }

    #[test]
    fn fanout_two_mixed_priorities_regression() {
        // The headline starvation repro: fanout 2 over [A, B, C, D]. The
        // cursor-arithmetic scheduler rotated the list by a cursor
        // advanced in steps of 2 after a priority sort, so the start
        // index oscillated 0 -> 2 -> 0 and D was never planned. The
        // deficit round-robin serves A, B, C, D in strict rotation:
        // every member within ceil(4 / 2) = 2 rounds.
        let mut s = joined(Scheduler::with_fanout(2), &[0, 1, 2, 3]);
        let rounds: Vec<Vec<SessionId>> = (0..6).map(|_| s.plan_round()).collect();
        for (r, plan) in rounds.iter().enumerate() {
            assert_eq!(plan.len(), 2, "round {r} fills the fanout");
        }
        let order: Vec<SessionId> = rounds.concat();
        assert_eq!(
            order,
            ids(&[0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3]),
            "A, B, C, D rotate without skipping anyone"
        );
    }

    #[test]
    fn rotation_survives_within_priority_class() {
        // A served session that leaves drops out of the rotation; the
        // remaining pair alternate.
        let mut s = joined(Scheduler::with_fanout(1), &[0, 1, 2]);
        assert_eq!(s.plan_round(), ids(&[0]));
        assert_eq!(s.plan_round(), ids(&[1]));
        s.leave(SessionId(1));
        let turns: Vec<SessionId> = (0..4).flat_map(|_| s.plan_round()).collect();
        assert_eq!(turns, ids(&[2, 0, 2, 0]), "the remaining pair alternate");
    }

    #[test]
    fn joiners_enter_behind_waiting_sessions() {
        // A session that has waited must not be delayed by later
        // arrivals: the joiner queues up behind it.
        let mut s = joined(Scheduler::with_fanout(1), &[0, 1]);
        assert_eq!(s.plan_round(), ids(&[0]));
        s.join(SessionId(2));
        assert_eq!(s.plan_round(), ids(&[1]), "1 was first in line");
        assert_eq!(s.plan_round(), ids(&[0]), "0 recycled before 2 joined");
        assert_eq!(s.plan_round(), ids(&[2]));
    }

    #[test]
    fn empty_runnable_set() {
        let mut s = Scheduler::default();
        assert!(s.plan_round().is_empty());
        let mut one = joined(Scheduler::with_fanout(0), &[0, 1]);
        assert_eq!(one.plan_round().len(), 1, "fanout 0 clamps to 1");
    }

    #[test]
    fn departures_are_passed_once_and_storage_stays_bounded() {
        // 10k sessions join under fanout 64; all but a few retire, some
        // before they were ever planned. Every popped entry is either
        // served (at most `fanout` per round) or the stale entry of one
        // departure, and nothing stale survives being passed.
        const JOINS: u64 = 10_000;
        const FANOUT: usize = 64;
        const KEEP: [u64; 3] = [17, 4_242, 9_999];
        let mut s = Scheduler::with_fanout(FANOUT);
        for id in 0..JOINS {
            s.join(SessionId(id));
        }
        let (mut rounds, mut visited) = (0usize, 0usize);
        for round in 0.. {
            // A plan pops each entry it serves or drops; served entries
            // return to the back, dropped ones leave the count.
            let before = s.entries();
            let plan = s.plan_round();
            visited += plan.len() + (before - s.entries());
            rounds += 1;
            // Retire every served session outside KEEP, plus a block of
            // never-served ones, so stale entries sit ahead of the cursor.
            for id in &plan {
                if !KEEP.contains(&id.0) {
                    s.leave(*id);
                }
            }
            if round == 3 {
                for id in (5_000..6_000).filter(|id| !KEEP.contains(id)) {
                    s.leave(SessionId(id));
                }
            }
            if s.members == KEEP.len() && plan.iter().all(|id| KEEP.contains(&id.0)) {
                break;
            }
        }
        assert!(
            visited <= JOINS as usize + rounds * FANOUT,
            "visited {visited} entries over {rounds} rounds"
        );
        // Two more rounds pass every leftover stale entry: the first
        // reaches the last member, the second the entries behind it.
        for _ in 0..2 {
            s.plan_round();
        }
        let mut held_ids: Vec<u64> = s.queue.iter().map(|id| id.0).collect();
        held_ids.sort_unstable();
        assert_eq!(held_ids, KEEP, "the queue holds the members only");
        assert!(s.departed.is_empty());
        for id in KEEP {
            s.leave(SessionId(id));
        }
        assert_eq!(s.entries(), 0, "the last departure clears the queue");
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        /// One scripted churn step: which ids are runnable this round.
        fn arbitrary_round(n_ids: u64) -> impl Strategy<Value = Vec<u64>> {
            proptest::collection::vec(0..n_ids, 1..12)
        }

        /// Brings `s`'s membership from `before` to `after` (both sorted
        /// id sets), leaving first, then joining in descending id order.
        fn migrate(s: &mut Scheduler, before: &[SessionId], after: &[SessionId]) {
            for id in before.iter().filter(|id| !after.contains(id)) {
                s.leave(*id);
            }
            for id in after.iter().rev().filter(|id| !before.contains(id)) {
                s.join(*id);
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// Stable membership: every member is served within
            /// ceil(n / fanout) rounds, for any population and fanout.
            #[test]
            fn every_session_served_within_bound(
                n in 1usize..14,
                fanout in 1usize..5,
            ) {
                let mut s = Scheduler::with_fanout(fanout);
                for i in 0..n {
                    s.join(SessionId(i as u64));
                }
                let bound = n.div_ceil(fanout);
                let mut served: HashSet<SessionId> = HashSet::new();
                for _ in 0..bound {
                    for id in s.plan_round() {
                        served.insert(id);
                    }
                }
                for i in 0..n {
                    prop_assert!(
                        served.contains(&SessionId(i as u64)),
                        "session {i} not served within {bound} rounds \
                         (n = {n}, fanout = {fanout})"
                    );
                }
            }

            /// Churn: sessions join and leave arbitrarily between rounds,
            /// but one victim stays runnable throughout. It must be
            /// served within ceil(n_max / fanout) rounds, where n_max is
            /// the largest population it ever waited behind — joiners
            /// queue up behind it, so arrivals cannot push it back.
            #[test]
            fn no_starvation_under_churn(
                rounds in proptest::collection::vec(arbitrary_round(24), 1..30),
                fanout in 1usize..4,
            ) {
                const VICTIM: SessionId = SessionId(9999);
                let mut s = Scheduler::with_fanout(fanout);
                let mut members: Vec<SessionId> = Vec::new();
                let mut since_served = 0usize;
                let mut n_max = 1usize;
                for round in &rounds {
                    let mut runnable: Vec<SessionId> =
                        round.iter().map(|&i| SessionId(i)).collect();
                    runnable.push(VICTIM);
                    runnable.sort_unstable();
                    runnable.dedup();
                    migrate(&mut s, &members, &runnable);
                    members = runnable;
                    n_max = n_max.max(members.len());
                    let plan = s.plan_round();
                    prop_assert_eq!(plan.len(), fanout.min(members.len()));
                    if plan.contains(&VICTIM) {
                        since_served = 0;
                        n_max = members.len();
                    } else {
                        since_served += 1;
                    }
                    prop_assert!(
                        since_served < n_max.div_ceil(fanout),
                        "victim waited {since_served} rounds with n_max = {n_max}, \
                         fanout = {fanout}"
                    );
                }
            }

            /// A plan never contains duplicates or non-members, and
            /// fills the fanout whenever the population allows.
            #[test]
            fn plans_are_well_formed(
                members in proptest::collection::vec(0u64..32, 1..16),
                fanout in 1usize..6,
                rounds in 1usize..8,
            ) {
                let mut runnable: Vec<SessionId> =
                    members.iter().map(|&i| SessionId(i)).collect();
                runnable.sort_unstable();
                runnable.dedup();
                let mut s = Scheduler::with_fanout(fanout);
                migrate(&mut s, &[], &runnable);
                for _ in 0..rounds {
                    let plan = s.plan_round();
                    prop_assert_eq!(plan.len(), fanout.min(runnable.len()));
                    let mut seen = HashSet::new();
                    for id in &plan {
                        prop_assert!(seen.insert(*id), "duplicate {id} in plan");
                        prop_assert!(runnable.contains(id), "non-member {id} planned");
                    }
                }
            }

            /// The event-driven scheduler plans exactly what the
            /// reconciling reference plans, round for round, under random
            /// scripts of submits, finishes, parks, resumes and plans, at
            /// fanouts 1–5 and unbounded. As in the service, a parked
            /// session resumes only after a plan has passed, and a session
            /// may finish before it was ever planned.
            #[test]
            fn plans_match_the_reconciling_reference(
                script in proptest::collection::vec((0u8..6, 0usize..64), 1..120),
                fanout in 0usize..6,
            ) {
                let fanout = (fanout > 0).then_some(fanout);
                let mut s = match fanout {
                    Some(f) => Scheduler::with_fanout(f),
                    None => Scheduler::default(),
                };
                let mut reference = Reference { fanout, ..Reference::default() };
                let mut submitted = 0u64;
                let mut runnable: Vec<SessionId> = Vec::new();
                // Parked since the last plan, and parked before it.
                let mut parking: Vec<SessionId> = Vec::new();
                let mut parked: Vec<SessionId> = Vec::new();
                for (step, &(op, pick)) in script.iter().enumerate() {
                    match op {
                        0 | 1 => {
                            let id = SessionId(submitted);
                            submitted += 1;
                            s.join(id);
                            runnable.push(id);
                        }
                        2 | 3 if !runnable.is_empty() => {
                            let id = runnable.swap_remove(pick % runnable.len());
                            s.leave(id);
                            if op == 3 {
                                parking.push(id);
                            }
                        }
                        4 if !parked.is_empty() => {
                            let id = parked.swap_remove(pick % parked.len());
                            s.join(id);
                            runnable.push(id);
                        }
                        _ => {
                            parked.append(&mut parking);
                            prop_assert_eq!(
                                s.plan_round(),
                                reference.plan_round(&runnable),
                                "plans diverge at step {}",
                                step
                            );
                        }
                    }
                }
            }
        }
    }
}

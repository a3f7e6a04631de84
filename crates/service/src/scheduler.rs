//! Round scheduling: which live sessions get crowd attention this round.
//!
//! The policy is strict priority between classes, deficit round-robin
//! within a class: every round the scheduler walks priority classes from
//! highest to lowest, granting each class whatever fanout is left, and a
//! class spends its grant from the front of a **persistent service
//! queue** — served sessions recycle to the back, newly runnable sessions
//! join at the back, departed sessions drop out in place. The queue *is*
//! the per-class cursor, and because it survives across rounds a class
//! whose grant is smaller than its population carries its service deficit
//! over instead of restarting the rotation.
//!
//! Sessions report their own transitions (DESIGN.md §14): submit and a
//! resume that stays active join, park, finish and fail leave. A
//! departure only marks the session's entry stale, and a plan drops it
//! when it reaches it, so a plan costs amortised O(fanout + departures)
//! and never scans the queues or the session table.
//!
//! Fairness bound (pinned by proptests in this module): while a session's
//! class is the highest nonempty one, it is served within
//! `ceil(n / fanout)` rounds, where `n` is the class population over that
//! window. The bound is churn-proof: joiners enter *behind* every waiting
//! session, so a waiting session's queue position only ever decreases —
//! by `min(fanout, n)` per round — until it is served. (Lower classes see
//! only the fanout the classes above them leave unspent; strict priority
//! deliberately starves them while higher classes saturate the round,
//! exactly as the `priorities_finish_first_under_bounded_fanout` service
//! test demands.)

use crate::registry::SessionId;
use std::collections::{BTreeMap, VecDeque};

/// Priority + deficit-round-robin scheduler (see module docs).
#[derive(Debug, Clone, Default)]
pub(crate) struct Scheduler {
    fanout: Option<usize>,
    /// Priority classes with at least one member.
    classes: BTreeMap<u8, Class>,
    /// Every member's class, backing the `debug-invariants` check of the
    /// documented ceil(n / fanout) fairness bound.
    #[cfg(feature = "debug-invariants")]
    class_of: BTreeMap<SessionId, u8>,
    /// Per-session deficit tracker of the same check.
    #[cfg(feature = "debug-invariants")]
    waits: BTreeMap<SessionId, WaitState>,
}

/// One priority class.
#[derive(Debug, Clone, Default)]
struct Class {
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
}

/// How long a runnable session has waited inside its priority class,
/// relative to the largest class population (`n_max`) and the smallest
/// per-round slot allotment (`slots_min`) it waited through.
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

    /// `id` becomes runnable in class `priority`: it enters the back of
    /// the class at the next plan. That matches the reconciling planner
    /// only if a plan passed since `id` last left (which kept its place
    /// otherwise); the service guarantees it by parking in one round and
    /// resuming in a later one.
    pub(crate) fn join(&mut self, id: SessionId, priority: u8) {
        #[cfg(feature = "debug-invariants")]
        self.class_of.insert(id, priority);
        let class = self.classes.entry(priority).or_default();
        class.members += 1;
        class.joined.push(id);
    }

    /// `id`, a member of class `priority`, stops being runnable. Its
    /// entry drops out when a plan reaches it; a class left without
    /// members is dropped whole.
    pub(crate) fn leave(&mut self, id: SessionId, priority: u8) {
        let Some(class) = self.classes.get_mut(&priority) else {
            return;
        };
        #[cfg(feature = "debug-invariants")]
        self.class_of.remove(&id);
        class.members -= 1;
        if class.members == 0 {
            self.classes.remove(&priority);
        } else {
            *class.departed.entry(id).or_insert(0) += 1;
        }
    }

    /// Picks the sessions to serve this round, in service order (highest
    /// class first, queue order within a class).
    pub(crate) fn plan_round(&mut self) -> Vec<SessionId> {
        let members = self.classes.values().map(|c| c.members).sum();
        let mut budget = self.fanout.unwrap_or(members);
        let mut plan = Vec::with_capacity(budget.min(members));
        // Every class admits its joiners, in id order, served or not.
        // Highest priority first; within a class, pop from the front and
        // recycle to the back so the unserved remainder keeps its place.
        for class in self.classes.values_mut().rev() {
            class.joined.sort_unstable();
            class.queue.extend(class.joined.drain(..));
            let mut take = budget.min(class.members);
            budget -= take;
            while take > 0 {
                let Some(id) = class.queue.pop_front() else {
                    break; // unreachable: the queue holds every member
                };
                if let Some(stale) = class.departed.get_mut(&id) {
                    *stale -= 1;
                    if *stale == 0 {
                        class.departed.remove(&id);
                    }
                    continue;
                }
                plan.push(id);
                class.queue.push_back(id);
                take -= 1;
            }
        }
        #[cfg(feature = "debug-invariants")]
        self.check_fairness(&plan);
        plan
    }

    /// `debug-invariants` check: within a priority class that received
    /// `s >= 1` slots this round, a session that stayed runnable is
    /// served within `ceil(n_max / s_min)` such rounds, where `n_max` is
    /// the largest class population and `s_min` the smallest slot
    /// allotment it waited through. Classes receiving no slots this round
    /// (outprioritized) are exempt — the bound is per-class rotation, not
    /// cross-class preemption. O(members) per plan, under this feature
    /// only.
    #[cfg(feature = "debug-invariants")]
    fn check_fairness(&mut self, plan: &[SessionId]) {
        let mut class_slots: BTreeMap<u8, usize> = BTreeMap::new();
        for id in plan {
            *class_slots.entry(self.class_of[id]).or_insert(0) += 1;
        }
        let class_of = &self.class_of;
        self.waits.retain(|id, _| class_of.contains_key(id));
        for (&id, &priority) in class_of {
            let slots = class_slots.get(&priority).copied().unwrap_or(0);
            if slots == 0 {
                continue;
            }
            let n = self.classes[&priority].members;
            if plan.contains(&id) {
                self.waits.insert(
                    id,
                    WaitState {
                        waited: 0,
                        n_max: n,
                        slots_min: slots,
                    },
                );
                continue;
            }
            let w = self.waits.entry(id).or_insert(WaitState {
                waited: 0,
                n_max: n,
                slots_min: slots,
            });
            w.waited += 1;
            w.n_max = w.n_max.max(n);
            w.slots_min = w.slots_min.min(slots);
            assert!(
                w.waited < w.n_max.div_ceil(w.slots_min),
                "scheduler deficit bound violated: {id} waited {} rounds \
                 (class population <= {}, slots >= {})",
                w.waited,
                w.n_max,
                w.slots_min
            );
        }
    }

    /// Queue entries held, stale or live, admitted or waiting to be.
    #[cfg(test)]
    pub(crate) fn entries(&self) -> usize {
        self.classes
            .values()
            .map(|c| c.queue.len() + c.joined.len())
            .sum()
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
    fn joined(mut s: Scheduler, members: &[(u64, u8)]) -> Scheduler {
        for &(id, priority) in members {
            s.join(SessionId(id), priority);
        }
        s
    }

    /// The planner as it was before sessions reported their own
    /// transitions: every plan reconciles the persistent queues against
    /// the full runnable list. Kept as the reference the event-driven
    /// scheduler must match plan for plan.
    #[derive(Default)]
    struct Reference {
        fanout: Option<usize>,
        queues: BTreeMap<u8, VecDeque<SessionId>>,
    }

    impl Reference {
        fn plan_round(&mut self, runnable: &[(SessionId, u8)]) -> Vec<SessionId> {
            self.sync_queues(runnable);
            let mut budget = self.fanout.unwrap_or(runnable.len());
            let mut plan = Vec::with_capacity(budget.min(runnable.len()));
            for queue in self.queues.values_mut().rev() {
                let take = budget.min(queue.len());
                for _ in 0..take {
                    let Some(id) = queue.pop_front() else {
                        break;
                    };
                    plan.push(id);
                    queue.push_back(id);
                }
                budget -= take;
                if budget == 0 {
                    break;
                }
            }
            plan
        }

        /// Departed sessions drop out in place, newly runnable sessions
        /// join at the back of their class in id order.
        fn sync_queues(&mut self, runnable: &[(SessionId, u8)]) {
            let mut incoming: BTreeMap<u8, Vec<SessionId>> = BTreeMap::new();
            for &(id, priority) in runnable {
                incoming.entry(priority).or_default().push(id);
            }
            self.queues
                .retain(|priority, queue| match incoming.get(priority) {
                    Some(ids) => {
                        let runnable_now: BTreeSet<SessionId> = ids.iter().copied().collect();
                        queue.retain(|id| runnable_now.contains(id));
                        true
                    }
                    None => false,
                });
            for (priority, mut ids) in incoming {
                ids.sort_unstable();
                let queue = self.queues.entry(priority).or_default();
                let queued: BTreeSet<SessionId> = queue.iter().copied().collect();
                queue.extend(ids.into_iter().filter(|id| !queued.contains(id)));
            }
        }
    }

    #[test]
    fn unbounded_fanout_serves_everyone() {
        let mut s = joined(Scheduler::default(), &[(0, 0), (1, 0), (2, 0)]);
        assert_eq!(s.plan_round().len(), 3);
    }

    #[test]
    fn higher_priority_goes_first() {
        let mut s = joined(Scheduler::with_fanout(2), &[(0, 0), (1, 9), (2, 0), (3, 5)]);
        assert_eq!(s.plan_round(), ids(&[1, 3]));
    }

    #[test]
    fn round_robin_is_starvation_free() {
        let mut s = joined(Scheduler::with_fanout(1), &[(0, 0), (1, 0), (2, 0)]);
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
        // The headline starvation repro: fanout 2 over priorities
        // [(A,0), (B,9), (C,0), (D,0)]. The cursor-arithmetic scheduler
        // rotated the pre-sort list by a cursor advanced in steps of 2,
        // so the start index oscillated 0 -> 2 -> 0 and D was never
        // planned. The deficit round-robin serves B every round plus the
        // low class in strict rotation: each of A, C, D within 3 rounds.
        let mut s = joined(
            Scheduler::with_fanout(2),
            &[
                (0, 0), // A
                (1, 9), // B
                (2, 0), // C
                (3, 0), // D
            ],
        );
        let rounds: Vec<Vec<SessionId>> = (0..6).map(|_| s.plan_round()).collect();
        for (r, plan) in rounds.iter().enumerate() {
            assert_eq!(plan.len(), 2, "round {r} fills the fanout");
            assert_eq!(plan[0], SessionId(1), "B leads every round");
        }
        let low_order: Vec<SessionId> = rounds.iter().map(|p| p[1]).collect();
        assert_eq!(
            low_order,
            ids(&[0, 2, 3, 0, 2, 3]),
            "the low class rotates A, C, D without skipping anyone"
        );
        // The documented bound: the low class (n = 3) receives 1 slot per
        // round, so every member appears within ceil(3 / 1) = 3 rounds.
        for id in ids(&[0, 2, 3]) {
            assert!(
                low_order[..3].contains(&id),
                "{id} must be served within 3 rounds"
            );
        }
    }

    #[test]
    fn rotation_survives_within_priority_class() {
        // The high-priority session always wins until it is done; among
        // the low-priority pair, turns alternate once it leaves.
        let mut s = joined(Scheduler::with_fanout(1), &[(0, 0), (1, 7), (2, 0)]);
        assert_eq!(s.plan_round(), ids(&[1]));
        assert_eq!(s.plan_round(), ids(&[1]));
        s.leave(SessionId(1), 7);
        let a = s.plan_round()[0];
        let b = s.plan_round()[0];
        assert_ne!(a, b, "equal-priority sessions alternate");
    }

    #[test]
    fn joiners_enter_behind_waiting_sessions() {
        // A session that has waited must not be delayed by later
        // arrivals: the joiner queues up behind it.
        let mut s = joined(Scheduler::with_fanout(1), &[(0, 0), (1, 0)]);
        assert_eq!(s.plan_round(), ids(&[0]));
        s.join(SessionId(2), 0);
        assert_eq!(s.plan_round(), ids(&[1]), "1 was first in line");
        assert_eq!(s.plan_round(), ids(&[0]), "0 recycled before 2 joined");
        assert_eq!(s.plan_round(), ids(&[2]));
    }

    #[test]
    fn empty_runnable_set() {
        let mut s = Scheduler::default();
        assert!(s.plan_round().is_empty());
        let mut one = joined(Scheduler::with_fanout(0), &[(0, 0), (1, 0)]);
        assert_eq!(one.plan_round().len(), 1, "fanout 0 clamps to 1");
    }

    #[test]
    fn departures_are_passed_once_and_storage_stays_bounded() {
        // 10k sessions join one class under fanout 64; all but a few
        // retire, some before they were ever planned. Every popped entry
        // is either served (at most `fanout` per round) or the stale entry
        // of one departure, and nothing stale survives being passed.
        const JOINS: u64 = 10_000;
        const FANOUT: usize = 64;
        const KEEP: [u64; 3] = [17, 4_242, 9_999];
        let mut s = Scheduler::with_fanout(FANOUT);
        for id in 0..JOINS {
            s.join(SessionId(id), (id % 3) as u8);
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
                    s.leave(*id, (id.0 % 3) as u8);
                }
            }
            if round == 3 {
                for id in (5_000..6_000).filter(|id| !KEEP.contains(id)) {
                    s.leave(SessionId(id), (id % 3) as u8);
                }
            }
            let members: usize = s.classes.values().map(|c| c.members).sum();
            if members == KEEP.len() && plan.iter().all(|id| KEEP.contains(&id.0)) {
                break;
            }
        }
        assert!(
            visited <= JOINS as usize + rounds * FANOUT,
            "visited {visited} entries over {rounds} rounds"
        );
        // One more round per class passes every leftover stale entry.
        for _ in 0..3 {
            s.plan_round();
        }
        let held: Vec<SessionId> = s.classes.values().flat_map(|c| c.queue.clone()).collect();
        let mut held_ids: Vec<u64> = held.iter().map(|id| id.0).collect();
        held_ids.sort_unstable();
        assert_eq!(held_ids, KEEP, "the queues hold the members only");
        assert!(s.classes.values().all(|c| c.departed.is_empty()));
        for id in KEEP {
            s.leave(SessionId(id), (id % 3) as u8);
        }
        assert_eq!(s.entries(), 0, "an emptied class is dropped whole");
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        /// One scripted churn step: which ids are runnable this round.
        fn arbitrary_round(n_ids: u64) -> impl Strategy<Value = Vec<u64>> {
            proptest::collection::vec(0..n_ids, 1..12)
        }

        /// Brings `s`'s membership from `before` to `after` (both sorted
        /// `(id, priority)` sets), leaving first, then joining in
        /// descending id order.
        fn migrate(s: &mut Scheduler, before: &[(SessionId, u8)], after: &[(SessionId, u8)]) {
            for m in before.iter().filter(|m| !after.contains(m)) {
                s.leave(m.0, m.1);
            }
            for m in after.iter().rev().filter(|m| !before.contains(m)) {
                s.join(m.0, m.1);
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// Stable membership: every member of the highest nonempty
            /// class is served within ceil(n / fanout) rounds, for any
            /// population and fanout.
            #[test]
            fn top_class_served_within_bound(
                low in 0usize..6,
                high in 1usize..8,
                fanout in 1usize..5,
            ) {
                let mut s = Scheduler::with_fanout(fanout);
                for i in 0..high {
                    s.join(SessionId(i as u64), 5);
                }
                for i in 0..low {
                    s.join(SessionId(100 + i as u64), 1);
                }
                let bound = high.div_ceil(fanout);
                let mut served: HashSet<SessionId> = HashSet::new();
                for _ in 0..bound {
                    for id in s.plan_round() {
                        served.insert(id);
                    }
                }
                for i in 0..high {
                    prop_assert!(
                        served.contains(&SessionId(i as u64)),
                        "top-class session {i} not served within {bound} rounds \
                         (n = {high}, fanout = {fanout})"
                    );
                }
            }

            /// Churn: sessions join and leave arbitrarily between rounds,
            /// but one victim stays runnable throughout a single priority
            /// class. It must be served within ceil(n_max / fanout)
            /// rounds, where n_max is the largest population it ever
            /// waited behind — joiners queue up behind it, so arrivals
            /// cannot push it back.
            #[test]
            fn no_starvation_under_churn(
                rounds in proptest::collection::vec(arbitrary_round(24), 1..30),
                fanout in 1usize..4,
            ) {
                const VICTIM: SessionId = SessionId(9999);
                let mut s = Scheduler::with_fanout(fanout);
                let mut members: Vec<(SessionId, u8)> = Vec::new();
                let mut since_served = 0usize;
                let mut n_max = 1usize;
                for ids in &rounds {
                    let mut runnable: Vec<(SessionId, u8)> =
                        ids.iter().map(|&i| (SessionId(i), 3)).collect();
                    runnable.push((VICTIM, 3));
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

            /// A plan never contains duplicates, never exceeds the fanout,
            /// and serves strictly by priority class.
            #[test]
            fn plans_are_well_formed(
                members in proptest::collection::vec((0u64..32, 0u8..4), 1..16),
                fanout in 1usize..6,
                rounds in 1usize..8,
            ) {
                let mut runnable: Vec<(SessionId, u8)> = members
                    .iter()
                    .map(|&(i, p)| (SessionId(i), p))
                    .collect();
                runnable.sort_unstable();
                runnable.dedup_by_key(|e| e.0);
                let mut s = Scheduler::with_fanout(fanout);
                migrate(&mut s, &[], &runnable);
                for _ in 0..rounds {
                    let plan = s.plan_round();
                    prop_assert_eq!(plan.len(), fanout.min(runnable.len()));
                    let mut seen = HashSet::new();
                    let priority_of = |id: SessionId| {
                        runnable.iter().find(|e| e.0 == id).unwrap().1
                    };
                    let mut last_priority = u8::MAX;
                    for id in &plan {
                        prop_assert!(seen.insert(*id), "duplicate {id} in plan");
                        let p = priority_of(*id);
                        prop_assert!(
                            p <= last_priority,
                            "priority order violated: {p} after {last_priority}"
                        );
                        last_priority = p;
                    }
                    // No unserved session of a class strictly above the
                    // lowest served class may exist (strict priority).
                    if let Some(lowest) = plan.iter().map(|id| priority_of(*id)).min() {
                        for &(id, p) in &runnable {
                            if p > lowest {
                                prop_assert!(
                                    plan.contains(&id),
                                    "higher-class {id} (p={p}) skipped while \
                                     class {lowest} was served"
                                );
                            }
                        }
                    }
                }
            }

            /// The event-driven scheduler plans exactly what the
            /// reconciling reference plans, round for round, under random
            /// scripts of submits (mixed priorities), finishes, parks,
            /// resumes and plans, at fanouts 1–5 and unbounded. As in the
            /// service, a parked session resumes only after a plan has
            /// passed, and a session may finish before it was ever planned.
            #[test]
            fn plans_match_the_reconciling_reference(
                script in proptest::collection::vec((0u8..6, 0u8..4, 0usize..64), 1..120),
                fanout in 0usize..6,
            ) {
                let fanout = (fanout > 0).then_some(fanout);
                let mut s = match fanout {
                    Some(f) => Scheduler::with_fanout(f),
                    None => Scheduler::default(),
                };
                let mut reference = Reference { fanout, ..Reference::default() };
                // Session i has priority priorities[i].
                let mut priorities: Vec<u8> = Vec::new();
                let mut runnable: Vec<SessionId> = Vec::new();
                // Parked since the last plan, and parked before it.
                let mut parking: Vec<SessionId> = Vec::new();
                let mut parked: Vec<SessionId> = Vec::new();
                for (step, &(op, priority, pick)) in script.iter().enumerate() {
                    match op {
                        0 | 1 => {
                            let id = SessionId(priorities.len() as u64);
                            priorities.push(priority);
                            s.join(id, priority);
                            runnable.push(id);
                        }
                        2 | 3 if !runnable.is_empty() => {
                            let id = runnable.swap_remove(pick % runnable.len());
                            s.leave(id, priorities[id.0 as usize]);
                            if op == 3 {
                                parking.push(id);
                            }
                        }
                        4 if !parked.is_empty() => {
                            let id = parked.swap_remove(pick % parked.len());
                            s.join(id, priorities[id.0 as usize]);
                            runnable.push(id);
                        }
                        _ => {
                            parked.append(&mut parking);
                            let listed: Vec<(SessionId, u8)> = runnable
                                .iter()
                                .map(|&id| (id, priorities[id.0 as usize]))
                                .collect();
                            prop_assert_eq!(
                                s.plan_round(),
                                reference.plan_round(&listed),
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

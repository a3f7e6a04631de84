//! Cross-session question batching: one service round's worth of
//! questions from many sessions, deduplicated through an answer cache
//! before any crowd budget is spent, through the service's single
//! purchase loop, `resolve_pending`.
//!
//! Two tenants asking about the same pair of objects is the common case a
//! serving layer exists to exploit: the crowd's answer to `t_i ?≺ t_j` is
//! a fact about the objects, not about the session that asked, so it can
//! be bought once and served many times. The cache is keyed on the
//! canonical orientation of the question and re-orients answers on the
//! way out.
//!
//! Caveat: with noisy workers a cached answer is one sample of the
//! answer distribution, frozen at first ask — sessions sharing it see
//! positively correlated noise (the economics the paper's §III-C majority
//! analysis prices). With reliable workers (accuracy 1) the cache is
//! lossless.
//!
//! The purchase loop is also the crowd boundary: an answer is validated
//! before it is cached or delivered, so a backend that reports a NaN
//! accuracy or answers a different pair than the one asked cannot poison
//! the shared cache or any session's belief.

use crate::metrics::ServiceMetrics;
use ctk_crowd::{Answer, Crowd, Question, RouteHint};
use std::collections::{BTreeMap, VecDeque};

/// One remembered crowd verdict.
#[derive(Debug, Clone, Copy)]
pub struct CachedAnswer {
    /// Answer in the *canonical* orientation of the question.
    pub yes: bool,
    /// Nominal accuracy of the aggregated answer when it was bought.
    pub accuracy: f64,
}

/// Memo of every pairwise verdict the crowd has produced, shared by all
/// sessions of a service.
#[derive(Debug, Clone, Default)]
pub struct AnswerCache {
    map: BTreeMap<Question, CachedAnswer>,
    hits: u64,
    lookups: u64,
}

impl AnswerCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Looks up the answer for `q`, re-oriented to `q`'s own orientation,
    /// together with the accuracy it was bought at.
    pub fn get(&mut self, q: Question) -> Option<(Answer, f64)> {
        self.lookups += 1;
        let canonical = q.canonical();
        let cached = self.map.get(&canonical)?;
        self.hits += 1;
        Some((
            Answer {
                question: q,
                yes: if q == canonical {
                    cached.yes
                } else {
                    !cached.yes
                },
            },
            cached.accuracy,
        ))
    }

    /// Stores a freshly bought answer (canonicalized).
    pub fn insert(&mut self, answer: Answer, accuracy: f64) {
        let canonical = answer.question.canonical();
        let yes = if answer.question == canonical {
            answer.yes
        } else {
            !answer.yes
        };
        self.map.insert(canonical, CachedAnswer { yes, accuracy });
    }

    /// Distinct questions remembered.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when no answer was cached yet.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Lookups served from the cache.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Total lookups.
    pub fn lookups(&self) -> u64 {
        self.lookups
    }
}

/// One delivered answer with its provenance.
#[derive(Debug, Clone, Copy)]
pub struct ServedAnswer {
    /// The answer, oriented to the question as the session posed it.
    pub answer: Answer,
    /// Nominal accuracy of the answer — the accuracy at *purchase* time
    /// for cached answers, which may differ from the crowd's current one
    /// if the backend's policy drifted.
    pub accuracy: f64,
    /// True when served from the cache (no crowd budget spent).
    pub cached: bool,
}

/// How one session's pending batch ended at the purchase loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Disposition {
    /// Every pending question was answered (cache or live).
    Resolved,
    /// A cache miss met a crowd with no budget left: the session parks
    /// `AwaitingBudget`, `pending` holding the unresolved tail.
    Parked,
    /// The crowd refused a live question, or its answer failed
    /// validation: the batch is cut to the prefix that was served (the
    /// driver reads the partial set as "wind down").
    Starved,
}

/// The service's purchase loop: resolves `pending` front to back,
/// cache-first, crowd-second, appending each answer to `served`.
///
/// Before a live ask it checks `crowd.remaining()`; at zero the session
/// parks ([`Disposition::Parked`]) so a budget top-up can still resume
/// it. A refused ask, or an answer whose pair is not the asked one or
/// whose accuracy is not finite, starves the batch: the rest of
/// `pending` is dropped and an invalid answer is neither cached nor
/// delivered (counted in `invalid_answers`). Accuracies below 0.5 pass —
/// adversarial workers legitimately report them, and the noisy belief
/// update clamps them. Counts cache hits, live asks and routing splits
/// on `metrics`.
pub(crate) fn resolve_pending<C: Crowd>(
    pending: &mut VecDeque<(Question, RouteHint)>,
    served: &mut Vec<ServedAnswer>,
    cache: &mut AnswerCache,
    crowd: &mut C,
    metrics: &mut ServiceMetrics,
) -> Disposition {
    while let Some(&(q, hint)) = pending.front() {
        if let Some((answer, accuracy)) = cache.get(q) {
            pending.pop_front();
            metrics.cache_hits += 1;
            served.push(ServedAnswer {
                answer,
                accuracy,
                cached: true,
            });
            continue;
        }
        if crowd.remaining() == 0 {
            return Disposition::Parked;
        }
        let Some(answer) = crowd.ask_routed(q, hint) else {
            pending.clear();
            return Disposition::Starved;
        };
        metrics.crowd_questions += 1;
        match hint {
            RouteHint::Expert => metrics.routed_expert += 1,
            RouteHint::Cheap => metrics.routed_cheap += 1,
            RouteHint::Any => {}
        }
        let accuracy = crowd.answer_accuracy();
        if answer.question.canonical() != q.canonical() || !accuracy.is_finite() {
            metrics.invalid_answers += 1;
            pending.clear();
            return Disposition::Starved;
        }
        pending.pop_front();
        cache.insert(answer, accuracy);
        served.push(ServedAnswer {
            answer,
            accuracy,
            cached: false,
        });
    }
    Disposition::Resolved
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctk_crowd::{CrowdSimulator, GroundTruth, PerfectWorker, VotePolicy};

    fn crowd(budget: usize) -> CrowdSimulator<PerfectWorker> {
        CrowdSimulator::new(
            GroundTruth::from_scores(vec![0.1, 0.5, 0.9]),
            PerfectWorker,
            VotePolicy::Single,
            budget,
        )
        .expect("valid vote policy")
    }

    #[test]
    fn cache_orients_answers() {
        let mut cache = AnswerCache::new();
        // Truth: 2 ranks above 0, stored via the (2, 0) orientation.
        cache.insert(
            Answer {
                question: Question::new(2, 0),
                yes: true,
            },
            1.0,
        );
        assert_eq!(cache.len(), 1);
        let (a, acc) = cache.get(Question::new(2, 0)).unwrap();
        assert!(a.yes);
        assert_eq!(acc, 1.0, "purchase-time accuracy is preserved");
        let (b, _) = cache.get(Question::new(0, 2)).unwrap();
        assert!(!b.yes, "flipped orientation must flip the answer");
        assert_eq!(b.question, Question::new(0, 2));
        assert_eq!(cache.hits(), 2);
        assert!(cache.get(Question::new(0, 1)).is_none());
        assert_eq!(cache.lookups(), 3);
    }

    fn pending(qs: &[(u32, u32)]) -> VecDeque<(Question, RouteHint)> {
        qs.iter()
            .map(|&(i, j)| (Question::new(i, j), RouteHint::Any))
            .collect()
    }

    #[test]
    fn duplicate_questions_cost_one_crowd_ask() {
        let mut c = crowd(10);
        let mut cache = AnswerCache::new();
        let mut metrics = ServiceMetrics::default();
        let (mut a, mut b) = (Vec::new(), Vec::new());
        let mut qa = pending(&[(1, 0), (2, 1)]);
        let mut qb = pending(&[(0, 1), (2, 1)]);
        let da = resolve_pending(&mut qa, &mut a, &mut cache, &mut c, &mut metrics);
        let db = resolve_pending(&mut qb, &mut b, &mut cache, &mut c, &mut metrics);
        assert_eq!((da, db), (Disposition::Resolved, Disposition::Resolved));
        assert_eq!(metrics.crowd_questions, 2, "two distinct pairs");
        assert_eq!(metrics.cache_hits, 2, "second session fully deduped");
        // Both sessions got consistent verdicts, with provenance.
        assert!(a[0].answer.yes); // 1 above 0
        assert!(!b[0].answer.yes); // 0 NOT above 1
        assert!(a[1].answer.yes && b[1].answer.yes);
        assert!(!a[0].cached && b[0].cached);
        assert_eq!(c.remaining(), 8);
    }

    #[test]
    fn exhausted_crowd_yields_prefixes_but_serves_cache() {
        let mut c = crowd(1);
        let mut cache = AnswerCache::new();
        let mut metrics = ServiceMetrics::default();
        // Session 0: first answered live, then the crowd is empty — it
        // parks with its prefix served and the tail still pending.
        let (mut q0, mut s0) = (pending(&[(1, 0), (2, 1)]), Vec::new());
        let d0 = resolve_pending(&mut q0, &mut s0, &mut cache, &mut c, &mut metrics);
        assert_eq!(d0, Disposition::Parked);
        assert_eq!(s0.len(), 1);
        assert_eq!(q0.len(), 1, "the unresolved tail is kept for a resume");
        // Session 1: crowd is spent but the answer is cached.
        let (mut q1, mut s1) = (pending(&[(1, 0)]), Vec::new());
        let d1 = resolve_pending(&mut q1, &mut s1, &mut cache, &mut c, &mut metrics);
        assert_eq!(d1, Disposition::Resolved);
        assert!(s1[0].cached);
        assert_eq!(metrics.crowd_questions, 1);
        assert_eq!(metrics.cache_hits, 1);
    }

    /// A crowd that always claims budget, refuses `(0, 2)`, answers
    /// `(1, 2)` with a NaN accuracy and `(0, 1)` about the wrong pair.
    struct Faulty(CrowdSimulator<PerfectWorker>);

    impl Crowd for Faulty {
        fn ask(&mut self, q: Question) -> Option<Answer> {
            if q.canonical() == Question::new(0, 2).canonical() {
                return None;
            }
            let answer = self.0.ask(q)?;
            if q.canonical() == Question::new(0, 1).canonical() {
                return Some(Answer {
                    question: Question::new(1, 2),
                    ..answer
                });
            }
            Some(answer)
        }
        fn remaining(&self) -> usize {
            usize::MAX
        }
        fn answer_accuracy(&self) -> f64 {
            match self.0.history().last() {
                Some(a) if a.question.canonical() == Question::new(1, 2).canonical() => f64::NAN,
                _ => 1.0,
            }
        }
        fn history(&self) -> &[Answer] {
            self.0.history()
        }
    }

    #[test]
    fn refusals_and_invalid_answers_cut_the_batch_uncached() {
        let mut c = Faulty(crowd(10));
        let mut cache = AnswerCache::new();
        let mut metrics = ServiceMetrics::default();
        for (bad, invalid) in [((0, 2), 0), ((1, 2), 1), ((0, 1), 2)] {
            let mut q = pending(&[bad, (2, 0)]);
            let mut served = Vec::new();
            let d = resolve_pending(&mut q, &mut served, &mut cache, &mut c, &mut metrics);
            assert_eq!(d, Disposition::Starved, "{bad:?}");
            assert!(served.is_empty() && q.is_empty(), "{bad:?}");
            assert_eq!(metrics.invalid_answers, invalid, "{bad:?}");
        }
        assert!(cache.is_empty(), "nothing invalid may be cached");
    }
}

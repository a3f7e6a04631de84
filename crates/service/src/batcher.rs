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
use ctk_crowd::{Answer, Crowd, Question};
use std::collections::BTreeMap;

/// One remembered crowd verdict.
#[derive(Debug, Clone, Copy)]
struct CachedAnswer {
    /// Answer in the *canonical* orientation of the question.
    yes: bool,
    /// Nominal accuracy of the aggregated answer when it was bought.
    accuracy: f64,
}

/// Memo of every pairwise verdict the crowd has produced, shared by all
/// sessions of a service. Its hits are counted in
/// [`ServiceMetrics::cache_hits`].
#[derive(Debug, Clone, Default)]
pub(crate) struct AnswerCache {
    map: BTreeMap<Question, CachedAnswer>,
}

impl AnswerCache {
    /// Looks up the answer for `q`, re-oriented to `q`'s own orientation,
    /// together with the accuracy it was bought at.
    pub(crate) fn get(&self, q: Question) -> Option<(Answer, f64)> {
        let canonical = q.canonical();
        let cached = self.map.get(&canonical)?;
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
    pub(crate) fn insert(&mut self, answer: Answer, accuracy: f64) {
        let canonical = answer.question.canonical();
        let yes = if answer.question == canonical {
            answer.yes
        } else {
            !answer.yes
        };
        self.map.insert(canonical, CachedAnswer { yes, accuracy });
    }
}

/// How one session's batch ended at the purchase loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Disposition {
    /// Every outstanding question was answered (cache or live).
    Resolved,
    /// A cache miss met a crowd with no budget left: the session parks
    /// `AwaitingBudget`, its mailbox holding the served prefix.
    Parked,
    /// The crowd refused a live question, or its answer failed
    /// validation: the batch is cut to the prefix that was served (the
    /// driver reads the partial set as "wind down").
    Starved,
}

/// The service's purchase loop: resolves `tail` — a session's
/// outstanding questions past the `served` prefix — front to back,
/// cache-first, crowd-second, appending each answer with its accuracy to
/// `served`.
///
/// Before a live ask it checks `crowd.remaining()`; at zero the session
/// parks ([`Disposition::Parked`]) so a budget top-up can still resume
/// it. A refused ask, or an answer whose pair is not the asked one or whose
/// accuracy is not finite, starves the batch: an invalid answer is
/// neither cached nor delivered (counted in `invalid_answers`).
/// Accuracies below 0.5 pass — adversarial workers legitimately report
/// them, and the noisy belief update clamps them. Counts cache hits and
/// live asks on `metrics`.
pub(crate) fn resolve_pending<C: Crowd>(
    tail: impl Iterator<Item = Question>,
    served: &mut Vec<(Answer, f64)>,
    cache: &mut AnswerCache,
    crowd: &mut C,
    metrics: &mut ServiceMetrics,
) -> Disposition {
    for q in tail {
        if let Some(hit) = cache.get(q) {
            metrics.cache_hits += 1;
            served.push(hit);
            continue;
        }
        if crowd.remaining() == 0 {
            return Disposition::Parked;
        }
        let Some(answer) = crowd.ask(q) else {
            return Disposition::Starved;
        };
        metrics.crowd_questions += 1;
        let accuracy = crowd.answer_accuracy();
        if answer.question.canonical() != q.canonical() || !accuracy.is_finite() {
            metrics.invalid_answers += 1;
            return Disposition::Starved;
        }
        cache.insert(answer, accuracy);
        served.push((answer, accuracy));
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
        let mut cache = AnswerCache::default();
        // Truth: 2 ranks above 0, stored via the (2, 0) orientation.
        cache.insert(
            Answer {
                question: Question::new(2, 0),
                yes: true,
            },
            1.0,
        );
        assert_eq!(cache.map.len(), 1);
        let (a, acc) = cache.get(Question::new(2, 0)).unwrap();
        assert!(a.yes);
        assert_eq!(acc, 1.0, "purchase-time accuracy is preserved");
        let (b, _) = cache.get(Question::new(0, 2)).unwrap();
        assert!(!b.yes, "flipped orientation must flip the answer");
        assert_eq!(b.question, Question::new(0, 2));
        assert!(cache.get(Question::new(0, 1)).is_none());
    }

    /// Resolves the questions of `batch` past the `served` prefix, as the
    /// service does for a session's outstanding batch.
    fn resolve<C: Crowd>(
        batch: &[(u32, u32)],
        served: &mut Vec<(Answer, f64)>,
        cache: &mut AnswerCache,
        crowd: &mut C,
        metrics: &mut ServiceMetrics,
    ) -> Disposition {
        let tail = batch
            .iter()
            .skip(served.len())
            .map(|&(i, j)| Question::new(i, j));
        resolve_pending(tail, served, cache, crowd, metrics)
    }

    #[test]
    fn duplicate_questions_cost_one_crowd_ask() {
        let mut c = crowd(10);
        let mut cache = AnswerCache::default();
        let mut metrics = ServiceMetrics::default();
        let (mut a, mut b) = (Vec::new(), Vec::new());
        let da = resolve(&[(1, 0), (2, 1)], &mut a, &mut cache, &mut c, &mut metrics);
        let db = resolve(&[(0, 1), (2, 1)], &mut b, &mut cache, &mut c, &mut metrics);
        assert_eq!((da, db), (Disposition::Resolved, Disposition::Resolved));
        assert_eq!(metrics.crowd_questions, 2, "two distinct pairs");
        assert_eq!(metrics.cache_hits, 2, "second session fully deduped");
        // Both sessions got consistent verdicts, each with its accuracy.
        assert!(a[0].0.yes); // 1 above 0
        assert!(!b[0].0.yes); // 0 NOT above 1
        assert!(a[1].0.yes && b[1].0.yes);
        assert_eq!(a[0].1, 1.0);
        assert_eq!(c.remaining(), 8);
    }

    #[test]
    fn exhausted_crowd_yields_prefixes_but_serves_cache() {
        let mut c = crowd(1);
        let mut cache = AnswerCache::default();
        let mut metrics = ServiceMetrics::default();
        // Session 0: first answered live, then the crowd is empty — it
        // parks with its prefix served; the tail is the rest of the batch.
        let (batch0, mut s0) = ([(1, 0), (2, 1)], Vec::new());
        let d0 = resolve(&batch0, &mut s0, &mut cache, &mut c, &mut metrics);
        assert_eq!(d0, Disposition::Parked);
        assert_eq!(s0.len(), 1);
        // A resume retries only the tail, and parks again on the empty crowd.
        let d0 = resolve(&batch0, &mut s0, &mut cache, &mut c, &mut metrics);
        assert_eq!((d0, s0.len()), (Disposition::Parked, 1));
        // Session 1: crowd is spent but the answer is cached.
        let mut s1 = Vec::new();
        let d1 = resolve(&[(1, 0)], &mut s1, &mut cache, &mut c, &mut metrics);
        assert_eq!(d1, Disposition::Resolved);
        assert_eq!(s1.len(), 1);
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
        let mut cache = AnswerCache::default();
        let mut metrics = ServiceMetrics::default();
        for (bad, invalid) in [((0, 2), 0), ((1, 2), 1), ((0, 1), 2)] {
            let mut served = Vec::new();
            let d = resolve(
                &[bad, (2, 0)],
                &mut served,
                &mut cache,
                &mut c,
                &mut metrics,
            );
            assert_eq!(d, Disposition::Starved, "{bad:?}");
            assert!(served.is_empty(), "{bad:?}");
            assert_eq!(metrics.invalid_answers, invalid, "{bad:?}");
        }
        assert!(cache.map.is_empty(), "nothing invalid may be cached");
    }
}

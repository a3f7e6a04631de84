//! Joint re-estimation of worker accuracies and consensus answers:
//! Dawid–Skene EM specialized to binary pairwise questions.
//!
//! The online Beta updates in [`crate::posterior`] grade each vote
//! against the *single-pass* fused consensus, which is itself computed
//! from possibly-stale accuracy estimates — a chicken-and-egg problem the
//! classic Dawid–Skene algorithm resolves by alternating:
//!
//! * **E-step** — for each question, the posterior probability of "yes"
//!   under the current accuracies (uniform 0.5 class prior):
//!   `P(yes | votes) ∝ Π_v (p_w if v says yes else 1−p_w)`;
//! * **M-step** — each worker's accuracy is re-estimated as their soft
//!   agreement rate with those posteriors, smoothed by the Beta prior
//!   pseudo-counts so short histories don't collapse to 0 or 1.
//!
//! Determinism: the vote log is a bounded FIFO in ask order, per-question
//! votes keep collection order, and per-worker accumulators live in a
//! `BTreeMap` keyed by [`WorkerId`] — every fold order is fixed, so the
//! same history always re-estimates to bit-identical accuracies.

use ctk_crowd::{Vote, WorkerId};
use std::collections::BTreeMap;
use std::collections::VecDeque;

/// Accuracies inside the E-step likelihood are clamped to this band:
/// keeps every panel likelihood strictly positive (no 0/0
/// responsibilities) and stops a worker from being treated as an oracle
/// (p = 1 would let a single vote decide every question it touches).
const EM_CLAMP: f64 = 0.05;

/// Panels a [`VoteLog`] remembers.
const LOG_CAPACITY: usize = 512;

/// One asked question's attributed votes plus the verdict fused at ask
/// time.
#[derive(Debug, Clone)]
pub(crate) struct PanelRecord {
    /// The raw votes, in collection order.
    pub(crate) votes: Vec<Vote>,
    /// The verdict the single-pass fusion produced.
    pub(crate) fused_yes: bool,
}

/// Bounded FIFO of the most recent `LOG_CAPACITY` [`PanelRecord`]s —
/// the evidence window the EM pass runs over.
#[derive(Debug, Clone, Default)]
pub(crate) struct VoteLog {
    window: VecDeque<PanelRecord>,
}

impl VoteLog {
    /// Appends a record, evicting the oldest beyond capacity.
    pub(crate) fn push(&mut self, record: PanelRecord) {
        if self.window.len() == LOG_CAPACITY {
            self.window.pop_front();
        }
        self.window.push_back(record);
    }

    /// The records, oldest first.
    pub(crate) fn records(&self) -> impl Iterator<Item = &PanelRecord> {
        self.window.iter()
    }
}

/// Soft evidence the EM pass accumulated for one worker.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct EmEvidence {
    /// Expected number of correct answers under the final consensus
    /// posteriors.
    pub(crate) correct: f64,
    /// Total answers graded (the worker's vote count in the window).
    pub(crate) total: f64,
}

impl EmEvidence {
    /// Soft wrong count.
    pub(crate) fn wrong(&self) -> f64 {
        self.total - self.correct
    }
}

/// Runs `iters` rounds of binary Dawid–Skene EM over the logged window.
///
/// `init` supplies each worker's starting accuracy (workers absent from
/// the map start at the `smoothing` prior mean); `smoothing = (α₀, β₀)`
/// are the Beta pseudo-counts mixed into every M-step. Returns the final
/// soft evidence per worker; callers fold it back into their posteriors
/// via [`crate::posterior::BetaPosterior::set_evidence`].
pub(crate) fn dawid_skene(
    log: &VoteLog,
    init: &BTreeMap<WorkerId, f64>,
    smoothing: (f64, f64),
    iters: usize,
) -> BTreeMap<WorkerId, EmEvidence> {
    let (a0, b0) = smoothing;
    let prior_mean = a0 / (a0 + b0);
    // Round 0: grade hard against the ask-time fused verdicts — the
    // standard majority-vote initialization that breaks EM's symmetric
    // fixed point (uniform accuracies make every E-step posterior 0.5,
    // which re-estimates uniform accuracies forever). Explicit `init`
    // entries take precedence: they carry online-posterior evidence.
    let mut acc: BTreeMap<WorkerId, f64> = BTreeMap::new();
    {
        let mut hard: BTreeMap<WorkerId, EmEvidence> = BTreeMap::new();
        for record in log.records() {
            for v in &record.votes {
                let e = hard.entry(v.worker).or_insert(EmEvidence {
                    correct: 0.0,
                    total: 0.0,
                });
                if v.yes == record.fused_yes {
                    e.correct += 1.0;
                }
                e.total += 1.0;
            }
        }
        for (w, e) in &hard {
            acc.insert(*w, (a0 + e.correct) / (a0 + b0 + e.total));
        }
        for (w, p) in init {
            acc.insert(*w, *p);
        }
    }
    let mut evidence: BTreeMap<WorkerId, EmEvidence> = BTreeMap::new();
    for _ in 0..iters.max(1) {
        evidence.clear();
        // E-step folded with the M-step accumulation: one pass over the
        // window per iteration, in ask order.
        for record in log.records() {
            let mut log_yes = 0.0;
            let mut log_no = 0.0;
            for v in &record.votes {
                let p = acc
                    .get(&v.worker)
                    .copied()
                    .unwrap_or(prior_mean)
                    .clamp(EM_CLAMP, 1.0 - EM_CLAMP);
                if v.yes {
                    log_yes += p.ln();
                    log_no += (1.0 - p).ln();
                } else {
                    log_yes += (1.0 - p).ln();
                    log_no += p.ln();
                }
            }
            // Uniform 0.5 class prior cancels; normalize in log space for
            // underflow safety on wide panels.
            let m = log_yes.max(log_no);
            let w_yes = (log_yes - m).exp();
            let w_no = (log_no - m).exp();
            let p_yes = w_yes / (w_yes + w_no);
            for v in &record.votes {
                let p_correct = if v.yes { p_yes } else { 1.0 - p_yes };
                let e = evidence.entry(v.worker).or_insert(EmEvidence {
                    correct: 0.0,
                    total: 0.0,
                });
                e.correct += p_correct;
                e.total += 1.0;
            }
        }
        // M-step: smoothed soft agreement rates become the next
        // iteration's accuracies.
        for (w, e) in &evidence {
            acc.insert(*w, (a0 + e.correct) / (a0 + b0 + e.total));
        }
    }
    evidence
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vote(w: u32, yes: bool) -> Vote {
        Vote {
            worker: WorkerId(w),
            yes,
        }
    }

    fn log_from(panels: &[(&[(u32, bool)], bool)]) -> VoteLog {
        let mut log = VoteLog::default();
        for (votes, fused) in panels {
            log.push(PanelRecord {
                votes: votes.iter().map(|&(w, y)| vote(w, y)).collect(),
                fused_yes: *fused,
            });
        }
        log
    }

    #[test]
    fn log_is_a_bounded_fifo() {
        let mut log = VoteLog::default();
        for i in 0..LOG_CAPACITY as u32 + 3 {
            log.push(PanelRecord {
                votes: vec![vote(i, true)],
                fused_yes: true,
            });
        }
        assert_eq!(log.records().count(), LOG_CAPACITY);
        let first = log.records().next().map(|r| r.votes[0].worker.0);
        assert_eq!(first, Some(3), "oldest evicted first");
    }

    #[test]
    fn em_separates_experts_from_spammers() {
        // Three questions; workers 0 and 1 always agree with each other
        // (the majority bloc), worker 2 always dissents. EM should rate
        // the bloc high and the dissenter low.
        let log = log_from(&[
            (&[(0, true), (1, true), (2, false)], true),
            (&[(0, false), (1, false), (2, true)], false),
            (&[(0, true), (1, true), (2, false)], true),
        ]);
        let ev = dawid_skene(&log, &BTreeMap::new(), (1.0, 1.0), 10);
        let acc = |w: u32| {
            let e = ev[&WorkerId(w)];
            (1.0 + e.correct) / (2.0 + e.total)
        };
        assert!(acc(0) > 0.7, "bloc member: {}", acc(0));
        assert!((acc(0) - acc(1)).abs() < 1e-9, "symmetric bloc members");
        assert!(acc(2) < 0.4, "dissenter: {}", acc(2));
        assert_eq!(ev[&WorkerId(2)].total, 3.0);
        assert!((ev[&WorkerId(2)].wrong() - (3.0 - ev[&WorkerId(2)].correct)).abs() < 1e-12);
    }

    #[test]
    fn em_overturns_a_wrong_initial_consensus() {
        // One trusted expert vs two spammers who happen to agree. With
        // informative init (expert known good, spammers near chance), EM
        // sides with the expert even though the raw majority disagrees.
        let log = log_from(&[
            (&[(0, true), (1, false), (2, false)], false),
            (&[(0, true), (1, false), (2, false)], false),
        ]);
        let mut init = BTreeMap::new();
        init.insert(WorkerId(0), 0.95);
        init.insert(WorkerId(1), 0.5);
        init.insert(WorkerId(2), 0.5);
        let ev = dawid_skene(&log, &init, (1.0, 1.0), 5);
        // The expert's soft-correct rate stays above the spammers':
        // consensus followed the informative worker.
        let rate = |w: u32| ev[&WorkerId(w)].correct / ev[&WorkerId(w)].total;
        assert!(
            rate(0) > rate(1),
            "expert {} vs spammer {}",
            rate(0),
            rate(1)
        );
    }

    #[test]
    fn em_is_deterministic() {
        let build = || {
            log_from(&[
                (&[(0, true), (1, false), (2, true)], true),
                (&[(2, false), (0, false), (1, true)], false),
                (&[(1, true), (2, true), (0, true)], true),
            ])
        };
        let a = dawid_skene(&build(), &BTreeMap::new(), (2.0, 1.0), 7);
        let b = dawid_skene(&build(), &BTreeMap::new(), (2.0, 1.0), 7);
        for (w, e) in &a {
            let other = b[w];
            assert!(e.correct.to_bits() == other.correct.to_bits());
            assert!(e.total.to_bits() == other.total.to_bits());
        }
    }

    #[test]
    fn empty_log_yields_no_evidence() {
        let log = VoteLog::default();
        assert!(dawid_skene(&log, &BTreeMap::new(), (1.0, 1.0), 3).is_empty());
    }
}

//! Layer probes for the traced run: a timing decorator at the crowd
//! boundary, and a replay of the workload's sessions through the core
//! driver that times selection, feeding, belief construction and the
//! pairwise/bounds tables on the workload's own inputs.

use crate::trace::{Span, Tracer};
use crate::workloads::Inputs;
use ctk_core::driver::{DriverStatus, SessionDriver};
use ctk_core::session::{Algorithm, UrReport};
use ctk_crowd::{Answer, Crowd, Question, RouteHint};
use ctk_prob::compare::PairwiseMatrix;
use ctk_prob::TopKBounds;
use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// A [`Crowd`] decorator that forwards to the real crowd and counts and
/// times every question, refusal and budget read.
pub struct TimedCrowd<C> {
    inner: C,
    origin: Instant,
    /// `(start, end)` of every `ask`/`ask_routed`, in nanoseconds since
    /// `origin`.
    pub asks: Vec<(u64, u64)>,
    /// Asks the crowd answered with `None`.
    pub refused: u64,
    budget_reads: Cell<u64>,
}

impl<C: Crowd> TimedCrowd<C> {
    pub fn new(inner: C, origin: Instant) -> Self {
        Self {
            inner,
            origin,
            asks: Vec::new(),
            refused: 0,
            budget_reads: Cell::new(0),
        }
    }

    /// Calls to `remaining()` so far.
    pub fn budget_reads(&self) -> u64 {
        self.budget_reads.get()
    }

    fn timed(&mut self, ask: impl FnOnce(&mut C) -> Option<Answer>) -> Option<Answer> {
        let start = Instant::now();
        let answer = ask(&mut self.inner);
        let end = Instant::now();
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.asks.push((ns(start), ns(end)));
        self.refused += u64::from(answer.is_none());
        answer
    }
}

impl<C: Crowd> Crowd for TimedCrowd<C> {
    fn ask(&mut self, q: Question) -> Option<Answer> {
        self.timed(|c| c.ask(q))
    }

    fn ask_routed(&mut self, q: Question, hint: RouteHint) -> Option<Answer> {
        self.timed(|c| c.ask_routed(q, hint))
    }

    fn remaining(&self) -> usize {
        self.budget_reads.set(self.budget_reads.get() + 1);
        self.inner.remaining()
    }

    fn answer_accuracy(&self) -> f64 {
        self.inner.answer_accuracy()
    }

    fn history(&self) -> &[Answer] {
        self.inner.history()
    }
}

/// Files the decorator's ask intervals into `tracer` as `crowd.ask`
/// spans, each parented to the `service.tick` span that contains it.
pub fn attach_asks(tracer: &mut Tracer, asks: &[(u64, u64)]) {
    let ticks: Vec<usize> = (0..tracer.spans().len())
        .filter(|&i| tracer.spans()[i].name == "service.tick")
        .collect();
    for &(start, end) in asks {
        let parent = tracer.enclosing(&ticks, start, end);
        tracer.push(Span {
            name: "crowd.ask",
            start,
            end,
            parent,
        });
    }
}

/// Short metric-name label of a selection algorithm.
pub fn algorithm_label(a: &Algorithm) -> &'static str {
    match a {
        Algorithm::T1On => "t1_on",
        Algorithm::TbOff => "tb_off",
        Algorithm::COff => "c_off",
        Algorithm::Incr { .. } => "incr",
        _ => "other",
    }
}

/// What replaying a set of sessions through the core driver measured.
#[derive(Default)]
pub struct Replay {
    /// Final report of each replayed job, by job index.
    pub reports: BTreeMap<usize, UrReport>,
    /// Microseconds per `next_batch` call that emitted questions (one
    /// selector step), by algorithm label.
    pub select_us: BTreeMap<&'static str, Vec<f64>>,
    /// Microseconds per `next_batch` call, emitting or not.
    pub next_batch_us: Vec<f64>,
    /// Microseconds per `feed_graded` call.
    pub feed_us: Vec<f64>,
    /// Microseconds per `SessionDriver::new_shared` (belief construction,
    /// world sampling included).
    pub driver_new_us: Vec<f64>,
    /// Microseconds per `PairwiseMatrix::compute`, one per distinct table.
    pub pairwise_us: Vec<f64>,
    /// Microseconds per `TopKBounds::from_matrix`, one per distinct
    /// `(table, k)`.
    pub bounds_us: Vec<f64>,
}

fn us(a: Instant, b: Instant) -> f64 {
    b.saturating_duration_since(a).as_secs_f64() * 1e6
}

/// Replays `jobs` (indices into `inputs.jobs`) standalone: each session
/// is built with `SessionDriver::new_shared` over freshly computed
/// pairwise and bounds tables and answered from the ground truth, exactly
/// as a perfect crowd would. Spans go to `tracer` when one is given.
pub fn replay(inputs: &Inputs, jobs: &[usize], mut tracer: Option<&mut Tracer>) -> Replay {
    let mut out = Replay::default();
    let mut tables: BTreeMap<usize, Arc<PairwiseMatrix>> = BTreeMap::new();
    let mut bounds: BTreeMap<(usize, usize), Arc<TopKBounds>> = BTreeMap::new();
    let mut span = |name, a, b| {
        if let Some(t) = tracer.as_deref_mut() {
            t.record(name, a, b, None);
        }
    };
    for &j in jobs {
        let job = &inputs.jobs[j];
        let table = &inputs.tables[job.table];
        let k = job.spec.config.k;
        let pairwise = Arc::clone(tables.entry(job.table).or_insert_with(|| {
            let a = Instant::now();
            let pw = Arc::new(PairwiseMatrix::compute(table));
            let b = Instant::now();
            out.pairwise_us.push(us(a, b));
            span("prob.pairwise", a, b);
            pw
        }));
        let shared = Arc::clone(bounds.entry((job.table, k)).or_insert_with(|| {
            let a = Instant::now();
            let tb = TopKBounds::from_matrix(&pairwise, k).expect("benchmark depths are valid");
            let b = Instant::now();
            out.bounds_us.push(us(a, b));
            span("prob.bounds", a, b);
            Arc::new(tb)
        }));
        let config = job.spec.config.clone();
        let label = algorithm_label(&config.algorithm);
        let budget = config.budget;
        let truth = &inputs.truth_topk[k];
        let a = Instant::now();
        let mut driver =
            SessionDriver::new_shared(config, table, Some(truth), pairwise, Some(shared))
                .expect("benchmark configs are valid");
        let b = Instant::now();
        out.driver_new_us.push(us(a, b));
        span("core.driver_new", a, b);
        let mut answered = 0;
        loop {
            let a = Instant::now();
            let batch = driver
                .next_batch(budget - answered)
                .expect("replayed step succeeds");
            let b = Instant::now();
            out.next_batch_us.push(us(a, b));
            span("core.next_batch", a, b);
            if batch.is_empty() {
                break;
            }
            out.select_us.entry(label).or_default().push(us(a, b));
            let graded: Vec<(Answer, f64)> = batch
                .iter()
                .map(|&q| {
                    let yes = inputs.truth.true_answer(&q);
                    (Answer { question: q, yes }, 1.0)
                })
                .collect();
            answered += graded.len();
            let a = Instant::now();
            let status = driver.feed_graded(&graded).expect("replayed feed succeeds");
            let b = Instant::now();
            out.feed_us.push(us(a, b));
            span("core.feed", a, b);
            if status == DriverStatus::Done {
                break;
            }
        }
        out.reports
            .insert(j, driver.finish().expect("replayed session finishes"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctk_crowd::{CrowdSimulator, GroundTruth, PerfectWorker, VotePolicy};

    fn crowd(budget: usize) -> CrowdSimulator<PerfectWorker> {
        let truth = GroundTruth::from_scores(vec![0.9, 0.1, 0.5]);
        CrowdSimulator::new(truth, PerfectWorker, VotePolicy::Single, budget).unwrap()
    }

    #[test]
    fn timed_crowd_forwards_counts_and_times() {
        let origin = Instant::now();
        let mut c = TimedCrowd::new(crowd(2), origin);
        let a = c.ask(Question::new(0, 1)).unwrap();
        assert!(a.yes);
        let b = c
            .ask_routed(Question::new(1, 2), RouteHint::Expert)
            .unwrap();
        assert!(!b.yes);
        assert_eq!(c.remaining(), 0);
        assert!(c.ask(Question::new(0, 2)).is_none());
        assert_eq!(c.asks.len(), 3);
        assert_eq!(c.refused, 1);
        assert_eq!(c.budget_reads(), 1);
        assert_eq!(c.history().len(), 2);
        assert!(c.asks.iter().all(|&(s, e)| s <= e));
    }

    #[test]
    fn asks_attach_to_their_enclosing_tick() {
        let mut t = Tracer::new(Instant::now());
        let tick = t.push(Span {
            name: "service.tick",
            start: 100,
            end: 200,
            parent: None,
        });
        attach_asks(&mut t, &[(120, 130), (250, 260)]);
        assert_eq!(t.spans()[1].parent, Some(tick));
        assert_eq!(t.spans()[2].parent, None);
        assert_eq!(t.self_times()[tick], 90);
    }
}

//! The closed-loop load generator: a fixed number of clients, each
//! submitting its next session as soon as its previous one finishes.
//!
//! Time is the benchmark's own clock. A session is due when its client
//! becomes free (the start of the run, or the end of the round that
//! finished the client's previous session); its latency runs from then to
//! the end of the round that finishes it, so submit cost and queueing
//! both count.

use crate::trace::Tracer;
use std::time::{Duration, Instant};

/// What one scheduling round reported (the fields of
/// `ctk_service::RoundOutcome` the loop needs).
#[derive(Debug, Clone, Copy, Default)]
pub struct Round {
    pub scheduled: usize,
    pub finished: usize,
}

/// The system under load, seen from the clients.
pub trait Serving {
    type Id: Copy;
    /// Submits job `job` (an index into the workload's job list).
    fn submit(&mut self, job: usize) -> Result<Self::Id, String>;
    /// Runs one scheduling round.
    fn tick(&mut self) -> Round;
    /// True once the session has reached a terminal state.
    fn finished(&self, id: Self::Id) -> bool;
}

/// Timings and counts of one closed-loop run.
#[derive(Debug, Default)]
pub struct LoopStats {
    /// Wall time from the first submit to the end of the last round.
    pub wall: Duration,
    pub completed: usize,
    /// Per session, due time to finishing round end, in milliseconds.
    pub session_ms: Vec<f64>,
    /// Per round: wall time in milliseconds, sessions scheduled, sessions
    /// in flight when it started, and sessions completed before it.
    pub round_ms: Vec<f64>,
    pub round_scheduled: Vec<usize>,
    pub round_in_flight: Vec<usize>,
    pub round_completed_before: Vec<usize>,
    /// Per submit call, in microseconds.
    pub submit_us: Vec<f64>,
}

/// The loop's bookkeeping: who is in flight since when, and what was
/// measured so far.
struct Clients<'t, Id> {
    ids: Vec<Id>,
    in_flight: Vec<(Id, Instant)>,
    stats: LoopStats,
    tracer: Option<&'t mut Tracer>,
}

impl<Id: Copy> Clients<'_, Id> {
    /// Submits the next job, due at `due`.
    fn submit<S: Serving<Id = Id>>(&mut self, sv: &mut S, due: Instant) -> Result<(), String> {
        let a = Instant::now();
        let id = sv.submit(self.ids.len())?;
        let b = Instant::now();
        self.stats
            .submit_us
            .push(b.duration_since(a).as_secs_f64() * 1e6);
        if let Some(t) = self.tracer.as_deref_mut() {
            t.record("service.submit", a, b, None);
        }
        self.ids.push(id);
        self.in_flight.push((id, due));
        Ok(())
    }
}

/// Runs `jobs` sessions through `sv` with at most `clients` in flight,
/// and returns the measurements with the session ids in job order.
/// Submits and rounds are recorded as `service.submit` and
/// `service.tick` spans when `tracer` is given.
pub fn run<S: Serving>(
    sv: &mut S,
    jobs: usize,
    clients: usize,
    tracer: Option<&mut Tracer>,
) -> Result<(LoopStats, Vec<S::Id>), String> {
    let mut c = Clients {
        ids: Vec::with_capacity(jobs),
        in_flight: Vec::with_capacity(clients),
        stats: LoopStats::default(),
        tracer,
    };
    let t0 = Instant::now();
    while c.ids.len() < jobs.min(clients) {
        c.submit(sv, t0)?;
    }
    while !c.in_flight.is_empty() {
        c.stats.round_in_flight.push(c.in_flight.len());
        c.stats.round_completed_before.push(c.stats.completed);
        let a = Instant::now();
        let round = sv.tick();
        let end = Instant::now();
        c.stats
            .round_ms
            .push(end.duration_since(a).as_secs_f64() * 1e3);
        c.stats.round_scheduled.push(round.scheduled);
        if let Some(t) = c.tracer.as_deref_mut() {
            t.record("service.tick", a, end, None);
        }
        if round.finished == 0 {
            if round.scheduled == 0 {
                return Err(format!(
                    "no progress with {} sessions in flight",
                    c.in_flight.len()
                ));
            }
            continue;
        }
        let before = c.in_flight.len();
        let session_ms = &mut c.stats.session_ms;
        c.in_flight.retain(|&(id, due)| {
            let done = sv.finished(id);
            if done {
                session_ms.push(end.duration_since(due).as_secs_f64() * 1e3);
            }
            !done
        });
        let freed = before - c.in_flight.len();
        c.stats.completed += freed;
        for _ in 0..freed.min(jobs - c.ids.len()) {
            c.submit(sv, end)?;
        }
    }
    c.stats.wall = t0.elapsed();
    Ok((c.stats, c.ids))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Session `j` finishes on the `1 + j % 5`-th round it is scheduled
    /// in; at most `fanout` sessions run per round, oldest first.
    struct Fake {
        fanout: usize,
        rounds_left: Vec<usize>,
        active: Vec<usize>,
    }

    impl Serving for Fake {
        type Id = usize;
        fn submit(&mut self, job: usize) -> Result<usize, String> {
            self.rounds_left.push(1 + job % 5);
            self.active.push(job);
            Ok(job)
        }
        fn tick(&mut self) -> Round {
            let planned: Vec<usize> = self.active.iter().copied().take(self.fanout).collect();
            let mut finished = 0;
            for id in &planned {
                self.rounds_left[*id] -= 1;
                if self.rounds_left[*id] == 0 {
                    finished += 1;
                }
            }
            self.active.retain(|&id| self.rounds_left[id] > 0);
            Round {
                scheduled: planned.len(),
                finished,
            }
        }
        fn finished(&self, id: usize) -> bool {
            self.rounds_left[id] == 0
        }
    }

    fn fake(fanout: usize) -> Fake {
        Fake {
            fanout,
            rounds_left: Vec::new(),
            active: Vec::new(),
        }
    }

    #[test]
    fn keeps_exactly_c_sessions_in_flight_until_the_tail() {
        let (jobs, clients) = (200, 16);
        let (stats, ids) = run(&mut fake(5), jobs, clients, None).unwrap();
        assert_eq!(ids, (0..jobs).collect::<Vec<_>>());
        assert_eq!(stats.completed, jobs);
        assert_eq!(stats.session_ms.len(), jobs);
        assert_eq!(stats.submit_us.len(), jobs);
        for (&in_flight, &done) in stats
            .round_in_flight
            .iter()
            .zip(&stats.round_completed_before)
        {
            let submitted = (done + clients).min(jobs);
            assert_eq!(in_flight, submitted - done);
            if submitted < jobs {
                assert_eq!(in_flight, clients);
            }
        }
        // The tail drains: the last round has fewer than C in flight.
        assert!(*stats.round_in_flight.last().unwrap() < clients);
    }

    #[test]
    fn all_due_at_once_when_clients_cover_every_job() {
        let (stats, _) = run(&mut fake(8), 40, 40, None).unwrap();
        assert_eq!(stats.round_in_flight[0], 40);
        assert_eq!(stats.completed, 40);
    }

    #[test]
    fn rounds_and_submits_become_spans() {
        let mut t = Tracer::new(Instant::now());
        let (stats, _) = run(&mut fake(4), 10, 3, Some(&mut t)).unwrap();
        let count = |n: &str| t.spans().iter().filter(|s| s.name == n).count();
        assert_eq!(count("service.submit"), 10);
        assert_eq!(count("service.tick"), stats.round_ms.len());
    }

    #[test]
    fn a_round_without_progress_is_an_error() {
        struct Stuck;
        impl Serving for Stuck {
            type Id = ();
            fn submit(&mut self, _: usize) -> Result<(), String> {
                Ok(())
            }
            fn tick(&mut self) -> Round {
                Round::default()
            }
            fn finished(&self, _: ()) -> bool {
                false
            }
        }
        assert!(run(&mut Stuck, 3, 2, None).is_err());
    }
}

//! Service-level observability: throughput, latency and cache economics.
//!
//! Latency is tracked in a deterministic fixed-bucket histogram (bucket
//! `i` holds latencies below `2^i` µs), so `latency_p50/p95/p99` report a
//! bucket upper bound — coarse but allocation-free and stable
//! across runs with the same bucket layout.

use std::time::Duration;

/// Power-of-two µs buckets: bucket `i` covers latencies `< 2^i` µs. 40
/// buckets reach ~12.7 days — everything above clamps into the last one.
const LATENCY_BUCKETS: usize = 40;

/// Counters and timings accumulated over a service's lifetime.
#[derive(Debug, Clone, Default)]
pub struct ServiceMetrics {
    /// Sessions accepted by `submit`.
    pub submitted: u64,
    /// Sessions that finished with a report.
    pub completed: u64,
    /// Sessions that ended in a driver error.
    pub failed: u64,
    /// Sessions whose round was cut short by an exhausted crowd at least
    /// once (they still complete, with fewer questions than budgeted).
    pub starved: u64,
    /// Scheduling rounds that made progress.
    pub rounds: u64,
    /// Worker threads the round loop splits gather/feed work over (1 =
    /// the sequential loop; reports are identical at every setting).
    pub worker_threads: usize,
    /// Answers delivered to sessions (cached + live).
    pub answers_served: u64,
    /// Questions actually posed to the crowd backend.
    pub crowd_questions: u64,
    /// Answers served from the cross-session answer cache.
    pub cache_hits: u64,
    /// Live answers rejected at the crowd boundary — a non-finite
    /// accuracy or an answer about a different pair than the one asked.
    /// Never cached or delivered; each one cut its session's batch.
    pub invalid_answers: u64,
    /// Possible worlds sampled across all completed sessions' initial
    /// builds (adaptive builds draw fewer on easy tables; certain-order
    /// early stops draw zero).
    pub worlds_drawn: u64,
    /// Initial beliefs built at submit, `incr` world samples included: a
    /// submit that found no stored belief, or the first `incr` submit over
    /// a belief stored without its worlds.
    pub belief_builds: u64,
    /// Submits that started from a copy of a stored belief instead of
    /// building one (an `incr` hit shares the stored worlds). Their
    /// reports still count the stored build's worlds in `worlds_drawn`.
    pub belief_hits: u64,
    /// Bytes the belief cache holds after the latest submit: stored
    /// paths, attached world samples and the upper bound of every
    /// first-pick slot, within the cache's bound.
    pub stored_belief_bytes: usize,
    /// Sessions whose first selection was copied from a stored first pick
    /// instead of running the selector (counted in plan order after each
    /// gather). At one worker thread the count is fixed by the submits;
    /// at more, two sessions of one slot gathered in the same round may
    /// both select before either stores the pick, so it can read lower.
    /// Reports are the same either way.
    pub first_picks_reused: u64,
    /// Completed sessions whose certain/possible bounds pinned the whole
    /// ordered prefix before sampling — decided without any crowd
    /// questions or worlds.
    pub certain_early_stops: u64,
    /// Wall time spent inside the run loop (selection, crowd calls,
    /// updates).
    pub serving_time: Duration,
    /// Wall time spent resolving questions against cache + crowd — the
    /// run loop's sequential purchase phase.
    pub purchase_time: Duration,
    /// Wall time of the round loop's parallel gather phase (every
    /// planned driver emits its next batch), summed over rounds.
    pub gather_time: Duration,
    /// Time spent inside the gather's per-session work, summed over the
    /// worker threads: `gather_busy / (gather_time × worker_threads)` is
    /// how evenly the gather kept its workers busy.
    pub gather_busy: Duration,
    /// Wall time of the round loop's parallel feed phase, summed over
    /// rounds.
    pub feed_time: Duration,
    /// Time spent inside the feed's per-session work, summed over the
    /// worker threads.
    pub feed_busy: Duration,
    latency_sum: Duration,
    latency_max: Duration,
    latency_count: u64,
    latency_hist: Vec<u64>,
}

/// The histogram bucket `latency` falls into.
fn bucket_index(latency: Duration) -> usize {
    let micros = u64::try_from(latency.as_micros()).unwrap_or(u64::MAX);
    let idx = (u64::BITS - micros.leading_zeros()) as usize;
    idx.min(LATENCY_BUCKETS - 1)
}

impl ServiceMetrics {
    /// Records one finished session's enqueue-to-done latency.
    pub(crate) fn record_latency(&mut self, latency: Duration) {
        self.latency_sum += latency;
        self.latency_max = self.latency_max.max(latency);
        self.latency_count += 1;
        if self.latency_hist.is_empty() {
            self.latency_hist = vec![0; LATENCY_BUCKETS];
        }
        self.latency_hist[bucket_index(latency)] += 1;
    }

    /// The latency below which `p` of finished sessions completed, as the
    /// histogram bucket's upper bound (power-of-two µs). `None` before
    /// the first completion.
    fn latency_percentile(&self, p: f64) -> Option<Duration> {
        if self.latency_count == 0 {
            return None;
        }
        let rank = ((p * self.latency_count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &count) in self.latency_hist.iter().enumerate() {
            seen += count;
            if seen >= rank {
                return Some(Duration::from_micros(1u64 << i.min(62)));
            }
        }
        Some(self.latency_max)
    }

    /// Median enqueue-to-done latency (histogram bucket upper bound).
    fn latency_p50(&self) -> Option<Duration> {
        self.latency_percentile(0.50)
    }

    /// 95th-percentile enqueue-to-done latency.
    fn latency_p95(&self) -> Option<Duration> {
        self.latency_percentile(0.95)
    }

    /// 99th-percentile enqueue-to-done latency.
    fn latency_p99(&self) -> Option<Duration> {
        self.latency_percentile(0.99)
    }

    /// Fraction of delivered answers that never touched the crowd.
    pub fn cache_hit_rate(&self) -> f64 {
        if self.answers_served == 0 {
            0.0
        } else {
            self.cache_hits as f64 / self.answers_served as f64
        }
    }

    /// Mean enqueue-to-done latency over finished sessions.
    fn avg_latency(&self) -> Option<Duration> {
        (self.latency_count > 0).then(|| self.latency_sum / self.latency_count as u32)
    }

    /// Worst enqueue-to-done latency.
    fn max_latency(&self) -> Option<Duration> {
        (self.latency_count > 0).then_some(self.latency_max)
    }

    /// Answers delivered per second of serving time.
    fn answers_per_sec(&self) -> f64 {
        let secs = self.serving_time.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.answers_served as f64 / secs
        }
    }

    /// Sessions completed per second of serving time.
    fn sessions_per_sec(&self) -> f64 {
        let secs = self.serving_time.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.completed as f64 / secs
        }
    }

    /// How evenly the gather phase kept the workers busy: summed
    /// per-session work time over `gather_time × worker_threads`, in
    /// `[0, 1]` up to timer jitter (0 before the first gather).
    pub(crate) fn gather_balance(&self) -> f64 {
        let capacity = self.gather_time.as_secs_f64() * self.worker_threads.max(1) as f64;
        if capacity <= 0.0 {
            0.0
        } else {
            self.gather_busy.as_secs_f64() / capacity
        }
    }

    /// One-paragraph human-readable summary.
    pub fn summary(&self) -> String {
        format!(
            "sessions: {} submitted, {} completed, {} failed, {} starved | \
             beliefs: {} built, {} reused, {} bytes stored, {} first picks reused | \
             rounds: {} ({} worker threads) | \
             answers: {} served ({} live, {} cached, {:.1}% hit rate, {} invalid) | \
             precision: {} worlds drawn, {} certain early stops | \
             throughput: {:.0} answers/s, {:.1} sessions/s | \
             latency avg {:?} p50 {:?} p95 {:?} p99 {:?} max {:?} | \
             gather {:?} ({:.2} balance), purchase {:?}, feed {:?} of {:?} serving",
            self.submitted,
            self.completed,
            self.failed,
            self.starved,
            self.belief_builds,
            self.belief_hits,
            self.stored_belief_bytes,
            self.first_picks_reused,
            self.rounds,
            self.worker_threads.max(1),
            self.answers_served,
            self.crowd_questions,
            self.cache_hits,
            100.0 * self.cache_hit_rate(),
            self.invalid_answers,
            self.worlds_drawn,
            self.certain_early_stops,
            self.answers_per_sec(),
            self.sessions_per_sec(),
            self.avg_latency().unwrap_or_default(),
            self.latency_p50().unwrap_or_default(),
            self.latency_p95().unwrap_or_default(),
            self.latency_p99().unwrap_or_default(),
            self.max_latency().unwrap_or_default(),
            self.gather_time,
            self.gather_balance(),
            self.purchase_time,
            self.feed_time,
            self.serving_time,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_handle_zero_denominators() {
        let m = ServiceMetrics::default();
        assert_eq!(m.cache_hit_rate(), 0.0);
        assert_eq!(m.answers_per_sec(), 0.0);
        assert_eq!(m.sessions_per_sec(), 0.0);
        assert_eq!(m.gather_balance(), 0.0);
        assert!(m.avg_latency().is_none());
        assert!(m.max_latency().is_none());
        assert!(m.latency_p50().is_none());
        assert!(m.latency_p99().is_none());
    }

    #[test]
    fn latency_aggregation() {
        let mut m = ServiceMetrics::default();
        m.record_latency(Duration::from_millis(10));
        m.record_latency(Duration::from_millis(30));
        assert_eq!(m.avg_latency(), Some(Duration::from_millis(20)));
        assert_eq!(m.max_latency(), Some(Duration::from_millis(30)));
    }

    #[test]
    fn histogram_percentiles_hit_the_right_buckets() {
        let mut m = ServiceMetrics::default();
        // 98 fast sessions (~100µs), one slow (~50ms), one very slow
        // (~3s): p50 stays in the fast bucket, p99 reaches the slow one,
        // and the max is not a bucket bound but the true maximum.
        for _ in 0..98 {
            m.record_latency(Duration::from_micros(100));
        }
        m.record_latency(Duration::from_millis(50));
        m.record_latency(Duration::from_secs(3));
        // 100µs < 2^7 µs = 128µs.
        assert_eq!(m.latency_p50(), Some(Duration::from_micros(128)));
        assert_eq!(m.latency_p95(), Some(Duration::from_micros(128)));
        // 50ms < 2^16 µs = 65.536ms.
        assert_eq!(m.latency_p99(), Some(Duration::from_micros(1 << 16)));
        assert_eq!(m.max_latency(), Some(Duration::from_secs(3)));
    }

    #[test]
    fn percentiles_are_monotone_in_p() {
        let mut m = ServiceMetrics::default();
        for i in 0..200u64 {
            m.record_latency(Duration::from_micros(1 + i * 37));
        }
        let (p50, p95, p99) = (
            m.latency_p50().unwrap(),
            m.latency_p95().unwrap(),
            m.latency_p99().unwrap(),
        );
        assert!(p50 <= p95 && p95 <= p99, "{p50:?} {p95:?} {p99:?}");
    }

    #[test]
    fn summary_mentions_the_headline_numbers() {
        let mut m = ServiceMetrics {
            submitted: 32,
            completed: 32,
            answers_served: 100,
            cache_hits: 40,
            crowd_questions: 60,
            ..ServiceMetrics::default()
        };
        m.record_latency(Duration::from_millis(5));
        m.belief_builds = 3;
        m.belief_hits = 29;
        m.stored_belief_bytes = 4096;
        m.first_picks_reused = 17;
        let s = m.summary();
        assert!(s.contains("32 submitted"));
        assert!(s.contains("beliefs: 3 built, 29 reused, 4096 bytes stored, 17 first picks reused"));
        assert!(s.contains("40.0% hit rate"));
        assert!(s.contains("p95"));
        assert!(s.contains("worker threads"));
    }
}

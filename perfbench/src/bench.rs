//! Passes over a workload, and the metrics and gate built from them.
//!
//! A pass generates the workload's inputs, builds the crowd and the
//! service (the set-up), then drives every session through the closed
//! loop (the measured phase). Passes run in child processes, a few per
//! process; each hands the parent a [`Summary`], and the parent starts
//! processes until its time is up and reports medians and pooled
//! percentiles over all passes.

use crate::closed_loop::{self, LoopStats, Round, Serving};
use crate::mem;
use crate::probe::{self, Replay, TimedCrowd};
use crate::stats::{mean, median, percentile};
use crate::trace::Tracer;
use crate::workloads::{Inputs, Workload};
use ctk_core::session::UrReport;
use ctk_crowd::{Crowd, CrowdSimulator, PerfectWorker, VotePolicy};
use ctk_service::{SessionId, SessionState, TopKService};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Crowd budget: large enough that no workload is ever refused.
const CROWD_BUDGET: usize = 100_000_000;

/// Counts that are a pure function of the inputs: every pass at one seed
/// must reproduce them exactly.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Exact {
    pub sessions: usize,
    pub done: usize,
    pub failed: u64,
    pub crowd_questions: u64,
    pub cache_hits: u64,
    pub answers_served: u64,
    pub worlds_drawn: u64,
    /// Bits of the sum, in job order, of every session's final distance.
    pub distance_bits: u64,
}

impl Exact {
    pub fn topk_distance(&self) -> f64 {
        f64::from_bits(self.distance_bits) / self.sessions.max(1) as f64
    }

    fn words(&self) -> [u64; 8] {
        [
            self.sessions as u64,
            self.done as u64,
            self.failed,
            self.crowd_questions,
            self.cache_hits,
            self.answers_served,
            self.worlds_drawn,
            self.distance_bits,
        ]
    }

    fn from_words(w: &[u64]) -> Option<Self> {
        let &[sessions, done, failed, crowd_questions, cache_hits, answers_served, worlds_drawn, distance_bits] =
            w
        else {
            return None;
        };
        Some(Self {
            sessions: sessions as usize,
            done: done as usize,
            failed,
            crowd_questions,
            cache_hits,
            answers_served,
            worlds_drawn,
            distance_bits,
        })
    }
}

/// What a pass's crowd decorator saw.
#[derive(Debug, Default)]
pub struct CrowdProbe {
    pub ask_ns: Vec<u64>,
    pub refused: u64,
    pub budget_reads: u64,
}

/// One pass over a workload.
pub struct Pass {
    /// Every set-up the pass timed.
    pub setup: Vec<Duration>,
    pub stats: LoopStats,
    pub exact: Exact,
    pub purchase: Duration,
    /// Service reports of the jobs the gate replays.
    pub sampled: BTreeMap<usize, UrReport>,
    /// Traced passes only.
    pub crowd: Option<CrowdProbe>,
    /// VmRSS after set-up and VmHWM at the end of the pass, in kB. The
    /// high-water mark is the pass's own only for the first pass in a
    /// process: later passes start on a heap earlier passes shaped.
    pub rss_after_setup_kb: u64,
    pub hwm_kb: u64,
}

/// The service as the closed loop's clients see it.
struct Served<'a, C: Crowd> {
    service: TopKService<C>,
    inputs: &'a Inputs,
}

impl<C: Crowd> Serving for Served<'_, C> {
    type Id = SessionId;

    fn submit(&mut self, job: usize) -> Result<SessionId, String> {
        let j = &self.inputs.jobs[job];
        let truth = &self.inputs.truth_topk[j.spec.config.k];
        self.service
            .submit_with_truth(&self.inputs.tables[j.table], j.spec.clone(), Some(truth))
            .map_err(|e| format!("submit of job {job} failed: {e}"))
    }

    fn tick(&mut self) -> Round {
        let out = self.service.tick();
        Round {
            scheduled: out.scheduled,
            finished: out.finished,
        }
    }

    fn finished(&self, id: SessionId) -> bool {
        matches!(
            self.service.state(id),
            Some(SessionState::Done | SessionState::Failed)
        )
    }
}

/// Set-ups per pass: the set-up is short, so its median comes from many.
const SETUP_REPEATS: usize = 9;

/// Runs one pass. With a tracer, the crowd is wrapped in the timing
/// decorator and submits, rounds and asks become spans.
pub fn pass(workload: Workload, seed: u64, tracer: Option<&mut Tracer>) -> Result<Pass, String> {
    match tracer {
        None => {
            let (inputs, service, setup) = set_up(workload, seed, |c| c)?;
            drive(&inputs, service, setup, None).map(|(pass, _)| pass)
        }
        Some(tracer) => {
            let origin = tracer.origin();
            let (inputs, service, setup) = set_up(workload, seed, |c| TimedCrowd::new(c, origin))?;
            let (mut pass, service) = drive(&inputs, service, setup, Some(&mut *tracer))?;
            let timed = service.crowd();
            probe::attach_asks(tracer, &timed.asks);
            pass.crowd = Some(CrowdProbe {
                ask_ns: timed.asks.iter().map(|&(a, b)| b - a).collect(),
                refused: timed.refused,
                budget_reads: timed.budget_reads(),
            });
            Ok(pass)
        }
    }
}

/// Generates the inputs and builds the crowd and the service, timing
/// each of [`SETUP_REPEATS`] identical set-ups and keeping the last.
fn set_up<C: Crowd>(
    workload: Workload,
    seed: u64,
    wrap: impl Fn(CrowdSimulator<PerfectWorker>) -> C,
) -> Result<(Inputs, TopKService<C>, Vec<Duration>), String> {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    loop {
        let t0 = Instant::now();
        let inputs = Inputs::generate(workload, seed);
        let crowd = CrowdSimulator::new(
            inputs.truth.clone(),
            PerfectWorker,
            VotePolicy::Single,
            CROWD_BUDGET,
        )
        .map_err(|e| e.to_string())?;
        let service = TopKService::new(wrap(crowd));
        let service = match inputs.fanout {
            Some(f) => service.with_fanout(f),
            None => service,
        };
        times.push(t0.elapsed());
        if times.len() == SETUP_REPEATS {
            return Ok((inputs, service, times));
        }
    }
}

fn drive<C: Crowd>(
    inputs: &Inputs,
    service: TopKService<C>,
    setup: Vec<Duration>,
    tracer: Option<&mut Tracer>,
) -> Result<(Pass, TopKService<C>), String> {
    let rss_after_setup_kb = mem::rss_kb().map_or(0, |(rss, _)| rss);
    let mut served = Served { service, inputs };
    let (stats, ids) = closed_loop::run(&mut served, inputs.jobs.len(), inputs.clients, tracer)?;
    let service = served.service;
    let m = service.metrics();
    let mut distance = 0.0;
    let mut done = 0;
    for id in &ids {
        if let Some(r) = service.report(*id) {
            done += 1;
            distance += r.final_distance().unwrap_or(0.0);
        }
    }
    let exact = Exact {
        sessions: ids.len(),
        done,
        failed: m.failed,
        crowd_questions: m.crowd_questions,
        cache_hits: m.cache_hits,
        answers_served: m.answers_served,
        worlds_drawn: m.worlds_drawn,
        distance_bits: f64::to_bits(distance),
    };
    let sampled = inputs
        .replayed()
        .into_iter()
        .filter_map(|j| service.report(ids[j]).map(|r| (j, r.clone())))
        .collect();
    let pass = Pass {
        setup,
        stats,
        exact,
        purchase: m.purchase_time,
        sampled,
        crowd: None,
        rss_after_setup_kb,
        hwm_kb: mem::rss_kb().map_or(0, |(_, hwm)| hwm),
    };
    Ok((pass, service))
}

/// A metric as printed: name, value, unit.
pub type Metric = (String, f64, String);

fn metric(name: &str, value: f64, unit: &str) -> Metric {
    (name.to_string(), value, unit.to_string())
}

/// What the parent needs of a pass: its timings and counts, and from the
/// first pass the replay verdict and, when traced, the per-layer metrics.
#[derive(Debug, Default)]
pub struct Summary {
    pub traced: bool,
    pub setup_s: Vec<f64>,
    pub wall_s: f64,
    pub completed: usize,
    pub session_ms: Vec<f64>,
    pub round_ms: Vec<f64>,
    pub submit_us: Vec<f64>,
    pub exact: Exact,
    pub hwm_kb: u64,
    /// `Some(Ok)` when every replayed session matched the service.
    pub replay: Option<Result<(), String>>,
    pub layers: Vec<Metric>,
}

impl Summary {
    pub fn of(pass: &Pass, traced: bool) -> Self {
        Self {
            traced,
            setup_s: pass.setup.iter().map(Duration::as_secs_f64).collect(),
            wall_s: pass.stats.wall.as_secs_f64(),
            completed: pass.stats.completed,
            session_ms: pass.stats.session_ms.clone(),
            round_ms: pass.stats.round_ms.clone(),
            submit_us: pass.stats.submit_us.clone(),
            exact: pass.exact.clone(),
            hwm_kb: pass.hwm_kb,
            replay: None,
            layers: Vec::new(),
        }
    }

    /// One line per field: a key, then space-separated values. Floats
    /// print in Rust's shortest round-trip form, so nothing is lost.
    pub fn to_text(&self) -> String {
        let join = |v: &[f64]| v.iter().map(f64::to_string).collect::<Vec<_>>().join(" ");
        let mut out = format!(
            "traced {}\nsetup_s {}\nwall_s {}\ncompleted {}\nsession_ms {}\nround_ms {}\nsubmit_us {}\nhwm_kb {}\n",
            u8::from(self.traced),
            join(&self.setup_s),
            self.wall_s,
            self.completed,
            join(&self.session_ms),
            join(&self.round_ms),
            join(&self.submit_us),
            self.hwm_kb,
        );
        let words: Vec<String> = self.exact.words().iter().map(u64::to_string).collect();
        out += &format!("exact {}\n", words.join(" "));
        match &self.replay {
            Some(Ok(())) => out += "replay ok\n",
            Some(Err(e)) => out += &format!("replay_failed {}\n", e.replace('\n', " ")),
            None => {}
        }
        for (name, value, unit) in &self.layers {
            out += &format!("layer {name} {value} {unit}\n");
        }
        out
    }

    pub fn parse(text: &str) -> Result<Self, String> {
        let mut s = Summary::default();
        let floats = |rest: &str| -> Result<Vec<f64>, String> {
            rest.split_whitespace()
                .map(|v| v.parse().map_err(|e| format!("bad number {v:?}: {e}")))
                .collect()
        };
        let bad = |line: &str| format!("malformed summary line {line:?}");
        let mut counted = false;
        for line in text.lines() {
            let (key, rest) = line.split_once(' ').unwrap_or((line, ""));
            match key {
                "traced" => s.traced = rest == "1",
                "setup_s" => s.setup_s = floats(rest)?,
                "wall_s" => s.wall_s = rest.parse().map_err(|_| bad(line))?,
                "completed" => s.completed = rest.parse().map_err(|_| bad(line))?,
                "session_ms" => s.session_ms = floats(rest)?,
                "round_ms" => s.round_ms = floats(rest)?,
                "submit_us" => s.submit_us = floats(rest)?,
                "hwm_kb" => s.hwm_kb = rest.parse().map_err(|_| bad(line))?,
                "exact" => {
                    let words: Vec<u64> = rest
                        .split_whitespace()
                        .map(|w| w.parse().map_err(|_| bad(line)))
                        .collect::<Result<_, _>>()?;
                    s.exact = Exact::from_words(&words).ok_or_else(|| bad(line))?;
                    counted = true;
                }
                "replay" => s.replay = Some(Ok(())),
                "replay_failed" => s.replay = Some(Err(rest.to_string())),
                "layer" => {
                    let f: Vec<&str> = rest.split_whitespace().collect();
                    let [name, value, unit] = f[..] else {
                        return Err(bad(line));
                    };
                    let value = value.parse().map_err(|_| bad(line))?;
                    s.layers.push(metric(name, value, unit));
                }
                _ => return Err(bad(line)),
            }
        }
        if !counted {
            return Err("summary without counts".into());
        }
        Ok(s)
    }
}

/// The end-to-end metrics over untraced passes.
///
/// Timings come from the faster half of the passes (by wall time): on a
/// shared host the CPU's speed can swing by more than half for seconds at
/// a time with the neighbours' load. The faster half is the part of the
/// run those swings disturbed least, so runs agree with each other; both
/// sides of any comparison are measured the same way. Counts and memory
/// use every pass.
pub fn end_to_end(passes: &[&Summary]) -> Result<Vec<Metric>, String> {
    let mut fast: Vec<&Summary> = passes.to_vec();
    fast.sort_by(|a, b| a.wall_s.total_cmp(&b.wall_s));
    fast.truncate(passes.len().div_ceil(2));
    let pooled = |f: fn(&Summary) -> &Vec<f64>| -> Vec<f64> {
        fast.iter().flat_map(|p| f(p).iter().copied()).collect()
    };
    let pct = |name: &str, samples: &[f64], q: f64, unit: &str| {
        let value = percentile(samples, q).ok_or_else(|| {
            format!(
                "{name}: {} samples cannot support this percentile",
                samples.len()
            )
        })?;
        Ok::<_, String>(metric(name, value, unit))
    };
    let session_ms = pooled(|s| &s.session_ms);
    let round_ms = pooled(|s| &s.round_ms);
    let submit_us = pooled(|s| &s.submit_us);
    let throughput: Vec<f64> = fast.iter().map(|p| p.completed as f64 / p.wall_s).collect();
    let setup = pooled(|s| &s.setup_s);
    let peak_mb: Vec<f64> = passes.iter().map(|p| p.hwm_kb as f64 / 1024.0).collect();
    let first = &passes[0].exact;
    let attempted: usize = passes.iter().map(|p| p.exact.sessions).sum();
    let done: usize = passes.iter().map(|p| p.exact.done).sum();
    Ok(vec![
        metric("sessions_per_s", median(&throughput), "1/s"),
        pct("session_ms_p50", &session_ms, 0.50, "ms")?,
        pct("session_ms_p90", &session_ms, 0.90, "ms")?,
        pct("round_ms_p50", &round_ms, 0.50, "ms")?,
        pct("round_ms_p90", &round_ms, 0.90, "ms")?,
        pct("submit_us_p50", &submit_us, 0.50, "us")?,
        pct("submit_us_p90", &submit_us, 0.90, "us")?,
        metric("topk_distance", first.topk_distance(), "distance"),
        metric(
            "crowd_questions_per_session",
            first.crowd_questions as f64 / first.sessions.max(1) as f64,
            "1/session",
        ),
        metric("peak_rss_mb", median(&peak_mb), "MiB"),
        metric(
            "completed_share",
            done as f64 / attempted.max(1) as f64,
            "ratio",
        ),
        metric("setup_s", median(&setup), "s"),
    ])
}

/// The per-layer metrics of a traced pass and the replay probe over the
/// same inputs. The tracing overhead needs other passes and is added by
/// the caller.
pub fn per_layer(p: &Pass, tracer: &Tracer, replay: &Replay) -> Vec<Metric> {
    let s = &p.stats;
    let sessions = p.exact.sessions.max(1) as f64;
    let tick_ms: f64 = s.round_ms.iter().sum();

    // Tick time per scheduled session, first tenth of sessions vs last.
    let tenth = p.exact.sessions / 10;
    let per_scheduled = |keep: &dyn Fn(usize) -> bool| {
        let (mut ms, mut scheduled) = (0.0, 0);
        for i in 0..s.round_ms.len() {
            if keep(s.round_completed_before[i]) {
                ms += s.round_ms[i];
                scheduled += s.round_scheduled[i];
            }
        }
        ms / scheduled.max(1) as f64
    };
    let first_tenth = per_scheduled(&|done| done < tenth.max(1));
    let last_tenth = per_scheduled(&|done| done >= p.exact.sessions - tenth);

    let replayed = replay.reports.len().max(1) as f64;
    let core_us_per_session =
        (replay.next_batch_us.iter().sum::<f64>() + replay.feed_us.iter().sum::<f64>()) / replayed;
    let tick_self_ns: Vec<f64> = tracer
        .spans()
        .iter()
        .zip(tracer.self_times())
        .filter(|(span, _)| span.name == "service.tick")
        .map(|(_, own)| own as f64)
        .collect();
    let select = |label: &str| median(replay.select_us.get(label).map_or(&[][..], |v| v));
    let crowd = p.crowd.as_ref();
    let ask_ns: Vec<f64> =
        crowd.map_or(Vec::new(), |c| c.ask_ns.iter().map(|&n| n as f64).collect());
    vec![
        metric(
            "service.round_growth",
            last_tenth / first_tenth.max(1e-12),
            "ratio",
        ),
        metric(
            "service.overhead_us_per_session",
            tick_ms * 1e3 / sessions - core_us_per_session,
            "us",
        ),
        metric(
            "service.purchase_share",
            p.purchase.as_secs_f64() * 1e3 / tick_ms.max(1e-12),
            "ratio",
        ),
        metric(
            "service.cache_hit_rate",
            p.exact.cache_hits as f64 / p.exact.answers_served.max(1) as f64,
            "ratio",
        ),
        metric(
            "service.scheduled_per_round",
            mean(
                &s.round_scheduled
                    .iter()
                    .map(|&n| n as f64)
                    .collect::<Vec<_>>(),
            ),
            "count",
        ),
        metric("service.tick_self_us", mean(&tick_self_ns) / 1e3, "us"),
        metric("core.select_us.t1_on", select("t1_on"), "us"),
        metric("core.select_us.tb_off", select("tb_off"), "us"),
        metric("core.select_us.c_off", select("c_off"), "us"),
        metric("core.select_us.incr", select("incr"), "us"),
        metric("core.feed_us", median(&replay.feed_us), "us"),
        metric("core.driver_new_us", median(&replay.driver_new_us), "us"),
        metric(
            "tpo.worlds_per_session",
            p.exact.worlds_drawn as f64 / sessions,
            "count",
        ),
        metric("prob.pairwise_us", median(&replay.pairwise_us), "us"),
        metric("prob.bounds_us", median(&replay.bounds_us), "us"),
        metric("crowd.asks", ask_ns.len() as f64, "count"),
        metric("crowd.ask_us", mean(&ask_ns) / 1e3, "us"),
        metric(
            "crowd.refused",
            crowd.map_or(0, |c| c.refused) as f64,
            "count",
        ),
        metric(
            "crowd.budget_reads",
            crowd.map_or(0, |c| c.budget_reads) as f64,
            "count",
        ),
        metric(
            "mem.rss_kb_per_session",
            p.hwm_kb.saturating_sub(p.rss_after_setup_kb) as f64 / sessions,
            "kB",
        ),
    ]
}

/// The tracing overhead: median traced pass wall time over median
/// untraced, minus one.
pub fn trace_overhead(passes: &[Summary]) -> Metric {
    let wall = |traced: bool| {
        let walls: Vec<f64> = passes
            .iter()
            .filter(|p| p.traced == traced)
            .map(|p| p.wall_s)
            .collect();
        median(&walls)
    };
    metric(
        "trace.overhead_share",
        wall(true) / wall(false) - 1.0,
        "ratio",
    )
}

/// Checks that every replayed session's report is the same outcome as
/// the service's report for that job.
pub fn check_replay(pass: &Pass, replay: &Replay) -> Result<(), String> {
    if replay.reports.len() != pass.sampled.len() {
        return Err(format!(
            "replayed {} sessions but the service reported {}",
            replay.reports.len(),
            pass.sampled.len()
        ));
    }
    for (j, ours) in &replay.reports {
        match pass.sampled.get(j) {
            Some(theirs) if ours.same_outcome(theirs) => {}
            _ => {
                return Err(format!(
                    "replayed job {j} differs from the service's report"
                ))
            }
        }
    }
    Ok(())
}

/// The correctness gate over every pass of a run: every session is done,
/// the exact counts repeat across passes (each its own process), the
/// first pass's replay matched the service, and another seed changes the
/// inputs.
pub fn gate(workload: Workload, seed: u64, passes: &[Summary]) -> Result<(), String> {
    let e = &passes[0].exact;
    if e.done != e.sessions || e.failed != 0 {
        return Err(format!(
            "{} of {} sessions done, {} failed",
            e.done, e.sessions, e.failed
        ));
    }
    if e.topk_distance() <= 0.0 || e.crowd_questions == 0 {
        return Err(format!("degenerate workload: {e:?}"));
    }
    for (i, p) in passes.iter().enumerate().skip(1) {
        if p.exact != *e {
            return Err(format!(
                "pass {i} counts differ from pass 0: {:?} vs {e:?}",
                p.exact
            ));
        }
    }
    match &passes[0].replay {
        Some(Ok(())) => {}
        Some(Err(err)) => return Err(err.clone()),
        None => return Err("the first pass did not replay".into()),
    }
    let here = Inputs::generate(workload, seed).digest();
    if here == Inputs::generate(workload, seed.wrapping_add(1)).digest() {
        return Err(format!(
            "seeds {seed} and {} generate identical inputs",
            seed.wrapping_add(1)
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_round_trips_through_text() {
        let s = Summary {
            traced: true,
            setup_s: vec![0.1, 1e-7],
            wall_s: 1.25,
            completed: 3,
            session_ms: vec![1.0 / 3.0, 2.5],
            round_ms: vec![],
            submit_us: vec![7.0],
            exact: Exact {
                sessions: 3,
                done: 3,
                failed: 0,
                crowd_questions: 2,
                cache_hits: 5,
                answers_served: 7,
                worlds_drawn: 768,
                distance_bits: 0.1f64.to_bits(),
            },
            hwm_kb: 1024,
            replay: Some(Err("job 4 differs".into())),
            layers: vec![metric("core.feed_us", 12.5, "us")],
        };
        let back = Summary::parse(&s.to_text()).unwrap();
        assert_eq!(back.to_text(), s.to_text());
        assert_eq!(back.session_ms[0].to_bits(), (1.0f64 / 3.0).to_bits());
        assert_eq!(back.exact, s.exact);
        assert_eq!(back.replay, s.replay);
        assert!(Summary::parse("bogus 1\n").is_err());
        assert!(Summary::parse("traced 0\n").is_err());
    }

    /// The `"name"` values between `from` and the next section key.
    fn names(json: &str, from: &str, to: Option<&str>) -> Vec<String> {
        let start = json.find(from).expect("section present");
        let end = to.map_or(json.len(), |t| json.find(t).expect("section present"));
        json[start..end]
            .split("\"name\": \"")
            .skip(1)
            .map(|rest| rest.split('"').next().unwrap().to_string())
            .collect()
    }

    #[test]
    fn metric_names_match_benchmark_json() {
        let json = include_str!("../../BENCHMARK.json");
        let workloads: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
        assert_eq!(
            names(json, "\"workloads\"", Some("\"end_to_end\"")),
            workloads
        );

        let ramp: Vec<f64> = (1..=100).map(f64::from).collect();
        let summary = Summary {
            setup_s: ramp.clone(),
            wall_s: 1.0,
            completed: 100,
            session_ms: ramp.clone(),
            round_ms: ramp.clone(),
            submit_us: ramp,
            exact: Exact {
                sessions: 100,
                done: 100,
                failed: 0,
                crowd_questions: 1,
                cache_hits: 0,
                answers_served: 1,
                worlds_drawn: 0,
                distance_bits: 1.0f64.to_bits(),
            },
            ..Summary::default()
        };
        let e2e: Vec<String> = end_to_end(&[&summary])
            .unwrap()
            .into_iter()
            .map(|m| m.0)
            .collect();
        assert_eq!(names(json, "\"end_to_end\"", Some("\"per_layer\"")), e2e);

        let pass = Pass {
            setup: Vec::new(),
            stats: LoopStats::default(),
            exact: summary.exact.clone(),
            purchase: Duration::ZERO,
            sampled: BTreeMap::new(),
            crowd: None,
            rss_after_setup_kb: 0,
            hwm_kb: 0,
        };
        let tracer = Tracer::new(Instant::now());
        let mut layers: Vec<String> = per_layer(&pass, &tracer, &Replay::default())
            .into_iter()
            .map(|m| m.0)
            .collect();
        layers.push(trace_overhead(&[]).0);
        assert_eq!(names(json, "\"per_layer\"", None), layers);
    }
}

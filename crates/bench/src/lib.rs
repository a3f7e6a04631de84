#![forbid(unsafe_code)]
#![deny(warnings)]
//! # ctk-bench — experiment harness
//!
//! Regenerates every figure and table of the paper's evaluation (see
//! DESIGN.md §6 for the experiment index and EXPERIMENTS.md for recorded
//! results):
//!
//! | binary | reproduces |
//! |--------|------------|
//! | `fig1a` | Fig. 1(a): `D(ω_r, T_K)` vs budget `B` |
//! | `fig1b` | Fig. 1(b): selection CPU time vs budget `B` |
//! | `table_measures` | §IV: the four uncertainty measures head-to-head |
//! | `table_astar` | §IV: A* quality/cost vs the heuristics |
//! | `table_noise` | §III-C/§IV: noisy crowds and majority voting |
//! | `table_hetero` | §IV: non-uniform score distributions |
//! | `table_incr` | §III-D/§IV: `incr` vs full-tree selection |
//! | `table_scaling` | TPO growth and build cost vs `N` and width |
//! | `run_all` | everything above, TSVs into `target/experiments/` |
//!
//! Every binary accepts an optional first argument: the number of
//! independent runs to average over (default varies per experiment).
//! Results are printed as TSV and written under `target/experiments/`.

use ctk_core::measures::MeasureKind;
use ctk_core::session::{Algorithm, SessionConfig, UrSession};
use ctk_crowd::{CrowdSimulator, GroundTruth, NoisyWorker, PerfectWorker, VotePolicy};
use ctk_datagen::Scenario;
use ctk_tpo::build::{Engine, McConfig};
use std::fs;
use std::io::Write as _;
use std::path::PathBuf;

/// One evaluated (algorithm, budget) cell, averaged over runs.
#[derive(Debug, Clone)]
pub struct EvalSummary {
    /// Algorithm name.
    pub algorithm: &'static str,
    /// Question budget `B`.
    pub budget: usize,
    /// Mean `D(ω_r, T_K)` after the budget is spent.
    pub avg_distance: f64,
    /// Mean time spent in question selection (the paper's CPU-time axis).
    pub avg_selection_secs: f64,
    /// Mean end-to-end wall time (incl. TPO construction).
    pub avg_total_secs: f64,
    /// Mean number of questions actually asked (early termination!).
    pub avg_questions: f64,
    /// Number of independent runs averaged.
    pub runs: u64,
}

/// Evaluation knobs shared by all experiments.
#[derive(Debug, Clone)]
pub struct EvalOpts {
    /// Independent runs (different data/truth/noise seeds) to average.
    pub runs: u64,
    /// Monte-Carlo worlds for the TPO engine.
    pub worlds: usize,
    /// Worker accuracy (1.0 = perfect).
    pub accuracy: f64,
    /// Vote policy per question.
    pub policy: VotePolicy,
    /// Uncertainty measure to optimize.
    pub measure: MeasureKind,
}

impl Default for EvalOpts {
    fn default() -> Self {
        Self {
            runs: 10,
            worlds: 5_000,
            accuracy: 1.0,
            policy: VotePolicy::Single,
            measure: MeasureKind::WeightedEntropy,
        }
    }
}

/// Runs `algorithm` at `budget` over `opts.runs` scenario instances and
/// averages the outcome.
pub fn evaluate<F: Fn(u64) -> Scenario>(
    scenario_fn: F,
    algorithm: Algorithm,
    budget: usize,
    opts: &EvalOpts,
) -> EvalSummary {
    let mut distance = 0.0;
    let mut sel_secs = 0.0;
    let mut tot_secs = 0.0;
    let mut questions = 0.0;
    for run in 0..opts.runs {
        let scenario = scenario_fn(run);
        let truth = GroundTruth::sample(&scenario.table, 0x7ee7 + run);
        let top = truth.top_k(scenario.k);
        let session = UrSession::new(SessionConfig {
            k: scenario.k,
            budget,
            measure: opts.measure,
            algorithm: algorithm.clone(),
            engine: Engine::MonteCarlo(McConfig::fixed(opts.worlds, run)),
            seed: run,
            uncertainty_target: None,
        })
        .expect("valid session config");
        // The crowd budget is vote-denominated (a majority-of-n answer
        // costs n); the paper's tables compare policies at equal *question*
        // counts and report replication as an n-fold monetary cost, so the
        // harness funds every policy's full question budget explicitly.
        let crowd_votes = budget * opts.policy.votes_per_question();
        let report = if opts.accuracy >= 1.0 {
            let mut crowd = CrowdSimulator::new(truth, PerfectWorker, opts.policy, crowd_votes)
                .expect("valid vote policy");
            session
                .run_with_truth(&scenario.table, &mut crowd, Some(&top))
                .expect("session runs")
        } else {
            let mut crowd = CrowdSimulator::new(
                truth,
                NoisyWorker::new(opts.accuracy, 0xbad5eed ^ run),
                opts.policy,
                crowd_votes,
            )
            .expect("valid vote policy");
            session
                .run_with_truth(&scenario.table, &mut crowd, Some(&top))
                .expect("session runs")
        };
        distance += report.final_distance().unwrap_or(f64::NAN);
        sel_secs += report.selection_time.as_secs_f64();
        tot_secs += report.total_time.as_secs_f64();
        questions += report.questions_asked() as f64;
    }
    let n = opts.runs as f64;
    EvalSummary {
        algorithm: algorithm.name(),
        budget,
        avg_distance: distance / n,
        avg_selection_secs: sel_secs / n,
        avg_total_secs: tot_secs / n,
        avg_questions: questions / n,
        runs: opts.runs,
    }
}

/// The experiment output directory (`target/experiments/`), created on
/// demand.
fn out_dir() -> PathBuf {
    // CARGO_TARGET_DIR may relocate the target; fall back to ./target.
    let base = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into());
    let dir = PathBuf::from(base).join("experiments");
    fs::create_dir_all(&dir).expect("create experiment output dir");
    dir
}

/// Writes a TSV file under the experiment output directory
/// (`target/experiments/`) and echoes it to stdout.
pub fn emit_tsv(name: &str, header: &[&str], rows: &[Vec<String>]) {
    let mut text = String::new();
    text.push_str(&header.join("\t"));
    text.push('\n');
    for row in rows {
        text.push_str(&row.join("\t"));
        text.push('\n');
    }
    print!("{text}");
    let path = out_dir().join(format!("{name}.tsv"));
    let mut f = fs::File::create(&path).expect("create tsv");
    f.write_all(text.as_bytes()).expect("write tsv");
    eprintln!("# wrote {}", path.display());
}

/// Parses the optional first CLI argument as the run count.
pub fn runs_from_args(default: u64) -> u64 {
    std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

/// Formats a float with fixed precision for TSV cells.
pub fn fmt(x: f64) -> String {
    format!("{x:.4}")
}

/// Formats seconds in scientific notation (the paper's Fig. 1(b) is a log
/// plot).
pub fn fmt_secs(x: f64) -> String {
    format!("{x:.3e}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctk_datagen::scenarios;

    #[test]
    fn evaluate_produces_finite_summaries() {
        let opts = EvalOpts {
            runs: 2,
            worlds: 1_000,
            ..EvalOpts::default()
        };
        let s = evaluate(scenarios::astar, Algorithm::Naive, 4, &opts);
        assert_eq!(s.algorithm, "naive");
        assert_eq!(s.budget, 4);
        assert!(s.avg_distance.is_finite());
        assert!(s.avg_questions <= 4.0);
        assert!(s.avg_total_secs >= s.avg_selection_secs);
        assert_eq!(s.runs, 2);
    }

    #[test]
    fn evaluate_is_deterministic() {
        let opts = EvalOpts {
            runs: 2,
            worlds: 500,
            ..EvalOpts::default()
        };
        let a = evaluate(scenarios::astar, Algorithm::T1On, 3, &opts);
        let b = evaluate(scenarios::astar, Algorithm::T1On, 3, &opts);
        assert_eq!(a.avg_distance.to_bits(), b.avg_distance.to_bits());
        assert_eq!(a.avg_questions, b.avg_questions);
    }

    #[test]
    fn noisy_evaluation_runs() {
        let opts = EvalOpts {
            runs: 2,
            worlds: 500,
            accuracy: 0.8,
            policy: VotePolicy::Majority(3),
            ..EvalOpts::default()
        };
        let s = evaluate(scenarios::noise, Algorithm::T1On, 5, &opts);
        assert!(s.avg_distance.is_finite());
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt(0.12344), "0.1234");
        assert!(fmt_secs(0.00123).contains('e'));
        assert!(runs_from_args(7) >= 1);
    }
}

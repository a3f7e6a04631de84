//! Adversarial crowds: the paper assumes one uniform worker accuracy,
//! but real pools contain spammers. This example sweeps the spammer
//! fraction and compares unweighted majority-of-3 voting against the
//! quality layer (gold qualification, online Beta/Dawid–Skene accuracy
//! estimation, spammer quarantine, log-odds-weighted fusion) at the same
//! vote budget.
//!
//! Run with: `cargo run --example adversarial_crowd`. The output is
//! deterministic; CI diffs it against `tests/golden/adversarial_crowd.txt`.

use crowd_topk::datagen::{gold_questions, scenarios, spammer_pool, Scenario};
use crowd_topk::prelude::*;

/// One full top-K session over `crowd`, returning the final distance to
/// the true top-K.
fn run_arm<C: Crowd>(
    scenario: &Scenario,
    budget: usize,
    run: u64,
    top: &RankList,
    crowd: &mut C,
) -> f64 {
    CrowdTopK::new(scenario.table.clone())
        .k(scenario.k)
        .budget(budget)
        .algorithm(Algorithm::T1On)
        .monte_carlo(6_000, run)
        .run_with_truth(crowd, top)
        .unwrap()
        .final_distance()
        .unwrap()
}

fn main() {
    const BUDGET: usize = 18;
    const RUNS: u64 = 8;
    const PANEL: usize = 3;
    const ROSTER: usize = 9;

    println!("N=15, K=5, B={BUDGET}, T1-on, panel of {PANEL}, roster of {ROSTER}, {RUNS} runs\n");
    println!("spammers   majority-3 D   weighted D   quarantined   (lower D is better)");

    for fraction in [0.0, 0.22, 0.33, 0.44] {
        let mut d_major = 0.0;
        let mut d_weighted = 0.0;
        let mut quarantined = 0usize;
        for run in 0..RUNS {
            let scenario = scenarios::noise(run);
            let truth = GroundTruth::sample(&scenario.table, 9000 + run);
            let top = truth.top_k(scenario.k);
            // Both arms pay one unit per vote, so the comparison is at
            // equal money.
            let accuracies = spammer_pool(ROSTER, fraction, 70 + run);
            let seed = 31 * run + 7;

            // Arm 1: the plain pool — every vote counts the same.
            let workers: Vec<NoisyWorker> = accuracies
                .iter()
                .enumerate()
                .map(|(i, &a)| NoisyWorker::adversarial(a, seed.wrapping_add(i as u64)))
                .collect();
            let mut majority = CrowdSimulator::new(
                GroundTruth::sample(&scenario.table, 9000 + run),
                WorkerPool::from_workers(workers).expect("non-empty roster"),
                VotePolicy::Majority(PANEL),
                BUDGET * PANEL,
            )
            .expect("valid vote policy");

            // Arm 2: same hidden workers behind the quality layer, after
            // a (budget-free) gold qualification round.
            let mut weighted = QualityCrowd::new(
                GroundTruth::sample(&scenario.table, 9000 + run),
                &accuracies,
                QualityConfig::weighted(PANEL),
                BUDGET * PANEL,
                seed,
            )
            .expect("valid roster");
            weighted
                .calibrate_gold(&gold_questions(scenario.table.len() as u32, 1))
                .expect("gold names table tuples");

            d_major += run_arm(&scenario, BUDGET, run, &top, &mut majority);
            d_weighted += run_arm(&scenario, BUDGET, run, &top, &mut weighted);
            quarantined += weighted.quarantined();
        }
        println!(
            "{:7.0}%   {:12.4}   {:10.4}   {:11}",
            100.0 * fraction,
            d_major / RUNS as f64,
            d_weighted / RUNS as f64,
            quarantined
        );
    }

    println!(
        "\nUnweighted majority degrades as spammers dilute the panel: a\n\
         single reliable vote is outvoted by two coordinated-by-chance\n\
         spammers. The quality layer grades workers on gold + consensus\n\
         agreement, down-weights (or inverts) the unreliable ones in a\n\
         log-odds fusion, and quarantines repeat offenders — recovering\n\
         most of the clean-pool quality at the same vote budget."
    );
}

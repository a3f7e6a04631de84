//! §III-C / §IV: the system keeps working under noisy crowds — Bayesian
//! updates degrade gracefully with worker accuracy, majority voting buys
//! accuracy back, and the quality layer's weighted fusion beats plain
//! majority on a spammer-contaminated roster at equal vote budget.

use crowd_topk::datagen::{generate, gold_questions, scenarios, spammer_pool, DatasetSpec};
use crowd_topk::prelude::*;
use crowd_topk::rank::topk::topk_distance;
use crowd_topk::tpo::build::{Engine, McConfig};

/// Votes per question in both arms of the quality-layer comparisons.
const PANEL: usize = 3;

fn avg_final_distance(accuracy: f64, policy: VotePolicy, runs: u64, budget: usize) -> f64 {
    let mut total = 0.0;
    for run in 0..runs {
        let scenario = scenarios::noise(run);
        let truth = GroundTruth::sample(&scenario.table, 400 + run);
        let top = truth.top_k(scenario.k);
        // Crowd budgets are vote-denominated: fund the full question
        // budget under either policy so the comparison stays at equal
        // question counts (majority-of-3 costs 3x the money).
        let mut crowd = CrowdSimulator::new(
            GroundTruth::sample(&scenario.table, 400 + run),
            NoisyWorker::new(accuracy, 77 * run + 3),
            policy,
            budget * policy.votes_per_question(),
        )
        .expect("valid vote policy");
        let r = CrowdTopK::new(scenario.table)
            .k(scenario.k)
            .budget(budget)
            .algorithm(Algorithm::T1On)
            .monte_carlo(4_000, run)
            .run_with_truth(&mut crowd, &top)
            .unwrap();
        total += r.final_distance().unwrap();
    }
    total / runs as f64
}

#[test]
fn accuracy_improves_outcomes() {
    const RUNS: u64 = 8;
    const B: usize = 15;
    let d_low = avg_final_distance(0.6, VotePolicy::Single, RUNS, B);
    let d_high = avg_final_distance(0.95, VotePolicy::Single, RUNS, B);
    assert!(
        d_high < d_low + 0.01,
        "higher accuracy should help: 0.95 -> {d_high:.4}, 0.6 -> {d_low:.4}"
    );
}

#[test]
fn majority_voting_helps_at_moderate_accuracy() {
    const RUNS: u64 = 8;
    const B: usize = 15;
    let single = avg_final_distance(0.7, VotePolicy::Single, RUNS, B);
    let majority = avg_final_distance(0.7, VotePolicy::Majority(3), RUNS, B);
    assert!(
        majority <= single + 0.02,
        "majority-of-3 should not hurt: single {single:.4}, majority {majority:.4}"
    );
}

#[test]
fn noisy_sessions_never_panic_and_keep_all_orderings() {
    let scenario = scenarios::noise(0);
    let truth = GroundTruth::sample(&scenario.table, 5);
    let top = truth.top_k(scenario.k);
    let mut crowd = CrowdSimulator::new(
        GroundTruth::sample(&scenario.table, 5),
        NoisyWorker::new(0.75, 1),
        VotePolicy::Single,
        12,
    )
    .expect("valid vote policy");
    let r = CrowdTopK::new(scenario.table)
        .k(scenario.k)
        .budget(12)
        .algorithm(Algorithm::T1On)
        .monte_carlo(3_000, 0)
        .run_with_truth(&mut crowd, &top)
        .unwrap();
    // Noisy answers only reweight: the ordering count never shrinks.
    for s in &r.steps {
        assert_eq!(
            s.orderings, r.initial_orderings,
            "noisy updates must not prune"
        );
    }
    // But probability mass should still concentrate (uncertainty falls).
    assert!(r.final_uncertainty() <= r.initial_uncertainty + 1e-9);
}

#[test]
fn heterogeneous_pools_work() {
    let scenario = scenarios::noise(2);
    let truth = GroundTruth::sample(&scenario.table, 8);
    let top = truth.top_k(scenario.k);
    let mut crowd = CrowdSimulator::new(
        GroundTruth::sample(&scenario.table, 8),
        WorkerPool::uniform(20, 0.65, 0.95, 3).expect("non-empty pool"),
        VotePolicy::Single,
        15,
    )
    .expect("valid vote policy");
    let r = CrowdTopK::new(scenario.table)
        .k(scenario.k)
        .budget(15)
        .algorithm(Algorithm::T1On)
        .monte_carlo(3_000, 2)
        .run_with_truth(&mut crowd, &top)
        .unwrap();
    assert!(r.questions_asked() > 0);
    assert!(r.final_distance().unwrap() <= r.initial_distance.unwrap() + 0.05);
}

/// One full T1-on top-K session over `crowd` at the quality-layer
/// comparison sizes (n=10, K=4, 14 questions, 2000 fixed worlds).
fn quality_session<C: Crowd>(table: &UncertainTable, crowd: &mut C, seed: u64) -> UrReport {
    let config = SessionConfig {
        k: 4,
        budget: 14,
        measure: MeasureKind::WeightedEntropy,
        algorithm: Algorithm::T1On,
        engine: Engine::MonteCarlo(McConfig::fixed(2000, 7)),
        seed,
        uncertainty_target: None,
    };
    UrSession::new(config).unwrap().run(table, crowd).unwrap()
}

/// The plain unweighted pool over the same accuracies and worker seeds
/// a `QualityCrowd` built from `accuracies` and `seed` uses.
fn majority_pool(
    truth: GroundTruth,
    accuracies: &[f64],
    seed: u64,
    vote_budget: usize,
) -> CrowdSimulator<WorkerPool> {
    let workers: Vec<NoisyWorker> = accuracies
        .iter()
        .enumerate()
        .map(|(i, &a)| NoisyWorker::adversarial(a, seed.wrapping_add(i as u64)))
        .collect();
    let pool = WorkerPool::from_workers(workers).expect("non-empty roster");
    CrowdSimulator::new(truth, pool, VotePolicy::Majority(PANEL), vote_budget)
        .expect("valid vote policy")
}

#[test]
fn weighted_fusion_beats_majority_at_equal_vote_budget() {
    // A 9-worker roster with a third spammers. Every worker costs one
    // vote in both arms, so the same vote budget buys the same number
    // of questions; only the fusion and grading differ.
    const REPS: u64 = 6;
    let vote_budget = PANEL * 14;
    let (mut majority_sum, mut weighted_sum) = (0.0, 0.0);
    for rep in 0..REPS {
        let table = generate(&DatasetSpec::paper_default(10, 0.4, 100 + rep)).unwrap();
        let truth = GroundTruth::sample(&table, 1000 + rep);
        let top = truth.top_k(4);
        let accuracies = spammer_pool(9, 1.0 / 3.0, 7000 + rep);
        let seed = 0xA5EED ^ rep;
        let distance =
            |r: &UrReport| topk_distance(&RankList::new_unchecked(r.final_topk.clone()), &top);

        let mut majority = majority_pool(truth.clone(), &accuracies, seed, vote_budget);
        majority_sum += distance(&quality_session(&table, &mut majority, rep));

        let mut quality = QualityCrowd::new(
            truth,
            &accuracies,
            QualityConfig::weighted(PANEL),
            vote_budget,
            seed,
        )
        .unwrap();
        quality.calibrate_gold(&gold_questions(10, 1)).unwrap();
        weighted_sum += distance(&quality_session(&table, &mut quality, rep));
    }
    let (majority_mean, weighted_mean) = (majority_sum / REPS as f64, weighted_sum / REPS as f64);
    assert!(
        weighted_mean < majority_mean,
        "weighted fusion must beat Majority({PANEL}) at equal vote budget: \
         weighted {weighted_mean:.4} vs majority {majority_mean:.4}"
    );
}

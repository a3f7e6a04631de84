//! Exercises the `debug-invariants` runtime checks end to end. The whole
//! file is compiled only with the feature on (CI's debug-invariants job);
//! each test drives a path whose gated asserts would fire on a violation:
//! the budget ledger's overspend check, the world model's
//! renormalize-to-M check, the scheduler's ceil(n / fanout) deficit
//! bound, and the service feed phase's session-overspend check.

#![cfg(feature = "debug-invariants")]

use crowd_topk::crowd::worker::NoisyWorker;
use crowd_topk::crowd::{CrowdSimulator, GroundTruth, VotePolicy};
use crowd_topk::prelude::*;
use crowd_topk::tpo::build::{Engine, McConfig};

fn overlapping_table(n: usize) -> UncertainTable {
    UncertainTable::new(
        (0..n)
            .map(|i| ScoreDist::uniform_centered(0.15 * i as f64, 0.6).unwrap())
            .collect(),
    )
    .unwrap()
}

/// A noisy incremental session: every answer routes through
/// `apply_answer_noisy` (renormalize-to-M assert) and every purchase
/// through `BudgetLedger::record` (overspend assert).
#[test]
fn noisy_session_passes_ledger_and_world_checks() {
    let table = overlapping_table(8);
    let truth = GroundTruth::sample(&table, 7);
    let top = truth.top_k(3);
    let mut crowd = CrowdSimulator::new(
        GroundTruth::sample(&table, 7),
        NoisyWorker::new(0.8, 11),
        VotePolicy::Majority(3),
        36,
    )
    .expect("valid vote policy");
    let report = CrowdTopK::new(table)
        .k(3)
        .budget(12)
        .algorithm(Algorithm::Incr {
            questions_per_round: 2,
        })
        .monte_carlo(3_000, 5)
        .run_with_truth(&mut crowd, &top)
        .unwrap();
    assert!(report.questions_asked() <= 12);
    assert!(crowd.ledger().spent() <= crowd.ledger().budget());
}

/// A multi-tenant service under bounded fanout: every `tick` runs the
/// scheduler's deficit tracker, and every feed checks that no session
/// answered more questions than its budget.
#[test]
fn sharded_service_respects_scheduler_deficit_bound() {
    let table = overlapping_table(6);
    let config = SessionConfig {
        k: 2,
        budget: 4,
        measure: MeasureKind::WeightedEntropy,
        algorithm: Algorithm::T1On,
        engine: Engine::MonteCarlo(McConfig::fixed(2_000, 3)),
        seed: 3,
        uncertainty_target: None,
    };
    let mut svc = TopKService::new(
        CrowdSimulator::new(
            GroundTruth::sample(&table, 3),
            NoisyWorker::new(0.9, 5),
            VotePolicy::Single,
            1_000,
        )
        .expect("valid vote policy"),
    )
    .with_fanout(2);
    let mut ids = Vec::new();
    for _ in 0..5 {
        ids.push(
            svc.submit(&table, SessionSpec::new(config.clone()))
                .unwrap(),
        );
    }
    svc.run_to_completion();
    for id in ids {
        assert_eq!(svc.state(id), Some(SessionState::Done));
    }
}

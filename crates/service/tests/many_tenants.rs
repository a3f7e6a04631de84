//! The serving layer's contract, end to end: ≥32 concurrent sessions over
//! ONE shared simulated crowd, with cross-session question deduplication,
//! where every tenant's final report equals the one the standalone
//! blocking `UrSession::run` produces under the same seed.

use ctk_core::measures::MeasureKind;
use ctk_core::session::{Algorithm, SessionConfig, UrSession};
use ctk_crowd::{CrowdSimulator, GroundTruth, PerfectWorker, VotePolicy};
use ctk_datagen::{generate, DatasetSpec};
use ctk_prob::UncertainTable;
use ctk_service::{SessionSpec, SessionState, TopKService};
use ctk_tpo::build::{Engine, McConfig};

const TENANTS: usize = 36;
const BUDGET: usize = 6;

fn table() -> UncertainTable {
    generate(&DatasetSpec::paper_default(9, 0.35, 2024)).expect("valid spec")
}

/// The tenant mix: eight distinct configurations cycled over 36 sessions,
/// so identical workloads recur (the cache's bread and butter) while
/// different algorithms and seeds keep the question streams diverse.
fn tenant_config(tenant: usize) -> SessionConfig {
    let algorithm = match tenant % 8 {
        0 => Algorithm::T1On,
        1 => Algorithm::TbOff,
        2 => Algorithm::Naive,
        3 => Algorithm::Random,
        4 => Algorithm::COff,
        5 => Algorithm::Incr {
            questions_per_round: 2,
        },
        6 => Algorithm::T1On,
        _ => Algorithm::TbOff,
    };
    SessionConfig {
        k: 3,
        budget: BUDGET,
        measure: MeasureKind::WeightedEntropy,
        algorithm,
        engine: Engine::MonteCarlo(McConfig::fixed(2000, 17)),
        // Stochastic selectors draw from this seed; recycle it across the
        // cycle so tenants 3 and 11 (both Random) are exact duplicates.
        seed: (tenant % 8) as u64,
        uncertainty_target: None,
    }
}

#[test]
fn thirty_two_plus_tenants_match_standalone_runs() {
    let table = table();
    let truth = GroundTruth::sample(&table, 4242);
    let top = truth.top_k(3);

    // One shared crowd for everyone, with budget to spare; the cache is
    // what keeps actual spending *below* TENANTS * BUDGET.
    let shared = CrowdSimulator::new(truth.clone(), PerfectWorker, VotePolicy::Single, 100_000)
        .expect("valid vote policy");
    let mut service = TopKService::new(shared);

    let mut ids = Vec::new();
    for tenant in 0..TENANTS {
        let spec = SessionSpec::new(tenant_config(tenant));
        let id = service
            .submit_with_truth(&table, spec, Some(&top))
            .expect("valid tenant config");
        ids.push(id);
    }
    for id in &ids {
        assert_eq!(service.state(*id), Some(SessionState::Queued));
    }

    let metrics = service.run_to_completion().clone();

    // Everyone finished.
    assert_eq!(metrics.completed as usize, TENANTS);
    assert_eq!(metrics.failed, 0);
    for id in &ids {
        assert_eq!(service.state(*id), Some(SessionState::Done));
    }

    // The batcher deduplicated across sessions: nonzero cache hits, and
    // the crowd was asked strictly less than the questions served.
    assert!(
        metrics.cache_hits > 0,
        "expected cross-session dedup, metrics: {}",
        metrics.summary()
    );
    assert_eq!(
        metrics.crowd_questions + metrics.cache_hits,
        metrics.answers_served
    );
    assert!(metrics.crowd_questions < metrics.answers_served);
    assert_eq!(
        service.crowd().ledger().asked() as u64,
        metrics.crowd_questions,
        "shared-crowd spending must equal the live-question count"
    );

    // Per-tenant equality with the standalone blocking loop: same table,
    // same truth, own crowd with the session budget, same seed.
    for (tenant, id) in ids.iter().enumerate() {
        let served = service.report(*id).expect("done session has report");
        let mut own_crowd =
            CrowdSimulator::new(truth.clone(), PerfectWorker, VotePolicy::Single, BUDGET)
                .expect("valid vote policy");
        let standalone = UrSession::new(tenant_config(tenant))
            .expect("valid config")
            .run_with_truth(&table, &mut own_crowd, Some(&top))
            .expect("standalone run succeeds");
        assert!(
            served.same_outcome(&standalone),
            "tenant {tenant} ({}) diverged from standalone: \
             served {} steps / final {:?}, standalone {} steps / final {:?}",
            served.algorithm,
            served.questions_asked(),
            served.final_topk,
            standalone.questions_asked(),
            standalone.final_topk,
        );
    }
}

/// The thread count is invisible in the results: the full 36-tenant
/// workload produces bit-identical per-tenant reports at 1, 2 and 4
/// worker threads (the determinism half of the PR 4 acceptance bar).
#[test]
fn per_tenant_reports_identical_across_thread_counts() {
    let table = table();
    let truth = GroundTruth::sample(&table, 4242);
    let top = truth.top_k(3);
    let run = |threads: usize| {
        let shared = CrowdSimulator::new(truth.clone(), PerfectWorker, VotePolicy::Single, 100_000)
            .expect("valid vote policy");
        let mut service = TopKService::new(shared)
            .with_fanout(6)
            .with_threads(threads);
        let ids: Vec<_> = (0..TENANTS)
            .map(|t| {
                service
                    .submit_with_truth(&table, SessionSpec::new(tenant_config(t)), Some(&top))
                    .unwrap()
            })
            .collect();
        let metrics = service.run_to_completion().clone();
        assert_eq!(metrics.completed as usize, TENANTS, "threads={threads}");
        (
            ids.iter()
                .map(|id| service.report(*id).unwrap().clone())
                .collect::<Vec<_>>(),
            metrics,
        )
    };
    let (sequential, base_metrics) = run(1);
    for threads in [2usize, 4] {
        let (parallel, metrics) = run(threads);
        for (tenant, (a, b)) in sequential.iter().zip(&parallel).enumerate() {
            assert!(
                a.same_outcome(b),
                "tenant {tenant} diverged between 1 and {threads} worker threads"
            );
        }
        // Cross-session effects are also identical: same crowd spending,
        // same cache economics, same round count.
        assert_eq!(metrics.crowd_questions, base_metrics.crowd_questions);
        assert_eq!(metrics.cache_hits, base_metrics.cache_hits);
        assert_eq!(metrics.rounds, base_metrics.rounds);
    }
}

/// A *tight* fanout of two over twelve tenants — the regime whose sessions
/// the old cursor-arithmetic scheduler starved (a cursor that skipped
/// sessions). The name dates from when tenants carried priorities; the
/// scheduler now has one round-robin queue. Every tenant must complete,
/// losslessly.
#[test]
fn mixed_priorities_with_bounded_fanout_complete_all_tenants() {
    let table = table();
    let truth = GroundTruth::sample(&table, 4242);
    let top = truth.top_k(3);
    let shared = CrowdSimulator::new(truth.clone(), PerfectWorker, VotePolicy::Single, 100_000)
        .expect("valid vote policy");
    let mut service = TopKService::new(shared).with_fanout(2);
    let ids: Vec<_> = (0..12)
        .map(|t| {
            service
                .submit_with_truth(&table, SessionSpec::new(tenant_config(t)), Some(&top))
                .unwrap()
        })
        .collect();
    let metrics = service.run_to_completion().clone();
    assert_eq!(
        metrics.completed,
        12,
        "no tenant may starve: {}",
        metrics.summary()
    );
    assert_eq!(metrics.failed, 0);
    for (tenant, id) in ids.iter().enumerate() {
        assert_eq!(
            service.state(*id),
            Some(SessionState::Done),
            "tenant {tenant} did not finish"
        );
        let served = service.report(*id).unwrap();
        let mut own_crowd =
            CrowdSimulator::new(truth.clone(), PerfectWorker, VotePolicy::Single, BUDGET)
                .expect("valid vote policy");
        let standalone = UrSession::new(tenant_config(tenant))
            .unwrap()
            .run_with_truth(&table, &mut own_crowd, Some(&top))
            .unwrap();
        assert!(
            served.same_outcome(&standalone),
            "tenant {tenant} diverged under fanout 2"
        );
    }
}

#[test]
fn bounded_fanout_still_serves_everyone_losslessly() {
    let table = table();
    let truth = GroundTruth::sample(&table, 4242);
    let top = truth.top_k(3);
    let shared = CrowdSimulator::new(truth.clone(), PerfectWorker, VotePolicy::Single, 100_000)
        .expect("valid vote policy");
    // Fanout 4: at most four sessions per round — a tight worker pool.
    let mut service = TopKService::new(shared).with_fanout(4);
    let ids: Vec<_> = (0..TENANTS)
        .map(|t| {
            service
                .submit_with_truth(&table, SessionSpec::new(tenant_config(t)), Some(&top))
                .unwrap()
        })
        .collect();
    let metrics = service.run_to_completion().clone();
    assert_eq!(metrics.completed as usize, TENANTS);
    assert!(
        metrics.rounds as usize >= TENANTS / 4,
        "bounded fanout needs many rounds, got {}",
        metrics.rounds
    );
    for (tenant, id) in ids.iter().enumerate() {
        let served = service.report(*id).unwrap();
        let mut own_crowd =
            CrowdSimulator::new(truth.clone(), PerfectWorker, VotePolicy::Single, BUDGET)
                .expect("valid vote policy");
        let standalone = UrSession::new(tenant_config(tenant))
            .unwrap()
            .run_with_truth(&table, &mut own_crowd, Some(&top))
            .unwrap();
        assert!(
            served.same_outcome(&standalone),
            "tenant {tenant} diverged under bounded fanout"
        );
    }
}

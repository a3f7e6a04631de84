//! Property: the one run loop's threads are *invisible in the results*.
//!
//! For randomized tenant mixes, worker-thread counts and crowd budgets
//! (including starvation-tight ones):
//!
//! * 1 and N worker threads agree on the quiescence diagnosis
//!   (`BlockedOnCrowd` with the *same* blocked set, or `Idle`), on every
//!   per-tenant report after `run_to_completion`, and on the
//!   cross-session economics;
//! * with an ample budget, nothing blocks;
//! * with a tight budget, every session is `Done`, `Failed`, or named in
//!   `BlockedOnCrowd` and parked `AwaitingBudget`;
//! * the crowd is never overspent, and a round after `BlockedOnCrowd`
//!   makes no progress.
//!
//! This is the randomized counterpart of the fixed 8-algorithm matrix in
//! `service.rs` — the matrix pins the thread counts, this pins
//! the long tail of odd tenant mixes and tight budgets (DESIGN.md §14).

use ctk_core::measures::MeasureKind;
use ctk_core::session::{Algorithm, SessionConfig, UrReport};
use ctk_crowd::{Answer, Crowd, CrowdSimulator, GroundTruth, PerfectWorker, Question, VotePolicy};
use ctk_datagen::{generate, DatasetSpec};
use ctk_prob::UncertainTable;
use ctk_service::{Quiescence, SessionId, SessionSpec, SessionState, TopKService};
use ctk_tpo::build::{Engine, McConfig};
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

fn table() -> UncertainTable {
    generate(&DatasetSpec::paper_default(7, 0.35, 2024)).expect("valid spec")
}

#[derive(Debug, Clone)]
struct Tenant {
    algorithm: u8,
    seed: u64,
    budget: usize,
}

fn tenant_config(t: &Tenant) -> SessionConfig {
    let algorithm = match t.algorithm % 6 {
        0 => Algorithm::T1On,
        1 => Algorithm::TbOff,
        2 => Algorithm::Naive,
        3 => Algorithm::Random,
        4 => Algorithm::COff,
        _ => Algorithm::Incr {
            questions_per_round: 2,
        },
    };
    SessionConfig {
        k: 2,
        budget: t.budget,
        measure: MeasureKind::WeightedEntropy,
        algorithm,
        engine: Engine::MonteCarlo(McConfig::fixed(400, 17)),
        seed: t.seed,
        uncertainty_target: None,
    }
}

fn tenant_strategy() -> impl Strategy<Value = Tenant> {
    (0u8..6, 0u64..4, 2usize..=5).prop_map(|(algorithm, seed, budget)| Tenant {
        algorithm,
        seed,
        budget,
    })
}

/// What one serve observed.
struct Served {
    /// The quiescence diagnosis, blocked set sorted.
    blocked: Option<Vec<SessionId>>,
    reports: Vec<UrReport>,
    /// Crowd questions, cache hits, answers served, starved sessions.
    economics: [u64; 4],
}

/// One full serve: run to quiescence, check the diagnosis is sound,
/// then force-starve to completion.
fn serve(
    table: &UncertainTable,
    tenants: &[Tenant],
    crowd_budget: usize,
    threads: usize,
) -> Served {
    let truth = GroundTruth::sample(table, 77);
    let crowd = CrowdSimulator::new(truth, PerfectWorker, VotePolicy::Single, crowd_budget)
        .expect("valid vote policy");
    let mut svc = TopKService::new(crowd).with_threads(threads).with_fanout(3);
    let ids: Vec<_> = tenants
        .iter()
        .map(|t| {
            svc.submit(table, SessionSpec::new(tenant_config(t)))
                .expect("valid tenant config")
        })
        .collect();
    let blocked = match svc.run_until_quiescent() {
        Quiescence::Idle => None,
        Quiescence::BlockedOnCrowd { mut sessions } => {
            sessions.sort_unstable();
            Some(sessions)
        }
    };
    let named = blocked.as_deref().unwrap_or_default();
    for id in &ids {
        let state = svc.state(*id).expect("submitted");
        if named.contains(id) {
            assert_eq!(
                state,
                SessionState::AwaitingBudget,
                "{id} named but not parked"
            );
        } else {
            assert!(
                matches!(state, SessionState::Done | SessionState::Failed),
                "{id} is {state:?} at quiescence but not named blocked"
            );
        }
    }
    if blocked.is_some() {
        assert!(
            !svc.tick().progressed(),
            "a blocked round must not progress"
        );
    }
    svc.run_to_completion();
    let m = svc.metrics();
    assert!(m.crowd_questions <= crowd_budget as u64, "crowd overspent");
    Served {
        blocked,
        reports: ids
            .iter()
            .map(|id| svc.report(*id).expect("completed").clone())
            .collect(),
        economics: [m.crowd_questions, m.cache_hits, m.answers_served, m.starved],
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn thread_count_is_invisible_in_the_results(
        tenants in proptest::collection::vec(tenant_strategy(), 3..=8),
        threads in 1usize..=3,
        // Tight budgets starve (BlockedOnCrowd must agree on the parked
        // set); the ample arm exercises full completion.
        crowd_budget in prop_oneof![3usize..=10, Just(100_000usize)],
    ) {
        let table = table();
        let one = serve(&table, &tenants, crowd_budget, 1);
        let many = serve(&table, &tenants, crowd_budget, threads);
        prop_assert_eq!(
            &one.blocked, &many.blocked,
            "quiescence diagnosis diverged (1 thread {:?} vs {} threads {:?})",
            one.blocked, threads, many.blocked
        );
        prop_assert_eq!(one.economics, many.economics, "cross-session economics diverged");
        for (tenant, (a, b)) in one.reports.iter().zip(&many.reports).enumerate() {
            prop_assert!(
                a.same_outcome(b),
                "tenant {} diverged at {} threads",
                tenant, threads
            );
        }
        if crowd_budget == 100_000 {
            prop_assert!(one.blocked.is_none(), "an ample crowd never blocks");
        }
    }
}

/// A crowd whose budget lives behind a shared counter, so a test can
/// top it up while the service owns the crowd.
struct ToppedUp {
    inner: CrowdSimulator<PerfectWorker>,
    budget: Arc<AtomicUsize>,
}

impl Crowd for ToppedUp {
    fn ask(&mut self, q: Question) -> Option<Answer> {
        let left = self.budget.load(Ordering::SeqCst);
        if left == 0 {
            return None;
        }
        self.budget.store(left - 1, Ordering::SeqCst);
        self.inner.ask(q)
    }
    fn remaining(&self) -> usize {
        self.budget.load(Ordering::SeqCst)
    }
    fn answer_accuracy(&self) -> f64 {
        self.inner.answer_accuracy()
    }
    fn history(&self) -> &[Answer] {
        self.inner.history()
    }
}

#[test]
fn topped_up_crowd_resumes_parked_sessions_unstarved() {
    // Quiescence exists so a caller can wait for budget instead of
    // starving: after BlockedOnCrowd, topping the crowd up must let every
    // parked session resume its unresolved tail and finish exactly as if
    // the budget had been there all along.
    let table = table();
    let tenants: Vec<Tenant> = (0..6u8)
        .map(|t| Tenant {
            algorithm: t,
            seed: u64::from(t),
            budget: 4,
        })
        .collect();
    let ample = serve(&table, &tenants, 100_000, 1);
    let budget = Arc::new(AtomicUsize::new(3));
    let crowd = ToppedUp {
        inner: CrowdSimulator::new(
            GroundTruth::sample(&table, 77),
            PerfectWorker,
            VotePolicy::Single,
            100_000,
        )
        .expect("valid vote policy"),
        budget: Arc::clone(&budget),
    };
    let mut svc = TopKService::new(crowd).with_fanout(3);
    let ids: Vec<_> = tenants
        .iter()
        .map(|t| {
            svc.submit(&table, SessionSpec::new(tenant_config(t)))
                .expect("valid tenant config")
        })
        .collect();
    let Quiescence::BlockedOnCrowd { sessions } = svc.run_until_quiescent() else {
        panic!("3 questions cannot serve six tenants");
    };
    assert!(!sessions.is_empty());
    budget.store(100_000, Ordering::SeqCst);
    assert_eq!(svc.run_until_quiescent(), Quiescence::Idle);
    assert_eq!(svc.metrics().starved, 0, "nobody may be starved");
    for (tenant, id) in ids.iter().enumerate() {
        assert_eq!(svc.state(*id), Some(SessionState::Done));
        assert!(
            svc.report(*id)
                .expect("done")
                .same_outcome(&ample.reports[tenant]),
            "tenant {tenant} diverged from the ample run"
        );
    }
}

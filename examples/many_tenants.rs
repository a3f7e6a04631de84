//! Many tenants, one crowd: 32 concurrent top-K sessions multiplexed over
//! a single simulated crowd backend, with cross-session question
//! deduplication and a multi-threaded round loop.
//!
//! Run with:
//! `cargo run --release --example many_tenants [-- --threads N] [--digest]`
//!
//! `--threads N` pins the worker thread count (default: all cores).
//! `--digest` prints only a timing-free per-tenant outcome digest — CI
//! runs the example at two thread counts and diffs both digests against
//! the committed `tests/golden/many_tenants.digest`, so neither the thread
//! count nor a change to the selection code may alter a result.

use crowd_topk::core::measures::MeasureKind;
use crowd_topk::core::session::{Algorithm, SessionConfig, UrSession};
use crowd_topk::datagen::{generate, DatasetSpec};
use crowd_topk::prelude::*;
use crowd_topk::tpo::build::{Engine, McConfig};

const TENANTS: usize = 32;
const BUDGET: usize = 8;

fn tenant_config(tenant: usize) -> SessionConfig {
    let algorithm = match tenant % 6 {
        0 => Algorithm::T1On,
        1 => Algorithm::TbOff,
        2 => Algorithm::Naive,
        3 => Algorithm::Random,
        4 => Algorithm::COff,
        _ => Algorithm::Incr {
            questions_per_round: 3,
        },
    };
    SessionConfig {
        k: 3,
        budget: BUDGET,
        measure: MeasureKind::WeightedEntropy,
        algorithm,
        engine: Engine::MonteCarlo(McConfig::fixed(2500, 17)),
        seed: (tenant % 6) as u64,
        uncertainty_target: None,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let digest = args.iter().any(|a| a == "--digest");
    let flag = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
    };
    let threads = flag("--threads")
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(0); // 0 = all cores

    // One shared object universe: ten items with overlapping uncertain
    // scores, one hidden reality, one crowd that knows it.
    let table = generate(&DatasetSpec::paper_default(10, 0.35, 2024)).expect("valid spec");
    let truth = GroundTruth::sample(&table, 4242);
    let top = truth.top_k(3);
    let crowd = CrowdSimulator::new(truth.clone(), PerfectWorker, VotePolicy::Single, 100_000)
        .expect("valid vote policy");

    // A service with a bounded per-round fanout (a tight worker pool):
    // at most 8 tenants are served per scheduling round, their driver
    // work split across the configured worker threads.
    let mut service = TopKService::new(crowd).with_fanout(8).with_threads(threads);
    let ids: Vec<_> = (0..TENANTS)
        .map(|t| {
            service
                .submit_with_truth(&table, SessionSpec::new(tenant_config(t)), Some(&top))
                .expect("valid tenant config")
        })
        .collect();

    if digest {
        service.run_to_completion();
        // Timing-free, thread-count-independent outcome digest: one line
        // per tenant. Diffing two runs pins the threading determinism.
        for (tenant, id) in ids.iter().enumerate() {
            let r = service.report(*id).expect("tenant completed");
            let last_uncertainty = r
                .steps
                .last()
                .map(|s| s.uncertainty.to_bits())
                .unwrap_or_else(|| r.initial_uncertainty.to_bits());
            println!(
                "{tenant}\t{}\t{}\t{}\t{:?}\t{:016x}",
                r.algorithm,
                r.questions_asked(),
                r.resolved,
                r.final_topk,
                last_uncertainty,
            );
        }
        return;
    }

    println!(
        "Serving {TENANTS} concurrent sessions over one crowd \
         ({} worker threads)...\n",
        service.threads(),
    );
    let metrics = service.run_to_completion().clone();

    println!("{}", metrics.summary());
    println!(
        "\nWithout cross-session batching the crowd would have answered \
         {} questions; deduplication bought {} of them from cache \
         ({:.0}% of the spend saved).",
        metrics.answers_served,
        metrics.cache_hits,
        100.0 * metrics.cache_hit_rate(),
    );

    // Spot-check the losslessness guarantee on the first few tenants:
    // the multiplexed report equals the standalone blocking run.
    let mut verified = 0;
    for (tenant, id) in ids.iter().enumerate().take(6) {
        let served = service.report(*id).expect("session done");
        let mut own_crowd =
            CrowdSimulator::new(truth.clone(), PerfectWorker, VotePolicy::Single, BUDGET)
                .expect("valid vote policy");
        let standalone = UrSession::new(tenant_config(tenant))
            .unwrap()
            .run_with_truth(&table, &mut own_crowd, Some(&top))
            .unwrap();
        assert!(
            served.same_outcome(&standalone),
            "tenant {tenant} diverged from its standalone run"
        );
        verified += 1;
    }
    println!(
        "\nVerified {verified} tenants bit-exact against standalone Session::run; \
         all {} sessions completed.",
        metrics.completed
    );

    println!("\nPer-tenant results (first 8):");
    println!("tenant  algorithm  questions  resolved  top-3");
    for (tenant, id) in ids.iter().enumerate().take(8) {
        let r = service.report(*id).unwrap();
        println!(
            "{tenant:>6}  {:9}  {:9}  {:8}  {:?}",
            r.algorithm,
            r.questions_asked(),
            r.resolved,
            r.final_topk
        );
    }
}

//! Serving-layer throughput: N concurrent sessions multiplexed over one
//! shared crowd (with cross-session answer caching) versus the same N
//! sessions run standalone, each with a private crowd.
//!
//! The service side pays scheduling overhead but buys every duplicated
//! pairwise question exactly once; the standalone side re-buys it per
//! session. The gap is the batching economics the serving layer exists
//! for. A second group sweeps the round loop's worker thread count at a
//! fixed tenant count (reports are bit-identical at every setting, as
//! `reports_bit_identical_across_worker_threads` pins; the historical
//! grid numbers are in `docs/bench-history/BENCH_PR4.json`). A third
//! group times one submit: cold (the service computes the table's
//! pairwise matrix and bounds and builds the initial belief) and a hit
//! (the `(table, k, engine)` is stored, so the submit clones its belief).

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use ctk_core::measures::MeasureKind;
use ctk_core::session::{Algorithm, SessionConfig, UrSession};
use ctk_crowd::{CrowdSimulator, GroundTruth, PerfectWorker, VotePolicy};
use ctk_datagen::{generate, scenarios, DatasetSpec};
use ctk_service::{SessionSpec, TopKService};
use ctk_tpo::build::{Engine, McConfig};
use std::time::Duration;

const BUDGET: usize = 6;

fn tenant_config(tenant: usize) -> SessionConfig {
    let algorithm = match tenant % 4 {
        0 => Algorithm::T1On,
        1 => Algorithm::TbOff,
        2 => Algorithm::Naive,
        _ => Algorithm::Random,
    };
    SessionConfig {
        k: 3,
        budget: BUDGET,
        measure: MeasureKind::WeightedEntropy,
        algorithm,
        engine: Engine::MonteCarlo(McConfig::fixed(1500, 17)),
        seed: (tenant % 4) as u64,
        uncertainty_target: None,
    }
}

fn bench_service_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("service_throughput");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_millis(1500));
    let scenario = scenarios::astar(7);
    let truth = GroundTruth::sample(&scenario.table, 4242);

    for tenants in [8usize, 32] {
        group.bench_with_input(
            BenchmarkId::new("multiplexed", tenants),
            &tenants,
            |b, &n| {
                b.iter(|| {
                    let crowd = CrowdSimulator::new(
                        truth.clone(),
                        PerfectWorker,
                        VotePolicy::Single,
                        100_000,
                    )
                    .expect("valid vote policy");
                    let mut service = TopKService::new(crowd);
                    let ids: Vec<_> = (0..n)
                        .map(|t| {
                            service
                                .submit(&scenario.table, SessionSpec::new(tenant_config(t)))
                                .expect("valid config")
                        })
                        .collect();
                    service.run_to_completion();
                    ids.iter()
                        .map(|id| service.report(*id).unwrap().questions_asked())
                        .sum::<usize>()
                });
            },
        );
        group.bench_with_input(
            BenchmarkId::new("standalone", tenants),
            &tenants,
            |b, &n| {
                b.iter(|| {
                    (0..n)
                        .map(|t| {
                            let mut crowd = CrowdSimulator::new(
                                truth.clone(),
                                PerfectWorker,
                                VotePolicy::Single,
                                BUDGET,
                            )
                            .expect("valid vote policy");
                            UrSession::new(tenant_config(t))
                                .expect("valid config")
                                .run(&scenario.table, &mut crowd)
                                .expect("session runs")
                                .questions_asked()
                        })
                        .sum::<usize>()
                });
            },
        );
    }
    group.finish();
}

fn bench_round_loop_threads(c: &mut Criterion) {
    let mut group = c.benchmark_group("service_round_loop_threads");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_millis(1500));
    let scenario = scenarios::astar(7);
    let truth = GroundTruth::sample(&scenario.table, 4242);
    const TENANTS: usize = 32;

    for threads in [1usize, 2, 4] {
        group.bench_with_input(
            BenchmarkId::new("threads", threads),
            &threads,
            |b, &threads| {
                b.iter(|| {
                    let crowd = CrowdSimulator::new(
                        truth.clone(),
                        PerfectWorker,
                        VotePolicy::Single,
                        100_000,
                    )
                    .expect("valid vote policy");
                    let mut service = TopKService::new(crowd).with_threads(threads);
                    let ids: Vec<_> = (0..TENANTS)
                        .map(|t| {
                            service
                                .submit(&scenario.table, SessionSpec::new(tenant_config(t)))
                                .expect("valid config")
                        })
                        .collect();
                    service.run_to_completion();
                    ids.iter()
                        .map(|id| service.report(*id).unwrap().questions_asked())
                        .sum::<usize>()
                });
            },
        );
    }
    group.finish();
}

fn bench_service_submit(c: &mut Criterion) {
    let mut group = c.benchmark_group("service_submit");
    group
        .sample_size(30)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_millis(1500));
    let n8 = generate(&DatasetSpec::paper_default(8, 0.4, 7)).expect("valid spec");
    let fig1 = scenarios::fig1(1);
    for (name, table, k, worlds) in [
        ("n8_256_worlds", &n8, 3, 256),
        ("fig1_1500_worlds", &fig1.table, fig1.k, 1500),
    ] {
        let spec = SessionSpec::new(SessionConfig {
            k,
            budget: BUDGET,
            measure: MeasureKind::WeightedEntropy,
            algorithm: Algorithm::T1On,
            engine: Engine::MonteCarlo(McConfig::fixed(worlds, 17)),
            seed: 0,
            uncertainty_target: None,
        });
        let truth = GroundTruth::sample(table, 4242);
        let service = || {
            TopKService::new(
                CrowdSimulator::new(truth.clone(), PerfectWorker, VotePolicy::Single, 1000)
                    .expect("valid vote policy"),
            )
        };
        let submit = |mut svc: TopKService<_>| {
            svc.submit(table, spec.clone()).expect("valid config");
            svc
        };
        group.bench_function(BenchmarkId::new("cold", name), |b| {
            b.iter_batched(service, submit, BatchSize::SmallInput);
        });
        // The first two submits of a key store its belief.
        let stored = || submit(submit(service()));
        group.bench_function(BenchmarkId::new("hit", name), |b| {
            b.iter_batched(stored, submit, BatchSize::SmallInput);
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_service_throughput,
    bench_round_loop_threads,
    bench_service_submit
);
criterion_main!(benches);

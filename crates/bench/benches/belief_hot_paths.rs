//! Belief-state hot paths: the indexed/cached implementations against
//! the pre-rewrite reference code paths.
//!
//! * `pr_precedes` — O(1) position-index lookups vs the O(n) ranking scan;
//! * `apply_answer_noisy` — indexed reweight vs the scan-based reweight;
//! * `path_set` — incremental prefix-group cache vs fresh hash-map
//!   grouping;
//! * `pairwise` / `build_mc` — chunked parallel builders vs sequential;
//! * `residual` — prefix-index partition evaluation vs a fresh `PathSet`
//!   per class.
//!
//! The sizes (M = 10k worlds, n = 200) match the history in
//! `docs/bench-history/BENCH_PR3.json`.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use ctk_bench::reference::{apply_noisy_scan, pr_precedes_scan};
use ctk_core::measures::MeasureKind;
use ctk_core::residual::{AnswerPartition, ResidualCtx};
use ctk_core::select::relevant_questions;
use ctk_datagen::{generate, DatasetSpec};
use ctk_prob::compare::PairwiseMatrix;
use ctk_prob::UncertainTable;
use ctk_tpo::build::{build_mc, build_mc_with_threads, McConfig};
use ctk_tpo::WorldModel;

fn table(n: usize) -> UncertainTable {
    generate(&DatasetSpec::paper_default(n, 0.4, 3)).expect("valid spec")
}

fn bench_belief(c: &mut Criterion) {
    const WORLDS: usize = ctk_tpo::DEFAULT_WORLDS;
    const N: usize = 200;
    let t = table(N);
    let wm = WorldModel::sample(&t, WORLDS, 7).expect("worlds > 0");
    let pairs: Vec<(u32, u32)> = (0..16u32)
        .map(|d| (d * 11 % N as u32, (d * 11 + 1) % N as u32))
        .collect();

    let mut g = c.benchmark_group("pr_precedes");
    g.bench_function("indexed", |b| {
        b.iter(|| {
            pairs
                .iter()
                .map(|&(i, j)| wm.pr_precedes(i, j))
                .sum::<f64>()
        })
    });
    g.bench_function("scan", |b| {
        b.iter(|| {
            pairs
                .iter()
                .map(|&(i, j)| pr_precedes_scan(&wm, i, j))
                .sum::<f64>()
        })
    });
    g.finish();

    let mut g = c.benchmark_group("apply_answer_noisy");
    let mut indexed = wm.clone();
    g.bench_function("indexed", |b| {
        b.iter(|| {
            for &(i, j) in &pairs {
                indexed.apply_answer_noisy(i, j, true, 0.8).unwrap();
            }
            indexed.total_weight()
        })
    });
    let mut weights: Vec<f64> = (0..wm.num_worlds()).map(|w| wm.weight(w)).collect();
    g.bench_function("scan", |b| {
        b.iter(|| {
            for &(i, j) in &pairs {
                apply_noisy_scan(&wm, &mut weights, i, j, true, 0.8);
            }
            weights.iter().sum::<f64>()
        })
    });
    g.finish();

    let mut g = c.benchmark_group("path_set");
    let mut cached = wm.clone();
    cached.path_set_cached(5).unwrap(); // warm the prefix groups
    g.bench_function("cached", |b| {
        b.iter(|| cached.path_set_cached(5).unwrap().len())
    });
    g.bench_function("rebuild", |b| b.iter(|| wm.path_set(5).unwrap().len()));
    g.finish();
}

fn bench_builders(c: &mut Criterion) {
    let t = table(64);
    let mut g = c.benchmark_group("pairwise_compute");
    g.sample_size(10);
    g.bench_function("parallel", |b| {
        b.iter(|| PairwiseMatrix::compute(&t).uncertain_pair_count())
    });
    g.bench_function("sequential", |b| {
        b.iter(|| PairwiseMatrix::compute_sequential(&t).uncertain_pair_count())
    });
    g.finish();

    let t = table(50);
    let cfg = McConfig::fixed(20_000, 5);
    let mut g = c.benchmark_group("build_mc");
    g.sample_size(10);
    g.bench_function("parallel", |b| {
        b.iter(|| build_mc(&t, 5, &cfg).unwrap().len())
    });
    g.bench_function("sequential", |b| {
        b.iter(|| build_mc_with_threads(&t, 5, &cfg, 1).unwrap().len())
    });
    g.finish();
}

fn bench_residual(c: &mut Criterion) {
    let t = table(20);
    let pw = PairwiseMatrix::compute(&t);
    let measure = MeasureKind::WeightedEntropy.build();
    let ctx = ResidualCtx {
        measure: measure.as_ref(),
        pairwise: &pw,
    };
    let ps = build_mc(&t, 4, &McConfig::fixed(4000, 2)).unwrap();
    let qs: Vec<_> = relevant_questions(&ps, &ctx).into_iter().take(3).collect();

    let mut g = c.benchmark_group("residual_partition");
    g.bench_function("prefix_index", |b| {
        b.iter(|| {
            let mut part = AnswerPartition::root(&ps);
            for q in &qs {
                black_box(part.expected_with_question(q, &ctx));
                part.refine(q, &ctx);
            }
            part.expected_uncertainty(ctx.measure)
        })
    });
    g.bench_function("reference_eval", |b| {
        b.iter(|| {
            let mut part = AnswerPartition::root(&ps);
            for q in &qs {
                part.refine(q, &ctx);
                black_box(part.expected_uncertainty_reference(ctx.measure));
            }
            part.expected_uncertainty_reference(ctx.measure)
        })
    });
    g.finish();
}

criterion_group!(benches, bench_belief, bench_builders, bench_residual);
criterion_main!(benches);

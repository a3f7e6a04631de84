//! Belief-state hot paths, timed through the public API:
//!
//! * `pr_precedes` — position-index lookups;
//! * `apply_answer_noisy` — indexed reweight;
//! * `path_set` — incremental prefix-group cache (`cached`), and
//!   `prune_uhw_fig1`, one step's report trail: one hard prune of the
//!   Fig. 1 instance's 1500-world path set (k = 5) and `U_Hw` of the
//!   result;
//! * `pairwise_compute` / `build_mc` — the table builders, on the calling
//!   thread: the matrix at n = 64 and a fixed 20 000-world build at
//!   n = 50, k = 5;
//! * `belief_build` — one session's initial belief at each perfbench
//!   workload's shape: a fixed 1500-world build at n = 20, k = 5
//!   (`paper_deep`) as a tree and as `incr` (`incr_fixed`: the worlds
//!   plus their counted depth-k path set); `incr_hit_n8_k3`, an `incr`
//!   session started from a stored belief and its shared world sample at
//!   the `tenant_stream` shape (n = 8, k = 3, 256 fixed worlds: one `Arc`
//!   clone, fresh weights and the report baseline); `tree_hit_n8_k4`,
//!   the same shape's tree hit (T1-on, k = 4: a clone of the stored path
//!   set, whose prefix groups it shares, and the report baseline); an
//!   adaptive
//!   ε = δ = 0.05 build at n = 12, k = 3 as a tree (prefix counts only)
//!   and as `incr` (worlds kept over the depth-k candidates), the
//!   `cold_burst` submit; `exact_n10` is the exact nested-quadrature
//!   engine at n = 10, k = 5;
//! * `session_start` — `c_off_hit_n8_k4` is one C-off session at the
//!   `tenant_stream` shape (n = 8, k = 4, 256 fixed worlds, budget 2)
//!   started from a stored belief whose first-pick slot is filled,
//!   through its first `next_batch`: the belief clone, the report
//!   baseline and a copy of the stored plan, with no selection;
//! * `residual_partition` — prefix-index partition evaluation;
//! * `measures` — one evaluation of each uncertainty measure (`U_H`,
//!   `U_Hw`, `U_ORA`, `U_MPO`) on the Fig. 1 instance's 5000-world path
//!   set;
//! * `report` — `expected_distance/fig1` is one `D(ω_r, T_K)` over the
//!   Fig. 1 instance's 1500-world path set (k = 5), the sum a session
//!   with a truth reports at submit and after every answer;
//! * `select_step` — one T1-on step, one TB-off select and one C-off
//!   select (B = 6) under `U_Hw` at n ∈ {10, 20, 40}, k = 5, 1500 worlds:
//!   the selector cost along the table-size axis of the paper's Fig. 1(b);
//!   `estimate_pool` is one batched chain-rule estimate of the whole
//!   relevant-question pool on the root partition.
//!
//! Medians on a 2-core host, means of two runs per side, before → after
//! the batched estimate kernel and the counted `incr` baseline:
//! `select_step/estimate_pool` 157 → 41 µs (n10), 3.62 → 0.98 ms (n20),
//! 8.96 → 2.68 ms (n40); `select_step/c_off` 1.33 → 0.64 ms,
//! 24.9 → 8.02 ms, 75.1 → 28.4 ms; `belief_build/incr_fixed`
//! 1.42 → 0.93 ms. The "before" rows ran the per-candidate estimate in a
//! loop, and grouped a `WorldModel::sample` with `path_set_cached(5)`.
//!
//! Each row prints the median and the minimum of its samples: on a
//! shared host medians of repeated runs of one binary move by tens of
//! percent, and the minimum is the run least disturbed. Medians of 8
//! alternating runs per side on a shared 2-core host (minima in
//! brackets), before → after the candidate-only world samples:
//! `belief_build/incr_fixed` 688 → 520 µs (633 → 485 µs),
//! `adaptive_incr_n12_k3` 369 → 256 µs (340 → 245 µs); the tree rows
//! `fixed_n20_k5` 404 → 385 µs (384 → 353 µs) and `adaptive_tree_n12_k3`
//! 170 → 183 µs (164 → 150 µs) held within the host's noise.
//!
//! Minima of 8 alternating runs per side on a shared 2-core host, before
//! → after the answer-kind table, the nested level runs and the
//! branch-free member pass: `select_step/c_off/n20` 6.04 → 4.16 ms,
//! `select_step/tb_off/n20` 1.62 → 1.18 ms and
//! `select_step/estimate_pool/n20` 697 → 381 µs (medians 6.59 → 4.49 ms,
//! 1.73 → 1.24 ms, 768 → 412 µs).
//!
//! The implementations these replaced survive only as test-only
//! references; their reference-vs-fast timings are recorded in
//! `docs/bench-history/BENCH_PR3.json` and `BENCH_PR5.json`. The sizes
//! (M = 10k worlds, n = 200) match `BENCH_PR3.json`.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use ctk_core::belief::{Belief, BeliefKey};
use ctk_core::driver::{FirstPickSlot, SessionDriver};
use ctk_core::measures::MeasureKind;
use ctk_core::metrics::expected_distance_to_truth;
use ctk_core::residual::{AnswerPartition, ResidualCtx};
use ctk_core::select::{relevant_questions, COff, OfflineSelector, OnlineSelector, T1On, TbOff};
use ctk_core::session::{Algorithm, SessionConfig};
use ctk_crowd::GroundTruth;
use ctk_datagen::{generate, scenarios, DatasetSpec};
use ctk_prob::compare::PairwiseMatrix;
use ctk_prob::TopKBounds;
use ctk_prob::UncertainTable;
use ctk_tpo::build::{
    build_exact, build_mc, sample_adaptive, sample_fixed, Engine, ExactConfig, McConfig,
};
use ctk_tpo::prune::prune;
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
                .map(|&(i, j)| {
                    wm.pr_precedes(i, j)
                        .expect("a full sample ranks every tuple")
                })
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
    g.finish();

    let mut g = c.benchmark_group("path_set");
    let mut cached = wm.clone();
    cached.path_set_cached(5).unwrap(); // warm the prefix groups
    g.bench_function("cached", |b| {
        b.iter(|| cached.path_set_cached(5).unwrap().len())
    });
    let scenario = scenarios::fig1(0);
    let fig1 = build_mc(&scenario.table, scenario.k, &McConfig::fixed(1500, 11)).unwrap();
    let fig1_pw = PairwiseMatrix::compute(&scenario.table);
    let uhw = MeasureKind::WeightedEntropy.build();
    let ctx = ResidualCtx {
        measure: uhw.as_ref(),
        pairwise: &fig1_pw,
    };
    let q = relevant_questions(&fig1, &ctx)[0];
    let split = ctx.prior(q.i, q.j);
    g.bench_function("prune_uhw_fig1", |b| {
        b.iter(|| {
            let (pruned, _) = prune(&fig1, q.i, q.j, true, split).unwrap();
            uhw.uncertainty(&pruned)
        })
    });
    g.finish();
}

fn bench_builders(c: &mut Criterion) {
    let t = table(64);
    let mut g = c.benchmark_group("pairwise_compute");
    g.sample_size(10);
    g.bench_function("n64", |b| {
        b.iter(|| PairwiseMatrix::compute(&t).uncertain_pair_count())
    });
    g.finish();

    let t = table(50);
    let cfg = McConfig::fixed(20_000, 5);
    let mut g = c.benchmark_group("build_mc");
    g.sample_size(10);
    g.bench_function("n50_w20000", |b| {
        b.iter(|| build_mc(&t, 5, &cfg).unwrap().len())
    });
    g.finish();
}

fn bench_belief_build(c: &mut Criterion) {
    let mut g = c.benchmark_group("belief_build");
    g.sample_size(50);
    let deep = table(20);
    let fixed = McConfig::fixed(1500, 11);
    g.bench_function("fixed_n20_k5", |b| {
        b.iter(|| build_mc(&deep, 5, &fixed).unwrap().len())
    });
    g.bench_function("incr_fixed", |b| {
        b.iter(|| sample_fixed(&deep, 5, 1500, 11).unwrap().1.len())
    });
    let stream = table(8);
    let config = SessionConfig {
        k: 3,
        budget: 2,
        measure: MeasureKind::WeightedEntropy,
        algorithm: Algorithm::Incr {
            questions_per_round: 2,
        },
        engine: Engine::MonteCarlo(McConfig::fixed(256, 11)),
        seed: 3,
        uncertainty_target: None,
    };
    let key = BeliefKey::of(&config);
    let pairwise = std::sync::Arc::new(PairwiseMatrix::compute(&stream));
    let stream_bounds = TopKBounds::from_matrix(&pairwise, 3).unwrap();
    let stored = Belief::build_with_worlds(&stream, &key, &stream_bounds).unwrap();
    g.bench_function("incr_hit_n8_k3", |b| {
        b.iter(|| {
            let pairwise = std::sync::Arc::clone(&pairwise);
            SessionDriver::from_belief(
                config.clone(),
                &stream,
                None,
                pairwise,
                stored.clone(),
                None,
            )
            .unwrap()
            .report()
            .initial_orderings
        })
    });
    let tree = SessionConfig {
        k: 4,
        algorithm: Algorithm::T1On,
        ..config.clone()
    };
    let key = BeliefKey::of(&tree);
    let tree_bounds = TopKBounds::from_matrix(&pairwise, 4).unwrap();
    let stored_tree = Belief::build(&stream, &key, &tree_bounds).unwrap();
    g.bench_function("tree_hit_n8_k4", |b| {
        b.iter(|| {
            let pairwise = std::sync::Arc::clone(&pairwise);
            SessionDriver::from_belief(
                tree.clone(),
                &stream,
                None,
                pairwise,
                stored_tree.clone(),
                None,
            )
            .unwrap()
            .report()
            .initial_orderings
        })
    });
    let cold = table(12);
    let bounds = TopKBounds::from_matrix(&PairwiseMatrix::compute(&cold), 3).unwrap();
    let adaptive = Engine::MonteCarlo(McConfig::adaptive(0.05, 0.05, 11));
    g.bench_function("adaptive_tree_n12_k3", |b| {
        b.iter(|| {
            let (ps, report) = adaptive.build_with_report(&cold, 3, Some(&bounds)).unwrap();
            (ps.len(), report.worlds_drawn)
        })
    });
    g.bench_function("adaptive_incr_n12_k3", |b| {
        b.iter(|| {
            sample_adaptive(&cold, 3, 0.05, 0.05, 11, Some(&bounds))
                .unwrap()
                .1
                .worlds_drawn
        })
    });
    // One exact build takes hundreds of milliseconds, so this last row
    // takes fewer samples.
    let small = table(10);
    g.sample_size(10);
    g.bench_function("exact_n10", |b| {
        b.iter(|| {
            build_exact(&small, 5, &ExactConfig::default())
                .unwrap()
                .len()
        })
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
    g.finish();
}

fn bench_measures(c: &mut Criterion) {
    let scenario = scenarios::fig1(0);
    let ps = build_mc(&scenario.table, scenario.k, &McConfig::fixed(5_000, 0)).unwrap();
    let mut g = c.benchmark_group("measures");
    g.sample_size(10);
    for kind in MeasureKind::all() {
        let m = kind.build();
        g.bench_function(kind.name(), |b| b.iter(|| m.uncertainty(&ps)));
    }
    g.finish();
}

fn bench_report(c: &mut Criterion) {
    let scenario = scenarios::fig1(0);
    let ps = build_mc(&scenario.table, scenario.k, &McConfig::fixed(1500, 11)).unwrap();
    let truth = GroundTruth::sample(&scenario.table, 1).top_k(scenario.k);
    let mut g = c.benchmark_group("report");
    g.sample_size(50);
    g.bench_function("expected_distance/fig1", |b| {
        b.iter(|| expected_distance_to_truth(&ps, &truth))
    });
    g.finish();
}

fn bench_select_step(c: &mut Criterion) {
    let measure = MeasureKind::WeightedEntropy.build();
    let mut g = c.benchmark_group("select_step");
    g.sample_size(10);
    for n in [10usize, 20, 40] {
        let t = table(n);
        let pw = PairwiseMatrix::compute(&t);
        let ctx = ResidualCtx {
            measure: measure.as_ref(),
            pairwise: &pw,
        };
        let ps = build_mc(&t, 5, &McConfig::fixed(1500, 11)).unwrap();
        g.bench_function(BenchmarkId::new("t1_on", format!("n{n}")), |b| {
            b.iter(|| T1On.next_question(&ps, 6, &ctx))
        });
        g.bench_function(BenchmarkId::new("tb_off", format!("n{n}")), |b| {
            b.iter(|| TbOff.select(&ps, 6, &ctx))
        });
        g.bench_function(BenchmarkId::new("c_off", format!("n{n}")), |b| {
            b.iter(|| COff.select(&ps, 6, &ctx))
        });
        let pool = relevant_questions(&ps, &ctx);
        let mut root = AnswerPartition::root(&ps);
        let mut estimates = Vec::new();
        g.bench_function(BenchmarkId::new("estimate_pool", format!("n{n}")), |b| {
            b.iter(|| root.estimate_with_questions(&pool, &ctx, &mut estimates))
        });
    }
    g.finish();
}

/// One C-off session started from a stored belief whose first-pick slot
/// is filled, through its first `next_batch`: the `tenant_stream` hit.
fn bench_session_start(c: &mut Criterion) {
    let stream = table(8);
    let config = SessionConfig {
        k: 4,
        budget: 2,
        measure: MeasureKind::WeightedEntropy,
        algorithm: Algorithm::COff,
        engine: Engine::MonteCarlo(McConfig::fixed(256, 11)),
        seed: 3,
        uncertainty_target: None,
    };
    let key = BeliefKey::of(&config);
    let pairwise = std::sync::Arc::new(PairwiseMatrix::compute(&stream));
    let bounds = TopKBounds::from_matrix(&pairwise, 4).unwrap();
    let stored = Belief::build(&stream, &key, &bounds).unwrap();
    let slot = FirstPickSlot::new(&config, config.budget, stream.len()).expect("C-off has a slot");
    let start = || {
        let pairwise = std::sync::Arc::clone(&pairwise);
        let belief = stored.clone();
        let slot = Some(slot.clone());
        SessionDriver::from_belief(config.clone(), &stream, None, pairwise, belief, slot).unwrap()
    };
    // The first session fills the slot; every timed one reads it.
    start().next_batch(usize::MAX).unwrap();
    assert!(slot.is_filled());
    let mut g = c.benchmark_group("session_start");
    g.sample_size(50);
    g.bench_function("c_off_hit_n8_k4", |b| {
        b.iter(|| start().next_batch(usize::MAX).unwrap().len())
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_belief,
    bench_builders,
    bench_belief_build,
    bench_session_start,
    bench_residual,
    bench_measures,
    bench_report,
    bench_select_step
);
criterion_main!(benches);

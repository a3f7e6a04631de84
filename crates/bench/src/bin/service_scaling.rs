//! Serving-layer scaling report (PR 4 acceptance numbers): round-loop
//! throughput over a tenants × worker-threads grid, with per-tenant
//! report bit-identity asserted between every cell and the sequential
//! baseline. Emits `BENCH_PR4.json`.
//!
//! `cargo run --release -p ctk-bench --bin service_scaling [--smoke] [--out FILE]`
//!
//! `--smoke` shrinks the grid so the binary finishes in seconds (used by
//! the CI bench-smoke step). The ">= 2x at 64 tenants on 4 threads"
//! acceptance assertion arms only on machines with >= 4 cores — on the
//! single-core build container the grid still runs (and still must be
//! deterministic and near-overhead-free), but a parallel speedup is
//! physically impossible there and the committed JSON records that
//! honestly, exactly as PR 3 did for its chunked builders.

use ctk_core::measures::MeasureKind;
use ctk_core::session::{Algorithm, SessionConfig, UrReport};
use ctk_crowd::{CrowdSimulator, GroundTruth, PerfectWorker, VotePolicy};
use ctk_datagen::{generate, DatasetSpec};
use ctk_prob::UncertainTable;
use ctk_service::{SessionSpec, TopKService};
use ctk_tpo::build::{Engine, McConfig};
use std::time::Instant;

struct Grid {
    tenants: Vec<usize>,
    threads: Vec<usize>,
    tuples: usize,
    worlds: usize,
    budget: usize,
}

fn full() -> Grid {
    Grid {
        tenants: vec![16, 64],
        threads: vec![1, 2, 4],
        tuples: 18,
        worlds: ctk_tpo::DEFAULT_WORLDS,
        budget: 12,
    }
}

fn smoke() -> Grid {
    Grid {
        tenants: vec![8],
        threads: vec![1, 2],
        tuples: 9,
        worlds: 1_500,
        budget: 5,
    }
}

/// Distinct per-tenant workloads: the heavy online scorers dominate so a
/// round's gather phase has real work to shard, with enough variety that
/// rounds stay populated at different depths.
fn tenant_config(tenant: usize, worlds: usize, budget: usize) -> SessionConfig {
    let algorithm = match tenant % 4 {
        0 | 1 => Algorithm::T1On,
        2 => Algorithm::COff,
        _ => Algorithm::Incr {
            questions_per_round: 2,
        },
    };
    SessionConfig {
        k: 2 + tenant % 3,
        budget,
        measure: MeasureKind::WeightedEntropy,
        algorithm,
        engine: Engine::MonteCarlo(McConfig::fixed(worlds, 17 + (tenant % 4) as u64)),
        seed: tenant as u64,
        uncertainty_target: None,
    }
}

struct Cell {
    tenants: usize,
    threads: usize,
    elapsed_ms: f64,
    rounds: u64,
    answers_served: u64,
    cache_hits: u64,
    answers_per_sec: f64,
    speedup_vs_1: f64,
}

fn run_cell(
    table: &UncertainTable,
    truth: &GroundTruth,
    grid: &Grid,
    tenants: usize,
    threads: usize,
) -> (Cell, Vec<UrReport>) {
    let crowd = CrowdSimulator::new(truth.clone(), PerfectWorker, VotePolicy::Single, 1_000_000)
        .expect("valid vote policy");
    let mut service = TopKService::new(crowd).with_threads(threads);
    let ids: Vec<_> = (0..tenants)
        .map(|t| {
            service
                .submit(
                    table,
                    SessionSpec::new(tenant_config(t, grid.worlds, grid.budget)),
                )
                .expect("valid tenant config")
        })
        .collect();
    // Time only the round loop: session construction (TPO build) is
    // submit-time work and identical across thread counts.
    let t0 = Instant::now();
    let metrics = service.run_to_completion().clone();
    let elapsed = t0.elapsed();
    assert_eq!(
        metrics.completed as usize, tenants,
        "every tenant completes"
    );
    assert_eq!(metrics.failed, 0);
    let reports: Vec<UrReport> = ids
        .iter()
        .map(|id| service.report(*id).expect("done").clone())
        .collect();
    let secs = elapsed.as_secs_f64();
    (
        Cell {
            tenants,
            threads,
            elapsed_ms: secs * 1e3,
            rounds: metrics.rounds,
            answers_served: metrics.answers_served,
            cache_hits: metrics.cache_hits,
            answers_per_sec: metrics.answers_served as f64 / secs.max(1e-9),
            speedup_vs_1: 1.0, // filled in by the caller
        },
        reports,
    )
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke_mode = args.iter().any(|a| a == "--smoke");
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_PR4.json".to_string());
    let grid = if smoke_mode { smoke() } else { full() };
    let cores = std::thread::available_parallelism()
        .map(|t| t.get())
        .unwrap_or(1);
    eprintln!(
        "# service scaling: tenants {:?} x threads {:?} (n={}, worlds={}, budget={}, {} cores){}",
        grid.tenants,
        grid.threads,
        grid.tuples,
        grid.worlds,
        grid.budget,
        cores,
        if smoke_mode { " [smoke]" } else { "" }
    );

    let table = generate(&DatasetSpec::paper_default(grid.tuples, 0.4, 7)).expect("valid spec");
    let truth = GroundTruth::sample(&table, 4242);

    let mut cells: Vec<Cell> = Vec::new();
    for &tenants in &grid.tenants {
        let mut baseline_ms = 0.0;
        let mut baseline_reports: Vec<UrReport> = Vec::new();
        for &threads in &grid.threads {
            let (mut cell, reports) = run_cell(&table, &truth, &grid, tenants, threads);
            if threads == 1 {
                baseline_ms = cell.elapsed_ms;
                baseline_reports = reports;
            } else {
                // The determinism half of the acceptance bar: sharding
                // must be invisible in every per-tenant report.
                for (t, (a, b)) in baseline_reports.iter().zip(&reports).enumerate() {
                    assert!(
                        a.same_outcome(b),
                        "tenant {t} diverged between 1 and {threads} threads at {tenants} tenants"
                    );
                }
                cell.speedup_vs_1 = baseline_ms / cell.elapsed_ms.max(1e-9);
            }
            eprintln!(
                "# tenants {:>3} threads {:>2}: {:>9.1} ms, {:>5} rounds, {:>6} answers ({} cached), {:>8.0} answers/s, speedup {:>5.2}x",
                cell.tenants,
                cell.threads,
                cell.elapsed_ms,
                cell.rounds,
                cell.answers_served,
                cell.cache_hits,
                cell.answers_per_sec,
                cell.speedup_vs_1,
            );
            cells.push(cell);
        }
    }

    let json = format!(
        "{{\n  \"bench\": \"service_scaling\",\n  \"mode\": \"{}\",\n  \"config\": {{ \"tuples\": {}, \"worlds\": {}, \"budget\": {}, \"cores\": {} }},\n  \"cells\": [\n{}\n  ]\n}}\n",
        if smoke_mode { "smoke" } else { "full" },
        grid.tuples,
        grid.worlds,
        grid.budget,
        cores,
        cells
            .iter()
            .map(|c| format!(
                "    {{ \"tenants\": {}, \"threads\": {}, \"elapsed_ms\": {:.1}, \"rounds\": {}, \"answers_served\": {}, \"cache_hits\": {}, \"answers_per_sec\": {:.0}, \"speedup_vs_1\": {:.3} }}",
                c.tenants,
                c.threads,
                c.elapsed_ms,
                c.rounds,
                c.answers_served,
                c.cache_hits,
                c.answers_per_sec,
                c.speedup_vs_1,
            ))
            .collect::<Vec<_>>()
            .join(",\n")
    );
    std::fs::write(&out, &json).expect("write BENCH_PR4.json");
    eprintln!("# wrote {out}");

    if !smoke_mode {
        // Sharding must never *cost* much, even where it cannot win: on a
        // single core, threads time-slice over one cache and the loop
        // measured ~0.8x; leave noise margin below that, because a real
        // regression (locking, serialization) would land far lower.
        for c in cells.iter().filter(|c| c.threads > 1) {
            assert!(
                c.speedup_vs_1 >= 0.6,
                "sharding overhead too high: {:.2}x at {} tenants / {} threads",
                c.speedup_vs_1,
                c.tenants,
                c.threads
            );
        }
        // PR acceptance: >= 2x round-loop throughput at the largest grid
        // point on 4 threads. Arms only where 4 hardware threads exist.
        if cores >= 4 {
            let top = cells
                .iter()
                .rfind(|c| c.tenants == *grid.tenants.last().unwrap() && c.threads == 4)
                .expect("grid contains the acceptance cell");
            assert!(
                top.speedup_vs_1 >= 2.0,
                "round-loop speedup {:.2}x below the 2x acceptance bar",
                top.speedup_vs_1
            );
        } else {
            eprintln!("# {cores} core(s): the 2x acceptance assertion arms on >= 4 cores");
        }
    }
}

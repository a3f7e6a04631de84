//! The crowd-topk benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <tenant_stream|paper_deep|cold_burst> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs the workload for about `--seconds`, in passes spread over child
//! processes, checks the service's outputs, and prints one JSON object as
//! the last line of standard output: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics of a traced run with `--trace 1`.
//! Exits non-zero when the correctness gate fails. README.md describes
//! the workloads and the metrics.

mod bench;
mod closed_loop;
mod mem;
mod probe;
mod stats;
mod trace;
mod workloads;

use bench::{Metric, Summary};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};
use trace::Tracer;
use workloads::{Inputs, Workload};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Set in child processes: this is process `n` of the run.
    process: Option<u64>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let value = |flag: &str| -> Result<Option<&str>, String> {
        match args.iter().position(|a| a == flag) {
            None => Ok(None),
            Some(i) => args
                .get(i + 1)
                .map(|v| Some(v.as_str()))
                .ok_or_else(|| format!("{flag} needs a value")),
        }
    };
    let number = |flag: &str| -> Result<Option<u64>, String> {
        value(flag)?
            .map(|v| v.parse().map_err(|e| format!("{flag}: {e}")))
            .transpose()
    };
    let required = |flag: &str| number(flag)?.ok_or_else(|| format!("missing {flag}"));
    let workload = value("--workload")?.ok_or("missing --workload")?;
    Ok(Args {
        workload: Workload::parse(workload)
            .ok_or_else(|| format!("unknown workload {workload:?}"))?,
        seed: required("--seed")?,
        seconds: required("--seconds")?,
        trace: match required("--trace")? {
            0 => false,
            1 => true,
            t => return Err(format!("--trace takes 0 or 1, not {t}")),
        },
        process: number("--process")?,
    })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = parse_args(&argv).and_then(|args| match args.process {
        Some(index) => child(&args, index).map(|()| true),
        None => run(&args, &argv),
    });
    match result {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}

/// Child processes every run starts at least: a traced run needs a
/// traced and an untraced process, and the faster half of this many
/// passes still supports every percentile.
const MIN_PROCESSES: usize = 3;

/// Runs passes in child processes until the time is up, then checks and
/// prints the result; returns whether the correctness gate passed.
fn run(args: &Args, argv: &[String]) -> Result<bool, String> {
    let (w, seed) = (args.workload, args.seed);
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    eprintln!("# perfbench {} seed {seed}, {cores} cores", w.name());
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut passes: Vec<Summary> = Vec::new();
    let mut processes = 0;
    while processes < MIN_PROCESSES || Instant::now() < deadline {
        let index = processes.to_string();
        let out = Command::new(&exe)
            .args(argv)
            .args(["--process", &index])
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("cannot start process {index}: {e}"))?;
        if !out.status.success() {
            return Err(format!("process {index} failed: {}", out.status));
        }
        for block in String::from_utf8_lossy(&out.stdout).split_terminator("end\n") {
            let summary = Summary::parse(block)?;
            eprintln!(
                "# process {index} pass {}{}: {:.3} s for {} sessions, peak {} kB",
                passes.len(),
                if summary.traced { " (traced)" } else { "" },
                summary.wall_s,
                summary.completed,
                summary.hwm_kb
            );
            passes.push(summary);
        }
        processes += 1;
    }
    let metrics = if args.trace {
        let mut layers = passes[0].layers.clone();
        layers.push(bench::trace_overhead(&passes));
        layers
    } else {
        bench::end_to_end(&passes.iter().collect::<Vec<_>>())?
    };
    let verdict = bench::gate(w, seed, &passes);
    report(&metrics, &passes, &verdict);
    Ok(verdict.is_ok())
}

/// Measured passes per child process, after its warm-up pass.
const PASSES_PER_PROCESS: usize = 4;

/// One child process: a warm-up pass, then [`PASSES_PER_PROCESS`]
/// measured passes, whose summaries it prints on stdout, each ended by
/// an `end` line.
///
/// The warm-up pass lets the measured passes find a heap that has served
/// the workload once, as a long-running service's would, rather than pay
/// first-touch page faults; a fresh process per few passes keeps heap
/// fragmentation from building up across a run. The memory figures come
/// from the warm-up pass, the first in the process, so they are a pass's
/// own. In a traced run the even processes are traced, and the first
/// pass of the first process also runs the replay probe (for the gate,
/// and for the per-layer metrics).
fn child(args: &Args, index: u64) -> Result<(), String> {
    let (w, seed) = (args.workload, args.seed);
    let traced = args.trace && index.is_multiple_of(2);
    let warm = bench::pass(w, seed, None)?;
    let mut out = String::new();
    for k in 0..PASSES_PER_PROCESS {
        let mut tracer = Tracer::new(Instant::now());
        let mut pass = bench::pass(w, seed, traced.then_some(&mut tracer))?;
        if pass.exact != warm.exact {
            return Err(format!(
                "warm-up and measured pass disagree: {:?} vs {:?}",
                warm.exact, pass.exact
            ));
        }
        pass.rss_after_setup_kb = warm.rss_after_setup_kb;
        pass.hwm_kb = warm.hwm_kb;
        let mut summary = Summary::of(&pass, traced);
        if index == 0 && k == 0 {
            let inputs = Inputs::generate(w, seed);
            let replay = probe::replay(&inputs, &inputs.replayed(), traced.then_some(&mut tracer));
            summary.replay = Some(bench::check_replay(&pass, &replay));
            if traced {
                summary.layers = bench::per_layer(&pass, &tracer, &replay);
                write_trace(w, seed, &tracer);
            }
        }
        out += &summary.to_text();
        out += "end\n";
    }
    print!("{out}");
    Ok(())
}

/// Prints the metrics for people on stderr and as one JSON line on
/// stdout.
fn report(metrics: &[Metric], passes: &[Summary], verdict: &Result<(), String>) {
    let attempted: usize = passes.iter().map(|p| p.exact.sessions).sum();
    let done: usize = passes.iter().map(|p| p.exact.done).sum();
    eprintln!("# {} passes, {attempted} sessions", passes.len());
    for (name, value, unit) in metrics {
        eprintln!("{name:<34} {value:>14.4} {unit}");
    }
    if let Err(e) = verdict {
        eprintln!("# correctness gate FAILED: {e}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {}, \"metrics\": {{{}}}}}",
        verdict.is_ok(),
        attempted - done,
        body.join(", ")
    );
}

/// Writes the traced run's spans under `target/perfbench/`.
fn write_trace(w: Workload, seed: u64, tracer: &Tracer) {
    let dir = std::path::Path::new("target/perfbench");
    let path = dir.join(format!("{}-{seed}.trace.tsv", w.name()));
    let written = std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::File::create(&path))
        .and_then(|f| {
            let mut out = std::io::BufWriter::new(f);
            tracer.write_tsv(&mut out)?;
            std::io::Write::flush(&mut out)
        });
    match written {
        Ok(()) => eprintln!("# spans written to {}", path.display()),
        Err(e) => eprintln!("# could not write {}: {e}", path.display()),
    }
}

//! Minimal, API-compatible shim for the subset of `criterion` this
//! workspace uses. It performs a real (if simple) wall-clock measurement:
//! each benchmark body is warmed up once, then timed over a fixed number
//! of batches, and the median and the minimum batch time are printed. On
//! a shared host the median moves with the neighbours' load; the minimum
//! is the run least disturbed by it.

use std::fmt::Display;
use std::time::{Duration, Instant};

pub mod measurement {
    /// Marker for wall-clock measurement (the only mode supported).
    pub struct WallTime;
}

/// Re-export of `std::hint::black_box` under criterion's name.
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// Identifies a benchmark within a group.
#[derive(Clone, Debug)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    pub fn new(name: impl Into<String>, param: impl Display) -> Self {
        BenchmarkId {
            id: format!("{}/{}", name.into(), param),
        }
    }

    pub fn from_parameter(param: impl Display) -> Self {
        BenchmarkId {
            id: param.to_string(),
        }
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> Self {
        BenchmarkId { id: s.to_string() }
    }
}

impl From<String> for BenchmarkId {
    fn from(s: String) -> Self {
        BenchmarkId { id: s }
    }
}

/// Times closures handed to `Bencher::iter`.
pub struct Bencher {
    samples: Vec<Duration>,
    iters_per_sample: u64,
    sample_count: usize,
}

impl Bencher {
    fn new(sample_count: usize) -> Self {
        Bencher {
            samples: Vec::new(),
            iters_per_sample: 1,
            sample_count,
        }
    }

    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        // Warm-up (also primes caches/allocs).
        black_box(f());
        self.samples.clear();
        for _ in 0..self.sample_count {
            let start = Instant::now();
            for _ in 0..self.iters_per_sample {
                black_box(f());
            }
            self.samples.push(start.elapsed());
        }
    }

    /// Times `routine` on a fresh input from the untimed `setup`; the
    /// routine's output is dropped outside the timed region.
    pub fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R, _size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        black_box(routine(setup()));
        self.samples.clear();
        self.iters_per_sample = 1;
        for _ in 0..self.sample_count {
            let input = setup();
            let start = Instant::now();
            let output = routine(input);
            self.samples.push(start.elapsed());
            drop(black_box(output));
        }
    }

    /// The median and the minimum time per iteration.
    fn median_and_min(&mut self) -> Option<(Duration, Duration)> {
        if self.samples.is_empty() {
            return None;
        }
        self.samples.sort();
        let per_iter = |d: Duration| d / self.iters_per_sample as u32;
        Some((
            per_iter(self.samples[self.samples.len() / 2]),
            per_iter(self.samples[0]),
        ))
    }
}

fn run_one(label: &str, sample_count: usize, f: impl FnOnce(&mut Bencher)) {
    let mut bencher = Bencher::new(sample_count);
    f(&mut bencher);
    match bencher.median_and_min() {
        Some((median, min)) => println!(
            "bench {label:<48} median {median:>12.3?} min {min:>12.3?} ({sample_count} samples)"
        ),
        None => println!("bench {label:<48} (no measurement)"),
    }
}

/// A named collection of related benchmarks.
pub struct BenchmarkGroup<'a, M = measurement::WallTime> {
    name: String,
    sample_count: usize,
    _criterion: &'a mut Criterion,
    _marker: std::marker::PhantomData<M>,
}

impl<M> BenchmarkGroup<'_, M> {
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        // Criterion requires >= 10; we just take a small positive count.
        self.sample_count = n.max(3);
        self
    }

    pub fn warm_up_time(&mut self, _d: Duration) -> &mut Self {
        self
    }

    pub fn measurement_time(&mut self, _d: Duration) -> &mut Self {
        self
    }

    pub fn throughput(&mut self, _t: Throughput) -> &mut Self {
        self
    }

    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, f: F) -> &mut Self
    where
        F: FnOnce(&mut Bencher),
    {
        let id = id.into();
        run_one(&format!("{}/{}", self.name, id.id), self.sample_count, f);
        self
    }

    pub fn bench_with_input<I: ?Sized, F>(&mut self, id: BenchmarkId, input: &I, f: F) -> &mut Self
    where
        F: FnOnce(&mut Bencher, &I),
    {
        run_one(
            &format!("{}/{}", self.name, id.id),
            self.sample_count,
            |b| f(b, input),
        );
        self
    }

    pub fn finish(&mut self) {}
}

/// How many inputs `Bencher::iter_batched` sets up per batch (accepted,
/// ignored: the shim sets up one input per timed call).
pub enum BatchSize {
    SmallInput,
    LargeInput,
    PerIteration,
}

/// Units for `BenchmarkGroup::throughput` (accepted, ignored).
pub enum Throughput {
    Bytes(u64),
    Elements(u64),
}

/// The benchmark harness entry point.
pub struct Criterion {
    default_samples: usize,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion {
            default_samples: 10,
        }
    }
}

impl Criterion {
    pub fn configure_from_args(self) -> Self {
        self
    }

    pub fn benchmark_group(
        &mut self,
        name: impl Into<String>,
    ) -> BenchmarkGroup<'_, measurement::WallTime> {
        BenchmarkGroup {
            name: name.into(),
            sample_count: self.default_samples,
            _criterion: self,
            _marker: std::marker::PhantomData,
        }
    }

    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, f: F) -> &mut Self
    where
        F: FnOnce(&mut Bencher),
    {
        let id = id.into();
        run_one(&id.id, self.default_samples, f);
        self
    }
}

/// Collects benchmark functions into a runnable group function.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default().configure_from_args();
            $( $target(&mut criterion); )+
        }
    };
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $config;
            $( $target(&mut criterion); )+
        }
    };
}

/// Emits `fn main` running each group.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

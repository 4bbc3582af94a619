//! Offline stand-in for the subset of the [criterion] benchmark API this
//! workspace uses.
//!
//! The build environment cannot fetch crates, so this shim re-implements
//! the handful of entry points the `crates/bench` benches call —
//! [`Criterion::bench_function`], [`Criterion::benchmark_group`],
//! [`Bencher::iter`]/[`Bencher::iter_with_setup`], [`BenchmarkId`] and the
//! `criterion_group!`/`criterion_main!` macros — with a simple
//! warmup-then-sample timing loop. Results print as
//! `name  median  mean  (samples)` lines instead of criterion's full
//! statistical report; good enough to compare hot-path costs run-to-run.
//!
//! [criterion]: https://docs.rs/criterion

use std::fmt::Display;
use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Target wall-clock spent measuring one sample.
const SAMPLE_TARGET: Duration = Duration::from_millis(20);

/// One benchmark sample: `iters` iterations took `elapsed`.
#[derive(Debug, Clone, Copy)]
struct Sample {
    iters: u64,
    elapsed: Duration,
}

impl Sample {
    fn ns_per_iter(&self) -> f64 {
        self.elapsed.as_secs_f64() * 1e9 / self.iters.max(1) as f64
    }
}

/// Collects timing samples for one benchmark.
#[derive(Debug, Default)]
pub struct Bencher {
    samples: Vec<Sample>,
    /// Iterations per sample, calibrated on the first sample.
    iters_per_sample: u64,
}

impl Bencher {
    /// Times `routine`, batching iterations so each sample spans roughly
    /// `SAMPLE_TARGET`.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut routine: F) {
        if self.iters_per_sample == 0 {
            // Calibrate: run until the target elapses once.
            let start = Instant::now();
            let mut n = 0u64;
            while start.elapsed() < SAMPLE_TARGET {
                black_box(routine());
                n += 1;
            }
            self.iters_per_sample = n.max(1);
            self.samples.push(Sample {
                iters: n.max(1),
                elapsed: start.elapsed(),
            });
            return;
        }
        let start = Instant::now();
        for _ in 0..self.iters_per_sample {
            black_box(routine());
        }
        self.samples.push(Sample {
            iters: self.iters_per_sample,
            elapsed: start.elapsed(),
        });
    }

    /// Times `routine` over inputs produced by `setup`; only the routine
    /// is measured.
    pub fn iter_with_setup<I, O, S, F>(&mut self, mut setup: S, mut routine: F)
    where
        S: FnMut() -> I,
        F: FnMut(I) -> O,
    {
        // Setup cost is excluded by timing each call individually, so
        // batching is unnecessary (these routines are macro-scale).
        let input = setup();
        let start = Instant::now();
        black_box(routine(input));
        self.samples.push(Sample {
            iters: 1,
            elapsed: start.elapsed(),
        });
    }

    fn summarise(&self, name: &str) {
        if self.samples.is_empty() {
            println!("{name:<44} no samples");
            return;
        }
        let mut per_iter: Vec<f64> = self.samples.iter().map(Sample::ns_per_iter).collect();
        per_iter.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
        let median = per_iter[per_iter.len() / 2];
        let mean = per_iter.iter().sum::<f64>() / per_iter.len() as f64;
        println!(
            "{name:<44} median {}  mean {}  ({} samples)",
            format_ns(median),
            format_ns(mean),
            per_iter.len()
        );
    }
}

fn format_ns(ns: f64) -> String {
    if ns < 1e3 {
        format!("{ns:>8.1} ns")
    } else if ns < 1e6 {
        format!("{:>8.2} µs", ns / 1e3)
    } else if ns < 1e9 {
        format!("{:>8.2} ms", ns / 1e6)
    } else {
        format!("{:>8.3} s ", ns / 1e9)
    }
}

/// Identifies a parameterised benchmark within a group.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// `function_name/parameter` form.
    pub fn new(function_name: impl Into<String>, parameter: impl Display) -> Self {
        Self {
            id: format!("{}/{parameter}", function_name.into()),
        }
    }

    /// Parameter-only form.
    pub fn from_parameter(parameter: impl Display) -> Self {
        Self {
            id: parameter.to_string(),
        }
    }
}

impl Display for BenchmarkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.id)
    }
}

/// Throughput annotation (accepted and ignored by this shim).
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// Elements processed per iteration.
    Elements(u64),
    /// Bytes processed per iteration.
    Bytes(u64),
}

/// The benchmark driver.
#[derive(Debug)]
pub struct Criterion {
    sample_size: usize,
}

impl Default for Criterion {
    fn default() -> Self {
        Self { sample_size: 30 }
    }
}

impl Criterion {
    /// Sets the number of samples per benchmark.
    #[must_use]
    pub fn sample_size(mut self, n: usize) -> Self {
        self.sample_size = n.max(2);
        self
    }

    /// Runs one benchmark.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, name: &str, mut f: F) -> &mut Self {
        let mut b = Bencher::default();
        for _ in 0..self.sample_size {
            f(&mut b);
        }
        b.summarise(name);
        self
    }

    /// Opens a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            c: self,
            name: name.into(),
        }
    }
}

/// A group of related benchmarks sharing a name prefix.
#[derive(Debug)]
pub struct BenchmarkGroup<'a> {
    c: &'a mut Criterion,
    name: String,
}

impl BenchmarkGroup<'_> {
    /// Sets the sample count for subsequent benches in this group.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.c.sample_size = n.max(2);
        self
    }

    /// Accepted for API compatibility; this shim reports ns/iter only.
    pub fn throughput(&mut self, _t: Throughput) -> &mut Self {
        self
    }

    /// Runs one benchmark under the group's name.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: impl Display, f: F) -> &mut Self {
        let full = format!("{}/{id}", self.name);
        self.c.bench_function(&full, f);
        self
    }

    /// Runs one parameterised benchmark.
    pub fn bench_with_input<I, F>(&mut self, id: BenchmarkId, input: &I, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let full = format!("{}/{id}", self.name);
        self.c.bench_function(&full, |b| f(b, input));
        self
    }

    /// Ends the group (printing happens per-bench; nothing to flush).
    pub fn finish(self) {}
}

/// Declares a benchmark group function, mirroring criterion's macro.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $config;
            $( $target(&mut criterion); )+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        $crate::criterion_group!(
            name = $name;
            config = $crate::Criterion::default();
            targets = $($target),+
        );
    };
}

/// Declares the benchmark binary's `main`, mirroring criterion's macro.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_function_collects_and_reports() {
        let mut c = Criterion::default().sample_size(3);
        let mut runs = 0u64;
        c.bench_function("noop", |b| b.iter(|| runs += 1));
        assert!(runs > 0);
    }

    #[test]
    fn group_runs_parameterised_benches() {
        let mut c = Criterion::default().sample_size(2);
        let mut group = c.benchmark_group("g");
        let mut hits = 0u64;
        group.throughput(Throughput::Elements(4));
        group.bench_with_input(BenchmarkId::from_parameter(4), &4u64, |b, &n| {
            b.iter(|| hits += n)
        });
        group.finish();
        assert!(hits >= 8, "two samples of at least one iteration each");
    }

    #[test]
    fn iter_with_setup_excludes_setup() {
        let mut b = Bencher::default();
        b.iter_with_setup(|| vec![1u8; 8], |v| v.len());
        assert_eq!(b.samples.len(), 1);
    }

    #[test]
    fn benchmark_id_formats() {
        assert_eq!(BenchmarkId::from_parameter(32).to_string(), "32");
        assert_eq!(BenchmarkId::new("fit", 8).to_string(), "fit/8");
    }
}

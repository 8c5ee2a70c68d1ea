//! A self-contained, offline stand-in for the
//! [criterion](https://bheisler.github.io/criterion.rs/) bench framework.
//!
//! The build environment has no network access and no registry cache, so the
//! real criterion cannot be fetched; this shim keeps the workspace's
//! `benches/` source-compatible and runnable via `cargo bench`. It is a plain
//! wall-clock runner: per benchmark it warms up, runs timed samples, and
//! prints min/mean/median nanoseconds per iteration — no statistical
//! regression analysis, HTML reports, or CLI filtering.
//!
//! Like criterion, `cargo bench -- --test` runs every routine once
//! without timing it: a smoke test that each bench's set-up and routine
//! still run to completion.

use std::fmt;
use std::time::{Duration, Instant};

/// Re-export of [`std::hint::black_box`] under criterion's name.
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// Top-level bench configuration and entry point.
#[derive(Debug, Clone)]
pub struct Criterion {
    sample_size: usize,
    measurement_time: Duration,
    warm_up_time: Duration,
    test_mode: bool,
}

impl Default for Criterion {
    fn default() -> Criterion {
        Criterion {
            sample_size: 10,
            measurement_time: Duration::from_secs(2),
            warm_up_time: Duration::from_millis(300),
            test_mode: false,
        }
    }
}

impl Criterion {
    /// Number of timed samples per benchmark.
    pub fn sample_size(mut self, n: usize) -> Criterion {
        self.sample_size = n.max(1);
        self
    }

    /// Total time budget for the timed samples.
    pub fn measurement_time(mut self, d: Duration) -> Criterion {
        self.measurement_time = d;
        self
    }

    /// Warm-up budget before sampling starts.
    pub fn warm_up_time(mut self, d: Duration) -> Criterion {
        self.warm_up_time = d;
        self
    }

    /// Applies the command-line arguments: `--test` runs each routine once
    /// and skips timing; every other argument is ignored.
    pub fn configure_from_args(mut self) -> Criterion {
        self.test_mode = std::env::args().skip(1).any(|arg| arg == "--test");
        self
    }

    /// Opens a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            config: self,
            name: name.into(),
        }
    }
}

/// Identifies one benchmark within a group.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    label: String,
}

impl BenchmarkId {
    /// A `function_name/parameter` id.
    pub fn new(function_name: impl Into<String>, parameter: impl fmt::Display) -> BenchmarkId {
        BenchmarkId {
            label: format!("{}/{}", function_name.into(), parameter),
        }
    }

    /// An id that is just the parameter.
    pub fn from_parameter(parameter: impl fmt::Display) -> BenchmarkId {
        BenchmarkId {
            label: parameter.to_string(),
        }
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> BenchmarkId {
        BenchmarkId {
            label: s.to_string(),
        }
    }
}

impl From<String> for BenchmarkId {
    fn from(s: String) -> BenchmarkId {
        BenchmarkId { label: s }
    }
}

/// A named collection of benchmarks sharing one [`Criterion`] config.
pub struct BenchmarkGroup<'a> {
    config: &'a Criterion,
    name: String,
}

impl BenchmarkGroup<'_> {
    /// Runs a benchmark closure.
    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        self.run(id.into(), &mut f);
        self
    }

    /// Runs a benchmark closure with an input reference.
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: impl Into<BenchmarkId>,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        self.run(id.into(), &mut |b: &mut Bencher| f(b, input));
        self
    }

    /// Ends the group (prints nothing extra; provided for API parity).
    pub fn finish(self) {}

    fn run(&mut self, id: BenchmarkId, f: &mut dyn FnMut(&mut Bencher)) {
        let mut bencher = Bencher {
            config: self.config.clone(),
            samples: Vec::new(),
        };
        f(&mut bencher);
        bencher.report(&self.name, &id.label);
    }
}

/// Passed to bench closures; [`Bencher::iter`] does the timing.
pub struct Bencher {
    config: Criterion,
    samples: Vec<f64>,
}

impl Bencher {
    /// Times the routine: warm-up, then `sample_size` timed samples within
    /// the measurement budget. Iteration counts per sample auto-scale so
    /// sub-microsecond routines still get stable numbers. In test mode the
    /// routine runs once, untimed.
    pub fn iter<O>(&mut self, mut routine: impl FnMut() -> O) {
        self.samples.clear();
        if self.config.test_mode {
            black_box(routine());
            return;
        }
        // Warm-up, and calibrate iterations per sample from it.
        let warm_start = Instant::now();
        let mut warm_iters = 0u64;
        while warm_start.elapsed() < self.config.warm_up_time || warm_iters == 0 {
            black_box(routine());
            warm_iters += 1;
        }
        let per_iter = warm_start.elapsed().as_secs_f64() / warm_iters as f64;
        let budget = self.config.measurement_time.as_secs_f64() / self.config.sample_size as f64;
        let iters_per_sample = ((budget / per_iter.max(1e-9)) as u64).clamp(1, 1 << 24);

        for _ in 0..self.config.sample_size {
            let start = Instant::now();
            for _ in 0..iters_per_sample {
                black_box(routine());
            }
            let nanos = start.elapsed().as_secs_f64() * 1e9 / iters_per_sample as f64;
            self.samples.push(nanos);
        }
    }

    fn report(&self, group: &str, label: &str) {
        if self.config.test_mode {
            println!("{group}/{label}: ok (test mode, ran once)");
            return;
        }
        if self.samples.is_empty() {
            println!("{group}/{label}: no samples (bencher closure never called iter)");
            return;
        }
        let mut sorted = self.samples.clone();
        sorted.sort_by(|a, b| a.total_cmp(b));
        let min = sorted[0];
        let median = sorted[sorted.len() / 2];
        let mean = sorted.iter().sum::<f64>() / sorted.len() as f64;
        println!(
            "{group}/{label}: min {} | mean {} | median {} ({} samples)",
            fmt_nanos(min),
            fmt_nanos(mean),
            fmt_nanos(median),
            sorted.len()
        );
    }
}

fn fmt_nanos(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.1} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} µs", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2} ms", ns / 1_000_000.0)
    } else {
        format!("{:.3} s", ns / 1_000_000_000.0)
    }
}

/// Declares a bench group function, mirroring criterion's macro forms.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion: $crate::Criterion = $config.configure_from_args();
            $($target(&mut criterion);)+
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

/// Declares the bench binary's `main`, running each group.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            // cargo bench passes harness flags (e.g. --bench); each group
            // reads only --test, through `Criterion::configure_from_args`.
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bencher_collects_samples() {
        let mut c = Criterion::default()
            .sample_size(3)
            .measurement_time(Duration::from_millis(30))
            .warm_up_time(Duration::from_millis(5));
        let mut group = c.benchmark_group("shim");
        let mut calls = 0u64;
        group.bench_function(BenchmarkId::from_parameter("counting"), |b| {
            b.iter(|| {
                calls += 1;
                black_box(calls)
            })
        });
        group.finish();
        assert!(calls > 0);
    }

    #[test]
    fn test_mode_runs_the_routine_once_untimed() {
        let mut c = Criterion {
            test_mode: true,
            ..Criterion::default()
        };
        let mut group = c.benchmark_group("shim");
        let mut calls = 0u64;
        group.bench_function("once", |b| {
            b.iter(|| {
                calls += 1;
                black_box(calls)
            })
        });
        group.finish();
        assert_eq!(calls, 1);
    }

    #[test]
    fn ids_format() {
        assert_eq!(BenchmarkId::new("f", 32).label, "f/32");
        assert_eq!(BenchmarkId::from_parameter("x").label, "x");
    }
}

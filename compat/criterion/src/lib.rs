//! Workspace-local stand-in for [`criterion`](https://crates.io/crates/criterion).
//!
//! Provides the API surface the `mlcomp-bench` benches use — `Criterion`,
//! `benchmark_group`/`bench_function`, `Bencher::iter`, [`black_box`] and
//! the [`criterion_group!`]/[`criterion_main!`] macros — backed by a
//! simple adaptive wall-clock timer instead of criterion's statistical
//! machinery: each benchmark warms up briefly, then scales its iteration
//! count to a target measurement window and reports mean time per
//! iteration.

use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Top-level benchmark driver.
#[derive(Debug, Default)]
pub struct Criterion {
    _private: (),
}

impl Criterion {
    /// Starts a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl std::fmt::Display) -> BenchmarkGroup<'_> {
        println!("\n== {name}");
        BenchmarkGroup { _parent: self }
    }

    /// Runs a standalone benchmark.
    pub fn bench_function<F>(&mut self, id: impl std::fmt::Display, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        run_benchmark(&id.to_string(), f);
        self
    }
}

/// A group of benchmarks sharing a heading.
#[derive(Debug)]
pub struct BenchmarkGroup<'a> {
    _parent: &'a mut Criterion,
}

impl BenchmarkGroup<'_> {
    /// Runs one benchmark in the group.
    pub fn bench_function<F>(&mut self, id: impl std::fmt::Display, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        run_benchmark(&id.to_string(), f);
        self
    }

    /// Ends the group (printing is immediate, so this is a no-op).
    pub fn finish(self) {}
}

/// Passed to the benchmark closure; [`Bencher::iter`] times the routine.
#[derive(Debug)]
pub struct Bencher {
    /// Iterations to run this round.
    iters: u64,
    /// Measured duration of the round.
    elapsed: Duration,
}

impl Bencher {
    /// Times `routine`, running it `iters` times.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        let start = Instant::now();
        for _ in 0..self.iters {
            black_box(routine());
        }
        self.elapsed = start.elapsed();
    }
}

fn run_benchmark<F: FnMut(&mut Bencher)>(id: &str, mut f: F) {
    // Warm-up + calibration round.
    let mut b = Bencher {
        iters: 1,
        elapsed: Duration::ZERO,
    };
    f(&mut b);
    let per_iter = b.elapsed.max(Duration::from_nanos(1));
    // Aim for a ~200 ms measurement window, capped to keep suites quick.
    let target = Duration::from_millis(200);
    let iters = (target.as_nanos() / per_iter.as_nanos()).clamp(1, 100_000) as u64;
    let mut b = Bencher {
        iters,
        elapsed: Duration::ZERO,
    };
    f(&mut b);
    let mean_ns = b.elapsed.as_nanos() as f64 / b.iters as f64;
    println!(
        "{id:<48} {:>14}/iter   ({} iters)",
        fmt_ns(mean_ns),
        b.iters
    );
}

fn fmt_ns(ns: f64) -> String {
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

/// Declares a benchmark group function, mirroring criterion's macro.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Declares the benchmark `main`, mirroring criterion's macro.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

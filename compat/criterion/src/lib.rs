//! Workspace-local stand-in for [`criterion`](https://crates.io/crates/criterion).
//!
//! Provides the API surface the `mlcomp-bench` benches use — `Criterion`,
//! `benchmark_group`/`bench_function`, `BenchmarkGroup::throughput` with
//! [`Throughput::Elements`], `Bencher::iter`, [`black_box`] and
//! the [`criterion_group!`]/[`criterion_main!`] macros — backed by a
//! simple adaptive wall-clock timer instead of criterion's statistical
//! machinery: each benchmark warms up briefly, scales its iteration count
//! to a 40 ms measurement window, times five such windows, and reports the
//! median time per iteration with the quartiles of the five, so that a
//! reader can tell a difference between two runs from their spread.

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
        BenchmarkGroup {
            _parent: self,
            throughput: None,
        }
    }

    /// Runs a standalone benchmark.
    pub fn bench_function<F>(&mut self, id: impl std::fmt::Display, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        run_benchmark(&id.to_string(), None, f);
        self
    }
}

/// How much work one iteration does, for a per-element reading.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Throughput {
    /// One iteration processes this many elements.
    Elements(u64),
}

/// A group of benchmarks sharing a heading.
#[derive(Debug)]
pub struct BenchmarkGroup<'a> {
    _parent: &'a mut Criterion,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    /// Sets the work per iteration of the benchmarks that follow in this
    /// group; each then also reports its median time per element.
    pub fn throughput(&mut self, throughput: Throughput) -> &mut Self {
        self.throughput = Some(throughput);
        self
    }

    /// Runs one benchmark in the group.
    pub fn bench_function<F>(&mut self, id: impl std::fmt::Display, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        run_benchmark(&id.to_string(), self.throughput, f);
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

/// Measurement windows per benchmark.
const WINDOWS: usize = 5;

fn run_benchmark<F: FnMut(&mut Bencher)>(id: &str, throughput: Option<Throughput>, mut f: F) {
    // Warm-up + calibration round.
    let mut b = Bencher {
        iters: 1,
        elapsed: Duration::ZERO,
    };
    f(&mut b);
    let per_iter = b.elapsed.max(Duration::from_nanos(1));
    // Five ~40 ms windows: about the 200 ms one window took before.
    let target = Duration::from_millis(40);
    let iters = (target.as_nanos() / per_iter.as_nanos()).clamp(1, 20_000) as u64;
    let mut per_iter_ns: Vec<f64> = (0..WINDOWS)
        .map(|_| {
            let mut b = Bencher {
                iters,
                elapsed: Duration::ZERO,
            };
            f(&mut b);
            b.elapsed.as_nanos() as f64 / b.iters as f64
        })
        .collect();
    per_iter_ns.sort_by(f64::total_cmp);
    let [q1, median, q3] = [0.25, 0.5, 0.75].map(|q| quantile(&per_iter_ns, q));
    let per_element = match throughput {
        Some(Throughput::Elements(n)) if n > 0 => format!("   {}/elem", fmt_ns(median / n as f64)),
        _ => String::new(),
    };
    println!(
        "{id:<48} {:>11}/iter   [{} … {}]   ({WINDOWS} × {iters} iters){per_element}",
        fmt_ns(median),
        fmt_ns(q1),
        fmt_ns(q3),
    );
}

/// The `q` quantile of ascending `sorted`, interpolating between ranks.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    let rank = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
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

#[cfg(test)]
mod tests {
    use super::quantile;

    #[test]
    fn quartiles_of_five_windows_are_ranks_two_and_four() {
        let sorted = [1.0, 2.0, 3.0, 4.0, 10.0];
        assert_eq!(
            [0.25, 0.5, 0.75].map(|q| quantile(&sorted, q)),
            [2.0, 3.0, 4.0]
        );
        assert_eq!(quantile(&[1.0, 2.0], 0.5), 1.5);
    }
}

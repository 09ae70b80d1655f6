//! Offline stand-in for the [`criterion`](https://crates.io/crates/criterion)
//! benchmark harness, implementing the API subset this workspace uses:
//! `Criterion::benchmark_group`, `bench_function`, `bench_with_input`,
//! `BenchmarkId`, `sample_size`, and the `criterion_group!` /
//! `criterion_main!` macros.
//!
//! Measurement model: per benchmark, one warm-up call, then `sample_size`
//! timed samples (each sized to take roughly `target_time / sample_size`),
//! reporting min / median / mean per-iteration time on stdout.

use std::fmt::Display;
use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Whether the bench binary was invoked with `--quick` (smoke mode):
/// sample counts are capped and the measurement budget shrunk so a full
/// bench target finishes in CI-friendly time. Benchmarks can also consult
/// this to trim their own workloads.
pub fn is_quick() -> bool {
    std::env::args().any(|a| a == "--quick")
}

/// Sample-count cap applied in `--quick` mode.
const QUICK_SAMPLES: usize = 3;

/// Identifies one parameterized benchmark: `BenchmarkId::new("fit", n)`.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    name: String,
}

impl BenchmarkId {
    /// Creates an id from a function name and a parameter value.
    pub fn new(function_name: impl Into<String>, parameter: impl Display) -> Self {
        BenchmarkId {
            name: format!("{}/{}", function_name.into(), parameter),
        }
    }
}

impl Display for BenchmarkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.name)
    }
}

/// Per-benchmark timing driver handed to the measured closure.
pub struct Bencher {
    samples: Vec<Duration>,
    iters_per_sample: u64,
    sample_count: usize,
    target_time: Duration,
}

impl Bencher {
    /// Times `routine`, running it enough times for stable statistics.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        // Warm-up and calibration: size a sample so the whole measurement
        // lands near the target time.
        let start = Instant::now();
        black_box(routine());
        let once = start.elapsed().max(Duration::from_nanos(1));
        let per_sample = self.target_time.as_nanos() / self.sample_count.max(1) as u128;
        self.iters_per_sample = ((per_sample / once.as_nanos().max(1)) as u64).clamp(1, 1_000_000);

        self.samples.clear();
        for _ in 0..self.sample_count {
            let start = Instant::now();
            for _ in 0..self.iters_per_sample {
                black_box(routine());
            }
            self.samples
                .push(start.elapsed() / self.iters_per_sample as u32);
        }
    }

    fn report(&self, label: &str) {
        if self.samples.is_empty() {
            println!("{label:<50} (no samples)");
            return;
        }
        let mut sorted = self.samples.clone();
        sorted.sort();
        let median = sorted[sorted.len() / 2];
        let min = sorted[0];
        let mean = sorted.iter().sum::<Duration>() / sorted.len() as u32;
        println!(
            "{label:<50} min {:>12}  median {:>12}  mean {:>12}  ({} samples x {} iters)",
            fmt_duration(min),
            fmt_duration(median),
            fmt_duration(mean),
            sorted.len(),
            self.iters_per_sample,
        );
    }
}

fn fmt_duration(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 1_000 {
        format!("{ns} ns")
    } else if ns < 1_000_000 {
        format!("{:.2} µs", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else {
        format!("{:.3} s", ns as f64 / 1e9)
    }
}

/// A named group of related benchmarks.
pub struct BenchmarkGroup<'c> {
    name: String,
    sample_count: usize,
    target_time: Duration,
    _criterion: &'c mut Criterion,
}

impl BenchmarkGroup<'_> {
    /// Sets the number of timed samples per benchmark (capped in
    /// [`is_quick`] mode).
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_count = n.max(2);
        if is_quick() {
            self.sample_count = self.sample_count.min(QUICK_SAMPLES);
        }
        self
    }

    /// Runs one benchmark.
    pub fn bench_function<F: FnMut(&mut Bencher)>(
        &mut self,
        id: impl Display,
        mut f: F,
    ) -> &mut Self {
        let mut b = Bencher {
            samples: Vec::new(),
            iters_per_sample: 1,
            sample_count: self.sample_count,
            target_time: self.target_time,
        };
        f(&mut b);
        b.report(&format!("{}/{}", self.name, id));
        self
    }

    /// Runs one benchmark parameterized by `input`.
    pub fn bench_with_input<I: ?Sized, F: FnMut(&mut Bencher, &I)>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self {
        self.bench_function(id, |b| f(b, input))
    }

    /// Ends the group (formatting no-op, mirrors the real API).
    pub fn finish(&mut self) {}
}

/// Entry point mirroring `criterion::Criterion`.
#[derive(Debug, Clone)]
pub struct Criterion {
    sample_count: usize,
    target_time: Duration,
}

impl Default for Criterion {
    fn default() -> Self {
        let quick = is_quick();
        Criterion {
            sample_count: if quick { QUICK_SAMPLES } else { 20 },
            target_time: Duration::from_millis(if quick { 100 } else { 500 }),
        }
    }
}

impl Criterion {
    /// Opens a named benchmark group.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        let name = name.into();
        println!("\n-- group: {name} --");
        BenchmarkGroup {
            name,
            sample_count: self.sample_count,
            target_time: self.target_time,
            _criterion: self,
        }
    }
}

/// Declares a benchmark group: `criterion_group!(name, fn...)`.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Declares the benchmark `main` running the listed groups.
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
    use super::*;

    fn sample_bench(c: &mut Criterion) {
        let mut group = c.benchmark_group("shim");
        group.sample_size(3);
        group.bench_function("noop", |b| b.iter(|| black_box(1 + 1)));
        group.bench_with_input(BenchmarkId::new("sum", 10), &10u64, |b, &n| {
            b.iter(|| (0..n).sum::<u64>())
        });
        group.finish();
    }

    criterion_group!(benches, sample_bench);

    #[test]
    fn harness_runs() {
        benches();
    }

    #[test]
    fn ids_render() {
        assert_eq!(BenchmarkId::new("fit", 3).to_string(), "fit/3");
    }
}

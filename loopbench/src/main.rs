//! `loopbench --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--setup-only]`
//!
//! Runs one workload: a warm-up iteration (part of set-up), then closed
//! iterations for `--seconds`. With `--trace 0` it reports the end-to-end
//! metrics — each timing is per iteration (wall time; the p50 and p80 of
//! its decision rounds), and the run reports the fastest iteration's.
//! With `--trace 1` it alternates traced and untraced iterations and
//! reports the per-layer metrics (medians over traced iterations) and
//! the tracing overhead. `--setup-only` stops after the warm-up. The last line of
//! standard output is the JSON result; exit status 2 means bad arguments.

use eqimpact_core::pool::ThreadBudget;
use eqimpact_loopbench::stats::{median, quantile};
use eqimpact_loopbench::workloads::{
    Checks, Iteration, Layers, Workload, EXACT, PER_LAYER, PHASES,
};
use std::process::ExitCode;
use std::time::Instant;

const USAGE: &str = "usage: loopbench --workload <credit-paper|credit-100k|audit-pipeline> \
                     [--seed N] [--seconds S] [--trace 0|1] [--setup-only]";

/// Fewest measured iterations per run, whatever `--seconds` says.
const MIN_ITERATIONS: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    setup_only: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut setup_only = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--setup-only" {
            setup_only = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed `{value}`"))?),
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0)
                    .ok_or_else(|| format!("bad seconds `{value}`"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed: seed.unwrap_or(workload.default_seed()),
        seconds,
        trace,
        setup_only,
    })
}

/// Peak resident set of this process, MiB (`VmHWM` in `/proc/self/status`).
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The fastest of a run's per-iteration timings. Interference from other
/// tenants of a shared host only ever adds time, and it comes and goes
/// over seconds, so the fastest iteration is the steadiest estimate of the
/// program's own cost (run-to-run spread measured on a 2-vCPU KVM guest:
/// 6-9% for the fastest iteration against 8-24% for the median).
fn fastest(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::INFINITY, f64::min)
}

/// The fastest iteration's wall time, assembled stage by stage for a
/// workload whose iteration is a chain of stages: the sum over stages of
/// each stage's fastest time, so noise in one stage of an iteration does
/// not discard the others.
fn fastest_stages(stages: &[Vec<f64>]) -> f64 {
    let width = stages.first().map_or(0, Vec::len);
    (0..width)
        .map(|j| {
            fastest(
                &stages
                    .iter()
                    .filter_map(|s| s.get(j).copied())
                    .collect::<Vec<_>>(),
            )
        })
        .sum()
}

/// A finite number for the JSON result (NaN and infinities become 0).
fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

/// Accumulates one iteration's checks, including that its digest equals
/// the reference (the warm-up iteration's).
fn absorb(checks: &mut Checks, it: &mut Iteration, reference: u64, what: &str) {
    checks.merge(std::mem::take(&mut it.checks));
    checks.check(
        it.digest == reference,
        format!(
            "{what} digest {:016x} differs from the first iteration's {reference:016x}",
            it.digest
        ),
    );
}

fn main() -> ExitCode {
    let start = Instant::now();
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("loopbench: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let lanes = ThreadBudget::global().capacity();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let (workload, seed) = (args.workload, args.seed);

    let mut warm = workload.iteration(seed, false);
    if args.setup_only {
        println!("setup_s {:?}", start.elapsed().as_secs_f64());
        println!("peak_rss_mb {:?}", finite(peak_rss_mb().unwrap_or(0.0)));
        return ExitCode::SUCCESS;
    }
    let reference = warm.digest;
    let mut checks = std::mem::take(&mut warm.checks);
    checks.merge(workload.run_checks(seed, &warm));

    let mut walls = Vec::new();
    let mut stages: Vec<Vec<f64>> = Vec::new();
    let mut traced_walls = Vec::new();
    let mut step_p50 = Vec::new();
    let mut step_p80 = Vec::new();
    let mut rounds = 0;
    let mut traced: Vec<Layers> = Vec::new();
    let clock = Instant::now();
    while walls.len() < MIN_ITERATIONS || clock.elapsed().as_secs_f64() < args.seconds {
        if args.trace {
            let mut it = workload.iteration(seed, true);
            absorb(&mut checks, &mut it, reference, "traced");
            traced_walls.push(it.wall_s);
            if let Some(layers) = it.layers.take() {
                if let Some(first) = traced.first() {
                    for key in EXACT {
                        checks.check(
                            first.get(key) == layers.get(key),
                            format!("count {key} changed between traced iterations"),
                        );
                    }
                }
                traced.push(layers);
            }
        }
        let mut it = workload.iteration(seed, false);
        absorb(&mut checks, &mut it, reference, "untraced");
        walls.push(it.wall_s);
        stages.push(if it.stages_s.is_empty() {
            vec![it.wall_s]
        } else {
            std::mem::take(&mut it.stages_s)
        });
        step_p50.push(quantile(&it.step_ms, 0.5));
        step_p80.push(quantile(&it.step_ms, 0.8));
        rounds += it.step_ms.len();
    }

    let rss = peak_rss_mb();
    if !args.trace {
        checks.check(rss.is_some(), "peak RSS unreadable from /proc/self/status");
    }
    let failed = checks.failures.len() as u64;
    let attempted = checks.attempted.max(1);
    let failed_ratio = failed as f64 / attempted as f64;
    let wall_s = fastest_stages(&stages);
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    println!(
        "run: workload={} seed={seed} trace={} nproc={nproc} lanes={lanes} profile={profile} \
         iterations={} digest={reference:016x}",
        workload.name(),
        u8::from(args.trace),
        walls.len(),
    );
    let list: Vec<String> = walls.iter().map(|w| format!("{w:.4}")).collect();
    println!("iteration walls (s): {}", list.join(" "));
    for failure in &checks.failures {
        println!("FAILED: {failure}");
    }
    println!("checks: {attempted} attempted, {failed} failed (failed_ratio {failed_ratio})");

    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    if args.trace {
        let traced_wall = median(&traced_walls);
        let overhead = traced_wall / median(&walls) - 1.0;
        for &(name, unit, _) in PER_LAYER {
            let value = match name {
                "bench.traced_wall_s" => traced_wall,
                "bench.tracing_overhead" => overhead,
                "failed_ratio" => failed_ratio,
                _ => {
                    let values: Vec<f64> = traced
                        .iter()
                        .filter_map(|layers| layers.get(name).copied())
                        .collect();
                    median(&values)
                }
            };
            metrics.push((name, finite(value), unit));
        }
        println!("phase shares of loop time ({}):", workload.name());
        let value = |name: &str| metrics.iter().find(|m| m.0 == name).map_or(0.0, |m| m.1);
        for phase in PHASES {
            println!(
                "  {phase:<8} {:>7.4}",
                value(&format!("core.{phase}.share"))
            );
        }
        println!(
            "  tracing overhead {:+.2}% of untraced wall time",
            overhead * 100.0
        );
    } else {
        metrics.push(("wall_s", wall_s, "s"));
        metrics.push(("peak_rss_mb", finite(rss.unwrap_or(0.0)), "MB"));
        metrics.push(("step_p50_ms", finite(fastest(&step_p50)), "ms"));
        metrics.push(("step_p80_ms", finite(fastest(&step_p80)), "ms"));
        println!(
            "samples: {} iterations, {rounds} decision rounds; median iteration {:.6} s",
            walls.len(),
            median(&walls)
        );
    }
    for (name, value, unit) in &metrics {
        println!("{name:<28} {value:>16.6} {unit}");
    }
    let fields: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.failures.is_empty(),
        checks.attempted.max(1),
        checks.failures.len(),
        fields.join(", ")
    );
    ExitCode::SUCCESS
}

//! The repository benchmark's measuring process.
//!
//! `run.py` builds this binary twice (plain, and with the `traced`
//! feature) and runs it from the repository root:
//!
//! ```text
//! perfbench --workload W --seed N --seconds S --mode e2e|trace [--scratch DIR] [--spans FILE]
//! ```
//!
//! `--mode e2e` runs the workload untraced for `S` seconds and reports the
//! end-to-end numbers. `--mode trace` (traced build only) runs the same
//! loop with spans and the pipeline phase probes on, then probes each
//! layer on the workload's own inputs. Either mode checks every output it
//! produces and prints one JSON line: the build, the checks attempted and
//! failed, and the metrics with their units.

mod layers;
mod spans;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use smt_stats::json::Json;

use spans::Tracer;
use workloads::Workload;

/// One reported number.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// A deterministic model count: repeats bit for bit for a given seed.
    pub exact: bool,
}

/// A host-time or other measured metric.
pub fn measured(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
        exact: false,
    }
}

/// A deterministic count that must repeat exactly across runs.
pub fn exact(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
        exact: true,
    }
}

/// Output checks and operations: every check or operation attempted, and
/// a message for each that failed.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failures: Vec<String>,
}

impl Tally {
    /// Records one check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }
}

/// The median of `xs` (which it sorts).
pub fn median(xs: &mut [f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// The highest sample with at least ten samples above it (the largest one
/// when there are fewer than eleven samples), for a tail that is measured
/// rather than extrapolated.
pub fn tail(xs: &mut [f64]) -> f64 {
    assert!(!xs.is_empty(), "tail of no samples");
    xs.sort_by(f64::total_cmp);
    let i = if xs.len() > 10 {
        xs.len() - 11
    } else {
        xs.len() - 1
    };
    xs[i]
}

/// This process's peak resident memory so far, in MB (`getrusage`).
#[cfg(target_os = "linux")]
pub fn peak_rss_mb() -> f64 {
    // `struct rusage` on 64-bit Linux: two `timeval`s, then fourteen
    // longs of which `ru_maxrss` (KiB) is the first.
    extern "C" {
        fn getrusage(who: i32, usage: *mut [i64; 18]) -> i32;
    }
    const RUSAGE_SELF: i32 = 0;
    let mut usage = [0i64; 18];
    // SAFETY: `usage` is as large as `struct rusage` and getrusage only
    // writes into it.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
    usage[4] as f64 / 1024.0
}

#[derive(PartialEq, Eq)]
enum Mode {
    E2e,
    Trace,
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    mode: Mode,
    scratch: PathBuf,
    spans: Option<PathBuf>,
}

const USAGE: &str = "usage: perfbench --workload sim-standard|sim-riscv3|sweep-issue \
                     --seed N --seconds S --mode e2e|trace [--scratch DIR] [--spans FILE]";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut mode = None;
    let mut scratch = PathBuf::from(".bench_build/perfbench-scratch");
    let mut spans = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload =
                    Some(Workload::parse(&v).ok_or_else(|| format!("unknown workload '{v}'"))?);
            }
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--mode" => {
                mode = Some(match value()?.as_str() {
                    "e2e" => Mode::E2e,
                    "trace" => Mode::Trace,
                    other => return Err(format!("unknown mode '{other}'")),
                })
            }
            "--scratch" => scratch = PathBuf::from(value()?),
            "--spans" => spans = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        mode: mode.ok_or("--mode is required")?,
        scratch,
        spans,
    })
}

const BUILD: &str = if cfg!(feature = "traced") {
    "traced"
} else {
    "plain"
};

/// What one process measured: its metrics, its checks, and the
/// workload's primary end-to-end rate (the base of the tracing overhead).
struct Outcome {
    metrics: Vec<Metric>,
    tally: Tally,
    primary: f64,
}

fn run(args: &Args) -> Result<Outcome, String> {
    if args.mode == Mode::Trace && !cfg!(feature = "traced") {
        return Err("--mode trace needs the traced build (cargo feature `traced`)".into());
    }
    std::fs::create_dir_all(&args.scratch)
        .map_err(|e| format!("cannot create {}: {e}", args.scratch.display()))?;
    let tracer = Tracer::new(args.mode == Mode::Trace);
    let mut tally = Tally::default();
    let budget = Duration::from_secs_f64(args.seconds);

    let phases_before = layers::phase_ns();
    let e2e = workloads::run(
        args.workload,
        args.seed,
        budget,
        &tracer,
        &args.scratch,
        &mut tally,
    )?;
    let phases_after = layers::phase_ns();
    let mut metrics = e2e.metrics;
    if args.mode == Mode::E2e {
        return Ok(Outcome {
            metrics,
            tally,
            primary: e2e.primary,
        });
    }

    metrics.extend(layers::phase_shares(phases_before, phases_after));
    metrics.extend(layers::model_counts(&e2e.reports));
    metrics.extend(layers::workload_probe(args.seed, &tracer)?);
    metrics.extend(layers::replay_probe(args.workload, args.seed, &tracer)?);
    metrics.extend(layers::exp_probe(
        args.workload,
        args.seed,
        &tracer,
        &args.scratch,
        &mut tally,
    )?);
    for (layer, ns) in tracer.self_ns_by_layer() {
        metrics.push(measured(
            format!("trace.{}.self_ms", layer.name()),
            ns as f64 / 1e6,
            "ms",
        ));
    }
    if let Some(path) = &args.spans {
        tracer
            .write(path)
            .map_err(|e| format!("cannot write spans to {}: {e}", path.display()))?;
    }
    Ok(Outcome {
        metrics,
        tally,
        primary: e2e.primary,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Outcome {
        metrics,
        tally,
        primary,
    } = match run(&args) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    for f in &tally.failures {
        eprintln!("perfbench: check failed: {f}");
    }
    let doc = Json::object([
        ("build", Json::from(BUILD)),
        ("workload", Json::from(args.workload.name())),
        ("seed", Json::from(args.seed)),
        ("attempted", Json::from(tally.attempted)),
        ("failed", Json::from(tally.failures.len())),
        ("primary", Json::from(primary)),
        (
            "cpus",
            Json::from(std::thread::available_parallelism().map_or(0, usize::from)),
        ),
        (
            "metrics",
            Json::array(metrics.iter().map(|m| {
                Json::object([
                    ("name", Json::from(m.name.as_str())),
                    ("value", Json::from(m.value)),
                    ("unit", Json::from(m.unit)),
                    ("exact", Json::from(m.exact)),
                ])
            })),
        ),
    ]);
    println!("{}", doc.render());
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_tail() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
        let mut few: Vec<f64> = (0..5).map(f64::from).collect();
        assert_eq!(tail(&mut few), 4.0);
        let mut many: Vec<f64> = (0..40).map(f64::from).collect();
        // 29 has exactly ten samples (30..=39) above it.
        assert_eq!(tail(&mut many), 29.0);
    }
}

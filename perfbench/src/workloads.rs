//! The three workloads and their untraced end-to-end loops.
//!
//! * `sim-standard` — one ICOUNT.2.8 / OLDEST_FIRST simulator on the
//!   paper's 8-thread standard mix (synthetic backend): the headline
//!   machine, where the pipeline and the memory hierarchy do the work.
//! * `sim-riscv3` — the same machine on the three checked-in rv64i ELFs:
//!   functional execution and branch prediction do the work, the memory
//!   hierarchy idles (a memory-side change should not move it).
//! * `sweep-issue` — a 32-cell `run_study` issue-policy sweep with a
//!   durable journal, then a resume pass over the filled journal: the only
//!   workload where warmup sharing, checkpoints, the journal and the
//!   work-stealing scheduler are on the critical path.

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use smt_core::{FetchPartition, SimConfig, SimReport, Simulator, WorkloadSpec};
use smt_experiments::journal::Journal;
use smt_experiments::study::{resolve_mix, run_study, StudyConfig};
use smt_workload::{standard_mix, Program, RiscvImage};

use crate::spans::{Layer, Tracer};
use crate::{measured, median, peak_rss_mb, Metric, Tally};

/// Warmup cycles before every measured window (the `smt_exp` study
/// default).
pub const WARMUP: u64 = 10_000;
/// Measured cycles per `sim-*` repeat: about a tenth of a second, short
/// enough that many repeats land in stretches where nothing else holds
/// the host's cores.
pub const SIM_CYCLES: u64 = 50_000;
/// Seeds every run covers, derived from the benchmark seed: one seed's
/// IPC moves a run's rates by tens of percent, sixteen seeds' far less.
pub const SEEDS: u64 = 16;
/// Measured cycles per sweep cell (the `smt_exp` study default).
pub const SWEEP_CYCLES: u64 = 20_000;
/// Sweep workers: the host's two vCPUs.
pub const JOBS: usize = 2;
/// The paper's 2.8 fetch partition.
pub fn partition() -> FetchPartition {
    FetchPartition::new(2, 8)
}

/// The checked-in rv64i test programs, relative to the repository root.
pub const ELFS: [&str; 3] = [
    "testdata/riscv/loops.elf",
    "testdata/riscv/memsum.elf",
    "testdata/riscv/gcd.elf",
];

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SimStandard,
    SimRiscv3,
    SweepIssue,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "sim-standard" => Some(Workload::SimStandard),
            "sim-riscv3" => Some(Workload::SimRiscv3),
            "sweep-issue" => Some(Workload::SweepIssue),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::SimStandard => "sim-standard",
            Workload::SimRiscv3 => "sim-riscv3",
            Workload::SweepIssue => "sweep-issue",
        }
    }

    /// The workload's mixes, as `smt_experiments::study::resolve_mix`
    /// strings.
    pub fn mixes(self, seed: u64) -> Vec<String> {
        match self {
            Workload::SimStandard => vec!["standard".into()],
            Workload::SimRiscv3 => vec![riscv_paths(seed).map(|p| format!("riscv:{p}")).join("+")],
            Workload::SweepIssue => vec!["standard".into(), "int8".into()],
        }
    }
}

/// The riscv3 thread order for a seed. The RISC-V backend has no seed of
/// its own, so the seed picks which context runs which binary (one of the
/// six orders); fetch tie-breaks make the orders distinct inputs.
pub fn riscv_paths(seed: u64) -> [&'static str; 3] {
    const ORDERS: [[usize; 3]; 6] = [
        [0, 1, 2],
        [0, 2, 1],
        [1, 0, 2],
        [1, 2, 0],
        [2, 0, 1],
        [2, 1, 0],
    ];
    ORDERS[(seed % 6) as usize].map(|i| ELFS[i])
}

/// The standard mix's synthetic programs for a seed, one per context.
pub fn standard_programs(seed: u64) -> Vec<Arc<Program>> {
    standard_mix()
        .iter()
        .enumerate()
        .map(|(slot, b)| Arc::new(b.generate(seed, slot as u32)))
        .collect()
}

/// Loads RISC-V images, relative to the repository root.
pub fn load_elfs(paths: &[&str]) -> Result<Vec<Arc<RiscvImage>>, String> {
    paths
        .iter()
        .map(|p| RiscvImage::load(Path::new(p)).map(Arc::new))
        .collect()
}

/// The run's [`SEEDS`] seeds, derived from the benchmark seed, the first
/// being the seed itself. The stride keeps the sets of nearby benchmark
/// seeds apart, so runs on seeds 1 and 2 share no input.
pub fn seeds(seed: u64) -> Vec<u64> {
    (0..SEEDS)
        .map(|i| seed.wrapping_add(i.wrapping_mul(0x9e37_79b9_7f4a_7c15)))
        .collect()
}

/// The fastest of `xs` (durations in seconds). Work on a shared host is
/// only ever slowed down by whatever else runs there, so across many
/// repeats the fastest one is the steadiest estimate of the code's own
/// speed; the median moves with the neighbours' load.
pub fn fastest(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

/// `fetch_slots + wrong_path + Σ lost_* == 8 · cycles`: every fetch slot
/// of the 8-wide front end is accounted for exactly once.
pub fn fetch_slots_balance(r: &SimReport) -> bool {
    let f = &r.fetch;
    f.fetched
        + f.wrong_path
        + f.lost_icache
        + f.lost_bank_conflict
        + f.lost_fragmentation
        + f.lost_frontend_full
        + f.lost_no_thread
        == 8 * r.cycles
}

/// The end-to-end result of one workload run.
pub struct E2e {
    pub metrics: Vec<Metric>,
    /// `sim_insts_per_s` on `sim-*`, `sweep_cells_per_s` on the sweep.
    pub primary: f64,
    /// The reports the exact model counts are read from: each seed's
    /// (identical) repeat report on `sim-*`, every first-pass cell on the
    /// sweep.
    pub reports: Vec<SimReport>,
}

/// Runs the workload for `budget` and checks every output.
pub fn run(
    w: Workload,
    seed: u64,
    budget: Duration,
    tracer: &Tracer,
    scratch: &Path,
    tally: &mut Tally,
) -> Result<E2e, String> {
    match w {
        Workload::SimStandard | Workload::SimRiscv3 => sim(w, seed, budget, tracer, tally),
        Workload::SweepIssue => sweep(seed, budget, tracer, scratch, tally),
    }
}

/// The `sim-*` machine description, workload images included (image
/// generation or ELF loading is the `smt-workload` part of set-up).
pub fn sim_config(
    w: Workload,
    seed: u64,
    tracer: &Tracer,
    parent: Option<usize>,
) -> Result<SimConfig, String> {
    let cfg = SimConfig::new().with_seed(seed).with_partition(partition());
    match w {
        Workload::SimStandard => {
            let programs = tracer.span("workload.generate", Layer::Workload, parent, |_| {
                standard_programs(seed)
            });
            Ok(cfg.with_programs(programs))
        }
        Workload::SimRiscv3 => {
            let images = tracer.span("workload.elf_load", Layer::Workload, parent, |_| {
                load_elfs(&riscv_paths(seed))
            })?;
            Ok(cfg.with_workloads(images.into_iter().map(WorkloadSpec::Elf).collect()))
        }
        Workload::SweepIssue => unreachable!("the sweep builds its machines through run_study"),
    }
}

/// Builds and warms a `sim-*` machine: everything `setup_s` covers.
pub fn build_warm(
    w: Workload,
    seed: u64,
    tracer: &Tracer,
    parent: Option<usize>,
) -> Result<Simulator, String> {
    let cfg = sim_config(w, seed, tracer, parent)?;
    let mut sim = tracer.span("core.build", Layer::Core, parent, |_| cfg.build());
    tracer.span("core.warmup", Layer::Core, parent, |_| {
        for _ in 0..WARMUP {
            sim.step_cycle();
        }
        sim.reset_stats();
    });
    Ok(sim)
}

/// One `sim-*` seed's repeats.
#[derive(Default)]
struct SeedRuns {
    setup: Vec<f64>,
    run: Vec<f64>,
    first: Option<(SimReport, String)>,
}

fn sim(
    w: Workload,
    seed: u64,
    budget: Duration,
    tracer: &Tracer,
    tally: &mut Tally,
) -> Result<E2e, String> {
    const MIN_ROUNDS: usize = 3;
    let subs = seeds(seed);
    let mut runs: Vec<SeedRuns> = subs.iter().map(|_| SeedRuns::default()).collect();
    let start = Instant::now();
    // A round repeats every seed once, so each seed's repeats spread over
    // the whole run.
    let (mut rounds, mut rss) = (0, 0.0);
    while rounds < MIN_ROUNDS || start.elapsed() < budget {
        for (&s, r) in subs.iter().zip(&mut runs) {
            tracer.span("bench.repeat", Layer::Bench, None, |rep| {
                let t0 = Instant::now();
                let mut sim = build_warm(w, s, tracer, rep)?;
                let t_setup = t0.elapsed().as_secs_f64();
                let t1 = Instant::now();
                let report = tracer.span("core.run", Layer::Core, rep, |_| sim.run(SIM_CYCLES));
                let t_run = t1.elapsed().as_secs_f64();
                tracer.span("bench.check", Layer::Bench, rep, |_| {
                    tally.check(fetch_slots_balance(&report), || {
                        format!("seed {s} round {rounds}: fetch slots do not sum to 8 x cycles")
                    });
                    let json = report.to_json().render();
                    match &r.first {
                        None => r.first = Some((report, json)),
                        Some((_, f)) => tally.check(*f == json, || {
                            format!("seed {s} round {rounds}: report differs from the first")
                        }),
                    }
                });
                r.setup.push(t_setup);
                r.run.push(t_run);
                Ok::<(), String>(())
            })?;
        }
        rounds += 1;
        if rounds == 1 {
            // The memory one pass over the inputs needs, before repeats
            // in the same process fragment the heap further.
            rss = peak_rss_mb();
        }
    }

    // A checkpoint taken at the end of the warmup and restored into a
    // fresh machine must reproduce the straight-through window exactly.
    for (&s, r) in subs.iter().zip(&runs) {
        let (_, json) = r.first.as_ref().expect("every seed ran");
        tracer.span("bench.ckpt_roundtrip", Layer::Bench, None, |p| {
            let warm = build_warm(w, s, tracer, p)?;
            let mut bytes = Vec::new();
            tracer
                .span("ckpt.save", Layer::Ckpt, p, |_| {
                    warm.save_checkpoint(&mut bytes)
                })
                .map_err(|e| format!("checkpoint save failed: {e}"))?;
            let cfg = sim_config(w, s, tracer, p)?;
            let mut restored = tracer
                .span("ckpt.restore", Layer::Ckpt, p, |_| {
                    Simulator::restore_checkpoint(cfg, &mut bytes.as_slice())
                })
                .map_err(|e| format!("checkpoint restore failed: {e}"))?;
            let again = tracer.span("core.run", Layer::Core, p, |_| restored.run(SIM_CYCLES));
            tally.check(again.to_json().render() == *json, || {
                format!("seed {s}: checkpoint round trip does not reproduce the straight-through report")
            });
            Ok::<(), String>(())
        })?;
    }

    // Every seed's fastest repeat, summed: the time one pass over the
    // run's inputs takes.
    let reports: Vec<SimReport> = runs
        .iter()
        .map(|r| r.first.as_ref().expect("every seed ran").0.clone())
        .collect();
    let committed: u64 = reports.iter().map(SimReport::total_committed).sum();
    let run_s: f64 = runs.iter().map(|r| fastest(&r.run)).sum();
    let cell_s: f64 = runs
        .iter()
        .map(|r| {
            let whole: Vec<f64> = r.setup.iter().zip(&r.run).map(|(a, b)| a + b).collect();
            fastest(&whole)
        })
        .sum();
    let mut setup: Vec<f64> = runs.iter().flat_map(|r| r.setup.iter().copied()).collect();
    let primary = committed as f64 / run_s;
    Ok(E2e {
        metrics: vec![
            measured("sim_insts_per_s", primary, "1/s"),
            measured("sweep_cells_per_s", subs.len() as f64 / cell_s, "1/s"),
            measured("setup_s", median(&mut setup), "s"),
            measured("peak_rss_mb", rss, "MB"),
            measured(
                "core.ns_per_cycle",
                run_s * 1e9 / (subs.len() as u64 * SIM_CYCLES) as f64,
                "ns",
            ),
            measured("bench.repeats", (rounds * subs.len()) as f64, "count"),
        ],
        primary,
        reports,
    })
}

/// An issue-policy sweep: fetch {rr, icount} × the four issue policies ×
/// 2.8 × `mixes` × `seeds`, on [`JOBS`] workers, journaled. The
/// `sweep-issue` workload runs it on {standard, int8} × the run's
/// [`SEEDS`] seeds.
pub fn sweep_config(mixes: Vec<String>, seeds: Vec<u64>, journal: &Path) -> StudyConfig {
    StudyConfig {
        fetch_policies: vec!["rr".into(), "icount".into()],
        issue_policies: vec![
            "oldest".into(),
            "opt_last".into(),
            "spec_last".into(),
            "branch_first".into(),
        ],
        partitions: vec![partition()],
        mixes,
        seeds,
        cycles: SWEEP_CYCLES,
        warmup: WARMUP,
        jobs: JOBS,
        share_warmup: true,
        checkpoint_dir: None,
        journal: Some(journal.to_path_buf()),
    }
}

fn fresh_dir(dir: &Path) -> Result<(), String> {
    match std::fs::remove_dir_all(dir) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(format!("cannot clear {}: {e}", dir.display())),
    }
}

fn sweep(
    seed: u64,
    budget: Duration,
    tracer: &Tracer,
    scratch: &Path,
    tally: &mut Tally,
) -> Result<E2e, String> {
    const MIN_ITERATIONS: usize = 2;
    let mixes = Workload::SweepIssue.mixes(seed);
    let start = Instant::now();
    let (mut setup, mut pass) = (vec![], vec![]);
    let mut first: Option<(Vec<SimReport>, String)> = None;
    let (mut cells, mut committed, mut simulated, mut rss) = (0, 0, 0, 0.0);
    while setup.len() < MIN_ITERATIONS || start.elapsed() < budget {
        let dir = scratch.join(format!("sweep-journal-{}", setup.len()));
        fresh_dir(&dir)?;
        let cfg = sweep_config(mixes.clone(), seeds(seed), &dir);
        tracer.span("bench.iteration", Layer::Bench, None, |it| {
            let t0 = Instant::now();
            for mix in &cfg.mixes {
                for &s in &cfg.seeds {
                    tracer.span("workload.resolve_mix", Layer::Workload, it, |_| {
                        resolve_mix(mix, s).map(drop)
                    })?;
                }
            }
            tracer
                .span("exp.journal_open", Layer::Exp, it, |_| Journal::open(&dir))
                .map_err(|e| format!("cannot open journal {}: {e}", dir.display()))?;
            let t_setup = t0.elapsed().as_secs_f64();

            let t1 = Instant::now();
            let study = tracer.span("exp.run_study", Layer::Exp, it, |_| run_study(&cfg))?;
            let t_pass = t1.elapsed().as_secs_f64();
            let resumed = tracer.span("exp.resume", Layer::Exp, it, |_| run_study(&cfg))?;

            tracer.span("bench.check", Layer::Bench, it, |_| {
                let n = cfg.cell_count();
                // Every cell is an operation; a failed or degraded cell
                // counts against it.
                tally.attempted += n as u64;
                for f in &study.failed {
                    tally.failures.push(format!("cell failed: {}", f.error));
                }
                for d in study.degraded.iter().chain(&resumed.degraded) {
                    tally.failures.push(format!("cell degraded: {d}"));
                }
                tally.check(study.cells.len() == n, || {
                    format!("{} of {n} cells completed", study.cells.len())
                });
                for c in &study.cells {
                    tally.check(fetch_slots_balance(&c.report), || {
                        format!("{}/{}/{}: fetch slots unbalanced", c.mix, c.fetch, c.issue)
                    });
                }
                let json = study.to_json().render();
                tally.check(
                    resumed.journal_loaded == n && resumed.failed.is_empty(),
                    || format!("resume loaded {} of {n} cells", resumed.journal_loaded),
                );
                tally.check(resumed.to_json().render() == json, || {
                    "resumed study differs from the first pass".into()
                });
                match &first {
                    None => {
                        first = Some((study.cells.iter().map(|c| c.report.clone()).collect(), json))
                    }
                    Some((_, f)) => tally.check(*f == json, || {
                        format!("iteration {}: study differs from the first", setup.len())
                    }),
                }
            });
            cells = study.cells.len();
            committed = study.cells.iter().map(|c| c.report.total_committed()).sum();
            simulated = n_cycles(&cfg);
            setup.push(t_setup);
            pass.push(t_pass);
            Ok::<(), String>(())
        })?;
        fresh_dir(&dir)?;
        if pass.len() == 1 {
            // The memory one sweep and its resume need, before repeats in
            // the same process fragment the heap further.
            rss = peak_rss_mb();
        }
    }
    // Every pass simulates the same cells (checked above), so the
    // fastest pass stands for all of them.
    let t_pass = fastest(&pass);
    let primary = cells as f64 / t_pass;
    Ok(E2e {
        metrics: vec![
            measured("sim_insts_per_s", committed as f64 / t_pass, "1/s"),
            measured("sweep_cells_per_s", primary, "1/s"),
            measured("setup_s", median(&mut setup), "s"),
            measured("peak_rss_mb", rss, "MB"),
            measured(
                "core.ns_per_cycle",
                JOBS as f64 * t_pass * 1e9 / simulated as f64,
                "ns",
            ),
            measured("bench.repeats", pass.len() as f64, "count"),
        ],
        primary,
        reports: first.expect("at least one iteration ran").0,
    })
}

/// Cycles one sweep pass simulates: every cell's window plus one warmup
/// per shared (mix, seed, partition) key.
fn n_cycles(cfg: &StudyConfig) -> u64 {
    let keys = (cfg.mixes.len() * cfg.seeds.len() * cfg.partitions.len()) as u64;
    cfg.cell_count() as u64 * cfg.cycles + keys * cfg.warmup
}

//! Per-layer measurements for the traced run, each taken from outside by
//! timing the benchmark's own calls into one crate's public functions, on
//! the workload's own inputs.

use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use smt_branch::{BranchPredictor, PredictorConfig};
use smt_core::checkpoint::config_fingerprint;
use smt_core::{
    fetch_policy_by_name, issue_policy_by_name, SimConfig, SimReport, Simulator, WorkloadSpec,
};
use smt_experiments::journal::{journal_key, Journal};
use smt_experiments::study::{resolve_mix, run_study, MixImages, Study, StudyCell};
use smt_experiments::warmup::{canonical_config_for, compute_checkpoint, fork_cell};
use smt_isa::{Opcode, ThreadId};
use smt_mem::{MemStats, MemoryHierarchy};
use smt_stats::sched::work_steal_map;
use smt_stats::Ratio;
use smt_workload::{RiscvSource, SyntheticSource, WorkloadSource};

use crate::spans::{Layer, Tracer};
use crate::workloads::{
    fetch_slots_balance, load_elfs, partition, seeds, standard_programs, sweep_config, Workload,
    ELFS, JOBS,
};
use crate::{exact, measured, median, tail, Metric, Tally};

/// The pipeline phase names, in the order `smt_core::pipeline_phase_ns`
/// reports them.
const PHASES: [&str; 7] = [
    "mem_begin",
    "miss_complete",
    "writeback",
    "commit",
    "issue",
    "rename",
    "fetch",
];

/// The phase probes' accumulators; all zero in the plain build, which
/// compiles no probes.
pub fn phase_ns() -> [u64; 7] {
    #[cfg(feature = "traced")]
    return smt_core::pipeline_phase_ns();
    #[cfg(not(feature = "traced"))]
    [0; 7]
}

/// Each pipeline phase's share of the time the probes saw between two
/// readings.
pub fn phase_shares(before: [u64; 7], after: [u64; 7]) -> Vec<Metric> {
    let delta: Vec<f64> = before
        .iter()
        .zip(after)
        .map(|(b, a)| (a - b) as f64)
        .collect();
    let total: f64 = delta.iter().sum::<f64>().max(1.0);
    PHASES
        .iter()
        .zip(delta)
        .map(|(p, d)| measured(format!("core.phase.{p}_pct"), 100.0 * d / total, "%"))
        .collect()
}

fn per(n: u64, d: u64) -> f64 {
    if d == 0 {
        0.0
    } else {
        n as f64 / d as f64
    }
}

/// The model's own counts, summed over `reports`: they depend only on
/// the seed, so they repeat exactly, and a change meant only to make the
/// simulator faster must leave every one of them unchanged.
pub fn model_counts(reports: &[SimReport]) -> Vec<Metric> {
    let mut cycles = 0;
    let mut committed = 0;
    let (mut fetched, mut wrong, mut frontend_full, mut squashed) = (0, 0, 0, 0);
    let mut bank_conflicts = 0;
    let mut mem = MemStats::default();
    let mut cond = Ratio::new();
    let (mut predictions, mut btb_lookups, mut btb_hits) = (0, 0, 0);
    for r in reports {
        cycles += r.cycles;
        committed += r.total_committed();
        fetched += r.fetch.fetched;
        wrong += r.fetch.wrong_path;
        frontend_full += r.fetch.lost_frontend_full;
        squashed += r.squashed_insts;
        bank_conflicts += r.issue.bank_conflicts;
        mem.icache.accesses += r.mem.icache.accesses;
        mem.icache.misses += r.mem.icache.misses;
        mem.dcache.accesses += r.mem.dcache.accesses;
        mem.dcache.misses += r.mem.dcache.misses;
        mem.l2.accesses += r.mem.l2.accesses;
        mem.mshr_merges += r.mem.mshr_merges;
        cond.merge(&r.cond_prediction);
        predictions += r.pred.predictions;
        btb_lookups += r.pred.btb_lookups;
        btb_hits += r.pred.btb_hits;
    }
    vec![
        exact("model.ipc", per(committed, cycles), "insts/cycle"),
        exact(
            "core.fetch.wrong_path_frac",
            per(wrong, fetched + wrong),
            "ratio",
        ),
        exact(
            "core.fetch.lost_frontend_full_per_cycle",
            per(frontend_full, cycles),
            "slots/cycle",
        ),
        exact("core.squashed_per_inst", per(squashed, committed), "1/inst"),
        exact(
            "core.issue.bank_conflicts_per_inst",
            per(bank_conflicts, committed),
            "1/inst",
        ),
        exact(
            "mem.icache_accesses_per_inst",
            per(mem.icache.accesses, committed),
            "1/inst",
        ),
        exact(
            "mem.dcache_accesses_per_inst",
            per(mem.dcache.accesses, committed),
            "1/inst",
        ),
        exact(
            "mem.l2_accesses_per_inst",
            per(mem.l2.accesses, committed),
            "1/inst",
        ),
        exact(
            "mem.mshr_merges_per_inst",
            per(mem.mshr_merges, committed),
            "1/inst",
        ),
        exact(
            "mem.icache_miss_frac",
            per(mem.icache.misses, mem.icache.accesses),
            "ratio",
        ),
        exact(
            "mem.dcache_miss_frac",
            per(mem.dcache.misses, mem.dcache.accesses),
            "ratio",
        ),
        exact(
            "branch.predictions_per_inst",
            per(predictions, committed),
            "1/inst",
        ),
        exact(
            "branch.cond_miss_frac",
            per(cond.total - cond.hits, cond.total),
            "ratio",
        ),
        exact("branch.btb_hit_frac", per(btb_hits, btb_lookups), "ratio"),
    ]
}

fn median_ms(samples: &[Duration]) -> f64 {
    let mut ms: Vec<f64> = samples.iter().map(|d| d.as_secs_f64() * 1e3).collect();
    median(&mut ms)
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed())
}

/// The per-thread instruction sources a simulator builds for `images`:
/// the same backends, with the synthetic per-thread salt `smt-core` uses,
/// so the stream is the workload's own correct path.
fn sources(images: &MixImages, seed: u64) -> Vec<Box<dyn WorkloadSource>> {
    let synthetic = |p: &Arc<smt_workload::Program>, i: usize| -> Box<dyn WorkloadSource> {
        Box::new(SyntheticSource::new(
            p.clone(),
            seed ^ (i as u64).wrapping_mul(0x9e37),
        ))
    };
    match images {
        MixImages::Programs(ps) => ps
            .iter()
            .enumerate()
            .map(|(i, p)| synthetic(p, i))
            .collect(),
        MixImages::Workloads(ws) => ws
            .iter()
            .enumerate()
            .map(|(i, w)| match w {
                WorkloadSpec::Program(p) => synthetic(p, i),
                WorkloadSpec::Elf(img) => Box::new(RiscvSource::new(img.clone())),
                other => unreachable!("no benchmark workload uses {other:?}"),
            })
            .collect(),
    }
}

/// ns per `step` over `steps` round-robin steps of `srcs`.
fn step_ns(srcs: &mut [Box<dyn WorkloadSource>], steps: usize) -> f64 {
    let (_, d) = timed(|| {
        for i in 0..steps {
            let n = srcs.len();
            black_box(srcs[i % n].step());
        }
    });
    d.as_nanos() as f64 / steps as f64
}

/// `smt-workload`: image generation, ELF loading and both backends' step
/// cost. Measured on the standard mix and the three ELFs on every
/// workload, so the four numbers always exist side by side.
pub fn workload_probe(seed: u64, tracer: &Tracer) -> Result<Vec<Metric>, String> {
    const STEPS: usize = 400_000;
    let mut generate = Vec::new();
    let mut programs = Vec::new();
    for _ in 0..3 {
        let (p, d) = timed(|| {
            tracer.span("workload.generate", Layer::Workload, None, |_| {
                standard_programs(seed)
            })
        });
        generate.push(d);
        programs = p;
    }
    let mut load = Vec::new();
    let mut images = Vec::new();
    for _ in 0..5 {
        let (i, d) = timed(|| {
            tracer.span("workload.elf_load", Layer::Workload, None, |_| {
                load_elfs(&ELFS)
            })
        });
        load.push(d);
        images = i?;
    }
    let mut synthetic = sources(&MixImages::Programs(programs), seed);
    let mut riscv: Vec<Box<dyn WorkloadSource>> = images
        .into_iter()
        .map(|i| Box::new(RiscvSource::new(i)) as Box<dyn WorkloadSource>)
        .collect();
    let synthetic_ns = tracer.span("workload.step", Layer::Workload, None, |_| {
        step_ns(&mut synthetic, STEPS)
    });
    let riscv_ns = tracer.span("workload.step", Layer::Workload, None, |_| {
        step_ns(&mut riscv, STEPS)
    });
    Ok(vec![
        measured("workload.generate_ms", median_ms(&generate), "ms"),
        measured("workload.elf_load_ms", median_ms(&load), "ms"),
        measured("workload.synthetic.step_ns", synthetic_ns, "ns"),
        measured("workload.riscv.step_ns", riscv_ns, "ns"),
    ])
}

/// Summed host time of individually timed calls.
#[derive(Default)]
struct Calls {
    ns: u64,
    n: u64,
}

impl Calls {
    #[inline(always)]
    fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = black_box(f());
        self.ns += t.elapsed().as_nanos() as u64;
        self.n += 1;
        out
    }

    fn add(&mut self, other: &Calls) {
        self.ns += other.ns;
        self.n += other.n;
    }

    /// Mean ns per call with the timer's own cost taken out.
    fn mean_ns(&self, timer_ns: f64) -> f64 {
        per(self.ns, self.n) - timer_ns
    }
}

/// The mean cost of one empty timed interval: what [`Calls::time`] adds
/// to every call it measures.
fn timer_overhead_ns() -> f64 {
    let mut c = Calls::default();
    for _ in 0..200_000 {
        c.time(|| ());
    }
    c.mean_ns(0.0)
}

/// One recorded correct-path instruction.
struct Step {
    pc: smt_isa::Addr,
    op: Opcode,
    outcome: smt_isa::Outcome,
}

/// The workload's own correct-path streams cut into fetch blocks: up to
/// eight instructions of one thread, ended early by a taken control
/// instruction, threads taking turns.
struct Stream {
    threads: usize,
    blocks: Vec<(ThreadId, std::ops::Range<usize>)>,
    steps: Vec<Step>,
}

/// Blocks replayed before the counters start, then blocks measured.
const WARM_BLOCKS: usize = 12_000;
const BLOCKS: usize = 48_000;

fn record(srcs: &mut [Box<dyn WorkloadSource>]) -> Stream {
    let mut s = Stream {
        threads: srcs.len(),
        blocks: Vec::with_capacity(WARM_BLOCKS + BLOCKS),
        steps: Vec::with_capacity(8 * (WARM_BLOCKS + BLOCKS)),
    };
    for block in 0..WARM_BLOCKS + BLOCKS {
        let t = block % srcs.len();
        let begin = s.steps.len();
        for _ in 0..8 {
            let pc = srcs[t].pc();
            let (inst, outcome) = srcs[t].step();
            s.steps.push(Step {
                pc,
                op: inst.op,
                outcome,
            });
            if inst.op.is_control() && outcome.next_pc != pc + smt_isa::INST_BYTES {
                break;
            }
        }
        s.blocks.push((ThreadId(t as u8), begin..s.steps.len()));
    }
    s
}

/// Replay results, summed over the workload's mixes.
#[derive(Default)]
struct Replay {
    begin: Calls,
    ifetch: Calls,
    daccess: Calls,
    predict: Calls,
    resolve: Calls,
    mem: MemStats,
    cond: Ratio,
    btb_lookups: u64,
    btb_hits: u64,
}

/// Feeds a recorded stream through a fresh memory hierarchy: each fetch
/// block opens a cycle of its own and fetches its lines, then issues its
/// loads and stores. No wrong-path traffic and no cross-thread bank
/// contention, so the miss rates differ from the simulator's (both are
/// printed).
fn replay_mem(s: &Stream, out: &mut Replay) {
    let mut mem = MemoryHierarchy::new(SimConfig::new().mem);
    let line_bytes = mem.config().icache.line_bytes as u64;
    let mut sink = Vec::with_capacity(256);
    let (mut begin, mut ifetch, mut daccess) =
        (Calls::default(), Calls::default(), Calls::default());
    for (b, (tid, range)) in s.blocks.iter().enumerate() {
        if b == WARM_BLOCKS {
            mem.reset_stats();
            (begin, ifetch, daccess) = (Calls::default(), Calls::default(), Calls::default());
        }
        let tid = *tid;
        let cycle = b as u64 + 1;
        begin.time(|| mem.begin_cycle(cycle));
        mem.drain_completions_into(&mut sink);
        sink.clear();
        let mut line = u64::MAX;
        for st in &s.steps[range.clone()] {
            if st.pc / line_bytes != line {
                line = st.pc / line_bytes;
                ifetch.time(|| mem.icache_fetch(tid, st.pc));
            }
            if st.op.is_mem() {
                daccess.time(|| mem.dcache_access(tid, st.outcome.mem_addr, st.op.is_store()));
            }
        }
    }
    let m = mem.stats();
    out.mem.icache.accesses += m.icache.accesses;
    out.mem.icache.misses += m.icache.misses;
    out.mem.dcache.accesses += m.dcache.accesses;
    out.mem.dcache.misses += m.dcache.misses;
    out.begin.add(&begin);
    out.ifetch.add(&ifetch);
    out.daccess.add(&daccess);
}

/// Feeds a recorded stream's control instructions through a fresh
/// predictor, resolving each as soon as it is predicted: no wrong-path
/// history pollution, so the rates differ from the simulator's.
fn replay_branch(s: &Stream, out: &mut Replay) {
    let mut bp = BranchPredictor::new(PredictorConfig::default(), s.threads);
    let (mut predict, mut resolve, mut cond) = (Calls::default(), Calls::default(), Ratio::new());
    for (b, (tid, range)) in s.blocks.iter().enumerate() {
        if b == WARM_BLOCKS {
            bp.reset_stats();
            (predict, resolve, cond) = (Calls::default(), Calls::default(), Ratio::new());
        }
        let tid = *tid;
        for st in s.steps[range.clone()]
            .iter()
            .filter(|st| st.op.is_control())
        {
            let (pc, o) = (st.pc, st.outcome);
            let p = predict.time(|| bp.predict(tid, pc, st.op));
            if st.op.is_cond_branch() {
                cond.record(p.taken == o.taken);
                resolve.time(|| {
                    if p.taken != o.taken {
                        bp.repair_history(tid, p.history_before, o.taken);
                    }
                    bp.resolve_cond(tid, pc, p.pht_index, o.taken, o.next_pc)
                });
            } else if st.op != Opcode::Return {
                resolve.time(|| bp.resolve_uncond(tid, pc, st.op, o.next_pc));
            }
        }
    }
    out.predict.add(&predict);
    out.resolve.add(&resolve);
    out.cond.merge(&cond);
    out.btb_lookups += bp.stats().btb_lookups;
    out.btb_hits += bp.stats().btb_hits;
}

/// `smt-mem` and `smt-branch` host time per call, replaying the
/// workload's own instruction streams (each mix at each of the run's
/// seeds, the inputs the simulator's rates beside them come from).
pub fn replay_probe(w: Workload, seed: u64, tracer: &Tracer) -> Result<Vec<Metric>, String> {
    let timer_ns = timer_overhead_ns();
    let mut r = Replay::default();
    for s in seeds(seed) {
        for mix in w.mixes(s) {
            let images = resolve_mix(&mix, s)?;
            let stream = tracer.span("workload.record", Layer::Workload, None, |_| {
                record(&mut sources(&images, s))
            });
            tracer.span("mem.replay", Layer::Mem, None, |_| {
                replay_mem(&stream, &mut r)
            });
            tracer.span("branch.replay", Layer::Branch, None, |_| {
                replay_branch(&stream, &mut r)
            });
        }
    }
    Ok(vec![
        measured("mem.icache_fetch_ns", r.ifetch.mean_ns(timer_ns), "ns"),
        measured("mem.dcache_access_ns", r.daccess.mean_ns(timer_ns), "ns"),
        measured("mem.begin_cycle_ns", r.begin.mean_ns(timer_ns), "ns"),
        exact(
            "mem.replay.icache_miss_frac",
            per(r.mem.icache.misses, r.mem.icache.accesses),
            "ratio",
        ),
        exact(
            "mem.replay.dcache_miss_frac",
            per(r.mem.dcache.misses, r.mem.dcache.accesses),
            "ratio",
        ),
        measured("branch.predict_ns", r.predict.mean_ns(timer_ns), "ns"),
        measured("branch.resolve_ns", r.resolve.mean_ns(timer_ns), "ns"),
        exact(
            "branch.replay.cond_miss_frac",
            per(r.cond.total - r.cond.hits, r.cond.total),
            "ratio",
        ),
        exact(
            "branch.replay.btb_hit_frac",
            per(r.btb_hits, r.btb_lookups),
            "ratio",
        ),
    ])
}

/// `smt-experiments` and checkpoints: the workload's own issue-policy
/// sweep (the 256-cell sweep itself on `sweep-issue`; on `sim-*`, the
/// workload's mix × its 16 seeds, 128 cells) performed call by call
/// through the crate's public functions — one `compute_checkpoint` per
/// key, one `fork_cell` and journal store per cell, on the work-stealing
/// scheduler — then resumed by `run_study` over the journal it filled.
/// The resumed document must equal the call-by-call one byte for byte.
pub fn exp_probe(
    w: Workload,
    seed: u64,
    tracer: &Tracer,
    scratch: &Path,
    tally: &mut Tally,
) -> Result<Vec<Metric>, String> {
    let dir = scratch.join("probe-journal");
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = sweep_config(w.mixes(seed), seeds(seed), &dir);
    let part = partition();

    struct Key {
        mix: String,
        seed: u64,
        images: MixImages,
    }
    let mut keys = Vec::new();
    for mix in &cfg.mixes {
        for &s in &cfg.seeds {
            let images = tracer.span("workload.resolve_mix", Layer::Workload, None, |_| {
                resolve_mix(mix, s)
            })?;
            keys.push(Key {
                mix: mix.clone(),
                seed: s,
                images,
            });
        }
    }
    let journal = tracer
        .span("exp.journal_open", Layer::Exp, None, |_| {
            Journal::open(&dir)
        })
        .map_err(|e| format!("cannot open journal {}: {e}", dir.display()))?;

    // The cells in run_study's order: (mix, seed, partition, fetch, issue).
    struct Cell<'a> {
        key: usize,
        fetch: &'a str,
        issue: &'a str,
        journal_key: u64,
    }
    let mut cells = Vec::new();
    for (k, key) in keys.iter().enumerate() {
        let fp = tracer.span("core.fingerprint", Layer::Core, None, |_| {
            config_fingerprint(&canonical_config_for(&key.images, key.seed, part))
        });
        for fetch in &cfg.fetch_policies {
            for issue in &cfg.issue_policies {
                cells.push(Cell {
                    key: k,
                    fetch,
                    issue,
                    journal_key: journal_key(
                        fp,
                        &["issue-study", fetch, issue],
                        &[cfg.cycles, cfg.warmup],
                    ),
                });
            }
        }
    }

    /// One cell of the call-by-call pass.
    struct Forked {
        report: SimReport,
        fork: Duration,
        stored: bool,
        store: Duration,
        config: Duration,
    }
    let pass_start = Instant::now();
    let (warm, forked) = tracer.span("exp.pass", Layer::Exp, None, |pass| {
        let warm = work_steal_map(keys.len(), JOBS, |k| {
            let key = &keys[k];
            timed(|| {
                tracer.span("exp.warmup", Layer::Exp, pass, |_| {
                    compute_checkpoint(&key.images, key.seed, part, cfg.warmup)
                })
            })
        });
        let forked = work_steal_map(cells.len(), JOBS, |i| {
            let c = &cells[i];
            let key = &keys[c.key];
            let (cell_cfg, config) = timed(|| {
                tracer.span("core.config", Layer::Core, pass, |_| {
                    key.images
                        .apply(SimConfig::new())
                        .with_seed(key.seed)
                        .with_fetch(fetch_policy_by_name(c.fetch).expect("shipped policy"))
                        .with_issue(issue_policy_by_name(c.issue).expect("shipped policy"))
                        .with_partition(part)
                })
            });
            let (report, fork) = timed(|| {
                tracer.span("exp.fork_cell", Layer::Exp, pass, |_| {
                    fork_cell(cell_cfg, &warm[c.key].0, cfg.cycles)
                })
            });
            let (stored, store) = timed(|| {
                tracer.span("exp.journal_store", Layer::Exp, pass, |_| {
                    journal.store(c.journal_key, i as u64, &report)
                })
            });
            Forked {
                report,
                fork,
                stored: stored.is_ok(),
                store,
                config,
            }
        });
        (warm, forked)
    });
    let pass_wall = pass_start.elapsed();

    // Checkpoints: restore each key's shared checkpoint into a fresh
    // machine and save it again; the bytes must not change.
    let (mut saves, mut restores) = (Vec::new(), Vec::new());
    for (key, (bytes, _)) in keys.iter().zip(&warm) {
        for _ in 0..3 {
            let cfg = canonical_config_for(&key.images, key.seed, part);
            let (sim, d) = timed(|| {
                tracer.span("ckpt.restore", Layer::Ckpt, None, |_| {
                    Simulator::restore_checkpoint(cfg, &mut bytes.as_slice())
                })
            });
            restores.push(d);
            let sim = sim.map_err(|e| format!("checkpoint restore failed: {e}"))?;
            let mut again = Vec::with_capacity(bytes.len());
            let (saved, d) = timed(|| {
                tracer.span("ckpt.save", Layer::Ckpt, None, |_| {
                    sim.save_checkpoint(&mut again)
                })
            });
            saves.push(d);
            tally.check(saved.is_ok() && again == *bytes, || {
                format!("{}/s{}: re-saved checkpoint differs", key.mix, key.seed)
            });
        }
    }

    let mut loads = Vec::new();
    for (i, (c, f)) in cells.iter().zip(&forked).enumerate() {
        tally.check(fetch_slots_balance(&f.report), || {
            format!("cell {i}: fetch slots do not sum to 8 x cycles")
        });
        tally.check(f.stored, || format!("journal store of cell {i} failed"));
        let (loaded, d) = timed(|| {
            tracer.span("exp.journal_load", Layer::Exp, None, |_| {
                journal.load(c.journal_key, i as u64)
            })
        });
        loads.push(d);
        tally.check(
            loaded.as_ref().ok().and_then(Option::as_ref) == Some(&f.report),
            || format!("journal load of cell {i} does not return the stored report"),
        );
    }

    let study = Study {
        config: cfg.clone(),
        cells: cells
            .iter()
            .zip(&forked)
            .map(|(c, Forked { report, .. })| StudyCell {
                fetch: report.fetch_policy.clone(),
                issue: report.issue_policy.clone(),
                partition: part,
                mix: keys[c.key].mix.clone(),
                seed: keys[c.key].seed,
                report: report.clone(),
            })
            .collect(),
        failed: Vec::new(),
        degraded: Vec::new(),
        warmups_performed: keys.len(),
        journal_loaded: 0,
    };
    let (json, to_json) = timed(|| {
        tracer.span("exp.to_json", Layer::Exp, None, |_| {
            study.to_json().render()
        })
    });
    let (resumed, resume) =
        timed(|| tracer.span("exp.resume", Layer::Exp, None, |_| run_study(&cfg)));
    let resumed = resumed?;
    tally.check(
        resumed.journal_loaded == cells.len()
            && resumed.failed.is_empty()
            && resumed.degraded.is_empty(),
        || {
            format!(
                "resume loaded {} of {} cells",
                resumed.journal_loaded,
                cells.len()
            )
        },
    );
    tally.check(resumed.to_json().render() == json, || {
        "run_study over the journal differs from the call-by-call sweep".into()
    });
    let _ = std::fs::remove_dir_all(&dir);

    let busy: Duration = warm.iter().map(|(_, d)| *d).sum::<Duration>()
        + forked
            .iter()
            .map(|f| f.config + f.fork + f.store)
            .sum::<Duration>();
    let mut fork_ms: Vec<f64> = forked.iter().map(|f| f.fork.as_secs_f64() * 1e3).collect();
    let mut store_us: Vec<f64> = forked.iter().map(|f| f.store.as_secs_f64() * 1e6).collect();
    let mut load_us: Vec<f64> = loads.iter().map(|d| d.as_secs_f64() * 1e6).collect();
    Ok(vec![
        measured(
            "exp.warmup_ms",
            median_ms(&warm.iter().map(|(_, d)| *d).collect::<Vec<_>>()),
            "ms",
        ),
        measured("exp.fork_cell_ms", median(&mut fork_ms), "ms"),
        measured("exp.fork_cell_ms.tail", tail(&mut fork_ms), "ms"),
        exact("exp.fork_cell_samples", fork_ms.len() as f64, "count"),
        measured("exp.journal_store_us", median(&mut store_us), "us"),
        measured("exp.journal_load_us", median(&mut load_us), "us"),
        measured("exp.resume_ms", resume.as_secs_f64() * 1e3, "ms"),
        measured("exp.to_json_ms", to_json.as_secs_f64() * 1e3, "ms"),
        exact(
            "exp.warm_share",
            per(keys.len() as u64, cells.len() as u64),
            "ratio",
        ),
        measured(
            "exp.sched_overhead_frac",
            1.0 - busy.as_secs_f64() / (JOBS as f64 * pass_wall.as_secs_f64()),
            "ratio",
        ),
        measured("ckpt.save_ms", median_ms(&saves), "ms"),
        measured("ckpt.restore_ms", median_ms(&restores), "ms"),
        exact("ckpt.bytes", warm[0].0.len() as f64, "bytes"),
    ])
}

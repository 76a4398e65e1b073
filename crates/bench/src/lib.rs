//! Simulator throughput micro-benchmark.
//!
//! Measures how fast the simulator itself runs: simulated instructions
//! committed per wall-clock second across the reference matrix
//! {RR, ICOUNT} × {standard, int8, fp8} on the 2.8 partition, plus the
//! real-binary [`RISCV_REFERENCE_MIX`] reference (checked-in rv64i ELFs
//! executed functionally through the `riscv:` workload backend). Later
//! performance PRs report against these baselines via the `smt_bench`
//! binary; `smt_bench --json` emits the machine-readable `"smt-bench"`
//! document (same `schema_version` convention as `smt_exp --json`, with
//! per-reference rates since version 3 and the optional `pgo` uplift
//! section since version 5) for
//! BENCH_*.json trajectory tracking, and the CI guard compares each
//! reference like for like.
//!
//! # Profiling the hot loop
//!
//! Two complementary tools, both already wired up:
//!
//! 1. **Per-phase wall clock** — the `phase-timing` feature in `smt-core`
//!    accumulates the cycle driver's seven phases (memory begin-cycle,
//!    miss completions, writeback, commit, issue, rename, fetch) into
//!    global counters. The front door is this crate's `--stage-timing`
//!    mode (requires the `stage-timing` feature, which forwards to the
//!    probes):
//!
//!    ```text
//!    cargo run --release -p smt-bench --features stage-timing -- 100000 --stage-timing
//!    ```
//!
//!    which prints each stage's wall clock, share and instructions
//!    through-rate; the raw counters are also printed by the smt-core
//!    `phase_timing` example. The probes cost ~15% of throughput (two
//!    `clock_gettime`s per phase), so the feature is compiled out of
//!    normal builds; treat the per-phase shares as accurate and the
//!    absolute total as inflated.
//!
//! 2. **Sampling profilers** — the release profile ships
//!    `debug = "line-tables-only"`, so `perf` / flamegraphs attribute the
//!    fully-inlined hot loop back to source lines with no rebuild:
//!
//!    ```text
//!    perf record --call-graph dwarf -F 999 -- target/release/smt_bench 400000
//!    perf report --no-children          # or: flamegraph target/release/smt_bench 400000
//!    ```
//!
//! What the steady-state profile should look like (reference machine,
//! warmed, block-granular front end): the seven phases split roughly
//! rename (~24%) > fetch ≈ issue (~20% each) > writeback (~17%) >
//! commit (~12%) > memory events (~7%), with **zero heap allocations per
//! cycle** (pinned by the allocation-guard test in this crate — a
//! counting global allocator over a warmed 5k-cycle window). Rename leads
//! because the block-granular path concentrates per-instruction work
//! there: the whole fetch block moves through one slab free-list
//! transaction and a flat block-local rename scratch, so fetch and
//! dispatch are mostly bulk cursor moves while rename does the per-operand
//! probes. Leaf components are cheap (oracle step and a predictor lookup
//! are each a few nanoseconds); the cycle cost is dominated by cache
//! traffic over the pipeline's own state, which is why the data layout
//! (packed 48-byte hot records, 4-byte slab handles, inline wakeup lists)
//! is the performance-critical part. A profile showing a *function*
//! hotspot — a hash probe, an allocator frame, a `memmove` — is a
//! regression signal, not background noise.
//!
//! A third, build-level lever rides on top: the PGO path
//! (`scripts/pgo.sh`, the `smt-pgo` converter crate) builds `smt_bench`
//! with `-Cprofile-use` against the committed `pgo/smt_bench.profdata`;
//! measured uplift lands in the bench document's `pgo` section
//! (schema 5) via `--pgo-from`, kept separate from the guarded plain
//! rates so the CI regression guard stays like for like.
//!
//! # Examples
//!
//! ```
//! use smt_bench::{bench_to_json, run_reference, ReferenceResult};
//!
//! let result = run_reference(400);
//! assert_eq!(result.cycles, 400);
//! assert!(result.ips() > 0.0);
//! let reference = ReferenceResult {
//!     name: smt_bench::reference_name("icount", "standard"),
//!     runs: vec![result],
//!     best: result,
//! };
//! let doc = bench_to_json(&[reference]);
//! assert!(doc.render().contains("\"kind\":\"smt-bench\""));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::time::{Duration, Instant};

use smt_core::SimConfig;
use smt_stats::json::Json;

/// Result of one timed simulation run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BenchResult {
    /// Simulated cycles executed.
    pub cycles: u64,
    /// Correct-path instructions committed.
    pub committed: u64,
    /// Wall-clock time spent inside `Simulator::run`.
    pub wall: Duration,
}

impl BenchResult {
    /// Simulated instructions committed per wall-clock second.
    pub fn ips(&self) -> f64 {
        self.committed as f64 / self.wall.as_secs_f64().max(1e-9)
    }

    /// Simulated cycles per wall-clock second.
    pub fn cps(&self) -> f64 {
        self.cycles as f64 / self.wall.as_secs_f64().max(1e-9)
    }

    /// This measurement as a JSON object (one entry of the `runs` array in
    /// the `"smt-bench"` document).
    pub fn to_json(&self) -> Json {
        Json::object([
            ("cycles", Json::from(self.cycles)),
            ("committed", Json::from(self.committed)),
            ("wall_seconds", Json::from(self.wall.as_secs_f64())),
            ("insts_per_second", Json::from(self.ips())),
            ("cycles_per_second", Json::from(self.cps())),
        ])
    }
}

/// Version of the `"smt-bench"` JSON document. Version 3 added the
/// multi-reference `references` map; version 4 added a `fleet` object
/// (since removed with its engine; readers ignore it in old baselines);
/// version 5 added the optional `pgo` object (`--pgo-from`, the uplift of
/// a profile-guided build over this one, reported separately so the
/// guarded reference rates stay plain-build like-for-like).
/// [`baseline_ips`] and [`baseline_reference_rates`] accept all versions.
pub const JSON_SCHEMA_VERSION: u64 = 5;

/// Fetch policies the multi-reference benchmark sweeps.
pub const REFERENCE_FETCHES: [&str; 2] = ["icount", "rr"];

/// Workload mixes the multi-reference benchmark sweeps (see
/// `smt_experiments::study::mix_by_name`).
pub const REFERENCE_MIXES: [&str; 3] = ["standard", "int8", "fp8"];

/// Canonical mix label of the real-binary reference: the three checked-in
/// rv64i ELFs (`loops`, `memsum`, `gcd` in `testdata/riscv/`) executed
/// functionally through the `riscv:` workload backend. The reference is
/// measured alongside the synthetic matrix and guarded under
/// `"ICOUNT/riscv3"` / `"RR/riscv3"`; baselines committed before the
/// backend existed simply lack those names, so the like-for-like guard
/// skips them against old documents.
pub const RISCV_REFERENCE_MIX: &str = "riscv3";

/// The custom-mix string behind [`RISCV_REFERENCE_MIX`]: a `+`-separated
/// `riscv:PATH` list over the checked-in test binaries, resolvable by
/// `smt_experiments::study::resolve_mix` (paths are fixed at compile time
/// relative to this crate, so the binary measures the same images from any
/// working directory).
pub fn riscv_reference_spec() -> String {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../testdata/riscv");
    format!("riscv:{dir}/loops.elf+riscv:{dir}/memsum.elf+riscv:{dir}/gcd.elf")
}

/// The canonical name of one benchmark reference, e.g. `"ICOUNT/standard"`
/// — also the key in the JSON document's `references` map, which the
/// regression guard uses to compare like for like.
pub fn reference_name(fetch: &str, mix: &str) -> String {
    let canonical = smt_core::fetch_policy_by_name(fetch)
        .map(|p| p.name().to_string())
        .unwrap_or_else(|| fetch.to_ascii_uppercase());
    format!("{canonical}/{mix}")
}

/// One fully-measured reference configuration: its timed runs and the best
/// (least-noisy) one.
#[derive(Debug, Clone)]
pub struct ReferenceResult {
    /// Canonical reference name ([`reference_name`]).
    pub name: String,
    /// Every timed run, in execution order.
    pub runs: Vec<BenchResult>,
    /// The run with the highest instruction rate.
    pub best: BenchResult,
}

impl ReferenceResult {
    /// Times `runs` measurements of the given configuration (after one
    /// short warmup run) and returns the collected reference.
    ///
    /// # Panics
    ///
    /// Panics if `fetch` or `mix` is not a known name.
    pub fn measure(fetch: &str, mix: &str, cycles: u64, runs: usize) -> ReferenceResult {
        Self::measure_labeled(fetch, mix, mix, cycles, runs)
    }

    /// [`ReferenceResult::measure`] with the reference reported under a
    /// separate canonical `label` — how the real-binary reference keeps
    /// the short [`RISCV_REFERENCE_MIX`] name in the JSON `references`
    /// map while the measured `mix` is a full `riscv:PATH+…` custom-mix
    /// string.
    ///
    /// # Panics
    ///
    /// Panics if `fetch` is not a known policy or `mix` does not resolve.
    pub fn measure_labeled(
        fetch: &str,
        mix: &str,
        label: &str,
        cycles: u64,
        runs: usize,
    ) -> ReferenceResult {
        let _ = run_configured(fetch, mix, cycles / 10);
        let results: Vec<BenchResult> = (0..runs.max(1))
            .map(|_| run_configured(fetch, mix, cycles))
            .collect();
        let best = *results
            .iter()
            .max_by(|a, b| a.ips().total_cmp(&b.ips()))
            .expect("at least one run");
        ReferenceResult {
            name: reference_name(fetch, label),
            runs: results,
            best,
        }
    }
}

/// Checkpoint micro-benchmark result for one reference configuration:
/// the warmed machine's checkpoint size plus best-of-N save and restore
/// latencies (`smt_bench --checkpoint`).
#[derive(Debug, Clone)]
pub struct CheckpointBench {
    /// Canonical reference name ([`reference_name`]).
    pub name: String,
    /// Cycles the machine was warmed before checkpointing.
    pub warm_cycles: u64,
    /// Serialized checkpoint size in bytes.
    pub bytes: u64,
    /// Best wall-clock time to serialize the checkpoint.
    pub save: Duration,
    /// Best wall-clock time to restore a simulator from the checkpoint.
    pub restore: Duration,
}

impl CheckpointBench {
    /// This measurement as a JSON object (one entry of the `checkpoints`
    /// map in the `"smt-bench"` document).
    pub fn to_json(&self) -> Json {
        Json::object([
            ("warm_cycles", Json::from(self.warm_cycles)),
            ("checkpoint_bytes", Json::from(self.bytes)),
            ("save_seconds", Json::from(self.save.as_secs_f64())),
            ("restore_seconds", Json::from(self.restore.as_secs_f64())),
        ])
    }
}

/// Measures checkpoint size and save/restore latency for one reference
/// `(fetch, mix)` machine warmed for `cycles` cycles; latencies are the
/// best of `runs` attempts. The restore is validated to land on the saved
/// cycle — this doubles as an in-process round-trip check on the reference
/// machines.
///
/// # Panics
///
/// Panics if `fetch` is not a known policy, `mix` does not resolve, or
/// the just-written checkpoint fails to restore (a bug, not an input
/// error).
pub fn bench_checkpoint(fetch: &str, mix: &str, cycles: u64, runs: usize) -> CheckpointBench {
    let images = smt_experiments::study::resolve_mix(mix, 42)
        .unwrap_or_else(|e| panic!("cannot resolve mix '{mix}': {e}"));
    let mk_cfg = || {
        let policy = smt_core::fetch_policy_by_name(fetch)
            .unwrap_or_else(|| panic!("unknown fetch policy '{fetch}'"));
        images
            .apply(SimConfig::new())
            .with_seed(42)
            .with_fetch(policy)
    };
    let mut sim = mk_cfg().build();
    for _ in 0..cycles {
        sim.step_cycle();
    }
    let mut bytes = Vec::new();
    sim.save_checkpoint(&mut bytes)
        .expect("writing a checkpoint to a Vec cannot fail");
    let mut save = Duration::MAX;
    let mut restore = Duration::MAX;
    for _ in 0..runs.max(1) {
        let mut buf = Vec::with_capacity(bytes.len());
        let start = Instant::now();
        sim.save_checkpoint(&mut buf)
            .expect("writing a checkpoint to a Vec cannot fail");
        save = save.min(start.elapsed());

        let cfg = mk_cfg();
        let start = Instant::now();
        let restored = smt_core::Simulator::restore_checkpoint(cfg, &mut bytes.as_slice())
            .expect("a just-written checkpoint must restore");
        restore = restore.min(start.elapsed());
        assert_eq!(restored.cycle(), sim.cycle(), "restore landed off-cycle");
    }
    CheckpointBench {
        name: reference_name(fetch, mix),
        warm_cycles: cycles,
        bytes: bytes.len() as u64,
        save,
        restore,
    }
}

/// Uplift of a profile-guided build over this (plain) one
/// (`smt_bench --pgo-from`): per-reference rate pairs, matched by name.
/// Lives in the schema-5 `pgo` object, *separate* from the `references`
/// map — the guarded rates always describe the plain build, so the CI
/// throughput guard and the committed `BENCH_*.json` trajectory stay
/// like-for-like whether or not a PGO build was measured alongside.
#[derive(Debug, Clone)]
pub struct PgoBench {
    /// `(reference name, PGO build insts/s, plain build insts/s)` for
    /// every reference present in both documents.
    pub entries: Vec<(String, f64, f64)>,
}

impl PgoBench {
    /// Geometric-mean uplift factor across the paired references.
    pub fn mean_uplift(&self) -> f64 {
        let log_sum: f64 = self
            .entries
            .iter()
            .map(|(_, pgo, plain)| (pgo / plain.max(1e-9)).ln())
            .sum();
        (log_sum / self.entries.len().max(1) as f64).exp()
    }

    /// This measurement as the `pgo` object of the `"smt-bench"` document
    /// (schema version 5).
    pub fn to_json(&self) -> Json {
        Json::object([
            (
                "references",
                Json::object(self.entries.iter().map(|(name, pgo, plain)| {
                    (
                        name.as_str(),
                        Json::object([
                            ("insts_per_sec", Json::from(*pgo)),
                            ("plain_insts_per_sec", Json::from(*plain)),
                            ("uplift", Json::from(pgo / plain.max(1e-9))),
                        ]),
                    )
                })),
            ),
            ("mean_uplift", Json::from(self.mean_uplift())),
        ])
    }
}

/// Pairs a PGO-built `smt_bench --json` document (the `--pgo-from` file,
/// written by `target/pgo/release/smt_bench`) against this run's measured
/// references, like for like by name. `None` when the text is not an
/// `"smt-bench"` document or shares no reference with `references`.
pub fn pgo_uplift(pgo_document: &str, references: &[ReferenceResult]) -> Option<PgoBench> {
    let pgo_rates = baseline_reference_rates(pgo_document)?;
    let entries: Vec<(String, f64, f64)> = references
        .iter()
        .filter_map(|r| {
            pgo_rates
                .iter()
                .find(|(name, _)| *name == r.name)
                .map(|&(_, pgo)| (r.name.clone(), pgo, r.best.ips()))
        })
        .collect();
    if entries.is_empty() {
        return None;
    }
    Some(PgoBench { entries })
}

/// The machine-readable benchmark document: one entry per measured
/// reference plus the headline. `smt_bench --json` writes this,
/// pretty-rendered.
///
/// The top-level `insts_per_sec` is the **best rate across references**
/// (the `reference` field names which one); per-reference rates live in
/// the `references` map, keyed by canonical name, and the CI guard
/// compares those like for like against the committed baseline.
pub fn bench_to_json(references: &[ReferenceResult]) -> Json {
    bench_to_json_with_checkpoints(references, &[])
}

/// [`bench_to_json`] plus the `--checkpoint` measurements: when
/// `checkpoints` is non-empty the document carries an additional
/// `checkpoints` map keyed by reference name (additive — documents
/// without the flag are identical).
pub fn bench_to_json_with_checkpoints(
    references: &[ReferenceResult],
    checkpoints: &[CheckpointBench],
) -> Json {
    bench_to_json_full(references, checkpoints, None)
}

/// The full `"smt-bench"` document: references, optional `--checkpoint`
/// measurements and the optional `--pgo-from` uplift (the `pgo` object,
/// schema version 5). Every optional section is additive —
/// omitting them yields the same document older PRs committed.
pub fn bench_to_json_full(
    references: &[ReferenceResult],
    checkpoints: &[CheckpointBench],
    pgo: Option<&PgoBench>,
) -> Json {
    let headline = references
        .iter()
        .max_by(|a, b| a.best.ips().total_cmp(&b.best.ips()))
        .expect("at least one reference");
    let mut fields = vec![
        ("schema_version", Json::from(JSON_SCHEMA_VERSION)),
        ("kind", Json::from("smt-bench")),
        ("reference", Json::from(headline.name.clone())),
        ("insts_per_sec", Json::from(headline.best.ips())),
        (
            "references",
            Json::object(references.iter().map(|r| {
                (
                    r.name.as_str(),
                    Json::object([
                        ("insts_per_sec", Json::from(r.best.ips())),
                        ("runs", Json::array(r.runs.iter().map(BenchResult::to_json))),
                        ("best", r.best.to_json()),
                    ]),
                )
            })),
        ),
    ];
    if !checkpoints.is_empty() {
        fields.push((
            "checkpoints",
            Json::object(checkpoints.iter().map(|c| (c.name.as_str(), c.to_json()))),
        ));
    }
    if let Some(pgo) = pgo {
        fields.push(("pgo", pgo.to_json()));
    }
    // Legacy mirror of the headline reference, so older consumers keep
    // parsing the document.
    fields.push((
        "runs",
        Json::array(headline.runs.iter().map(BenchResult::to_json)),
    ));
    fields.push(("best", headline.best.to_json()));
    Json::object(fields)
}

/// Extracts the headline insts/s rate from a rendered `"smt-bench"`
/// document, accepting every schema version (top-level `insts_per_sec`,
/// falling back to `best.insts_per_second`).
pub fn baseline_ips(text: &str) -> Option<f64> {
    let doc = Json::parse(text).ok()?;
    if doc.get("kind").and_then(Json::as_str) != Some("smt-bench") {
        return None;
    }
    doc.get("insts_per_sec")
        .and_then(Json::as_f64)
        .or_else(|| {
            doc.get("best")
                .and_then(|b| b.get("insts_per_second"))
                .and_then(Json::as_f64)
        })
        .filter(|v| *v > 0.0)
}

/// Per-reference `(name, insts_per_sec)` rates from a bench document. For
/// pre-version-3 documents — which measured only ICOUNT on the standard
/// mix — the single headline rate is returned under its canonical
/// `"ICOUNT/standard"` name, so like-for-like guards work across the whole
/// committed trajectory.
pub fn baseline_reference_rates(text: &str) -> Option<Vec<(String, f64)>> {
    let doc = Json::parse(text).ok()?;
    if doc.get("kind").and_then(Json::as_str) != Some("smt-bench") {
        return None;
    }
    if let Some(refs) = doc.get("references").and_then(Json::as_object) {
        return refs
            .iter()
            .map(|(name, entry)| Some((name.clone(), entry.get("insts_per_sec")?.as_f64()?)))
            .collect();
    }
    Some(vec![(
        reference_name("icount", "standard"),
        baseline_ips(text)?,
    )])
}

/// The PR number of a committed baseline file name (`BENCH_PR<N>.json`),
/// or `None` for any other name.
pub fn bench_pr_number(name: &str) -> Option<u64> {
    let digits = name.strip_prefix("BENCH_PR")?.strip_suffix(".json")?;
    if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

/// Finds the newest committed benchmark baseline in `dir`: the
/// `BENCH_PR<N>.json` file with the **highest PR number** (numeric, not
/// lexicographic — `BENCH_PR10.json` beats `BENCH_PR9.json`). Returns the
/// path and its PR number; `None` when the directory holds no baseline.
///
/// This is what the CI throughput guard pins against
/// (`smt_bench --baseline-latest DIR`), so the guard re-pins itself
/// automatically whenever a PR commits a newer `BENCH_*.json` — a guard
/// left on an old pre-speedup floor would let large regressions of the
/// *current* performance pass unnoticed.
pub fn find_latest_baseline(dir: &std::path::Path) -> Option<(std::path::PathBuf, u64)> {
    let mut best: Option<(std::path::PathBuf, u64)> = None;
    for entry in std::fs::read_dir(dir).ok()?.flatten() {
        let name = entry.file_name();
        let Some(n) = name.to_str().and_then(bench_pr_number) else {
            continue;
        };
        if best.as_ref().is_none_or(|&(_, b)| n > b) {
            best = Some((entry.path(), n));
        }
    }
    best
}

impl std::fmt::Display for BenchResult {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} cycles, {} committed in {:.3}s -> {:.0} kinsts/s ({:.0} kcycles/s)",
            self.cycles,
            self.committed,
            self.wall.as_secs_f64(),
            self.ips() / 1e3,
            self.cps() / 1e3,
        )
    }
}

/// Builds the reference machine (ICOUNT.2.8, standard 8-thread mix) and
/// times `cycles` simulated cycles. Construction and program generation are
/// excluded from the measurement.
pub fn run_reference(cycles: u64) -> BenchResult {
    run_configured("icount", "standard", cycles)
}

/// [`run_reference`] for an arbitrary `(fetch policy, mix)` reference, on
/// the 2.8 partition at seed 42 — one cell of the multi-reference
/// benchmark.
///
/// # Panics
///
/// Panics if `fetch` is not a known policy or `mix` does not resolve
/// (unknown name, bad custom-mix syntax, unreadable workload file).
pub fn run_configured(fetch: &str, mix: &str, cycles: u64) -> BenchResult {
    let images = smt_experiments::study::resolve_mix(mix, 42)
        .unwrap_or_else(|e| panic!("cannot resolve mix '{mix}': {e}"));
    let policy = smt_core::fetch_policy_by_name(fetch)
        .unwrap_or_else(|| panic!("unknown fetch policy '{fetch}'"));
    let mut sim = images
        .apply(SimConfig::new())
        .with_seed(42)
        .with_fetch(policy)
        .build();
    let start = Instant::now();
    let report = sim.run(cycles);
    let wall = start.elapsed();
    BenchResult {
        cycles,
        committed: report.total_committed(),
        wall,
    }
}

/// The seven pipeline-phase names, in the order `smt-core`'s `phase-timing`
/// probes accumulate them (and the order one simulated cycle runs them).
pub const STAGE_NAMES: [&str; 7] = [
    "mem.begin",
    "completions",
    "writeback",
    "commit",
    "issue",
    "rename",
    "fetch",
];

/// One pipeline stage's share of the reference run (`--stage-timing`).
#[cfg(feature = "stage-timing")]
#[derive(Debug, Clone, Copy)]
pub struct StageResult {
    /// Phase name ([`STAGE_NAMES`]).
    pub name: &'static str,
    /// Wall-clock nanoseconds accumulated inside the phase.
    pub nanos: u64,
    /// Committed instructions divided by this phase's seconds: how fast
    /// the simulator would run if this stage were the whole cycle — the
    /// per-stage insts/s that makes stages comparable across PRs even as
    /// the total shifts.
    pub insts_per_sec: f64,
}

/// Runs the reference machine (ICOUNT.2.8, standard mix) for `cycles`
/// and returns the committed-instruction count plus each pipeline
/// stage's accumulated wall clock and per-stage insts/s, measured by
/// `smt-core`'s `phase-timing` probes. Only meaningful in a process that
/// has not already run other simulations (the probes are global
/// accumulators).
#[cfg(feature = "stage-timing")]
pub fn run_stage_timing(cycles: u64) -> (u64, Vec<StageResult>) {
    let mut sim = SimConfig::new().build();
    let committed = sim.run(cycles).total_committed();
    let stages = STAGE_NAMES
        .iter()
        .zip(smt_core::pipeline_phase_ns())
        .map(|(&name, nanos)| StageResult {
            name,
            nanos,
            insts_per_sec: committed as f64 / (nanos as f64 / 1e9).max(1e-9),
        })
        .collect();
    (committed, stages)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_bench_runs_and_reports() {
        let r = run_reference(300);
        assert_eq!(r.cycles, 300);
        assert!(r.committed > 0);
        assert!(r.ips() > 0.0);
        let s = r.to_string();
        assert!(s.contains("committed"));
    }

    fn reference_of(r: BenchResult, fetch: &str, mix: &str) -> ReferenceResult {
        ReferenceResult {
            name: reference_name(fetch, mix),
            runs: vec![r],
            best: r,
        }
    }

    #[test]
    fn baseline_ips_reads_every_schema() {
        let r = run_reference(300);
        let doc = bench_to_json(&[reference_of(r, "icount", "standard")]);
        let ips = baseline_ips(&doc.render_pretty()).expect("current schema must parse");
        assert!((ips - r.ips()).abs() < 1e-9);
        // Original schema: no top-level field, only best.insts_per_second.
        let old = Json::object([
            ("schema_version", Json::from(1u64)),
            ("kind", Json::from("smt-bench")),
            ("best", r.to_json()),
        ]);
        assert!(baseline_ips(&old.render()).is_some());
        assert!(baseline_ips("{\"kind\":\"other\"}").is_none());
        assert!(baseline_ips("not json").is_none());
    }

    #[test]
    fn reference_rates_read_current_and_legacy_documents() {
        let mut fast = run_reference(300);
        let mut slow = fast;
        fast.wall = std::time::Duration::from_millis(10);
        slow.wall = std::time::Duration::from_millis(20);
        let doc = bench_to_json(&[
            reference_of(slow, "icount", "standard"),
            reference_of(fast, "rr", "fp8"),
        ]);
        let text = doc.render_pretty();
        // Headline is the best rate across references, and names it.
        let parsed = Json::parse(&text).unwrap();
        assert_eq!(
            parsed.get("reference").and_then(Json::as_str),
            Some("RR/fp8")
        );
        assert!((baseline_ips(&text).unwrap() - fast.ips()).abs() < 1e-9);
        // Per-reference rates survive the round trip, like for like.
        let rates = baseline_reference_rates(&text).unwrap();
        assert_eq!(rates.len(), 2);
        assert!(rates
            .iter()
            .any(|(n, v)| n == "ICOUNT/standard" && (v - slow.ips()).abs() < 1e-9));
        assert!(rates
            .iter()
            .any(|(n, v)| n == "RR/fp8" && (v - fast.ips()).abs() < 1e-9));
        // A legacy (pre-v3) document maps onto the ICOUNT/standard name.
        let legacy = Json::object([
            ("schema_version", Json::from(2u64)),
            ("kind", Json::from("smt-bench")),
            ("insts_per_sec", Json::from(123.0)),
        ]);
        assert_eq!(
            baseline_reference_rates(&legacy.render()),
            Some(vec![("ICOUNT/standard".to_string(), 123.0)])
        );
    }

    #[test]
    fn multi_reference_measure_covers_the_matrix() {
        // A tiny end-to-end sweep of the full {fetch} x {mix} matrix.
        for fetch in REFERENCE_FETCHES {
            for mix in REFERENCE_MIXES {
                let r = ReferenceResult::measure(fetch, mix, 300, 1);
                assert_eq!(r.name, reference_name(fetch, mix));
                assert_eq!(r.runs.len(), 1);
                assert!(r.best.committed > 0, "{} made no progress", r.name);
            }
        }
    }

    #[test]
    fn riscv_reference_measures_real_binaries() {
        // The real-binary reference: measured from a custom `riscv:` mix
        // string, reported under its short canonical label.
        let spec = riscv_reference_spec();
        let r = ReferenceResult::measure_labeled("icount", &spec, RISCV_REFERENCE_MIX, 400, 1);
        assert_eq!(r.name, "ICOUNT/riscv3");
        assert!(r.best.committed > 0, "real binaries made no progress");

        // Guard semantics: the committed (pre-backend) baseline carries no
        // riscv3 entry, so the like-for-like guard has nothing to compare
        // it against and skips it — while a current document does carry it
        // for future baselines to pin.
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("..")
            .join("..");
        let (path, _) = find_latest_baseline(&root).expect("committed BENCH_*.json present");
        let baseline = std::fs::read_to_string(&path).unwrap();
        let base_rates = baseline_reference_rates(&baseline).expect("baseline parses");
        assert!(
            base_rates.iter().all(|(n, _)| !n.ends_with("/riscv3")),
            "committed baseline unexpectedly already guards the riscv reference"
        );
        let doc = bench_to_json(std::slice::from_ref(&r)).render_pretty();
        let rates = baseline_reference_rates(&doc).unwrap();
        assert!(rates
            .iter()
            .any(|(n, v)| n == "ICOUNT/riscv3" && (v - r.best.ips()).abs() < 1e-9));
    }

    #[test]
    fn checkpoint_bench_measures_and_serializes() {
        let c = bench_checkpoint("icount", "standard", 400, 1);
        assert_eq!(c.name, "ICOUNT/standard");
        assert_eq!(c.warm_cycles, 400);
        assert!(c.bytes > 0, "checkpoint must have a size");
        assert!(c.save > Duration::ZERO && c.restore > Duration::ZERO);

        let r = run_reference(300);
        let refs = [reference_of(r, "icount", "standard")];
        // Additive: without checkpoints the document is unchanged …
        let plain = bench_to_json(&refs).render_pretty();
        assert!(!plain.contains("\"checkpoints\""));
        // … and with them it carries the per-reference map.
        let doc = bench_to_json_with_checkpoints(&refs, std::slice::from_ref(&c));
        let back = Json::parse(&doc.render_pretty()).unwrap();
        let entry = back
            .get("checkpoints")
            .and_then(|m| m.get("ICOUNT/standard"))
            .expect("checkpoint entry present");
        assert_eq!(
            entry.get("checkpoint_bytes").and_then(Json::as_u64),
            Some(c.bytes)
        );
        assert!(entry
            .get("restore_seconds")
            .and_then(Json::as_f64)
            .is_some_and(|v| v > 0.0));
    }

    #[test]
    fn pgo_uplift_pairs_like_for_like_and_serializes() {
        let mut plain = run_reference(300);
        plain.wall = Duration::from_millis(20);
        let mut faster = plain;
        faster.wall = Duration::from_millis(10); // the PGO build: 2x
        let refs = [
            reference_of(plain, "icount", "standard"),
            reference_of(plain, "rr", "fp8"),
        ];
        // The "PGO build's document": same references, one twice as fast,
        // plus one reference this run did not measure.
        let pgo_doc = bench_to_json(&[
            reference_of(faster, "icount", "standard"),
            reference_of(plain, "icount", "int8"),
            reference_of(plain, "rr", "fp8"),
        ])
        .render_pretty();
        let pgo = pgo_uplift(&pgo_doc, &refs).expect("shared references");
        // Only the two shared names pair up; ICOUNT/int8 is dropped.
        assert_eq!(pgo.entries.len(), 2);
        let by_name = |n: &str| {
            pgo.entries
                .iter()
                .find(|(name, _, _)| name == n)
                .map(|&(_, p, b)| p / b)
                .expect("entry present")
        };
        assert!((by_name("ICOUNT/standard") - 2.0).abs() < 1e-9);
        assert!((by_name("RR/fp8") - 1.0).abs() < 1e-9);
        assert!((pgo.mean_uplift() - 2.0f64.sqrt()).abs() < 1e-9);

        // Additive: the pgo object round-trips and leaves the guarded
        // reference rates untouched (plain-build numbers).
        let text = bench_to_json_full(&refs, &[], Some(&pgo)).render_pretty();
        let back = Json::parse(&text).unwrap();
        let entry = back
            .get("pgo")
            .and_then(|p| p.get("references"))
            .and_then(|r| r.get("ICOUNT/standard"))
            .expect("pgo entry present");
        assert!((entry.get("uplift").and_then(Json::as_f64).unwrap() - 2.0).abs() < 1e-9);
        let rates = baseline_reference_rates(&text).unwrap();
        assert!(rates.iter().all(|(_, v)| (v - plain.ips()).abs() < 1e-9));
        // A document with no shared references yields no measurement.
        let other = bench_to_json(&[reference_of(plain, "icount", "int8")]).render_pretty();
        assert!(pgo_uplift(&other, &refs).is_none());
        assert!(pgo_uplift("not json", &refs).is_none());
    }

    #[test]
    fn bench_pr_numbers_parse_strictly() {
        assert_eq!(bench_pr_number("BENCH_PR2.json"), Some(2));
        assert_eq!(bench_pr_number("BENCH_PR10.json"), Some(10));
        assert_eq!(bench_pr_number("BENCH_PR.json"), None);
        assert_eq!(bench_pr_number("BENCH_PR3.json.bak"), None);
        assert_eq!(bench_pr_number("BENCH_PRx.json"), None);
        assert_eq!(bench_pr_number("bench_pr3.json"), None);
        assert_eq!(bench_pr_number("section5.json"), None);
    }

    #[test]
    fn latest_baseline_picks_highest_pr_number_numerically() {
        let dir =
            std::env::temp_dir().join(format!("smt_bench_latest_test_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        assert_eq!(
            find_latest_baseline(&dir),
            None,
            "empty dir has no baseline"
        );
        // PR10 must beat PR9 (numeric order; lexicographic would pick PR9).
        for name in [
            "BENCH_PR2.json",
            "BENCH_PR9.json",
            "BENCH_PR10.json",
            "other.json",
        ] {
            std::fs::write(dir.join(name), "{}").unwrap();
        }
        let (path, n) = find_latest_baseline(&dir).expect("baselines present");
        assert_eq!(n, 10);
        assert_eq!(path.file_name().unwrap(), "BENCH_PR10.json");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn repo_root_latest_baseline_is_discoverable() {
        // The committed trajectory files themselves: the guard must pin to
        // the newest one (BENCH_PR3.json as of this PR) and it must parse.
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("..")
            .join("..");
        let (path, n) = find_latest_baseline(&root).expect("committed BENCH_*.json present");
        assert!(n >= 3, "newest committed baseline regressed to PR{n}");
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(
            baseline_ips(&text).is_some(),
            "{} is not a valid smt-bench document",
            path.display()
        );
    }

    #[test]
    fn bench_json_parses_and_carries_runs() {
        let r = run_reference(400);
        let doc = bench_to_json(&[ReferenceResult {
            name: reference_name("icount", "standard"),
            runs: vec![r, r],
            best: r,
        }]);
        let back = Json::parse(&doc.render_pretty()).expect("bench JSON must parse");
        assert_eq!(
            back.get("schema_version").and_then(Json::as_u64),
            Some(JSON_SCHEMA_VERSION)
        );
        assert_eq!(back.get("kind").and_then(Json::as_str), Some("smt-bench"));
        assert_eq!(
            back.get("runs").and_then(Json::as_array).map(<[_]>::len),
            Some(2)
        );
        assert!(back
            .get("best")
            .and_then(|b| b.get("insts_per_second"))
            .and_then(Json::as_f64)
            .is_some_and(|v| v > 0.0));
    }
}

//! `smt_bench` — simulator throughput baseline.
//!
//! Benchmarks the full reference matrix {RR, ICOUNT} × {standard, int8,
//! fp8} on the 2.8 partition — plus the real-binary `riscv3` reference
//! ({RR, ICOUNT} over the checked-in `testdata/riscv` ELFs, executed
//! functionally through the `riscv:` workload backend): a short warmup,
//! then three timed measurements per reference, reporting each
//! reference's best (least-noisy) rate. The headline number is the best
//! rate across references (historically ICOUNT/standard, the only
//! reference older baselines carry; baselines that predate the workload
//! backend likewise lack the riscv3 entries, which the like-for-like
//! guard then skips).
//!
//! ```text
//! smt_bench [CYCLES] [--json PATH] [--reference-only] [--checkpoint]
//!           [--pgo-from PATH] [--stage-timing]
//!           [--baseline PATH | --baseline-latest DIR] [--max-regress FRAC]
//! ```
//!
//! `CYCLES` defaults to 200000 simulated cycles per measurement; `--json`
//! additionally writes the machine-readable `"smt-bench"` document
//! (per-reference `insts_per_sec` under `references`). `--reference-only` measures just
//! ICOUNT/standard — the quick local check. `--checkpoint` additionally
//! measures each reference's warmed-state checkpoint: size in bytes plus
//! best-of-3 save and restore latency, printed and carried in the JSON
//! document's `checkpoints` map (additive). `--baseline` reads a previously written document (e.g. the
//! committed `BENCH_*.json` trajectory files) and prints the speedup
//! factor per reference; `--baseline-latest DIR` auto-picks the
//! `BENCH_PR<N>.json` in `DIR` with the highest PR number, so the
//! comparison re-pins itself whenever a newer baseline is committed. With
//! `--max-regress FRAC` the run exits non-zero when any reference present
//! in **both** documents fell more than `FRAC` (e.g. `0.30`) below its
//! like-for-like baseline rate — the CI throughput guard. (Old baselines
//! do not carry every reference; only names present in both are
//! guarded.)
//!
//! `--pgo-from PATH` reads the document written by a **profile-guided**
//! build of this same binary (`scripts/pgo.sh build`, then
//! `target/pgo/release/smt_bench --json ...`) and reports each shared
//! reference's PGO uplift, carried in this document's additive `pgo`
//! object (schema 5) — separate from the guarded plain-build rates.
//!
//! `--stage-timing` runs the reference machine once and prints each
//! pipeline stage's wall-clock share and per-stage insts/s instead of the
//! benchmark matrix. Requires building with `--features stage-timing`
//! (the probes cost throughput, so they are compiled out of normal
//! builds and of every number this binary reports elsewhere).

use smt_bench::{
    baseline_reference_rates, bench_checkpoint, bench_to_json_full, find_latest_baseline,
    pgo_uplift, riscv_reference_spec, CheckpointBench, PgoBench, ReferenceResult,
    REFERENCE_FETCHES, REFERENCE_MIXES, RISCV_REFERENCE_MIX,
};

fn main() {
    let mut cycles: u64 = 200_000;
    let mut json_path: Option<String> = None;
    let mut baseline_path: Option<String> = None;
    let mut max_regress: Option<f64> = None;
    let mut reference_only = false;
    let mut checkpoint = false;
    let mut pgo_from: Option<String> = None;
    let mut stage_timing = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => match args.next() {
                Some(path) => json_path = Some(path),
                None => die("--json requires a path"),
            },
            "--reference-only" => reference_only = true,
            "--checkpoint" => checkpoint = true,
            "--stage-timing" => stage_timing = true,
            "--pgo-from" => match args.next() {
                Some(path) => pgo_from = Some(path),
                None => die("--pgo-from requires a path"),
            },
            "--baseline" => match args.next() {
                Some(path) => match baseline_path {
                    None => baseline_path = Some(path),
                    Some(_) => die("use either --baseline or --baseline-latest, not both"),
                },
                None => die("--baseline requires a path"),
            },
            "--baseline-latest" => match args.next() {
                Some(_) if baseline_path.is_some() => {
                    die("use either --baseline or --baseline-latest, not both")
                }
                Some(dir) => match find_latest_baseline(std::path::Path::new(&dir)) {
                    Some((path, pr)) => {
                        println!("baseline: BENCH_PR{pr}.json (newest committed in {dir})");
                        baseline_path = Some(path.to_string_lossy().into_owned());
                    }
                    None => die(&format!("no BENCH_PR<N>.json baseline found in {dir}")),
                },
                None => die("--baseline-latest requires a directory"),
            },
            "--max-regress" => match args.next().and_then(|v| v.parse().ok()) {
                Some(frac) if (0.0..1.0).contains(&frac) => max_regress = Some(frac),
                _ => die("--max-regress requires a fraction in [0, 1)"),
            },
            _ => match arg.parse() {
                Ok(n) => cycles = n,
                Err(_) => die(&format!(
                    "usage: smt_bench [CYCLES] [--json PATH] [--reference-only] [--checkpoint] \
                     [--pgo-from PATH] [--stage-timing] \
                     [--baseline PATH | --baseline-latest DIR] [--max-regress FRAC]   \
                     (CYCLES must be a number, got '{arg}')"
                )),
            },
        }
    }
    if max_regress.is_some() && baseline_path.is_none() {
        die("--max-regress requires --baseline");
    }
    if stage_timing {
        run_stage_timing_mode(cycles);
        return;
    }

    let mut references: Vec<ReferenceResult> = Vec::new();
    let mut checkpoints: Vec<CheckpointBench> = Vec::new();
    for fetch in REFERENCE_FETCHES {
        for mix in REFERENCE_MIXES {
            if reference_only && (fetch != "icount" || mix != "standard") {
                continue;
            }
            let r = ReferenceResult::measure(fetch, mix, cycles, 3);
            for (i, run) in r.runs.iter().enumerate() {
                println!("{:16} run {}: {run}", r.name, i + 1);
            }
            println!("{:16} best : {}", r.name, r.best);
            references.push(r);
            if checkpoint {
                let c = bench_checkpoint(fetch, mix, cycles, 3);
                println!(
                    "{:16} ckpt : {} bytes, save {:.3} ms, restore {:.3} ms \
                     (warmed {} cycles)",
                    c.name,
                    c.bytes,
                    c.save.as_secs_f64() * 1e3,
                    c.restore.as_secs_f64() * 1e3,
                    c.warm_cycles
                );
                checkpoints.push(c);
            }
        }
    }
    if !reference_only {
        // The real-binary reference: checked-in rv64i ELFs executed
        // functionally, guarded under the short riscv3 label (skipped
        // against baselines that predate the workload backend).
        let spec = riscv_reference_spec();
        for fetch in REFERENCE_FETCHES {
            let r = ReferenceResult::measure_labeled(fetch, &spec, RISCV_REFERENCE_MIX, cycles, 3);
            for (i, run) in r.runs.iter().enumerate() {
                println!("{:16} run {}: {run}", r.name, i + 1);
            }
            println!("{:16} best : {}", r.name, r.best);
            references.push(r);
        }
    }
    let headline = references
        .iter()
        .max_by(|a, b| a.best.ips().total_cmp(&b.best.ips()))
        .expect("at least one reference measured");
    println!(
        "headline: {} at {:.0} kinsts/s",
        headline.name,
        headline.best.ips() / 1e3
    );

    let pgo_result: Option<PgoBench> = pgo_from.map(|path| {
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| die(&format!("failed to read PGO document {path}: {e}")));
        let pgo = pgo_uplift(&text, &references)
            .unwrap_or_else(|| die(&format!("{path} shares no reference with this run")));
        for (name, pgo_ips, plain_ips) in &pgo.entries {
            println!(
                "pgo {:16} {:.2}x ({:.0} -> {:.0} kinsts/s)",
                name,
                pgo_ips / plain_ips,
                plain_ips / 1e3,
                pgo_ips / 1e3
            );
        }
        println!(
            "pgo mean uplift : {:.2}x over the plain build ({path})",
            pgo.mean_uplift()
        );
        pgo
    });

    if let Some(path) = json_path {
        let doc = bench_to_json_full(&references, &checkpoints, pgo_result.as_ref());
        if let Err(e) = std::fs::write(&path, doc.render_pretty()) {
            die(&format!("failed to write {path}: {e}"));
        }
        println!("wrote {path}");
    }

    if let Some(path) = baseline_path {
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| die(&format!("failed to read baseline {path}: {e}")));
        let base_rates = baseline_reference_rates(&text)
            .unwrap_or_else(|| die(&format!("{path} carries no reference rates")));
        // Headline speedup only when the baseline measured the same
        // reference — anything else would compare apples to oranges
        // (e.g. --reference-only's ICOUNT/standard against a full
        // baseline's fastest mix).
        if let Some(&(_, base)) = base_rates.iter().find(|(name, _)| *name == headline.name) {
            println!(
                "headline speedup vs {path} ({}): {:.2}x ({:.0} kinsts/s -> {:.0} kinsts/s)",
                headline.name,
                headline.best.ips() / base,
                base / 1e3,
                headline.best.ips() / 1e3
            );
        }
        // Like-for-like comparison: only references present in both runs.
        let mut regressed = Vec::new();
        for r in &references {
            let Some(&(_, base)) = base_rates.iter().find(|(n, _)| *n == r.name) else {
                continue;
            };
            let (name, now) = (r.name.as_str(), r.best.ips());
            println!(
                "  {:16} {:.2}x ({:.0} -> {:.0} kinsts/s)",
                name,
                now / base,
                base / 1e3,
                now / 1e3
            );
            if let Some(frac) = max_regress {
                if now < base * (1.0 - frac) {
                    regressed.push((name.to_string(), base, now));
                }
            }
        }
        if let Some(frac) = max_regress {
            if regressed.is_empty() {
                println!(
                    "throughput guard: OK (no reference more than {:.0}% below its baseline)",
                    frac * 100.0
                );
            } else {
                for (name, base, now) in &regressed {
                    eprintln!(
                        "THROUGHPUT REGRESSION: {name} at {:.0} kinsts/s is more than {:.0}% \
                         below its baseline's {:.0} kinsts/s",
                        now / 1e3,
                        frac * 100.0,
                        base / 1e3
                    );
                }
                std::process::exit(1);
            }
        }
    }
}

/// `--stage-timing`: one reference run, per-stage wall clock and insts/s.
#[cfg(feature = "stage-timing")]
fn run_stage_timing_mode(cycles: u64) {
    let (committed, stages) = smt_bench::run_stage_timing(cycles);
    let total: u64 = stages.iter().map(|s| s.nanos).sum();
    println!("{cycles} cycles, {committed} committed (reference machine, probes on)");
    for s in &stages {
        println!(
            "{:12} {:8.1} ms  {:5.1}%  {:8.0} kinsts/s through stage",
            s.name,
            s.nanos as f64 / 1e6,
            s.nanos as f64 / total as f64 * 100.0,
            s.insts_per_sec / 1e3,
        );
    }
    println!(
        "total        {:8.1} ms  ({:.0} kinsts/s with probes; plain-build rates are higher)",
        total as f64 / 1e6,
        committed as f64 / (total as f64 / 1e9) / 1e3,
    );
}

#[cfg(not(feature = "stage-timing"))]
fn run_stage_timing_mode(_cycles: u64) {
    die(
        "--stage-timing needs the timing probes compiled in: \
         cargo run --release -p smt-bench --features stage-timing --bin smt_bench -- --stage-timing",
    );
}

fn die(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(1);
}

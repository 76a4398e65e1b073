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
//! smt_bench [CYCLES] [--json PATH] [--reference-only]
//!           [--baseline PATH | --baseline-latest DIR] [--max-regress FRAC]
//! ```
//!
//! `CYCLES` defaults to 200000 simulated cycles per measurement and must
//! be positive; `--json` additionally writes the machine-readable
//! `"smt-bench"` document (per-reference `insts_per_sec` under
//! `references`). `--reference-only` measures just ICOUNT/standard — the
//! quick local check. `--baseline` reads a previously written document (e.g. the
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
//! Per-phase shares and checkpoint costs are the repository benchmark's
//! job: `python3 perfbench/run.py --trace 1` (see `perfbench/README.md`).

use smt_bench::{
    baseline_reference_rates, bench_to_json, find_latest_baseline, riscv_reference_spec,
    ReferenceResult, REFERENCE_FETCHES, REFERENCE_MIXES, RISCV_REFERENCE_MIX,
};

const USAGE: &str = "usage: smt_bench [CYCLES] [--json PATH] [--reference-only] \
                     [--baseline PATH | --baseline-latest DIR] [--max-regress FRAC]";

fn main() {
    let mut cycles: u64 = 200_000;
    let mut json_path: Option<String> = None;
    let mut baseline_path: Option<String> = None;
    let mut max_regress: Option<f64> = None;
    let mut reference_only = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => match args.next() {
                Some(path) => json_path = Some(path),
                None => die("--json requires a path"),
            },
            "--reference-only" => reference_only = true,
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
                Ok(0) => die(&format!("{USAGE}   (CYCLES must be positive, got 0)")),
                Ok(n) => cycles = n,
                Err(_) => die(&format!(
                    "{USAGE}   (unknown option or non-numeric CYCLES '{arg}')"
                )),
            },
        }
    }
    if max_regress.is_some() && baseline_path.is_none() {
        die("--max-regress requires --baseline");
    }

    let mut references: Vec<ReferenceResult> = Vec::new();
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

    if let Some(path) = json_path {
        let doc = bench_to_json(&references);
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

fn die(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(1);
}

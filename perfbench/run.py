#!/usr/bin/env python3
"""The repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload sim-standard --seed 42 --seconds 10 --trace 0

Builds the `perfbench` package twice from source (a plain build, and a
traced build that compiles smt-core's phase probes), runs one workload and
prints a table of every metric with its unit, the build that produced it
and whether it is an exact-match count. The last line of standard output
is one JSON object with the keys `correct`, `attempted`, `failed` and
`metrics`:

* `--trace 0` reports the end-to-end metrics, measured by the plain build
  with tracing off.
* `--trace 1` reports the per-layer metrics: a plain run for half the time
  (the untraced reference), then a traced run for the other half followed
  by the per-layer probes. The tracing overhead is the difference between
  the two runs' end-to-end rates.

The metric names, units and workloads come from BENCHMARK.json at the
repository root. Builds go to $CARGO_TARGET_DIR (default `.bench_build`),
one directory per build; scratch files and the span file go there too.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import threading

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
MANIFEST = os.path.join(BENCH_DIR, "Cargo.toml")

# What the benchmark needs from the repository besides its own directory.
REQUIRED = [
    "BENCHMARK.json",
    "Cargo.toml",
    "crates/core/Cargo.toml",
    "crates/experiments/Cargo.toml",
    "crates/mem/Cargo.toml",
    "crates/branch/Cargo.toml",
    "crates/workload/Cargo.toml",
    "testdata/riscv/loops.elf",
    "testdata/riscv/memsum.elf",
    "testdata/riscv/gcd.elf",
]

# A child that outlives this is killed: the whole run must end in 180 s.
CHILD_TIMEOUT_S = 150


class BenchError(Exception):
    pass


def load_spec(root):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        return json.load(f)


def target_base(root):
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(root, base)


def build(root, variant):
    """Builds one variant ("plain" or "traced") and returns its binary."""
    target = os.path.join(target_base(root), "perfbench-" + variant)
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", MANIFEST, "--target-dir", target,
    ]
    if variant == "traced":
        cmd += ["--features", "traced"]
    done = subprocess.run(cmd, cwd=root, stdout=sys.stderr)
    if done.returncode != 0:
        raise BenchError(f"cargo build of the {variant} benchmark failed")
    return os.path.join(target, "release", "perfbench")


def run_child(root, cmd):
    """Runs one measuring process; returns its JSON line."""
    proc = subprocess.Popen(cmd, cwd=root, stdout=subprocess.PIPE)
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
    finally:
        timer.cancel()
        proc.stdout.close()
        proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"{os.path.basename(cmd[0])} exited with {proc.returncode}")
    lines = out.decode().strip().splitlines()
    if not lines:
        raise BenchError("the measuring process printed nothing")
    return json.loads(lines[-1])


def measure(root, workload, seed, seconds, trace):
    """Builds, runs and returns (records, attempted, failed, host cpus).

    Each record is a dict with name, value, unit, build, exact and
    reported (whether the result line carries it).
    """
    spec = load_spec(root)
    names = [w["name"] for w in spec["workloads"]]
    if workload not in names:
        raise BenchError(f"unknown workload '{workload}' (known: {', '.join(names)})")
    plain = build(root, "plain")
    traced = build(root, "traced")

    base = target_base(root)
    scratch = os.path.join(base, "perfbench-scratch", str(os.getpid()))
    common = ["--workload", workload, "--seed", str(seed)]
    records = []
    try:
        if not trace:
            doc = run_child(root, [plain, *common, "--seconds", str(seconds),
                                   "--mode", "e2e", "--scratch", scratch])
            docs = [doc]
        else:
            half = str(seconds / 2)
            ref = run_child(root, [plain, *common, "--seconds", half,
                                   "--mode", "e2e", "--scratch", scratch])
            spans = os.path.join(base, "perfbench-spans", f"{workload}-seed{seed}.json")
            doc = run_child(root, [traced, *common, "--seconds", half,
                                   "--mode", "trace", "--scratch", scratch,
                                   "--spans", spans])
            docs = [ref, doc]
            records.append(dict(name="trace.overhead_frac",
                                value=1.0 - doc["primary"] / ref["primary"],
                                unit="ratio", build="traced", exact=False))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    for d in docs:
        for m in d["metrics"]:
            records.append(dict(m, build=d["build"]))
    attempted = sum(d["attempted"] for d in docs)
    failed = sum(d["failed"] for d in docs)
    records.append(dict(name="failed_frac", value=failed / attempted, unit="ratio",
                        build="plain+traced" if trace else "plain", exact=True))

    # Keep each wanted metric from the process that owns it: on a traced
    # run the host-time core cost comes from the plain reference, the rest
    # from the traced process.
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    by_name = {}
    for r in records:
        if r["name"] == "core.ns_per_cycle" and r["build"] != "plain":
            continue
        by_name.setdefault(r["name"], r)
    out = []
    for w in wanted:
        r = by_name.get(w["name"])
        if r is None:
            raise BenchError(f"metric {w['name']} was not measured")
        if r["unit"] != w["unit"]:
            raise BenchError(f"metric {w['name']} measured in {r['unit']}, "
                             f"BENCHMARK.json says {w['unit']}")
        out.append(dict(r, reported=True))
    # The sample count behind the timings: printed in the table, not
    # part of the result.
    for d in docs:
        out += [dict(m, build=d["build"], reported=False)
                for m in d["metrics"] if m["name"] == "bench.repeats"]
    return out, attempted, failed, docs[0]["cpus"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    root = os.getcwd()
    missing = [p for p in REQUIRED if not os.path.exists(os.path.join(root, p))]
    if missing:
        print(f"perfbench: not a checkout of the repository (missing {', '.join(missing)}); "
              "run from the repository root", file=sys.stderr)
        return 2
    try:
        records, attempted, failed, cpus = measure(root, args.workload, args.seed,
                                                   args.seconds, bool(args.trace))
    except (BenchError, OSError, ValueError, KeyError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1

    print(f"perfbench {args.workload} seed {args.seed}: {args.seconds:g} s, "
          f"trace {args.trace}, {cpus} host cpus")
    print(f"{'metric':44} {'value':>16} {'unit':12} {'build':13} exact")
    for r in records:
        print(f"{r['name']:44} {r['value']:>16.6g} {r['unit']:12} {r['build']:13} "
              f"{'yes' if r['exact'] else ''}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {r["name"]: {"value": r["value"], "unit": r["unit"]}
                    for r in records if r["reported"]},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

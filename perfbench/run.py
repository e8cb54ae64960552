#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the opd workspace.

    python3 perfbench/run.py --workload <paper|grid|soak> --seed <n>
                             --seconds <s> --trace <0|1> [--size full|tiny]
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --pin --workload <w> [--size s] [--seed n]

Builds the measurement binary (the Cargo package next to this file)
from the repository's sources, runs one workload for `--seconds`,
checks every sample's output digest against `reference.json`, and
prints the run context, the classification of the sample series and,
as the last line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end metrics of
BENCHMARK.json, with `--trace 1` its per-layer metrics (0 for a layer
the workload does not exercise). Exits 1 if an output check fails and 2
if the benchmark cannot be built or run.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("paper", "grid", "soak")
# The soak's default seed: opd_experiments::serve::SERVE_SEED.
SERVE_SEED = 0x5E12_7E06
# Longest a single measurement process may take before it is killed.
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_json(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def build():
    """Builds the measurement binary and returns its path."""
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates" / "experiments").is_dir():
        fail(f"no opd workspace at {ROOT}: the benchmark builds it from source")
    target = Path(os.environ.get("CARGO_TARGET_DIR", ROOT / ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    cmd = ["cargo", "build", "--release", "--offline", "-q", "-j", "2",
           "--manifest-path", str(HERE / "Cargo.toml")]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if done.returncode != 0:
        fail("build failed")
    return target / "release" / "perfbench"


def measure(binary, workload, seed, seconds, trace, size, cross_check):
    """Runs one measurement process and returns its parsed report."""
    tmp = ROOT / ".bench_tmp"
    cmd = [str(binary), "--workload", workload, "--seconds", str(seconds),
           "--trace", "1" if trace else "0", "--size", size, "--tmp", str(tmp)]
    if seed is not None:
        cmd += ["--seed", str(seed)]
    if cross_check:
        cmd.append("--cross-check")
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"measurement failed: {e}")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if done.returncode != 0:
        fail(f"measurement exited with {done.returncode}")
    try:
        return json.loads(done.stdout.decode().strip().splitlines()[-1])
    except (ValueError, IndexError):
        fail("measurement printed no report")


def reference_digest(workload, size, seed):
    """The pinned digest for this input, or None if it is not pinned."""
    pinned = load_json(HERE / "reference.json").get(workload, {}).get(size)
    if workload == "soak":
        return (pinned or {}).get(str(SERVE_SEED if seed is None else seed))
    return pinned


def classify(xs):
    """Classifies a sample series after Barrett et al. (OOPSLA 2017).

    Splits the series at the single changepoint that best separates a
    first segment from a final (steady) segment of at least two samples.
    A shift of more than 5% of the median with no overlap between the
    segments is warmup (the series got faster) or slowdown (slower).
    Otherwise the series is flat if its quartile spread is within 10%
    of its median, else it has no steady state.
    """
    n = len(xs)
    if n < 3:
        return f"unclassified ({n} samples)"
    med = statistics.median(xs)

    def sse(seg):
        m = statistics.fmean(seg)
        return sum((x - m) ** 2 for x in seg)

    k = min(range(1, n - 1), key=lambda k: sse(xs[:k]) + sse(xs[k:]))
    first, last = xs[:k], xs[k:]
    shift = statistics.fmean(last) - statistics.fmean(first)
    if abs(shift) > 0.05 * med:
        if shift < 0 and max(last) < min(first):
            return f"warmup (steady from sample {k + 1})"
        if shift > 0 and min(last) > max(first):
            return f"slowdown (from sample {k + 1})"
    q1, _, q3 = statistics.quantiles(xs, n=4)
    return "flat" if q3 - q1 <= 0.10 * med else "no steady state"


def tool_version(cmd):
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def evaluate(bench, report, workload, size, seed, trace):
    """Checks the report's outputs and reduces it to the metrics."""
    ref = reference_digest(workload, size, seed)
    digests = report["digest"]
    walls = report["wall_s"]
    # A sample fails if its output does not match the pinned digest
    # (or, for an unpinned soak seed, the run's own first sample, which
    # the single-thread cross-check ties to an independent run).
    expected = ref if ref is not None else digests[0]
    fail_frac = [1.0 if d != expected else f for d, f in zip(digests, report["fail_frac"])]
    failed = sum(1 for f in fail_frac if f >= 1.0)
    checks = report.get("checks", {})
    correct = failed == 0 and all(checks.values())

    if trace:
        layers = dict(report.get("layers", {}))
        ops = layers.get("core.sweep.compare_ops", 0.0)
        if ops:
            layers["core.sweep.ns_per_compare_op"] = layers["core.sweep.busy_s"] * 1e9 / ops
        values = {m["name"]: layers.get(m["name"], 0.0) for m in bench["per_layer"]}
        units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    else:
        values = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(report["setup_s"]),
            "work_per_s": statistics.median(w / t for w, t in zip(report["work"], walls)),
            "peak_rss_mb": report["peak_rss_mb"],
            "ok_frac": 1.0 - statistics.fmean(fail_frac),
        }
        units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    context = {
        "workload": workload,
        "size": size,
        "seed": seed,
        "inputs": ("soak frame source and hazards from the seed (default SERVE_SEED)"
                   if workload == "soak" else
                   "fixed by the MicroVM workload definitions; the seed is recorded only"),
        "nproc": report["nproc"],
        "threads": report["threads"],
        "rustc": tool_version(["rustc", "-V"]),
        "commit": (tool_version(["git", "rev-parse", "HEAD"]) if (ROOT / ".git").exists()
                   else "unknown (not a git checkout)"),
        "samples": {"wall_s": len(walls), "setup_s": len(walls), "work_per_s": len(walls),
                    "ok_frac": len(walls), "peak_rss_mb": 1},
        "wall_s_quartiles": statistics.quantiles(walls, n=4) if len(walls) > 1 else walls,
        "wall_s_range": [min(walls), max(walls)],
        "warmup_s": report["warmup_s"],
        "work_unit": report["work_unit"],
        "reference": "pinned" if ref is not None else "unpinned seed: cross-checked at 1 thread",
        "checks": checks,
        "series": {"wall_s": classify(walls)},
    }
    return correct, len(walls), failed, metrics, context


# The names the workloads' throughput goes by; `work_per_s` carries it
# under one name so every workload reports every end-to-end metric.
THROUGHPUT_ALIAS = {"grid": "config_steps_per_s", "soak": "frames_per_s",
                    "paper": "artifacts_per_s"}


def print_report(correct, attempted, failed, metrics, context, trace):
    print("context " + json.dumps(context, sort_keys=True))
    samples = context["samples"]
    targets = load_json(HERE / "layers.json") if trace else {}
    for name, m in metrics.items():
        n = samples.get(name, 1)
        note = f"  -> {targets.get(name, '?')}" if trace else f"  {n} samples" if n > 1 else ""
        print(f"{name:30} {m['value']:<14.6g} {m['unit']:6}{note}")
    if not trace:
        alias = THROUGHPUT_ALIAS[context["workload"]]
        print(f"{alias:30} {metrics['work_per_s']['value']:<14.6g} 1/s     (work_per_s)")
        print(f"{'fail_frac':30} {1 - metrics['ok_frac']['value']:<14.6g} ratio  (1 - ok_frac)")
    series = context["series"]["wall_s"]
    if series != "flat":
        print(f"warning: wall_s series is {series}, not flat")
    if not correct:
        print(f"OUTPUT CHECK FAILED: {failed} of {attempted} samples, checks {context['checks']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


def run_once(binary, bench, workload, seed, seconds, trace, size, quiet=False):
    ref = reference_digest(workload, size, seed)
    cross_check = workload == "soak" and ref is None
    report = measure(binary, workload, seed, seconds, trace, size, cross_check)
    result = evaluate(bench, report, workload, size, seed, trace)
    if not quiet:
        print_report(*result, trace)
    return result


def self_test(binary, bench):
    """A tiny-size run of every workload, untraced and traced: each must
    print every named metric with its unit and pass its output check."""
    targets = load_json(HERE / "layers.json")
    ok = True
    missing = [m["name"] for m in bench["per_layer"] if m["name"] not in targets]
    if missing:
        print(f"FAIL layers.json lacks targets for {missing}")
        ok = False
    for workload in WORKLOADS:
        for trace in (False, True):
            correct, attempted, failed, metrics, _ = run_once(
                binary, bench, workload, None, 1, trace, "tiny", quiet=True)
            wanted = bench["per_layer" if trace else "end_to_end"]
            absent = [m["name"] for m in wanted
                      if metrics.get(m["name"], {}).get("unit") != m["unit"]]
            good = correct and not absent and attempted >= 1
            ok &= good
            print(f"{'PASS' if good else 'FAIL'} {workload} trace={int(trace)}: "
                  f"{attempted} samples, {failed} failed, missing {absent}")
    return ok


def pin(binary, bench, workload, size, seed):
    """Records the current output digest as the reference for this input."""
    report = measure(binary, workload, seed, 1, False, size, False)
    digests = set(report["digest"])
    if len(digests) != 1 or not all(report.get("checks", {}).values()):
        fail(f"outputs disagree between samples: {sorted(digests)}")
    path = HERE / "reference.json"
    refs = load_json(path) if path.exists() else {}
    digest = digests.pop()
    if workload == "soak":
        key = str(SERVE_SEED if seed is None else seed)
        refs.setdefault(workload, {}).setdefault(size, {})[key] = digest
    else:
        refs.setdefault(workload, {})[size] = digest
    with open(path, "w", encoding="utf-8") as f:
        json.dump(refs, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"pinned {workload}/{size} seed {seed}: {digest}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--pin", action="store_true")
    args = parser.parse_args()
    if args.seed is not None and not 0 <= args.seed < 2**64:
        parser.error("--seed must fit in 64 unsigned bits")
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")

    binary = build()
    bench = load_json(ROOT / "BENCHMARK.json")
    if args.self_test:
        sys.exit(0 if self_test(binary, bench) else 1)
    if args.pin:
        pin(binary, bench, args.workload, args.size, args.seed)
        return
    correct, *_ = run_once(binary, bench, args.workload, args.seed, args.seconds,
                                bool(args.trace), args.size)
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Build and run the repository's benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selfcheck
    python3 perfbench/run.py --steadiness RUNS [--seconds S] [--workload NAME]

The first form builds the benchmark package (perfbench/Cargo.toml) in
release mode, refuses a binary whose source stamp differs from the
checked-out tree, runs one workload and passes its output through: the
last line of stdout is the result object. `--selfcheck` runs the
benchmark's own tests and checks that work counters repeat exactly across
runs. `--steadiness` runs every workload RUNS times on distinct seeds and
prints each end-to-end metric's interquartile spread against its bound.
Build output goes to $CARGO_TARGET_DIR, default .bench_build in the
repository root; generated inputs go under it too.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# infer-k4 runs, and --selfcheck uses it, but BENCHMARK.json does not list
# it: its run-to-run spread is wider than any bound the benchmark may set
WORKLOADS = ["ap-solve-k6", "daemon-edits-k12", "infer-k4"]


def fail(message, code=1):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(code)


def target_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))


def cargo_env():
    return dict(os.environ, CARGO_TARGET_DIR=target_dir())


def build():
    """Builds the benchmark package and returns the checked binary path."""
    if not os.path.isdir(os.path.join(ROOT, "crates")):
        fail("the workspace sources (crates/) are missing; run from a full checkout")
    cmd = ["cargo", "build", "--release", "--offline", "--manifest-path",
           os.path.join(HERE, "Cargo.toml")]
    if subprocess.run(cmd, stdout=sys.stderr, env=cargo_env()).returncode != 0:
        fail("building the benchmark failed")
    binary = os.path.join(target_dir(), "release", "perfbench")
    # the binary recomputes the tree's stamp and compares it with its own
    if subprocess.run([binary, "stamp", "--check", ROOT]).returncode != 0:
        fail("refusing a binary built from other sources", 3)
    return binary


def tool_output(cmd):
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def catalogue(traced):
    """The metric names BENCHMARK.json promises for this kind of run."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if traced else "end_to_end"]]


def run_once(binary, workload, seed, seconds, trace, echo=True):
    """Runs one workload; returns (report, result) or exits on failure."""
    cmd = [binary, "run", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--work-dir", os.path.join(target_dir(), "perfbench-inputs"),
           "--rustc", tool_output(["rustc", "--version"]),
           "--commit", tool_output(["git", "rev-parse", "HEAD"])
           if os.path.isdir(os.path.join(ROOT, ".git")) else "none"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        fail(f"{workload} exited with {proc.returncode}")
    report, result = json.loads(lines[-2])["report"], json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail(f"{workload}: malformed result line")
    names = catalogue(trace == 1)
    if names is not None and list(result["metrics"]) != names:
        fail(f"{workload}: metrics {list(result['metrics'])} do not match BENCHMARK.json {names}")
    if echo:
        print("\n".join(lines))
        sys.stdout.flush()
    return report, result


def selfcheck(binary, seconds):
    """The benchmark's own tests, then work counters repeated across runs:
    infer-k4 on two seeds (its destinations are symmetric), and on one seed
    twice: the traced infer-k4 run, the 1-thread traced passes of
    ap-solve-k6, and the daemon's seeded dirty cones."""
    cmd = ["cargo", "test", "--release", "--offline", "--manifest-path",
           os.path.join(HERE, "Cargo.toml")]
    if subprocess.run(cmd, env=cargo_env()).returncode != 0:
        fail("the benchmark's tests failed")
    ok = True
    for workload, seeds, trace in [("infer-k4", [1, 2], 0), ("infer-k4", [3, 3], 1),
                                   ("ap-solve-k6", [4, 4], 1), ("daemon-edits-k12", [6, 6], 0)]:
        runs = [run_once(binary, workload, s, seconds, trace, echo=False) for s in seeds]
        counters = [report["counters"] for report, _ in runs]
        correct = all(result["correct"] for _, result in runs)
        same = counters[0] == counters[1] and counters[0] != {}
        print(f"{workload} seeds {seeds} trace {trace}: counters "
              f"{'repeat' if same else 'DIFFER'} {counters[0]}"
              + ("" if same else f" vs {counters[1]}")
              + ("" if correct else "; a run was not correct"), flush=True)
        ok = ok and same and correct
    if not ok:
        fail("selfcheck failed")
    print("selfcheck passed")


def steadiness(binary, runs, seconds, workloads):
    """Runs each workload (default: those BENCHMARK.json lists) on `runs`
    seeds and prints, per end-to-end metric, the median and the
    interquartile spread as a share of it."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    bounds = {}
    if os.path.isfile(path):
        with open(path) as f:
            spec = json.load(f)
        bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
        workloads = workloads or [w["name"] for w in spec["workloads"]]
    for workload in workloads or WORKLOADS:
        values = {}
        for seed in range(1, runs + 1):
            _, result = run_once(binary, workload, seed, seconds, 0, echo=False)
            line = " ".join(f"{n}={m['value']:.6g}" for n, m in result["metrics"].items())
            print(f"{workload:18} seed {seed:2} correct={result['correct']} {line}", flush=True)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        for name, xs in values.items():
            q1, med, q3 = statistics.quantiles(xs, n=4)
            spread = (q3 - q1) / med
            bound = bounds.get(name)
            mark = "" if bound is None else f"  bound {bound}  {'ok' if spread <= bound / 3 else 'WIDE'}"
            print(f"{workload:18} {name:14} median {med:12.6g}  spread {spread:7.2%}{mark}",
                  flush=True)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--selfcheck", action="store_true")
    p.add_argument("--steadiness", type=int, metavar="RUNS")
    args = p.parse_args()
    if args.selfcheck:
        selfcheck(build(), args.seconds)
    elif args.steadiness:
        steadiness(build(), args.steadiness, args.seconds,
                   [args.workload] if args.workload else [])
    elif args.workload is None or args.seed is None:
        p.error("--workload and --seed are required")
    else:
        binary = build()
        run_once(binary, args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    main()

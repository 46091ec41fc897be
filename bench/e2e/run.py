#!/usr/bin/env python3
"""Entry point of the wot end-to-end serving benchmark (see README.md).

One run (the form BENCHMARK.json's "command" is invoked with):

    python3 bench/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

builds bench/e2e (the checkout's own wot_served, wot_cli and wot_bench) into
build/e2e if needed, runs `wot_bench run` (--trace 0: end-to-end metrics) or
`wot_bench trace` (--trace 1: per-layer metrics), and passes its output and
exit code through. The last line of output is the result object.

Spread of repeated runs, one seed per run (how the bounds were calibrated):

    python3 bench/e2e/run.py repeat --runs 10 [--workload NAME ...]
        [--seconds S] [--first-seed K] [--trace 0|1] [--json FILE]

The ctest smoke (every workload, both modes, every metric name present,
nothing failed):

    python3 bench/e2e/run.py smoke --bench build/e2e/wot_bench
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, "build", "e2e")
BENCH = os.path.join(BUILD, "wot_bench")
SPEC = os.path.join(ROOT, "BENCHMARK.json")


def build_env():
    # Compilers and the benchmark keep temporaries inside the build tree.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, TMPDIR=tmp)


def build():
    """Configures (once) and builds; exits 1 without a result on failure."""
    env = build_env()
    configured = any(os.path.exists(os.path.join(BUILD, f))
                     for f in ("build.ninja", "Makefile"))
    steps = []
    if not configured:
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"] + generator)
    steps.append(["cmake", "--build", BUILD, "-j", "4"])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              env=env)
        if done.returncode != 0:
            print("run.py: build step failed: " + " ".join(step),
                  file=sys.stderr)
            sys.exit(1)


def bench(command, workload, seed, seconds, extra=(), binary=BENCH):
    """Runs wot_bench once; returns (exit code, stdout)."""
    mode = "smoke" if "--smoke" in extra else command
    out = os.path.join(os.path.dirname(binary), "runs",
                       f"{workload}-seed{seed}-{mode}")
    shutil.rmtree(out, ignore_errors=True)
    cmd = [binary, command, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--out", out] + list(extra)
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          env=build_env())
    return done.returncode, done.stdout


def result_of(stdout):
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def one_run(args):
    build()
    code, stdout = bench("trace" if args.trace else "run", args.workload,
                         args.seed, args.seconds)
    sys.stdout.write(stdout)
    sys.stdout.flush()
    sys.exit(code)


def spread(values):
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    scale = abs(median) if median else 1.0
    return {"median": median, "q1": q1, "q3": q3,
            "iqr_over_median": (q3 - q1) / scale,
            "range_over_median": (max(values) - min(values)) / scale,
            "values": values}


def repeat(args):
    with open(SPEC) as f:
        spec = json.load(f)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    build()
    summary = {}
    for workload in workloads:
        values = {}
        walls = []
        for i in range(args.runs):
            seed = args.first_seed + i
            start = time.monotonic()
            code, stdout = bench("trace" if args.trace else "run", workload,
                                 seed, args.seconds)
            walls.append(time.monotonic() - start)
            result = result_of(stdout)
            if code != 0 or result is None or result["failed"] != 0:
                sys.stdout.write(stdout)
                print(f"run.py: {workload} seed {seed} failed (exit {code})",
                      file=sys.stderr)
                sys.exit(1)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        summary[workload] = {name: spread(v) for name, v in values.items()}
        print(f"{workload}: {args.runs} runs, seeds {args.first_seed}.."
              f"{args.first_seed + args.runs - 1}, wall s per run: median "
              f"{statistics.median(walls):.1f} max {max(walls):.1f}")
        print(f"  {'metric':42s} {'median':>12s} {'q1':>12s} {'q3':>12s}"
              f" {'iqr/med':>8s} {'range/med':>9s}")
        for name, s in summary[workload].items():
            print(f"  {name:42s} {s['median']:12.6g} {s['q1']:12.6g}"
                  f" {s['q3']:12.6g} {s['iqr_over_median']:8.3f}"
                  f" {s['range_over_median']:9.3f}")
        sys.stdout.flush()
    if args.json:
        with open(args.json, "w") as f:
            json.dump(summary, f, indent=1)


def smoke(args):
    with open(SPEC) as f:
        spec = json.load(f)
    expected = {"run": {m["name"]: m["unit"] for m in spec["end_to_end"]},
                "trace": {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for command in ("run", "trace"):
            code, stdout = bench(command, workload, 1, 1, ["--smoke"],
                                 binary=args.bench)
            result = result_of(stdout)
            where = f"{command} {workload}"
            if code != 0 or result is None:
                problems.append(f"{where}: exit {code}")
                continue
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            differ = sorted(set(printed.items())
                            ^ set(expected[command].items()))
            if differ:
                problems.append(f"{where}: metrics differ from BENCHMARK.json:"
                                f" {differ}")
            if result["failed"] != 0 or not result["correct"]:
                problems.append(f"{where}: failed={result['failed']} "
                                f"correct={result['correct']}")
            print(f"{where}: attempted={result['attempted']} "
                  f"failed={result['failed']}")
    for problem in problems:
        print("FAIL " + problem)
    sys.exit(1 if problems else 0)


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "repeat":
        parser = argparse.ArgumentParser(prog="run.py repeat")
        parser.add_argument("--runs", type=int, default=10)
        parser.add_argument("--workload", action="append")
        parser.add_argument("--seconds", type=int, default=None)
        parser.add_argument("--first-seed", type=int, default=1)
        parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
        parser.add_argument("--json")
        args = parser.parse_args(sys.argv[2:])
        if args.seconds is None:
            with open(SPEC) as f:
                args.seconds = json.load(f)["run_seconds"]
        repeat(args)
    elif len(sys.argv) > 1 and sys.argv[1] == "smoke":
        parser = argparse.ArgumentParser(prog="run.py smoke")
        parser.add_argument("--bench", required=True)
        smoke(parser.parse_args(sys.argv[2:]))
    else:
        parser = argparse.ArgumentParser(prog="run.py")
        parser.add_argument("--workload", required=True)
        parser.add_argument("--seed", type=int, required=True)
        parser.add_argument("--seconds", type=int, required=True)
        parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
        one_run(parser.parse_args())


if __name__ == "__main__":
    main()

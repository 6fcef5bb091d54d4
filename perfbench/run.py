#!/usr/bin/env python3
"""Build and run the repository benchmark (see README.md).

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --smoke
  python3 perfbench/run.py --compare RESULTS_A RESULTS_B

Run from the repository root. The first form builds the simulator and the
benchmark from source into .bench_build (or $CARGO_TARGET_DIR), runs one
workload, and ends its standard output with one JSON line:
{"correct", "attempted", "failed", "metrics"}. Each run also writes a
results file, and with --trace 1 a span file, under <build>/results.

--smoke runs every workload once in both modes and fails on any check
failure, on any printed metric name that BENCHMARK.json does not list, and
on any workload whose traced numbers contradict the reason it was chosen.

--compare reads the results files of two commits and prints, per workload
and end-to-end metric, both medians, the change and the metric's bound.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN_TIMEOUT_S = 170
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
METRIC_LINE_RE = re.compile(r"^(\S+)\s+(-?[0-9.]+(?:e[-+]?[0-9]+)?)\s+(\S+)$")
# The channel queue bound of the paper platform (SimConfig::queue_capacity).
QUEUE_CAPACITY = 256


def build_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return d if d.is_absolute() else ROOT / d


def build():
    """Configures (once) and builds the benchmark; returns the binary."""
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    log_path = out / "build.log"
    steps = []
    if not any((out / f).exists() for f in ("build.ninja", "Makefile")):
        configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(["ninja", "--version"], capture_output=True,
                          check=False).returncode == 0:
            configure += ["-G", "Ninja"]
        steps.append(configure)
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(out), "--target", "perfbench",
                  "-j", jobs])
    with open(log_path, "a") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              check=False).returncode != 0:
                sys.stderr.write(log_path.read_text()[-4000:])
                sys.exit("perfbench: build failed (full log: %s)" % log_path)
    return out / "bin" / "perfbench"


def run_once(binary, workload, seed, seconds, trace, capture):
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--results", str(build_dir() / "results")]
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S, check=False,
                              stdout=subprocess.PIPE if capture else None,
                              text=True)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: %s timed out after %d s" % (workload, RUN_TIMEOUT_S))


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def smoke(binary, seconds):
    spec = load_spec()
    declared = {m["name"]: m["unit"]
                for m in spec["end_to_end"] + spec["per_layer"]}
    wanted = {0: [m["name"] for m in spec["end_to_end"]],
              1: [m["name"] for m in spec["per_layer"]]}
    problems = []
    traced = {}
    for w in spec["workloads"]:
        for trace in (0, 1):
            what = "%s --trace %d" % (w["name"], trace)
            p = run_once(binary, w["name"], 1, seconds, trace, capture=True)
            lines = p.stdout.strip().splitlines()
            if p.returncode != 0 or not lines:
                problems.append("%s: exit code %d" % (what, p.returncode))
                continue
            result = json.loads(lines[-1])
            if not result["correct"] or result["failed"] != 0:
                problems.append("%s: %d of %d checks failed" % (
                    what, result["failed"], result["attempted"]))
            if sorted(result["metrics"]) != sorted(wanted[trace]):
                problems.append("%s: metrics differ from BENCHMARK.json" % what)
            for line in lines[:-1]:
                m = METRIC_LINE_RE.match(line)
                if not m:
                    continue
                name, _, unit = m.groups()
                if not NAME_RE.match(name) or declared.get(name) != unit:
                    problems.append("%s: printed metric %s [%s] is not in "
                                    "BENCHMARK.json" % (what, name, unit))
            for name, v in result["metrics"].items():
                if v["unit"] != declared.get(name):
                    problems.append("%s: %s has unit %s" % (what, name, v["unit"]))
            if trace:
                traced[w["name"]] = {k: v["value"]
                                     for k, v in result["metrics"].items()}
            print("%-34s ok=%s checks=%d" % (what, result["correct"],
                                             result["attempted"]))
    problems += contrasts(traced)
    for p in problems:
        print("SMOKE FAILED: " + p)
    return 1 if problems else 0


def contrasts(traced):
    """The per-workload contrasts README.md states, from the traced runs."""
    need = ["paper-light", "saturated-wcpcm", "serve-polar", "fig5-sweep"]
    if any(w not in traced for w in need):
        return ["contrasts: a workload's traced run is missing"]
    out = []
    light = traced["paper-light"]
    if light["sim.deferred_injections"] != 0:
        out.append("paper-light defers injections")
    if light["codec.host_share"] >= 0.10:
        out.append("paper-light codec share is not under 10%")
    if traced["saturated-wcpcm"]["ctrl.max_queue_depth"] < QUEUE_CAPACITY:
        out.append("saturated-wcpcm does not fill the channel queue")
    shares = {w: traced[w]["codec.host_share"] for w in need}
    if max(shares, key=shares.get) != "serve-polar":
        out.append("serve-polar does not have the largest codec share")
    if traced["fig5-sweep"]["sweep.worker_busy_share"] <= 0:
        out.append("fig5-sweep reports no sweep.worker_busy_share")
    return out


def load_results(directory):
    """{workload: [result, ...]} of the untraced results in a directory."""
    out = {}
    for path in sorted(Path(directory).glob("*-trace0.json")):
        with open(path) as f:
            r = json.load(f)
        out.setdefault(r["workload"], []).append(r)
    return out


def compare(dir_a, dir_b):
    spec = load_spec()
    a, b = load_results(dir_a), load_results(dir_b)
    envs = {json.dumps(r["environment"], sort_keys=True)
            for rs in list(a.values()) + list(b.values()) for r in rs}
    if len(envs) > 1:
        print("refusing to compare results recorded in different "
              "environments:\n  " + "\n  ".join(sorted(envs)))
        return 2
    print("%-16s %-15s %14s %14s %8s %6s  %s" % (
        "workload", "metric", "A median", "B median", "change", "bound",
        "verdict"))
    worse = False
    for w in spec["workloads"]:
        ra, rb = a.get(w["name"], []), b.get(w["name"], [])
        if not ra or not rb:
            print("%-16s (no results on one side)" % w["name"])
            continue
        for m in spec["end_to_end"]:
            va = [r["end_to_end"][m["name"]]["value"] for r in ra]
            vb = [r["end_to_end"][m["name"]]["value"] for r in rb]
            ma, mb = statistics.median(va), statistics.median(vb)
            change = (mb - ma) / ma if ma else 0.0
            loss = change if m["better"] == "lower" else -change
            verdict = "worse" if loss > m["bound"] else "ok"
            worse |= verdict == "worse"
            print("%-16s %-15s %14.6g %14.6g %+7.1f%% %5.0f%%  %s (n=%d/%d)" % (
                w["name"], m["name"], ma, mb, 100 * change, 100 * m["bound"],
                verdict, len(va), len(vb)))
    return 1 if worse else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--compare", nargs=2, metavar=("RESULTS_A", "RESULTS_B"))
    args = ap.parse_args()
    if args.compare:
        return compare(*args.compare)
    binary = build()
    if args.smoke:
        return smoke(binary, 1)
    if not args.workload:
        ap.error("--workload is required")
    return run_once(binary, args.workload, args.seed, args.seconds,
                    args.trace, capture=False).returncode


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""The phillysim benchmark.

Runs one phillyctl workload as child processes with all tracing off and
prints its end-to-end metrics (--trace 0), or replays it in-process through
phillybench_replay and prints the per-layer ledger (--trace 1). Builds both
programs from the repository it sits in on first use. See
phillybench/README.md for the workloads, metrics, and method.

    python3 phillybench/run.py --workload paper75 --seed 42 --seconds 20 --trace 0
    python3 phillybench/run.py --workload all --runs 10 --metric wall_s

The last line of standard output is one JSON object with the keys correct,
attempted, failed, and metrics.
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
BUILD = ROOT / ".bench_build" / "phillybench"
WORK = ROOT / ".bench_build" / "phillybench-work"
PHILLYCTL = BUILD / "phillysim" / "tools" / "phillyctl"
REPLAY = BUILD / "phillybench_replay"

WORKLOADS = ("paper75", "paper75-observed", "year365-faults", "fleet4-spill")
# Mirrored by kFleetClusters and kFleetDays in replay.cc.
FLEET_CLUSTERS = "12x16x8,8x12x8,6x8x8,4x8x4"
FLEET_DAYS = "40"
# Mirrored by kFleetThreads in replay.cc. One pool thread runs the members one
# after another, so the fleet's peak memory does not depend on how their runs
# overlap.
FLEET_THREADS = "1"
YEAR_FLAGS = ["--faults", "--checkpoint-mins", "60", "--ckpt-bw", "2", "--ckpt-policy", "stagger"]
NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")
# No child may run past this many seconds after the build, so a run ends
# within its 180-second limit.
DEADLINE_S = 170.0
# Replay outputs the benchmark reads but does not report.
REPLAY_INTERNAL = ("ok", "ledger.traced_wall_s", "mem.run_growth_mb")
# Per-layer rows read from the plain replay, which attaches no profiler, so
# that the profiler's own storage does not count toward them.
PLAIN_METRICS = ("mem.after_generate_mb", "mem.after_run_mb", "mem.after_analyze_mb",
                 "mem.after_write_mb")


class BenchError(Exception):
    """Ends the run with exit code 2 and no result line."""


# --------------------------------------------------------------- statistics

def median(values):
    return statistics.median(values)


def quartiles(values):
    """First and third quartile, as statistics.quantiles(values, n=4) gives them."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def spread(values):
    """Distance between the quartiles as a share of the median (0 when the
    median is 0)."""
    q1, q3 = quartiles(values)
    mid = median(values)
    return (q3 - q1) / mid if mid else 0.0


def steadiness(share, bound):
    """How a spread compares with a metric's bound: below a third of it is
    steady, up to the bound is within, above it is too wide."""
    if share < bound / 3:
        return "steady"
    return "within" if share <= bound else "WIDE"


# ---------------------------------------------------------------- arguments

def non_negative_int(text):
    if not re.fullmatch(r"[0-9]+", text):
        raise argparse.ArgumentTypeError(f"'{text}' is not a non-negative integer")
    return int(text)


def positive_int(text):
    value = non_negative_int(text)
    if value == 0:
        raise argparse.ArgumentTypeError(f"'{text}' is not a positive integer")
    return value


def metric_name(text):
    if not NAME_RE.fullmatch(text):
        raise argparse.ArgumentTypeError(
            f"metric name '{text}' has characters outside [A-Za-z0-9_.-]")
    return text


def parse_args(argv, spec):
    parser = argparse.ArgumentParser(description="phillysim benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=non_negative_int, default=42)
    parser.add_argument("--seconds", type=positive_int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--runs", type=positive_int, default=1,
                        help="runs per workload, seeds SEED..SEED+RUNS-1; prints quartiles")
    parser.add_argument("--metric", type=metric_name, action="append", default=[],
                        help="show only this metric in the quartile table (repeatable)")
    args = parser.parse_args(argv)
    known = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    for name in args.metric:
        if name not in known:
            parser.error(f"argument --metric: unknown metric '{name}'")
    if args.seconds > 150:
        parser.error(f"argument --seconds: '{args.seconds}' is above 150")
    return args


def load_spec():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for metric in spec["end_to_end"] + spec["per_layer"]:
        if not NAME_RE.fullmatch(metric["name"]):
            raise BenchError(f"BENCHMARK.json: metric name '{metric['name']}' has "
                             "characters outside [A-Za-z0-9_.-]")
    return spec


# -------------------------------------------------------------------- build

def read_cmake_cache(path):
    cache = {}
    for line in path.read_text().splitlines():
        match = re.match(r"([A-Za-z0-9_.-]+):[A-Z]+=(.*)", line)
        if match:
            cache[match.group(1)] = match.group(2)
    return cache


def self_check_reason(cache):
    """Why this build compiles the placement-index self-check, or None.

    cluster.cc compiles it when NDEBUG is undefined or PHILLY_INDEX_SELF_CHECK
    is defined, and the root CMakeLists.txt defines the latter for every
    PHILLY_SANITIZE build. With it, every index mutation triggers a full
    rescan, so the benchmark would measure a different program.
    """
    sanitize = cache.get("PHILLY_SANITIZE", "")
    if sanitize:
        return f"PHILLY_SANITIZE={sanitize} compiles the placement-index self-check"
    build_type = cache.get("CMAKE_BUILD_TYPE", "")
    flags = (cache.get("CMAKE_CXX_FLAGS", "") + " " +
             cache.get(f"CMAKE_CXX_FLAGS_{build_type.upper()}", "")).split()
    if "-DPHILLY_INDEX_SELF_CHECK" in flags:
        return "CMAKE_CXX_FLAGS define PHILLY_INDEX_SELF_CHECK"
    if "-DNDEBUG" not in flags:
        return (f"build type '{build_type or 'none'}' leaves NDEBUG undefined, "
                "which compiles the placement-index self-check")
    return None


def run_logged(argv, log):
    with open(log, "ab") as out:
        code = subprocess.run(argv, stdout=out, stderr=subprocess.STDOUT).returncode
    if code != 0:
        tail = log.read_text(errors="replace").splitlines()[-20:]
        raise BenchError(f"{' '.join(argv[:2])} failed with exit code {code}:\n" +
                         "\n".join(tail))


def build():
    """Builds phillyctl and the replay (Release) and returns the build record."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "tools" / "phillyctl.cc").is_file():
        raise BenchError(f"no phillysim sources next to {BENCH.name}/: the benchmark "
                         "builds phillyctl from the repository it sits in")
    BUILD.mkdir(parents=True, exist_ok=True)
    log = BUILD / "build.log"
    if not (BUILD / "CMakeCache.txt").is_file():
        run_logged(["cmake", "-S", str(BENCH), "-B", str(BUILD),
                    "-DCMAKE_BUILD_TYPE=Release"], log)
    run_logged(["cmake", "--build", str(BUILD), "--target", "phillyctl",
                "phillybench_replay", "-j", str(os.cpu_count() or 1)], log)
    cache = read_cmake_cache(BUILD / "CMakeCache.txt")
    reason = self_check_reason(cache)
    if reason:
        raise BenchError(f"refusing to measure this build: {reason}")
    info = json.loads(subprocess.run([str(REPLAY), "build-info"], capture_output=True,
                                     text=True, check=True).stdout)
    if info["ndebug"] != 1:
        raise BenchError("refusing to measure this build: it compiles without NDEBUG")
    return {"build_type": cache.get("CMAKE_BUILD_TYPE", ""), "compiler": info["compiler"]}


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    result = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                            capture_output=True, text=True)
    return result.stdout.strip() if result.returncode == 0 else None


# ----------------------------------------------------------------- children

class Runner:
    """Runs children with a shared deadline and measures each through wait4."""

    def __init__(self, deadline):
        self.deadline = deadline

    def time_left(self):
        return self.deadline - time.monotonic()

    def run(self, argv, cwd, log_name):
        """Returns (wall_s, cpu_s, peak_rss_mb, exit_code) of one child."""
        with open(cwd / log_name, "wb") as log:
            start = time.perf_counter()
            proc = subprocess.Popen([str(a) for a in argv], cwd=cwd, stdout=log,
                                    stderr=subprocess.STDOUT)
            timer = threading.Timer(max(self.time_left(), 1.0), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, proc.returncode

    def replay(self, args, cwd):
        """Runs phillybench_replay and returns its JSON line and exit code."""
        wall, _, _, code = self.run([REPLAY, *args], cwd, "replay.log")
        lines = (cwd / "replay.log").read_text(errors="replace").splitlines()
        try:
            return json.loads(lines[-1]), code
        except (IndexError, json.JSONDecodeError):
            raise BenchError(f"phillybench_replay {args[0]} printed no result "
                             f"(exit {code}): {lines[-5:]}")


def commands(workload, seed):
    """The workload's main phillyctl command and its offline verification
    commands, run from a directory whose out/ receives every output.

    paper75 and year365-faults have no verification command: `phillyctl
    analyze --trace` rejects a native trace in which any job retried.
    """
    s = str(seed)
    if workload == "fleet4-spill":
        main = ["fleet", "--clusters", FLEET_CLUSTERS, "--router", "spillover",
                "--days", FLEET_DAYS, "--seed", s, "--threads", FLEET_THREADS,
                "--out", "out", "--html", "out/dashboard.html"]
        verify = [["analyze", "--telemetry", f"out/cluster{i}.telemetry.ndjson"]
                  for i in range(len(FLEET_CLUSTERS.split(",")))]
        return main, verify
    if workload == "year365-faults":
        return ["simulate", "--days", "365", "--seed", s, *YEAR_FLAGS, "--out", "out"], []
    main = ["simulate", "--days", "75", "--seed", s, "--out", "out"]
    if workload == "paper75":
        return main, []
    main += ["--events-out", "out/events.ndjson", "--telemetry-out", "out/telemetry.ndjson",
             "--spans-out", "out/spans.ndjson", "--metrics-out", "out/metrics.json"]
    verify = [["analyze", "--from-events", "out/events.ndjson", "--spans", "out/spans.ndjson",
               "--trace", "out"],
              ["analyze", "--telemetry", "out/telemetry.ndjson", "--trace", "out"]]
    return main, verify


def sha256_file(path):
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def output_digests(cwd):
    """SHA-256 of every file under cwd/out, plus problems with the manifest.

    metrics.json is left out and manifest.json is compared without its
    metrics digest: the metrics sink records the simulator's own wall time.
    """
    out = cwd / "out"
    digests = {str(p.relative_to(cwd)): sha256_file(p) for p in sorted(out.rglob("*"))
               if p.is_file()}
    manifest_path = out / "manifest.json"
    if not manifest_path.is_file():
        return digests, ["no out/manifest.json"]
    manifest = json.loads(manifest_path.read_text())
    problems = [f"manifest digest of '{sink}' does not match {manifest['outputs'].get(sink)}"
                for sink, digest in manifest["digests"].items()
                if digests.get(manifest["outputs"].get(sink)) != digest]
    manifest["digests"].pop("metrics", None)
    digests.pop("out/metrics.json", None)
    digests["out/manifest.json"] = hashlib.sha256(
        json.dumps(manifest, sort_keys=True).encode()).hexdigest()
    return digests, problems


def fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def untraced_iteration(runner, workload, seed, cwd):
    """One run of the main command; returns its sample, output digests, and
    the problems found."""
    fresh_dir(cwd)
    main, _ = commands(workload, seed)
    wall, cpu, rss, code = runner.run([PHILLYCTL, *main], cwd, "main.log")
    sample = {"wall_s": wall, "cpu_s": cpu, "peak_rss_mb": rss}
    if code != 0:
        return sample, {}, [f"phillyctl {main[0]} exited with {code}"]
    digests, problems = output_digests(cwd)
    return sample, digests, problems


def verify(runner, workload, seed, cwd):
    """Runs the verification commands on cwd/out; returns their total wall
    time, peak RSS, and the problems found."""
    wall_s, peak_rss_mb, problems = 0.0, 0.0, []
    for i, argv in enumerate(commands(workload, seed)[1]):
        wall, _, rss, code = runner.run([PHILLYCTL, *argv], cwd, f"verify{i}.log")
        wall_s += wall
        peak_rss_mb = max(peak_rss_mb, rss)
        if code != 0:
            problems.append(f"phillyctl {' '.join(argv)} exited with {code}")
    return wall_s, peak_rss_mb, problems


def measure(runner, spec, workload, seed, seconds):
    """End-to-end metrics: medians over at least two untraced runs, repeated
    for `seconds`. Every run's outputs must match the first's, and the
    verification commands must accept the last run's outputs."""
    start = time.monotonic()
    cwd = fresh_dir(WORK / "untraced")
    setup, code = runner.replay(["setup", "--workload", workload, "--seed", seed], cwd)
    if code != 0:
        raise BenchError(f"phillybench_replay setup exited with {code}")
    samples = {m["name"]: [] for m in spec["end_to_end"] if m["name"] != "setup_s"}
    attempted = failed = 0
    reference = None
    loop_start = time.monotonic()
    while True:
        sample, digests, problems = untraced_iteration(runner, workload, seed, cwd)
        attempted += 1
        reference = reference if reference is not None else digests
        if digests != reference:
            problems.append("outputs differ from the first run of this seed: " + ", ".join(
                sorted(k for k in digests.keys() | reference.keys()
                       if digests.get(k) != reference.get(k))))
        if problems:
            failed += 1
            print(f"{workload} seed {seed}: " + "; ".join(problems), file=sys.stderr)
        for name in samples:
            samples[name].append(sample[name])
        per_iteration = (time.monotonic() - loop_start) / attempted
        elapsed = time.monotonic() - start
        if attempted >= 2 and (elapsed + per_iteration > seconds or
                               runner.time_left() < 2 * per_iteration):
            break
    if commands(workload, seed)[1]:
        attempted += 1
        _, _, problems = verify(runner, workload, seed, cwd)
        if problems:
            failed += 1
            print(f"{workload} seed {seed}: " + "; ".join(problems), file=sys.stderr)
    shutil.rmtree(cwd, ignore_errors=True)
    values = {name: median(v) for name, v in samples.items()}
    values["setup_s"] = median(setup["setup_s"])
    counts = {name: len(v) for name, v in samples.items()}
    counts["setup_s"] = len(setup["setup_s"])
    return values, counts, attempted, failed


def checked_replay(runner, command, workload, seed, expected):
    """Runs one replay in a directory of its own; returns its ledger and the
    problems found. When `expected` holds output digests, every file the
    replay writes must match them."""
    cwd = fresh_dir(WORK / f"{command}-{workload}")
    ledger, code = runner.replay([command, "--workload", workload, "--seed", seed], cwd)
    if code != 0 or ledger.get("ok") != 1:
        return ledger, [f"replay {command} of {workload} exited with {code}"]
    if expected is None:
        return ledger, []
    digests, problems = output_digests(cwd)
    mismatched = sorted(k for k in digests.keys() | expected.keys()
                        if digests.get(k) != expected.get(k))
    if mismatched:
        problems.append(f"replay {command} outputs differ from phillyctl's: {mismatched}")
    return ledger, problems


def trace(runner, spec, workload, seed):
    """Per-layer metrics from one traced replay, checked against an untraced
    run. The memory rows and the obs overheads come from plain replays, which
    attach no profiler."""
    untraced = WORK / "untraced"
    sample, digests, problems = untraced_iteration(runner, workload, seed, untraced)
    verify_wall, verify_rss, verify_problems = verify(runner, workload, seed, untraced)
    problems += verify_problems
    attempted, failed = 2, int(bool(problems))
    replays = [("trace", workload, digests), ("plain", workload, digests)]
    if workload == "paper75-observed":
        replays.append(("plain", "paper75", None))
    ledgers = []
    for command, name, expected in replays:
        got, replay_problems = checked_replay(runner, command, name, seed, expected)
        attempted += 1
        failed += int(bool(replay_problems))
        problems += replay_problems
        ledgers.append(got)
    ledger, plain = ledgers[0], ledgers[1]
    for name in PLAIN_METRICS:
        ledger[name] = plain.get(name, 0.0)
    if workload == "paper75-observed":
        base = ledgers[2]
        ledger["obs.run_overhead_s"] = plain.get("sched.run_s", 0.0) - base.get("sched.run_s", 0.0)
        ledger["obs.sink_mb"] = (plain.get("mem.run_growth_mb", 0.0) -
                                 base.get("mem.run_growth_mb", 0.0))
    ledger["verify.wall_s"] = verify_wall
    ledger["verify.peak_rss_mb"] = verify_rss
    # The replay runs the main command and the verification commands.
    ledger["ledger.tracing_overhead_s"] = (ledger["ledger.traced_wall_s"] -
                                           sample["wall_s"] - verify_wall)
    if problems:
        print(f"{workload} seed {seed}: " + "; ".join(problems), file=sys.stderr)
    names = [m["name"] for m in spec["per_layer"]]
    unknown = sorted(set(ledger) - set(names) - set(REPLAY_INTERNAL))
    if unknown:
        raise BenchError(f"replay reported metrics BENCHMARK.json does not name: {unknown}")
    shutil.rmtree(WORK, ignore_errors=True)
    values = {name: ledger.get(name, 0.0) for name in names}
    return values, {name: 1 for name in names}, attempted, failed


# ------------------------------------------------------------------- output

def format_value(value):
    return f"{value:.6g}"


def print_run(workload, seed, metric_specs, values, counts, attempted, failed):
    print(f"{workload} seed {seed}: {attempted} attempted, {failed} failed")
    for m in metric_specs:
        print(f"  {m['name']:<28} {format_value(values[m['name']]):>12} {m['unit']:<8}"
              f" median of {counts[m['name']]}")


def print_quartiles(workload, metric_specs, per_run, shown):
    print(f"{workload}: {len(per_run)} runs")
    print(f"  {'metric':<28} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>7}")
    for m in metric_specs:
        if shown and m["name"] not in shown:
            continue
        values = [run[m["name"]] for run in per_run]
        q1, q3 = quartiles(values)
        mid = median(values)
        share = spread(values)
        bound = m.get("bound")
        verdict = "" if bound is None else steadiness(share, bound)
        print(f"  {m['name']:<28} {format_value(mid):>12} {format_value(q1):>12} "
              f"{format_value(q3):>12} {share:>8.2%} "
              f"{'' if bound is None else f'{bound:.0%}':>7} {verdict}")


def main(argv):
    spec = load_spec()
    args = parse_args(argv, spec)
    build_record = build()
    runner = Runner(time.monotonic() + DEADLINE_S)
    metric_specs = spec["per_layer"] if args.trace else spec["end_to_end"]
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    record = {**build_record, "nproc": os.cpu_count(), "fleet_threads": int(FLEET_THREADS),
              "commit": git_commit(), "seed": args.seed, "runs": args.runs,
              "seconds": args.seconds, "trace": args.trace}
    attempted = failed = 0
    results = {}
    try:
        for workload in workloads:
            per_run = []
            for k in range(args.runs):
                seed = (args.seed + k) % 2147483647  # phillyctl reads --seed as an int
                runner.deadline = time.monotonic() + DEADLINE_S
                if args.trace:
                    got = trace(runner, spec, workload, seed)
                else:
                    got = measure(runner, spec, workload, seed, args.seconds)
                values, counts, run_attempted, run_failed = got
                attempted += run_attempted
                failed += run_failed
                print_run(workload, seed, metric_specs, values, counts, run_attempted,
                          run_failed)
                per_run.append(values)
            if len(workloads) > 1 or args.runs > 1:
                print_quartiles(workload, metric_specs, per_run, args.metric)
            results[workload] = {m["name"]: median([r[m["name"]] for r in per_run])
                                 for m in metric_specs}
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print("run record: " + json.dumps(record, sort_keys=True))
    units = {m["name"]: m["unit"] for m in metric_specs}
    if len(results) == 1:
        metrics = {name: {"value": v, "unit": units[name]}
                   for name, v in next(iter(results.values())).items()}
    else:
        metrics = {f"{w}.{name}": {"value": v, "unit": units[name]}
                   for w, values in results.items() for name, v in values.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except BenchError as error:
        print(f"phillybench: {error}", file=sys.stderr)
        sys.exit(2)

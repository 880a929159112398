#!/usr/bin/env python3
"""Run one workload of the hpcfail benchmark and print its result.

    python3 perfbench/run.py --workload postmortem --seed 42 --seconds 35 --trace 0
    python3 perfbench/run.py --selfcheck

Run from the repository root.  The first call builds the `perfbench`
program (perfbench/CMakeLists.txt, which compiles the hpcfail libraries
from src/) into $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench;
later calls only rebuild what changed.  A run then

  1. prepares the workload's inputs from the seed in a scratch directory
     under the build directory (untimed, in its own process),
  2. measures the workload for --seconds in a fresh process, checking
     every output, and
  3. prints the program's note lines ("# ...") and, last, one JSON line:
     {"correct": ..., "attempted": N, "failed": N, "metrics": {...}}.

With --trace 0 the metrics are the end-to-end set of BENCHMARK.json; with
--trace 1 they are the per-layer set.  The exit status is non-zero on any
correctness mismatch or failure, and then no result line is printed unless
the program itself reported the mismatch.

--selfcheck runs every workload at the tiny scale (S1 1-day inputs) with
and without tracing, and checks that every metric BENCHMARK.json names is
printed with its unit and that every correctness check passes.
"""

import argparse
import fcntl
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("postmortem", "reproduce", "live_tail", "dashboard")
BUILD_TIMEOUT_S = 840
# Workload-specific figures, printed as "# detail" notes under the names
# perfbench/README.md uses; the self-check asserts they are present.
DETAILS = {
    "postmortem": ("report_mb_per_s",),
    "reproduce": ("reproduce_s",),
    "live_tail": ("query_p50_us", "query_p99_us", "fresh_p50_ms", "fresh_p99_ms"),
    "dashboard": ("query_p50_us", "query_p99_us", "queries_per_s"),
}


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configures (once) and builds the perfbench program; returns its path."""
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(out, "build.lock"), "w") as lock, \
            open(os.path.join(out, "build.log"), "w") as build_log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        generated = ("Makefile", "build.ninja")
        if not any(os.path.exists(os.path.join(out, name)) for name in generated):
            steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", out, "--target", "perfbench", "-j", jobs])
        for step in steps:
            try:
                done = subprocess.run(step, stdout=build_log, stderr=subprocess.STDOUT,
                                      timeout=BUILD_TIMEOUT_S, check=False)
            except subprocess.TimeoutExpired:
                log("build timed out")
                return None
            if done.returncode != 0:
                build_log.flush()
                with open(os.path.join(out, "build.log")) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                log(f"build failed: {' '.join(step)}")
                return None
    return os.path.join(out, "perfbench")


def source_id():
    """The commit, or a digest of the sources when there is no git checkout."""
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                              capture_output=True, text=True, timeout=10, check=False)
        if done.returncode == 0 and done.stdout.strip():
            return done.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "src-" + digest.hexdigest()[:12]


def run_workload(binary, workload, seed, seconds, trace, tiny, commit):
    """Prepares and measures one workload.  Returns (exit code, stdout lines)."""
    work = os.path.join(os.path.dirname(binary), f"work-{os.getpid()}-{workload}")
    shutil.rmtree(work, ignore_errors=True)
    common = ["--workload", workload, "--seed", str(seed), "--dir", work,
              "--seconds", str(seconds)]
    if tiny:
        common.append("--tiny")
    try:
        prep = subprocess.run([binary, "prepare"] + common, timeout=120, check=False)
        if prep.returncode != 0:
            log(f"prepare failed ({prep.returncode})")
            return 2, []
        cmd = [binary, "run"] + common + ["--trace", str(trace), "--commit", commit]
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=seconds + 120, check=False)
        return done.returncode, done.stdout.splitlines()
    except subprocess.TimeoutExpired:
        log("workload timed out")
        return 2, []
    finally:
        shutil.rmtree(work, ignore_errors=True)


def parse_result(lines):
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return None
    return result


def selfcheck(binary, commit):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ok = True
    for name in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, lines = run_workload(binary, name, 42, 1, trace, True, commit)
            result = parse_result(lines)
            problems = []
            if code != 0:
                problems.append(f"exit {code}")
            if result is None:
                problems.append("no result line")
            else:
                if not result["correct"] or result["failed"] != 0:
                    problems.append("correctness check failed")
                want = {m["name"]: m["unit"] for m in spec[key]}
                got = {n: m.get("unit") for n, m in result["metrics"].items()}
                if got != want:
                    problems.append(f"metrics differ from BENCHMARK.json {key}: "
                                    f"missing {sorted(set(want) - set(got))}, "
                                    f"extra {sorted(set(got) - set(want))}, "
                                    f"units {[n for n in want if n in got and got[n] != want[n]]}")
            notes = " ".join(lines)
            for detail in DETAILS.get(name, ()):
                if f"# detail {detail} = " not in notes:
                    problems.append(f"detail {detail} not printed")
            status = "ok" if not problems else "FAIL: " + "; ".join(problems)
            print(f"selfcheck {name} trace={trace}: {status}")
            if problems:
                ok = False
                for line in lines:
                    if line.startswith("# mismatch"):
                        print(line)
    print("selfcheck passed" if ok else "selfcheck FAILED")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="S1 1-day inputs: runs in seconds, for checking the benchmark")
    parser.add_argument("--selfcheck", action="store_true",
                        help="tiny run of every workload, traced and untraced")
    args = parser.parse_args()
    if not args.selfcheck and args.workload is None:
        parser.error("--workload is required")

    binary = build()
    if binary is None:
        return 2
    commit = source_id()
    if args.selfcheck:
        return selfcheck(binary, commit)

    code, lines = run_workload(binary, args.workload, args.seed, args.seconds, args.trace,
                               args.tiny, commit)
    result = parse_result(lines)
    for line in lines[:-1] if result is not None else lines:
        print(line)
    if result is None:
        log("the program printed no result line")
        return code or 2
    print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())

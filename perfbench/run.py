#!/usr/bin/env python3
"""The end-to-end benchmark of fgpred: builds perfbench from source, runs
one workload, and prints its result as the last line of stdout.

    python3 perfbench/run.py --workload fig-sweep --seed 20070326 \
        --seconds 30 --trace 0

Workloads (each runs in its own process):
  fig-sweep     the Figure-2 k-means evaluation loop (profile, 14 exact
                runs, 42 predictions) with the data in memory
  ooc-stream    one k-means job over a ~100 MB dataset streamed through
                the 8 MiB window budget
  select-serve  a closed-loop client: 256-query batches plus one replica
                publish per round, over a 1,000,000-entry catalog

--trace 0 prints the end-to-end metrics and writes every timed sample to
.bench_out/samples-<workload>.json; --trace 1 prints the per-layer ones and
writes the run's fgpred-trace-v1 export to .bench_out/trace-<workload>.json,
checked with the repository's `fgptrace --validate`. The build lives in
.bench_build/perfbench; every store a run writes lives in a directory
.bench_work/<workload>-<pid> that is removed when the run ends, and that a
later run removes if this one was killed.

Exit status 0 means every operation matched its serial reference.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
WORK_DIR = ROOT / ".bench_work"
OUT_DIR = ROOT / ".bench_out"
WORKLOADS = ("fig-sweep", "ooc-stream", "select-serve")
DEFAULT_SEED = 20070326
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def run_quiet(cmd):
    """Runs a build step with its output on stderr; raises on failure."""
    subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                   check=True)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise RuntimeError(f"no fgpred sources under {ROOT / 'src'}")
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        run_quiet(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                   "-DCMAKE_BUILD_TYPE=RelWithDebInfo", *generator])
    run_quiet(["cmake", "--build", str(BUILD_DIR), "--parallel",
               str(os.cpu_count() or 1), "--target", "perfbench",
               "perfbench_fgptrace"])


def pid_alive(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        pass
    return True


def remove_stale_work_dirs():
    """Removes the work directories of runs that were killed before they
    could clean up (named <workload>-<pid>)."""
    if not WORK_DIR.is_dir():
        return
    for d in WORK_DIR.iterdir():
        pid = d.name.rpartition("-")[2]
        if not (pid.isdigit() and pid_alive(int(pid))):
            shutil.rmtree(d, ignore_errors=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        build()
    except (RuntimeError, OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 1

    # A SIGTERM unwinds like an error: subprocess.run kills and waits for
    # the benchmark process, and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    remove_stale_work_dirs()
    work = WORK_DIR / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    trace_out = OUT_DIR / f"trace-{args.workload}.json"
    trace_out.unlink(missing_ok=True)
    cmd = [str(BUILD_DIR / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work-dir", str(work),
           "--out-dir", str(OUT_DIR)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        log(f"{args.workload} printed no result (exit {proc.returncode})")
        return 1
    if set(result) != RESULT_KEYS:
        log(f"malformed result line: {lines[-1]}")
        return 1

    status = proc.returncode
    if args.trace:
        check = subprocess.run(
            [str(BUILD_DIR / "perfbench_fgptrace"), "--validate",
             str(trace_out)], cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
        if check.returncode != 0:
            log(f"fgptrace --validate rejected {trace_out}")
            result["correct"] = False
            status = status or 1
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return status


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Run one workload of the repo benchmark and print its result.

    python3 tierbench/run.py --workload ic-rt-miss --seed 1 --seconds 25 --trace 0

Run from the root of a checkout. The script builds the benchmark (and
the library from src/) into .bench_build/tierbench, prepares the model
cache once per checkout (zoo training and measurement traces, outside
every timed run), runs the self-tests once per build, then times the
stack's set-up several times and drives the workload. The last line
of standard output is one JSON object with the keys correct,
attempted, failed and metrics; see NOTES.md for every metric.

A run whose phases the host kept disturbing past the retry budget is
invalid: it prints no result and exits with code 4.
"""

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "tierbench")
CACHE_DIR = os.path.join(ROOT, ".bench_build", "cache")
BUILD_TYPE = "Release"
# Set-ups timed per end-to-end run: the run's own plus these extra
# set-up-only launches; setup_s is their median.
EXTRA_SETUPS = 4
# A run that has not finished after this many seconds is killed and
# fails; a healthy run takes --seconds plus about ten, and one that
# retries disturbed phases at most four times --seconds plus that.
DEADLINE_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def fail(message, code=2):
    log("tierbench: " + message)
    sys.exit(code)


def check_call(cmd):
    proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        fail("command failed (%d): %s" % (proc.returncode, " ".join(cmd)))


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources not found under %s/src" % ROOT)
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        check_call(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                    "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE])
    check_call(["cmake", "--build", BUILD_DIR, "-j",
                str(os.cpu_count() or 1)])


def binary(name):
    return os.path.join(BUILD_DIR, name)


def prepare():
    """Make the model cache and pass the self-tests, once per build."""
    stamp = os.path.join(BUILD_DIR, "prepared.stamp")
    newest = max(os.path.getmtime(binary(b))
                 for b in ("tierbench", "tierbench_selftest"))
    if os.path.exists(stamp) and os.path.getmtime(stamp) >= newest:
        return
    check_call([binary("tierbench"), "prepare", "--cache", CACHE_DIR])
    check_call([binary("tierbench_selftest")])
    with open(stamp, "w") as f:
        f.write("ok\n")


def source_digest():
    h = hashlib.sha256()
    for top in ("src", os.path.basename(BENCH_DIR)):
        for dirpath, dirnames, filenames in sorted(os.walk(
                os.path.join(ROOT, top))):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def commit():
    head = os.path.join(ROOT, ".git")
    if not os.path.exists(head):
        return "none"
    proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() or "none"


def compiler():
    cache = os.path.join(BUILD_DIR, "CMakeCache.txt")
    path = "c++"
    with open(cache) as f:
        for line in f:
            if line.startswith("CMAKE_CXX_COMPILER:"):
                path = line.split("=", 1)[1].strip()
    proc = subprocess.run([path, "--version"], capture_output=True,
                          text=True)
    return (proc.stdout.splitlines() or ["unknown"])[0]


def launch(mode, args, echo, children):
    """Start the benchmark binary (recorded in `children`); return
    (process, seconds until it printed 'ready', i.e. its server accepts
    requests)."""
    cmd = [binary("tierbench"), mode, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--cache", CACHE_DIR]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    children.append(proc)
    for line in proc.stdout:
        if line.strip() == "ready":
            return proc, time.perf_counter() - start
        if echo:
            print(line, end="")
    proc.wait()
    fail("%s exited (%d) before its server was ready" % (mode,
                                                         proc.returncode))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    children = []

    def on_deadline(signum, frame):
        for p in children:
            p.kill()
            p.wait()
        fail("deadline of %d s passed" % DEADLINE_S, code=3)

    build()
    prepare()
    # The build and the one-off cache preparation are not part of a
    # run's deadline; everything after this is.
    signal.signal(signal.SIGALRM, on_deadline)
    signal.alarm(DEADLINE_S)

    print("fingerprint " + json.dumps({
        "host": platform.node(),
        "nproc": os.cpu_count(),
        "compiler": compiler(),
        "build_type": BUILD_TYPE,
        "commit": commit(),
        "source_digest": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }), flush=True)

    setups = []
    if args.trace == 0:
        for _ in range(EXTRA_SETUPS):
            proc, seconds = launch("setup", args, False, children)
            proc.stdout.read()
            if proc.wait() != 0:
                fail("setup-only launch failed")
            setups.append(seconds)

    proc, seconds = launch("run", args, True, children)
    setups.append(seconds)
    result = None
    invalid = None
    for line in proc.stdout:
        if line.startswith("RESULT "):
            result = json.loads(line[len("RESULT "):])
        elif line.startswith("INVALID "):
            invalid = line[len("INVALID "):].strip()
        else:
            print(line, end="", flush=True)
    code = proc.wait()
    signal.alarm(0)
    if invalid is not None:
        fail("invalid run: " + invalid, code=4)
    if result is None:
        fail("run exited (%d) without a result" % code)

    metrics = result["metrics"]
    if args.trace == 0:
        print("setup seconds: " + ", ".join("%.4f" % s for s in setups))
        metrics = dict([("setup_s", {"value": statistics.median(setups),
                                     "unit": "s"})] + list(metrics.items()))
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}), flush=True)
    sys.exit(0 if code == 0 and result["correct"] else 1)


if __name__ == "__main__":
    main()

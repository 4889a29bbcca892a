#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload ring_seq|ring_par|hop_par \
        --seed N --seconds S --trace 0|1 [--tiny] [--plant-wrong-count]

Run from the root of a checkout.  The first call configures and builds the
benchmark program from source into .bench_build/perfbench (Release); later
calls only rebuild what changed.  Every run writes its full result, stamped with the
host and build, to .bench_build/results/; the last line of stdout is the
summary {"correct", "attempted", "failed", "metrics"}.  Exit status is 0 only
when the build succeeded and every exactly-once and fidelity check passed.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
RESULTS_DIR = os.path.join(ROOT, ".bench_build", "results")
BINARY = os.path.join(BUILD_DIR, "perfbench")
BUILD_TYPE = "Release"
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build():
    """Configure once, then build incrementally; False on any failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"simulator sources missing under {os.path.join(ROOT, 'src')}; cannot build")
        return False
    if shutil.which("cmake") is None:
        log("cmake not found")
        return False
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR, f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            return False
    jobs = str(max(1, min(3, os.cpu_count() or 1)))
    built = subprocess.run(["cmake", "--build", BUILD_DIR, "--target", "perfbench", "-j", jobs],
                           stdout=sys.stderr, stderr=sys.stderr)
    return built.returncode == 0 and os.path.isfile(BINARY)


def source_digest():
    """sha256 over the sources the binary is built from (src/ and perfbench/)."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()


def git_commit():
    """HEAD of the checkout, or None when it is not a git work tree."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["ring_seq", "ring_par", "hop_par"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--tiny", action="store_true", help="small rounds (self-tests)")
    parser.add_argument("--plant-wrong-count", action="store_true",
                        help="expect one reception too many (self-test of the checks)")
    args = parser.parse_args()

    if not build():
        log("build failed")
        return 1
    os.makedirs(RESULTS_DIR, exist_ok=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--out-dir", RESULTS_DIR]
    if args.tiny:
        cmd.append("--tiny")
    if args.plant_wrong_count:
        cmd.append("--plant-wrong-count")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
        return 1
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    try:
        full = json.loads(lines[-1])
    except (IndexError, ValueError):
        log(f"benchmark printed no result (exit {proc.returncode})")
        return 1
    for line in lines[:-1]:
        print(line)

    full["stamp"].update({
        "nproc": os.cpu_count(),
        "git_commit": git_commit(),
        "source_digest": source_digest(),
        "trace": args.trace,
        "seconds": args.seconds,
        "tiny": args.tiny,
    })
    result_path = os.path.join(
        RESULTS_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(result_path, "w") as f:
        json.dump(full, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"result: {os.path.relpath(result_path, ROOT)}")

    summary = {key: full[key] for key in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(summary))
    ok = proc.returncode == 0 and full["correct"] and full["failed"] == 0
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

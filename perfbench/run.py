#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout. It builds the engine from ../src and
the benchmark program in perfbench/cc with CMake (into $CARGO_TARGET_DIR, default
.bench_build), then runs it. The program prints a metadata line,
one "name = value unit" line per metric, and as its last line the JSON
result. `--workload all` runs every workload in turn. Extra flags
(--tiny, --corrupt-digest) are passed through to the program.
"""
import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["tpcds_power", "bi_concurrent", "etl_mixed", "mpp_tpcds"]
# The benchmark compiles these from the repository; without them there is
# nothing to measure.
REQUIRED = ["src/CMakeLists.txt", "bench/workloads/tpcds_mini.cc",
            "bench/workloads/customer_workload.cc"]


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def source_id():
    """The commit when the checkout is a git repository, else a hash of
    the sources the benchmark builds."""
    try:
        rev = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if rev.returncode == 0 and rev.stdout.strip():
            return rev.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for top in ("src", "bench/workloads", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "tree-sha256:" + h.hexdigest()[:16]


def build():
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs, "--target", "perfbench"])
    for cmd in steps:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            log(f"build step failed: {' '.join(cmd)}")
            sys.exit(2)
    return os.path.join(build_dir, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args, extra = ap.parse_known_args()

    missing = [p for p in REQUIRED if not os.path.isfile(os.path.join(ROOT, p))]
    if missing:
        log("not a full checkout (missing " + ", ".join(missing) + ")")
        return 2
    binary = build()
    env = dict(os.environ, PERFBENCH_COMMIT=source_id())
    rc = 0
    for wl in WORKLOADS if args.workload == "all" else [args.workload]:
        cmd = [binary, "--workload", wl, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--trace-out", os.path.join(ROOT, ".bench_out")] + extra
        sys.stdout.flush()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env)
        try:
            rc = max(rc, proc.wait())
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    return rc


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Build and run the RAHTM benchmark.

    python3 perfbench/run.py --workload cg64|serve_mix|sim_eval \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run configures and builds the
RAHTM libraries and the benchmark binary (Release) into .bench_build/;
later runs rebuild only what changed. Build output goes to stderr; the last
line of stdout is the benchmark JSON result. See perfbench/README.md.
"""

import argparse
import hashlib
import os
import platform
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("cg64", "serve_mix", "sim_eval")


def source_digest():
    """SHA-256 over the program sources, for the environment fingerprint
    (the checkout the benchmark runs in need not be a git repository)."""
    h = hashlib.sha256()
    for base in ("CMakeLists.txt", "src", "perfbench"):
        path = os.path.join(ROOT, base)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in sorted(files):
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "rahtm_perfbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build step failed: " + " ".join(cmd))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        sys.exit("perfbench: the RAHTM sources (CMakeLists.txt, src/) are "
                 "missing next to perfbench/")
    build()
    out_dir = os.path.join(BUILD, "out")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [os.path.join(BUILD, "rahtm_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", out_dir, "--source-digest", source_digest()]
    if shutil.which("setarch"):
        # Fixed address-space layout: heap and stack placement otherwise
        # moves run-to-run timings of the millisecond-scale steps by up to
        # a quarter, depending on where ASLR puts them.
        cmd = ["setarch", platform.machine(), "-R"] + cmd
    sys.stdout.flush()
    sys.exit(subprocess.run(cmd).returncode)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Builds the GDN benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --test        # the statistics tests

Run from the repository root. The build goes to $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench) as a Release build of the unmodified library
plus the benchmark binary; later runs only rebuild what changed. Build output
goes to stderr, so the last line of stdout is the benchmark's JSON result.
A traced run (--trace 1) also writes a Chrome trace-event file to
<build dir>/traces/<workload>-seed<n>.json.

Exit status: 0 on success; 2 when the program's sources or the build are
missing or broken; otherwise the benchmark's own status (3: an output check
failed).
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
WORKLOADS = ("release_crowd", "update_mix", "directory_storm", "live_loopback")


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(REPO, target, "perfbench")


def build(target):
    """Configures (once) and builds `target`; returns the binary's path."""
    for needed in ("CMakeLists.txt", os.path.join("src", "CMakeLists.txt")):
        if not os.path.isfile(os.path.join(REPO, needed)):
            fail(f"the program's sources are missing ({needed} not found next to perfbench/)")
    out = build_dir()
    cache = os.path.join(out, "CMakeCache.txt")
    if os.path.isfile(cache):
        with open(cache, encoding="utf-8", errors="replace") as f:
            if f"CMAKE_HOME_DIRECTORY:INTERNAL={HERE}\n" not in f.read():
                shutil.rmtree(out)  # configured for another checkout
    steps = []
    if not os.path.isfile(cache):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", out, "--target", target, "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True, check=False)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-20000:])
            fail(f"build step failed: {' '.join(step)}")
    return os.path.join(out, target)


def commit_id():
    """The git commit when there is one, else a digest of the program's sources."""
    if os.path.exists(os.path.join(REPO, ".git")):
        try:
            done = subprocess.run(["git", "-C", REPO, "rev-parse", "HEAD"],
                                  capture_output=True, text=True, check=False)
            if done.returncode == 0 and done.stdout.strip():
                return done.stdout.strip()
        except OSError:
            pass
    digest = hashlib.sha256()
    for base, dirs, files in os.walk(os.path.join(REPO, "src")):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, REPO).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return "src-sha256-" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--test", action="store_true", help="run the statistics tests")
    args = parser.parse_args()

    if args.test:
        return subprocess.run([build("stats_test")], check=False).returncode
    if args.workload is None:
        fail("--workload is required")
    binary = build("perfbench")
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--commit", commit_id()]
    if args.trace:
        traces = os.path.join(build_dir(), "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace-out",
                    os.path.join(traces, f"{args.workload}-seed{args.seed}.json")]
    sys.stdout.flush()
    return subprocess.run(command, check=False).returncode


if __name__ == "__main__":
    sys.exit(main())

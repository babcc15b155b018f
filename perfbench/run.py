#!/usr/bin/env python3
"""Build DBSpinner and this benchmark from source, then run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload pagerank --seed 42 --seconds 30 --trace 0

The last line of standard output is the JSON result. Build output goes
to standard error. See perfbench/README.md for the workloads and metrics.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ["pagerank", "sssp-frontier", "forecast", "server-mixed"]

# Everything the build needs besides this directory.
SOURCES = ["dune-project", "lib", "bin/server_main.ml", "bin/dune"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=None,
                    help="workload seed (default: the workload's own)")
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    missing = [p for p in SOURCES if not os.path.exists(p)]
    if missing:
        sys.exit("perfbench: run from the repository root; missing "
                 + ", ".join(missing))

    # Relative paths keep the server's socket path short.
    build_root = os.path.relpath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if build_root.startswith(".."):
        build_root = ".bench_build"
    build_dir = os.path.join(build_root, "dune")
    os.makedirs(build_root, exist_ok=True)
    built = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", os.path.abspath(build_dir),
         "--profile", "release", "./perfbench/bench.exe", "./bin/server_main.exe"],
        stdout=sys.stderr, timeout=850)
    if built.returncode != 0:
        sys.exit("perfbench: build failed")
    bench = os.path.join(build_dir, "default", "perfbench", "bench.exe")
    server = os.path.join(build_dir, "default", "bin", "server_main.exe")

    work = os.path.join(build_root, "runs", "%s-%d" % (args.workload, os.getpid()))
    os.makedirs(work)
    cmd = [bench, "--workload", args.workload, "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--server", server, "--work-dir", work]
    if args.seed is not None:
        cmd += ["--seed", str(args.seed)]
    # Its own process group, so a timeout also stops the server it spawned.
    proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        code = proc.wait(timeout=170)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        code = 3
    finally:
        spans = os.path.join(work, "spans.ndjson")
        if os.path.exists(spans):
            os.replace(spans, os.path.join(build_root, "spans-%s.ndjson" % args.workload))
        shutil.rmtree(work, ignore_errors=True)
    sys.exit(code)


if __name__ == "__main__":
    main()

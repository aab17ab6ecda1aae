#!/usr/bin/env python3
"""Build and run GlobalDB's benchmark.

Run from the root of a GlobalDB source tree:

    python3 perfbench/run.py --workload tpcc-3city --seed 1 --seconds 20 --trace 0

The script builds the perfbench Go program (a module of its own that uses
the tree's globaldb module through a replace directive) into the build
directory, then runs it. Everything it writes stays under that directory:
the Go build cache, temporary files, WAL files and span dumps. The build
directory is $CARGO_TARGET_DIR when set, otherwise .bench_build.

The last line of output is the program's JSON result; the exit code is the
program's (non-zero when a check fails or the tree cannot be built).
"""

import argparse
import hashlib
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def source_revision():
    """The git commit when the tree is a checkout, else a digest of its Go sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=10)
            if out.returncode == 0:
                return out.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
        for name in sorted(filenames):
            if name.endswith(".go") or name == "go.mod":
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "src-sha256:" + h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=["tpcc-3city", "ror-3city", "sql-local"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    build = os.path.abspath(os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build"))
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOMODCACHE": os.path.join(build, "gomodcache"),
        "GOTMPDIR": tmp,
        "TMPDIR": tmp,
        "GOFLAGS": "-mod=mod",
        "GOTOOLCHAIN": "local",
        "GOWORK": "off",
        "GOPROXY": "off",
        "CGO_ENABLED": "0",
    })

    binary = os.path.join(build, "perfbench", "perfbench")
    b = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env,
                       capture_output=True, text=True)
    if b.returncode != 0:
        sys.stderr.write("perfbench: build failed\n" + b.stdout + b.stderr)
        return 2

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--dir", os.path.join(build, "perfbench", "run"), "--commit", source_revision()]
    sys.stdout.flush()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env)

    def stop(signum, _frame):
        # Never leave the benchmark running behind a stopped wrapper.
        proc.kill()
        proc.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.stderr.write("perfbench: run exceeded %ds\n" % RUN_TIMEOUT_S)
        return 3


if __name__ == "__main__":
    sys.exit(main())

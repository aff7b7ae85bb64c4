#!/usr/bin/env python3
"""Build the perfbench harness from source and run it.

Run from the repository root:

    python3 perfbench/run.py --workload bfs-n64-relay --seed 1 --seconds 20 --trace 0

The Go build cache, temporary files and the binary stay under
.bench_build/ in the checkout. Arguments pass through to the binary; the
last line it prints is the result JSON. A traced run (--trace 1) also
writes its spans to .bench_build/spans/<workload>-<seed>.json.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def git_sha():
    """The checkout's commit, or "unknown" outside a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--abbrev=40"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def flag(args, name, default):
    for i, a in enumerate(args):
        if a in (name, "-" + name.lstrip("-")) and i + 1 < len(args):
            return args[i + 1]
        if a.startswith(name + "="):
            return a.split("=", 1)[1]
    return default


def main():
    args = sys.argv[1:]
    env = dict(
        os.environ,
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOTMPDIR=os.path.join(BUILD, "tmp"),
        GOFLAGS="-buildvcs=false",
        GOTOOLCHAIN="local",
        GOWORK="off",
    )
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    binary = os.path.join(BUILD, "perfbench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env,
                           stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    extra = ["--git-sha", git_sha()]
    if flag(args, "--trace", "0") == "1":
        spans = "%s-%s.json" % (flag(args, "--workload", "x"), flag(args, "--seed", "1"))
        extra += ["--spans", os.path.join(BUILD, "spans", spans)]
    return subprocess.run([binary] + extra + args, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Build the repair benchmark from source and run one workload.

Usage, from the root of a checkout of the repository:

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 20 --trace 0

Every flag is passed through to the benchmark binary (see NOTES.md). The
Go build cache, the binary, per-run state and trace spans all live under
.bench_build/ in the checkout, so the run reads and writes nothing outside
it. The last line of standard output is the JSON result.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def main():
    if not os.path.isfile(os.path.join(ROOT, "go.mod")):
        sys.stderr.write("perfbench: no go.mod at %s: run from a checkout of the repository\n" % ROOT)
        return 2
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update(
        TMPDIR=tmp,
        GOTMPDIR=tmp,
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOMODCACHE=os.path.join(BUILD, "gopath", "pkg", "mod"),
        XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
        GOTOOLCHAIN="local",
        GOFLAGS="",
        CGO_ENABLED="0",
    )
    binary = os.path.join(BUILD, "perfbench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env)
    if build.returncode != 0:
        sys.stderr.write("perfbench: build failed\n")
        return 1
    work = os.path.join(BUILD, "work-%d" % os.getpid())
    try:
        run = subprocess.run(
            [binary, "--workdir", work, "--spans", os.path.join(BUILD, "spans")] + sys.argv[1:],
            cwd=ROOT,
            env=env,
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0 if run.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

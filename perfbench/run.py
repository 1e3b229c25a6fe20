#!/usr/bin/env python3
"""Build and run Moara's benchmark from the root of a source checkout.

    python3 perfbench/run.py --workload tcp-oneshot --seed 1 --seconds 10 --trace 0

The Go program in this directory is built into .bench_build/ with its
build cache there too, so a run reads and writes only inside the
checkout. The last line of standard output is the result JSON (see
README.md). Without the repository's sources next to this directory the
build fails and the script exits non-zero without printing a result.
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "moara-perfbench")
RUN_TIMEOUT_S = 175


def source_digest():
    """Content hash of the Go sources: the commit stamp when git is absent."""
    h = hashlib.sha256()
    for top, dirs, files in os.walk(ROOT):
        dirs[:] = sorted(d for d in dirs if not d.startswith("."))
        for name in sorted(files):
            if name.endswith(".go") or name in ("go.mod", "go.sum"):
                path = os.path.join(top, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "tree-sha256:" + h.hexdigest()[:16]


def commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return source_digest()


def build():
    if not os.path.isfile(os.path.join(ROOT, "go.mod")):
        print("run.py: no go.mod at %s: not a Moara source checkout" % ROOT, file=sys.stderr)
        return False
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOMODCACHE": os.path.join(BUILD, "gomodcache"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        "XDG_CONFIG_HOME": os.path.join(BUILD, "config"),
        "GOPROXY": "off",
        "GOTOOLCHAIN": "local",
        "GOWORK": "off",
    })
    os.makedirs(BUILD, exist_ok=True)
    res = subprocess.run(["go", "build", "-o", BINARY, "."], cwd=HERE, env=env)
    return res.returncode == 0


def main():
    if not build():
        print("run.py: build failed", file=sys.stderr)
        return 1
    env = dict(os.environ, MOARA_BENCH_COMMIT=commit())
    proc = subprocess.Popen([BINARY] + sys.argv[1:], cwd=ROOT, env=env)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("run.py: benchmark exceeded %ds" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

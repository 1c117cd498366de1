#!/usr/bin/env python3
"""Build and run the CPR benchmark from the checkout this file sits in.

    python3 cprbench/run.py --workload flow_ecc --seed 1 --seconds 20 --trace 0

Builds the benchmark (a Go module of its own in this directory, which
uses the checkout's module through a replace directive) and cprd into
.bench_build/ at the checkout root, with the Go build cache, temporary
files and home directory kept there too, then runs the benchmark with
the given arguments. Its last line of output is the result JSON. Exits
non-zero, printing no result, if the build fails.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def go_env():
    env = dict(os.environ)
    for name, sub in (("GOCACHE", "gocache"), ("GOTMPDIR", "tmp"), ("GOPATH", "gopath"),
                      ("HOME", "home"), ("XDG_CONFIG_HOME", "home/.config"),
                      ("XDG_CACHE_HOME", "home/.cache")):
        path = os.path.join(BUILD, sub)
        os.makedirs(path, exist_ok=True)
        env[name] = path
    env.update(GOFLAGS="", GOTOOLCHAIN="local", GOPROXY="off",
               GOWORK="off", CGO_ENABLED="0")
    return env


def main():
    env = go_env()
    bench = os.path.join(BUILD, "bin", "cprbench")
    cprd = os.path.join(BUILD, "bin", "cprd")
    for out, pkg in ((bench, "."), (cprd, "cpr/cmd/cprd")):
        build = subprocess.run(["go", "build", "-o", out, pkg], cwd=HERE, env=env,
                               stdout=sys.stderr)
        if build.returncode != 0:
            print(f"run.py: building {pkg} failed", file=sys.stderr)
            return 1
    args = [bench, "-root", ROOT, "-cprd", cprd] + sys.argv[1:]
    return subprocess.run(args, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Build and run the ncsperf benchmark.

Run from the repository root:

    python3 ncsperf/run.py --workload pingpong-mem --seed 1 --seconds 10 --trace 0

The Go build cache, the binary and the trace output all live under
.bench_build/ in the current directory, so nothing is written elsewhere.
The benchmark's own output (an environment line, then the result line) is
passed through unchanged; a failed build exits non-zero without a result.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    build = os.path.abspath(".bench_build")
    env = dict(os.environ)
    for var, sub in (("GOCACHE", "gocache"), ("GOMODCACHE", "gomodcache"),
                     ("GOPATH", "gopath"), ("GOTMPDIR", "tmp"),
                     ("XDG_CONFIG_HOME", "config"), ("HOME", "home")):
        env[var] = os.path.join(build, sub)
        os.makedirs(env[var], exist_ok=True)
    env.update(GOTOOLCHAIN="local", GOWORK="off", GOPROXY="off", CGO_ENABLED="0")
    binary = os.path.join(build, "ncsperf", "ncsperf")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE,
                           env=env, stdout=sys.stderr)
    if built.returncode != 0:
        print("ncsperf: build failed", file=sys.stderr)
        return built.returncode or 1
    return subprocess.run([binary] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())

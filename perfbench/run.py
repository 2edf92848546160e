#!/usr/bin/env python3
"""Build the programs under test from this checkout and run one benchmark workload.

    python3 perfbench/run.py --workload ingest-paper --seed 1 --seconds 10 --trace 0

Builds cmd/sessionize, cmd/serve and cmd/evaluate and the perfbench program
(pbench; pbench-trace for --trace 1) into .bench_build/ (rebuilding only when
a Go source file changed), then runs it. Every file the benchmark reads or writes, the Go build cache
included, stays inside the checkout. The last line of standard output is the
JSON result; see perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build")
PROGRAMS = ["./cmd/sessionize", "./cmd/serve", "./cmd/evaluate"]


def source_hash():
    """Digest of every Go source and module file in the checkout."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
        for name in sorted(filenames):
            if name.endswith(".go") or name in ("go.mod", "go.sum"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(hashlib.sha256(f.read()).digest())
    return h.hexdigest()


def go_env():
    env = dict(os.environ)
    for key, sub in (("GOCACHE", "gocache"), ("GOPATH", "gopath"), ("GOMODCACHE", "gopath/pkg/mod"),
                     ("TMPDIR", "tmp"), ("GOTMPDIR", "tmp"), ("XDG_CONFIG_HOME", "config"),
                     ("XDG_CACHE_HOME", "cache"), ("HOME", "home")):
        env[key] = os.path.join(BUILD, sub)
        os.makedirs(env[key], exist_ok=True)
    env.update(GOTOOLCHAIN="local", GOPROXY="off", GOFLAGS="-mod=mod", GOTELEMETRY="off", CGO_ENABLED="0")
    return env


def build(env, bindir, trace):
    """Build the programs under test and pbench, and for a traced run also
    pbench-trace (pbench with the trace build tag, which calls into the
    repository's Go packages). Returns the source digest and the pbench to run."""
    digest = source_hash()
    steps = [("source.sha256", [os.path.basename(p) for p in PROGRAMS] + ["pbench"],
              [(["go", "build", "-o", bindir + os.sep] + PROGRAMS, ROOT),
               (["go", "build", "-o", os.path.join(bindir, "pbench"), "."], BENCH)])]
    if trace:
        steps.append(("trace.sha256", ["pbench-trace"],
                      [(["go", "build", "-tags", "trace", "-o", os.path.join(bindir, "pbench-trace"), "."], BENCH)]))
    for stampname, names, cmds in steps:
        stamp = os.path.join(BUILD, stampname)
        if os.path.exists(stamp) and all(os.path.exists(os.path.join(bindir, n)) for n in names):
            with open(stamp) as f:
                if f.read() == digest:
                    continue
        for cmd, cwd in cmds:
            subprocess.run(cmd, cwd=cwd, env=env, check=True, stdout=sys.stderr)
        with open(stamp, "w") as f:
            f.write(digest)
    return digest, os.path.join(bindir, "pbench-trace" if trace else "pbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    missing = [p for p in ["go.mod"] + [p[2:] for p in PROGRAMS] if not os.path.exists(os.path.join(ROOT, p))]
    if missing:
        print("run.py: not a source checkout of the repository (missing %s)" % ", ".join(missing), file=sys.stderr)
        return 2
    env = go_env()
    bindir = os.path.join(BUILD, "bin")
    try:
        digest, pbench = build(env, bindir, args.trace == 1)
        goversion = subprocess.run(["go", "version"], env=env, capture_output=True, text=True,
                                   check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError) as err:
        print("run.py: build failed: %s" % err, file=sys.stderr)
        return 1
    commit = "source-sha256:" + digest[:16]
    if os.path.isdir(os.path.join(ROOT, ".git")):
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        if git.returncode == 0:
            commit = git.stdout.strip() + "," + commit
    cmd = [pbench,
           "-workload", args.workload, "-seed", str(args.seed), "-seconds", str(args.seconds),
           "-trace", str(args.trace), "-bin", bindir, "-work", os.path.join(BUILD, "work"),
           "-spec", os.path.join(ROOT, "BENCHMARK.json"), "-pins", os.path.join(BENCH, "pins.json"),
           "-commit", commit, "-goversion", goversion]
    run_env = dict(os.environ, TMPDIR=env["TMPDIR"], HOME=env["HOME"], XDG_CONFIG_HOME=env["XDG_CONFIG_HOME"])
    sys.stdout.flush()
    sys.stderr.flush()
    os.chdir(ROOT)
    # Replace this process, so a signal to it reaches pbench directly.
    os.execve(cmd[0], cmd, run_env)


if __name__ == "__main__":
    sys.exit(main())

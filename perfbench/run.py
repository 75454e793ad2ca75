#!/usr/bin/env python3
"""Run one workload of the repo benchmark.

    python3 perfbench/run.py --workload mpi-wave2d --seed 1 --seconds 10 --trace 0

Run from the repository root.  Builds the benchmark and the stencilc
daemon from source with dune (build output goes to stderr), runs the
workload, checks that the printed metrics are exactly the ones
BENCHMARK.json declares for the trace mode, and re-prints the
benchmark's output; its last line is the JSON result.  Exits non-zero,
without a result line, when the sources are missing, the build fails,
the run fails or times out.
"""

import argparse
import glob
import json
import os
import shutil
import signal
import subprocess
import sys
import time

WORKLOADS = ("mpi-wave2d", "omp-heat2d", "serve-mix")
# The whole run must end within 180 s; the first one in a checkout may
# take longer because it builds.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 800
WORK_DIR = os.path.join("perfbench", ".work")


def fail(code, msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def find_dune():
    dune = shutil.which("dune")
    if dune:
        return dune
    candidates = []
    if os.environ.get("OPAM_SWITCH_PREFIX"):
        candidates.append(os.path.join(os.environ["OPAM_SWITCH_PREFIX"], "bin", "dune"))
    candidates += sorted(glob.glob(os.path.expanduser("~/.opam/*/bin/dune")))
    for c in candidates:
        if os.access(c, os.X_OK):
            return c
    return None


def build(root):
    dune = find_dune()
    if dune is None:
        fail(3, "dune not found on PATH")
    env = dict(os.environ)
    # Keep every build product inside the checkout.
    env["DUNE_CACHE"] = "disabled"
    env.setdefault("PATH", "")
    env["PATH"] = os.path.dirname(dune) + os.pathsep + env["PATH"]
    cmd = [dune, "build", "--root", root, "--display", "quiet",
           "./perfbench/bench.exe", "./bin/stencilc.exe"]
    try:
        r = subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr,
                           stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(3, "build timed out")
    if r.returncode != 0:
        fail(3, "build failed")


def expected_metrics(root, trace):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    root = os.getcwd()
    for need in ("dune-project", "lib", os.path.join("bin", "stencilc.ml"),
                 os.path.join("perfbench", "dune"), "BENCHMARK.json"):
        if not os.path.exists(os.path.join(root, need)):
            fail(2, "run from the repository root: %s is missing" % need)
    build(root)
    exe = os.path.join("_build", "default", "perfbench", "bench.exe")
    stencilc = os.path.join("_build", "default", "bin", "stencilc.exe")
    cmd = [exe, "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace),
           "--stencilc", stencilc, "--work", WORK_DIR]
    # Own process group, so a timeout also stops the daemon it starts.
    p = subprocess.Popen(cmd, cwd=root, stdout=subprocess.PIPE,
                         stderr=sys.stderr, text=True, start_new_session=True)
    try:
        out, _ = p.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.wait()
        fail(4, "run exceeded %d s" % RUN_TIMEOUT_S)
    finally:
        try:
            os.killpg(p.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    lines = out.rstrip("\n").split("\n")
    if p.returncode != 0:
        sys.stdout.write(out)
        fail(5, "benchmark exited with code %d" % p.returncode)
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        sys.stdout.write(out)
        fail(5, "no result line")
    want = expected_metrics(root, a.trace == 1)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        fail(6, "metrics differ from BENCHMARK.json: %s"
             % sorted(set(got.items()) ^ set(want.items())))
    sys.stdout.write(out if out.endswith("\n") else out + "\n")
    sys.stdout.flush()


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""The repository benchmark: builds ptbench from source, generates the
workload's inputs from the seed, runs one measured (or traced) run and
prints a run record, every metric with its unit and sample count, and
finally one JSON result line.

    python3 perfbench/run.py --workload als-movielens --seed 1 \
        --seconds 20 --trace 0

Run it from the root of a source checkout. See perfbench/README.md.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
DATA_ROOT = os.path.join(ROOT, ".bench_data")
OUT_DIR = os.path.join(ROOT, ".bench_out")
# A seed kept out of design work: gains claimed on the design seeds
# should be confirmed on this one.
HOLDOUT_SEED = 900001
RUN_DEADLINE_S = 165  # after the build; a run must end within 180 s


def fail(message, code=1):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args()


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build(log):
    """Configures (once) and builds ptbench in Release; returns its path."""
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.call(cmd, stdout=log, stderr=log) != 0:
            fail("cmake configure failed; see " + log.name)
    cmd = ["cmake", "--build", BUILD_DIR, "--target", "ptbench", "-j",
           str(max(1, min(4, os.cpu_count() or 1)))]
    if subprocess.call(cmd, stdout=log, stderr=log) != 0:
        fail("build failed; see " + log.name)
    return os.path.join(BUILD_DIR, "ptbench")


def ptbench(binary, args, env=None, timeout=60):
    """Runs ptbench and returns its last stdout line parsed as JSON."""
    proc = subprocess.run([binary] + args, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, env=env,
                          timeout=timeout)
    if proc.returncode != 0:
        fail("ptbench %s failed (%d): %s" %
             (args[0], proc.returncode, proc.stderr.strip()[-2000:]))
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else {}


def source_identity():
    """git sha when the checkout is a git repository, and always a digest
    of the sources the benchmark builds."""
    sha = "not a git checkout"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"], text=True,
                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                timeout=10).stdout.strip() or sha
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    files = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in ("src", "perfbench"):
        for dirpath, _, names in os.walk(os.path.join(ROOT, top)):
            files += [os.path.join(dirpath, n) for n in names]
    for path in sorted(files):
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            digest.update(f.read())
    return sha, digest.hexdigest()[:16]


def main():
    args = parse_args()
    # Refuse early, before any build, outside a source checkout.
    for needed in ("CMakeLists.txt", os.path.join("src", "core", "ptucker.h")):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail("%s not found under %s: run from a source checkout" %
                 (needed, ROOT), code=2)
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        fail("unknown workload %r (have %s)" % (args.workload, ", ".join(names)),
             code=2)
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]

    os.makedirs(os.path.dirname(BUILD_DIR), exist_ok=True)
    with open(os.path.join(ROOT, ".bench_build", "build.log"), "w") as log:
        binary = build(log)
    # The first run in a checkout may spend minutes building; every run
    # after that must still end within 180 s in total.
    deadline = time.monotonic() + RUN_DEADLINE_S

    info = ptbench(binary, ["info"])
    if info["build_type"] != "Release":
        fail("refusing a %s build" % info["build_type"])
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else (os.cpu_count() or 1)
    threads = {name: t[0] for name, t in info["threads"].items()}
    for name, count in threads.items():
        if count > nproc:
            fail("workload %s needs %d threads but nproc is %d" %
                 (name, count, nproc))
    env = dict(os.environ)
    env["OMP_NUM_THREADS"] = str(info["threads"][args.workload][1])

    data = os.path.join(DATA_ROOT, "%s-seed%d" % (args.workload, args.seed))
    shutil.rmtree(data, ignore_errors=True)
    os.makedirs(data)
    os.makedirs(OUT_DIR, exist_ok=True)
    trace_out = os.path.join(OUT_DIR, "trace-%s-seed%d.json" %
                             (args.workload, args.seed))
    try:
        probe_before = ptbench(binary, ["probe"])
        ptbench(binary, ["gen", "--workload", args.workload, "--seed",
                         str(args.seed), "--dir", data], env=env,
                timeout=max(1, deadline - time.monotonic()))
        run_args = ["run", "--workload", args.workload, "--dir", data,
                    "--seconds", repr(seconds), "--trace", str(args.trace)]
        if args.trace:
            run_args += ["--trace-out", trace_out]
        report = ptbench(binary, run_args, env=env,
                         timeout=max(1, deadline - time.monotonic()))
        probe_after = ptbench(binary, ["probe"])
    except subprocess.TimeoutExpired as e:
        fail("timed out: %s" % " ".join(e.cmd[1:3]))
    finally:
        shutil.rmtree(data, ignore_errors=True)

    sha, digest = source_identity()
    print("# perfbench run record")
    print("# workload %s, seed %d (holdout seed %d is kept out of design "
          "work), %.0f s, trace %d" % (args.workload, args.seed, HOLDOUT_SEED,
                                       seconds, args.trace))
    print("# source: git %s; source digest %s" % (sha, digest))
    print("# build: %s, %s, flags '%s'" %
          (info["build_type"], info["compiler"], info["flags"].strip()))
    print("# host: nproc %d; threads per workload: %s (each <= nproc); "
          "OMP_NUM_THREADS=%s" %
          (nproc, ", ".join("%s %d" % kv for kv in sorted(threads.items())),
           env["OMP_NUM_THREADS"]))
    print("# interference probe (median of 5; ALU loop / L2 pointer chase): "
          "before %.1f / %.1f ms, after %.1f / %.1f ms" %
          (probe_before["alu_ms"], probe_before["l2_ms"],
           probe_after["alu_ms"], probe_after["l2_ms"]))

    measured = {m["name"]: m for m in report["metrics"]}
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    missing = []
    for m in wanted:
        got = measured.get(m["name"])
        if got is None and args.trace:
            # A layer this workload never calls: zero calls, zero time.
            got = {"name": m["name"], "value": 0.0, "unit": m["unit"],
                   "count": 0}
        if got is None or got["value"] is None:
            missing.append(m["name"])
            continue
        if got["unit"] != m["unit"]:
            fail("metric %s reported in %s, declared in %s" %
                 (m["name"], got["unit"], m["unit"]))
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}

    declared = {m["name"] for m in wanted}
    for m in report["metrics"]:
        tag = "" if m["name"] in declared else "  (informational)"
        print("%-36s %16.6g %-6s n=%d%s" %
              (m["name"], m["value"] if m["value"] is not None else float("nan"),
               m["unit"], m["count"], tag))
    if args.trace:
        for name in sorted(declared - set(measured)):
            print("%-36s %16s %-6s n=0  (not exercised by this workload)" %
                  (name, "0", metrics[name]["unit"]))
    for c in report["checks"]:
        print("check %-60s %s  %s" % (c["name"], "ok" if c["ok"] else "FAILED",
                                      c["detail"]))
    for note in report["notes"]:
        print("note " + note)
    if args.trace:
        print("trace: %s" % trace_out)
    attempted = max(1, int(report["attempted"]))
    failed = int(report["failed"]) + len(missing)
    if missing:
        print("missing metrics: " + ", ".join(missing))
    print("error_rate %.6g (%d failed of %d attempted)" %
          (failed / attempted, failed, attempted))
    correct = failed == 0 and all(c["ok"] for c in report["checks"])
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Builds the mgp library and the benchmark from source, runs one workload,
checks its output, and prints the result as the last line of stdout.

    python3 mgpbench/run.py --workload rb_mesh --seed 1 --seconds 25 --trace 0
    python3 mgpbench/run.py --workload served_mix --seed 1 --seconds 25 --trace 1
    python3 mgpbench/run.py --selftest

Run it from the repository root.  The build lives in $CARGO_TARGET_DIR
(default .bench_build) under mgpbench/; the first run configures and builds
(a few minutes), later runs rebuild only what changed.  --trace 1 runs the
untraced binary for half the time (the base of trace.overhead_ratio), then
the traced binary for the other half, and prints the per-layer metrics.

Before the result line the script prints a `host {...}` line (nproc, CPU
model, compiler, build type, MGP_OBS, git SHA) and a `detail {...}` line
(figures only this workload has, outside BENCHMARK.json), and it writes all
three to results/<workload>-seed<seed>-trace<t>.json in the build directory.
The result line holds exactly the metrics BENCHMARK.json declares for the
run's --trace value, the same names for every workload.
Exit status: 0 when every output was correct, 1 on a wrong answer, 2 when
the build or the run itself failed (no result is printed then).
"""

import argparse
import json
import math
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("rb_mesh", "rb_mesh_pool", "nd_order", "served_mix")
DEADLINE_S = 175  # the whole command must end within 180 s
START = time.monotonic()


def fail(msg):
    print("mgpbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "mgpbench")


def build(targets):
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", out, "-j", jobs, "--target"] + targets]
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed: " + " ".join(cmd))
    return out


def git_sha():
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def run_binary(binary, args):
    """Runs one benchmark binary; returns (host, detail, result, exit code)."""
    left = DEADLINE_S - (time.monotonic() - START)
    try:
        proc = subprocess.run([binary] + args, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True, timeout=max(1, left))
    except subprocess.TimeoutExpired:
        fail("%s did not finish within the time budget" % os.path.basename(binary))
    sys.stderr.write(proc.stderr)
    if proc.returncode not in (0, 1):
        fail("%s exited with %d" % (os.path.basename(binary), proc.returncode))
    lines = proc.stdout.strip().splitlines()
    if (len(lines) < 3 or not lines[-3].startswith("host ")
            or not lines[-2].startswith("detail ")):
        fail("unexpected output from %s" % os.path.basename(binary))
    return (json.loads(lines[-3][5:]), json.loads(lines[-2][7:]), json.loads(lines[-1]),
            proc.returncode)


def check_metrics(result, declared):
    """The metrics must be exactly those declared in BENCHMARK.json, each in
    its declared unit and a finite number."""
    missing = sorted(set(declared) - set(result["metrics"]))
    if missing:
        fail("metrics declared in BENCHMARK.json but not reported: " + ", ".join(missing))
    for name, m in result["metrics"].items():
        if name not in declared:
            fail("metric %s is not declared in BENCHMARK.json" % name)
        if m["unit"] != declared[name]:
            fail("metric %s has unit %s, declared %s" % (name, m["unit"], declared[name]))
        if not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"]):
            fail("metric %s is not a finite number" % name)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true", help="build and run the self-tests")
    a = ap.parse_args()

    if a.selftest:
        out = build(["mgpbench_selftest"])
        sys.exit(subprocess.run([os.path.join(out, "mgpbench_selftest")], cwd=ROOT).returncode)
    if not a.workload:
        ap.error("--workload is required")
    if a.seconds <= 0:
        ap.error("--seconds must be positive")

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    out = build(["mgpbench", "mgpbench_traced"])
    work = os.path.join(out, "run")
    os.makedirs(work, exist_ok=True)
    common = ["--workload", a.workload, "--seed", str(a.seed),
              "--work-dir", os.path.relpath(work, ROOT)]

    if a.trace == 0:
        host, detail, result, code = run_binary(os.path.join(out, "mgpbench"),
                                                common + ["--seconds", str(a.seconds)])
        declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    else:
        half = str(a.seconds / 2)
        host, _, base, code0 = run_binary(os.path.join(out, "mgpbench"),
                                          common + ["--seconds", half, "--overhead-base", "1"])
        _, detail, result, code = run_binary(
            os.path.join(out, "mgpbench_traced"),
            common + ["--seconds", half, "--trace", "1", "--untraced-p50",
                      repr(base["metrics"]["latency_ms_p50"]["value"])])
        result["correct"] = result["correct"] and base["correct"]
        result["attempted"] += base["attempted"]
        result["failed"] += base["failed"]
        code = max(code, code0)
        declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    check_metrics(result, declared)

    host.update({"cpu_model": cpu_model(), "git_sha": git_sha()})
    res_dir = os.path.join(out, "results")
    os.makedirs(res_dir, exist_ok=True)
    with open(os.path.join(res_dir, "%s-seed%d-trace%d.json" % (a.workload, a.seed, a.trace)),
              "w") as f:
        json.dump({"host": host, "workload": a.workload, "seed": a.seed,
                   "seconds": a.seconds, "trace": a.trace, "detail": detail,
                   "result": result}, f, indent=1)
    print("host " + json.dumps(host, sort_keys=True))
    print("detail " + json.dumps(detail))
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    sys.exit(0 if code == 0 and result["correct"] else 1)


if __name__ == "__main__":
    main()

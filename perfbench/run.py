#!/usr/bin/env python3
"""Run the repository benchmark on one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --p99-limit-ms 10 --workload serve --seed 1 \
        --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

Builds perfbench (perfbench/CMakeLists.txt) from the checkout's own sources
into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs the
workload, and prints as its last line one JSON object with the keys
correct, attempted, failed and metrics. With --trace 0 the metrics are the
end_to_end metrics of BENCHMARK.json; with --trace 1 the per_layer metrics,
where a layer the workload does not call reads 0. Exits nonzero, without a
result line, when the build or the run fails, and with a result line but a
nonzero code when an output check fails.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 170.0
BUILD_JOBS = "2"


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    return os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")


def build(target):
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", "perfbench", "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(out, ignore_errors=True)
            return None
    cmd = ["cmake", "--build", out, "--target", target, "-j", BUILD_JOBS]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(out, target)


def source_id():
    """The git commit when there is one, else a digest of the source tree."""
    if os.path.isdir(".git"):
        r = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
        if r.returncode == 0:
            return r.stdout.strip()
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(path.encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "tree-sha256:" + h.hexdigest()[:16]


def run_workload(binary, args):
    cmd = [binary, "--workload=" + args.workload, "--seed=%d" % args.seed,
           "--seconds=%g" % args.seconds, "--trace=%d" % args.trace,
           "--p99-limit-ms=%g" % args.p99_limit_ms,
           # Relative: the serve socket path must fit in sockaddr_un.
           "--out-dir=" + os.path.relpath(build_dir()),
           "--source-id=" + source_id()]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log("perfbench: run exceeded %.0f s" % RUN_TIMEOUT_S)
        return None, 1
    result = None
    for line in stdout.splitlines():
        if line.startswith("PERFBENCH-RESULT "):
            result = json.loads(line[len("PERFBENCH-RESULT "):])
        else:
            print(line)
    return result, proc.returncode


def select_metrics(result, trace):
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    declared = spec["per_layer" if trace else "end_to_end"]
    metrics = {}
    for m in declared:
        got = result["metrics"].get(m["name"])
        if got is None:
            if not trace:
                raise KeyError("workload did not report " + m["name"])
            got = {"value": 0.0, "unit": m["unit"]}  # layer not called here
        if got["unit"] != m["unit"]:
            raise ValueError("%s: unit %s, declared %s" % (m["name"], got["unit"], m["unit"]))
        metrics[m["name"]] = got
    return metrics


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--p99-limit-ms", type=float, default=10.0)
    p.add_argument("--selftest", action="store_true")
    args = p.parse_args()
    os.chdir(ROOT)
    t0 = time.monotonic()

    if args.selftest:
        binary = build("perfbench_selftest")
        return 1 if binary is None else subprocess.run([binary]).returncode
    if not args.workload:
        p.error("--workload is required")

    binary = build("perfbench")
    if binary is None:
        log("perfbench: build failed")
        return 1
    log("perfbench: built in %.1f s" % (time.monotonic() - t0))
    result, code = run_workload(binary, args)
    if result is None or code not in (0, 3):
        log("perfbench: run failed (exit %s)" % code)
        return 1
    try:
        metrics = select_metrics(result, args.trace == 1)
    except (KeyError, ValueError) as e:
        log("perfbench: " + str(e))
        return 1
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

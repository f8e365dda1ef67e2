#!/usr/bin/env python3
"""Builds and runs the ESAM end-to-end benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload cold_report --seed 1 --seconds 10 --trace 0

The first run configures and builds the driver (perfbench/CMakeLists.txt,
which builds the esam library from the repository sources) under
.bench_build/perfbench; later runs only re-check the build. The driver's
report lines go to stdout, then one JSON line with exactly the keys
correct, attempted, failed and metrics. With --trace 0 the metrics are the
end_to_end list of BENCHMARK.json, with --trace 1 the per_layer list; a
metric missing or printed with another unit is an error, and no result is
printed. The exit status is the driver's (non-zero when any output check
failed), or 1 when the sources or the build are missing.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "esam_perfbench")
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    for need in ("CMakeLists.txt", "src", "include"):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail(f"no esam sources: {need} is missing from {ROOT}")
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("configure failed")
    cmd = ["cmake", "--build", BUILD, "-j", "4"]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build()
    expected = expected_metrics(args.trace)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", os.path.join(BUILD, "run")]
    env = dict(os.environ)
    env.pop("ESAM_MNIST_DIR", None)
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"driver exceeded {RUN_TIMEOUT_S} s")

    lines = out.rstrip("\n").splitlines()
    if not lines:
        fail(f"driver printed nothing (exit {proc.returncode})")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"driver did not end with a JSON result (exit {proc.returncode})")
    got = result["metrics"]
    problems = [f"{name} [{unit}] missing" for name, unit in expected.items()
                if name not in got]
    problems += [f"{name} printed in {got[name]['unit']}, expected {unit}"
                 for name, unit in expected.items()
                 if name in got and got[name]["unit"] != unit]
    if problems:
        fail("metrics do not match BENCHMARK.json: " + "; ".join(problems))

    print("\n".join(lines[:-1]))
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: got[name] for name in expected},
    }))
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()

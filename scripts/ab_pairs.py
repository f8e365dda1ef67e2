#!/usr/bin/env python3
"""A/B comparison of two checkouts on the end-to-end benchmark, by pairs.

Runs `perfbench/run.py` of a parent checkout and of a changed checkout in
N alternating pairs per workload (the first run of each pair alternates, so
neither tree always runs on a warmer machine), then prints, for every
end-to-end metric of the changed checkout's BENCHMARK.json:

  * the parent's and the change's median,
  * the parent's interquartile range (q1-q3),
  * the change's relative move of the median, signed so that positive is
    better, and how many pairs the change won (strictly better run),
  * "WORSE" when the change's median is worse than the parent's by more
    than the metric's bound, else "unresolved" when the parent's IQR is
    wider than the bound (relative to its median) and the change's runs do
    not all read better than all of the parent's.

A gain is resolved when the change wins at least 9 of 10 pairs and its
median moves by more than the parent's IQR; anything less is noise. Each
checkout builds its own driver on its first run (under .bench_build/ in
that checkout); one discarded warm-up run per checkout and workload keeps
that build out of the pairs.

Usage (from anywhere):

    python3 scripts/ab_pairs.py --parent ../parent --change . \\
        [--workload cold_report --workload fleet_adapt] [--pairs 10] \\
        [--seconds 40] [--seed 1] [--json pairs.json]

Without --workload it runs every workload BENCHMARK.json lists. Exits 1
when any run fails (a non-zero driver exit or failed checks) or any metric
is worse than its bound, 0 otherwise.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def load_spec(checkout):
    with open(os.path.join(checkout, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(checkout, workload, seed, seconds):
    """One perfbench run; returns (result dict or None, error text)."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    lines = proc.stdout.rstrip("\n").splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return None, f"exit {proc.returncode}: {proc.stderr.strip()[-400:]}"
    if proc.returncode != 0 or result.get("failed", 0) != 0:
        return result, (f"exit {proc.returncode}, "
                        f"{result.get('failed')} failed checks")
    return result, ""


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def summarise(metric, parent, change):
    """Medians, parent IQR, signed relative move, wins, bound verdict."""
    lower_better = metric["better"] == "lower"
    p_med = statistics.median(parent)
    c_med = statistics.median(change)
    q1, q3 = quartiles(parent)
    wins = sum(1 for p, c in zip(parent, change)
               if (c < p if lower_better else c > p))
    if p_med != 0:
        move = (c_med - p_med) / abs(p_med)
    else:
        move = 0.0 if c_med == p_med else float("inf")
    gain = -move if lower_better else move
    if lower_better:
        all_better = max(change) < min(parent)
    else:
        all_better = min(change) > max(parent)
    spread = (q3 - q1) / abs(p_med) if p_med != 0 else 0.0
    return {
        "parent_median": p_med, "change_median": c_med,
        "parent_q1": q1, "parent_q3": q3,
        "gain": gain, "wins": wins, "pairs": len(parent),
        "worse_than_bound": gain < -metric["bound"],
        "unresolved": spread > metric["bound"] and not all_better,
        "resolved_gain": (wins >= 0.9 * len(parent)
                          and abs(c_med - p_med) > q3 - q1 and gain > 0),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="parent checkout")
    ap.add_argument("--change", required=True, help="changed checkout")
    ap.add_argument("--workload", action="append", default=[])
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=40)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--json", help="also write every run and the summary")
    args = ap.parse_args()

    trees = {"parent": os.path.abspath(args.parent),
             "change": os.path.abspath(args.change)}
    spec = load_spec(trees["change"])
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"]

    report = {"pairs": args.pairs, "seconds": args.seconds,
              "seed": args.seed, "workloads": {}}
    bad = False
    for workload in workloads:
        for side, tree in trees.items():
            _, err = run_once(tree, workload, args.seed, 1)  # warm-up
            if err:
                print(f"{workload}: {side} warm-up failed: {err}",
                      file=sys.stderr)
                bad = True
        runs = {"parent": [], "change": []}
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change",
                                                             "parent")
            for side in order:
                result, err = run_once(trees[side], workload, args.seed,
                                       args.seconds)
                if err:
                    print(f"{workload} pair {i + 1} {side}: {err}",
                          file=sys.stderr)
                    bad = True
                runs[side].append(result)
            print(f"{workload}: pair {i + 1}/{args.pairs} done",
                  file=sys.stderr, flush=True)

        print(f"\n{workload}: {args.pairs} alternating pairs, "
              f"--seconds {args.seconds}, seed {args.seed}")
        print(f"  {'metric':<20} {'parent':>12} {'change':>12} "
              f"{'parent IQR':>25} {'gain':>8} {'wins':>6}")
        summary = {}
        for metric in metrics:
            name = metric["name"]
            values = {}
            for side in runs:
                values[side] = [r["metrics"][name]["value"]
                                for r in runs[side] if r is not None]
            if not values["parent"] or len(values["parent"]) != len(
                    values["change"]):
                print(f"  {name:<20} (missing runs)")
                bad = True
                continue
            s = summarise(metric, values["parent"], values["change"])
            summary[name] = s
            verdict = ("WORSE" if s["worse_than_bound"]
                       else "unresolved" if s["unresolved"]
                       else "gain" if s["resolved_gain"] else "")
            iqr = f"{s['parent_q1']:.6g}-{s['parent_q3']:.6g}"
            print(f"  {name:<20} {s['parent_median']:>12.6g} "
                  f"{s['change_median']:>12.6g} {iqr:>25} "
                  f"{100 * s['gain']:>+7.1f}% {s['wins']:>3}/{s['pairs']:<2} "
                  f"{verdict}")
            bad = bad or s["worse_than_bound"]
        failed = {side: sum(r["failed"] for r in runs[side] if r is not None)
                  for side in runs}
        print(f"  failed checks: parent {failed['parent']}, "
              f"change {failed['change']}")
        report["workloads"][workload] = {"runs": runs, "summary": summary}

    if args.json:
        with open(args.json, "w") as f:
            json.dump(report, f, indent=1)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Benchmark-regression gate: compares a bench --json output to a checked-in
baseline and fails (exit 1) when either

  * a modelled metric drifts from the baseline (these are machine-independent
    simulator outputs -- energy/inference, cycles, accuracy, area -- so any
    drift is a code-behaviour change, gated exactly by default; pass --tol
    to allow a relative tolerance), or
  * a within-run speedup ratio falls below its "min_ratios" floor from the
    baseline (ratios of two same-host measurements -- SIMD backend vs scalar
    kernels, pipelined vs sequential engine -- are comparable across hosts;
    absolute ns/op values live under "info" and are never gated).

Baseline files are the bench's own --json output plus a hand-written
"min_ratios" object; refresh them with the commands in README.md when a PR
legitimately changes modelled numbers or performance floors.

Usage: check_bench.py BASELINE CURRENT [--tol REL]

Exit status: 0 when every gate passes, 1 on metric drift or a ratio under
its floor, 2 when BASELINE or CURRENT cannot be read as JSON (a one-line
"check_bench: cannot read PATH: REASON" on stderr; argparse also exits 2 on
bad arguments), so a mistyped path never reads as a regression.
"""

import argparse
import json
import sys


def rel_diff(a: float, b: float) -> float:
    if a == b:
        return 0.0
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if scale > 0.0 else 0.0


def load_json(path: str) -> dict:
    """The JSON in `path`; exits 2 with one line if it cannot be read."""
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        reason = e.strerror if isinstance(e, OSError) and e.strerror else e
        print(f"check_bench: cannot read {path}: {reason}", file=sys.stderr)
        sys.exit(2)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("baseline")
    ap.add_argument("current")
    ap.add_argument(
        "--tol",
        type=float,
        default=0.0,
        help="relative tolerance for modelled metrics (default: exact)",
    )
    opts = ap.parse_args()

    base = load_json(opts.baseline)
    cur = load_json(opts.current)

    failures = []

    if base.get("bench") != cur.get("bench"):
        failures.append(
            f"bench name mismatch: baseline {base.get('bench')!r} vs "
            f"current {cur.get('bench')!r}"
        )

    base_metrics = base.get("metrics", {})
    cur_metrics = cur.get("metrics", {})
    for key, want in sorted(base_metrics.items()):
        if key not in cur_metrics:
            failures.append(f"metric missing from current run: {key}")
            continue
        got = cur_metrics[key]
        d = rel_diff(want, got)
        if d > opts.tol:
            failures.append(
                f"metric {key}: baseline {want:.12g}, current {got:.12g} "
                f"(rel diff {d:.3e} > tol {opts.tol:.3e})"
            )

    # Speedup-ratio floors. The floors were recorded against a specific kernel
    # backend; on a host without that backend (e.g. scalar-only) the speedups
    # are unreachable by construction, so skip them with a note instead of
    # failing.
    backends_match = base.get("simd_backend") == cur.get("simd_backend")
    if not backends_match:
        print(
            f"note: skipping ratio floors (baseline backend "
            f"{base.get('simd_backend')!r}, current "
            f"{cur.get('simd_backend')!r})"
        )
    cur_ratios = cur.get("ratios", {})
    for key, floor in sorted(base.get("min_ratios", {}).items()):
        if key not in cur_ratios:
            failures.append(f"ratio missing from current run: {key}")
            continue
        if not backends_match:
            continue
        got = cur_ratios[key]
        if got < floor:
            failures.append(
                f"ratio {key}: {got:.3f} below floor {floor:.3f} "
                "-- performance regression"
            )
        else:
            print(f"ok: ratio {key} = {got:.3f} (floor {floor:.3f})")

    n_metrics = len(base_metrics)
    if failures:
        print(f"\nFAIL: {len(failures)} problem(s) vs {opts.baseline}:")
        for msg in failures:
            print(f"  - {msg}")
        return 1
    print(f"PASS: {n_metrics} metric(s) match {opts.baseline}, ratios above floors")
    return 0


if __name__ == "__main__":
    sys.exit(main())

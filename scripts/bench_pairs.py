"""Alternating pairs of benchmark runs in two checkouts.

    python3 scripts/bench_pairs.py PARENT CHANGE --workloads fan-sweep --seeds 1 2 3

For each workload and seed this runs ``perfbench/run.py --trace 0`` once in
the checkout PARENT and once in CHANGE, the parent first on odd pairs and
second on even ones, so a drift of the host's speed does not favour either
side.  It prints, per workload and end-to-end metric, each side's median and
quartiles, the gap of the medians against the parent's interquartile range,
and in how many pairs the change is ahead, which way is better being read
from CHANGE's ``BENCHMARK.json``.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles


def run(checkout, workload, seed, seconds) -> dict:
    """The end-to-end metrics of one benchmark run, by name."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        print(f"{checkout}: {workload} seed {seed} failed a check", file=sys.stderr)
    return {k: m["value"] for k, m in result["metrics"].items()}


def summary(parent, change, higher: bool) -> dict:
    """Median and quartiles of each side's values of one metric, listed pair
    by pair, the gap of the medians (change minus parent), the parent's
    interquartile range, and the pairs in which the change is better."""
    def spread(xs):
        q1, _, q3 = quantiles(xs, n=4) if len(xs) > 1 else xs * 3
        return median(xs), q1, q3

    p, c = spread(parent), spread(change)
    ahead = sum((y > x) if higher else (y < x) for x, y in zip(parent, change))
    return {"parent": p, "change": c, "gap": c[0] - p[0], "iqr": p[2] - p[1],
            "ahead": ahead, "pairs": len(parent)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workloads", nargs="+", required=True)
    ap.add_argument("--seeds", nargs="+", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=16.0)
    args = ap.parse_args(argv)
    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    higher = {m["name"]: m["better"] == "higher" for m in bench["end_to_end"]}
    for workload in args.workloads:
        sides = {"parent": [], "change": []}
        for k, seed in enumerate(args.seeds, 1):
            order = ("parent", "change") if k % 2 else ("change", "parent")
            for side in order:
                sides[side].append(run(getattr(args, side), workload, seed, args.seconds))
        for name in sides["parent"][0]:
            s = summary([r[name] for r in sides["parent"]], [r[name] for r in sides["change"]],
                        higher.get(name, False))
            print(f"{workload} {name}: parent {s['parent'][0]:.6g} "
                  f"[{s['parent'][1]:.6g}, {s['parent'][2]:.6g}]  change {s['change'][0]:.6g} "
                  f"[{s['change'][1]:.6g}, {s['change'][2]:.6g}]  gap {s['gap']:+.6g} "
                  f"iqr {s['iqr']:.6g}  ahead {s['ahead']}/{s['pairs']}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

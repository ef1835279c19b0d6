"""Compare two sets of benchmark records: parent commit vs change.

Usage (from the repository root)::

    python3 bench/compare.py --parent DIR_OR_FILE... --change DIR_OR_FILE...

Each side is a set of ``bench/results/*.json`` records written by
``run.py`` on one commit.  For every workload x end-to-end metric the
script prints both sides' median and quartiles, the alternating pairs
the change won, and a verdict:

* ``improved``   -- the change wins at least 9 in 10 pairs (ties count
  for neither side) and the medians differ by more than the parent's
  own spread (the distance between its quartiles);
* ``regressed``  -- the change's median is worse than the parent's by
  more than the metric's bound in ``BENCHMARK.json``;
* ``unresolved`` -- the parent's spread, as a share of its median, is
  wider than the bound, so "no change" cannot be told apart from noise;
* ``unchanged``  -- none of the above.

Pairs are formed in run order: the i-th parent record with the i-th
change record.  Given traced records (``run.py --trace 1``) it also
names, per workload, the layer whose self time moved most.

Exits 1 when any metric regressed.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import sys

from run import SELF_TIME_METRICS

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def load_records(paths: list[str]) -> list[dict]:
    files: list[str] = []
    for path in paths:
        if os.path.isdir(path):
            files += sorted(glob.glob(os.path.join(path, "*.json")))
        else:
            files.append(path)
    records = []
    for name in files:
        with open(name, encoding="utf-8") as handle:
            records.append(json.load(handle))
    return sorted(records, key=lambda r: r.get("created", 0.0))


def summary(values: list[float]) -> tuple[float, float, float]:
    """(median, first quartile, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def verdict(parent: list[float], change: list[float], better: str, bound: float):
    """``(verdict, wins, pairs)`` for one workload x metric."""
    sign = 1.0 if better == "lower" else -1.0
    p_med, p_q1, p_q3 = summary(parent)
    c_med = summary(change)[0]
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (p - c) > 0)
    worse_by = sign * (c_med - p_med) / abs(p_med) if p_med else 0.0
    spread = (p_q3 - p_q1) / abs(p_med) if p_med else 0.0
    every_run_better = all(sign * (p - c) > 0 for p in parent for c in change)
    if pairs and wins >= 0.9 * len(pairs) and sign * (p_med - c_med) > p_q3 - p_q1:
        return "improved", wins, len(pairs)
    if worse_by > bound:
        return "regressed", wins, len(pairs)
    if spread > bound and not every_run_better:
        return "unresolved", wins, len(pairs)
    return "unchanged", wins, len(pairs)


def moved_layer(parent: list[dict], change: list[dict]) -> tuple[str, float, float] | None:
    """The layer self-time metric whose median moved most."""
    best = None
    for name in SELF_TIME_METRICS:
        p = [r["per_layer"][name] for r in parent if name in r.get("per_layer", {})]
        c = [r["per_layer"][name] for r in change if name in r.get("per_layer", {})]
        if not p or not c:
            continue
        p_med, c_med = statistics.median(p), statistics.median(c)
        if best is None or abs(c_med - p_med) > abs(best[2] - best[1]):
            best = (name, p_med, c_med)
    return best


def _cell(values: list[float]) -> str:
    med, q1, q3 = summary(values)
    return f"{med:.5g} [{q1:.5g}, {q3:.5g}]"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", nargs="+", required=True)
    parser.add_argument("--change", nargs="+", required=True)
    parser.add_argument("--benchmark", default=os.path.join(ROOT, "BENCHMARK.json"))
    args = parser.parse_args(argv)

    with open(args.benchmark, encoding="utf-8") as handle:
        spec = json.load(handle)
    parent, change = load_records(args.parent), load_records(args.change)
    workloads = [w["name"] for w in spec["workloads"]]
    regressed = False
    print(f"{'workload':<14} {'metric':<17} {'parent median [q1, q3]':<34} "
          f"{'change median [q1, q3]':<34} {'wins':<7} verdict")
    for workload in workloads:
        p_runs = [r for r in parent if r["workload"] == workload and not r.get("smoke")]
        c_runs = [r for r in change if r["workload"] == workload and not r.get("smoke")]
        if not p_runs or not c_runs:
            print(f"{workload:<14} (no records on {'parent' if not p_runs else 'change'} side)")
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            p = [r["end_to_end"][name] for r in p_runs]
            c = [r["end_to_end"][name] for r in c_runs]
            outcome, wins, pairs = verdict(p, c, metric["better"], metric["bound"])
            regressed |= outcome == "regressed"
            print(f"{workload:<14} {name:<17} {_cell(p):<34} {_cell(c):<34} "
                  f"{f'{wins}/{pairs}':<7} {outcome}")
        moved = moved_layer(
            [r for r in p_runs if "per_layer" in r], [r for r in c_runs if "per_layer" in r]
        )
        if moved is not None:
            name, p_med, c_med = moved
            print(f"{workload:<14} layer that moved most: {name} "
                  f"{p_med:.5g} -> {c_med:.5g} s/op")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())

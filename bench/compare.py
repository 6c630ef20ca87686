"""Compare two sets of benchmark runs, or show the spread of one set.

    python3 bench/compare.py PARENT_RUNS [CHANGE_RUNS]

Each argument is a directory of run records written by ``run.py`` (for
example a copy of ``bench/out/runs``) or a single record file.  Untraced
records are grouped by workload.  For every end-to-end metric of
``BENCHMARK.json`` the output gives each side's median and quartiles
(``statistics.quantiles(values, n=4)``) and the spread (quartile distance
over the median).  With two sets it also gives the pairs the change won and
a verdict:

* improved: the change wins at least 9/10 of the pairs (runs paired by seed,
  ties count for neither) and the medians differ by more than the parent's
  quartile distance;
* unresolved: the parent's spread is wider than the bound and not every run
  of the change beats every run of the parent;
* regressed: the change's median is worse than the parent's by more than
  the bound;
* within bound: otherwise.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
SPEC = os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")


def load(path: str) -> dict[str, list[dict]]:
    files = [path] if os.path.isfile(path) else [
        os.path.join(path, name) for name in sorted(os.listdir(path)) if name.endswith(".json")
    ]
    runs: dict[str, list[dict]] = {}
    for name in files:
        with open(name, encoding="utf-8") as handle:
            record = json.load(handle)
        if not record.get("trace"):
            runs.setdefault(record["workload"], []).append(record)
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def better(a: float, b: float, direction: str) -> bool:
    """True if ``b`` is better than ``a``."""
    return b < a if direction == "lower" else b > a


def verdict(parent: list[float], change: list[float], pairs, direction: str, bound: float) -> str:
    q1, med_a, q3 = quartiles(parent)
    med_b = quartiles(change)[1]
    wins = sum(better(a, b, direction) for a, b in pairs)
    if pairs and wins >= 0.9 * len(pairs) and better(med_a, med_b, direction) and abs(med_b - med_a) > q3 - q1:
        return "improved"
    spread = (q3 - q1) / med_a if med_a else float("inf")
    all_better = all(better(a, b, direction) for a in parent for b in change)
    if spread > bound and not all_better:
        return "unresolved"
    worse_by = (med_b - med_a) / med_a if direction == "lower" else (med_a - med_b) / med_a
    return "regressed" if worse_by > bound else "within bound"


def pair_runs(parent: list[dict], change: list[dict]) -> list[tuple[dict, dict]]:
    """Pair runs with equal seeds; runs without a partner are left out."""
    by_seed = {r["seed"]: r for r in change}
    return [(r, by_seed[r["seed"]]) for r in parent if r["seed"] in by_seed]


def main(argv: list[str]) -> int:
    if len(argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        return 2
    with open(SPEC, encoding="utf-8") as handle:
        spec = json.load(handle)
    sides = [load(path) for path in argv[1:]]
    for workload in sorted(set().union(*sides)):
        print(f"# {workload}")
        for metric in spec["end_to_end"]:
            name, bound, direction = metric["name"], metric["bound"], metric["better"]
            cells = []
            values = []
            for side in sides:
                vals = [r["metrics"][name] for r in side.get(workload, [])]
                values.append(vals)
                if vals:
                    q1, med, q3 = quartiles(vals)
                    spread = (q3 - q1) / med if med else 0.0
                    cells.append(f"median {med:.6g} [{q1:.6g}, {q3:.6g}] spread {spread:.3f} n={len(vals)}")
                else:
                    cells.append("no runs")
            line = f"  {name:12s} {metric['unit']:5s} bound {bound:<5} " + "  |  ".join(cells)
            if len(sides) == 2 and all(values):
                pairs = [(a["metrics"][name], b["metrics"][name])
                         for a, b in pair_runs(sides[0][workload], sides[1][workload])]
                wins = sum(better(a, b, direction) for a, b in pairs)
                line += f"  |  won {wins}/{len(pairs)}  {verdict(values[0], values[1], pairs, direction, bound)}"
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

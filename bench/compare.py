"""Compare two result sets of the benchmark: parent commit against change.

Usage:
    python3 bench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds result files written by ``run.py --out``.  Runs of
the two sides are paired by workload, trace mode and seed; run the pairs
alternately (parent first, then change first, ...) with the same
``--seconds``.  For every workload and metric the table gives each
side's median and quartiles, the pairs the change won, and a verdict
(the rule of choosing-metrics section 8):

* improved: the change wins at least 9 of 10 pairs (ties count for
  neither) and its median beats the parent's by more than the parent's
  interquartile range;
* worse: an end-to-end metric whose median is worse than the parent's by
  more than its bound in BENCHMARK.json; a per-layer metric (no bound)
  that loses by the mirror of the improved rule;
* unresolved: an end-to-end metric whose parent spread exceeds its bound,
  unless every change run reads better than every parent run;
* unchanged: anything else.

``check_failures`` (failed output checks over checks attempted) is
compared too: any increase is worse.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
WIN_SHARE = 0.9


def load_results(directory: Path) -> dict[tuple[str, int], dict[int, dict]]:
    """``{(workload, trace): {seed: result}}`` for every result file."""
    out: dict[tuple[str, int], dict[int, dict]] = {}
    for path in sorted(directory.glob("*.json")):
        result = json.loads(path.read_text())
        out.setdefault((result["workload"], result["trace"]), {})[result["seed"]] = result
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent: list[float], change: list[float], better: str,
            bound: float | None) -> tuple[str, int]:
    """Verdict for seed-paired runs, and the number of pairs the change won."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    losses = sum(1 for p, c in zip(parent, change) if sign * (c - p) < 0)
    q1, parent_median, q3 = quartiles(parent)
    iqr = q3 - q1
    gain = sign * (statistics.median(change) - parent_median)
    pairs = len(parent)
    if wins >= WIN_SHARE * pairs and gain > iqr:
        return "improved", wins
    if bound is None:
        if losses >= WIN_SHARE * pairs and -gain > iqr:
            return "worse", wins
        return "unchanged", wins
    scale = abs(parent_median)
    every_run_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if scale and iqr / scale > bound and not every_run_better:
        return "unresolved", wins
    if -gain > bound * scale:
        return "worse", wins
    return "unchanged", wins


def compare(parent_dir: Path, change_dir: Path) -> list[dict]:
    spec = json.loads(BENCHMARK.read_text())
    rules = {m["name"]: (m["better"], m.get("bound")) for m in spec["end_to_end"]}
    rules.update({m["name"]: (m["better"], None) for m in spec["per_layer"]})
    rules["check_failures"] = ("lower", 0.0)
    parent, change = load_results(parent_dir), load_results(change_dir)
    rows = []
    for key in sorted(parent.keys() & change.keys()):
        seeds = sorted(parent[key].keys() & change[key].keys())
        if not seeds:
            continue
        first = parent[key][seeds[0]]
        names = list(first["metrics"]) + ["check_failures"]
        for name in names:
            def values(side):
                if name == "check_failures":
                    return [side[key][s]["check_failures"] for s in seeds]
                return [side[key][s]["metrics"][name]["value"] for s in seeds]

            p, c = values(parent), values(change)
            better, bound = rules.get(name, ("lower", None))
            result, wins = verdict(p, c, better, bound)
            unit = first["metrics"][name]["unit"] if name in first["metrics"] else "ratio"
            rows.append({
                "workload": key[0], "trace": key[1], "metric": name, "unit": unit,
                "parent": quartiles(p), "change": quartiles(c),
                "wins": wins, "pairs": len(seeds), "verdict": result,
            })
    return rows


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    rows = compare(Path(argv[0]), Path(argv[1]))
    if not rows:
        print("error: no workload has results on both sides for the same seed",
              file=sys.stderr)
        return 1
    header = (f"{'workload':<16} {'metric':<34} {'unit':<9} "
              f"{'parent median [q1, q3]':<34} {'change median [q1, q3]':<34} "
              f"{'wins':>6}  verdict")
    print(header)
    for row in rows:
        def side(q):
            return f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]"

        print(f"{row['workload']:<16} {row['metric']:<34} {row['unit']:<9} "
              f"{side(row['parent']):<34} {side(row['change']):<34} "
              f"{row['wins']:>2}/{row['pairs']:<3}  {row['verdict']}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

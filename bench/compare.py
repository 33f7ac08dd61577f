"""``python -m bench.compare A.json B.json``: did B get worse than A?

A and B are documents written by ``python -m bench --out`` (use
``--repeat`` so each holds several runs per workload).  For every workload
and end-to-end metric this prints both medians, their ratio with A as the
base, the run-to-run spread (interquartile range over median, the larger
side) and a verdict against the metric's bound in ``BENCHMARK.json``:

* ``unresolved`` — the spread is wider than the bound, so a change of the
  bound's size could not be seen, unless every run of B reads better than
  every run of A;
* ``worse``      — B's median is worse than A's by more than the bound;
* ``ok``         — otherwise.

Per-layer metrics have no bound and get no verdict.  The exit code is
non-zero if any pairing is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from typing import Dict, List, Optional, Tuple

from bench import spec


def _values(document: dict) -> Dict[Tuple[str, str], List[dict]]:
    """(workload, metric) -> that metric's entry in each untraced run."""
    table: Dict[Tuple[str, str], List[dict]] = {}
    for run in document["runs"]:
        if run["trace"]:
            continue
        for name, entry in run["metrics"].items():
            table.setdefault((run["workload"], name), []).append(entry)
    return table


def _spread(entries: List[dict]) -> float:
    """IQR/median across runs; one run falls back on its own quartiles."""
    values = [entry["value"] for entry in entries]
    if len(values) >= 2:
        q1, __, q3 = statistics.quantiles(values, n=4)
        median = statistics.median(values)
    elif "q1" in entries[0]:
        q1, q3, median = entries[0]["q1"], entries[0]["q3"], values[0]
    else:
        return 0.0
    return (q3 - q1) / median if median else 0.0


def verdict(a: List[dict], b: List[dict], better: str,
            bound: float) -> Tuple[str, float, float, float, float]:
    """(verdict, median A, median B, B/A, spread)."""
    values_a = [entry["value"] for entry in a]
    values_b = [entry["value"] for entry in b]
    median_a = statistics.median(values_a)
    median_b = statistics.median(values_b)
    ratio = median_b / median_a if median_a else float("inf")
    spread = max(_spread(a), _spread(b))
    if better == "higher":
        worse_by = (median_a - median_b) / median_a if median_a else 0.0
        all_better = min(values_b) > max(values_a)
    else:
        worse_by = (median_b - median_a) / median_a if median_a else 0.0
        all_better = max(values_b) < min(values_a)
    if spread > bound and not all_better:
        return "unresolved", median_a, median_b, ratio, spread
    if worse_by > bound:
        return "worse", median_a, median_b, ratio, spread
    return "ok", median_a, median_b, ratio, spread


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench.compare",
                                     description=__doc__.split("\n\n")[0])
    parser.add_argument("a", help="results.json of the base (parent) commit")
    parser.add_argument("b", help="results.json of the change")
    args = parser.parse_args(argv)
    with open(args.a) as handle:
        document_a = json.load(handle)
    with open(args.b) as handle:
        document_b = json.load(handle)

    counts = {"ok": 0, "worse": 0, "unresolved": 0}
    table_a, table_b = _values(document_a), _values(document_b)
    print(f"{'workload':<15} {'metric':<16} {'A median':>13} {'B median':>13} "
          f"{'B/A':>7} {'spread':>7} {'bound':>6}  verdict")
    for workload in spec.WORKLOAD_NAMES:
        for metric in spec.DECLARED["end_to_end"]:
            key = (workload, metric["name"])
            if key not in table_a or key not in table_b:
                continue
            outcome, median_a, median_b, ratio, spread = verdict(
                table_a[key], table_b[key], metric["better"], metric["bound"])
            counts[outcome] += 1
            print(f"{workload:<15} {metric['name']:<16} {median_a:>13.6g} "
                  f"{median_b:>13.6g} {ratio:>7.3f} {spread:>7.3f} "
                  f"{metric['bound']:>6.2f}  {outcome} "
                  f"({len(table_a[key])} vs {len(table_b[key])} runs)")
    print(f"{counts['ok']} ok, {counts['worse']} worse, "
          f"{counts['unresolved']} unresolved")
    return 1 if counts["worse"] else 0


if __name__ == "__main__":
    sys.exit(main())

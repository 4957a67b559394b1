"""Compare two ``run.py --json`` reports: ``python3 perf/compare.py A.json B.json``.

One row per (workload, end-to-end metric): both medians, how much worse B
is than A as a share of A, the run-to-run spread (interquartile range over
the median, the larger of the two sides), and the metric's bound from
``BENCHMARK.json``.  A row whose spread exceeds its bound is *unresolved*,
not unchanged: the runs cannot tell.  Exit status 1 if any resolved row is
worse by more than its bound, or any run was incorrect.

Used for self-agreement (two reports of one commit) and for parent-versus-
change runs; give each report several runs (``run.py --runs 10``).
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path: str) -> Dict[str, Dict[str, List[float]]]:
    """``{workload: {metric: [value per run]}}`` of a report's untraced runs."""
    report = json.loads(Path(path).read_text(encoding="utf-8"))
    values: Dict[str, Dict[str, List[float]]] = defaultdict(lambda: defaultdict(list))
    for run in report["runs"]:
        if run["trace"]:
            continue
        if not run["correct"]:
            raise SystemExit(f"{path}: incorrect run of {run['workload']}: {run['problems']}")
        for metric, value in run["metrics"].items():
            values[run["workload"]][metric].append(value)
    return values


def spread(values: List[float]) -> float:
    """Interquartile range as a share of the median (0 for a single run)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(statistics.median(values))


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    before, after = load(argv[0]), load(argv[1])
    violations = 0
    print(f"{'workload':16s} {'metric':20s} {'A':>12s} {'B':>12s} {'worse':>8s} {'spread':>8s} {'bound':>6s}")
    for workload in (w["name"] for w in spec["workloads"]):
        if workload not in before or workload not in after:
            continue
        for metric in spec["end_to_end"]:
            a, b = before[workload][metric["name"]], after[workload][metric["name"]]
            median_a, median_b = statistics.median(a), statistics.median(b)
            sign = 1.0 if metric["better"] == "lower" else -1.0
            worse = sign * (median_b - median_a) / abs(median_a)
            noise = max(spread(a), spread(b))
            if noise > metric["bound"]:
                verdict = "unresolved"
            elif worse > metric["bound"]:
                verdict = "WORSE"
                violations += 1
            else:
                verdict = "ok"
            print(f"{workload:16s} {metric['name']:20s} {median_a:12.5g} {median_b:12.5g} "
                  f"{worse:+8.1%} {noise:8.1%} {metric['bound']:6.0%}  {verdict}")
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

#!/usr/bin/env python3
"""Run the benchmark suite and write a machine-readable results file.

Each benchmark module is executed in its own pytest subprocess (so one
module's failure cannot take down the rest), the comparison tables every
bench prints are captured through the ``REPRO_BENCH_JSON`` side channel of
``benchmarks/_bench_utils.print_table``, and everything is aggregated into a
single JSON document::

    python scripts/bench_all.py --json BENCH_results.json

The output records, per bench module, the wall-clock seconds, the pass/fail
status and every comparison table it produced — plus flattened ``speedups``
and ``throughput`` maps (every ``speedup`` / ``qps`` column of every table,
the latter in queries/sec from the serving bench) so the perf trajectory of
the repository is diffable across PRs with no table parsing.
``REPRO_BENCH_SMOKE=1`` (or ``--smoke``) runs the benches at smoke sizes
with the performance gates off, which is how the CI smoke job invokes it.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Default module list: the benches that gate a speedup or an equivalence and
#: finish in CI-friendly time.  Pass explicit paths to run a different set.
DEFAULT_BENCHES = (
    "benchmarks/bench_kmer_extraction.py",
    "benchmarks/bench_table2_construction.py",
    "benchmarks/bench_table2_query_time.py",
    "benchmarks/bench_mmap_serving.py",
    "benchmarks/bench_parallel_query.py",
    "benchmarks/bench_serving.py",
    "benchmarks/bench_ingest.py",
    "benchmarks/bench_ablation.py",
    "benchmarks/bench_planner.py",
    "benchmarks/bench_replication.py",
    "benchmarks/bench_scaling.py",
)


def run_bench(module: str, env: Dict[str, str]) -> Dict[str, object]:
    """Run one bench module under pytest; return its result record."""
    with tempfile.NamedTemporaryFile(
        mode="r", suffix=".jsonl", prefix="bench-tables-", delete=False
    ) as sink:
        sink_path = sink.name
    bench_env = dict(env)
    bench_env["REPRO_BENCH_JSON"] = sink_path
    started = time.perf_counter()
    completed = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-s", module],
        cwd=REPO_ROOT,
        env=bench_env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    elapsed = time.perf_counter() - started
    tables: List[Dict[str, object]] = []
    try:
        with open(sink_path, "r", encoding="utf-8") as handle:
            for line in handle:
                if line.strip():
                    tables.append(json.loads(line))
    finally:
        os.unlink(sink_path)
    if completed.returncode != 0:
        # Surface the failing module's output; a green results file must
        # never hide a red bench.
        print(completed.stdout)
    return {
        "module": module,
        "seconds": round(elapsed, 3),
        "passed": completed.returncode == 0,
        "tables": tables,
    }


def flatten_speedups(results: List[Dict[str, object]]) -> Dict[str, float]:
    """Every ``speedup`` column of every table, keyed ``<table> / <method>``."""
    return _flatten_column(results, "speedup")


def flatten_throughput(results: List[Dict[str, object]]) -> Dict[str, float]:
    """Every ``qps`` column of every table (the serving benches), same keying."""
    return _flatten_column(results, "qps")


def flatten_latency(results: List[Dict[str, object]]) -> Dict[str, float]:
    """Every latency-percentile column (``p50_ms``/``p95_ms``/``p99_ms``),
    keyed ``<table> / <method> / <percentile>`` — the serving tail-latency
    trajectory, diffable across PRs like the speedup map."""
    values: Dict[str, float] = {}
    for column in ("p50_ms", "p95_ms", "p99_ms"):
        for key, value in _flatten_column(results, column).items():
            values[f"{key} / {column}"] = value
    return values


def _flatten_column(results: List[Dict[str, object]], column: str) -> Dict[str, float]:
    values: Dict[str, float] = {}
    for result in results:
        for table in result["tables"]:  # type: ignore[index]
            for method, row in table["rows"].items():  # type: ignore[index]
                if column in row:
                    values[f"{table['title']} / {method}"] = row[column]
    return values


def main(argv: List[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "benches", nargs="*", default=list(DEFAULT_BENCHES),
        help="bench modules to run (default: the gated construction/query/"
             "extraction/serving/scaling benches)",
    )
    parser.add_argument(
        "--json", default="BENCH_results.json", metavar="PATH",
        help="where to write the aggregated results (default BENCH_results.json)",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="force smoke mode (tiny sizes, no performance gates)",
    )
    args = parser.parse_args(argv)

    env = dict(os.environ)
    if args.smoke:
        env["REPRO_BENCH_SMOKE"] = "1"
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )

    results = []
    for module in args.benches:
        print(f"[bench_all] running {module} ...", flush=True)
        result = run_bench(module, env)
        status = "ok" if result["passed"] else "FAILED"
        print(f"[bench_all] {module}: {status} in {result['seconds']}s", flush=True)
        results.append(result)

    payload = {
        "smoke": env.get("REPRO_BENCH_SMOKE") == "1",
        "python": sys.version.split()[0],
        "benches": results,
        "speedups": flatten_speedups(results),
        "throughput": flatten_throughput(results),
        "latency": flatten_latency(results),
    }
    out_path = Path(args.json)
    out_path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"[bench_all] wrote {out_path} ({len(results)} benches, "
          f"{len(payload['speedups'])} speedup figures, "
          f"{len(payload['throughput'])} throughput figures, "
          f"{len(payload['latency'])} latency figures)")
    return 0 if all(result["passed"] for result in results) else 1


if __name__ == "__main__":
    sys.exit(main())

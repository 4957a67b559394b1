"""The absolute-number benchmark: ``python3 perf/run.py --workload NAME``.

Generates every input from ``--seed``, runs the named workload(s) against
the code in ``src/`` through its public API, verifies every answer, prints
each metric by name with its unit, and ends each run with one JSON line
(``correct``, ``attempted``, ``failed``, ``metrics``).  ``--trace 0`` prints
the end-to-end metrics of ``BENCHMARK.json``, measured with tracing off;
``--trace 1`` prints the per-layer metrics from a traced run.  See
README.md for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import time
from pathlib import Path

PERF = Path(__file__).resolve().parent
ROOT = PERF.parent
SETUP_ROUNDS = 3
SLICES = 8


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def machine_facts(seed: int) -> dict:
    import numpy

    from repro import get_num_threads

    head = ROOT / ".git" / "HEAD"
    sha = None
    if head.is_file():
        sha = head.read_text().strip()
        if sha.startswith("ref: ") and (ROOT / ".git" / sha[5:]).is_file():
            sha = (ROOT / ".git" / sha[5:]).read_text().strip()
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "threads": get_num_threads(),
        "git_sha": sha,
        "seed": seed,
    }


def tail_ms(samples) -> float:
    """95th percentile within each of SLICES equal slices of the window; lower quartile across them.

    The host's contention bursts last about a second and only ever add
    latency; whenever they cover more than a twentieth of a window, its
    plain 95th percentile reports the host.  The quieter slices report
    the program.
    """
    import numpy as np

    starts, latencies = samples.starts, samples.latencies
    edges = np.linspace(starts.min(), (starts + latencies).max(), SLICES + 1)
    which = np.clip(np.searchsorted(edges, starts, side="right") - 1, 0, SLICES - 1)
    per_slice = [np.percentile(latencies[which == i], 95) for i in range(SLICES) if (which == i).any()]
    return float(np.percentile(per_slice, 25)) * 1e3


def end_to_end(workload, samples, setup_seconds, verdict) -> dict:
    import numpy as np

    return {
        "setup_s": statistics.median(setup_seconds),
        "op_p50_ms": float(np.percentile(samples.latencies, 50)) * 1e3,
        "op_p95_ms": tail_ms(samples),
        "ops_per_s": len(samples.latencies) / samples.elapsed,
        "index_bytes_per_doc": workload.index_bytes_per_doc,
        "fp_rate": verdict.fp_rate,
        "peak_rss_mib": workload.peak_rss_mib,
    }


def run_workload(spec: dict, name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    """One run of one workload; returns the full record (the JSON line is a subset)."""
    from spans import Tracer
    from workloads import WORKLOADS, Samples

    workdir = PERF / "out" / "work" / f"{name}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workload = None
    try:
        # Set-up is repeated and the median reported, so that work a later
        # change moves into set-up shows in a steady number.  The traced run
        # reports no set-up time and sets up once.
        setup_seconds = []
        for round_ in range(1 if trace else SETUP_ROUNDS):
            if workload is not None:
                workload.stop()
            begin = time.perf_counter()
            workload = WORKLOADS[name](seed, smoke, workdir / f"setup{round_}")
            workload.setup()
            setup_seconds.append(time.perf_counter() - begin)
        if trace:
            import layers

            # Untraced, traced, traced, untraced: a drift over the run lands
            # on both sides alike and not in the overhead figure.
            tracer = Tracer()
            windows = [workload.measure(seconds / 4, t) for t in (None, tracer, tracer, None)]
            untraced = Samples.merge([windows[0], windows[3]])
            samples = Samples.merge([windows[1], windows[2]])
            declared = [metric["name"] for metric in spec["per_layer"]]
            metrics = layers.collect(workload, tracer, untraced, samples, workload.live(), declared)
            verdict = workload.verify()
            metrics.update(workload.after_verify())
            workload.stop()
            tracer.write(PERF / "out" / f"trace-{name}.jsonl")
        else:
            samples = workload.measure(seconds)
            verdict = workload.verify()
            workload.stop()
            metrics = end_to_end(workload, samples, setup_seconds, verdict)
        failed = len(samples.errors) + verdict.wrong_ops
        return {
            "workload": name,
            "seed": seed,
            "trace": int(trace),
            "inputs_sha256": workload.inputs_sha256,
            "samples": len(samples.latencies),
            "problems": samples.errors[:5] + verdict.problems,
            "correct": not failed and not verdict.problems,
            "attempted": samples.attempted,
            "failed": failed,
            "metrics": metrics,
        }
    finally:
        if workload is not None:
            workload.stop()
        shutil.rmtree(workdir, ignore_errors=True)


def result_line(record: dict, spec: dict) -> dict:
    """The contract's last line: declared metrics only, each with its unit."""
    declared = spec["per_layer" if record["trace"] else "end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in record["metrics"]]
    extra = sorted(set(record["metrics"]) - {m["name"] for m in declared})
    if missing or extra:
        raise SystemExit(f"metrics disagree with BENCHMARK.json: missing {missing}, undeclared {extra}")
    return {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            m["name"]: {"value": record["metrics"][m["name"]], "unit": m["unit"]} for m in declared
        },
    }


def main(argv=None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=names,
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=0, help="workload seed (default 0)")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="measured seconds per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 = traced run printing the per-layer metrics")
    parser.add_argument("--runs", type=int, default=1,
                        help="runs per workload, on seeds SEED, SEED+1, ... (default 1)")
    parser.add_argument("--smoke", action="store_true", help="tiny inputs that finish in seconds")
    parser.add_argument("--json", metavar="PATH", help="also write every run's full record to PATH")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    records = []
    line = None
    for name in args.workload or names:
        for seed in range(args.seed, args.seed + args.runs):
            record = run_workload(spec, name, seed, args.seconds, bool(args.trace), args.smoke)
            records.append(record)
            line = result_line(record, spec)
            print(f"# {name} seed={seed} trace={args.trace} samples={record['samples']} "
                  f"inputs_sha256={record['inputs_sha256'][:16]}")
            for problem in record["problems"]:
                print(f"# PROBLEM: {problem}")
            for metric, entry in line["metrics"].items():
                print(f"{metric:42s} {entry['value']:.6g} {entry['unit']}")
            print(json.dumps(line), flush=True)
    if args.json:
        report = {"machine": machine_facts(args.seed), "smoke": args.smoke,
                  "seconds": args.seconds, "runs": records}
        Path(args.json).write_text(json.dumps(report, indent=1), encoding="utf-8")
    return 0 if all(record["correct"] for record in records) else 1


if __name__ == "__main__":
    sys.exit(main())

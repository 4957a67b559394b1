"""Tests of the benchmark harness itself: ``python -m pytest perf -q``.

Not collected by the repository's tier-1 run (``testpaths = ["tests"]``).
Everything runs at ``--smoke`` sizes.
"""

from __future__ import annotations

import ast
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

PERF = Path(__file__).resolve().parent
ROOT = PERF.parent
sys.path[:0] = [str(ROOT / "src"), str(PERF)]

import compare  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS, accuracy  # noqa: E402

SPEC = run.load_spec()
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"[A-Za-z0-9_/%.\-]{1,16}$")


def run_cli(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perf" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def test_benchmark_json_meets_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["perf"] and SPEC["command"] == ["python3", "perf/run.py"]
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16 and 1 <= len(SPEC["per_layer"]) <= 128
    names = [entry["name"] for part in ("workloads", "end_to_end", "per_layer") for entry in SPEC[part]]
    assert len(names) == len(set(names)) and all(NAME.match(name) for name in names)
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 <= metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    setup = next(metric for metric in SPEC["end_to_end"] if metric["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(metric["bound"] for metric in SPEC["end_to_end"])
    assert set(WORKLOADS) == {workload["name"] for workload in SPEC["workloads"]}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_output_validates_against_benchmark_json(workload, trace):
    done = run_cli("--workload", workload, "--seed", "3", "--seconds", "0.6", "--trace", str(trace), "--smoke")
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [metric["name"] for metric in declared]
    for metric in declared:
        entry = result["metrics"][metric["name"]]
        assert set(entry) == {"value", "unit"} and entry["unit"] == metric["unit"]
        assert isinstance(entry["value"], (int, float)) and np.isfinite(entry["value"])
        if not trace:
            assert entry["value"] > 0, metric["name"]


def test_same_seed_same_inputs_and_exact_counts(tmp_path):
    records = []
    for seed, out in ((5, "a.json"), (5, "b.json"), (6, "c.json")):
        done = run_cli("--workload", "query_full", "--seed", str(seed), "--seconds", "0.3",
                       "--smoke", "--json", str(tmp_path / out))
        assert done.returncode == 0, done.stdout + done.stderr
        report = json.loads((tmp_path / out).read_text())
        assert {"nproc", "python", "numpy", "threads", "git_sha", "seed"} <= set(report["machine"])
        records.append(report["runs"][0])
    same, again, other = records
    assert same["inputs_sha256"] == again["inputs_sha256"] != other["inputs_sha256"]
    for exact in ("index_bytes_per_doc", "fp_rate"):
        assert same["metrics"][exact] == again["metrics"][exact]


def test_generator_is_a_pure_function_of_the_seed():
    imported = [
        name
        for node in ast.walk(ast.parse(Path(gen.__file__).read_text()))
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for name in [getattr(node, "module", None)] + [alias.name for alias in node.names]
    ]
    assert not [name for name in imported if name and name.startswith("repro")]
    first, second = gen.planted(9, 50, 64), gen.planted(9, 50, 64)
    assert gen.digest(*vars(first).values()) == gen.digest(*vars(second).values())
    assert (first.terms >= gen.TAG).all()  # tagged: outside the 62-bit k-mer code space
    assert np.isin(np.arange(64), first.pair_term).sum() == 32  # half the pool is planted


def test_a_corrupted_answer_trips_the_correctness_check(tmp_path):
    truth = gen.planted(1, 20, 32)
    answers = np.zeros((32, 20), dtype=bool)
    answers[truth.pair_term, truth.pair_doc] = True
    assert accuracy(answers, truth) == (0, 0.0)
    answers[truth.pair_term[0], truth.pair_doc[0]] = False
    assert accuracy(answers, truth)[0] == 1
    # Restricted to documents that exist, columns in their order; a present
    # document beyond the last planted one must not trip the bookkeeping.
    present = np.array([3, 0, 25])
    assert accuracy(np.ones((32, 3), dtype=bool), truth, present)[0] == 0

    workload = WORKLOADS["serve_connect"](1, True, tmp_path / "serve")
    try:
        workload.setup()
        samples = workload.measure(0.3)
        assert not samples.errors and workload.verify().problems == []
        entry = workload.responses[0][0]["results"][0]
        entry["documents"] = entry["documents"] + ["doc-that-is-not-there"]
        verdict = workload.verify()
        assert verdict.wrong_ops == 1 and verdict.problems
    finally:
        workload.stop()


def test_without_the_program_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(PERF, tmp_path / "perf", ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    done = run_cli("--workload", "query_full", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert not done.stdout.strip()


def report(tmp_path: Path, name: str, latencies) -> str:
    metrics = {metric["name"]: 1.0 for metric in SPEC["end_to_end"]}
    runs = [
        {"workload": "serve_connect", "trace": 0, "correct": True, "problems": [],
         "metrics": dict(metrics, op_p50_ms=value)}
        for value in latencies
    ]
    (tmp_path / name).write_text(json.dumps({"runs": runs}))
    return str(tmp_path / name)


def test_compare_flags_regressions_and_calls_noise_unresolved(tmp_path, capsys):
    bound = next(m["bound"] for m in SPEC["end_to_end"] if m["name"] == "op_p50_ms")
    worse = 5.0 * (1 + 2 * bound)
    steady = report(tmp_path, "steady.json", [5.0, 5.01, 4.99, 5.0])
    slower = report(tmp_path, "slower.json", [worse, worse + 0.01, worse - 0.01, worse])
    noisy = report(tmp_path, "noisy.json", [worse / 2, worse, 2 * worse, worse])
    assert compare.main([steady, steady]) == 0
    assert compare.main([steady, slower]) == 1
    assert "WORSE" in capsys.readouterr().out
    assert compare.main([steady, noisy]) == 0
    assert "unresolved" in capsys.readouterr().out

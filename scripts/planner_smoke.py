#!/usr/bin/env python3
"""End-to-end smoke test of the planner + metadata path, as CI runs it.

One self-contained scenario through the real front doors — the CLI for
calibration, the HTTP server for queries — asserting the planner's standing
invariant where it matters most, at the system boundary:

1. build a small corpus, attach per-document metadata, and save the index
   in the mmap container with its sidecar (``save_index(..., metadata=)``);
2. run ``repro-rambo calibrate`` as a subprocess so the served artifact has
   a measured cost model next to it (``<index>.cost.json``);
3. start ``repro-rambo serve`` as a subprocess and wait for the
   ``--ready-file`` handshake — the server must pick up both sidecars;
4. fire 30 mixed queries (``backend`` auto/full/sparse, filtered and
   unfiltered) through :class:`repro.serve.client.ServeClient` and assert
   every answer is bit-identical to the local naive full path, with filters
   applied by local name-level matching;
5. check ``/stats`` reports the plan decisions and the loaded artifacts.

Exit code 0 means planning, filtering and calibration work end to end.
Needs only numpy — run as ``PYTHONPATH=src python scripts/planner_smoke.py``.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core.rambo import Rambo, RamboConfig  # noqa: E402
from repro.core.serialization import save_index  # noqa: E402
from repro.kmers.extraction import normalise_query_term  # noqa: E402
from repro.meta import MetadataStore  # noqa: E402
from repro.plan import cost_model_path  # noqa: E402
from repro.serve.client import ServeClient  # noqa: E402
from repro.simulate.datasets import ENADatasetBuilder, build_query_workload  # noqa: E402

K = 15
CONFIG = RamboConfig(num_partitions=6, repetitions=2, bfu_bits=1 << 14, k=K, seed=47)
NUM_QUERIES = 30
READY_TIMEOUT_S = 30.0


def build_corpus(directory: Path):
    """An index with a metadata sidecar on disk, plus a mixed query pool."""
    base = ENADatasetBuilder(k=K, genome_length=900, seed=47).build(
        12, file_format="mccortex"
    )
    dataset, workload = build_query_workload(
        base, num_positive=24, num_negative=12, mean_multiplicity=3.0, seed=47
    )
    index = Rambo(CONFIG)
    index.add_documents(dataset.documents)
    metadata = MetadataStore(
        {
            name: {
                "collection": "ena" if i % 2 else "refseq",
                "accession": f"ERR{i:03d}",
                "date": f"2021-0{1 + i % 3}-01",
            }
            for i, name in enumerate(index.document_names)
        }
    )
    path = directory / "planned.rambo2"
    save_index(index, path, metadata=metadata)
    codes = [int(term) for term in workload.all_terms]
    return index, metadata, path, codes


def run_cli(*args: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    completed = subprocess.run(
        [sys.executable, "-m", "repro.cli", *args],
        env=env,
        capture_output=True,
        text=True,
    )
    if completed.returncode != 0:
        raise SystemExit(
            f"repro-rambo {' '.join(args)} failed ({completed.returncode}):\n"
            f"{completed.stdout}{completed.stderr}"
        )
    return completed.stdout


def wait_ready(ready_file: Path, process: subprocess.Popen) -> str:
    deadline = time.monotonic() + READY_TIMEOUT_S
    while time.monotonic() < deadline:
        if process.poll() is not None:
            raise SystemExit(f"server exited early with code {process.returncode}")
        if ready_file.exists() and ready_file.read_text().strip():
            host, port = ready_file.read_text().split()
            return f"http://{host}:{port}"
        time.sleep(0.05)
    raise SystemExit(f"server not ready within {READY_TIMEOUT_S}s")


def check_identity(client, index, metadata, terms, backend, filters, label) -> dict:
    """One planned round-trip vs the local naive full path, bit for bit."""
    response = client.query(terms, backend=backend, filters=filters)
    local_terms = [normalise_query_term(term, K) for term in terms]
    expected = index.query_terms_batch(local_terms, method="full")
    for term, entry, want in zip(terms, response["results"], expected):
        documents = set(want.documents)
        if filters:
            documents = {d for d in documents if metadata.matches(d, filters)}
        if entry["documents"] != sorted(documents):
            raise SystemExit(
                f"[{label}] documents diverged for term {term!r} "
                f"(backend={backend}, filters={filters}): "
                f"served {entry['documents']} vs local {sorted(documents)}"
            )
    plan = response.get("plan")
    if backend is not None and (plan is None or "method" not in plan):
        raise SystemExit(f"[{label}] planned response carries no plan record: {plan}")
    return plan or {}


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="planner-smoke-") as tmp:
        directory = Path(tmp)
        index, metadata, path, codes = build_corpus(directory)

        # Calibrate through the CLI: the served artifact gains a measured
        # cost model (the scalar reference is excluded — a production
        # artifact never offers it).
        output = run_cli(
            "calibrate", str(path), "--sizes", "4,16", "--repeats", "1", "--no-scalar"
        )
        if not cost_model_path(path).exists():
            raise SystemExit(f"calibrate wrote no cost model:\n{output}")
        print(f"[planner_smoke] calibrated: {output.strip().splitlines()[0]}")

        ready_file = directory / "ready"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve", str(path),
                "--port", "0", "--tick-ms", "1", "--ready-file", str(ready_file),
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        try:
            url = wait_ready(ready_file, process)
            client = ServeClient(url)
            print(f"[planner_smoke] server up at {url}")

            backends = ["auto", "full", "sparse", "auto", "auto"]
            filter_cycle = [
                None,
                {"collection": "ena"},
                {"collection": ["ena", "refseq"], "date": "2021-01-01"},
            ]
            auto_methods = set()
            for i in range(NUM_QUERIES):
                terms = [codes[(i * 3 + j) % len(codes)] for j in range(5)]
                backend = backends[i % len(backends)]
                filters = filter_cycle[i % len(filter_cycle)]
                plan = check_identity(
                    client, index, metadata, terms, backend, filters, f"query {i}"
                )
                if backend == "auto":
                    auto_methods.add(plan["method"])
            if not auto_methods <= {"full", "sparse"}:
                raise SystemExit(f"auto resolved outside full/sparse: {auto_methods}")

            stats = client.stats()
            planner = stats["planner"]
            assert planner["plans"] >= NUM_QUERIES, planner
            assert planner["auto"] >= NUM_QUERIES // 2, planner
            assert planner["filtered"] >= NUM_QUERIES // 2, planner
            assert planner["metadata_documents"] == index.num_documents, planner
            assert planner["cost_model"], planner
            assert stats["index"]["capabilities"]["sparse"] is True, stats["index"]
            print(
                f"[planner_smoke] {NUM_QUERIES} planned queries bit-identical "
                f"to the local naive path (auto -> {sorted(auto_methods)}, "
                f"filtered: {planner['filtered']})"
            )
        finally:
            process.terminate()
            try:
                output, _ = process.communicate(timeout=10)
            except subprocess.TimeoutExpired:
                process.kill()
                output, _ = process.communicate()
                raise SystemExit("server did not shut down cleanly on SIGTERM")
        print(f"[planner_smoke] clean shutdown (exit {process.returncode})")
        if output.strip():
            print(f"[planner_smoke] server output:\n{output.rstrip()}")
    print("[planner_smoke] OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())

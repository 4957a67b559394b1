#!/usr/bin/env python3
"""End-to-end crash-recovery smoke test of streaming ingest, as CI runs it.

The durability contract, exercised through the real server process and a
real ``SIGKILL`` — no in-process shortcuts, no clean shutdown:

1. build a small mmap base index and start ``repro-rambo serve --wal``;
2. append document batches over HTTP while recording every
   *acknowledged* batch (the server fsyncs the WAL before the 200);
3. ``kill -9`` the server mid-ingest — some final request may die on the
   wire, which is exactly the point;
4. replay the WAL directory locally and assert **zero acknowledged-write
   loss**: every acknowledged document is in the durable set;
5. restart the server with the same command line and assert it serves
   base + durable set, with answers bit-identical to a local
   from-scratch build of those documents;
6. compact through ``POST /compact``, append more through the
   ``repro-rambo ingest`` CLI, and re-check identity;
7. run compaction cycles (two appends, ``POST /compact``) and assert the
   delta's buffers outlive them: ``/stats`` shows no new full copy after
   the second cycle and the same ``buffer_bytes`` after every one.

Exit code 0 means an acknowledged append survives ``kill -9``.  Needs
only numpy — run as ``PYTHONPATH=src python scripts/ingest_smoke.py``.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core.rambo import Rambo, RamboConfig  # noqa: E402
from repro.core.serialization import save_index  # noqa: E402
from repro.io.mccortex import write_mccortex  # noqa: E402
from repro.io.walformat import replay_wal_generation  # noqa: E402
from repro.kmers.extraction import KmerDocument  # noqa: E402
from repro.serve.client import ServeClient, ServeClientError  # noqa: E402
from repro.simulate.datasets import ENADatasetBuilder  # noqa: E402

K = 15
CONFIG = RamboConfig(num_partitions=4, repetitions=2, bfu_bits=1 << 14, k=K, seed=37)
BASE_DOCUMENTS = 8
APPEND_BATCHES = 12
DOCS_PER_BATCH = 2
COMPACT_CYCLES = 5
READY_TIMEOUT_S = 30.0


def wait_ready(ready_file: Path, process: subprocess.Popen) -> str:
    """Block until the server writes its bound address; returns the URL."""
    deadline = time.monotonic() + READY_TIMEOUT_S
    while time.monotonic() < deadline:
        if process.poll() is not None:
            raise SystemExit(f"server exited early with code {process.returncode}")
        if ready_file.exists() and ready_file.read_text().strip():
            host, port = ready_file.read_text().split()
            return f"http://{host}:{port}"
        time.sleep(0.05)
    raise SystemExit(f"server not ready within {READY_TIMEOUT_S}s")


def start_server(base_path: Path, wal_dir: Path, ready_file: Path) -> subprocess.Popen:
    ready_file.unlink(missing_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve", str(base_path),
            "--wal", str(wal_dir), "--compact-after", "0",
            "--port", "0", "--tick-ms", "1", "--ready-file", str(ready_file),
        ],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )


def check_identity(client: ServeClient, documents, terms, label: str) -> None:
    """Served answers vs a local from-scratch build — bit for bit."""
    reference = Rambo(CONFIG)
    reference.add_documents(list(documents))
    for method in ("full", "sparse"):
        response = client.query(terms, method=method)
        expected = reference.query_terms_batch(terms, method=method)
        for term, entry, want in zip(terms, response["results"], expected):
            if entry["documents"] != sorted(want.documents):
                raise SystemExit(
                    f"[{label}/{method}] documents diverged for term {term!r}: "
                    f"served {entry['documents']} vs local {sorted(want.documents)}"
                )
            if entry["filters_probed"] != want.filters_probed:
                raise SystemExit(
                    f"[{label}/{method}] probe count diverged for term {term!r}: "
                    f"served {entry['filters_probed']} vs local {want.filters_probed}"
                )


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="ingest-smoke-") as tmp:
        directory = Path(tmp)
        dataset = ENADatasetBuilder(k=K, genome_length=900, seed=37).build(
            BASE_DOCUMENTS + APPEND_BATCHES * DOCS_PER_BATCH + 4 + 2 * COMPACT_CYCLES,
            file_format="mccortex",
        )
        documents = dataset.documents
        base_docs = documents[:BASE_DOCUMENTS]
        stream = documents[BASE_DOCUMENTS : BASE_DOCUMENTS + APPEND_BATCHES * DOCS_PER_BATCH]
        cli_docs = documents[
            BASE_DOCUMENTS + APPEND_BATCHES * DOCS_PER_BATCH : -2 * COMPACT_CYCLES
        ]
        cycle_docs = documents[-2 * COMPACT_CYCLES :]
        terms = sorted({int(t) for doc in documents for t in list(doc.terms)[:6]})[:48]

        base = Rambo(CONFIG)
        base.add_documents(base_docs)
        base_path = directory / "base.rambo2"
        save_index(base, base_path)
        wal_dir = directory / "wal"
        ready_file = directory / "ready"

        # -- phase 1: ingest under load, then SIGKILL mid-stream ----------------------
        process = start_server(base_path, wal_dir, ready_file)
        acked: list[KmerDocument] = []
        try:
            client = ServeClient(wait_ready(ready_file, process))
            print(f"[ingest_smoke] server up, appending {APPEND_BATCHES} batches")
            for i in range(APPEND_BATCHES):
                batch = stream[i * DOCS_PER_BATCH : (i + 1) * DOCS_PER_BATCH]
                records = [
                    {"name": doc.name, "terms": [int(t) for t in doc.term_codes()]}
                    for doc in batch
                ]
                if i == APPEND_BATCHES - 2:
                    # The crash: SIGKILL while requests are in flight.  This
                    # request may or may not have been acknowledged — only
                    # acknowledged ones join the model.
                    os.kill(process.pid, signal.SIGKILL)
                try:
                    ack = client.append(records)
                except ServeClientError as exc:
                    print(f"[ingest_smoke] batch {i} died on the wire (expected): {exc}")
                    break
                acked.extend(batch)
                if ack["appended"] != len(batch):
                    raise SystemExit(f"bad acknowledgement for batch {i}: {ack}")
            process.wait(timeout=10)
        finally:
            if process.poll() is None:
                process.kill()
                process.wait()
        print(f"[ingest_smoke] killed -9 after {len(acked)} acknowledged documents")

        # -- phase 2: zero acknowledged-write loss ------------------------------------
        replay = replay_wal_generation(wal_dir, 0, expected_config=CONFIG)
        durable = {doc.name for doc in replay.documents}
        lost = [doc.name for doc in acked if doc.name not in durable]
        if lost:
            raise SystemExit(
                f"ACKNOWLEDGED WRITE LOSS: {lost} acknowledged but not durable"
            )
        print(
            f"[ingest_smoke] WAL holds {len(durable)} documents "
            f"({len(durable) - len(acked)} durable-but-unacked, torn tail "
            f"{replay.torn_bytes} bytes) — zero acknowledged loss"
        )
        # The recovered server replays the full durable set (acked plus any
        # durable-but-unacknowledged batch): that is the served state.
        durable_docs = [doc for doc in stream if doc.name in durable]

        # -- phase 3: restart, recover, verify served == local ------------------------
        process = start_server(base_path, wal_dir, ready_file)
        try:
            client = ServeClient(wait_ready(ready_file, process))
            stats = client.stats()
            ingest = stats["ingest"]
            if ingest["wal"]["replayed_documents"] != len(durable_docs):
                raise SystemExit(
                    f"recovery replayed {ingest['wal']['replayed_documents']} "
                    f"documents, expected {len(durable_docs)}"
                )
            if stats["snapshots"]["active"]["documents"] != len(base_docs) + len(durable_docs):
                raise SystemExit(f"recovered document count wrong: {stats['snapshots']}")
            check_identity(
                client, list(base_docs) + durable_docs, terms, "post-recovery"
            )
            print(
                f"[ingest_smoke] recovered {len(durable_docs)} documents "
                f"(torn tail truncated: {ingest['wal']['torn_bytes_truncated']} "
                f"bytes); answers bit-identical to local rebuild"
            )

            # -- phase 4: compact, then ingest more through the CLI -------------------
            record = client.compact()
            if not record.get("compacted"):
                raise SystemExit(f"compaction refused: {record}")
            check_identity(
                client, list(base_docs) + durable_docs, terms, "post-compaction"
            )
            ingest_dir = directory / "more"
            ingest_dir.mkdir()
            for doc in cli_docs:
                write_mccortex(ingest_dir / f"{doc.name}.mcc", doc.name, K, doc.term_codes())
            completed = subprocess.run(
                [
                    sys.executable, "-m", "repro.cli", "ingest", str(ingest_dir),
                    "--server", client.base_url, "--batch-size", "2",
                ],
                env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
                stdout=subprocess.PIPE,
                stderr=subprocess.STDOUT,
                text=True,
            )
            if completed.returncode != 0:
                raise SystemExit(f"ingest CLI failed:\n{completed.stdout}")
            check_identity(
                client,
                list(base_docs) + durable_docs + list(cli_docs),
                terms,
                "post-cli-ingest",
            )
            stats = client.stats()
            print(
                f"[ingest_smoke] compacted to generation "
                f"{stats['ingest']['generation']}, CLI-ingested {len(cli_docs)} "
                f"more; identity holds over {len(terms)} terms"
            )

            # -- phase 5: compaction cycles reuse the delta's buffers ------------------
            deltas = []
            for cycle in range(COMPACT_CYCLES):
                for doc in cycle_docs[2 * cycle : 2 * cycle + 2]:
                    client.append(
                        [{"name": doc.name, "terms": [int(t) for t in doc.term_codes()]}]
                    )
                if not client.compact().get("compacted"):
                    raise SystemExit(f"compaction cycle {cycle} refused")
                deltas.append(client.stats()["ingest"]["delta"])
            copies = [delta["full_copies"] for delta in deltas]
            buffers = [delta["buffer_bytes"] for delta in deltas]
            if len(set(copies[1:])) != 1 or len(set(buffers)) != 1:
                raise SystemExit(
                    f"compaction cycles allocated: full_copies {copies}, "
                    f"buffer_bytes {buffers}"
                )
            check_identity(
                client,
                list(base_docs) + durable_docs + list(cli_docs) + list(cycle_docs),
                terms,
                "post-cycles",
            )
            print(
                f"[ingest_smoke] {COMPACT_CYCLES} compaction cycles: full copies "
                f"{copies[-1]}, buffer_bytes {buffers[-1]} throughout"
            )
        finally:
            process.terminate()
            try:
                process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
                raise SystemExit("server did not shut down cleanly on SIGTERM")
    print("[ingest_smoke] OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())

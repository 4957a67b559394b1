#!/usr/bin/env python3
"""End-to-end failover smoke test of warm-standby replication, as CI runs it.

The zero-loss contract, exercised through two real server processes and a
real ``SIGKILL`` — no in-process shortcuts:

1. build a small mmap base index and start a primary
   (``repro-rambo serve --wal --replica-ack 1``) plus a standby
   (``repro-rambo serve --replicate-from``);
2. ``SIGINT`` a second standby while it tails the live, idle primary: it
   must exit cleanly within 2 s — stopping a standby aborts the stream's
   blocked read instead of waiting out the primary's long poll;
3. append document batches through :class:`FailoverClient`, recording
   every *acknowledged* batch (with ``--replica-ack 1`` and a live
   standby lease, the 200 means the batch is durable on BOTH nodes);
4. ``kill -9`` the primary mid-append-stream — the in-flight request
   dies on the wire with unknown fate, which is exactly the point;
5. promote the standby via ``POST /promote`` and measure the time from
   the kill to the first successful answer;
6. replay the standby's WAL directory locally and assert **zero
   acknowledged-write loss**: every acknowledged document is durable on
   the survivor, and its served answers are bit-identical to a local
   from-scratch build of exactly that set;
7. keep appending through the same ``FailoverClient`` (it fails over),
   compact the new primary, and re-check identity.

Exit code 0 means an acknowledged append survives the death of the node
that acknowledged it.  Needs only numpy — run as
``PYTHONPATH=src python scripts/replica_smoke.py``.
"""

from __future__ import annotations

import json
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
from repro.io.walformat import replay_wal_generation  # noqa: E402
from repro.kmers.extraction import KmerDocument  # noqa: E402
from repro.serve.client import FailoverClient, ServeClient, ServeClientError  # noqa: E402
from repro.simulate.datasets import ENADatasetBuilder  # noqa: E402

K = 15
CONFIG = RamboConfig(num_partitions=4, repetitions=2, bfu_bits=1 << 14, k=K, seed=41)
BASE_DOCUMENTS = 6
APPEND_BATCHES = 10
DOCS_PER_BATCH = 2
KILL_AT_BATCH = 7
READY_TIMEOUT_S = 60.0
SIGINT_EXIT_S = 2.0


def server_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def wait_ready(ready_file: Path, process: subprocess.Popen, label: str) -> str:
    deadline = time.monotonic() + READY_TIMEOUT_S
    while time.monotonic() < deadline:
        if process.poll() is not None:
            raise SystemExit(f"{label} exited early with code {process.returncode}")
        if ready_file.exists() and ready_file.read_text().strip():
            host, port = ready_file.read_text().split()
            return f"http://{host}:{port}"
        time.sleep(0.05)
    raise SystemExit(f"{label} not ready within {READY_TIMEOUT_S}s")


def start_primary(base_path: Path, wal_dir: Path, ready_file: Path) -> subprocess.Popen:
    ready_file.unlink(missing_ok=True)
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve", str(base_path),
            "--wal", str(wal_dir), "--compact-after", "0",
            "--replica-ack", "1", "--wal-segment-bytes", "4096",
            "--group-commit-ms", "2",
            "--port", "0", "--tick-ms", "1", "--ready-file", str(ready_file),
        ],
        env=server_env(),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )


def start_standby(primary_url: str, wal_dir: Path, ready_file: Path) -> subprocess.Popen:
    ready_file.unlink(missing_ok=True)
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve",
            "--replicate-from", primary_url, "--wal", str(wal_dir),
            "--port", "0", "--tick-ms", "1", "--ready-file", str(ready_file),
        ],
        env=server_env(),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )


def wait_standby_caught_up(standby_url: str, label: str) -> None:
    """Poll /healthz until the standby reports ready (lag 0 after replay)."""
    client = ServeClient(standby_url, timeout=5.0)
    deadline = time.monotonic() + READY_TIMEOUT_S
    while time.monotonic() < deadline:
        try:
            record = client.healthz()
            if record.get("ok") and record.get("ready"):
                return
        except ServeClientError:
            pass
        time.sleep(0.1)
    raise SystemExit(f"standby never became ready ({label})")


def wait_lease_registered(primary_url: str) -> None:
    """Semi-sync only counts live leases: wait until the standby holds one."""
    client = ServeClient(primary_url, timeout=5.0)
    deadline = time.monotonic() + READY_TIMEOUT_S
    while time.monotonic() < deadline:
        peers = client.stats()["ingest"]["replication"]["peers"]
        if any(state.get("live") for state in peers.values()):
            return
        time.sleep(0.1)
    raise SystemExit("standby lease never registered on the primary")


def check_identity(client, documents, terms, label: str) -> None:
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
                    f"[{label}/{method}] probe count diverged for term {term!r}"
                )


def check_sigint_exit(primary_url: str, directory: Path) -> None:
    """A standby tailing a live, idle primary exits promptly on SIGINT."""
    ready_file = directory / "second-ready"
    second = start_standby(primary_url, directory / "second-wal", ready_file)
    try:
        second_url = wait_ready(ready_file, second, "second standby")
        wait_standby_caught_up(second_url, "second standby")
        time.sleep(0.2)  # now blocked in the primary's long poll
        second.send_signal(signal.SIGINT)
        started = time.monotonic()
        try:
            code = second.wait(timeout=SIGINT_EXIT_S)
        except subprocess.TimeoutExpired:
            raise SystemExit(
                f"a tailing standby did not exit within {SIGINT_EXIT_S}s of SIGINT"
            ) from None
        if code != 0:
            raise SystemExit(f"a tailing standby exited with code {code} on SIGINT")
        print(
            f"[replica_smoke] tailing standby exited on SIGINT in "
            f"{time.monotonic() - started:.3f}s"
        )
    finally:
        stop(second)


def stop(process: subprocess.Popen) -> None:
    if process.poll() is None:
        process.terminate()
        try:
            process.wait(timeout=10)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="replica-smoke-") as tmp:
        directory = Path(tmp)
        dataset = ENADatasetBuilder(k=K, genome_length=900, seed=41).build(
            BASE_DOCUMENTS + APPEND_BATCHES * DOCS_PER_BATCH + 4,
            file_format="mccortex",
        )
        documents = dataset.documents
        base_docs = documents[:BASE_DOCUMENTS]
        stream = documents[BASE_DOCUMENTS : BASE_DOCUMENTS + APPEND_BATCHES * DOCS_PER_BATCH]
        extra = documents[BASE_DOCUMENTS + APPEND_BATCHES * DOCS_PER_BATCH :]
        terms = sorted({int(t) for doc in documents for t in list(doc.terms)[:6]})[:48]

        base = Rambo(CONFIG)
        base.add_documents(base_docs)
        base_path = directory / "base.rambo2"
        save_index(base, base_path)
        primary_wal = directory / "primary-wal"
        standby_wal = directory / "standby-wal"

        # -- phase 1: two-node pair, semi-sync appends, SIGKILL the primary -----------
        primary = start_primary(base_path, primary_wal, directory / "primary-ready")
        standby = None
        acked: list[KmerDocument] = []
        try:
            primary_url = wait_ready(directory / "primary-ready", primary, "primary")
            standby = start_standby(
                primary_url, standby_wal, directory / "standby-ready"
            )
            standby_url = wait_ready(directory / "standby-ready", standby, "standby")
            wait_standby_caught_up(standby_url, "initial sync")
            print(f"[replica_smoke] pair up: primary {primary_url}, standby {standby_url}")
            check_sigint_exit(primary_url, directory)

            client = FailoverClient(
                [primary_url, standby_url],
                timeout=5.0,
                retries=4,
                backoff_s=0.05,
                backoff_cap_s=0.3,
            )
            killed_at = None
            for i in range(APPEND_BATCHES):
                batch = stream[i * DOCS_PER_BATCH : (i + 1) * DOCS_PER_BATCH]
                records = [
                    {"name": doc.name, "terms": [int(t) for t in doc.term_codes()]}
                    for doc in batch
                ]
                if i == 1:
                    # From here on the lease is live: each 200 means the
                    # standby durably applied the batch before the ack.
                    wait_lease_registered(primary_url)
                if i == KILL_AT_BATCH:
                    os.kill(primary.pid, signal.SIGKILL)
                    killed_at = time.monotonic()
                    print(f"[replica_smoke] kill -9 primary before batch {i}")
                try:
                    ack = client.append(records)
                except ServeClientError as exc:
                    print(f"[replica_smoke] batch {i} died on the wire (expected): {exc}")
                    break
                if i < KILL_AT_BATCH and ack.get("appended") != len(batch):
                    raise SystemExit(f"bad acknowledgement for batch {i}: {ack}")
                acked.extend(batch)
            if killed_at is None:
                raise SystemExit("append loop ended before the kill point")
            primary.wait(timeout=10)
            print(f"[replica_smoke] {len(acked)} documents acknowledged before the kill")

            # -- phase 2: promote the survivor, measure failover ----------------------
            promote_response = client.promote(endpoint=standby_url)
            if promote_response.get("role") != "primary":
                raise SystemExit(f"promotion failed: {promote_response}")
            first_answer = None
            deadline = time.monotonic() + READY_TIMEOUT_S
            while time.monotonic() < deadline:
                try:
                    client.query(terms[:1])
                    first_answer = time.monotonic()
                    break
                except ServeClientError:
                    time.sleep(0.05)
            if first_answer is None:
                raise SystemExit("no successful answer after promotion")
            failover_s = first_answer - killed_at
            print(f"[replica_smoke] failover to first answer: {failover_s:.3f}s")

            # -- phase 3: zero acknowledged-write loss --------------------------------
            manifest = json.loads((standby_wal / "MANIFEST.json").read_text())
            replay = replay_wal_generation(
                standby_wal, int(manifest["generation"]), expected_config=CONFIG
            )
            durable = {doc.name for doc in replay.documents} if replay else set()
            lost = [doc.name for doc in acked if doc.name not in durable]
            if lost:
                raise SystemExit(
                    f"ACKNOWLEDGED WRITE LOSS: {lost} acknowledged by the pair "
                    f"but missing from the survivor's WAL"
                )
            durable_docs = [doc for doc in stream if doc.name in durable]
            print(
                f"[replica_smoke] survivor holds {len(durable)} documents "
                f"({len(durable) - len(acked)} durable-but-unacked) — zero "
                f"acknowledged loss"
            )

            # -- phase 4: the survivor serves exactly base + durable ------------------
            check_identity(
                client, list(base_docs) + durable_docs, terms, "post-failover"
            )
            record = ServeClient(standby_url).healthz()
            if record.get("role") != "primary":
                raise SystemExit(f"survivor still reports role {record.get('role')}")

            # -- phase 5: life goes on: append + compact on the new primary -----------
            for doc in extra:
                ack = client.append(
                    [{"name": doc.name, "terms": [int(t) for t in doc.term_codes()]}]
                )
                if not (ack.get("appended") == 1 or ack.get("already_indexed")):
                    raise SystemExit(f"append after failover failed: {ack}")
            compacted = client.compact()
            if not compacted.get("compacted"):
                raise SystemExit(f"compaction on the new primary refused: {compacted}")
            check_identity(
                client,
                list(base_docs) + durable_docs + list(extra),
                terms,
                "post-failover-compaction",
            )
            print(
                f"[replica_smoke] new primary appended {len(extra)} more and "
                f"compacted; identity holds over {len(terms)} terms "
                f"(client failovers: {client.failovers}, "
                f"unknown-fate retries: {client.unknown_fate_retries})"
            )
        finally:
            stop(primary)
            if standby is not None:
                stop(standby)
    print("[replica_smoke] OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())

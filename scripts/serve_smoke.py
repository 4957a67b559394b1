#!/usr/bin/env python3
"""End-to-end smoke test of the serving stack, as CI runs it.

One self-contained scenario, against the real HTTP server as a subprocess —
the same door an operator uses, not the in-process shortcuts the unit tests
take:

1. build a small index and save it in the mmap container;
2. start ``repro-rambo serve`` as a subprocess and wait for its
   ``--ready-file`` handshake;
3. fire 50 mixed queries (hot/cold, coalesced/direct, int codes and DNA
   strings) through :class:`repro.serve.client.ServeClient` and assert every
   answer is bit-identical to a local ``query_terms_batch`` call;
4. rotate to a rebuilt index through ``POST /rotate`` mid-stream and keep
   querying — zero failures allowed;
5. fire 50 more mixed queries over **one persistent connection** (the way
   curl, ``requests.Session`` and proxies talk to a server), again
   bit-identical, with a median round trip under 20 ms — a response split
   into two TCP segments stalls every keep-alive exchange for ~40 ms, and
   this is the one place CI would see that return; the connection's first
   exchange is hostile (a ``GET /healthz`` that declares a 5-byte body), so
   every query after it also proves the server consumed what it was sent;
6. shut the server down cleanly and check it exited.

Exit code 0 means the serving path works end to end.  Needs only numpy —
run as ``PYTHONPATH=src python scripts/serve_smoke.py``.
"""

from __future__ import annotations

import http.client
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from urllib.parse import urlsplit

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core.rambo import Rambo, RamboConfig  # noqa: E402
from repro.core.serialization import save_index  # noqa: E402
from repro.kmers.extraction import normalise_query_term  # noqa: E402
from repro.serve.client import ServeClient  # noqa: E402
from repro.simulate.datasets import ENADatasetBuilder, build_query_workload  # noqa: E402

K = 15
CONFIG = RamboConfig(num_partitions=4, repetitions=2, bfu_bits=1 << 14, k=K, seed=31)
NUM_QUERIES = 50
READY_TIMEOUT_S = 30.0
#: Median keep-alive round trip allowed; the two-segment stall costs ~44 ms.
KEEPALIVE_MEDIAN_LIMIT_S = 0.020


def build_corpus(directory: Path):
    """Two generations of the index on disk plus a mixed query pool."""
    base = ENADatasetBuilder(k=K, genome_length=900, seed=31).build(
        10, file_format="mccortex"
    )
    dataset, workload = build_query_workload(
        base, num_positive=24, num_negative=8, mean_multiplicity=3.0, seed=31
    )
    index = Rambo(CONFIG)
    index.add_documents(dataset.documents)
    first = directory / "gen1.rambo2"
    save_index(index, first)

    rebuilt = Rambo(CONFIG)
    rebuilt.add_documents(dataset.documents)
    second = directory / "gen2.rambo2"
    save_index(rebuilt, second)

    # Mixed pool: integer codes plus the same codes as DNA words, so the
    # server-side normalisation path is exercised too.
    codes = [int(term) for term in workload.all_terms[:16]]
    from repro.hashing.kmer_hash import int_to_kmer

    # Planted negatives can be arbitrary integers; only in-range codes have
    # a DNA spelling.
    words = [int_to_kmer(code, K) for code in codes if code < 4**K][:8]
    return index, first, second, codes, words


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


def request_terms(pool, i: int):
    """Request *i* of a scenario: four consecutive terms of the mixed pool."""
    return [pool[(i + j) % len(pool)] for j in range(4)]


def check_identity(client: ServeClient, index: Rambo, terms, label: str, coalesce: bool) -> None:
    """One served round-trip vs the local batch engine, bit for bit."""
    compare_to_local(client.query(terms, coalesce=coalesce), index, terms, label)


def compare_to_local(response, index: Rambo, terms, label: str) -> None:
    local_terms = [normalise_query_term(term, K) for term in terms]
    expected = index.query_terms_batch(local_terms)
    for term, entry, want in zip(terms, response["results"], expected):
        got_documents = entry["documents"]
        if got_documents != sorted(want.documents):
            raise SystemExit(
                f"[{label}] documents diverged for term {term!r}: "
                f"served {got_documents} vs local {sorted(want.documents)}"
            )
        if entry["filters_probed"] != want.filters_probed:
            raise SystemExit(
                f"[{label}] probe count diverged for term {term!r}: "
                f"served {entry['filters_probed']} vs local {want.filters_probed}"
            )


def check_keepalive(url: str, index: Rambo, pool) -> float:
    """50 mixed requests down one persistent connection; returns the median
    round trip in seconds."""
    address = urlsplit(url)
    connection = http.client.HTTPConnection(address.hostname, address.port, timeout=30.0)
    round_trips = []
    try:
        # Unconsumed, these 5 bytes are what the next request is parsed from.
        connection.request("GET", "/healthz", body=b"hello")
        reply = connection.getresponse()
        if reply.status != 200 or not json.loads(reply.read())["ok"]:
            raise SystemExit(f"[keep-alive] GET /healthz with a body: HTTP {reply.status}")
        sock = connection.sock
        for i in range(NUM_QUERIES):
            terms = request_terms(pool, i)
            body = json.dumps({"terms": terms, "coalesce": i % 3 != 0})
            begin = time.perf_counter()
            connection.request(
                "POST", "/query", body=body, headers={"Content-Type": "application/json"}
            )
            reply = connection.getresponse()
            payload = reply.read()
            round_trips.append(time.perf_counter() - begin)
            if reply.status != 200:
                raise SystemExit(f"[keep-alive {i}] HTTP {reply.status}: {payload[:200]!r}")
            compare_to_local(json.loads(payload), index, terms, f"keep-alive {i}")
        if connection.sock is not sock:
            raise SystemExit("[keep-alive] the server hung up mid-scenario: not one connection")
    finally:
        connection.close()
    median = statistics.median(round_trips)
    if median >= KEEPALIVE_MEDIAN_LIMIT_S:
        raise SystemExit(
            f"keep-alive median round trip {median * 1e3:.1f} ms is not under "
            f"{KEEPALIVE_MEDIAN_LIMIT_S * 1e3:.0f} ms: is every response still one "
            "segment on a TCP_NODELAY socket?"
        )
    return median


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="serve-smoke-") as tmp:
        directory = Path(tmp)
        index, first, second, codes, words = build_corpus(directory)
        ready_file = directory / "ready"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve", str(first),
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
            health = client.healthz()
            assert health["ok"] and health["snapshot_id"] == 1, health
            print(f"[serve_smoke] server up at {url}: {health}")

            # 50 mixed queries before and after a mid-stream rotation.
            pool = codes + words
            for i in range(NUM_QUERIES):
                terms = request_terms(pool, i)
                check_identity(client, index, terms, f"query {i}", coalesce=i % 3 != 0)
                if i == NUM_QUERIES // 2:
                    rotated = client.rotate(str(second))
                    assert rotated["snapshot_id"] == 2, rotated
                    print(f"[serve_smoke] rotated mid-stream: {rotated}")
            stats = client.stats()
            assert stats["snapshots"]["rotations"] == 1, stats["snapshots"]
            assert stats["index"]["documents"] == index.num_documents
            print(
                f"[serve_smoke] {NUM_QUERIES} queries bit-identical to local "
                f"engine (cache hits: {stats['cache']['hits']}, "
                f"coalescer ticks: {stats['coalescer']['ticks']})"
            )
            median = check_keepalive(url, index, pool)
            print(
                f"[serve_smoke] {NUM_QUERIES} keep-alive queries bit-identical, "
                f"median round trip {median * 1e3:.2f} ms"
            )
        finally:
            process.terminate()
            try:
                output, _ = process.communicate(timeout=10)
            except subprocess.TimeoutExpired:
                process.kill()
                output, _ = process.communicate()
                raise SystemExit("server did not shut down cleanly on SIGTERM")
        print(f"[serve_smoke] clean shutdown (exit {process.returncode})")
        if output.strip():
            print(f"[serve_smoke] server output:\n{output.rstrip()}")
    print("[serve_smoke] OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())

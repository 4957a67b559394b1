"""Warm-standby replication: WAL streaming, failover, fault injection.

The file asserts one claim from four directions, mirroring the ingest
suite's structure:

    After any interleaving of appends, primary compactions, stream
    faults (resets, corruption), standby crashes and a promotion, every
    surviving node's served answers are bit-identical — documents AND
    probe counts — to a from-scratch build of exactly the acknowledged
    documents.

1. ``TestReplicationLog`` proves the primary-side read/cursor/quorum
   protocol in-process (no sockets).
2. ``TestReplicaEngine`` proves the standby lifecycle over real HTTP:
   bootstrap, catch-up identity, compaction follow, crash-resume,
   promote.
3. ``TestFailoverClient`` / ``TestFaultInjection`` prove the client and
   stream survive injected transport faults (:mod:`faultinject`).
4. ``TestGenerationCrashWindows`` stops the generation-directory commit
   protocol at each boundary and reopens the directory cold — once, for
   both callers of ``GenerationStore.advance()`` (the primary's
   ``compact()``, the standby following a compaction).
5. ``ReplicationMachine`` lets Hypothesis interleave all of the above
   and re-checks the identity after every rule.
"""

from __future__ import annotations

import json
import shutil
import socket
import struct
import tempfile
import threading
import time
import tracemalloc
import urllib.error
import urllib.request
import zlib
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from faultinject import Fault, FaultyProxy
from hypothesis_profiles import tier
from repro.core.rambo import Rambo, RamboConfig
from repro.core.serialization import save_index
from repro.ingest import IngestEngine
from repro.ingest import store as store_module
from repro.ingest.overlay import LiveDelta
from repro.ingest.store import GenerationStore, ReplicationLagError
from repro.io.walformat import (
    SegmentedWalWriter,
    WalFormatError,
    decode_document,
    encode_document,
    iter_frames,
    replay_wal_generation,
    wal_segment_name,
)
from repro.kmers.extraction import KmerDocument
from repro.replicate import GenerationChanged, ReplicaEngine
from repro.replicate.replica import ReplicaError
from repro.serve.client import Connection, FailoverClient, ServeClient, ServeClientError
from repro.serve.http import start_http_server
from repro.serve.service import QueryService

CONFIG = RamboConfig(num_partitions=4, repetitions=3, bfu_bits=1 << 10, k=9, seed=11)
TERM_UNIVERSE = 64


def make_doc(name: str, terms) -> KmerDocument:
    return KmerDocument(name, np.asarray(sorted(set(terms)), dtype=np.uint64))


def build_reference(config: RamboConfig, documents) -> Rambo:
    index = Rambo(config)
    if documents:
        index.add_documents(list(documents))
    return index


def fingerprint(index: Rambo, terms, method: str):
    return [
        (sorted(result.documents), result.filters_probed)
        for result in index.query_terms_batch(list(terms), method=method)
    ]


def assert_identical(served: Rambo, reference: Rambo, terms) -> None:
    for method in ("full", "sparse"):
        assert fingerprint(served, terms, method) == fingerprint(reference, terms, method)


def wait_until(predicate, timeout: float = 15.0, interval: float = 0.01) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return bool(predicate())


def decode_stream(data: bytes):
    """Split raw streamed bytes back into documents (re-checking framing)."""
    frames = iter_frames(data)
    documents = [decode_document(data[start:end]) for start, end in frames]
    assert frames.torn_reason is None and frames.end == len(data)
    return documents


@contextmanager
def canned_server(reply: bytes):
    """A raw-socket endpoint that reads each whole request, answers it with
    *reply* verbatim and closes: a peer that dies or garbles mid-response."""
    listener = socket.create_server(("127.0.0.1", 0))

    def serve():
        while True:
            try:
                connection, _ = listener.accept()
            except OSError:
                return
            with connection:
                request = b""
                while b"\r\n\r\n" not in request:
                    data = connection.recv(65536)
                    if not data:
                        break
                    request += data
                head, _, body = request.partition(b"\r\n\r\n")
                for line in head.split(b"\r\n"):
                    if line.lower().startswith(b"content-length:"):
                        while len(body) < int(line.split(b":")[1]):
                            body += connection.recv(65536)
                connection.sendall(reply)

    threading.Thread(target=serve, daemon=True).start()
    try:
        yield f"http://127.0.0.1:{listener.getsockname()[1]}"
    finally:
        listener.shutdown(socket.SHUT_RDWR)
        listener.close()


class Cluster:
    """A primary (service + engine + HTTP) plus an optional proxied standby."""

    def __init__(self, root, config=CONFIG, **engine_kwargs):
        self.root = Path(root)
        self.config = config
        self.base_docs = [make_doc(f"base{i}", [i, i + 1, i + 2]) for i in range(4)]
        base = build_reference(config, self.base_docs)
        self.base_path = self.root / "base.rambo2"
        save_index(base, self.base_path)
        self.primary_wal = self.root / "primary-wal"
        self.standby_wal = self.root / "standby-wal"
        self.engine_kwargs = dict(engine_kwargs)
        self.acked = list(self.base_docs)
        self._reference = (None, [], {})
        self.proxy = None
        self.standby_service = None
        self.standby_server = None
        self.replica = None
        self.primary_dead = False
        self._start_primary()

    def _start_primary(self):
        self.primary_service = QueryService.open(self.base_path, tick_seconds=0.0)
        self.primary = IngestEngine(
            self.primary_service, self.primary_wal, **self.engine_kwargs
        )
        self.primary_service.attach_ingest(self.primary)
        self.primary_server, _ = start_http_server(self.primary_service)
        self.primary_port = self.primary_server.server_address[1]
        self.primary_url = f"http://127.0.0.1:{self.primary_port}"
        self.primary_dead = False

    def kill_primary(self):
        """All a standby or client can observe of a dead primary: the port
        stops answering."""
        self.primary_server.shutdown()
        self.primary_server.server_close()
        self.primary_service.close()
        self.primary_dead = True

    def start_standby(self, *, via_proxy: bool = False, **kwargs):
        if via_proxy and self.proxy is None:
            self.proxy = FaultyProxy("127.0.0.1", self.primary_port)
        url = self.proxy.url if via_proxy else self.primary_url
        opts = dict(
            poll_wait_s=0.5,
            backoff_s=0.01,
            backoff_cap_s=0.2,
            peer_id="standby-a",
            connect_timeout_s=10.0,
            # A corrupt byte in the HTTP chunk framing (not the WAL frame)
            # wedges the read until the socket timeout; keep that bound
            # well inside the semi-sync ack timeout so injected corruption
            # shows up as a reconnect, never as ReplicationLagError.
            read_timeout_s=2.0,
        )
        opts.update(kwargs)
        self.standby_service, self.replica = ReplicaEngine.bootstrap(
            url, self.standby_wal, service_opts={"tick_seconds": 0.0}, **opts
        )
        self.standby_server, _ = start_http_server(self.standby_service)
        self.standby_port = self.standby_server.server_address[1]
        self.standby_url = f"http://127.0.0.1:{self.standby_port}"
        return self.replica

    def stop_standby(self):
        if self.standby_server is not None:
            self.standby_server.shutdown()
        if self.standby_service is not None:
            self.standby_service.close()
        self.standby_server = self.standby_service = self.replica = None

    def append(self, docs):
        self.primary.append(docs)
        self.acked.extend(docs)
        return docs

    def fresh_docs(self, count, start):
        return [make_doc(f"doc{start + i:04d}", [start + i, 60 - i]) for i in range(count)]

    def wait_caught_up(self, timeout: float = 15.0):
        def caught():
            if self.primary_dead:
                return False
            generation, committed = self.primary.store.position()
            return (
                self.replica.generation == generation
                and self.replica.applied >= committed
            )

        assert wait_until(caught, timeout), (
            f"standby never caught up: {self.replica.stats()['replication']}"
        )

    def assert_node_identical(self, service):
        # The reference's answers are computed once per acknowledged set —
        # the state machine re-checks both nodes after every rule, and most
        # rules acknowledge nothing — and a grown set only adds its new
        # documents (``add_documents`` is bit-identical however the
        # documents are batched).
        reference, docs, expected = self._reference
        if len(docs) > len(self.acked) or any(a is not b for a, b in zip(docs, self.acked)):
            reference, docs = None, []
        if reference is None or len(docs) < len(self.acked):
            reference = reference or build_reference(self.config, [])
            reference.add_documents(self.acked[len(docs) :])
            expected = {
                method: fingerprint(reference, range(TERM_UNIVERSE), method)
                for method in ("full", "sparse")
            }
            self._reference = (reference, list(self.acked), expected)
        served = service.snapshots.active.index
        for method, answers in expected.items():
            assert fingerprint(served, range(TERM_UNIVERSE), method) == answers

    def close(self):
        self.stop_standby()
        if not self.primary_dead:
            self.kill_primary()
        if self.proxy is not None:
            self.proxy.close()


@pytest.fixture()
def cluster(tmp_path):
    node = Cluster(tmp_path)
    yield node
    node.close()


class TestReplicationLog:
    def test_read_resumes_at_any_record_offset_across_segments(self, tmp_path):
        cluster = Cluster(tmp_path, segment_bytes=256)
        try:
            docs = []
            for i in range(8):  # one batch per record so the segment rolls
                docs.extend(cluster.append(cluster.fresh_docs(1, i)))
            replication = cluster.primary.replication
            generation, committed = cluster.primary.store.position()
            assert committed == 8
            assert cluster.primary.stats()["wal"]["segments"] > 1
            for offset in range(committed + 1):
                streamed = []
                cursor = offset
                while cursor < committed:
                    data, n_records, total = replication.read(generation, cursor)
                    assert total == committed and n_records > 0
                    streamed.extend(decode_stream(data))
                    cursor += n_records
                assert [d.name for d in streamed] == [d.name for d in docs[offset:]]
            # Caught-up cursor: empty read, no error.
            data, n_records, total = replication.read(generation, committed)
            assert data == b"" and n_records == 0 and total == committed
        finally:
            cluster.close()

    def test_tiny_max_bytes_still_ships_whole_frames(self, cluster):
        cluster.append(cluster.fresh_docs(3, 0))
        replication = cluster.primary.replication
        data, n_records, _ = replication.read(0, 0, max_bytes=1)
        assert n_records == 1  # never a partial frame, never zero progress
        assert len(decode_stream(data)) == 1

    def test_read_rejects_a_retired_generation(self, cluster):
        cluster.append(cluster.fresh_docs(2, 0))
        cluster.primary.compact()
        with pytest.raises(GenerationChanged) as excinfo:
            cluster.primary.replication.read(0, 0)
        assert excinfo.value.generation == 1

    def test_wait_for_records_sees_commits_and_generation_moves(self, cluster):
        replication = cluster.primary.replication
        assert replication.wait_for_records(0, 0, timeout=0.05) is False
        cluster.append(cluster.fresh_docs(1, 0))
        assert replication.wait_for_records(0, 0, timeout=0.05) is True
        cluster.primary.compact()
        assert replication.wait_for_records(0, 99, timeout=0.05) is True  # gen moved

    def test_semi_sync_quorum_acks_leases_and_degradation(self, tmp_path):
        cluster = Cluster(tmp_path, replica_ack=1, replica_ack_timeout_s=0.3)
        try:
            replication = cluster.primary.replication
            # No live peers: degrade to async rather than wedge the primary.
            cluster.append(cluster.fresh_docs(1, 0))
            # A peer that is behind (and stays behind) trips the timeout.
            replication.ack("peer-1", 0, 1)
            with pytest.raises(ReplicationLagError):
                cluster.primary.append(cluster.fresh_docs(1, 10))
            # Catch the peer up: the next append is acknowledged.
            committed = cluster.primary.store.position()[1]
            replication.ack("peer-1", 0, committed + 1)
            cluster.primary.append(cluster.fresh_docs(1, 20))
            # A peer on a LATER generation counts (its snapshot covers us).
            replication.ack("peer-1", 5, 0)
            cluster.primary.append(cluster.fresh_docs(1, 30))
            peers = cluster.primary.stats()["replication"]["peers"]
            assert peers["peer-1"]["live"] is True
        finally:
            cluster.close()


class TestWalHttpEndpoints:
    def test_stream_endpoint_ships_committed_frames(self, cluster):
        docs = cluster.append(cluster.fresh_docs(3, 0))
        url = f"{cluster.primary_url}/wal/stream?generation=0&offset=1&wait_s=0"
        with urllib.request.urlopen(url, timeout=10) as response:
            assert response.headers["X-Wal-Generation"] == "0"
            assert int(response.headers["X-Wal-Records"]) == 3
            body = response.read()
        assert [d.name for d in decode_stream(body)] == [d.name for d in docs[1:]]

    def test_stream_stale_generation_is_a_409_with_the_new_generation(self, cluster):
        cluster.append(cluster.fresh_docs(1, 0))
        cluster.primary.compact()
        url = f"{cluster.primary_url}/wal/stream?generation=0&offset=0&wait_s=0"
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(url, timeout=10)
        assert excinfo.value.code == 409
        assert json.loads(excinfo.value.read())["generation"] == 1

    def test_snapshot_endpoint_serves_the_exact_base_artifact(self, cluster):
        with urllib.request.urlopen(
            f"{cluster.primary_url}/wal/snapshot", timeout=10
        ) as response:
            assert response.headers["X-Wal-Generation"] == "0"
            body = response.read()
        assert body == cluster.base_path.read_bytes()

    def test_aborted_long_polls_free_their_handler_threads(self, cluster):
        """A client that hangs up mid-wait releases its server thread within
        a wait slice, not after ``wait_s``."""

        def handlers():
            return {t for t in threading.enumerate() if "process_request_thread" in t.name}

        before = handlers()
        path = "/wal/stream?generation=0&offset=0&wait_s=20"
        socks = []
        try:
            for _ in range(5):
                sock = socket.create_connection(("127.0.0.1", cluster.primary_port), timeout=10)
                socks.append(sock)
                sock.sendall(f"GET {path} HTTP/1.1\r\nHost: primary\r\n\r\n".encode())
                # The headers are flushed before the wait: the handler is parked.
                assert sock.recv(65536).startswith(b"HTTP/1.1 200")
            streams = handlers() - before
            assert len(streams) == 5
        finally:
            for sock in socks:
                sock.close()
        deadline = time.monotonic() + 1.0
        while any(t.is_alive() for t in streams) and time.monotonic() < deadline:
            time.sleep(0.02)
        assert not any(t.is_alive() for t in streams)

    def test_a_stream_failing_after_its_headers_ends_without_a_terminator(
        self, cluster, monkeypatch
    ):
        """Once the 200 is on the wire, a failure cuts the chunked body short:
        no JSON error inside it, and no terminating chunk that would read as
        a clean, caught-up end."""
        cluster.append(cluster.fresh_docs(2, 0))
        log = cluster.primary.replication
        read = log.read

        def damaged_after_the_first_read(generation, offset, **kwargs):
            if offset:
                raise WalFormatError("damaged committed prefix")
            return read(generation, offset, **kwargs)

        monkeypatch.setattr(log, "read", damaged_after_the_first_read)
        path = "/wal/stream?generation=0&offset=0&wait_s=0"
        with socket.create_connection(("127.0.0.1", cluster.primary_port), timeout=10) as sock:
            sock.sendall(f"GET {path} HTTP/1.1\r\nHost: primary\r\n\r\n".encode())
            reply = b""
            while True:
                data = sock.recv(65536)
                if not data:
                    break
                reply += data
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 200")
        assert body and b"HTTP/1." not in body
        assert not body.endswith(b"0\r\n\r\n")
        with pytest.raises(ServeClientError) as excinfo:
            with Connection(cluster.primary_url, 5.0).stream(path) as (_headers, chunks):
                for _chunk in chunks:
                    pass
        assert excinfo.value.status is None

    def test_ack_endpoint_registers_the_peer(self, cluster):
        client = ServeClient(cluster.primary_url)
        response = client._request(  # noqa: SLF001 - raw endpoint under test
            "/wal/ack", {"peer": "peer-x", "generation": 0, "records": 0}
        )
        assert response["ok"] is True
        peers = cluster.primary.stats()["replication"]["peers"]
        assert "peer-x" in peers

    def test_promote_on_a_primary_is_an_idempotent_no_op(self, cluster):
        response = ServeClient(cluster.primary_url).promote()
        assert response == {"promoted": False, "role": "primary", "generation": 0}

    def test_healthz_carries_role_and_readiness_detail(self, cluster):
        record = ServeClient(cluster.primary_url).healthz()
        assert record["ok"] is True and record["ready"] is True
        assert record["role"] == "primary"
        assert record["wal_attached"] is True
        assert record["replication_lag"] == 0
        assert "generation" in record and "snapshot_id" in record


class TestReplicaEngine:
    def test_standby_catches_up_bit_identically(self, cluster):
        cluster.append(cluster.fresh_docs(3, 0))
        replica = cluster.start_standby()
        cluster.append(cluster.fresh_docs(3, 10))
        cluster.wait_caught_up()
        cluster.assert_node_identical(cluster.standby_service)
        cluster.assert_node_identical(cluster.primary_service)
        stats = replica.stats()["replication"]
        assert stats["role"] == "replica"
        assert stats["cursor"] == {"generation": 0, "records": 6}
        assert stats["lag_records"] == 0 and stats["lag_seconds"] == 0.0
        assert wait_until(lambda: replica.healthz()["ready"], timeout=5.0)
        record = ServeClient(cluster.standby_url).healthz()
        assert record["role"] == "replica" and record["ok"] is True
        # The standby's lease is registered on the primary.
        peers = cluster.primary.stats()["replication"]["peers"]
        assert peers["standby-a"]["live"] is True

    def test_standby_applying_batch_by_batch_serves_what_its_primary_serves(self, cluster):
        """Both engines publish through the one delta owner: N streamed
        batches, each applied and published on its own (cold start, full
        copy, then plane-set reuse), leave the standby's served index
        bit-identical to the primary's — not only to a rebuild."""
        replica = cluster.start_standby()
        assert type(replica.store.delta) is type(cluster.primary.store.delta) is LiveDelta
        batches = 6
        for i in range(batches):
            cluster.append(cluster.fresh_docs(2, 10 * i))
            cluster.wait_caught_up()
        assert replica.stats()["replication"]["applied_batches"] == batches
        standby = cluster.standby_service.snapshots.active.index
        primary = cluster.primary_service.snapshots.active.index
        assert standby.document_names == primary.document_names
        assert_identical(standby, primary, range(TERM_UNIVERSE))
        cluster.assert_node_identical(cluster.standby_service)

    def test_standby_refuses_writes_with_a_503(self, cluster):
        cluster.start_standby()
        client = ServeClient(cluster.standby_url)
        for call in (
            lambda: client.append([{"name": "x", "terms": [1]}]),
            lambda: client.compact(),
        ):
            with pytest.raises(ServeClientError) as excinfo:
                call()
            assert excinfo.value.status == 503
            assert "read-only replica" in str(excinfo.value)
        with pytest.raises(ReplicaError):
            cluster.replica.append([make_doc("x", [1])])

    def test_standby_follows_a_primary_compaction(self, cluster):
        cluster.start_standby()
        cluster.append(cluster.fresh_docs(3, 0))
        cluster.wait_caught_up()
        cluster.primary.compact()
        cluster.append(cluster.fresh_docs(2, 10))
        assert wait_until(lambda: cluster.replica.generation == 1)
        cluster.wait_caught_up()
        cluster.assert_node_identical(cluster.standby_service)
        stats = cluster.replica.stats()
        assert stats["replication"]["snapshot_fetches"] >= 1
        assert stats["replication"]["cursor"] == {"generation": 1, "records": 2}
        # The standby pruned its old generation after the follow.
        names = {path.name for path in cluster.standby_wal.iterdir()}
        assert "wal-000000.log" not in names
        assert "snapshot-000000.rambo2" not in names

    def test_a_warm_standby_follows_a_compaction_without_allocating_planes(self, tmp_path):
        """A standby's follow ends in the same ``advance()`` -> ``reset()`` as
        the primary's compaction.  Once one generation is warm, a cycle of
        applies, a followed compaction and more applies rewrites the buffers
        the standby has — and the primary's, which runs in this process
        too: no plane-sized allocation on either node."""
        big = RamboConfig(num_partitions=16, repetitions=2, bfu_bits=1 << 20, k=9, seed=11)
        cluster = Cluster(tmp_path, config=big, fsync=False)
        try:
            replica = cluster.start_standby(fsync=False)

            def cycle(tag):
                for i in range(3):
                    cluster.append([make_doc(f"{tag}a{i}", [i, i + 7])])
                    cluster.wait_caught_up()
                cluster.primary.compact()
                for i in range(3):
                    cluster.append([make_doc(f"{tag}b{i}", [i + 20, i + 27])])
                    cluster.wait_caught_up()

            cycle("warm")
            buffers = replica.stats()["delta"]["buffer_bytes"]
            tracemalloc.start()
            try:
                before, _ = tracemalloc.get_traced_memory()
                tracemalloc.reset_peak()
                cycle("measured")
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert replica.generation == 2
            assert peak - before < 1 << 20
            assert replica.stats()["delta"]["buffer_bytes"] == buffers
            cluster.assert_node_identical(cluster.standby_service)
        finally:
            cluster.close()

    def test_standby_crash_resumes_from_its_durable_cursor(self, cluster):
        cluster.start_standby()
        cluster.append(cluster.fresh_docs(3, 0))
        cluster.wait_caught_up()
        cluster.stop_standby()
        cluster.append(cluster.fresh_docs(2, 10))  # streamed to nobody
        replica = cluster.start_standby()
        # Resume path: replayed the locally durable records, re-used the
        # local snapshot instead of re-downloading it.
        assert replica.stats()["wal"]["replayed_documents"] == 3
        assert replica.snapshot_fetches == 0
        cluster.wait_caught_up()
        cluster.assert_node_identical(cluster.standby_service)

    def test_promote_preserves_every_acknowledged_write(self, tmp_path):
        cluster = Cluster(tmp_path, replica_ack=1, replica_ack_timeout_s=5.0)
        try:
            cluster.start_standby()
            # First append may degrade to async (no lease yet); it also
            # registers the standby's lease once applied.
            cluster.append(cluster.fresh_docs(1, 0))
            cluster.wait_caught_up()
            # These appends are semi-sync: acked only after the standby
            # durably applied them — the promote commit point.
            cluster.append(cluster.fresh_docs(3, 10))
            cluster.kill_primary()
            response = ServeClient(cluster.standby_url).promote()
            assert response["promoted"] is True and response["role"] == "primary"
            # Idempotent over HTTP too: the node now answers as a primary.
            again = ServeClient(cluster.standby_url).promote()
            assert again["promoted"] is False and again["role"] == "primary"
            cluster.assert_node_identical(cluster.standby_service)
            # The promoted node accepts writes and stays identical.
            client = ServeClient(cluster.standby_url)
            client.append([{"name": "after-promote", "terms": [7, 8]}])
            cluster.acked.append(
                KmerDocument(
                    "after-promote", frozenset({7, 8}), source_format="text"
                )
            )
            cluster.assert_node_identical(cluster.standby_service)
            assert client.healthz()["role"] == "primary"
        finally:
            cluster.close()


    def test_promote_is_a_role_flip_that_agrees_with_the_disk(self, cluster, monkeypatch):
        """Promotion hands the *live* store over — no replay, no second delta,
        no reopened WAL — and what it hands over is what the directory holds:
        ``kill -9`` the promoted node and a cold recovery answers the same."""
        replica = cluster.start_standby()
        cluster.append(cluster.fresh_docs(3, 0))
        cluster.wait_caught_up()
        store, delta, wal = replica.store, replica.store.delta, replica.store.wal
        replays = []
        monkeypatch.setattr(
            store_module, "replay_wal_generation", lambda *args, **kw: replays.append(args)
        )
        cluster.kill_primary()
        engine = replica.promote()
        assert replays == []
        assert engine.store is store and store.delta is delta and store.wal is wal
        monkeypatch.undo()
        docs = cluster.fresh_docs(2, 10)
        engine.append(docs)
        cluster.acked.extend(docs)
        cluster.assert_node_identical(cluster.standby_service)
        # kill -9: every live object is abandoned as it stands, nothing closed.
        live = cluster.standby_service.snapshots.active.index
        snapshot_path = GenerationStore(cluster.standby_wal).committed_snapshot()
        with QueryService.open(snapshot_path, tick_seconds=0.0) as service:
            service.attach_ingest(IngestEngine(service, cluster.standby_wal))
            recovered = service.snapshots.active.index
            assert recovered.document_names == live.document_names
            assert_identical(recovered, live, range(TERM_UNIVERSE))
            cluster.assert_node_identical(service)


class TestFailoverClient:
    def test_reads_fail_over_to_the_standby(self, cluster):
        cluster.start_standby()
        cluster.append(cluster.fresh_docs(2, 0))
        cluster.wait_caught_up()
        client = FailoverClient(
            [cluster.primary_url, cluster.standby_url],
            timeout=2.0,
            backoff_s=0.01,
            backoff_cap_s=0.05,
        )
        before = client.query_documents([0])
        cluster.kill_primary()
        assert client.query_documents([0]) == before
        assert client.failovers >= 1
        assert client.healthz()["role"] == "replica"

    def test_writes_land_after_promotion_with_zero_loss(self, cluster):
        cluster.start_standby()
        cluster.append(cluster.fresh_docs(2, 0))
        cluster.wait_caught_up()
        client = FailoverClient(
            [cluster.primary_url, cluster.standby_url],
            timeout=2.0,
            retries=8,
            backoff_s=0.01,
            backoff_cap_s=0.05,
        )
        cluster.kill_primary()
        # Both nodes refuse (dead / read-only) until the standby is promoted.
        with pytest.raises(ServeClientError):
            FailoverClient(
                [cluster.primary_url, cluster.standby_url],
                timeout=1.0,
                retries=2,
                backoff_s=0.01,
                backoff_cap_s=0.02,
            ).append([{"name": "lost?", "terms": [1]}])
        client.promote(endpoint=cluster.standby_url)
        response = client.append([{"name": "post-failover", "terms": [9]}])
        assert response["appended"] == 1
        cluster.acked.append(
            KmerDocument("post-failover", frozenset({9}), source_format="text")
        )
        cluster.assert_node_identical(cluster.standby_service)

    def test_client_errors_do_not_burn_the_retry_budget(self, cluster):
        client = FailoverClient(cluster.primary_url, backoff_s=0.01)
        with pytest.raises(ServeClientError) as excinfo:
            client.append([{"name": "base0", "terms": [1]}])  # already in base
        assert excinfo.value.status == 400
        assert client.retried_calls == 0 and client.failovers == 0

    def test_unknown_fate_retry_translates_the_dedup_rejection(self, cluster):
        with FaultyProxy("127.0.0.1", cluster.primary_port) as proxy:
            client = FailoverClient(
                proxy.url, timeout=5.0, backoff_s=0.01, backoff_cap_s=0.05
            )
            # The request reaches the primary and applies; the response is
            # torn away — the client cannot know its fate.
            proxy.schedule(Fault.reset_after(0))
            response = client.append([{"name": "torn-ack", "terms": [3]}])
            assert response == {"appended": 0, "already_indexed": True}
            assert client.unknown_fate_retries == 1
            cluster.acked.append(
                KmerDocument("torn-ack", frozenset({3}), source_format="text")
            )
            cluster.assert_node_identical(cluster.primary_service)
            # WITHOUT a preceding unknown-fate failure, the same rejection
            # is a genuine duplicate and must raise.
            with pytest.raises(ServeClientError) as excinfo:
                client.append([{"name": "torn-ack", "terms": [3]}])
            assert excinfo.value.status == 400

    def test_stalled_endpoint_times_out_and_fails_over(self, cluster):
        with FaultyProxy("127.0.0.1", cluster.primary_port) as proxy:
            proxy.schedule(Fault.stall(30.0))
            client = FailoverClient(
                [proxy.url, cluster.primary_url],
                timeout=0.5,
                backoff_s=0.01,
                backoff_cap_s=0.02,
            )
            started = time.monotonic()
            assert client.healthz()["ok"] is True
            assert time.monotonic() - started < 5.0
            assert client.failovers >= 1


    @pytest.mark.parametrize(
        "reply",
        [
            b"HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\n{\"ok\": true",
            b"HTTP/1.1 banana\r\n\r\n",
            b"HTTP/1.1 200 OK\r\nContent-Length: 9\r\n\r\nnot json!",
        ],
        ids=["truncated-body", "garbled-status-line", "not-json"],
    )
    def test_a_garbled_reply_is_a_transport_failure(self, cluster, reply):
        with canned_server(reply) as garbling_url:
            with pytest.raises(ServeClientError) as excinfo:
                ServeClient(garbling_url, timeout=2.0).healthz()
            assert excinfo.value.status is None

            def garbling_first():
                return FailoverClient(
                    [garbling_url, cluster.primary_url],
                    timeout=2.0,
                    backoff_s=0.01,
                    backoff_cap_s=0.02,
                )

            client = garbling_first()
            assert client.healthz()["role"] == "primary"
            assert client.failovers == 1
            # The garbling node may have applied the append before it died:
            # its fate is unknown, so the survivor's dedup rejection is the
            # acknowledgement the caller never received.
            cluster.append([make_doc("garbled-ack", [3])])
            client = garbling_first()
            response = client.append([{"name": "garbled-ack", "terms": [3]}])
            assert response == {"appended": 0, "already_indexed": True}
            assert client.unknown_fate_retries == 1


class TestFaultInjection:
    def test_stream_survives_connection_resets(self, cluster):
        cluster.start_standby(via_proxy=True)
        cluster.append(cluster.fresh_docs(2, 0))
        cluster.wait_caught_up()
        # Tear the next few stream connections mid-response; the cursor
        # resumes each time from the standby's durable prefix.
        cluster.proxy.schedule(
            Fault.reset_after(40), Fault.reset_after(120), Fault.reset_after(300)
        )
        cluster.append(cluster.fresh_docs(4, 10))
        assert wait_until(lambda: cluster.proxy.faults_fired >= 3, timeout=30.0)
        cluster.wait_caught_up(timeout=30.0)
        cluster.assert_node_identical(cluster.standby_service)

    def test_corrupted_stream_records_are_never_applied(self, cluster):
        cluster.start_standby(via_proxy=True)
        cluster.append(cluster.fresh_docs(2, 0))
        cluster.wait_caught_up()
        # Flip one byte somewhere in the next responses: depending on where
        # it lands this breaks either the HTTP chunk framing or a record
        # CRC — both must drop the connection, neither may apply garbage.
        cluster.proxy.schedule(Fault.corrupt_after(260), Fault.corrupt_after(400))
        cluster.append(cluster.fresh_docs(4, 10))
        assert wait_until(lambda: cluster.proxy.faults_fired >= 2, timeout=30.0)
        cluster.wait_caught_up(timeout=30.0)
        cluster.assert_node_identical(cluster.standby_service)

    def test_standby_crash_mid_replay_never_acks_lost_records(self, cluster):
        cluster.start_standby(via_proxy=True)
        cluster.append(cluster.fresh_docs(3, 0))
        cluster.wait_caught_up()
        applied_before = cluster.replica.applied
        cluster.stop_standby()  # "crash" between two streamed batches
        cluster.append(cluster.fresh_docs(3, 10))
        replica = cluster.start_standby(via_proxy=True)
        # Whatever the standby durably applied before the crash is exactly
        # where its cursor resumes; a from-disk replay agrees.
        replay = replay_wal_generation(cluster.standby_wal, replica.generation)
        assert replay is not None and replay.records >= applied_before
        cluster.wait_caught_up()
        cluster.assert_node_identical(cluster.standby_service)


class TestStopLiveness:
    """A standby's ``promote()`` and ``close()`` return at once at the CLI's
    defaults, where an idle primary holds the stream's long poll open for
    ``poll_wait_s`` = 20 s and a stalled one is given up only after
    ``poll_wait_s + read_timeout_s`` = 35 s."""

    @pytest.fixture(params=["live-idle-primary", "stalled-stream"])
    def replica(self, request, cluster):
        defaults = dict(poll_wait_s=20.0, read_timeout_s=15.0)
        if request.param == "live-idle-primary":
            cluster.start_standby(**defaults)
            cluster.wait_caught_up()
        else:
            # The bootstrap's snapshot download passes; the stream stalls
            # before its response headers.
            cluster.proxy = FaultyProxy("127.0.0.1", cluster.primary_port)
            cluster.proxy.schedule(Fault.passthrough(), Fault.stall(60.0))
            cluster.start_standby(via_proxy=True, **defaults)
            assert wait_until(lambda: cluster.proxy.connections >= 2)
        time.sleep(0.2)  # the tailer is now blocked in its read
        return cluster.replica

    def test_promote_returns_at_once(self, replica):
        started = time.monotonic()
        assert replica.promote().role == "primary"
        assert time.monotonic() - started < 0.5
        assert not replica._thread.is_alive()  # noqa: SLF001 - the tailer stopped

    def test_close_returns_at_once(self, replica):
        started = time.monotonic()
        replica.close()
        assert time.monotonic() - started < 0.5
        assert not replica._thread.is_alive()  # noqa: SLF001 - the tailer stopped


class _Crash(Exception):
    """Raised by a patched store step: the process dies at that boundary."""


def _crash(*_args, **_kwargs):
    raise _Crash("killed at the boundary under test")


class TestGenerationCrashWindows:
    """The commit protocol lives once, in ``GenerationStore``; so does its
    crash test.  Each case stops the protocol at one boundary, reopens the
    directory cold and demands served == rebuild of the acknowledged
    documents (documents and ``filters_probed``) — for the primary, whose
    ``compact()`` calls ``advance()``, and for a standby, which calls it
    when it follows that compaction."""

    @pytest.fixture(params=["primary", "standby"])
    def node(self, request, tmp_path):
        """``(role, cluster, store)``: three acknowledged documents in
        generation 0 of the role's store, segments rolling every 256 bytes."""
        cluster = Cluster(tmp_path, segment_bytes=256)
        cluster.append(cluster.fresh_docs(3, 0))
        store = cluster.primary.store
        if request.param == "standby":
            store = cluster.start_standby(segment_bytes=256).store
            cluster.wait_caught_up()
        yield request.param, cluster, store
        cluster.close()

    @staticmethod
    def advance(role, cluster, crashes=False):
        """One generation advance through the role's ``advance()`` caller."""
        if role == "primary" and crashes:
            with pytest.raises(_Crash):
                cluster.primary.compact()
            return
        cluster.primary.compact()
        if role == "standby":
            replica = cluster.replica
            if crashes:
                assert wait_until(lambda: "_Crash" in str(replica.last_error))
            else:
                assert wait_until(lambda: replica.generation == cluster.primary.generation)

    @staticmethod
    @contextmanager
    def reopened(role, cluster):
        """Stop the node, then recover its directory with fresh objects
        (a standby without its tailer: what is served is what the disk held)."""
        url = cluster.primary_url
        if role == "primary":
            if not cluster.primary_dead:
                cluster.kill_primary()
            served = cluster.base_path
        else:
            cluster.stop_standby()
            served = GenerationStore(cluster.standby_wal).committed_snapshot()
        with QueryService.open(served, tick_seconds=0.0) as service:
            if role == "primary":
                engine = IngestEngine(service, cluster.primary_wal, segment_bytes=256)
            else:
                engine = ReplicaEngine(service, cluster.standby_wal, url, segment_bytes=256)
            service.attach_ingest(engine)
            yield service, engine

    def test_crash_before_the_manifest_recovers_the_old_generation(self, node, monkeypatch):
        role, cluster, store = node
        monkeypatch.setattr(store, "write_manifest", _crash)
        self.advance(role, cluster, crashes=True)  # snapshot-1 installed, WAL 1 open
        (store.directory / "snapshot-000002.tmp").write_bytes(b"died mid-install")
        with self.reopened(role, cluster) as (service, engine):
            assert engine.generation == 0
            assert engine.stats()["wal"]["replayed_documents"] == 3
            cluster.assert_node_identical(service)
            debris = [
                path.name
                for path in store.directory.iterdir()
                if path.suffix == ".tmp" or "-000001" in path.name
            ]
            assert debris == []

    def test_crash_after_the_manifest_recovers_the_new_generation(self, node, monkeypatch):
        role, cluster, store = node
        monkeypatch.setattr(store.service, "swap", _crash)
        self.advance(role, cluster, crashes=True)  # committed; nothing swapped or pruned
        assert (store.directory / wal_segment_name(0)).exists()
        with self.reopened(role, cluster) as (service, engine):
            assert engine.generation == 1
            assert engine.stats()["wal"]["replayed_documents"] == 0
            assert service.snapshots.active.index.is_mapped
            cluster.assert_node_identical(service)
            assert [p.name for p in store.directory.iterdir() if "-000000" in p.name] == []

    def test_torn_tail_in_the_last_segment_is_cut_after_an_advance(self, node):
        role, cluster, store = node
        self.advance(role, cluster)
        for i in range(5):  # one batch per record, so both WALs roll
            cluster.append(cluster.fresh_docs(1, 10 + i))
            if role == "standby":
                cluster.wait_caught_up()
        assert store.wal.segment_count > 1
        payload = encode_document(make_doc("torn", [60, 61]))
        torn = (struct.pack("<II", len(payload), zlib.crc32(payload)) + payload)[:-3]
        with open(store.wal.path, "ab") as handle:
            handle.write(torn)  # a crash mid-append: never acknowledged
        with self.reopened(role, cluster) as (service, engine):
            wal = engine.stats()["wal"]
            assert engine.generation == 1
            assert wal["torn_bytes_truncated"] == len(torn)
            assert wal["replayed_documents"] == 5
            cluster.assert_node_identical(service)

    def test_wal_record_of_a_document_the_base_holds_is_skipped(self, node):
        role, cluster, store = node
        folded = cluster.acked[-1]  # in snapshot-1 after the advance
        self.advance(role, cluster)
        fresh = make_doc("fresh", [33, 34])
        with SegmentedWalWriter(
            store.directory, CONFIG, 1, segments=store.wal.segment_infos()
        ) as writer:
            writer.append([folded, fresh])  # durable, never acknowledged
        cluster.acked.append(fresh)
        with self.reopened(role, cluster) as (service, engine):
            assert engine.store.recovery["replayed_documents"] == 1
            assert engine.store.recovery["replay_skipped"] == 1
            cluster.assert_node_identical(service)

    @pytest.mark.parametrize("damage", ["version", "config"])
    def test_a_manifest_the_store_cannot_trust_is_refused(self, node, damage):
        """Both roles read the manifest through the store: an unsupported
        version, or a config that disagrees with the served base, is the
        same ``ValueError`` on either (the standby used to trust anything)."""
        role, cluster, store = node
        manifest_path = store.directory / store_module.MANIFEST_NAME
        manifest = json.loads(manifest_path.read_text())
        if damage == "version":
            manifest["version"] = 2
        else:
            manifest["config"]["seed"] += 1
        if role == "primary":
            cluster.kill_primary()
        else:
            cluster.stop_standby()
        manifest_path.write_text(json.dumps(manifest))
        expected = "unsupported manifest version 2" if damage == "version" else "written for config"
        with pytest.raises(ValueError, match=expected):
            with self.reopened(role, cluster):
                pass


term_sets = st.lists(
    st.integers(min_value=0, max_value=TERM_UNIVERSE - 1), min_size=1, max_size=6
)


class ReplicationMachine(RuleBasedStateMachine):
    """Hypothesis drives append / compact / fault / standby-crash / promote.

    The model is the list of acknowledged documents.  After every rule the
    primary's served answers must be bit-identical to a from-scratch build
    of that list, and — once the standby has caught up — so must the
    standby's.  Promotion kills the primary and hands the model to the
    survivor, whose answers must cover every acknowledged write (appends
    after the standby's registered lease are semi-sync under
    ``replica_ack=1``).
    """

    def __init__(self):
        super().__init__()
        self.tmp = Path(tempfile.mkdtemp(prefix="replicate-machine-"))
        self.cluster = Cluster(self.tmp, replica_ack=1, replica_ack_timeout_s=10.0)
        self.cluster.start_standby(via_proxy=True)
        # Semi-sync from the first modelled append: register the lease now.
        self.cluster.append(self.cluster.fresh_docs(1, 9000))
        self.cluster.wait_caught_up()
        self.counter = 0
        self.promoted = False

    def _next_docs(self, term_lists):
        docs = []
        for terms in term_lists:
            docs.append(make_doc(f"m{self.counter:04d}", terms))
            self.counter += 1
        return docs

    @rule(term_lists=st.lists(term_sets, min_size=1, max_size=2))
    def append(self, term_lists):
        docs = self._next_docs(term_lists)
        if self.promoted:
            self.cluster.replica._promoted.append(docs)  # noqa: SLF001
            self.cluster.acked.extend(docs)
        else:
            self.cluster.append(docs)

    @precondition(lambda self: not self.promoted)
    @rule()
    def compact_primary(self):
        self.cluster.primary.compact()

    @precondition(lambda self: not self.promoted)
    @rule(cut=st.integers(min_value=20, max_value=600))
    def inject_stream_reset(self, cut):
        self.cluster.proxy.schedule(Fault.reset_after(cut))

    @precondition(lambda self: not self.promoted)
    @rule(cut=st.integers(min_value=250, max_value=600))
    def inject_stream_corruption(self, cut):
        self.cluster.proxy.schedule(Fault.corrupt_after(cut))

    @precondition(lambda self: not self.promoted)
    @rule()
    def crash_and_restart_standby(self):
        self.cluster.stop_standby()
        self.cluster.start_standby(via_proxy=True)
        self.cluster.wait_caught_up(timeout=30.0)

    @precondition(lambda self: not self.promoted)
    @rule()
    def promote_standby(self):
        self.cluster.wait_caught_up(timeout=30.0)
        self.cluster.kill_primary()
        self.cluster.replica.promote()
        self.promoted = True

    @invariant()
    def survivors_serve_exactly_the_acked_documents(self):
        if self.promoted:
            self.cluster.assert_node_identical(self.cluster.standby_service)
        else:
            self.cluster.assert_node_identical(self.cluster.primary_service)
            self.cluster.wait_caught_up(timeout=30.0)
            self.cluster.assert_node_identical(self.cluster.standby_service)

    def teardown(self):
        try:
            self.cluster.close()
        finally:
            shutil.rmtree(self.tmp, ignore_errors=True)


ReplicationMachine.TestCase.settings = tier("stateful")


class TestReplicationStateful(ReplicationMachine.TestCase):
    """Run the replication machine under the ``stateful`` tier, in < 15 s:
    every standby stop and promotion inside it must be prompt."""

    def runTest(self):
        started = time.monotonic()
        super().runTest()
        assert time.monotonic() - started < 15.0

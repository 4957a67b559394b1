"""Tests for the serving layer: cache, snapshots, coalescer, service, HTTP.

The load-bearing properties:

* every served answer is bit-identical — documents *and* probe counts — to
  a local ``query_terms_batch`` call against the snapshot that answered it;
* the answer cache is a true LRU (capacity bound, recency-ordered
  eviction) and rotation invalidates exactly the retired snapshot's
  entries;
* rotation is atomic: queries racing a ``swap`` each match one of the two
  snapshots' reference answers in full, never a mix, and none are dropped.
"""

from __future__ import annotations

import http.client
import json
import socket
import threading
import time

import numpy as np
import pytest

from repro.core.base import QueryResult
from repro.core.rambo import Rambo, RamboConfig
from repro.core.serialization import describe_index, save_index
from repro.kmers.extraction import KmerDocument
from repro.serve import (
    AnswerCache,
    QueryService,
    ServeClient,
    ServeClientError,
    ServiceClosed,
    SnapshotManager,
    canonical_term,
    start_http_server,
)
from repro.serve.http import ROUTES

CONFIG = RamboConfig(num_partitions=6, repetitions=3, bfu_bits=1 << 13, k=7, seed=9)

#: The shared query pool: in-range terms (hits), boundary terms, misses.
TERM_POOL = [int(t) for t in range(0, 140, 3)]


def _build_index(num_docs: int = 10, offset: int = 0) -> Rambo:
    """A small index over overlapping integer term ranges (deterministic)."""
    index = Rambo(CONFIG)
    index.add_documents(
        [
            KmerDocument(
                name=f"doc{i}",
                terms=np.arange(offset + i * 10, offset + i * 10 + 25, dtype=np.uint64),
            )
            for i in range(num_docs)
        ]
    )
    return index


def _reference(index: Rambo, terms, method: str = "full"):
    """Per-term reference answers straight from the batch engine."""
    return index.query_terms_batch(list(terms), method=method)


def _identical(served: QueryResult, expected: QueryResult) -> bool:
    """Bit-identity check: same doc ids, same probe accounting."""
    return (
        np.array_equal(served.doc_ids, expected.doc_ids)
        and served.filters_probed == expected.filters_probed
    )


@pytest.fixture()
def index() -> Rambo:
    return _build_index()


@pytest.fixture()
def service(index) -> QueryService:
    svc = QueryService(index, tick_seconds=0.001)
    yield svc
    svc.close()


def _result(*doc_ids: int) -> QueryResult:
    return QueryResult.from_ids(
        np.asarray(doc_ids, dtype=np.int64), [f"doc{i}" for i in range(10)]
    )


class TestAnswerCache:
    def test_roundtrip_and_counters(self):
        cache = AnswerCache(capacity=8)
        assert cache.get(1, "full", 7) is None
        cache.put(1, "full", 7, _result(0, 2))
        hit = cache.get(1, "full", 7)
        assert hit is not None and list(hit.doc_ids) == [0, 2]
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1 and stats["size"] == 1

    def test_method_and_snapshot_partition_the_keyspace(self):
        cache = AnswerCache(capacity=8)
        cache.put(1, "full", 7, _result(0))
        assert cache.get(1, "sparse", 7) is None
        assert cache.get(2, "full", 7) is None
        assert cache.get(1, "full", 7) is not None

    def test_capacity_bound_and_lru_eviction_order(self):
        cache = AnswerCache(capacity=3)
        for term in ("a", "b", "c"):
            cache.put(1, "full", term, _result(0))
        # Touch "a": it becomes most-recent, so "b" is now the LRU victim.
        assert cache.get(1, "full", "a") is not None
        cache.put(1, "full", "d", _result(1))
        assert len(cache) == 3
        assert cache.get(1, "full", "b") is None
        assert cache.get(1, "full", "a") is not None
        assert cache.get(1, "full", "c") is not None
        assert cache.get(1, "full", "d") is not None
        assert cache.stats()["evictions"] == 1

    def test_eviction_follows_use_order_not_insert_order(self):
        cache = AnswerCache(capacity=2)
        cache.put(1, "full", "x", _result(0))
        cache.put(1, "full", "y", _result(1))
        assert cache.get(1, "full", "x") is not None  # refresh x
        cache.put(1, "full", "z", _result(2))         # evicts y, not x
        assert cache.get(1, "full", "y") is None
        assert cache.get(1, "full", "x") is not None

    def test_invalidate_snapshot_is_selective(self):
        cache = AnswerCache(capacity=16)
        for term in range(4):
            cache.put(1, "full", term, _result(0))
            cache.put(2, "full", term, _result(1))
        assert cache.invalidate_snapshot(1) == 4
        assert len(cache) == 4
        assert cache.stats()["invalidations"] == 4
        assert cache.get(1, "full", 0) is None
        assert cache.get(2, "full", 0) is not None

    def test_zero_capacity_disables(self):
        cache = AnswerCache(capacity=0)
        cache.put(1, "full", 7, _result(0))
        assert len(cache) == 0 and cache.get(1, "full", 7) is None

    def test_lookup_splits_in_order(self):
        cache = AnswerCache(capacity=8)
        cache.put(1, "full", "b", _result(0))
        answers, missing = cache.lookup(1, "full", ["a", "b", "c"])
        assert list(answers) == ["b"] and missing == ["a", "c"]

    def test_lookup_can_leave_misses_to_a_later_lookup(self):
        cache = AnswerCache(capacity=8)
        cache.put(1, "full", "b", _result(0))
        answers, missing = cache.lookup(1, "full", ["a", "b"], count_misses=False)
        assert list(answers) == ["b"] and missing == ["a"]
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 0

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError, match="capacity"):
            AnswerCache(capacity=-1)


class TestSnapshotManager:
    def test_initial_state(self, index):
        manager = SnapshotManager(index)
        assert manager.active.snapshot_id == 1
        assert not manager.active.retired
        stats = manager.stats()
        assert stats["rotations"] == 0 and stats["draining"] == []

    def test_lease_counts(self, index):
        manager = SnapshotManager(index)
        with manager.lease() as snapshot:
            assert snapshot.leases == 1
            with manager.lease() as inner:
                assert inner is snapshot and snapshot.leases == 2
        assert manager.active.leases == 0

    def test_swap_retires_and_fires_callbacks(self, index):
        manager = SnapshotManager(index)
        retired, drained = [], []
        manager.on_retire(lambda s: retired.append(s.snapshot_id))
        manager.on_drained(lambda s: drained.append(s.snapshot_id))
        new = manager.swap(_build_index(offset=500))
        assert new.snapshot_id == 2 and manager.active is new
        # No lease was held, so the old snapshot drains immediately.
        assert retired == [1] and drained == [1]
        assert manager.stats()["rotations"] == 1
        assert manager.stats()["drained_total"] == 1

    def test_leased_snapshot_drains_only_after_release(self, index):
        manager = SnapshotManager(index)
        drained = []
        manager.on_drained(lambda s: drained.append(s.snapshot_id))
        lease = manager.lease()
        old = lease.__enter__()
        manager.swap(_build_index(offset=500))
        # Still leased: retired but alive, index intact for the in-flight query.
        assert old.retired and not old.drained and old.index is not None
        assert [s.snapshot_id for s in manager.retired_snapshots] == [1]
        lease.__exit__(None, None, None)
        assert old.drained and drained == [1] and old.index is None
        assert manager.retired_snapshots == []

    def test_rotate_from_bad_file_leaves_service_intact(self, index, tmp_path):
        manager = SnapshotManager(index)
        bad = tmp_path / "broken.rambo"
        bad.write_bytes(b"not an index")
        with pytest.raises(ValueError):
            manager.rotate_from(bad)
        assert manager.active.snapshot_id == 1

    def test_open_from_path(self, index, tmp_path):
        path = tmp_path / "served.rambo2"
        save_index(index, path)
        manager = SnapshotManager.open(path)
        assert manager.active.index.is_mapped
        assert manager.active.path == str(path)


class TestQueryService:
    @pytest.mark.parametrize("method", ["full", "sparse"])
    def test_served_answers_bit_identical(self, service, index, method):
        batch = service.query(TERM_POOL, method=method)
        expected = _reference(index, TERM_POOL, method=method)
        assert len(batch) == len(expected)
        assert all(_identical(got, want) for got, want in zip(batch, expected))
        assert batch.snapshot_id == 1

    def test_cache_hits_stay_identical(self, service, index):
        first = service.query(TERM_POOL)
        again = service.query(TERM_POOL)
        stats = service.cache.stats()
        assert stats["hits"] >= len(TERM_POOL)
        expected = _reference(index, TERM_POOL)
        assert all(_identical(got, want) for got, want in zip(again, expected))
        assert all(_identical(got, want) for got, want in zip(first, expected))

    def test_query_direct_matches_coalesced(self, service, index):
        direct = service.query_direct(TERM_POOL, method="sparse")
        expected = _reference(index, TERM_POOL, method="sparse")
        assert all(_identical(got, want) for got, want in zip(direct, expected))
        # The baseline path must not touch the cache.
        assert service.cache.stats()["size"] == 0

    def test_canonical_term_unifies_numpy_and_python_ints(self, service):
        assert canonical_term(np.uint64(42)) == 42
        assert type(canonical_term(np.uint64(42))) is int
        service.query([np.uint64(42)])
        service.query([42])
        assert service.cache.stats()["size"] == 1

    def test_concurrent_clients_each_get_their_own_answers(self, service, index):
        expected = {t: r for t, r in zip(TERM_POOL, _reference(index, TERM_POOL))}
        errors = []
        # Only cache misses reach the ticker, so make the one tick that
        # matters deterministic: every client's cold first request is
        # released together into a window wide enough to hold them all.
        service.coalescer.tick_seconds = 0.05
        start = threading.Barrier(8)

        def client(seed: int) -> None:
            rng = np.random.default_rng(seed)
            start.wait(timeout=30)
            for _ in range(15):
                terms = [TERM_POOL[i] for i in rng.integers(0, len(TERM_POOL), size=6)]
                batch = service.query(terms, timeout=30)
                if not all(
                    _identical(got, expected[t]) for t, got in zip(terms, batch)
                ):
                    errors.append(terms)

        threads = [threading.Thread(target=client, args=(s,)) for s in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        stats = service.stats()
        assert stats["service"]["requests"] == 8 * 15
        # Requests answered wholly from the cache never reached the ticker.
        assert (
            stats["coalescer"]["requests"]
            == 8 * 15 - stats["service"]["cache_only_requests"]
        )
        # Coalescing must actually deduplicate: fewer terms resolved than submitted.
        assert stats["coalescer"]["terms_resolved"] < stats["coalescer"]["terms_submitted"]

    def test_unknown_method_raises_in_caller(self, service):
        with pytest.raises(ValueError, match="unknown query method"):
            service.query([1], method="banana")

    def test_closed_service_rejects_queries(self, index):
        svc = QueryService(index, tick_seconds=0.0)
        svc.close()
        with pytest.raises(ServiceClosed):
            svc.query([1])
        svc.close()  # idempotent

    def test_all_cached_query_on_closed_service_raises(self, index):
        svc = QueryService(index, tick_seconds=0.0)
        svc.query(TERM_POOL[:4])
        svc.close()
        # Every term is cached, yet a closed service answers nothing.
        with pytest.raises(ServiceClosed):
            svc.query(TERM_POOL[:4])

    def test_fully_cached_request_never_reaches_the_ticker(self, service, index):
        service.query(TERM_POOL[:8])
        before = service.stats()
        batch = service.query(TERM_POOL[:8])
        after = service.stats()
        assert after["coalescer"] == before["coalescer"]  # no tick, no submit
        assert after["service"]["requests"] == before["service"]["requests"] + 1
        assert (
            after["service"]["cache_only_requests"]
            == before["service"]["cache_only_requests"] + 1
        )
        expected = _reference(index, TERM_POOL[:8])
        assert batch.snapshot_id == 1
        assert all(_identical(got, want) for got, want in zip(batch, expected))

    def test_cache_counters_advance_once_per_term(self, service, index):
        def counted():
            stats = service.cache.stats()
            return stats["hits"], stats["misses"]

        cold, warm = TERM_POOL[:6], TERM_POOL[6:10]
        service.query(cold)                      # all miss
        assert counted() == (0, 6)
        service.query(cold)                      # all hit
        assert counted() == (6, 6)
        mixed = service.query(cold[:3] + warm)   # 3 hits + 4 misses
        assert counted() == (9, 10)
        expected = _reference(index, cold[:3] + warm)
        assert all(_identical(got, want) for got, want in zip(mixed, expected))
        # Only the misses were handed to the coalescer.
        assert service.coalescer.stats()["terms_submitted"] == 6 + 4

    @staticmethod
    def _swap_on_first_submit(service, monkeypatch, new_index):
        """Make a swap land after the request's probe, before its tick."""
        submit = service.coalescer.submit
        submitted = []

        def swapping_submit(terms, method="full", timeout=None):
            if not submitted:
                service.swap(new_index)
            submitted.append(list(terms))
            return submit(terms, method, timeout=timeout)

        monkeypatch.setattr(service.coalescer, "submit", swapping_submit)
        return submitted

    def test_swap_between_probe_and_tick_reresolves_the_whole_request(
        self, service, monkeypatch
    ):
        """Cached answers of a snapshot retired mid-request are never
        stitched to fresh ones: one tick re-answers every term."""
        service.query(TERM_POOL[:4])  # cached under snapshot 1
        new_index = _build_index(offset=7)
        submitted = self._swap_on_first_submit(service, monkeypatch, new_index)
        batch = service.query(TERM_POOL[:8], timeout=30)
        assert submitted == [TERM_POOL[4:8], TERM_POOL[:8]]
        assert batch.snapshot_id == 2
        expected = _reference(new_index, TERM_POOL[:8])
        assert all(_identical(got, want) for got, want in zip(batch, expected))

    def test_swap_before_an_all_miss_tick_costs_no_second_tick(
        self, service, monkeypatch
    ):
        """With nothing taken from the cache there is nothing to stitch: the
        tick's answer stands, under the snapshot the tick names."""
        new_index = _build_index(offset=7)
        submitted = self._swap_on_first_submit(service, monkeypatch, new_index)
        terms = TERM_POOL[:4] + TERM_POOL[:2]  # duplicates map back too
        batch = service.query(terms, timeout=30)
        assert submitted == [TERM_POOL[:4]]
        assert batch.snapshot_id == 2
        expected = _reference(new_index, terms)
        assert all(_identical(got, want) for got, want in zip(batch, expected))

    def test_stats_shares_describe_index_schema(self, service, index):
        stats = service.stats()
        assert set(stats) == {
            "service", "snapshots", "cache", "coalescer", "index", "planner"
        }
        # perf/layers.py subtracts these records key by key: flat and numeric.
        for part in ("service", "cache", "coalescer"):
            assert all(
                isinstance(value, (int, float)) and not isinstance(value, bool)
                for value in stats[part].values()
            ), part
        assert {"hits", "misses", "evictions"} <= set(stats["cache"])
        assert {"requests", "ticks", "terms_submitted", "terms_resolved"} <= set(
            stats["coalescer"]
        )
        reference = describe_index(index, None, fill=False)
        assert stats["index"] == reference
        assert stats["snapshots"]["active"]["snapshot_id"] == 1

    def test_context_manager_closes(self, index):
        with QueryService(index, tick_seconds=0.0) as svc:
            svc.query([1])
        with pytest.raises(ServiceClosed):
            svc.query([1])


class TestRotation:
    def test_rotation_invalidates_old_cache_entries(self, service):
        service.query(TERM_POOL)
        assert service.cache.stats()["size"] > 0
        service.swap(_build_index(offset=500))
        assert service.cache.stats()["size"] == 0
        assert service.cache.stats()["invalidations"] > 0

    def test_answers_follow_the_new_snapshot(self, service):
        before = service.query(TERM_POOL)
        new_index = _build_index(offset=30)
        service.swap(new_index)
        after = service.query(TERM_POOL)
        assert before.snapshot_id == 1 and after.snapshot_id == 2
        expected = _reference(new_index, TERM_POOL)
        assert all(_identical(got, want) for got, want in zip(after, expected))

    def test_rotate_from_file(self, service, tmp_path):
        new_index = _build_index(num_docs=6, offset=200)
        path = tmp_path / "next.rambo2"
        save_index(new_index, path)
        snapshot = service.rotate(path)
        assert snapshot.snapshot_id == 2 and snapshot.path == str(path)
        batch = service.query(TERM_POOL[:10])
        expected = _reference(new_index, TERM_POOL[:10])
        assert all(_identical(got, want) for got, want in zip(batch, expected))

    def test_concurrent_rotation_never_mixes_snapshots(self):
        """Queries racing swap() match exactly one snapshot's answers in full.

        Eight clients hammer the service while the main thread rotates the
        snapshot mid-flight.  Every response must (a) arrive — zero drops —
        and (b) be bit-identical to the reference answers of the snapshot it
        claims to come from, which also proves no response mixes the two
        generations.
        """
        self._race_rotation(warm_terms=[], swaps=1)

    def test_concurrent_rotation_with_a_warm_cache_never_mixes_snapshots(self):
        """The same race when requests are part cache hit, part miss.

        Half the pool is cached before the clients start and the snapshot
        flips back and forth, so requests keep straddling a swap with
        answers probed on the caller's thread under one generation and
        misses resolved by a tick under the next.
        """
        self._race_rotation(warm_terms=TERM_POOL[::2], swaps=12)

    @staticmethod
    def _race_rotation(warm_terms, swaps: int) -> None:
        indexes = [_build_index(), _build_index(offset=7)]  # overlapping, different answers
        references = [
            {t: r for t, r in zip(TERM_POOL, _reference(index, TERM_POOL))}
            for index in indexes
        ]
        # The two generations must disagree somewhere or the test is vacuous.
        assert any(
            not _identical(references[0][t], references[1][t]) for t in TERM_POOL
        )

        service = QueryService(indexes[0], tick_seconds=0.0005)
        if warm_terms:
            service.query(warm_terms)
        requests_per_client, num_clients = 40, 8
        failures = []
        completed = [0] * num_clients
        answered_by = set()
        # The race runs free, but each client holds its last request until
        # the final swap has returned: answers from both sides of a swap are
        # then guaranteed by construction, not by how the threads were
        # scheduled (eight clients can starve the main thread past the end).
        swaps_done = threading.Event()

        def client(seed: int) -> None:
            rng = np.random.default_rng(seed)
            for request in range(requests_per_client):
                if request == requests_per_client - 1:
                    swaps_done.wait(timeout=60)
                terms = [TERM_POOL[i] for i in rng.integers(0, len(TERM_POOL), size=5)]
                batch = service.query(terms, timeout=30)
                # Snapshot ids count up from 1 and the two indexes alternate.
                reference = references[(batch.snapshot_id - 1) % 2]
                if not all(
                    _identical(got, reference[t]) for t, got in zip(terms, batch)
                ):
                    failures.append((batch.snapshot_id, terms))
                answered_by.add(batch.snapshot_id)
                completed[seed] += 1

        threads = [threading.Thread(target=client, args=(s,)) for s in range(num_clients)]
        deadline = time.monotonic() + 60
        try:
            for thread in threads:
                thread.start()
            # Swaps are paced by the clients' progress, not by the clock: a
            # cached request takes microseconds, and a timed swap would land
            # after the last of them.
            for swap in range(1, swaps + 1):
                due = swap * requests_per_client * num_clients // (swaps + 1)
                while sum(completed) < due and time.monotonic() < deadline:
                    time.sleep(0.0002)
                swapped = service.swap(indexes[swap % 2])
                assert swapped.snapshot_id == swap + 1
            swaps_done.set()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            swaps_done.set()
            service.close()
        assert failures == []
        # Zero dropped queries: every client completed every request.
        assert completed == [requests_per_client] * num_clients
        # The race was real: answers came from before and after a swap.
        assert len(answered_by) > 1
        # Every retired snapshot fully drained once the in-flight work finished.
        assert service.snapshots.retired_snapshots == []
        assert service.snapshots.stats()["drained_total"] == swaps


def _dna_index():
    """An index whose terms come from real sequences, for normalisation tests."""
    from repro.kmers.vectorized import extract_kmer_codes

    sequences = {
        "alpha": "ACGTACGTTTGACCA",
        "beta": "TTGACCATGGACGTA",
        "gamma": "CCCCGGGGAAAATTT",
    }
    index = Rambo(RamboConfig(num_partitions=4, repetitions=2, bfu_bits=1 << 12, k=7, seed=3))
    index.add_documents(
        [
            KmerDocument(name=name, terms=extract_kmer_codes(seq, k=7))
            for name, seq in sequences.items()
        ]
    )
    return index, sequences


class TestHTTPServer:
    @pytest.fixture()
    def running_server(self):
        index, sequences = _dna_index()
        service = QueryService(index, tick_seconds=0.001)
        server, thread = start_http_server(service)
        client = ServeClient(f"http://127.0.0.1:{server.server_address[1]}")
        yield client, index, sequences, service
        server.shutdown()
        service.close()

    def test_shutdown_does_not_wait_out_the_poll_interval(self):
        """``serve_forever`` polls every 0.5 s; shutdown wakes it instead."""
        with QueryService(_build_index(), tick_seconds=0.0) as service:
            for _ in range(5):
                started = time.monotonic()
                server, thread = start_http_server(service)
                server.shutdown()
                elapsed = time.monotonic() - started
                server.server_close()
                thread.join(timeout=5.0)
                assert not thread.is_alive()
                assert elapsed < 0.05

    def test_query_integer_terms_match_local_engine(self, running_server):
        client, index, _, _ = running_server
        codes = [int(c) for c in range(50, 60)]
        response = client.query(codes)
        expected = _reference(index, codes)
        assert [entry["documents"] for entry in response["results"]] == [
            sorted(want.documents) for want in expected
        ]
        assert [entry["filters_probed"] for entry in response["results"]] == [
            want.filters_probed for want in expected
        ]
        assert response["snapshot_id"] == 1

    def test_query_normalises_dna_strings_server_side(self, running_server):
        client, index, sequences, _ = running_server
        kmer = sequences["alpha"][:7]  # a 7-mer present in doc "alpha"
        documents = client.query_documents([kmer])[0]
        assert "alpha" in documents
        from repro.kmers.extraction import normalise_query_term

        expected = index.query_terms_batch([normalise_query_term(kmer, 7)])[0]
        assert documents == sorted(expected.documents)

    def test_direct_mode_matches_coalesced(self, running_server):
        client, index, _, _ = running_server
        codes = list(range(10, 20))
        coalesced = client.query(codes)
        direct = client.query(codes, coalesce=False)
        assert coalesced["results"] == direct["results"]

    def test_healthz_and_stats(self, running_server):
        client, index, _, service = running_server
        health = client.healthz()
        assert health["ok"] and health["documents"] == index.num_documents
        stats = client.stats()
        assert stats["index"]["documents"] == index.num_documents
        assert "fill_ratio" not in stats["index"]
        assert client.stats(fill=True)["index"]["fill_ratio"]["max"] <= 1.0
        assert "fill_ratio" not in client._request("/stats?nofill=10")["index"]
        # The HTTP stats record is the same schema the service reports.
        assert set(stats) == set(service.stats())

    def test_rotate_endpoint(self, running_server, tmp_path):
        client, _, _, _ = running_server
        replacement = _build_index(num_docs=4, offset=900)
        path = tmp_path / "rotated.rambo2"
        save_index(replacement, path)
        response = client.rotate(str(path))
        assert response["snapshot_id"] == 2
        assert response["documents"] == 4
        assert client.healthz()["snapshot_id"] == 2

    def test_error_surfaces(self, running_server, tmp_path):
        client, _, _, _ = running_server
        with pytest.raises(ServeClientError) as excinfo:
            client.query([])
        assert excinfo.value.status == 400
        with pytest.raises(ServeClientError) as excinfo:
            client.query([1], method="banana")
        assert excinfo.value.status == 400
        with pytest.raises(ServeClientError) as excinfo:
            client.rotate(str(tmp_path / "missing.rambo2"))
        assert excinfo.value.status == 400
        with pytest.raises(ServeClientError) as excinfo:
            client._request("/nope")
        assert excinfo.value.status == 404


class _NotReadyIngest:
    """The least an attached engine needs for ``/healthz`` to answer 503
    and for writes to be refused as on a standby."""

    role = "replica"

    def healthz(self):
        return {"role": "replica", "ready": False}

    def stats(self):
        return {}

    def close(self):
        pass


class TestTransport:
    """The wire contract of a persistent connection: ``TCP_NODELAY`` on the
    accepted socket and one send per response — two small segments meet
    Nagle and the client's delayed ACK, ~40 ms per round trip."""

    @pytest.fixture()
    def server_port(self):
        service = QueryService(_build_index(), tick_seconds=0.001)
        server, _thread = start_http_server(service)
        yield server.server_address[1], service
        server.shutdown()
        server.server_close()
        service.close()

    def test_accepted_socket_has_nodelay(self, server_port, monkeypatch):
        from repro.serve.http import ServeRequestHandler

        port, _ = server_port
        nodelay = []
        setup = ServeRequestHandler.setup

        def recording_setup(handler):
            setup(handler)
            nodelay.append(
                handler.connection.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
            )

        monkeypatch.setattr(ServeRequestHandler, "setup", recording_setup)
        assert ServeClient(f"http://127.0.0.1:{port}").healthz()["ok"] is True
        assert len(nodelay) == 1 and nodelay[0] != 0

    def test_each_json_response_is_exactly_one_send(self, server_port, monkeypatch):
        port, service = server_port
        sends = []

        def recording(name):
            real = getattr(socket.socket, name)

            def wrapper(sock, data, *args):
                # Handler threads only: the test's own client sends from here.
                if threading.current_thread() is not threading.main_thread():
                    sends.append(bytes(data))
                return real(sock, data, *args)

            return wrapper

        monkeypatch.setattr(socket.socket, "send", recording("send"))
        monkeypatch.setattr(socket.socket, "sendall", recording("sendall"))
        service.attach_ingest(_NotReadyIngest())  # /healthz answers 503
        exchanges = [
            ("POST", "/query", json.dumps({"terms": TERM_POOL[:8]}), 200),
            ("POST", "/query", json.dumps({"terms": []}), 400),
            ("GET", "/nope", None, 404),
            ("GET", "/healthz", None, 503),
        ]
        connection = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
        try:
            for number, (verb, path, body, status) in enumerate(exchanges, 1):
                connection.request(verb, path, body=body)
                response = connection.getresponse()
                payload = response.read()
                assert response.status == status
                assert len(sends) == number, sends
                assert sends[-1].startswith(b"HTTP/1.1 %d " % status)
                assert sends[-1].endswith(b"\r\n\r\n" + payload)
        finally:
            connection.close()

    def test_keepalive_round_trips_do_not_stall(self, server_port):
        """100 round trips on one connection; the two-segment stall put
        these 50 pairs at 2.2 s or more."""
        port, _ = server_port
        query = json.dumps({"terms": TERM_POOL[:8]})
        connection = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
        try:
            started = time.monotonic()
            for _ in range(50):
                connection.request("GET", "/healthz")
                assert json.loads(connection.getresponse().read())["ok"] is True
                connection.request("POST", "/query", body=query)
                assert len(json.loads(connection.getresponse().read())["results"]) == 8
            assert time.monotonic() - started < 1.0
        finally:
            connection.close()

    def test_expect_100_continue_is_answered_before_the_body_arrives(self, server_port):
        """curl announces a large body with ``Expect: 100-continue`` and holds
        it back (for 1 s) until the interim line comes, so that line must
        not wait in the response buffer."""
        port, _ = server_port
        body = json.dumps({"terms": TERM_POOL[:8]}).encode()
        with socket.create_connection(("127.0.0.1", port), timeout=5) as sock:
            sock.sendall(
                b"POST /query HTTP/1.1\r\nHost: t\r\nExpect: 100-continue\r\n"
                b"Content-Length: %d\r\n\r\n" % len(body)
            )
            assert sock.recv(1024) == b"HTTP/1.1 100 Continue\r\n\r\n"
            sock.sendall(body)
            response = http.client.HTTPResponse(sock, method="POST")
            response.begin()
            assert response.status == 200
            assert len(json.loads(response.read())["results"]) == 8

    @pytest.mark.parametrize(
        "path, standby, status, message",
        [
            ("/append", False, 400, "streaming ingest is not enabled"),
            ("/append", True, 503, "read-only replica"),
            ("/wal/ack", False, 400, "accepts no replication acks"),
            ("/wal/ack", True, 400, "accepts no replication acks"),
            ("/nope", False, 404, "unknown endpoint"),
            ("/compact", False, 400, "streaming ingest is not enabled"),
            ("/compact", True, 503, "read-only replica"),
            ("/promote", False, 400, "streaming ingest is not enabled"),
            ("/promote", True, 400, "streaming ingest is not enabled"),
        ],
    )
    def test_a_refused_write_leaves_the_connection_framed(
        self, server_port, path, standby, status, message
    ):
        """The refusal is decided before the body is parsed, so the body
        must be discarded: unread, the next request on the connection is
        parsed from the middle of it (the stdlib's HTML 400)."""
        port, service = server_port
        if standby:
            service.attach_ingest(_NotReadyIngest())
        body = json.dumps({"documents": [{"name": "d", "terms": list(range(4000))}]})
        connection = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
        try:
            connection.request("POST", path, body=body)
            sock = connection.sock
            response = connection.getresponse()
            payload = json.loads(response.read())
            assert response.status == status and message in payload["error"]
            assert response.getheader("Connection") != "close"
            connection.request("POST", "/query", body=json.dumps({"terms": TERM_POOL[:8]}))
            assert connection.sock is sock  # the same socket, not a reconnect
            response = connection.getresponse()
            assert response.status == 200
            assert len(json.loads(response.read())["results"]) == 8
        finally:
            connection.close()

    @pytest.mark.parametrize("path", ["/query", "/compact", "/promote"])
    @pytest.mark.parametrize("declared", ["1e3", "abc", "-5", "+5", "1_0", "2 ", "\xb2"])
    def test_unusable_content_length_is_a_400_and_a_closed_connection(
        self, server_port, path, declared
    ):
        port, _ = server_port

        def exchange(sock, request: bytes):
            sock.sendall(request)
            response = http.client.HTTPResponse(sock, method="POST")
            response.begin()
            return response, response.read()

        with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
            # A healthy exchange first: the bad header arrives mid-keep-alive.
            response, _ = exchange(sock, b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
            assert response.status == 200
            response, body = exchange(
                sock,
                b"POST %s HTTP/1.1\r\nHost: t\r\nContent-Length: %s\r\n\r\n{}"
                % (path.encode(), declared.encode("latin-1")),
            )
            assert response.status == 400
            assert response.getheader("Connection") == "close"
            assert "Content-Length" in json.loads(body)["error"]
            assert sock.recv(1) == b""  # the server hung up; nothing is left to mis-parse


class TestRequestPipeline:
    """Every route of ``ROUTES`` x every kind of node x every kind of body:
    an answer in {2xx, 4xx, 503} within the deadline, and afterwards a
    connection that is either announced closed and closed, or still framed
    — a valid query on the same socket answers bit-identically to local."""

    #: What a route needs beyond its path for the "valid" request; a route
    #: missing here is walked with no query string and ``{}`` / no body.
    QUERY = {
        ("GET", "/stats"): "?fill=1",
        ("GET", "/wal/stream"): "?generation=0&offset=0&wait_s=0",
    }
    VALID = {
        ("POST", "/query"): {"terms": TERM_POOL[:8], "method": "sparse"},
        ("POST", "/append"): {"documents": [{"name": "walked", "terms": [3, 4]}], "min_count": 2},
        ("POST", "/wal/ack"): {"peer": "p", "generation": 0, "records": 0},
    }
    BODIES = {
        "garbage": b"\xffx" * (100 << 10),
        "empty": b"",
        "array": b"[]",
        "string": b'"x"',
        "null": b"null",
    }

    @pytest.fixture(scope="class")
    def nodes(self, tmp_path_factory):
        """``{kind: (port, service, base path)}``: one live server per kind of node."""
        from repro.ingest.engine import IngestEngine

        running = {}
        for kind in ("primary", "standby", "static"):
            root = tmp_path_factory.mktemp(kind)
            save_index(_build_index(), root / "base.rambo2")
            service = QueryService.open(root / "base.rambo2", tick_seconds=0.001)
            if kind == "primary":
                service.attach_ingest(IngestEngine(service, root / "wal", fsync=False))
            elif kind == "standby":
                service.attach_ingest(_NotReadyIngest())
            server, _thread = start_http_server(service)
            running[kind] = server, service, str(root / "base.rambo2")
        yield {
            kind: (server.server_address[1], service, path)
            for kind, (server, service, path) in running.items()
        }
        for server, service, _ in running.values():
            server.shutdown()
            server.server_close()
            service.close()

    @staticmethod
    def exchange(port, service, request: bytes, verb: str = "POST"):
        """Send *request*, check the invariant, return ``(status, payload bytes)``."""
        with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
            sock.sendall(request)
            response = http.client.HTTPResponse(sock, method=verb)
            response.begin()  # a dropped or hung exchange raises here
            payload = response.read()
            status = response.status
            assert 200 <= status < 500 or status == 503, (status, payload[:200])
            if response.getheader("Connection") == "close":
                assert sock.recv(1) == b""  # announced and done: nothing left to mis-parse
                return status, payload
            terms = TERM_POOL[:8]
            body = json.dumps({"terms": terms}).encode()
            sock.sendall(
                b"POST /query HTTP/1.1\r\nHost: t\r\nContent-Length: %d\r\n\r\n" % len(body) + body
            )
            follow_up = http.client.HTTPResponse(sock, method="POST")
            follow_up.begin()
            answer = json.loads(follow_up.read())
            assert follow_up.status == 200, answer
            with service.snapshots.lease() as snapshot:
                assert answer["snapshot_id"] == snapshot.snapshot_id
                expected = _reference(snapshot.index, terms)
            served = [(entry["documents"], entry["filters_probed"]) for entry in answer["results"]]
            assert served == [(sorted(want.documents), want.filters_probed) for want in expected]
            return status, payload

    @staticmethod
    def request(verb: str, target: str, body) -> bytes:
        head = f"{verb} {target} HTTP/1.1\r\nHost: t\r\n"
        if body is not None:
            head += f"Content-Length: {len(body)}\r\n"
        return head.encode() + b"\r\n" + (body or b"")

    @pytest.mark.parametrize("kind", ["valid", *BODIES])
    @pytest.mark.parametrize("name", ["primary", "standby", "static"])
    @pytest.mark.parametrize("route", sorted(ROUTES), ids="{0[0]} {0[1]}".format)
    def test_every_route_answers_and_leaves_the_connection_usable(self, nodes, route, name, kind):
        port, service, base_path = nodes[name]
        verb, path = route
        if kind != "valid":
            body = self.BODIES[kind]
        elif ROUTES[route].body == "json":
            body = json.dumps(self.VALID.get(route, {"path": base_path})).encode()
        else:
            body = None
        status, payload = self.exchange(
            port, service, self.request(verb, path + self.QUERY.get(route, ""), body), verb
        )
        if kind == "valid" and name == "primary":
            assert status == 200, payload[:200]

    APPEND = b'{"documents":[{"name":"z","terms":[1]}],"min_count":%s}'

    @pytest.mark.parametrize(
        "verb, target, body, field",
        [
            ("POST", "/wal/ack", b'{"peer":"p","generation":1e999,"records":1}', "generation"),
            ("POST", "/wal/ack", b'{"peer":"p","generation":1,"records":-Infinity}', "records"),
            ("POST", "/wal/ack", b'{"peer":"p","generation":"1","records":1}', "generation"),
            ("POST", "/wal/ack", b'{"peer":"p","generation":1.5,"records":1}', "generation"),
            ("POST", "/wal/ack", b'{"peer":"p","generation":1,"records":-1}', "records"),
            ("POST", "/append", APPEND % b"Infinity", "min_count"),
            ("POST", "/append", APPEND % b"0", "min_count"),
            ("POST", "/append", APPEND % b"1.0", "min_count"),
            ("POST", "/append", APPEND % b"true", "min_count"),
            ("GET", "/wal/stream?generation=0&offset=0&wait_s=nan", None, "wait_s"),
            ("GET", "/wal/stream?generation=0&offset=0&wait_s=NaN", None, "wait_s"),
            ("GET", "/wal/stream?generation=0&offset=0&wait_s=inf", None, "wait_s"),
            ("GET", "/wal/stream?generation=0&offset=0&wait_s=1e999", None, "wait_s"),
            ("GET", "/wal/stream?generation=0&offset=0&wait_s=-1", None, "wait_s"),
            ("GET", "/wal/stream?generation=0&offset=0&wait_s=abc", None, "wait_s"),
            ("GET", "/wal/stream?generation=0&offset=-1&wait_s=0", None, "offset"),
            ("GET", "/wal/stream?generation=-1&offset=0&wait_s=0", None, "generation"),
            ("GET", "/wal/stream?generation=0&offset=0&wait_s=0&max_bytes=-1", None, "max_bytes"),
            ("GET", "/wal/stream?generation=0&offset=0&wait_s=0&max_bytes=1e3", None, "max_bytes"),
            ("POST", "/query", b'{"terms":[1],"method":[]}', "method"),
            ("POST", "/query", b'{"terms":[18446744073709551616]}', "terms"),
            ("POST", "/query", b'{"terms":[-1]}', "terms"),
            ("POST", "/query", b'{"terms":[1],"coalesce":"no"}', "coalesce"),
            ("POST", "/query", b"[" * 200_000, "malformed JSON"),
            ("POST", "/query", b"9" * 5000, "malformed JSON"),
            ("POST", "/rotate", b'{"path":["x"]}', "path"),
        ],
    )
    def test_a_hostile_value_is_a_400_naming_the_field(self, nodes, verb, target, body, field):
        port, service, _ = nodes["primary"]
        status, payload = self.exchange(port, service, self.request(verb, target, body), verb)
        assert status == 400 and field in json.loads(payload)["error"], payload[:200]

    def test_wait_for_records_ends_on_a_nan_timeout(self, nodes):
        """The log's own guard: no caller can make the wait spin forever."""
        _, service, _ = nodes["primary"]
        generation, committed = service.ingest.store.position()  # caught up: it must wait
        started = time.monotonic()
        log = service.ingest.replication
        assert log.wait_for_records(generation, committed, float("nan")) is False
        assert time.monotonic() - started < 1.0


class TestClientFaultPaths:
    """Mid-exchange transport failures surface as ``ServeClientError``.

    A server killed between accepting a request and finishing the
    response raises a raw socket error inside ``urllib`` — callers must
    still see the client's one error type (with ``status=None``, the
    fate-unknown marker the failover layer keys on), never a naked
    ``OSError``.
    """

    @pytest.fixture()
    def proxied_server(self):
        from faultinject import FaultyProxy

        service = QueryService(_build_index(), tick_seconds=0.0)
        server, _thread = start_http_server(service)
        proxy = FaultyProxy("127.0.0.1", server.server_address[1])
        client = ServeClient(proxy.url, timeout=2.0)
        yield client, proxy
        proxy.close()
        server.shutdown()
        service.close()

    def test_connection_reset_mid_response_is_a_serve_client_error(
        self, proxied_server
    ):
        from faultinject import Fault

        client, proxy = proxied_server
        assert client.healthz()["ok"] is True  # clean pass-through first
        for cut in (0, 30):  # before the status line / inside the headers
            proxy.schedule(Fault.reset_after(cut))
            with pytest.raises(ServeClientError) as excinfo:
                client.query([1, 2, 3])
            assert excinfo.value.status is None
        assert client.healthz()["ok"] is True  # the client object survives

    def test_stalled_response_times_out_as_a_serve_client_error(self, proxied_server):
        from faultinject import Fault

        client, proxy = proxied_server
        proxy.schedule(Fault.stall(30.0))
        started = time.monotonic()
        with pytest.raises(ServeClientError) as excinfo:
            client.stats()
        assert excinfo.value.status is None
        assert time.monotonic() - started < 10.0  # the timeout, not the stall

    def test_connection_refused_is_a_serve_client_error(self):
        client = ServeClient("http://127.0.0.1:9", timeout=1.0)  # discard port
        with pytest.raises(ServeClientError) as excinfo:
            client.healthz()
        assert excinfo.value.status is None
        assert "127.0.0.1:9" in str(excinfo.value)


class TestCLI:
    def test_info_json_matches_describe_index(self, index, tmp_path, capsys):
        from repro.cli import main
        from repro.core.serialization import open_index

        path = tmp_path / "cli.rambo2"
        save_index(index, path)
        assert main(["info", str(path), "--json"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record == describe_index(open_index(path), path)
        assert record["format"] == "mmap" and record["mapped"] is True

    def test_query_server_flag(self, tmp_path, capsys):
        from repro.cli import main

        index, sequences = _dna_index()
        service = QueryService(index, tick_seconds=0.001)
        server, _thread = start_http_server(service)
        url = f"http://127.0.0.1:{server.server_address[1]}"
        try:
            kmer = sequences["beta"][:7]
            assert main(["query", "--server", url, kmer]) == 0
            line = capsys.readouterr().out.strip()
            term, matches, probes = line.split("\t")
            assert term == kmer and "beta" in matches.split(",")
            assert int(probes) > 0
        finally:
            server.shutdown()
            service.close()

    def test_query_server_rejects_sequences(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit, match="--sequence is not supported"):
            main(["query", "--server", "http://127.0.0.1:1", "--sequence", "ACGT"])

    def test_query_without_index_or_server_fails(self):
        from repro.cli import main

        with pytest.raises(SystemExit, match="index file is required"):
            main(["query"])

    def test_serve_parser_validation(self, tmp_path):
        from repro.cli import main

        with pytest.raises(SystemExit, match="--tick-ms"):
            main(["serve", str(tmp_path / "x.rambo"), "--tick-ms", "-1"])
        with pytest.raises(SystemExit, match="--cache-size"):
            main(["serve", str(tmp_path / "x.rambo"), "--cache-size", "-1"])

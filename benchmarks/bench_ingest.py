"""Streaming ingest — durable append throughput and always-answerable compaction.

The ingest layer's two promises, gated (and identity-checked) here:

* **Durable append throughput**: documents/sec through the full
  WAL-fsync → delta-absorb → overlay-publish path, reported per batch
  size (the fsync is per batch, so batching is the latency/throughput
  dial).  For scale, the same appends with fsync disabled separate the
  storage-commit cost from the indexing cost.
* **Queries never stop** (always asserted): client threads hammer the
  service while the delta is compacted into a new snapshot generation.
  Every response — before, during and after the rotation — must be
  bit-identical to a from-scratch build of the documents acknowledged at
  that response's snapshot generation, and at least one query must have
  been answered *while* the compaction was in flight (else the bench
  proved nothing).

``REPRO_BENCH_SMOKE=1`` shrinks the corpus and skips nothing else: the
identity assertions are correctness properties and run unconditionally.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.core.rambo import Rambo, RamboConfig
from repro.core.serialization import save_index
from repro.ingest import IngestEngine
from repro.serve import QueryService
from repro.simulate.datasets import ENADatasetBuilder

from _bench_utils import BENCH_SMOKE, BENCH_K, print_table

if BENCH_SMOKE:
    BASE_DOCUMENTS = 8
    APPEND_DOCUMENTS = 12
    CONFIG = RamboConfig(num_partitions=4, repetitions=2, bfu_bits=1 << 14, k=BENCH_K, seed=29)
    BATCH_SIZES = (1, 4)
    QUERY_CLIENTS = 2
else:
    BASE_DOCUMENTS = 40
    APPEND_DOCUMENTS = 60
    CONFIG = RamboConfig(num_partitions=8, repetitions=3, bfu_bits=1 << 16, k=BENCH_K, seed=29)
    BATCH_SIZES = (1, 8, 32)
    QUERY_CLIENTS = 4

#: Probe terms per query request during the compaction storm.
TERMS_PER_REQUEST = 8


@pytest.fixture(scope="module")
def ingest_corpus():
    """Base documents (pre-built) plus a stream of documents to append."""
    builder = ENADatasetBuilder(k=BENCH_K, genome_length=800, seed=29)
    dataset = builder.build(BASE_DOCUMENTS + APPEND_DOCUMENTS, file_format="mccortex")
    documents = dataset.documents
    base_docs, append_docs = documents[:BASE_DOCUMENTS], documents[BASE_DOCUMENTS:]
    pool = sorted(
        {int(term) for doc in documents for term in list(doc.terms)[:8]}
    )[:96]
    return base_docs, append_docs, pool


def _serving_stack(tmp_path, base_docs, **engine_kwargs):
    base = Rambo(CONFIG)
    base.add_documents(list(base_docs))
    base_path = tmp_path / "base.rambo2"
    save_index(base, base_path)
    service = QueryService.open(base_path, tick_seconds=0.0)
    engine = IngestEngine(service, tmp_path / "wal", **engine_kwargs)
    service.attach_ingest(engine)
    return service, engine


@pytest.mark.benchmark(group="ingest-append")
def test_durable_append_throughput(ingest_corpus, tmp_path):
    """Docs/sec through WAL-fsync + delta + overlay publish, per batch size."""
    base_docs, append_docs, pool = ingest_corpus

    rows = {}
    for fsync in (True, False):
        for batch_size in BATCH_SIZES:
            stack_dir = tmp_path / f"fsync{int(fsync)}-b{batch_size}"
            stack_dir.mkdir()
            service, engine = _serving_stack(stack_dir, base_docs, fsync=fsync)
            try:
                started = time.perf_counter()
                for start in range(0, len(append_docs), batch_size):
                    engine.append(append_docs[start : start + batch_size])
                elapsed = time.perf_counter() - started
                assert engine.delta_documents == len(append_docs)
                # Identity after the full append stream (always asserted).
                reference = Rambo(CONFIG)
                reference.add_documents(list(base_docs) + list(append_docs))
                served = service.snapshots.active.index
                for method in ("full", "sparse"):
                    got = served.query_terms_batch(pool, method=method)
                    want = reference.query_terms_batch(pool, method=method)
                    for g, w in zip(got, want):
                        assert np.array_equal(g.doc_ids, w.doc_ids)
                        assert g.filters_probed == w.filters_probed
                label = f"batch={batch_size}" + ("" if fsync else " nofsync")
                rows[label] = {
                    "docs_per_s": len(append_docs) / max(elapsed, 1e-9),
                    "wall_s": elapsed,
                    "wal_mib": engine.stats()["wal"]["bytes"] / (1 << 20),
                }
            finally:
                service.close()
    print_table(
        f"durable append throughput ({len(append_docs)} documents onto "
        f"{len(base_docs)}-doc base)",
        rows,
    )


@pytest.mark.benchmark(group="ingest-compaction")
def test_queries_answerable_during_compaction(ingest_corpus, tmp_path):
    """Compaction must not stall or corrupt a single concurrent query.

    Per-generation references: each response is verified against a
    from-scratch build of exactly the documents acknowledged at the
    snapshot generation that served it, so the identity check is exact
    across the base→overlay→compacted transitions.
    """
    base_docs, append_docs, pool = ingest_corpus
    service, engine = _serving_stack(tmp_path, base_docs)

    # Acknowledged-document set per snapshot id.  Generation 1 is the base;
    # each append publishes a new snapshot whose set we record at the ack.
    references = {service.snapshots.active.snapshot_id: list(base_docs)}
    acked = list(base_docs)
    for start in range(0, len(append_docs), 8):
        batch = append_docs[start : start + 8]
        result = engine.append(batch)
        acked = acked + list(batch)
        references[result.snapshot_id] = acked

    stop = threading.Event()
    responses = []
    errors = []
    lock = threading.Lock()

    def client():
        rng = np.random.default_rng(threading.get_ident() % (1 << 32))
        local = []
        try:
            while not stop.is_set():
                terms = [pool[i] for i in rng.integers(0, len(pool), size=TERMS_PER_REQUEST)]
                started = time.perf_counter()
                batch = service.query_direct(terms, method="full")
                local.append((terms, batch, started, time.perf_counter()))
        except BaseException as exc:  # noqa: BLE001 - surfaced after join
            errors.append(exc)
        with lock:
            responses.extend(local)

    threads = [threading.Thread(target=client, name=f"ingest-client-{i}") for i in range(QUERY_CLIENTS)]
    for thread in threads:
        thread.start()
    time.sleep(0.05)  # let the storm establish itself on the overlay
    compact_started = time.perf_counter()
    record = engine.compact()
    compact_ended = time.perf_counter()
    time.sleep(0.05)  # collect post-compaction responses too
    stop.set()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    references[record["snapshot_id"]] = acked  # compacted == all acknowledged

    # Every response verifies against its own generation's reference build.
    reference_indexes = {}
    checked = during = 0
    for terms, batch, started, finished in responses:
        if batch.snapshot_id not in reference_indexes:
            reference = Rambo(CONFIG)
            reference.add_documents(references[batch.snapshot_id])
            reference_indexes[batch.snapshot_id] = reference
        want = reference_indexes[batch.snapshot_id].query_terms_batch(terms, method="full")
        for got, expected in zip(batch.results, want):
            assert np.array_equal(got.doc_ids, expected.doc_ids)
            assert got.filters_probed == expected.filters_probed
        checked += 1
        # In flight at some instant of the compaction window (interval
        # overlap), which a tight-looping client is guaranteed to produce.
        if started <= compact_ended and finished >= compact_started:
            during += 1
    assert checked > 0
    assert during >= 1, (
        "no query completed while the compaction was in flight; the "
        "liveness claim was not exercised"
    )
    stats = service.stats()
    assert stats["ingest"]["compaction"]["count"] == 1
    service.close()
    print_table(
        f"queries during compaction ({QUERY_CLIENTS} clients, "
        f"{len(append_docs)}-doc delta folded)",
        {
            "compaction": {
                "wall_s": record["wall_seconds"],
                "docs_folded": record["documents_folded"],
            },
            "queries": {
                "answered": checked,
                "during_compaction": during,
                "qps": checked / max(responses[-1][3] - responses[0][2], 1e-9),
            },
        },
    )

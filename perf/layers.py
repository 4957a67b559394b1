"""Per-layer metrics of the ``--trace 1`` run.

Each layer (a package of ``src/repro/``) is measured from outside: its
public functions are called on the *same inputs* the workload used, every
call recorded as a span, a replayed stage as a child of the call it is a
stage of.  A layer's self time is its span minus its children, so for
``query_*`` hashing + bloom + ``core.query.self_us_per_term`` sum to
``core.query.us_per_term`` by construction, and for the serve workloads
the replayed stages plus ``serve.http.unattributed_us`` sum to the
client's median request.

A workload reports only the layers on its path; every other declared
metric reads 0 — that layer did nothing in this workload.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Callable, Dict, List

import numpy as np

from repro import KmerDocument, Rambo, num_threads, open_index, save_index
from repro.bloom.bitarray import BitArray, probe_words_batch
from repro.hashing.murmur3 import double_hashes_batch
from repro.ingest import DeltaOverlayIndex, IngestEngine
from repro.io.walformat import SegmentedWalWriter, replay_wal_generation
from repro.kmers import extract_codes_from_reads
from repro.kmers.extraction import normalise_query_term
from repro.serve import QueryService
from repro.serve.client import ServeClient

from spans import Tracer
from workloads import REQUEST_TERMS, Samples, Sizes, Workload, build_index, recommended_config

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
REPEATS = 15
REPLAYED_REQUESTS = 300
APPENDED_DOCUMENTS = 30


def probe(tracer: Tracer, name: str, call: Callable[[], object], repeats: int = REPEATS,
          parent: int = 0) -> float:
    """Median wall microseconds of ``call()``, every call recorded as a span."""
    times = []
    for _ in range(repeats):
        with tracer.span(name, parent=parent):
            begin = time.perf_counter()
            call()
            times.append(time.perf_counter() - begin)
    return float(np.median(times)) * 1e6


def lines_of_code() -> Dict[str, float]:
    """Non-blank lines per package of ``src/repro`` (ROADMAP's tracked design metric)."""
    counts: Dict[str, float] = {"loc.total": 0.0}
    for path in SRC.rglob("*.py"):
        lines = sum(1 for line in path.read_text(encoding="utf-8").splitlines() if line.strip())
        package = path.relative_to(SRC).parts[0]
        counts["loc.total"] += lines
        if package.endswith(".py"):
            continue  # top-level modules count towards the total only
        counts[f"loc.{package}"] = counts.get(f"loc.{package}", 0.0) + lines
    return counts


# -- library workloads -------------------------------------------------------------------


def build_layers(workload: Workload, tracer: Tracer, samples: Samples, stats: Dict) -> Dict[str, float]:
    """``build_bulk``: the write side of kmers / hashing / bloom / core / io."""
    config = workload.config
    reads = [[read.tobytes() for read in doc] for doc in workload.reads]
    begin = time.perf_counter()
    with tracer.span("kmers.extract_codes_from_reads"):
        codes = [extract_codes_from_reads(doc, config.k, min_count=2) for doc in reads]
    extract_s = time.perf_counter() - begin
    documents = [KmerDocument(name, terms) for name, terms in zip(workload.doc_names, codes)]

    def add_documents() -> Rambo:
        index = Rambo(config)
        index.add_documents(documents)
        return index

    add_us = probe(tracer, "core.add_documents", add_documents, repeats=3)
    # Replay the two kernels add_documents spends its time in, per document.
    parent = tracer.spans[-1][0]
    hash_s = set_s = 0.0
    scratch = [BitArray(config.bfu_bits) for _ in range(config.repetitions)]
    for terms in codes:
        begin = time.perf_counter()
        with tracer.span("hashing.double_hashes_batch", parent=parent):
            positions = double_hashes_batch(terms, config.bfu_hashes, config.bfu_bits, config.seed)
        middle = time.perf_counter()
        with tracer.span("bloom.set_many", parent=parent):
            for bits in scratch:
                bits.set_many(positions.ravel())
        hash_s += middle - begin
        set_s += time.perf_counter() - middle
    total_terms = sum(len(terms) for terms in codes)
    index = add_documents()
    scratch_path = workload.workdir / "layers.rambo2"
    save_us = probe(tracer, "io.save_index", lambda: save_index(index, scratch_path, format="mmap"),
                    repeats=3)
    return {
        "kmers.extract_mbases_per_s": workload.reads.size / extract_s / 1e6,
        "hashing.batch_ns_per_term": hash_s / total_terms * 1e9,
        "bloom.set_many_ns_per_term": set_s / (total_terms * config.repetitions) * 1e9,
        "core.build.add_documents_s": add_us / 1e6,
        "core.build.self_share": 1.0 - (hash_s + set_s) / (add_us / 1e6),
        "io.save_mmap_mb_per_s": scratch_path.stat().st_size / save_us,
    }


def query_layers(workload: Workload, tracer: Tracer, samples: Samples, stats: Dict) -> Dict[str, float]:
    """``query_*``: the read side — where a term's microseconds go inside ``core``."""
    config, method = workload.config, workload.method
    out = {"io.open_mmap_ms": probe(tracer, "io.open_index", lambda: open_index(workload.index_path)) / 1e3}
    index = open_index(workload.index_path)
    batch = workload.pool_terms[: workload.sizes.batch]
    planes = [
        np.stack([index.bfu(r, b).bits.words for b in range(config.num_partitions)])
        for r in range(config.repetitions)
    ]

    def query(terms: List[int]):
        results = index.query_terms_batch(terms, method=method)
        for result in results:
            result.documents
        return results

    whole, hashing, bloom = [], [], []
    for _ in range(REPEATS):
        with tracer.span("core.query_terms_batch") as parent:
            t0 = time.perf_counter()
            results = query(batch)
            whole.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        with tracer.span("hashing.double_hashes_batch", parent=parent):
            positions = double_hashes_batch(batch, config.bfu_hashes, config.bfu_bits, config.seed)
        t1 = time.perf_counter()
        with tracer.span("bloom.probe_words_batch", parent=parent):
            for plane in planes:
                probe_words_batch(plane, positions)
        hashing.append(t1 - t0)
        bloom.append(time.perf_counter() - t1)
    per_term = 1e6 / len(batch)
    whole_us, hashing_us, bloom_us = (float(np.median(times)) * per_term for times in (whole, hashing, bloom))
    out.update({
        "core.query.us_per_term": whole_us,
        "core.query.self_us_per_term": whole_us - hashing_us - bloom_us,
        "hashing.batch_ns_per_term": hashing_us * 1e3,
        "bloom.probe_ns_per_term_rep": bloom_us * 1e3 / config.repetitions,
        "bloom.probe_words_per_term": float(config.bfu_hashes * config.num_partitions * config.repetitions),
        "core.query.probes_per_term": float(np.mean([r.filters_probed for r in results])),
        "core.query.docs_per_term": float(np.mean([len(r.documents) for r in results])),
        "core.query.fixed_us": probe(tracer, "core.query_terms_batch.1", lambda: query(batch[:1])),
        "core.query.batch8_us": probe(tracer, "core.query_terms_batch.8", lambda: query(batch[:REQUEST_TERMS])),
    })
    with num_threads(1):
        single_us = probe(tracer, "core.query_terms_batch.1thread", lambda: query(batch))
    out["core.executor.speedup_default_threads"] = single_us / (whole_us * len(batch))
    # The paper's claim: probes per term grow like sqrt(K) log K.  Slope of
    # log(probes) against log(K) over prefixes of the corpus.
    sizes, probes = [], []
    for docs in (workload.sizes.docs // 8, workload.sizes.docs // 4, workload.sizes.docs // 2):
        prefix = build_index(
            recommended_config(Sizes(docs, workload.sizes.genome, workload.sizes.pool)),
            workload.doc_names[:docs], workload.doc_terms[:docs],
        )
        sizes.append(docs)
        probes.append(np.mean([r.filters_probed for r in prefix.query_terms_batch(batch, method=method)]))
    sizes.append(workload.sizes.docs)
    probes.append(out["core.query.probes_per_term"])
    out["core.query.probe_exponent"] = float(np.polyfit(np.log(sizes), np.log(probes), 1)[0])
    return out


# -- service workloads -------------------------------------------------------------------


def normalise_us_per_term(workload: Workload, tracer: Tracer) -> float:
    terms = workload.pool_terms[:1024]
    k = workload.config.k
    return probe(tracer, "kmers.normalise_query_term",
                 lambda: [normalise_query_term(term, k) for term in terms]) / len(terms)


def client_tail(samples: Samples) -> Dict[str, float]:
    return {
        "client.op_p99_ms": float(np.percentile(samples.latencies, 99)) * 1e3,
        "client.op_max_ms": float(samples.latencies.max()) * 1e3,
    }


def healthz_us(workload: Workload, tracer: Tracer) -> Dict[str, float]:
    """Transport with no query work: the shipped client, then one kept connection."""
    import http.client

    server = workload.server
    client = ServeClient(server.url)
    connection = http.client.HTTPConnection(server.host, server.port, timeout=30.0)

    def keepalive() -> None:
        connection.request("GET", "/healthz")
        connection.getresponse().read()

    try:
        return {
            "serve.http.healthz_connect_us": probe(tracer, "serve.http.healthz_connect", client.healthz, 50),
            "serve.http.healthz_keepalive_us": probe(tracer, "serve.http.healthz_keepalive", keepalive, 50),
        }
    finally:
        connection.close()


def serve_layers(workload: Workload, tracer: Tracer, samples: Samples, stats: Dict) -> Dict[str, float]:
    """``serve_*``: a request's stages replayed in process, the rest unattributed."""
    out = healthz_us(workload, tracer)
    out["kmers.normalise_us_per_term"] = normalise_us_per_term(workload, tracer)
    requests = [workload.request_terms(0, i) for i in range(REPLAYED_REQUESTS)]
    bodies = [
        json.dumps({"terms": terms, "method": "full", "canonical": False, "coalesce": True}).encode()
        for terms in requests[:50]
    ]
    replies = [response for response in workload.responses[0][:50]]
    out["serve.http.decode_us"] = probe(tracer, "serve.http.decode", lambda: [json.loads(b) for b in bodies]) / len(bodies)
    out["serve.http.encode_us"] = probe(
        tracer, "serve.http.encode", lambda: [json.dumps(reply).encode() for reply in replies]
    ) / len(replies)
    pool = workload.pool_terms
    with QueryService.open(workload.index_path) as service:
        for start in range(0, min(4096, len(pool)), 1024):  # the same warm cache the server had
            service.query(pool[start : start + 1024])
        replayed = []
        for i, terms in enumerate(requests):
            with tracer.span("serve.service.query", request=i):
                begin = time.perf_counter()
                service.query(terms)
                replayed.append(time.perf_counter() - begin)
        out["serve.service.replay_us"] = float(np.median(replayed)) * 1e6
        out["serve.service.query_hit_us"] = probe(tracer, "serve.service.query.hit", lambda: service.query(requests[0]))
        # Never-requested tail of the pool, eight fresh terms per call.
        starts = iter(range(len(pool) - REQUEST_TERMS, 0, -REQUEST_TERMS))

        def fresh() -> List[int]:
            start = next(starts)
            return pool[start : start + REQUEST_TERMS]

        miss = probe(tracer, "serve.service.query.miss", lambda: service.query(fresh()))
        direct = probe(tracer, "serve.service.query_direct", lambda: service.query_direct(fresh()))
        out["serve.service.query_miss_us"] = miss
        out["serve.coalescer.wait_us"] = miss - direct
        out["plan.resolve_us"] = probe(tracer, "plan.resolve_backend",
                                       lambda: service.resolve_backend(requests[0], "auto"))
        index = service.snapshots.active.index
        out["core.query.fixed_us"] = probe(tracer, "core.query_terms_batch.1",
                                           lambda: index.query_terms_batch(requests[0][:1]))
        out["core.query.batch8_us"] = probe(tracer, "core.query_terms_batch.8",
                                            lambda: index.query_terms_batch(requests[0]))
    request_us = float(np.percentile(samples.latencies, 50)) * 1e6
    out["serve.http.unattributed_us"] = request_us - (
        out["serve.http.decode_us"] + REQUEST_TERMS * out["kmers.normalise_us_per_term"]
        + out["serve.service.replay_us"] + out["serve.http.encode_us"]
    )
    # Counters since set-up ended, so the cache-filling requests do not count.
    cache, coalescer = (
        {key: stats[part][key] - workload.stats_at_start[part][key] for key in stats[part]}
        for part in ("cache", "coalescer")
    )
    out.update({
        "serve.cache.hit_ratio": cache["hits"] / max(1, cache["hits"] + cache["misses"]),
        "serve.cache.evictions": float(cache["evictions"]),
        "serve.coalescer.requests_per_tick": coalescer["requests"] / max(1, coalescer["ticks"]),
        "serve.coalescer.terms_per_tick": coalescer["terms_resolved"] / max(1, coalescer["ticks"]),
        "serve.coalescer.dedup_share": 1.0 - coalescer["terms_resolved"] / max(1, coalescer["terms_submitted"]),
    })
    out.update(client_tail(samples))
    return out


def ingest_layers(workload: Workload, tracer: Tracer, samples: Samples, stats: Dict) -> Dict[str, float]:
    """``ingest_*``: an append's stages in process — log, delta, overlay — and the live counters."""
    config = workload.config
    out = {"kmers.normalise_us_per_term": normalise_us_per_term(workload, tracer)}
    # Documents the server never saw, so nothing here collides with its WAL.
    tail = range(workload.sizes.stream_docs - APPENDED_DOCUMENTS, workload.sizes.stream_docs)
    documents = [KmerDocument(workload.stream_names[i], workload.stream_terms[i]) for i in tail]
    term_bytes = 8 * sum(len(doc) for doc in documents)
    each = iter(documents)

    wal_dir = workload.workdir / "layers-wal"
    wal_dir.mkdir()
    with SegmentedWalWriter(wal_dir, config, 1) as writer:
        out["io.wal.append_fsync_ms"] = probe(
            tracer, "io.wal.append", lambda: writer.append([next(each)]), len(documents)) / 1e3
        out["io.wal.bytes_per_term_byte"] = writer.size_bytes / term_bytes
    begin = time.perf_counter()
    with tracer.span("io.wal.replay"):
        replayed = replay_wal_generation(wal_dir, 1, config)
    out["io.wal.replay_docs_per_s"] = replayed.records / (time.perf_counter() - begin)

    for name, fsync in (("ingest.append_inproc_ms", True), ("ingest.append_nofsync_ms", False)):
        each = iter(documents)
        with QueryService.open(workload.index_path) as service:
            engine = IngestEngine(service, workload.workdir / f"layers-engine-{int(fsync)}", fsync=fsync)
            service.attach_ingest(engine)
            out[name] = probe(tracer, name[:-3], lambda: engine.append([next(each)]), len(documents)) / 1e3

    base = open_index(workload.index_path)
    delta = Rambo(config)
    each = iter(documents)
    out["ingest.delta_absorb_ms"] = probe(
        tracer, "ingest.delta_absorb", lambda: delta.add_documents([next(each)]), len(documents)) / 1e3
    terms = workload.pool_terms[:REQUEST_TERMS]
    with QueryService.open(workload.index_path) as service:
        out["ingest.overlay_publish_ms"] = probe(
            tracer, "ingest.overlay_publish",
            lambda: service.swap(DeltaOverlayIndex(base, delta), workload.index_path)) / 1e3
    overlay = DeltaOverlayIndex(base, delta)
    out["core.query.batch8_us"] = probe(tracer, "core.query_terms_batch.8", lambda: base.query_terms_batch(terms))
    out["ingest.overlay_query_penalty"] = probe(
        tracer, "core.query_terms_batch.8.overlay", lambda: overlay.query_terms_batch(terms)
    ) / out["core.query.batch8_us"]

    ingest = stats["ingest"]
    wal, compaction = ingest["wal"], ingest["compaction"]
    out.update({
        "ingest.compactions": float(compaction["count"]),
        "ingest.compact_s": compaction["last_wall_seconds"],
        "ingest.compact.stall_ms": max(float(samples.latencies.max()) * 1e3, samples.extra["other_max_ms"]),
        "ingest.fsyncs_per_append": wal["syncs"] / max(1, wal["records_appended"]),
        "ingest.wal_bytes_per_doc": wal["bytes"] / max(1, wal["records_total"]),
    })
    out.update(client_tail(samples))
    return out


LAYERS = {"build": build_layers, "query": query_layers, "serve": serve_layers, "ingest": ingest_layers}


def collect(workload: Workload, tracer: Tracer, untraced: Samples, traced: Samples,
            stats: Dict, declared: List[str]) -> Dict[str, float]:
    """Every declared per-layer metric; 0 where the layer is not on this workload's path."""
    metrics = dict.fromkeys(declared, 0.0)
    metrics.update({name: value for name, value in lines_of_code().items() if name in metrics})
    metrics["trace.overhead_share"] = float(
        np.percentile(traced.latencies, 50) / np.percentile(untraced.latencies, 50) - 1.0
    )
    metrics.update(LAYERS[workload.family](workload, tracer, traced, stats))
    return metrics

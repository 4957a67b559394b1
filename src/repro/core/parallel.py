"""Shared-nothing parallel construction on a single machine.

This is Section 5.2's 40-thread build, without the cluster.

The paper builds each node's shard on 40 threads; the enabling property is
that RAMBO insertion is a pure function of (document, seeds), so any partition
of the document stream can be indexed independently and the partial indexes
combined afterwards by ORing BFU bits and concatenating the bookkeeping.

Two pieces live here:

* :func:`merge_indexes` — combine RAMBO indexes built with identical
  configuration over *disjoint* document sets into one index that is
  bit-for-bit identical to a sequential build (the merge primitive).
* :class:`ParallelBuilder` — chunk a document collection, build each chunk's
  partial index (concurrently for ``workers > 1``), and merge.  With
  ``workers=1`` this is a deterministic sequential fallback used by tests and
  by environments where any pool is undesirable.

Chunk builds run on the shared *thread* pool of :mod:`repro.core.executor`
rather than worker processes: every kernel a partial build bottoms out in
(the batched MurmurHash3 pass, the ``set_many`` word-OR scatter) releases
the GIL inside numpy, so threads deliver the concurrency without pickling a
single document — the overhead that made the earlier process-pool variant a
net loss on realistic chunk sizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Iterator, List, Optional, Sequence

import numpy as np

from repro.core.executor import parallel_map
from repro.core.rambo import Rambo, RamboConfig
from repro.kmers.extraction import KmerDocument


def merge_indexes(parts: Sequence[Rambo], out: Optional[Sequence[np.ndarray]] = None) -> Rambo:
    """Merge partial RAMBO indexes built over disjoint documents.

    All parts must share one :class:`RamboConfig` — B, R, BFU geometry and
    seed make the bits compatible, ``k`` makes ``query_sequence`` extract the
    k-mers the documents were indexed with — and no document name may appear
    in more than one part.  The result is equivalent to having inserted
    every document into a single index sequentially.

    *out*, when given, is ``R`` writable planes the merged bits overwrite
    instead of fresh ones; the result adopts them, so it is valid only
    while the caller leaves them alone.
    """
    if not parts:
        raise ValueError("cannot merge an empty list of indexes")
    config = parts[0].config
    for part in parts[1:]:
        if part.config != config:
            raise ValueError(
                f"indexes are not mergeable: {part.config} differs from {config}"
            )
    seen = set()
    for part in parts:
        for name in part.names:
            if name in seen:
                raise ValueError(f"document {name!r} appears in more than one partial index")
            seen.add(name)

    # BFU merge: one copy and then one raw OR per part and repetition,
    # straight on the (B, words) planes — no per-filter union loop.  The
    # accumulators become the merged index's planes.
    shape = (config.num_partitions, config.words_per_bfu)
    planes = []
    for r in range(config.repetitions):
        accumulator = np.empty(shape, dtype=np.uint64) if out is None else out[r]
        np.copyto(accumulator, parts[0].planes[r])
        for part in parts[1:]:
            np.bitwise_or(accumulator, part.planes[r], out=accumulator)
        planes.append(accumulator)

    # Document ids are re-assigned part by part, in order.
    return Rambo.from_planes(
        config,
        planes,
        [name for part in parts for name in part.names],
        [
            [cell for part in parts for cell in part.assignments[r]]
            for r in range(config.repetitions)
        ],
        items=sum(part.insert_counts for part in parts),
    )


def _build_partial(config: RamboConfig, documents: Sequence[KmerDocument]) -> Rambo:
    """Build one chunk's partial index (runs inside a worker when parallel)."""
    index = Rambo(config)
    index.add_documents(documents)
    return index


@dataclass
class ParallelBuilder:
    """Chunked (optionally multi-threaded) RAMBO construction.

    Parameters
    ----------
    config:
        The index configuration shared by every chunk (and by the result).
    workers:
        Number of concurrent chunk builds.  ``1`` (default) builds the
        chunks inline — deterministic and pool-free; ``> 1`` fans chunk
        builds out over the shared executor thread pool
        (:mod:`repro.core.executor`), overriding the global thread setting
        for this build.  Either way the result is bit-identical.
    chunk_size:
        Documents per chunk; defaults to an even split across workers.
    """

    config: RamboConfig
    workers: int = 1
    chunk_size: Optional[int] = None

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.chunk_size is not None and self.chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {self.chunk_size}")

    def _chunks(self, documents: Iterable[KmerDocument]) -> Iterator[List[KmerDocument]]:
        """Yield document batches without materialising the whole stream.

        With an explicit ``chunk_size`` the input is consumed lazily (only
        one chunk is resident at a time on the sequential path), which is
        what lets the CLI stream an arbitrarily large directory through the
        builder in bounded memory.  Without one, an even split across
        workers requires the total count, so the stream is materialised.
        """
        size = self.chunk_size
        if size is None:
            documents = list(documents)
            if not documents:
                return
            size = max(1, (len(documents) + self.workers - 1) // self.workers)
        iterator = iter(documents)
        while True:
            chunk = list(islice(iterator, size))
            if not chunk:
                return
            yield chunk

    def build(self, documents: Iterable[KmerDocument]) -> Rambo:
        """Build the full index over *documents*.

        Each chunk goes through the batched insert pipeline
        (:meth:`Rambo.add_documents`) and completed partials are folded into
        a single accumulator as they arrive (a left-fold of
        :func:`merge_indexes`, which is order-preserving and equivalent to
        one flat merge), so peak memory is one accumulator index plus a
        window of in-flight chunks — never ``num_chunks`` full indexes.  The
        result is independent of the chunking and of the worker count — a
        property the test suite asserts against a sequential build.
        """
        chunks = self._chunks(documents)
        if self.workers == 1:
            parts: Iterator[Rambo] = (_build_partial(self.config, chunk) for chunk in chunks)
        else:
            parts = self._iter_parts_parallel(chunks)
        merged: Optional[Rambo] = None
        for part in parts:
            merged = part if merged is None else merge_indexes((merged, part))
        return merged if merged is not None else Rambo(self.config)

    def _iter_parts_parallel(self, chunks: Iterator[List[KmerDocument]]) -> Iterator[Rambo]:
        """Yield chunk partials built concurrently in bounded windows.

        Chunks are consumed in windows of ``2 * workers`` and each window's
        partial indexes are built concurrently on the shared executor thread
        pool — the hash and scatter kernels inside a partial build release
        the GIL, so the window really does occupy ``workers`` cores.  At
        most one window of document batches plus its partials is resident
        at a time, and window results are yielded in submission order, so
        the rolling merge stays deterministic and bit-identical to the
        sequential path.
        """
        while True:
            window = list(islice(chunks, 2 * self.workers))
            if not window:
                return
            yield from parallel_map(
                lambda chunk: _build_partial(self.config, chunk),
                window,
                threads=self.workers,
            )

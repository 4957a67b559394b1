"""Shared-nothing parallel construction on a single machine.

This is Section 5.2's 40-thread build, without the cluster.

The paper builds each node's shard on 40 threads; the enabling property is
that RAMBO insertion is a pure function of (document, seeds), so any partition
of the document stream can be indexed independently and the partial indexes
combined afterwards by ORing BFU bits and concatenating the bookkeeping.

:func:`merge_indexes` combines RAMBO indexes built with identical
configuration over *disjoint* document sets into one index that is
bit-for-bit identical to a sequential build (the merge primitive).  The
threaded build itself is ``Rambo.add_documents(..., parallel=True)``, which
builds per-chunk partials on the shared thread pool of
:mod:`repro.core.executor` and absorbs them with the same algebra.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.core.rambo import Rambo


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

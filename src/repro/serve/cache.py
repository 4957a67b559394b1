"""Hot-term answer cache: a bounded, snapshot-aware LRU of query results.

The serving workload the paper describes is heavily skewed — a small set of
hot k-mers (conserved genes, common contaminants, popular queries) accounts
for most of the traffic — so re-probing the index for a term that was
answered milliseconds ago is pure waste.  This cache stores finished
:class:`~repro.core.base.QueryResult` objects keyed on
``(snapshot_id, method, term)``:

* ``snapshot_id`` makes rotation correctness structural rather than
  procedural: a lookup against the new snapshot can never return an answer
  computed on the old one, because the key differs.  Entries for a retired
  snapshot are bulk-dropped by :meth:`AnswerCache.invalidate_snapshot`.
* ``method`` is part of the key because RAMBO's full and sparse engines
  return identical documents but different probe accounting, and served
  answers must stay bit-identical — probe counts included — to a local
  ``query_terms_batch`` call with the same method.
* ``term`` is the canonical term (integer k-mer code or verbatim word), the
  exact hash input the engine sees.

Results are safe to share between clients without copying: ``QueryResult``
freezes its doc-id array and exposes read-only properties.

All operations are O(1) and thread-safe; the hit/miss/eviction/invalidation
counters feed the service's ``/stats`` endpoint.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, Hashable, List, Sequence, Tuple

from repro.core.base import QueryResult

#: Default number of cached answers; at ~100 bytes per small result this is
#: a few hundred kilobytes — negligible next to the mapped index payload.
DEFAULT_CACHE_SIZE = 4096

_Key = Tuple[int, str, Hashable]


class AnswerCache:
    """Thread-safe LRU cache of per-term query results.

    Parameters
    ----------
    capacity:
        Maximum number of entries; the least-recently-*used* entry (reads
        refresh recency, not just writes) is evicted first.  ``0`` disables
        caching entirely — every lookup misses and writes are dropped —
        which is how the benchmarks run their uncached baselines.
    """

    def __init__(self, capacity: int = DEFAULT_CACHE_SIZE) -> None:
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity}")
        self.capacity = capacity
        self._entries: "OrderedDict[_Key, QueryResult]" = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._invalidations = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, snapshot_id: int, method: str, term: Hashable):
        """The cached result for one term, or ``None``; refreshes recency."""
        with self._lock:
            result = self._entries.get((snapshot_id, method, term))
            if result is None:
                self._misses += 1
                return None
            self._entries.move_to_end((snapshot_id, method, term))
            self._hits += 1
            return result

    def lookup(
        self,
        snapshot_id: int,
        method: str,
        terms: Sequence[Hashable],
        count_misses: bool = True,
    ) -> Tuple[Dict[Hashable, QueryResult], List[Hashable]]:
        """Split *terms* into cached answers and the list still to compute.

        One lock acquisition for the whole batch — the shape both callers
        need: the service probes once per request and forwards only the
        misses to the coalescer, whose tick consults the cache again for
        the union, sends what is still missing to the batch engine, and
        stores the fresh answers with :meth:`put_many`.  The request probe
        passes ``count_misses=False``: its misses are looked up once more by
        the tick that computes them, and ``hits + misses`` must advance once
        per term, not twice.  Returns ``(answers, missing)`` with *missing*
        in input order.
        """
        answers: Dict[Hashable, QueryResult] = {}
        missing: List[Hashable] = []
        with self._lock:
            for term in terms:
                key = (snapshot_id, method, term)
                result = self._entries.get(key)
                if result is None:
                    self._misses += count_misses
                    missing.append(term)
                else:
                    self._entries.move_to_end(key)
                    self._hits += 1
                    answers[term] = result
        return answers, missing

    def put(self, snapshot_id: int, method: str, term: Hashable, result: QueryResult) -> None:
        """Store one answer, evicting the least-recently-used beyond capacity."""
        self.put_many(snapshot_id, method, ((term, result),))

    def put_many(
        self,
        snapshot_id: int,
        method: str,
        items: Sequence[Tuple[Hashable, QueryResult]],
    ) -> None:
        """Store a batch of answers under one lock acquisition."""
        if self.capacity == 0:
            return
        with self._lock:
            for term, result in items:
                self._entries[(snapshot_id, method, term)] = result
                self._entries.move_to_end((snapshot_id, method, term))
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self._evictions += 1

    def invalidate_snapshot(self, snapshot_id: int) -> int:
        """Drop every entry computed on *snapshot_id*; returns the count.

        Called by the service when a snapshot is retired.  Strictly a memory
        reclaim — stale hits are already impossible because lookups key on
        the *active* snapshot's id — but without it a long-lived server
        would keep one dead generation of hot answers pinned per rotation.
        """
        with self._lock:
            stale = [key for key in self._entries if key[0] == snapshot_id]
            for key in stale:
                del self._entries[key]
            self._invalidations += len(stale)
        return len(stale)

    def clear(self) -> None:
        """Drop every entry (counters are preserved)."""
        with self._lock:
            self._entries.clear()

    def stats(self) -> Dict[str, int]:
        """Counter snapshot: size/capacity plus hit/miss/evict/invalidate."""
        with self._lock:
            return {
                "size": len(self._entries),
                "capacity": self.capacity,
                "hits": self._hits,
                "misses": self._misses,
                "evictions": self._evictions,
                "invalidations": self._invalidations,
            }

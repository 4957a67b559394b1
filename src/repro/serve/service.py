"""The query service: snapshots + answer cache + coalescer behind one facade.

This is the in-process engine the HTTP front end wraps — and because it *is*
just an object, the benchmarks and tests drive the full serving stack
(coalescing, caching, rotation) without a socket in sight.

The composition contract, end to end:

1. A client calls :meth:`QueryService.query` with its terms.  Terms are
   canonicalised (numpy integers become plain ``int``) so cache keys are
   stable across callers.
2. The request probes the answer cache on the caller's own thread, under a
   brief snapshot lease.  A fully cached request is answered right there —
   no tick, no thread hand-off; otherwise only the misses go on.
3. The misses join the coalescer's current tick; one resolver call per
   query method answers the tick's deduplicated term union.
4. The resolver takes a **snapshot lease** for the whole tick, consults the
   answer cache under the leased snapshot's id, sends only the misses to
   ``query_terms_batch``, and stores the fresh answers back under the same
   id.  Every answer in the tick therefore describes one single snapshot —
   and if that is not the snapshot step 2 probed (a swap landed in
   between), the whole request is re-resolved through one tick rather
   than stitched from two generations.
5. :meth:`QueryService.rotate` / :meth:`QueryService.swap` atomically flip
   the active-snapshot pointer; the retire hook invalidates the retired
   snapshot's cache entries, and in-flight ticks drain against the old
   snapshot before it is dropped.

:meth:`QueryService.query_direct` bypasses the coalescer *and* the cache —
the per-request sequential serving baseline the serving benchmark gates
against (it still leases, so rotation safety is identical).
"""

from __future__ import annotations

import threading
import time
from pathlib import Path
from typing import Dict, Hashable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.base import QUERY_METHODS, QueryResult, check_query_method
from repro.core.rambo import Rambo
from repro.core.serialization import describe_index
from repro.serve.cache import DEFAULT_CACHE_SIZE, AnswerCache
from repro.serve.coalescer import (
    DEFAULT_TICK_SECONDS,
    RequestCoalescer,
    ServedBatch,
    ServiceClosed,
)
from repro.serve.snapshot import Snapshot, SnapshotManager

PathLike = Union[str, Path]

#: Terms sampled per request when ``backend="auto"`` estimates selectivity.
AUTO_SAMPLE_TERMS = 64


def canonical_term(term: Hashable) -> Hashable:
    """Cache-key form of a term: numpy integers collapse to plain ``int``.

    ``np.uint64(7)``, ``np.int64(7)`` and ``7`` must be one cache entry and
    one dedup slot — they hash identically but callers mix them freely
    (k-mer extraction yields numpy scalars, JSON yields ints).
    """
    if isinstance(term, np.integer):
        return int(term)
    return term


class QueryService:
    """A long-lived, rotation-safe, coalescing front end over one index.

    Parameters
    ----------
    index:
        The initially served :class:`Rambo` (in-memory or mmap-opened).
    path:
        Optional provenance of *index* for stats output.
    cache_size:
        Answer-cache capacity in entries (``0`` disables caching).
    tick_seconds:
        The coalescer's accumulation window.
    """

    def __init__(
        self,
        index: Rambo,
        path: Optional[PathLike] = None,
        *,
        cache_size: int = DEFAULT_CACHE_SIZE,
        tick_seconds: float = DEFAULT_TICK_SECONDS,
    ) -> None:
        self.snapshots = SnapshotManager(index, path)
        self.cache = AnswerCache(cache_size)
        self.snapshots.on_retire(
            lambda snapshot: self.cache.invalidate_snapshot(snapshot.snapshot_id)
        )
        self.coalescer = RequestCoalescer(self._resolve, tick_seconds=tick_seconds)
        self.ingest = None
        #: Metadata sidecar and calibrated cost model travelling with the
        #: served artifact; reloaded on every rotation and on a swap to a
        #: new path (see :meth:`_reload_artifacts`).
        self.metadata = None
        self.cost_model = None
        self._plan_counters: Dict[str, object] = {
            "plans": 0,
            "auto": 0,
            "filtered": 0,
            "by_method": {},
        }
        self._closed = False
        # Requests are counted here, not in the coalescer: one answered
        # wholly from the cache never reaches the ticker.
        self._counter_lock = threading.Lock()
        self._requests = 0
        self._cache_only_requests = 0
        if path is not None:
            self._reload_artifacts(path)

    @classmethod
    def open(cls, path: PathLike, mode: str = "r", **kwargs) -> "QueryService":
        """Serve the index file at *path* (v1 or mmap, auto-detected)."""
        from repro.core.serialization import open_index

        return cls(open_index(path, mode=mode), path, **kwargs)

    def _reload_artifacts(self, path: Optional[PathLike]) -> None:
        """Pick up the sidecar artifacts of the index at *path*.

        The metadata sidecar and the calibrated cost model are files next
        to the index artifact, so they rotate with it: a ``rotate``, or a
        ``swap`` to a new path, re-resolves both (and drops them when the
        new artifact has none — stale filters would be silently wrong).
        """
        from repro.meta import load_sidecar_for
        from repro.plan.cost import CostModel

        if path is None:
            self.metadata = None
            self.cost_model = None
            return
        self.metadata = load_sidecar_for(path)
        self.cost_model = CostModel.load_for(path)

    # -- the resolver (ticker thread only) ----------------------------------------------

    def _resolve(
        self, method: str, terms: List[Hashable]
    ) -> Tuple[int, Dict[Hashable, QueryResult]]:
        """Answer one tick's deduplicated terms against a single snapshot.

        The lease spans cache lookup *and* batch query, so the cache id and
        the probed index cannot belong to different generations even if a
        swap lands mid-tick.
        """
        with self.snapshots.lease() as snapshot:
            assert snapshot.index is not None
            answers, missing = self.cache.lookup(snapshot.snapshot_id, method, terms)
            if missing:
                fresh = snapshot.index.query_terms_batch(missing, method=method)
                self.cache.put_many(
                    snapshot.snapshot_id, method, list(zip(missing, fresh))
                )
                answers.update(zip(missing, fresh))
            return snapshot.snapshot_id, answers

    # -- client API ---------------------------------------------------------------------

    def query(
        self,
        terms: Sequence[Hashable],
        method: str = "full",
        timeout: Optional[float] = None,
    ) -> ServedBatch:
        """Coalesced, cached, per-term answers for *terms* (the serving path).

        Bit-identical — documents and probe counts — to calling
        ``query_terms_batch(terms, method=method)`` on the snapshot named by
        the returned batch's ``snapshot_id``.  A request whose terms are
        all cached returns without waiting; any other blocks for at most
        one tick plus the batch evaluation, and *timeout* bounds the wait.
        """
        check_query_method(method)
        if self._closed:
            raise ServiceClosed("query service is shut down")
        deadline = None if timeout is None else time.monotonic() + timeout
        terms = [canonical_term(term) for term in terms]
        with self.snapshots.lease() as snapshot:
            snapshot_id = snapshot.snapshot_id
            answers, missing = self.cache.lookup(
                snapshot_id, method, list(dict.fromkeys(terms)), count_misses=False
            )
        with self._counter_lock:
            self._requests += 1
            self._cache_only_requests += not missing
        if missing:
            batch = self.coalescer.submit(missing, method, timeout=timeout)
            if answers and batch.snapshot_id != snapshot_id:
                # A swap landed between the probe and the tick: the cached
                # answers describe a retired snapshot.  Never stitch two
                # generations together — one tick re-answers every term.
                if deadline is not None:
                    timeout = max(0.0, deadline - time.monotonic())
                return self.coalescer.submit(terms, method, timeout=timeout)
            snapshot_id = batch.snapshot_id
            answers.update(zip(missing, batch.results))
        return ServedBatch(snapshot_id, [answers[term] for term in terms])

    def query_direct(self, terms: Sequence[Hashable], method: str = "full") -> ServedBatch:
        """Uncoalesced, uncached per-request serving (the baseline path).

        One ``query_terms_batch`` call per request, no sharing between
        clients — what a naive server does.  Kept first-class because the
        serving benchmark gates the coalesced path's throughput against it,
        and because single-client offline tooling may prefer its zero-tick
        latency.  Rotation safety is unchanged: the request leases one
        snapshot for its whole evaluation.
        """
        check_query_method(method)
        with self.snapshots.lease() as snapshot:
            assert snapshot.index is not None
            results = snapshot.index.query_terms_batch(list(terms), method=method)
            return ServedBatch(snapshot.snapshot_id, results)

    # -- planned serving ----------------------------------------------------------------

    def resolve_backend(self, terms: Sequence[Hashable], backend: str = "auto") -> Dict:
        """Resolve a requested backend into a concrete coalescable method.

        ``"auto"`` prices ``full`` vs ``sparse`` for this batch with the
        artifact's calibrated cost model (falling back to the index's
        ``cost_hints`` priors) under a brief snapshot lease; an explicit
        method passes through unchanged.  Resolving *before* coalescer
        submission is what makes auto requests tick-coalescable: by the
        time a request joins a tick it names the same concrete method as
        explicit requests, so they share one resolver call.

        Returns the plan record served back in ``POST /query`` responses:
        ``{"requested", "method", ...}`` plus estimates for auto plans.
        """
        if backend in QUERY_METHODS:
            return {"requested": backend, "method": backend}
        if backend != "auto":
            raise ValueError(
                f"unknown backend {backend!r} (expected 'auto' or one of "
                f"{', '.join(QUERY_METHODS)})"
            )
        from repro.plan.planner import choose_method

        with self.snapshots.lease() as snapshot:
            assert snapshot.index is not None
            sample = list(terms[:AUTO_SAMPLE_TERMS])
            estimates = snapshot.index.estimate_selectivities(sample)
            selectivity = float(np.mean(estimates)) if len(estimates) else 0.0
            method, costs = choose_method(
                snapshot.index, len(terms), selectivity, self.cost_model
            )
        return {
            "requested": "auto",
            "method": method,
            "estimated_selectivity": round(selectivity, 6),
            "estimates": {name: round(cost, 9) for name, cost in sorted(costs.items())},
        }

    def query_planned(
        self,
        terms: Sequence[Hashable],
        backend: str = "auto",
        filters: Optional[Dict] = None,
        *,
        coalesce: bool = True,
        timeout: Optional[float] = None,
    ) -> Tuple[ServedBatch, Dict]:
        """The planned serving path: resolve, coalesce, post-filter.

        Returns ``(batch, plan)``.  Filters are applied *after* the
        coalescer at this request's edge, so the answer cache keeps storing
        unfiltered per-term results that every client shares regardless of
        its filters; the filtered batch is bit-identical to filtering the
        unfiltered results locally (the HTTP round-trip identity the smoke
        job asserts).  Raises :class:`ValueError` when filters are given
        but the served artifact has no metadata sidecar.
        """
        terms = list(terms)
        plan = self.resolve_backend(terms, backend)
        if filters:
            if self.metadata is None:
                raise ValueError(
                    "cannot filter: the served index has no metadata sidecar "
                    "(was it built with --metadata?)"
                )
            # Validate eagerly so a malformed filter is a 400 before any probing.
            self.metadata.normalise_filters(filters)
        if coalesce:
            batch = self.query(terms, method=plan["method"], timeout=timeout)
        else:
            batch = self.query_direct(terms, method=plan["method"])
        if filters:
            batch = ServedBatch(
                batch.snapshot_id, self.metadata.apply_batch(batch.results, filters)
            )
            plan["filtered"] = True
        self._count_plan(plan)
        return batch, plan

    def _count_plan(self, plan: Dict) -> None:
        counters = self._plan_counters
        counters["plans"] += 1
        if plan["requested"] == "auto":
            counters["auto"] += 1
        if plan.get("filtered"):
            counters["filtered"] += 1
        by_method = counters["by_method"]
        by_method[plan["method"]] = by_method.get(plan["method"], 0) + 1

    # -- rotation -----------------------------------------------------------------------

    def swap(self, index: Rambo, path: Optional[PathLike] = None) -> Snapshot:
        """Atomically serve *index* from now on (see :meth:`SnapshotManager.swap`).

        The sidecar artifacts are re-resolved only when *path* differs from
        the retiring snapshot's: an ingest publish re-serves the same base
        file per append and must not probe the filesystem each time.  To
        pick up artifacts rewritten in place, :meth:`rotate` to the path.
        """
        previous = self.snapshots.active.path
        snapshot = self.snapshots.swap(index, path)
        if snapshot.path != previous:
            self._reload_artifacts(path)
        return snapshot

    def rotate(self, path: PathLike, mode: str = "r") -> Snapshot:
        """Open the index file at *path* and swap it in atomically; its
        sidecar artifacts are always reloaded."""
        snapshot = self.snapshots.rotate_from(path, mode=mode)
        self._reload_artifacts(path)
        return snapshot

    # -- streaming ingest ---------------------------------------------------------------

    def attach_ingest(self, engine) -> None:
        """Adopt an :class:`~repro.ingest.engine.IngestEngine` for this service.

        Duck-typed (anything with ``stats()``/``close()``): the primary's
        engine, a standby's, and the engine a promotion flips to all attach
        here.  The engine drives this service's snapshot pointer; attaching
        it makes its counters part of :meth:`stats` and ties its shutdown
        to :meth:`close`.
        """
        self.ingest = engine

    # -- observability / lifecycle ------------------------------------------------------

    def stats(self, fill: bool = False) -> Dict:
        """JSON-ready service state: requests, snapshots, cache, coalescer, index.

        ``service.requests`` counts every :meth:`query` call and
        ``service.cache_only_requests`` those answered without a tick;
        ``coalescer.requests`` counts only what reached the ticker.

        The index description comes from the same
        :func:`repro.core.serialization.describe_index` code path as
        ``repro-rambo info --json``, so on-disk tooling and the live
        ``/stats`` endpoint report identical schemas.  ``fill`` forwards to
        ``describe_index`` (fill statistics scan the whole payload, so they
        default off for a serving endpoint).
        """
        with self.snapshots.lease() as snapshot:
            assert snapshot.index is not None
            index_record = describe_index(snapshot.index, snapshot.path, fill=fill)
        counters = self._plan_counters
        with self._counter_lock:
            service_record = {
                "requests": self._requests,
                "cache_only_requests": self._cache_only_requests,
            }
        record = {
            "service": service_record,
            "snapshots": self.snapshots.stats(),
            "cache": self.cache.stats(),
            "coalescer": self.coalescer.stats(),
            "index": index_record,
            "planner": {
                "plans": counters["plans"],
                "auto": counters["auto"],
                "filtered": counters["filtered"],
                "by_method": dict(counters["by_method"]),
                "metadata_documents": len(self.metadata) if self.metadata else 0,
                "cost_model": self.cost_model.to_dict() if self.cost_model else None,
            },
        }
        if self.ingest is not None:
            record["ingest"] = self.ingest.stats()
        return record

    def close(self) -> None:
        """Shut the ingest engine and coalescer down; later queries raise ``ServiceClosed``."""
        if not self._closed:
            self._closed = True
            if self.ingest is not None:
                self.ingest.close()
            self.coalescer.close()

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

"""The delta overlay: base snapshot OR live delta, exactly — and its owner.

:class:`DeltaOverlayIndex` is the immutable query view; :class:`LiveDelta`
owns the writable delta behind it and publishes one overlay per
acknowledged batch at a cost that follows the batch.

The obvious way to overlay a delta — query base and delta separately and OR
the per-term document bitmaps — is **wrong** for RAMBO: a combined BFU can
report a term via *mixed* bits (probe position ``p1`` set by a base
document, ``p2`` by a delta document), a false positive neither component
index reports alone, and the sparse path's probe accounting would diverge
long before that.  The only construction that is bit-identical to a
from-scratch build is to OR at the **bit-plane level**: a term hits BFU
``(r, b)`` of the combined index iff every probe position is set in
``base_words[r, b] | delta_words[r, b]``.

This module gets that without materialising the OR: the batch probe kernel
(:func:`repro.bloom.bitarray.probe_words_batch`) accepts a *pair* of planes
per repetition and ORs the gathered bytes per probe — one extra gather+OR
per term per repetition against the (small, hot) delta plane, while the
base plane keeps gathering zero-copy from the mmap page cache.  Because
Bloom insertion is a pure OR-scatter and partition assignment depends only
on (name, family, config), the overlay with concatenated bookkeeping is
*definitionally* the index a from-scratch build of base-then-delta
documents produces — same documents, same probe counts, every query method.
The Hypothesis harness in ``tests/test_ingest.py`` asserts this after every
generated interleaving — for the served index and for every snapshot a
reader still leases — rather than trusting the argument.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from repro.bloom.bitarray import popcount_words
from repro.core.parallel import merge_indexes
from repro.core.rambo import Rambo, RamboConfig
from repro.kmers.extraction import KmerDocument


class DeltaOverlayIndex(Rambo):
    """An immutable, servable view of ``base ∪ delta`` (disjoint documents).

    Parameters
    ----------
    base:
        The established snapshot — typically mmap-opened, but any
        :class:`Rambo` works.  Not copied; its bit planes are referenced
        (zero-copy for a mapped base).
    delta:
        The index holding the documents appended since.  Its names,
        assignments and bit planes are copied *at construction*, so the
        overlay is a true snapshot: later appends to the delta are
        invisible until a new overlay is published.
    delta_planes:
        Frozen per-repetition planes to probe instead of copying
        *delta*'s — the :class:`LiveDelta` hand-off.  The caller promises
        they hold exactly *delta*'s current bits and do not change while
        the overlay can be read; the engines keep that promise through the
        snapshot lease (see :class:`LiveDelta`).

    The overlay rejects every mutation (:meth:`add_documents`, ``fold``)
    and being saved with a clean error — writes go through the
    :class:`~repro.ingest.engine.IngestEngine`, which publishes a fresh
    overlay per acknowledged batch.
    """

    def __init__(
        self,
        base: Rambo,
        delta: Rambo,
        delta_planes: Optional[Sequence[np.ndarray]] = None,
    ) -> None:
        if base.config != delta.config:
            raise ValueError(
                f"overlay parts disagree on config: base {base.config} "
                f"vs delta {delta.config}"
            )
        duplicates = [name for name in delta.names if name in base]
        if duplicates:
            raise ValueError(
                f"delta re-indexes base documents: {duplicates[:3]!r}..."
                if len(duplicates) > 3
                else f"delta re-indexes base documents: {duplicates!r}"
            )
        if delta_planes is None:
            delta_planes = [plane.copy() for plane in delta.planes]
        # Nothing of *delta* is kept: LiveDelta.reset() rewrites its planes.
        self._base = base
        # Each plane is a (base_plane, delta_plane) pair: probe_words_batch
        # ORs the gathered bytes of the two, which equals probing the
        # OR-merged plane — the from-scratch index's bits.  What an append
        # pays for per publish is the list concatenations below.
        self._adopt(
            base.config,
            list(zip(base.planes, delta_planes)),
            base.names + delta.names,
            [
                base_row + delta_row
                for base_row, delta_row in zip(base.assignments, delta.assignments)
            ],
            base._family,  # noqa: SLF001
            base.insert_counts + delta.insert_counts,
        )

    # -- immutability ------------------------------------------------------------------

    @property
    def readonly(self) -> bool:
        """Overlays are always read-only views (appends publish a new one)."""
        return True

    def _require_writable(self) -> None:
        raise ValueError(
            "the delta overlay is an immutable query view; append through "
            "the IngestEngine (which publishes a fresh overlay) instead"
        )

    def fold(self) -> "Rambo":
        raise ValueError(
            "cannot fold a delta overlay; compact it into a snapshot first"
        )

    def bfu(self, repetition: int, partition: int):
        raise ValueError(
            "a delta overlay holds no materialised BFUs; query it, or "
            "compact base+delta into a snapshot"
        )

    # -- accounting (delegates to the two parts) ---------------------------------------

    @property
    def base(self) -> Rambo:
        """The established snapshot under this view."""
        return self._base

    @property
    def num_delta_documents(self) -> int:
        """Documents served from the delta plane (not yet compacted)."""
        return self.num_documents - self._base.num_documents

    def size_components(self) -> Dict[str, int]:
        components = super().size_components()
        components["bfus"] *= 2  # a base and a delta plane per repetition
        return components

    def fill_ratios(self) -> List[List[float]]:
        """Fill of the *effective* (ORed) planes — what queries actually probe."""
        bits = self.config.bfu_bits
        return [
            [popcount_words(row) / bits for row in np.bitwise_or(base_plane, delta_plane)]
            for base_plane, delta_plane in self.planes
        ]

    def __repr__(self) -> str:
        return (
            f"DeltaOverlayIndex(B={self.num_partitions}, R={self.repetitions}, "
            f"base_documents={self._base.num_documents}, "
            f"delta_documents={self.num_delta_documents})"
        )


@dataclass(eq=False)
class _FrozenPlanes:
    """One frozen copy of the delta planes and how far it has caught up."""

    planes: List[np.ndarray]
    #: Delta documents whose bits these planes hold (a prefix of the delta).
    documents: int = 0
    #: Set by :meth:`LiveDelta.reset`: the planes hold an older delta's
    #: bits, no prefix of the live one, and catch up with a whole copy.
    stale: bool = False
    #: The snapshot whose overlay probes these planes; None while unknown.
    snapshot: Optional[object] = None

    @property
    def drained(self) -> bool:
        return self.snapshot is not None and self.snapshot.drained


class LiveDelta:
    """The live delta of an ingesting node — the one owner both engines drive.

    Holds the documents appended since the serving base was cut, as an
    ordinary writable :class:`Rambo`, and publishes them.  The
    publish dataflow, whose cost follows the batch and not the index::

        live planes --rows the batch touched--> drained frozen set
                    --> DeltaOverlayIndex(base, delta, frozen) --> service.swap

    Served overlays never probe the live planes: an insert would change
    bits under a reader that leased an earlier acknowledged prefix (and,
    under group commit, show bits not yet fsynced).  They probe a *frozen
    plane set* from a small pool instead.  A set remembers how many delta
    documents it reflects, so the delta's own assignment lists are its
    dirty log: catching up copies rows ``(r, assignment_r[d])`` of the
    documents ``d`` it has not seen — ``R`` rows per document.

    **The lease invariant.**  A set is written again only once the
    :class:`~repro.serve.snapshot.Snapshot` that published it has
    ``drained``.  That is safe because every reader of a served index's
    planes holds a :meth:`~repro.serve.snapshot.SnapshotManager.lease` for
    as long as it reads (the service's resolver, ``query``,
    ``query_direct``, ``resolve_backend`` and ``stats`` all do), no lease
    can be taken on a retired snapshot, and a drained snapshot drops its
    index.  Code that keeps a served overlay *without* a lease may see its
    delta bits advance after later appends.

    **Buffers that outlive a generation.**  The live planes, the frozen
    sets and the merge accumulator are rewritten in place, so a warm
    compaction cycle allocates no array the size of the index:
    :meth:`reset` zeroes the live planes and marks every set ``stale`` (a
    stale set catches up with a whole-plane copy into its own buffer), and
    :meth:`_freeze` keeps a drained spare while the pool holds fewer than
    the two sets alternating publishes need.  Only when no set has drained
    — a cold start, or a reader holding an older lease — does a publish
    copy into a new set (counted in ``full_copies``).

    Not thread-safe: the owning engine calls every method under its ingest
    lock, in WAL fsync -> :meth:`absorb` -> :meth:`publish` order.
    """

    def __init__(self, config: RamboConfig) -> None:
        self._index = Rambo(config)
        self._frozen: List[_FrozenPlanes] = []
        self._accumulator: Optional[List[np.ndarray]] = None
        #: Publishes that found no drained set and copied into a new one.
        self.full_copies = 0

    def reset(self) -> None:
        """Start over with an empty delta, in the same buffers.

        Called once the delta has been folded into a new base (compaction)
        or its base replaced (standby re-sync).  The frozen sets stay in
        the pool, stale; those still leased keep their bits until they
        drain.
        """
        live = self._index
        for array in (*live.planes, live.insert_counts):
            array.fill(0)
        self._index = Rambo.from_planes(
            live.config, live.planes, [], [[] for _ in live.planes], items=live.insert_counts
        )
        for frozen in self._frozen:
            frozen.stale = True

    # -- state -------------------------------------------------------------------------

    @property
    def num_documents(self) -> int:
        """Documents absorbed since the last :meth:`reset`."""
        return self._index.num_documents

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def stats(self) -> Dict[str, int]:
        """The ``delta`` block of ``/stats``: ``size_bytes`` is the live
        index, ``buffer_bytes`` every plane owned here (live, frozen pool,
        merge accumulator) — constant across warm compactions."""
        planes = list(self._index.planes) + list(self._accumulator or [])
        planes += [plane for frozen in self._frozen for plane in frozen.planes]
        return {
            "documents": self.num_documents,
            "size_bytes": self._index.size_in_bytes(),
            "frozen_sets": len(self._frozen),
            "full_copies": self.full_copies,
            "buffer_bytes": sum(plane.nbytes for plane in planes),
        }

    # -- the write path ----------------------------------------------------------------

    def absorb(self, documents: Iterable[KmerDocument]) -> None:
        """Insert an acknowledged (or group-buffered) batch into the live planes.

        Strict: a name already in the delta raises, as in
        :meth:`Rambo.add_documents` — the engine validated the batch before
        it wrote the WAL.
        """
        self._index.add_documents(documents)

    def absorb_fresh(self, documents: Iterable[KmerDocument], base: Rambo) -> int:
        """Replay *documents*, skipping those already held; returns how many were new.

        The WAL-replay form of :meth:`absorb`: a document already in *base*
        (compaction raced a crash), already in the delta, or named earlier
        in the same batch (a client retried an unacknowledged append) is a
        no-op, so replay is idempotent and duplicate data never fails a
        recovery or a standby's apply.
        """
        fresh: List[KmerDocument] = []
        names = set()
        for doc in documents:
            if doc.name in base or doc.name in self._index or doc.name in names:
                continue
            names.add(doc.name)
            fresh.append(doc)
        self._index.add_documents(fresh)
        return len(fresh)

    def merged_with(self, base: Rambo) -> Rambo:
        """``base`` with the delta folded in (compaction's new generation).

        The result adopts this delta's merge accumulator, which the next
        call overwrites: it is valid only until the next compaction, so
        ``IngestEngine.compact()``, which saves it at once, is the only caller.
        """
        if self._accumulator is None:
            self._accumulator = [np.empty_like(plane) for plane in self._index.planes]
        return merge_indexes((base, self._index), out=self._accumulator)

    def publish(self, service, base: Rambo, base_path):
        """Serve ``base`` + everything absorbed from now on.

        Returns the new :class:`~repro.serve.snapshot.Snapshot`.  An empty
        delta serves the bare base.  Otherwise a frozen set is brought up to
        date (:meth:`_freeze`) and swapped in under a fresh overlay; queries
        in flight drain on the snapshot they leased.
        """
        if not self.num_documents:
            return service.swap(base, base_path)
        frozen = self._freeze()
        views = [plane.view() for plane in frozen.planes]
        for view in views:
            view.flags.writeable = False
        overlay = DeltaOverlayIndex(base, self._index, views)
        # Should the swap raise half-way, readers may already hold the
        # overlay: a set with no snapshot is never reused.
        frozen.snapshot = None
        frozen.snapshot = service.swap(overlay, base_path)
        return frozen.snapshot

    def _freeze(self) -> _FrozenPlanes:
        """A frozen plane set holding exactly the live delta's bits."""
        live = self._index
        drained = [frozen for frozen in self._frozen if frozen.drained]
        undrained = [frozen for frozen in self._frozen if not frozen.drained]
        if drained:
            # The pool is in publish order: the first drained set has waited
            # longest, so one released after a long lease is reclaimed.
            frozen = drained[0]
            for r, plane in enumerate(frozen.planes):
                if frozen.stale:
                    np.copyto(plane, live.planes[r])
                    continue
                for b in set(live.assignments[r][frozen.documents :]):
                    plane[b] = live.planes[r][b]
        else:
            frozen = _FrozenPlanes([plane.copy() for plane in live.planes])
            self.full_copies += 1
        # A drained spare survives only while the pool would otherwise hold
        # fewer than two sets — after reset(), when both have drained.
        self._frozen = undrained + drained[1 : 2 - len(undrained)] + [frozen]
        frozen.documents = self.num_documents
        frozen.stale = False
        return frozen

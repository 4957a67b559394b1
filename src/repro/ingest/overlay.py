"""The delta-overlay query view: base snapshot OR in-memory delta, exactly.

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
generated interleaving rather than trusting the argument.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.bloom.bitarray import popcount_words
from repro.core.rambo import Rambo


class DeltaOverlayIndex(Rambo):
    """An immutable, servable view of ``base ∪ delta`` (disjoint documents).

    Parameters
    ----------
    base:
        The established snapshot — typically mmap-opened, but any
        :class:`Rambo` works.  Not copied; its bit planes are referenced
        (zero-copy for a mapped base).
    delta:
        The in-memory delta absorbing appended documents.  Its stacked bit
        planes are captured *at construction* (the stacks are fresh copies
        the delta abandons on its next mutation), so the overlay is a true
        snapshot: later appends to the delta are invisible until a new
        overlay is published.

    The overlay rejects every mutation (:meth:`add_documents`, ``fold``,
    ``save_mmap``) with a clean error — writes go through the
    :class:`~repro.ingest.engine.IngestEngine`, which publishes a fresh
    overlay per acknowledged batch.
    """

    def __init__(self, base: Rambo, delta: Rambo) -> None:
        if base.config != delta.config:
            raise ValueError(
                f"overlay parts disagree on config: base {base.config} "
                f"vs delta {delta.config}"
            )
        if base.num_partitions != delta.num_partitions:
            raise ValueError(
                "overlay parts disagree on partition count "
                f"({base.num_partitions} vs {delta.num_partitions})"
            )
        duplicates = [name for name in delta._doc_names if name in base._doc_ids]  # noqa: SLF001
        if duplicates:
            raise ValueError(
                f"delta re-indexes base documents: {duplicates[:3]!r}..."
                if len(duplicates) > 3
                else f"delta re-indexes base documents: {duplicates!r}"
            )
        # Prime both parts' stacked planes now; the references below then
        # stay frozen (any later delta mutation invalidates and rebuilds the
        # delta's own cache, abandoning these arrays to this overlay).
        base._refresh_member_arrays()  # noqa: SLF001
        delta._refresh_member_arrays()  # noqa: SLF001

        self.config = base.config
        self.k = base.k
        self._family = base._family  # noqa: SLF001
        self._bfus = base._bfus  # noqa: SLF001 - geometry only; probes use _planes
        offset = len(base._doc_names)  # noqa: SLF001
        self._doc_names = list(base._doc_names) + list(delta._doc_names)  # noqa: SLF001
        self._doc_ids = {name: i for i, name in enumerate(self._doc_names)}
        self._assignments = [
            list(base_row) + list(delta_row)
            for base_row, delta_row in zip(base._assignments, delta._assignments)  # noqa: SLF001
        ]
        self._members = [
            [
                list(base_ids) + [offset + i for i in delta_ids]
                for base_ids, delta_ids in zip(base_row, delta_row)
            ]
            for base_row, delta_row in zip(base._members, delta._members)  # noqa: SLF001
        ]
        self._mapped_bits = None
        self._base = base
        self._delta = delta
        self._planes = [
            (base._bit_cache[r], delta._bit_cache[r])  # noqa: SLF001
            for r in range(base.repetitions)
        ]
        self._invalidate_caches()

    # -- the one behavioural override: plane pairs in the bit cache --------------------

    def _stacked_planes(self) -> list:
        # Each cache entry is a (base_plane, delta_plane) pair;
        # probe_words_batch ORs the gathered bytes of the two planes, which
        # equals probing the OR-merged plane — the from-scratch index's bits.
        return list(self._planes)

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

    def save_mmap(self, path) -> int:
        raise ValueError(
            "cannot save a delta overlay; the IngestEngine's compaction "
            "writes the merged snapshot"
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
    def delta(self) -> Rambo:
        """The in-memory delta under this view (documents appended since)."""
        return self._delta

    @property
    def num_delta_documents(self) -> int:
        """Documents served from the delta plane (not yet compacted)."""
        return len(self._doc_names) - len(self._base._doc_names)  # noqa: SLF001

    def size_components(self) -> Dict[str, int]:
        return {
            "bfus": (
                self._base.size_components()["bfus"]
                + self._delta.size_components()["bfus"]
            ),
            "assignments": 4 * self.repetitions * len(self._doc_names),
            "names": sum(len(name.encode("utf-8")) for name in self._doc_names),
        }

    def size_in_bytes(self) -> int:
        return sum(self.size_components().values())

    def fill_ratios(self) -> List[List[float]]:
        """Fill of the *effective* (ORed) planes — what queries actually probe."""
        bits = self.config.bfu_bits
        ratios: List[List[float]] = []
        for base_plane, delta_plane in self._planes:
            combined = np.bitwise_or(
                np.asarray(base_plane), np.asarray(delta_plane)
            )
            ratios.append(
                [popcount_words(combined[b]) / bits for b in range(combined.shape[0])]
            )
        return ratios

    def __repr__(self) -> str:
        return (
            f"DeltaOverlayIndex(B={self.num_partitions}, R={self.repetitions}, "
            f"base_documents={len(self._base._doc_names)}, "  # noqa: SLF001
            f"delta_documents={self.num_delta_documents})"
        )

"""Streaming ingest: durable writes into a serving index, always queryable.

PRs 1–7 made the index fast to build, fast to query and rotatable while
serving — but still build-then-frozen.  This package closes ROADMAP item 2:
documents appended *while queries are in flight*, with the crash-safety of
a write-ahead log and answers that stay bit-identical to a from-scratch
build at every instant.  Five pieces, smallest first:

* :mod:`repro.io.walformat` (lives beside the container format) — the
  length+CRC framed, fsync-on-commit WAL: one segment-rolling writer and
  one replay, which tolerates the torn tail a crash mid-append leaves.
* :class:`~repro.ingest.overlay.DeltaOverlayIndex` — an immutable query
  view over (mmap base snapshot, in-memory delta RAMBO).  Probes gather
  ``base_words | delta_words`` inside the batch kernel — one extra array OR
  per term — which is *exactly* the combined index's bit plane, so every
  query path (full, sparse, batch, conjunctive) returns documents **and
  probe counts** bit-identical to a from-scratch build of the same
  documents.  Asserted by the property harness, not assumed.
* :class:`~repro.ingest.overlay.LiveDelta` — the one owner of the live
  delta, driven by the primary's engine and the standby's alike: absorbs
  batches into writable bit planes via the existing bulk ``add_documents``
  path and publishes them by copying only the rows a batch touched into a
  drained frozen plane set — an append's cost follows its documents, not
  the size of the delta.
* :class:`~repro.ingest.store.GenerationStore` — the durable generation
  directory (manifest, WAL segments, compacted snapshots) and its one
  commit protocol: WAL fsync before absorb before publish, snapshot durable
  before the atomically replaced manifest names it, recovery by replay.
  The primary's engine and the standby's both drive it.
* :class:`~repro.ingest.engine.IngestEngine` — the primary's policy on top:
  validation, group commit, acknowledgement, and a
  :class:`~repro.ingest.engine.BackgroundCompactor` that folds the delta
  into a fresh ``RAMBO2`` snapshot via ``merge_indexes``/``save_index`` and
  advances the store onto it (queries never block; in-flight batches drain
  on their own generation).
"""

from repro.ingest.engine import AppendResult, BackgroundCompactor, IngestEngine
from repro.ingest.overlay import DeltaOverlayIndex, LiveDelta
from repro.ingest.store import GenerationStore

__all__ = [
    "AppendResult",
    "BackgroundCompactor",
    "DeltaOverlayIndex",
    "GenerationStore",
    "IngestEngine",
    "LiveDelta",
]

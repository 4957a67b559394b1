"""The ingest engine: validated, group-committed, WAL-durable appends.

The durable state — manifest, WAL segments, compacted snapshots, the live
delta — and the protocol that keeps it crash-safe belong to
:class:`~repro.ingest.store.GenerationStore`; this module is the primary's
policy on top of it (construction *is* the store's recovery).

**Append** (:meth:`IngestEngine.append`) — under the store's lock: validate
the batch (duplicate names, bad term keys) *before* touching any state, then
:meth:`~repro.ingest.store.GenerationStore.apply` it — WAL fsync (the
durability point; only now may the caller be acknowledged), delta absorb,
overlay publish.  Queries never block on ingest (the lock covers writers
only); in-flight batches drain against the overlay they leased.

**Compact** (:meth:`IngestEngine.compact`) — fold the delta into a new
``RAMBO2`` snapshot without ever serving an inconsistent state:
``LiveDelta.merged_with(base)`` (a raw bit-plane OR plus re-based
bookkeeping, bit-identical to a from-scratch build), installed durably as
the next generation's snapshot, then the store's ``advance()`` — the same
commit a standby following this compaction ends in.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Dict, Iterable, Optional

from repro.core.serialization import save_index
from repro.ingest.store import GenerationStore, PathLike, env_number
from repro.io.walformat import validate_document
from repro.kmers.extraction import KmerDocument


@dataclass(frozen=True)
class AppendResult:
    """Acknowledgement of one durable append batch."""

    appended: int
    snapshot_id: int
    delta_documents: int
    wal_bytes: int


class IngestEngine:
    """Durable streaming writes into a :class:`~repro.serve.service.QueryService`.

    Parameters
    ----------
    service:
        The serving facade whose snapshot pointer this engine drives.  The
        engine recovers against the service's currently served index (or
        the newer snapshot its manifest names).
    wal_dir:
        Directory holding the WAL segments, compacted snapshots and the
        manifest.  Created if absent.
    auto_compact_docs:
        Delta size (documents) at which the background compactor folds the
        delta into a new snapshot; ``0`` disables the background thread
        (compaction stays available via :meth:`compact`).
    fsync:
        Disable only in tests that measure the non-durability ceiling;
        production appends must fsync before acknowledging.
    segment_bytes:
        Roll the WAL to a fresh segment once the current one reaches this
        size (``0`` = one segment per generation).  Defaults to 64 MiB.
    group_commit_ms:
        Commit window for group-commit: concurrent appenders arriving
        within the window share one fsync and are acknowledged together
        after it returns.  ``0`` (the default, also via
        ``REPRO_GROUP_COMMIT_MS``) keeps the one-fsync-per-batch path.
    replica_ack:
        Semi-synchronous replication: acknowledge an append only once this
        many standbys have durably applied it (``0`` = asynchronous).  A
        standby whose ack lease expires stops counting toward the quorum,
        so a dead standby degrades the pair to async instead of wedging
        every append.
    replica_ack_timeout_s:
        How long a semi-sync append waits for the standby quorum before
        raising :class:`~repro.ingest.store.ReplicationLagError`.
    """

    #: Replication role — :class:`~repro.replicate.replica.ReplicaEngine`
    #: reports ``"replica"``; the HTTP layer rejects writes on replicas.
    role = "primary"

    def __init__(
        self,
        service,
        wal_dir: PathLike,
        *,
        auto_compact_docs: int = 0,
        fsync: bool = True,
        segment_bytes: Optional[int] = None,
        group_commit_ms: Optional[float] = None,
        replica_ack: int = 0,
        replica_ack_timeout_s: float = 30.0,
    ) -> None:
        store = GenerationStore(wal_dir, fsync=fsync, segment_bytes=segment_bytes)
        store.recover(service)
        self._drive(
            store,
            auto_compact_docs=auto_compact_docs,
            group_commit_ms=group_commit_ms,
            replica_ack=replica_ack,
            replica_ack_timeout_s=replica_ack_timeout_s,
        )

    @classmethod
    def adopt(cls, store: GenerationStore, **options) -> "IngestEngine":
        """A primary over an already-recovered, live *store* — the role flip
        of :meth:`ReplicaEngine.promote <repro.replicate.replica.ReplicaEngine.promote>`.

        *options* are the constructor's ``auto_compact_docs``,
        ``group_commit_ms``, ``replica_ack`` and ``replica_ack_timeout_s``.
        Nothing is reopened or replayed: the store's open WAL, live delta
        and published overlay simply get a writer in front of them.
        """
        engine = cls.__new__(cls)
        engine._drive(store, **options)
        return engine

    def _drive(
        self,
        store: GenerationStore,
        *,
        auto_compact_docs: int = 0,
        group_commit_ms: Optional[float] = None,
        replica_ack: int = 0,
        replica_ack_timeout_s: float = 30.0,
    ) -> None:
        self.store = store
        self._closed = False
        if group_commit_ms is None:
            group_commit_ms = env_number("REPRO_GROUP_COMMIT_MS", 0.0, float)
        self.group_commit_ms = float(group_commit_ms)
        self._gc_cond = threading.Condition(threading.Lock())
        self._gc_leader_active = False
        # Durable watermark as (generation, committed_records): compaction
        # bumps the generation, which lexicographically covers every record
        # of older generations (they are durable via the snapshot commit
        # point), so waiters never compare record counts across generations.
        self._gc_committed = (0, 0)
        self._gc_error: Optional[str] = None
        self.append_batches = 0
        self.appended_documents = 0
        self.compactions = 0
        self.documents_compacted = 0
        self.last_compaction_seconds = 0.0
        # Imported here: repro.replicate's package import pulls in
        # ReplicaEngine, which imports this module for promote().
        from repro.replicate.log import ReplicationLog

        self.replication = ReplicationLog(
            store, replica_ack=replica_ack, ack_timeout_s=replica_ack_timeout_s
        )
        self.compactor: Optional[BackgroundCompactor] = (
            BackgroundCompactor(self, auto_compact_docs) if auto_compact_docs > 0 else None
        )

    @property
    def generation(self) -> int:
        """The snapshot generation being served and written."""
        return self.store.generation

    # -- the write path ----------------------------------------------------------------

    def append(self, documents: Iterable[KmerDocument]) -> AppendResult:
        """Durably append *documents*; acknowledged only after the WAL fsync.

        Raises :class:`ValueError` (duplicate name, invalid term key, or a
        document the WAL cannot frame — oversized name, unsupported term
        type) before any byte is written — a rejected batch leaves WAL,
        delta and the served snapshot untouched.  Concurrent appends serialise on the
        ingest lock; queries are unaffected (they lease snapshots).

        With ``group_commit_ms > 0`` the WAL write is buffered and the
        batch joins the open commit group: one appender becomes the
        leader, sleeps out the window, fsyncs every buffered batch with a
        single call, publishes one overlay covering them all, and wakes
        the group.  Nothing is acknowledged — and nothing newly buffered
        is served — before that shared fsync returns.

        With ``replica_ack > 0`` the acknowledgement additionally waits
        for that many standbys to durably apply the batch; a timeout
        raises :class:`~repro.ingest.store.ReplicationLagError` (the write is durable
        locally and a retry dedupes by name).
        """
        docs = list(documents)
        store = self.store
        if not docs:
            with store.lock:
                return self._result(0)
        group = self.group_commit_ms > 0
        with store.lock:
            if self._closed:
                raise ValueError("ingest engine is closed")
            batch_names = set()
            for doc in docs:
                if (
                    doc.name in store.base
                    or doc.name in store.delta
                    or doc.name in batch_names
                ):
                    raise ValueError(f"document {doc.name!r} already indexed")
                batch_names.add(doc.name)
                validate_document(doc)  # WAL-encodable (name length, term types)
                if len(doc):
                    doc.validated_hash_keys()
            generation = store.generation
            store.apply(docs, sync=not group, fresh=False)
            self.append_batches += 1
            self.appended_documents += len(docs)
            # Under group commit the batch is buffered, not yet durable: its
            # records end at committed + pending.  The group leader's sync
            # commits them; only then may it be acknowledged or served.
            target_records = store.wal.total_records
            if not group:
                result = self._result(len(docs))
        if group:
            self._group_commit((generation, target_records))
            with store.lock:
                result = self._result(len(docs))
        # Outside the ingest lock: the standby's catch-up reads take the
        # same lock, so a semi-sync wait inside it would deadlock the pair.
        self.replication.notify()
        if self.replication.replica_ack > 0:
            self.replication.wait_replicated(generation, target_records)
        if self.compactor is not None:
            self.compactor.maybe_trigger()
        return result

    def _result(self, appended: int) -> AppendResult:
        return AppendResult(
            appended,
            self.store.service.snapshots.active.snapshot_id,
            self.store.delta.num_documents,
            self.store.wal.size_bytes,
        )

    def _group_commit(self, target) -> None:
        """Block until the durable watermark covers *target* ``(gen, records)``.

        First appender to arrive while no leader is active becomes the
        leader: it sleeps out the commit window (letting more appends
        buffer), then — under the ingest lock — issues the one shared
        fsync and publishes one overlay covering everything it committed.
        Everyone else waits on the committed watermark.  A compaction that
        races the window also advances the watermark (its snapshot commit
        point makes every buffered record of the old generation durable).
        """
        store = self.store
        while True:
            with self._gc_cond:
                while True:
                    if self._gc_error is not None and self._gc_committed < target:
                        raise ValueError(
                            f"group commit failed; WAL poisoned: {self._gc_error}"
                        )
                    if self._gc_committed >= target:
                        return
                    if not self._gc_leader_active:
                        self._gc_leader_active = True
                        break
                    self._gc_cond.wait()
            try:
                time.sleep(self.group_commit_ms / 1000.0)
                with store.lock:
                    store.wal.sync()
                    store.publish()
                    committed = store.position()
                with self._gc_cond:
                    self._gc_committed = max(self._gc_committed, committed)
                    self._gc_leader_active = False
                    self._gc_cond.notify_all()
            except Exception as exc:
                with self._gc_cond:
                    self._gc_error = repr(exc)
                    self._gc_leader_active = False
                    self._gc_cond.notify_all()
                raise
            # This leader's own batch was buffered before its sync, so the
            # watermark now covers it and the loop exits on the next pass.

    @property
    def delta_documents(self) -> int:
        """Documents currently held by the delta (0 right after compaction)."""
        return self.store.delta.num_documents

    # -- compaction --------------------------------------------------------------------

    def compact(self) -> Optional[Dict]:
        """Fold the delta into a new snapshot generation; returns its stats.

        No-op (returns ``None``) when the delta is empty.  Queries stay
        answerable throughout: the serving pointer flips once, atomically,
        from the old overlay to the new mmap-backed snapshot, and batches
        in flight drain on whichever generation they leased.  Appends block
        for the duration (they share the ingest lock) — durability first.
        """
        store = self.store
        with store.lock:
            documents_folded = store.delta.num_documents
            if self._closed or not documents_folded:
                return None
            started = time.perf_counter()
            # Drain any open group-commit window first: buffered records are
            # already in the delta about to be folded, and sealing the old
            # generation's WAL with unsynced bytes would leave replay and
            # the fold disagreeing about what the generation holds.
            store.wal.sync()
            generation = store.generation + 1
            merged = store.delta.merged_with(store.base)
            snapshot_path = store.install_snapshot(
                generation, lambda tmp: save_index(merged, tmp)
            )
            snapshot = store.advance(generation, snapshot_path)
            self.compactions += 1
            self.documents_compacted += documents_folded
            self.last_compaction_seconds = time.perf_counter() - started
            result = {
                "generation": generation,
                "snapshot_id": snapshot.snapshot_id,
                "documents_folded": documents_folded,
                "base_documents": store.base.num_documents,
                "wall_seconds": self.last_compaction_seconds,
                "snapshot_path": str(snapshot_path),
            }
        # The snapshot commit point made every old-generation record durable:
        # release any group waiting on them, then point standbys at the new
        # generation (their next stream read gets a generation-changed 409).
        with self._gc_cond:
            self._gc_committed = max(self._gc_committed, (generation, 0))
            self._gc_cond.notify_all()
        self.replication.notify()
        return result

    # -- observability / lifecycle -----------------------------------------------------

    def stats(self) -> Dict:
        """JSON-ready WAL/delta/compaction counters (the ``/stats`` block)."""
        store = self.store
        with store.lock:
            record = store.stats()
            record["wal"].update(
                records_appended=store.wal.records_appended,
                replay_skipped=store.recovery["replay_skipped"],
                syncs=store.wal.sync_count,
                group_commit_ms=self.group_commit_ms,
            )
            record["appends"] = {
                "batches": self.append_batches,
                "documents": self.appended_documents,
            }
            record["compaction"] = {
                "count": self.compactions,
                "documents_compacted": self.documents_compacted,
                "last_wall_seconds": self.last_compaction_seconds,
                "auto_after_docs": (
                    self.compactor.threshold_docs if self.compactor else 0
                ),
                "background_errors": (
                    self.compactor.last_error if self.compactor else None
                ),
            }
        record["replication"] = self.replication.stats()
        return record

    def healthz(self) -> Dict:
        """Readiness detail for ``GET /healthz``.

        A constructed primary has already finished recovery (construction
        *is* recovery), so it is always ready; the replica override reports
        ready only once its replay has caught up to the primary.
        """
        return self.store.healthz(self.role)

    def close(self) -> None:
        """Stop the background compactor and close the WAL segment."""
        if self._closed:
            return
        if self.compactor is not None:
            self.compactor.stop()
        self.replication.close()
        with self.store.lock:
            self._closed = True
            self.store.close()

    def __enter__(self) -> "IngestEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class BackgroundCompactor:
    """A daemon thread folding the delta once it crosses a document threshold.

    Deliberately event-driven rather than polling: :meth:`maybe_trigger`
    (called by the engine after every acknowledged append) sets the event
    when the delta has outgrown ``threshold_docs``, and the thread runs one
    :meth:`IngestEngine.compact` per wake-up.  A compaction failure is
    recorded in ``last_error`` and surfaced through ``/stats`` instead of
    killing the thread — the WAL keeps every acknowledged write safe either
    way.
    """

    def __init__(self, engine: IngestEngine, threshold_docs: int) -> None:
        if threshold_docs <= 0:
            raise ValueError(f"threshold_docs must be positive, got {threshold_docs}")
        self.engine = engine
        self.threshold_docs = threshold_docs
        self.last_error: Optional[str] = None
        self._wakeup = threading.Event()
        self._stopping = False
        self._thread = threading.Thread(
            target=self._run, name="repro-ingest-compactor", daemon=True
        )
        self._thread.start()

    def maybe_trigger(self) -> None:
        if self.engine.delta_documents >= self.threshold_docs:
            self._wakeup.set()

    def trigger(self) -> None:
        """Request a compaction regardless of the threshold."""
        self._wakeup.set()

    def _run(self) -> None:
        while True:
            self._wakeup.wait()
            if self._stopping:
                return
            self._wakeup.clear()
            try:
                self.engine.compact()
            except Exception as exc:  # noqa: BLE001 - surfaced via stats
                self.last_error = repr(exc)

    def stop(self) -> None:
        self._stopping = True
        self._wakeup.set()
        self._thread.join(timeout=30.0)

"""The ingest engine: WAL-durable appends, recovery, background compaction.

The append/compact/recover protocol, end to end (every step crash-safe):

**Append** (:meth:`IngestEngine.append`) — under the ingest lock:

1. validate the batch (duplicate names, bad term keys) *before* touching
   any state;
2. frame + fsync the batch into the current WAL segment — this is the
   durability point; only now may the caller be acknowledged;
3. absorb the batch into the live delta
   (:class:`~repro.ingest.overlay.LiveDelta`, the one owner this engine and
   the standby's :class:`~repro.replicate.replica.ReplicaEngine` both
   drive) via the stock ``Rambo.add_documents`` bulk path;
4. have it publish a fresh :class:`~repro.ingest.overlay.DeltaOverlayIndex`
   through the service's :class:`~repro.serve.snapshot.SnapshotManager` —
   the rows the batch touched are copied into a drained frozen plane set,
   queries never block on ingest (the lock covers writers only), and
   in-flight query batches drain against the overlay generation they
   leased.

**Compact** (:meth:`IngestEngine.compact`) — fold the delta into a new
``RAMBO2`` snapshot without ever serving an inconsistent state:

1. ``LiveDelta.merged_with(base)`` (``merge_indexes``) — a raw bit-plane OR
   plus re-based bookkeeping, bit-identical to a from-scratch build;
2. write the merged snapshot to ``snapshot-<gen>.rambo2`` via a temp file +
   ``os.replace`` + directory fsync (the file is complete or absent);
3. create the empty ``wal-<gen>.log`` segment (header fsynced);
4. atomically replace ``MANIFEST.json`` naming the new generation — **the
   commit point**: a crash before this recovers the old generation plus its
   intact WAL; a crash after recovers the new one;
5. rotate the new mmap-opened snapshot in as the serving base (in-flight
   overlay queries drain on their old snapshot) and delete the previous
   generation's WAL and snapshot files.

**Recover** (construction) — read the manifest (or adopt generation 0 over
the service's opened index), rotate to the manifest's snapshot if needed,
replay the WAL segment tolerating a torn tail (truncated durably), rebuild
the delta from the replayed documents, and republish the overlay.  Replay
skips documents already present in the base, so the protocol is idempotent
across the one crash window where a batch is durable but unacknowledged.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, Optional, Union

from repro.core.serialization import open_index, save_index
from repro.ingest.overlay import LiveDelta
from repro.io.walformat import (
    SegmentedWalWriter,
    _fsync_directory,
    replay_wal_generation,
    truncate_torn_generation,
    validate_document,
)
from repro.kmers.extraction import KmerDocument

PathLike = Union[str, Path]

MANIFEST_NAME = "MANIFEST.json"

#: Default delta size (documents) at which the background compactor fires.
DEFAULT_AUTO_COMPACT_DOCS = 1024

#: Default WAL segment roll size (bytes); override with REPRO_WAL_SEGMENT_BYTES.
DEFAULT_WAL_SEGMENT_BYTES = 64 * 1024 * 1024


def _env_int(name: str, default: int) -> int:
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError as exc:
        raise ValueError(f"{name} must be an integer, got {raw!r}") from exc


def _env_float(name: str, default: float) -> float:
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        return float(raw)
    except ValueError as exc:
        raise ValueError(f"{name} must be a number, got {raw!r}") from exc


class ReplicationLagError(RuntimeError):
    """A semi-synchronous append was durable locally but the configured
    number of standbys did not acknowledge it within the ack timeout.

    The write IS in the primary's WAL — on a retry the recovery dedup (by
    document name) makes it a no-op — but the caller must treat its fate
    as unknown until a node holding it answers.  Surfaced over HTTP as a
    503 so :class:`~repro.serve.client.FailoverClient` retries it.
    """


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
        size (``0`` = one segment per generation).  Defaults to
        ``REPRO_WAL_SEGMENT_BYTES`` (64 MiB).
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
        raising :class:`ReplicationLagError`.
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
        self.service = service
        self.wal_dir = Path(wal_dir)
        self.wal_dir.mkdir(parents=True, exist_ok=True)
        self._lock = threading.RLock()
        self._fsync = fsync
        self._closed = False
        if segment_bytes is None:
            segment_bytes = _env_int(
                "REPRO_WAL_SEGMENT_BYTES", DEFAULT_WAL_SEGMENT_BYTES
            )
        if group_commit_ms is None:
            group_commit_ms = _env_float("REPRO_GROUP_COMMIT_MS", 0.0)
        self.segment_bytes = int(segment_bytes)
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
        self.replayed_documents = 0
        self.replay_skipped = 0
        self.torn_bytes_truncated = 0
        self._recover()
        # Imported lazily: repro.replicate imports this module for promote().
        from repro.replicate.log import ReplicationLog

        self.replication = ReplicationLog(
            self,
            replica_ack=replica_ack,
            ack_timeout_s=replica_ack_timeout_s,
        )
        self.compactor: Optional[BackgroundCompactor] = (
            BackgroundCompactor(self, auto_compact_docs) if auto_compact_docs > 0 else None
        )

    # -- naming ------------------------------------------------------------------------

    def _wal_name(self, generation: int) -> str:
        return f"wal-{generation:06d}.log"

    def _snapshot_name(self, generation: int) -> str:
        return f"snapshot-{generation:06d}.rambo2"

    @property
    def manifest_path(self) -> Path:
        return self.wal_dir / MANIFEST_NAME

    # -- manifest (the compaction commit point) ----------------------------------------

    def _read_manifest(self) -> Optional[Dict]:
        if not self.manifest_path.exists():
            return None
        manifest = json.loads(self.manifest_path.read_text(encoding="utf-8"))
        if manifest.get("version") != 1:
            raise ValueError(
                f"{self.manifest_path} has unsupported manifest version "
                f"{manifest.get('version')!r}"
            )
        return manifest

    def _write_manifest(
        self, generation: int, snapshot: Optional[str], wal: str
    ) -> None:
        """Atomically replace the manifest (temp file + rename + dir fsync)."""
        payload = {
            "version": 1,
            "generation": generation,
            "snapshot": snapshot,
            "wal": wal,
            "config": self._base.config.to_dict(),
        }
        tmp = self.manifest_path.with_suffix(".tmp")
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.flush()
            if self._fsync:
                os.fsync(handle.fileno())
        os.replace(tmp, self.manifest_path)
        if self._fsync:
            _fsync_directory(self.wal_dir)

    # -- recovery ----------------------------------------------------------------------

    def _recover(self) -> None:
        active = self.service.snapshots.active
        base = active.index
        base_path = active.path
        manifest = self._read_manifest()
        if manifest is not None:
            self.generation = int(manifest["generation"])
            snapshot_name = manifest.get("snapshot")
            if snapshot_name:
                snapshot_path = self.wal_dir / snapshot_name
                if base_path != str(snapshot_path):
                    # The manifest names a newer compacted generation than
                    # the index the server was started with: serve that one.
                    rotated = self.service.rotate(str(snapshot_path))
                    base, base_path = rotated.index, rotated.path
            wal_name = manifest["wal"]
        else:
            self.generation = 0
            wal_name = self._wal_name(0)
        self._base = base
        self._base_path = base_path
        self._delta = LiveDelta(base.config)
        replay = replay_wal_generation(
            self.wal_dir, self.generation, expected_config=base.config
        )
        segments = None
        if replay is not None:
            self.torn_bytes_truncated = truncate_torn_generation(replay)
            segments = replay.segments
            # Idempotent across the durable-but-unacknowledged crash window
            # (see LiveDelta.absorb_fresh): recovery must never turn
            # duplicate data into a startup failure.
            self.replayed_documents = self._delta.absorb_fresh(replay.documents, base)
            self.replay_skipped = len(replay.documents) - self.replayed_documents
        self._wal = SegmentedWalWriter(
            self.wal_dir,
            base.config,
            self.generation,
            segment_bytes=self.segment_bytes,
            fsync=self._fsync,
            segments=segments,
        )
        if manifest is None:
            self._write_manifest(self.generation, None, wal_name)
        self._prune_stale_files()
        if self._delta.num_documents:
            self._delta.publish(self.service, base, base_path)

    def _prune_stale_files(self) -> None:
        """Drop segment/snapshot files of other generations (crash debris).

        Only files this engine's naming scheme produced are candidates; the
        operator-supplied initial index lives outside ``wal_dir`` and is
        never touched.  All rolled segments of the *current* generation are
        kept — they are the replication catch-up source until the next
        compaction retires the whole generation at once.
        """
        keep_prefix = f"wal-{self.generation:06d}"
        keep = {
            self._snapshot_name(self.generation),
            MANIFEST_NAME,
        }
        for path in self.wal_dir.iterdir():
            if path.name in keep or (
                path.name.startswith(keep_prefix) and path.suffix in (".log", ".seg")
            ):
                continue
            if (
                (path.name.startswith("wal-") and path.suffix in (".log", ".seg"))
                or (path.name.startswith("snapshot-") and path.suffix == ".rambo2")
                or path.suffix == ".tmp"
            ):
                path.unlink(missing_ok=True)

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
        raises :class:`ReplicationLagError` (the write is locally durable
        and a retry dedupes by name).
        """
        docs = list(documents)
        if not docs:
            with self._lock:
                return AppendResult(
                    0,
                    self.service.snapshots.active.snapshot_id,
                    self._delta.num_documents,
                    self._wal.size_bytes,
                )
        group = self.group_commit_ms > 0
        with self._lock:
            if self._closed:
                raise ValueError("ingest engine is closed")
            batch_names = set()
            for doc in docs:
                if (
                    doc.name in self._base
                    or doc.name in self._delta
                    or doc.name in batch_names
                ):
                    raise ValueError(f"document {doc.name!r} already indexed")
                batch_names.add(doc.name)
                validate_document(doc)  # WAL-encodable (name length, term types)
                if len(doc):
                    doc.validated_hash_keys()
            generation = self.generation
            wal_bytes = self._wal.append(docs, sync=not group)
            self._delta.absorb(docs)
            self.append_batches += 1
            self.appended_documents += len(docs)
            if group:
                # Buffered, not yet durable: the records of this batch end
                # at committed + pending.  The group leader's sync commits
                # them; only then may this batch be acknowledged or served.
                target_records = self._wal.total_records
            else:
                target_records = self._wal.committed_records
                snapshot = self._delta.publish(
                    self.service, self._base, self._base_path
                )
                result = AppendResult(
                    len(docs),
                    snapshot.snapshot_id,
                    self._delta.num_documents,
                    wal_bytes,
                )
        if group:
            self._group_commit((generation, target_records))
            with self._lock:
                result = AppendResult(
                    len(docs),
                    self.service.snapshots.active.snapshot_id,
                    self._delta.num_documents,
                    self._wal.size_bytes,
                )
        # Outside the ingest lock: the standby's catch-up reads take the
        # same lock, so a semi-sync wait inside it would deadlock the pair.
        self.replication.notify()
        if self.replication.replica_ack > 0:
            self.replication.wait_replicated(generation, target_records)
        if self.compactor is not None:
            self.compactor.maybe_trigger()
        return result

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
                with self._lock:
                    self._wal.sync()
                    self._delta.publish(self.service, self._base, self._base_path)
                    committed = (self.generation, self._wal.committed_records)
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
        return self._delta.num_documents

    # -- compaction --------------------------------------------------------------------

    def compact(self) -> Optional[Dict]:
        """Fold the delta into a new snapshot generation; returns its stats.

        No-op (returns ``None``) when the delta is empty.  Queries stay
        answerable throughout: the serving pointer flips once, atomically,
        from the old overlay to the new mmap-backed snapshot, and batches
        in flight drain on whichever generation they leased.  Appends block
        for the duration (they share the ingest lock) — durability first.
        """
        with self._lock:
            if self._closed or not self._delta.num_documents:
                return None
            started = time.perf_counter()
            # Drain any open group-commit window first: buffered records are
            # already in the delta about to be folded, and sealing the old
            # generation's WAL with unsynced bytes would leave replay and
            # the fold disagreeing about what the generation holds.
            self._wal.sync()
            generation = self.generation + 1
            merged = self._delta.merged_with(self._base)
            snapshot_name = self._snapshot_name(generation)
            snapshot_path = self.wal_dir / snapshot_name
            tmp = snapshot_path.with_suffix(".tmp")
            save_index(merged, tmp, format="mmap")
            if self._fsync:
                with open(tmp, "rb") as handle:
                    os.fsync(handle.fileno())
            os.replace(tmp, snapshot_path)
            if self._fsync:
                _fsync_directory(self.wal_dir)
            wal_name = self._wal_name(generation)
            new_wal = SegmentedWalWriter(
                self.wal_dir,
                self._base.config,
                generation,
                segment_bytes=self.segment_bytes,
                fsync=self._fsync,
            )
            # The commit point: after this rename the new generation is the
            # recovered state; before it, the old WAL still replays cleanly.
            self._write_manifest(generation, snapshot_name, wal_name)
            new_base = open_index(snapshot_path)
            snapshot = self.service.swap(new_base, str(snapshot_path))
            documents_folded = self._delta.num_documents
            old_wal = self._wal
            self.generation = generation
            self._base = new_base
            self._base_path = str(snapshot_path)
            self._delta.reset()
            self._wal = new_wal
            old_wal.close()
            self._prune_stale_files()
            self.compactions += 1
            self.documents_compacted += documents_folded
            self.last_compaction_seconds = time.perf_counter() - started
            result = {
                "generation": generation,
                "snapshot_id": snapshot.snapshot_id,
                "documents_folded": documents_folded,
                "base_documents": new_base.num_documents,
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
        with self._lock:
            record = {
                "generation": self.generation,
                "wal": {
                    "path": str(self._wal.path),
                    "bytes": self._wal.size_bytes,
                    "records_appended": self._wal.records_appended,
                    "replayed_documents": self.replayed_documents,
                    "replay_skipped": self.replay_skipped,
                    "torn_bytes_truncated": self.torn_bytes_truncated,
                    "segments": self._wal.segment_count,
                    "segment_bytes": self.segment_bytes,
                    "records_total": self._wal.committed_records,
                    "syncs": self._wal.sync_count,
                    "group_commit_ms": self.group_commit_ms,
                },
                "delta": {
                    "documents": self._delta.num_documents,
                    "size_bytes": self._delta.size_in_bytes(),
                },
                "appends": {
                    "batches": self.append_batches,
                    "documents": self.appended_documents,
                },
                "compaction": {
                    "count": self.compactions,
                    "documents_compacted": self.documents_compacted,
                    "last_wall_seconds": self.last_compaction_seconds,
                    "auto_after_docs": (
                        self.compactor.threshold_docs if self.compactor else 0
                    ),
                    "background_errors": (
                        self.compactor.last_error if self.compactor else None
                    ),
                },
            }
        record["replication"] = self.replication.stats()
        return record

    def healthz(self) -> Dict:
        """Readiness detail for ``GET /healthz``.

        A constructed primary has already finished recovery (construction
        *is* recovery), so it is always ready; the replica override reports
        ready only once its replay has caught up to the primary.
        """
        return {
            "role": self.role,
            "ready": True,
            "wal_attached": True,
            "generation": self.generation,
            "replication_lag": 0,
        }

    def close(self) -> None:
        """Stop the background compactor and close the WAL segment."""
        if self._closed:
            return
        if self.compactor is not None:
            self.compactor.stop()
        self.replication.close()
        with self._lock:
            self._closed = True
            self._wal.close()

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

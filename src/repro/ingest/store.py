"""The generation directory: manifest, WAL, snapshot and live delta, once.

A node that ingests — the primary's :class:`~repro.ingest.engine.IngestEngine`
or the standby's :class:`~repro.replicate.replica.ReplicaEngine` — keeps its
durable state in one directory, and :class:`GenerationStore` is the only
code that knows its layout and its commit protocol (docs/ARCHITECTURE.md,
"Generation directory", has the crash outcome of every window)::

    MANIFEST.json            {version, generation, snapshot, wal, config}
    snapshot-GGGGGG.rambo2   the base of generation G (absent for an
                             operator-supplied generation-0 index)
    wal-GGGGGG.log, wal-GGGGGG-NNNN.seg
                             the documents acknowledged since that base

Replacing the manifest is **the single commit point**: a crash before it
recovers the old generation and its intact WAL, a crash after it the new one.
"""

from __future__ import annotations

import json
import os
import threading
from pathlib import Path
from typing import BinaryIO, Callable, Dict, Optional, Sequence, Tuple, Union

from repro.core.rambo import RamboConfig
from repro.core.serialization import open_index
from repro.ingest.overlay import LiveDelta
from repro.io.walformat import (
    SegmentedWalWriter,
    WalFormatError,
    fsync_directory,
    iter_frames,
    replay_wal_generation,
    truncate_torn_generation,
    wal_segment_name,
)
from repro.kmers.extraction import KmerDocument

PathLike = Union[str, Path]

MANIFEST_NAME = "MANIFEST.json"
MANIFEST_VERSION = 1

#: Default WAL segment roll size (bytes).
DEFAULT_WAL_SEGMENT_BYTES = 64 * 1024 * 1024


def env_number(name: str, default, cast=int):
    """``cast(os.environ[name])``, or *default* when the variable is unset."""
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        return cast(raw)
    except ValueError as exc:
        kind = "an integer" if cast is int else "a number"
        raise ValueError(f"{name} must be {kind}, got {raw!r}") from exc


class ReplicationLagError(RuntimeError):
    """A semi-synchronous append was durable locally but the configured
    number of standbys did not acknowledge it within the ack timeout.

    The write IS in the primary's WAL — on a retry the recovery dedup (by
    document name) makes it a no-op — but the caller must treat its fate
    as unknown until a node holding it answers.  Surfaced over HTTP as a
    503 so :class:`~repro.serve.client.FailoverClient` retries it.
    """


class GenerationChanged(Exception):
    """The requested generation is no longer the store's current one
    (a compaction retired it); carries the generation to re-sync to."""

    def __init__(self, generation: int) -> None:
        super().__init__(f"WAL generation changed; current is {generation}")
        self.generation = generation


class GenerationStore:
    """One generation directory and the live state recovered from it.

    After :meth:`recover` (before it, only the manifest and snapshot-file
    methods work) it owns ``generation``, the serving ``base`` and its
    ``base_path``, the live ``delta`` and the open ``wal``.  Every method that
    touches them runs under ``lock``, which the driving engine takes around
    its own read-check-write sequences (it is re-entrant).
    """

    def __init__(
        self,
        directory: PathLike,
        *,
        fsync: bool = True,
        segment_bytes: Optional[int] = None,
    ) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.fsync = fsync
        if segment_bytes is None:
            segment_bytes = DEFAULT_WAL_SEGMENT_BYTES
        self.segment_bytes = int(segment_bytes)
        self.lock = threading.RLock()
        self.generation = 0

    # -- the manifest (the commit point) -----------------------------------------------

    def read_manifest(self) -> Optional[Dict]:
        """The committed manifest, ``None`` for a fresh directory."""
        path = self.directory / MANIFEST_NAME
        if not path.exists():
            return None
        manifest = json.loads(path.read_text(encoding="utf-8"))
        if manifest.get("version") != MANIFEST_VERSION:
            raise ValueError(
                f"{path} has unsupported manifest version {manifest.get('version')!r}"
            )
        return manifest

    def write_manifest(
        self, generation: int, snapshot: Optional[str], config: RamboConfig
    ) -> None:
        """Atomically replace the manifest (temp file + rename + dir fsync)."""
        payload = {
            "version": MANIFEST_VERSION,
            "generation": generation,
            "snapshot": snapshot,
            "wal": wal_segment_name(generation),
            "config": config.to_dict(),
        }
        path = self.directory / MANIFEST_NAME
        tmp = path.with_suffix(".tmp")
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.flush()
            if self.fsync:
                os.fsync(handle.fileno())
        os.replace(tmp, path)
        if self.fsync:
            fsync_directory(self.directory)

    def committed_snapshot(self) -> Optional[Path]:
        """The snapshot file the manifest names, if both exist — what a
        standby re-booting over this directory serves instead of fetching."""
        manifest = self.read_manifest()
        if manifest is None or not manifest.get("snapshot"):
            return None
        path = self.directory / manifest["snapshot"]
        return path if path.exists() else None

    # -- recovery ----------------------------------------------------------------------

    def recover(self, service) -> Dict[str, int]:
        """Bring *service* to the directory's committed state and drive its
        snapshot pointer from here on; returns the ``replayed_documents`` /
        ``replay_skipped`` / ``torn_bytes_truncated`` counts.

        Read the manifest (or adopt generation 0 over the served index),
        rotate to its snapshot if another file is being served, replay the
        WAL tolerating a torn tail (truncated durably), absorb what replayed,
        reopen the WAL after it, prune, publish.
        """
        self.service = service
        active = service.snapshots.active
        base, base_path = active.index, active.path
        manifest = self.read_manifest()
        if manifest is not None:
            self.generation = int(manifest["generation"])
            snapshot = manifest.get("snapshot")
            if snapshot and base_path != str(self.directory / snapshot):
                # The manifest names a newer compacted generation than the
                # index the server was started with: serve that one.
                rotated = service.rotate(str(self.directory / snapshot))
                base, base_path = rotated.index, rotated.path
            if RamboConfig.from_dict(manifest["config"]) != base.config:
                raise ValueError(
                    f"{self.directory / MANIFEST_NAME} was written for config "
                    f"{manifest['config']}, but the served base has {base.config}"
                )
        self.base, self.base_path = base, base_path
        self.delta = LiveDelta(base.config)
        replay = replay_wal_generation(
            self.directory, self.generation, expected_config=base.config
        )
        replayed = torn = 0
        if replay is not None:
            torn = truncate_torn_generation(replay)
            # Idempotent across the durable-but-unacknowledged crash window
            # (see LiveDelta.absorb_fresh): recovery must never turn
            # duplicate data into a startup failure.
            replayed = self.delta.absorb_fresh(replay.documents, base)
        self.recovery = {
            "replayed_documents": replayed,
            "replay_skipped": (len(replay.documents) if replay else 0) - replayed,
            "torn_bytes_truncated": torn,
        }
        self.wal = self._open_wal(self.generation, replay.segments if replay else None)
        if manifest is None:
            self.write_manifest(self.generation, None, base.config)
        self._prune()
        if self.delta.num_documents:
            self.publish()
        return self.recovery

    def _open_wal(self, generation: int, segments=None) -> SegmentedWalWriter:
        return SegmentedWalWriter(
            self.directory,
            self.base.config,
            generation,
            segment_bytes=self.segment_bytes,
            fsync=self.fsync,
            segments=segments,
        )

    def _prune(self) -> None:
        """Drop segment/snapshot files of other generations (crash debris).

        Only files this naming scheme produced are candidates; the
        operator-supplied initial index lives outside the directory and is
        never touched.  All rolled segments of the *current* generation are
        kept — they are the replication catch-up source until the next
        advance retires the whole generation at once.
        """
        current_wal = f"wal-{self.generation:06d}"
        keep = {self.snapshot_path(self.generation).name, MANIFEST_NAME}
        for path in self.directory.iterdir():
            is_wal = path.name.startswith("wal-") and path.suffix in (".log", ".seg")
            if path.name in keep or (is_wal and path.name.startswith(current_wal)):
                continue
            if (
                is_wal
                or (path.name.startswith("snapshot-") and path.suffix == ".rambo2")
                or path.suffix == ".tmp"
            ):
                path.unlink(missing_ok=True)

    # -- the write path ----------------------------------------------------------------

    def publish(self):
        """Serve base + everything absorbed so far; returns the new snapshot."""
        return self.delta.publish(self.service, self.base, self.base_path)

    def apply(self, documents: Sequence[KmerDocument], *, sync: bool, fresh: bool) -> None:
        """WAL append, then delta absorb, then — once synced — publish.

        ``sync=False`` only buffers (group commit): the caller later issues
        ``wal.sync()`` + :meth:`publish` and acknowledges nothing before.
        ``fresh=True`` skips documents the node already holds (a standby
        re-applying a record it had when its stream dropped).
        """
        with self.lock:
            self.wal.append(documents, sync=sync)
            if fresh:
                self.delta.absorb_fresh(documents, self.base)
            else:
                self.delta.absorb(documents)
            if sync:
                self.publish()

    # -- generation advance ------------------------------------------------------------

    def snapshot_path(self, generation: int) -> Path:
        return self.directory / f"snapshot-{generation:06d}.rambo2"

    def install_snapshot(self, generation: int, write: Callable[[Path], None]) -> Path:
        """Durably create ``snapshot-<generation>``: *write* fills a temp
        file, which is fsynced, renamed into place and the directory
        fsynced — the snapshot is complete or absent, never half-written."""
        path = self.snapshot_path(generation)
        tmp = path.with_suffix(".tmp")
        try:
            write(tmp)
            if self.fsync:
                with open(tmp, "rb") as handle:
                    os.fsync(handle.fileno())
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
        os.replace(tmp, path)
        if self.fsync:
            fsync_directory(self.directory)
        return path

    def advance(self, generation: int, snapshot_path: Path):
        """Commit *generation*, whose installed snapshot is *snapshot_path*,
        and serve it; returns the new serving snapshot.

        Open the empty WAL of *generation*, replace the manifest (the commit
        point), swap the new base in, reset the delta, close the old WAL,
        prune every other generation's files — for both roles, in this order.
        """
        with self.lock:
            old_wal = self.wal
            new_wal = self._open_wal(generation)
            self.write_manifest(generation, snapshot_path.name, self.base.config)
            base = open_index(snapshot_path)
            snapshot = self.service.swap(base, str(snapshot_path))
            self.generation = generation
            self.base, self.base_path = base, str(snapshot_path)
            self.delta.reset()
            self.wal = new_wal
            old_wal.close()
            self._prune()
            return snapshot

    # -- the read side (replication) ---------------------------------------------------

    def position(self) -> Tuple[int, int]:
        """Current ``(generation, committed_records)`` cursor."""
        with self.lock:
            return self.generation, self.wal.committed_records

    def read_committed(
        self, generation: int, offset: int, max_bytes: int = 1 << 20
    ) -> Tuple[bytes, int, int]:
        """Committed framed record bytes starting at record index *offset*.

        Returns ``(data, n_records, committed_records)`` — whole frames
        only, from a single segment, capped near *max_bytes*; empty when
        the reader is caught up.  Raises :class:`GenerationChanged` when
        *generation* is no longer current (the caller re-syncs via the
        snapshot).  Never returns uncommitted (group-commit-buffered)
        bytes: an un-fsynced record must not reach a standby before the
        primary itself would survive losing it.
        """
        if offset < 0:
            raise ValueError(f"offset must be >= 0, got {offset}")
        with self.lock:
            if self.generation != generation:
                raise GenerationChanged(self.generation)
            committed = self.wal.committed_records
            if offset >= committed:
                return b"", 0, committed
            target = None
            for info in self.wal.segment_infos():
                if info.start_record <= offset < info.end_record:
                    target = info
                    break
            if target is None:
                raise ValueError(
                    f"record offset {offset} not found in generation "
                    f"{generation} (committed {committed})"
                )
            # Open under the lock (an advance won't unlink mid-open); the
            # scan itself runs on a stable committed prefix either way.
            with open(target.path, "rb") as handle:
                data = handle.read(target.committed_bytes)
        frames = iter_frames(data, target.data_offset)
        start, n_records = target.data_offset, 0
        for record, (_, end) in enumerate(frames, target.start_record):
            if record < offset:
                start = end
                continue
            n_records += 1
            if end - start >= max_bytes:
                break
        if frames.torn_reason is not None:
            raise WalFormatError(
                f"{target.path} is damaged inside its committed prefix "
                f"({frames.torn_reason} at byte {frames.end})"
            )
        return data[start : frames.end], n_records, committed

    def open_base(self) -> Tuple[int, BinaryIO]:
        """``(generation, open file)`` of the serving base artifact, pinned
        together: an advance may unlink the file a moment later, but the
        open descriptor keeps its bytes alive for the caller's copy."""
        with self.lock:
            return self.generation, open(self.base_path, "rb")

    # -- observability / lifecycle -----------------------------------------------------

    def stats(self) -> Dict:
        """The ``generation`` / ``wal`` / ``delta`` blocks of ``/stats``."""
        with self.lock:
            return {
                "generation": self.generation,
                "wal": {
                    "path": str(self.wal.path),
                    "bytes": self.wal.size_bytes,
                    "records_total": self.wal.committed_records,
                    "segments": self.wal.segment_count,
                    "segment_bytes": self.segment_bytes,
                    "replayed_documents": self.recovery["replayed_documents"],
                    "torn_bytes_truncated": self.recovery["torn_bytes_truncated"],
                },
                "delta": self.delta.stats(),
            }

    def healthz(self, role: str, ready: bool = True, replication_lag: int = 0) -> Dict:
        """The ingest fields of ``GET /healthz``."""
        return {
            "role": role,
            "ready": ready,
            "wal_attached": True,
            "generation": self.generation,
            "replication_lag": replication_lag,
        }

    def close(self) -> None:
        with self.lock:
            self.wal.close()

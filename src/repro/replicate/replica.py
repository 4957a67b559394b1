"""Standby-side replication: tail the primary's WAL stream, replay locally.

The replica's durability mirrors the primary's: every streamed record is
fsynced into the standby's *own* WAL before the delta absorbs it, before
the overlay is republished, and before the cursor is acked back — so the
standby's recovered state after any crash is exactly its acked prefix,
and promoting it (:meth:`ReplicaEngine.promote`) is nothing more than
constructing a normal :class:`~repro.ingest.engine.IngestEngine` over the
standby's WAL directory and letting ordinary recovery replay it.

Stream protocol (client side of ``GET /wal/stream``):

* request ``?generation=G&offset=N`` where ``N`` is the number of records
  this standby has durably applied in generation ``G`` — the cursor is
  resumable by construction, so reconnecting after any fault is just
  re-requesting it;
* the body is the WAL's own record framing (length + CRC32 + payload),
  shipped verbatim; every CRC is re-checked here and a mismatch drops the
  connection (the re-request re-reads the record from the primary's disk);
* a ``409`` means the generation was compacted away: fetch the new base
  snapshot via ``GET /wal/snapshot``, rotate it in, reset the delta and
  start a fresh local WAL generation at cursor 0.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
import urllib.error
import urllib.parse
import urllib.request
import zlib
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.ingest.engine import (
    DEFAULT_WAL_SEGMENT_BYTES,
    MANIFEST_NAME,
    _env_int,
)
from repro.ingest.overlay import LiveDelta
from repro.io.walformat import (
    _RECORD_PREFIX,
    SegmentedWalWriter,
    _fsync_directory,
    decode_document,
    replay_wal_generation,
    truncate_torn_generation,
    wal_segment_name,
)
from repro.kmers.extraction import KmerDocument

PathLike = os.PathLike


class ReplicaError(RuntimeError):
    """A standby-side replication failure (stream damage, read-only writes)."""


class _GenerationMoved(Exception):
    """Internal signal: the primary compacted; re-sync via its snapshot."""

    def __init__(self, generation: int) -> None:
        super().__init__(f"primary moved to generation {generation}")
        self.generation = generation


def _write_manifest(
    wal_dir: Path, generation: int, snapshot: Optional[str], wal: str, config, fsync: bool
) -> None:
    """The same atomic manifest protocol as the ingest engine (temp file +
    rename + dir fsync) — the standby's recovery IS the engine's recovery."""
    payload = {
        "version": 1,
        "generation": generation,
        "snapshot": snapshot,
        "wal": wal,
        "config": config.to_dict(),
    }
    manifest_path = wal_dir / MANIFEST_NAME
    tmp = manifest_path.with_suffix(".tmp")
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.flush()
        if fsync:
            os.fsync(handle.fileno())
    os.replace(tmp, manifest_path)
    if fsync:
        _fsync_directory(wal_dir)


def _fetch_snapshot(
    primary_url: str, wal_dir: Path, *, timeout: float, fsync: bool
) -> Tuple[Path, int]:
    """Download the primary's current base artifact; returns ``(path, generation)``.

    Written via temp file + rename so a crash mid-download leaves no
    half-snapshot a later recovery could mistake for a real one, and
    verified against the primary's ``X-Content-Sha256`` before the rename
    — a snapshot is raw bitmap bytes with no per-record CRC of its own,
    so transfer damage here would otherwise rotate straight into the
    standby's serving path.
    """
    request = urllib.request.Request(primary_url + "/wal/snapshot")
    with urllib.request.urlopen(request, timeout=timeout) as response:
        generation = int(response.headers.get("X-Wal-Generation", "0"))
        expected_digest = response.headers.get("X-Content-Sha256")
        digest = hashlib.sha256()
        path = wal_dir / f"snapshot-{generation:06d}.rambo2"
        tmp = path.with_suffix(".fetch.tmp")
        with open(tmp, "wb") as handle:
            while True:
                chunk = response.read(1 << 20)
                if not chunk:
                    break
                digest.update(chunk)
                handle.write(chunk)
            handle.flush()
            if fsync:
                os.fsync(handle.fileno())
    if expected_digest is not None and digest.hexdigest() != expected_digest:
        tmp.unlink(missing_ok=True)
        raise ReplicaError(
            f"snapshot transfer from {primary_url} failed its checksum "
            f"(generation {generation}); retrying"
        )
    os.replace(tmp, path)
    if fsync:
        _fsync_directory(wal_dir)
    return path, generation


class ReplicaEngine:
    """Read-only ingest facade that replays the primary's WAL stream.

    Attached to a :class:`~repro.serve.service.QueryService` exactly like
    an :class:`~repro.ingest.engine.IngestEngine` (duck-typed ``stats()``
    / ``healthz()`` / ``close()``), but :meth:`append` / :meth:`compact`
    refuse — writes go to the primary until :meth:`promote`.
    """

    role = "replica"

    def __init__(
        self,
        service,
        wal_dir: PathLike,
        primary_url: str,
        *,
        fsync: bool = True,
        segment_bytes: Optional[int] = None,
        peer_id: Optional[str] = None,
        promote_kwargs: Optional[Dict] = None,
        poll_wait_s: float = 20.0,
        max_read_bytes: int = 1 << 20,
        backoff_s: float = 0.05,
        backoff_cap_s: float = 1.0,
        read_timeout_s: float = 15.0,
    ) -> None:
        self.service = service
        self.wal_dir = Path(wal_dir)
        self.primary_url = primary_url.rstrip("/")
        self._lock = threading.RLock()
        self._fsync = fsync
        if segment_bytes is None:
            segment_bytes = _env_int(
                "REPRO_WAL_SEGMENT_BYTES", DEFAULT_WAL_SEGMENT_BYTES
            )
        self.segment_bytes = int(segment_bytes)
        self.peer_id = peer_id or f"replica-{os.getpid()}"
        self.promote_kwargs = dict(promote_kwargs or {})
        self.poll_wait_s = float(poll_wait_s)
        self.max_read_bytes = int(max_read_bytes)
        self.backoff_s = float(backoff_s)
        self.backoff_cap_s = float(backoff_cap_s)
        self.read_timeout_s = float(read_timeout_s)
        manifest_path = self.wal_dir / MANIFEST_NAME
        if not manifest_path.exists():
            raise ReplicaError(
                f"{self.wal_dir} holds no manifest; use ReplicaEngine.bootstrap()"
            )
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        self.generation = int(manifest["generation"])
        active = service.snapshots.active
        self._base = active.index
        self._base_path = active.path
        self._delta = LiveDelta(self._base.config)
        self.replayed_documents = 0
        self.torn_bytes_truncated = 0
        # Resume after a standby crash: replay whatever this node durably
        # applied — the cursor picks up exactly there, never re-acking
        # records that did not survive.
        replay = replay_wal_generation(
            self.wal_dir, self.generation, expected_config=self._base.config
        )
        segments = None
        if replay is not None:
            self.torn_bytes_truncated = truncate_torn_generation(replay)
            segments = replay.segments
            self.replayed_documents = self._delta.absorb_fresh(
                replay.documents, self._base
            )
        self._wal = SegmentedWalWriter(
            self.wal_dir,
            self._base.config,
            self.generation,
            segment_bytes=self.segment_bytes,
            fsync=self._fsync,
            segments=segments,
        )
        self.applied = self._wal.committed_records
        self.primary_records = self.applied
        if self._delta.num_documents:
            self._delta.publish(self.service, self._base, self._base_path)
        self.ready = False
        self.last_error: Optional[str] = None
        self.reconnects = 0
        self.snapshot_fetches = 0
        self.applied_batches = 0
        self.applied_documents = 0
        self._last_progress = time.monotonic()
        self._stop = threading.Event()
        self._response = None
        self._thread: Optional[threading.Thread] = None
        self._promoted = None

    # -- bootstrap ---------------------------------------------------------------------

    @classmethod
    def bootstrap(
        cls,
        primary_url: str,
        wal_dir: PathLike,
        *,
        service_opts: Optional[Dict] = None,
        connect_timeout_s: float = 30.0,
        fsync: bool = True,
        **kwargs,
    ):
        """Stand a replica up against *primary_url*; returns ``(service, replica)``.

        First boot fetches the primary's base snapshot (retrying until
        *connect_timeout_s* so the pair can start in either order) and
        writes the standby's own manifest; a re-boot over an existing
        replica directory resumes from its local manifest + WAL instead —
        the standby only re-downloads a base it does not already have.
        """
        from repro.serve.service import QueryService

        primary_url = primary_url.rstrip("/")
        wal_dir = Path(wal_dir)
        wal_dir.mkdir(parents=True, exist_ok=True)
        manifest_path = wal_dir / MANIFEST_NAME
        snapshot_path: Optional[Path] = None
        if manifest_path.exists():
            manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
            candidate = wal_dir / f"snapshot-{int(manifest['generation']):06d}.rambo2"
            if candidate.exists():
                snapshot_path = candidate
        if snapshot_path is None:
            deadline = time.monotonic() + connect_timeout_s
            delay = 0.05
            while True:
                try:
                    snapshot_path, generation = _fetch_snapshot(
                        primary_url, wal_dir, timeout=connect_timeout_s, fsync=fsync
                    )
                    break
                except (urllib.error.URLError, OSError, ReplicaError):
                    if time.monotonic() >= deadline:
                        raise
                    time.sleep(delay)
                    delay = min(delay * 2, 1.0)
            service = QueryService.open(str(snapshot_path), **(service_opts or {}))
            _write_manifest(
                wal_dir,
                generation,
                snapshot_path.name,
                wal_segment_name(generation, 0),
                service.snapshots.active.index.config,
                fsync,
            )
        else:
            service = QueryService.open(str(snapshot_path), **(service_opts or {}))
        replica = cls(service, wal_dir, primary_url, fsync=fsync, **kwargs)
        service.attach_ingest(replica)
        replica.start()
        return service, replica

    # -- the apply path ----------------------------------------------------------------

    def _apply(self, documents: List[KmerDocument]) -> None:
        """Durably apply one streamed batch: local WAL fsync first, then
        delta + overlay, then the cursor advance the next ack reports."""
        with self._lock:
            if self._promoted is not None:
                return
            self._wal.append(documents)
            self._delta.absorb_fresh(documents, self._base)
            self._delta.publish(self.service, self._base, self._base_path)
            self.applied = self._wal.committed_records
            self.primary_records = max(self.primary_records, self.applied)
            self.applied_batches += 1
            self.applied_documents += len(documents)
            self._last_progress = time.monotonic()
        self._send_ack()

    def _send_ack(self) -> None:
        """Report the durable cursor to the primary (advisory: a lost ack
        only delays the semi-sync quorum until the next one)."""
        body = json.dumps(
            {
                "peer": self.peer_id,
                "generation": self.generation,
                "records": self.applied,
            }
        ).encode("utf-8")
        request = urllib.request.Request(
            self.primary_url + "/wal/ack",
            data=body,
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        # The ack runs synchronously in the apply path, so its timeout
        # bounds how long a wedged ack endpoint can stall replication;
        # keep it short — acks are advisory and the next apply retries.
        try:
            with urllib.request.urlopen(request, timeout=2.0):
                pass
        except (urllib.error.URLError, OSError):
            pass

    def _consume_frames(self, buffer: bytes) -> bytes:
        """Apply every complete frame in *buffer*; returns the unconsumed tail.

        A CRC or framing failure raises — the tail loop drops the
        connection and resumes from the durable cursor, re-reading the
        damaged record from the primary's disk.
        """
        documents: List[KmerDocument] = []
        cursor = 0
        while len(buffer) - cursor >= _RECORD_PREFIX.size:
            length, crc = _RECORD_PREFIX.unpack_from(buffer, cursor)
            end = cursor + _RECORD_PREFIX.size + length
            if len(buffer) < end:
                break
            payload = buffer[cursor + _RECORD_PREFIX.size : end]
            if zlib.crc32(payload) != crc:
                raise ReplicaError(
                    f"stream record at cursor {self.applied + len(documents)} "
                    f"failed its CRC check"
                )
            documents.append(decode_document(payload))
            cursor = end
        if documents:
            self._apply(documents)
        return buffer[cursor:]

    # -- the tail loop -----------------------------------------------------------------

    def start(self) -> None:
        if self._thread is not None:
            return
        self._thread = threading.Thread(
            target=self._tail_loop, name="repro-replica-tail", daemon=True
        )
        self._thread.start()

    def _stream_once(self) -> None:
        params = urllib.parse.urlencode(
            {
                "generation": self.generation,
                "offset": self.applied,
                "wait_s": self.poll_wait_s,
                "max_bytes": self.max_read_bytes,
            }
        )
        request = urllib.request.Request(f"{self.primary_url}/wal/stream?{params}")
        try:
            # Socket timeout bounds how long a byzantine connection (a
            # stalled proxy, a flipped byte in the chunked framing) can
            # wedge the tailer before it drops and resumes from the cursor.
            response = urllib.request.urlopen(
                request, timeout=self.poll_wait_s + self.read_timeout_s
            )
        except urllib.error.HTTPError as exc:
            if exc.code == 409:
                try:
                    generation = int(json.loads(exc.read().decode("utf-8"))["generation"])
                except Exception:  # noqa: BLE001 - body shape is advisory
                    generation = -1
                raise _GenerationMoved(generation) from exc
            raise
        self._response = response
        try:
            advertised = int(response.headers.get("X-Wal-Records", "-1"))
            if advertised >= 0:
                self.primary_records = max(self.primary_records, advertised)
            # Refresh the ack lease on every (re)connect, not just on apply:
            # an idle pair must not drift past the primary's peer TTL and
            # silently degrade semi-sync while the standby is healthy.
            self._send_ack()
            buffer = b""
            while not self._stop.is_set():
                chunk = response.read1(1 << 16)
                if not chunk:
                    break
                buffer += chunk
                buffer = self._consume_frames(buffer)
                if self.applied >= self.primary_records:
                    self.ready = True
            if buffer:
                raise ReplicaError(
                    f"stream ended mid-frame ({len(buffer)} dangling bytes)"
                )
            # A clean end-of-stream means the primary had nothing more
            # within its wait window: the standby is caught up.
            if self.applied >= self.primary_records:
                self.ready = True
        finally:
            self._response = None
            try:
                response.close()
            except OSError:
                pass

    def _follow_generation(self, generation: int) -> None:
        """Re-sync after a primary compaction: new base snapshot, fresh
        local WAL generation, cursor back to 0."""
        self.snapshot_fetches += 1
        snapshot_path, fetched_generation = _fetch_snapshot(
            self.primary_url, self.wal_dir, timeout=60.0, fsync=self._fsync
        )
        if generation >= 0 and fetched_generation < generation:
            raise ReplicaError(
                f"primary served snapshot generation {fetched_generation} "
                f"but advertised {generation}"
            )
        with self._lock:
            if self._promoted is not None:
                return
            rotated = self.service.rotate(str(snapshot_path))
            old_wal = self._wal
            # Reset the cursor BEFORE the new generation becomes visible:
            # progress is read lock-free (healthz lag, catch-up polls), and
            # new-generation + stale old-generation `applied` would read as
            # "caught up" while the new generation's records are unapplied.
            # The safe direction — old generation + zero applied — only ever
            # reads as transient lag.
            self.applied = 0
            self.primary_records = 0
            self.generation = fetched_generation
            self._base = rotated.index
            self._base_path = rotated.path
            self._delta.reset()
            self._wal = SegmentedWalWriter(
                self.wal_dir,
                self._base.config,
                self.generation,
                segment_bytes=self.segment_bytes,
                fsync=self._fsync,
            )
            # The standby's own commit point, mirroring the primary's
            # compaction protocol: manifest rename last.
            _write_manifest(
                self.wal_dir,
                self.generation,
                snapshot_path.name,
                wal_segment_name(self.generation, 0),
                self._base.config,
                self._fsync,
            )
            old_wal.close()
            self._prune_stale_files()
        self._send_ack()

    def _prune_stale_files(self) -> None:
        keep_prefix = f"wal-{self.generation:06d}"
        keep = {f"snapshot-{self.generation:06d}.rambo2", MANIFEST_NAME}
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

    def _tail_loop(self) -> None:
        delay = self.backoff_s
        while not self._stop.is_set():
            try:
                self._stream_once()
                self.last_error = None
                delay = self.backoff_s
            except _GenerationMoved as moved:
                try:
                    self._follow_generation(moved.generation)
                    delay = self.backoff_s
                except Exception as exc:  # noqa: BLE001 - retried with backoff
                    self.last_error = repr(exc)
                    self.reconnects += 1
                    self._stop.wait(delay)
                    delay = min(delay * 2, self.backoff_cap_s)
            except Exception as exc:  # noqa: BLE001 - retried with backoff
                if self._stop.is_set():
                    return
                # Readiness is sticky once the initial replay caught up: a
                # dropped stream (including a dead primary — the promotion
                # case) must not flip a warm standby to 503.
                self.last_error = repr(exc)
                self.reconnects += 1
                self._stop.wait(delay)
                delay = min(delay * 2, self.backoff_cap_s)

    # -- the ingest facade -------------------------------------------------------------

    def append(self, documents) -> None:
        raise ReplicaError(
            "this node is a read-only replica; append on the primary "
            "(or POST /promote here first)"
        )

    def compact(self) -> None:
        raise ReplicaError(
            "this node is a read-only replica; compact on the primary "
            "(or POST /promote here first)"
        )

    @property
    def delta_documents(self) -> int:
        return self._delta.num_documents

    def lag_records(self) -> int:
        with self._lock:
            return max(0, self.primary_records - self.applied)

    def stats(self) -> Dict:
        with self._lock:
            lag = max(0, self.primary_records - self.applied)
            lag_seconds = (
                0.0 if lag == 0 else round(time.monotonic() - self._last_progress, 3)
            )
            return {
                "generation": self.generation,
                "wal": {
                    "path": str(self._wal.path),
                    "bytes": self._wal.size_bytes,
                    "records_total": self._wal.committed_records,
                    "segments": self._wal.segment_count,
                    "segment_bytes": self.segment_bytes,
                    "replayed_documents": self.replayed_documents,
                    "torn_bytes_truncated": self.torn_bytes_truncated,
                },
                "delta": {
                    "documents": self._delta.num_documents,
                    "size_bytes": self._delta.size_in_bytes(),
                },
                "replication": {
                    "role": self.role,
                    "primary": self.primary_url,
                    "cursor": {"generation": self.generation, "records": self.applied},
                    "lag_records": lag,
                    "lag_seconds": lag_seconds,
                    "ready": self.ready,
                    "last_error": self.last_error,
                    "reconnects": self.reconnects,
                    "snapshot_fetches": self.snapshot_fetches,
                    "applied_batches": self.applied_batches,
                    "applied_documents": self.applied_documents,
                    "peer_id": self.peer_id,
                },
            }

    def healthz(self) -> Dict:
        with self._lock:
            lag = max(0, self.primary_records - self.applied)
            return {
                "role": self.role,
                "ready": bool(self.ready and self._promoted is None),
                "wal_attached": True,
                "generation": self.generation,
                "replication_lag": lag,
            }

    # -- promote / lifecycle -----------------------------------------------------------

    def _stop_tailing(self, join_timeout_s: float = 10.0) -> None:
        self._stop.set()
        response = self._response
        if response is not None:
            try:
                response.close()
            except OSError:
                pass
        thread = self._thread
        if thread is not None and thread is not threading.current_thread():
            # A tailer stuck connecting to a dead primary can outlive the
            # join; that is safe — every apply/follow path re-checks the
            # stop flag and the promoted guard under the lock — so callers
            # on a failover clock pass a short timeout and move on.
            thread.join(timeout=join_timeout_s)

    def promote(self, **overrides):
        """Promote this standby to a primary; returns the new engine.

        Idempotent.  Stops the tailer, closes the local WAL and constructs
        a normal :class:`~repro.ingest.engine.IngestEngine` over the same
        directory — its recovery replays exactly what this standby durably
        applied, which *is* the promote commit point: acknowledged writes
        the dead primary streamed out survive; whatever it never shipped
        was, by semi-sync definition, never acknowledged under
        ``replica_ack >= 1``.
        """
        with self._lock:
            if self._promoted is not None:
                return self._promoted
        self._stop_tailing(join_timeout_s=1.0)
        with self._lock:
            if self._promoted is not None:
                return self._promoted
            self._wal.close()
            # Hand the engine the *raw* base, not this replica's published
            # overlay: its recovery replays our durable WAL into its own
            # delta, and an overlay-over-overlay base would break the
            # query kernels.  The republish at the end of its recovery
            # restores the exact same served answers.
            self.service.swap(self._base, self._base_path)
            from repro.ingest.engine import IngestEngine

            kwargs = {
                "fsync": self._fsync,
                "segment_bytes": self.segment_bytes,
                **self.promote_kwargs,
                **overrides,
            }
            engine = IngestEngine(self.service, self.wal_dir, **kwargs)
            self.service.attach_ingest(engine)
            self._promoted = engine
            # The engine replayed the WAL into a delta of its own; let go of
            # this one's planes.
            self._delta.reset()
            return engine

    def close(self) -> None:
        if self._promoted is not None:
            return
        self._stop_tailing()
        with self._lock:
            self._wal.close()

    def __enter__(self) -> "ReplicaEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

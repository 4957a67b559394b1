"""Standby-side replication: tail the primary's WAL stream, replay locally.

The replica's durability mirrors the primary's — it drives the same
:class:`~repro.ingest.store.GenerationStore`: every streamed record is
fsynced into the standby's *own* WAL before the delta absorbs it, before
the overlay is republished, and before the cursor is acked back — so the
standby's recovered state after any crash is exactly its acked prefix,
and promoting it (:meth:`ReplicaEngine.promote`) is a role flip: the live
store gets an :class:`~repro.ingest.engine.IngestEngine` in front of it.

Stream protocol (client side of ``GET /wal/stream``):

* request ``?generation=G&offset=N`` where ``N`` is the number of records
  this standby has durably applied in generation ``G`` — the cursor is
  resumable by construction, so reconnecting after any fault is just
  re-requesting it;
* the body is the WAL's own record framing (length + CRC32 + payload),
  shipped verbatim; every CRC is re-checked here and a mismatch drops the
  connection (the re-request re-reads the record from the primary's disk);
* a ``409`` means the generation was compacted away: fetch the new base
  snapshot via ``GET /wal/snapshot``, install it and advance the store to
  the new generation at cursor 0.
"""

from __future__ import annotations

import hashlib
import os
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.ingest.engine import IngestEngine
from repro.ingest.store import GenerationChanged, GenerationStore, PathLike
from repro.io.walformat import CHECKSUM_MISMATCH, decode_document, iter_frames
from repro.kmers.extraction import KmerDocument
from repro.serve.client import Connection, ServeClientError


class ReplicaError(RuntimeError):
    """A standby-side replication failure (stream damage, read-only writes)."""


def _fetch_snapshot(primary: Connection, store: GenerationStore) -> Tuple[Path, int]:
    """Download the primary's current base artifact into *store*; returns
    ``(path, generation)``.

    Verified against the primary's ``X-Content-Sha256`` before the store
    renames it into place — a snapshot is raw bitmap bytes with no
    per-record CRC of its own, so transfer damage here would otherwise
    rotate straight into the standby's serving path.
    """
    with primary.stream("/wal/snapshot") as (headers, chunks):
        generation = int(headers.get("X-Wal-Generation", "0"))
        expected_digest = headers.get("X-Content-Sha256")

        def download(tmp: Path) -> None:
            digest = hashlib.sha256()
            with open(tmp, "wb") as handle:
                for chunk in chunks:
                    digest.update(chunk)
                    handle.write(chunk)
            if expected_digest is not None and digest.hexdigest() != expected_digest:
                raise ReplicaError(
                    f"snapshot transfer from {primary.base_url} failed its checksum "
                    f"(generation {generation}); retrying"
                )

        return store.install_snapshot(generation, download), generation


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
        self.primary_url = primary_url.rstrip("/")
        self.peer_id = peer_id or f"replica-{os.getpid()}"
        self.promote_kwargs = dict(promote_kwargs or {})
        self.poll_wait_s = float(poll_wait_s)
        self.max_read_bytes = int(max_read_bytes)
        self.backoff_s = float(backoff_s)
        self.backoff_cap_s = float(backoff_cap_s)
        self.read_timeout_s = float(read_timeout_s)
        self.store = GenerationStore(wal_dir, fsync=fsync, segment_bytes=segment_bytes)
        if self.store.read_manifest() is None:
            raise ReplicaError(
                f"{self.store.directory} holds no manifest; use ReplicaEngine.bootstrap()"
            )
        # Resume after a standby crash: recovery replays whatever this node
        # durably applied — the cursor picks up exactly there, never
        # re-acking records that did not survive.
        self.store.recover(service)
        self.applied = self.store.wal.committed_records
        self.primary_records = self.applied
        self.ready = False
        self.last_error: Optional[str] = None
        self.reconnects = 0
        self.snapshot_fetches = 0
        self.applied_batches = 0
        self.applied_documents = 0
        self._last_progress = time.monotonic()
        self._stop = threading.Event()
        # Socket timeouts bound how long a byzantine stream (a stalled proxy,
        # a flipped byte in the chunk framing) can wedge the tailer, and how
        # long a wedged ack endpoint stalls the apply path acks run in.
        self._primary = Connection(self.primary_url, self.poll_wait_s + self.read_timeout_s)
        self._acks = Connection(self.primary_url, 2.0)
        self._thread: Optional[threading.Thread] = None
        self._promoted: Optional[IngestEngine] = None

    @property
    def generation(self) -> int:
        """The generation this standby serves and tails."""
        return self.store.generation

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

        store = GenerationStore(wal_dir, fsync=fsync)
        snapshot_path = store.committed_snapshot()
        if snapshot_path is None:
            primary = Connection(primary_url, connect_timeout_s)
            deadline = time.monotonic() + connect_timeout_s
            delay = 0.05
            while True:
                try:
                    snapshot_path, generation = _fetch_snapshot(primary, store)
                    break
                except (ServeClientError, ReplicaError):
                    if time.monotonic() >= deadline:
                        raise
                    time.sleep(delay)
                    delay = min(delay * 2, 1.0)
            service = QueryService.open(str(snapshot_path), **(service_opts or {}))
            store.write_manifest(
                generation, snapshot_path.name, service.snapshots.active.index.config
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
        with self.store.lock:
            if self._promoted is not None:
                return
            self.store.apply(documents, sync=True, fresh=True)
            self.applied = self.store.wal.committed_records
            self.primary_records = max(self.primary_records, self.applied)
            self.applied_batches += 1
            self.applied_documents += len(documents)
            self._last_progress = time.monotonic()
        self._send_ack()

    def _send_ack(self) -> None:
        """Report the durable cursor to the primary (advisory: a lost ack
        only delays the semi-sync quorum until the next one)."""
        cursor = {"peer": self.peer_id, "generation": self.generation, "records": self.applied}
        try:
            self._acks.request("POST", "/wal/ack", cursor)
        except ServeClientError:
            pass

    def _consume_frames(self, buffer: bytes) -> bytes:
        """Apply every complete frame in *buffer*; returns the unconsumed tail.

        A CRC or framing failure raises — the tail loop drops the
        connection and resumes from the durable cursor, re-reading the
        damaged record from the primary's disk.
        """
        frames = iter_frames(buffer)
        documents: List[KmerDocument] = [
            decode_document(buffer[start:end]) for start, end in frames
        ]
        if frames.torn_reason == CHECKSUM_MISMATCH:
            raise ReplicaError(
                f"stream record at cursor {self.applied + len(documents)} "
                f"failed its CRC check"
            )
        if documents:
            self._apply(documents)
        return buffer[frames.end :]

    # -- the tail loop -----------------------------------------------------------------

    def start(self) -> None:
        if self._thread is not None:
            return
        self._thread = threading.Thread(
            target=self._tail_loop, name="repro-replica-tail", daemon=True
        )
        self._thread.start()

    def _stream_once(self) -> None:
        path = (
            f"/wal/stream?generation={self.generation}&offset={self.applied}"
            f"&wait_s={self.poll_wait_s}&max_bytes={self.max_read_bytes}"
        )
        try:
            with self._primary.stream(path) as (headers, chunks):
                advertised = int(headers.get("X-Wal-Records", "-1"))
                self.primary_records = max(self.primary_records, advertised)
                # Refresh the ack lease on every (re)connect, not just on
                # apply: an idle pair must not drift past the primary's peer
                # TTL and silently degrade semi-sync while the standby is healthy.
                self._send_ack()
                buffer = b""
                # Caught up once it holds all the primary had committed when it
                # answered: at once on an idle pair, not after the first poll.
                if self.applied >= self.primary_records:
                    self.ready = True
                for chunk in chunks:
                    buffer = self._consume_frames(buffer + chunk)
                    if self.applied >= self.primary_records:
                        self.ready = True
        except ServeClientError as exc:
            if exc.status == 409:
                # The primary's own GenerationChanged, carried back over the wire.
                raise GenerationChanged(int((exc.record or {}).get("generation", -1))) from exc
            raise
        if buffer:
            raise ReplicaError(f"stream ended mid-frame ({len(buffer)} dangling bytes)")

    def _follow_generation(self, generation: int) -> None:
        """Re-sync after a primary compaction: install its snapshot, then the
        same ``advance()`` the primary's compaction ended in, cursor back to 0."""
        self.snapshot_fetches += 1
        snapshot_path, fetched_generation = _fetch_snapshot(self._primary, self.store)
        if generation >= 0 and fetched_generation < generation:
            raise ReplicaError(
                f"primary served snapshot generation {fetched_generation} "
                f"but advertised {generation}"
            )
        with self.store.lock:
            if self._promoted is not None:
                return
            # Reset the cursor BEFORE the new generation becomes visible:
            # progress is read lock-free (healthz lag, catch-up polls), and
            # new-generation + stale old-generation `applied` would read as
            # "caught up" while the new generation's records are unapplied.
            # The safe direction — old generation + zero applied — only ever
            # reads as transient lag.
            self.applied = 0
            self.primary_records = 0
            self.store.advance(fetched_generation, snapshot_path)
        self._send_ack()

    def _tail_loop(self) -> None:
        delay = self.backoff_s
        while not self._stop.is_set():
            try:
                try:
                    self._stream_once()
                    self.last_error = None
                except GenerationChanged as moved:
                    self._follow_generation(moved.generation)
                delay = self.backoff_s
            except Exception as exc:  # noqa: BLE001 - retried with backoff
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
        return self.store.delta.num_documents

    def lag_records(self) -> int:
        with self.store.lock:
            return max(0, self.primary_records - self.applied)

    def stats(self) -> Dict:
        with self.store.lock:
            lag = self.lag_records()
            lag_seconds = (
                0.0 if lag == 0 else round(time.monotonic() - self._last_progress, 3)
            )
            record = self.store.stats()
            record["replication"] = {
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
            }
            return record

    def healthz(self) -> Dict:
        with self.store.lock:
            return self.store.healthz(
                self.role,
                ready=bool(self.ready and self._promoted is None),
                replication_lag=self.lag_records(),
            )

    # -- promote / lifecycle -----------------------------------------------------------

    def _stop_tailing(self, join_timeout_s: float = 10.0) -> None:
        self._stop.set()
        # Wakes the tailer wherever it is blocked — stream, snapshot
        # download or ack — instead of waiting out the primary's long poll.
        self._primary.abort()
        self._acks.abort()
        thread = self._thread
        if thread is not None and thread is not threading.current_thread():
            # A tailer stuck connecting to a dead primary can outlive the
            # join; that is safe — every apply/follow path re-checks the
            # stop flag and the promoted guard under the lock — so callers
            # on a failover clock pass a short timeout and move on.
            thread.join(timeout=join_timeout_s)

    def promote(self, **overrides) -> IngestEngine:
        """Promote this standby to a primary; returns the new engine.

        Idempotent, and a role flip rather than a restart: the tailer is
        stopped and the *live* store — open WAL, live delta, published
        overlay — is handed to an :class:`~repro.ingest.engine.IngestEngine`
        that adopts it.  What the store holds is exactly what this standby
        durably applied, which *is* the promote commit point: acknowledged
        writes the dead primary streamed out survive; whatever it never
        shipped was, by semi-sync definition, never acknowledged under
        ``replica_ack >= 1``.  A tailer that outlived its join cannot write
        behind the new primary's back: ``_apply`` and ``_follow_generation``
        take the store's lock — now the engine's too — and re-check
        ``_promoted`` before touching it.
        """
        with self.store.lock:
            if self._promoted is not None:
                return self._promoted
        self._stop_tailing(join_timeout_s=1.0)
        with self.store.lock:
            if self._promoted is None:
                self._promoted = IngestEngine.adopt(
                    self.store, **{**self.promote_kwargs, **overrides}
                )
                self.store.service.attach_ingest(self._promoted)
            return self._promoted

    def close(self) -> None:
        if self._promoted is not None:
            return
        self._stop_tailing()
        self.store.close()

    def __enter__(self) -> "ReplicaEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

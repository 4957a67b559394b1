"""Primary-side replication: wake-ups, the ack ledger, the semi-sync quorum.

Standbys read the primary's committed WAL through the store's
:meth:`~repro.ingest.store.GenerationStore.read_committed`, addressed by a
``(generation, record-offset)`` cursor — the offset is the number of
records the standby has durably applied within the generation, so resuming
a dropped stream is just re-requesting the same cursor.  The framed bytes
are shipped verbatim (length + CRC32 + payload, exactly as they sit in the
segment files): the standby re-checks every CRC before applying, so a torn
or corrupted stream is detected record-by-record without any additional
framing layer.  The :class:`ReplicationLog` counts those reads and parks a
caught-up reader until the next commit.

Semi-synchronous mode (``replica_ack > 0``) makes an append wait until
that many standbys have acknowledged the batch's records as durably
applied.  Ack leases expire after ``peer_ttl_s`` without contact: a dead
standby silently degrades the pair to asynchronous replication instead of
wedging every append behind :class:`~repro.ingest.store.ReplicationLagError`.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Dict, Tuple

from repro.ingest.store import GenerationStore, ReplicationLagError


@dataclass
class _PeerState:
    generation: int
    records: int
    last_seen: float


class ReplicationLog:
    """Counted, resumable reads of *store*'s committed WAL + standby ack quorum."""

    def __init__(
        self,
        store: GenerationStore,
        *,
        replica_ack: int = 0,
        ack_timeout_s: float = 30.0,
        peer_ttl_s: float = 30.0,
    ) -> None:
        self.store = store
        self.replica_ack = int(replica_ack)
        self.ack_timeout_s = float(ack_timeout_s)
        self.peer_ttl_s = float(peer_ttl_s)
        self._cond = threading.Condition(threading.Lock())
        self._peers: Dict[str, _PeerState] = {}
        self._closed = False
        self.streams_read = 0
        self.records_streamed = 0
        self.bytes_streamed = 0

    # -- wakeups -----------------------------------------------------------------------

    def notify(self) -> None:
        """Wake blocked stream reads and semi-sync waiters (new commit or
        generation change).  Called by the engine OUTSIDE its ingest lock."""
        with self._cond:
            self._cond.notify_all()

    def close(self) -> None:
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    # -- the read side -----------------------------------------------------------------

    def read(
        self, generation: int, offset: int, *, max_bytes: int = 1 << 20
    ) -> Tuple[bytes, int, int]:
        """A counted :meth:`~repro.ingest.store.GenerationStore.read_committed`:
        ``(data, n_records, committed_records)``."""
        chunk, n_records, committed = self.store.read_committed(generation, offset, max_bytes)
        if n_records:
            with self._cond:
                self.streams_read += 1
                self.records_streamed += n_records
                self.bytes_streamed += len(chunk)
        return chunk, n_records, committed

    def wait_for_records(self, generation: int, offset: int, timeout: float) -> bool:
        """Block until records beyond *offset* commit (or the generation
        moves on); ``False`` on timeout with nothing new."""
        deadline = time.monotonic() + timeout
        with self._cond:
            while not self._closed:
                gen, committed = self.store.position()
                if gen != generation or committed > offset:
                    return True
                remaining = deadline - time.monotonic()
                if not remaining > 0:  # also ends a NaN timeout, which no <= would
                    return False
                self._cond.wait(min(remaining, 0.25))
        return False

    # -- the ack side ------------------------------------------------------------------

    def ack(self, peer: str, generation: int, records: int) -> None:
        """Record a standby's durable-apply cursor (refreshes its lease)."""
        with self._cond:
            self._peers[str(peer)] = _PeerState(
                generation=int(generation),
                records=int(records),
                last_seen=time.monotonic(),
            )
            self._cond.notify_all()

    def _live_peers(self) -> Dict[str, _PeerState]:
        now = time.monotonic()
        return {
            peer: state
            for peer, state in self._peers.items()
            if now - state.last_seen <= self.peer_ttl_s
        }

    def wait_replicated(self, generation: int, records: int) -> bool:
        """Semi-sync gate: wait for ``replica_ack`` standbys to durably
        apply records up to *records* of *generation*.

        A peer already on a later generation counts (compaction made the
        old generation durable in its snapshot).  With no live peers the
        wait degrades to asynchronous and returns immediately — a dead
        standby must not wedge the primary.  Raises
        :class:`ReplicationLagError` on timeout.
        """
        if self.replica_ack <= 0:
            return True
        deadline = time.monotonic() + self.ack_timeout_s
        with self._cond:
            while not self._closed:
                live = self._live_peers()
                satisfied = sum(
                    1
                    for state in live.values()
                    if state.generation > generation
                    or (state.generation == generation and state.records >= records)
                )
                if satisfied >= self.replica_ack or not live:
                    return True
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise ReplicationLagError(
                        f"append durable locally but only {satisfied}/"
                        f"{self.replica_ack} standbys acknowledged "
                        f"(generation {generation}, record {records}) within "
                        f"{self.ack_timeout_s:.1f}s"
                    )
                self._cond.wait(min(remaining, 0.25))
        return True

    # -- observability -----------------------------------------------------------------

    def stats(self) -> Dict:
        generation, committed = self.store.position()
        with self._cond:
            now = time.monotonic()
            live = self._live_peers()
            peers = {
                peer: {
                    "generation": state.generation,
                    "records": state.records,
                    "age_seconds": round(now - state.last_seen, 3),
                    "live": peer in live,
                }
                for peer, state in self._peers.items()
            }
            return {
                "role": "primary",
                "cursor": {"generation": generation, "records": committed},
                "lag_records": 0,
                "lag_seconds": 0.0,
                "replica_ack": self.replica_ack,
                "ack_timeout_s": self.ack_timeout_s,
                "peers": peers,
                "streams_read": self.streams_read,
                "records_streamed": self.records_streamed,
                "bytes_streamed": self.bytes_streamed,
            }

"""Warm-standby replication over the ingest WAL.

The primary side (:class:`~repro.replicate.log.ReplicationLog`) serves the
committed records of the current WAL generation as a resumable byte
stream, keyed by a ``(generation, record-offset)`` cursor; the standby
side (:class:`~repro.replicate.replica.ReplicaEngine`) tails that stream,
replays each record into its *own* WAL + delta overlay (durable apply
before ack), follows primary compactions by fetching the new snapshot,
serves read-only queries throughout, and can be promoted: its live
:class:`~repro.ingest.store.GenerationStore` is handed to a full
:class:`~repro.ingest.engine.IngestEngine` — the promote commit point is
whatever the standby had durably applied.
"""

from repro.ingest.store import GenerationChanged
from repro.replicate.log import ReplicationLog
from repro.replicate.replica import ReplicaEngine

__all__ = [
    "GenerationChanged",
    "ReplicaEngine",
    "ReplicationLog",
]

"""Atomic snapshot rotation: swap a rebuilt index in without dropping queries.

A long-lived server cannot stop the world to pick up a rebuilt index.  The
mmap container already makes *opening* the new file O(metadata); what is
missing is the handover protocol, and that is this module:

* A :class:`Snapshot` wraps one opened index with a process-unique
  monotonically increasing ``snapshot_id`` — the token the answer cache
  keys on — plus a lease count of in-flight query batches.
* The :class:`SnapshotManager` holds the single *active-snapshot pointer*.
  :meth:`SnapshotManager.lease` atomically reads the pointer and increments
  the snapshot's lease count under one lock, so a concurrently arriving
  :meth:`SnapshotManager.swap` can never yank an index out from under a
  batch that already resolved it.  A query batch therefore runs entirely
  against one snapshot: answers are bit-identical to *some* single
  generation, never a mix of two.
* ``swap`` retires the old snapshot immediately (new leases go to the new
  one) and fires the retire callbacks (the service invalidates the cache
  here).  The retired snapshot *drains*: when its last lease is released
  the drained callbacks run and the wrapped index is dropped — for a mapped
  index that releases the mapping, for an in-memory one the arrays.

The protocol is lock-per-transition, not lock-per-query-word: leases are a
counter bump, and the query work itself runs outside the manager lock.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Union

from repro.core.rambo import Rambo
from repro.core.serialization import open_index

PathLike = Union[str, Path]


class Snapshot:
    """One served generation of the index: an opened index plus lease state.

    Instances are created by :class:`SnapshotManager`; user code receives
    them from :meth:`SnapshotManager.lease` / ``.active`` and treats them as
    read-only.  The wrapped index's lazy query caches are primed eagerly so
    concurrent readers never race on their construction.

    **Read ``index`` under a lease.**  ``drained`` turns true (once, under
    the manager's lock) when a retired snapshot's last lease is released,
    and ``index`` is dropped right after.  Whoever published the index may
    rely on that: the ingest side rewrites the memory a drained snapshot's
    delta overlay probed (:class:`repro.ingest.overlay.LiveDelta`).  A
    reader that keeps ``snapshot.index`` past its lease — or takes it from
    ``SnapshotManager.active`` without one and keeps it across a swap — is
    outside the snapshot contract.
    """

    def __init__(self, snapshot_id: int, index: Rambo, path: Optional[PathLike] = None) -> None:
        self.snapshot_id = snapshot_id
        self.index: Optional[Rambo] = index
        self.path = str(path) if path is not None else None
        self.leases = 0
        self.retired = False
        self.drained = False
        # Build the member/assignment/bit-cache arrays now, while this
        # snapshot is not yet visible to any client thread: after this the
        # query path only ever reads them.
        if index.num_documents:
            index._refresh_member_arrays()  # noqa: SLF001 - deliberate pre-warm

    def describe(self) -> Dict:
        """JSON-ready summary (id, path, document count, mapped flag)."""
        return {
            "snapshot_id": self.snapshot_id,
            "path": self.path,
            "documents": self.index.num_documents if self.index is not None else 0,
            "mapped": self.index.is_mapped if self.index is not None else False,
            "retired": self.retired,
            "leases": self.leases,
        }

    def __repr__(self) -> str:
        state = "drained" if self.drained else ("retired" if self.retired else "active")
        documents = self.index.num_documents if self.index is not None else 0
        return (
            f"Snapshot(id={self.snapshot_id}, documents={documents}, "
            f"{state}, leases={self.leases})"
        )


class SnapshotManager:
    """The atomic active-index pointer behind a query service.

    Parameters
    ----------
    index:
        The initially served index (any :class:`Rambo`, in-memory or
        mapped).
    path:
        Optional provenance of *index*, recorded in stats and used by
        :meth:`rotate_from` bookkeeping.
    """

    def __init__(self, index: Rambo, path: Optional[PathLike] = None) -> None:
        self._lock = threading.Lock()
        self._next_id = 1
        self._active = Snapshot(self._next_id, index, path)
        self._retired: List[Snapshot] = []
        self._drained_total = 0
        self._on_retire: List[Callable[[Snapshot], None]] = []
        self._on_drained: List[Callable[[Snapshot], None]] = []

    @classmethod
    def open(cls, path: PathLike, mode: str = "r") -> "SnapshotManager":
        """Create a manager serving the index file at *path* (format auto-detected)."""
        return cls(open_index(path, mode=mode), path)

    # -- pointer reads ------------------------------------------------------------------

    @property
    def active(self) -> Snapshot:
        """The currently served snapshot (the atomic pointer's value)."""
        with self._lock:
            return self._active

    @property
    def retired_snapshots(self) -> List[Snapshot]:
        """Retired-but-not-yet-drained snapshots (normally empty or one)."""
        with self._lock:
            return list(self._retired)

    @contextmanager
    def lease(self) -> Iterator[Snapshot]:
        """Pin the active snapshot for the duration of a query batch.

        The pointer read and the lease increment happen under one lock, so
        the yielded snapshot is guaranteed not to drain while the batch
        runs, even if a swap retires it concurrently.  Always release via
        the context manager; the release is what lets a retired snapshot
        finish draining.
        """
        with self._lock:
            snapshot = self._active
            snapshot.leases += 1
        try:
            yield snapshot
        finally:
            self._release(snapshot)

    def _release(self, snapshot: Snapshot) -> None:
        drained = None
        with self._lock:
            snapshot.leases -= 1
            if snapshot.retired and snapshot.leases == 0 and not snapshot.drained:
                snapshot.drained = True
                self._retired.remove(snapshot)
                self._drained_total += 1
                drained = snapshot
        if drained is not None:
            for callback in self._on_drained:
                callback(drained)
            # Drop the index reference: for a mapped index this releases the
            # file mapping once no result object needs it any more.
            drained.index = None

    # -- rotation -----------------------------------------------------------------------

    def swap(self, index: Rambo, path: Optional[PathLike] = None) -> Snapshot:
        """Atomically make *index* the served snapshot; returns the new one.

        The old snapshot is retired: queries that already hold a lease on it
        finish against it (and their answers remain internally consistent);
        every later :meth:`lease` gets the new snapshot.  Retire callbacks
        fire after the pointer flip, drained callbacks when the old
        snapshot's last lease is released.
        """
        # Prime the incoming index's query caches *before* taking the lock:
        # Snapshot construction is then a cheap no-op re-check, so the
        # pointer flip never stalls client leases behind array building.
        if index.num_documents:
            index._refresh_member_arrays()  # noqa: SLF001 - deliberate pre-warm
        with self._lock:
            old = self._active
            self._next_id += 1
            new = Snapshot(self._next_id, index, path)
            self._active = new
            old.retired = True
            if old.leases == 0 and not old.drained:
                old.drained = True
                self._drained_total += 1
                drained_now: Optional[Snapshot] = old
            else:
                self._retired.append(old)
                drained_now = None
        for callback in self._on_retire:
            callback(old)
        if drained_now is not None:
            for callback in self._on_drained:
                callback(drained_now)
            drained_now.index = None
        return new

    def rotate_from(self, path: PathLike, mode: str = "r") -> Snapshot:
        """Open the index file at *path* and :meth:`swap` it in.

        The open happens *before* the pointer flip, so a malformed file
        raises cleanly and the served snapshot is untouched.
        """
        return self.swap(open_index(path, mode=mode), path)

    # -- observability ------------------------------------------------------------------

    def on_retire(self, callback: Callable[[Snapshot], None]) -> None:
        """Register a callback fired (outside the lock) when a snapshot retires."""
        self._on_retire.append(callback)

    def on_drained(self, callback: Callable[[Snapshot], None]) -> None:
        """Register a callback fired when a retired snapshot's last lease ends."""
        self._on_drained.append(callback)

    def stats(self) -> Dict:
        """JSON-ready rotation state: active snapshot, drain backlog, totals."""
        with self._lock:
            return {
                "active": self._active.describe(),
                "draining": [snapshot.describe() for snapshot in self._retired],
                "rotations": self._next_id - 1,
                "drained_total": self._drained_total,
            }

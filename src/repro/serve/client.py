"""Stdlib client for the serving HTTP API, over the one outbound connection type.

Every outbound exchange — a client call, a standby's WAL stream, snapshot
download and ack — goes through :class:`Connection`, on ``http.client``
alone.  The client speaks exactly the JSON surface of
:mod:`repro.serve.http` and adds nothing on top: term normalisation is
server-side (the server knows the index's ``k``), so a term means the same
thing whether it arrives via this client, ``curl`` or the in-process API.
"""

from __future__ import annotations

import json
import random
import socket
import threading
import time
from contextlib import contextmanager
from http.client import HTTPConnection, HTTPException, HTTPMessage, HTTPResponse, IncompleteRead
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple, Union
from urllib.parse import urlsplit

Term = Union[int, str]


class ServeClientError(RuntimeError):
    """A failed exchange: ``status`` is an error response's HTTP code (its JSON
    error record in ``record``), or ``None`` for a transport failure — after
    which the request's fate is unknown: it may have been applied."""

    def __init__(self, message: str, status: Optional[int] = None, record=None) -> None:
        super().__init__(message)
        self.status = status
        self.record = record


class Connection:
    """One ``http://host:port`` endpoint; every exchange opens its own
    connection and says ``Connection: close``.  Every failure is a
    :class:`ServeClientError`: an HTTP error as ``status=code``, anything
    else (refused, reset, timed out, aborted, a garbled or truncated
    response, a body that is not JSON) as ``None``."""

    def __init__(self, base_url: str, timeout: float) -> None:
        parts = urlsplit(base_url)
        if parts.scheme != "http" or not parts.netloc or parts.path.strip("/"):
            raise ValueError(f"not an http://host:port URL: {base_url!r}")
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self._netloc = parts.netloc
        self._lock = threading.Lock()
        self._sockets: Set[socket.socket] = set()
        self._aborted = False

    def request(self, method: str, path: str, payload: Optional[Dict] = None) -> Dict:
        """One JSON exchange: *payload* (if given) as the body, the decoded record back."""
        with self._exchange(method, path, payload) as response:
            body = b"".join(self._chunks(response))
        try:
            return json.loads(body)
        except ValueError as exc:
            raise self._failed(exc) from exc

    @contextmanager
    def stream(self, path: str) -> Iterator[Tuple[HTTPMessage, Iterator[bytes]]]:
        """``GET`` *path*; yields the headers and an iterator of body chunks that
        ends only at the body's proper end: a body cut short raises."""
        with self._exchange("GET", path, None) as response:
            yield response.headers, self._chunks(response)

    def abort(self) -> None:
        """From any thread: shut down the socket of every exchange in progress
        — a ``recv`` blocked on it wakes at once — and fail every later one."""
        with self._lock:
            self._aborted = True
            for sock in self._sockets:
                try:
                    sock.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass  # already torn down by the peer

    @contextmanager
    def _exchange(self, method: str, path: str, payload: Optional[Dict]) -> Iterator[HTTPResponse]:
        """Send one request; yields its response once the status is a 2xx."""
        headers = {"Connection": "close"}
        body = None
        if payload is not None:
            body = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        connection = HTTPConnection(self._netloc, timeout=self.timeout)
        sock = response = None
        try:
            try:
                connection.connect()
                sock = connection.sock
                with self._lock:
                    if self._aborted:
                        raise ConnectionAbortedError("the connection was aborted")
                    self._sockets.add(sock)
                connection.request(method, path, body=body, headers=headers)
                response = connection.getresponse()
            except (OSError, HTTPException) as exc:
                raise self._failed(exc) from exc
            if not 200 <= response.status < 300:
                raise self._refused(response)
            yield response
        finally:
            # Out of the set before the socket closes: abort() never shuts
            # down a descriptor number that a later socket has reused.
            with self._lock:
                self._sockets.discard(sock)
            if response is not None:
                response.close()
            connection.close()

    def _chunks(self, response: HTTPResponse) -> Iterator[bytes]:
        try:
            yield from iter(lambda: response.read1(1 << 16), b"")
            if response.length:  # a Content-Length body cut short
                raise IncompleteRead(b"", response.length)
        except (OSError, HTTPException) as exc:
            raise self._failed(exc) from exc

    def _failed(self, exc: Exception) -> ServeClientError:
        return ServeClientError(f"connection to {self.base_url} failed: {exc!r}")

    def _refused(self, response: HTTPResponse) -> ServeClientError:
        record, message = None, f"HTTP Error {response.status}: {response.reason}"
        try:
            record = json.loads(response.read())
            message = record["error"]
        except (OSError, HTTPException, ValueError, LookupError, TypeError):
            pass  # the body may not be a JSON error record at all
        return ServeClientError(message, status=response.status, record=record)


class ServeClient:
    """Client for one serving endpoint, e.g. ``ServeClient("http://host:8080")``.

    Every call opens its own connection (what ``perf``'s ``serve_connect`` measures).

    Parameters
    ----------
    base_url:
        Scheme + host + port of the server (any trailing slash is
        stripped).
    timeout:
        Per-request socket timeout in seconds.
    """

    def __init__(self, base_url: str, timeout: float = 30.0) -> None:
        self.connection = Connection(base_url, timeout)
        self.base_url = self.connection.base_url

    def _request(self, path: str, payload: Optional[Dict] = None) -> Dict:
        """One JSON round-trip; POSTs when *payload* is given, GETs otherwise."""
        return self.connection.request("GET" if payload is None else "POST", path, payload)

    def query(
        self,
        terms: Sequence[Term],
        method: str = "full",
        canonical: bool = False,
        coalesce: bool = True,
        backend: Optional[str] = None,
        filters: Optional[Dict] = None,
    ) -> Dict:
        """Per-term answers for *terms*; see ``POST /query`` for the schema.

        *backend* (``"auto"``/``"full"``/``"sparse"``) routes the request
        through the server's cost-based planner and *filters* restricts
        results via the served metadata sidecar; either makes the response
        carry a ``"plan"`` record.
        """
        payload: Dict = {
            "terms": list(terms),
            "method": method,
            "canonical": canonical,
            "coalesce": coalesce,
        }
        if backend is not None:
            payload["backend"] = backend
        if filters is not None:
            payload["filters"] = dict(filters)
        return self._request("/query", payload)

    def query_documents(
        self,
        terms: Sequence[Term],
        method: str = "full",
        canonical: bool = False,
        backend: Optional[str] = None,
        filters: Optional[Dict] = None,
    ) -> List[List[str]]:
        """Just the sorted document-name lists, one per term, in term order."""
        response = self.query(
            terms, method=method, canonical=canonical, backend=backend, filters=filters
        )
        return [entry["documents"] for entry in response["results"]]

    def stats(self, fill: bool = False) -> Dict:
        """The service's stats record (``fill`` adds payload-scanning ratios)."""
        return self._request("/stats?fill=1" if fill else "/stats")

    def healthz(self) -> Dict:
        """Liveness record: ``{"ok": true, "snapshot_id": ..., "documents": ...}``."""
        return self._request("/healthz")

    def rotate(self, path: str, mode: str = "r") -> Dict:
        """Ask the server to swap in the index file at *path* atomically."""
        return self._request("/rotate", {"path": path, "mode": mode})

    def append(
        self,
        documents: Sequence[Dict],
        canonical: bool = False,
        min_count: int = 1,
    ) -> Dict:
        """Durably append *documents* (see ``POST /append`` for the record schema).

        Each record is ``{"name": ..., "terms": [...]}`` (ready codes or
        k-length DNA strings) or ``{"name": ..., "sequences": [...]}`` (raw
        reads, extracted server-side).  The returned acknowledgement means
        the batch is fsynced into the server's WAL and already queryable.
        """
        return self._request(
            "/append",
            {
                "documents": list(documents),
                "canonical": canonical,
                "min_count": min_count,
            },
        )

    def compact(self) -> Dict:
        """Fold the server's delta into a new snapshot generation."""
        return self._request("/compact", {})

    def promote(self) -> Dict:
        """Promote a standby server to primary (idempotent on a primary)."""
        return self._request("/promote", {})


class FailoverClient(ServeClient):
    """A :class:`ServeClient` over an endpoint list that retries and fails over.

    Every call is retried on transport failures, 500s and 503s — a 503 is
    how a replica says "not me, try the primary" — rotating through the
    endpoints with exponential backoff plus jitter until the retry budget
    runs out.  Other 4xx responses raise immediately: the request is wrong.

    A write (``/append``, ``/compact``, ``/promote``) that fails in transport
    has an unknown fate — it may be durable on a node we can no longer
    reach.  Retrying is safe because appends dedupe by document name; when a
    retry lands after the original *did* apply, the server's "already
    indexed" rejection becomes the acknowledgement the caller never got
    (``{"appended": 0, "already_indexed": True}``) — only after an
    unknown-fate failure in the same call, so a true duplicate still raises.

    Parameters
    ----------
    endpoints:
        Base URLs in preference order (the first healthy one sticks until
        it fails).
    timeout:
        Per-request socket timeout, shorter than :class:`ServeClient`'s
        default: failover time is bounded by it.
    retries:
        Retry budget per call (total attempts = ``retries + 1``).
    backoff_s / backoff_cap_s / jitter / rng:
        Backoff between attempts: ``min(cap, backoff * 2**n)`` scaled by
        ``1 + jitter * rng.random()`` (*rng* seedable for tests).
    """

    def __init__(
        self,
        endpoints: Sequence[str],
        *,
        timeout: float = 10.0,
        retries: int = 6,
        backoff_s: float = 0.05,
        backoff_cap_s: float = 1.0,
        jitter: float = 0.5,
        rng: Optional[random.Random] = None,
    ) -> None:
        if isinstance(endpoints, str):
            endpoints = [endpoints]
        if not endpoints:
            raise ValueError("FailoverClient needs at least one endpoint")
        super().__init__(endpoints[0], timeout=timeout)
        self.connections = [Connection(url, timeout) for url in endpoints]
        self.retries = int(retries)
        self.backoff_s = float(backoff_s)
        self.backoff_cap_s = float(backoff_cap_s)
        self.jitter = float(jitter)
        self._rng = rng if rng is not None else random.Random()
        self._lock = threading.Lock()
        self._preferred = 0
        self.failovers = 0
        self.retried_calls = 0
        self.unknown_fate_retries = 0

    def _sleep_backoff(self, attempt: int) -> None:
        base = min(self.backoff_cap_s, self.backoff_s * (2**attempt))
        time.sleep(base * (1.0 + self.jitter * self._rng.random()))

    def _advance(self) -> None:
        with self._lock:
            self._preferred = (self._preferred + 1) % len(self.connections)
            self.failovers += 1

    def _request(self, path: str, payload: Optional[Dict] = None) -> Dict:
        """The round-trip of :meth:`ServeClient._request`, with retry/failover."""
        write = path in ("/append", "/compact", "/promote")
        unknown_fate = False
        last_error: Optional[ServeClientError] = None
        for attempt in range(self.retries + 1):
            if attempt:
                self.retried_calls += 1
                self._sleep_backoff(attempt - 1)
            with self._lock:
                connection = self.connections[self._preferred]
            try:
                return connection.request("GET" if payload is None else "POST", path, payload)
            except ServeClientError as exc:
                last_error = exc
                status = exc.status
                if status is not None and 400 <= status < 500 and status != 503:
                    if (
                        write
                        and unknown_fate
                        and status == 400
                        and "already indexed" in str(exc)
                    ):
                        # The lost attempt DID apply: translate the dedup
                        # rejection back into the acknowledgement the
                        # caller never received.
                        self.unknown_fate_retries += 1
                        return {"appended": 0, "already_indexed": True}
                    raise
                if write and status is None:
                    unknown_fate = True
                self._advance()
        raise ServeClientError(
            f"all {len(self.connections)} endpoints failed after "
            f"{self.retries + 1} attempts; last error: {last_error}",
            status=last_error.status if last_error else None,
        ) from last_error

    def promote(self, endpoint: Optional[str] = None) -> Dict:
        """Promote *endpoint* (or the current preferred node) to primary."""
        if endpoint is None:
            return super().promote()
        target = endpoint.rstrip("/")
        for connection in self.connections:
            if connection.base_url == target:
                return connection.request("POST", "/promote", {})
        raise ValueError(f"{endpoint!r} is not one of this client's endpoints")

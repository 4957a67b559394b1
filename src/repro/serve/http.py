"""Stdlib JSON/HTTP front end over a :class:`~repro.serve.service.QueryService`.

A deliberately dependency-free server: ``http.server.ThreadingHTTPServer``
accepts each client on its own thread, and those threads all funnel into
the service's coalescer — so the thread-per-connection model costs one
blocked thread per in-flight request, not one index probe per request.

Every request, GET or POST, takes one path through
:meth:`ServeRequestHandler._dispatch`: frame the body, check what the node
must have, consume exactly the declared bytes, decode, call the route's
handler, map what it raises.  :data:`ROUTES`, at the end of this module, is
the list of endpoints — each documented beside its entry, and the only
place a new one is added.

A JSON response is 200 with the route's record, or ``{"error": msg}`` with:

``400``
    The request is wrong: an unusable ``Content-Length`` (also closes the
    connection), malformed JSON, a field of the wrong type or out of range,
    or a node that lacks what the route needs (no ``--wal``, no
    replication log).
``404``
    Unknown endpoint.
``409``
    ``/wal/stream`` asked for a generation that compaction has retired; the
    record also carries the current ``"generation"`` to re-sync to.
``503``
    The request is valid but this node cannot take it now — a write sent
    to a read-only replica, a semi-sync append whose standby quorum timed
    out, ``/healthz`` on a standby still catching up.  A
    :class:`~repro.serve.client.FailoverClient` retries or rotates on it.
``500``
    The handler itself failed (``"<route> failed: ..."``).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import select
import socket
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Dict, NamedTuple, Optional, Tuple
from urllib.parse import parse_qs

import numpy as np

from repro.ingest.store import GenerationChanged, ReplicationLagError
from repro.kmers.extraction import (
    KmerDocument,
    document_from_sequences,
    normalise_query_term,
)
from repro.serve.service import QueryService

#: Request bodies above this size are rejected (64 MiB of JSON terms is a
#: mistake, not a query).
MAX_BODY_BYTES = 64 << 20

_REQUIRED = object()


class BadRequest(ValueError):
    """The request itself is at fault: answered 400, never retried as sent."""


class Fields:
    """Typed reads of a request's parameters: a JSON body's members, or a
    query string's.

    Every value a handler uses comes through one of these readers, which
    name the field in their 400 — so ``int()`` / ``float()`` / ``bool()``
    never meet ``1e999``, ``nan``, ``"abc"`` or ``[]`` inside a handler.
    """

    def __init__(self, values: Dict) -> None:
        self._values = values

    @classmethod
    def from_query(cls, query: str) -> "Fields":
        """Each parameter's first value, as the JSON scalar it spells
        (``5``, ``2.5``, ``true``) or else as text."""
        values = {}
        for name, texts in parse_qs(query).items():
            try:
                values[name] = json.loads(texts[0])
            except (ValueError, RecursionError):
                values[name] = texts[0]
        return cls(values)

    def _read(self, name: str, default, kinds: Tuple[type, ...], what: str, accept=None):
        value = self._values.get(name, default)
        if type(value) in kinds and (accept is None or accept(value)):
            return value
        if value is default and default is not _REQUIRED:
            return default
        got = "nothing" if value is _REQUIRED else f"{value!r:.60}"
        raise BadRequest(f"{name!r} must be {what}, got {got}")

    def integer(self, name: str, default, lowest: int) -> int:
        """A JSON integer ``>= lowest`` (not a bool, a float or a digit string)."""
        return self._read(
            name, default, (int,), f"an integer >= {lowest}", lambda v: v >= lowest
        )

    def number(self, name: str, default, lowest: float) -> float:
        """A finite JSON number ``>= lowest``."""
        return self._read(
            name,
            default,
            (int, float),
            f"a finite number >= {lowest}",
            lambda v: lowest <= v < math.inf,
        )

    def text(self, name: str, default=_REQUIRED) -> Optional[str]:
        return self._read(name, default, (str,), "a non-empty string", bool)

    def flag(self, name: str, default: bool) -> bool:
        return bool(
            self._read(name, default, (bool, int), "true or false", lambda v: v in (0, 1))
        )

    def items(self, name: str) -> list:
        return self._read(name, _REQUIRED, (list,), "a non-empty list", bool)

    def mapping(self, name: str) -> Optional[Dict]:
        return self._read(name, None, (dict,), "a JSON object")


class ServeHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer carrying the shared :class:`QueryService`."""

    daemon_threads = True

    def __init__(self, address: Tuple[str, int], service: QueryService, quiet: bool = True):
        self.service = service
        self.quiet = quiet
        super().__init__(address, ServeRequestHandler)

    def shutdown(self) -> None:
        """Stop :meth:`serve_forever` now, not at its next 0.5 s poll: connect
        to our own socket, which wakes its ``select``, until the loop exits.
        (A shorter poll would cost busy request threads GIL time.)"""
        stopper = threading.Thread(target=super().shutdown, name="repro-serve-shutdown")
        stopper.start()
        while stopper.is_alive():
            try:
                socket.create_connection(self.server_address[:2], timeout=0.1).close()
            except OSError:
                pass
            stopper.join(0.005)

    def handle_error(self, request, client_address) -> None:
        """A client that hung up mid-response (an aborted exchange) is routine."""
        if not isinstance(sys.exc_info()[1], ConnectionError):
            super().handle_error(request, client_address)


def _resolve_node(service: QueryService, needs: Optional[str]):
    """What a route's handler works on, as ``(node, refusal)``.

    The one place that duck-types the attached engine (the primary's, a
    standby's, or a test stub with only ``role`` and ``healthz``).  A
    replica's refusal is 503, not 400: the request is valid, this node just
    cannot take it — a :class:`~repro.serve.client.FailoverClient` rotates
    to the primary on that signal.
    """
    engine = service.ingest
    if needs is None:
        return service, None
    if needs == "log":
        log = getattr(engine, "replication", None)
        if log is None:
            return None, (
                400,
                "this node streams no WAL and accepts no replication acks (not a primary)",
            )
        return log, None
    if engine is None or (needs == "store" and getattr(engine, "store", None) is None):
        return None, (400, "streaming ingest is not enabled; restart the server with --wal")
    if needs == "primary" and getattr(engine, "role", "primary") == "replica":
        return None, (
            503,
            "this node is a read-only replica; retry on the primary "
            "(or POST /promote here first)",
        )
    return engine, None


#: Longest a ``/wal/stream`` long poll waits before it checks that its
#: client is still connected.
WAIT_SLICE_S = 0.25


class ServeRequestHandler(BaseHTTPRequestHandler):
    """Runs every request through :meth:`_dispatch` and the :data:`ROUTES` table."""

    server: ServeHTTPServer  # narrowed for the handlers below
    protocol_version = "HTTP/1.1"
    # Transport contract: a response's status line, headers and body are
    # buffered and leave in the single flush ``handle_one_request`` issues
    # after the handler returns, on a socket with Nagle off.  Unbuffered,
    # the body was a second small segment that Nagle held back until the
    # client's delayed ACK (~40 ms) on every keep-alive round trip.
    wbufsize = -1
    disable_nagle_algorithm = True

    # -- the pipeline -------------------------------------------------------------------

    def log_message(self, format: str, *args) -> None:  # noqa: A002 - stdlib signature
        """Per-request stderr logging, silenced by default (quiet server)."""
        if not self.server.quiet:
            super().log_message(format, *args)

    def handle_expect_100(self) -> bool:
        """Send ``100 Continue`` now, ahead of the buffered response.

        The client holds its body back until it has seen this line.
        """
        proceed = super().handle_expect_100()
        self.wfile.flush()
        return proceed

    def _send_json(self, status: int, payload: Dict) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _consume(self, length: int, keep: bool) -> bytes:
        """Take exactly *length* body bytes off the connection.

        Kept when the route will parse them; otherwise discarded in bounded
        chunks, however many there are — left unread, they are what the
        next request on a keep-alive connection would be parsed from.
        """
        if keep:
            return self.rfile.read(length)
        while length > 0:
            chunk = self.rfile.read(min(length, 1 << 20))
            if not chunk:
                break
            length -= len(chunk)
        return b""

    def _dispatch(self) -> None:
        """The one request pipeline; see docs/ARCHITECTURE.md, "Request pipeline"."""
        # Only plain ASCII digits count: ``int()`` would also take ``+5``,
        # ``1_0`` or a padded ``5 ``, which a proxy in front may frame
        # differently.
        declared = self.headers.get("Content-Length") or "0"
        length = int(declared) if declared.isascii() and declared.isdigit() else -1
        path, _, query = self.path.partition("?")
        route = ROUTES.get((self.command, path))
        node, refusal = None, (404, f"unknown endpoint {path!r}")
        if route is not None:
            node, refusal = _resolve_node(self.server.service, route.needs)
        parse = refusal is None and route.body == "json"
        # A body that cannot be framed, or that a JSON route would have to
        # hold in memory past its cap, stays unread — so close the
        # connection rather than parse the next request from mid-body.
        if length < 0 or (parse and not 1 <= length <= MAX_BODY_BYTES):
            self.close_connection = True
            self._send_json(400, {"error": f"bad Content-Length {declared!r}"})
            return
        body = self._consume(length, keep=parse)
        if refusal is not None:
            self._send_json(refusal[0], {"error": refusal[1]})
            return
        try:
            if parse:
                try:
                    payload = json.loads(body.decode("utf-8"))
                except (ValueError, RecursionError) as exc:
                    raise BadRequest(f"malformed JSON body: {exc}") from exc
                if not isinstance(payload, dict):
                    raise BadRequest("JSON body must be an object")
                fields = Fields(payload)
            else:
                fields = Fields.from_query(query)
            reply = route.handler(self, node, fields)
        except ValueError as exc:
            reply = 400, {"error": str(exc)}
        except ReplicationLagError as exc:
            # A semi-sync append that timed out waiting for its standby
            # quorum is locally durable but of unknown replicated fate:
            # 503 tells the failover client to retry (recovery dedupes).
            reply = 503, {"error": f"{path[1:]} failed: {exc}"}
        except GenerationChanged as exc:
            reply = 409, {"error": str(exc), "generation": exc.generation}
        except Exception as exc:  # noqa: BLE001 - surfaced as a 500, not a dead socket
            reply = 500, {"error": f"{path[1:]} failed: {exc}"}
        if reply is not None:  # None: the handler streamed its own response
            self._send_json(*reply)

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        self._dispatch()

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        self._dispatch()

    # -- handlers: (node, typed fields) -> (status, record) -----------------------------

    def _handle_stats(self, service: QueryService, query: Fields):
        return 200, service.stats(fill=query.flag("fill", False))

    def _handle_healthz(self, service: QueryService, _query: Fields):
        """Readiness detail; 503 until the node can serve consistent answers.

        A static server and a recovered primary are ready immediately; a
        replica is ready only once its replay has caught up to the
        primary's cursor (queries before that would silently answer from a
        stale prefix while claiming health).
        """
        snapshot = service.snapshots.active
        record = {
            "ok": True,
            "snapshot_id": snapshot.snapshot_id,
            "documents": snapshot.index.num_documents if snapshot.index else 0,
            "role": "static",
            "ready": True,
            "wal_attached": service.ingest is not None,
            "replication_lag": 0,
        }
        if service.ingest is not None:
            record.update(service.ingest.healthz())
            record["ok"] = bool(record.get("ready", True))
        return (200 if record["ok"] else 503), record

    def _handle_query(self, service: QueryService, body: Fields):
        terms = body.items("terms")
        if not all(
            isinstance(term, str) or (isinstance(term, int) and 0 <= term < 1 << 64)
            for term in terms
        ):
            raise BadRequest("terms must be strings or integer codes in [0, 2**64)")
        method = body.text("method", "full")
        backend = body.text("backend", None)
        filters = body.mapping("filters")
        coalesce = body.flag("coalesce", True)
        k = service.snapshots.active.index.k  # type: ignore[union-attr]
        canonical = body.flag("canonical", False)
        normalised = [normalise_query_term(term, k, canonical=canonical) for term in terms]
        plan = None
        if backend is not None or filters:
            # The planned path: "backend" supersedes "method" (an
            # explicit method is honoured as backend=<method>).
            batch, plan = service.query_planned(
                normalised,
                backend=backend if backend is not None else method,
                filters=filters,
                coalesce=coalesce,
            )
        elif coalesce:
            batch = service.query(normalised, method=method)
        else:
            batch = service.query_direct(normalised, method=method)
        response = {
            "snapshot_id": batch.snapshot_id,
            "results": [
                {
                    "term": term,
                    "documents": sorted(result.documents),
                    "filters_probed": result.filters_probed,
                }
                for term, result in zip(terms, batch.results)
            ],
        }
        if plan is not None:
            response["plan"] = plan
        return 200, response

    def _handle_rotate(self, service: QueryService, body: Fields):
        path, mode = body.text("path"), body.text("mode", "r")
        try:
            snapshot = service.rotate(path, mode=mode)
        except (OSError, ValueError) as exc:  # bad file => client error, state intact
            raise BadRequest(f"rotation failed: {exc}") from exc
        return 200, {
            "snapshot_id": snapshot.snapshot_id,
            "documents": snapshot.index.num_documents if snapshot.index else 0,
            "path": snapshot.path,
        }

    def _parse_append_document(self, record, k: int, canonical: bool, min_count: int):
        """One JSON document record -> :class:`KmerDocument` (raises ValueError)."""
        if not isinstance(record, dict):
            raise ValueError("each document must be a JSON object")
        name = record.get("name")
        if not isinstance(name, str) or not name:
            raise ValueError("document 'name' must be a non-empty string")
        terms = record.get("terms")
        sequences = record.get("sequences")
        if (terms is None) == (sequences is None):
            raise ValueError(
                f"document {name!r} must carry exactly one of 'terms' or 'sequences'"
            )
        if sequences is not None:
            if not isinstance(sequences, list) or not all(
                isinstance(seq, str) for seq in sequences
            ):
                raise ValueError(f"document {name!r}: 'sequences' must be a list of strings")
            return document_from_sequences(
                name, sequences, k=k, canonical=canonical, min_count=min_count
            )
        if not isinstance(terms, list) or not terms:
            raise ValueError(f"document {name!r}: 'terms' must be a non-empty list")
        if set(map(type, terms)) == {int}:
            # Plain int codes pass normalise_query_term unchanged: one numpy
            # pass.  A negative or >= 2**64 code falls through to the
            # per-term path, which owns every error.
            try:
                return KmerDocument(name, np.asarray(terms, dtype=np.uint64))
            except OverflowError:
                pass
        if not all(isinstance(term, (int, str)) for term in terms):
            raise ValueError(f"document {name!r}: terms must be integers or strings")
        normalised = [normalise_query_term(term, k, canonical=canonical) for term in terms]
        for term in normalised:
            if isinstance(term, int) and not 0 <= term < 1 << 64:
                raise ValueError(f"document {name!r}: term {term!r} is not a uint64 code")
        if all(isinstance(term, (int, np.integer)) for term in normalised):
            return KmerDocument(name, np.asarray(normalised, dtype=np.uint64))
        return KmerDocument(name, frozenset(normalised), source_format="text")

    def _handle_append(self, engine, body: Fields):
        records = body.items("documents")
        canonical = body.flag("canonical", False)
        min_count = body.integer("min_count", 1, 1)
        k = self.server.service.snapshots.active.index.k  # type: ignore[union-attr]
        result = engine.append(
            [self._parse_append_document(record, k, canonical, min_count) for record in records]
        )
        return 200, {
            "appended": result.appended,
            "snapshot_id": result.snapshot_id,
            "delta_documents": result.delta_documents,
            "wal_bytes": result.wal_bytes,
        }

    def _handle_compact(self, engine, _query: Fields):
        record = engine.compact()
        if record is None:
            return 200, {"compacted": False}
        return 200, {"compacted": True, **record}

    def _handle_promote(self, engine, _query: Fields):
        promoted = engine.role == "replica"
        if promoted:
            engine = engine.promote()
        return 200, {"promoted": promoted, "role": engine.role, "generation": engine.generation}

    def _handle_wal_ack(self, log, body: Fields):
        # An acknowledged prefix means something only as a definite cursor
        # the primary can compare: whole, non-negative, exactly as sent.
        log.ack(body.text("peer"), body.integer("generation", 0, 0), body.integer("records", 0, 0))
        return 200, {"ok": True, "replica_ack": log.replica_ack}

    def _handle_wal_stream(self, log, query: Fields) -> None:
        """Chunked stream of committed WAL record frames from a cursor.

        The stream long-polls: after draining everything committed it waits
        up to ``wait_s`` for more, and ends cleanly once a wait comes up
        empty — the standby just reconnects with its advanced cursor.  A
        client that hangs up during the wait ends it at the next slice
        (:meth:`_wait_for_records`), with nothing written: the handler
        thread is held only while its reader exists.
        """
        generation = query.integer("generation", 0, 0)
        offset = query.integer("offset", 0, 0)
        wait_s = min(query.number("wait_s", 25.0, 0.0), 60.0)
        max_bytes = min(query.integer("max_bytes", 1 << 20, 0), 32 << 20)
        data, n_records, committed = log.read(generation, offset, max_bytes=max_bytes)
        # The chunked framing below is written by hand; never let a second
        # request parse on this connection.
        self.close_connection = True
        self.send_response(200)
        self.send_header("Content-Type", "application/octet-stream")
        self.send_header("Transfer-Encoding", "chunked")
        self.send_header("Connection", "close")
        self.send_header("X-Wal-Generation", str(generation))
        self.send_header("X-Wal-Start-Offset", str(offset))
        self.send_header("X-Wal-Records", str(committed))
        self.end_headers()
        # The standby reads its lag off these headers: do not let them sit
        # in the write buffer while the first long-poll waits for records.
        self.wfile.flush()
        cursor = offset
        try:
            while True:
                if data:
                    self.wfile.write(b"%x\r\n" % len(data) + data + b"\r\n")
                    self.wfile.flush()
                    cursor += n_records
                elif not self._wait_for_records(log, generation, cursor, wait_s):
                    if self._client_gone():
                        return
                    break  # idle: end the stream, the standby reconnects
                try:
                    data, n_records, _ = log.read(generation, cursor, max_bytes=max_bytes)
                except GenerationChanged:
                    break  # retired mid-stream: the standby's re-request gets the 409
            self.wfile.write(b"0\r\n\r\n")
            self.wfile.flush()
        except Exception as exc:  # noqa: BLE001 - the 200 is already on the wire
            # A JSON error now would land inside the chunked body: end without
            # the terminating chunk — a torn body, never a clean caught-up end.
            self.log_error("wal stream failed at record %d: %r", cursor, exc)

    def _wait_for_records(self, log, generation: int, cursor: int, wait_s: float) -> bool:
        """``log.wait_for_records`` in slices of at most :data:`WAIT_SLICE_S`;
        ``False`` on timeout or as soon as the client is gone."""
        deadline = time.monotonic() + wait_s
        while True:
            remaining = deadline - time.monotonic()
            if log.wait_for_records(generation, cursor, min(max(remaining, 0.0), WAIT_SLICE_S)):
                return True
            if not remaining > WAIT_SLICE_S or self._client_gone():
                return False

    def _client_gone(self) -> bool:
        """Whether the client has closed or reset its end of the connection.

        A stream's client sends nothing after its request, so a readable
        socket means an end-of-file (an empty peek) or a reset.
        """
        readable, _, _ = select.select([self.connection], [], [], 0)
        if not readable:
            return False
        try:
            return not self.connection.recv(1, socket.MSG_PEEK)
        except OSError:
            return True

    def _handle_wal_snapshot(self, engine, _query: Fields) -> None:
        """Stream the serving base artifact (for standby bootstrap/re-sync).

        The store pins file and generation together — compaction can
        unlink the file a moment later, but the open descriptor keeps the
        bytes alive for the duration of the copy (and the standby's next
        stream request would 409 onto the newer generation anyway).
        """
        generation, handle = engine.store.open_base()
        with handle:
            size = os.fstat(handle.fileno()).st_size
            digest = hashlib.sha256()
            for chunk in iter(lambda: handle.read(1 << 16), b""):
                digest.update(chunk)
            handle.seek(0)
            self.send_response(200)
            self.send_header("Content-Type", "application/octet-stream")
            self.send_header("Content-Length", str(size))
            self.send_header("X-Wal-Generation", str(generation))
            self.send_header("X-Content-Sha256", digest.hexdigest())
            self.end_headers()
            try:
                for chunk in iter(lambda: handle.read(1 << 16), b""):
                    self.wfile.write(chunk)
                # The buffered tail goes out here, where a standby that hung
                # up mid-copy is still caught, not in handle_one_request's flush.
                self.wfile.flush()
            except OSError:
                self.close_connection = True


class Route(NamedTuple):
    """One endpoint: only what differs between routes.

    ``body`` — ``"json"``: the request carries a JSON object of 1 to
    :data:`MAX_BODY_BYTES` bytes, read into the handler's :class:`Fields`;
    ``"ignored"``: the route takes its parameters (if any) from the query
    string, and a declared body of any size is discarded.  ``needs`` — what
    :func:`_resolve_node` must find on this node and hands the handler:
    ``None`` (the service), ``"store"`` (an attached engine with a
    generation directory), ``"primary"`` (an attached engine that takes
    writes) or ``"log"`` (a primary's replication log).  A handler returns
    ``(status, record)``, or ``None`` once it has streamed its own response.
    """

    handler: Callable
    body: str = "ignored"
    needs: Optional[str] = None


#: ``(method, path) -> Route``: every endpoint the server has.  Adding one is
#: an entry here plus its handler; the dispatcher does not change.
ROUTES: Dict[Tuple[str, str], Route] = {
    # The service's full stats record (same index schema as ``repro-rambo
    # info --json``); ``?fill=1`` adds the payload-scanning fill statistics.
    ("GET", "/stats"): Route(ServeRequestHandler._handle_stats),
    # ``{"ok", "snapshot_id", "documents", "role", "ready", "wal_attached",
    # "replication_lag"[, "generation"]}`` — cheap liveness; 503 with
    # ``"ok": false`` while a standby has not caught up.
    ("GET", "/healthz"): Route(ServeRequestHandler._handle_healthz),
    # ``{"terms": [...], "method": "full"|"sparse", "backend":
    # "auto"|"full"|"sparse", "filters": {field: value-or-list}, "canonical":
    # bool, "coalesce": bool}``.  Terms may be integer k-mer codes or
    # strings; k-length DNA strings are normalised to codes server-side with
    # the same rule the CLI build/query path uses.  ``backend`` supersedes
    # ``method`` when present: ``"auto"`` lets the cost-based planner pick
    # the evaluation strategy per batch (resolved before coalescing, so auto
    # requests still share ticks), and the response then carries a ``"plan"``
    # record.  ``filters`` restrict results to documents matching the served
    # index's metadata sidecar (normalise-and-match; requires an index built
    # with metadata).  Returns ``{"snapshot_id": id, "results": [{"term":
    # <as sent>, "documents": [...sorted], "filters_probed": n}], "plan":
    # {...}}``.  ``"coalesce": false`` requests the uncoalesced direct path
    # (benchmark baseline).
    ("POST", "/query"): Route(ServeRequestHandler._handle_query, body="json"),
    # ``{"path": "...", "mode": "r"}``: open that index file and swap it in
    # atomically.  In-flight queries drain against the old snapshot.  Returns
    # ``{"snapshot_id", "documents", "path"}``; a file that does not open is
    # a 400 and leaves the served snapshot in place.
    ("POST", "/rotate"): Route(ServeRequestHandler._handle_rotate, body="json"),
    # ``{"documents": [{"name": ..., "terms": [...]} | {"name": ...,
    # "sequences": [...]}], "canonical": bool, "min_count": n >= 1}``.
    # Streaming ingest (``serve --wal``): each document is either a ready
    # term list (codes or k-length DNA strings, normalised like query terms)
    # or raw sequences run through the server-side k-mer extractor.  The
    # batch is WAL-fsynced — and, under ``--replica-ack N``, applied by N
    # standbys — before the 200: the response *is* the durability
    # acknowledgement.  Returns ``{"appended": n, "snapshot_id": id,
    # "delta_documents": n, "wal_bytes": n}``.
    ("POST", "/append"): Route(ServeRequestHandler._handle_append, body="json", needs="primary"),
    # No parameters.  Folds the delta into a new snapshot generation and
    # truncates the WAL; returns the compaction record, or ``{"compacted":
    # false}`` when the delta is empty.
    ("POST", "/compact"): Route(ServeRequestHandler._handle_compact, needs="primary"),
    # No parameters.  Turns a standby into the primary — a role flip on its
    # live generation store — and is idempotent on a node that already is
    # one.  Returns ``{"promoted": bool, "role", "generation"}``.
    ("POST", "/promote"): Route(ServeRequestHandler._handle_promote, needs="store"),
    # ``?generation=G&offset=N&wait_s=S&max_bytes=B``: the committed WAL
    # record frames of generation ``G`` from record ``N`` on, verbatim
    # (length + CRC32 + payload), as a chunked octet stream that long-polls
    # up to ``S`` (<= 60) seconds for more.  ``X-Wal-Generation``,
    # ``X-Wal-Start-Offset`` and ``X-Wal-Records`` (committed so far) lead
    # it.  409 once ``G`` is retired: re-sync from ``/wal/snapshot``.
    ("GET", "/wal/stream"): Route(ServeRequestHandler._handle_wal_stream, needs="log"),
    # The serving base artifact's bytes, for standby bootstrap and re-sync,
    # with its generation in ``X-Wal-Generation`` and ``X-Content-Sha256``
    # to verify the transfer end to end: a snapshot is raw bitmap bytes, and
    # a flipped bit would silently poison every answer the standby serves.
    ("GET", "/wal/snapshot"): Route(ServeRequestHandler._handle_wal_snapshot, needs="store"),
    # ``{"peer": id, "generation": G, "records": N}`` (non-negative
    # integers): standby ``id`` has durably applied the first ``N`` records
    # of generation ``G``.  Refreshes the peer's lease and releases
    # semi-sync appends waiting on that prefix.  Returns ``{"ok": true,
    # "replica_ack": quorum}``.
    ("POST", "/wal/ack"): Route(ServeRequestHandler._handle_wal_ack, body="json", needs="log"),
}


def start_http_server(
    service: QueryService, host: str = "127.0.0.1", port: int = 0, quiet: bool = True
) -> Tuple[ServeHTTPServer, threading.Thread]:
    """Start a server thread for *service*; returns ``(server, thread)``.

    ``port=0`` binds an OS-assigned free port (read it back from
    ``server.server_address``).  The thread is a daemon and serves until
    ``server.shutdown()``; callers own both shutdown and
    ``service.close()``.
    """
    server = ServeHTTPServer((host, port), service, quiet=quiet)
    thread = threading.Thread(
        target=server.serve_forever, name="repro-serve-http", daemon=True
    )
    thread.start()
    return server, thread

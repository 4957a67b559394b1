"""Stdlib JSON/HTTP front end over a :class:`~repro.serve.service.QueryService`.

A deliberately dependency-free server: ``http.server.ThreadingHTTPServer``
accepts each client on its own thread, and those threads all funnel into
the service's coalescer — so the thread-per-connection model costs one
blocked thread per in-flight request, not one index probe per request.
The JSON surface:

``POST /query``
    Body ``{"terms": [...], "method": "full"|"sparse", "backend":
    "auto"|"full"|"sparse", "filters": {field: value-or-list}, "canonical":
    bool, "coalesce": bool}``.  Terms may be integer k-mer codes or
    strings; k-length DNA strings are normalised to codes server-side with
    the same rule the CLI build/query path uses.  ``backend`` supersedes
    ``method`` when present: ``"auto"`` lets the cost-based planner pick
    the evaluation strategy per batch (resolved before coalescing, so auto
    requests still share ticks), and the response then carries a ``"plan"``
    record.  ``filters`` restrict results to documents matching the served
    index's metadata sidecar (normalise-and-match; requires an index built
    with metadata).  Returns ``{"snapshot_id": id, "results": [{"term":
    <as sent>, "documents": [...], "filters_probed": n}], "plan": {...}}``
    with documents sorted.  ``"coalesce": false`` requests the uncoalesced
    direct path (benchmark baseline).

``GET /stats``
    The service's full stats record (same index schema as ``repro-rambo
    info --json``); ``?fill=1`` adds the payload-scanning fill statistics.

``GET /healthz``
    ``{"ok": true, "snapshot_id": id, "documents": n}`` — cheap liveness.

``POST /rotate``
    Body ``{"path": "...", "mode": "r"}``: open that index file and swap it
    in atomically.  In-flight queries drain against the old snapshot.

``POST /append``
    Body ``{"documents": [{"name": ..., "terms": [...]} |
    {"name": ..., "sequences": [...]}], "canonical": bool, "min_count": n}``.
    Streaming ingest (requires ``serve --wal``): each document is either a
    ready term list (codes or k-length DNA strings, normalised like query
    terms) or raw sequences run through the server-side k-mer extractor.
    The batch is WAL-fsynced before the 200 — the response *is* the
    durability acknowledgement.  Returns ``{"appended": n, "snapshot_id":
    id, "delta_documents": n, "wal_bytes": n}``.

``POST /compact``
    No body required.  Folds the delta into a new snapshot generation and
    truncates the WAL; returns the compaction record, or ``{"compacted":
    false}`` when the delta is empty.

Errors come back as ``{"error": msg}`` with 400 (bad request), 404 (unknown
endpoint) or 500 (evaluation failure).
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Optional, Tuple
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


class ServeHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer carrying the shared :class:`QueryService`."""

    daemon_threads = True

    def __init__(self, address: Tuple[str, int], service: QueryService, quiet: bool = True):
        self.service = service
        self.quiet = quiet
        super().__init__(address, ServeRequestHandler)


class ServeRequestHandler(BaseHTTPRequestHandler):
    """Routes the four JSON endpoints onto the service object."""

    server: ServeHTTPServer  # narrowed for the handlers below
    protocol_version = "HTTP/1.1"
    # Transport contract: a response's status line, headers and body are
    # buffered and leave in the single flush ``handle_one_request`` issues
    # after the handler returns, on a socket with Nagle off.  Unbuffered,
    # the body was a second small segment that Nagle held back until the
    # client's delayed ACK (~40 ms) on every keep-alive round trip.
    wbufsize = -1
    disable_nagle_algorithm = True

    # -- plumbing -----------------------------------------------------------------------

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

    def _send_json(self, payload: Dict, status: int = 200) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _send_error_json(self, message: str, status: int) -> None:
        self._send_json({"error": message}, status=status)

    def _content_length(self, lowest: int = 0, highest: Optional[int] = None) -> Optional[int]:
        """The declared body size, or ``None`` after answering 400.

        Only plain ASCII digits count: ``int()`` would also take ``+5``,
        ``1_0`` or a padded ``5 ``, which a proxy in front may frame
        differently.  A rejected body (malformed, negative, outside
        ``[lowest, highest]``) is left unread, so whatever the client sent
        is still on the socket: close the connection rather than let the
        next pipelined request parse from mid-body.
        """
        raw = self.headers.get("Content-Length") or "0"
        length = int(raw) if raw.isascii() and raw.isdigit() else -1
        if length < lowest or (highest is not None and length > highest):
            self.close_connection = True
            self._send_error_json(f"bad Content-Length {raw!r}", 400)
            return None
        return length

    def _read_json_body(self) -> Optional[Dict]:
        length = self._content_length(lowest=1, highest=MAX_BODY_BYTES)
        if length is None:
            return None
        try:
            payload = json.loads(self.rfile.read(length).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            self._send_error_json(f"malformed JSON body: {exc}", 400)
            return None
        if not isinstance(payload, dict):
            self._send_error_json("JSON body must be an object", 400)
            return None
        return payload

    # -- endpoints ----------------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        """Dispatch ``GET /stats``, ``/healthz``, ``/wal/stream`` and ``/wal/snapshot``."""
        path, _, query = self.path.partition("?")
        if path == "/stats":
            self._send_json(self.server.service.stats(fill="fill=1" in query))
        elif path == "/healthz":
            self._handle_healthz()
        elif path == "/wal/stream":
            self._handle_wal_stream(query)
        elif path == "/wal/snapshot":
            self._handle_wal_snapshot()
        else:
            self._send_error_json(f"unknown endpoint {path!r}", 404)

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        """Dispatch the JSON POST endpoints."""
        if self.path == "/query":
            self._handle_query()
        elif self.path == "/rotate":
            self._handle_rotate()
        elif self.path == "/append":
            self._handle_append()
        elif self.path == "/compact":
            self._handle_compact()
        elif self.path == "/wal/ack":
            self._handle_wal_ack()
        elif self.path == "/promote":
            self._handle_promote()
        else:
            self._refuse_unread(f"unknown endpoint {self.path!r}", 404)

    def _handle_healthz(self) -> None:
        """Readiness detail; 503 until the node can serve consistent answers.

        A static server and a recovered primary are ready immediately; a
        replica is ready only once its replay has caught up to the
        primary's cursor (queries before that would silently answer from a
        stale prefix while claiming health).
        """
        service = self.server.service
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
        ingest = service.ingest
        healthz = getattr(ingest, "healthz", None)
        if callable(healthz):
            record.update(healthz())
            record["ok"] = bool(record.get("ready", True))
        self._send_json(record, status=200 if record["ok"] else 503)

    def _handle_query(self) -> None:
        payload = self._read_json_body()
        if payload is None:
            return
        terms = payload.get("terms")
        if not isinstance(terms, list) or not terms:
            self._send_error_json("'terms' must be a non-empty list", 400)
            return
        if not all(isinstance(term, (int, str)) for term in terms):
            self._send_error_json("terms must be integers or strings", 400)
            return
        method = payload.get("method", "full")
        backend = payload.get("backend")
        filters = payload.get("filters")
        if filters is not None and not isinstance(filters, dict):
            self._send_error_json("'filters' must be a JSON object", 400)
            return
        canonical = bool(payload.get("canonical", False))
        coalesce = bool(payload.get("coalesce", True))
        service = self.server.service
        k = service.snapshots.active.index.k  # type: ignore[union-attr]
        normalised = [normalise_query_term(term, k, canonical=canonical) for term in terms]
        plan = None
        try:
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
        except ValueError as exc:
            self._send_error_json(str(exc), 400)
            return
        except Exception as exc:  # noqa: BLE001 - surfaced as a 500, not a dead socket
            self._send_error_json(f"query failed: {exc}", 500)
            return
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
        self._send_json(response)

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

    def _writable_ingest(self):
        """The attached ingest engine, or ``None`` after refusing the request.

        Call it before reading the body (the refusal discards it).  A
        replica answers 503 (not 400): the request is valid, this node
        just cannot take it — a :class:`~repro.serve.client.FailoverClient`
        rotates to the primary on that signal.
        """
        service = self.server.service
        if service.ingest is None:
            self._refuse_unread(
                "streaming ingest is not enabled; restart the server with --wal", 400
            )
            return None
        if getattr(service.ingest, "role", "primary") == "replica":
            self._refuse_unread(
                "this node is a read-only replica; retry on the primary "
                "(or POST /promote here first)",
                503,
            )
            return None
        return service.ingest

    def _handle_append(self) -> None:
        service = self.server.service
        ingest = self._writable_ingest()
        if ingest is None:
            return
        payload = self._read_json_body()
        if payload is None:
            return
        records = payload.get("documents")
        if not isinstance(records, list) or not records:
            self._send_error_json("'documents' must be a non-empty list", 400)
            return
        canonical = bool(payload.get("canonical", False))
        try:
            min_count = int(payload.get("min_count", 1))
        except (TypeError, ValueError):
            self._send_error_json(
                f"'min_count' must be an integer, got {payload.get('min_count')!r}", 400
            )
            return
        k = service.snapshots.active.index.k  # type: ignore[union-attr]
        try:
            documents = [
                self._parse_append_document(record, k, canonical, min_count)
                for record in records
            ]
            result = ingest.append(documents)
        except ValueError as exc:
            self._send_error_json(str(exc), 400)
            return
        except ReplicationLagError as exc:
            # A semi-sync append that timed out waiting for its standby
            # quorum is locally durable but of unknown replicated fate:
            # 503 tells the failover client to retry (recovery dedupes).
            self._send_error_json(f"append failed: {exc}", 503)
            return
        except Exception as exc:  # noqa: BLE001 - surfaced as a 500, not a dead socket
            self._send_error_json(f"append failed: {exc}", 500)
            return
        self._send_json(
            {
                "appended": result.appended,
                "snapshot_id": result.snapshot_id,
                "delta_documents": result.delta_documents,
                "wal_bytes": result.wal_bytes,
            }
        )

    def _drain_body(self) -> bool:
        """Read and discard the request body — fully, however large — so no
        unread bytes corrupt the next pipelined request on this
        keep-alive connection.  ``False`` (400 already sent) when the
        declared length is unusable."""
        remaining = self._content_length()
        if remaining is None:
            return False
        while remaining > 0:
            chunk = self.rfile.read(min(remaining, 1 << 20))
            if not chunk:
                break
            remaining -= len(chunk)
        return True

    def _refuse_unread(self, message: str, status: int) -> None:
        """Answer an error to a request whose body nobody has read.

        The body goes first: left on a keep-alive connection, it is what
        the next request would be parsed from.
        """
        if self._drain_body():
            self._send_error_json(message, status)

    def _handle_compact(self) -> None:
        ingest = self._writable_ingest()
        # /compact takes no parameters, so an empty body is legal.
        if ingest is None or not self._drain_body():
            return
        try:
            record = ingest.compact()
        except Exception as exc:  # noqa: BLE001 - surfaced as a 500, not a dead socket
            self._send_error_json(f"compaction failed: {exc}", 500)
            return
        if record is None:
            self._send_json({"compacted": False})
        else:
            self._send_json({"compacted": True, **record})

    # -- replication -------------------------------------------------------------------

    def _handle_wal_stream(self, query: str) -> None:
        """Chunked stream of committed WAL record frames from a cursor.

        ``?generation=G&offset=N`` resumes at record ``N`` of generation
        ``G``; a 409 (with the current generation in the body) tells the
        standby to re-sync from the snapshot.  The stream long-polls: after
        draining everything committed it waits up to ``wait_s`` for more,
        and ends cleanly once a wait comes up empty — the standby just
        reconnects with its advanced cursor.
        """
        service = self.server.service
        replication = getattr(service.ingest, "replication", None)
        if replication is None:
            self._send_error_json(
                "this node has no primary WAL to stream (not a primary)", 400
            )
            return
        params = parse_qs(query)
        try:
            generation = int(params.get("generation", ["0"])[0])
            offset = int(params.get("offset", ["0"])[0])
            wait_s = min(float(params.get("wait_s", ["25"])[0]), 60.0)
            max_bytes = min(int(params.get("max_bytes", [str(1 << 20)])[0]), 32 << 20)
        except ValueError as exc:
            self._send_error_json(f"bad stream parameters: {exc}", 400)
            return
        try:
            data, n_records, committed = replication.read(
                generation, offset, max_bytes=max_bytes
            )
        except ValueError as exc:
            self._send_error_json(str(exc), 400)
            return
        except GenerationChanged as exc:
            self._send_json(
                {"error": str(exc), "generation": exc.generation}, status=409
            )
            return
        self.send_response(200)
        self.send_header("Content-Type", "application/octet-stream")
        self.send_header("Transfer-Encoding", "chunked")
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
                elif not replication.wait_for_records(generation, cursor, wait_s):
                    break  # idle: end the stream, the standby reconnects
                try:
                    data, n_records, _ = replication.read(
                        generation, cursor, max_bytes=max_bytes
                    )
                except GenerationChanged:
                    break  # retired mid-stream: the standby's re-request gets the 409
            self.wfile.write(b"0\r\n\r\n")
            self.wfile.flush()
        except OSError:
            pass  # standby went away mid-stream; its cursor makes resume safe
        finally:
            # The chunked framing was written by hand; never let a second
            # request parse on this connection.
            self.close_connection = True

    def _handle_wal_snapshot(self) -> None:
        """Stream the serving base artifact (for standby bootstrap/re-sync).

        The store pins file and generation together — compaction can
        unlink the file a moment later, but the open descriptor keeps the
        bytes alive for the duration of the copy (and the standby's next
        stream request would 409 onto the newer generation anyway).

        ``X-Content-Sha256`` carries the artifact's digest so the standby
        can verify the transfer end-to-end: a snapshot is raw bitmap
        bytes, and a flipped bit here would silently poison every answer
        the standby serves after rotating it in.
        """
        ingest = self.server.service.ingest
        if ingest is None:
            self._send_error_json(
                "this node has no WAL directory (not a primary)", 400
            )
            return
        generation, handle = ingest.store.open_base()
        try:
            size = os.fstat(handle.fileno()).st_size
            digest = hashlib.sha256()
            while True:
                chunk = handle.read(1 << 20)
                if not chunk:
                    break
                digest.update(chunk)
            handle.seek(0)
            self.send_response(200)
            self.send_header("Content-Type", "application/octet-stream")
            self.send_header("Content-Length", str(size))
            self.send_header("X-Wal-Generation", str(generation))
            self.send_header("X-Content-Sha256", digest.hexdigest())
            self.end_headers()
            while True:
                chunk = handle.read(1 << 20)
                if not chunk:
                    break
                self.wfile.write(chunk)
            # The buffered tail goes out here, where a standby that hung up
            # mid-copy is still caught, not in handle_one_request's flush.
            self.wfile.flush()
        except OSError:
            self.close_connection = True
        finally:
            handle.close()

    def _handle_wal_ack(self) -> None:
        service = self.server.service
        replication = getattr(service.ingest, "replication", None)
        if replication is None:
            self._refuse_unread(
                "this node accepts no replication acks (not a primary)", 400
            )
            return
        payload = self._read_json_body()
        if payload is None:
            return
        peer = payload.get("peer")
        if not isinstance(peer, str) or not peer:
            self._send_error_json("'peer' must be a non-empty string", 400)
            return
        try:
            generation = int(payload.get("generation", 0))
            records = int(payload.get("records", 0))
        except (TypeError, ValueError):
            self._send_error_json("'generation'/'records' must be integers", 400)
            return
        replication.ack(peer, generation, records)
        self._send_json({"ok": True, "replica_ack": replication.replica_ack})

    def _handle_promote(self) -> None:
        """Promote a standby to primary; idempotent on an existing primary."""
        if not self._drain_body():
            return
        ingest = self.server.service.ingest
        if ingest is None:
            self._send_error_json(
                "nothing to promote: streaming ingest is not enabled", 400
            )
            return
        promote = getattr(ingest, "promote", None)
        if not callable(promote):
            self._send_json(
                {
                    "promoted": False,
                    "role": getattr(ingest, "role", "primary"),
                    "generation": ingest.generation,
                }
            )
            return
        try:
            engine = promote()
        except Exception as exc:  # noqa: BLE001 - surfaced as a 500, not a dead socket
            self._send_error_json(f"promote failed: {exc}", 500)
            return
        self._send_json(
            {"promoted": True, "role": engine.role, "generation": engine.generation}
        )

    def _handle_rotate(self) -> None:
        payload = self._read_json_body()
        if payload is None:
            return
        path = payload.get("path")
        if not isinstance(path, str) or not path:
            self._send_error_json("'path' must be a non-empty string", 400)
            return
        mode = payload.get("mode", "r")
        try:
            snapshot = self.server.service.rotate(path, mode=mode)
        except Exception as exc:  # noqa: BLE001 - bad file => client error, state intact
            self._send_error_json(f"rotation failed: {exc}", 400)
            return
        self._send_json(
            {
                "snapshot_id": snapshot.snapshot_id,
                "documents": snapshot.index.num_documents if snapshot.index else 0,
                "path": snapshot.path,
            }
        )


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

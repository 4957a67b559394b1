"""The write-ahead-log segment format (streaming-ingest durability).

The serving story of :mod:`repro.serve` is read-only: an index is built,
saved as a ``RAMBO2`` container, rotated in.  Streaming ingest
(:mod:`repro.ingest`) accepts documents *while serving*, and its durability
contract — an acknowledged append survives any crash — rests entirely on
this module: every appended document batch is framed, checksummed and
fsynced into a WAL segment **before** the in-memory delta index absorbs it.

Byte-level layout (all integers little-endian), deliberately in the same
family as :mod:`repro.io.diskformat`'s container::

    offset      size        field
    ------      ----        -----
    0           7           magic  b"RWALOG\\n"
    7           1           reserved (zero)
    8           8           header length H (uint64)
    16          H           JSON header (UTF-8)
    16 + H      ...         records, back to back

    record:
    0           4           payload length N (uint32)
    4           4           CRC32 of the payload (uint32)
    8           N           payload

    document payload:
    0           2           name length L (uint16)
    2           L           document name (UTF-8)
    2 + L       1           term kind: 0 = uint64 k-mer codes, 1 = JSON terms
    3 + L       4           term count (kind 0) / JSON byte length (kind 1)
    7 + L       ...         kind 0: count little-endian uint64 words
                            kind 1: JSON array of string terms (UTF-8)

The header pins the :class:`~repro.core.rambo.RamboConfig` and the snapshot
generation the segment extends, so replaying a segment against the wrong
base index fails loudly instead of silently building a divergent delta.
It also pins the ``segment`` index and ``start_record`` — the global
record index of the segment's first record — so a replication catch-up
read can skip whole segments by header instead of walking every frame.

Segment naming within one generation: the first segment is
``wal-GGGGGG.log`` (unchanged from the single-segment era, so pre-rolling
WAL directories replay without migration) and rolled continuations are
``wal-GGGGGG-NNNN.seg`` for ``NNNN >= 1``.  :class:`SegmentedWalWriter`
writes them and :func:`replay_wal_generation` walks them in order.

Crash semantics on replay:

* a record whose length prefix, checksum or payload framing is damaged —
  the torn tail a crash mid-append leaves behind — ends the replay cleanly
  at the last intact record, and :func:`truncate_torn_generation` cuts it
  off before the writer appends again.  Only the *last* segment may be
  torn (a crash can only tear the one being written): torn damage in any
  other is corruption and raises;
* everything *before* the torn tail was fsynced and is replayed exactly;
* a corrupt header (not a torn tail — the header is written and fsynced
  before any append is acknowledged) raises :class:`WalFormatError`.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import BinaryIO, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.rambo import RamboConfig
from repro.kmers.extraction import KmerDocument

PathLike = Union[str, Path]

#: Magic prefix of a WAL segment file.
WAL_MAGIC = b"RWALOG\n"

#: Segment format version written and accepted by this module.
WAL_VERSION = 1

#: Term payload kinds: integer k-mer codes vs JSON-encoded string terms.
TERM_KIND_CODES = 0
TERM_KIND_JSON = 1

_PRELUDE = len(WAL_MAGIC) + 1 + 8  # magic + reserved byte + header length
_RECORD_PREFIX = struct.Struct("<II")  # payload length, crc32


class WalFormatError(ValueError):
    """A WAL segment is malformed beyond torn-tail damage (bad magic,
    version mismatch, or a header that disagrees with the engine's config).

    Torn tails are *not* errors — :func:`replay_wal_generation` reports
    them as data.
    """


def _json_terms(document: KmerDocument) -> List[Union[int, str]]:
    """The document's terms as a deterministic JSON-encodable list.

    Numpy integers are unwrapped to plain ints; the sort key is type-stable
    (ints before strings, each compared within its own type) so a mixed
    int/str term set — legal everywhere else in the stack — frames cleanly
    instead of dying on an int-vs-str comparison.
    """
    plain: List[Union[int, str]] = []
    for term in document.terms:
        if isinstance(term, str):
            plain.append(term)
        elif isinstance(term, (int, np.integer)) and not isinstance(term, bool):
            plain.append(int(term))
        else:
            raise WalFormatError(
                f"document {document.name!r}: term {term!r} of type "
                f"{type(term).__name__} is not WAL-encodable (int or str only)"
            )
    plain.sort(key=lambda t: (isinstance(t, str), t))
    return plain


def validate_document(document: KmerDocument) -> None:
    """Raise :class:`WalFormatError` if *document* cannot be framed.

    The engine runs this in its pre-write validation phase so a bad
    document rejects the batch *before* any WAL bytes are buffered —
    :meth:`SegmentedWalWriter.append` must never discover an unencodable
    document halfway through a batch.
    """
    name_bytes = document.name.encode("utf-8")
    if len(name_bytes) > 0xFFFF:
        raise WalFormatError(
            f"document name too long for the WAL ({len(name_bytes)} bytes)"
        )
    if document.term_codes() is None:
        _json_terms(document)


def encode_document(document: KmerDocument) -> bytes:
    """Frame one document as a WAL record payload (inverse of :func:`decode_document`).

    Genomic documents travel as their raw ``uint64`` code array; string-term
    documents (text corpora) fall back to a JSON term list.  Mixed term sets
    use the JSON form too.
    """
    name_bytes = document.name.encode("utf-8")
    if len(name_bytes) > 0xFFFF:
        raise WalFormatError(f"document name too long for the WAL ({len(name_bytes)} bytes)")
    codes = document.term_codes()
    if codes is not None:
        body = codes.astype("<u8", copy=False).tobytes()
        kind, count = TERM_KIND_CODES, int(codes.size)
    else:
        body = json.dumps(_json_terms(document), separators=(",", ":")).encode("utf-8")
        kind, count = TERM_KIND_JSON, len(body)
    return b"".join(
        (
            struct.pack("<H", len(name_bytes)),
            name_bytes,
            struct.pack("<BI", kind, count),
            body,
        )
    )


def decode_document(payload: bytes) -> KmerDocument:
    """Rebuild a :class:`KmerDocument` from a record payload.

    Raises :class:`WalFormatError` on any framing inconsistency — the replay
    loop treats that exactly like a checksum failure (torn tail).
    """
    try:
        (name_len,) = struct.unpack_from("<H", payload, 0)
        name = payload[2 : 2 + name_len].decode("utf-8")
        kind, count = struct.unpack_from("<BI", payload, 2 + name_len)
        body = payload[7 + name_len :]
        if kind == TERM_KIND_CODES:
            if len(body) != count * 8:
                raise WalFormatError(
                    f"code body holds {len(body)} bytes, expected {count * 8}"
                )
            terms = np.frombuffer(body, dtype="<u8").astype(np.uint64)
        elif kind == TERM_KIND_JSON:
            if len(body) != count:
                raise WalFormatError(
                    f"JSON body holds {len(body)} bytes, expected {count}"
                )
            terms = frozenset(json.loads(body.decode("utf-8")))
        else:
            raise WalFormatError(f"unknown term kind {kind}")
        return KmerDocument(name=name, terms=terms, source_format="wal")
    except WalFormatError:
        raise
    except Exception as exc:  # noqa: BLE001 - any framing damage is one error class
        raise WalFormatError(f"malformed WAL document payload: {exc}") from exc


def fsync_directory(path: Path) -> None:
    """Durably record a directory entry (file creation / rename)."""
    fd = os.open(str(path), os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _read_header(handle: BinaryIO, path: Path) -> Tuple[Dict, int]:
    """``(header, records_offset)`` of the segment open in *handle*, left just past it.

    Raises :class:`WalFormatError` on bad magic, version mismatch, or a
    header that is unparsable or runs past the end of the file — checked
    before it is read, so a damaged length field allocates nothing (the
    header is fsynced at segment creation: damage there is corruption).
    """
    magic = handle.read(len(WAL_MAGIC))
    if magic != WAL_MAGIC:
        raise WalFormatError(f"{path} is not a WAL segment (bad magic {magic!r})")
    handle.read(1)  # reserved
    raw_len = handle.read(8)
    if len(raw_len) != 8:
        raise WalFormatError(f"{path} is truncated inside the segment prelude")
    header_len = int.from_bytes(raw_len, "little")
    if _PRELUDE + header_len > os.fstat(handle.fileno()).st_size:
        raise WalFormatError(f"{path} is truncated inside the segment header")
    try:
        header = json.loads(handle.read(header_len).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise WalFormatError(f"{path} has a corrupt WAL header") from exc
    if not isinstance(header, dict):
        raise WalFormatError(f"{path} WAL header is not a JSON object")
    version = header.get("format_version")
    if version != WAL_VERSION:
        raise WalFormatError(
            f"{path} has unsupported WAL version {version!r} "
            f"(this reader understands version {WAL_VERSION})"
        )
    if "config" not in header or "generation" not in header:
        raise WalFormatError(f"{path} WAL header is missing config/generation")
    return header, _PRELUDE + header_len


#: :attr:`iter_frames.torn_reason` of a frame whose payload fails its CRC32 —
#: the one kind of damage that more bytes cannot repair.
CHECKSUM_MISMATCH = "payload checksum mismatch"


class iter_frames:  # noqa: N801 - an iterator used like a function
    """Iterate the CRC-verified record frames of *buffer* from *offset*.

    Yields the ``(start, end)`` extent of each payload; frames sit back to
    back, so one frame's ``end`` is where the next frame's prefix starts.
    The walk stops before the first frame that is short or fails its
    checksum and yields nothing after it: ``torn_reason`` then says why
    (``None`` when the buffer ended on a frame boundary) and ``end`` is the
    offset just past the last intact frame.  The one decoder of the record
    framing — WAL replay, the primary's committed-prefix reads and the
    standby's stream parser all walk frames through it.
    """

    def __init__(self, buffer: bytes, offset: int = 0) -> None:
        self._view = memoryview(buffer)
        self.end = offset
        self.torn_reason: Optional[str] = None

    def __iter__(self) -> "iter_frames":
        return self

    def __next__(self) -> Tuple[int, int]:
        view, cursor = self._view, self.end
        if self.torn_reason is None and cursor < len(view):
            start = cursor + _RECORD_PREFIX.size
            if start > len(view):
                self.torn_reason = "short record prefix"
            else:
                length, crc = _RECORD_PREFIX.unpack_from(view, cursor)
                if start + length > len(view):
                    self.torn_reason = "record payload extends past EOF"
                elif zlib.crc32(view[start : start + length]) != crc:
                    self.torn_reason = CHECKSUM_MISMATCH
                else:
                    self.end = start + length
                    return start, self.end
        raise StopIteration


def wal_segment_name(generation: int, segment: int = 0) -> str:
    """File name of one WAL segment within a generation.

    Segment 0 keeps the pre-rolling name (``wal-GGGGGG.log``) so existing
    WAL directories replay without migration; rolled continuations are
    ``wal-GGGGGG-NNNN.seg``.
    """
    if segment <= 0:
        return f"wal-{int(generation):06d}.log"
    return f"wal-{int(generation):06d}-{int(segment):04d}.seg"


def wal_segment_paths(directory: PathLike, generation: int) -> List[Path]:
    """Existing segment files of one generation, in segment order.

    Continuation segments without the base ``.log``, or a gap in the
    continuation numbering, mean a file went missing — that is corruption
    (segments are only pruned whole-generation at compaction) and raises.
    """
    directory = Path(directory)
    base = directory / wal_segment_name(generation, 0)
    continuations: List[Tuple[int, Path]] = []
    prefix = f"wal-{int(generation):06d}-"
    for path in directory.glob(f"{prefix}*.seg"):
        try:
            index = int(path.name[len(prefix) : -len(".seg")])
        except ValueError:
            continue
        continuations.append((index, path))
    continuations.sort()
    if not base.exists():
        if continuations:
            raise WalFormatError(
                f"{directory} holds rolled WAL segments for generation "
                f"{generation} but the base segment {base.name} is missing"
            )
        return []
    paths = [base]
    for expected, (index, path) in enumerate(continuations, start=1):
        if index != expected:
            raise WalFormatError(
                f"{directory} is missing WAL segment "
                f"{wal_segment_name(generation, expected)} "
                f"(found {path.name} after {paths[-1].name})"
            )
        paths.append(path)
    return paths


@dataclass
class SegmentInfo:
    """One segment's committed extent, as needed to resume writing or to
    serve a replication catch-up read without re-walking every frame."""

    path: Path
    segment: int
    start_record: int
    records: int
    committed_bytes: int
    data_offset: int

    @property
    def end_record(self) -> int:
        return self.start_record + self.records


@dataclass
class GenerationReplay:
    """The outcome of replaying every segment of one generation.

    ``documents`` concatenates the intact records of all segments in
    order.  Only the final segment may carry torn-tail damage:
    ``torn_bytes`` / ``torn_reason`` describe it, and its entry in
    ``segments`` ends at the intact prefix that
    :func:`truncate_torn_generation` cuts it back to.
    """

    header: Dict
    documents: List[KmerDocument] = field(default_factory=list)
    records: int = 0
    segments: List[SegmentInfo] = field(default_factory=list)
    torn_bytes: int = 0
    torn_reason: Optional[str] = None

    @property
    def generation(self) -> int:
        return int(self.header["generation"])


def _replay_segment(
    path: Path, expected_config: Optional[RamboConfig]
) -> Tuple[Dict, SegmentInfo, List[KmerDocument], int, Optional[str]]:
    """``(header, info, documents, torn_bytes, torn_reason)`` of one segment, read once.

    The walk stops at the first frame that is short, fails its CRC32 or does
    not decode: what follows is a crash's un-acknowledged debris, reported
    (``info.committed_bytes`` ends before it), not raised.  A pinned config
    other than *expected_config* raises — replaying against a differently
    seeded or shaped base would build a silently divergent delta.
    """
    with open(path, "rb") as handle:
        header, data_offset = _read_header(handle, path)
        if expected_config is not None:
            pinned = RamboConfig.from_dict(header["config"])
            if pinned != expected_config:
                raise WalFormatError(
                    f"{path} was written for config {pinned}, "
                    f"cannot replay against {expected_config}"
                )
        data = handle.read()
    documents: List[KmerDocument] = []
    frames = iter_frames(data)
    valid = 0
    for start, end in frames:
        try:
            documents.append(decode_document(data[start:end]))
        except WalFormatError as exc:
            torn_reason: Optional[str] = f"undecodable payload: {exc}"
            break
        valid = end
    else:
        torn_reason = frames.torn_reason
    info = SegmentInfo(
        path=path,
        segment=int(header.get("segment", 0)),
        start_record=int(header.get("start_record", 0)),
        records=len(documents),
        committed_bytes=data_offset + valid,
        data_offset=data_offset,
    )
    return header, info, documents, len(data) - valid, torn_reason


def replay_wal_generation(
    directory: PathLike,
    generation: int,
    expected_config: Optional[RamboConfig] = None,
) -> Optional[GenerationReplay]:
    """Replay every segment of *generation* in order; ``None`` if none exist.

    A torn tail is legal only in the **last** segment — a crash can only
    tear the segment being written, and a new segment is opened only after
    its predecessor's final batch committed.  Torn damage in any earlier
    segment, or a segment whose pinned ``generation``/``segment``/
    ``start_record`` header disagrees with its position, raises
    :class:`WalFormatError`.
    """
    paths = wal_segment_paths(directory, generation)
    if not paths:
        return None
    result: Optional[GenerationReplay] = None
    for position, path in enumerate(paths):
        header, info, documents, torn_bytes, torn_reason = _replay_segment(
            path, expected_config
        )
        if header["generation"] != generation:
            raise WalFormatError(
                f"{path} pins generation {header['generation']!r} but is "
                f"replayed as generation {generation}"
            )
        if info.segment != position:
            raise WalFormatError(
                f"{path} pins segment index {info.segment} but sits at "
                f"position {position} of generation {generation}"
            )
        if result is None:
            result = GenerationReplay(header=header)
        if info.start_record != result.records:
            raise WalFormatError(
                f"{path} pins start_record {info.start_record} but "
                f"{result.records} records precede it"
            )
        if torn_bytes and position != len(paths) - 1:
            raise WalFormatError(
                f"{path} has torn-tail damage ({torn_reason}) but is "
                f"not the final segment of generation {generation} — a "
                f"crash cannot tear a sealed segment; this is corruption"
            )
        result.segments.append(info)
        result.documents.extend(documents)
        result.records += info.records
        result.torn_bytes, result.torn_reason = torn_bytes, torn_reason
    return result


def truncate_torn_generation(replay: GenerationReplay) -> int:
    """Cut the final segment back to its intact prefix; returns bytes dropped.

    Idempotent and durable (ftruncate + fsync): after this the segment ends
    exactly at the last acknowledged record, so the writer can append again
    without interleaving new records with crash debris.
    """
    if replay.torn_bytes <= 0:
        return 0
    tail = replay.segments[-1]
    with open(tail.path, "r+b") as handle:
        handle.truncate(tail.committed_bytes)
        handle.flush()
        os.fsync(handle.fileno())
    return replay.torn_bytes


class SegmentedWalWriter:
    """Append-only writer of one generation's WAL, fsyncing each committed
    batch and rolling to a fresh segment at a size bound.

    A new segment's header (and directory entry) is fsynced before the
    first append; an existing one's header must match *config* and
    *generation*.  After a crash, replay and truncate first and pass the
    replay's ``segments``: writing resumes in the last one.

    The durability contract of :meth:`append`: when it returns, every record
    of the batch is on stable storage (``flush`` + ``os.fsync``).  Only then
    may the engine acknowledge the write or mutate the in-memory delta.

    Rolling bounds two things: the byte range any single replay or
    replication catch-up read must walk, and the copy cost of shipping a
    segment.  ``segment_bytes=0`` disables rolling (one segment per
    generation).  The roll happens *before* a batch once the current
    segment has reached the bound and holds a record, so a batch never
    straddles segments, the per-batch commit unit is unchanged, and no
    segment is left empty when the bound is below the header size.  Any
    group-commit records still buffered in the old segment are synced as
    part of sealing it — sealed segments are always fully committed, which
    is what lets :func:`replay_wal_generation` treat torn damage anywhere
    but the last segment as corruption.
    """

    def __init__(
        self,
        directory: PathLike,
        config: RamboConfig,
        generation: int,
        *,
        segment_bytes: int = 0,
        fsync: bool = True,
        segments: Optional[Sequence[SegmentInfo]] = None,
    ) -> None:
        self.directory = Path(directory)
        self.config = config
        self.generation = int(generation)
        self.segment_bytes = int(segment_bytes)
        self.fsync = fsync
        #: Records committed and fsync batches issued through this writer.
        self.records_appended = 0
        self.sync_count = 0
        # Buffered by ``append(..., sync=False)``, not yet committed.
        self._pending_records = 0
        self._pending_bytes = 0
        # Every segment's committed extent; the last is the one being written.
        self._segments: List[SegmentInfo] = list(segments[:-1]) if segments else []
        if segments:
            tail = segments[-1]
            self._open(tail.segment, tail.start_record, tail.records)
        else:
            self._open(0, 0)

    def _open(self, segment: int, start_record: int, records: int = 0) -> None:
        """Make *segment* the one being written: validate an existing file
        and append after its content, or create it with a durable header."""
        path = self.directory / wal_segment_name(self.generation, segment)
        if path.exists():
            with open(path, "rb") as handle:
                header, data_offset = _read_header(handle, path)
            pinned = RamboConfig.from_dict(header["config"])
            if pinned != self.config or int(header["generation"]) != self.generation:
                raise WalFormatError(
                    f"{path} belongs to another index generation "
                    f"(gen {header['generation']}, config {pinned})"
                )
            segment = int(header.get("segment", segment))
            start_record = int(header.get("start_record", start_record))
            self._handle = open(path, "ab")
            size = self._handle.tell()
        else:
            header_bytes = json.dumps(
                {
                    "format_version": WAL_VERSION,
                    "kind": "rambo-wal",
                    "config": self.config.to_dict(),
                    "generation": self.generation,
                    "segment": segment,
                    "start_record": start_record,
                },
                separators=(",", ":"),
            ).encode("utf-8")
            self._handle = open(path, "wb")
            try:
                self._handle.write(
                    WAL_MAGIC + b"\x00" + len(header_bytes).to_bytes(8, "little") + header_bytes
                )
                self._fsync()
                fsync_directory(self.directory)
            except BaseException:
                self._handle.close()
                raise
            size = data_offset = _PRELUDE + len(header_bytes)
        self._segments.append(SegmentInfo(path, segment, start_record, records, size, data_offset))

    def _fsync(self) -> None:
        self._handle.flush()
        if self.fsync:
            os.fsync(self._handle.fileno())
        self.sync_count += 1

    def _settle(self) -> None:
        """Count the buffered records and bytes as committed (just synced)."""
        current = self._segments[-1]
        current.records += self._pending_records
        current.committed_bytes += self._pending_bytes
        self.records_appended += self._pending_records
        self._pending_records = self._pending_bytes = 0

    @property
    def path(self) -> Path:
        """The segment currently being written (stats / display)."""
        return self._segments[-1].path

    @property
    def size_bytes(self) -> int:
        """Total WAL bytes across all segments, buffered ones included."""
        return sum(info.committed_bytes for info in self._segments) + self._pending_bytes

    @property
    def committed_records(self) -> int:
        """Total committed records in the generation (all segments)."""
        return self._segments[-1].end_record

    @property
    def total_records(self) -> int:
        """Committed plus still-buffered records (group-commit in flight)."""
        return self.committed_records + self._pending_records

    @property
    def segment_count(self) -> int:
        return len(self._segments)

    def segment_infos(self) -> List[SegmentInfo]:
        """Committed extent of every segment, current one included (copies)."""
        return [replace(info) for info in self._segments]

    def append(self, documents: Sequence[KmerDocument], *, sync: bool = True) -> int:
        """Append a document batch (rolling first if the bound is reached);
        returns the generation's total WAL length.

        With ``sync=True`` (the default) one flush+fsync commits the batch
        — the batch is the commit unit, matching the engine's ack
        granularity.  With ``sync=False`` the records are buffered only: a
        group-commit caller batches several appends behind one later
        :meth:`sync` and must not acknowledge anything before it returns.
        The whole batch is encoded before any byte is buffered, and a
        write-path failure truncates the segment back to the batch start:
        a failed append can never leave record bytes behind for a later
        commit to fsync as if they had been acknowledged.
        """
        current = self._segments[-1]
        if (
            self.segment_bytes > 0
            and self._end >= self.segment_bytes
            and current.records + self._pending_records
        ):
            self.sync()
            self._handle.close()
            self._open(current.segment + 1, current.end_record)
        payloads = [encode_document(document) for document in documents]
        start = self._end
        try:
            for payload in payloads:
                self._handle.write(_RECORD_PREFIX.pack(len(payload), zlib.crc32(payload)))
                self._handle.write(payload)
            if sync:
                self._fsync()
        except Exception:
            try:
                # truncate() flushes any buffered partial batch first, then
                # cuts the file back to the batch start; the seek puts the
                # next write there.
                self._handle.truncate(start)
                self._handle.seek(start)
                self._fsync()
            except Exception:
                # Rollback itself failed (dying disk): poison the handle so
                # no later append can commit the orphaned bytes.
                self._handle.close()
            raise
        self._pending_records += len(payloads)
        self._pending_bytes += _RECORD_PREFIX.size * len(payloads) + sum(map(len, payloads))
        if sync:
            self._settle()
        return self.size_bytes

    @property
    def _end(self) -> int:  # the current segment's length, buffered bytes included
        return self._segments[-1].committed_bytes + self._pending_bytes

    def sync(self) -> int:
        """Commit every buffered ``append(..., sync=False)`` batch at once.

        The group-commit durability point: when this returns, all buffered
        records are on stable storage and may be acknowledged.  Returns the
        committed record count.  A failed commit poisons the handle — the
        storage is dying and no later append may silently succeed.
        """
        try:
            self._fsync()
        except Exception:
            self._handle.close()
            raise
        self._settle()
        return self.committed_records

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.close()

    def __enter__(self) -> "SegmentedWalWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

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
Rolled segments (see :class:`SegmentedWalWriter`) additionally pin their
``segment`` index and ``start_record`` — the global record index of the
segment's first record within its generation — so a replication catch-up
read can skip whole segments by header instead of walking every frame.

Segment naming within one generation: the first segment is
``wal-GGGGGG.log`` (unchanged from the single-segment era, so pre-rolling
WAL directories replay without migration) and rolled continuations are
``wal-GGGGGG-NNNN.seg`` for ``NNNN >= 1``.  :func:`replay_wal_generation`
walks them in order; only the *last* segment may carry a torn tail (a
crash can only tear the segment being written), torn damage anywhere
else is corruption and raises.

Crash semantics on replay (:func:`replay_wal`):

* a record whose length prefix, checksum or payload framing is damaged —
  the torn tail a crash mid-append leaves behind — ends the replay cleanly
  at the last intact record; the valid prefix length comes back so the
  engine can truncate the tail before appending again;
* everything *before* the torn tail was fsynced and is replayed exactly;
* a corrupt header (not a torn tail — the header is written and fsynced
  before any append is acknowledged) raises :class:`WalFormatError`.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

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

    Torn tails are *not* errors — :func:`replay_wal` reports them as data.
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
    :meth:`WalWriter.append` must never discover an unencodable document
    halfway through a batch.
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


def read_wal_header(path: PathLike) -> Tuple[Dict, int]:
    """Read and validate a segment header; returns ``(header, records_offset)``.

    Raises :class:`WalFormatError` on bad magic, version mismatch, or a
    header that is unparsable or runs past the end of the file — checked
    before it is read, so a damaged length field allocates nothing (the
    header is fsynced at segment creation: damage there is corruption).
    """
    path = Path(path)
    with open(path, "rb") as handle:
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
        raw_header = handle.read(header_len)
        try:
            header = json.loads(raw_header.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise WalFormatError(f"{path} has a corrupt WAL header") from exc
    version = header.get("format_version")
    if version != WAL_VERSION:
        raise WalFormatError(
            f"{path} has unsupported WAL version {version!r} "
            f"(this reader understands version {WAL_VERSION})"
        )
    if "config" not in header or "generation" not in header:
        raise WalFormatError(f"{path} WAL header is missing config/generation")
    return header, _PRELUDE + header_len


@dataclass
class WalReplay:
    """The outcome of replaying one segment (see :func:`replay_wal`).

    ``valid_bytes`` is the length of the intact prefix — header plus every
    record that decoded and checksummed cleanly; ``torn_bytes`` is whatever
    trailing garbage a crash left after it (0 for a clean segment).
    """

    header: Dict
    documents: List[KmerDocument] = field(default_factory=list)
    records: int = 0
    valid_bytes: int = 0
    torn_bytes: int = 0
    torn_reason: Optional[str] = None

    @property
    def generation(self) -> int:
        return int(self.header["generation"])


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


def replay_wal(path: PathLike, expected_config: Optional[RamboConfig] = None) -> WalReplay:
    """Decode every intact record of a segment, tolerating a torn tail.

    The replay walks records in order and stops at the first frame that is
    short, fails its CRC32, or does not decode — everything from there on is
    the un-acknowledged debris of a crash mid-append and is reported via
    ``torn_bytes`` / ``torn_reason`` rather than raised.  With
    *expected_config* the segment header's pinned config must match exactly
    (:class:`WalFormatError` otherwise): replaying against a differently
    seeded or shaped base would build a silently divergent delta.
    """
    path = Path(path)
    header, offset = read_wal_header(path)
    if expected_config is not None:
        pinned = RamboConfig.from_dict(header["config"])
        if pinned != expected_config:
            raise WalFormatError(
                f"{path} was written for config {pinned}, "
                f"cannot replay against {expected_config}"
            )
    replay = WalReplay(header=header, valid_bytes=offset)
    data = path.read_bytes()
    frames = iter_frames(data, offset)
    for start, end in frames:
        try:
            document = decode_document(data[start:end])
        except WalFormatError as exc:
            replay.torn_reason = f"undecodable payload: {exc}"
            break
        replay.documents.append(document)
        replay.records += 1
        replay.valid_bytes = end
    else:
        replay.torn_reason = frames.torn_reason
    replay.torn_bytes = len(data) - replay.valid_bytes
    return replay


def truncate_torn_tail(path: PathLike, replay: WalReplay) -> int:
    """Cut a replayed segment back to its intact prefix; returns bytes dropped.

    Idempotent and durable (ftruncate + fsync): after this the segment ends
    exactly at the last acknowledged record, so the writer can append again
    without interleaving new records with crash debris.
    """
    if replay.torn_bytes <= 0:
        return 0
    with open(path, "r+b") as handle:
        handle.truncate(replay.valid_bytes)
        handle.flush()
        os.fsync(handle.fileno())
    return replay.torn_bytes


class WalWriter:
    """Append-only writer over one WAL segment, fsyncing each committed batch.

    Creating a writer for a fresh path writes and fsyncs the segment header
    (and the directory entry) immediately — the segment is durable before
    the first append.  Re-opening an existing segment validates its header
    against *config*/*generation* and appends after the intact prefix; call
    :func:`replay_wal` + :func:`truncate_torn_tail` first after a crash.

    The durability contract of :meth:`append`: when it returns, every record
    of the batch is on stable storage (``flush`` + ``os.fsync``).  Only then
    may the engine acknowledge the write or mutate the in-memory delta.
    """

    def __init__(
        self,
        path: PathLike,
        config: RamboConfig,
        generation: int,
        *,
        fsync: bool = True,
        segment: int = 0,
        start_record: int = 0,
    ) -> None:
        self.path = Path(path)
        self.config = config
        self.generation = int(generation)
        self.segment = int(segment)
        self.start_record = int(start_record)
        self.fsync = fsync
        self.records_appended = 0
        self.sync_count = 0
        self._pending_records = 0
        if self.path.exists():
            header, _ = read_wal_header(self.path)
            pinned = RamboConfig.from_dict(header["config"])
            if pinned != config or int(header["generation"]) != self.generation:
                raise WalFormatError(
                    f"{self.path} belongs to another index generation "
                    f"(gen {header['generation']}, config {pinned})"
                )
            self.segment = int(header.get("segment", self.segment))
            self.start_record = int(header.get("start_record", self.start_record))
            self._handle = open(self.path, "ab")
        else:
            header_bytes = json.dumps(
                {
                    "format_version": WAL_VERSION,
                    "kind": "rambo-wal",
                    "config": config.to_dict(),
                    "generation": self.generation,
                    "segment": self.segment,
                    "start_record": self.start_record,
                },
                separators=(",", ":"),
            ).encode("utf-8")
            self._handle = open(self.path, "wb")
            self._handle.write(WAL_MAGIC)
            self._handle.write(b"\x00")
            self._handle.write(len(header_bytes).to_bytes(8, "little"))
            self._handle.write(header_bytes)
            self._commit()
            fsync_directory(self.path.parent)
        self.committed_bytes = self._handle.tell()

    def _commit(self) -> None:
        self._handle.flush()
        if self.fsync:
            os.fsync(self._handle.fileno())
        self.sync_count += 1

    @property
    def size_bytes(self) -> int:
        """Current segment length (committed plus buffered bytes)."""
        return self._handle.tell()

    def append(self, documents: Sequence[KmerDocument], *, sync: bool = True) -> int:
        """Append a document batch; returns the new segment length.

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
        payloads = [encode_document(document) for document in documents]
        start = self._handle.tell()
        try:
            for payload in payloads:
                self._handle.write(
                    _RECORD_PREFIX.pack(len(payload), zlib.crc32(payload))
                )
                self._handle.write(payload)
            if sync:
                self._commit()
        except Exception:
            try:
                # truncate() flushes any buffered partial batch first, then
                # cuts the file back to the last committed record; the seek
                # keeps size_bytes honest for the next append.
                self._handle.truncate(start)
                self._handle.seek(start)
                self._commit()
            except Exception:
                # Rollback itself failed (dying disk): poison the handle so
                # no later append can commit the orphaned bytes.
                self._handle.close()
            raise
        if sync:
            self.records_appended += len(documents)
            self.committed_bytes = self._handle.tell()
        else:
            self._pending_records += len(documents)
        return self._handle.tell()

    def sync(self) -> int:
        """Commit every buffered ``append(..., sync=False)`` batch at once.

        The group-commit durability point: when this returns, all buffered
        records are on stable storage and may be acknowledged.  Returns the
        committed segment length.  A failed commit poisons the handle —
        the storage is dying and no later append may silently succeed.
        """
        try:
            self._commit()
        except Exception:
            self._handle.close()
            raise
        self.records_appended += self._pending_records
        self._pending_records = 0
        self.committed_bytes = self._handle.tell()
        return self.committed_bytes

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.close()

    def __enter__(self) -> "WalWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


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
    order.  Only the final segment may carry torn-tail damage; its
    per-segment :class:`WalReplay` is kept in ``tail`` so
    :func:`truncate_torn_generation` can cut it back.
    """

    header: Dict
    documents: List[KmerDocument] = field(default_factory=list)
    records: int = 0
    segments: List[SegmentInfo] = field(default_factory=list)
    torn_bytes: int = 0
    torn_reason: Optional[str] = None
    tail: Optional[WalReplay] = None

    @property
    def generation(self) -> int:
        return int(self.header["generation"])


def replay_wal_generation(
    directory: PathLike,
    generation: int,
    expected_config: Optional[RamboConfig] = None,
) -> Optional[GenerationReplay]:
    """Replay every segment of *generation* in order; ``None`` if none exist.

    A torn tail is legal only in the **last** segment — a crash can only
    tear the segment being written, and a new segment is opened only after
    its predecessor's final batch committed.  Torn damage in any earlier
    segment, or a segment whose pinned ``segment``/``start_record`` header
    disagrees with its position, raises :class:`WalFormatError`.
    """
    paths = wal_segment_paths(directory, generation)
    if not paths:
        return None
    result: Optional[GenerationReplay] = None
    for position, path in enumerate(paths):
        replay = replay_wal(path, expected_config)
        header = replay.header
        pinned_segment = int(header.get("segment", 0))
        pinned_start = int(header.get("start_record", 0))
        if pinned_segment != position:
            raise WalFormatError(
                f"{path} pins segment index {pinned_segment} but sits at "
                f"position {position} of generation {generation}"
            )
        if result is None:
            result = GenerationReplay(header=header)
        if pinned_start != result.records:
            raise WalFormatError(
                f"{path} pins start_record {pinned_start} but "
                f"{result.records} records precede it"
            )
        if replay.torn_bytes and position != len(paths) - 1:
            raise WalFormatError(
                f"{path} has torn-tail damage ({replay.torn_reason}) but is "
                f"not the final segment of generation {generation} — a "
                f"crash cannot tear a sealed segment; this is corruption"
            )
        _, data_offset = read_wal_header(path)
        result.segments.append(
            SegmentInfo(
                path=path,
                segment=position,
                start_record=result.records,
                records=replay.records,
                committed_bytes=replay.valid_bytes,
                data_offset=data_offset,
            )
        )
        result.documents.extend(replay.documents)
        result.records += replay.records
        if position == len(paths) - 1:
            result.torn_bytes = replay.torn_bytes
            result.torn_reason = replay.torn_reason
            result.tail = replay
    return result


def truncate_torn_generation(replay: GenerationReplay) -> int:
    """Cut the generation's final segment back to its intact prefix."""
    if replay.tail is None or replay.torn_bytes <= 0:
        return 0
    return truncate_torn_tail(replay.segments[-1].path, replay.tail)


class SegmentedWalWriter:
    """A :class:`WalWriter` that rolls to a fresh segment at a size bound.

    Rolling bounds two things: the byte range any single replay or
    replication catch-up read must walk, and the copy cost of shipping a
    segment.  ``segment_bytes=0`` disables rolling (one segment per
    generation — the pre-rolling behaviour).  The roll happens *before* a
    batch once the current segment has reached the bound, so a batch never
    straddles segments and the per-batch commit unit is unchanged.  Any
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
        self._sealed: List[SegmentInfo] = []
        self._sealed_bytes = 0
        self._sealed_records = 0
        self._sealed_syncs = 0
        self._sealed_session_records = 0
        self._tail_resumed_records = 0
        self.rolls = 0
        if segments:
            for info in segments[:-1]:
                self._sealed.append(info)
                self._sealed_bytes += info.committed_bytes
                self._sealed_records += info.records
            tail = segments[-1]
            self._tail_resumed_records = tail.records
            self._writer = WalWriter(
                tail.path,
                config,
                self.generation,
                fsync=fsync,
                segment=tail.segment,
                start_record=tail.start_record,
            )
        else:
            self._writer = WalWriter(
                self.directory / wal_segment_name(self.generation, 0),
                config,
                self.generation,
                fsync=fsync,
            )
        _, self._writer_data_offset = read_wal_header(self._writer.path)

    @property
    def path(self) -> Path:
        """The segment currently being written (stats / display)."""
        return self._writer.path

    @property
    def size_bytes(self) -> int:
        """Total WAL bytes across all segments of this generation."""
        return self._sealed_bytes + self._writer.size_bytes

    @property
    def records_appended(self) -> int:
        """Records committed through *this writer* since it was opened."""
        return self._sealed_session_records + self._writer.records_appended

    @property
    def committed_records(self) -> int:
        """Total committed records in the generation (all segments)."""
        return (
            self._sealed_records
            + self._tail_resumed_records
            + self._writer.records_appended
        )

    @property
    def total_records(self) -> int:
        """Committed plus still-buffered records (group-commit in flight)."""
        return self.committed_records + self._writer._pending_records

    @property
    def sync_count(self) -> int:
        """fsync batches issued across all segments (group-commit metric)."""
        return self._sealed_syncs + self._writer.sync_count

    @property
    def segment_count(self) -> int:
        return len(self._sealed) + 1

    def segment_infos(self) -> List[SegmentInfo]:
        """Committed extent of every segment, current one included."""
        infos = list(self._sealed)
        infos.append(
            SegmentInfo(
                path=self._writer.path,
                segment=self._writer.segment,
                start_record=self._writer.start_record,
                records=self.committed_records - self._writer.start_record,
                committed_bytes=self._writer.committed_bytes,
                data_offset=self._writer_data_offset,
            )
        )
        return infos

    def _maybe_roll(self) -> None:
        if self.segment_bytes <= 0:
            return
        if self._writer.size_bytes < self.segment_bytes:
            return
        self._writer.sync()
        next_segment = self._writer.segment + 1
        next_start = self.committed_records
        sealed = SegmentInfo(
            path=self._writer.path,
            segment=self._writer.segment,
            start_record=self._writer.start_record,
            records=next_start - self._writer.start_record,
            committed_bytes=self._writer.committed_bytes,
            data_offset=self._writer_data_offset,
        )
        self._sealed.append(sealed)
        self._sealed_bytes += sealed.committed_bytes
        self._sealed_records += sealed.records
        self._sealed_syncs += self._writer.sync_count
        self._sealed_session_records += self._writer.records_appended
        self._tail_resumed_records = 0
        self._writer.close()
        self._writer = WalWriter(
            self.directory / wal_segment_name(self.generation, next_segment),
            self.config,
            self.generation,
            fsync=self.fsync,
            segment=next_segment,
            start_record=next_start,
        )
        _, self._writer_data_offset = read_wal_header(self._writer.path)
        self.rolls += 1

    def append(self, documents: Sequence[KmerDocument], *, sync: bool = True) -> int:
        """Append a batch (rolling first if the bound is reached); returns
        the generation's total WAL length."""
        self._maybe_roll()
        self._writer.append(documents, sync=sync)
        return self.size_bytes

    def sync(self) -> int:
        """Commit buffered group-commit batches; returns committed records."""
        self._writer.sync()
        return self.committed_records

    def close(self) -> None:
        self._writer.close()

    def __enter__(self) -> "SegmentedWalWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

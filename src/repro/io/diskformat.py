"""The memory-mapped on-disk container (format version 2), the only one written.

The paper's serving story is build-once / query-many at archive scale: a
1.8TB index distilled from 170TB of reads is shipped to query nodes that
must start answering immediately.  Loading such an index into fresh
in-memory arrays reads the whole payload and holds it twice during the
copy; this container instead lays the raw bit-array words out contiguously
so a server can ``mmap`` the file and let
:class:`repro.bloom.bitarray.BitArray` wrap read-only views — opening costs
one small header read, and the batched probe kernel pages in only the words
a query actually touches.

Byte-level layout (all integers little-endian)::

    offset      size        field
    ------      ----        -----
    0           7           magic  b"RAMBO2\\n"
    7           1           reserved (zero)
    8           8           header length H (uint64)
    16          H           JSON header (UTF-8)
    16 + H      0..7        zero padding to the next 8-byte boundary
    P           N           payload: raw little-endian uint64 words, C-order

where ``P = ceil((16 + H) / 8) * 8`` and ``N`` is the payload byte count
recorded in the header.  The JSON header always carries ``format_version``
(2), ``kind`` (``"rambo"`` or ``"cobs"``) and a ``payload`` descriptor
(``{"shape": [...], "nbytes": N}``); everything else is kind-specific
metadata (config, document names, partition assignments).

This module owns only the container: magic/version framing, header
round-trip, payload mapping and integrity checks.  Index-specific packing
lives next to each index (:mod:`repro.core.serialization` for RAMBO,
:meth:`repro.baselines.cobs.CobsIndex.save_mmap` for COBS).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict, Sequence, Tuple, Union

import numpy as np

PathLike = Union[str, Path]

#: Magic prefix of the v2 (memory-mapped) container.
MAGIC_V2 = b"RAMBO2\n"

#: Magic prefix of the retired v1 (load-into-memory) container: nothing
#: writes it any more, :mod:`repro.core.serialization` still reads it, and
#: it is recognised here so format detection has a single home.
MAGIC_V1 = b"RAMBO1\n"

#: Container format version written and accepted by this module.
FORMAT_VERSION = 2

#: On-disk word dtype: 64-bit little-endian, matching
#: :meth:`repro.bloom.bitarray.BitArray.to_bytes`.
WORD_DTYPE = np.dtype("<u8")

_PRELUDE = len(MAGIC_V2) + 1 + 8  # magic + reserved byte + header length


class DiskFormatError(ValueError):
    """A container file is malformed, truncated or of an unsupported version.

    Subclasses :class:`ValueError` so callers that catch the v1 reader's
    errors catch these too.
    """


def _require_little_endian() -> None:
    if sys.byteorder != "little":
        raise DiskFormatError(
            "the mmap container stores little-endian words and zero-copy "
            "serving is only supported on little-endian hosts"
        )


def _align8(offset: int) -> int:
    return (offset + 7) & ~7


def detect_format(path: PathLike) -> str:
    """Classify an index file by magic: ``"v1"`` or ``"mmap"``.

    Raises :class:`DiskFormatError` when the file starts with neither magic,
    and lets :class:`FileNotFoundError` propagate for missing paths.
    """
    path = Path(path)
    with open(path, "rb") as handle:
        prefix = handle.read(len(MAGIC_V2))
    if prefix == MAGIC_V1:
        return "v1"
    if prefix == MAGIC_V2:
        return "mmap"
    raise DiskFormatError(f"{path} is not a RAMBO index file (bad magic {prefix!r})")


def write_container(path: PathLike, header: Dict, payload: Union[np.ndarray, Sequence]) -> int:
    """Write one v2 container; returns the number of bytes written.

    Parameters
    ----------
    header:
        JSON-serialisable metadata.  ``format_version`` defaults to
        :data:`FORMAT_VERSION` if absent (tests craft mismatched versions on
        purpose); the ``payload`` descriptor is filled in here.
    payload:
        The index's backing words: one ``uint64`` array, or a sequence of
        equally shaped ones (RAMBO's per-repetition planes) written back to
        back — the bytes of their stack, without materialising it.  The
        shape is recorded so the opener can map it back without reshaping
        arithmetic of its own.

    Raises
    ------
    DiskFormatError
        If a payload part is not ``uint64`` or the parts disagree on shape.
    """
    single = isinstance(payload, np.ndarray)
    parts = [payload] if single else list(payload)
    for part in parts:
        if part.dtype != np.uint64:
            raise DiskFormatError(f"payload must be uint64 words, got dtype {part.dtype}")
        if part.shape != parts[0].shape:
            raise DiskFormatError(f"payload parts disagree on shape: {part.shape}")
    shape = payload.shape if single else (len(parts), *parts[0].shape)
    header = dict(header)
    header.setdefault("format_version", FORMAT_VERSION)
    header["payload"] = {"shape": list(shape), "nbytes": sum(part.nbytes for part in parts)}
    header_bytes = json.dumps(header, separators=(",", ":")).encode("utf-8")
    payload_offset = _align8(_PRELUDE + len(header_bytes))
    padding = payload_offset - (_PRELUDE + len(header_bytes))

    path = Path(path)
    with open(path, "wb") as handle:
        handle.write(MAGIC_V2)
        handle.write(b"\x00")
        handle.write(len(header_bytes).to_bytes(8, "little"))
        handle.write(header_bytes)
        handle.write(b"\x00" * padding)
        # tofile streams the words (in C order) without materialising a
        # bytes copy of the payload (which at serving scale would double
        # peak memory); it writes through the fd directly, so flush the
        # buffered prelude first to keep the bytes in order.
        handle.flush()
        for part in parts:
            part.astype(WORD_DTYPE, copy=False).tofile(handle)
    return path.stat().st_size


def read_container_header(path: PathLike) -> Tuple[Dict, int]:
    """Read and validate a v2 header; returns ``(header, payload_offset)``.

    This is the *only* read the open path performs — the payload itself is
    never touched, so opening stays O(header) no matter how large the index
    is.  The file length is checked against the header's payload descriptor,
    which rejects truncated files and trailing garbage up front instead of
    letting a query fault half-way through a mapped probe.

    Raises
    ------
    DiskFormatError
        On bad magic, an unsupported ``format_version``, an unparsable
        header, or a file size that disagrees with the payload descriptor.
    """
    path = Path(path)
    file_size = path.stat().st_size
    with open(path, "rb") as handle:
        magic = handle.read(len(MAGIC_V2))
        if magic != MAGIC_V2:
            raise DiskFormatError(
                f"{path} is not a RAMBO mmap index (bad magic {magic!r})"
            )
        handle.read(1)  # reserved
        header_len = int.from_bytes(handle.read(8), "little")
        if _PRELUDE + header_len > file_size:
            raise DiskFormatError(f"{path} is truncated (header extends past EOF)")
        try:
            header = json.loads(handle.read(header_len).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise DiskFormatError(f"{path} has a corrupt header") from exc
    version = header.get("format_version")
    if version != FORMAT_VERSION:
        raise DiskFormatError(
            f"{path} has unsupported format version {version!r} "
            f"(this reader understands version {FORMAT_VERSION})"
        )
    descriptor = header.get("payload")
    if (
        not isinstance(descriptor, dict)
        or "shape" not in descriptor
        or "nbytes" not in descriptor
    ):
        raise DiskFormatError(f"{path} header is missing the payload descriptor")
    shape = tuple(int(n) for n in descriptor["shape"])
    nbytes = int(descriptor["nbytes"])
    if int(np.prod(shape, dtype=np.int64)) * WORD_DTYPE.itemsize != nbytes:
        raise DiskFormatError(f"{path} has an inconsistent payload descriptor")
    payload_offset = _align8(_PRELUDE + header_len)
    if payload_offset + nbytes > file_size:
        raise DiskFormatError(f"{path} is truncated (payload extends past EOF)")
    if payload_offset + nbytes < file_size:
        raise DiskFormatError(f"{path} has trailing data after the payload")
    return header, payload_offset


def map_container_payload(
    path: PathLike, header: Dict, payload_offset: int, mode: str = "r"
) -> np.ndarray:
    """Memory-map the payload words described by a validated *header*.

    Parameters
    ----------
    mode:
        ``"r"`` maps the words read-only (mutation raises cleanly through
        :class:`repro.bloom.bitarray.BitArray`); ``"c"`` maps copy-on-write —
        writes succeed in anonymous memory and are never flushed to the file.

    Returns the mapped array with the shape recorded in the header.  An
    empty payload returns a regular zero-size array (``mmap`` cannot map
    zero bytes).
    """
    if mode not in ("r", "c"):
        raise ValueError(f"mode must be 'r' or 'c', got {mode!r}")
    _require_little_endian()
    shape = tuple(int(n) for n in header["payload"]["shape"])
    if int(np.prod(shape, dtype=np.int64)) == 0:
        words = np.zeros(shape, dtype=np.uint64)
        if mode == "r":
            words.setflags(write=False)
        return words
    return np.memmap(Path(path), dtype=WORD_DTYPE, mode=mode, offset=payload_offset, shape=shape)

"""Index persistence: save a built RAMBO index to disk and load it back.

The paper's workflow is build-once / query-many: the 170TB archive is indexed
offline (Section 5.3) and the resulting 1.8TB structure is what gets shipped
to query nodes, possibly after fold-over.  That only works if the index can be
serialized without losing the properties that make merging and folding legal —
the hash seeds, the BFU geometry and the bucket → document mapping.

Two on-disk formats share one logical header (config, document names,
per-repetition assignments) and one payload: the index's ``R`` bit planes,
byte for byte, in ``(repetition, partition)`` order:

**v1** (``RAMBO1`` magic): a JSON header prefixed by its byte length,
followed by the raw little-endian ``uint64`` words of every BFU in
``(repetition, partition)`` order.  :func:`load_index` reads the whole
payload into process memory — simple, portable, and the right choice for
indexes that will keep growing after the load.

**mmap / v2** (``RAMBO2`` magic, :mod:`repro.io.diskformat`): the same
metadata, but the BFU words are laid out as one contiguous
``(repetitions, partitions, words)`` block that :func:`open_index_mmap` maps
with ``np.memmap`` instead of reading.  Opening costs one header read; the
batched query engine then probes the file zero-copy, paging in only the
words a query touches.  Mapped indexes are read-only by default (mutation
raises cleanly); ``mode="c"`` gives copy-on-write semantics for scratch
experiments.

:func:`open_index` dispatches on the magic so callers — the CLI in
particular — need not know which format a file uses.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.core.rambo import Rambo, RamboConfig
from repro.io.diskformat import (
    MAGIC_V2,
    DiskFormatError,
    detect_format,
    map_container_payload,
    read_container_header,
    write_container,
)

PathLike = Union[str, Path]

_MAGIC = b"RAMBO1\n"

#: Formats accepted by :func:`save_index`'s ``format`` parameter.
SAVE_FORMATS = ("v1", "mmap")


def _index_header(index: Rambo) -> Dict:
    """The logical header shared by both on-disk formats.

    Carries the config, the document-name table and the per-repetition
    partition assignments.
    """
    config = index.config
    return {
        "config": config.to_dict(),
        "original_num_partitions": config.num_partitions,
        "document_names": index.names,
        "assignments": index.assignments,
        "custom_partition_family": not _uses_default_family(index),
    }


def _own_planes(index: Rambo) -> List[np.ndarray]:
    """The planes of an index that has planes of its own to write."""
    if not all(isinstance(plane, np.ndarray) for plane in index.planes):
        raise ValueError(
            "a delta overlay holds no plane of its own to save; "
            "compact base+delta into a snapshot"
        )
    return index.planes


def _restore_bookkeeping(
    header: Dict, path: Path
) -> Tuple[RamboConfig, List[str], List[List[int]]]:
    """Validate a header and return its ``(config, names, assignments)``.

    Raises :class:`ValueError` on inconsistent assignment tables or
    out-of-range partition ids — the header-side integrity checks shared by
    the v1 loader and the mmap opener.
    """
    config = RamboConfig.from_dict(header["config"])
    names = header["document_names"]
    assignments = header["assignments"]
    if len(assignments) != config.repetitions or any(
        len(row) != len(names) for row in assignments
    ):
        raise ValueError(f"{path} has inconsistent assignment tables")
    bad = [b for row in assignments for b in row if not (0 <= b < config.num_partitions)]
    if bad:
        raise ValueError(f"{path} has an out-of-range partition assignment {bad[0]}")
    return config, names, assignments


def save_index(index: Rambo, path: PathLike, format: str = "v1", metadata=None) -> int:
    """Serialise *index* to *path*; returns the number of bytes written.

    Parameters
    ----------
    format:
        ``"v1"`` writes the self-contained load-into-memory format;
        ``"mmap"`` delegates to :func:`save_index_mmap` for the zero-copy
        serving container.
    metadata:
        Optional :class:`repro.meta.MetadataStore`; written as a JSON
        sidecar next to the artifact (``<path>.meta.json``) and referenced
        from the header's ``metadata_sidecar`` field.  Readers predating
        the field ignore it (both container formats tolerate unknown
        header keys), so the extension is backward-compatible.

    The partition hash family is reconstructed from the stored seed on load,
    so only indexes built with the default (seed-derived) family round-trip
    exactly.  Stacked indexes built from a distributed run carry a composed
    two-level family; they serialise fine for querying but new insertions
    after a load will use the seed-derived family, so a warning-grade note is
    recorded in the header.

    Raises :class:`ValueError` for an unknown *format*.
    """
    if format not in SAVE_FORMATS:
        raise ValueError(f"unknown index format {format!r} (expected one of {SAVE_FORMATS})")
    sidecar_name = None
    if metadata is not None:
        sidecar_name = metadata.save_for(path).name
    if format == "mmap":
        return save_index_mmap(index, path, sidecar_name=sidecar_name)
    header = dict(_index_header(index))
    header["format_version"] = 1
    if sidecar_name is not None:
        header["metadata_sidecar"] = sidecar_name
    header_bytes = json.dumps(header, separators=(",", ":")).encode("utf-8")

    planes = _own_planes(index)
    path = Path(path)
    with open(path, "wb") as handle:
        handle.write(_MAGIC)
        handle.write(len(header_bytes).to_bytes(8, "little"))
        handle.write(header_bytes)
        # tofile writes through the fd, so flush the buffered prelude first.
        handle.flush()
        for plane in planes:
            plane.tofile(handle)
    return path.stat().st_size


def load_index(path: PathLike) -> Rambo:
    """Load a v1 index previously written by :func:`save_index` into memory.

    Raises :class:`ValueError` on wrong magic, version, a header length that
    runs past the end of the file, or truncated payloads; a v2 (mmap) file
    is rejected with a pointer to :func:`open_index` /
    :func:`open_index_mmap`.
    """
    path = Path(path)
    file_size = path.stat().st_size
    with open(path, "rb") as handle:
        magic = handle.read(len(_MAGIC))
        if magic == MAGIC_V2:
            raise ValueError(
                f"{path} is an mmap-format index; open it with open_index() "
                "or Rambo.open_mmap()"
            )
        if magic != _MAGIC:
            raise ValueError(f"{path} is not a RAMBO index file (bad magic {magic!r})")
        header_len = int.from_bytes(handle.read(8), "little")
        if handle.tell() + header_len > file_size:
            raise ValueError(f"{path} is truncated (header extends past EOF)")
        try:
            header = json.loads(handle.read(header_len).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ValueError(f"{path} has a corrupt header") from exc
        if header.get("format_version") != 1:
            raise ValueError(f"unsupported format version {header.get('format_version')!r}")

        config, names, assignments = _restore_bookkeeping(header, path)
        # Checked against the file before anything is allocated, like the header.
        count = config.repetitions * config.num_partitions * config.words_per_bfu
        remaining = file_size - handle.tell()
        if remaining < 8 * count:
            raise ValueError(f"{path} is truncated (BFU payload)")
        if remaining > 8 * count:
            raise ValueError(f"{path} has trailing data after the BFU payload")
        words = np.fromfile(handle, dtype=np.uint64, count=count)
    planes = words.reshape(config.repetitions, config.num_partitions, -1)
    return Rambo.from_planes(config, list(planes), names, assignments)


def save_index_mmap(index: Rambo, path: PathLike, sidecar_name: Optional[str] = None) -> int:
    """Write *index* in the v2 container for zero-copy serving.

    The planes are written back to back as one contiguous
    ``(repetitions, partitions, words_per_bfu)`` block — streamed plane by
    plane, so a save allocates nothing the size of the index — and an
    opened index serves straight from the mapping.  Returns the number of
    bytes written.
    """
    header = dict(_index_header(index))
    header["kind"] = "rambo"
    if sidecar_name is not None:
        header["metadata_sidecar"] = sidecar_name
    return write_container(path, header, _own_planes(index))


def open_index_mmap(path: PathLike, mode: str = "r") -> Rambo:
    """Open a v2 index by mapping its payload instead of reading it.

    Only the header is read; the per-repetition ``(partitions, words)``
    slices of one shared ``np.memmap`` become the index's planes, so
    ``probe_words_batch`` / ``query_terms_batch`` gather straight from the
    page cache.

    Parameters
    ----------
    mode:
        ``"r"`` (default) serves read-only — any mutation (``add_document``,
        in-place bit algebra) raises a clean :class:`ValueError`.  ``"c"``
        maps copy-on-write: mutation succeeds in anonymous memory and is
        never written back to the file.

    Raises
    ------
    DiskFormatError
        On bad magic, version mismatch, corrupt header, or a payload whose
        size disagrees with the header (truncation / trailing data).
    ValueError
        If the header geometry does not match the payload shape.
    """
    path = Path(path)
    header, payload_offset = read_container_header(path)
    if header.get("kind", "rambo") != "rambo":
        raise DiskFormatError(
            f"{path} holds a {header.get('kind')!r} index, not a RAMBO index"
        )
    config, names, assignments = _restore_bookkeeping(header, path)
    expected_shape = (config.repetitions, config.num_partitions, config.words_per_bfu)
    shape = tuple(header["payload"]["shape"])
    if shape != expected_shape:
        raise ValueError(
            f"{path} payload shape {shape} does not match the header geometry "
            f"{expected_shape}"
        )
    # A plain ndarray view over the mapping: same buffer, same writeability,
    # but slicing it skips np.memmap's per-view subclass machinery.
    mapped = np.asarray(map_container_payload(path, header, payload_offset, mode=mode))
    return Rambo.from_planes(config, list(mapped), names, assignments)


def open_index(path: PathLike, mode: str = "r") -> Rambo:
    """Open an index of either format, dispatching on the file magic.

    v1 files are fully loaded with :func:`load_index` (always writable);
    v2 files are mapped with :func:`open_index_mmap` honouring *mode*.
    This is what the CLI's ``query`` / ``info`` / ``fold`` commands use, so
    an operator never has to remember which format a file was built with.
    """
    if detect_format(path) == "v1":
        return load_index(path)
    return open_index_mmap(path, mode=mode)


def describe_index(
    index: Rambo, path: Optional[PathLike] = None, fill: bool = True
) -> Dict:
    """JSON-ready description of an index: config, sizes, fill statistics.

    The single machine-readable stats schema shared by ``repro-rambo info
    --json``, the query service's ``/stats`` endpoint and any ops tooling —
    one code path, so the numbers an operator sees on disk and the numbers
    a running server reports can never drift apart.

    Parameters
    ----------
    path:
        When given, the on-disk location; the record then also carries the
        detected file format.
    fill:
        Fill-ratio statistics touch every BFU word (a full payload scan —
        on a mapped index that pages the whole file in), so a long-lived
        server may switch them off for cheap liveness-grade stats.
    """
    config = index.config
    record: Dict = {
        "config": config.to_dict(),
        "documents": index.num_documents,
        "partitions": index.num_partitions,
        "repetitions": index.repetitions,
        "k": config.k,
        "mapped": index.is_mapped,
        "readonly": index.readonly,
        "capabilities": index.capabilities(),
        "size_bytes": dict(index.size_components()),
    }
    record["size_bytes"]["total"] = index.size_in_bytes()
    if path is not None:
        record["path"] = str(path)
        record["format"] = detect_format(path)
        from repro.meta.store import sidecar_path
        from repro.plan.cost import cost_model_path

        record["metadata_sidecar"] = (
            sidecar_path(path).name if sidecar_path(path).exists() else None
        )
        record["cost_model"] = (
            cost_model_path(path).name if cost_model_path(path).exists() else None
        )
    if fill:
        ratios = [ratio for row in index.fill_ratios() for ratio in row]
        record["fill_ratio"] = {
            "min": min(ratios) if ratios else 0.0,
            "mean": (sum(ratios) / len(ratios)) if ratios else 0.0,
            "max": max(ratios) if ratios else 0.0,
        }
    return record


def _uses_default_family(index: Rambo) -> bool:
    """Whether the index's partition family is the default seed-derived one."""
    from repro.hashing.universal import PartitionHashFamily

    family = index._family  # noqa: SLF001
    if type(family) is not PartitionHashFamily:
        return False
    probe_names = [f"__probe_{i}" for i in range(8)]
    reference = PartitionHashFamily(
        num_partitions=family.num_partitions,
        repetitions=family.repetitions,
        seed=index.config.seed,
    )
    return all(family.assign(name) == reference.assign(name) for name in probe_names)

"""Index persistence: save a built RAMBO index to disk and open it back.

The paper's workflow is build-once / query-many: the 170TB archive is indexed
offline (Section 5.3) and the resulting 1.8TB structure is what gets shipped
to query nodes, possibly after fold-over.  That only works if the index can be
serialized without losing the properties that make merging and folding legal —
the hash seeds, the BFU geometry and the bucket → document mapping.

:func:`save_index` writes one container, ``RAMBO2``
(:mod:`repro.io.diskformat`): a JSON header (config, document names,
per-repetition assignments) and the index's ``R`` bit planes as one
contiguous ``(repetitions, partitions, words)`` block, which
:func:`open_index` maps with ``np.memmap`` instead of reading.  Opening
costs one header read; the batched query engine then probes the file
zero-copy, paging in only the words a query touches.  Mapped indexes are
read-only by default (mutation raises cleanly); ``mode="c"`` gives
copy-on-write semantics for scratch experiments.

Files of the retired v1 container (``RAMBO1`` magic: a length-prefixed JSON
header followed by the same planes) still open: :func:`open_index`
dispatches on the magic and reads them fully into memory, with every
integrity check they always had.  Re-saving one (or ``repro-rambo fold``)
converts it.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.core.rambo import Rambo, RamboConfig
from repro.io.diskformat import (
    MAGIC_V1,
    DiskFormatError,
    detect_format,
    map_container_payload,
    read_container_header,
    write_container,
)

PathLike = Union[str, Path]


def _index_header(index: Rambo) -> Dict:
    """The index's container header: the config, the document-name table
    and the per-repetition partition assignments."""
    config = index.config
    return {
        "config": config.to_dict(),
        "original_num_partitions": config.num_partitions,
        "document_names": index.names,
        "assignments": index.assignments,
        "custom_partition_family": not _uses_default_family(index),
        "kind": "rambo",
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
    the v1 reader and the container opener.
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


def save_index(index: Rambo, path: PathLike, format: str = "mmap", metadata=None) -> int:
    """Write *index* to *path* in the ``RAMBO2`` container; returns its size.

    The planes are written back to back as one contiguous
    ``(repetitions, partitions, words_per_bfu)`` block — streamed plane by
    plane, so a save allocates nothing the size of the index — and
    :func:`open_index` serves straight from the mapping.

    Parameters
    ----------
    format:
        ``"mmap"``, the only container written; kept so callers that name
        it keep working.  Anything else raises :class:`ValueError`.
    metadata:
        Optional :class:`repro.meta.MetadataStore`; written as a JSON
        sidecar next to the artifact (``<path>.meta.json``) and referenced
        from the header's ``metadata_sidecar`` field.  Readers predating
        the field ignore it, so the extension is backward-compatible.

    The partition hash family is reconstructed from the stored seed on open,
    so only indexes built with the default (seed-derived) family round-trip
    exactly.  Stacked indexes built from a distributed run carry a composed
    two-level family; they serialise fine for querying but new insertions
    after an open will use the seed-derived family, so a warning-grade note
    is recorded in the header.
    """
    if format != "mmap":
        raise ValueError(
            f"unknown index format {format!r}: save_index writes only 'mmap' "
            "(RAMBO2); v1 files still open through open_index"
        )
    header = _index_header(index)
    if metadata is not None:
        header["metadata_sidecar"] = metadata.save_for(path).name
    return write_container(path, header, _own_planes(index))


def open_index(path: PathLike, mode: str = "r") -> Rambo:
    """Open an index written by :func:`save_index`, mapping its payload.

    Only the header is read; the per-repetition ``(partitions, words)``
    slices of one shared ``np.memmap`` become the index's planes, so
    ``probe_words_batch`` / ``query_terms_batch`` gather straight from the
    page cache.  A file of the retired v1 container is recognised by its
    magic and read fully into memory (always writable, *mode* ignored).

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
        If the header geometry does not match the payload shape, or a v1
        file fails one of its checks.
    """
    path = Path(path)
    if detect_format(path) == "v1":
        return _read_v1(path)
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


def _read_v1(path: Path) -> Rambo:
    """Read a v1 (``RAMBO1``) file into memory.

    The magic has already been matched by :func:`detect_format`.  Raises
    :class:`ValueError` on a wrong version, a header length that runs past
    the end of the file, a corrupt header, inconsistent assignment tables,
    or a payload that is truncated or followed by trailing data.
    """
    file_size = path.stat().st_size
    with open(path, "rb") as handle:
        handle.seek(len(MAGIC_V1))
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

"""Dense bit arrays backed by numpy ``uint64`` words.

The paper stresses that unions, intersections and fold-over are "fast bitwise
operations"; this class is the single place those operations live.  All index
structures in the library (RAMBO BFUs, COBS bit-sliced rows, SBT nodes, the
document-membership bitmaps used by Algorithm 2) share it.

Semantics follow the usual conventions: bits are addressed ``0..size-1``,
out-of-range access raises ``IndexError``, and binary operators require equal
sizes.  The underlying words are exposed read-only via :attr:`words` so the
experiment harness can account memory precisely.
"""

from __future__ import annotations

import sys
from typing import Iterable, Iterator, List, Sequence, Union

import numpy as np

_WORD_BITS = 64

# Bit ``p`` of a payload lives in byte ``p >> 3`` of its words' little-endian
# byte string; on a big-endian host the same byte sits at the mirrored offset
# inside its 8-byte word, which XOR-ing the byte index with 7 addresses.
_BYTE_FLIP = 7 if sys.byteorder == "big" else 0

# Byte-wise popcount lookup for numpy builds without ``np.bitwise_count``.
_POPCOUNT_TABLE = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)


def popcount_words(words: np.ndarray) -> int:
    """Total number of set bits across an array of ``uint64`` words.

    Unlike the ``np.unpackbits`` route this never materialises an 8x-sized
    expansion of the payload: it either uses the hardware popcount
    (``np.bitwise_count``, numpy >= 2.0) or a 256-entry byte lookup table.
    """
    if hasattr(np, "bitwise_count"):
        return int(np.bitwise_count(words).sum())
    # .view(uint8) needs a contiguous last axis; strided inputs are legal.
    words = np.ascontiguousarray(words)
    return int(_POPCOUNT_TABLE[words.view(np.uint8)].sum(dtype=np.int64))


def probe_words_batch(words, positions: np.ndarray) -> np.ndarray:
    """Batched multi-probe membership test over stacked bit-array payloads.

    Parameters
    ----------
    words:
        ``(num_rows, num_words)`` ``uint64`` matrix — one bit-array payload
        per row, all sharing the same size (e.g. every BFU of one RAMBO
        repetition, stacked).  Alternatively a tuple/list of such matrices
        with identical shapes: the planes are treated as the elementwise OR
        of their words.  This is how the streaming-ingest overlay probes
        ``base | delta`` without ever materialising the combined plane — the
        OR happens on the gathered bytes of each probe, one extra gather+OR
        per plane, and is exactly equivalent to probing the OR-merged index
        (Bloom insertion is a pure OR-scatter).
    positions:
        ``(num_queries, num_probes)`` integer matrix of bit positions, one
        row of probe positions per query key.

    Returns
    -------
    ``(num_queries, num_rows)`` boolean matrix whose ``[q, r]`` entry is True
    iff *every* probe position of query ``q`` is set in row ``r`` — i.e. the
    Bloom-filter membership verdict of key ``q`` against filter ``r``.  The
    whole test is a handful of vectorised gathers, the "fast bitwise
    operations" the paper's query-time argument rests on.

    A probe needs one bit, so the gathers read the payload through a
    ``uint8`` view (no copy, memory-mapped planes included): every
    ``(rows, n)`` temporary is a byte per verdict instead of a word.
    """
    if isinstance(words, (tuple, list)):
        planes = [np.asarray(plane) for plane in words]
        if not planes:
            raise ValueError("words must contain at least one plane")
    else:
        planes = [np.asarray(words)]
    positions = np.asarray(positions)
    if positions.ndim != 2:
        raise ValueError(f"positions must be 2-D, got shape {positions.shape}")
    for plane in planes:
        if plane.ndim != 2:
            raise ValueError(f"words must be 2-D, got shape {plane.shape}")
        if plane.shape != planes[0].shape:
            raise ValueError(
                f"all word planes must share one shape, got {plane.shape} "
                f"vs {planes[0].shape}"
            )
        if plane.dtype != np.uint64:
            # The byte view below addresses bits of native 64-bit words.
            raise ValueError(f"words must be uint64, got dtype {plane.dtype}")
    if positions.shape[1] == 0:
        # A query with no probe positions is vacuously a member everywhere.
        # (A zero-width payload with real probe positions is NOT vacuous —
        # the gather below raises IndexError for it, like any out-of-range
        # position.)
        return np.ones((positions.shape[0], planes[0].shape[0]), dtype=bool)
    if (positions < 0).any():
        # Negative fancy indices would silently wrap to the end of the
        # payload and return a bogus verdict.
        raise IndexError("probe positions must be non-negative")
    byte_planes = [plane.view(np.uint8) for plane in planes]
    byte_index = (positions >> 3) ^ _BYTE_FLIP                 # (n, eta)
    shift = (positions & 7).astype(np.uint8)                   # (n, eta)
    # Reduce over the probe axis incrementally and in place, so the only
    # temporaries are one (rows, n) byte gather per probe and plane.  Bit 0
    # of ``hits`` is the running AND of the probed bits.
    hits = None
    for j in range(positions.shape[1]):
        gathered = byte_planes[0][:, byte_index[:, j]]         # (rows, n)
        for extra in byte_planes[1:]:
            gathered |= extra[:, byte_index[:, j]]
        gathered >>= shift[None, :, j]
        if hits is None:
            hits = gathered
        else:
            hits &= gathered
    hits &= 1
    return hits.view(bool).T                                   # (n, rows)


def set_rows(rows: Sequence[np.ndarray], positions: np.ndarray, size: int) -> None:
    """Set the bits at *positions* in every one of several bit-array payloads.

    The write-side twin of :func:`probe_words_batch`: *rows* are writable
    1-D ``uint64`` word arrays of *size*-bit arrays (e.g. the ``R`` BFUs a
    RAMBO document is assigned to, which share size, hash count and seed,
    so one term has the same positions in all of them), and *positions* an
    integer array of any shape.  The positions are sorted and OR-reduced
    once into ``(word, mask)`` pairs with distinct words, and each row then
    takes one fancy ``|=``: validation and the word/mask derivation are
    paid once per call, not once per row as with one
    :meth:`BitArray.set_many` per row.  Duplicates are harmless (OR is
    idempotent); a position outside ``[0, size)`` raises ``IndexError``
    before any row changes.
    """
    flat = np.sort(np.asarray(positions).ravel())
    if flat.size == 0:
        return
    if flat[0] < 0 or flat[-1] >= size:
        offender = flat[0] if flat[0] < 0 else flat[-1]
        raise IndexError(f"bit index {int(offender)} out of range for size {size}")
    words = flat // _WORD_BITS
    starts = np.concatenate(([0], np.flatnonzero(words[1:] != words[:-1]) + 1))
    masks = np.uint64(1) << (flat % _WORD_BITS).astype(np.uint64)
    masks = np.bitwise_or.reduceat(masks, starts)
    words = words[starts]
    for row in rows:
        row[words] |= masks


class BitArray:
    """Fixed-size mutable bit array with vectorised bitwise algebra.

    A BitArray may wrap a caller-provided ``uint64`` word array instead of
    owning a fresh one — this is how the memory-mapped on-disk format
    (:mod:`repro.io.diskformat`) serves index payloads zero-copy: the words
    are a read-only ``np.memmap`` row and every probe pages data straight
    from the file.  Mutating such a read-only view raises a clean
    :class:`ValueError` (see :meth:`writeable`); ``copy()`` always yields an
    owned, writable array.
    """

    __slots__ = ("_size", "_words")

    def __init__(self, size: int, words: np.ndarray | None = None) -> None:
        if size <= 0:
            raise ValueError(f"size must be positive, got {size}")
        self._size = int(size)
        num_words = (self._size + _WORD_BITS - 1) // _WORD_BITS
        if words is None:
            self._words = np.zeros(num_words, dtype=np.uint64)
        else:
            if words.dtype != np.uint64 or words.shape != (num_words,):
                raise ValueError("words array has wrong dtype or shape")
            self._words = words

    # -- construction helpers -------------------------------------------------

    @classmethod
    def from_indices(cls, size: int, indices: Iterable[int]) -> "BitArray":
        """Create a bit array with the given positions set."""
        arr = cls(size)
        arr.set_many(indices)
        return arr

    @classmethod
    def from_bits(cls, bits: Sequence[int]) -> "BitArray":
        """Create from a sequence of 0/1 values (index 0 first)."""
        arr = cls(len(bits))
        arr.set_many(i for i, b in enumerate(bits) if b)
        return arr

    def copy(self) -> "BitArray":
        """Deep copy."""
        return BitArray(self._size, self._words.copy())

    # -- basic accessors -------------------------------------------------------

    @property
    def size(self) -> int:
        """Number of addressable bits."""
        return self._size

    @property
    def words(self) -> np.ndarray:
        """Underlying ``uint64`` words (do not mutate)."""
        return self._words

    @property
    def nbytes(self) -> int:
        """Memory footprint of the payload in bytes."""
        return int(self._words.nbytes)

    @property
    def writeable(self) -> bool:
        """Whether the backing words may be mutated.

        False for arrays wrapping a read-only view — most notably the
        ``np.memmap`` payload of an index opened with ``open_index`` in
        read-only mode.  Every mutating method checks this first and raises
        :class:`ValueError` instead of numpy's opaque buffer error.
        """
        return bool(self._words.flags.writeable)

    def _require_writable(self) -> None:
        if not self._words.flags.writeable:
            raise ValueError(
                "cannot mutate a read-only BitArray (memory-mapped payload); "
                "copy() it, or reopen the index with mode='c' for copy-on-write"
            )

    def _check_index(self, index: int) -> int:
        if index < 0:
            index += self._size
        if not (0 <= index < self._size):
            raise IndexError(f"bit index {index} out of range for size {self._size}")
        return index

    def set(self, index: int) -> None:
        """Set bit *index* to 1."""
        self._require_writable()
        index = self._check_index(index)
        self._words[index // _WORD_BITS] |= np.uint64(1) << np.uint64(index % _WORD_BITS)

    def clear(self, index: int) -> None:
        """Set bit *index* to 0."""
        self._require_writable()
        index = self._check_index(index)
        self._words[index // _WORD_BITS] &= ~(np.uint64(1) << np.uint64(index % _WORD_BITS))

    def get(self, index: int) -> bool:
        """Return whether bit *index* is set."""
        index = self._check_index(index)
        word = self._words[index // _WORD_BITS]
        return bool((word >> np.uint64(index % _WORD_BITS)) & np.uint64(1))

    def _check_indices(self, indices: Union[Iterable[int], np.ndarray]) -> np.ndarray:
        """Validated ``int64`` index array (vectorised for numpy inputs).

        Numpy integer arrays — the probe-position matrices the batched hash
        kernel emits — are bounds-checked with two array comparisons instead
        of a per-element Python generator; any other iterable keeps the
        scalar semantics (including negative-index wrap) of
        :meth:`_check_index`.
        """
        if isinstance(indices, np.ndarray) and np.issubdtype(indices.dtype, np.integer):
            flat = indices.ravel()
            if flat.size == 0:
                return flat.astype(np.int64, copy=False)
            if np.issubdtype(indices.dtype, np.unsignedinteger):
                # Bounds-check in the unsigned dtype first: a blind int64
                # cast would wrap values >= 2**63 to negative and silently
                # hit the wrong bit instead of raising like the scalar path.
                bad = flat >= np.uint64(self._size)
                if bad.any():
                    offender = int(flat[int(np.argmax(bad))])
                    raise IndexError(
                        f"bit index {offender} out of range for size {self._size}"
                    )
                return flat.astype(np.int64, copy=False)
            idx = flat.astype(np.int64, copy=False)
            negative = idx < 0
            if negative.any():
                idx = np.where(negative, idx + self._size, idx)
            bad = (idx < 0) | (idx >= self._size)
            if bad.any():
                offender = int(flat[int(np.argmax(bad))])
                raise IndexError(
                    f"bit index {offender} out of range for size {self._size}"
                )
            return idx
        return np.fromiter((self._check_index(i) for i in indices), dtype=np.int64)

    def set_many(self, indices: Union[Iterable[int], np.ndarray]) -> None:
        """Set several bits in one word-OR scatter.

        Accepts any iterable of indices; a numpy integer array (of any shape
        — position matrices are flattened) is the fast path: one vectorised
        bounds check, then a single unbuffered ``bitwise_or`` scatter over
        the backing words.  This is the write-side twin of
        :func:`probe_words_batch` and the primitive every batched insert
        (``BloomFilter.add_many``, the RAMBO construction pipeline, the COBS
        column build) bottoms out in.
        """
        self._require_writable()
        idx = self._check_indices(indices)
        if idx.size == 0:
            return
        np.bitwise_or.at(
            self._words, idx // _WORD_BITS, np.uint64(1) << (idx % _WORD_BITS).astype(np.uint64)
        )

    def get_many(self, indices: Union[Iterable[int], np.ndarray]) -> np.ndarray:
        """Boolean array of the bits at *indices* (order preserved)."""
        idx = self._check_indices(indices)
        if idx.size == 0:
            return np.zeros(0, dtype=bool)
        words = self._words[idx // _WORD_BITS]
        return ((words >> (idx % _WORD_BITS).astype(np.uint64)) & np.uint64(1)).astype(bool)

    def all_set(self, indices: Iterable[int]) -> bool:
        """True iff every listed bit is set (the Bloom-filter membership test)."""
        return bool(self.get_many(indices).all())

    def __getitem__(self, index: int) -> bool:
        return self.get(index)

    def __setitem__(self, index: int, value: int) -> None:
        if value:
            self.set(index)
        else:
            self.clear(index)

    def __len__(self) -> int:
        return self._size

    def __iter__(self) -> Iterator[bool]:
        for i in range(self._size):
            yield self.get(i)

    # -- population metrics -----------------------------------------------------

    def count(self) -> int:
        """Number of set bits (word-level popcount, no 8x bit expansion)."""
        return popcount_words(self._words)

    def fill_ratio(self) -> float:
        """Fraction of set bits; the load factor driving the FP rate."""
        return self.count() / self._size

    def any(self) -> bool:
        """True if at least one bit is set."""
        return bool(self._words.any())

    def to_indices(self) -> np.ndarray:
        """Sorted array of the positions of set bits."""
        bits = np.unpackbits(self._words.view(np.uint8), bitorder="little")[: self._size]
        return np.flatnonzero(bits)

    def to_bits(self) -> np.ndarray:
        """Dense 0/1 array of length :attr:`size`."""
        return np.unpackbits(self._words.view(np.uint8), bitorder="little")[: self._size]

    # -- algebra -----------------------------------------------------------------

    def _check_compatible(self, other: "BitArray") -> None:
        if not isinstance(other, BitArray):
            raise TypeError(f"expected BitArray, got {type(other)!r}")
        if other._size != self._size:
            raise ValueError(f"size mismatch: {self._size} vs {other._size}")

    def __or__(self, other: "BitArray") -> "BitArray":
        self._check_compatible(other)
        return BitArray(self._size, self._words | other._words)

    def __and__(self, other: "BitArray") -> "BitArray":
        self._check_compatible(other)
        return BitArray(self._size, self._words & other._words)

    def __xor__(self, other: "BitArray") -> "BitArray":
        self._check_compatible(other)
        return BitArray(self._size, self._words ^ other._words)

    def __invert__(self) -> "BitArray":
        inverted = BitArray(self._size, ~self._words)
        inverted._mask_tail()
        return inverted

    def __ior__(self, other: "BitArray") -> "BitArray":
        self._require_writable()
        self._check_compatible(other)
        self._words |= other._words
        return self

    def __iand__(self, other: "BitArray") -> "BitArray":
        self._require_writable()
        self._check_compatible(other)
        self._words &= other._words
        return self

    def __ixor__(self, other: "BitArray") -> "BitArray":
        self._require_writable()
        self._check_compatible(other)
        self._words ^= other._words
        return self

    def _mask_tail(self) -> None:
        """Zero the padding bits beyond :attr:`size` in the last word."""
        tail_bits = self._size % _WORD_BITS
        if tail_bits:
            mask = (np.uint64(1) << np.uint64(tail_bits)) - np.uint64(1)
            self._words[-1] &= mask

    def union_inplace(self, other: "BitArray") -> "BitArray":
        """Alias of ``|=`` used by fold-over for readability."""
        self.__ior__(other)
        return self

    def is_subset_of(self, other: "BitArray") -> bool:
        """True iff every set bit of ``self`` is also set in *other*."""
        self._check_compatible(other)
        return bool(np.array_equal(self._words & other._words, self._words))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BitArray):
            return NotImplemented
        return self._size == other._size and bool(np.array_equal(self._words, other._words))

    def __hash__(self) -> int:  # BitArrays are mutable; forbid hashing.
        raise TypeError("BitArray is unhashable")

    def __repr__(self) -> str:
        return f"BitArray(size={self._size}, set={self.count()})"

    # -- serialisation -------------------------------------------------------------

    def to_bytes(self) -> bytes:
        """Serialise to little-endian word bytes (size must be stored separately)."""
        return self._words.tobytes()

    @classmethod
    def from_bytes(cls, size: int, payload: bytes) -> "BitArray":
        """Inverse of :meth:`to_bytes`."""
        words = np.frombuffer(payload, dtype=np.uint64).copy()
        return cls(size, words)

"""Pure-Python MurmurHash3 and probe-position derivation for Bloom filters.

MurmurHash3 is the hash the original RAMBO / COBS / BIGSI implementations use
for k-mer hashing.  This module implements the x64 128-bit variant exactly
(it matches the reference C++ ``MurmurHash3_x64_128``) plus convenience
wrappers returning 64-bit and 32-bit digests.

Because Python integers are arbitrary precision, every operation is masked to
64 bits.  The implementation favours clarity over raw speed; the hot path used
by the index classes (:func:`hash_positions`) is the one place where we keep
allocations to a minimum.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple, Union

import numpy as np

_MASK64 = 0xFFFFFFFFFFFFFFFF
_C1 = 0x87C37B91114253D5
_C2 = 0x4CF5AD432745937F

BytesLike = Union[bytes, bytearray, memoryview, str]


def _as_bytes(key: BytesLike) -> bytes:
    """Normalise *key* to ``bytes`` (strings are UTF-8 encoded)."""
    if isinstance(key, str):
        return key.encode("utf-8")
    if isinstance(key, (bytearray, memoryview)):
        return bytes(key)
    return key


def _rotl64(x: int, r: int) -> int:
    return ((x << r) | (x >> (64 - r))) & _MASK64


def _fmix64(k: int) -> int:
    k ^= k >> 33
    k = (k * 0xFF51AFD7ED558CCD) & _MASK64
    k ^= k >> 33
    k = (k * 0xC4CEB9FE1A85EC53) & _MASK64
    k ^= k >> 33
    return k


def murmur3_x64_128(key: BytesLike, seed: int = 0) -> Tuple[int, int]:
    """Compute the 128-bit MurmurHash3 (x64 variant) of *key*.

    Parameters
    ----------
    key:
        The data to hash.  Strings are encoded as UTF-8.
    seed:
        A 32/64-bit seed.  Different seeds give independent-looking hashes.

    Returns
    -------
    tuple of int
        Two unsigned 64-bit halves ``(h1, h2)`` of the 128-bit digest.
    """
    data = _as_bytes(key)
    length = len(data)
    nblocks = length // 16

    h1 = seed & _MASK64
    h2 = seed & _MASK64

    # body
    for block in range(nblocks):
        offset = block * 16
        k1 = int.from_bytes(data[offset : offset + 8], "little")
        k2 = int.from_bytes(data[offset + 8 : offset + 16], "little")

        k1 = (k1 * _C1) & _MASK64
        k1 = _rotl64(k1, 31)
        k1 = (k1 * _C2) & _MASK64
        h1 ^= k1

        h1 = _rotl64(h1, 27)
        h1 = (h1 + h2) & _MASK64
        h1 = (h1 * 5 + 0x52DCE729) & _MASK64

        k2 = (k2 * _C2) & _MASK64
        k2 = _rotl64(k2, 33)
        k2 = (k2 * _C1) & _MASK64
        h2 ^= k2

        h2 = _rotl64(h2, 31)
        h2 = (h2 + h1) & _MASK64
        h2 = (h2 * 5 + 0x38495AB5) & _MASK64

    # tail
    tail = data[nblocks * 16 :]
    k1 = 0
    k2 = 0
    tail_len = len(tail)
    if tail_len >= 9:
        for i in range(tail_len - 1, 7, -1):
            k2 = (k2 << 8) | tail[i]
        k2 = (k2 * _C2) & _MASK64
        k2 = _rotl64(k2, 33)
        k2 = (k2 * _C1) & _MASK64
        h2 ^= k2
    if tail_len > 0:
        for i in range(min(tail_len, 8) - 1, -1, -1):
            k1 = (k1 << 8) | tail[i]
        k1 = (k1 * _C1) & _MASK64
        k1 = _rotl64(k1, 31)
        k1 = (k1 * _C2) & _MASK64
        h1 ^= k1

    # finalization
    h1 ^= length
    h2 ^= length
    h1 = (h1 + h2) & _MASK64
    h2 = (h2 + h1) & _MASK64
    h1 = _fmix64(h1)
    h2 = _fmix64(h2)
    h1 = (h1 + h2) & _MASK64
    h2 = (h2 + h1) & _MASK64
    return h1, h2


def murmur3_64(key: BytesLike, seed: int = 0) -> int:
    """Return the first 64 bits of the 128-bit MurmurHash3 digest."""
    return murmur3_x64_128(key, seed)[0]


def murmur3_32(key: BytesLike, seed: int = 0) -> int:
    """Return a 32-bit digest derived from the 128-bit MurmurHash3."""
    return murmur3_x64_128(key, seed)[0] & 0xFFFFFFFF


def double_hashes(key: BytesLike, count: int, modulus: int, seed: int = 0) -> List[int]:
    """Derive *count* probe positions in ``[0, modulus)`` for *key*.

    Uses the Kirsch--Mitzenmacher construction ``g_i(x) = h1(x) + i * h2(x)``
    which provides the same asymptotic false-positive behaviour as ``count``
    independent hash functions while only evaluating MurmurHash3 once.

    Parameters
    ----------
    key:
        Item to hash.
    count:
        Number of probe positions (``eta`` in the paper).
    modulus:
        Size of the bit array the positions index into.
    seed:
        Seed forwarded to MurmurHash3; each Bloom filter instance uses its
        own seed so that unions across filters remain meaningful.
    """
    if count <= 0:
        raise ValueError(f"count must be positive, got {count}")
    if modulus <= 0:
        raise ValueError(f"modulus must be positive, got {modulus}")
    h1, h2 = murmur3_x64_128(key, seed)
    # Force h2 odd so successive probes cycle through the full range even for
    # power-of-two moduli.
    h2 |= 1
    return [(h1 + i * h2) % modulus for i in range(count)]


def hash_positions(
    keys: Iterable[BytesLike], count: int, modulus: int, seed: int = 0
) -> List[List[int]]:
    """Vector form of :func:`double_hashes` over an iterable of keys."""
    return [double_hashes(key, count, modulus, seed) for key in keys]


def _rotl64_arr(x: np.ndarray, r: int) -> np.ndarray:
    return (x << np.uint64(r)) | (x >> np.uint64(64 - r))


def _fmix64_arr(k: np.ndarray) -> np.ndarray:
    k = k ^ (k >> np.uint64(33))
    k = k * np.uint64(0xFF51AFD7ED558CCD)
    k = k ^ (k >> np.uint64(33))
    k = k * np.uint64(0xC4CEB9FE1A85EC53)
    k = k ^ (k >> np.uint64(33))
    return k


def _murmur3_u64_batch(values: np.ndarray, seed: int = 0) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorised ``murmur3_x64_128`` over 8-byte little-endian keys.

    A non-negative integer key is normalised to its 8-byte little-endian
    encoding everywhere in the library (:func:`_normalise_key`), which is
    exactly the ``uint64`` value itself — so for integer keys (2-bit k-mer
    codes, the batch-query hot path) the whole digest reduces to the 8-byte
    tail + finalisation of the scalar algorithm, computed here on ``uint64``
    arrays whose natural wraparound matches the 64-bit masking.

    Returns the ``(h1, h2)`` halves as two ``uint64`` arrays; bit-for-bit
    identical to calling :func:`murmur3_x64_128` per key.
    """
    values = np.ascontiguousarray(values, dtype=np.uint64)
    h1 = np.full(values.shape, np.uint64(seed & _MASK64))
    h2 = h1.copy()
    # tail (length 8 -> k1 only)
    k1 = values * np.uint64(_C1)
    k1 = _rotl64_arr(k1, 31)
    k1 = k1 * np.uint64(_C2)
    h1 = h1 ^ k1
    # finalisation
    length = np.uint64(8)
    h1 = h1 ^ length
    h2 = h2 ^ length
    h1 = h1 + h2
    h2 = h2 + h1
    h1 = _fmix64_arr(h1)
    h2 = _fmix64_arr(h2)
    h1 = h1 + h2
    h2 = h2 + h1
    return h1, h2


def normalise_batch_key(key: Union[int, BytesLike]) -> Union[int, BytesLike]:
    """Normalise and validate one key against the batch-hash contract.

    The single source of truth for what the batched digest accepts: bools
    and numpy integer scalars become plain ints; negative ints raise
    ``ValueError``, >64-bit ints raise ``OverflowError``, and anything that
    is not an int/str/bytes raises ``TypeError`` — the same errors the
    scalar ``_normalise_key`` path produces.  Shared by
    :func:`double_hashes_batch` and the upfront batch validators
    (``KmerDocument.validated_hash_keys``) so pre-validation can never
    drift from what hashing actually accepts.
    """
    if isinstance(key, (bool, np.integer)):
        key = int(key)
    if isinstance(key, int):
        if key < 0:
            raise ValueError(f"integer keys must be non-negative, got {key}")
        if key >= 1 << 64:
            raise OverflowError(f"integer keys must fit 64 bits, got {key}")
    elif not isinstance(key, (str, bytes, bytearray, memoryview)):
        raise TypeError(f"unsupported key type: {type(key)!r}")
    return key


def _derive_positions(h1: np.ndarray, h2: np.ndarray, count: int, modulus: int) -> np.ndarray:
    """Kirsch--Mitzenmacher position derivation on uint64 digest arrays.

    ``(h1 + i*h2) % m == (h1%m + i*(h2%m)) % m`` in exact arithmetic;
    reducing the operands first keeps every intermediate below 2**64 so the
    uint64 computation matches the arbitrary-precision scalar path bit for
    bit (the caller guarantees ``count * modulus < 2**64``).
    """
    m = np.uint64(modulus)
    steps = np.arange(count, dtype=np.uint64)
    h2 = h2 | np.uint64(1)
    return ((h1[:, None] % m + steps[None, :] * (h2[:, None] % m)) % m).astype(np.int64)


def double_hashes_batch(
    keys: Union[Iterable[Union[int, BytesLike]], np.ndarray],
    count: int,
    modulus: int,
    seed: int = 0,
) -> np.ndarray:
    """Batched :func:`double_hashes`: an ``(n_keys, count)`` position matrix.

    Row ``i`` equals ``double_hashes(keys[i], count, modulus, seed)`` exactly.
    A numpy integer array (the term-code arrays the readers and simulators
    produce) is digested whole — no per-key Python work at all; any other
    iterable of keys is normalised and validated here (the single home of
    the key contract every batch caller shares) and partitioned so integer
    keys (2-bit k-mer codes) still go through the vectorised pass while
    string/bytes keys fall back to the scalar MurmurHash3 per key, with the
    position derivation vectorised in both cases.
    """
    if count <= 0:
        raise ValueError(f"count must be positive, got {count}")
    if modulus <= 0:
        raise ValueError(f"modulus must be positive, got {modulus}")
    exact_fallback = count * modulus >= 1 << 64 or modulus >= 1 << 63
    if isinstance(keys, np.ndarray):
        if keys.ndim != 1:
            raise ValueError(f"keys array must be 1-D, got shape {keys.shape}")
        if not np.issubdtype(keys.dtype, np.integer):
            raise TypeError(f"keys array must have an integer dtype, got {keys.dtype}")
        if np.issubdtype(keys.dtype, np.signedinteger) and keys.size and int(keys.min()) < 0:
            # Same error contract as the scalar path's _normalise_key.
            raise ValueError(f"integer keys must be non-negative, got {int(keys.min())}")
        if not exact_fallback:
            if keys.size == 0:
                return np.zeros((0, count), dtype=np.int64)
            h1, h2 = _murmur3_u64_batch(keys, seed)
            return _derive_positions(h1, h2, count, modulus)
        keys = [int(key) for key in keys]
    elif (
        isinstance(keys, (list, tuple))
        and not exact_fallback
        and set(map(type, keys)) == {int}
        and min(keys) >= 0
    ):
        # The query path's shape — a list of plain non-negative ints — packs
        # in one C pass.  Everything else (bools, numpy scalars, str/bytes,
        # other types, negatives) and ints numpy refuses (>= 2**64) take the
        # per-key pass below, so the error contract stays in one place.
        try:
            packed = np.asarray(keys, dtype=np.uint64)
        except OverflowError:
            pass
        else:
            h1, h2 = _murmur3_u64_batch(packed, seed)
            return _derive_positions(h1, h2, count, modulus)
    keys = [normalise_batch_key(key) for key in keys]
    if not keys:
        return np.zeros((0, count), dtype=np.int64)
    if exact_fallback:
        # The uint64 position derivation below could wrap, and the int64
        # result dtype cannot represent positions >= 2**63; such geometries
        # never occur in practice but exactness is part of the contract.
        return np.asarray(
            [
                double_hashes(
                    key.to_bytes(8, "little") if isinstance(key, int) else key,
                    count,
                    modulus,
                    seed,
                )
                for key in keys
            ],
            dtype=np.uint64 if modulus >= 1 << 63 else np.int64,
        )
    # Partition by key type so one stray string in a chunk of int k-mer
    # codes doesn't degrade the whole chunk to the per-key scalar digest.
    int_rows: List[int] = []
    other_rows: List[int] = []
    for i, key in enumerate(keys):
        if isinstance(key, int):
            int_rows.append(i)
        else:
            other_rows.append(i)
    positions = np.empty((len(keys), count), dtype=np.int64)
    if int_rows:
        h1, h2 = _murmur3_u64_batch(
            np.asarray([keys[i] for i in int_rows], dtype=np.uint64), seed
        )
        positions[int_rows] = _derive_positions(h1, h2, count, modulus)
    if other_rows:
        digests = np.asarray(
            [murmur3_x64_128(_as_bytes(keys[i]), seed) for i in other_rows],
            dtype=np.uint64,
        )
        positions[other_rows] = _derive_positions(digests[:, 0], digests[:, 1], count, modulus)
    return positions


def hash_to_range(key: BytesLike, modulus: int, seed: int = 0) -> int:
    """Hash *key* uniformly into ``[0, modulus)``."""
    if modulus <= 0:
        raise ValueError(f"modulus must be positive, got {modulus}")
    return murmur3_64(key, seed) % modulus


def combine_seeds(*parts: int) -> int:
    """Deterministically combine several integer seeds into one 64-bit seed.

    Used to derive per-(repetition, table, node) seeds from a single master
    seed so that distributed shards agree on every hash function without
    communicating (Section 5.3 of the paper requires seed consistency).
    """
    acc = 0x9E3779B97F4A7C15
    for part in parts:
        acc ^= (part & _MASK64) + 0x9E3779B97F4A7C15 + ((acc << 6) & _MASK64) + (acc >> 2)
        acc &= _MASK64
        acc = _fmix64(acc)
    return acc

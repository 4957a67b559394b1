"""Bit arrays and Bloom-filter variants.

Everything in the RAMBO architecture — the BFUs, the COBS baseline's
bit-sliced signature matrix, the SBT family's tree nodes, and the fold-over
operation — is built on the same dense bit-array substrate implemented in
:mod:`repro.bloom.bitarray` (numpy ``uint64`` words, vectorised bitwise
algebra).

:class:`BloomFilter` is the classic membership structure used as the BFU.
"""

from repro.bloom.bitarray import BitArray, popcount_words, probe_words_batch
from repro.bloom.bloom_filter import BloomFilter, optimal_num_hashes, optimal_num_bits

__all__ = [
    "BitArray",
    "popcount_words",
    "probe_words_batch",
    "BloomFilter",
    "optimal_num_hashes",
    "optimal_num_bits",
]

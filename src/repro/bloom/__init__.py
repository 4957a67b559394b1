"""Bit arrays and Bloom-filter variants.

Everything in the RAMBO architecture — the BFUs, the COBS baseline's
bit-sliced signature matrix, the SBT family's tree nodes, and the fold-over
operation — is built on the same dense bit-array substrate implemented in
:mod:`repro.bloom.bitarray` (numpy ``uint64`` words, vectorised bitwise
algebra).

Two membership structures are provided:

* :class:`BloomFilter` — the classic structure used as the BFU.
* :class:`ScalableBloomFilter` — the adaptive-size alternative the paper cites
  for streaming inputs whose cardinality is unknown up front.
"""

from repro.bloom.bitarray import BitArray, popcount_words, probe_words_batch
from repro.bloom.bloom_filter import BloomFilter, optimal_num_hashes, optimal_num_bits
from repro.bloom.scalable import ScalableBloomFilter

__all__ = [
    "BitArray",
    "popcount_words",
    "probe_words_batch",
    "BloomFilter",
    "ScalableBloomFilter",
    "optimal_num_hashes",
    "optimal_num_bits",
]

"""Hash function families used throughout the RAMBO reproduction.

The paper relies on three distinct kinds of hashing:

* **Item hashing** inside each Bloom Filter of the Union (BFU).  We use
  MurmurHash3 (128-bit, x64 variant) and derive the ``eta`` probe positions
  with the Kirsch--Mitzenmacher double-hashing trick
  (:func:`repro.hashing.murmur3.double_hashes`).
* **Partition hashing** ``phi_i`` that assigns a document identity to one of
  ``B`` partitions in repetition ``i``.  The paper requires a 2-universal
  family; we provide the classical Carter--Wegman construction over a
  Mersenne prime (:mod:`repro.hashing.universal`).
* **Node routing** ``tau`` used by the distributed construction of Section
  5.3, which is just another independent member of the same universal family.

All functions are deterministic given a seed, which is what makes fold-over
and distributed stacking possible: every machine must agree on every hash.
"""

from repro.hashing.murmur3 import (
    murmur3_x64_128,
    murmur3_64,
    murmur3_32,
    double_hashes,
    double_hashes_batch,
    hash_positions,
)
from repro.hashing.universal import (
    MERSENNE_PRIME_61,
    CarterWegmanHash,
    PartitionHashFamily,
    TwoLevelPartitionHash,
)
from repro.hashing.kmer_hash import (
    kmer_to_int,
    int_to_kmer,
    canonical_int,
    RollingKmerHasher,
)

__all__ = [
    "murmur3_x64_128",
    "murmur3_64",
    "murmur3_32",
    "double_hashes",
    "double_hashes_batch",
    "hash_positions",
    "MERSENNE_PRIME_61",
    "CarterWegmanHash",
    "PartitionHashFamily",
    "TwoLevelPartitionHash",
    "kmer_to_int",
    "int_to_kmer",
    "canonical_int",
    "RollingKmerHasher",
]

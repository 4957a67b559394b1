"""k-mer extraction and document modelling.

A *document* in the genomic experiments is the set of k-mers of one sequence
file (one microbe's reads or assembly); in the web experiments it is the set
of word unigrams of one text file.  :class:`KmerDocument` is the common
container both pipelines produce and every index class consumes.
"""

from repro.hashing.kmer_hash import (
    kmer_to_int,
    int_to_kmer,
    canonical_int,
    canonical_kmer,
    reverse_complement,
    reverse_complement_int,
)
from repro.kmers.extraction import (
    KmerDocument,
    extract_kmers,
    extract_kmers_scalar,
    extract_kmer_set,
    extract_from_reads,
    document_from_sequences,
)
from repro.kmers.vectorized import (
    canonical_codes,
    encode_bases,
    extract_codes_from_reads,
    extract_kmer_codes,
    reverse_complement_codes,
)

__all__ = [
    "kmer_to_int",
    "int_to_kmer",
    "canonical_int",
    "canonical_kmer",
    "reverse_complement",
    "reverse_complement_int",
    "KmerDocument",
    "extract_kmers",
    "extract_kmers_scalar",
    "extract_kmer_set",
    "extract_from_reads",
    "document_from_sequences",
    "encode_bases",
    "extract_kmer_codes",
    "extract_codes_from_reads",
    "reverse_complement_codes",
    "canonical_codes",
]

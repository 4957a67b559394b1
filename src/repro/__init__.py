"""repro — a reproduction of RAMBO (Repeated And Merged BloOm Filter), SIGMOD 2021.

RAMBO answers multi-set membership queries ("which of these K documents
contain this k-mer / word / term?") with a Count-Min-Sketch arrangement of
Bloom filters: R repetitions, each partitioning the documents into B groups
compressed into one Bloom Filter of the Union.  The package ships the index,
every substrate it needs (hashing, Bloom filters, k-mer machinery, file
formats), the baselines the paper compares against (COBS/BIGSI, SBT, SSBT,
HowDeSBT, an exact inverted index), workload simulators standing in for the
paper's 170TB archive and web corpora, and an experiment harness regenerating
every table and figure of the evaluation.

Quickstart
----------
>>> from repro import Rambo, RamboConfig, KmerDocument
>>> index = Rambo(RamboConfig(num_partitions=4, repetitions=3, bfu_bits=1 << 12, k=5))
>>> index.add_document(KmerDocument(name="genomeA", terms=frozenset({"ACGTA", "CGTAC"})))
>>> index.add_document(KmerDocument(name="genomeB", terms=frozenset({"TTTTT"})))
>>> sorted(index.query_term("ACGTA").documents)
['genomeA']
"""

from repro.core.base import MembershipIndex, QueryResult
from repro.core.executor import get_num_threads, num_threads, set_num_threads
from repro.core.rambo import Rambo, RamboConfig
from repro.core.distributed import DistributedRambo, stack_shards
from repro.core.folding import fold_rambo, fold_to_target
from repro.core.parallel import merge_indexes
from repro.core.serialization import open_index, save_index
from repro.bloom import BloomFilter
from repro.kmers import (
    KmerDocument,
    document_from_sequences,
    extract_kmer_codes,
    extract_kmers,
)
from repro.baselines import (
    CobsIndex,
    HowDeSbt,
    InvertedIndex,
    SequenceBloomTree,
    SplitSequenceBloomTree,
)

__version__ = "1.0.0"

__all__ = [
    "MembershipIndex",
    "QueryResult",
    "Rambo",
    "RamboConfig",
    "DistributedRambo",
    "stack_shards",
    "fold_rambo",
    "fold_to_target",
    "merge_indexes",
    "open_index",
    "save_index",
    "get_num_threads",
    "num_threads",
    "set_num_threads",
    "BloomFilter",
    "KmerDocument",
    "document_from_sequences",
    "extract_kmers",
    "extract_kmer_codes",
    "CobsIndex",
    "SequenceBloomTree",
    "SplitSequenceBloomTree",
    "HowDeSbt",
    "InvertedIndex",
    "__version__",
]

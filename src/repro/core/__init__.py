"""RAMBO core: the paper's contribution and its supporting machinery.

Public entry points:

* :class:`repro.core.rambo.Rambo` — the Repeated And Merged Bloom Filter
  index (Algorithms 1 and 2, plus the RAMBO+ sparse query of Section 5.1).
* :meth:`repro.core.rambo.RamboConfig.recommended` — Section 5.1's one
  sizing rule for ``B``, ``R`` and the BFU size; :mod:`repro.core.config`
  pools its per-document cardinality from a sample.
* :mod:`repro.core.folding` — the fold-over memory/accuracy trade of
  Section 5.3 (Table 4, Figure 3).
* :mod:`repro.core.distributed` — the two-level-hash sharded construction of
  Section 5.3 and shard stacking.
* :mod:`repro.core.executor` — the shared thread pool behind every parallel
  hot path (Section 5.2's multi-threaded execution), configured with
  :func:`~repro.core.executor.set_num_threads` or ``REPRO_THREADS``.
* :mod:`repro.core.analysis` — closed forms of Lemmas 4.1–4.6 and Theorems
  4.3/4.5, used by the sizing rule and the Figure 4 curves.
"""

from repro.core.base import MembershipIndex, QueryResult
from repro.core.executor import (
    get_min_terms_per_shard,
    get_num_threads,
    min_terms_per_shard,
    num_threads,
    parallel_map,
    set_min_terms_per_shard,
    set_num_threads,
)
from repro.core.rambo import Rambo, RamboConfig
from repro.core.folding import fold_rambo, fold_to_target
from repro.core.distributed import DistributedRambo, stack_shards
from repro.core.parallel import merge_indexes
from repro.core.serialization import describe_index, open_index, save_index
from repro.core import analysis, config

__all__ = [
    "MembershipIndex",
    "QueryResult",
    "get_min_terms_per_shard",
    "get_num_threads",
    "min_terms_per_shard",
    "num_threads",
    "parallel_map",
    "set_min_terms_per_shard",
    "set_num_threads",
    "Rambo",
    "RamboConfig",
    "fold_rambo",
    "fold_to_target",
    "DistributedRambo",
    "stack_shards",
    "merge_indexes",
    "describe_index",
    "open_index",
    "save_index",
    "analysis",
    "config",
]

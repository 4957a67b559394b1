"""The pooling estimator of Section 5.1.

The paper sets the BFU size by estimating the average document cardinality
from a tiny fraction of the data ("pooling") rather than a full preprocessing
pass.  :func:`estimate_cardinality` is that estimator;
:func:`configure_from_sample` hands the estimate to the one sizing rule,
:meth:`~repro.core.rambo.RamboConfig.recommended`.
"""

from __future__ import annotations

import random
from typing import Optional, Sequence

from repro.core.rambo import RamboConfig
from repro.kmers.extraction import DEFAULT_K, KmerDocument


def estimate_cardinality(
    documents: Sequence[KmerDocument],
    sample_fraction: float = 0.05,
    min_sample: int = 10,
    seed: int = 0,
) -> float:
    """Estimate the mean terms-per-document from a small random sample.

    Parameters
    ----------
    documents:
        The (possibly very large) collection.
    sample_fraction:
        Fraction of documents to inspect; the paper notes a tiny fraction is
        sufficient because only the mean matters for sizing.
    min_sample:
        Lower bound on the sample size so tiny collections are measured fully.
    seed:
        Sampling seed.
    """
    if not documents:
        raise ValueError("cannot estimate cardinality of an empty collection")
    if not (0.0 < sample_fraction <= 1.0):
        raise ValueError(f"sample_fraction must be in (0, 1], got {sample_fraction}")
    sample_size = min(len(documents), max(min_sample, int(len(documents) * sample_fraction)))
    rng = random.Random(seed)
    sample = rng.sample(list(documents), sample_size)
    return sum(len(doc) for doc in sample) / sample_size


def configure_from_sample(
    documents: Sequence[KmerDocument],
    fp_rate: float = 0.01,
    expected_multiplicity: float = 2.0,
    bfu_hashes: int = 2,
    num_partitions: Optional[int] = None,
    repetitions: Optional[int] = None,
    k: int = DEFAULT_K,
    seed: int = 0,
    sample_fraction: float = 0.05,
    num_documents: Optional[int] = None,
) -> RamboConfig:
    """The one sizing rule with its cardinality pooled from *documents*.

    :meth:`~repro.core.rambo.RamboConfig.recommended` picks ``B``, ``R`` and
    the BFU size.  ``num_documents`` overrides the collection size when
    *documents* is only a sample of a larger (e.g. streamed) collection:
    ``B``, ``R`` and the BFU size are then chosen for the full count while
    the per-document cardinality is still pooled from the sample — exactly
    the paper's "estimate from a tiny fraction" protocol.
    """
    if num_documents is None:
        num_documents = len(documents)
    elif num_documents < len(documents):
        raise ValueError(
            f"num_documents ({num_documents}) is smaller than the sample ({len(documents)})"
        )
    return RamboConfig.recommended(
        num_documents,
        estimate_cardinality(documents, sample_fraction=sample_fraction, seed=seed),
        fp_rate=fp_rate,
        expected_multiplicity=expected_multiplicity,
        k=k,
        seed=seed,
        bfu_hashes=bfu_hashes,
        num_partitions=num_partitions,
        repetitions=repetitions,
    )

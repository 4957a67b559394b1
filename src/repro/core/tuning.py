"""Configuration search: pick (B, R, BFU size) under accuracy/memory budgets.

Section 5.1 of the paper chooses parameters by hand ("found empirically",
"keeping in mind the allowable index size, false positive rate, and
construction time").  This module turns that procedure into code: given the
collection statistics and a target operating point, it enumerates candidate
configurations, scores each one with the closed forms of Section 4
(:mod:`repro.core.analysis`), and returns the best feasible choice.

Two entry points:

* :func:`tune_for_fp_rate` — minimise expected query cost subject to an
  overall false-positive bound (Lemma 4.2) — the paper's own operating mode
  ("target false positive rate range of [0.01, 0.011]").
* :func:`tune_for_memory` — minimise the false-positive rate subject to a
  memory budget in bytes — the fold-over regime, where memory is the scarce
  resource.

Both return a :class:`TuningResult` carrying the chosen
:class:`~repro.core.rambo.RamboConfig` plus the model's predictions, so
callers (and tests) can check the predicted operating point against
measurements.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple

from repro.bloom.bloom_filter import optimal_num_bits
from repro.core import analysis
from repro.core.rambo import RamboConfig
from repro.kmers.extraction import DEFAULT_K


@dataclass(frozen=True)
class CollectionProfile:
    """The statistics the tuner needs about a collection.

    Attributes
    ----------
    num_documents:
        ``K``.
    mean_terms_per_document:
        Average unique terms per document (from the Section 5.1 pooling
        estimator or exact counting).
    expected_multiplicity:
        Typical number of documents sharing a term (``V``); 1-2 for mostly
        unique content, larger for collections of near-duplicate strains.
    """

    num_documents: int
    mean_terms_per_document: float
    expected_multiplicity: float = 2.0

    def __post_init__(self) -> None:
        if self.num_documents <= 0:
            raise ValueError(f"num_documents must be positive, got {self.num_documents}")
        if self.mean_terms_per_document <= 0:
            raise ValueError(
                f"mean_terms_per_document must be positive, got {self.mean_terms_per_document}"
            )
        if self.expected_multiplicity < 1:
            raise ValueError(
                f"expected_multiplicity must be >= 1, got {self.expected_multiplicity}"
            )


@dataclass(frozen=True)
class TuningResult:
    """A chosen configuration plus the model's predicted operating point."""

    config: RamboConfig
    predicted_fp_rate: float
    predicted_query_ops: float
    predicted_size_bytes: float

    def as_dict(self) -> dict:
        """Flat summary used by reports and tests."""
        return {
            "B": self.config.num_partitions,
            "R": self.config.repetitions,
            "bfu_bits": self.config.bfu_bits,
            "predicted_fp_rate": self.predicted_fp_rate,
            "predicted_query_ops": self.predicted_query_ops,
            "predicted_size_bytes": self.predicted_size_bytes,
        }


def _candidate_partitions(profile: CollectionProfile, bfu_hashes: int) -> List[int]:
    """Candidate B values around the Lemma 4.4 optimum (powers-of-two ladder)."""
    optimum = analysis.optimal_partitions(
        profile.num_documents, int(round(profile.expected_multiplicity)), bfu_hashes
    )
    candidates = {2, optimum}
    b = 2
    while b <= profile.num_documents:
        candidates.add(b)
        b *= 2
    candidates.add(max(2, optimum // 2))
    candidates.add(min(profile.num_documents, optimum * 2))
    return sorted(c for c in candidates if 2 <= c <= profile.num_documents)


def _evaluate(
    profile: CollectionProfile,
    num_partitions: int,
    repetitions: int,
    per_bfu_fp: float,
    bfu_hashes: int,
    k: int,
    seed: int,
) -> TuningResult:
    """Score one (B, R, per-BFU fp) candidate with the Section 4 model."""
    expected_insertions = max(
        1,
        int(
            math.ceil(
                profile.mean_terms_per_document
                * profile.num_documents
                / (num_partitions * profile.expected_multiplicity)
            )
        ),
    )
    bfu_bits = optimal_num_bits(expected_insertions, per_bfu_fp)
    config = RamboConfig(
        num_partitions=num_partitions,
        repetitions=repetitions,
        bfu_bits=bfu_bits,
        bfu_hashes=bfu_hashes,
        k=k,
        seed=seed,
    )
    fp = analysis.overall_false_positive_rate(
        bfu_fp_rate=per_bfu_fp,
        num_partitions=num_partitions,
        repetitions=repetitions,
        multiplicity=int(round(profile.expected_multiplicity)),
        num_documents=profile.num_documents,
    )
    query_ops = analysis.expected_query_time(
        num_documents=profile.num_documents,
        num_partitions=num_partitions,
        repetitions=repetitions,
        bfu_hashes=bfu_hashes,
        bfu_fp_rate=per_bfu_fp,
        multiplicity=int(round(profile.expected_multiplicity)),
    )
    size_bytes = num_partitions * repetitions * bfu_bits / 8.0
    return TuningResult(
        config=config,
        predicted_fp_rate=fp,
        predicted_query_ops=query_ops,
        predicted_size_bytes=size_bytes,
    )


def enumerate_candidates(
    profile: CollectionProfile,
    bfu_hashes: int = 2,
    per_bfu_fp_choices: Sequence[float] = (0.05, 0.01, 0.001),
    max_repetitions: int = 8,
    k: int = DEFAULT_K,
    seed: int = 0,
) -> List[TuningResult]:
    """Every candidate configuration the tuner considers, scored by the model."""
    if bfu_hashes <= 0:
        raise ValueError(f"bfu_hashes must be positive, got {bfu_hashes}")
    if max_repetitions < 1:
        raise ValueError(f"max_repetitions must be >= 1, got {max_repetitions}")
    results = []
    for num_partitions in _candidate_partitions(profile, bfu_hashes):
        for repetitions in range(1, max_repetitions + 1):
            for per_bfu_fp in per_bfu_fp_choices:
                results.append(
                    _evaluate(profile, num_partitions, repetitions, per_bfu_fp, bfu_hashes, k, seed)
                )
    return results


def tune_for_fp_rate(
    profile: CollectionProfile,
    target_fp_rate: float = 0.01,
    bfu_hashes: int = 2,
    k: int = DEFAULT_K,
    seed: int = 0,
) -> TuningResult:
    """Cheapest-query configuration whose modelled FP rate meets the target.

    Raises :class:`ValueError` if no candidate meets the target (which only
    happens for extreme multiplicity/size combinations); callers can then
    raise ``max_repetitions`` via :func:`enumerate_candidates` directly.
    """
    if not (0.0 < target_fp_rate < 1.0):
        raise ValueError(f"target_fp_rate must be in (0, 1), got {target_fp_rate}")
    candidates = enumerate_candidates(profile, bfu_hashes=bfu_hashes, k=k, seed=seed)
    feasible = [c for c in candidates if c.predicted_fp_rate <= target_fp_rate]
    if not feasible:
        raise ValueError(
            f"no configuration meets fp_rate <= {target_fp_rate} for this collection; "
            "increase the repetition budget or relax the target"
        )
    return min(feasible, key=lambda c: (c.predicted_query_ops, c.predicted_size_bytes))


def tune_for_memory(
    profile: CollectionProfile,
    memory_budget_bytes: float,
    bfu_hashes: int = 2,
    k: int = DEFAULT_K,
    seed: int = 0,
) -> TuningResult:
    """Most accurate configuration that fits the memory budget."""
    if memory_budget_bytes <= 0:
        raise ValueError(f"memory_budget_bytes must be positive, got {memory_budget_bytes}")
    candidates = enumerate_candidates(profile, bfu_hashes=bfu_hashes, k=k, seed=seed)
    feasible = [c for c in candidates if c.predicted_size_bytes <= memory_budget_bytes]
    if not feasible:
        raise ValueError(
            f"no configuration fits within {memory_budget_bytes} bytes for this collection"
        )
    return min(feasible, key=lambda c: (c.predicted_fp_rate, c.predicted_query_ops))

"""Closed-form analysis from Section 4 of the paper.

Every lemma/theorem used for parameter selection or for the Figure 4 curves
has a direct counterpart here:

=====================  =====================================================
Paper statement         Function
=====================  =====================================================
Lemma 4.1               :func:`per_document_false_positive_rate`
Lemma 4.2               :func:`overall_false_positive_rate`
Theorem 4.3             :func:`repetitions_needed`
Lemma 4.4               :func:`expected_query_time`
optimum of Lemma 4.4    :func:`optimal_partitions`
Theorem 4.5             :func:`query_time_big_o`
Lemma 4.6 (Γ)           :func:`gamma`, :func:`expected_memory_bits`
=====================  =====================================================

These are *model* quantities — the benchmarks compare them against measured
behaviour, which is exactly how the paper uses them.
"""

from __future__ import annotations

import math
from typing import Dict, Sequence


def per_document_false_positive_rate(
    bfu_fp_rate: float, num_partitions: int, repetitions: int, multiplicity: int
) -> float:
    """Lemma 4.1: probability of incorrectly reporting one specific document.

    ``Fp = (p (1 - 1/B)^V + 1 - (1 - 1/B)^V)^R`` where ``p`` is the BFU
    false-positive rate, ``B`` the partitions, ``V`` the query's multiplicity.
    """
    _validate_probability("bfu_fp_rate", bfu_fp_rate)
    _validate_positive("num_partitions", num_partitions)
    _validate_positive("repetitions", repetitions)
    if multiplicity < 0:
        raise ValueError(f"multiplicity must be non-negative, got {multiplicity}")
    miss = (1.0 - 1.0 / num_partitions) ** multiplicity
    per_repetition = bfu_fp_rate * miss + (1.0 - miss)
    return per_repetition**repetitions


def overall_false_positive_rate(
    bfu_fp_rate: float,
    num_partitions: int,
    repetitions: int,
    multiplicity: int,
    num_documents: int,
) -> float:
    """Lemma 4.2: union bound over all K documents (capped at 1).

    ``delta <= K (1 - (1 - p)(1 - 1/B)^V)^R``.
    """
    _validate_positive("num_documents", num_documents)
    _validate_probability("bfu_fp_rate", bfu_fp_rate)
    _validate_positive("num_partitions", num_partitions)
    _validate_positive("repetitions", repetitions)
    miss = (1.0 - 1.0 / num_partitions) ** multiplicity
    per_repetition = 1.0 - (1.0 - bfu_fp_rate) * miss
    return min(1.0, num_documents * per_repetition**repetitions)


def repetitions_needed(num_documents: int, target_fp_rate: float) -> int:
    """Theorem 4.3: ``R = O(log K - log delta)`` repetitions suffice."""
    _validate_positive("num_documents", num_documents)
    _validate_probability("target_fp_rate", target_fp_rate, allow_zero=False)
    return max(1, int(math.ceil(math.log(num_documents) - math.log(target_fp_rate))))


def expected_query_time(
    num_documents: int,
    num_partitions: int,
    repetitions: int,
    bfu_hashes: int,
    bfu_fp_rate: float,
    multiplicity: int,
) -> float:
    """Lemma 4.4: ``E[qt] <= B R eta + (K/B)(V + B p) R`` in abstract operations.

    The first term is the BFU probing cost, the second the cost of the
    intersections over the surviving candidates.
    """
    _validate_positive("num_documents", num_documents)
    _validate_positive("num_partitions", num_partitions)
    _validate_positive("repetitions", repetitions)
    _validate_positive("bfu_hashes", bfu_hashes)
    _validate_probability("bfu_fp_rate", bfu_fp_rate)
    probe_cost = num_partitions * repetitions * bfu_hashes
    intersection_cost = (
        (num_documents / num_partitions)
        * (multiplicity + num_partitions * bfu_fp_rate)
        * repetitions
    )
    return probe_cost + intersection_cost


def optimal_partitions(num_documents: int, multiplicity: float, bfu_hashes: int) -> int:
    """Optimum of Lemma 4.4: ``B = sqrt(K V / eta)`` (at least 2)."""
    _validate_positive("num_documents", num_documents)
    _validate_positive("bfu_hashes", bfu_hashes)
    if multiplicity <= 0:
        multiplicity = 1
    return max(2, int(round(math.sqrt(num_documents * multiplicity / bfu_hashes))))


def query_time_big_o(num_documents: int, target_fp_rate: float) -> float:
    """Theorem 4.5: ``E[qt] = O(sqrt(K) (log K - log delta))`` (the dominant term)."""
    _validate_positive("num_documents", num_documents)
    _validate_probability("target_fp_rate", target_fp_rate, allow_zero=False)
    return math.sqrt(num_documents) * (math.log(num_documents) - math.log(target_fp_rate))


def gamma(num_partitions: int, multiplicity: int) -> float:
    """Lemma 4.6's Γ — the memory discount from merging duplicated terms.

    ``Γ = sum_{v=1..V} (1/v) * (B-1)^(V-2v+1) / B^(V-1)``.  Γ = 1 when every
    term is unique to one document (``V = 1`` or ``B = K`` with one document
    per BFU); Γ < 1 whenever merging collapses duplicate terms into one BFU
    insertion.
    """
    _validate_positive("num_partitions", num_partitions)
    _validate_positive("multiplicity", multiplicity)
    if num_partitions == 1:
        # A single bin stores each term once regardless of multiplicity.
        return 1.0 / multiplicity
    total = 0.0
    B = float(num_partitions)
    V = multiplicity
    for v in range(1, V + 1):
        total += (1.0 / v) * ((B - 1.0) ** (V - 2 * v + 1)) / (B ** (V - 1))
    return min(1.0, total)


def expected_memory_bits(
    total_terms: int,
    num_documents: int,
    num_partitions: int,
    multiplicity: int,
    bfu_fp_rate: float,
) -> float:
    """Lemma 4.6: ``E[M] = Γ log K log(1/p) Σ|S|`` expected bits of RAMBO."""
    _validate_positive("total_terms", total_terms)
    _validate_positive("num_documents", num_documents)
    _validate_probability("bfu_fp_rate", bfu_fp_rate, allow_zero=False)
    discount = gamma(num_partitions, multiplicity)
    return discount * math.log(max(num_documents, 2)) * math.log(1.0 / bfu_fp_rate) * total_terms


def bloom_filter_fp_rate(num_bits: int, num_hashes: int, num_items: int) -> float:
    """Section 2.1's simplified BFU false-positive rate ``(1 - e^{-ηn/m})^η``."""
    _validate_positive("num_bits", num_bits)
    _validate_positive("num_hashes", num_hashes)
    if num_items <= 0:
        return 0.0
    return (1.0 - math.exp(-num_hashes * num_items / num_bits)) ** num_hashes


def theoretical_comparison(num_documents: int, total_terms: int, target_fp_rate: float = 0.01) -> Dict[str, Dict[str, float]]:
    """Table 1's asymptotic comparison evaluated numerically.

    Returns, for each method, the modelled index size (in term-units) and
    query time (in abstract operations), so the Table 1 bench can print the
    same ordering the paper reports.
    """
    _validate_positive("num_documents", num_documents)
    _validate_positive("total_terms", total_terms)
    log_k = math.log(max(num_documents, 2))
    g = gamma(optimal_partitions(num_documents, 2, 2), 2)
    return {
        "inverted_index": {"size": log_k * total_terms, "query_time": 1.0},
        "cobs": {"size": float(total_terms), "query_time": float(num_documents)},
        "sbt": {"size": log_k * total_terms, "query_time": log_k},
        "rambo": {
            "size": g * log_k * total_terms,
            "query_time": query_time_big_o(num_documents, target_fp_rate),
        },
    }


def _validate_probability(name: str, value: float, allow_zero: bool = True) -> None:
    lower_ok = value >= 0.0 if allow_zero else value > 0.0
    if not (lower_ok and value <= 1.0):
        raise ValueError(f"{name} must be a probability, got {value}")


def _validate_positive(name: str, value: float) -> None:
    if value <= 0:
        raise ValueError(f"{name} must be positive, got {value}")

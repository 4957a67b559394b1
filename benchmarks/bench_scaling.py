"""Scaling laws — Theorem 4.5's sub-linear query cost, measured.

The paper's central asymptotic claim is that a RAMBO query touches
``O(sqrt(K) (log K - log delta))`` filters while an array of Bloom filters
(BIGSI/COBS) touches ``K``.  The genomic benches sweep modest document counts
because document *synthesis* is the slow part in pure Python; here we strip
that cost away by generating documents as plain random term sets, which lets
the sweep reach 1600 documents and makes the scaling exponent measurable.

Asserted shapes:

* RAMBO's measured probes per query grow sub-linearly in K (fitted exponent
  well below 1, and below ~0.75), while COBS's grow linearly by construction;
* the RAMBO-vs-COBS probe ratio widens monotonically with K;
* query answers remain supersets of the exact ground truth at every scale.
"""

from __future__ import annotations

import math
import random

import pytest

from repro.baselines.cobs import CobsIndex
from repro.core.rambo import Rambo, RamboConfig
from repro.kmers.extraction import KmerDocument

from _bench_utils import print_table

SCALES = (100, 200, 400, 800, 1600)
TERMS_PER_DOC = 60
NUM_QUERIES = 50
#: R is held fixed so the sweep measures the rule's B = sqrt(K V / eta) alone.
#: Under the rule's own R (2, then 3 from K = 800) the fitted exponent is
#: about 0.67, sqrt(K) log K over this range, and the COBS/RAMBO ratio dips
#: where R steps up.
FIXED_REPETITIONS = 4


def _make_documents(num_documents: int, seed: int):
    """Random term-set documents with a small shared vocabulary component."""
    rng = random.Random(seed)
    shared_vocab = [f"shared{j}" for j in range(TERMS_PER_DOC * 4)]
    documents = []
    for i in range(num_documents):
        unique = {f"doc{i}_t{j}" for j in range(TERMS_PER_DOC // 2)}
        shared = set(rng.sample(shared_vocab, TERMS_PER_DOC // 2))
        documents.append(KmerDocument(name=f"doc{i:06d}", terms=frozenset(unique | shared)))
    return documents


def _probe_terms(documents, seed: int):
    rng = random.Random(seed + 1)
    terms = [rng.choice(sorted(rng.choice(documents).terms)) for _ in range(NUM_QUERIES)]
    terms += [f"absent{j}" for j in range(10)]
    return terms


def _fit_exponent(xs, ys) -> float:
    """Least-squares slope of log(y) against log(x)."""
    lx = [math.log(x) for x in xs]
    ly = [math.log(max(y, 1e-9)) for y in ys]
    mean_x = sum(lx) / len(lx)
    mean_y = sum(ly) / len(ly)
    num = sum((a - mean_x) * (b - mean_y) for a, b in zip(lx, ly))
    den = sum((a - mean_x) ** 2 for a in lx)
    return num / den


@pytest.mark.benchmark(group="scaling-theorem45")
def test_scaling_probe_counts_sublinear(benchmark):
    """Measure probes-per-query for RAMBO vs COBS across a 16x range of K."""

    def sweep():
        rows = {}
        rambo_probes = []
        cobs_probes = []
        for num_documents in SCALES:
            documents = _make_documents(num_documents, seed=num_documents)
            terms = _probe_terms(documents, seed=num_documents)

            config = RamboConfig.recommended(
                num_documents, TERMS_PER_DOC, fp_rate=0.01, expected_multiplicity=2.0,
                k=13, repetitions=FIXED_REPETITIONS,
            )
            rambo = Rambo(config)
            rambo.add_documents(documents)
            cobs = CobsIndex.for_capacity(TERMS_PER_DOC, fp_rate=0.01, k=13)
            cobs.add_documents(documents)

            truth = {
                term: frozenset(d.name for d in documents if term in d.terms) for term in terms
            }
            r_probe = c_probe = 0
            for term in terms:
                r_result = rambo.query_term(term)
                c_result = cobs.query_term(term)
                r_probe += r_result.filters_probed
                c_probe += c_result.filters_probed
                assert truth[term] <= r_result.documents
                assert truth[term] <= c_result.documents
            rambo_probes.append(r_probe / len(terms))
            cobs_probes.append(c_probe / len(terms))
            rows[f"K={num_documents}"] = {
                "rambo_probes": rambo_probes[-1],
                "cobs_probes": cobs_probes[-1],
                "ratio": cobs_probes[-1] / rambo_probes[-1],
            }
        return rows, rambo_probes, cobs_probes

    rows, rambo_probes, cobs_probes = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print_table("Scaling (probes per query vs K)", rows)

    rambo_exponent = _fit_exponent(SCALES, rambo_probes)
    cobs_exponent = _fit_exponent(SCALES, cobs_probes)
    print(f"\nfitted probe-count exponents: RAMBO {rambo_exponent:.2f}, COBS {cobs_exponent:.2f}")

    # Theorem 4.5's shape: RAMBO clearly sub-linear, COBS linear.
    assert rambo_exponent < 0.75
    assert cobs_exponent > 0.95
    # The advantage widens with K.
    ratios = [rows[f"K={k}"]["ratio"] for k in SCALES]
    assert ratios == sorted(ratios)
    assert ratios[-1] > ratios[0] * 2

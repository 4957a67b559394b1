"""Multi-core execution — cores-vs-throughput curves, bit-identity at every count.

The paper's system is aggressively multi-threaded (construction runs on 40
threads per node, Section 5.2); this bench measures what the shared executor
(:mod:`repro.core.executor`) buys on this machine.  For batch query and for
construction it sweeps the thread count over {1, 2, 4} and prints a
throughput curve.  There is no speedup gate: RAMBO's batch query no longer
shards over the pool (the survivor-list kernel is a few dozen short numpy
calls; sharded it measured at most 1.17x at 2 threads and slower at 4 —
docs/ARCHITECTURE.md, "Parallel execution"), so its curve is flat by
construction, and construction is scatter-bound.

Bit-identity is asserted unconditionally, at every thread count, in every
mode: the sweep first proves that results (documents AND probe counts) and
constructed indexes are identical to the single-threaded reference, then
times the identical work.
"""

from __future__ import annotations

import time

import pytest

from repro.core.executor import num_threads
from repro.core.rambo import Rambo
from repro.experiments.genomics import build_all_indexes

from _bench_utils import BENCH_SMOKE, TABLE2_FILE_COUNTS, print_table

#: The cores-vs-throughput sweep.
THREAD_SWEEP = (1, 2, 4)
#: Terms per timed batch (several query chunks at the full size, so per-call
#: numpy work dominates).
NUM_BENCH_TERMS = 512 if BENCH_SMOKE else 8192


def _built_index(experiment) -> Rambo:
    factory = build_all_indexes(experiment.dataset, seed=experiment.seed, include=["rambo"])[
        "rambo"
    ]
    index = factory()
    index.add_documents(experiment.dataset.documents)
    return index


def _bench_terms(experiment):
    """A deterministic mixed hit/miss workload of NUM_BENCH_TERMS k-mer codes.

    The planted workload terms (real hits) are cycled and padded with a
    Weyl-sequence of synthetic codes (mostly misses), so the timed batch
    exercises both surviving pairs and terms that die in an early
    repetition.
    """
    planted = experiment.workload.all_terms
    space = 4 ** experiment.dataset.k
    terms = []
    for i in range(NUM_BENCH_TERMS):
        if i % 4 == 0 and planted:
            terms.append(planted[(i // 4) % len(planted)])
        else:
            terms.append((i * 2654435761) % space)
    return terms


def _fingerprint(results):
    return [(sorted(result.documents), result.filters_probed) for result in results]


def _best_of(fn, rounds=3):
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


@pytest.mark.parametrize("method", ("full", "sparse"))
def test_parallel_query_throughput_curve(genomics_experiments, method):
    """Batch-query throughput at 1/2/4 threads; identical results required.

    Informational curve (flat: the query runs on the calling thread at
    every setting); the assertion is bit-identity across thread counts.
    """
    experiment = genomics_experiments[max(TABLE2_FILE_COUNTS)]
    index = _built_index(experiment)
    terms = _bench_terms(experiment)

    rows = {}
    reference = None
    base_seconds = None
    for threads in THREAD_SWEEP:
        with num_threads(threads):
            observed = _fingerprint(index.query_terms_batch(terms, method=method))
            if reference is None:
                reference = observed
            # The identity property is the contract; it holds in every mode.
            assert observed == reference, f"results differ at threads={threads}"
            seconds = _best_of(lambda: index.query_terms_batch(terms, method=method))
        if base_seconds is None:
            base_seconds = seconds
        rows[f"threads={threads}"] = {
            "batch_ms": seconds * 1e3,
            "kterms_per_s": len(terms) / seconds / 1e3,
            "speedup": base_seconds / seconds,
        }
    print_table(
        f"Parallel batch query, {method} method "
        f"({len(terms)} terms, {max(TABLE2_FILE_COUNTS)} files)",
        rows,
    )


def test_parallel_build_throughput_curve(genomics_experiments):
    """Sharded construction at 1/2/4 threads; identical indexes required.

    Reports the curve for ``add_documents(parallel=True)``; no speedup gate —
    construction is scatter-bound, so the curve is informational.
    """
    experiment = genomics_experiments[max(TABLE2_FILE_COUNTS)]
    config = _built_index(experiment).config
    documents = experiment.dataset.documents

    def build(parallel):
        index = Rambo(config)
        index.add_documents(documents, parallel=parallel)
        return index

    reference = build(parallel=False)
    rows = {}
    base_seconds = None
    for threads in THREAD_SWEEP:
        with num_threads(threads):
            observed = build(parallel=True)
            for r in range(reference.repetitions):
                for b in range(reference.num_partitions):
                    assert observed.bfu(r, b).bits == reference.bfu(r, b).bits, (
                        f"BFU ({r},{b}) differs at threads={threads}"
                    )
            assert observed.document_names == reference.document_names
            seconds = _best_of(lambda: build(parallel=True))
        if base_seconds is None:
            base_seconds = seconds
        rows[f"threads={threads}"] = {
            "build_ms": seconds * 1e3,
            "docs_per_s": len(documents) / seconds,
            "speedup": base_seconds / seconds,
        }
    print_table(
        f"Parallel construction ({len(documents)} documents, "
        f"B={config.num_partitions} R={config.repetitions})",
        rows,
    )

"""Memory-mapped serving — open time and zero-copy query parity.

The paper's deployment distils 170TB of reads into a 1.8TB index that query
nodes must start serving immediately; an index that has to be deserialised
into fresh in-memory arrays pays the full payload read (and holds the data
twice) before the first answer.  This bench gates the two properties the
mmap container exists for:

* **Open time**: ``open_index`` reads only the header and maps the
  payload lazily, so it must open the default corpus at least **10x faster**
  than a ``pickle`` load of the same index (the eager-deserialisation
  baseline).
* **Parity**: every query answered from the mapped file must be
  *bit-identical* to the in-memory index — same doc-id arrays, same probe
  accounting — for the full and sparse engines, batch and conjunctive.

``REPRO_BENCH_SMOKE=1`` shrinks the corpus and disables the open-time gate
(parity is always asserted; it is a correctness property, not a timing one).
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.core.rambo import Rambo, RamboConfig
from repro.core.serialization import open_index, save_index
from repro.simulate.datasets import ENADatasetBuilder, build_query_workload
from repro.utils.timing import Timer

from _bench_utils import BENCH_SMOKE, BENCH_K, print_table

#: Serving-scale geometry: wide enough that the payload dominates the file
#: (the regime the zero-copy open exists for) while the build stays quick.
if BENCH_SMOKE:
    NUM_DOCUMENTS = 12
    CONFIG = RamboConfig(num_partitions=4, repetitions=2, bfu_bits=1 << 14, k=BENCH_K, seed=11)
else:
    NUM_DOCUMENTS = 80
    CONFIG = RamboConfig(num_partitions=32, repetitions=3, bfu_bits=1 << 22, k=BENCH_K, seed=11)

#: Timing repetitions; the minimum is reported to shed cold-cache noise.
TIMING_ROUNDS = 3


@pytest.fixture(scope="module")
def serving_setup(tmp_path_factory):
    """A built index, its query workload, and both on-disk artifacts."""
    builder = ENADatasetBuilder(k=BENCH_K, genome_length=1_200, seed=11)
    base = builder.build(NUM_DOCUMENTS, file_format="mccortex")
    dataset, workload = build_query_workload(
        base, num_positive=40, num_negative=40, mean_multiplicity=4.0, seed=11
    )
    index = Rambo(CONFIG)
    index.add_documents(dataset.documents)

    directory = tmp_path_factory.mktemp("serving")
    paths = {
        "pickle": directory / "index.pickle",
        "mmap": directory / "index.rambo2",
    }
    with open(paths["pickle"], "wb") as handle:
        pickle.dump(index, handle, protocol=pickle.HIGHEST_PROTOCOL)
    save_index(index, paths["mmap"])
    return index, workload, paths


def _min_seconds(action, rounds: int = TIMING_ROUNDS) -> float:
    best = float("inf")
    for _ in range(rounds):
        with Timer() as timer:
            action()
        best = min(best, timer.wall_seconds)
    return best


@pytest.mark.benchmark(group="mmap-serving-open")
def test_open_mmap_vs_pickle_load(benchmark, serving_setup):
    """``open_index`` must beat an eager pickle load by >= 10x on open time."""
    _, _, paths = serving_setup

    def measure():
        pickle_s = _min_seconds(lambda: pickle.load(open(paths["pickle"], "rb")))
        mmap_s = _min_seconds(lambda: open_index(paths["mmap"]))
        return pickle_s, mmap_s

    pickle_s, mmap_s = benchmark.pedantic(measure, rounds=1, iterations=1)
    speedup = pickle_s / max(mmap_s, 1e-9)
    print_table(
        f"mmap serving (open wall-clock seconds, {NUM_DOCUMENTS} files, "
        f"{CONFIG.num_partitions * CONFIG.repetitions * CONFIG.bfu_bits // 8:,} payload bytes)",
        {
            "pickle": {"open_s": pickle_s},
            "mmap_open": {"open_s": mmap_s, "vs_pickle": speedup},
        },
    )
    if not BENCH_SMOKE:
        assert speedup >= 10.0, (
            f"open_index speedup {speedup:.1f}x below the 10x gate "
            f"(pickle {pickle_s:.4f}s vs mmap {mmap_s:.4f}s)"
        )


@pytest.mark.benchmark(group="mmap-serving-parity")
def test_mapped_queries_bit_identical(benchmark, serving_setup):
    """Mapped query results must equal the in-memory index bit for bit."""
    index, workload, paths = serving_setup
    terms = workload.all_terms

    def compare():
        mapped = open_index(paths["mmap"])
        mismatches = 0
        for method in ("full", "sparse"):
            expected = index.query_terms_batch(terms, method=method)
            observed = mapped.query_terms_batch(terms, method=method)
            for want, got in zip(expected, observed):
                if not np.array_equal(want.doc_ids, got.doc_ids):
                    mismatches += 1
                if want.filters_probed != got.filters_probed:
                    mismatches += 1
            conj_want = index.query_terms(terms[:64], method=method)
            conj_got = mapped.query_terms(terms[:64], method=method)
            if conj_want != conj_got:
                mismatches += 1
        return mismatches

    mismatches = benchmark.pedantic(compare, rounds=1, iterations=1)
    assert mismatches == 0, f"{mismatches} mapped results diverged from the in-memory index"


@pytest.mark.benchmark(group="mmap-serving-query")
def test_mapped_query_throughput(benchmark, serving_setup):
    """Report warm mapped vs in-memory batch query time (no hard gate).

    After the first pass pages the touched words in, mapped serving runs the
    same gathers over the page cache; the table makes any residual overhead
    visible without turning CI into a timing experiment.
    """
    index, workload, paths = serving_setup
    terms = workload.all_terms

    def measure():
        mapped = open_index(paths["mmap"])
        mapped.query_terms_batch(terms)  # warm the mapping + caches
        index.query_terms_batch(terms)
        mapped_s = _min_seconds(lambda: mapped.query_terms_batch(terms))
        memory_s = _min_seconds(lambda: index.query_terms_batch(terms))
        return mapped_s, memory_s

    mapped_s, memory_s = benchmark.pedantic(measure, rounds=1, iterations=1)
    print_table(
        f"mmap serving (warm batch query seconds, {len(terms)} terms)",
        {
            "in_memory": {"query_s": memory_s},
            "mapped": {"query_s": mapped_s, "vs_memory": mapped_s / max(memory_s, 1e-9)},
        },
    )

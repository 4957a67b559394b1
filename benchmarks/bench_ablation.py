"""Ablation benches for the design choices DESIGN.md calls out.

These do not correspond to a single paper table; they quantify the knobs the
paper discusses qualitatively (Section 5.1 "Parameter Selection and Design
Choices") so the trade-offs are measurable in this implementation:

* **B sweep** — query probes and FP rate as the partition count moves around
  the Lemma 4.4 optimum ``sqrt(K V / eta)``.
* **R sweep** — the exponential FP decay (and linear probe growth) with the
  number of repetitions, Theorem 4.3's knob.
* **RAMBO+ pruning** — how many probes the sparse evaluation saves as R grows
  (it can only help when R > 1, and helps more the more repetitions there are).
* **Query-cache effect** — the vectorised all-B membership check vs probing
  BFU objects one by one (the implementation trick that keeps pure-Python
  query times sub-linear in practice).
* **Backend timing grid** — wall-clock per evaluation backend over a
  batch-size × selectivity grid, emitted machine-readably (the
  ``REPRO_BENCH_JSON`` side channel) in exactly the row shape
  ``repro-rambo calibrate --from-json`` fits the planner's cost model from.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core.rambo import Rambo, RamboConfig
from repro.simulate.datasets import ENADatasetBuilder, build_query_workload

from _bench_utils import BENCH_SMOKE, print_table

K = 15

#: Corpus/workload sizes; smoke mode shrinks them so the module doubles as a
#: CI execution check (assertions below stay valid at both sizes).
NUM_DOCUMENTS = 24 if BENCH_SMOKE else 80
NUM_QUERY_TERMS = 16 if BENCH_SMOKE else 40

#: Batch sizes of the backend timing grid (the cost model's n_terms axis).
GRID_BATCH_SIZES = (8, 32) if BENCH_SMOKE else (16, 128, 512)


@pytest.fixture(scope="module")
def ablation_data():
    builder = ENADatasetBuilder(k=K, genome_length=1_200, num_ancestors=4, seed=37)
    dataset = builder.build(NUM_DOCUMENTS, file_format="mccortex")
    return build_query_workload(
        dataset,
        num_positive=NUM_QUERY_TERMS,
        num_negative=NUM_QUERY_TERMS,
        mean_multiplicity=4.0,
        seed=37,
    )


def _measure(index, dataset, workload):
    false_positives = 0
    comparisons = 0
    probes = 0
    for term in workload.all_terms:
        result = index.query_term(term)
        probes += result.filters_probed
        truth = workload.positive_terms.get(term, frozenset())
        for name in dataset.names:
            if name not in truth:
                comparisons += 1
                if name in result.documents:
                    false_positives += 1
    return {
        "fp_rate": false_positives / comparisons,
        "probes_per_query": probes / len(workload.all_terms),
        "size_bytes": float(index.size_in_bytes()),
    }


@pytest.mark.benchmark(group="ablation-partitions")
def test_ablation_partition_count(benchmark, ablation_data):
    """Sweep B: more partitions cut merge-induced FPs but raise probe counts."""
    dataset, workload = ablation_data

    def sweep():
        rows = {}
        for num_partitions in (2, 4, 8, 16, 32):
            config = RamboConfig(
                num_partitions=num_partitions,
                repetitions=3,
                bfu_bits=1 << 15,
                bfu_hashes=2,
                k=K,
                seed=37,
            )
            index = Rambo(config)
            index.add_documents(dataset.documents)
            rows[f"B={num_partitions}"] = _measure(index, dataset, workload)
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print_table("Ablation: partition count B", rows)

    fp = [rows[f"B={b}"]["fp_rate"] for b in (2, 4, 8, 16, 32)]
    probes = [rows[f"B={b}"]["probes_per_query"] for b in (2, 4, 8, 16, 32)]
    # FP rate falls (weakly) as B grows; probe count rises linearly in B.
    assert fp[0] >= fp[-1]
    assert probes == sorted(probes)


@pytest.mark.benchmark(group="ablation-repetitions")
def test_ablation_repetition_count(benchmark, ablation_data):
    """Sweep R: FPs decay roughly geometrically, probes grow linearly."""
    dataset, workload = ablation_data

    def sweep():
        rows = {}
        for repetitions in (1, 2, 3, 4):
            config = RamboConfig(
                num_partitions=8,
                repetitions=repetitions,
                bfu_bits=1 << 15,
                bfu_hashes=2,
                k=K,
                seed=37,
            )
            index = Rambo(config)
            index.add_documents(dataset.documents)
            rows[f"R={repetitions}"] = _measure(index, dataset, workload)
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print_table("Ablation: repetition count R", rows)

    fp = [rows[f"R={r}"]["fp_rate"] for r in (1, 2, 3, 4)]
    sizes = [rows[f"R={r}"]["size_bytes"] for r in (1, 2, 3, 4)]
    assert fp == sorted(fp, reverse=True)  # more repetitions, fewer FPs
    assert sizes == sorted(sizes)  # each repetition costs one more table


@pytest.mark.benchmark(group="ablation-rambo-plus")
def test_ablation_sparse_evaluation_savings(benchmark, ablation_data):
    """RAMBO+ saves probes, and the saving grows with the repetition count."""
    dataset, workload = ablation_data

    def sweep():
        savings = {}
        for repetitions in (2, 4, 6):
            config = RamboConfig(
                num_partitions=16,
                repetitions=repetitions,
                bfu_bits=1 << 15,
                bfu_hashes=2,
                k=K,
                seed=37,
            )
            index = Rambo(config)
            index.add_documents(dataset.documents)
            full = sparse = 0
            for term in workload.all_terms:
                full += index.query_term(term, method="full").filters_probed
                sparse += index.query_term(term, method="sparse").filters_probed
            savings[f"R={repetitions}"] = {
                "full_probes": float(full),
                "sparse_probes": float(sparse),
                "saved_fraction": 1.0 - sparse / full,
            }
        return savings

    savings = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print_table("Ablation: RAMBO+ probe savings", savings)

    for row in savings.values():
        assert row["sparse_probes"] <= row["full_probes"]
    fractions = [savings[f"R={r}"]["saved_fraction"] for r in (2, 4, 6)]
    assert fractions[-1] >= fractions[0]


@pytest.mark.benchmark(group="ablation-query-path")
def test_ablation_vectorised_vs_per_filter_probing(benchmark, ablation_data):
    """The vectorised all-B membership check vs naive per-BFU probing.

    Both paths return identical answers; the vectorised path is what makes the
    pure-Python query time competitive.  This bench measures the speedup and
    asserts the equivalence.
    """
    dataset, workload = ablation_data
    config = RamboConfig(
        num_partitions=16, repetitions=3, bfu_bits=1 << 15, bfu_hashes=2, k=K, seed=37
    )
    index = Rambo(config)
    index.add_documents(dataset.documents)
    terms = workload.all_terms

    def naive_query(term):
        # Probe every BFU object individually (the pre-optimisation code path).
        import numpy as np

        final_mask = None
        for r in range(index.repetitions):
            hits = [
                b for b in range(index.num_partitions) if index.bfu(r, b).contains(term)
            ]
            mask = index._candidate_mask(hits, r)  # noqa: SLF001
            final_mask = mask if final_mask is None else final_mask & mask
        return frozenset(index.document_names[i] for i in np.flatnonzero(final_mask))

    def timed_comparison():
        from repro.utils.timing import Timer

        index._refresh_member_arrays()  # noqa: SLF001
        with Timer() as fast:
            fast_answers = [index.query_term(term).documents for term in terms]
        with Timer() as slow:
            slow_answers = [naive_query(term) for term in terms]
        assert fast_answers == slow_answers
        return {
            "vectorised": {"seconds": fast.wall_seconds},
            "per-filter": {"seconds": slow.wall_seconds},
        }

    rows = benchmark.pedantic(timed_comparison, rounds=1, iterations=1)
    print_table("Ablation: vectorised vs per-filter probing", rows)
    assert rows["vectorised"]["seconds"] < rows["per-filter"]["seconds"]


@pytest.mark.benchmark(group="ablation-backend-grid")
def test_ablation_backend_timing_grid(benchmark, ablation_data):
    """Per-backend wall-clock over the batch-size × selectivity grid.

    This is the measurement the cost-based planner's constants come from:
    each row is one ``(backend, n_terms, selectivity)`` cell carrying the
    three columns (``terms``, ``selectivity``, ``seconds``) that
    ``CostModel.fit_from_grid`` — and therefore ``repro-rambo calibrate
    --from-json`` — consumes straight from the ``REPRO_BENCH_JSON`` stream.
    The backends are the planner's executable strategies over one artifact,
    so the grid also demonstrates the spread the planner exploits: the
    scalar reference is the worst cell everywhere, full vs sparse flips
    with selectivity.
    """
    from repro.plan import Planner

    dataset, workload = ablation_data
    config = RamboConfig(
        num_partitions=16, repetitions=3, bfu_bits=1 << 15, bfu_hashes=2, k=K, seed=37
    )
    index = Rambo(config)
    index.add_documents(dataset.documents)
    planner = Planner.for_index(index)

    rng = np.random.default_rng(37)
    pools = {
        "lo": rng.integers(0, 2**63, size=max(GRID_BATCH_SIZES), dtype=np.uint64),
        "hi": list(workload.positive_terms),
    }

    def sweep():
        rows = {}
        for label, pool in pools.items():
            pool = list(pool)
            selectivity = float(
                np.mean(index.estimate_selectivities(pool))
            )
            for size in GRID_BATCH_SIZES:
                batch = [pool[i % len(pool)] for i in range(size)]
                for name in planner.backend_names:
                    run = planner.backend(name).run_batch
                    run(batch)  # warm-up: page-in and lazy caches
                    best = min(
                        _timed_run(run, batch) for _ in range(2 if BENCH_SMOKE else 3)
                    )
                    rows[f"{name}@n={size},sel={label}"] = {
                        "terms": float(size),
                        "selectivity": selectivity,
                        "seconds": best,
                    }
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print_table("Ablation: backend timing grid", rows)

    # The grid must be fittable — the calibrate --from-json contract.
    from repro.plan import CostModel

    model = CostModel()
    fitted = model.fit_from_grid([{"title": "grid", "rows": rows}])
    assert set(fitted) == set(planner.backend_names)
    if not BENCH_SMOKE:
        # The spread the planner exploits: at the largest batch the scalar
        # reference must be the worst backend by a wide margin.
        size = max(GRID_BATCH_SIZES)
        scalar = rows[f"scalar-full@n={size},sel=lo"]["seconds"]
        batched = rows[f"batch-full@n={size},sel=lo"]["seconds"]
        assert scalar > batched * 2


def _timed_run(run, batch) -> float:
    start = time.perf_counter()
    run(batch)
    return time.perf_counter() - start

"""Property tests for the shared executor and every parallel hot path.

The single contract under test: *thread count is invisible in results*.
For every structure (Rambo full and sparse, COBS, DistributedRambo, a
memory-mapped index) and every thread count, the parallel paths must return
documents AND probe counts bit-identical to the single-threaded reference,
and parallel construction must produce byte-identical indexes.  Alongside
the identity properties sit unit tests for the executor itself:
configuration precedence, inline guarantees, nested-parallelism safety,
sharding arithmetic, and error propagation.
"""

from __future__ import annotations

import threading

import pytest
from hypothesis import given, strategies as st

from hypothesis_profiles import tier

from repro.baselines.cobs import CobsIndex
from repro.core import executor
from repro.core.distributed import DistributedRambo
from repro.core.executor import (
    THREADS_ENV_VAR,
    get_num_threads,
    in_worker,
    num_threads,
    parallel_map,
    set_num_threads,
    shard_ranges,
    shutdown_pool,
)
from repro.core.rambo import Rambo, RamboConfig
from repro.core.serialization import open_index, save_index

#: Every identity property is checked at these counts: the inline reference,
#: the smallest real pool, and an awkward prime larger than the shard count.
THREAD_COUNTS = (1, 2, 7)


@pytest.fixture(autouse=True)
def _clean_executor_state(monkeypatch):
    """Each test starts from the no-override, no-env default and leaks nothing."""
    monkeypatch.delenv(THREADS_ENV_VAR, raising=False)
    monkeypatch.delenv(executor.MIN_TERMS_ENV_VAR, raising=False)
    set_num_threads(None)
    executor.set_min_terms_per_shard(None)
    yield
    set_num_threads(None)
    executor.set_min_terms_per_shard(None)


def rambo_config(**overrides) -> RamboConfig:
    params = dict(num_partitions=4, repetitions=3, bfu_bits=1 << 12, bfu_hashes=2, k=13, seed=5)
    params.update(overrides)
    return RamboConfig(**params)


def fingerprint(results):
    """Everything a query answer exposes: documents and probe accounting."""
    return [(sorted(result.documents), result.filters_probed) for result in results]


@pytest.fixture(scope="module")
def query_terms(workload):
    """Enough terms (mixed hit/miss, with duplicates) to span several shards."""
    _, plan = workload
    return plan.all_terms * 3  # 240 terms -> multiple term shards at 64 terms/shard


# -- executor unit tests -------------------------------------------------------------


class TestConfiguration:
    def test_default_is_cpu_count(self):
        import os

        assert get_num_threads() == (os.cpu_count() or 1)

    def test_env_variable_respected(self, monkeypatch):
        monkeypatch.setenv(THREADS_ENV_VAR, "3")
        assert get_num_threads() == 3

    def test_override_beats_env(self, monkeypatch):
        monkeypatch.setenv(THREADS_ENV_VAR, "3")
        set_num_threads(5)
        assert get_num_threads() == 5

    @pytest.mark.parametrize("value", ["zero", "1.5", "0", "-2"])
    def test_malformed_env_rejected(self, monkeypatch, value):
        monkeypatch.setenv(THREADS_ENV_VAR, value)
        with pytest.raises(ValueError):
            get_num_threads()

    @pytest.mark.parametrize("value", [0, -1, "four"])
    def test_invalid_override_rejected(self, value):
        with pytest.raises(ValueError):
            set_num_threads(value)

    def test_none_clears_override(self, monkeypatch):
        monkeypatch.setenv(THREADS_ENV_VAR, "2")
        set_num_threads(9)
        set_num_threads(None)
        assert get_num_threads() == 2

    def test_context_manager_restores_previous(self):
        set_num_threads(4)
        with num_threads(2):
            assert get_num_threads() == 2
            with num_threads(6):
                assert get_num_threads() == 6
            assert get_num_threads() == 2
        assert get_num_threads() == 4

    def test_context_manager_restores_on_error(self):
        set_num_threads(4)
        with pytest.raises(RuntimeError):
            with num_threads(2):
                raise RuntimeError("boom")
        assert get_num_threads() == 4


class TestParallelMap:
    def test_results_in_input_order(self):
        with num_threads(4):
            assert parallel_map(lambda x: x * x, range(50)) == [x * x for x in range(50)]

    def test_single_thread_runs_inline(self):
        shutdown_pool()
        with num_threads(1):
            main_thread = [parallel_map(lambda _: threading.current_thread(), [0, 1, 2])]
        assert all(t is threading.main_thread() for t in main_thread[0])
        assert executor._pool is None  # strictly no pool was created

    def test_multi_thread_uses_workers(self):
        with num_threads(3):
            names = parallel_map(lambda _: threading.current_thread().name, range(8))
        assert any(name.startswith("repro-exec") for name in names)

    def test_a_nested_num_threads_overrides_the_outer_one(self):
        shutdown_pool()
        with num_threads(8):
            with num_threads(1):
                parallel_map(lambda x: x, [1, 2, 3])
            assert executor._pool is None  # num_threads(1) bypassed the pool
        with num_threads(1):
            with num_threads(3):
                names = parallel_map(lambda _: threading.current_thread().name, range(8))
        assert any(name.startswith("repro-exec") for name in names)

    def test_error_propagates(self):
        def explode(x):
            if x == 3:
                raise ValueError("item 3")
            return x

        with num_threads(4):
            with pytest.raises(ValueError, match="item 3"):
                parallel_map(explode, range(8))

    def test_nested_calls_run_inline(self):
        """A worker that fans out again must not deadlock the finite pool."""

        def outer(x):
            assert in_worker()
            # Inner map is forced inline, so its work stays on this worker.
            inner = parallel_map(lambda y: threading.current_thread(), range(4))
            assert all(t is threading.current_thread() for t in inner)
            return x

        with num_threads(2):
            assert parallel_map(outer, range(6)) == list(range(6))
        assert not in_worker()

    def test_pool_grows_but_is_reused(self):
        shutdown_pool()
        with num_threads(2):
            parallel_map(lambda x: x, range(4))
        small = executor._pool
        with num_threads(4):
            parallel_map(lambda x: x, range(4))
        grown = executor._pool
        assert grown is not small
        with num_threads(3):
            parallel_map(lambda x: x, range(4))
        assert executor._pool is grown  # no churn when shrinking the request


class TestShardRanges:
    @given(
        total=st.integers(min_value=0, max_value=10_000),
        num_shards=st.integers(min_value=1, max_value=64),
        min_per_shard=st.integers(min_value=1, max_value=256),
    )
    @tier("determinism")
    def test_tiles_range_exactly(self, total, num_shards, min_per_shard):
        ranges = shard_ranges(total, num_shards, min_per_shard)
        if total == 0:
            assert ranges == []
            return
        assert ranges[0][0] == 0 and ranges[-1][1] == total
        assert all(a[1] == b[0] for a, b in zip(ranges, ranges[1:]))
        sizes = [stop - start for start, stop in ranges]
        assert max(sizes) - min(sizes) <= 1
        assert len(ranges) <= num_shards
        if len(ranges) > 1:
            assert min(sizes) >= min_per_shard

    def test_exact_split(self):
        assert shard_ranges(10, 2) == [(0, 5), (5, 10)]

    def test_remainder_spread_over_leading_shards(self):
        assert shard_ranges(10, 4) == [(0, 3), (3, 6), (6, 8), (8, 10)]

    def test_min_per_shard_caps_shard_count(self):
        assert shard_ranges(100, 16, min_per_shard=64) == [(0, 100)]
        assert shard_ranges(130, 16, min_per_shard=64) == [(0, 65), (65, 130)]

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            shard_ranges(10, 0)
        with pytest.raises(ValueError):
            shard_ranges(10, 2, min_per_shard=0)


# -- bit-identity of parallel queries ------------------------------------------------


class TestRamboQueryIdentity:
    @pytest.mark.parametrize("method", ["full", "sparse"])
    def test_batch_identical_across_thread_counts(self, built_rambo, query_terms, method):
        with num_threads(1):
            reference = fingerprint(built_rambo.query_terms_batch(query_terms, method=method))
        for threads in THREAD_COUNTS[1:]:
            with num_threads(threads):
                observed = fingerprint(
                    built_rambo.query_terms_batch(query_terms, method=method)
                )
            assert observed == reference, f"method={method} threads={threads}"

    @pytest.mark.parametrize("method", ["full", "sparse"])
    def test_conjunction_identical_across_thread_counts(self, built_rambo, small_dataset, method):
        terms = sorted(small_dataset.documents[0].terms)[:40]
        with num_threads(1):
            reference = built_rambo.query_terms(terms, method=method)
        for threads in THREAD_COUNTS[1:]:
            with num_threads(threads):
                observed = built_rambo.query_terms(terms, method=method)
            assert observed.documents == reference.documents
            assert observed.filters_probed == reference.filters_probed


class TestMmapQueryIdentity:
    @pytest.mark.parametrize("method", ["full", "sparse"])
    def test_mapped_index_identical_across_thread_counts(
        self, built_rambo, query_terms, tmp_path, method
    ):
        path = tmp_path / "index.rambo2"
        save_index(built_rambo, path)
        mapped = open_index(path)
        assert mapped.is_mapped
        with num_threads(1):
            reference = fingerprint(mapped.query_terms_batch(query_terms, method=method))
        for threads in THREAD_COUNTS[1:]:
            with num_threads(threads):
                observed = fingerprint(mapped.query_terms_batch(query_terms, method=method))
            assert observed == reference, f"method={method} threads={threads}"


class TestCobsQueryIdentity:
    def test_batch_identical_across_thread_counts(self, small_dataset, query_terms):
        index = CobsIndex(num_bits=1 << 13, num_hashes=3, k=small_dataset.k, seed=2)
        index.add_documents(small_dataset.documents)
        with num_threads(1):
            reference = fingerprint(index.query_terms_batch(query_terms))
        for threads in THREAD_COUNTS[1:]:
            with num_threads(threads):
                observed = fingerprint(index.query_terms_batch(query_terms))
            assert observed == reference, f"threads={threads}"


class TestDistributedQueryIdentity:
    @pytest.mark.parametrize("method", ["full", "sparse"])
    def test_batch_identical_across_thread_counts(self, small_dataset, query_terms, method):
        index = DistributedRambo(num_nodes=3, node_config=rambo_config(seed=21))
        index.add_documents(small_dataset.documents)
        with num_threads(1):
            reference = fingerprint(index.query_terms_batch(query_terms, method=method))
        for threads in THREAD_COUNTS[1:]:
            with num_threads(threads):
                observed = fingerprint(index.query_terms_batch(query_terms, method=method))
            assert observed == reference, f"method={method} threads={threads}"


# -- bit-identity of parallel construction -------------------------------------------


def assert_indexes_identical(observed: Rambo, reference: Rambo) -> None:
    """Full structural equality: bookkeeping and every BFU bit."""
    assert observed.document_names == reference.document_names
    for r in range(reference.repetitions):
        assert observed._assignments[r] == reference._assignments[r]  # noqa: SLF001
        for b in range(reference.num_partitions):
            assert observed.partition_members(r, b) == reference.partition_members(r, b)
            assert observed.bfu(r, b).bits == reference.bfu(r, b).bits
            assert observed.bfu(r, b).num_items == reference.bfu(r, b).num_items


class TestParallelBuildIdentity:
    def test_add_documents_parallel_identical(self, small_dataset):
        reference = Rambo(rambo_config())
        reference.add_documents(small_dataset.documents)
        for threads in THREAD_COUNTS[1:]:
            with num_threads(threads):
                observed = Rambo(rambo_config())
                observed.add_documents(small_dataset.documents, parallel=True)
            assert_indexes_identical(observed, reference)

    def test_add_documents_parallel_inline_when_single_threaded(self, small_dataset):
        with num_threads(1):
            observed = Rambo(rambo_config())
            observed.add_documents(small_dataset.documents, parallel=True)
        reference = Rambo(rambo_config())
        reference.add_documents(small_dataset.documents)
        assert_indexes_identical(observed, reference)

    def test_parallel_index_serializes_identically(self, small_dataset, tmp_path):
        reference = Rambo(rambo_config())
        reference.add_documents(small_dataset.documents)
        with num_threads(4):
            observed = Rambo(rambo_config())
            observed.add_documents(small_dataset.documents, parallel=True)
        ref_path, obs_path = tmp_path / "ref.rambo", tmp_path / "obs.rambo"
        save_index(reference, ref_path)
        save_index(observed, obs_path)
        assert obs_path.read_bytes() == ref_path.read_bytes()

    @pytest.mark.parametrize("threads", [1, 2, 3, 4])
    @pytest.mark.parametrize("batch", [3, 8, 13])
    def test_add_documents_identical_across_threads_and_batches(
        self, small_dataset, threads, batch
    ):
        docs = small_dataset.documents
        reference = Rambo(rambo_config())
        reference.add_documents(docs)
        observed = Rambo(rambo_config())
        with num_threads(threads):
            for start in range(0, len(docs), batch):
                observed.add_documents(docs[start : start + batch], parallel=True)
        assert_indexes_identical(observed, reference)

    def test_distributed_parallel_add_identical(self, small_dataset):
        reference = DistributedRambo(num_nodes=3, node_config=rambo_config(seed=21))
        reference.add_documents(small_dataset.documents)
        with num_threads(4):
            observed = DistributedRambo(num_nodes=3, node_config=rambo_config(seed=21))
            observed.add_documents(small_dataset.documents, parallel=True)
        for shard_obs, shard_ref in zip(observed._shards, reference._shards):  # noqa: SLF001
            assert_indexes_identical(shard_obs, shard_ref)

    def test_queries_after_parallel_build_identical(self, small_dataset, query_terms):
        reference = Rambo(rambo_config())
        reference.add_documents(small_dataset.documents)
        with num_threads(4):
            observed = Rambo(rambo_config())
            observed.add_documents(small_dataset.documents, parallel=True)
            obs_results = fingerprint(observed.query_terms_batch(query_terms))
        ref_results = fingerprint(reference.query_terms_batch(query_terms))
        assert obs_results == ref_results


# -- the term-shard floor tunable ----------------------------------------------------


class TestMinTermsPerShard:
    """The 64-terms-per-shard floor is tunable; tuning it never changes answers."""

    def test_default_is_64(self):
        assert executor.get_min_terms_per_shard() == executor.DEFAULT_MIN_TERMS_PER_SHARD == 64

    def test_env_variable_respected(self, monkeypatch):
        monkeypatch.setenv(executor.MIN_TERMS_ENV_VAR, "16")
        assert executor.get_min_terms_per_shard() == 16

    def test_override_beats_env(self, monkeypatch):
        monkeypatch.setenv(executor.MIN_TERMS_ENV_VAR, "16")
        executor.set_min_terms_per_shard(128)
        assert executor.get_min_terms_per_shard() == 128

    @pytest.mark.parametrize("value", ["zero", "0", "-8", "1.5"])
    def test_malformed_env_rejected(self, monkeypatch, value):
        monkeypatch.setenv(executor.MIN_TERMS_ENV_VAR, value)
        with pytest.raises(ValueError):
            executor.get_min_terms_per_shard()

    @pytest.mark.parametrize("value", [0, -1, "four"])
    def test_invalid_override_rejected(self, value):
        with pytest.raises(ValueError):
            executor.set_min_terms_per_shard(value)

    def test_context_manager_restores_previous(self):
        executor.set_min_terms_per_shard(32)
        with executor.min_terms_per_shard(8):
            assert executor.get_min_terms_per_shard() == 8
        assert executor.get_min_terms_per_shard() == 32

    def test_floor_feeds_shard_ranges(self):
        # A floor of 100 over 150 terms permits at most one shard of >= 100.
        with executor.min_terms_per_shard(100):
            floor = executor.get_min_terms_per_shard()
        assert shard_ranges(150, 8, floor) == [(0, 150)]

    @pytest.mark.parametrize("floor", [1, 8, 1000])
    def test_query_identity_across_floors(self, built_rambo, query_terms, floor):
        """Sharding granularity changes scheduling, never answers."""
        reference = fingerprint(built_rambo.query_terms_batch(query_terms))
        with num_threads(4), executor.min_terms_per_shard(floor):
            observed = fingerprint(built_rambo.query_terms_batch(query_terms))
        assert observed == reference


# -- small batches: below the floor nothing touches the pool --------------------------


def _small_batch_index(kind: str, small_dataset, config: RamboConfig, tmp_path):
    """One index per serving shape: in-memory, mmap-opened, base+delta overlay."""
    from repro.ingest import DeltaOverlayIndex

    documents = small_dataset.documents
    if kind == "overlay":
        base, delta = Rambo(config), Rambo(config)
        base.add_documents(documents[:20])
        delta.add_documents(documents[20:])
        return DeltaOverlayIndex(base, delta)
    index = Rambo(config)
    index.add_documents(documents)
    if kind == "mapped":
        path = tmp_path / "small-batch.rambo2"
        save_index(index, path)
        index = open_index(path)
        assert index.is_mapped
    return index


class TestSmallBatchIdentity:
    """Batches around the term-shard floor, where a served request lives:
    the same bits as the scalar path, and no pool hand-off to get them."""

    FLOORS = (1, 64)

    @staticmethod
    def _sizes(floor: int):
        return sorted({1, 8, floor - 1, floor, floor + 1} - {0})

    @pytest.mark.parametrize("method", ["full", "sparse"])
    @pytest.mark.parametrize("kind", ["memory", "mapped", "overlay"])
    def test_batch_matches_scalar_query_term(
        self, small_dataset, small_rambo_config, query_terms, tmp_path, kind, method
    ):
        index = _small_batch_index(kind, small_dataset, small_rambo_config, tmp_path)
        terms = query_terms[: max(self.FLOORS) + 1]
        scalar = fingerprint([index.query_term(term, method=method) for term in terms])
        for floor in self.FLOORS:
            for threads in THREAD_COUNTS:
                for size in self._sizes(floor):
                    with num_threads(threads), executor.min_terms_per_shard(floor):
                        observed = fingerprint(
                            index.query_terms_batch(terms[:size], method=method)
                        )
                    assert observed == scalar[:size], (
                        f"{kind} {method} floor={floor} threads={threads} size={size}"
                    )

    @pytest.mark.parametrize("method", ["full", "sparse"])
    @pytest.mark.parametrize("kind", ["memory", "mapped", "overlay"])
    def test_conjunction_matches_scalar_query_term(
        self, small_dataset, small_rambo_config, tmp_path, kind, method
    ):
        """Documents are the intersection of the scalar per-term answers.  A
        conjunction's probe count has no scalar twin (it stops when the
        *running intersection* empties), so that is held to the strictly
        inline evaluation instead."""
        index = _small_batch_index(kind, small_dataset, small_rambo_config, tmp_path)
        terms = sorted(small_dataset.documents[0].terms)[: max(self.FLOORS) + 1]
        scalar = [index.query_term(term, method=method).documents for term in terms]
        for floor in self.FLOORS:
            for size in self._sizes(floor):
                expected = frozenset.intersection(*scalar[:size])
                with num_threads(1):
                    inline = index.query_terms(terms[:size], method=method)
                assert inline.documents == expected
                for threads in THREAD_COUNTS[1:]:
                    with num_threads(threads), executor.min_terms_per_shard(floor):
                        observed = index.query_terms(terms[:size], method=method)
                    context = f"{kind} {method} floor={floor} threads={threads} size={size}"
                    assert observed.documents == expected, context
                    assert observed.filters_probed == inline.filters_probed, context

    @pytest.mark.parametrize("method", ["full", "sparse"])
    def test_batch_query_submits_no_pool_task(self, built_rambo, query_terms, monkeypatch, method):
        """A RAMBO query of any size runs on the calling thread: the kernel
        is a few dozen short numpy calls, too little for the pool to win
        back its hand-offs (docs/ARCHITECTURE.md, "Parallel execution")."""
        pools_requested = []

        def recording_get_pool(size):
            pools_requested.append(size)
            return real_get_pool(size)

        real_get_pool = executor._get_pool  # noqa: SLF001
        monkeypatch.setattr(executor, "_get_pool", recording_get_pool)
        with num_threads(4), executor.min_terms_per_shard(1):
            for size in (1, 8, 64, 128, len(query_terms)):
                built_rambo.query_terms_batch(query_terms[:size], method=method)
                built_rambo.query_terms(query_terms[:size], method=method)
            assert pools_requested == []
            # The recorder does see a real fan-out.
            parallel_map(lambda x: x, [1, 2])
            assert pools_requested == [4]

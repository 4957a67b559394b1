"""The vectorised write pipeline: bulk inserts must be bit-identical to the
scalar reference path at every layer (BitArray, BloomFilter, Rambo, COBS,
parallel merge, distributed shards) and caches must stay correct across
post-build incremental inserts."""

from __future__ import annotations

import tempfile
import tracemalloc
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.cobs import CobsIndex
from repro.bloom.bitarray import BitArray, set_rows
from repro.bloom.bloom_filter import BloomFilter
from repro.core.distributed import DistributedRambo
from repro.core.folding import fold_rambo
from repro.core import rambo as rambo_module
from repro.core.executor import num_threads
from repro.core.parallel import merge_indexes
from repro.core.rambo import Rambo, RamboConfig
from repro.core.serialization import open_index, save_index
from repro.hashing.murmur3 import double_hashes, double_hashes_batch
from repro.io.mccortex import read_mccortex, write_mccortex
from repro.kmers.extraction import KmerDocument


def config(**overrides) -> RamboConfig:
    params = dict(num_partitions=4, repetitions=3, bfu_bits=1 << 12, bfu_hashes=2, k=13, seed=5)
    params.update(overrides)
    return RamboConfig(**params)


def assert_bit_identical(a: Rambo, b: Rambo) -> None:
    """Every BFU payload, item count and bookkeeping table agrees."""
    assert a.num_partitions == b.num_partitions
    assert a.repetitions == b.repetitions
    assert a.document_names == b.document_names
    for r in range(a.repetitions):
        assert a._assignments[r] == b._assignments[r]  # noqa: SLF001
        for p in range(a.num_partitions):
            assert a.bfu(r, p).bits == b.bfu(r, p).bits
            assert a.bfu(r, p).num_items == b.bfu(r, p).num_items


# -- BitArray ----------------------------------------------------------------------


class TestBitArraySetManyArray:
    def test_array_and_iterable_paths_agree(self):
        indices = [3, 64, 64, 127, 500, 0]
        a = BitArray(512)
        b = BitArray(512)
        a.set_many(indices)
        b.set_many(np.asarray(indices, dtype=np.int64))
        assert a == b

    def test_matrix_input_is_flattened(self):
        arr = BitArray(256)
        arr.set_many(np.asarray([[1, 2], [3, 200]], dtype=np.int64))
        assert arr.to_indices().tolist() == [1, 2, 3, 200]

    def test_negative_indices_wrap_like_scalar(self):
        a = BitArray(128)
        b = BitArray(128)
        a.set_many([-1, -128, 5])
        b.set_many(np.asarray([-1, -128, 5], dtype=np.int64))
        assert a == b
        assert a.get(127) and a.get(0) and a.get(5)

    def test_out_of_range_array_rejected(self):
        arr = BitArray(64)
        with pytest.raises(IndexError):
            arr.set_many(np.asarray([0, 64], dtype=np.int64))
        with pytest.raises(IndexError):
            arr.set_many(np.asarray([-65], dtype=np.int64))

    def test_huge_uint64_indices_raise_instead_of_wrapping(self):
        # A blind int64 cast would wrap 2**64 - 50 to a negative index and
        # silently set bit 50; the unsigned path must raise like the scalar.
        arr = BitArray(100)
        with pytest.raises(IndexError):
            arr.set_many(np.asarray([2**64 - 50], dtype=np.uint64))
        assert arr.count() == 0
        with pytest.raises(IndexError):
            arr.get_many(np.asarray([2**63], dtype=np.uint64))

    def test_empty_array(self):
        arr = BitArray(64)
        arr.set_many(np.zeros(0, dtype=np.int64))
        assert arr.count() == 0

    def test_get_many_array_path(self):
        arr = BitArray(128)
        arr.set_many([1, 70])
        got = arr.get_many(np.asarray([0, 1, 70, 127], dtype=np.int64))
        assert got.tolist() == [False, True, True, False]


# -- double_hashes_batch ndarray fast path -----------------------------------------


class TestSetRows:
    """The multi-row scatter equals one ``BitArray.set_many`` per row."""

    @given(
        st.sampled_from([1, 63, 64, 65, 130, 1000]).flatmap(
            lambda size: st.tuples(
                st.just(size),
                st.lists(st.integers(min_value=0, max_value=size - 1), max_size=40),
            )
        ),
        st.integers(min_value=1, max_value=3),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_set_many_per_row(self, case, num_rows):
        size, positions = case
        words = (size + 63) // 64
        rows = np.zeros((num_rows, words), dtype=np.uint64)
        rows[:, 0] = np.uint64(0b1010)  # bits already set stay set
        expected = [BitArray(size, row.copy()) for row in rows]
        for bits in expected:
            bits.set_many(positions)
        set_rows(list(rows), np.asarray(positions, dtype=np.int64), size)
        for row, bits in zip(rows, expected):
            assert np.array_equal(row, bits.words)

    def test_positions_colliding_in_one_word_all_land(self):
        row = np.zeros(2, dtype=np.uint64)
        set_rows([row], np.asarray([[0, 63], [5, 0], [63, 64]]), 65)
        assert row.tolist() == [(1 << 63) | (1 << 5) | 1, 1]

    @pytest.mark.parametrize("bad", [-1, 65, 128])
    def test_out_of_range_rejected_before_any_row_changes(self, bad):
        rows = [np.zeros(2, dtype=np.uint64) for _ in range(2)]
        with pytest.raises(IndexError):
            set_rows(rows, np.asarray([1, bad, 3]), 65)
        assert not any(row.any() for row in rows)

    def test_empty_positions_are_a_no_op(self):
        row = np.zeros(1, dtype=np.uint64)
        set_rows([row], np.zeros((0, 2), dtype=np.int64), 64)
        assert not row.any()


class TestBatchHashArrayPath:
    @given(st.lists(st.integers(min_value=0, max_value=(1 << 64) - 1), min_size=1, max_size=50))
    @settings(max_examples=30, deadline=None)
    def test_array_rows_match_scalar(self, keys):
        batch = double_hashes_batch(np.asarray(keys, dtype=np.uint64), 3, 4093, seed=11)
        for i, key in enumerate(keys):
            assert batch[i].tolist() == double_hashes(key.to_bytes(8, "little"), 3, 4093, 11)

    def test_array_matches_list_path(self):
        keys = [5, 9, 123456789, 0]
        arr = double_hashes_batch(np.asarray(keys, dtype=np.uint64), 2, 1 << 12, seed=3)
        lst = double_hashes_batch(keys, 2, 1 << 12, seed=3)
        assert np.array_equal(arr, lst)

    def test_signed_negative_array_rejected(self):
        with pytest.raises(ValueError):
            double_hashes_batch(np.asarray([-1], dtype=np.int64), 2, 64)

    def test_non_integer_dtype_rejected(self):
        with pytest.raises(TypeError):
            double_hashes_batch(np.asarray([1.0]), 2, 64)

    def test_empty_array(self):
        out = double_hashes_batch(np.zeros(0, dtype=np.uint64), 4, 64)
        assert out.shape == (0, 4)


# -- BloomFilter bulk operations ---------------------------------------------------


class TestBloomFilterBulk:
    def test_add_many_matches_scalar_adds(self):
        keys = ["alpha", b"beta", 7, 0, "alpha"]
        scalar = BloomFilter(1 << 10, num_hashes=3, seed=2)
        bulk = BloomFilter(1 << 10, num_hashes=3, seed=2)
        for key in keys:
            scalar.bits.set_many(scalar._positions(key))  # noqa: SLF001
            scalar.num_items += 1
        assert bulk.add_many(keys) == len(keys)
        assert bulk == scalar
        assert bulk.num_items == scalar.num_items

    def test_add_is_thin_wrapper(self):
        a = BloomFilter(1 << 9, seed=1)
        b = BloomFilter(1 << 9, seed=1)
        a.add("key")
        b.add_many(["key"])
        assert a == b and a.num_items == b.num_items == 1

    def test_add_many_accepts_code_array(self):
        codes = np.asarray([1, 2, 3, 1 << 40], dtype=np.uint64)
        a = BloomFilter(1 << 11, num_hashes=2, seed=9)
        b = BloomFilter(1 << 11, num_hashes=2, seed=9)
        a.add_many(codes)
        b.update(int(c) for c in codes)
        assert a == b

    def test_update_routes_through_batch(self):
        bf = BloomFilter(1 << 10, seed=4)
        bf.update(f"item{i}" for i in range(100))
        assert bf.num_items == 100
        assert all(f"item{i}" in bf for i in range(100))

    def test_contains_many_matches_scalar_contains(self):
        bf = BloomFilter(1 << 10, num_hashes=3, seed=6)
        bf.update([f"in{i}" for i in range(50)])
        probes = [f"in{i}" for i in range(50)] + [f"out{i}" for i in range(50)]
        verdicts = bf.contains_many(probes)
        assert verdicts.tolist() == [key in bf for key in probes]

    def test_contains_all_equivalence(self):
        bf = BloomFilter(1 << 10, num_hashes=2, seed=8)
        bf.update([1, 2, 3])
        assert bf.contains_all([1, 2, 3])
        assert bf.contains_all(np.asarray([1, 2, 3], dtype=np.uint64))
        assert not bf.contains_all([1, 2, 999999])
        assert bf.contains_all([])  # vacuous conjunction

    def test_contains_all_short_circuits_generator(self):
        bf = BloomFilter(1 << 10, seed=1)
        bf.add(0)
        # The miss is in the first chunk, so the generator is not exhausted:
        # everything inside one chunk is hashed together, but later chunks
        # are never drawn once a miss is conclusive.
        consumed = []

        def lazy():
            for i in range(5000):
                consumed.append(i)
                yield 999999  # absent
        assert not bf.contains_all(lazy())
        assert len(consumed) <= 2048  # only the first chunk was drawn


# -- Rambo construction equivalence ------------------------------------------------


docs_strategy = st.lists(
    st.frozensets(st.integers(min_value=0, max_value=(1 << 26) - 1), min_size=0, max_size=30),
    min_size=1,
    max_size=8,
)


class TestRamboBulkEquivalence:
    @given(docs_strategy)
    @settings(max_examples=20, deadline=None)
    def test_bulk_parallel_scalar_bit_identical(self, raw_docs):
        documents = [
            KmerDocument(name=f"doc{i}", terms=terms) for i, terms in enumerate(raw_docs)
        ]
        cfg = config()
        scalar = Rambo(cfg)
        for doc in documents:
            scalar.add_document_scalar(doc)
        bulk = Rambo(cfg)
        bulk.add_documents(documents)
        chunked = Rambo(cfg)
        for start in range(0, len(documents), 3):
            chunked.add_documents(documents[start : start + 3])
        assert_bit_identical(scalar, bulk)
        assert_bit_identical(scalar, chunked)

    def test_array_terms_match_frozenset_terms(self, small_rambo_config):
        codes = [5, 17, 123456, 9]
        a = Rambo(small_rambo_config)
        a.add_terms("doc", np.asarray(codes, dtype=np.uint64))
        b = Rambo(small_rambo_config)
        b.add_terms("doc", frozenset(codes))
        assert_bit_identical(a, b)

    def test_batch_duplicate_name_rejected_before_mutation(self, small_rambo_config):
        index = Rambo(small_rambo_config)
        documents = [
            KmerDocument(name="a", terms=frozenset({1})),
            KmerDocument(name="a", terms=frozenset({2})),
        ]
        with pytest.raises(ValueError):
            index.add_documents(documents)
        assert index.num_documents == 0
        assert all(
            index.bfu(r, b).num_items == 0
            for r in range(index.repetitions)
            for b in range(index.num_partitions)
        )

    def test_invalid_keys_rejected_before_mutation(self, small_rambo_config):
        index = Rambo(small_rambo_config)
        good = KmerDocument(name="good", terms=frozenset({1, 2}))
        bad = KmerDocument(name="bad", terms=frozenset({-5}))
        with pytest.raises(ValueError):
            index.add_documents([good, bad])
        assert index.num_documents == 0
        # The batch failed atomically, so both documents can be retried.
        index.add_documents([good, KmerDocument(name="bad", terms=frozenset({5}))])
        assert index.document_names == ["good", "bad"]

    def test_merged_folded_bulk_index_roundtrips(self, small_dataset, tmp_path):
        cfg = config(num_partitions=8)
        docs = small_dataset.documents
        part_a = Rambo(cfg)
        part_a.add_documents(docs[:15])
        part_b = Rambo(cfg)
        part_b.add_documents(docs[15:])
        merged = merge_indexes([part_a, part_b])
        sequential = Rambo(cfg)
        sequential.add_documents(docs)
        assert_bit_identical(sequential, merged)

        folded = fold_rambo(merged, 1)
        path = tmp_path / "merged_folded.rambo"
        save_index(folded, path)
        restored = open_index(path)
        # The on-disk format stores BFU payloads + assignments (num_items is
        # a build-side statistic and is not persisted): compare those.
        assert restored.document_names == folded.document_names
        for r in range(folded.repetitions):
            assert restored._assignments[r] == folded._assignments[r]  # noqa: SLF001
            for p in range(folded.num_partitions):
                assert restored.bfu(r, p).bits == folded.bfu(r, p).bits
        term = next(iter(docs[0].terms))
        assert restored.query_term(term).documents == folded.query_term(term).documents

    def test_merge_raw_or_equals_bloom_union(self, small_dataset):
        """The raw backing-array OR merge must equal per-filter unions."""
        cfg = config()
        docs = small_dataset.documents
        parts = []
        for start in range(0, len(docs), 10):
            part = Rambo(cfg)
            part.add_documents(docs[start : start + 10])
            parts.append(part)
        merged = merge_indexes(parts)
        for r in range(cfg.repetitions):
            for b in range(cfg.num_partitions):
                expected = parts[0].bfu(r, b).copy()
                for part in parts[1:]:
                    expected.union_inplace(part.bfu(r, b))
                assert merged.bfu(r, b) == expected
                assert merged.bfu(r, b).num_items == expected.num_items


# -- the insert kernel -------------------------------------------------------------


def _term_set(draw_codes: bool):
    """A document's terms: a code array, or a frozenset of ints and strings."""
    ints = st.integers(min_value=0, max_value=(1 << 64) - 1)
    if draw_codes:
        return st.lists(ints, max_size=12).map(lambda codes: np.asarray(codes, dtype=np.uint64))
    return st.frozensets(st.one_of(ints, st.text(min_size=1, max_size=4)), max_size=12)


insert_case = st.fixed_dictionaries(
    {
        # 1, 63, 64 and 65 bits put many positions in one word and probe
        # bits 63/64; only 64 and 4096 are multiples of the word size.
        "bfu_bits": st.sampled_from([1, 63, 64, 65, 200, 4096]),
        "terms": st.lists(st.booleans().flatmap(_term_set), min_size=1, max_size=8),
        "splits": st.lists(st.integers(min_value=0, max_value=8), max_size=4),
        "terms_per_pass": st.sampled_from([1, 2, 5, 1 << 16]),
        "mapped": st.booleans(),
    }
)


def assert_same_storage(a: Rambo, b: Rambo) -> None:
    """Planes, insert counts, names and assignments agree exactly."""
    assert all(np.array_equal(x, y) for x, y in zip(a.planes, b.planes))
    assert np.array_equal(a.insert_counts, b.insert_counts)
    assert a.names == b.names
    assert a.assignments == b.assignments


class TestInsertKernel:
    """``add_documents`` (batched hash passes, one OR-reduce per document
    shared by its ``R`` rows) against the scalar reference."""

    @given(insert_case)
    @settings(max_examples=60, deadline=None)
    def test_any_batch_split_matches_scalar(self, case):
        cfg = config(bfu_bits=case["bfu_bits"], bfu_hashes=3)
        seed_doc = KmerDocument(name="seed", terms=frozenset({7, "x"}))
        documents = [
            KmerDocument(name=f"doc{i}", terms=terms) for i, terms in enumerate(case["terms"])
        ]
        scalar = Rambo(cfg)
        for doc in [seed_doc, *documents]:
            scalar.add_document_scalar(doc)
        with tempfile.TemporaryDirectory() as tmp:
            bulk = Rambo(cfg)
            bulk.add_documents([seed_doc])
            if case["mapped"]:
                save_index(bulk, Path(tmp) / "seed.rambo2")
                bulk = open_index(Path(tmp) / "seed.rambo2", mode="c")
                # The containers do not persist insert counts: put the seed's back.
                for r, row in enumerate(bulk.assignments):
                    bulk.insert_counts[r, row[0]] += len(seed_doc)
            # Repeated cuts make empty batches, which must change nothing.
            cuts = sorted([0, len(documents), *(c for c in case["splits"] if c <= len(documents))])
            with patch.object(rambo_module, "TERMS_PER_HASH_PASS", case["terms_per_pass"]):
                for start, stop in zip(cuts, cuts[1:]):
                    bulk.add_documents(documents[start:stop])
            assert bulk.is_mapped == case["mapped"]
            assert_same_storage(bulk, scalar)

    def test_a_small_document_allocates_in_proportion_to_its_terms(self):
        # 3 x 2 BFUs of 2 MiB each: anything sized by the BFU (a bool
        # scratch, a packed copy) would allocate megabytes.
        index = Rambo(config(num_partitions=2, bfu_bits=1 << 24))
        index.add_documents([KmerDocument(name="warm", terms=np.asarray([1], dtype=np.uint64))])
        doc = KmerDocument(name="small", terms=np.asarray([3, 1 << 40, 99], dtype=np.uint64))
        tracemalloc.start()
        try:
            index.add_documents([doc])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024

    def test_a_long_document_hashes_in_bounded_passes(self):
        terms_per_pass = 1 << 10
        cfg = config(bfu_hashes=4)
        doc = KmerDocument(name="genome", terms=np.arange(1 << 16, dtype=np.uint64))
        index = Rambo(cfg)
        with patch.object(rambo_module, "TERMS_PER_HASH_PASS", terms_per_pass):
            tracemalloc.start()
            try:
                index.add_documents([doc])
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        # One pass's (terms, eta) int64 matrix is 32 KiB; the whole
        # document's would be 2 MiB.
        assert peak < 16 * terms_per_pass * cfg.bfu_hashes * 8
        reference = Rambo(cfg)
        reference.add_documents([doc])
        assert_same_storage(index, reference)


# -- cache invalidation across incremental inserts ---------------------------------


class TestIncrementalInsertCaches:
    def test_rambo_queries_stay_correct_after_post_build_inserts(self, small_rambo_config):
        index = Rambo(small_rambo_config)
        index.add_documents(
            [
                KmerDocument(name="early_a", terms=frozenset({10, 11})),
                KmerDocument(name="early_b", terms=frozenset({11, 12})),
            ]
        )
        # Force every lazy cache (member arrays, bit cache, assignments).
        for method in ("full", "sparse"):
            assert "early_a" in index.query_term(10, method=method).documents
        # Post-build incremental batch insert must invalidate those caches.
        index.add_documents([KmerDocument(name="late", terms=frozenset({10, 99}))])
        index.add_terms("later", np.asarray([99, 100], dtype=np.uint64))
        for method in ("full", "sparse"):
            assert "late" in index.query_term(10, method=method).documents
            hits = index.query_terms_batch([99], method=method)[0].documents
            assert {"late", "later"} <= hits
        assert "later" in index.query_terms([99, 100]).documents

    def test_distributed_queries_stay_correct_after_batch_inserts(self, small_dataset):
        cluster = DistributedRambo(
            num_nodes=3,
            node_config=config(num_partitions=4, repetitions=2, k=13),
        )
        docs = small_dataset.documents
        cluster.add_documents(docs[:20])
        term = next(iter(docs[0].terms))
        baseline = cluster.query_term(term).documents  # warms the id maps
        assert docs[0].name in baseline
        cluster.add_documents(docs[20:])
        late_term = next(iter(docs[-1].terms))
        assert docs[-1].name in cluster.query_term(late_term).documents
        assert cluster.document_names == [d.name for d in docs]

    def test_distributed_failed_batch_leaves_index_unchanged(self, small_dataset):
        cluster = DistributedRambo(
            num_nodes=2,
            node_config=config(num_partitions=4, repetitions=2, k=13),
        )
        docs = small_dataset.documents
        cluster.add_documents(docs[:5])
        bad = KmerDocument(name="poisoned", terms=frozenset({-1}))
        with pytest.raises(ValueError):
            cluster.add_documents([docs[5], bad])
        # Nothing from the failed batch is recorded anywhere: both documents
        # can be retried, and queries still work.
        assert cluster.document_names == [d.name for d in docs[:5]]
        cluster.add_documents([docs[5], KmerDocument(name="poisoned", terms=frozenset({7}))])
        assert docs[5].name in cluster.document_names
        assert "poisoned" in cluster.query_term(7).documents

    def test_cobs_row_cache_invalidated_by_bulk_insert(self, tiny_documents):
        index = CobsIndex(num_bits=1 << 10, num_hashes=3, k=5, seed=3)
        index.add_documents(tiny_documents[:2])
        assert "doc_a" in index.query_term("alpha").documents  # builds the row cache
        index.add_documents(tiny_documents[2:])
        assert "doc_c" in index.query_term("epsilon").documents
        assert len(index.query_terms_batch(["gamma"])[0].documents) >= 2


# -- COBS bulk column build --------------------------------------------------------


class TestCobsBulkColumns:
    def test_bulk_columns_match_scalar_columns(self, small_dataset):
        bulk = CobsIndex(num_bits=1 << 12, num_hashes=3, k=13, seed=7)
        bulk.add_documents(small_dataset.documents)
        for doc, column in zip(small_dataset.documents, bulk._columns):  # noqa: SLF001
            expected = BitArray(bulk.num_bits)
            for term in doc.terms:
                expected.set_many(bulk._positions(term))  # noqa: SLF001
            assert column == expected

    def test_duplicate_rejected(self, tiny_documents):
        index = CobsIndex(num_bits=256, k=5)
        index.add_documents(tiny_documents)
        with pytest.raises(ValueError):
            index.add_document(tiny_documents[0])


# -- numpy term-code flow from the reader ------------------------------------------


class TestMcCortexArrayFlow:
    def test_reader_yields_sorted_code_array(self, tmp_path):
        path = tmp_path / "sample.mcc"
        write_mccortex(path, sample="s1", k=13, kmers=np.asarray([9, 5, 5, 7], dtype=np.uint64))
        parsed = read_mccortex(path)
        assert parsed.codes.dtype == np.uint64
        assert parsed.codes.tolist() == [5, 7, 9]
        assert parsed.kmers == frozenset({5, 7, 9})

    def test_document_carries_codes_to_the_index(self, tmp_path):
        path = tmp_path / "sample.mcc"
        write_mccortex(path, sample="s1", k=13, kmers=[42, 99, 7])
        doc = read_mccortex(path).to_document()
        codes = doc.term_codes()
        assert codes is not None and codes.dtype == np.uint64
        assert doc.terms == frozenset({7, 42, 99})
        via_array = Rambo(config())
        via_array.add_document(doc)
        via_set = Rambo(config())
        via_set.add_document(KmerDocument(name="s1", terms=frozenset({7, 42, 99})))
        assert_bit_identical(via_array, via_set)

    def test_string_documents_have_no_codes(self):
        doc = KmerDocument(name="text", terms=frozenset({"apple", "pear"}))
        assert doc.term_codes() is None
        assert sorted(doc.hash_keys()) == ["apple", "pear"]

    def test_terms_view_is_lazy_for_code_arrays(self):
        doc = KmerDocument(name="lazy", terms=np.asarray([3, 1, 2], dtype=np.uint64))
        assert doc._terms is None  # noqa: SLF001 — no frozenset materialised yet
        assert len(doc) == 3  # cardinality straight from the code array
        assert doc._terms is None  # noqa: SLF001
        assert doc.terms == frozenset({1, 2, 3})  # materialised on demand

    def test_cached_codes_survive_pickling(self):
        import pickle

        # String-term document: the "terms are not codes" cache marker must
        # survive a pickle round-trip (process-pool workers receive copies).
        text = KmerDocument(name="text", terms=frozenset({"w1", "w2"}))
        assert text.term_codes() is None  # populates the cache marker
        restored = pickle.loads(pickle.dumps(text))
        assert restored.term_codes() is None
        assert sorted(restored.hash_keys()) == ["w1", "w2"]
        assert restored == text
        # Code-array document: the uint64 cache round-trips too.
        genomic = KmerDocument(name="g", terms=np.asarray([5, 9], dtype=np.uint64))
        clone = pickle.loads(pickle.dumps(genomic))
        assert clone.term_codes().tolist() == [5, 9]
        assert clone == genomic

    def test_parallel_build_with_workers_after_codes_cached(self, small_rambo_config):
        # End-to-end repro of the pickling bug: documents whose code cache was
        # populated (or marked absent) are shipped to process-pool workers.
        documents = [
            KmerDocument(name="t1", terms=frozenset({"alpha", "beta"})),
            KmerDocument(name="t2", terms=frozenset({"beta", "gamma"})),
            KmerDocument(name="g1", terms=np.asarray([4, 7], dtype=np.uint64)),
            KmerDocument(name="g2", terms=np.asarray([7, 8], dtype=np.uint64)),
        ]
        for doc in documents:
            doc.validated_hash_keys()  # populate every cache state
        built = Rambo(config())
        with num_threads(2), patch.object(rambo_module, "MIN_DOCS_PER_SHARD", 2):
            built.add_documents(documents, parallel=True)
        sequential = Rambo(config())
        sequential.add_documents(documents)
        assert_bit_identical(sequential, built)


class TestConfigureFromStreamedSample:
    def test_num_documents_override_sizes_for_full_collection(self, small_dataset):
        from repro.core.config import configure_from_sample

        sample = small_dataset.documents[:5]
        sampled = configure_from_sample(sample, k=13, num_documents=1000)
        full_shape = configure_from_sample(sample, k=13)
        # B and R grow with the collection size, not the sample size.
        assert sampled.num_partitions > full_shape.num_partitions
        assert sampled.repetitions >= full_shape.repetitions
        assert sampled.bfu_bits > full_shape.bfu_bits
        with pytest.raises(ValueError):
            configure_from_sample(sample, k=13, num_documents=2)

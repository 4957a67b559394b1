"""Tests for the bitmap-native batch query engine.

The contract under test: for every structure and every method, the batched
paths (``query_terms_batch``, the batched conjunctive ``query_terms``, the
vectorised ``query_sequence``) return documents identical to the scalar
per-term path they replace — the batch engine is an optimisation, never a
semantic change.
"""

from __future__ import annotations

import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hypothesis_profiles import tier

from repro.baselines.cobs import CobsIndex
from repro.baselines.inverted_index import InvertedIndex
from repro.core.base import QueryResult
from repro.core.distributed import DistributedRambo, stack_shards
from repro.core.parallel import merge_indexes
from repro.core.rambo import Rambo, RamboConfig
from repro.hashing.murmur3 import double_hashes, double_hashes_batch
from repro.kmers.extraction import KmerDocument


def build_index(documents, **overrides) -> Rambo:
    params = dict(num_partitions=4, repetitions=3, bfu_bits=1 << 12, bfu_hashes=2, k=13, seed=5)
    params.update(overrides)
    index = Rambo(RamboConfig(**params))
    index.add_documents(documents)
    return index


def scalar_reference(index, terms, method=None):
    """The seed's scalar path: one query_term per term."""
    if method is None:
        return [index.query_term(t) for t in terms]
    return [index.query_term(t, method=method) for t in terms]


def scalar_conjunction(index, terms, method=None):
    """The seed's conjunctive algorithm: intersect per-term results."""
    documents = None
    for term in terms:
        result = (
            index.query_term(term) if method is None else index.query_term(term, method=method)
        )
        documents = set(result.documents) if documents is None else documents & result.documents
        if not documents:
            break
    if documents is None:
        documents = set(index.document_names)
    return frozenset(documents)


# -- QueryResult ---------------------------------------------------------------------


class TestQueryResult:
    def test_eager_construction_back_compat(self):
        result = QueryResult(documents=frozenset({"a", "b"}), filters_probed=7)
        assert result.documents == frozenset({"a", "b"})
        assert result.filters_probed == 7
        assert "a" in result
        assert len(result) == 2

    def test_from_mask_lazy_materialisation(self):
        names = ["d0", "d1", "d2", "d3"]
        mask = np.array([True, False, True, False])
        result = QueryResult.from_mask(mask, names, filters_probed=3)
        # len and ids are available without touching the name table.
        assert len(result) == 2
        assert result.doc_ids.tolist() == [0, 2]
        assert result.name_table is names
        assert result.documents == frozenset({"d0", "d2"})

    def test_from_ids(self):
        result = QueryResult.from_ids(np.array([1, 3]), ["a", "b", "c", "d"])
        assert result.documents == frozenset({"b", "d"})
        assert len(result) == 2

    def test_from_ids_sorts(self):
        result = QueryResult.from_ids(np.array([3, 1]), ["a", "b", "c", "d"])
        assert result.doc_ids.tolist() == [1, 3]

    @pytest.mark.parametrize("as_array", [True, False])
    def test_batch_from_pairs(self, as_array):
        """Pairs arrive in any order (the distributed layer concatenates
        shards); each term gets its sorted ids, a term without pairs none."""
        names = ["a", "b", "c", "d"]
        table = np.array(names, dtype=object) if as_array else names
        results = QueryResult.batch_from_pairs(
            np.array([2, 0, 2, 0]), np.array([3, 1, 0, 2]), np.array([5, 6, 7]), table
        )
        assert [r.doc_ids.tolist() for r in results] == [[1, 2], [], [0, 3]]
        assert [r.filters_probed for r in results] == [5, 6, 7]
        assert [r.documents for r in results] == [{"b", "c"}, frozenset(), {"a", "d"}]
        assert all(r.name_table is table for r in results)
        assert all(r.doc_ids.dtype == np.int64 for r in results)
        with pytest.raises(ValueError):
            results[0].doc_ids[0] = 3  # slices of one shared read-only array
        assert results[0] == QueryResult(documents=frozenset({"b", "c"}), filters_probed=5)
        assert QueryResult.batch_from_pairs(
            np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64), table
        ) == []

    def test_eager_result_has_no_ids(self):
        result = QueryResult(documents=frozenset({"x"}))
        with pytest.raises(AttributeError):
            result.doc_ids

    def test_equality_is_by_documents_and_probes(self):
        eager = QueryResult(documents=frozenset({"d1"}), filters_probed=2)
        lazy = QueryResult.from_mask(np.array([False, True]), ["d0", "d1"], filters_probed=2)
        assert eager == lazy
        assert hash(eager) == hash(lazy)
        assert eager != QueryResult(documents=frozenset({"d1"}), filters_probed=3)

    def test_requires_documents_or_ids(self):
        with pytest.raises(TypeError):
            QueryResult(filters_probed=1)
        with pytest.raises(TypeError):
            QueryResult(doc_ids=np.array([0]))


# -- hashing layer --------------------------------------------------------------------


class TestDoubleHashesBatch:
    @given(
        st.lists(st.integers(min_value=0, max_value=(1 << 62) - 1), min_size=1, max_size=20),
        st.integers(min_value=1, max_value=6),
        st.sampled_from([64, 257, 4096, 1 << 16]),
        st.integers(min_value=0, max_value=2**32),
    )
    @settings(max_examples=50, deadline=None)
    def test_matches_scalar_for_int_keys(self, keys, count, modulus, seed):
        batch = double_hashes_batch(keys, count, modulus, seed)
        assert batch.shape == (len(keys), count)
        for key, row in zip(keys, batch):
            assert row.tolist() == double_hashes(key.to_bytes(8, "little"), count, modulus, seed)

    @given(
        st.lists(st.text(min_size=0, max_size=40), min_size=1, max_size=10),
        st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=30, deadline=None)
    def test_matches_scalar_for_string_keys(self, keys, count):
        batch = double_hashes_batch(keys, count, 4096, seed=9)
        for key, row in zip(keys, batch):
            assert row.tolist() == double_hashes(key, count, 4096, 9)

    def test_empty_batch(self):
        assert double_hashes_batch([], 3, 64).shape == (0, 3)

    def test_validation(self):
        with pytest.raises(ValueError):
            double_hashes_batch([1], 0, 64)
        with pytest.raises(ValueError):
            double_hashes_batch([1], 2, 0)

    def test_negative_int_keys_match_scalar_error_contract(self):
        with pytest.raises(ValueError, match="non-negative"):
            double_hashes_batch([3, -5], 2, 64)

    #: Key lists around the packed-int fast path: the shapes that take it
    #: (a list/tuple of plain non-negative ints) and every way out of it.
    KEY_LISTS = {
        "ints": [0, 1, 5, (1 << 63) + 17, (1 << 64) - 1, 5],
        "tuple": (3, 9, 1 << 40),
        "one-int": [77],
        "bools": [True, 7, False],
        "numpy-scalars": [np.uint64(12), 5, np.int32(9)],
        "str-and-bytes-among-ints": [4, "ACGT", b"\x00\x01", bytearray(b"xy"), 4],
        "only-str": ["a", "bb"],
        "empty": [],
    }

    @pytest.mark.parametrize("name", sorted(KEY_LISTS))
    def test_every_key_shape_matches_scalar(self, name):
        from repro.bloom.bloom_filter import _normalise_key

        keys = self.KEY_LISTS[name]
        batch = double_hashes_batch(keys, 3, 215386, seed=11)
        assert batch.shape == (len(keys), 3) and batch.dtype == np.int64
        for key, row in zip(keys, batch):
            assert row.tolist() == double_hashes(_normalise_key(key), 3, 215386, 11)
        # Any other iterable of the same keys takes the per-key pass.
        assert np.array_equal(double_hashes_batch(iter(keys), 3, 215386, seed=11), batch)

    @pytest.mark.parametrize(
        "bad", [-5, 1 << 64, 1.5, None, np.float64(2.0), (1, 2)], ids=repr
    )
    @pytest.mark.parametrize("container", [list, tuple])
    def test_rejected_keys_raise_the_contract_error(self, bad, container):
        """A bad key among plain ints raises exactly what the per-key
        contract raises — the fast path must not swallow or reword it."""
        from repro.hashing.murmur3 import normalise_batch_key

        with pytest.raises((ValueError, OverflowError, TypeError)) as expected:
            normalise_batch_key(bad)
        with pytest.raises(type(expected.value)) as raised:
            double_hashes_batch(container([3, bad, 9]), 2, 4096)
        assert str(raised.value) == str(expected.value)

    def test_huge_modulus_stays_exact(self):
        """Moduli at/above 2**63 cannot be represented in int64; the batch
        path must fall back to the scalar derivation and widen the dtype."""
        for modulus in ((1 << 63) + 9, (1 << 64) - 59):
            batch = double_hashes_batch([2, 7], 1, modulus)
            assert batch.dtype == np.uint64
            for key, row in zip((2, 7), batch):
                assert row.tolist() == double_hashes(key.to_bytes(8, "little"), 1, modulus)


class TestConjunctionSlices:
    def test_ramp_covers_all_terms_once(self):
        from repro.core.base import iter_conjunction_slices

        terms = list(range(5000))
        slices = list(iter_conjunction_slices(terms))
        assert [len(s) for s in slices[:3]] == [32, 128, 512]
        assert max(len(s) for s in slices) <= 2048
        assert [t for s in slices for t in s] == terms


# -- RAMBO batch engine ----------------------------------------------------------------


class TestRamboBatch:
    docs_strategy = st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=10**6),
            st.frozensets(st.text(alphabet="abcdefg", min_size=1, max_size=4), min_size=1, max_size=10),
        ),
        min_size=1,
        max_size=10,
        unique_by=lambda pair: pair[0],
    )

    @given(docs_strategy, st.sampled_from(["full", "sparse"]))
    @settings(max_examples=30, deadline=None)
    def test_batch_equals_scalar_property(self, raw_docs, method):
        documents = [KmerDocument(name=f"doc{i}", terms=terms) for (i, terms) in raw_docs]
        index = build_index(documents, num_partitions=3, repetitions=3, bfu_bits=1 << 11)
        terms = sorted({term for doc in documents for term in doc.terms})
        terms.append("zzz-absent")
        scalar = scalar_reference(index, terms, method)
        batch = index.query_terms_batch(terms, method=method)
        assert len(batch) == len(scalar)
        for s, b in zip(scalar, batch):
            assert s.documents == b.documents
            assert s.filters_probed == b.filters_probed

    @given(docs_strategy, st.sampled_from(["full", "sparse"]))
    @settings(max_examples=30, deadline=None)
    def test_conjunctive_batch_equals_scalar_property(self, raw_docs, method):
        documents = [KmerDocument(name=f"doc{i}", terms=terms) for (i, terms) in raw_docs]
        index = build_index(documents, num_partitions=3, repetitions=3, bfu_bits=1 << 11)
        all_terms = sorted({term for doc in documents for term in doc.terms})
        probes = [all_terms[:3], all_terms[:1], all_terms, all_terms[:2] + ["zzz-absent"]]
        for terms in probes:
            if not terms:
                continue
            expected = scalar_conjunction(index, terms, method)
            assert index.query_terms(terms, method=method).documents == expected

    def test_batch_on_dataset_terms(self, built_rambo, small_dataset):
        terms = []
        for doc in small_dataset.documents[:10]:
            terms.extend(list(doc.terms)[:5])
        terms.append("absent-term-zzz")
        for method in ("full", "sparse"):
            scalar = scalar_reference(built_rambo, terms, method)
            batch = built_rambo.query_terms_batch(terms, method=method)
            for s, b in zip(scalar, batch):
                assert s.documents == b.documents
                assert s.filters_probed == b.filters_probed

    def test_empty_batch(self, built_rambo):
        assert built_rambo.query_terms_batch([]) == []

    def test_batch_on_empty_index(self):
        index = build_index([])
        results = index.query_terms_batch(["a", "b"])
        assert [r.documents for r in results] == [frozenset(), frozenset()]

    def test_conjunction_of_no_terms_returns_everything(self, tiny_documents):
        index = build_index(tiny_documents)
        assert index.query_terms([]).documents == frozenset(index.document_names)

    def test_unknown_method_rejected(self, tiny_documents):
        index = build_index(tiny_documents)
        with pytest.raises(ValueError):
            index.query_terms_batch(["alpha"], method="magic")
        with pytest.raises(ValueError):
            index.query_terms(["alpha"], method="magic")

    def test_chunked_batch_equals_unchunked(self, tiny_documents, monkeypatch):
        """Batches bigger than the chunk size concatenate per-chunk results."""
        import repro.core.base as base_module

        index = build_index(tiny_documents)
        terms = [f"term-{i}" for i in range(10)] + ["alpha", "delta"]
        expected = index.query_terms_batch(terms, method="sparse")
        monkeypatch.setattr(base_module, "QUERY_BATCH_CHUNK_TERMS", 3)
        chunked = index.query_terms_batch(terms, method="sparse")
        assert [r.documents for r in chunked] == [r.documents for r in expected]
        assert [r.filters_probed for r in chunked] == [r.filters_probed for r in expected]

    def test_chunked_conjunction_equals_unchunked(self, tiny_documents, monkeypatch):
        import repro.core.base as base_module

        index = build_index(tiny_documents, bfu_bits=1 << 14, repetitions=4)
        terms = ["gamma", "delta", "gamma", "delta", "gamma"]
        expected = index.query_terms(terms).documents
        monkeypatch.setattr(base_module, "QUERY_BATCH_CHUNK_TERMS", 2)
        assert index.query_terms(terms).documents == expected
        # A chunk that empties the intersection short-circuits later chunks.
        assert index.query_terms(["alpha", "zeta", "gamma", "delta"]).documents == frozenset()

    def test_method_accepted_uniformly_across_structures(self, tiny_documents):
        """Every MembershipIndex accepts method= on the batch entry points."""
        structures = [
            build_index(tiny_documents),
            InvertedIndex(k=13),
            CobsIndex(num_bits=1 << 12, k=13),
        ]
        for index in structures[1:]:
            index.add_documents(tiny_documents)
        for index in structures:
            batch = index.query_terms_batch(["alpha"], method="sparse")
            conj = index.query_terms(["alpha"], method="sparse")
            assert batch[0].documents >= frozenset({"doc_a"})
            assert conj.documents >= frozenset({"doc_a"})
            # Unknown methods are rejected uniformly, never silently ignored.
            with pytest.raises(ValueError, match="unknown query method"):
                index.query_terms_batch(["alpha"], method="sprase")
            with pytest.raises(ValueError, match="unknown query method"):
                index.query_terms(["alpha"], method="sprase")

    def test_results_share_the_name_table(self, tiny_documents):
        index = build_index(tiny_documents)
        results = index.query_terms_batch(["alpha", "beta", "gamma"])
        tables = {id(r.name_table) for r in results}
        assert len(tables) == 1

    def test_query_sequence_uses_batched_conjunction(self, small_dataset):
        from repro.hashing.kmer_hash import int_to_kmer
        from repro.kmers.extraction import extract_kmers

        index = build_index(small_dataset.documents, num_partitions=6, bfu_bits=1 << 15)
        doc = small_dataset.documents[0]
        fragment = int_to_kmer(next(iter(doc.terms)), small_dataset.k)
        result = index.query_sequence(fragment)
        assert doc.name in result.documents
        kmers = extract_kmers(fragment, k=index.k)
        assert result.documents == scalar_conjunction(index, kmers)

    def test_batch_after_fold(self, built_rambo, small_dataset):
        """Regression: a freshly folded index must serve batch queries (the
        old fold() skipped cache initialisation on the __new__ instance)."""
        folded = built_rambo.fold()
        assert folded._assignment_arrays == []  # noqa: SLF001 - initialised, not missing
        terms = list(small_dataset.documents[0].terms)[:5]
        batch = folded.query_terms_batch(terms)
        scalar = scalar_reference(folded, terms)
        for s, b in zip(scalar, batch):
            assert s.documents == b.documents

    def test_batch_after_merge(self, tiny_documents):
        config = RamboConfig(num_partitions=4, repetitions=3, bfu_bits=1 << 12, k=13, seed=5)
        part_a, part_b = Rambo(config), Rambo(config)
        part_a.add_documents(tiny_documents[:2])
        part_b.add_documents(tiny_documents[2:])
        merged = merge_indexes([part_a, part_b])
        reference = build_index(tiny_documents)
        terms = sorted({t for d in tiny_documents for t in d.terms})
        for got, want in zip(merged.query_terms_batch(terms), scalar_reference(reference, terms)):
            assert got.documents == want.documents

    def test_batch_after_load(self, built_rambo, small_dataset, tmp_path):
        from repro.core.serialization import open_index, save_index

        path = tmp_path / "roundtrip.rambo"
        save_index(built_rambo, path)
        loaded = open_index(path)
        terms = list(small_dataset.documents[0].terms)[:5]
        for got, want in zip(
            loaded.query_terms_batch(terms), built_rambo.query_terms_batch(terms)
        ):
            assert got.documents == want.documents


# -- the survivor-list kernel on every index shape ------------------------------------


def fingerprint(results):
    """Everything a query answer exposes: documents and probe accounting."""
    return [(result.documents, result.filters_probed) for result in results]


class TestKernelIdentity:
    """batch == scalar ``query_term`` — documents *and* ``filters_probed``,
    both methods — on every shape of index the kernel serves, including
    forced term ranges (a tiny pair budget)."""

    term_strategy = st.one_of(
        st.integers(min_value=0, max_value=30), st.text(alphabet="abc", min_size=1, max_size=2)
    )
    corpus_strategy = st.lists(st.frozensets(term_strategy, max_size=8), min_size=1, max_size=12)
    geometry_strategy = st.fixed_dictionaries(
        {
            "num_partitions": st.sampled_from([2, 4, 6]),
            "repetitions": st.integers(min_value=1, max_value=4),
            # Small filters: plenty of false positives, so pairs survive
            # some repetitions and die in others.
            "bfu_bits": st.sampled_from([16, 64, 300]),
            "bfu_hashes": st.integers(min_value=1, max_value=3),
        }
    )

    @staticmethod
    def shaped(kind, config, documents, split, directory):
        """The corpus as one of the index shapes ``query_terms_batch`` serves."""
        from repro.core.serialization import open_index, save_index
        from repro.ingest import DeltaOverlayIndex

        if kind == "overlay":
            base, delta = Rambo(config), Rambo(config)
            base.add_documents(documents[:split])
            delta.add_documents(documents[split:])
            return DeltaOverlayIndex(base, delta)
        index = Rambo(config)
        index.add_documents(documents)
        if kind == "folded":
            return index.fold()
        if kind == "mapped":
            save_index(index, Path(directory) / "index.rambo2")
            index = open_index(Path(directory) / "index.rambo2")
            assert index.is_mapped
        return index

    @staticmethod
    def query_mix(documents):
        """Every corpus term, zero-hit terms of both types, and duplicates."""
        terms = sorted({t for d in documents for t in d.terms}, key=repr)
        return terms + ["zz-absent", 10**9] + terms[:3] + ["zz-absent"]

    @given(
        corpus_strategy,
        geometry_strategy,
        st.sampled_from(["memory", "mapped", "folded", "overlay"]),
        st.sampled_from(["full", "sparse"]),
        st.sampled_from([1, 7, None]),
        st.data(),
    )
    @tier("determinism")
    def test_batch_equals_scalar_on_every_shape(
        self, corpus, geometry, kind, method, budget, data
    ):
        import repro.core.rambo as rambo_module

        documents = [KmerDocument(name=f"doc{i}", terms=terms) for i, terms in enumerate(corpus)]
        split = data.draw(st.integers(min_value=0, max_value=len(documents)))
        config = RamboConfig(k=13, seed=5, **geometry)
        terms = self.query_mix(documents)
        budget = rambo_module.QUERY_PAIR_BUDGET if budget is None else budget
        with tempfile.TemporaryDirectory() as directory:
            index = self.shaped(kind, config, documents, split, directory)
            scalar = fingerprint(scalar_reference(index, terms, method))
            with mock.patch.object(rambo_module, "QUERY_PAIR_BUDGET", budget):
                batch = index.query_terms_batch(terms, method=method)
            assert fingerprint(batch) == scalar
            for result in batch:
                assert result.doc_ids.dtype == np.int64
                assert result.doc_ids.tolist() == sorted(
                    index.document_names.index(name) for name in result.documents
                )
            del index, batch  # release the mapping before the directory goes

    @given(
        corpus_strategy,
        geometry_strategy,
        st.integers(min_value=1, max_value=4),
        st.sampled_from(["full", "sparse"]),
    )
    def test_distributed_equals_per_shard_scalar(self, corpus, geometry, num_nodes, method):
        """A cluster's answer is the union of its shards' scalar answers, its
        probe count their sum (every shard is probed)."""
        documents = [KmerDocument(name=f"doc{i}", terms=terms) for i, terms in enumerate(corpus)]
        cluster = DistributedRambo(num_nodes, RamboConfig(k=13, seed=5, **geometry))
        cluster.add_documents(documents)
        terms = self.query_mix(documents)
        per_shard = [[shard.query_term(t, method=method) for shard in cluster.shards] for t in terms]
        expected = [
            (frozenset().union(*(r.documents for r in row)), sum(r.filters_probed for r in row))
            for row in per_shard
        ]
        assert fingerprint(cluster.query_terms_batch(terms, method=method)) == expected
        conjunction = cluster.query_terms(terms[:4], method=method)
        assert conjunction.documents == frozenset.intersection(*(e[0] for e in expected[:4]))

    @pytest.mark.parametrize("method", ["full", "sparse"])
    def test_empty_index(self, method):
        index = build_index([])
        terms = ["a", 3, "a"]
        batch = index.query_terms_batch(terms, method=method)
        assert fingerprint(batch) == [(frozenset(), 0)] * 3
        assert fingerprint(batch) == fingerprint(scalar_reference(index, terms, method))

    @pytest.mark.parametrize("method", ["full", "sparse"])
    def test_batch_one_longer_than_a_chunk(self, tiny_documents, method):
        from repro.core.base import QUERY_BATCH_CHUNK_TERMS

        index = build_index(tiny_documents, bfu_bits=1 << 6)
        vocabulary = self.query_mix(tiny_documents)
        scalar = {t: index.query_term(t, method=method) for t in vocabulary}
        terms = [vocabulary[i % len(vocabulary)] for i in range(QUERY_BATCH_CHUNK_TERMS + 1)]
        batch = index.query_terms_batch(terms, method=method)
        assert fingerprint(batch) == fingerprint(scalar[t] for t in terms)

    @pytest.mark.parametrize("method", ["full", "sparse"])
    def test_saturated_index_in_forced_term_ranges(self, small_dataset, monkeypatch, method):
        """Every BFU bit set: every term matches every document, the worst
        case the pair budget exists for.  Forced term ranges answer as one."""
        import repro.core.rambo as rambo_module

        index = build_index(small_dataset.documents, bfu_bits=1 << 8)
        for r in range(index.repetitions):
            for b in range(index.num_partitions):
                bits = index.bfu(r, b).bits
                bits |= ~bits
        index._invalidate_caches()  # noqa: SLF001 - the BFUs were edited in place
        terms = ["a", 1, "b", 2, "a", 3, "c", 4, "d", 5, "e", 6]
        unforced = fingerprint(index.query_terms_batch(terms, method=method))
        assert unforced == fingerprint(scalar_reference(index, terms, method))
        assert {documents for documents, _ in unforced} == {frozenset(index.document_names)}
        positions = index._probe_matrix(terms)  # noqa: SLF001
        for budget, expected_ranges in ((3 * index.num_documents, 4), (1, 12)):
            monkeypatch.setattr(rambo_module, "QUERY_PAIR_BUDGET", budget)
            ranges = list(index._chunk_pairs(positions, method))  # noqa: SLF001
            assert len(ranges) == expected_ranges
            # The ranges tile the chunk, and none expands past the budget
            # unless it is down to a single term.
            assert sum(probes.size for *_, probes in ranges) == len(terms)
            assert all(
                pair_terms.size <= budget or probes.size == 1
                for pair_terms, _, probes in ranges
            )
            assert fingerprint(index.query_terms_batch(terms, method=method)) == unforced


# -- COBS batch path -------------------------------------------------------------------


class TestCobsBatch:
    def test_batch_equals_scalar(self, small_dataset):
        index = CobsIndex(num_bits=1 << 13, num_hashes=3, k=small_dataset.k, seed=3)
        index.add_documents(small_dataset.documents)
        terms = []
        for doc in small_dataset.documents[:8]:
            terms.extend(list(doc.terms)[:4])
        terms.append("zz-absent")
        scalar = scalar_reference(index, terms)
        batch = index.query_terms_batch(terms)
        for s, b in zip(scalar, batch):
            assert s.documents == b.documents
            assert s.filters_probed == b.filters_probed

    def test_empty_cases(self):
        index = CobsIndex(num_bits=256)
        assert index.query_terms_batch([]) == []
        assert index.query_terms_batch(["a"])[0].documents == frozenset()

    def test_chunked_batch_equals_unchunked(self, tiny_documents, monkeypatch):
        import repro.core.base as base_module

        index = CobsIndex(num_bits=1 << 12, k=13)
        index.add_documents(tiny_documents)
        terms = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta", "nope"]
        expected = index.query_terms_batch(terms)
        monkeypatch.setattr(base_module, "QUERY_BATCH_CHUNK_TERMS", 2)
        chunked = index.query_terms_batch(terms)
        assert [r.documents for r in chunked] == [r.documents for r in expected]

    def test_string_and_int_terms_mix(self, tiny_documents):
        index = CobsIndex(num_bits=1 << 12, k=13)
        index.add_documents(tiny_documents)
        terms = ["alpha", "delta", 12345, "zeta"]
        scalar = scalar_reference(index, terms)
        batch = index.query_terms_batch(terms)
        for s, b in zip(scalar, batch):
            assert s.documents == b.documents


# -- distributed batch path ------------------------------------------------------------


class TestDistributedBatch:
    @pytest.fixture()
    def cluster(self, small_dataset):
        config = RamboConfig(
            num_partitions=3, repetitions=3, bfu_bits=1 << 12, k=small_dataset.k, seed=11
        )
        cluster = DistributedRambo(num_nodes=4, node_config=config)
        cluster.add_documents(small_dataset.documents)
        return cluster

    def test_batch_equals_scalar(self, cluster, small_dataset):
        terms = []
        for doc in small_dataset.documents[:6]:
            terms.extend(list(doc.terms)[:4])
        for method in ("full", "sparse"):
            scalar = scalar_reference(cluster, terms, method)
            batch = cluster.query_terms_batch(terms, method=method)
            for s, b in zip(scalar, batch):
                assert s.documents == b.documents
                assert s.filters_probed == b.filters_probed

    def test_batch_matches_stacked_index(self, cluster, small_dataset):
        stacked = stack_shards(cluster)
        terms = list(small_dataset.documents[0].terms)[:6]
        for got, want in zip(
            cluster.query_terms_batch(terms), stacked.query_terms_batch(terms)
        ):
            assert got.documents == want.documents

    def test_conjunctive_query(self, cluster, small_dataset):
        terms = list(small_dataset.documents[0].terms)[:4]
        expected = scalar_conjunction(cluster, terms)
        assert cluster.query_terms(terms).documents == expected
        assert cluster.query_terms([]).documents == frozenset(cluster.document_names)

    def test_empty_batch(self, cluster):
        assert cluster.query_terms_batch([]) == []

    def test_conjunctive_early_exit_skips_later_chunks(self, cluster, small_dataset, monkeypatch):
        import repro.core.base as base_module

        # Pick a term with no match anywhere (skipping Bloom false positives)
        # so the conjunction provably empties inside the first chunk.
        absent = next(
            t
            for t in (f"absent-{i}" for i in range(100))
            if not cluster.query_term(t).documents
        )
        terms = [absent] + list(small_dataset.documents[0].terms)[:6]
        baseline = sum(r.filters_probed for r in cluster.query_terms_batch(terms))
        monkeypatch.setattr(base_module, "QUERY_BATCH_CHUNK_TERMS", 2)
        result = cluster.query_terms(terms)
        assert result.documents == frozenset()
        # Only the first chunk should have been evaluated.
        assert result.filters_probed < baseline

    def test_id_map_cache_invalidated_on_insert(self, cluster):
        cluster._shard_id_maps()
        assert cluster._id_maps is not None
        cluster.add_document(KmerDocument(name="late", terms=frozenset({"omega-term"})))
        assert cluster._id_maps is None
        assert "late" in cluster.query_term("omega-term").documents


# -- default fallback -------------------------------------------------------------------


class TestFallbackBatch:
    def test_inverted_index_uses_fallback(self, tiny_documents):
        index = InvertedIndex(k=13)
        index.add_documents(tiny_documents)
        terms = ["alpha", "delta", "zeta", "nope"]
        batch = index.query_terms_batch(terms)
        scalar = scalar_reference(index, terms)
        for s, b in zip(scalar, batch):
            assert s.documents == b.documents
            assert s.filters_probed == b.filters_probed

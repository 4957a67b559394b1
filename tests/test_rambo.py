"""Tests for the RAMBO index: construction, query, RAMBO+, fold-over."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines.inverted_index import InvertedIndex
from repro.core.folding import fold_rambo, fold_report, fold_to_target, folding_schedule
from repro.core.rambo import Rambo, RamboConfig
from repro.kmers.extraction import KmerDocument


def build_index(documents, **overrides) -> Rambo:
    params = dict(num_partitions=4, repetitions=3, bfu_bits=1 << 12, bfu_hashes=2, k=13, seed=5)
    params.update(overrides)
    index = Rambo(RamboConfig(**params))
    index.add_documents(documents)
    return index


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            RamboConfig(num_partitions=0, repetitions=1, bfu_bits=10)
        with pytest.raises(ValueError):
            RamboConfig(num_partitions=1, repetitions=0, bfu_bits=10)
        with pytest.raises(ValueError):
            RamboConfig(num_partitions=1, repetitions=1, bfu_bits=0)
        with pytest.raises(ValueError):
            RamboConfig(num_partitions=1, repetitions=1, bfu_bits=8, bfu_hashes=0)
        with pytest.raises(ValueError):
            RamboConfig(num_partitions=1, repetitions=1, bfu_bits=8, k=0)

    def test_recommended_shapes(self):
        config = RamboConfig.recommended(num_documents=1000, terms_per_document=500)
        assert 2 <= config.num_partitions <= 1000
        assert config.repetitions >= 2
        assert config.bfu_bits > 0

    def test_recommended_partitions_grow_with_k(self):
        small = RamboConfig.recommended(num_documents=100, terms_per_document=500)
        large = RamboConfig.recommended(num_documents=10_000, terms_per_document=500)
        assert large.num_partitions > small.num_partitions

    def test_recommended_validation(self):
        with pytest.raises(ValueError):
            RamboConfig.recommended(num_documents=0, terms_per_document=10)

    @pytest.mark.parametrize("num_documents", [1, 2, 3, 5, 10, 100, 10_000, 1_000_000])
    @pytest.mark.parametrize("fp_rate", [0.5, 0.3, 0.1, 0.01, 0.001])
    def test_recommended_never_yields_zero_repetitions(self, num_documents, fp_rate):
        """Sweep guard: ceil(log K - log p) // 4 is 0 for small collections
        with lenient fp targets, so the max(2, ...) must wrap the division —
        this pins that the expression is never refactored into
        max(2, ceil(...)) // 4, which would crash __post_init__ with R=0."""
        config = RamboConfig.recommended(
            num_documents=num_documents, terms_per_document=50, fp_rate=fp_rate
        )
        assert config.repetitions >= 2
        # B is clamped to the document count, so a 1-document collection
        # legitimately gets a single partition.
        assert config.num_partitions >= 1
        assert config.bfu_bits > 0


class TestConstruction:
    def test_add_and_count(self, tiny_documents):
        index = build_index(tiny_documents)
        assert index.num_documents == 4
        assert index.document_names == ["doc_a", "doc_b", "doc_c", "doc_d"]

    def test_duplicate_name_rejected(self, tiny_documents):
        index = build_index(tiny_documents)
        with pytest.raises(ValueError):
            index.add_document(tiny_documents[0])

    def test_add_terms_convenience(self):
        index = build_index([])
        index.add_terms("docX", ["t1", "t2"])
        assert "docX" in index.query_term("t1").documents

    def test_family_repetition_mismatch_rejected(self):
        from repro.hashing.universal import PartitionHashFamily

        config = RamboConfig(num_partitions=4, repetitions=3, bfu_bits=256)
        family = PartitionHashFamily(num_partitions=4, repetitions=2, seed=0)
        with pytest.raises(ValueError):
            Rambo(config, partition_family=family)

    def test_every_document_lands_in_every_repetition(self, tiny_documents):
        index = build_index(tiny_documents)
        for r in range(index.repetitions):
            members = [
                name
                for b in range(index.num_partitions)
                for name in index.partition_members(r, b)
            ]
            assert sorted(members) == sorted(index.document_names)

    def test_partition_matches_family(self, tiny_documents):
        index = build_index(tiny_documents)
        for doc in tiny_documents:
            for r in range(index.repetitions):
                expected = index._family(doc.name, r) % index.num_partitions
                assert doc.name in index.partition_members(r, expected)

    def test_member_lists_agree_with_assignments_on_every_derived_index(
        self, small_dataset, tmp_path
    ):
        """Every way of deriving an index yields the one layout: ``partition_members``
        is the inverse of the assignment table, and a writable result keeps
        taking ``add_documents`` bit-identically to the scalar reference
        (bits, tables and — where the counts are not lost to a container,
        which does not persist them — ``bfu().num_items``)."""
        from repro.core.distributed import DistributedRambo, stack_shards
        from repro.core.executor import num_threads
        from repro.core.parallel import merge_indexes
        from repro.core.serialization import open_index, save_index
        from repro.ingest.overlay import LiveDelta

        documents = [
            KmerDocument(doc.name, frozenset(sorted(doc.terms)[:60]))
            for doc in small_dataset.documents
        ]
        later = [KmerDocument(f"later{i}", frozenset(range(i, 20 * i + 7, 3))) for i in range(12)]
        by_name = {doc.name: doc for doc in documents + later}
        config = RamboConfig(num_partitions=8, repetitions=3, bfu_bits=1 << 10, k=13, seed=5)
        built = build_index(documents, **config.to_dict())
        halves = [Rambo(config), Rambo(config)]
        halves[0].add_documents(documents[:11])
        with num_threads(4):  # enough threads for the sharded insert to shard
            halves[1].add_documents(documents[11:], parallel=True)
        cluster = DistributedRambo(num_nodes=3, node_config=config)
        cluster.add_documents(documents)
        save_index(built.fold(), tmp_path / "folded.rambo2")
        save_index(built, tmp_path / "built.rambo2")
        live = LiveDelta(config)
        live.absorb(documents[:4])
        live.reset()
        live.absorb(documents)
        # label -> (index, whether its insert counts cover every document)
        derived = {
            "built": (built, True),
            "folded twice": (built.fold().fold(), True),
            "merged": (merge_indexes(halves), True),
            "stacked then folded": (stack_shards(cluster).fold(), True),
            "folded, saved, mapped copy-on-write": (
                open_index(tmp_path / "folded.rambo2", mode="c"),
                False,
            ),
            "mapped": (open_index(tmp_path / "built.rambo2"), False),
            "mapped copy-on-write": (open_index(tmp_path / "built.rambo2", mode="c"), False),
            "live delta": (live._index, True),  # noqa: SLF001
        }
        for label, (index, counted) in derived.items():
            assert index.readonly == (label == "mapped"), label
            if not index.readonly:
                index.add_documents(later[:3])
                with num_threads(4):
                    index.add_documents(later[3:], parallel=True)
            reference = Rambo(index.config, partition_family=index._family)  # noqa: SLF001
            for name in index.document_names:
                reference.add_document_scalar(by_name[name])
            assert index.assignments == reference.assignments, label
            for r in range(index.repetitions):
                assignment = index.assignments[r]
                for b in range(index.num_partitions):
                    expected = [name for name, a in zip(index.names, assignment) if a == b]
                    assert index.partition_members(r, b) == expected, (label, r, b)
                    assert index.bfu(r, b) == reference.bfu(r, b), (label, r, b)
                    if counted:
                        assert index.bfu(r, b).num_items == reference.bfu(r, b).num_items
        terms = sorted(documents[0].terms)[:8] + [5, 11]
        fingerprints = {
            label: [(r.documents, r.filters_probed) for r in index.query_terms_batch(terms)]
            for label, (index, _) in derived.items()
            if index.num_partitions == config.num_partitions and label != "mapped"
        }
        assert len(fingerprints) > 3 and len({str(f) for f in fingerprints.values()}) == 1

    def test_bfu_is_a_view_of_the_plane_the_kernel_probes(self, monkeypatch):
        """No second copy of the payload: what ``bfu()`` shows is what the
        batch kernel gathers from, and neither an insert nor the query after
        it allocates anything payload-sized (a restack would be 1x)."""
        import tracemalloc

        import numpy as np

        import repro.core.rambo as rambo_module

        config = RamboConfig(num_partitions=16, repetitions=2, bfu_bits=1 << 20, k=9, seed=3)
        payload = 8 * config.repetitions * config.num_partitions * config.words_per_bfu
        index = Rambo(config)
        index.add_documents([KmerDocument(f"d{i}", frozenset(range(i, i + 20))) for i in range(12)])
        index.query_terms_batch([1, 2, 3])
        tracemalloc.start()
        try:
            index.add_document(KmerDocument("new", frozenset(range(100, 140))))
            results = index.query_terms_batch(list(range(100, 108)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all("new" in result.documents for result in results)
        assert peak < payload // 4, (peak, payload)

        probed = []
        kernel = rambo_module.probe_words_batch
        monkeypatch.setattr(
            rambo_module,
            "probe_words_batch",
            lambda words, positions: probed.append(words) or kernel(words, positions),
        )
        index.query_terms_batch([1, 2, 3])
        assert len(probed) == config.repetitions
        for r, plane in enumerate(probed):
            assert plane is index.planes[r]
            for b in range(config.num_partitions):
                words = index.bfu(r, b).bits.words
                assert np.shares_memory(words, plane) and np.array_equal(words, plane[b])


class TestQuery:
    def test_zero_false_negatives_tiny(self, tiny_documents):
        index = build_index(tiny_documents)
        for doc in tiny_documents:
            for term in doc.terms:
                assert doc.name in index.query_term(term).documents

    def test_exact_on_tiny_documents(self, tiny_documents):
        """With few documents and large BFUs the answers should be exact."""
        index = build_index(tiny_documents, num_partitions=4, repetitions=4, bfu_bits=1 << 14)
        assert index.query_term("alpha").documents == frozenset({"doc_a"})
        assert index.query_term("delta").documents == frozenset({"doc_b", "doc_c"})
        assert index.query_term("zeta").documents == frozenset({"doc_d"})

    def test_absent_term_returns_small_or_empty(self, tiny_documents):
        index = build_index(tiny_documents)
        assert len(index.query_term("missing-term").documents) <= 1

    def test_empty_index_query(self):
        index = build_index([])
        result = index.query_term("anything")
        assert result.documents == frozenset()
        assert result.filters_probed == 0

    def test_unknown_method_rejected(self, tiny_documents):
        index = build_index(tiny_documents)
        with pytest.raises(ValueError):
            index.query_term("alpha", method="magic")

    def test_no_false_negatives_on_dataset(self, built_rambo, small_dataset):
        sample_terms = 0
        for doc in small_dataset.documents:
            for term in list(doc.terms)[:20]:
                assert doc.name in built_rambo.query_term(term).documents
                sample_terms += 1
        assert sample_terms > 0

    def test_sparse_equals_full(self, built_rambo, small_dataset):
        """RAMBO+ must return exactly the same documents as the full query."""
        terms = []
        for doc in small_dataset.documents[:10]:
            terms.extend(list(doc.terms)[:5])
        terms.append("absent-term-zzz")
        for term in terms:
            full = built_rambo.query_term(term, method="full")
            sparse = built_rambo.query_term(term, method="sparse")
            assert full.documents == sparse.documents

    def test_sparse_probes_at_most_full(self, built_rambo, small_dataset):
        term = next(iter(small_dataset.documents[0].terms))
        full = built_rambo.query_term(term, method="full")
        sparse = built_rambo.query_term(term, method="sparse")
        assert sparse.filters_probed <= full.filters_probed

    def test_query_terms_conjunction(self, tiny_documents):
        index = build_index(tiny_documents, bfu_bits=1 << 14, repetitions=4)
        result = index.query_terms(["gamma", "delta"])
        assert result.documents == frozenset({"doc_c"})

    def test_query_terms_early_exit(self, tiny_documents):
        index = build_index(tiny_documents, bfu_bits=1 << 14, repetitions=4)
        result = index.query_terms(["alpha", "zeta"])  # no document has both
        assert result.documents == frozenset()

    def test_query_sequence(self, small_dataset):
        index = build_index(small_dataset.documents, num_partitions=6, bfu_bits=1 << 15)
        # Reconstruct a short query sequence from a known document by taking
        # one of its k-mers back to a string.
        from repro.hashing.kmer_hash import int_to_kmer

        doc = small_dataset.documents[0]
        kmer = int_to_kmer(next(iter(doc.terms)), small_dataset.k)
        result = index.query_sequence(kmer)
        assert doc.name in result.documents

    def test_query_sequence_too_short(self, built_rambo):
        with pytest.raises(ValueError):
            built_rambo.query_sequence("ACG")

    def test_filters_probed_full(self, tiny_documents):
        index = build_index(tiny_documents)
        term = "alpha"
        result = index.query_term(term)
        assert result.filters_probed <= index.num_partitions * index.repetitions
        assert result.filters_probed >= index.num_partitions

    def test_contains_helper(self, tiny_documents):
        index = build_index(tiny_documents, bfu_bits=1 << 14)
        assert index.contains("doc_a", "alpha")


class TestAgainstGroundTruth:
    def test_results_superset_of_truth_never_missing(self, small_dataset):
        """RAMBO answers must be supersets of the exact inverted-index answers."""
        rambo = build_index(small_dataset.documents, num_partitions=6, bfu_bits=1 << 15)
        exact = InvertedIndex(k=small_dataset.k)
        exact.add_documents(small_dataset.documents)
        checked = 0
        for doc in small_dataset.documents[:10]:
            for term in list(doc.terms)[:10]:
                truth = exact.query_term(term).documents
                reported = rambo.query_term(term).documents
                assert truth <= reported
                checked += 1
        assert checked > 50

    def test_false_positive_rate_is_low_for_rare_terms(self, small_dataset):
        """Per Lemma 4.1 the FP rate is low when the query multiplicity V is small.

        Heavily shared k-mers (high V) legitimately light up most BFUs, so this
        check restricts itself to rare terms (V <= 2), the regime the paper's
        Figure 4 highlights as "very low false positives for rare queries".
        """
        rambo = build_index(
            small_dataset.documents, num_partitions=8, repetitions=4, bfu_bits=1 << 16
        )
        exact = InvertedIndex(k=small_dataset.k)
        exact.add_documents(small_dataset.documents)
        false_positives = 0
        comparisons = 0
        for doc in small_dataset.documents[:8]:
            rare_terms = [t for t in doc.terms if exact.multiplicity(t) <= 2][:10]
            for term in rare_terms:
                truth = exact.query_term(term).documents
                reported = rambo.query_term(term).documents
                false_positives += len(reported - truth)
                comparisons += len(small_dataset.documents) - len(truth)
        assert comparisons > 0
        assert false_positives / comparisons < 0.05


class TestPropertyBased:
    docs_strategy = st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=10**6),  # doc id component
            st.frozensets(st.text(alphabet="abcdefg", min_size=1, max_size=4), min_size=1, max_size=12),
        ),
        min_size=1,
        max_size=12,
        unique_by=lambda pair: pair[0],
    )

    @given(docs_strategy)
    @settings(max_examples=40, deadline=None)
    def test_no_false_negatives_property(self, raw_docs):
        documents = [
            KmerDocument(name=f"doc{i}", terms=terms) for (i, terms) in raw_docs
        ]
        index = build_index(documents, num_partitions=3, repetitions=3, bfu_bits=1 << 11)
        for doc in documents:
            for term in doc.terms:
                assert doc.name in index.query_term(term).documents

    @given(docs_strategy)
    @settings(max_examples=25, deadline=None)
    def test_sparse_full_equivalence_property(self, raw_docs):
        documents = [
            KmerDocument(name=f"doc{i}", terms=terms) for (i, terms) in raw_docs
        ]
        index = build_index(documents, num_partitions=3, repetitions=2, bfu_bits=1 << 11)
        probe_terms = {term for doc in documents for term in doc.terms}
        probe_terms.add("zzz-absent")
        for term in probe_terms:
            assert (
                index.query_term(term, method="full").documents
                == index.query_term(term, method="sparse").documents
            )


class TestFolding:
    def test_fold_halves_partitions_and_size(self, built_rambo):
        folded = built_rambo.fold()
        assert folded.num_partitions == built_rambo.num_partitions // 2
        assert folded.size_in_bytes() < built_rambo.size_in_bytes()

    def test_fold_preserves_documents(self, built_rambo):
        folded = built_rambo.fold()
        assert folded.document_names == built_rambo.document_names

    def test_fold_no_false_negatives(self, built_rambo, small_dataset):
        folded = built_rambo.fold()
        for doc in small_dataset.documents[:10]:
            for term in list(doc.terms)[:10]:
                assert doc.name in folded.query_term(term).documents

    def test_fold_results_superset_of_unfolded(self, built_rambo, small_dataset):
        """Folding only ORs bits, so candidate sets can only grow."""
        folded = built_rambo.fold()
        for doc in small_dataset.documents[:5]:
            for term in list(doc.terms)[:5]:
                assert built_rambo.query_term(term).documents <= folded.query_term(term).documents

    def test_fold_odd_partitions_rejected(self, tiny_documents):
        index = build_index(tiny_documents, num_partitions=5)
        with pytest.raises(ValueError):
            index.fold()

    def test_fold_rambo_multiple(self, small_dataset):
        index = build_index(small_dataset.documents, num_partitions=8)
        folded = fold_rambo(index, 3)
        assert folded.num_partitions == 1

    def test_fold_rambo_validation(self, built_rambo):
        with pytest.raises(ValueError):
            fold_rambo(built_rambo, -1)
        with pytest.raises(ValueError):
            fold_rambo(built_rambo, 5)  # 4 partitions cannot fold 5 times

    def test_fold_to_target(self, small_dataset):
        index = build_index(small_dataset.documents, num_partitions=8)
        folded = fold_to_target(index, 2)
        assert folded.num_partitions == 2
        with pytest.raises(ValueError):
            fold_to_target(index, 3)
        with pytest.raises(ValueError):
            fold_to_target(index, 0)

    def test_folding_schedule_and_report(self, small_dataset):
        index = build_index(small_dataset.documents, num_partitions=8)
        schedule = folding_schedule(index, 3)
        assert [v.num_partitions for v in schedule] == [4, 2, 1]
        report = fold_report(index, 3)
        assert set(report) == {2, 4, 8}
        sizes = [report[f]["size_bytes"] for f in (2, 4, 8)]
        assert sizes[0] > sizes[1] > sizes[2]

    def test_fold_insertion_after_fold(self, tiny_documents):
        """A folded index can still absorb new documents consistently."""
        index = build_index(tiny_documents, num_partitions=8, bfu_bits=1 << 13)
        folded = index.fold()
        folded.add_document(KmerDocument(name="late", terms=frozenset({"omega"})))
        assert "late" in folded.query_term("omega").documents


class TestAccounting:
    def test_size_components_sum(self, built_rambo):
        components = built_rambo.size_components()
        assert sum(components.values()) == built_rambo.size_in_bytes()

    def test_size_grows_with_partitions(self, small_dataset):
        small = build_index(small_dataset.documents, num_partitions=2)
        large = build_index(small_dataset.documents, num_partitions=8)
        assert large.size_in_bytes() > small.size_in_bytes()

    def test_fill_ratios_shape(self, built_rambo):
        ratios = built_rambo.fill_ratios()
        assert len(ratios) == built_rambo.repetitions
        assert all(len(row) == built_rambo.num_partitions for row in ratios)
        assert all(0.0 <= r <= 1.0 for row in ratios for r in row)

    def test_repr(self, built_rambo):
        assert "Rambo(" in repr(built_rambo)

"""Tests for the baseline indexes: COBS, SBT, SSBT, HowDeSBT, inverted index.

Every structure is held to the same contract RAMBO is: zero false negatives,
results that are supersets of the exact inverted-index answers, sensible size
accounting, and the conjunctive sequence-query semantics of the shared
:class:`MembershipIndex` interface.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines import (
    CobsIndex,
    HowDeSbt,
    InvertedIndex,
    SequenceBloomTree,
    SplitSequenceBloomTree,
)
from repro.kmers.extraction import KmerDocument

BLOOM_BASED = {
    "cobs": lambda: CobsIndex(num_bits=1 << 13, num_hashes=3, k=13, seed=2),
    "sbt": lambda: SequenceBloomTree(num_bits=1 << 13, num_hashes=1, k=13, seed=2),
    "ssbt": lambda: SplitSequenceBloomTree(num_bits=1 << 13, num_hashes=4, k=13, seed=2),
    "howdesbt": lambda: HowDeSbt(num_bits=1 << 13, num_hashes=1, k=13, seed=2),
}
ALL = dict(BLOOM_BASED, inverted=lambda: InvertedIndex(k=13))


@pytest.fixture(params=sorted(ALL), ids=sorted(ALL))
def any_index(request):
    return ALL[request.param]()


@pytest.fixture(params=sorted(BLOOM_BASED), ids=sorted(BLOOM_BASED))
def bloom_index(request):
    return BLOOM_BASED[request.param]()


class TestCommonContract:
    def test_no_false_negatives(self, any_index, tiny_documents):
        any_index.add_documents(tiny_documents)
        for doc in tiny_documents:
            for term in doc.terms:
                assert doc.name in any_index.query_term(term).documents

    def test_document_names_in_order(self, any_index, tiny_documents):
        any_index.add_documents(tiny_documents)
        assert any_index.document_names == [doc.name for doc in tiny_documents]
        assert any_index.num_documents == len(tiny_documents)

    def test_duplicate_name_rejected(self, any_index, tiny_documents):
        any_index.add_documents(tiny_documents)
        with pytest.raises(ValueError):
            any_index.add_document(tiny_documents[0])

    def test_empty_index_query(self, any_index):
        result = any_index.query_term("whatever")
        assert result.documents == frozenset()

    def test_size_positive_after_insertion(self, any_index, tiny_documents):
        any_index.add_documents(tiny_documents)
        assert any_index.size_in_bytes() > 0

    def test_query_terms_conjunction(self, any_index, tiny_documents):
        any_index.add_documents(tiny_documents)
        result = any_index.query_terms(["gamma", "delta"])
        assert "doc_c" in result.documents
        assert "doc_d" not in result.documents

    def test_superset_of_ground_truth_on_dataset(self, any_index, small_dataset):
        any_index.add_documents(small_dataset.documents)
        exact = InvertedIndex(k=small_dataset.k)
        exact.add_documents(small_dataset.documents)
        for doc in small_dataset.documents[:6]:
            for term in list(doc.terms)[:8]:
                assert exact.query_term(term).documents <= any_index.query_term(term).documents

    @pytest.mark.parametrize(
        "index_cls", [CobsIndex, SequenceBloomTree, SplitSequenceBloomTree, HowDeSbt]
    )
    @given(
        term_sets=st.lists(
            st.frozensets(st.text(alphabet="abcde", min_size=1, max_size=3), min_size=1, max_size=8),
            min_size=1,
            max_size=8,
        )
    )
    @settings(max_examples=15, deadline=None)
    def test_property_no_false_negatives(self, index_cls, term_sets):
        documents = [KmerDocument(name=f"doc{i}", terms=terms) for i, terms in enumerate(term_sets)]
        index = index_cls(num_bits=1 << 12, num_hashes=2, k=13, seed=3)
        index.add_documents(documents)
        for doc in documents:
            for term in doc.terms:
                assert doc.name in index.query_term(term).documents


class TestCobs:
    def test_for_capacity(self):
        index = CobsIndex.for_capacity(terms_per_document=500, fp_rate=0.01)
        assert index.num_bits > 500

    def test_probe_count_linear_in_documents(self, tiny_documents):
        index = CobsIndex(num_bits=1 << 12, num_hashes=3, k=13)
        index.add_documents(tiny_documents)
        assert index.query_term("alpha").filters_probed == len(tiny_documents)

    def test_exact_on_disjoint_documents(self):
        index = CobsIndex(num_bits=1 << 14, num_hashes=3, k=13)
        index.add_terms = None  # type: ignore[assignment]  # (ensure we only use the public API)
        docs = [
            KmerDocument(name="d1", terms=frozenset({"aaa", "bbb"})),
            KmerDocument(name="d2", terms=frozenset({"ccc"})),
        ]
        index.add_documents(docs)
        assert index.query_term("aaa").documents == frozenset({"d1"})
        assert index.query_term("ccc").documents == frozenset({"d2"})

    def test_fill_ratio(self, tiny_documents):
        index = CobsIndex(num_bits=1 << 10, num_hashes=2, k=13)
        assert index.fill_ratio() == 0.0
        index.add_documents(tiny_documents)
        assert 0.0 < index.fill_ratio() < 1.0

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            CobsIndex(num_bits=0)
        with pytest.raises(ValueError):
            CobsIndex(num_bits=8, num_hashes=0)


class TestSequenceBloomTree:
    def test_node_count_is_2k_minus_1(self, small_dataset):
        index = SequenceBloomTree(num_bits=1 << 13, k=small_dataset.k, seed=1)
        index.add_documents(small_dataset.documents)
        assert index.num_nodes() == 2 * len(small_dataset.documents) - 1

    def test_single_document_tree(self, tiny_documents):
        index = SequenceBloomTree(num_bits=1 << 10, k=13)
        index.add_document(tiny_documents[0])
        assert index.num_nodes() == 1
        assert index.height() == 0

    def test_height_reasonable(self, small_dataset):
        index = SequenceBloomTree(num_bits=1 << 13, k=small_dataset.k, seed=1)
        index.add_documents(small_dataset.documents)
        # Greedy insertion does not guarantee balance, but must stay below K.
        assert index.height() < len(small_dataset.documents)

    def test_absent_term_prunes_at_root(self, tiny_documents):
        index = SequenceBloomTree(num_bits=1 << 14, num_hashes=2, k=13)
        index.add_documents(tiny_documents)
        result = index.query_term("definitely-not-a-term")
        assert result.documents == frozenset()
        assert result.filters_probed == 1  # root only

    def test_for_capacity(self):
        index = SequenceBloomTree.for_capacity(200, fp_rate=0.05)
        assert index.num_bits > 0

    def test_invalid_construction(self):
        with pytest.raises(ValueError, match="num_bits"):
            SequenceBloomTree(num_bits=0)
        with pytest.raises(ValueError, match="num_hashes"):
            SequenceBloomTree(num_bits=8, num_hashes=0)


class TestSplitSequenceBloomTree:
    def test_lazy_rebuild_after_add(self, tiny_documents):
        index = SplitSequenceBloomTree(num_bits=1 << 12, k=13)
        index.add_documents(tiny_documents[:2])
        assert "doc_a" in index.query_term("alpha").documents
        index.add_document(tiny_documents[2])
        assert "doc_c" in index.query_term("epsilon").documents

    def test_similarity_short_circuit_counts_fewer_probes(self):
        """A term present in every document resolves at the root."""
        shared_docs = [
            KmerDocument(name=f"d{i}", terms=frozenset({"everywhere", f"unique{i}"}))
            for i in range(8)
        ]
        index = SplitSequenceBloomTree(num_bits=1 << 14, num_hashes=3, k=13, seed=4)
        index.add_documents(shared_docs)
        result = index.query_term("everywhere")
        assert result.documents == frozenset(doc.name for doc in shared_docs)
        assert result.filters_probed < 2 * len(shared_docs) - 1

    def test_num_nodes(self, tiny_documents):
        index = SplitSequenceBloomTree(num_bits=1 << 12, k=13)
        index.add_documents(tiny_documents)
        assert index.num_nodes() >= len(tiny_documents)

    def test_rebuild_explicit(self, tiny_documents):
        index = SplitSequenceBloomTree(num_bits=1 << 12, k=13)
        index.add_documents(tiny_documents)
        index.rebuild()
        assert "doc_d" in index.query_term("zeta").documents

    def test_invalid_construction(self):
        with pytest.raises(ValueError, match="num_bits"):
            SplitSequenceBloomTree(num_bits=0)
        with pytest.raises(ValueError, match="num_hashes"):
            SplitSequenceBloomTree(num_bits=8, num_hashes=0)


class TestHowDeSbt:
    def test_shared_term_resolves_high_in_tree(self):
        shared_docs = [
            KmerDocument(name=f"d{i}", terms=frozenset({"everywhere", f"unique{i}"}))
            for i in range(8)
        ]
        index = HowDeSbt(num_bits=1 << 14, num_hashes=2, k=13, seed=4)
        index.add_documents(shared_docs)
        result = index.query_term("everywhere")
        assert result.documents == frozenset(doc.name for doc in shared_docs)
        assert result.filters_probed < 2 * len(shared_docs) - 1

    def test_absent_term_prunes_at_root(self, tiny_documents):
        index = HowDeSbt(num_bits=1 << 14, num_hashes=2, k=13)
        index.add_documents(tiny_documents)
        result = index.query_term("nope-nope")
        assert result.documents == frozenset()
        assert result.filters_probed == 1

    def test_lazy_rebuild_after_add(self, tiny_documents):
        index = HowDeSbt(num_bits=1 << 12, k=13)
        index.add_documents(tiny_documents[:2])
        assert "doc_b" in index.query_term("delta").documents
        index.add_document(tiny_documents[3])
        assert "doc_d" in index.query_term("zeta").documents

    def test_rebuild_explicit(self, tiny_documents):
        index = HowDeSbt(num_bits=1 << 12, k=13)
        index.add_documents(tiny_documents)
        index.rebuild()
        assert index.num_nodes() >= len(tiny_documents)

    def test_invalid_construction(self):
        with pytest.raises(ValueError, match="num_bits"):
            HowDeSbt(num_bits=0)
        with pytest.raises(ValueError, match="num_hashes"):
            HowDeSbt(num_bits=8, num_hashes=0)


#: Integer probe terms for the pinned fingerprints: the document pool is
#: ``0..400`` so about a third of them are absent from every document.
PINNED_TERMS = list(range(0, 600, 4))


def _pinned_documents(count: int) -> list:
    """*count* seeded code-array documents plus one string-term document."""
    rng = np.random.default_rng(1000 + count)
    documents = [
        KmerDocument(
            name=f"doc{i:02d}",
            terms=rng.integers(0, 400, size=int(rng.integers(5, 60)), dtype=np.uint64),
        )
        for i in range(count)
    ]
    documents.append(KmerDocument(name="words", terms=frozenset({"alpha", "beta", "gamma"})))
    return documents


def _tree_fingerprint(index, conjunction: list) -> str:
    """sha256 over every answer, probe count and size figure of *index*."""
    rows = []
    for term in PINNED_TERMS + ["alpha", "not-a-term"]:
        result = index.query_term(term)
        rows.append((sorted(result.documents), result.filters_probed))
    result = index.query_terms(conjunction)
    rows.append((sorted(result.documents), result.filters_probed))
    rows.append(index.num_nodes())
    if isinstance(index, SequenceBloomTree):
        rows.append(index.height())
    rows.append(index.size_in_bytes())
    rows.append(index.document_names)
    return hashlib.sha256(repr(rows).encode("utf-8")).hexdigest()


#: Fingerprints of the three tree baselines, keyed (class, K, num_hashes).
PINNED_TREE_DIGESTS = {
    ("SequenceBloomTree", 1, 1): "9471fc622f512c086c09830cd01181263522f6b22af237195be153369202104f",
    ("SequenceBloomTree", 1, 3): "147efb772a8152bb3f7179dc3eb9efbc1ab0d5501922b123900b6db34755fdd0",
    ("SequenceBloomTree", 2, 1): "eca38b8d12d11764dab2b38e06e137fd9dd5510c7f8a37381008b63fecbad084",
    ("SequenceBloomTree", 2, 3): "f14f9892b7408fb235c0460d63b49226642bbed2e61cace139958f27525b5757",
    ("SequenceBloomTree", 7, 1): "bb6e36b1c1d58e6c4d3e0cfffbde65e2df6a263e82be0e37d3e6415e0779784e",
    ("SequenceBloomTree", 7, 3): "ae22b0f07dca8b15112d9582df73906a2ee52bf7ccee3d16a023fa4f39a9ff4e",
    ("SequenceBloomTree", 33, 1): "2b5dbd82bde0f8ea1fbd86aef4ab1ad798e87224f9970828aaad22e3882bb339",
    ("SequenceBloomTree", 33, 3): "b4302dc4585c100bf469f2ac34e18afe6c822e1bfaa5ddd0d886e4cc46f40453",
    ("SplitSequenceBloomTree", 1, 1): "3fb4b04e9790f5999e5c0d86c9f6384c2d0c7e675f5f5fb6f10d5e3317ad65a0",
    ("SplitSequenceBloomTree", 1, 3): "5157ce221b18cfcf9d5bd69a464eeed79dcb38da3b3ebeb62f924dd2e25df871",
    ("SplitSequenceBloomTree", 2, 1): "8fc09ace1e876fed5a442152ce03569f7c08f485b5b6ea75f2a93b6dfe258508",
    ("SplitSequenceBloomTree", 2, 3): "9948ed5f69159f5742144f6ee2d92dacc8a5b0037b5be3a8e1a5f900fff8e508",
    ("SplitSequenceBloomTree", 7, 1): "ab8237ec688df8586c8d638954a32f7e3791d0695b29560fe8af3eae6696b953",
    ("SplitSequenceBloomTree", 7, 3): "ac584221d8ed9a9a34186244deddbe4668cb9fc51bfa4a1702b8de1d134b4e1f",
    ("SplitSequenceBloomTree", 33, 1): "35853a82e356b94e3655ff2408304310a4f3529fd20dbc3beba913019d69c6c9",
    ("SplitSequenceBloomTree", 33, 3): "2b1869c3dc466153c206b59777f3dfbb23f0c9183d3eaa91b554babf12c4d8a9",
    ("HowDeSbt", 1, 1): "3fb4b04e9790f5999e5c0d86c9f6384c2d0c7e675f5f5fb6f10d5e3317ad65a0",
    ("HowDeSbt", 1, 3): "5157ce221b18cfcf9d5bd69a464eeed79dcb38da3b3ebeb62f924dd2e25df871",
    ("HowDeSbt", 2, 1): "8fc09ace1e876fed5a442152ce03569f7c08f485b5b6ea75f2a93b6dfe258508",
    ("HowDeSbt", 2, 3): "9948ed5f69159f5742144f6ee2d92dacc8a5b0037b5be3a8e1a5f900fff8e508",
    ("HowDeSbt", 7, 1): "ab8237ec688df8586c8d638954a32f7e3791d0695b29560fe8af3eae6696b953",
    ("HowDeSbt", 7, 3): "ac584221d8ed9a9a34186244deddbe4668cb9fc51bfa4a1702b8de1d134b4e1f",
    ("HowDeSbt", 33, 1): "35853a82e356b94e3655ff2408304310a4f3529fd20dbc3beba913019d69c6c9",
    ("HowDeSbt", 33, 3): "2b1869c3dc466153c206b59777f3dfbb23f0c9183d3eaa91b554babf12c4d8a9",
}


class TestPinnedTreeAnswers:
    """The tree baselines' answers, probe counts and sizes, pinned bit for bit."""

    @pytest.mark.parametrize("num_hashes", [1, 3])
    @pytest.mark.parametrize("count", [1, 2, 7, 33])
    @pytest.mark.parametrize(
        "index_cls", [SequenceBloomTree, SplitSequenceBloomTree, HowDeSbt]
    )
    def test_fingerprint(self, index_cls, count, num_hashes):
        index = index_cls(num_bits=2048, num_hashes=num_hashes, k=13, seed=5)
        documents = _pinned_documents(count)
        index.add_documents(documents)
        # Three terms of the first document: a conjunction that matches it.
        conjunction = [int(code) for code in documents[0].term_codes()[:3]]
        digest = _tree_fingerprint(index, conjunction)
        assert digest == PINNED_TREE_DIGESTS[(index_cls.__name__, count, num_hashes)]


class TestInvertedIndex:
    def test_exactness(self, tiny_documents):
        index = InvertedIndex(k=13)
        index.add_documents(tiny_documents)
        assert index.query_term("beta").documents == frozenset({"doc_a", "doc_b"})
        assert index.query_term("zeta").documents == frozenset({"doc_d"})
        assert index.query_term("missing").documents == frozenset()

    def test_multiplicity(self, tiny_documents):
        index = InvertedIndex(k=13)
        index.add_documents(tiny_documents)
        assert index.multiplicity("delta") == 2
        assert index.multiplicity("missing") == 0

    def test_num_terms(self, tiny_documents):
        index = InvertedIndex(k=13)
        index.add_documents(tiny_documents)
        assert index.num_terms() == len({t for d in tiny_documents for t in d.terms})

    def test_size_grows_with_postings(self, tiny_documents):
        index = InvertedIndex(k=13)
        index.add_document(tiny_documents[0])
        small = index.size_in_bytes()
        index.add_document(tiny_documents[1])
        assert index.size_in_bytes() > small

"""Tests for partial-index merging."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.parallel import merge_indexes
from repro.core.rambo import Rambo, RamboConfig
from repro.kmers.extraction import KmerDocument


def config(**overrides) -> RamboConfig:
    params = dict(num_partitions=5, repetitions=3, bfu_bits=1 << 13, bfu_hashes=2, k=13, seed=7)
    params.update(overrides)
    return RamboConfig(**params)


def sequential_build(documents, cfg) -> Rambo:
    index = Rambo(cfg)
    index.add_documents(documents)
    return index


class TestMergeIndexes:
    def test_merge_equals_sequential_build(self, small_dataset):
        cfg = config(k=small_dataset.k)
        docs = small_dataset.documents
        half = len(docs) // 2

        part_a = sequential_build(docs[:half], cfg)
        part_b = sequential_build(docs[half:], cfg)
        merged = merge_indexes([part_a, part_b])
        reference = sequential_build(docs, cfg)

        assert merged.document_names == reference.document_names
        for r in range(cfg.repetitions):
            for b in range(cfg.num_partitions):
                assert merged.bfu(r, b).bits == reference.bfu(r, b).bits
        for doc in docs[:10]:
            for term in list(doc.terms)[:5]:
                assert merged.query_term(term).documents == reference.query_term(term).documents

    def test_merge_single_part_is_identity(self, small_dataset):
        cfg = config(k=small_dataset.k)
        part = sequential_build(small_dataset.documents, cfg)
        merged = merge_indexes([part])
        assert merged.document_names == part.document_names
        term = next(iter(small_dataset.documents[0].terms))
        assert merged.query_term(term).documents == part.query_term(term).documents

    def test_merge_into_given_planes_overwrites_and_adopts_them(self, small_dataset):
        """``out=`` is how a compactor reuses one accumulator: whatever the
        planes held is overwritten, and the result is the fresh merge's bits
        in the caller's buffers."""
        cfg = config(k=small_dataset.k)
        docs = small_dataset.documents
        parts = [sequential_build(docs[:10], cfg), sequential_build(docs[10:20], cfg)]
        out = [np.full_like(plane, np.iinfo(np.uint64).max) for plane in parts[0].planes]
        merged = merge_indexes(parts, out=out)
        fresh = merge_indexes(parts)
        assert merged.document_names == fresh.document_names
        for r, plane in enumerate(merged.planes):
            assert plane is out[r]
            assert np.array_equal(plane, fresh.planes[r])

    def test_merge_empty_list_rejected(self):
        with pytest.raises(ValueError):
            merge_indexes([])

    def test_merge_incompatible_configs_rejected(self, small_dataset):
        docs = small_dataset.documents
        part_a = sequential_build(docs[:5], config(k=small_dataset.k))
        part_b = sequential_build(docs[5:10], config(k=small_dataset.k, num_partitions=6))
        with pytest.raises(ValueError, match="not mergeable"):
            merge_indexes([part_a, part_b])
        # k is no part of the bits, but query_sequence extracts k-mers by it.
        other_k = sequential_build(docs[5:10], config(k=small_dataset.k - 2))
        with pytest.raises(ValueError, match="not mergeable"):
            merge_indexes([part_a, other_k])

    def test_merge_different_seeds_rejected(self, small_dataset):
        docs = small_dataset.documents
        part_a = sequential_build(docs[:5], config(k=small_dataset.k, seed=1))
        part_b = sequential_build(docs[5:10], config(k=small_dataset.k, seed=2))
        with pytest.raises(ValueError, match="not mergeable"):
            merge_indexes([part_a, part_b])

    def test_merge_overlapping_documents_rejected(self, small_dataset):
        cfg = config(k=small_dataset.k)
        docs = small_dataset.documents
        part_a = sequential_build(docs[:6], cfg)
        part_b = sequential_build(docs[4:8], cfg)  # docs 4 and 5 overlap
        with pytest.raises(ValueError, match="more than one"):
            merge_indexes([part_a, part_b])

    def test_merged_index_accepts_new_documents(self, small_dataset):
        cfg = config(k=small_dataset.k)
        docs = small_dataset.documents
        merged = merge_indexes(
            [sequential_build(docs[:10], cfg), sequential_build(docs[10:20], cfg)]
        )
        merged.add_document(KmerDocument(name="late", terms=frozenset({"late-term"})))
        assert "late" in merged.query_term("late-term").documents

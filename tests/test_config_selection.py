"""Tests for parameter selection (Section 5.1's pooling procedure)."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core.config import configure_from_sample, estimate_cardinality
from repro.core.rambo import Rambo, RamboConfig
from repro.kmers.extraction import KmerDocument


def make_documents(count: int, terms_per_doc: int) -> list:
    return [
        KmerDocument(name=f"d{i}", terms=frozenset(f"t{i}_{j}" for j in range(terms_per_doc)))
        for i in range(count)
    ]


class TestCardinalityEstimate:
    def test_exact_on_uniform_documents(self):
        docs = make_documents(50, 20)
        assert estimate_cardinality(docs, sample_fraction=0.2, seed=1) == pytest.approx(20.0)

    def test_small_collection_fully_sampled(self):
        docs = make_documents(5, 7)
        assert estimate_cardinality(docs, sample_fraction=0.01, min_sample=10) == pytest.approx(7.0)

    def test_estimate_close_on_heterogeneous_documents(self):
        docs = [
            KmerDocument(name=f"d{i}", terms=frozenset(f"t{i}_{j}" for j in range(10 + (i % 5) * 10)))
            for i in range(200)
        ]
        true_mean = sum(len(d) for d in docs) / len(docs)
        estimate = estimate_cardinality(docs, sample_fraction=0.3, seed=2)
        assert abs(estimate - true_mean) / true_mean < 0.25

    def test_validation(self):
        with pytest.raises(ValueError):
            estimate_cardinality([], sample_fraction=0.5)
        with pytest.raises(ValueError):
            estimate_cardinality(make_documents(3, 3), sample_fraction=0.0)


class TestBfuSizing:
    def test_bits_scale_with_load(self):
        light = RamboConfig.recommended(100, 100, fp_rate=0.01, num_partitions=10)
        heavy = RamboConfig.recommended(1000, 100, fp_rate=0.01, num_partitions=10)
        assert heavy.bfu_bits > light.bfu_bits

    def test_bits_shrink_with_more_partitions(self):
        few = RamboConfig.recommended(1000, 100, fp_rate=0.01, num_partitions=10)
        many = RamboConfig.recommended(1000, 100, fp_rate=0.01, num_partitions=100)
        assert many.bfu_bits < few.bfu_bits

    def test_validation(self):
        with pytest.raises(ValueError):
            RamboConfig.recommended(10, 0)
        with pytest.raises(ValueError):
            RamboConfig.recommended(0, 10)


class TestConfigureFromSample:
    def test_produces_working_index(self):
        docs = make_documents(40, 30)
        config = configure_from_sample(docs, fp_rate=0.01, k=13, seed=3)
        index = Rambo(config)
        index.add_documents(docs)
        for doc in docs[:10]:
            term = next(iter(doc.terms))
            assert doc.name in index.query_term(term).documents

    def test_defaults_match_paper_scale(self):
        """R should land in the small range the paper uses (2-4) at these scales."""
        docs = make_documents(100, 20)
        config = configure_from_sample(docs, fp_rate=0.01)
        assert 2 <= config.repetitions <= 4
        assert 2 <= config.num_partitions <= 100

    def test_explicit_overrides_respected(self):
        docs = make_documents(30, 10)
        config = configure_from_sample(docs, num_partitions=7, repetitions=5)
        assert config.num_partitions == 7
        assert config.repetitions == 5

    def test_partitions_grow_with_collection(self):
        small = configure_from_sample(make_documents(20, 10))
        large = configure_from_sample(make_documents(400, 10))
        assert large.num_partitions > small.num_partitions

    def test_empty_collection_rejected(self):
        with pytest.raises(ValueError):
            configure_from_sample([])

    @pytest.mark.parametrize("num_docs", [3, 40, 250])
    @pytest.mark.parametrize("multiplicity", [1.0, 1.5, 2.0, 3.0])
    @pytest.mark.parametrize("fp_rate", [0.01, 0.05])
    @pytest.mark.parametrize("eta", [2, 3])
    def test_agrees_with_recommended(self, num_docs, multiplicity, fp_rate, eta):
        """Both callers size through the one rule: with every document
        holding c terms the pooled estimate is exactly c, so the configs
        are equal field for field."""
        c = 17
        sampled = configure_from_sample(
            make_documents(num_docs, c), fp_rate=fp_rate, expected_multiplicity=multiplicity,
            bfu_hashes=eta, k=13, seed=5,
        )
        given = RamboConfig.recommended(
            num_docs, c, fp_rate=fp_rate, expected_multiplicity=multiplicity,
            bfu_hashes=eta, k=13, seed=5,
        )
        assert sampled == given


RECOMMENDED_GRID = Path(__file__).parent / "data" / "recommended-grid.json"


class TestPinnedRule:
    """``RamboConfig.recommended`` over K x V x p at two cardinalities; the
    table is what the rule computed when it was pinned, so any change to the
    B, R or BFU-size arithmetic shows up here as a moved row."""

    def test_recommended_matches_the_pinned_grid(self):
        rows = json.loads(RECOMMENDED_GRID.read_text(encoding="utf-8"))
        assert len(rows) == 7 * 7 * 3 * 2
        for K, c, V, p, B, R, bits, eta in rows:
            config = RamboConfig.recommended(K, c, fp_rate=p, expected_multiplicity=V)
            got = (config.num_partitions, config.repetitions, config.bfu_bits, config.bfu_hashes)
            assert got == (B, R, bits, eta), (K, c, V, p)

"""Tests for the Bloom filter and its sizing rules."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.bloom.bloom_filter import BloomFilter, optimal_num_bits, optimal_num_hashes

keys = st.lists(st.text(min_size=1, max_size=12), min_size=0, max_size=60, unique=True)


class TestSizingRules:
    def test_optimal_num_bits_monotone_in_items(self):
        assert optimal_num_bits(2000, 0.01) > optimal_num_bits(1000, 0.01)

    def test_optimal_num_bits_monotone_in_fp(self):
        assert optimal_num_bits(1000, 0.001) > optimal_num_bits(1000, 0.01)

    def test_optimal_num_bits_validation(self):
        with pytest.raises(ValueError):
            optimal_num_bits(0, 0.01)
        with pytest.raises(ValueError):
            optimal_num_bits(10, 1.5)

    def test_optimal_num_hashes(self):
        # m/n = 9.6 bits per item at 1% → eta ≈ 7 rounds to 7.
        m = optimal_num_bits(1000, 0.01)
        assert 5 <= optimal_num_hashes(m, 1000) <= 8

    def test_optimal_num_hashes_validation(self):
        with pytest.raises(ValueError):
            optimal_num_hashes(0, 10)
        with pytest.raises(ValueError):
            optimal_num_hashes(10, 0)


class TestBloomFilter:
    def test_no_false_negatives_basic(self):
        bf = BloomFilter(num_bits=1 << 12, num_hashes=3, seed=1)
        items = [f"kmer{i}" for i in range(200)]
        bf.update(items)
        assert all(item in bf for item in items)

    def test_integer_keys(self):
        bf = BloomFilter(num_bits=1 << 10, num_hashes=2)
        bf.add(123456789)
        assert 123456789 in bf

    def test_negative_integer_rejected(self):
        bf = BloomFilter(num_bits=64, num_hashes=1)
        with pytest.raises(ValueError):
            bf.add(-5)

    def test_unsupported_key_type(self):
        bf = BloomFilter(num_bits=64, num_hashes=1)
        with pytest.raises(TypeError):
            bf.add(3.14)  # type: ignore[arg-type]

    def test_empty_filter_rejects_everything(self):
        bf = BloomFilter(num_bits=1 << 10, num_hashes=3)
        assert "anything" not in bf
        assert bf.false_positive_rate() == 0.0

    def test_for_capacity_meets_fp_target(self):
        bf = BloomFilter.for_capacity(500, fp_rate=0.01, seed=3)
        bf.update(f"item{i}" for i in range(500))
        # Estimate FP empirically on keys that were never inserted.
        false_hits = sum(1 for i in range(500, 3500) if f"item{i}" in bf)
        assert false_hits / 3000 < 0.03  # generous margin over the 1% target

    def test_contains_all_short_circuits(self):
        bf = BloomFilter(num_bits=1 << 12, num_hashes=3)
        bf.update(["a", "b", "c"])
        assert bf.contains_all(["a", "b"])
        assert not bf.contains_all(["a", "definitely-not-present-key-xyz"])

    def test_fill_ratio_increases(self):
        bf = BloomFilter(num_bits=1 << 10, num_hashes=2)
        before = bf.fill_ratio()
        bf.update(f"x{i}" for i in range(100))
        assert bf.fill_ratio() > before

    def test_expected_fp_rate_formula(self):
        bf = BloomFilter(num_bits=1000, num_hashes=3)
        assert bf.expected_false_positive_rate(0) == 0.0
        assert 0.0 < bf.expected_false_positive_rate(100) < 1.0

    def test_union_equivalence(self):
        """Union of filters equals a filter built from the union of the sets."""
        a = BloomFilter(num_bits=1 << 11, num_hashes=3, seed=9)
        b = BloomFilter(num_bits=1 << 11, num_hashes=3, seed=9)
        direct = BloomFilter(num_bits=1 << 11, num_hashes=3, seed=9)
        set_a = [f"a{i}" for i in range(50)]
        set_b = [f"b{i}" for i in range(50)]
        a.update(set_a)
        b.update(set_b)
        direct.update(set_a + set_b)
        assert a.union(b) == direct

    def test_union_inplace_no_false_negatives(self):
        a = BloomFilter(num_bits=1 << 11, num_hashes=3, seed=9)
        b = BloomFilter(num_bits=1 << 11, num_hashes=3, seed=9)
        a.update(["x", "y"])
        b.update(["z"])
        a.union_inplace(b)
        assert all(k in a for k in ("x", "y", "z"))

    def test_union_incompatible_rejected(self):
        a = BloomFilter(num_bits=128, num_hashes=3, seed=1)
        b = BloomFilter(num_bits=256, num_hashes=3, seed=1)
        with pytest.raises(ValueError):
            a.union(b)
        c = BloomFilter(num_bits=128, num_hashes=3, seed=2)
        with pytest.raises(ValueError):
            a.union(c)

    def test_intersection_keeps_common_bits(self):
        a = BloomFilter(num_bits=1 << 10, num_hashes=2, seed=4)
        b = BloomFilter(num_bits=1 << 10, num_hashes=2, seed=4)
        a.update(["shared", "only-a"])
        b.update(["shared", "only-b"])
        inter = a.intersection(b)
        assert "shared" in inter

    def test_copy_is_independent(self):
        a = BloomFilter(num_bits=256, num_hashes=2)
        a.add("x")
        b = a.copy()
        b.add("y")
        assert "y" in b and "y" not in a

    def test_serialisation_round_trip(self):
        a = BloomFilter(num_bits=512, num_hashes=3, seed=21)
        a.update(["p", "q", "r"])
        restored = BloomFilter.from_bytes(a.to_bytes())
        assert restored == a
        assert restored.num_items == a.num_items

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            BloomFilter(num_bits=0)
        with pytest.raises(ValueError):
            BloomFilter(num_bits=10, num_hashes=0)

    @given(keys)
    @settings(max_examples=40)
    def test_property_no_false_negatives(self, items):
        bf = BloomFilter(num_bits=1 << 12, num_hashes=3, seed=5)
        bf.update(items)
        assert all(item in bf for item in items)

    @given(keys, keys)
    @settings(max_examples=30)
    def test_property_union_superset(self, items_a, items_b):
        a = BloomFilter(num_bits=1 << 12, num_hashes=3, seed=5)
        b = BloomFilter(num_bits=1 << 12, num_hashes=3, seed=5)
        a.update(items_a)
        b.update(items_b)
        union = a.union(b)
        assert all(item in union for item in items_a + items_b)

"""Tests for the 2-universal hash families and the two-level routing hash."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.hashing.universal import (
    CarterWegmanHash,
    MERSENNE_PRIME_61,
    PartitionHashFamily,
    TwoLevelPartitionHash,
)


class TestCarterWegman:
    def test_range_respected(self):
        h = CarterWegmanHash.random(range_size=13, seed=1)
        assert all(0 <= h(x) < 13 for x in range(200))

    def test_deterministic(self):
        h1 = CarterWegmanHash.random(range_size=50, seed=9)
        h2 = CarterWegmanHash.random(range_size=50, seed=9)
        assert [h1(i) for i in range(100)] == [h2(i) for i in range(100)]

    def test_different_seeds_differ(self):
        h1 = CarterWegmanHash.random(range_size=1000, seed=1)
        h2 = CarterWegmanHash.random(range_size=1000, seed=2)
        assert [h1(i) for i in range(50)] != [h2(i) for i in range(50)]

    def test_string_keys_supported(self):
        h = CarterWegmanHash.random(range_size=7, seed=3)
        assert 0 <= h("doc000123") < 7
        assert h("doc000123") == h("doc000123")

    def test_bytes_keys_supported(self):
        h = CarterWegmanHash.random(range_size=7, seed=3)
        assert h(b"abc") == h(b"abc")

    def test_negative_int_rejected(self):
        h = CarterWegmanHash.random(range_size=7, seed=3)
        with pytest.raises(ValueError):
            h(-1)

    def test_bool_key_rejected(self):
        h = CarterWegmanHash.random(range_size=7, seed=3)
        with pytest.raises(TypeError):
            h(True)

    def test_invalid_coefficients(self):
        with pytest.raises(ValueError):
            CarterWegmanHash(a=0, b=0, range_size=10)
        with pytest.raises(ValueError):
            CarterWegmanHash(a=1, b=MERSENNE_PRIME_61, range_size=10)
        with pytest.raises(ValueError):
            CarterWegmanHash(a=1, b=0, range_size=0)

    def test_with_range_preserves_coefficients(self):
        h = CarterWegmanHash.random(range_size=100, seed=5)
        h2 = h.with_range(10)
        assert (h2.a, h2.b) == (h.a, h.b)
        assert h2.range_size == 10

    def test_uniformity_rough(self):
        """Collision rate over random pairs should be near 1/B."""
        B = 16
        h = CarterWegmanHash.random(range_size=B, seed=11)
        buckets = [0] * B
        n = 4000
        for i in range(n):
            buckets[h(i)] += 1
        # Every bucket should receive a reasonable share (within 3x of mean).
        mean = n / B
        assert all(mean / 3 <= count <= mean * 3 for count in buckets)


class TestPartitionHashFamily:
    def test_assign_length(self):
        family = PartitionHashFamily(num_partitions=10, repetitions=4, seed=0)
        assert len(family.assign("doc1")) == 4

    def test_assign_matches_call(self):
        family = PartitionHashFamily(num_partitions=10, repetitions=4, seed=0)
        assignment = family.assign("doc1")
        assert assignment == [family("doc1", r) for r in range(4)]

    def test_range(self):
        family = PartitionHashFamily(num_partitions=6, repetitions=3, seed=1)
        for i in range(100):
            assert all(0 <= cell < 6 for cell in family.assign(f"doc{i}"))

    def test_repetitions_independent(self):
        """Different repetitions should not all produce identical partitions."""
        family = PartitionHashFamily(num_partitions=8, repetitions=3, seed=2)
        rows = [[family(f"doc{i}", r) for i in range(64)] for r in range(3)]
        assert rows[0] != rows[1] or rows[1] != rows[2]

    def test_seed_consistency_across_instances(self):
        a = PartitionHashFamily(num_partitions=8, repetitions=2, seed=99)
        b = PartitionHashFamily(num_partitions=8, repetitions=2, seed=99)
        assert [a.assign(f"d{i}") for i in range(50)] == [b.assign(f"d{i}") for i in range(50)]

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            PartitionHashFamily(num_partitions=0, repetitions=1)
        with pytest.raises(ValueError):
            PartitionHashFamily(num_partitions=1, repetitions=0)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=50)
    def test_integer_keys(self, key):
        family = PartitionHashFamily(num_partitions=5, repetitions=2, seed=3)
        assert all(0 <= c < 5 for c in family.assign(key))

    def test_collision_probability_roughly_uniform(self):
        """Pairwise collisions across 2-universal members ≈ 1/B."""
        B = 20
        family = PartitionHashFamily(num_partitions=B, repetitions=1, seed=17)
        keys = [f"doc{i}" for i in range(300)]
        cells = [family(k, 0) for k in keys]
        collisions = 0
        pairs = 0
        for i in range(len(keys)):
            for j in range(i + 1, len(keys)):
                pairs += 1
                if cells[i] == cells[j]:
                    collisions += 1
        rate = collisions / pairs
        assert 0.5 / B < rate < 2.0 / B


class TestTwoLevelPartitionHash:
    def test_total_partitions(self):
        hash2 = TwoLevelPartitionHash(num_nodes=5, partitions_per_node=8, repetitions=2, seed=0)
        assert hash2.total_partitions == 40

    def test_global_range(self):
        hash2 = TwoLevelPartitionHash(num_nodes=4, partitions_per_node=6, repetitions=3, seed=1)
        for i in range(200):
            for r in range(3):
                assert 0 <= hash2(f"doc{i}", r) < 24

    def test_decomposition(self):
        """Global cell must equal b * node + local cell (the paper's composition)."""
        hash2 = TwoLevelPartitionHash(num_nodes=3, partitions_per_node=7, repetitions=2, seed=4)
        for i in range(100):
            name = f"doc{i}"
            for r in range(2):
                expected = 7 * hash2.node_of(name) + hash2.local_partition(name, r)
                assert hash2(name, r) == expected

    def test_node_routing_stable_across_repetitions(self):
        """The node assignment tau(D) does not depend on the repetition."""
        hash2 = TwoLevelPartitionHash(num_nodes=6, partitions_per_node=4, repetitions=3, seed=2)
        for i in range(50):
            name = f"doc{i}"
            globals_ = [hash2(name, r) for r in range(3)]
            assert len({g // 4 for g in globals_}) == 1

    def test_global_family_view_matches(self):
        hash2 = TwoLevelPartitionHash(num_nodes=3, partitions_per_node=5, repetitions=2, seed=8)
        family = hash2.global_family()
        assert family.num_partitions == 15
        for i in range(60):
            assert family.assign(f"doc{i}") == [hash2(f"doc{i}", r) for r in range(2)]

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            TwoLevelPartitionHash(num_nodes=0, partitions_per_node=1, repetitions=1)
        with pytest.raises(ValueError):
            TwoLevelPartitionHash(num_nodes=1, partitions_per_node=0, repetitions=1)

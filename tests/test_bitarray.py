"""Tests for the numpy-backed BitArray, the substrate of every index."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.bloom.bitarray import BitArray, popcount_words, probe_words_batch

sizes = st.integers(min_value=1, max_value=300)


def index_sets(size: int):
    return st.lists(st.integers(min_value=0, max_value=size - 1), max_size=50)


class TestBasics:
    def test_initially_empty(self):
        arr = BitArray(100)
        assert arr.count() == 0
        assert not arr.any()
        assert len(arr) == 100

    def test_set_get_clear(self):
        arr = BitArray(70)
        arr.set(0)
        arr.set(63)
        arr.set(64)
        arr.set(69)
        assert arr.get(0) and arr.get(63) and arr.get(64) and arr.get(69)
        assert not arr.get(1)
        arr.clear(63)
        assert not arr.get(63)
        assert arr.count() == 3

    def test_negative_index_wraps(self):
        arr = BitArray(10)
        arr.set(-1)
        assert arr.get(9)

    def test_out_of_range(self):
        arr = BitArray(10)
        with pytest.raises(IndexError):
            arr.set(10)
        with pytest.raises(IndexError):
            arr.get(-11)

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            BitArray(0)

    def test_item_access(self):
        arr = BitArray(8)
        arr[3] = 1
        assert arr[3]
        arr[3] = 0
        assert not arr[3]

    def test_set_many_and_get_many(self):
        arr = BitArray(128)
        arr.set_many([1, 64, 127, 64])
        assert arr.count() == 3
        assert list(arr.get_many([1, 2, 64, 127])) == [True, False, True, True]

    def test_all_set(self):
        arr = BitArray(32)
        arr.set_many([3, 7, 11])
        assert arr.all_set([3, 7])
        assert not arr.all_set([3, 8])

    def test_empty_set_many(self):
        arr = BitArray(16)
        arr.set_many([])
        assert arr.count() == 0

    def test_iteration(self):
        arr = BitArray.from_bits([1, 0, 1, 1])
        assert list(arr) == [True, False, True, True]

    def test_from_indices(self):
        arr = BitArray.from_indices(20, [0, 5, 19])
        assert sorted(arr.to_indices().tolist()) == [0, 5, 19]

    def test_to_bits_round_trip(self):
        bits = [1, 0, 0, 1, 1, 0, 1]
        arr = BitArray.from_bits(bits)
        assert arr.to_bits().tolist() == bits

    def test_repr(self):
        assert "BitArray" in repr(BitArray(8))

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(BitArray(8))


class TestAlgebra:
    def test_or_and_xor(self):
        a = BitArray.from_bits([1, 1, 0, 0])
        b = BitArray.from_bits([1, 0, 1, 0])
        assert (a | b).to_bits().tolist() == [1, 1, 1, 0]
        assert (a & b).to_bits().tolist() == [1, 0, 0, 0]
        assert (a ^ b).to_bits().tolist() == [0, 1, 1, 0]

    def test_invert_masks_tail(self):
        a = BitArray.from_bits([1, 0, 1])
        inv = ~a
        assert inv.to_bits().tolist() == [0, 1, 0]
        # Padding bits beyond size must stay zero so popcounts remain valid.
        assert inv.count() == 1

    def test_inplace_ops(self):
        a = BitArray.from_bits([1, 0, 0, 1])
        b = BitArray.from_bits([0, 1, 0, 1])
        a |= b
        assert a.to_bits().tolist() == [1, 1, 0, 1]
        a &= b
        assert a.to_bits().tolist() == [0, 1, 0, 1]
        a ^= b
        assert a.count() == 0

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            _ = BitArray(8) | BitArray(9)

    def test_type_mismatch_rejected(self):
        with pytest.raises(TypeError):
            _ = BitArray(8) | "not a bitarray"

    def test_is_subset_of(self):
        small = BitArray.from_indices(32, [1, 5])
        big = BitArray.from_indices(32, [1, 5, 9])
        assert small.is_subset_of(big)
        assert not big.is_subset_of(small)

    def test_equality_and_copy(self):
        a = BitArray.from_indices(40, [0, 39])
        b = a.copy()
        assert a == b
        b.set(20)
        assert a != b

    @given(sizes, st.data())
    def test_union_contains_both_operands(self, size, data):
        a = BitArray.from_indices(size, data.draw(index_sets(size)))
        b = BitArray.from_indices(size, data.draw(index_sets(size)))
        union = a | b
        assert a.is_subset_of(union)
        assert b.is_subset_of(union)

    @given(sizes, st.data())
    def test_de_morgan(self, size, data):
        a = BitArray.from_indices(size, data.draw(index_sets(size)))
        b = BitArray.from_indices(size, data.draw(index_sets(size)))
        assert ~(a | b) == (~a) & (~b)
        assert ~(a & b) == (~a) | (~b)

    @given(sizes, st.data())
    def test_or_idempotent_and_commutative(self, size, data):
        a = BitArray.from_indices(size, data.draw(index_sets(size)))
        b = BitArray.from_indices(size, data.draw(index_sets(size)))
        assert (a | a) == a
        assert (a | b) == (b | a)

    @given(sizes, st.data())
    def test_count_matches_indices(self, size, data):
        indices = data.draw(index_sets(size))
        arr = BitArray.from_indices(size, indices)
        assert arr.count() == len(set(indices))
        assert arr.fill_ratio() == pytest.approx(len(set(indices)) / size)


class TestPopcount:
    @given(st.lists(st.integers(min_value=0, max_value=(1 << 64) - 1), max_size=40))
    def test_popcount_words_matches_unpackbits(self, values):
        words = np.array(values, dtype=np.uint64)
        expected = int(np.unpackbits(words.view(np.uint8)).sum()) if words.size else 0
        assert popcount_words(words) == expected

    @given(sizes, st.data())
    def test_count_matches_unpackbits_reference(self, size, data):
        arr = BitArray.from_indices(size, data.draw(index_sets(size)))
        reference = int(np.unpackbits(arr.words.view(np.uint8)).sum())
        assert arr.count() == reference

    def test_no_eightfold_expansion(self):
        # count() must work on the words directly; this is a smoke check that
        # the value is right on a large array where unpackbits would allocate
        # 8x the payload.
        arr = BitArray(1 << 20)
        arr.set_many(range(0, 1 << 20, 97))
        assert arr.count() == len(range(0, 1 << 20, 97))


class TestProbeWordsBatch:
    def test_matches_all_set_per_row(self):
        rng = np.random.default_rng(3)
        num_bits = 256
        arrays = []
        for _ in range(5):
            arr = BitArray(num_bits)
            arr.set_many(rng.integers(0, num_bits, size=60).tolist())
            arrays.append(arr)
        words = np.stack([a.words for a in arrays])
        positions = rng.integers(0, num_bits, size=(7, 3))
        verdict = probe_words_batch(words, positions)
        assert verdict.shape == (7, 5)
        for q in range(7):
            for r in range(5):
                assert verdict[q, r] == arrays[r].all_set(positions[q].tolist())

    def test_empty_positions_row_is_vacuously_true(self):
        words = np.zeros((3, 2), dtype=np.uint64)
        verdict = probe_words_batch(words, np.zeros((2, 0), dtype=np.int64))
        assert verdict.shape == (2, 3)
        assert verdict.all()

    def test_no_rows_yields_empty_verdict(self):
        verdict = probe_words_batch(
            np.zeros((0, 2), dtype=np.uint64), np.array([[1, 2]], dtype=np.int64)
        )
        assert verdict.shape == (1, 0)

    def test_zero_width_payload_with_probes_is_an_error(self):
        """Regression: real probe positions against a zero-word payload must
        not report vacuous membership."""
        with pytest.raises(IndexError):
            probe_words_batch(
                np.zeros((3, 0), dtype=np.uint64), np.array([[1, 2]], dtype=np.int64)
            )

    def test_negative_positions_rejected(self):
        words = np.zeros((2, 2), dtype=np.uint64)
        with pytest.raises(IndexError, match="non-negative"):
            probe_words_batch(words, np.array([[3, -1]], dtype=np.int64))

    def test_rejects_non_2d(self):
        words = np.zeros((3, 2), dtype=np.uint64)
        with pytest.raises(ValueError):
            probe_words_batch(words, np.zeros(3, dtype=np.int64))
        with pytest.raises(ValueError):
            probe_words_batch(np.zeros(2, dtype=np.uint64), np.zeros((1, 1), dtype=np.int64))

    def test_rejects_non_uint64_words(self):
        """The byte gather addresses bits of 64-bit words; another word size
        would silently probe the wrong bits."""
        with pytest.raises(ValueError, match="uint64"):
            probe_words_batch(np.zeros((3, 2), dtype=np.uint32), np.array([[1]]))

    @staticmethod
    def per_bit_reference(planes, positions):
        """Bit ``p`` of a row is bit ``p % 64`` of its word ``p // 64``, taken
        with Python integers; several planes are the OR of their words."""
        rows = np.bitwise_or.reduce(np.stack(planes)).tolist()
        verdict = [
            [all(row[p // 64] >> (p % 64) & 1 for p in probes) for row in rows]
            for probes in positions.tolist()
        ]
        return np.array(verdict, dtype=bool).reshape(len(positions), len(rows))

    plane_stacks = st.tuples(
        st.integers(min_value=1, max_value=3),   # planes
        st.integers(min_value=0, max_value=5),   # rows
        st.integers(min_value=1, max_value=3),   # words per row
    ).flatmap(
        lambda shape: st.lists(
            st.integers(min_value=0, max_value=(1 << 64) - 1),
            min_size=shape[0] * shape[1] * shape[2],
            max_size=shape[0] * shape[1] * shape[2],
        ).map(lambda values: np.array(values, dtype=np.uint64).reshape(shape))
    )

    @given(
        plane_stacks,
        st.integers(min_value=0, max_value=7),
        st.integers(min_value=0, max_value=4),
        st.data(),
    )
    def test_matches_per_bit_reference(self, stack, num_queries, eta, data):
        """Single planes and plane tuples, any eta including 0."""
        num_bits = stack.shape[2] * 64
        positions = np.array(
            data.draw(
                st.lists(
                    st.lists(st.integers(0, num_bits - 1), min_size=eta, max_size=eta),
                    min_size=num_queries,
                    max_size=num_queries,
                )
            ),
            dtype=np.int64,
        ).reshape(num_queries, eta)
        planes = list(stack)
        expected = self.per_bit_reference(planes, positions)
        assert np.array_equal(probe_words_batch(tuple(planes), positions), expected)
        assert np.array_equal(probe_words_batch(planes, positions), expected)
        single = self.per_bit_reference(planes[:1], positions)
        assert np.array_equal(probe_words_batch(planes[0], positions), single)

    @pytest.mark.parametrize("planes", [1, 2])
    def test_out_of_range_positions_rejected(self, planes):
        words = np.full((2, 2), (1 << 64) - 1, dtype=np.uint64)
        payload = words if planes == 1 else (words, words)
        for position in (-1, 128, 1 << 40):
            with pytest.raises(IndexError):
                probe_words_batch(payload, np.array([[5, position]], dtype=np.int64))
        # The last addressable bit is fine.
        assert probe_words_batch(payload, np.array([[5, 127]], dtype=np.int64)).all()

    def test_big_endian_byte_index(self, monkeypatch):
        """On a big-endian host the same words lie byte-mirrored in memory
        and the kernel mirrors its byte index (XOR 7).  A byteswapped copy
        *is* that memory image, so the flipped kernel must read it right."""
        import repro.bloom.bitarray as bitarray_module

        rng = np.random.default_rng(11)
        words = rng.integers(0, 1 << 63, size=(4, 3), dtype=np.uint64) << np.uint64(1)
        words |= rng.integers(0, 2, size=(4, 3), dtype=np.uint64)
        positions = rng.integers(0, 192, size=(40, 2))
        expected = probe_words_batch(words, positions)
        assert np.array_equal(expected, self.per_bit_reference([words], positions))
        assert expected.any() and not expected.all()
        flip = bitarray_module._BYTE_FLIP  # noqa: SLF001
        monkeypatch.setattr(bitarray_module, "_BYTE_FLIP", flip ^ 7)
        mirrored = words.byteswap()
        assert np.array_equal(probe_words_batch(mirrored, positions), expected)
        assert np.array_equal(probe_words_batch((mirrored, mirrored), positions), expected)


class TestSerialisation:
    @given(sizes, st.data())
    def test_bytes_round_trip(self, size, data):
        arr = BitArray.from_indices(size, data.draw(index_sets(size)))
        restored = BitArray.from_bytes(size, arr.to_bytes())
        assert restored == arr

    def test_nbytes_matches_word_count(self):
        arr = BitArray(130)  # needs 3 words of 64 bits
        assert arr.nbytes == 3 * 8

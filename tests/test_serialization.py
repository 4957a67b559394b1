"""Tests for index persistence (save_index / load_index)."""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro.core.distributed import DistributedRambo, stack_shards
from repro.core.folding import fold_rambo
from repro.core.rambo import Rambo, RamboConfig
from repro.core.serialization import load_index, open_index, save_index
from repro.kmers.extraction import KmerDocument


def sample_terms(dataset, per_doc=5, extra=("absent-1", "absent-2")):
    terms = []
    for doc in dataset.documents:
        terms.extend(sorted(doc.terms)[:per_doc])
    terms.extend(extra)
    return terms


class TestPinnedBytes:
    """Both containers are the index's planes byte for byte; the digests
    are what the code before the one-layout change wrote for this index."""

    PINNED = {
        ("built", "v1"): "301526686fc0fb992607d690e03fc395a342c2ab4e7baba11c8609e51689f3be",
        ("built", "mmap"): "a327db7daa0d3e85d689d403cf298ee99d0b76510c53f81d522442450e06b1eb",
        ("folded", "v1"): "117d0e9a229d6fac735d178f26e4f0666a3948b0c934d039c5f7723139d64372",
        ("folded", "mmap"): "a99747fe3119de725ab665b4eb21b0bcd03c697fcb77a423f23fc91ace5b5ab2",
    }

    def test_written_files_have_the_pinned_sha256(self, tmp_path):
        config = RamboConfig(
            num_partitions=6, repetitions=3, bfu_bits=1000, bfu_hashes=2, k=11, seed=42
        )
        index = Rambo(config)
        index.add_documents(
            [KmerDocument(f"doc{i}", np.arange(i * 7, i * 7 + 40, dtype=np.uint64)) for i in range(9)]
        )
        index.add_document(KmerDocument("words", frozenset({"alpha", "beta"})))
        for (label, fmt), digest in self.PINNED.items():
            path = tmp_path / f"{label}.{fmt}"
            save_index(index if label == "built" else index.fold(), path, format=fmt)
            assert hashlib.sha256(path.read_bytes()).hexdigest() == digest, (label, fmt)
            # ... and a file loaded back writes the same bytes again.
            save_index(open_index(path), tmp_path / "again", format=fmt)
            assert (tmp_path / "again").read_bytes() == path.read_bytes()


class TestRoundTrip:
    def test_answers_identical_after_round_trip(self, built_rambo, small_dataset, tmp_path):
        path = tmp_path / "index.rambo"
        written = save_index(built_rambo, path)
        assert written == path.stat().st_size
        restored = load_index(path)

        assert restored.document_names == built_rambo.document_names
        assert restored.num_partitions == built_rambo.num_partitions
        assert restored.repetitions == built_rambo.repetitions
        for term in sample_terms(small_dataset):
            assert restored.query_term(term).documents == built_rambo.query_term(term).documents

    def test_bfu_bits_identical(self, built_rambo, tmp_path):
        path = tmp_path / "index.rambo"
        save_index(built_rambo, path)
        restored = load_index(path)
        for r in range(built_rambo.repetitions):
            for b in range(built_rambo.num_partitions):
                assert restored.bfu(r, b).bits == built_rambo.bfu(r, b).bits

    def test_size_accounting_preserved(self, built_rambo, tmp_path):
        path = tmp_path / "index.rambo"
        save_index(built_rambo, path)
        restored = load_index(path)
        assert restored.size_in_bytes() == built_rambo.size_in_bytes()

    def test_insertion_after_load(self, built_rambo, tmp_path):
        path = tmp_path / "index.rambo"
        save_index(built_rambo, path)
        restored = load_index(path)
        restored.add_document(KmerDocument(name="post-load", terms=frozenset({"brand-new"})))
        assert "post-load" in restored.query_term("brand-new").documents

    def test_folded_index_round_trip(self, built_rambo, small_dataset, tmp_path):
        folded = fold_rambo(built_rambo, 1)
        path = tmp_path / "folded.rambo"
        save_index(folded, path)
        restored = load_index(path)
        assert restored.num_partitions == folded.num_partitions
        for term in sample_terms(small_dataset, per_doc=3):
            assert restored.query_term(term).documents == folded.query_term(term).documents

    def test_stacked_index_round_trip(self, small_dataset, tmp_path):
        node_config = RamboConfig(
            num_partitions=4, repetitions=2, bfu_bits=1 << 12, k=small_dataset.k, seed=3
        )
        distributed = DistributedRambo(num_nodes=2, node_config=node_config)
        distributed.add_documents(small_dataset.documents)
        stacked = stack_shards(distributed)
        path = tmp_path / "stacked.rambo"
        save_index(stacked, path)
        restored = load_index(path)
        for term in sample_terms(small_dataset, per_doc=3):
            assert restored.query_term(term).documents == stacked.query_term(term).documents

    def test_empty_index_round_trip(self, small_rambo_config, tmp_path):
        index = Rambo(small_rambo_config)
        path = tmp_path / "empty.rambo"
        save_index(index, path)
        restored = load_index(path)
        assert restored.num_documents == 0
        assert restored.query_term("anything").documents == frozenset()


class TestCorruptionHandling:
    def _write_valid(self, built_rambo, tmp_path):
        path = tmp_path / "index.rambo"
        save_index(built_rambo, path)
        return path

    def test_bad_magic_rejected(self, built_rambo, tmp_path):
        path = self._write_valid(built_rambo, tmp_path)
        payload = bytearray(path.read_bytes())
        payload[0:6] = b"NOTRAM"
        path.write_bytes(bytes(payload))
        with pytest.raises(ValueError, match="magic"):
            load_index(path)

    def test_truncated_payload_rejected(self, built_rambo, tmp_path):
        path = self._write_valid(built_rambo, tmp_path)
        payload = path.read_bytes()
        path.write_bytes(payload[: len(payload) - 100])
        with pytest.raises(ValueError, match="truncated"):
            load_index(path)

    def test_trailing_garbage_rejected(self, built_rambo, tmp_path):
        path = self._write_valid(built_rambo, tmp_path)
        with open(path, "ab") as handle:
            handle.write(b"extra")
        with pytest.raises(ValueError, match="trailing"):
            load_index(path)

    def test_corrupt_header_rejected(self, built_rambo, tmp_path):
        path = self._write_valid(built_rambo, tmp_path)
        payload = bytearray(path.read_bytes())
        # Overwrite a byte inside the JSON header region.
        payload[20] = 0xFF
        path.write_bytes(bytes(payload))
        with pytest.raises(ValueError):
            load_index(path)
        # A damaged header-length field is a format error, not a MemoryError.
        payload[7:15] = (2**62).to_bytes(8, "little")
        path.write_bytes(bytes(payload))
        with pytest.raises(ValueError, match="header extends past EOF"):
            load_index(path)
        with pytest.raises(ValueError, match="header extends past EOF"):
            open_index(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_index(tmp_path / "does-not-exist.rambo")

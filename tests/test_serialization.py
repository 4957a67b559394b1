"""Tests for index persistence (save_index / open_index)."""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.distributed import DistributedRambo, stack_shards
from repro.core.folding import fold_rambo
from repro.core.rambo import Rambo, RamboConfig
from repro.core.serialization import open_index, save_index
from repro.kmers.extraction import KmerDocument

#: Two v1 (``RAMBO1``) files written by the retired v1 writer for
#: :func:`pinned_indexes`; the only v1 bytes the suite reads.
V1_FIXTURES = {
    "built": Path(__file__).parent / "data" / "pinned-built.v1.rambo",
    "folded": Path(__file__).parent / "data" / "pinned-folded.v1.rambo",
}


def sample_terms(dataset, per_doc=5, extra=("absent-1", "absent-2")):
    terms = []
    for doc in dataset.documents:
        terms.extend(sorted(doc.terms)[:per_doc])
    terms.extend(extra)
    return terms


def pinned_indexes():
    """The index the pinned digests and the v1 fixtures were written for,
    and its fold."""
    config = RamboConfig(
        num_partitions=6, repetitions=3, bfu_bits=1000, bfu_hashes=2, k=11, seed=42
    )
    index = Rambo(config)
    index.add_documents(
        [KmerDocument(f"doc{i}", np.arange(i * 7, i * 7 + 40, dtype=np.uint64)) for i in range(9)]
    )
    index.add_document(KmerDocument("words", frozenset({"alpha", "beta"})))
    return {"built": index, "folded": index.fold()}


class TestPinnedBytes:
    """The container is the index's planes byte for byte; the digests are
    what the code before the one-layout change wrote for this index."""

    MMAP = {
        "built": "a327db7daa0d3e85d689d403cf298ee99d0b76510c53f81d522442450e06b1eb",
        "folded": "a99747fe3119de725ab665b4eb21b0bcd03c697fcb77a423f23fc91ace5b5ab2",
    }
    V1 = {
        "built": "301526686fc0fb992607d690e03fc395a342c2ab4e7baba11c8609e51689f3be",
        "folded": "117d0e9a229d6fac735d178f26e4f0666a3948b0c934d039c5f7723139d64372",
    }

    def test_written_files_have_the_pinned_sha256(self, tmp_path):
        for label, index in pinned_indexes().items():
            path = tmp_path / f"{label}.rambo2"
            save_index(index, path)
            assert hashlib.sha256(path.read_bytes()).hexdigest() == self.MMAP[label], label
            # ... and a file opened back writes the same bytes again.
            save_index(open_index(path), tmp_path / "again")
            assert (tmp_path / "again").read_bytes() == path.read_bytes()

    def test_v1_fixtures_have_the_pinned_sha256(self):
        for label, path in V1_FIXTURES.items():
            assert hashlib.sha256(path.read_bytes()).hexdigest() == self.V1[label], label

    def test_v1_fixtures_answer_like_the_index(self):
        terms = [np.uint64(t) for t in range(0, 110)] + ["alpha", "beta", "absent"]
        for label, index in pinned_indexes().items():
            opened = open_index(V1_FIXTURES[label])
            assert opened.document_names == index.document_names, label
            assert opened.assignments == index.assignments, label
            assert np.array_equal(np.stack(opened.planes), np.stack(index.planes)), label
            assert [
                (r.documents, r.filters_probed) for r in opened.query_terms_batch(terms)
            ] == [(r.documents, r.filters_probed) for r in index.query_terms_batch(terms)], label

    def test_v1_fixture_resaved_is_the_pinned_mmap_file(self, tmp_path):
        for label, path in V1_FIXTURES.items():
            resaved = tmp_path / f"{label}.rambo2"
            save_index(open_index(path), resaved)
            assert hashlib.sha256(resaved.read_bytes()).hexdigest() == self.MMAP[label], label


class TestRoundTrip:
    def test_answers_identical_after_round_trip(self, built_rambo, small_dataset, tmp_path):
        path = tmp_path / "index.rambo"
        written = save_index(built_rambo, path)
        assert written == path.stat().st_size
        restored = open_index(path)

        assert restored.document_names == built_rambo.document_names
        assert restored.num_partitions == built_rambo.num_partitions
        assert restored.repetitions == built_rambo.repetitions
        for term in sample_terms(small_dataset):
            assert restored.query_term(term).documents == built_rambo.query_term(term).documents

    def test_bfu_bits_identical(self, built_rambo, tmp_path):
        path = tmp_path / "index.rambo"
        save_index(built_rambo, path)
        restored = open_index(path)
        for r in range(built_rambo.repetitions):
            for b in range(built_rambo.num_partitions):
                assert restored.bfu(r, b).bits == built_rambo.bfu(r, b).bits

    def test_size_accounting_preserved(self, built_rambo, tmp_path):
        path = tmp_path / "index.rambo"
        save_index(built_rambo, path)
        restored = open_index(path)
        assert restored.size_in_bytes() == built_rambo.size_in_bytes()

    def test_insertion_after_load(self, built_rambo, tmp_path):
        path = tmp_path / "index.rambo"
        save_index(built_rambo, path)
        restored = open_index(path, mode="c")
        restored.add_document(KmerDocument(name="post-load", terms=frozenset({"brand-new"})))
        assert "post-load" in restored.query_term("brand-new").documents

    def test_insertion_after_opening_a_v1_file(self):
        """A v1 file is read into memory, so it opens writable."""
        restored = open_index(V1_FIXTURES["built"])
        assert not restored.is_mapped and not restored.readonly
        restored.add_document(KmerDocument(name="post-load", terms=frozenset({"brand-new"})))
        assert "post-load" in restored.query_term("brand-new").documents

    def test_folded_index_round_trip(self, built_rambo, small_dataset, tmp_path):
        folded = fold_rambo(built_rambo, 1)
        path = tmp_path / "folded.rambo"
        save_index(folded, path)
        restored = open_index(path)
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
        restored = open_index(path)
        for term in sample_terms(small_dataset, per_doc=3):
            assert restored.query_term(term).documents == stacked.query_term(term).documents

    def test_empty_index_round_trip(self, small_rambo_config, tmp_path):
        index = Rambo(small_rambo_config)
        path = tmp_path / "empty.rambo"
        save_index(index, path)
        restored = open_index(path)
        assert restored.num_documents == 0
        assert restored.query_term("anything").documents == frozenset()


def _v1_bytes(edit_header=None) -> bytes:
    """The built v1 fixture's bytes, with its JSON header passed through
    *edit_header* (which mutates the parsed dict) and re-framed."""
    raw = V1_FIXTURES["built"].read_bytes()
    if edit_header is None:
        return raw
    length = int.from_bytes(raw[7:15], "little")
    header = json.loads(raw[15 : 15 + length])
    edit_header(header)
    encoded = json.dumps(header, separators=(",", ":")).encode("utf-8")
    return raw[:7] + len(encoded).to_bytes(8, "little") + encoded + raw[15 + length :]


class TestCorruptionHandling:
    """Every v1 read check, exercised on damaged copies of a v1 fixture."""

    def _write(self, tmp_path, payload: bytes):
        path = tmp_path / "index.rambo"
        path.write_bytes(payload)
        return path

    def test_bad_magic_rejected(self, tmp_path):
        payload = bytearray(_v1_bytes())
        payload[0:6] = b"NOTRAM"
        path = self._write(tmp_path, bytes(payload))
        with pytest.raises(ValueError, match="magic"):
            open_index(path)

    def test_truncated_payload_rejected(self, tmp_path):
        payload = _v1_bytes()
        path = self._write(tmp_path, payload[: len(payload) - 100])
        with pytest.raises(ValueError, match="truncated"):
            open_index(path)

    def test_trailing_garbage_rejected(self, tmp_path):
        path = self._write(tmp_path, _v1_bytes() + b"extra")
        with pytest.raises(ValueError, match="trailing"):
            open_index(path)

    def test_corrupt_header_rejected(self, tmp_path):
        payload = bytearray(_v1_bytes())
        # Overwrite a byte inside the JSON header region.
        payload[20] = 0xFF
        path = self._write(tmp_path, bytes(payload))
        with pytest.raises(ValueError, match="corrupt header"):
            open_index(path)
        # A damaged header-length field is a format error, not a MemoryError.
        payload[7:15] = (2**62).to_bytes(8, "little")
        path.write_bytes(bytes(payload))
        with pytest.raises(ValueError, match="header extends past EOF"):
            open_index(path)

    def test_unsupported_version_rejected(self, tmp_path):
        path = self._write(tmp_path, _v1_bytes(lambda h: h.update(format_version=7)))
        with pytest.raises(ValueError, match="unsupported format version 7"):
            open_index(path)

    def test_inconsistent_assignment_tables_rejected(self, tmp_path):
        path = self._write(tmp_path, _v1_bytes(lambda h: h["assignments"].pop()))
        with pytest.raises(ValueError, match="inconsistent assignment tables"):
            open_index(path)

    def test_out_of_range_assignment_rejected(self, tmp_path):
        def edit(header):
            header["assignments"][0][0] = 99

        path = self._write(tmp_path, _v1_bytes(edit))
        with pytest.raises(ValueError, match="out-of-range partition assignment 99"):
            open_index(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            open_index(tmp_path / "does-not-exist.rambo")

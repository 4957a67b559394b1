"""Tests for the memory-mapped on-disk container (format v2).

Covers the tentpole guarantees: zero-copy round-trips that answer queries
bit-identically to the in-memory index, clean rejection of malformed files
(truncation, trailing data, corrupt headers, version mismatches), the
read-only mutation guard and its copy-on-write escape hatch, and the
save → open_index → fold pipeline the fold CLI relies on.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.baselines.cobs import CobsIndex
from repro.bloom.bitarray import BitArray
from repro.core.distributed import DistributedRambo
from repro.core.rambo import Rambo, RamboConfig
from repro.core.serialization import open_index, save_index
from repro.io.diskformat import (
    MAGIC_V2,
    DiskFormatError,
    detect_format,
    write_container,
)
from repro.kmers.extraction import KmerDocument

#: A file of the retired v1 container (see tests/test_serialization.py).
V1_FIXTURE = Path(__file__).parent / "data" / "pinned-built.v1.rambo"


def sample_terms(dataset, per_doc=5, extra=("absent-1", "absent-2")):
    terms = []
    for doc in dataset.documents:
        terms.extend(sorted(doc.terms)[:per_doc])
    terms.extend(extra)
    return terms


@pytest.fixture()
def mmap_path(built_rambo, tmp_path):
    path = tmp_path / "index.rambo2"
    save_index(built_rambo, path)
    return path


class TestMmapRoundTrip:
    def test_save_writes_only_the_mmap_container(self, built_rambo, tmp_path):
        path = tmp_path / "a.rambo2"
        save_index(built_rambo, path)
        assert detect_format(path) == "mmap"
        assert detect_format(V1_FIXTURE) == "v1"
        with pytest.raises(ValueError, match="v1 files still open through open_index"):
            save_index(built_rambo, tmp_path / "x", format="v1")
        with pytest.raises(ValueError, match="unknown index format"):
            save_index(built_rambo, tmp_path / "x", format="pickle")
        assert not (tmp_path / "x").exists()

    def test_mapped_queries_bit_identical(self, built_rambo, small_dataset, mmap_path):
        mapped = open_index(mmap_path)
        assert mapped.is_mapped and mapped.readonly
        assert mapped.document_names == built_rambo.document_names
        terms = sample_terms(small_dataset)
        for method in ("full", "sparse"):
            expected = built_rambo.query_terms_batch(terms, method=method)
            observed = mapped.query_terms_batch(terms, method=method)
            for want, got in zip(expected, observed):
                assert np.array_equal(want.doc_ids, got.doc_ids)
                assert want.filters_probed == got.filters_probed
        # Scalar and conjunctive paths flow through the same mapped cache.
        for term in terms[:6]:
            assert mapped.query_term(term) == built_rambo.query_term(term)
        assert mapped.query_terms(terms[:8]) == built_rambo.query_terms(terms[:8])

    def test_payload_served_from_readonly_views(self, built_rambo, mmap_path):
        mapped = open_index(mmap_path)
        bits = mapped.bfu(0, 0).bits
        assert not bits.writeable
        assert bits == built_rambo.bfu(0, 0).bits
        assert mapped.size_in_bytes() == built_rambo.size_in_bytes()

    def test_open_index_autodetects_both_formats(self, mmap_path):
        v1 = open_index(V1_FIXTURE)
        assert not v1.is_mapped and not v1.readonly
        assert open_index(mmap_path).is_mapped

    def test_empty_index_round_trip(self, small_rambo_config, tmp_path):
        index = Rambo(small_rambo_config)
        path = tmp_path / "empty.rambo2"
        save_index(index, path)
        restored = open_index(path)
        assert restored.num_documents == 0
        assert restored.query_term("anything").documents == frozenset()

    def test_fold_after_open_mmap(self, built_rambo, small_dataset, mmap_path):
        """save -> open_index -> fold materialises a writable folded index."""
        folded_mapped = open_index(mmap_path).fold()
        folded_memory = built_rambo.fold()
        assert not folded_mapped.is_mapped and not folded_mapped.readonly
        for term in sample_terms(small_dataset, per_doc=3):
            assert (
                folded_mapped.query_term(term).documents
                == folded_memory.query_term(term).documents
            )
        # The fold is a real copy: it accepts new documents.
        folded_mapped.add_document(
            KmerDocument(name="post-fold", terms=frozenset({"brand-new"}))
        )
        assert "post-fold" in folded_mapped.query_term("brand-new").documents


class TestMutationGuard:
    def test_add_document_raises_cleanly(self, mmap_path):
        mapped = open_index(mmap_path)
        with pytest.raises(ValueError, match="read-only"):
            mapped.add_document(KmerDocument(name="n", terms=frozenset({"t"})))
        # The failed insert must not have touched the bookkeeping.
        assert "n" not in mapped.document_names

    def test_readonly_error_points_at_copy_on_write(self, mmap_path):
        with pytest.raises(ValueError, match=r"open_index\(path, mode='c'\)"):
            open_index(mmap_path).add_documents([KmerDocument(name="n", terms=frozenset({"t"}))])

    def test_bitarray_mutation_raises_cleanly(self, mmap_path):
        bits = open_index(mmap_path).bfu(0, 0).bits
        with pytest.raises(ValueError, match="read-only"):
            bits.set(0)
        with pytest.raises(ValueError, match="read-only"):
            bits.set_many(np.array([1, 2], dtype=np.int64))
        with pytest.raises(ValueError, match="read-only"):
            bits |= bits.copy()
        assert bits.copy().writeable  # the escape hatch stays writable

    def test_copy_on_write_mode(self, built_rambo, mmap_path):
        before = mmap_path.read_bytes()
        cow = open_index(mmap_path, mode="c")
        assert cow.is_mapped and not cow.readonly
        cow.add_document(KmerDocument(name="scratch", terms=frozenset({"cow-term"})))
        assert "scratch" in cow.query_term("cow-term").documents
        # Copy-on-write mutations never reach the file.
        assert mmap_path.read_bytes() == before
        assert "scratch" not in open_index(mmap_path).document_names

    def test_bad_mode_rejected(self, mmap_path):
        with pytest.raises(ValueError, match="mode"):
            open_index(mmap_path, mode="w")


class TestCorruptionHandling:
    def test_truncated_payload_rejected(self, mmap_path):
        payload = mmap_path.read_bytes()
        mmap_path.write_bytes(payload[:-100])
        with pytest.raises(DiskFormatError, match="truncated"):
            open_index(mmap_path)

    def test_truncated_header_rejected(self, mmap_path):
        mmap_path.write_bytes(mmap_path.read_bytes()[:20])
        with pytest.raises(DiskFormatError, match="truncated"):
            open_index(mmap_path)

    def test_trailing_garbage_rejected(self, mmap_path):
        with open(mmap_path, "ab") as handle:
            handle.write(b"extra")
        with pytest.raises(DiskFormatError, match="trailing"):
            open_index(mmap_path)

    def test_corrupt_header_rejected(self, mmap_path):
        payload = bytearray(mmap_path.read_bytes())
        payload[20] = 0xFF
        mmap_path.write_bytes(bytes(payload))
        with pytest.raises(DiskFormatError):
            open_index(mmap_path)

    def test_bad_magic_rejected(self, mmap_path):
        payload = bytearray(mmap_path.read_bytes())
        payload[0:6] = b"NOTRAM"
        mmap_path.write_bytes(bytes(payload))
        with pytest.raises(DiskFormatError, match="magic"):
            open_index(mmap_path)
        with pytest.raises(DiskFormatError, match="magic"):
            detect_format(mmap_path)

    def test_version_mismatch_rejected(self, tmp_path):
        path = tmp_path / "future.rambo2"
        write_container(
            path,
            {"format_version": 3, "kind": "rambo"},
            np.zeros((1, 1), dtype=np.uint64),
        )
        with pytest.raises(DiskFormatError, match="unsupported format version 3"):
            open_index(path)

    def test_payload_parts_must_share_one_shape(self, tmp_path):
        parts = [np.zeros((2, 3), dtype=np.uint64), np.zeros((2, 4), dtype=np.uint64)]
        with pytest.raises(DiskFormatError, match="disagree on shape"):
            write_container(tmp_path / "ragged.rambo2", {"kind": "rambo"}, parts)

    def test_kind_mismatch_rejected(self, built_rambo, tmp_path):
        rambo_path = tmp_path / "d.rambo2"
        save_index(built_rambo, rambo_path)
        with pytest.raises(DiskFormatError, match="not a COBS index"):
            CobsIndex.open_mmap(rambo_path)
        cobs = CobsIndex(num_bits=256, num_hashes=2)
        cobs_path = tmp_path / "d.cobs2"
        cobs.save_mmap(cobs_path)
        with pytest.raises(DiskFormatError, match="not a RAMBO index"):
            open_index(cobs_path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            open_index(tmp_path / "does-not-exist.rambo2")


class TestCobsMmap:
    @pytest.fixture()
    def built_cobs(self, small_dataset):
        index = CobsIndex(num_bits=1 << 14, num_hashes=3, k=small_dataset.k, seed=7)
        for doc in small_dataset.documents:
            index.add_document(doc)
        return index

    def test_mapped_queries_bit_identical(self, built_cobs, small_dataset, tmp_path):
        path = tmp_path / "cobs.rambo2"
        built_cobs.save_mmap(path)
        mapped = CobsIndex.open_mmap(path)
        assert mapped.document_names == built_cobs.document_names
        terms = sample_terms(small_dataset)
        expected = built_cobs.query_terms_batch(terms)
        observed = mapped.query_terms_batch(terms)
        for want, got in zip(expected, observed):
            assert np.array_equal(want.doc_ids, got.doc_ids)
            assert want.filters_probed == got.filters_probed
        for term in terms[:6]:
            assert mapped.query_term(term) == built_cobs.query_term(term)
        assert abs(mapped.fill_ratio() - built_cobs.fill_ratio()) < 1e-12

    def test_mapped_cobs_rejects_inserts(self, built_cobs, tmp_path):
        path = tmp_path / "cobs.rambo2"
        built_cobs.save_mmap(path)
        mapped = CobsIndex.open_mmap(path)
        with pytest.raises(ValueError, match="read-only"):
            mapped.add_document(KmerDocument(name="n", terms=frozenset({"t"})))

    def test_mapped_cobs_resave_round_trips(self, built_cobs, small_dataset, tmp_path):
        """A mapped COBS index can be re-saved straight from its mapping."""
        first = tmp_path / "cobs-a.rambo2"
        second = tmp_path / "cobs-b.rambo2"
        built_cobs.save_mmap(first)
        CobsIndex.open_mmap(first).save_mmap(second)
        assert second.read_bytes() == first.read_bytes()
        reopened = CobsIndex.open_mmap(second)
        for term in sample_terms(small_dataset, per_doc=2):
            assert reopened.query_term(term) == built_cobs.query_term(term)

    def test_empty_cobs_round_trip(self, tmp_path):
        index = CobsIndex(num_bits=128, num_hashes=2)
        path = tmp_path / "empty.cobs2"
        index.save_mmap(path)
        restored = CobsIndex.open_mmap(path)
        assert restored.num_documents == 0
        assert restored.query_term("anything").documents == frozenset()


class TestDistributedMmap:
    @pytest.fixture()
    def built_cluster(self, small_dataset):
        node_config = RamboConfig(
            num_partitions=4, repetitions=2, bfu_bits=1 << 12, k=small_dataset.k, seed=3
        )
        cluster = DistributedRambo(num_nodes=3, node_config=node_config)
        cluster.add_documents(small_dataset.documents)
        return cluster

    def test_shard_files_round_trip(self, built_cluster, small_dataset, tmp_path):
        directory = tmp_path / "cluster"
        built_cluster.save_mmap(directory)
        assert (directory / "manifest.json").exists()
        assert sorted(p.name for p in directory.glob("shard-*.rambo")) == [
            f"shard-{n:04d}.rambo" for n in range(3)
        ]
        mapped = DistributedRambo.open_mmap(directory)
        assert mapped.readonly
        assert mapped.document_names == built_cluster.document_names
        terms = sample_terms(small_dataset)
        for method in ("full", "sparse"):
            expected = built_cluster.query_terms_batch(terms, method=method)
            observed = mapped.query_terms_batch(terms, method=method)
            for want, got in zip(expected, observed):
                assert np.array_equal(want.doc_ids, got.doc_ids)
                assert want.filters_probed == got.filters_probed

    def test_mapped_cluster_rejects_inserts_and_cow_accepts(
        self, built_cluster, tmp_path
    ):
        directory = tmp_path / "cluster"
        built_cluster.save_mmap(directory)
        mapped = DistributedRambo.open_mmap(directory)
        with pytest.raises(ValueError, match="read-only"):
            mapped.add_documents([KmerDocument(name="n", terms=frozenset({"t"}))])
        cow = DistributedRambo.open_mmap(directory, mode="c")
        cow.add_documents([KmerDocument(name="n", terms=frozenset({"t"}))])
        assert "n" in cow.query_term("t").documents

    def test_manifest_kind_checked(self, built_cluster, tmp_path):
        directory = tmp_path / "cluster"
        built_cluster.save_mmap(directory)
        manifest = json.loads((directory / "manifest.json").read_text())
        manifest["kind"] = "something-else"
        (directory / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="distributed RAMBO"):
            DistributedRambo.open_mmap(directory)


class TestBitArrayReadonly:
    def test_wrapping_readonly_words(self):
        words = np.zeros(2, dtype=np.uint64)
        words.setflags(write=False)
        bits = BitArray(128, words)
        assert not bits.writeable
        with pytest.raises(ValueError, match="read-only"):
            bits.clear(0)
        assert bits.get(0) is False  # reads still work
        writable = bits.copy()
        writable.set(5)
        assert writable.get(5)

"""Streaming ingest: WAL format, delta overlay identity, engine crash-consistency.

The heart of this file is one claim, asserted three ways with increasing
generality:

    At every instant — after any interleaving of appends, crashes
    (torn WAL tails), restarts and compactions — the served answers are
    bit-identical (documents AND probe counts) to a from-scratch build
    of exactly the acknowledged documents.

1. ``TestDeltaOverlayIdentity`` proves the query-view half on random
   base/delta splits, including deliberately saturated filters where the
   naive OR-of-results construction would diverge.
2. ``TestIngestEngine`` proves the durability half on targeted crash
   scenarios (torn tails, duplicate replay, restart onto a compacted
   generation).
3. ``IngestConsistencyMachine`` lets Hypothesis drive arbitrary
   interleavings of all of the above and re-checks the identity after
   every single rule.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import os
import shutil
import struct
import tempfile
import threading
import time
import tracemalloc
import types
import zlib
from contextlib import ExitStack
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from hypothesis_profiles import tier
from repro.core.parallel import merge_indexes
from repro.core.rambo import Rambo, RamboConfig
from repro.core.serialization import save_index
from repro.ingest import DeltaOverlayIndex, IngestEngine
from repro.ingest import engine as engine_module
from repro.io import walformat
from repro.io.walformat import (
    CHECKSUM_MISMATCH,
    SegmentedWalWriter,
    WalFormatError,
    decode_document,
    encode_document,
    iter_frames,
    replay_wal_generation,
    truncate_torn_generation,
    validate_document,
    wal_segment_name,
)
from repro.kmers.extraction import KmerDocument
from repro.serve.client import ServeClient, ServeClientError
from repro.serve.http import start_http_server
from repro.serve.service import QueryService

CONFIG = RamboConfig(num_partitions=4, repetitions=3, bfu_bits=1 << 10, k=9, seed=11)

#: Small enough that BFUs saturate and false positives are common — the
#: regime where a results-level OR of base and delta answers would diverge
#: from the true combined index (mixed-bit false positives).
TINY_CONFIG = RamboConfig(num_partitions=3, repetitions=2, bfu_bits=256, k=9, seed=11)

TERM_UNIVERSE = 64


def make_doc(name: str, terms) -> KmerDocument:
    return KmerDocument(name, np.asarray(sorted(set(terms)), dtype=np.uint64))


def _wait_for(predicate, timeout: float = 10.0) -> bool:
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() >= deadline:
            return False
        time.sleep(0.005)
    return True


def build_reference(config: RamboConfig, documents) -> Rambo:
    index = Rambo(config)
    if documents:
        index.add_documents(list(documents))
    return index


def fingerprint(index: Rambo, terms, method: str):
    """(documents, filters_probed) per term — the full observable answer."""
    return [
        (sorted(result.documents), result.filters_probed)
        for result in index.query_terms_batch(list(terms), method=method)
    ]


def assert_identical(served: Rambo, reference: Rambo, terms) -> None:
    """Served answers must be *bit-identical* to the reference on every path."""
    for method in ("full", "sparse"):
        assert fingerprint(served, terms, method) == fingerprint(reference, terms, method)
    probe = [term for term in terms if reference.query_term(term).documents][:3]
    if probe:
        got = served.query_terms(probe)
        want = reference.query_terms(probe)
        assert sorted(got.documents) == sorted(want.documents)
        assert got.filters_probed == want.filters_probed


# -- strategies ------------------------------------------------------------------------

term_sets = st.lists(
    st.integers(min_value=0, max_value=TERM_UNIVERSE - 1), min_size=1, max_size=10
)
doc_collections = st.lists(term_sets, min_size=1, max_size=12)


class FailingHandle:
    """A file handle whose writes fail after *fail_after* successful ones."""

    def __init__(self, real, fail_after):
        self._real = real
        self._writes_left = fail_after

    def write(self, data):
        if self._writes_left <= 0:
            raise OSError("disk error injected by test")
        self._writes_left -= 1
        return self._real.write(data)

    def __getattr__(self, name):
        return getattr(self._real, name)


class TestWalFormat:
    def test_document_roundtrip_codes(self):
        doc = make_doc("sample", [3, 9, 4, 9, 2**40])
        back = decode_document(encode_document(doc))
        assert back.name == doc.name
        assert np.array_equal(back.term_codes(), doc.term_codes())

    def test_document_roundtrip_string_terms(self):
        doc = KmerDocument("textdoc", frozenset({"alpha", "beta"}))
        back = decode_document(encode_document(doc))
        assert back.name == "textdoc"
        assert back.terms == doc.terms

    def test_document_roundtrip_mixed_term_types(self):
        """Mixed int/str term sets (the HTTP /append normaliser produces
        them) must frame via the JSON form, not die sorting int vs str."""
        doc = KmerDocument(
            "mixed", frozenset({123, "word", np.uint64(7), "aaa"}), source_format="text"
        )
        back = decode_document(encode_document(doc))
        assert back.terms == frozenset({123, "word", 7, "aaa"})

    def test_unencodable_term_type_rejected(self):
        doc = KmerDocument("bad", frozenset({1.5}), source_format="text")
        with pytest.raises(WalFormatError, match="not WAL-encodable"):
            encode_document(doc)
        with pytest.raises(WalFormatError, match="not WAL-encodable"):
            validate_document(doc)
        validate_document(KmerDocument("ok", frozenset({1, "x"})))

    @tier("determinism")
    @given(
        docs=doc_collections,
        cut=st.integers(min_value=0, max_value=1 << 16),
        flip=st.none() | st.integers(min_value=0, max_value=1 << 16),
    )
    def test_iter_frames_yields_the_intact_prefix_and_says_why_it_stopped(self, docs, cut, flip):
        """Any run of frames, cut at any byte, with any one byte flipped: the
        one frame walker behaves as WAL replay, the primary's committed read
        and the standby's stream parser each need it to."""
        payloads = [encode_document(make_doc(f"d{i}", terms)) for i, terms in enumerate(docs)]
        framed = [struct.pack("<II", len(p), zlib.crc32(p)) + p for p in payloads]
        buffer = bytearray(b"".join(framed)[: cut % (sum(map(len, framed)) + 1)])
        flipped = None
        if flip is not None and buffer:
            flipped = flip % len(buffer)
            buffer[flipped] ^= 0xFF
        # The frames wholly inside the buffer, up to the one holding the flip.
        intact, start = [], 0
        for frame in framed:
            end = start + len(frame)
            if end > len(buffer) or (flipped is not None and start <= flipped < end):
                break
            intact.append((start + 8, end))
            start = end
        frames = iter_frames(bytes(buffer))
        extents = list(frames)
        # Replay: exactly the intact prefix decodes; nothing after damage is yielded.
        assert extents == intact and frames.end == start
        assert [decode_document(bytes(buffer[a:b])).name for a, b in extents] == [
            f"d{i}" for i in range(len(intact))
        ]
        assert list(frames) == []  # exhausted for good, even past a bad frame
        # Committed read: a clean buffer ends on a frame boundary, with no reason.
        assert (frames.torn_reason is None) == (start == len(buffer))
        # Stream parser: a frame merely cut short is a tail to keep (more bytes
        # will complete it); a flipped payload or checksum byte is damage.
        if flipped is None and start < len(buffer):
            assert frames.torn_reason in ("short record prefix", "record payload extends past EOF")
        if flipped is not None and start <= flipped < start + len(framed[len(intact)]):
            if start + len(framed[len(intact)]) <= len(buffer) and flipped >= start + 4:
                assert frames.torn_reason == CHECKSUM_MISMATCH

    def test_failed_append_leaves_no_bytes_behind(self, tmp_path):
        """An unencodable document anywhere in a batch must abort the append
        before ANY record bytes are buffered — otherwise the next successful
        append's fsync would commit records for unacknowledged documents."""
        bad = KmerDocument("n" * 0x10000, np.asarray([1], dtype=np.uint64))
        with SegmentedWalWriter(tmp_path, CONFIG, 0) as writer:
            writer.append([make_doc("acked", [1, 2])])
            size_before = writer.size_bytes
            with pytest.raises(WalFormatError, match="name too long"):
                writer.append([make_doc("good", [3]), bad])
            assert writer.size_bytes == size_before
            assert writer.records_appended == 1
            writer.append([make_doc("after", [4])])
        replay = replay_wal_generation(tmp_path, 0, CONFIG)
        assert [d.name for d in replay.documents] == ["acked", "after"]
        assert replay.torn_bytes == 0

    def test_write_failure_mid_batch_rolls_the_segment_back(self, tmp_path):
        """An OS-level write failure mid-batch truncates back to the last
        committed record instead of leaving orphaned bytes in the buffer."""
        with SegmentedWalWriter(tmp_path, CONFIG, 0) as writer:
            writer.append([make_doc("acked", [1, 2])])
            size_before = writer.size_bytes
            real_handle = writer._handle  # noqa: SLF001
            writer._handle = FailingHandle(real_handle, fail_after=3)  # noqa: SLF001
            with pytest.raises(OSError, match="disk error"):
                writer.append([make_doc("b0", [3]), make_doc("b1", [4])])
            writer._handle = real_handle  # noqa: SLF001
            assert writer.size_bytes == size_before
            assert (tmp_path / wal_segment_name(0)).stat().st_size == size_before
            writer.append([make_doc("after", [5])])
        replay = replay_wal_generation(tmp_path, 0, CONFIG)
        assert [d.name for d in replay.documents] == ["acked", "after"]
        assert replay.torn_bytes == 0

    def test_a_failed_batch_keeps_the_buffered_batches_before_it(self, tmp_path):
        """The rollback cuts back to the failed batch's start, not to the
        last commit: group-commit records buffered before it still commit."""
        bad = KmerDocument("n" * 0x10000, np.asarray([1], dtype=np.uint64))
        with SegmentedWalWriter(tmp_path, CONFIG, 0) as writer:
            writer.append([make_doc("acked", [1])])
            writer.append([make_doc("buffered", [2])], sync=False)
            size_before = writer.size_bytes
            with pytest.raises(WalFormatError, match="name too long"):
                writer.append([bad], sync=False)
            real_handle = writer._handle  # noqa: SLF001
            writer._handle = FailingHandle(real_handle, fail_after=0)  # noqa: SLF001
            with pytest.raises(OSError, match="disk error"):
                writer.append([make_doc("failed", [3])], sync=False)
            writer._handle = real_handle  # noqa: SLF001
            assert writer.size_bytes == size_before
            assert writer.total_records == 2 and writer.committed_records == 1
            assert writer.sync() == 2
        replay = replay_wal_generation(tmp_path, 0, CONFIG)
        assert [d.name for d in replay.documents] == ["acked", "buffered"]
        assert replay.torn_bytes == 0

    def test_a_failed_commit_or_rollback_poisons_the_writer(self, tmp_path, monkeypatch):
        """A group commit whose fsync fails, or a failed batch whose rollback
        fsync fails too, closes the handle: no later append can commit."""
        real_fsync = os.fsync

        def failing_fsync(fd):
            raise OSError("fsync error injected by test")

        for name in ("commit", "rollback"):
            (tmp_path / name).mkdir()
        with SegmentedWalWriter(tmp_path / "commit", CONFIG, 0) as writer:
            writer.append([make_doc("acked", [1])])
            writer.append([make_doc("buffered", [2])], sync=False)
            monkeypatch.setattr(os, "fsync", failing_fsync)
            with pytest.raises(OSError, match="fsync error"):
                writer.sync()
            monkeypatch.setattr(os, "fsync", real_fsync)
            with pytest.raises(ValueError):
                writer.append([make_doc("later", [3])])
            assert writer.committed_records == 1
        with SegmentedWalWriter(tmp_path / "rollback", CONFIG, 0) as writer:
            writer.append([make_doc("acked", [1])])
            monkeypatch.setattr(os, "fsync", failing_fsync)
            with pytest.raises(OSError, match="fsync error"):
                writer.append([make_doc("failed", [2])])  # commit, then rollback fail
            monkeypatch.setattr(os, "fsync", real_fsync)
            with pytest.raises(ValueError):
                writer.append([make_doc("later", [3])])
        replay = replay_wal_generation(tmp_path / "rollback", 0, CONFIG)
        assert [d.name for d in replay.documents] == ["acked"]

    def test_writer_then_replay(self, tmp_path):
        docs = [make_doc(f"d{i}", [i, i + 1, i + 7]) for i in range(5)]
        with SegmentedWalWriter(tmp_path, CONFIG, 0) as writer:
            writer.append(docs[:2])
            writer.append(docs[2:])
            assert writer.records_appended == 5
        replay = replay_wal_generation(tmp_path, 0, CONFIG)
        assert replay.records == 5
        assert replay.torn_bytes == 0 and replay.torn_reason is None
        assert replay.generation == 0
        assert [d.name for d in replay.documents] == [d.name for d in docs]
        assert replay.header["kind"] == "rambo-wal"
        assert replay.segments[-1].committed_bytes == (tmp_path / wal_segment_name(0)).stat().st_size

    def test_header_pins_config(self, tmp_path):
        SegmentedWalWriter(tmp_path, CONFIG, 0).close()
        other = RamboConfig(num_partitions=8, repetitions=2, bfu_bits=1 << 10, k=9, seed=99)
        with pytest.raises(WalFormatError, match="cannot replay against"):
            replay_wal_generation(tmp_path, 0, other)

    def test_reopen_validates_generation_and_config(self, tmp_path):
        SegmentedWalWriter(tmp_path, CONFIG, 2).close()
        # Matching reopen appends after the existing content.
        with SegmentedWalWriter(tmp_path, CONFIG, 2) as writer:
            writer.append([make_doc("x", [1])])
        assert replay_wal_generation(tmp_path, 2).records == 1
        other = RamboConfig(num_partitions=8, repetitions=2, bfu_bits=1 << 10, k=9, seed=99)
        with pytest.raises(WalFormatError, match="another index generation"):
            SegmentedWalWriter(tmp_path, other, 2)
        # A generation-2 segment under generation 3's name.
        shutil.copy(tmp_path / wal_segment_name(2), tmp_path / wal_segment_name(3))
        with pytest.raises(WalFormatError, match="another index generation"):
            SegmentedWalWriter(tmp_path, CONFIG, 3)

    def test_bad_magic_raises(self, tmp_path):
        (tmp_path / wal_segment_name(0)).write_bytes(b"NOTAWAL\n" + b"\x00" * 32)
        with pytest.raises(WalFormatError, match="bad magic"):
            replay_wal_generation(tmp_path, 0)
        with pytest.raises(WalFormatError, match="bad magic"):
            SegmentedWalWriter(tmp_path, CONFIG, 0)
        # A damaged header-length field is a format error, not a 4 EiB read.
        SegmentedWalWriter(tmp_path, CONFIG, 1).close()
        damaged_path = tmp_path / wal_segment_name(1)
        damaged = bytearray(damaged_path.read_bytes())
        damaged[8:16] = (2**62).to_bytes(8, "little")
        damaged_path.write_bytes(bytes(damaged))
        with pytest.raises(WalFormatError, match="truncated inside the segment header"):
            replay_wal_generation(tmp_path, 1)

    @pytest.mark.parametrize(
        "damage, message",
        [
            ("prelude", "truncated inside the segment prelude"),
            ("version", "unsupported WAL version 2"),
            ("no-generation", "missing config/generation"),
            ("not-an-object", "header is not a JSON object"),
            ("generation", "pins generation 1 but is replayed as generation 0"),
            ("sealed-torn", "cannot tear a sealed segment"),
            ("segment", "pins segment index 2 but sits at position 1"),
            ("start-record", "pins start_record 5 but 1 records precede it"),
            ("no-base", "base segment wal-000000.log is missing"),
            ("gap", "is missing WAL segment wal-000000-0001.seg"),
        ],
    )
    def test_a_damaged_generation_is_refused(self, tmp_path, damage, message):
        """Damage a crash cannot cause — anywhere but the last segment's
        tail — raises instead of replaying a silently shorter log."""
        # Just above the 192-byte header: one record per segment.
        with SegmentedWalWriter(tmp_path, CONFIG, 0, segment_bytes=200) as writer:
            for i in range(3):
                writer.append([make_doc(f"d{i}", [i])])
            assert writer.segment_count == 3
        base, first, second = (tmp_path / wal_segment_name(0, s) for s in range(3))

        def rewrite_header(path, **changes):
            data = path.read_bytes()
            length = int.from_bytes(data[8:16], "little")
            header = {**json.loads(data[16 : 16 + length]), **changes}
            raw = json.dumps({k: v for k, v in header.items() if v is not None}).encode()
            path.write_bytes(data[:8] + len(raw).to_bytes(8, "little") + raw + data[16 + length :])

        if damage == "prelude":
            second.write_bytes(second.read_bytes()[:12])
        elif damage == "version":
            rewrite_header(first, format_version=2)
        elif damage == "no-generation":
            rewrite_header(first, generation=None)
        elif damage == "not-an-object":
            data = first.read_bytes()
            length = int.from_bytes(data[8:16], "little")
            first.write_bytes(data[:8] + (3).to_bytes(8, "little") + b"[1]" + data[16 + length :])
        elif damage == "generation":
            rewrite_header(first, generation=1)
        elif damage == "sealed-torn":
            first.write_bytes(first.read_bytes()[:-1])
        elif damage == "segment":
            rewrite_header(first, segment=2)
        elif damage == "start-record":
            rewrite_header(first, start_record=5)
        elif damage == "no-base":
            base.unlink()
        else:
            first.unlink()
        with pytest.raises(WalFormatError, match=message):
            replay_wal_generation(tmp_path, 0, CONFIG)

    @given(cut=st.integers(min_value=1, max_value=10_000))
    @tier("standard")
    def test_torn_tail_at_any_byte_keeps_the_acked_prefix(self, cut):
        """Cutting anywhere inside the last record loses exactly that record."""
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / wal_segment_name(0)
            acked = [make_doc(f"d{i}", [i, i + 3]) for i in range(3)]
            unacked = make_doc("torn", [40, 41, 42])
            with SegmentedWalWriter(tmp, CONFIG, 0) as writer:
                writer.append(acked)
                intact = writer.size_bytes
                writer.append([unacked])
                full = writer.size_bytes
            # Truncate to a strict prefix of the final (un-acked) record.
            keep = intact + cut % (full - intact)
            with open(path, "r+b") as handle:
                handle.truncate(keep)
            replay = replay_wal_generation(tmp, 0, CONFIG)
            assert [d.name for d in replay.documents] == ["d0", "d1", "d2"]
            assert replay.segments[-1].committed_bytes == intact
            assert replay.torn_bytes == keep - intact
            if replay.torn_bytes:
                assert replay.torn_reason is not None
            dropped = truncate_torn_generation(replay)
            assert dropped == keep - intact
            assert path.stat().st_size == intact
            # Idempotent: a second replay is clean and truncation is a no-op.
            again = replay_wal_generation(tmp, 0)
            assert again.torn_bytes == 0 and again.records == 3
            assert truncate_torn_generation(again) == 0

    def test_checksum_damage_ends_replay_at_the_damage(self, tmp_path):
        with SegmentedWalWriter(tmp_path, CONFIG, 0) as writer:
            writer.append([make_doc("ok", [1, 2])])
            intact = writer.size_bytes
            writer.append([make_doc("bad", [3, 4])])
        path = tmp_path / wal_segment_name(0)
        data = bytearray(path.read_bytes())
        data[-1] ^= 0xFF  # flip a payload byte of the second record
        path.write_bytes(bytes(data))
        replay = replay_wal_generation(tmp_path, 0)
        assert [d.name for d in replay.documents] == ["ok"]
        assert replay.torn_reason == "payload checksum mismatch"
        assert replay.segments[-1].committed_bytes == intact

    def test_a_header_is_read_once_per_segment_and_never_read_back(self, tmp_path, monkeypatch):
        """Replay reads each segment's header once; the writer learns the data
        offset of a header it writes, so only validating a reopened one reads."""
        reads = []
        real_read_header = walformat._read_header  # noqa: SLF001

        def counting_read_header(handle, path):
            reads.append(Path(path).name)
            return real_read_header(handle, path)

        monkeypatch.setattr(walformat, "_read_header", counting_read_header)
        with SegmentedWalWriter(tmp_path, CONFIG, 0, segment_bytes=200) as writer:
            for i in range(3):
                writer.append([make_doc(f"d{i}", [i])])  # rolls twice
            assert writer.segment_count == 3
        assert reads == []
        replay = replay_wal_generation(tmp_path, 0, CONFIG)
        names = [wal_segment_name(0, s) for s in range(3)]
        assert reads == names
        del reads[:]
        with SegmentedWalWriter(
            tmp_path, CONFIG, 0, segment_bytes=200, segments=replay.segments
        ) as writer:
            writer.append([make_doc("after", [7])])  # rolls into a fourth segment
            assert writer.segment_count == 4
        assert reads == [names[-1]]

    def test_the_writer_counters_agree_with_a_replay_of_its_segments(self, tmp_path):
        """Every counter is derived from one list of segment extents: after
        rolls and a group commit it matches the files and their replay."""
        with SegmentedWalWriter(tmp_path, CONFIG, 1, segment_bytes=256) as writer:
            writer.append([make_doc(f"a{i}", range(i, i + 5)) for i in range(3)])
            writer.append([make_doc("b", [1, 2])])  # rolls first
            writer.append([make_doc("c", [3])], sync=False)
            writer.append([make_doc("d", [4])], sync=False)
            assert (writer.committed_records, writer.total_records) == (4, 6)
            buffered = writer.size_bytes
            writer.sync()
            assert writer.size_bytes == buffered
            infos = writer.segment_infos()
            infos[-1].records = 99  # a copy: the writer's extent is untouched
            assert writer.committed_records == writer.total_records == 6
            assert writer.records_appended == 6 and writer.sync_count == 6
            assert writer.path == infos[-1].path
            sizes = [(tmp_path / wal_segment_name(1, s)).stat().st_size for s in range(2)]
            assert writer.size_bytes == sum(sizes)
            extents = [
                (i.segment, i.start_record, i.records, i.committed_bytes, i.data_offset)
                for i in writer.segment_infos()
            ]
        replay = replay_wal_generation(tmp_path, 1, CONFIG)
        assert extents == [
            (i.segment, i.start_record, i.records, i.committed_bytes, i.data_offset)
            for i in replay.segments
        ]
        assert [committed for _, _, _, committed, _ in extents] == sizes
        assert replay.records == 6 and len(extents) == writer.segment_count

    @pytest.mark.parametrize("sync", [True, False])
    def test_a_bound_below_the_header_never_leaves_a_segment_empty(self, tmp_path, sync):
        """A segment rolls only once it holds a record, committed or still
        buffered: with the bound below the ~192-byte header, each segment
        still takes one batch."""
        with SegmentedWalWriter(tmp_path, CONFIG, 0, segment_bytes=1) as writer:
            for i in range(3):
                writer.append([make_doc(f"d{i}", [i])], sync=sync)
            writer.sync()
            extents = [(info.segment, info.records) for info in writer.segment_infos()]
            # Three headers and two seals, plus three commits or one group commit.
            assert writer.sync_count == (9 if sync else 6)
        assert extents == [(0, 1), (1, 1), (2, 1)]
        replay = replay_wal_generation(tmp_path, 0, CONFIG)
        assert [d.name for d in replay.documents] == ["d0", "d1", "d2"]
        assert [(info.segment, info.records) for info in replay.segments] == extents


class TestPinnedWalBytes:
    """The WAL's bytes and fsyncs, pinned: the digests and the count are
    what the writer wrote for this scripted sequence before the
    single-file layer was folded into :class:`SegmentedWalWriter`."""

    PINNED = {
        "wal-000004.log": "c4abd1f2d886cbd87b09696e0b4fd9e1ed2b0602b2386cfaf001b180d07f3206",
        "wal-000004-0001.seg": "6a233ca519dc08ca69e4c2fb5bf1b217ff100ac5fd6f4a96b55ef45c9d9b9a45",
        "wal-000004-0002.seg": "27561464335963fcab70b1fdb9d42022056564198b6daeed80031dc7c4751e73",
    }
    #: Three segment headers and their directory entries (6), three batch
    #: commits (3), two seals on a roll (2), one group commit (1), and the
    #: one batch appended after the reopen (1).
    PINNED_FSYNCS = 13

    def test_segment_files_and_fsyncs_are_pinned(self, tmp_path, monkeypatch):
        real_fsync = os.fsync
        fsyncs = []

        def counting_fsync(fd):
            fsyncs.append(fd)
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", counting_fsync)
        codes = [make_doc(f"c{i}", range(i, i + 6)) for i in range(3)]
        words = KmerDocument("words", frozenset({"alpha", "beta", "gamma"}))
        mixed = KmerDocument("mixed", frozenset({7, "x", 3, "y"}))
        with SegmentedWalWriter(tmp_path, CONFIG, 4, segment_bytes=256) as writer:
            writer.append(codes)
            writer.append([words])  # the segment is past 256 bytes: rolls first
            writer.append([mixed])
            writer.append([make_doc("g0", [1, 2])], sync=False)  # rolls again
            writer.append([make_doc("g1", [3])], sync=False)
            assert writer.committed_records == 5 and writer.total_records == 7
            assert writer.sync() == 7
            counters = (writer.records_appended, writer.sync_count, writer.segment_count)
        replay = replay_wal_generation(tmp_path, 4, CONFIG)
        assert [d.name for d in replay.documents] == ["c0", "c1", "c2", "words", "mixed", "g0", "g1"]
        assert truncate_torn_generation(replay) == 0
        with SegmentedWalWriter(
            tmp_path, CONFIG, 4, segment_bytes=256, segments=replay.segments
        ) as writer:
            writer.append([make_doc("after", [9, 10, 11])])
            reopened = (writer.records_appended, writer.committed_records, writer.size_bytes)
        digests = {
            path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(tmp_path.iterdir())
        }
        assert digests == self.PINNED
        assert counters == (7, 9, 3)
        assert reopened == (1, 8, 950)
        assert [
            (info.segment, info.start_record, info.records, info.committed_bytes, info.data_offset)
            for info in replay.segments
        ] == [(0, 0, 3, 387, 192), (1, 3, 2, 269, 192), (2, 5, 2, 250, 192)]
        assert len(fsyncs) == self.PINNED_FSYNCS


class TestDeltaOverlayIdentity:
    """Overlay answers == from-scratch build of base-then-delta, always."""

    @given(docs=doc_collections, split=st.integers(min_value=0, max_value=100))
    @tier("standard")
    def test_bit_identical_to_rebuild(self, docs, split):
        documents = [make_doc(f"d{i}", terms) for i, terms in enumerate(docs)]
        cut = split % len(documents)  # delta gets at least one document
        base = build_reference(TINY_CONFIG, documents[:cut])
        delta = build_reference(TINY_CONFIG, documents[cut:])
        overlay = DeltaOverlayIndex(base, delta)
        reference = build_reference(TINY_CONFIG, documents)
        assert overlay.num_documents == reference.num_documents
        assert overlay.num_delta_documents == len(documents) - cut
        assert_identical(overlay, reference, range(TERM_UNIVERSE))
        # The bookkeeping no query reads is derived on first use — to the
        # rebuild's values.
        assert overlay.document_names == reference.document_names
        assert all(name in overlay for name in reference.document_names)
        assert "never-indexed" not in overlay
        for r in range(TINY_CONFIG.repetitions):
            for b in range(TINY_CONFIG.num_partitions):
                assert overlay.partition_members(r, b) == reference.partition_members(r, b)

    def test_mixed_bit_false_positives_are_reproduced(self):
        """The saturated regime: the overlay must reproduce even the combined
        index's *false* positives — answers diverging from a results-level
        OR of the two halves are precisely what bit-identity means."""
        rng = np.random.default_rng(0)
        documents = [
            make_doc(f"d{i}", rng.integers(0, 4096, size=30)) for i in range(24)
        ]
        base = build_reference(TINY_CONFIG, documents[:12])
        delta = build_reference(TINY_CONFIG, documents[12:])
        overlay = DeltaOverlayIndex(base, delta)
        reference = build_reference(TINY_CONFIG, documents)
        terms = list(range(0, 4096, 7))
        assert_identical(overlay, reference, terms)
        # Sanity: this regime actually exercises combined-filter hits that
        # neither half reports alone (otherwise the test proves nothing).
        combined = {
            term
            for term, result in zip(
                terms, reference.query_terms_batch(terms, method="full")
            )
            for _ in result.documents
        }
        assert combined, "term universe never hit the index; broken test setup"

    def test_overlay_is_a_frozen_snapshot_of_the_delta(self):
        base = build_reference(CONFIG, [make_doc("b0", [1, 2, 3])])
        delta = build_reference(CONFIG, [make_doc("n0", [10, 11])])
        overlay = DeltaOverlayIndex(base, delta)
        before = fingerprint(overlay, range(TERM_UNIVERSE), "full")
        delta.add_documents([make_doc("n1", [12, 13])])  # mutate AFTER capture
        assert fingerprint(overlay, range(TERM_UNIVERSE), "full") == before
        assert overlay.num_documents == 2

    def test_overlay_copies_a_delta_over_writable_planes(self):
        """A merged index's BFUs are row views of its planes, so stacking
        them aliases live memory: the two-argument form must copy."""
        base = build_reference(CONFIG, [make_doc("b0", [1, 2, 3])])
        delta = merge_indexes((build_reference(CONFIG, [make_doc("n0", [10, 11])]),))
        assert not delta.is_mapped and not delta.readonly
        overlay = DeltaOverlayIndex(base, delta)
        before = fingerprint(overlay, range(TERM_UNIVERSE), "full")
        delta.add_documents([make_doc("n1", [12, 13])])
        assert fingerprint(overlay, range(TERM_UNIVERSE), "full") == before
        reference = build_reference(
            CONFIG,
            [make_doc("b0", [1, 2, 3]), make_doc("n0", [10, 11]), make_doc("n1", [12, 13])],
        )
        assert_identical(DeltaOverlayIndex(base, delta), reference, range(TERM_UNIVERSE))

    def test_overlay_rejects_mutation(self):
        base = build_reference(CONFIG, [make_doc("b0", [1])])
        delta = build_reference(CONFIG, [make_doc("n0", [2])])
        overlay = DeltaOverlayIndex(base, delta)
        assert overlay.readonly
        with pytest.raises(ValueError, match="IngestEngine"):
            overlay.add_documents([make_doc("z", [3])])
        with pytest.raises(ValueError, match="compact"):
            overlay.fold()
        with pytest.raises(ValueError):
            save_index(overlay, "/dev/null")
        with pytest.raises(ValueError):
            overlay.bfu(0, 0)

    def test_overlay_rejects_mismatched_parts(self):
        base = build_reference(CONFIG, [make_doc("b0", [1])])
        other = RamboConfig(num_partitions=8, repetitions=3, bfu_bits=1 << 10, k=9, seed=11)
        with pytest.raises(ValueError, match="config"):
            DeltaOverlayIndex(base, build_reference(other, [make_doc("n0", [2])]))
        with pytest.raises(ValueError, match="re-indexes"):
            DeltaOverlayIndex(base, build_reference(CONFIG, [make_doc("b0", [2])]))

    def test_overlay_accounting(self):
        base = build_reference(CONFIG, [make_doc("b0", [1, 2])])
        delta = build_reference(CONFIG, [make_doc("n0", [3, 4])])
        overlay = DeltaOverlayIndex(base, delta)
        components = overlay.size_components()
        assert components["bfus"] == (
            base.size_components()["bfus"] + delta.size_components()["bfus"]
        )
        assert overlay.size_in_bytes() == sum(components.values())
        ratios = overlay.fill_ratios()
        assert len(ratios) == CONFIG.repetitions
        assert all(0.0 <= ratio <= 1.0 for row in ratios for ratio in row)
        assert "delta_documents=1" in repr(overlay)


@pytest.fixture()
def ingest_stack(tmp_path):
    """A served mmap base plus an engine over a WAL dir; yields a handle."""

    class Stack:
        def __init__(self):
            self.base_docs = [make_doc(f"base{i}", [i, i + 1, i + 2]) for i in range(6)]
            base = build_reference(CONFIG, self.base_docs)
            self.base_path = tmp_path / "base.rambo2"
            save_index(base, self.base_path)
            self.wal_dir = tmp_path / "wal"
            self.service = None
            self.engine = None
            self.start()

        def start(self, **engine_kwargs):
            self.service = QueryService.open(self.base_path, tick_seconds=0.0)
            self.engine = IngestEngine(self.service, self.wal_dir, **engine_kwargs)
            self.service.attach_ingest(self.engine)
            return self.engine

        def stop(self):
            if self.service is not None:
                self.service.close()  # closes the attached engine too
            self.service = self.engine = None

        def restart(self, **engine_kwargs):
            self.stop()
            return self.start(**engine_kwargs)

        def served_index(self) -> Rambo:
            return self.service.snapshots.active.index

    stack = Stack()
    yield stack
    stack.stop()


class TestIngestEngine:
    def test_append_is_queryable_and_identical(self, ingest_stack):
        docs = [make_doc(f"n{i}", [20 + i, 30 + i]) for i in range(4)]
        result = ingest_stack.engine.append(docs)
        assert result.appended == 4 and result.delta_documents == 4
        assert result.wal_bytes > 0
        reference = build_reference(CONFIG, ingest_stack.base_docs + docs)
        assert_identical(ingest_stack.served_index(), reference, range(TERM_UNIVERSE))

    def test_append_validates_before_writing(self, ingest_stack):
        engine = ingest_stack.engine
        wal_before = engine.stats()["wal"]["bytes"]
        with pytest.raises(ValueError, match="already indexed"):
            engine.append([make_doc("base0", [1])])
        with pytest.raises(ValueError, match="already indexed"):
            engine.append([make_doc("dup", [1]), make_doc("dup", [2])])
        # A rejected batch must leave no trace: no WAL bytes, no delta docs.
        assert engine.stats()["wal"]["bytes"] == wal_before
        assert engine.delta_documents == 0
        assert engine.append([]).appended == 0

    def test_append_rejects_unencodable_documents_before_writing(self, ingest_stack):
        """A document the WAL cannot frame — mid-batch — rejects the whole
        batch with ValueError and leaves zero bytes and zero delta docs."""
        engine = ingest_stack.engine
        wal_before = engine.stats()["wal"]["bytes"]
        long_name = KmerDocument("n" * 0x10000, np.asarray([1], dtype=np.uint64))
        with pytest.raises(ValueError, match="name too long"):
            engine.append([make_doc("good", [33]), long_name])
        with pytest.raises(ValueError, match="not WAL-encodable"):
            engine.append([KmerDocument("badterm", frozenset({1.5}))])
        assert engine.stats()["wal"]["bytes"] == wal_before
        assert engine.delta_documents == 0
        # An append can be retried cleanly after a rejection, and recovery
        # replays only acknowledged batches.
        engine.append([make_doc("good", [33])])
        engine = ingest_stack.restart()
        assert engine.stats()["wal"]["replayed_documents"] == 1
        reference = build_reference(
            CONFIG, ingest_stack.base_docs + [make_doc("good", [33])]
        )
        assert_identical(ingest_stack.served_index(), reference, range(TERM_UNIVERSE))

    def test_mixed_term_documents_survive_append_and_recovery(self, ingest_stack):
        """Int/str-mixed term sets are legal across the stack; the WAL must
        store and replay them, not 500 on an int-vs-str sort."""
        mixed = KmerDocument("mixed", frozenset({45, "word"}), source_format="text")
        ingest_stack.engine.append([mixed])
        reference = build_reference(CONFIG, ingest_stack.base_docs + [mixed])
        assert_identical(ingest_stack.served_index(), reference, range(TERM_UNIVERSE))
        engine = ingest_stack.restart()
        assert engine.stats()["wal"]["replayed_documents"] == 1
        assert_identical(ingest_stack.served_index(), reference, range(TERM_UNIVERSE))
        assert sorted(ingest_stack.served_index().query_term("word").documents) == sorted(
            reference.query_term("word").documents
        )

    def test_recovery_replays_acknowledged_appends(self, ingest_stack):
        docs = [make_doc(f"n{i}", [40 + i]) for i in range(3)]
        ingest_stack.engine.append(docs)
        engine = ingest_stack.restart()
        assert engine.stats()["wal"]["replayed_documents"] == 3
        reference = build_reference(CONFIG, ingest_stack.base_docs + docs)
        assert_identical(ingest_stack.served_index(), reference, range(TERM_UNIVERSE))

    def test_recovery_truncates_a_torn_tail(self, ingest_stack):
        docs = [make_doc("n0", [50, 51])]
        ingest_stack.engine.append(docs)
        wal_path = Path(ingest_stack.engine.stats()["wal"]["path"])
        ingest_stack.stop()
        # A crash mid-append: a strict prefix of an un-acked record.
        payload = encode_document(make_doc("torn", [60, 61]))
        framed = struct.pack("<II", len(payload), zlib.crc32(payload)) + payload
        with open(wal_path, "ab") as handle:
            handle.write(framed[: len(framed) - 4])
        engine = ingest_stack.start()
        stats = engine.stats()["wal"]
        assert stats["replayed_documents"] == 1
        assert stats["torn_bytes_truncated"] == len(framed) - 4
        reference = build_reference(CONFIG, ingest_stack.base_docs + docs)
        assert_identical(ingest_stack.served_index(), reference, range(TERM_UNIVERSE))
        # The WAL is clean again: appending after recovery works.
        engine.append([make_doc("after", [70])])

    def test_recovery_skips_documents_already_in_the_base(self, ingest_stack):
        """At-least-once replay: a WAL record that also made it into the base
        (the crash-during-compaction window) must not double-index."""
        ingest_stack.stop()
        with SegmentedWalWriter(ingest_stack.wal_dir, CONFIG, 0) as writer:
            writer.append([make_doc("base0", [0, 1, 2]), make_doc("fresh", [55])])
        engine = ingest_stack.start()
        stats = engine.stats()["wal"]
        assert stats["replayed_documents"] == 1
        assert stats["replay_skipped"] == 1
        reference = build_reference(
            CONFIG, ingest_stack.base_docs + [make_doc("fresh", [55])]
        )
        assert_identical(ingest_stack.served_index(), reference, range(TERM_UNIVERSE))

    def test_recovery_dedupes_duplicate_names_inside_the_wal(self, ingest_stack):
        """A name recorded twice in one segment (a client retrying a batch
        whose ack was lost) must recover — first record wins — instead of
        add_documents raising and wedging startup forever."""
        ingest_stack.stop()
        with SegmentedWalWriter(ingest_stack.wal_dir, CONFIG, 0) as writer:
            writer.append([make_doc("fresh", [55, 56]), make_doc("other", [57])])
            writer.append([make_doc("fresh", [55, 56])])  # the retried batch
        engine = ingest_stack.start()
        stats = engine.stats()["wal"]
        assert stats["replayed_documents"] == 2
        assert stats["replay_skipped"] == 1
        reference = build_reference(
            CONFIG,
            ingest_stack.base_docs
            + [make_doc("fresh", [55, 56]), make_doc("other", [57])],
        )
        assert_identical(ingest_stack.served_index(), reference, range(TERM_UNIVERSE))

    def test_replay_against_wrong_config_fails_loudly(self, ingest_stack):
        ingest_stack.stop()
        other = RamboConfig(num_partitions=8, repetitions=2, bfu_bits=1 << 10, k=9, seed=3)
        (ingest_stack.wal_dir / "wal-000000.log").unlink()
        with SegmentedWalWriter(ingest_stack.wal_dir, other, 0) as writer:
            writer.append([make_doc("x", [1])])
        with pytest.raises(WalFormatError):
            ingest_stack.start()
        ingest_stack.service.close()
        (ingest_stack.wal_dir / "wal-000000.log").unlink()

    def test_compaction_folds_rotates_and_truncates(self, ingest_stack):
        engine = ingest_stack.engine
        docs = [make_doc(f"n{i}", [15 + i]) for i in range(5)]
        engine.append(docs)
        record = engine.compact()
        assert record["documents_folded"] == 5
        assert engine.compact() is None  # empty delta: nothing to do
        assert engine.delta_documents == 0
        assert engine.generation == 1
        served = ingest_stack.served_index()
        assert served.is_mapped and served.num_documents == 11
        # The old generation's WAL is gone; the new segment starts empty.
        assert not (ingest_stack.wal_dir / "wal-000000.log").exists()
        assert replay_wal_generation(ingest_stack.wal_dir, 1).records == 0
        reference = build_reference(CONFIG, ingest_stack.base_docs + docs)
        assert_identical(served, reference, range(TERM_UNIVERSE))

    def test_restart_recovers_the_compacted_generation(self, ingest_stack):
        first = [make_doc(f"n{i}", [15 + i]) for i in range(3)]
        second = [make_doc(f"m{i}", [25 + i]) for i in range(2)]
        ingest_stack.engine.append(first)
        ingest_stack.engine.compact()
        ingest_stack.engine.append(second)
        engine = ingest_stack.restart()
        assert engine.generation == 1
        assert engine.stats()["wal"]["replayed_documents"] == 2
        reference = build_reference(CONFIG, ingest_stack.base_docs + first + second)
        assert_identical(ingest_stack.served_index(), reference, range(TERM_UNIVERSE))

    def test_orphan_generation_files_are_pruned_on_recovery(self, ingest_stack):
        """Crash debris from an unfinished compaction (files of a generation
        the manifest never committed) disappears on restart."""
        ingest_stack.engine.append([make_doc("n0", [33])])
        ingest_stack.stop()
        orphan_snap = ingest_stack.wal_dir / "snapshot-000001.rambo2"
        orphan_wal = ingest_stack.wal_dir / "wal-000001.log"
        orphan_tmp = ingest_stack.wal_dir / "snapshot-000001.tmp"
        orphan_snap.write_bytes(b"half-written snapshot")
        orphan_tmp.write_bytes(b"partial")
        SegmentedWalWriter(ingest_stack.wal_dir, CONFIG, 1).close()
        ingest_stack.start()
        assert not orphan_snap.exists()
        assert not orphan_wal.exists()
        assert not orphan_tmp.exists()
        reference = build_reference(
            CONFIG, ingest_stack.base_docs + [make_doc("n0", [33])]
        )
        assert_identical(ingest_stack.served_index(), reference, range(TERM_UNIVERSE))

    def test_background_compactor_fires_at_threshold(self, ingest_stack):
        engine = ingest_stack.restart(auto_compact_docs=3)
        engine.append([make_doc(f"a{i}", [i]) for i in range(2)])
        assert engine.compactions == 0  # below threshold
        engine.append([make_doc(f"b{i}", [i + 8]) for i in range(2)])
        deadline = time.monotonic() + 10.0
        while engine.compactions == 0 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert engine.compactions == 1
        assert engine.delta_documents == 0
        assert engine.stats()["compaction"]["auto_after_docs"] == 3
        assert engine.stats()["compaction"]["background_errors"] is None

    def test_queries_remain_consistent_across_a_swap(self, ingest_stack):
        """A lease taken before an append answers against its own snapshot."""
        service = ingest_stack.service
        with service.snapshots.lease() as leased:
            before = fingerprint(leased.index, range(TERM_UNIVERSE), "full")
            ingest_stack.engine.append([make_doc("mid", [1, 2, 3])])
            # The leased snapshot still answers exactly as before the append.
            assert fingerprint(leased.index, range(TERM_UNIVERSE), "full") == before
        assert service.query_direct([1], method="full").snapshot_id > leased.snapshot_id

    def test_service_stats_embed_ingest_counters(self, ingest_stack):
        ingest_stack.engine.append([make_doc("n0", [5])])
        record = ingest_stack.service.stats()
        assert record["ingest"]["delta"]["documents"] == 1
        assert record["ingest"]["appends"] == {"batches": 1, "documents": 1}
        assert record["ingest"]["generation"] == 0


class TestPublishCost:
    """An append's publish touches the rows of its documents, not the delta."""

    #: 2 x 16 BFUs of 128 KiB: a 4 MiB delta, small enough to build per test.
    BIG = RamboConfig(num_partitions=16, repetitions=2, bfu_bits=1 << 20, k=9, seed=11)

    @pytest.fixture()
    def big_stack(self, tmp_path):
        base_docs = [make_doc("base0", [1, 2, 3])]
        save_index(build_reference(self.BIG, base_docs), tmp_path / "base.rambo2")
        with QueryService.open(tmp_path / "base.rambo2", tick_seconds=0.0) as service:
            engine = IngestEngine(service, tmp_path / "wal", fsync=False)
            service.attach_ingest(engine)
            yield service, engine, base_docs

    @staticmethod
    def served_delta_planes(service):
        return [delta for _base, delta in service.snapshots.active.index.planes]

    def test_publish_reuses_a_drained_plane_set(self, big_stack):
        service, engine, base_docs = big_stack
        docs = [make_doc(f"n{i}", [10 + i, 40 + i]) for i in range(5)]
        served = []
        for doc in docs:
            engine.append([doc])
            served.append(self.served_delta_planes(service))
        # Cold start and the publish after it each needed a full copy (the
        # first set was still being served); from then on the two alternate.
        for r in range(self.BIG.repetitions):
            assert not np.shares_memory(served[0][r], served[1][r])
            assert np.shares_memory(served[2][r], served[0][r])
            assert np.shares_memory(served[3][r], served[1][r])
            assert np.shares_memory(served[4][r], served[0][r])
            assert not served[4][r].flags.writeable
        reference = build_reference(self.BIG, base_docs + docs)
        assert_identical(service.snapshots.active.index, reference, range(TERM_UNIVERSE))
        # A compaction keeps the pool: both sets have drained after it, the
        # drained spare is kept, and the two publishes after it reuse them
        # (the one that waited longer first) instead of copying into new ones.
        engine.compact()
        after = [make_doc(f"m{i}", [20 + i, 50 + i]) for i in range(2)]
        for doc in after:
            engine.append([doc])
            served.append(self.served_delta_planes(service))
        for r in range(self.BIG.repetitions):
            assert np.shares_memory(served[5][r], served[1][r])
            assert np.shares_memory(served[6][r], served[0][r])
        delta = engine.stats()["delta"]
        assert delta["full_copies"] == 2 and delta["frozen_sets"] == 2
        reference = build_reference(self.BIG, base_docs + docs + after)
        assert_identical(service.snapshots.active.index, reference, range(TERM_UNIVERSE))

    def test_a_leased_overlay_keeps_its_planes_while_appends_go_on(self, big_stack):
        service, engine, base_docs = big_stack
        docs = [make_doc(f"n{i}", [10 + i, 40 + i]) for i in range(6)]
        engine.append(docs[:2])
        with service.snapshots.lease() as leased:
            planes = self.served_delta_planes(service)
            frozen = [plane.copy() for plane in planes]
            for doc in docs[2:]:
                engine.append([doc])  # none may land in the leased set
            for plane, copy in zip(planes, frozen):
                assert np.array_equal(plane, copy)
            assert_identical(
                leased.index,
                build_reference(self.BIG, base_docs + docs[:2]),
                range(TERM_UNIVERSE),
            )
        assert leased.drained and leased.index is None
        reference = build_reference(self.BIG, base_docs + docs)
        assert_identical(service.snapshots.active.index, reference, range(TERM_UNIVERSE))

    def test_a_lease_held_across_a_compaction_keeps_its_set_until_released(self, big_stack):
        """The last overlay of generation G, leased across ``compact()`` and
        two appends of G+1: ``reset()`` rewrites buffers in place, never the
        leased set; once released, G+1 reclaims that very set."""
        service, engine, base_docs = big_stack
        old = [make_doc(f"g{i}", [10 + i, 40 + i]) for i in range(3)]
        new = [make_doc(f"h{i}", [20 + i, 50 + i]) for i in range(3)]
        for doc in old:
            engine.append([doc])
        with service.snapshots.lease() as leased:
            planes = [delta for _base, delta in leased.index.planes]
            frozen = [plane.copy() for plane in planes]
            engine.compact()
            for doc in new[:2]:
                engine.append([doc])
            for plane, copy in zip(planes, frozen):
                assert np.array_equal(plane, copy)
            assert_identical(
                leased.index,
                build_reference(self.BIG, base_docs + old),
                range(TERM_UNIVERSE),
            )
        assert leased.drained
        engine.append([new[2]])
        for plane, served in zip(planes, self.served_delta_planes(service)):
            assert np.shares_memory(plane, served)
        reference = build_reference(self.BIG, base_docs + old + new)
        assert_identical(service.snapshots.active.index, reference, range(TERM_UNIVERSE))

    def test_one_append_allocates_far_less_than_the_delta(self, big_stack):
        """The deterministic guard against restacking the delta per append."""
        service, engine, _ = big_stack
        for i in range(3):  # warm-up: both plane sets exist
            engine.append([make_doc(f"w{i}", [i, i + 7])])
        assert sum(plane.nbytes for plane in self.served_delta_planes(service)) >= 4 << 20
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            engine.append([make_doc("measured", [50, 51, 52])])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - before < 1 << 20

    def test_a_warm_compaction_cycle_allocates_no_plane(self, big_stack):
        """Once one generation is warm, appends + ``compact()`` + appends
        rewrite the buffers they have — live planes, frozen sets, merge
        accumulator — and save without stacking: no plane-sized allocation
        (a cold cycle makes several 4 MiB plane sets)."""
        _, engine, _ = big_stack

        def cycle(tag):
            for i in range(3):
                engine.append([make_doc(f"{tag}a{i}", [i, i + 7])])
            engine.compact()
            for i in range(3):
                engine.append([make_doc(f"{tag}b{i}", [i + 20, i + 27])])

        cycle("warm")
        buffers = engine.stats()["delta"]["buffer_bytes"]
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            cycle("measured")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - before < 1 << 20
        assert engine.stats()["delta"]["buffer_bytes"] == buffers


class _Code(int):
    """An int the packed parse does not recognise (``type`` is not ``int``)."""


class TestAppendDocumentParsing:
    """``POST /append`` packs a plain-int term list in one numpy pass; every
    other shape — and every error — belongs to the per-term path."""

    TERM_LISTS = {
        "ints": [0, 1, 5, (1 << 63) + 17, (1 << 64) - 1, 5],
        "one-int": [77],
        "bools": [True, 7, False],
        "floats": [1.5, 2],
        "dna-words": ["ACGTACGTA", "TTTTTTTTT"],
        "str-among-ints": [4, "hello", 4],
        "none-among-ints": [4, None],
        "negative": [3, -5, 9],
        "minus-one": [-1],
        "too-wide": [3, 1 << 64],
        "widest": [(1 << 64) - 1],
        "negative-among-strs": [4, "hello", -1],
    }

    @staticmethod
    def outcome(terms):
        from repro.serve.http import ServeRequestHandler

        try:
            doc = ServeRequestHandler._parse_append_document(
                None, {"name": "d", "terms": terms}, CONFIG.k, False, 1
            )
        except ValueError as exc:  # anything else would be a 500 on POST /append
            return type(exc), str(exc)
        codes = doc.term_codes()
        return doc.name, doc.source_format, doc.terms, None if codes is None else codes.tolist()

    @pytest.mark.parametrize("name", sorted(TERM_LISTS))
    def test_packed_parse_equals_the_per_term_parse(self, name):
        terms = self.TERM_LISTS[name]
        per_term = [_Code(term) if type(term) is int else term for term in terms]
        assert self.outcome(terms) == self.outcome(per_term)

    def test_the_outcomes_are_the_documented_ones(self):
        assert self.outcome(self.TERM_LISTS["ints"])[3] == [0, 1, 5, (1 << 63) + 17, (1 << 64) - 1]
        assert self.outcome(self.TERM_LISTS["bools"])[3] == [0, 1, 7]
        assert self.outcome(self.TERM_LISTS["str-among-ints"])[1:3] == ("text", {4, "hello"})
        assert self.outcome(self.TERM_LISTS["floats"]) == (
            ValueError,
            "document 'd': terms must be integers or strings",
        )
        assert self.outcome(self.TERM_LISTS["widest"])[3] == [(1 << 64) - 1]
        # Out-of-range codes are a client error naming the offending term,
        # raised while parsing — before the engine or its WAL see the batch.
        for name, bad in (
            ("negative", -5),
            ("minus-one", -1),
            ("too-wide", 1 << 64),
            ("negative-among-strs", -1),
        ):
            kind, message = self.outcome(self.TERM_LISTS[name])
            assert kind is ValueError and f"term {bad!r} " in message


class TestIngestHTTP:
    @pytest.fixture()
    def ingest_server(self, ingest_stack):
        server, _thread = start_http_server(ingest_stack.service)
        port = server.server_address[1]
        client = ServeClient(f"http://127.0.0.1:{port}")
        yield client, port, ingest_stack
        server.shutdown()

    def test_append_bad_min_count_is_a_400(self, ingest_server):
        client, _, stack = ingest_server
        with pytest.raises(ServeClientError) as excinfo:
            client.append([{"name": "x", "sequences": ["ACGTACGTA"]}], min_count="abc")
        assert excinfo.value.status == 400
        assert "min_count" in str(excinfo.value)
        assert stack.engine.delta_documents == 0

    def test_append_mixed_terms_end_to_end(self, ingest_server):
        """Int-code + plain-word term lists (a mixed frozenset after the
        server-side normaliser) must append, serve and not 500."""
        client, _, stack = ingest_server
        response = client.append([{"name": "mixedhttp", "terms": [45, "word"]}])
        assert response["appended"] == 1
        assert "mixedhttp" in client.query_documents([45])[0]
        reference = build_reference(
            CONFIG,
            stack.base_docs
            + [KmerDocument("mixedhttp", frozenset({45, "word"}), source_format="text")],
        )
        assert_identical(stack.served_index(), reference, range(TERM_UNIVERSE))

    def test_out_of_range_term_is_a_400_on_a_still_framed_connection(self, ingest_server):
        """A negative or >= 2**64 code used to escape as OverflowError -> 500."""
        _, port, stack = ingest_server
        before = stack.engine.stats()
        snapshot_id = stack.service.snapshots.active.snapshot_id
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
        try:
            for bad in (-1, 1 << 64):
                body = json.dumps({"documents": [{"name": "d", "terms": [bad]}]})
                conn.request("POST", "/append", body=body)
                response = conn.getresponse()
                assert response.status == 400
                assert response.getheader("Connection") != "close"
                assert f"term {bad!r} " in json.loads(response.read())["error"]
            # Rejected while parsing: no WAL byte, no delta document, no publish.
            after = stack.engine.stats()
            assert after["wal"] == before["wal"] and after["delta"] == before["delta"]
            assert stack.service.snapshots.active.snapshot_id == snapshot_id
            # The same socket is still correctly framed and takes a valid append.
            body = json.dumps({"documents": [{"name": "d", "terms": [(1 << 64) - 1]}]})
            conn.request("POST", "/append", body=body)
            response = conn.getresponse()
            assert response.status == 200
            assert json.loads(response.read())["appended"] == 1
        finally:
            conn.close()

    def test_compact_drains_any_body_size_on_keepalive(self, ingest_server, monkeypatch):
        """A /compact body larger than MAX_BODY_BYTES must be drained fully:
        leftover bytes would corrupt the next pipelined request."""
        monkeypatch.setattr("repro.serve.http.MAX_BODY_BYTES", 64)
        _, port, _ = ingest_server
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
        try:
            conn.request(
                "POST", "/compact", body=b"x" * 200,
                headers={"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            assert response.status == 200
            assert json.loads(response.read()) == {"compacted": False}
            # The very same connection must parse the next request cleanly.
            conn.request("GET", "/healthz")
            follow_up = conn.getresponse()
            assert follow_up.status == 200
            assert json.loads(follow_up.read())["ok"] is True
        finally:
            conn.close()

    def test_oversized_body_rejected_with_connection_close(self, ingest_server, monkeypatch):
        """Endpoints that reject a body unread must close the connection so
        the unread bytes can never parse as a follow-up request."""
        monkeypatch.setattr("repro.serve.http.MAX_BODY_BYTES", 64)
        _, port, _ = ingest_server
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
        try:
            conn.request(
                "POST", "/query", body=b"{" + b"x" * 199,
                headers={"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            assert response.status == 400
            assert response.getheader("Connection") == "close"
            assert "Content-Length" in json.loads(response.read())["error"]
        finally:
            conn.close()


class TestSegmentedWal:
    """WAL segment rolling: bounded segment files, ordered replay, pruning."""

    def test_appends_roll_into_ordered_segments_and_replay(self, ingest_stack):
        engine = ingest_stack.restart(segment_bytes=256)
        docs = []
        for i in range(8):
            batch = [make_doc(f"s{i}", [i, 50 - i])]
            engine.append(batch)
            docs.extend(batch)
        stats = engine.stats()["wal"]
        assert stats["segments"] > 1
        assert stats["segment_bytes"] == 256
        assert stats["records_total"] == 8
        segment_files = {
            path.name
            for path in ingest_stack.wal_dir.iterdir()
            if path.suffix in (".log", ".seg")
        }
        assert "wal-000000.log" in segment_files  # the generation's base
        rolled = sorted(segment_files - {"wal-000000.log"})
        assert rolled == [
            f"wal-000000-{n:04d}.seg" for n in range(1, len(rolled) + 1)
        ]
        # Recovery walks every segment in order and replays all of it.
        engine = ingest_stack.restart(segment_bytes=256)
        assert engine.stats()["wal"]["replayed_documents"] == 8
        reference = build_reference(CONFIG, ingest_stack.base_docs + docs)
        assert_identical(ingest_stack.served_index(), reference, range(TERM_UNIVERSE))
        # And appending after a segmented recovery keeps rolling.
        engine.append([make_doc("post", [44])])
        assert engine.stats()["wal"]["records_total"] == 9

    def test_torn_tail_in_the_last_segment_recovers(self, ingest_stack):
        engine = ingest_stack.restart(segment_bytes=256)
        docs = [make_doc(f"t{i}", [i + 10]) for i in range(5)]
        for doc in docs:
            engine.append([doc])
        assert engine.stats()["wal"]["segments"] > 1
        last_segment = Path(engine.stats()["wal"]["path"])
        ingest_stack.stop()
        payload = encode_document(make_doc("torn", [60, 61]))
        framed = struct.pack("<II", len(payload), zlib.crc32(payload)) + payload
        with open(last_segment, "ab") as handle:
            handle.write(framed[: len(framed) - 3])
        engine = ingest_stack.start(segment_bytes=256)
        stats = engine.stats()["wal"]
        assert stats["replayed_documents"] == 5
        assert stats["torn_bytes_truncated"] == len(framed) - 3
        reference = build_reference(CONFIG, ingest_stack.base_docs + docs)
        assert_identical(ingest_stack.served_index(), reference, range(TERM_UNIVERSE))

    def test_compaction_retires_every_segment_of_the_old_generation(self, ingest_stack):
        engine = ingest_stack.restart(segment_bytes=256)
        for i in range(6):
            engine.append([make_doc(f"c{i}", [i + 20])])
        assert engine.stats()["wal"]["segments"] > 1
        engine.compact()
        leftovers = [
            path.name
            for path in ingest_stack.wal_dir.iterdir()
            if path.name.startswith("wal-000000")
        ]
        assert leftovers == []
        assert engine.stats()["wal"]["segments"] == 1
        reference = build_reference(
            CONFIG,
            ingest_stack.base_docs + [make_doc(f"c{i}", [i + 20]) for i in range(6)],
        )
        assert_identical(ingest_stack.served_index(), reference, range(TERM_UNIVERSE))


class TestGroupCommit:
    """Concurrent appends share one fsync; acks still mean durable."""

    def test_concurrent_appends_share_fsyncs(self, ingest_stack):
        engine = ingest_stack.restart(group_commit_ms=25.0)
        errors = []
        batches = 12

        def one_append(i):
            try:
                engine.append([make_doc(f"g{i}", [i, i + 30])])
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [
            threading.Thread(target=one_append, args=(i,)) for i in range(batches)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        stats = engine.stats()
        assert stats["appends"] == {"batches": batches, "documents": batches}
        # The whole point: far fewer fsyncs than acknowledged batches.
        assert 0 < stats["wal"]["syncs"] < batches
        assert stats["wal"]["group_commit_ms"] == 25.0
        docs = [make_doc(f"g{i}", [i, i + 30]) for i in range(batches)]
        reference = build_reference(CONFIG, ingest_stack.base_docs + docs)
        assert_identical(ingest_stack.served_index(), reference, range(TERM_UNIVERSE))
        # Every acknowledged append survives a restart: the ack came after
        # the shared fsync, never before.
        engine = ingest_stack.restart()
        assert engine.stats()["wal"]["replayed_documents"] == batches
        assert_identical(ingest_stack.served_index(), reference, range(TERM_UNIVERSE))

    def test_a_commit_group_is_invisible_until_its_fsync_then_one_overlay(
        self, ingest_stack, monkeypatch
    ):
        engine = ingest_stack.restart(group_commit_ms=1.0)
        service = ingest_stack.service
        # The leader's commit-window sleep becomes a gate the test opens.
        gate = threading.Event()
        monkeypatch.setattr(
            engine_module,
            "time",
            types.SimpleNamespace(
                sleep=lambda _seconds: gate.wait(30), perf_counter=time.perf_counter
            ),
        )
        docs = [make_doc(f"g{i}", [i, i + 30]) for i in range(4)]
        before = service.snapshots.active
        syncs = engine.stats()["wal"]["syncs"]
        threads = [threading.Thread(target=engine.append, args=([doc],)) for doc in docs]
        for thread in threads:
            thread.start()
        try:
            # All four batches are buffered and absorbed into the live delta ...
            assert _wait_for(lambda: engine.stats()["appends"]["batches"] == len(docs))
            # ... and none is durable, acknowledged or served.
            assert engine.stats()["wal"]["syncs"] == syncs
            assert all(thread.is_alive() for thread in threads)
            assert service.snapshots.active is before
            assert_identical(
                before.index,
                build_reference(CONFIG, ingest_stack.base_docs),
                range(TERM_UNIVERSE),
            )
        finally:
            gate.set()
            for thread in threads:
                thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in threads)
        # One shared fsync, one overlay covering the whole group.
        assert engine.stats()["wal"]["syncs"] == syncs + 1
        assert service.snapshots.active.snapshot_id == before.snapshot_id + 1
        reference = build_reference(CONFIG, ingest_stack.base_docs + docs)
        assert_identical(ingest_stack.served_index(), reference, range(TERM_UNIVERSE))

    def test_zero_window_keeps_per_batch_fsync_behaviour(self, ingest_stack):
        engine = ingest_stack.engine  # default: group_commit_ms=0
        assert engine.stats()["wal"]["group_commit_ms"] == 0.0
        before = engine.stats()["wal"]["syncs"]  # header commit counts as one
        for i in range(3):
            engine.append([make_doc(f"z{i}", [i + 40])])
        assert engine.stats()["wal"]["syncs"] == before + 3  # one fsync per batch

    def test_group_commit_composes_with_compaction(self, ingest_stack):
        engine = ingest_stack.restart(group_commit_ms=10.0)
        engine.append([make_doc("gc0", [11]), make_doc("gc1", [12])])
        record = engine.compact()
        assert record["documents_folded"] == 2
        engine.append([make_doc("gc2", [13])])
        reference = build_reference(
            CONFIG,
            ingest_stack.base_docs
            + [make_doc("gc0", [11]), make_doc("gc1", [12]), make_doc("gc2", [13])],
        )
        assert_identical(ingest_stack.served_index(), reference, range(TERM_UNIVERSE))
        engine = ingest_stack.restart()
        assert engine.generation == 1
        assert_identical(ingest_stack.served_index(), reference, range(TERM_UNIVERSE))


class IngestConsistencyMachine(RuleBasedStateMachine):
    """Hypothesis drives append / crash-mid-append / recover / compact / restart.

    The model is the list of *acknowledged* documents (base + every batch
    whose ``append`` returned).  After every rule the served index must be
    bit-identical — documents and probe counts, full and sparse — to a
    from-scratch build of exactly that list, and so must every snapshot a
    reader still holds a lease on, to the list *as it was when leased*
    (publishing reuses bit planes; it may only ever reuse drained ones).  Crashes are injected as a
    strict prefix of an un-acknowledged record at the WAL tail: fsynced
    acknowledged records can never be lost (that is the durability
    contract), while an unacknowledged write may tear anywhere.
    """

    def __init__(self):
        super().__init__()
        self.tmp = Path(tempfile.mkdtemp(prefix="ingest-machine-"))
        self.base_docs = [make_doc(f"base{i}", [i, i + 5]) for i in range(4)]
        base = build_reference(CONFIG, self.base_docs)
        self.base_path = self.tmp / "base.rambo2"
        save_index(base, self.base_path)
        self.wal_dir = self.tmp / "wal"
        self.acked = list(self.base_docs)
        self.counter = 0
        #: Open leases: (the lease, its snapshot, a rebuild of the documents
        #: acknowledged when it was taken).
        self.held = []
        self._open()

    def _open(self):
        self.service = QueryService.open(self.base_path, tick_seconds=0.0)
        self.engine = IngestEngine(self.service, self.wal_dir)
        self.service.attach_ingest(self.engine)

    def _close(self):
        self.service.close()

    def _fresh_docs(self, term_lists):
        docs = []
        for terms in term_lists:
            docs.append(make_doc(f"doc{self.counter:04d}", terms))
            self.counter += 1
        return docs

    @rule(term_lists=st.lists(term_sets, min_size=1, max_size=3))
    def append(self, term_lists):
        docs = self._fresh_docs(term_lists)
        result = self.engine.append(docs)
        assert result.appended == len(docs)
        self.acked.extend(docs)

    @rule()
    def compact(self):
        record = self.engine.compact()
        if record is not None:
            assert record["base_documents"] == len(self.acked)
        assert self.engine.delta_documents == 0

    @rule()
    def clean_restart(self):
        self._close()
        self._open()

    @rule(terms=term_sets, cut=st.integers(min_value=1, max_value=10_000))
    def crash_mid_append(self, terms, cut):
        """Tear the WAL inside an un-acknowledged record, then recover."""
        docs = self._fresh_docs([terms])  # never acknowledged, never modelled
        payload = encode_document(docs[0])
        framed = struct.pack("<II", len(payload), zlib.crc32(payload)) + payload
        keep = 1 + cut % (len(framed) - 1)  # strict prefix: the record is lost
        wal_path = Path(self.engine.stats()["wal"]["path"])
        self._close()
        with open(wal_path, "ab") as handle:
            handle.write(framed[:keep])
        self._open()
        assert self.engine.stats()["wal"]["torn_bytes_truncated"] == keep

    @rule()
    def hold_lease(self):
        """A reader that keeps answering from the prefix it leased — across
        later appends, compactions, crashes and restarts of the engine."""
        if len(self.held) == 3:
            self.release_lease(0)
        lease = ExitStack()
        snapshot = lease.enter_context(self.service.snapshots.lease())
        self.held.append((lease, snapshot, build_reference(CONFIG, self.acked)))

    @rule(which=st.integers(min_value=0, max_value=2))
    def release_lease(self, which):
        if self.held:
            lease, _, _ = self.held.pop(which % len(self.held))
            lease.close()

    @invariant()
    def served_equals_rebuild(self):
        reference = build_reference(CONFIG, self.acked)
        served = self.service.snapshots.active.index
        assert served.num_documents == len(self.acked)
        assert_identical(served, reference, range(TERM_UNIVERSE))

    @invariant()
    def held_leases_still_answer_their_prefix(self):
        for _, snapshot, reference in self.held:
            assert snapshot.index is not None
            assert snapshot.index.num_documents == reference.num_documents
            assert_identical(snapshot.index, reference, range(TERM_UNIVERSE))

    def teardown(self):
        for lease, _, _ in self.held:
            lease.close()
        self._close()
        shutil.rmtree(self.tmp, ignore_errors=True)


IngestConsistencyMachine.TestCase.settings = tier("stateful")


class TestIngestConsistencyStateful(IngestConsistencyMachine.TestCase):
    """Run the crash/consistency machine under the ``stateful`` tier."""

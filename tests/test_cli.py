"""Tests for the repro-rambo command-line interface."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.io.fasta import FastaRecord, write_fasta
from repro.io.fastq import FastqRecord, write_fastq
from repro.io.mccortex import write_mccortex
from repro.kmers.extraction import extract_kmer_set, extract_kmers
from repro.hashing.kmer_hash import int_to_kmer
from repro.simulate.genomes import GenomeSimulator

K = 13

#: A file of the retired v1 container (see tests/test_serialization.py).
V1_FIXTURE = Path(__file__).parent / "data" / "pinned-built.v1.rambo"


@pytest.fixture(scope="module")
def sequence_dir(tmp_path_factory) -> Path:
    """A directory with FASTA, FASTQ and McCortex-lite files (mixed formats)."""
    directory = tmp_path_factory.mktemp("archive")
    genomes = GenomeSimulator(genome_length=1_000, num_ancestors=2, mutation_rate=0.02, seed=5).genomes(6)

    for i, genome in enumerate(genomes[:3]):
        write_fasta(directory / f"sampleA{i}.fasta", [FastaRecord(f"sampleA{i}", "", genome)])
    for i, genome in enumerate(genomes[3:5]):
        reads = [
            FastqRecord(f"r{j}", genome[j * 100 : j * 100 + 100], "I" * 100)
            for j in range(8)
        ]
        write_fastq(directory / f"sampleB{i}.fastq", reads)
    write_mccortex(
        directory / "sampleC0.mcc", sample="sampleC0", k=K, kmers=extract_kmer_set(genomes[5], k=K)
    )
    (directory / "ignored.txt").write_text("not a sequence file\n")
    return directory


@pytest.fixture(scope="module")
def built_index_path(sequence_dir, tmp_path_factory) -> Path:
    path = tmp_path_factory.mktemp("indexes") / "archive.rambo"
    exit_code = main(
        ["build", str(sequence_dir), str(path), "--kmer-size", str(K), "--seed", "3"]
    )
    assert exit_code == 0
    return path


@pytest.fixture(scope="module")
def probe_kmer(sequence_dir) -> str:
    """A k-mer known to occur in sampleA0."""
    from repro.io.fasta import read_fasta

    record = next(read_fasta(sequence_dir / "sampleA0.fasta"))
    return int_to_kmer(extract_kmers(record.sequence, k=K)[10], K)


class TestBuild:
    def test_build_creates_index(self, built_index_path):
        assert built_index_path.exists()
        assert built_index_path.stat().st_size > 0

    def test_build_prints_summary(self, sequence_dir, tmp_path, capsys):
        out_path = tmp_path / "x.rambo"
        main(["build", str(sequence_dir), str(out_path), "--kmer-size", str(K)])
        captured = capsys.readouterr().out
        assert "parsed 6 documents" in captured
        assert "config: B=" in captured

    def test_build_with_explicit_parameters(self, sequence_dir, tmp_path, capsys):
        out_path = tmp_path / "explicit.rambo"
        main(
            [
                "build",
                str(sequence_dir),
                str(out_path),
                "--kmer-size", str(K),
                "--partitions", "3",
                "--repetitions", "2",
                "--bfu-bits", "8192",
            ]
        )
        assert "B=3 R=2 bfu_bits=8192" in capsys.readouterr().out

    def test_build_missing_directory(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["build", str(tmp_path / "nope"), str(tmp_path / "o.rambo")])

    def test_build_empty_directory(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        with pytest.raises(SystemExit, match="no sequence files"):
            main(["build", str(empty), str(tmp_path / "o.rambo")])


class TestCanonicalAndMinCount:
    def test_build_and_query_canonical(self, sequence_dir, tmp_path, capsys):
        """A --canonical index answers reverse-complement probes too."""
        from repro.io.fasta import read_fasta
        from repro.hashing.kmer_hash import reverse_complement

        path = tmp_path / "canon.rambo"
        assert main(
            ["build", str(sequence_dir), str(path), "--kmer-size", str(K),
             "--seed", "3", "--canonical"]
        ) == 0
        record = next(read_fasta(sequence_dir / "sampleA0.fasta"))
        probe = int_to_kmer(extract_kmers(record.sequence, k=K)[10], K)
        capsys.readouterr()
        main(["query", str(path), probe, "--canonical"])
        assert "sampleA0" in capsys.readouterr().out
        # The reverse complement of the probe canonicalises to the same code,
        # so a canonical index must find it in the same document.
        main(["query", str(path), reverse_complement(probe), "--canonical"])
        assert "sampleA0" in capsys.readouterr().out

    def test_canonical_sequence_query(self, sequence_dir, tmp_path, capsys):
        from repro.io.fasta import read_fasta
        from repro.hashing.kmer_hash import reverse_complement

        path = tmp_path / "canonseq.rambo"
        main(["build", str(sequence_dir), str(path), "--kmer-size", str(K),
              "--seed", "3", "--canonical"])
        record = next(read_fasta(sequence_dir / "sampleA1.fasta"))
        fragment = record.sequence[200:260]
        capsys.readouterr()
        # Query the opposite strand of a real fragment: only canonicalisation
        # makes it land in the right document.
        main(["query", str(path), "--sequence", reverse_complement(fragment), "--canonical"])
        output = capsys.readouterr().out
        assert output.startswith("sequence\t")
        assert "sampleA1" in output

    def test_min_count_flag_filters_fastq_kmers(self, tmp_path, capsys):
        """--min-count drops k-mers seen fewer times than the threshold."""
        directory = tmp_path / "reads"
        directory.mkdir()
        # "ACGTACGTACGTA" appears twice; the GGGG...-read once (an "error").
        common = "ACGTACGTACGTA"
        rare = "GGGGGGGGGGGGG"
        write_fastq(
            directory / "s.fastq",
            [
                FastqRecord("r0", common, "I" * len(common)),
                FastqRecord("r1", common, "I" * len(common)),
                FastqRecord("r2", rare, "I" * len(rare)),
            ],
        )
        unfiltered = tmp_path / "all.rambo"
        filtered = tmp_path / "filtered.rambo"
        main(["build", str(directory), str(unfiltered), "--kmer-size", str(K),
              "--fp-rate", "0.0001"])
        main(["build", str(directory), str(filtered), "--kmer-size", str(K),
              "--fp-rate", "0.0001", "--min-count", "2"])
        capsys.readouterr()
        main(["query", str(unfiltered), rare])
        assert "s" in capsys.readouterr().out.split("\t")[1]
        main(["query", str(filtered), rare])
        assert capsys.readouterr().out.split("\t")[1] == "-"
        main(["query", str(filtered), common[:K]])
        assert "s" in capsys.readouterr().out.split("\t")[1]

    def test_min_kmer_count_alias_still_accepted(self, tmp_path, capsys):
        directory = tmp_path / "reads"
        directory.mkdir()
        write_fastq(directory / "s.fastq", [FastqRecord("r0", "ACGTACGTACGTA", "I" * 13)])
        out = tmp_path / "alias.rambo"
        assert main(
            ["build", str(directory), str(out), "--kmer-size", str(K),
             "--min-kmer-count", "1"]
        ) == 0
        assert out.exists()


class TestQuery:
    def test_query_known_kmer(self, built_index_path, probe_kmer, capsys):
        exit_code = main(["query", str(built_index_path), probe_kmer])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert probe_kmer in output
        assert "sampleA0" in output

    def test_query_sparse_mode(self, built_index_path, probe_kmer, capsys):
        main(["query", str(built_index_path), probe_kmer, "--sparse"])
        assert "sampleA0" in capsys.readouterr().out

    def test_query_sequence(self, built_index_path, sequence_dir, capsys):
        from repro.io.fasta import read_fasta

        record = next(read_fasta(sequence_dir / "sampleA1.fasta"))
        fragment = record.sequence[200:260]
        main(["query", str(built_index_path), "--sequence", fragment])
        output = capsys.readouterr().out
        assert output.startswith("sequence\t")
        assert "sampleA1" in output

    def test_query_absent_term(self, built_index_path, capsys):
        main(["query", str(built_index_path), "Z" * 8])
        line = capsys.readouterr().out.strip().splitlines()[-1]
        term, matches, probes = line.split("\t")
        assert matches == "-" or "sample" in matches  # tiny chance of a false positive

    def test_query_nothing_rejected(self, built_index_path):
        with pytest.raises(SystemExit, match="nothing to query"):
            main(["query", str(built_index_path)])

    def test_query_many_terms_one_invocation(self, built_index_path, probe_kmer, capsys):
        """Several terms are answered in one batched call, one line each."""
        exit_code = main(["query", str(built_index_path), probe_kmer, "Z" * 8, probe_kmer])
        assert exit_code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3
        assert lines[0].startswith(probe_kmer + "\t")
        assert "sampleA0" in lines[0]
        assert lines[0] == lines[2]  # identical term, identical batched answer

    def test_query_multiple_sequences(self, built_index_path, sequence_dir, capsys):
        from repro.io.fasta import read_fasta

        record_a = next(read_fasta(sequence_dir / "sampleA0.fasta"))
        record_b = next(read_fasta(sequence_dir / "sampleA1.fasta"))
        main(
            [
                "query", str(built_index_path),
                "--sequence", record_a.sequence[100:160],
                "--sequence", record_b.sequence[200:260],
            ]
        )
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2
        assert all(line.startswith("sequence\t") for line in lines)
        assert "sampleA0" in lines[0]
        assert "sampleA1" in lines[1]

    def test_empty_sequence_value_ignored(self, built_index_path):
        """--sequence '' is skipped like the old CLI; with nothing else to
        query it ends in the clean nothing-to-query error, not a traceback."""
        with pytest.raises(SystemExit, match="nothing to query"):
            main(["query", str(built_index_path), "--sequence", ""])

    def test_too_short_sequence_clean_error(self, built_index_path):
        with pytest.raises(SystemExit, match="bad --sequence value"):
            main(["query", str(built_index_path), "--sequence", "ACG"])

    def test_sparse_reaches_sequence_queries(self, built_index_path, sequence_dir, capsys):
        """--sparse must select the RAMBO+ evaluation for --sequence too;
        documents are identical but the probe accounting differs."""
        from repro.io.fasta import read_fasta

        record = next(read_fasta(sequence_dir / "sampleA0.fasta"))
        fragment = record.sequence[100:180]
        main(["query", str(built_index_path), "--sequence", fragment])
        full_line = capsys.readouterr().out.strip()
        main(["query", str(built_index_path), "--sequence", fragment, "--sparse"])
        sparse_line = capsys.readouterr().out.strip()
        _, full_matches, full_probes = full_line.split("\t")
        _, sparse_matches, sparse_probes = sparse_line.split("\t")
        assert sparse_matches == full_matches
        assert int(sparse_probes) <= int(full_probes)

    def test_query_terms_and_sequence_together(self, built_index_path, sequence_dir, probe_kmer, capsys):
        from repro.io.fasta import read_fasta

        record = next(read_fasta(sequence_dir / "sampleA1.fasta"))
        main(
            [
                "query", str(built_index_path), probe_kmer,
                "--sequence", record.sequence[200:260], "--sparse",
            ]
        )
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("sequence\t")
        assert lines[1].startswith(probe_kmer + "\t")


class TestMmapFormat:
    @pytest.fixture(scope="class")
    def mmap_index_path(self, sequence_dir, tmp_path_factory) -> Path:
        path = tmp_path_factory.mktemp("indexes") / "archive.rambo2"
        exit_code = main(
            [
                "build", str(sequence_dir), str(path),
                "--kmer-size", str(K), "--seed", "3",
                "--partitions", "4", "--repetitions", "2", "--bfu-bits", "16384",
            ]
        )
        assert exit_code == 0
        return path

    def test_build_writes_the_mmap_container(self, built_index_path, sequence_dir, tmp_path):
        from repro.io.diskformat import detect_format

        assert detect_format(built_index_path) == "mmap"
        with pytest.raises(SystemExit):  # no --format option any more
            main(["build", str(sequence_dir), str(tmp_path / "v1.rambo"), "--format", "v1"])
        assert not (tmp_path / "v1.rambo").exists()

    def test_query_autodetects_mmap_index(self, mmap_index_path, probe_kmer, capsys):
        exit_code = main(["query", str(mmap_index_path), probe_kmer])
        assert exit_code == 0
        assert "sampleA0" in capsys.readouterr().out

    def test_query_results_identical_across_formats(self, tmp_path, capsys):
        """A v1 file answers identically to its conversion to RAMBO2."""
        from repro.core.serialization import open_index, save_index

        converted = tmp_path / "converted.rambo2"
        save_index(open_index(V1_FIXTURE), converted)
        # The fixture's documents hold the codes 0..95 (k=11).
        probes = [int_to_kmer(code, 11) for code in (0, 7, 50, 102, 900)]
        main(["query", str(V1_FIXTURE), *probes])
        v1_out = capsys.readouterr().out
        main(["query", str(converted), *probes])
        assert capsys.readouterr().out == v1_out
        assert "doc0" in v1_out

    def test_info_shows_mapped_format(self, mmap_index_path, capsys):
        exit_code = main(["info", str(mmap_index_path)])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "format          : mmap (memory-mapped)" in output
        assert "documents       : 6" in output

    def test_info_shows_v1_format(self, capsys):
        assert main(["info", str(V1_FIXTURE)]) == 0
        output = capsys.readouterr().out
        assert "format          : v1\n" in output
        assert "documents       : 10" in output

    def test_fold_preserves_mmap_format(self, mmap_index_path, tmp_path, probe_kmer, capsys):
        folded = tmp_path / "folded.rambo2"
        exit_code = main(["fold", str(mmap_index_path), str(folded), "--folds", "1"])
        assert exit_code == 0
        assert "B 4 -> 2" in capsys.readouterr().out
        from repro.io.diskformat import detect_format

        assert detect_format(folded) == "mmap"
        main(["query", str(folded), probe_kmer])
        assert "sampleA0" in capsys.readouterr().out

    def test_fold_converts_a_v1_file(self, tmp_path, capsys):
        from repro.core.serialization import open_index
        from repro.io.diskformat import detect_format

        folded = tmp_path / "folded.rambo2"
        assert main(["fold", str(V1_FIXTURE), str(folded), "--folds", "1"]) == 0
        assert "B 6 -> 3" in capsys.readouterr().out
        assert detect_format(folded) == "mmap"
        reference = open_index(V1_FIXTURE).fold()
        assert np.array_equal(np.stack(open_index(folded).planes), np.stack(reference.planes))


class TestThreads:
    """--threads must change only the execution schedule, never the output."""

    def test_build_identical_bytes_across_thread_counts(self, sequence_dir, tmp_path):
        outputs = []
        for threads in (1, 3):
            path = tmp_path / f"t{threads}.rambo"
            assert main(
                ["build", str(sequence_dir), str(path), "--kmer-size", str(K),
                 "--seed", "3", "--threads", str(threads)]
            ) == 0
            outputs.append(path.read_bytes())
        assert outputs[0] == outputs[1]

    def test_query_identical_output_across_thread_counts(
        self, built_index_path, probe_kmer, capsys
    ):
        terms = [probe_kmer, "Z" * 8, probe_kmer]
        observed = []
        for threads in ("1", "3"):
            assert main(
                ["query", str(built_index_path), *terms, "--threads", threads]
            ) == 0
            observed.append(capsys.readouterr().out)
        assert observed[0] == observed[1]
        assert "sampleA0" in observed[0]

    def test_threads_override_is_scoped(self, built_index_path, probe_kmer):
        from repro.core.executor import get_num_threads, set_num_threads

        set_num_threads(2)
        try:
            main(["query", str(built_index_path), probe_kmer, "--threads", "5"])
            assert get_num_threads() == 2  # --threads did not leak
        finally:
            set_num_threads(None)

    def test_threads_must_be_positive(self, built_index_path, probe_kmer):
        with pytest.raises(SystemExit, match="--threads must be >= 1"):
            main(["query", str(built_index_path), probe_kmer, "--threads", "0"])

    def test_serve_takes_no_threads_option(self):
        # A served query never reaches the executor, so serve has no --threads.
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "index.rambo2", "--threads", "2"])


class TestInfoAndFold:
    def test_info_output(self, built_index_path, capsys):
        exit_code = main(["info", str(built_index_path)])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "documents       : 6" in output
        assert "partitions (B)" in output
        assert "BFU fill ratio" in output

    def test_info_into_a_closed_pipe_exits_without_a_traceback(self, built_index_path):
        """``info idx | head -1``: the reader is gone before the output is
        written, so every write fails; the CLI exits 1 with stderr empty."""
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = subprocess.run(
                [sys.executable, "-m", "repro.cli", "info", str(built_index_path)],
                stdout=write_end, stderr=subprocess.PIPE, timeout=60,
                env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)),
            )
        finally:
            os.close(write_end)
        assert done.stderr == b""
        assert done.returncode == 1

    def test_fold_shrinks_index(self, sequence_dir, tmp_path, capsys):
        # Build with an even, explicit B so folding is possible.
        original = tmp_path / "foldable.rambo"
        main(
            [
                "build", str(sequence_dir), str(original),
                "--kmer-size", str(K), "--partitions", "4", "--repetitions", "2",
                "--bfu-bits", "16384",
            ]
        )
        folded = tmp_path / "folded.rambo"
        exit_code = main(["fold", str(original), str(folded), "--folds", "1"])
        assert exit_code == 0
        assert "B 4 -> 2" in capsys.readouterr().out
        assert folded.stat().st_size < original.stat().st_size

    def test_fold_then_query_still_finds_documents(self, sequence_dir, tmp_path, probe_kmer, capsys):
        original = tmp_path / "f2.rambo"
        main(
            [
                "build", str(sequence_dir), str(original),
                "--kmer-size", str(K), "--partitions", "4", "--repetitions", "2",
                "--bfu-bits", "16384",
            ]
        )
        folded = tmp_path / "f2-folded.rambo"
        main(["fold", str(original), str(folded), "--folds", "1"])
        capsys.readouterr()
        main(["query", str(folded), probe_kmer])
        assert "sampleA0" in capsys.readouterr().out

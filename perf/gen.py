"""Seeded workload inputs for ``perf/`` — numpy only, nothing from ``repro``.

The generator is deliberately independent of ``repro.simulate``: a change
under ``src/`` must not be able to alter the workload it is measured on.
Every function is a pure function of its arguments; the same seed gives
the same arrays, and :func:`digest` fingerprints them so two runs can
prove they measured the same inputs.

Corpus recipe (the paper's Section 5.2 protocol, scaled to a sandbox):
``ANCESTORS`` random genomes, every document a ``MUTATION_RATE``-mutated
copy of one of them, ``K_MER``-mers as 2-bit codes.  Query terms are
*tagged* (bit 63 set — a 31-mer code needs only 62 bits, so a tagged term
can never collide with a real k-mer): positives are planted into
``V ~ Exp(mean MEAN_V)`` documents, negatives are never inserted, so the
ground truth of every (term, document) pair is known exactly.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

K_MER = 31
ANCESTORS = 8
MUTATION_RATE = 0.02
MEAN_V = 16.0
READ_LENGTH = 150
READ_ERROR_RATE = 0.002
TAG = np.uint64(1 << 63)

_ASCII = np.frombuffer(b"ACGT", dtype=np.uint8)


def _rng(seed: int, stream: int) -> np.random.Generator:
    """One independent generator per (seed, component)."""
    return np.random.default_rng([seed, stream])


def _substitute(bases: np.ndarray, rate: float, rng: np.random.Generator) -> None:
    """Replace a *rate* share of *bases* (values 0..3) by a different base, in place."""
    hit = rng.random(bases.shape) < rate
    bases[hit] = (bases[hit] + rng.integers(1, 4, size=int(hit.sum()), dtype=np.uint8)) & 3


def genomes(seed: int, docs: int, length: int, stream: int = 0) -> np.ndarray:
    """``(docs, length)`` uint8 matrix of bases 0..3: mutated copies of the ancestors."""
    rng = _rng(seed, 10 + stream)
    ancestors = rng.integers(0, 4, size=(ANCESTORS, length), dtype=np.uint8)
    out = ancestors[rng.integers(0, ANCESTORS, size=docs)].copy()
    _substitute(out, MUTATION_RATE, rng)
    return out


def kmer_codes(bases: np.ndarray) -> np.ndarray:
    """``(docs, length - K_MER + 1)`` uint64 matrix of 2-bit k-mer codes."""
    wide = bases.astype(np.uint64)
    windows = wide.shape[1] - K_MER + 1
    codes = np.zeros((wide.shape[0], windows), dtype=np.uint64)
    for offset in range(K_MER):
        codes = (codes << np.uint64(2)) | wide[:, offset : offset + windows]
    return codes


def reads(seed: int, bases: np.ndarray, coverage: float) -> np.ndarray:
    """``(docs, reads_per_doc, READ_LENGTH)`` ASCII matrix of error-bearing reads."""
    rng = _rng(seed, 20)
    docs, length = bases.shape
    per_doc = max(1, int(round(coverage * length / READ_LENGTH)))
    starts = rng.integers(0, length - READ_LENGTH + 1, size=(docs, per_doc))
    columns = starts[:, :, None] + np.arange(READ_LENGTH)
    out = bases[np.arange(docs)[:, None, None], columns]
    _substitute(out, READ_ERROR_RATE, rng)
    return _ASCII[out]


@dataclass(frozen=True)
class Planted:
    """A shuffled pool of tagged terms and the exact truth about them.

    ``pair_term[i]`` (an index into ``terms``) is contained in document
    ``pair_doc[i]``; a term with no pair is a negative.
    """

    terms: np.ndarray
    pair_term: np.ndarray
    pair_doc: np.ndarray

    def head(self, terms: int) -> "Planted":
        """The truth about the first *terms* terms of the pool only."""
        keep = self.pair_term < terms
        return Planted(self.terms[:terms], self.pair_term[keep], self.pair_doc[keep])

    def per_document(self, docs: int) -> List[np.ndarray]:
        """The planted term codes of each document, by document index."""
        order = np.argsort(self.pair_doc, kind="stable")
        bounds = np.searchsorted(self.pair_doc[order], np.arange(docs + 1))
        codes = self.terms[self.pair_term[order]]
        return [codes[bounds[d] : bounds[d + 1]] for d in range(docs)]


def planted(seed: int, docs: int, pool: int) -> Planted:
    """*pool* tagged terms, half planted (positives) and half never inserted."""
    rng = _rng(seed, 30)
    payload = rng.choice(1 << 40, size=pool, replace=False).astype(np.uint64)
    positive = rng.permutation(pool)[: pool // 2]
    multiplicity = np.clip(rng.exponential(MEAN_V, size=positive.size).astype(np.int64), 1, docs)
    pair_term = np.repeat(positive, multiplicity)
    # Documents drawn with replacement, duplicate pairs dropped: V shrinks a
    # little where a draw repeats, and every positive keeps at least one.
    pairs = np.unique(pair_term * docs + rng.integers(0, docs, size=pair_term.size))
    return Planted(TAG | payload, pairs // docs, pairs % docs)


def document_terms(codes: np.ndarray, planted_codes: Sequence[np.ndarray]) -> List[np.ndarray]:
    """Per-document term arrays: the genome's k-mer codes plus its planted terms."""
    return [np.concatenate([row, extra]) for row, extra in zip(codes, planted_codes)]


def zipf_requests(seed: int, pool: int, count: int, width: int, stream: int) -> np.ndarray:
    """``(count, width)`` pool indices, index ``i`` drawn with weight ``1 / (i + 1)``."""
    weights = 1.0 / np.arange(1, pool + 1)
    return _rng(seed, 40 + stream).choice(pool, size=(count, width), p=weights / weights.sum())


def uniform_requests(seed: int, pool: int, count: int, width: int, stream: int) -> np.ndarray:
    """``(count, width)`` pool indices drawn uniformly."""
    return _rng(seed, 40 + stream).integers(0, pool, size=(count, width))


def digest(*arrays: np.ndarray) -> str:
    """sha256 over the arrays' dtypes, shapes and bytes, in order."""
    sha = hashlib.sha256()
    for array in arrays:
        array = np.ascontiguousarray(array)
        sha.update(f"{array.dtype}{array.shape}".encode())
        sha.update(array.tobytes())
    return sha.hexdigest()

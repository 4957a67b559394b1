"""Common interface shared by RAMBO and every baseline index.

The paper compares structurally different indexes (RAMBO, COBS/BIGSI, the SBT
family, an inverted index) on the same task: map a query term — or a
conjunction of terms from a longer sequence — to the set of documents that
contain it.  :class:`MembershipIndex` pins down that contract so the
experiment harness and the benchmarks can treat every structure uniformly.
"""

from __future__ import annotations

import abc
from typing import FrozenSet, Iterable, List, Optional, Sequence, Set, Union

import numpy as np

from repro.kmers.extraction import DEFAULT_K, KmerDocument
from repro.kmers.vectorized import extract_kmer_codes

Term = Union[int, str]

#: Terms per slice in the batched query engines.  Bounds every
#: ``O(n_terms x num_documents)`` intermediate to chunk-sized arrays so an
#: arbitrarily long term batch (a whole-genome sequence query) runs in
#: constant extra memory while keeping the vectorisation win per slice.
QUERY_BATCH_CHUNK_TERMS = 2048

def iter_term_chunks(terms: Sequence["Term"]) -> Iterable[Sequence["Term"]]:
    """Slice a term batch into :data:`QUERY_BATCH_CHUNK_TERMS`-sized chunks.

    The single chunking idiom shared by every batched query engine, so a
    future change (adaptive sizing, say) lands in one place.
    """
    for start in range(0, len(terms), QUERY_BATCH_CHUNK_TERMS):
        yield terms[start : start + QUERY_BATCH_CHUNK_TERMS]


def iter_conjunction_slices(terms: Sequence["Term"]) -> Iterable[Sequence["Term"]]:
    """Exponentially ramped slices for conjunctive (AND-of-terms) queries.

    A conjunction can be decided by its very first absent term ("the first
    returned FALSE is conclusive"), so evaluating a full 2048-term chunk up
    front wastes work whenever the intersection dies early.  Start small and
    grow the slice 4x per step up to :data:`QUERY_BATCH_CHUNK_TERMS`: queries
    that die early pay for a few dozen terms, queries that survive quickly
    reach full-chunk vectorisation.
    """
    start = 0
    size = 32
    while start < len(terms):
        size = min(size, QUERY_BATCH_CHUNK_TERMS)
        yield terms[start : start + size]
        start += size
        size *= 4


#: The evaluation strategies the shared ``method`` parameter may name.
#: RAMBO honours both; single-strategy structures validate and then ignore
#: the value so callers get a uniform error contract across the hierarchy.
QUERY_METHODS = ("full", "sparse")


def check_query_method(method: str) -> None:
    """Reject unknown ``method`` values with the error every index raises.

    The message always lists the valid strategies — the one validation
    string shared across the hierarchy, so a typo'd ``method=`` tells the
    caller what would have worked no matter which structure they queried.
    """
    if method not in QUERY_METHODS:
        raise ValueError(
            f"unknown query method {method!r} (expected one of {', '.join(QUERY_METHODS)})"
        )


class QueryResult:
    """Outcome of one query: matching documents plus probe accounting.

    The internal currency between index layers is a *doc-id bitmap* over a
    shared name table (the paper's "fast bitwise operations"); the
    string-level view is materialised lazily the first time
    :attr:`documents` is read, so batch pipelines that only combine bitmaps
    never pay for building per-result ``frozenset`` objects.

    Construct either eagerly from names (``QueryResult(documents=...,
    filters_probed=...)``, the historic form every baseline uses), from a
    bitmap via :meth:`from_mask` / :meth:`from_ids`, or a whole batch at
    once from match pairs via :meth:`batch_from_pairs`.

    ``filters_probed`` counts Bloom-filter membership tests (the dominant
    query cost every structure shares), so benchmarks can report an
    implementation-independent work measure alongside wall-clock time.
    """

    __slots__ = ("_filters_probed", "_documents", "_ids", "_name_table")

    def __init__(
        self,
        documents: Optional[FrozenSet[str]] = None,
        filters_probed: int = 0,
        *,
        doc_ids: Optional[np.ndarray] = None,
        name_table: Optional[Sequence[str]] = None,
    ) -> None:
        if documents is None and doc_ids is None:
            raise TypeError("QueryResult needs either documents or doc_ids")
        if doc_ids is not None and name_table is None:
            raise TypeError("doc_ids requires the shared name_table")
        self._filters_probed = int(filters_probed)
        self._documents: Optional[FrozenSet[str]] = (
            frozenset(documents) if documents is not None else None
        )
        if doc_ids is not None:
            # Results are hashable; freeze the backing array so a caller
            # mutating doc_ids can't silently desynchronise documents/hash.
            doc_ids.setflags(write=False)
        self._ids: Optional[np.ndarray] = doc_ids
        self._name_table: Optional[Sequence[str]] = name_table

    @property
    def filters_probed(self) -> int:
        """Bloom-filter membership tests performed.

        Read-only: results are hashable, so their observable state must not
        mutate.
        """
        return self._filters_probed

    @classmethod
    def from_mask(
        cls, mask: np.ndarray, name_table: Sequence[str], filters_probed: int = 0
    ) -> "QueryResult":
        """Result from a boolean bitmap over the doc-id space of *name_table*."""
        return cls(
            filters_probed=filters_probed,
            doc_ids=np.flatnonzero(mask),
            name_table=name_table,
        )

    @classmethod
    def from_ids(
        cls, doc_ids: np.ndarray, name_table: Sequence[str], filters_probed: int = 0
    ) -> "QueryResult":
        """Result from an array of matching doc ids (stored sorted)."""
        return cls(
            filters_probed=filters_probed,
            doc_ids=np.sort(np.asarray(doc_ids, dtype=np.int64)),
            name_table=name_table,
        )

    @classmethod
    def batch_from_pairs(
        cls,
        pair_terms: np.ndarray,
        pair_docs: np.ndarray,
        probes: np.ndarray,
        name_table: Sequence[str],
    ) -> List["QueryResult"]:
        """One result per term from flat ``(term, doc id)`` match pairs.

        The batch engines' hand-off: the pairs list every match of a term
        batch once, in any order; ``probes[t]`` is term ``t``'s
        ``filters_probed``.  One sort of ``term * num_docs + doc`` keys
        orders them by term and by doc id within a term, one
        ``searchsorted`` finds each term's span, and every result is a slice
        of that one read-only id array — cost follows the matches, not
        ``terms x documents``.
        """
        num_docs = len(name_table)
        keys = np.sort(pair_terms * num_docs + pair_docs)
        bounds = np.searchsorted(keys, np.arange(len(probes) + 1) * num_docs).tolist()
        keys %= max(num_docs, 1)
        keys.setflags(write=False)
        results = []
        for term, filters_probed in enumerate(probes.tolist()):
            # Field by field, not __init__: none of its validation applies,
            # and this line is the per-term cost of a large batch.
            result = cls.__new__(cls)
            result._filters_probed = filters_probed
            result._documents = None
            result._ids = keys[bounds[term] : bounds[term + 1]]
            result._name_table = name_table
            results.append(result)
        return results

    @property
    def doc_ids(self) -> np.ndarray:
        """Matching doc ids (positions in :attr:`name_table`), sorted."""
        if self._ids is None:
            # Eagerly-constructed result: ids are only meaningful relative to
            # a name table, which this result was never given.
            raise AttributeError("this QueryResult was built from names, not ids")
        return self._ids

    @property
    def name_table(self) -> Optional[Sequence[str]]:
        """The shared doc-id -> name table, when the result carries a bitmap."""
        return self._name_table

    @property
    def documents(self) -> FrozenSet[str]:
        """Matching document names (materialised lazily from the id bitmap)."""
        if self._documents is None:
            assert self._ids is not None and self._name_table is not None
            table = self._name_table
            if isinstance(table, np.ndarray):  # object array: one C-level gather
                self._documents = frozenset(table[self._ids].tolist())
            else:
                self._documents = frozenset(table[i] for i in self._ids)
        return self._documents

    def __contains__(self, name: str) -> bool:
        return name in self.documents

    def __len__(self) -> int:
        if self._documents is not None:
            return len(self._documents)
        assert self._ids is not None
        return int(self._ids.size)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QueryResult):
            return NotImplemented
        return (
            self.documents == other.documents
            and self.filters_probed == other.filters_probed
        )

    def __hash__(self) -> int:
        return hash((self.documents, self.filters_probed))

    def __repr__(self) -> str:
        return f"QueryResult(documents={set(self.documents)!r}, filters_probed={self.filters_probed})"


class MembershipIndex(abc.ABC):
    """Abstract multi-set membership index over named documents."""

    #: k-mer length used when a raw sequence is queried.
    k: int = DEFAULT_K

    @abc.abstractmethod
    def add_document(self, document: KmerDocument) -> None:
        """Insert one document (a named set of terms) into the index."""

    @abc.abstractmethod
    def query_term(self, term: Term) -> QueryResult:
        """Documents that (appear to) contain *term*."""

    @property
    @abc.abstractmethod
    def document_names(self) -> List[str]:
        """Names of the indexed documents, in insertion order."""

    @abc.abstractmethod
    def size_in_bytes(self) -> int:
        """Total serialized size of the index, auxiliary structures included."""

    # -- derived operations shared by all structures -------------------------------

    @property
    def num_documents(self) -> int:
        """Number of indexed documents ``K``."""
        return len(self.document_names)

    def add_documents(self, documents: Iterable[KmerDocument]) -> None:
        """Insert many documents."""
        for document in documents:
            self.add_document(document)

    def query_terms_batch(self, terms: Sequence[Term], method: str = "full") -> List[QueryResult]:
        """Independent (disjunctive) results for a batch of terms, one each.

        Default fallback loops :meth:`query_term`; bitmap-native structures
        (RAMBO, COBS) override this with a vectorised implementation that
        answers the whole batch with a handful of array operations.

        ``method`` selects the evaluation strategy for structures that have
        more than one (RAMBO's ``"full"`` vs ``"sparse"``); everything else
        validates and then ignores it, so callers can iterate structures
        uniformly.  The returned documents never depend on the method.
        """
        check_query_method(method)
        return [self.query_term(term) for term in terms]

    def query_terms(self, terms: Sequence[Term], method: str = "full") -> QueryResult:
        """Documents containing *every* term (Section 3.3.1's conjunction).

        Iterates terms and intersects the per-term results, stopping as soon
        as the intersection is empty — the paper's observation that "the first
        returned FALSE will be conclusive" and that the output is bounded by
        the rarest term's result.  ``method`` is honoured by structures with
        several evaluation strategies and validated-then-ignored by the rest.
        """
        check_query_method(method)
        documents: Optional[Set[str]] = None
        probes = 0
        for term in terms:
            result = self.query_term(term)
            probes += result.filters_probed
            if documents is None:
                documents = set(result.documents)
            else:
                documents &= result.documents
            if not documents:
                break
        if documents is None:
            documents = set(self.document_names)
        return QueryResult(documents=frozenset(documents), filters_probed=probes)

    def query_sequence(
        self, sequence: str, canonical: bool = False, method: str = "full"
    ) -> QueryResult:
        """Documents containing every k-mer of a nucleotide *sequence*.

        Large-sequence query of Section 3.3.1: the vectorised extraction
        kernel turns the sequence into a ``uint64`` k-mer-code array in a few
        numpy passes, and that array feeds the conjunctive term query (which
        the bitmap-native structures evaluate as one vectorised batch) — no
        per-k-mer Python anywhere between the raw text and the bitmaps.
        ``method`` is forwarded to :meth:`query_terms`.
        """
        kmers = extract_kmer_codes(sequence, k=self.k, canonical=canonical)
        if kmers.size == 0:
            raise ValueError(
                f"sequence of length {len(sequence)} yields no {self.k}-mers "
                "(too short or contains only ambiguous bases)"
            )
        return self.query_terms(kmers, method=method)

    def contains(self, name: str, term: Term) -> bool:
        """Whether document *name* (appears to) contain *term*."""
        return name in self.query_term(term).documents

    # -- planner hooks -------------------------------------------------------------

    def capabilities(self) -> dict:
        """What this structure can do — read by the planner and ``/stats``.

        The base record is honest for any scalar structure: every index
        answers both ``method`` spellings (validated-then-ignored when there
        is only one strategy), but only structures that really implement a
        second strategy set ``sparse`` (RAMBO's RAMBO+ pruning), and only
        disk-backed containers set ``mapped``.  Subclasses override to
        declare more.
        """
        return {
            "methods": list(QUERY_METHODS),
            "sparse": False,
            "mapped": bool(getattr(self, "is_mapped", False)),
            "batch_native": type(self).query_terms_batch
            is not MembershipIndex.query_terms_batch,
        }

    def estimate_selectivities(self, terms: Sequence[Term]) -> np.ndarray:
        """Cheap per-term selectivity estimates (fraction of docs matching).

        The planner uses these to rank backends and to order conjunctive
        AND chains rarest-term-first.  The base implementation knows
        nothing, so it returns the conservative 1.0 for every term —
        estimates may be wrong in either direction without affecting
        results, only plan quality.  Structures with cheap summaries
        (RAMBO's repetition-0 gather, the inverted index's exact postings)
        override this.
        """
        return np.ones(len(terms), dtype=np.float64)

    def cost_hints(self) -> dict:
        """Default cost-model constants per evaluation strategy.

        Order-of-magnitude priors used when no calibrated model sits next
        to the artifact (see :mod:`repro.plan.cost`): enough to rank the
        scalar fallback below any batch kernel, refined by
        ``repro-rambo calibrate`` on the actual machine.  Keys are backend
        names as the planner registers them; values are
        ``{setup, per_term, per_term_selectivity}`` in seconds.
        """
        return {
            "scalar-full": {
                "setup": 1e-5,
                "per_term": 1e-4,
                "per_term_selectivity": 2e-5,
            },
        }

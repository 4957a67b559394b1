"""The RAMBO index: a Count-Min-Sketch arrangement of Bloom filters.

Construction (Algorithm 1): ``R`` independent 2-universal partition hashes
``phi_1..phi_R`` each map a document name to one of ``B`` cells; the document's
terms are inserted into the Bloom Filter of the Union (BFU) at that cell in
every repetition.

Query (Algorithm 2): probe BFUs for the term, take the union of the document
sets of the hit BFUs within each repetition and the intersection across
repetitions.  Unions and intersections are vectorised bitmap operations, the
design choice Section 5.1 discusses.

Two query strategies are provided:

* ``method="full"`` probes all ``B × R`` BFUs (plain RAMBO).
* ``method="sparse"`` is RAMBO+ (Section 5.1 "Query time speedup"): repetition
  ``r`` only probes BFUs that still contain candidates surviving repetitions
  ``1..r-1``, because any other BFU cannot change the final intersection.

Both strategies exist in two forms: the scalar per-term path
(:meth:`Rambo.query_term`) and the bitmap-native batch engine
(:meth:`Rambo.query_terms_batch` / the conjunctive
:meth:`Rambo.query_terms`), which hashes every term in one vectorised pass
and evaluates all terms against all BFUs with a handful of array gathers.
The two paths return identical documents (and probe counts, for the
per-term form); the batch engine is several times faster on term batches.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.bloom.bitarray import BitArray, popcount_words, probe_words_batch, set_rows
from repro.bloom.bloom_filter import BloomFilter, _normalise_key, optimal_num_bits
from repro.core.analysis import optimal_partitions, repetitions_needed
from repro.core.base import (
    MembershipIndex,
    QueryResult,
    Term,
    check_query_method,
    iter_conjunction_slices,
    iter_term_chunks,
)
from repro.core.executor import get_num_threads, in_worker, parallel_map, shard_ranges
from repro.hashing.murmur3 import combine_seeds, double_hashes, double_hashes_batch
from repro.hashing.universal import PartitionHashFamily
from repro.kmers.extraction import DEFAULT_K, KmerDocument

#: Smallest document-shard the parallel write path hands a worker thread.
#: Each shard allocates a partial index, so tiny shards would pay the full
#: B x R x bfu_bits allocation for a handful of scatters.
MIN_DOCS_PER_SHARD = 4

#: Most candidate ``(term, document)`` pairs the batch query kernel expands
#: at once (two ``int64`` each, plus temporaries of that length).  A chunk
#: that would expand to more is halved into term ranges first, so a
#: saturated index costs time, never ``n_terms x K x 16`` bytes.
QUERY_PAIR_BUDGET = 1 << 22

#: Most terms one insert hash pass digests at once.  Its ``(terms, eta)``
#: position matrix is the write path's largest temporary, so a batch of
#: genome-sized documents costs passes, never memory in proportion to it.
TERMS_PER_HASH_PASS = 1 << 16


@dataclass(frozen=True)
class RamboConfig:
    """Static parameters of a RAMBO index.

    Attributes
    ----------
    num_partitions:
        ``B`` — number of BFUs per repetition.
    repetitions:
        ``R`` — number of independent repetitions (tables).
    bfu_bits:
        Size in bits of every BFU.
    bfu_hashes:
        Number of hash probes ``eta`` per key inside a BFU (the paper uses 2
        for the genomic experiments).
    k:
        k-mer length used when raw sequences are queried.
    seed:
        Master seed; all partition hashes and BFU hashes derive from it, which
        is what makes independently built shards mergeable and foldable.
    """

    num_partitions: int
    repetitions: int
    bfu_bits: int
    bfu_hashes: int = 2
    k: int = DEFAULT_K
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_partitions <= 0:
            raise ValueError(f"num_partitions must be positive, got {self.num_partitions}")
        if self.repetitions <= 0:
            raise ValueError(f"repetitions must be positive, got {self.repetitions}")
        if self.bfu_bits <= 0:
            raise ValueError(f"bfu_bits must be positive, got {self.bfu_bits}")
        if self.bfu_hashes <= 0:
            raise ValueError(f"bfu_hashes must be positive, got {self.bfu_hashes}")
        if not (1 <= self.k <= 31):
            raise ValueError(f"k must be in [1, 31], got {self.k}")

    @property
    def words_per_bfu(self) -> int:
        """``uint64`` words backing one BFU (``bfu_bits`` rounded up to whole words)."""
        return (self.bfu_bits + 63) // 64

    def to_dict(self) -> Dict[str, int]:
        """JSON-ready field mapping, the single schema every on-disk header uses.

        Inverse of :meth:`from_dict`; the v1/v2 index headers and the
        distributed manifest all serialise the config through this pair, so
        a new field only has to be added here.
        """
        return {
            "num_partitions": self.num_partitions,
            "repetitions": self.repetitions,
            "bfu_bits": self.bfu_bits,
            "bfu_hashes": self.bfu_hashes,
            "k": self.k,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, fields: Dict[str, int]) -> "RamboConfig":
        """Rebuild a config serialised by :meth:`to_dict`.

        Raises :class:`KeyError` for missing fields and :class:`ValueError`
        for out-of-range values (via ``__post_init__``).
        """
        return cls(
            num_partitions=fields["num_partitions"],
            repetitions=fields["repetitions"],
            bfu_bits=fields["bfu_bits"],
            bfu_hashes=fields["bfu_hashes"],
            k=fields["k"],
            seed=fields["seed"],
        )

    @classmethod
    def recommended(
        cls,
        num_documents: int,
        terms_per_document: float,
        fp_rate: float = 0.01,
        expected_multiplicity: float = 2.0,
        k: int = DEFAULT_K,
        seed: int = 0,
        bfu_hashes: int = 2,
        num_partitions: Optional[int] = None,
        repetitions: Optional[int] = None,
    ) -> "RamboConfig":
        """Section 5.1's parameter selection: the one sizing rule.

        * ``B`` is Lemma 4.4's optimum ``sqrt(K V / eta)``, at most ``K``.
        * ``R`` is Theorem 4.3's ``ceil(log K - log delta)`` divided by 4,
          at least 2: the bound is worst-case, and the paper's empirical
          R = 2 (McCortex) and R = 3 (FASTQ, K up to 2000) sit about a
          quarter of the way to it.
        * The BFU size is the Bloom size, at *fp_rate*, for the
          ``floor(c K / B)`` insertions a BFU expects (``c`` is
          *terms_per_document*, given or pooled by
          :func:`repro.core.config.configure_from_sample`).

        *num_partitions* / *repetitions* replace ``B`` / ``R`` as given.
        """
        if num_documents <= 0:
            raise ValueError(f"num_documents must be positive, got {num_documents}")
        if terms_per_document <= 0:
            raise ValueError(f"terms_per_document must be positive, got {terms_per_document}")
        if num_partitions is None:
            num_partitions = min(
                num_documents,
                optimal_partitions(num_documents, expected_multiplicity, bfu_hashes),
            )
        if repetitions is None:
            # The max() wraps the division deliberately: the bound // 4 is 0
            # for small K / lenient p, and R = 0 would fail __post_init__.
            repetitions = max(2, repetitions_needed(num_documents, fp_rate) // 4)
        expected_insertions = max(1, int(terms_per_document * num_documents / num_partitions))
        return cls(
            num_partitions=num_partitions,
            repetitions=repetitions,
            bfu_bits=optimal_num_bits(expected_insertions, fp_rate),
            bfu_hashes=bfu_hashes,
            k=k,
            seed=seed,
        )


class Rambo(MembershipIndex):
    """Repeated And Merged Bloom Filter index.

    One in-memory layout (docs/ARCHITECTURE.md, "Index layout"): ``R``
    ``(B, words)`` ``uint64`` bit planes whose row ``b`` is BFU ``(r, b)``,
    an ``(R, B)`` insert-count array, the document-name table and the
    ``assignments[r][doc_id]`` partition table.  Everything else a query
    reads is derived from those lazily.

    Parameters
    ----------
    config:
        Static parameters (see :class:`RamboConfig`).
    partition_family:
        Optional pre-built partition hash family.  Supplying one is how the
        distributed construction (Section 5.3) injects the two-level routing
        hash; by default an independent :class:`PartitionHashFamily` seeded
        from ``config.seed`` is created.
    """

    def __init__(
        self,
        config: RamboConfig,
        partition_family: Optional[PartitionHashFamily] = None,
    ) -> None:
        planes = [
            np.zeros((config.num_partitions, config.words_per_bfu), dtype=np.uint64)
            for _ in range(config.repetitions)
        ]
        assignments: List[List[int]] = [[] for _ in planes]
        self._adopt(config, planes, [], assignments, partition_family, None)

    @classmethod
    def from_planes(
        cls,
        config: RamboConfig,
        planes: Sequence[np.ndarray],
        names: List[str],
        assignments: List[List[int]],
        *,
        family: Optional[PartitionHashFamily] = None,
        items: Optional[np.ndarray] = None,
    ) -> "Rambo":
        """Assemble an index over existing bit planes, adopting every argument.

        The constructor behind :meth:`fold`, merging, shard stacking and
        both container formats.  *planes* are the ``R`` ``(B, words)``
        ``uint64`` payload matrices — process memory or a file mapping,
        writable or not — and are used as they are: ``add_documents``
        scatters straight into them and the batch engine gathers from them.
        *names* and *assignments* (``assignments[r][doc_id]`` in ``[0, B)``)
        are kept, not copied; *items* is the ``(R, B)`` insert-count array
        (zeros when omitted — the containers do not persist it) and
        *family* the partition hash family (seed-derived when omitted).

        Raises :class:`ValueError` when the planes or tables do not have the
        config's geometry.
        """
        shape = (config.num_partitions, config.words_per_bfu)
        if len(planes) != config.repetitions or any(
            plane.shape != shape or plane.dtype != np.uint64 for plane in planes
        ):
            raise ValueError(
                f"expected {config.repetitions} uint64 planes of shape {shape}"
            )
        if len(assignments) != config.repetitions or any(
            len(row) != len(names) for row in assignments
        ):
            raise ValueError("assignment tables do not match the name table")
        index = cls.__new__(cls)
        index._adopt(config, planes, names, assignments, family, items)
        return index

    def _adopt(self, config, planes, names, assignments, family, items) -> None:
        """The one place an index's storage is set (see :meth:`from_planes`)."""
        if family is None:
            family = PartitionHashFamily(
                num_partitions=config.num_partitions,
                repetitions=config.repetitions,
                seed=config.seed,
            )
        if family.repetitions != config.repetitions:
            raise ValueError(
                "partition family repetitions "
                f"({family.repetitions}) != config repetitions ({config.repetitions})"
            )
        if items is None:
            items = np.zeros((config.repetitions, config.num_partitions), dtype=np.int64)
        self.config = config
        self.k = config.k
        self._family = family
        self._planes = list(planes)
        self._items = items
        self._doc_names = names
        # name -> doc id, built on first use (see _ids): only inserts and
        # ``in`` read it, so opening or publishing an index never pays for it.
        self._doc_ids: Optional[Dict[str, int]] = None
        self._assignments = assignments
        self._invalidate_caches()

    def _invalidate_caches(self) -> None:
        """Reset every lazily-built query-acceleration structure."""
        self._member_arrays_dirty = True
        # Per-repetition (num_documents,) doc-id -> partition arrays.
        self._assignment_arrays: List[np.ndarray] = []
        # The batch engine's view: repetition 0's partition -> documents map
        # in CSR form (partition b holds the doc ids
        # _member_order[_member_offsets[b]:_member_offsets[b + 1]]) and the
        # doc id -> name table as an object array.
        self._member_order = self._member_offsets = self._name_array = None

    # -- storage accessors ------------------------------------------------------------

    @property
    def planes(self) -> List[np.ndarray]:
        """The ``R`` ``(B, words)`` bit planes — the payload itself, not a copy."""
        return self._planes

    @property
    def insert_counts(self) -> np.ndarray:
        """``(R, B)`` terms inserted per BFU (a build-side statistic, not persisted)."""
        return self._items

    @property
    def names(self) -> List[str]:
        """The document-name table itself; :attr:`document_names` is the copy."""
        return self._doc_names

    @property
    def assignments(self) -> List[List[int]]:
        """``assignments[r][doc_id]``: the document's partition in repetition ``r``."""
        return self._assignments

    def _ids(self) -> Dict[str, int]:
        if self._doc_ids is None:
            self._doc_ids = {name: i for i, name in enumerate(self._doc_names)}
        return self._doc_ids

    # -- construction -----------------------------------------------------------------

    @property
    def num_partitions(self) -> int:
        """Current number of partitions ``B`` (halves after each fold)."""
        return self.config.num_partitions

    @property
    def repetitions(self) -> int:
        """Number of repetitions ``R``."""
        return self.config.repetitions

    @property
    def document_names(self) -> List[str]:
        """Names of the indexed documents, in insertion order."""
        return list(self._doc_names)

    @property
    def num_documents(self) -> int:
        """Number of indexed documents ``K``."""
        return len(self._doc_names)

    def __contains__(self, name: str) -> bool:
        """Whether a document called *name* is indexed."""
        return name in self._ids()

    @property
    def is_mapped(self) -> bool:
        """Whether the BFU payload is served from a memory-mapped file."""
        owner = self._planes[0]
        while isinstance(owner, np.ndarray):  # row views -> ... -> the np.memmap
            if isinstance(owner, np.memmap):
                return True
            owner = owner.base
        return False

    @property
    def readonly(self) -> bool:
        """True for an index opened with ``open_index(..., mode="r")``.

        Read-only indexes answer every query but reject mutation
        (:meth:`add_document` and friends) with a clean :class:`ValueError`
        before any state changes.  An index mapped copy-on-write
        (``mode="c"``) is writable; its mutations live in anonymous memory
        and are never written back to the file.
        """
        return not self._planes[0].flags.writeable

    def _require_writable(self) -> None:
        if self.readonly:
            raise ValueError(
                "index is memory-mapped read-only; reopen with "
                "open_index(path, mode='c') for copy-on-write mutation"
            )

    def _partition_of(self, name: str, repetition: int) -> int:
        """Partition cell of a document, honouring any folds applied so far."""
        return self._family(name, repetition) % self.num_partitions

    def add_document(self, document: KmerDocument) -> None:
        """Insert a document (Algorithm 1).

        Thin wrapper over the batch pipeline of :meth:`add_documents`: the
        document's whole term set is hashed in one vectorised pass and the
        resulting position matrix is scattered into the ``R`` assigned BFUs.

        Duplicate names are rejected: RAMBO has no deletions, so re-adding a
        document would silently double its terms' multiplicities.
        """
        self.add_documents((document,))

    def add_documents(
        self, documents: Iterable[KmerDocument], *, parallel: bool = False
    ) -> None:
        """Insert a batch of documents through the vectorised write pipeline.

        Because every BFU shares its size, hash count and seed, a term's
        probe positions are identical in all ``R`` repetitions, so each term
        is hashed and each document's positions are reduced **once**:

        1. consecutive code-array documents are hashed together, up to
           :data:`TERMS_PER_HASH_PASS` terms per :func:`double_hashes_batch`
           pass (zero per-key Python work for integer k-mer codes);
        2. each document's positions are sorted and OR-reduced into
           ``(word, mask)`` pairs once and ORed into its ``R`` BFU rows with
           one fancy ``|=`` per row (:func:`repro.bloom.bitarray.set_rows`,
           the write-side twin of the batched query engine's gather).

        Cache invalidation is amortised across the whole batch.

        With ``parallel=True`` and more than one executor thread the batch
        is sharded into contiguous document chunks, each chunk builds a
        partial index on a worker thread (the hash and scatter kernels
        release the GIL), and the partials are absorbed back in order — the
        in-place form of the :func:`repro.core.parallel.merge_indexes`
        primitive: Bloom bits OR together and the bookkeeping concatenates
        with re-based doc ids, so the outcome is bit-identical to the
        sequential insert.  Memory-mapped indexes always insert inline
        (ORing whole partial planes into a copy-on-write mapping would
        dirty every page of the file).

        Bit-identical to inserting the documents one at a time through the
        scalar reference path (:meth:`add_document_scalar`) however the
        documents are batched: OR-scatter order does not matter.  Duplicate
        names (within the batch or against the index) and invalid term keys
        are rejected before any state is mutated.
        """
        docs = list(documents)
        if not docs:
            return
        self._require_writable()
        batch_names = set()
        keys = []
        for doc in docs:
            if doc.name in self or doc.name in batch_names:
                raise ValueError(f"document {doc.name!r} already indexed")
            batch_names.add(doc.name)
            keys.append(doc.validated_hash_keys())
        if parallel and not self.is_mapped and not in_worker():
            ranges = shard_ranges(len(docs), get_num_threads(), MIN_DOCS_PER_SHARD)
            if len(ranges) > 1:
                self._add_documents_sharded(docs, ranges)
                return
        rows = []
        for doc in docs:
            cells = self._register(doc.name)
            rows.append([self._planes[r][b] for r, b in cells])
            for r, b in cells:
                self._items[r, b] += len(doc)
        for slot, positions in self._hash_passes(keys):
            set_rows(rows[slot], positions, self.config.bfu_bits)
        self._invalidate_caches()

    def _register(self, name: str) -> List[tuple]:
        """Record a new document; returns its ``R`` BFU cells ``(r, b)``."""
        self._ids()[name] = len(self._doc_names)
        self._doc_names.append(name)
        cells = []
        for r, row in enumerate(self._assignments):
            b = self._partition_of(name, r)
            row.append(b)
            cells.append((r, b))
        return cells

    def _hash_passes(self, keys: List) -> Iterator[Tuple[int, np.ndarray]]:
        """``(slot, positions)`` pieces that together cover each ``keys[slot]``.

        Consecutive code-array documents share one :meth:`_probe_matrix`
        pass of at most :data:`TERMS_PER_HASH_PASS` terms, and a longer
        document is split across passes; string-term documents (``list``
        keys) are hashed on their own, in pieces of the same bound.
        """
        pending: List[Tuple[int, np.ndarray]] = []
        pending_terms = 0
        for slot, doc_keys in enumerate(keys):
            for start in range(0, len(doc_keys), TERMS_PER_HASH_PASS):
                piece = doc_keys[start : start + TERMS_PER_HASH_PASS]
                if not isinstance(piece, np.ndarray):
                    yield slot, self._probe_matrix(piece)
                    continue
                if pending_terms + len(piece) > TERMS_PER_HASH_PASS:
                    yield from self._hash_pending(pending)
                    pending, pending_terms = [], 0
                pending.append((slot, piece))
                pending_terms += len(piece)
        yield from self._hash_pending(pending)

    def _hash_pending(
        self, pending: List[Tuple[int, np.ndarray]]
    ) -> Iterator[Tuple[int, np.ndarray]]:
        """One hash pass over *pending*'s concatenated code pieces, split back per slot."""
        if not pending:
            return
        positions = self._probe_matrix(np.concatenate([piece for _, piece in pending]))
        offset = 0
        for slot, piece in pending:
            yield slot, positions[offset : offset + len(piece)]
            offset += len(piece)

    def _bits(self, repetition: int, partition: int) -> BitArray:
        """Row ``partition`` of a plane as a :class:`BitArray` over the same words."""
        return BitArray(self.config.bfu_bits, self._planes[repetition][partition])

    def _add_documents_sharded(
        self, docs: List[KmerDocument], ranges: List[tuple]
    ) -> None:
        """Threaded insert: per-chunk partial indexes, absorbed in order.

        Every chunk builds a fresh partial index against the *shared*
        partition family (hash families are immutable, so concurrent reads
        are safe) on the executor pool; the caller has already validated
        names and keys.  Absorption is sequential and in-place: a partial's
        planes OR into the live planes (order-independent), the insert
        counts sum, and the name and assignment tables extend — the same
        algebra :func:`repro.core.parallel.merge_indexes` applies to whole
        indexes, without materialising a merged copy.  Chunks are absorbed
        in input order, so doc ids come out exactly as a sequential insert
        would assign them.
        """
        partials = parallel_map(
            lambda span: self._build_partial_chunk(docs[span[0] : span[1]]), ranges
        )
        ids = self._ids()
        for partial in partials:
            for name in partial.names:
                ids[name] = len(self._doc_names)
                self._doc_names.append(name)
            for r, plane in enumerate(self._planes):
                self._assignments[r].extend(partial.assignments[r])
                np.bitwise_or(plane, partial.planes[r], out=plane)
            self._items += partial.insert_counts
        self._invalidate_caches()

    def _build_partial_chunk(self, docs: List[KmerDocument]) -> "Rambo":
        """One worker's partial index over a document chunk (inline insert)."""
        partial = Rambo(self.config, partition_family=self._family)
        partial.add_documents(docs)
        return partial

    def add_document_scalar(self, document: KmerDocument) -> None:
        """Reference per-term write path (the pre-batch implementation).

        Kept as the ground truth the construction-equivalence property tests
        and the Table 2 bench compare the vectorised pipeline against: one
        pure-Python MurmurHash3 digest per term, one ``set_many`` per
        (term, BFU) pair.  Must stay bit-identical to :meth:`add_document`.
        """
        self._require_writable()
        if document.name in self:
            raise ValueError(f"document {document.name!r} already indexed")
        cells = self._register(document.name)
        targets = [self._bits(r, b) for r, b in cells]
        for term in document.terms:
            positions = self._probe_positions(term)
            for bits in targets:
                bits.set_many(positions)
        for r, b in cells:
            self._items[r, b] += len(document.terms)
        self._invalidate_caches()

    def add_terms(self, name: str, terms: Union[Iterable[Term], np.ndarray]) -> None:
        """Convenience wrapper building a :class:`KmerDocument` on the fly.

        A numpy integer array of term codes is passed through as-is, so the
        whole reader → hash → scatter pipeline stays vectorised.
        """
        if isinstance(terms, np.ndarray):
            self.add_document(KmerDocument(name=name, terms=terms))
        else:
            self.add_document(KmerDocument(name=name, terms=frozenset(terms)))

    # -- query -------------------------------------------------------------------------

    def _refresh_member_arrays(self) -> None:
        if not self._member_arrays_dirty:
            return
        self._assignment_arrays = [
            np.asarray(row, dtype=np.int64) for row in self._assignments
        ]
        first = self._assignment_arrays[0]
        self._member_order = np.argsort(first, kind="stable")
        self._member_offsets = np.concatenate(
            ([0], np.cumsum(np.bincount(first, minlength=self.num_partitions)))
        )
        self._name_array = np.array(self._doc_names, dtype=object)
        self._member_arrays_dirty = False

    def _probe_positions(self, term: Term) -> List[int]:
        """Probe positions of *term*, valid for every BFU (shared size/seed)."""
        return double_hashes(
            _normalise_key(term),
            self.config.bfu_hashes,
            self.config.bfu_bits,
            combine_seeds(self.config.seed, 0xBF0),
        )

    def _probe_matrix(self, terms: Union[Sequence[Term], np.ndarray]) -> np.ndarray:
        """``(n_terms, eta)`` probe-position matrix, one vectorised hash pass.

        Term-code arrays (the form documents carry for genomic data) are
        digested whole; key normalisation for any other iterable is
        centralised in :func:`double_hashes_batch`.
        """
        return double_hashes_batch(
            terms,
            self.config.bfu_hashes,
            self.config.bfu_bits,
            combine_seeds(self.config.seed, 0xBF0),
        )

    def _hit_partitions(self, repetition: int, positions: Sequence[int]) -> np.ndarray:
        """Indices of the BFUs in *repetition* whose bits are all set at *positions*.

        The one-query special case of the shared batch kernel — one probe
        logic to harden and keep in sync, not two.
        """
        row = np.asarray(positions, dtype=np.int64)[None, :]
        return np.flatnonzero(probe_words_batch(self._planes[repetition], row)[0])

    def _hit_matrix(self, repetition: int, positions: np.ndarray) -> np.ndarray:
        """``(n_terms, B)`` membership verdict of every term against every BFU.

        Because every BFU shares size, hash count and seed, a term's probe
        positions are the same in all of them, so membership across the
        ``B`` filters is a handful of vectorised gathers on the plane.
        """
        return probe_words_batch(self._planes[repetition], positions)

    def _candidate_mask(self, hit_partitions: Iterable[int], repetition: int) -> np.ndarray:
        """Bitmap (bool array over doc ids) of the union of the hit BFUs' documents."""
        hit = np.zeros(self.num_partitions, dtype=bool)
        hit[hit_partitions] = True
        return hit[self._assignment_arrays[repetition]]

    def query_term(self, term: Term, method: str = "full") -> QueryResult:
        """Documents that appear to contain *term* (Algorithm 2).

        Parameters
        ----------
        term:
            k-mer code or word.
        method:
            ``"full"`` probes every BFU; ``"sparse"`` is the RAMBO+ pruning.
        """
        check_query_method(method)
        if not self._doc_names:
            return QueryResult(documents=frozenset(), filters_probed=0)
        self._refresh_member_arrays()
        if method == "full":
            return self._query_full(term)
        return self._query_sparse(term)

    def _query_full(self, term: Term) -> QueryResult:
        positions = self._probe_positions(term)
        probes = 0
        final_mask: Optional[np.ndarray] = None
        for r in range(self.repetitions):
            probes += self.num_partitions
            hits = self._hit_partitions(r, positions)
            mask = self._candidate_mask(hits, r)
            final_mask = mask if final_mask is None else (final_mask & mask)
            if not final_mask.any():
                break
        assert final_mask is not None
        return QueryResult.from_mask(final_mask, self._doc_names, filters_probed=probes)

    def _query_sparse(self, term: Term) -> QueryResult:
        """RAMBO+ query: later repetitions only probe BFUs holding survivors."""
        positions = self._probe_positions(term)
        probes = 0
        final_mask: Optional[np.ndarray] = None
        for r in range(self.repetitions):
            if final_mask is None:
                candidate_partitions = np.arange(self.num_partitions, dtype=np.int64)
            else:
                surviving_ids = np.flatnonzero(final_mask)
                assignments = self._assignment_arrays[r]
                candidate_partitions = np.unique(assignments[surviving_ids])
            probes += int(candidate_partitions.size)
            all_hits = self._hit_partitions(r, positions)
            hits = np.intersect1d(all_hits, candidate_partitions, assume_unique=True)
            mask = self._candidate_mask(hits, r)
            final_mask = mask if final_mask is None else (final_mask & mask)
            if not final_mask.any():
                break
        assert final_mask is not None
        return QueryResult.from_mask(final_mask, self._doc_names, filters_probed=probes)

    # -- batched query (the bitmap-native engine) ---------------------------------------

    def query_terms_batch(self, terms: Sequence[Term], method: str = "full") -> List[QueryResult]:
        """Independent results for a whole batch of terms in one array pass.

        Equivalent to ``[self.query_term(t, method=method) for t in terms]``
        (identical documents and probe counts per term) but evaluated as
        flat arrays: one vectorised hash pass, one byte gather per
        repetition testing every term against every BFU, and a list of
        candidate ``(term, document)`` pairs the repetitions filter down to
        the answer (:meth:`_chunk_pairs`) — cost follows a term's
        candidates, not ``K``.  Always runs on the calling thread: sharding
        the kernel's few dozen short numpy calls over the pool bought at
        most 1.17x at 2 threads and lost at 4 (docs/ARCHITECTURE.md,
        "Parallel execution").
        """
        check_query_method(method)
        terms = list(terms)
        if not terms:
            return []
        if not self._doc_names:
            return [QueryResult(documents=frozenset(), filters_probed=0) for _ in terms]
        self._refresh_member_arrays()
        # Chunk huge batches so the (n_terms, B) intermediates stay bounded;
        # each chunk is independent, so results just concatenate.
        results: List[QueryResult] = []
        for chunk in iter_term_chunks(terms):
            for pairs in self._chunk_pairs(self._probe_matrix(chunk), method):
                results.extend(QueryResult.batch_from_pairs(*pairs, self._name_array))
        return results

    def _chunk_pairs(self, positions: np.ndarray, method: str):
        """The survivor-list kernel: matching ``(term, doc)`` pairs of a chunk.

        Each repetition-0 hit expands, through the CSR member list, to one
        ``(term, document of the hit BFU)`` pair; repetition ``r >= 1`` keeps
        a pair iff the term hits the document's BFU there, and what survives
        all ``R`` filters is the answer (docs/ARCHITECTURE.md, "The batch
        query dataflow").  ``method`` changes only the probe accounting,
        which mirrors the scalar reference: a term stops counting once it
        has no pair left (the early exit); ``full`` counts all ``B`` BFUs
        per live repetition, ``sparse`` the distinct BFUs its surviving
        pairs sit in.

        Yields ``(pair_terms, pair_docs, probes)`` for consecutive term
        ranges tiling the chunk — one range, unless the expansion would
        exceed :data:`QUERY_PAIR_BUDGET` and the chunk is halved.
        ``probes`` has one entry per term of the range and ``pair_terms``
        counts from its first term.  Takes the probe matrix so the
        distributed layer hashes a chunk once for all shards; the caller
        runs :meth:`_refresh_member_arrays`.
        """
        num_terms, num_partitions = len(positions), self.num_partitions
        offsets = self._member_offsets
        # Repetition 0's hits as flat (term, partition) lists, term-major.
        hit_terms, hit_partitions = np.divmod(
            np.flatnonzero(self._hit_matrix(0, positions)), num_partitions
        )
        # A hit expands to one pair per document of its BFU, so the pair
        # count is known before anything is expanded.
        hit_sizes = np.diff(offsets)[hit_partitions]
        hit_ends = np.cumsum(hit_sizes)
        if num_terms > 1 and hit_ends.size and hit_ends[-1] > QUERY_PAIR_BUDGET:
            yield from self._chunk_pairs(positions[: num_terms // 2], method)
            yield from self._chunk_pairs(positions[num_terms // 2 :], method)
            return
        pair_terms = np.repeat(hit_terms, hit_sizes)
        # Pair i belongs to the hit whose run of hit_sizes pairs contains i:
        # member (i - the run's start) of that hit's BFU.
        members = np.repeat(offsets[hit_partitions] - hit_ends + hit_sizes, hit_sizes)
        members += np.arange(members.size)
        pair_docs = self._member_order.take(members)
        probes = np.full(num_terms, num_partitions, dtype=np.int64)
        for r in range(1, self.repetitions):
            if not pair_terms.size:
                break
            # Each pair's (BFU, term) cell in the flat (B, n) verdict.
            cells = self._assignment_arrays[r].take(pair_docs)
            cells *= num_terms
            cells += pair_terms
            if method == "full":
                live = np.zeros(num_terms, dtype=bool)
                live[pair_terms] = True
                probes[live] += num_partitions
            else:
                candidates = np.zeros((num_partitions, num_terms), dtype=bool)
                candidates.ravel()[cells] = True
                probes += np.count_nonzero(candidates, axis=0)
            kept = np.flatnonzero(self._hit_matrix(r, positions).T.ravel().take(cells))
            pair_terms, pair_docs = pair_terms.take(kept), pair_docs.take(kept)
        yield pair_terms, pair_docs, probes

    def query_terms(self, terms: Sequence[Term], method: str = "full") -> QueryResult:
        """Conjunctive query over several terms, evaluated as one batch.

        The cross-term intersection and the cross-repetition intersection
        both happen on bool arrays: per repetition, a term hits a document
        iff it hits the document's BFU, and because every term shares the
        partition assignment the AND over terms collapses to an AND over the
        ``(n_terms, B)`` hit matrix before it is ever expanded to doc ids.
        The early exit ("the first returned FALSE is conclusive") fires as
        soon as the running intersection bitmap empties.
        """
        check_query_method(method)
        terms = list(terms)
        if not terms:
            return QueryResult(documents=frozenset(self._doc_names), filters_probed=0)
        if not self._doc_names:
            return QueryResult(documents=frozenset(), filters_probed=0)
        self._refresh_member_arrays()
        conjunction = np.ones(len(self._doc_names), dtype=bool)
        probes = 0
        # Ramped term slices AND into the same running bitmap; a slice that
        # empties the intersection makes every later slice unnecessary.
        for chunk in iter_conjunction_slices(terms):
            probes += self._conjunction_chunk(list(chunk), conjunction, method)
            if not conjunction.any():
                break
        return QueryResult.from_mask(conjunction, self._doc_names, filters_probed=probes)

    def _conjunction_chunk(
        self, terms: List[Term], conjunction: np.ndarray, method: str
    ) -> int:
        """AND one term chunk into *conjunction* in place; returns probes.

        A repetition's plane is gathered when the loop reaches it, so a
        chunk that empties the intersection never reads the later planes.
        """
        num_terms = len(terms)
        positions = self._probe_matrix(terms)
        probes = 0
        for r in range(self.repetitions):
            # (n_terms, B) membership verdicts for repetition r.
            hits = self._hit_matrix(r, positions)
            assignment = self._assignment_arrays[r]
            if method == "full" or r == 0:
                probes += self.num_partitions * num_terms
            else:
                surviving_partitions = np.unique(assignment[conjunction])
                probes += int(surviving_partitions.size) * num_terms
                allowed = np.zeros(self.num_partitions, dtype=bool)
                allowed[surviving_partitions] = True
                hits &= allowed[None, :]
            # AND over terms first (all terms share the assignment mapping),
            # then expand the surviving partitions to a doc bitmap.
            conjunction &= hits.all(axis=0)[assignment]
            if not conjunction.any():
                break
        return probes

    # -- planner hooks -------------------------------------------------------------------

    def capabilities(self) -> dict:
        """RAMBO's planner-facing record: both methods are real strategies."""
        record = super().capabilities()
        record["sparse"] = True
        record["mapped"] = self.is_mapped
        return record

    def estimate_selectivities(self, terms: Sequence[Term]) -> np.ndarray:
        """Per-term selectivity estimates from one repetition-0 gather.

        For each term, the documents that *can* match are exactly the union
        of the repetition-0 BFUs the term hits, so summing those partitions'
        document counts (each doc sits in one partition per repetition)
        bounds the match fraction from above at the cost of ``1/R`` of a
        full query.  Later repetitions only shrink the set, so the estimate
        is a safe over-approximation — good for ranking terms and backends,
        never consulted for results.
        """
        terms = list(terms) if not isinstance(terms, np.ndarray) else terms
        if len(terms) == 0:
            return np.zeros(0, dtype=np.float64)
        if not self._doc_names:
            return np.zeros(len(terms), dtype=np.float64)
        self._refresh_member_arrays()
        positions = self._probe_matrix(terms)
        hits = self._hit_matrix(0, positions)  # (n_terms, B) bool
        partition_docs = np.diff(self._member_offsets).astype(np.float64)
        estimates = hits.astype(np.float64) @ partition_docs / len(self._doc_names)
        return np.clip(estimates, 0.0, 1.0)

    def cost_hints(self) -> dict:
        """Priors for the three evaluation strategies over this artifact.

        Scaled by the repetition count (all work is linear in ``R``).  The
        batch priors are a ``CostModel.fit_from_grid`` on the benchmark
        corpus (K = 1000, B = 89, R = 3): both run the same gathers and pair
        filters, so ``sparse`` is ``full`` plus its distinct-BFU count —
        slightly dearer everywhere — and the selectivity slope dominates
        because the work follows a term's candidate pairs.  The scalar
        reference measured 11-20x slower than the batch kernel there.
        """
        r = max(self.repetitions, 1)
        hints = super().cost_hints()
        hints.update(
            {
                "batch-full": {
                    "setup": 1e-4,
                    "per_term": 0.6e-6 * r,
                    "per_term_selectivity": 7.5e-6 * r,
                },
                "batch-sparse": {
                    "setup": 1e-4,
                    "per_term": 0.7e-6 * r,
                    "per_term_selectivity": 8.5e-6 * r,
                },
                "scalar-full": {
                    "setup": 1e-5,
                    "per_term": 5e-5 * r,
                    "per_term_selectivity": 1e-5 * r,
                },
            }
        )
        return hints

    # -- fold-over ----------------------------------------------------------------------

    def fold(self) -> "Rambo":
        """Return a new index with ``B/2`` partitions (Section 5.3 fold-over).

        BFU ``b`` of the folded index is the bitwise OR of BFUs ``b`` and
        ``b + B/2``, and inherits the union of their document sets.  Memory
        halves; the false-positive rate rises because each BFU now merges
        twice as many documents.  Requires an even ``B``.
        """
        if self.num_partitions % 2 != 0:
            raise ValueError(
                f"cannot fold an index with an odd number of partitions ({self.num_partitions})"
            )
        half = self.num_partitions // 2
        # The folded index keeps the *original* partition family: new
        # insertions reduce its output mod the folded B, exactly like the
        # re-mapped assignments.
        return Rambo.from_planes(
            replace(self.config, num_partitions=half),
            [plane[:half] | plane[half:] for plane in self._planes],
            list(self._doc_names),
            [[cell % half for cell in row] for row in self._assignments],
            family=self._family,
            items=self._items[:, :half] + self._items[:, half:],
        )

    # -- accounting ------------------------------------------------------------------------

    def size_in_bytes(self) -> int:
        """Index size: BFU payloads plus the bucket → document-id mapping.

        Mirrors the paper's convention that the reported size includes the
        auxiliary inverted map from buckets to documents.
        """
        return sum(self.size_components().values())

    def size_components(self) -> Dict[str, int]:
        """Byte count per component (used by the size-report utilities)."""
        return {
            "bfus": 8 * self.repetitions * self.num_partitions * self.config.words_per_bfu,
            # Each (repetition, doc) assignment is one 4-byte bucket id; each
            # document name is stored once.
            "assignments": 4 * self.repetitions * len(self._doc_names),
            "names": sum(len(name.encode("utf-8")) for name in self._doc_names),
        }

    def fill_ratios(self) -> List[List[float]]:
        """Per-BFU fill ratios, ``[repetition][partition]`` (diagnostics)."""
        bits = self.config.bfu_bits
        return [[popcount_words(row) / bits for row in plane] for plane in self._planes]

    def bfu(self, repetition: int, partition: int) -> BloomFilter:
        """BFU ``(repetition, partition)`` as a :class:`BloomFilter` *view*.

        Built on demand over row ``partition`` of the repetition's plane:
        ``.bits.words`` shares memory with what the query kernels probe, so
        editing the bits edits the index.  ``num_items`` is the insert count
        at the time of the call; assigning it changes only the view.
        """
        return BloomFilter.from_parts(
            self.config.bfu_bits,
            self.config.bfu_hashes,
            combine_seeds(self.config.seed, 0xBF0),
            self._bits(repetition, partition),
            num_items=int(self._items[repetition, partition]),
        )

    def partition_members(self, repetition: int, partition: int) -> List[str]:
        """Names of the documents merged into BFU ``(repetition, partition)``."""
        return [
            name
            for name, cell in zip(self._doc_names, self._assignments[repetition])
            if cell == partition
        ]

    def __repr__(self) -> str:
        return (
            f"Rambo(B={self.num_partitions}, R={self.repetitions}, "
            f"bfu_bits={self.config.bfu_bits}, documents={self.num_documents})"
        )

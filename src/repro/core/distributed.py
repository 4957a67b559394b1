"""Distributed RAMBO construction (Section 5.3).

The paper indexes the full 170TB archive by giving each of 100 nodes its own
small RAMBO (``b`` partitions, ``R`` repetitions) and routing every document to
exactly one node with a hash ``tau``.  Inside the node, the node-local
2-universal hash ``phi_i`` picks the BFU.  The composed mapping
``b * tau(D) + phi_i(D)`` is again 2-universal over the stacked range
``B = num_nodes * b``, so stacking the shards vertically yields a RAMBO that
is *identical in distribution* to one built on a single machine with the
larger ``B`` — and, because every shard uses the same seeds and BFU
parameters, the stack can subsequently be folded over.

:class:`DistributedRambo` models that construction;
:func:`stack_shards` materialises the single stacked index used by the
fold-over experiments (Table 4).
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from repro.core.base import (
    MembershipIndex,
    QueryResult,
    Term,
    check_query_method,
    iter_conjunction_slices,
    iter_term_chunks,
)
from repro.core.executor import parallel_map
from repro.core.rambo import Rambo, RamboConfig
from repro.core.serialization import open_index, save_index
from repro.hashing.universal import PartitionHashFamily, TwoLevelPartitionHash
from repro.kmers.extraction import KmerDocument


class DistributedRambo(MembershipIndex):
    """A RAMBO sharded across simulated nodes with two-level hash routing.

    Parameters
    ----------
    num_nodes:
        Number of machines in the simulated cluster.
    node_config:
        RAMBO parameters of every node-local shard (``num_partitions`` here is
        the per-node ``b``; the stacked index has ``B = num_nodes * b``).
    """

    def __init__(self, num_nodes: int, node_config: RamboConfig) -> None:
        if num_nodes <= 0:
            raise ValueError(f"num_nodes must be positive, got {num_nodes}")
        self.num_nodes = num_nodes
        self.node_config = node_config
        self.k = node_config.k
        self._router = TwoLevelPartitionHash(
            num_nodes=num_nodes,
            partitions_per_node=node_config.num_partitions,
            repetitions=node_config.repetitions,
            seed=node_config.seed,
        )
        # Every node shares the same node-local partition family (same seed),
        # which is what allows stacking and folding later.
        shared_family = PartitionHashFamily(
            num_partitions=node_config.num_partitions,
            repetitions=node_config.repetitions,
            seed=node_config.seed,
        )
        self._shards: List[Rambo] = [
            Rambo(node_config, partition_family=shared_family) for _ in range(num_nodes)
        ]
        self._doc_node: Dict[str, int] = {}
        self._doc_names: List[str] = []
        # Cached shard-local -> global doc-id arrays (rebuilt after inserts).
        self._id_maps: Optional[List[np.ndarray]] = None

    # -- construction ---------------------------------------------------------------

    @property
    def shards(self) -> Sequence[Rambo]:
        """The node-local shards (read-only)."""
        return tuple(self._shards)

    @property
    def document_names(self) -> List[str]:
        """Names of the indexed documents, in global insertion order."""
        return list(self._doc_names)

    @property
    def readonly(self) -> bool:
        """True when the shards are served from read-only memory-mapped files."""
        return any(shard.readonly for shard in self._shards)

    def node_of(self, name: str) -> int:
        """Which node the router assigns a document name to."""
        return self._router.node_of(name)

    def add_document(self, document: KmerDocument) -> None:
        """Route the document to its node and insert it there (no data movement)."""
        self.add_documents((document,))

    def add_documents(
        self, documents: Iterable[KmerDocument], *, parallel: bool = False
    ) -> None:
        """Route a whole batch: group by node, one batched shard insert each.

        Each shard receives its documents through :meth:`Rambo.add_documents`
        (one vectorised hash pass per document, cache invalidation amortised
        per shard batch), and the shard-local → global doc-id maps are
        invalidated once for the whole batch instead of per document.
        Duplicate names and invalid term keys are rejected before any shard
        or bookkeeping state is mutated, so a failed batch leaves the index
        exactly as it was.

        With ``parallel=True`` the per-node inserts run concurrently on the
        executor thread pool — the paper's construction parallelism: routing
        makes the node batches disjoint, every shard is mutated by exactly
        one worker, and the global bookkeeping is recorded afterwards in
        input order, so the result is bit-identical to the serial loop.
        """
        docs = list(documents)
        if not docs:
            return
        if self.readonly:
            raise ValueError(
                "distributed index is memory-mapped read-only; reopen with "
                "open_mmap(directory, mode='c') for copy-on-write mutation"
            )
        batch_names = set()
        for doc in docs:
            if doc.name in self._doc_node or doc.name in batch_names:
                raise ValueError(f"document {doc.name!r} already indexed")
            batch_names.add(doc.name)
            doc.validated_hash_keys()  # surface key errors before mutating
        routed = [(doc, self.node_of(doc.name)) for doc in docs]
        per_node: Dict[int, List[KmerDocument]] = {}
        for doc, node in routed:
            per_node.setdefault(node, []).append(doc)
        node_batches = list(per_node.items())
        if parallel:
            parallel_map(
                lambda entry: self._shards[entry[0]].add_documents(entry[1]),
                node_batches,
            )
        else:
            for node, batch in node_batches:
                self._shards[node].add_documents(batch)
        # Global bookkeeping is recorded only after every shard insert
        # succeeded (which validation above guarantees), in input order.
        for doc, node in routed:
            self._doc_node[doc.name] = node
            self._doc_names.append(doc.name)
        self._id_maps = None

    # -- query -----------------------------------------------------------------------

    def query_term(self, term: Term, method: str = "full") -> QueryResult:
        """Union of the per-node answers.

        Each document lives in exactly one shard, so its membership is decided
        entirely by that shard's own R-fold intersection; the global answer is
        the union of shard answers.
        """
        return self.query_terms_batch([term], method=method)[0]

    def _shard_id_maps(self) -> List[np.ndarray]:
        """Per-shard arrays mapping shard-local doc ids to global doc ids (cached)."""
        if self._id_maps is None:
            global_ids = {name: i for i, name in enumerate(self._doc_names)}
            self._id_maps = [
                np.asarray(
                    [global_ids[name] for name in shard.document_names], dtype=np.int64
                )
                for shard in self._shards
            ]
        return self._id_maps

    def _chunk_pairs(self, chunk: List[Term], method: str):
        """Global ``(pair_terms, pair_docs, probes)`` of one term chunk.

        Every shard answers the chunk with its own survivor-list kernel
        (:meth:`Rambo._chunk_pairs`); its matching ``(term, doc)`` pairs are
        renumbered to global doc ids through the shard's id map and the
        shard lists concatenated — documents live in exactly one shard, so
        the concatenation is the union and no pair repeats.  Shared by the
        batch and conjunctive query paths.

        Non-empty shards are fanned out across the executor thread pool
        (``REPRO_THREADS`` / ``set_num_threads``) — each node answers over
        its own (possibly memory-mapped) bit planes, the paper's many-nodes
        serving layout collapsed onto one machine's cores — and combined in
        node order, so the result is bit-identical to the serial loop.
        """
        # Every shard shares BFU geometry and seed, so the chunk is hashed
        # once and the position matrix reused across the cluster.
        positions = self._shards[0]._probe_matrix(chunk)  # noqa: SLF001
        populated = [
            (shard, id_map)
            for shard, id_map in zip(self._shards, self._shard_id_maps())
            if id_map.size
        ]

        def shard_pairs(entry):
            shard, id_map = entry
            # Safe under the fan-out: each shard is touched by exactly one
            # worker, so its lazily-built caches see no concurrent writers.
            shard._refresh_member_arrays()  # noqa: SLF001
            return [
                (terms, id_map[docs], counts)
                for terms, docs, counts in shard._chunk_pairs(positions, method)  # noqa: SLF001
            ]

        pair_terms, pair_docs = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
        probes = np.zeros(len(chunk), dtype=np.int64)
        for ranges in parallel_map(shard_pairs, populated):
            first = 0  # a shard's term ranges tile the chunk in order
            for terms, docs, counts in ranges:
                pair_terms.append(first + terms)
                pair_docs.append(docs)
                probes[first : first + len(counts)] += counts
                first += len(counts)
        return np.concatenate(pair_terms), np.concatenate(pair_docs), probes

    def query_terms_batch(self, terms: Sequence[Term], method: str = "full") -> List[QueryResult]:
        """Batched union across shards, combined as global doc-id pair lists."""
        check_query_method(method)
        terms = list(terms)
        if not terms:
            return []
        names = np.array(self._doc_names, dtype=object)
        results: List[QueryResult] = []
        # Chunked like the shard engines so the per-chunk intermediates stay
        # bounded.
        for chunk in iter_term_chunks(terms):
            results.extend(
                QueryResult.batch_from_pairs(*self._chunk_pairs(list(chunk), method), names)
            )
        return results

    def query_terms(self, terms: Sequence[Term], method: str = "full") -> QueryResult:
        """Conjunctive query: a document must match every term.

        Ramped term slices AND into one running bitmap so the early exit
        ("the first returned FALSE is conclusive") fires after a few dozen
        terms when the intersection dies early: once it empties, no later
        slice is evaluated on any shard.
        """
        check_query_method(method)
        terms = list(terms)
        if not terms:
            return QueryResult(documents=frozenset(self._doc_names), filters_probed=0)
        num_docs = len(self._doc_names)
        conjunction = np.ones(num_docs, dtype=bool)
        probes = 0
        for chunk in iter_conjunction_slices(terms):
            _, pair_docs, chunk_probes = self._chunk_pairs(list(chunk), method)
            probes += int(chunk_probes.sum())
            # Each (term, doc) match is listed once, so a document matching
            # the whole slice appears exactly len(chunk) times.
            conjunction &= np.bincount(pair_docs, minlength=num_docs) == len(chunk)
            if not conjunction.any():
                break
        return QueryResult.from_mask(conjunction, self._doc_names, filters_probed=probes)

    # -- persistence -------------------------------------------------------------------

    def save_mmap(self, directory) -> int:
        """Write the cluster as one shard file per node plus a manifest.

        *directory* receives ``manifest.json`` (cluster geometry and the
        global document order) and ``shard-NNNN.rambo`` — each node's RAMBO
        in the zero-copy ``RAMBO2`` container, written with
        :func:`repro.core.serialization.save_index`.  One file per node mirrors
        the paper's deployment: every query node maps only the shards it
        hosts.  Returns the total number of bytes written.
        """
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        manifest = {
            "format_version": 2,
            "kind": "distributed-rambo",
            "num_nodes": self.num_nodes,
            "node_config": self.node_config.to_dict(),
            "document_names": list(self._doc_names),
        }
        manifest_path = directory / "manifest.json"
        manifest_path.write_text(json.dumps(manifest, separators=(",", ":")))
        total = manifest_path.stat().st_size
        for node, shard in enumerate(self._shards):
            total += save_index(shard, directory / f"shard-{node:04d}.rambo")
        return total

    @classmethod
    def open_mmap(cls, directory, mode: str = "r") -> "DistributedRambo":
        """Open a cluster written by :meth:`save_mmap`, mapping every shard.

        Reads only the manifest and the per-shard headers; shard payloads
        are memory-mapped, so opening a 100-node cluster costs 100 header
        reads regardless of the payload size.  ``mode`` is forwarded to
        every shard (``"r"`` read-only, ``"c"`` copy-on-write).

        Raises :class:`ValueError` if the manifest is missing fields or of
        the wrong kind/version, and
        :class:`repro.io.diskformat.DiskFormatError` for malformed shard
        files.
        """
        directory = Path(directory)
        manifest = json.loads((directory / "manifest.json").read_text())
        if manifest.get("kind") != "distributed-rambo":
            raise ValueError(f"{directory} does not hold a distributed RAMBO index")
        if manifest.get("format_version") != 2:
            raise ValueError(
                f"{directory} has unsupported manifest version "
                f"{manifest.get('format_version')!r}"
            )
        node_config = RamboConfig.from_dict(manifest["node_config"])
        num_nodes = int(manifest["num_nodes"])
        # Assemble without the constructor so no throwaway empty shards (and
        # their zeroed BFU payloads) are ever allocated.
        cluster = cls.__new__(cls)
        cluster.num_nodes = num_nodes
        cluster.node_config = node_config
        cluster.k = node_config.k
        cluster._router = TwoLevelPartitionHash(
            num_nodes=num_nodes,
            partitions_per_node=node_config.num_partitions,
            repetitions=node_config.repetitions,
            seed=node_config.seed,
        )
        cluster._shards = [
            open_index(directory / f"shard-{node:04d}.rambo", mode=mode)
            for node in range(num_nodes)
        ]
        cluster._doc_names = list(manifest["document_names"])
        cluster._doc_node = {
            name: node
            for node, shard in enumerate(cluster._shards)
            for name in shard.document_names
        }
        if set(cluster._doc_node) != set(cluster._doc_names):
            raise ValueError(
                f"{directory} manifest document list disagrees with the shard files"
            )
        cluster._id_maps = None
        return cluster

    # -- accounting --------------------------------------------------------------------

    def size_in_bytes(self) -> int:
        """Total size across every shard."""
        return sum(shard.size_in_bytes() for shard in self._shards)

    def documents_per_node(self) -> List[int]:
        """Document count per node (load-balance diagnostic; ~K/nodes expected)."""
        counts = [0] * self.num_nodes
        for node in self._doc_node.values():
            counts[node] += 1
        return counts

    def insertions_per_node(self) -> List[int]:
        """Term-insertion work per node, the quantity that sets the makespan."""
        return [
            int(shard.insert_counts.sum()) // shard.repetitions for shard in self._shards
        ]

    def __repr__(self) -> str:
        return (
            f"DistributedRambo(nodes={self.num_nodes}, b={self.node_config.num_partitions}, "
            f"R={self.node_config.repetitions}, documents={len(self._doc_names)})"
        )


def stack_shards(distributed: DistributedRambo) -> Rambo:
    """Stack the node shards vertically into one single-machine RAMBO.

    The stacked index has ``B = num_nodes * b`` partitions; BFU
    ``(r, node * b + local_b)`` is exactly shard ``node``'s BFU
    ``(r, local_b)`` (same bits, same document members).  The result is
    query-equivalent to the distributed index and, crucially, can be folded
    over (Table 4) because all shards share BFU size, hash count and seed.
    """
    node_config = distributed.node_config
    b = node_config.num_partitions
    shards = distributed.shards
    repetitions = range(node_config.repetitions)
    # Global document id space: shard documents node by node; a document's
    # stacked partition is its node's block plus its node-local partition.
    return Rambo.from_planes(
        replace(node_config, num_partitions=distributed.num_nodes * b),
        [np.concatenate([shard.planes[r] for shard in shards]) for r in repetitions],
        [name for shard in shards for name in shard.names],
        [
            [
                node * b + cell
                for node, shard in enumerate(shards)
                for cell in shard.assignments[r]
            ]
            for r in repetitions
        ],
        family=distributed._router.global_family(),  # noqa: SLF001
        items=np.concatenate([shard.insert_counts for shard in shards], axis=1),
    )

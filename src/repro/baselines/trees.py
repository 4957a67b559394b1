"""The tree-of-Bloom-filters baselines: SBT, SSBT and HowDeSBT.

Each indexes K documents as a binary tree whose leaves are per-document
Bloom filters of one shared geometry, and answers a term by walking down
from the root, pruning every subtree that cannot hold it.
:class:`_TreeIndex` owns what they share.  :class:`SequenceBloomTree` keeps
one union filter per node; :class:`SplitSequenceBloomTree` and
:class:`HowDeSbt` are one split tree (:class:`_SplitTree`) under two
encodings of each node's (intersection, union) pair; they differ here only
in their default hash count and in which vector their node test reads first.
"""

from __future__ import annotations

from typing import List, Optional, Type, TypeVar

import numpy as np

from repro.bloom.bitarray import BitArray
from repro.bloom.bloom_filter import BloomFilter, _normalise_key, optimal_num_bits
from repro.core.base import MembershipIndex, QueryResult, Term
from repro.hashing.murmur3 import double_hashes, double_hashes_batch
from repro.kmers.extraction import DEFAULT_K, KmerDocument

_Tree = TypeVar("_Tree", bound="_TreeIndex")


class _Node:
    """Tree links shared by every node type (both children or neither)."""

    __slots__ = ("left", "right")

    def __init__(self, left: Optional["_Node"] = None, right: Optional["_Node"] = None) -> None:
        self.left = left
        self.right = right

    @property
    def is_leaf(self) -> bool:
        return self.left is None


class _TreeIndex(MembershipIndex):
    """Geometry, name table, leaf filter, node walk and sizes of a Bloom-filter tree.

    Every node filter has ``num_bits`` bits, ``num_hashes`` probes per term
    and the hash ``seed``, so unions and intersections are meaningful; ``k``
    is the k-mer length for raw-sequence queries.
    """

    #: ``num_bits`` vectors stored per node, for :meth:`size_in_bytes`.
    _VECTORS_PER_NODE = 1

    def __init__(
        self,
        num_bits: int,
        num_hashes: int = 1,
        k: int = DEFAULT_K,
        seed: int = 0,
    ) -> None:
        if num_bits <= 0:
            raise ValueError(f"num_bits must be positive, got {num_bits}")
        if num_hashes <= 0:
            raise ValueError(f"num_hashes must be positive, got {num_hashes}")
        self.num_bits = num_bits
        self.num_hashes = num_hashes
        self.k = k
        self.seed = seed
        self._names: List[str] = []
        self._root: Optional[_Node] = None

    @classmethod
    def for_capacity(
        cls: Type[_Tree],
        terms_per_document: int,
        fp_rate: float = 0.01,
        num_hashes: int = 1,
        k: int = DEFAULT_K,
        seed: int = 0,
    ) -> _Tree:
        """Size node filters for the expected per-document cardinality."""
        num_bits = optimal_num_bits(terms_per_document, fp_rate)
        return cls(num_bits=num_bits, num_hashes=num_hashes, k=k, seed=seed)

    @property
    def document_names(self) -> List[str]:
        return list(self._names)

    def _add_name(self, name: str) -> None:
        if name in self._names:
            raise ValueError(f"document {name!r} already indexed")
        self._names.append(name)

    def _leaf_bits(self, document: KmerDocument) -> BitArray:
        # One batched hash pass over the whole term set, one word-OR scatter.
        bits = BitArray(self.num_bits)
        if len(document):
            positions = double_hashes_batch(
                document.hash_keys(), self.num_hashes, self.num_bits, self.seed
            )
            bits.set_many(positions.ravel())
        return bits

    def _tree(self) -> Optional[_Node]:
        """The root, once the tree is current."""
        return self._root

    def _nodes(self) -> List[_Node]:
        root = self._tree()
        if root is None:
            return []
        out: List[_Node] = []
        stack = [root]
        while stack:
            node = stack.pop()
            out.append(node)
            if not node.is_leaf:
                stack.extend((node.left, node.right))
        return out

    def num_nodes(self) -> int:
        """Total number of tree nodes."""
        return len(self._nodes())

    def size_in_bytes(self) -> int:
        """Every node's ``num_bits`` vectors plus the name table (uncompressed)."""
        vector_bytes = BitArray(self.num_bits).nbytes
        node_bytes = self.num_nodes() * self._VECTORS_PER_NODE * vector_bytes
        return node_bytes + sum(len(name.encode("utf-8")) for name in self._names)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(num_bits={self.num_bits}, documents={len(self._names)})"


# -- SBT ---------------------------------------------------------------------------------


class _UnionNode(_Node):
    """One SBT node: the union filter of its leaves (a leaf carries its name)."""

    __slots__ = ("bloom", "name")

    def __init__(
        self, bloom: BloomFilter, name: Optional[str] = None,
        left: Optional[_Node] = None, right: Optional[_Node] = None,
    ) -> None:
        super().__init__(left, right)
        self.bloom = bloom
        self.name = name


class SequenceBloomTree(_TreeIndex):
    """Sequence Bloom Tree (Solomon & Kingsford, 2016): union filters, greedy insertion.

    Each internal node is the bitwise OR of its children.  A new document
    walks down from the root, OR-ing its filter into every node it passes
    and descending into the child whose filter shares more set bits with it
    (maximising sharing keeps internal nodes sparse); the leaf it reaches is
    split into an internal node over the old leaf and the new one.  A query
    descends wherever a union holds the term: ``O(log K)`` node tests at
    best, ``O(K)`` for a term in every document — the sequential traversal
    the paper contrasts RAMBO against.  The real SBT uses one hash function,
    as does the default here.
    """

    def add_document(self, document: KmerDocument) -> None:
        """Greedy streaming insertion along the most-similar path."""
        self._add_name(document.name)
        leaf_bloom = BloomFilter.from_parts(
            self.num_bits, self.num_hashes, self.seed, self._leaf_bits(document), len(document)
        )
        new_leaf = _UnionNode(leaf_bloom, name=document.name)
        if self._root is None:
            self._root = new_leaf
            return
        parent: Optional[_UnionNode] = None
        node = self._root
        while not node.is_leaf:
            node.bloom.union_inplace(leaf_bloom)
            left_sim = self._similarity(node.left.bloom, leaf_bloom)
            right_sim = self._similarity(node.right.bloom, leaf_bloom)
            parent = node
            node = node.left if left_sim >= right_sim else node.right
        internal = _UnionNode(node.bloom.union(leaf_bloom), None, node, new_leaf)
        if parent is None:
            self._root = internal
        elif parent.left is node:
            parent.left = internal
        else:
            parent.right = internal

    @staticmethod
    def _similarity(a: BloomFilter, b: BloomFilter) -> int:
        """Number of shared set bits — the greedy insertion heuristic."""
        return int(np.unpackbits((a.bits.words & b.bits.words).view(np.uint8)).sum())

    def query_term(self, term: Term) -> QueryResult:
        """Depth-first traversal pruning subtrees whose union filter misses the term."""
        if self._root is None:
            return QueryResult(documents=frozenset(), filters_probed=0)
        matches: List[str] = []
        probes = 0
        stack = [self._root]
        while stack:
            node = stack.pop()
            probes += 1
            if not node.bloom.contains(term):
                continue
            if node.is_leaf:
                matches.append(node.name)
            else:
                stack.append(node.left)
                stack.append(node.right)
        return QueryResult(documents=frozenset(matches), filters_probed=probes)

    def height(self) -> int:
        """Height of the tree (0 for a single leaf); log2(K) when balanced."""

        def depth(node: Optional[_Node]) -> int:
            if node is None or node.is_leaf:
                return 0
            return 1 + max(depth(node.left), depth(node.right))

        return depth(self._root)


# -- the split tree (SSBT, HowDeSBT) -------------------------------------------------------


class _SplitNode(_Node):
    """One split-tree node: the leaves' intersection and mixed bits, and their names."""

    __slots__ = ("inter", "mixed", "names")

    def __init__(
        self,
        inter: BitArray,
        mixed: BitArray,
        names: List[str],
        left: Optional[_Node] = None,
        right: Optional[_Node] = None,
    ) -> None:
        super().__init__(left, right)
        self.inter = inter
        self.mixed = mixed
        self.names = names


class _SplitTree(_TreeIndex):
    """Batch-built tree storing, per node, which bits its leaves share.

    Each node keeps two vectors over its leaves: the intersection (bits set
    in every leaf below) and the mixed bits (set in some but not all of
    them: union XOR intersection).  A probe position in the intersection is
    resolved; one in neither is set in no leaf below, so the subtree is
    pruned; a mixed one is undecided and goes down to the children.  A node
    whose positions all resolve reports its whole subtree without visiting
    it, which is where the speedup over the plain SBT comes from.

    Leaves are paired bottom-up with their neighbours (a balanced tree).
    Adding a document marks the tree dirty; it is rebuilt on the next query
    — the "rebuild to update" reality the paper contrasts with RAMBO's cheap
    streaming updates.
    """

    _VECTORS_PER_NODE = 2
    #: Read the mixed bits before the intersection?  Answers and probes are
    #: the same; the bit reads per position follow the modelled tool.
    _MIXED_FIRST = False

    def __init__(
        self,
        num_bits: int,
        num_hashes: int = 1,
        k: int = DEFAULT_K,
        seed: int = 0,
    ) -> None:
        super().__init__(num_bits, num_hashes, k, seed)
        self._documents: List[KmerDocument] = []
        self._dirty = False

    def add_document(self, document: KmerDocument) -> None:
        """Buffer the document; the tree is rebuilt lazily before the next query."""
        self._add_name(document.name)
        self._documents.append(document)
        self._dirty = True

    def rebuild(self) -> None:
        """Force a rebuild (normally triggered lazily by the first query)."""
        level = [
            _SplitNode(self._leaf_bits(doc), BitArray(self.num_bits), [doc.name])
            for doc in self._documents
        ]
        while len(level) > 1:
            paired = []
            for left, right in zip(level[0::2], level[1::2]):
                inter = left.inter & right.inter
                union = left.inter | left.mixed | right.inter | right.mixed
                paired.append(
                    _SplitNode(inter, union ^ inter, left.names + right.names, left, right)
                )
            if len(level) % 2 == 1:
                paired.append(level[-1])
            level = paired
        self._root = level[0] if level else None
        self._dirty = False

    def _tree(self) -> Optional[_Node]:
        if self._dirty:
            self.rebuild()
        return self._root

    def query_term(self, term: Term) -> QueryResult:
        """Walk down, resolving each probe position through the node's two vectors."""
        root = self._tree()
        if root is None:
            return QueryResult(documents=frozenset(), filters_probed=0)
        positions = double_hashes(_normalise_key(term), self.num_hashes, self.num_bits, self.seed)
        mixed_first = self._MIXED_FIRST
        matches: List[str] = []
        probes = 0
        stack = [(root, positions)]
        while stack:
            node, remaining = stack.pop()
            probes += 1
            undecided = []
            pruned = False
            # One pass, stopping at the first position no leaf below holds.
            for pos in remaining:
                if mixed_first and node.mixed.get(pos):
                    undecided.append(pos)
                elif node.inter.get(pos):
                    continue
                elif not mixed_first and node.mixed.get(pos):
                    undecided.append(pos)
                else:
                    pruned = True
                    break
            if pruned:
                continue
            if not undecided:
                matches.extend(node.names)
            elif not node.is_leaf:
                stack.append((node.left, undecided))
                stack.append((node.right, undecided))
        return QueryResult(documents=frozenset(matches), filters_probed=probes)


class SplitSequenceBloomTree(_SplitTree):
    """Split Sequence Bloom Tree (Solomon & Kingsford, 2017).

    SSBT's *similarity* filter is the intersection and its *remainder*
    filter the mixed bits.  Its node test asks the similarity filter first
    (in it: resolved), then the remainder (in it: undecided; in neither:
    pruned).  The paper's SSBT configuration uses 4 hash functions.
    """

    def __init__(
        self,
        num_bits: int,
        num_hashes: int = 4,
        k: int = DEFAULT_K,
        seed: int = 0,
    ) -> None:
        super().__init__(num_bits, num_hashes, k, seed)

    @classmethod
    def for_capacity(
        cls,
        terms_per_document: int,
        fp_rate: float = 0.01,
        num_hashes: int = 4,
        k: int = DEFAULT_K,
        seed: int = 0,
    ) -> "SplitSequenceBloomTree":
        """Size node filters for the expected per-document cardinality."""
        return super().for_capacity(terms_per_document, fp_rate, num_hashes, k, seed)


class HowDeSbt(_SplitTree):
    """HowDeSBT (Harris & Medvedev, 2019), the strongest tree baseline in Table 2.

    HowDeSBT stores per node which positions are *determined* (every leaf
    below agrees on the bit) and *how* (the agreed value): determined = NOT
    mixed, how = intersection.  Its node test asks "determined?" first (no:
    undecided), then "how?" (1: resolved; 0: pruned).  The original supports
    one hash function (the default here) and compresses the vectors with
    RRR; the paper's comparison, like this one, uses uncompressed sizes.
    """

    _MIXED_FIRST = True

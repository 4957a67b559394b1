"""Baseline index structures the paper compares against.

* :class:`CobsIndex` — BIGSI/COBS-style bit-sliced array of Bloom filters
  (one filter per document, queried row-wise across all documents).
* :class:`SequenceBloomTree` — the SBT of Solomon & Kingsford: a binary tree
  of Bloom filters where each internal node is the union of its children.
* :class:`SplitSequenceBloomTree` (SSBT) and :class:`HowDeSbt` (HowDeSBT) —
  one split tree storing which bits each node's leaves all share and which
  they disagree on, so a probe position resolves or prunes a whole subtree;
  the two differ only in their default hash count and the order their node
  test reads the two vectors.  All three trees live in ``trees.py`` on one
  shared base.
* :class:`InvertedIndex` — exact term → documents mapping; the ground truth
  every false-positive measurement is computed against.

All of them implement :class:`repro.core.base.MembershipIndex`, so the
experiment harness and the benchmarks drive them interchangeably with RAMBO.
"""

from repro.baselines.cobs import CobsIndex
from repro.baselines.inverted_index import InvertedIndex
from repro.baselines.trees import HowDeSbt, SequenceBloomTree, SplitSequenceBloomTree

__all__ = [
    "CobsIndex",
    "SequenceBloomTree",
    "SplitSequenceBloomTree",
    "HowDeSbt",
    "InvertedIndex",
]

"""2-universal hash families for document partitioning.

RAMBO's partition functions ``phi_1 .. phi_R`` map a document identity to one
of ``B`` cells.  The paper requires 2-universality: for any two distinct
documents the collision probability is exactly ``1/B``.  One standard
construction is provided:

* :class:`CarterWegmanHash` — ``((a*x + b) mod p) mod B`` over the Mersenne
  prime ``p = 2**61 - 1``; the textbook family with provable guarantees.

:class:`PartitionHashFamily` bundles ``R`` independent members and is the
object the RAMBO index actually consumes.  :class:`TwoLevelPartitionHash`
implements the composed routing hash ``b * tau(D) + phi(D)`` of Section 5.3
used to shard construction across a cluster without inter-node communication.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Sequence, Union

from repro.hashing.murmur3 import murmur3_64

MERSENNE_PRIME_61 = (1 << 61) - 1
_MASK64 = 0xFFFFFFFFFFFFFFFF

Key = Union[int, str, bytes]


def _key_to_int(key: Key) -> int:
    """Map an arbitrary document identity to a non-negative integer.

    Integers map to themselves; strings and bytes are hashed with a fixed-seed
    MurmurHash3 so the mapping is stable across processes and machines (the
    built-in ``hash`` is randomised per process and would break distributed
    seed consistency).
    """
    if isinstance(key, bool):  # bool is an int subclass; reject to avoid surprises
        raise TypeError("boolean keys are not supported")
    if isinstance(key, int):
        if key < 0:
            raise ValueError(f"integer keys must be non-negative, got {key}")
        return key
    if isinstance(key, (str, bytes)):
        return murmur3_64(key, seed=0x5EED)
    raise TypeError(f"unsupported key type: {type(key)!r}")


@dataclass(frozen=True)
class CarterWegmanHash:
    """Carter--Wegman 2-universal hash ``h(x) = ((a*x + b) mod p) mod range``.

    Parameters
    ----------
    a, b:
        Random coefficients with ``1 <= a < p`` and ``0 <= b < p``.
    range_size:
        Output range ``B``.
    prime:
        Field prime; defaults to the Mersenne prime ``2**61 - 1``.
    """

    a: int
    b: int
    range_size: int
    prime: int = MERSENNE_PRIME_61

    def __post_init__(self) -> None:
        if not (1 <= self.a < self.prime):
            raise ValueError(f"coefficient a must be in [1, p), got {self.a}")
        if not (0 <= self.b < self.prime):
            raise ValueError(f"coefficient b must be in [0, p), got {self.b}")
        if self.range_size <= 0:
            raise ValueError(f"range_size must be positive, got {self.range_size}")

    @classmethod
    def random(cls, range_size: int, seed: int) -> "CarterWegmanHash":
        """Draw a random member of the family from a seeded RNG."""
        rng = random.Random(seed)
        a = rng.randrange(1, MERSENNE_PRIME_61)
        b = rng.randrange(0, MERSENNE_PRIME_61)
        return cls(a=a, b=b, range_size=range_size)

    def __call__(self, key: Key) -> int:
        x = _key_to_int(key)
        return ((self.a * x + self.b) % self.prime) % self.range_size

    def with_range(self, range_size: int) -> "CarterWegmanHash":
        """Return the same hash coefficients with a different output range."""
        return CarterWegmanHash(self.a, self.b, range_size, self.prime)


@dataclass
class PartitionHashFamily:
    """``R`` independent 2-universal partition hashes ``phi_1 .. phi_R``.

    This is the object used by the RAMBO index: ``family(doc_id, r)`` gives
    the partition cell of ``doc_id`` in repetition ``r``.

    Parameters
    ----------
    num_partitions:
        Output range ``B`` shared by every member.
    repetitions:
        Number of independent members ``R``.
    seed:
        Master seed; member ``r`` uses ``seed + r`` through a deterministic
        mixer so two machines given the same master seed produce identical
        partitions (a requirement for distributed stacking and fold-over).
    """

    num_partitions: int
    repetitions: int
    seed: int = 0
    _members: List[CarterWegmanHash] = field(default_factory=list, repr=False)

    def __post_init__(self) -> None:
        if self.num_partitions <= 0:
            raise ValueError(f"num_partitions must be positive, got {self.num_partitions}")
        if self.repetitions <= 0:
            raise ValueError(f"repetitions must be positive, got {self.repetitions}")
        if not self._members:
            self._members = [
                CarterWegmanHash.random(self.num_partitions, seed=self._member_seed(r))
                for r in range(self.repetitions)
            ]

    def _member_seed(self, repetition: int) -> int:
        return (self.seed * 0x9E3779B1 + repetition * 0x85EBCA77) & _MASK64

    def __call__(self, key: Key, repetition: int) -> int:
        """Partition cell of *key* in the given repetition."""
        return self._members[repetition](key)

    def assign(self, key: Key) -> List[int]:
        """Partition cells of *key* in every repetition, as a list of length R."""
        return [member(key) for member in self._members]

    def with_partitions(self, num_partitions: int) -> "PartitionHashFamily":
        """Same coefficients, different range — used to model fold-over.

        Folding a RAMBO table from ``B`` to ``B/2`` partitions ORs BFU ``b``
        with BFU ``b + B/2``; the equivalent partition function is
        ``phi(x) mod (B/2)`` only when ``B`` is halved, so we expose the raw
        coefficient reuse here and let :mod:`repro.core.folding` apply the
        modulo reduction explicitly.
        """
        members = [m.with_range(num_partitions) for m in self._members]
        return PartitionHashFamily(
            num_partitions=num_partitions,
            repetitions=self.repetitions,
            seed=self.seed,
            _members=members,
        )


@dataclass
class TwoLevelPartitionHash:
    """Composed routing hash of Section 5.3: ``b * tau(D) + phi_node(D)``.

    ``tau`` routes a document to one of ``num_nodes`` machines and
    ``phi_node`` (a node-local family with ``b = partitions_per_node`` cells)
    places it inside that machine's shard.  The composition is again
    2-universal over the global range ``B = num_nodes * partitions_per_node``,
    which is exactly the property the paper uses to argue that the distributed
    build equals a single-machine build with the larger ``B``.
    """

    num_nodes: int
    partitions_per_node: int
    repetitions: int
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_nodes <= 0:
            raise ValueError(f"num_nodes must be positive, got {self.num_nodes}")
        if self.partitions_per_node <= 0:
            raise ValueError(
                f"partitions_per_node must be positive, got {self.partitions_per_node}"
            )
        self._router = CarterWegmanHash.random(self.num_nodes, seed=self.seed ^ 0xA5A5A5A5)
        self._local = PartitionHashFamily(
            num_partitions=self.partitions_per_node,
            repetitions=self.repetitions,
            seed=self.seed,
        )

    @property
    def total_partitions(self) -> int:
        """Global number of partitions ``B`` of the stacked RAMBO."""
        return self.num_nodes * self.partitions_per_node

    def node_of(self, key: Key) -> int:
        """Machine index ``tau(D)`` the document is routed to."""
        return self._router(key)

    def local_partition(self, key: Key, repetition: int) -> int:
        """Node-local partition ``phi_i(D)`` inside the assigned machine."""
        return self._local(key, repetition)

    def __call__(self, key: Key, repetition: int) -> int:
        """Global partition ``b * tau(D) + phi_i(D)``."""
        return self.partitions_per_node * self.node_of(key) + self.local_partition(key, repetition)

    def global_family(self) -> PartitionHashFamily:
        """A :class:`PartitionHashFamily`-compatible view over the global range.

        Returned object evaluates the two-level composition; it is what a
        single-machine RAMBO with ``B = total_partitions`` would be handed to
        verify that the distributed construction is equivalent.
        """
        outer = self

        class _ComposedFamily(PartitionHashFamily):
            def __init__(self) -> None:  # bypass parent __init__ on purpose
                self.num_partitions = outer.total_partitions
                self.repetitions = outer.repetitions
                self.seed = outer.seed
                self._members = []

            def __call__(self, key: Key, repetition: int) -> int:
                return outer(key, repetition)

            def assign(self, key: Key) -> List[int]:
                return [outer(key, r) for r in range(outer.repetitions)]

        return _ComposedFamily()

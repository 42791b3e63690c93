"""Normalizers of ad-nilpotent ideals as standard parabolic subalgebras.

The normalizer of an upper ideal is determined by the set of simple roots
whose root subalgebras (in both signs) normalize it; that set is the Levi
part of the parabolic label.  Two independent membership tests live here
(generator inspection and weight orthogonality); further equivalent tests
live in the affine and shi modules.  `fibers` groups every ideal by its
normalizer in one walk and finds the minimal ideals of each fiber;
`stable_count` counts the ideals a parabolic normalizes without enumerating
the ideals.
"""

from __future__ import annotations

from dataclasses import dataclass

from .ideals import UpperIdeal, _iter_bits, _upper_sets, enumerate_ideals, weight
from .rootsys import RootSystem

__all__ = [
    "ParabolicLabel",
    "normalizer",
    "normalizer_by_weight",
    "nilradical",
    "fibers",
    "stable_count",
]


@dataclass(frozen=True)
class ParabolicLabel:
    """A standard parabolic, named by its Levi set of simple-root indices (0-based)."""

    rank: int
    levi: frozenset[int]

    def __post_init__(self):
        if not all(0 <= a < self.rank for a in self.levi):
            raise ValueError("Levi indices out of range")

    @property
    def srk(self) -> int:
        """Semisimple rank of the Levi part."""
        return len(self.levi)

    def levi_sorted(self) -> tuple[int, ...]:
        return tuple(sorted(self.levi))

    def __repr__(self) -> str:
        inside = ",".join(f"a{a + 1}" for a in sorted(self.levi))
        return f"ParabolicLabel({{{inside}}})"


def _removed_simples(rs: RootSystem, gens) -> int:
    """Bitset of the simple indices off the normalizer Levi: the OR of
    rs.lowers over the generator indices `gens` of the ideal."""
    removed = 0
    for g in gens:
        removed |= rs.lowers[g]
    return removed


def normalizer(ideal: UpperIdeal) -> ParabolicLabel:
    """Parabolic label from the generators of the ideal.

    A simple root alpha belongs to the Levi iff no generator gamma has
    gamma - alpha equal to zero or to a positive root.
    """
    rs = ideal.rs
    removed = _removed_simples(rs, ideal.generator_indices())
    return ParabolicLabel(rs.rank, frozenset(_iter_bits(~removed & ((1 << rs.rank) - 1))))


def normalizer_by_weight(ideal: UpperIdeal) -> ParabolicLabel:
    """Parabolic label by orthogonality of the ideal weight to simple roots."""
    rs = ideal.rs
    y = rs.pairings(weight(ideal))
    return ParabolicLabel(rs.rank, frozenset(a for a, v in enumerate(y) if v == 0))


def nilradical(rs: RootSystem, label: ParabolicLabel) -> UpperIdeal:
    """Largest ideal with the given normalizer: all roots off the Levi span,
    which are the roots above some simple root off the Levi."""
    if label.rank != rs.rank:
        raise ValueError("label rank does not match root system")
    bits = 0
    for a in range(rs.rank):
        if a not in label.levi:
            bits |= rs.upsets[rs.simple_index[a]]
    return UpperIdeal(rs, bits, _validate=False)


def fibers(rs: RootSystem) -> dict[ParabolicLabel, tuple[list[UpperIdeal], list[UpperIdeal]]]:
    """Every nonempty normalizer fiber: label -> (members, inclusion-minimal members).

    One walk over the ideals; members keep the walk order.  Members are
    tested in increasing size (ties in walk order) against the minima found
    so far, so a member that is not minimal always contains a smaller
    minimum already on the list.  The nilradical must lie in each fiber.
    """
    members: dict[ParabolicLabel, list[UpperIdeal]] = {}
    for ideal in enumerate_ideals(rs):
        members.setdefault(normalizer(ideal), []).append(ideal)
    out = {}
    for label, group in members.items():
        top = nilradical(rs, label).bits
        if all(c.bits != top for c in group):
            raise AssertionError("nilradical is not in its own fiber")
        minima: list[UpperIdeal] = []
        for c in sorted(group, key=lambda c: c.size):
            if all(m.bits & ~c.bits for m in minima):
                minima.append(c)
        out[label] = (group, minima)
    return out


def stable_count(rs: RootSystem, label: ParabolicLabel) -> int:
    """Number of ideals whose normalizer Levi contains the Levi of `label`.

    Such an ideal lies off the Levi span and is a union of classes, the
    roots sharing their coefficients off the Levi, closed upward in the
    class order.  Class covers are read from `rs.up`.  The classes are
    indexed by rising off-Levi height, so covers get larger indices, and
    the walk enters them in falling index.
    """
    if label.rank != rs.rank:
        raise ValueError("label rank does not match root system")
    off = [a for a in range(rs.rank) if a not in label.levi]
    keys = [tuple(root.coeffs[a] for a in off) for root in rs.positive_roots]
    classes = sorted({k for k in keys if any(k)}, key=lambda k: (sum(k), k))
    index = {k: c for c, k in enumerate(classes)}
    above = [0] * len(classes)
    for g, k in enumerate(keys):
        if any(k):
            for h in _iter_bits(rs.up[g]):
                if keys[h] != k:
                    above[index[k]] |= 1 << index[keys[h]]
    return sum(1 for _ in _upper_sets(above))

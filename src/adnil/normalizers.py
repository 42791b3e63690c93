"""Normalizers of ad-nilpotent ideals as standard parabolic subalgebras.

The normalizer of an upper ideal is determined by the set of simple roots
whose root subalgebras (in both signs) normalize it; that set is the Levi
part of the parabolic label.  Two independent membership tests live here
(generator inspection and weight orthogonality); further equivalent tests
live in the affine and shi modules.
"""

from __future__ import annotations

from dataclasses import dataclass

from .ideals import UpperIdeal, _iter_bits, _upper_sets, enumerate_ideals, weight
from .rootsys import RootSystem, inner

__all__ = [
    "ParabolicLabel",
    "normalizer",
    "normalizer_by_weight",
    "nilradical",
    "fiber",
    "fiber_extrema",
    "QuotientPoset",
    "quotient_poset",
    "count_upper_ideals",
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


def normalizer(ideal: UpperIdeal) -> ParabolicLabel:
    """Parabolic label from the generators of the ideal.

    A simple root alpha belongs to the Levi iff no generator gamma has
    gamma - alpha equal to zero or to a positive root.
    """
    rs = ideal.rs
    removed = 0
    for g in ideal.generator_indices():
        removed |= rs.lowers[g]
    return ParabolicLabel(
        rs.rank, frozenset(a for a in range(rs.rank) if not (removed >> a) & 1)
    )


def normalizer_by_weight(ideal: UpperIdeal) -> ParabolicLabel:
    """Parabolic label by orthogonality of the ideal weight to simple roots."""
    rs = ideal.rs
    w = weight(ideal)
    levi = frozenset(
        a
        for a in range(rs.rank)
        if inner(rs, w, rs.positive_roots[rs.simple_index[a]]) == 0
    )
    return ParabolicLabel(rs.rank, levi)


def nilradical(rs: RootSystem, label: ParabolicLabel) -> UpperIdeal:
    """Largest ideal with the given normalizer: all roots off the Levi span."""
    if label.rank != rs.rank:
        raise ValueError("label rank does not match root system")
    bits = 0
    for k, root in enumerate(rs.positive_roots):
        if any(c and a not in label.levi for a, c in enumerate(root.coeffs)):
            bits |= 1 << k
    return UpperIdeal(rs, bits, _validate=False)


def fiber(rs: RootSystem, label: ParabolicLabel) -> list[UpperIdeal]:
    """All ideals whose normalizer is exactly the given parabolic."""
    return [i for i in enumerate_ideals(rs) if normalizer(i) == label]


def fiber_extrema(
    rs: RootSystem, label: ParabolicLabel
) -> tuple[UpperIdeal, list[UpperIdeal]]:
    """(unique maximum, inclusion-minimal members) of a normalizer fiber."""
    members = fiber(rs, label)
    if not members:
        raise ValueError(f"empty fiber for {label!r} in {rs.label}")
    top = nilradical(rs, label)
    if top not in members:
        raise AssertionError("nilradical is not in its own fiber")
    minimals = [
        i
        for i in members
        if not any(j is not i and j.bits & ~i.bits == 0 for j in members)
    ]
    return top, minimals


@dataclass(frozen=True)
class QuotientPoset:
    """Positive roots mod Z alpha for one simple root alpha, with induced order.

    classes[k] is a tuple of root indices; below[k] is the bitset of classes
    less-or-equal to class k.  Construction verifies the partial-order axioms.
    """

    rs: RootSystem
    simple: int
    classes: tuple[tuple[int, ...], ...]
    below: tuple[int, ...]

    def size(self) -> int:
        return len(self.classes)


def quotient_poset(rs: RootSystem, simple: int) -> QuotientPoset:
    """Quotient of the positive roots minus alpha by shifts along alpha.

    Class order: X <= Y iff some representatives satisfy x <= y in the root
    poset; reflexive-transitive closure is taken and antisymmetry verified.
    """
    if not 0 <= simple < rs.rank:
        raise ValueError(f"simple root index {simple} out of range")
    a_idx = rs.simple_index[simple]
    keys: dict[tuple[int, ...], list[int]] = {}
    for k, root in enumerate(rs.positive_roots):
        if k == a_idx:
            continue
        key = tuple(c for j, c in enumerate(root.coeffs) if j != simple)
        keys.setdefault(key, []).append(k)
    classes = tuple(tuple(sorted(v)) for _, v in sorted(keys.items()))
    n = len(classes)

    def pair_leq(i: int, j: int) -> bool:
        return any(
            all(
                rs.positive_roots[y].coeffs[t] >= rs.positive_roots[x].coeffs[t]
                for t in range(rs.rank)
            )
            for x in classes[i]
            for y in classes[j]
        )

    rel = [0] * n
    for i in range(n):
        for j in range(n):
            if i == j or pair_leq(i, j):
                rel[j] |= 1 << i  # class i is below class j
    # Transitive closure (bitset Warshall).
    changed = True
    while changed:
        changed = False
        for j in range(n):
            acc = rel[j]
            for i in list(_iter_bits(rel[j])):
                acc |= rel[i]
            if acc != rel[j]:
                rel[j] = acc
                changed = True
    for i in range(n):
        for j in range(i + 1, n):
            if (rel[j] >> i) & 1 and (rel[i] >> j) & 1:
                raise AssertionError(
                    f"quotient relation is not antisymmetric for alpha_{simple + 1}"
                )
    return QuotientPoset(rs, simple, classes, tuple(rel))


def count_upper_ideals(poset: QuotientPoset) -> int:
    """Number of upward-closed subsets of a quotient poset."""
    n = len(poset.classes)
    above: list[int] = [0] * n
    for j in range(n):
        for i in _iter_bits(poset.below[j]):
            if i != j:
                above[i] |= 1 << j
    order = sorted(range(n), key=lambda k: (above[k].bit_count(), k))
    return sum(1 for _ in _upper_sets(above, order))

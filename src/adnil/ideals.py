"""Upper ideals of the positive-root poset.

An upper ideal (the root-set shape of an ad-nilpotent ideal of the Borel)
is a subset I of the positive roots closed under moving up in the
dominance order.  Ideals are stored as bitsets over the root index of
their root system; all set operations are integer bit twiddling on the
root system's per-root tables.  `_upper_sets` is the one walk over the
upward-closed sets of a poset, shared with `adnil.normalizers`; it carries
the generating antichain of each set along, updated on each include of k
as gens' = (gens & ~above[k]) | 1 << k, so `enumerate_ideals` hands every
ideal its generators without a scan.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator

from .rootsys import RationalVector, Root, RootSystem, _coords

__all__ = [
    "UpperIdeal",
    "IdealChain",
    "close_upward",
    "enumerate_ideals",
    "weight",
    "ideal_powers",
    "complement_chain",
    "meet",
    "join",
    "is_strictly_positive",
    "is_abelian",
]


@dataclass(frozen=True)
class UpperIdeal:
    """An upward-closed set of positive roots, as a bitset of root indices."""

    rs: RootSystem
    bits: int
    _validate: bool = field(default=True, repr=False, compare=False)
    # Bitset of the generators, when the enumeration walk carried them.
    _gens: int | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self._validate:
            n = len(self.rs.positive_roots)
            if self.bits < 0 or self.bits >> n:
                raise ValueError("bitset out of range for this root system")
            roots, up = self.rs.positive_roots, self.rs.up
            for i in _iter_bits(self.bits):
                missing = up[i] & ~self.bits
                if missing:
                    j = (missing & -missing).bit_length() - 1
                    raise ValueError(
                        f"not upward closed: {roots[i]} is in but {roots[j]} is out"
                    )

    @property
    def size(self) -> int:
        return self.bits.bit_count()

    def root_indices(self) -> list[int]:
        return list(_iter_bits(self.bits))

    def roots(self) -> tuple[Root, ...]:
        return tuple(self.rs.positive_roots[i] for i in _iter_bits(self.bits))

    def contains(self, root) -> bool:
        k = self.rs.root_index.get(_coords(root))
        return k is not None and bool((self.bits >> k) & 1)

    def generator_indices(self) -> tuple[int, ...]:
        """Indices of the minimal elements (the generating antichain).

        Carried from the enumeration walk when the ideal came from it,
        otherwise found by a scan of the ideal's upper covers.
        """
        if self._gens is not None:
            return tuple(_iter_bits(self._gens))
        covered = 0
        for i in _iter_bits(self.bits):
            covered |= self.rs.up[i]
        return tuple(_iter_bits(self.bits & ~covered))

    def generators(self) -> tuple[Root, ...]:
        return tuple(self.rs.positive_roots[i] for i in self.generator_indices())

    def __repr__(self) -> str:
        gens = ",".join(str(list(r.coeffs)) for r in self.generators())
        return f"UpperIdeal({self.rs.label}, size={self.size}, gens=[{gens}])"


@dataclass(frozen=True)
class IdealChain:
    """A weakly descending chain of ideals; stalled means it never reached empty."""

    powers: tuple[UpperIdeal, ...]
    stalled: bool = False


def _iter_bits(bits: int) -> Iterator[int]:
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


def close_upward(rs: RootSystem, generators) -> UpperIdeal:
    """Smallest upper ideal containing the given positive roots."""
    bits = 0
    for g in generators:
        k = rs.root_index.get(_coords(g))
        if k is None:
            raise ValueError(f"{g!r} is not a positive root of {rs.label}")
        bits |= 1 << k
    stack = list(_iter_bits(bits))
    while stack:
        new = rs.up[stack.pop()] & ~bits
        bits |= new
        stack.extend(_iter_bits(new))
    return UpperIdeal(rs, bits, _validate=False)


def _upper_sets(above, order) -> Iterator[tuple[int, int]]:
    """Every subset closed under `above`, with its minimal elements, as bitsets.

    above[k] is the bitset of elements that must be in before k may enter;
    `order` lists every element after all of those above it.  Each path
    takes the exclude branch first and stacks the include branches, so the
    empty set comes first and the full one last.  The walk yields
    (bits, gens), gens the minimal elements of bits, and on each include
    of k updates them as gens' = (gens & ~above[k]) | 1 << k.  When above[k]
    holds the upper covers of k this is exact: a minimal element above k
    lies above some cover of k, which is in the set, so it is that cover.
    """
    n = len(order)
    stack = [(0, 0, 0)]
    while stack:
        start, bits, gens = stack.pop()
        outside = ~bits
        for pos in range(start, n):
            k = order[pos]
            a = above[k]
            if not a & outside:
                b = 1 << k
                stack.append((pos + 1, bits | b, (gens & ~a) | b))
        yield bits, gens


def enumerate_ideals(rs: RootSystem) -> Iterator[UpperIdeal]:
    """All upper ideals, walking the roots in falling height.

    A root may enter only when all its upper covers are already in, so every
    set is an upper ideal and each ideal is produced exactly once, the empty
    ideal first and the full one last.  Each ideal carries its generators
    from the walk.
    """
    for bits, gens in _upper_sets(rs.up, range(len(rs.positive_roots) - 1, -1, -1)):
        yield UpperIdeal(rs, bits, _validate=False, _gens=gens)


def weight(ideal: UpperIdeal) -> RationalVector:
    """Sum of the roots of the ideal, as an exact coefficient vector."""
    rank = ideal.rs.rank
    total = [0] * rank
    for i in _iter_bits(ideal.bits):
        c = ideal.rs.positive_roots[i].coeffs
        for j in range(rank):
            total[j] += c[j]
    return RationalVector(tuple(Fraction(t) for t in total))


def _product_bits(rs: RootSystem, left: int, right: int) -> int:
    """Bitset of all root sums mu + nu with mu in left, nu in right."""
    sums, partners = rs.sums, rs.partners
    out = 0
    while left:  # inline bit loops: this is the hot path
        i = left.bit_length() - 1
        left ^= 1 << i
        hit = partners[i] & right  # the nu in right with mu + nu a root
        if hit:
            s = sums[i]
            while hit:
                j = hit.bit_length() - 1
                hit ^= 1 << j
                out |= 1 << s[j]
    return out


def _complement_terms(rs: RootSystem, bits: int) -> Iterator[int]:
    """Terms of the complement chain of I as bitsets, without end.

    With m the complement of I, term k is the complement of m union ... union
    m^k; the first term is I itself, and a stalled chain repeats its last term.
    """
    full = (1 << len(rs.positive_roots)) - 1
    m = full & ~bits
    used = power = m
    while True:
        yield full & ~used
        power = _product_bits(rs, power, m)
        used |= power


def ideal_powers(ideal: UpperIdeal) -> IdealChain:
    """The descending chain I, I^2, I^3, ... ending with the empty ideal.

    I^k collects the roots expressible as mu + nu with mu in I^{k-1} and
    nu in I; it always reaches empty because heights grow with k.
    """
    rs = ideal.rs
    chain = [ideal]
    current = ideal.bits
    while current:
        current = _product_bits(rs, current, ideal.bits)
        chain.append(UpperIdeal(rs, current, _validate=False))
    return IdealChain(tuple(chain))


def complement_chain(ideal: UpperIdeal) -> IdealChain:
    """Chain of complements of the powers of the complement of the ideal.

    With m the complement of I in the positive roots and m^k the iterated
    root sums of m, term k is the complement of m union ... union m^k; the
    first term is I itself.  The chain is truncated (and flagged stalled)
    if it stops shrinking before reaching empty, which only happens when
    the ideal is not strictly positive.
    """
    rs = ideal.rs
    chain: list[UpperIdeal] = []
    for term in _complement_terms(rs, ideal.bits):
        if chain and term == chain[-1].bits:
            return IdealChain(tuple(chain), stalled=True)
        chain.append(UpperIdeal(rs, term, _validate=False))
        if not term:
            return IdealChain(tuple(chain))


def _require_same(a: UpperIdeal, b: UpperIdeal) -> None:
    if a.rs is not b.rs:
        raise ValueError("ideals belong to different root systems")


def meet(a: UpperIdeal, b: UpperIdeal) -> UpperIdeal:
    """Intersection; an upper ideal again."""
    _require_same(a, b)
    return UpperIdeal(a.rs, a.bits & b.bits, _validate=False)


def join(a: UpperIdeal, b: UpperIdeal) -> UpperIdeal:
    """Union; an upper ideal again."""
    _require_same(a, b)
    return UpperIdeal(a.rs, a.bits | b.bits, _validate=False)


def is_strictly_positive(ideal: UpperIdeal) -> bool:
    """True when the ideal contains no simple root."""
    return not ideal.bits & ideal.rs.simple_bits


def is_abelian(ideal: UpperIdeal) -> bool:
    """True when no two members (with repetition) sum to a root."""
    bits, partners = ideal.bits, ideal.rs.partners
    return not any(partners[i] & bits for i in _iter_bits(bits))

"""Upper ideals of the positive-root poset.

An upper ideal (the root-set shape of an ad-nilpotent ideal of the Borel)
is a subset I of the positive roots closed under moving up in the
dominance order.  Ideals are stored as bitsets over the root index of
their root system; all set operations are integer bit twiddling on the
root system's per-root tables.

`UpperIdeal(rs, bits)` checks outside input: that bits is an int, in range
and upward closed.  Bitsets closed by construction (the walk, closures,
meets, joins, chain terms, nilradicals, first layers) are built by
`UpperIdeal._make`, the trusted constructor of every value class, aliased
`_trusted`.  Only `_make` can set `_gens`, the generator bitset the walk
carries, and copies and pickles go through it so that they keep it.
Equality, hash and repr are the same either way.

`_upper_sets` is the one walk over the upward-closed sets of a poset,
shared with `adnil.normalizers`.  Elements enter in falling index, and
each stack entry carries its frontier: the bitset of the elements of
smaller index than the last one entered whose upper covers are all in.
Including k keeps the part of the frontier under index k and re-tests only
the lower covers of k, the only elements k can free.  The walk also carries
the generating antichain of each set, updated on each include of k as
gens' = (gens & ~above[k]) | 1 << k, so `enumerate_ideals` hands every
ideal its generators without a scan.

Products go through generators.  For upper ideals I and J the root set of
[I, J], the roots mu + nu with mu in I and nu in J, is the upward closure
of {g + nu : g a generator of I, nu in J}.  It is upward closed (it is an
ideal), so it contains that closure.  Conversely, take mu + nu a root with
mu not a generator: mu = mu' + alpha_s for some mu' in I.  The Jacobi
identity [[e_mu', e_s], e_nu] = [e_mu', [e_s, e_nu]] + [[e_mu', e_nu], e_s]
makes nu + alpha_s or mu' + nu a root.  In the first case mu + nu =
mu' + (nu + alpha_s) with nu + alpha_s in J; in the second mu + nu lies
above mu' + nu.  Either way induction on the height of mu puts mu + nu in
the closure.  `_power_terms` therefore loops over the generators of I (at
most rank many), not over every root of I^k.

Each chain has one walk over its terms as bitsets, `_power_terms` and
`_complement_terms`; both start with I itself and end after the empty
term.  A complement chain stalls when a step adds no new root, and its
walk then ends after its last term: one that ends nonempty has stalled.
"""

from __future__ import annotations

from typing import Iterator

from .rootsys import RationalVector, Root, RootSystem, _Value, _vector

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


class UpperIdeal(_Value):
    """An upward-closed set of positive roots, as a bitset of root indices."""

    # _gens: bitset of the generators, when the enumeration walk carried them, else None.
    __slots__ = ("rs", "bits", "_gens")

    def __init__(self, rs: RootSystem, bits: int):
        if type(bits) is not int:
            raise ValueError(f"bitset {bits!r} is not an int")
        if bits < 0 or bits >> len(rs.positive_roots):
            raise ValueError("bitset out of range for this root system")
        roots, up = rs.positive_roots, rs.up
        for i in _iter_bits(bits):
            missing = up[i] & ~bits
            if missing:
                j = (missing & -missing).bit_length() - 1
                raise ValueError(
                    f"not upward closed: {roots[i]} is in but {roots[j]} is out"
                )
        self._fill(rs, bits)

    def __reduce__(self):
        return _trusted, (self.rs, self.bits, self._gens)

    @property
    def size(self) -> int:
        return self.bits.bit_count()

    def roots(self) -> tuple[Root, ...]:
        return tuple(self.rs.positive_roots[i] for i in _iter_bits(self.bits))

    def contains(self, root) -> bool:
        """Whether the root is in the ideal; a float entry or a wrong length is refused."""
        k = self.rs.root_index.get(_vector(self.rs, root))
        return k is not None and bool((self.bits >> k) & 1)

    def _generator_bits(self) -> int:
        """Bitset of the minimal elements (the generating antichain).

        Carried from the enumeration walk when the ideal came from it,
        otherwise found by a scan of the ideal's upper covers.
        """
        if self._gens is not None:
            return self._gens
        covered = 0
        for i in _iter_bits(self.bits):
            covered |= self.rs.up[i]
        return self.bits & ~covered

    def generator_indices(self) -> tuple[int, ...]:
        """Indices of the minimal elements (the generating antichain)."""
        return tuple(_iter_bits(self._generator_bits()))

    def generators(self) -> tuple[Root, ...]:
        return tuple(self.rs.positive_roots[i] for i in self.generator_indices())

    def __repr__(self) -> str:
        gens = ",".join(str(list(r.coeffs)) for r in self.generators())
        return f"UpperIdeal({self.rs.label}, size={self.size}, gens=[{gens}])"


_trusted = UpperIdeal._make  # for bitsets upward closed by construction; gens, if given, exact


class IdealChain(_Value):
    """A weakly descending chain of ideals; stalled means it never reached empty."""

    __slots__ = ("powers", "stalled")

    def __init__(self, powers: tuple[UpperIdeal, ...], stalled: bool = False):
        self._fill(powers, stalled)


def _iter_bits(bits: int) -> Iterator[int]:
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


def close_upward(rs: RootSystem, generators) -> UpperIdeal:
    """Smallest upper ideal containing the given positive roots; a float entry is refused."""
    bits = 0
    for g in generators:
        k = rs.root_index.get(_vector(rs, g))
        if k is None:
            raise ValueError(f"{g!r} is not a positive root of {rs.label}")
        bits |= rs.upsets[k]
    return _trusted(rs, bits)


def _upper_sets(above) -> Iterator[tuple[int, int]]:
    """Every subset closed under `above`, with its minimal elements, as bitsets.

    above[k] is the bitset of the upper covers of k, all of larger index
    than k.  Elements enter in falling index.  Each path takes the exclude
    branch first and stacks the include branches, so the empty set comes
    first and the full one last.

    A stack entry (free, bits, gens) keeps the frontier invariant: free is
    the set of elements of smaller index than the last one entered whose
    covers are all in bits, so its members are exactly the elements that
    may enter next.  The candidates are read off free from the top with
    bit_length.  On an include of k, the elements of free under index k
    stay free, and only the lower covers of k are re-tested, since no other
    element has k as a cover.

    gens, the minimal elements of bits, is updated on each include of k as
    gens' = (gens & ~above[k]) | 1 << k.  This is exact: a minimal element
    above k lies above some cover of k, which is in the set, so it is that
    cover.
    """
    below: list[list[tuple[int, int]]] = [[] for _ in above]
    for j, a in enumerate(above):
        for k in _iter_bits(a):
            below[k].append((j, a))
    stack = [(sum(1 << k for k, a in enumerate(above) if not a), 0, 0)]
    while stack:
        free, bits, gens = stack.pop()
        while free:
            k = free.bit_length() - 1
            b = 1 << k
            free ^= b
            grown, frontier = bits | b, free
            for j, a in below[k]:
                if not a & ~grown:
                    frontier |= 1 << j
            stack.append((frontier, grown, (gens & ~above[k]) | b))
        yield bits, gens


def enumerate_ideals(rs: RootSystem) -> Iterator[UpperIdeal]:
    """All upper ideals, walking the roots in falling height.

    A root may enter only when all its upper covers are already in, so every
    set is an upper ideal and each ideal is produced exactly once, the empty
    ideal first and the full one last.  Each ideal carries its generators
    from the walk.
    """
    for bits, gens in _upper_sets(rs.up):
        yield _trusted(rs, bits, gens)


def weight(ideal: UpperIdeal) -> RationalVector:
    """Sum of the roots of the ideal, as an integer coefficient vector.

    Coordinate i sums popcount(I & rs.at_least[i][v]) over v = 1..marks[i].
    """
    bits = ideal.bits
    counts = (sum((bits & row).bit_count() for row in rows[1:]) for rows in ideal.rs.at_least)
    return RationalVector(tuple(counts))


def _generated_product(rs: RootSystem, gens, right: int) -> int:
    """Bitset of [I, J] for upper ideals I, J: the upward closure of g + nu.

    gens are the generator indices of I and right is the bitset of J; the
    module docstring proves that this is every root sum mu + nu.
    """
    sums, partners, upsets = rs.sums, rs.partners, rs.upsets
    out = 0
    for g in gens:
        hit = partners[g] & right
        if hit:
            s = sums[g]
            while hit:
                j = hit.bit_length() - 1
                hit ^= 1 << j
                k = s[j]
                if not (out >> k) & 1:
                    out |= upsets[k]
    return out


def _power_terms(rs: RootSystem, gens, bits: int) -> Iterator[int]:
    """Terms I, I^2, ..., empty as bitsets; gens are the generator indices of I."""
    yield bits
    while bits:
        bits = _generated_product(rs, gens, bits)
        yield bits


def _complement_terms(rs: RootSystem, bits: int) -> Iterator[int]:
    """Terms of the complement chain of I as bitsets, ending as the module docstring says.

    With m the complement of I, term k is the complement of the union
    U_{k+1} = m union ... union m^{k+1}, and U_{k+2} = m union (U_{k+1} + m).
    So term k + 1 is term k minus the roots that are the sum of a root of m
    and a root outside term k: each root of term k is tested against its
    pairs in `RootSystem.halves`, and a step that removes no root stalls.
    """
    halves = rs.halves
    m = ((1 << len(rs.positive_roots)) - 1) & ~bits
    yield bits
    while bits:
        hit, rest = 0, bits
        while rest:  # inline bit loops: this is the hot path
            low = rest & -rest
            rest ^= low
            for pair in halves[low.bit_length() - 1]:
                if pair & m and not pair & bits:
                    hit |= low
                    break
        if not hit:
            return
        bits ^= hit
        yield bits


def ideal_powers(ideal: UpperIdeal) -> IdealChain:
    """The descending chain I, I^2, I^3, ... ending with the empty ideal.

    I^k collects the roots expressible as mu + nu with mu in I and nu in
    I^{k-1}; it always reaches empty because heights grow with k.  The
    first term is the ideal itself; the rest come from `_power_terms`.
    """
    rs = ideal.rs
    terms = _power_terms(rs, ideal.generator_indices(), ideal.bits)
    next(terms)
    return IdealChain((ideal, *(_trusted(rs, t) for t in terms)))


def complement_chain(ideal: UpperIdeal) -> IdealChain:
    """Chain of complements of the powers of the complement of the ideal.

    With m the complement of I in the positive roots and m^k the iterated
    root sums of m, term k is the complement of m union ... union m^k; the
    first term is I itself.  The chain is truncated (and flagged stalled)
    if it stops shrinking before reaching empty, which only happens when
    the ideal is not strictly positive.
    """
    rs = ideal.rs
    terms = [_trusted(rs, t) for t in _complement_terms(rs, ideal.bits)]
    return IdealChain(tuple(terms), stalled=bool(terms[-1].bits))


def _require_same(a: UpperIdeal, b: UpperIdeal) -> None:
    if a.rs is not b.rs:
        raise ValueError("ideals belong to different root systems")


def meet(a: UpperIdeal, b: UpperIdeal) -> UpperIdeal:
    """Intersection; an upper ideal again."""
    _require_same(a, b)
    return _trusted(a.rs, a.bits & b.bits)


def join(a: UpperIdeal, b: UpperIdeal) -> UpperIdeal:
    """Union; an upper ideal again."""
    _require_same(a, b)
    return _trusted(a.rs, a.bits | b.bits)


def is_strictly_positive(ideal: UpperIdeal) -> bool:
    """True when the ideal contains no simple root."""
    return not ideal.bits & ideal.rs.simple_bits


def is_abelian(ideal: UpperIdeal) -> bool:
    """True when no two members (with repetition) sum to a root."""
    bits, partners = ideal.bits, ideal.rs.partners
    return not any(partners[i] & bits for i in _iter_bits(bits))

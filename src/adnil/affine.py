"""Affine Weyl group machinery over the affine root system.

Vectors live in the span of (alpha_1, ..., alpha_p, delta, Lambda) where
delta is the null root and (delta, Lambda) = 1, (delta, delta) =
(Lambda, Lambda) = 0.  Group elements act by exact integer matrices on
that basis; words are witnesses only, equality is equality of actions.

Inside the module a real affine root k delta + root s is the integer
k * 2N + s, N the number of positive roots and s a signed root index
(s < N is gamma_s, N + g is -gamma_g).  Peeling and the inversion set
N(w) work on these codes: adding two roots is one lookup in
`RootSystem.signed_sums`, and `AffineRoot` objects are built only at the
public boundary (`n_set`, `word_from_biconvex`).  N(w) is read off one
shifted level per positive root gamma: with w(gamma) = l delta + root s,
e = l, or l - 1 when root s is negative; k delta + gamma is inverted for
0 <= k < -e and k delta - gamma for 1 <= k <= e, so each gamma adds at
most one run of codes.  A matrix is built on
the codes too: one step g <- g s_i updates the images g(alpha_j) of the
p+1 affine simple roots and g(Lambda), and the matrix is read off them.
`from_word` runs the step on the word and on the reversed word, and
bi-convex peeling runs it while it peels and once more on the peeled
word.  The translation
factorization w = t_z . v recomposes in O(p^2), and the minimal and
maximal elements attached to an upper ideal live here too.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .ideals import (
    UpperIdeal,
    _complement_terms,
    _iter_bits,
    _power_terms,
    _trusted,
    is_strictly_positive,
)
from .normalizers import ParabolicLabel
from .rootsys import RationalVector, RootSystem, _coords, _vector, in_coroot_lattice

__all__ = [
    "AffineRoot",
    "AffineWeylElement",
    "AffineFactorization",
    "affine_simple_root",
    "identity_element",
    "simple_reflection",
    "from_word",
    "translation_element",
    "n_set",
    "length",
    "word_from_biconvex",
    "w_min",
    "w_max",
    "is_minimax",
    "factorize",
    "star",
    "alcove_barycenter",
    "in_min_simplex",
    "in_max_simplex",
    "normalizer_by_zwall",
    "rho_hat",
    "check_inversion_sum",
    "inverse_simple_levels",
    "is_dominant",
    "is_minimal_representative",
    "is_maximal_representative",
    "first_layer",
]

IntMatrix = tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class AffineRoot:
    """A real affine root level*delta + finite, with finite a nonzero root."""

    level: int
    finite: tuple[int, ...]

    def is_positive(self) -> bool:
        if self.level != 0:
            return self.level > 0
        return any(c > 0 for c in self.finite)

    def __repr__(self) -> str:
        return f"AffineRoot({self.level}d+{list(self.finite)})"


def affine_simple_root(rs: RootSystem, i: int) -> AffineRoot:
    """The i-th affine simple root; index 0 is delta - theta."""
    if not isinstance(i, int) or not 0 <= i <= rs.rank:
        raise ValueError(f"affine simple index {i} out of range")
    if i == 0:
        return AffineRoot(1, tuple(-c for c in rs.theta.coeffs))
    return AffineRoot(0, tuple(1 if j == i - 1 else 0 for j in range(rs.rank)))


def _images(rs: RootSystem, word, images=None):
    """Coded images of g s_{word[0]} ... s_{word[-1]}, updated in place.

    images holds g(alpha_j) = level[j] delta + root sign[j] for j = 0..p
    (alpha_0 = delta - theta) and g(Lambda) - Lambda as (finite..., level);
    g is the identity when images is None.  A letter i sets g <- g s_i:
    g s_i(alpha_i) = -g(alpha_i), g s_0(Lambda) = g(Lambda) - g(alpha_0),
    and g s_i(alpha_j) = g(alpha_j) + k g(alpha_i) for each (j, k) in
    rs.affine_neighbours[i].  That adds the level and takes the finite part
    by one signed_sums lookup per unit of k (alpha_j + m alpha_i is a root
    for m <= k), except in affine A1 (k = 2), where the finite parts cancel.
    """
    p = rs.rank
    n = len(rs.positive_roots)
    if images is None:
        images = [1] + [0] * p, [2 * n - 1, *rs.simple_index], [0] * (p + 1)
    level, sign, lam = images
    add = rs.signed_sums
    neighbours = rs.affine_neighbours
    for i in word:
        li, si = level[i], sign[i]
        if i == 0:
            lam[:] = [x - y for x, y in zip(lam, rs.signed_roots[si] + (li,))]
        neg = si + n if si < n else si - n
        level[i], sign[i] = -li, neg
        for j, k in neighbours[i]:
            level[j] += k * li
            sj = sign[j]
            if sj == neg:
                sign[j] = si
                continue
            for _ in range(k):
                sj = add[sj][si]
            sign[j] = sj
    return images


def _matrix(rs: RootSystem, images) -> IntMatrix:
    """The matrix of g with columns g(alpha_1..alpha_p), g(delta) = delta, g(Lambda)."""
    level, sign, lam = images
    p = rs.rank
    cols = [rs.signed_roots[sign[j]] + (level[j], 0) for j in range(1, p + 1)]
    cols += [(0,) * p + (1, 0), (*lam, 1)]
    return tuple(zip(*cols))


def _image(m, level: int, finite: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    """(delta-level, finite part) of m applied to level*delta + finite."""
    p = len(finite)
    nz = [(j, c) for j, c in enumerate(finite) if c]
    fin = tuple(sum(m[t][j] * c for j, c in nz) for t in range(p))
    return level + sum(m[p][j] * c for j, c in nz), fin


def _imat_mul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    cols = tuple(zip(*b))
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in cols) for row in a
    )


@dataclass(frozen=True, eq=False)
class AffineWeylElement:
    """Affine Weyl group element: exact integer action plus a word witness.

    Two elements are equal iff their action matrices agree; the stored
    word evaluates to the action but need not be reduced unless produced
    by bi-convex peeling.
    """

    rs: RootSystem
    word: tuple[int, ...]
    matrix: IntMatrix
    inverse_matrix: IntMatrix

    def __eq__(self, other) -> bool:
        if not isinstance(other, AffineWeylElement):
            return NotImplemented
        return self.rs is other.rs and self.matrix == other.matrix

    def __hash__(self) -> int:
        return hash((id(self.rs), self.matrix))

    def __mul__(self, other: AffineWeylElement) -> AffineWeylElement:
        if self.rs is not other.rs:
            raise ValueError("elements belong to different root systems")
        return AffineWeylElement(
            self.rs,
            self.word + other.word,
            _imat_mul(self.matrix, other.matrix),
            _imat_mul(other.inverse_matrix, self.inverse_matrix),
        )

    def inverse(self) -> AffineWeylElement:
        return AffineWeylElement(
            self.rs,
            tuple(reversed(self.word)),
            self.inverse_matrix,
            self.matrix,
        )

    def finite_part_matrix(self) -> IntMatrix:
        p = self.rs.rank
        return tuple(row[:p] for row in self.matrix[:p])

    def _apply(self, m: IntMatrix, mu: AffineRoot) -> AffineRoot:
        lvl, fin = _image(m, mu.level, mu.finite)
        if fin not in self.rs.signed_index:
            raise AssertionError("image of a root is not a root")
        return AffineRoot(lvl, fin)

    def apply_root(self, mu: AffineRoot) -> AffineRoot:
        return self._apply(self.matrix, mu)

    def apply_root_inverse(self, mu: AffineRoot) -> AffineRoot:
        return self._apply(self.inverse_matrix, mu)

    def __repr__(self) -> str:
        name = "*".join(f"s{i}" for i in self.word) if self.word else "e"
        return f"AffineWeylElement({self.rs.label}, {name})"


def identity_element(rs: RootSystem) -> AffineWeylElement:
    return from_word(rs, ())


def simple_reflection(rs: RootSystem, i: int) -> AffineWeylElement:
    """Generator s_i of the affine Weyl group, 0 <= i <= rank."""
    return from_word(rs, (i,))


def from_word(rs: RootSystem, word) -> AffineWeylElement:
    """Compose simple reflections; word[0] is applied last."""
    word = tuple(word)
    for i in word:
        if not isinstance(i, int) or not 0 <= i <= rs.rank:
            raise ValueError(f"affine simple index {i} out of range")
    return AffineWeylElement(
        rs, word, _matrix(rs, _images(rs, word)), _matrix(rs, _images(rs, word[::-1]))
    )


def _inversion_codes(w: AffineWeylElement) -> set[int]:
    """N(w) as codes k * 2N + s (see the module docstring).

    The image of each positive root gamma_k = gamma_i + alpha_a (rs.split) is
    image(gamma_i) + image(alpha_a): a level add and one signed_sums lookup,
    starting from the simple-root columns of w, then the shifted level e.
    """
    rs = w.rs
    p = rs.rank
    n = len(rs.positive_roots)
    n2 = 2 * n
    m = w.matrix
    add = rs.signed_sums
    level = [0] * n
    sign = [0] * n
    for g, col, lv in zip(rs.simple_index, zip(*m[:p]), m[p]):
        level[g], sign[g] = lv, rs.signed_index.get(col)
        if sign[g] is None:
            raise AssertionError("image of a root is not a root")
    out: set[int] = set()
    for g, pair in enumerate(rs.split):
        if pair is None:
            e, s = level[g], sign[g]
        else:
            i, a = pair
            h = rs.simple_index[a]
            e = level[g] = level[i] + level[h]
            s = sign[g] = add[sign[i]][sign[h]]
        if s >= n:
            e -= 1
        if e < 0:
            out.update(range(g, -e * n2, n2))  # k delta + gamma, 0 <= k < -e
        elif e:
            out.update(range(n2 + n + g, (e + 1) * n2, n2))  # k delta - gamma, 1 <= k <= e
    return out


def n_set(w: AffineWeylElement) -> frozenset[AffineRoot]:
    """Positive affine roots sent to negative ones by w (decoded N(w))."""
    n2 = 2 * len(w.rs.positive_roots)
    roots = w.rs.signed_roots
    return frozenset(AffineRoot(c // n2, roots[c % n2]) for c in _inversion_codes(w))


def length(w: AffineWeylElement) -> int:
    """Coxeter length, computed as the size of the inversion set."""
    return len(_inversion_codes(w))


def _peel(rs: RootSystem, codes: set[int]) -> AffineWeylElement:
    """Element whose inversion set has these codes; see word_from_biconvex."""
    p = rs.rank
    n2 = 2 * len(rs.positive_roots)
    roots = rs.signed_roots
    level, sign, _ = images = _images(rs, ())
    left = set(codes)
    peeled: list[int] = []
    while left:
        for i in range(p + 1):
            code = level[i] * n2 + sign[i]
            if code in left:
                break
        else:
            ginv = _matrix(rs, _images(rs, peeled[::-1]))
            raise ValueError(
                "set is not bi-convex: no affine simple root left to peel "
                f"among {sorted(_image(ginv, c // n2, roots[c % n2]) for c in left)}"
            )
        left.remove(code)
        peeled.append(i)
        _images(rs, (i,), images)
    word = tuple(peeled[::-1])
    w = AffineWeylElement(rs, word, _matrix(rs, _images(rs, word)), _matrix(rs, images))
    if _inversion_codes(w) != codes:
        raise ValueError("set is not bi-convex: reconstruction mismatch")
    return w


def word_from_biconvex(rs: RootSystem, roots) -> AffineWeylElement:
    """Element whose inversion set is the given bi-convex set (by peeling).

    Each root is checked and turned into its code k * 2N + s (module
    docstring).  With g the product peeled so far and left the unpeeled
    codes, a step finds the lowest i with g(alpha_i) in left and sets
    g <- g s_i with `_images`, which keeps only the p+1 images g(alpha_j),
    as (level, signed index) pairs, and g(Lambda).  They are the columns
    of the result's inverse g; its matrix comes from the same step run on
    the reversed word.  A set that is not an inversion set is rejected
    with a diagnostic that maps the unpeeled roots back through g^{-1}
    (built by the same step), and the inversion set of the result is
    compared with the input, both coded.
    """
    n2 = 2 * len(rs.positive_roots)
    codes = set()
    for mu in set(roots):
        if not mu.is_positive():
            raise ValueError(f"{mu!r} is not a positive affine root")
        s = rs.signed_index.get(mu.finite)
        if s is None:
            raise ValueError(f"{mu!r} has a non-root finite part")
        codes.add(mu.level * n2 + s)
    return _peel(rs, codes)


def _peel_chain(rs: RootSystem, terms) -> AffineWeylElement:
    """Peel bitset terms stacked by level: level k holds k delta - gamma, gamma in term k."""
    n = len(rs.positive_roots)
    codes = {k * 2 * n + n + g for k, t in enumerate(terms, 1) for g in _iter_bits(t)}
    return _peel(rs, codes)


def w_min(ideal: UpperIdeal) -> AffineWeylElement:
    """Minimal dominant element whose first layer is the given ideal.

    Its inversion set stacks the power chain of the ideal: level k holds
    k*delta - gamma for gamma in the k-th power.
    """
    rs = ideal.rs
    return _peel_chain(rs, _power_terms(rs, ideal.generator_indices(), ideal.bits))


def w_max(ideal: UpperIdeal) -> AffineWeylElement:
    """Maximal dominant element for a strictly positive ideal.

    Its inversion set stacks the complement chain instead of the power
    chain; it exists only when no simple root lies in the ideal.
    """
    if not is_strictly_positive(ideal):
        raise ValueError("maximal element requires a strictly positive ideal")
    terms = list(_complement_terms(ideal.rs, ideal.bits))
    if terms[-1]:
        raise AssertionError("complement chain stalled on a strictly positive ideal")
    return _peel_chain(ideal.rs, terms)


def is_minimax(ideal: UpperIdeal) -> bool:
    """Whether the minimal and maximal elements of the ideal coincide.

    Equivalent to equality of the power chain and the complement chain,
    which is how it is decided (no words are built): the two term walks
    are read in lockstep, and the first pair of terms that differs answers
    False.  A complement chain that ends on a nonempty term has stalled.

    Term 1 is tested first, with no product.  With m the complement of I,
    term 1 of the complement chain is I minus m^2 and term 1 of the power
    chain is I^2, so for a minimax ideal every root of I lies in I^2 or in
    m^2: it is the sum of two roots of I or of two roots outside I.
    `RootSystem.halves` lists the pairs that sum to each root, and the first
    root with neither kind of pair answers False.  The generators of I need
    no test: a generator g of a strictly positive I is not simple, so g =
    beta + alpha_a for a simple alpha_a and a positive root beta; alpha_a
    is outside I because I is strictly positive and beta because g is
    minimal, so g is in m^2.  An ideal that passes goes on to the lockstep.
    """
    if not is_strictly_positive(ideal):
        return False
    rs, bits = ideal.rs, ideal.bits
    halves = rs.halves
    rest = bits & ~ideal._generator_bits()
    while rest:  # lowest root first: the low roots of I fail most often
        low = rest & -rest
        rest ^= low
        for pair in halves[low.bit_length() - 1]:
            inside = pair & bits
            if not inside or inside == pair:
                break
        else:
            return False
    powers = _power_terms(rs, ideal.generator_indices(), bits)
    for lower, upper in zip(powers, _complement_terms(rs, bits)):
        if lower != upper:
            return False
    if upper:
        raise AssertionError("complement chain stalled on a strictly positive ideal")
    return True


@dataclass(frozen=True)
class AffineFactorization:
    """w = t_z . v with v in the finite Weyl group and z in the coroot lattice."""

    finite_part: IntMatrix
    translation: RationalVector


def _translation_data(rs: RootSystem, z) -> tuple[tuple[int, ...], tuple[int, ...], int]:
    """Integer z, its pairings ((z, alpha_j))_j and |z|^2/2, for z in the coroot lattice."""
    coords = _coords(z)
    if not in_coroot_lattice(rs, coords):
        raise ValueError("translation vector is not in the coroot lattice")
    if any(c.denominator != 1 for c in coords):
        raise AssertionError("coroot-lattice vector with non-integral data")
    z = tuple(c.numerator for c in coords)
    y, den = rs._scaled_pairings(z)
    if any(v % den for v in y):
        raise AssertionError("non-integral pairing with a simple root")
    pairs = [v // den for v in y]
    half_norm, odd = divmod(sum(c * q for c, q in zip(z, pairs)), 2)
    if odd:
        raise AssertionError("coroot-lattice vector with non-integral data")
    return z, tuple(pairs), half_norm


def _translation_matrix(rs: RootSystem, z) -> IntMatrix:
    """Action matrix of t_z for z in the coroot lattice."""
    p = rs.rank
    z, pairs, half_norm = _translation_data(rs, z)
    rows = [[1 if r == c else 0 for c in range(p + 2)] for r in range(p + 2)]
    for j in range(p):
        rows[p][j] = -pairs[j]
    for t in range(p):
        rows[t][p + 1] = z[t]
    rows[p][p + 1] = -half_norm
    return tuple(tuple(r) for r in rows)


def translation_element(rs: RootSystem, z) -> AffineWeylElement:
    """The translation t_z as a group element, with a peeled reduced word."""
    coords = tuple(Fraction(c) for c in _coords(z))
    m = _translation_matrix(rs, coords)
    minv = _translation_matrix(rs, tuple(-c for c in coords))
    probe = AffineWeylElement(rs, (), m, minv)
    out = _peel(rs, _inversion_codes(probe))
    if out.matrix != m:
        raise AssertionError("translation reconstruction mismatch")
    return out


def factorize(w: AffineWeylElement) -> AffineFactorization:
    """Split w = t_z . v; v fixes Lambda, so w(Lambda) = Lambda + z - |z|^2/2 delta.

    z is read off the Lambda column.  Recomposing t_z . v entry by entry, the
    delta-row must be -(z, alpha) . v, the delta-column and the Lambda-row
    those of the identity, and the (delta, Lambda) entry -|z|^2/2.
    """
    rs = w.rs
    p = rs.rank
    m = w.matrix
    z, pairs, half_norm = _translation_data(rs, (m[t][p + 1] for t in range(p)))
    v = w.finite_part_matrix()
    nz = [(j, q) for j, q in enumerate(pairs) if q]
    delta_row = tuple(-sum(q * v[j][c] for j, q in nz) for c in range(p))
    if (
        m[p][:p] != delta_row
        or m[p][p:] != (1, -half_norm)
        or any(m[t][p] for t in range(p))
        or m[p + 1] != (0,) * (p + 1) + (1,)
    ):
        raise AssertionError("translation factorization does not recompose")
    return AffineFactorization(v, RationalVector(tuple(Fraction(c) for c in z)))


def star(w: AffineWeylElement, x) -> RationalVector:
    """Affine action on the finite space: x maps to v(x) + z."""
    fac = factorize(w)
    coords = tuple(Fraction(c) for c in _vector(w.rs, x))
    v, z = fac.finite_part, fac.translation.coords
    return RationalVector(tuple(sum(a * b for a, b in zip(r, coords)) + t for r, t in zip(v, z)))


def alcove_barycenter(rs: RootSystem) -> RationalVector:
    """Barycenter of the fundamental alcove (vertices 0 and coweights/marks)."""
    n = rs.rank + 1
    return rs.from_pairings(tuple(Fraction(1, m * n) for m in rs.marks))


def in_min_simplex(rs: RootSystem, x) -> bool:
    """(x, alpha) >= -1 on all simples and (x, theta) <= 2."""
    y = rs.pairings(x)
    return min(y) >= -1 and sum(c * v for c, v in zip(rs.marks, y)) <= 2


def in_max_simplex(rs: RootSystem, x) -> bool:
    """(x, alpha) <= 1 on all simples and (x, theta) >= 0."""
    y = rs.pairings(x)
    return max(y) <= 1 and sum(c * v for c, v in zip(rs.marks, y)) >= 0


def normalizer_by_zwall(w: AffineWeylElement) -> ParabolicLabel:
    """Parabolic label read off the walls through z, for w = w_min(ideal).

    Each affine wall containing z (a vanishing simple pairing, or pairing
    one with theta) pulls back through w to a finite simple root of the Levi.
    """
    if not is_minimal_representative(w):
        raise ValueError("z-walls are read off a minimal element only")
    rs = w.rs
    y = rs.pairings(factorize(w).translation)
    walls = [i + 1 for i, v in enumerate(y) if v == 0]
    if sum(c * v for c, v in zip(rs.marks, y)) == 1:
        walls.append(0)
    levi = set()
    for i in walls:
        mu = w.apply_root_inverse(affine_simple_root(rs, i))
        if mu.level != 0 or sum(abs(c) for c in mu.finite) != 1 or max(mu.finite) != 1:
            raise AssertionError("wall does not pull back to a finite simple root")
        levi.add(mu.finite.index(1))
    return ParabolicLabel(rs.rank, frozenset(levi))


def rho_hat(rs: RootSystem) -> tuple[Fraction, ...]:
    """Affine weight pairing to one with every affine simple coroot."""
    return tuple(Fraction(c, 2) for c in rs.two_rho_hat)


def check_inversion_sum(w: AffineWeylElement) -> bool:
    """Whether rho_hat - w^{-1}(rho_hat) equals the sum over N(w).

    Compared doubled, in integers: 2 rho_hat - w^{-1}(2 rho_hat) = 2 sum N(w).
    """
    rs = w.rs
    n2 = 2 * len(rs.positive_roots)
    r = rs.two_rho_hat
    diff = tuple(a - sum(x * y for x, y in zip(row, r)) for a, row in zip(r, w.inverse_matrix))
    codes = _inversion_codes(w)
    roots = (rs.signed_roots[c % n2] for c in codes)
    finite = (sum(col) for col in zip((0,) * rs.rank, *roots))  # p sums when N(w) is empty too
    total = (*finite, sum(c // n2 for c in codes), 0)
    return diff == tuple(2 * t for t in total)


def inverse_simple_levels(w: AffineWeylElement) -> tuple[int, ...]:
    """Delta-levels of w^{-1} on the affine simple roots, index 0 first."""
    rs = w.rs
    p = rs.rank
    minv = w.inverse_matrix
    level0 = 1 - sum(minv[p][j] * rs.theta.coeffs[j] for j in range(p))
    return (level0,) + tuple(minv[p][a] for a in range(p))


def is_dominant(w: AffineWeylElement) -> bool:
    """Whether w sends every finite simple root to a positive affine root."""
    rs = w.rs
    p = rs.rank
    m = w.matrix
    for a in range(p):
        lvl = m[p][a]
        if lvl > 0:
            continue
        if lvl < 0 or not any(m[t][a] > 0 for t in range(p)):
            return False
    return True


def is_minimal_representative(w: AffineWeylElement) -> bool:
    """Dominant, and w^{-1} keeps every affine simple at level >= -1."""
    return is_dominant(w) and all(k >= -1 for k in inverse_simple_levels(w))


def is_maximal_representative(w: AffineWeylElement) -> bool:
    """Dominant, and w^{-1} keeps every affine simple at level <= 1."""
    return is_dominant(w) and all(k <= 1 for k in inverse_simple_levels(w))


def first_layer(w: AffineWeylElement) -> UpperIdeal:
    """Upper ideal of positive roots gamma with delta - gamma in N(w).

    It is upward closed: dominance keeps every alpha_a out of N(w), whose
    complement is closed under sums, so delta - gamma - alpha_a outside
    N(w) would put delta - gamma outside too.
    """
    if not is_dominant(w):
        raise ValueError("first layer is defined for dominant elements only")
    rs = w.rs
    n = len(rs.positive_roots)
    low = 3 * n  # delta - gamma_g is 2n + n + g
    return _trusted(rs, sum(1 << (c - low) for c in _inversion_codes(w) if low <= c < low + n))

"""Affine Weyl group machinery over the affine root system.

Vectors live in the span of (alpha_1, ..., alpha_p, delta, Lambda) where
delta is the null root and (delta, Lambda) = 1, (delta, delta) =
(Lambda, Lambda) = 0.  Group elements act by exact integer matrices on
that basis; words are witnesses only, equality is equality of actions.

Inside the module a set of real affine roots is a list of per-level
bitsets with no zero entry past the first: k delta + root s is bit s of
entry k, N the number of positive roots and s a signed root index (s < N
is gamma_s, N + g is -gamma_g).  Peeling and N(w) work on these levels: a
test is one shift, a removal one XOR, a root sum one `RootSystem.signed_sums`
lookup, and `AffineRoot` objects are built only at the public boundary
(`n_set`, `word_from_biconvex`).  N(w) is read off one shifted level per
positive root gamma: with w(gamma) = l delta + root s, e = l, or l - 1
when root s is negative; k delta + gamma is inverted for 0 <= k < -e and
k delta - gamma for 1 <= k <= e, so each gamma sets one run of levels.  A
matrix is built on the same indices: one step g <- g s_i updates the
images g(alpha_j) of the p+1 affine simple roots and g(Lambda), and the
matrix is read off them; `_inverse_of` reads the matrix of g^{-1} off the
same images.  `from_word` runs the step once, on the word, and bi-convex
peeling runs it inline while it peels, with no replay of the peeled word.
The translation factorization w = t_z . v recomposes in O(p^2), and the
minimal and maximal elements attached to an upper ideal live here too.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul

from .ideals import (
    UpperIdeal,
    _complement_terms,
    _iter_bits,
    _power_terms,
    _trusted,
    is_strictly_positive,
)
from .normalizers import ParabolicLabel
from .rootsys import (
    RationalVector,
    RootSystem,
    _check_indices,
    _coords,
    _setters,
    _Value,
    _vector,
    in_coroot_lattice,
)

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


class AffineRoot(_Value):
    """A real affine root level*delta + finite, with finite a nonzero root."""

    __slots__ = ("level", "finite")

    def __init__(self, level: int, finite: tuple[int, ...]):
        _set_level(self, level)
        _set_finite(self, finite)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.level == other.level and self.finite == other.finite
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.level, self.finite))

    def is_positive(self) -> bool:
        if self.level != 0:
            return self.level > 0
        return any(c > 0 for c in self.finite)

    def __repr__(self) -> str:
        return f"AffineRoot({self.level}d+{list(self.finite)})"


_set_level, _set_finite = _setters(AffineRoot)


def affine_simple_root(rs: RootSystem, i: int) -> AffineRoot:
    """The i-th affine simple root; index 0 is delta - theta."""
    _check_indices((i,), rs.rank + 1, "affine simple index")
    if i == 0:
        return AffineRoot(1, tuple(-c for c in rs.theta.coeffs))
    return AffineRoot(0, tuple(1 if j == i - 1 else 0 for j in range(rs.rank)))


def _images(rs: RootSystem, word):
    """Coded images of g = s_{word[0]} ... s_{word[-1]}.

    They are g(alpha_j) = level[j] delta + root sign[j] for j = 0..p
    (alpha_0 = delta - theta) and g(Lambda) - Lambda as (finite..., level),
    built from the identity one letter at a time.  A letter i sets g <- g s_i:
    g s_i(alpha_i) = -g(alpha_i), g s_0(Lambda) = g(Lambda) - g(alpha_0),
    and g s_i(alpha_j) = g(alpha_j) + k g(alpha_i) for each (j, k) in
    rs.affine_neighbours[i].  That adds the level and takes the finite part
    by one lookup per unit of k in the (symmetric) signed_sums row of
    g(alpha_i), except in affine A1 (k = 2), where the finite parts cancel.
    """
    p = rs.rank
    n = len(rs.positive_roots)
    level, sign, lam = images = [1] + [0] * p, [2 * n - 1, *rs.simple_index], [0] * (p + 1)
    add = rs.signed_sums
    neighbours = rs.affine_neighbours
    for i in word:
        li, si = level[i], sign[i]
        if i == 0:
            lam[:] = [x - y for x, y in zip(lam, rs.signed_roots[si] + (li,))]
        neg = si + n if si < n else si - n
        level[i], sign[i] = -li, neg
        row = add[si]
        for j, k in neighbours[i]:
            level[j] += k * li
            sj = sign[j]
            if sj == neg:
                sj = si
            elif k == 1:
                sj = row[sj]
            else:
                for _ in range(k):
                    sj = row[sj]
            sign[j] = sj
    return images


def _matrix(rs: RootSystem, images) -> IntMatrix:
    """The matrix of g with columns g(alpha_1..alpha_p), g(delta) = delta, g(Lambda)."""
    level, sign, lam = images
    p = rs.rank
    cols = [rs.signed_roots[sign[j]] + (level[j], 0) for j in range(1, p + 1)]
    cols += [(0,) * p + (1, 0), (*lam, 1)]
    return tuple(zip(*cols))


def _inverse_of(rs: RootSystem, images) -> IntMatrix:
    """The matrix of g^{-1}, read off the coded images of g in O(p^2) lookups.

    With u the finite part of g and l its delta-level, g^{-1}(alpha_j) =
    r_j - l(r_j) delta for the root r_j = u^{-1}(alpha_j), found by its
    pairings (r_j, alpha_k) = (alpha_j, u(alpha_k)) in
    rs.signed_pairing_index.  With g(Lambda) = Lambda + z' + c delta,
    g^{-1}(Lambda) = Lambda - u^{-1}(z') + c delta: both have norm 0, and
    u^{-1}(z') has the norm of z', so c = -|z'|^2/2 on both sides.
    """
    level, sign, lam = images
    p = rs.rank
    pairing, index, signed = rs.signed_pairing_rows, rs.signed_pairing_index, rs.signed_roots
    roots = [signed[index[y]] for y in zip(*[pairing[s] for s in sign[1:]])]
    z = lam[:p]
    rows = [(*col, 0, -sum(map(mul, z, col))) for col in zip(*roots)]
    lv = level[1:]
    rows.append((*[-sum(map(mul, r, lv)) for r in roots], 1, lam[p]))
    rows.append((0,) * (p + 1) + (1,))
    return tuple(rows)


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


class AffineWeylElement(_Value):
    """Affine Weyl group element: exact integer action plus a word witness.

    Two elements are equal iff their action matrices agree; the stored
    word evaluates to the action but need not be reduced unless produced
    by bi-convex peeling.
    """

    __slots__ = ("rs", "word", "matrix", "inverse_matrix")

    def __init__(
        self, rs: RootSystem, word: tuple[int, ...], matrix: IntMatrix, inverse_matrix: IntMatrix
    ):
        _set_rs(self, rs)
        _set_word(self, word)
        _set_matrix(self, matrix)
        _set_inverse(self, inverse_matrix)

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


_set_rs, _set_word, _set_matrix, _set_inverse = _setters(AffineWeylElement)


def identity_element(rs: RootSystem) -> AffineWeylElement:
    return from_word(rs, ())


def simple_reflection(rs: RootSystem, i: int) -> AffineWeylElement:
    """Generator s_i of the affine Weyl group, 0 <= i <= rank."""
    return from_word(rs, (i,))


def from_word(rs: RootSystem, word) -> AffineWeylElement:
    """Compose simple reflections; word[0] is applied last.

    One `_images` run on the word gives the matrix, and `_inverse_of` reads
    the inverse matrix off the same images.
    """
    word = tuple(word)
    _check_indices(word, rs.rank + 1, "affine simple index")
    images = _images(rs, word)
    return AffineWeylElement(rs, word, _matrix(rs, images), _inverse_of(rs, images))


def _inversion_levels(rs: RootSystem, m: IntMatrix) -> list[int]:
    """N(w) as per-level bitsets (see the module docstring), m the matrix of w.

    The image of each positive root gamma_k = gamma_i + alpha_a (rs.split) is
    image(gamma_i) + image(alpha_a): a level add and one signed_sums lookup,
    starting from the simple-root columns of m, then the shifted level e.
    Each gamma sets the top level of its run, and one suffix OR the rest.
    """
    p = rs.rank
    n = len(rs.positive_roots)
    add = rs.signed_sums
    level = [0] * n
    sign = [0] * n
    for g, col, lv in zip(rs.simple_index, zip(*m[:p]), m[p]):
        level[g], sign[g] = lv, rs.signed_index.get(col)
        if sign[g] is None:
            raise AssertionError("image of a root is not a root")
    out = [0]
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
            e, bit = -e - 1, 1 << g  # k delta + gamma, 0 <= k < -e
        elif e:
            bit = 1 << (n + g)  # k delta - gamma, 1 <= k <= e
        else:
            continue
        if e >= len(out):
            out += [0] * (e + 1 - len(out))
        out[e] |= bit
    for k in range(len(out) - 2, -1, -1):
        out[k] |= out[k + 1]
    out[0] &= (1 << n) - 1  # the k delta - gamma runs start at level 1
    return out


def n_set(w: AffineWeylElement) -> frozenset[AffineRoot]:
    """Positive affine roots sent to negative ones by w (decoded N(w))."""
    roots = w.rs.signed_roots
    levels = _inversion_levels(w.rs, w.matrix)
    return frozenset(AffineRoot(k, roots[s]) for k, t in enumerate(levels) for s in _iter_bits(t))


def _length_and_layer(w: AffineWeylElement) -> tuple[int, int]:
    """The size of N(w) and the bits of the gamma with delta - gamma in it."""
    levels = _inversion_levels(w.rs, w.matrix)
    layer = levels[1] >> len(w.rs.positive_roots) if len(levels) > 1 else 0
    return sum(map(int.bit_count, levels)), layer


def length(w: AffineWeylElement) -> int:
    """Coxeter length, computed as the size of the inversion set."""
    return _length_and_layer(w)[0]


def _peel(rs: RootSystem, levels: list[int], stray=()) -> AffineWeylElement:
    """Element whose inversion set is levels; see word_from_biconvex for stray."""
    n = len(rs.positive_roots)
    roots = rs.signed_roots
    add = rs.signed_sums
    neighbours = rs.affine_neighbours
    level, sign, lam = images = _images(rs, ())
    left, top = list(levels), len(levels)
    count = sum(map(int.bit_count, left)) + len(stray)
    ready = 0  # bitset of the j with g(alpha_j) in left
    for j, (lj, sj) in enumerate(zip(level, sign)):
        if 0 <= lj < top and left[lj] >> sj & 1:
            ready |= 1 << j
    peeled: list[int] = []
    while count:
        if not ready:
            ginv = _inverse_of(rs, images)
            unpeeled = [(k, s) for k, t in enumerate(left) for s in _iter_bits(t)]
            raise ValueError(
                "set is not bi-convex: no affine simple root left to peel "
                f"among {sorted(_image(ginv, k, roots[s]) for k, s in [*unpeeled, *stray])}"
            )
        i = (ready & -ready).bit_length() - 1
        li, si = level[i], sign[i]
        left[li] ^= 1 << si
        count -= 1
        peeled.append(i)
        # the step of _images, g <- g s_i; it moves only g(alpha_i) and the
        # neighbours' images, so only their ready bits are tested again
        if i == 0:
            lam[:] = [x - y for x, y in zip(lam, roots[si] + (li,))]
        neg = si + n if si < n else si - n
        level[i], sign[i] = -li, neg
        ready &= ~(1 << i)  # g(alpha_i) is now negative, every root left positive
        row = add[si]
        for j, k in neighbours[i]:
            lj = level[j] = level[j] + k * li
            sj = sign[j]
            if sj == neg:
                sj = si
            elif k == 1:
                sj = row[sj]
            else:
                for _ in range(k):
                    sj = row[sj]
            sign[j] = sj
            if 0 <= lj < top and left[lj] >> sj & 1:
                ready |= 1 << j
            elif ready >> j & 1:  # a bi-convex set never gets here
                ready ^= 1 << j
    word = tuple(peeled[::-1])
    w = AffineWeylElement(rs, word, _inverse_of(rs, images), _matrix(rs, images))
    if _inversion_levels(rs, w.matrix) != levels:
        raise ValueError("set is not bi-convex: reconstruction mismatch")
    return w


def word_from_biconvex(rs: RootSystem, roots) -> AffineWeylElement:
    """Element whose inversion set is the given bi-convex set (by peeling).

    Each root is checked (its finite part through `rootsys._vector`, so a
    float entry or level is refused) and set as bit s of level k (module
    docstring); it is positive when k > 0, or k = 0 and s < N.  A root above
    level len(roots) goes to stray, never peeled: an inversion set holds a
    run of k levels below each of its roots.  With g the product peeled so
    far and left the unpeeled levels, a step peels the lowest i with
    g(alpha_i) in left and sets g <- g s_i by the step of `_images`, inline,
    which keeps only the p+1 images g(alpha_j), as (level, signed index)
    pairs, and g(Lambda).  A bitset holds the i with g(alpha_i) in left; a
    step changes only g(alpha_i) and the images of its neighbours, so only
    their bits are tested again.  The images are the columns of the
    result's inverse g, and `_inverse_of` reads the result's matrix off
    them, with no replay of the word.  A set that is not an inversion set is
    rejected with a diagnostic that maps the unpeeled roots back through
    g^{-1} (read off the same way), and the inversion set of the result is
    compared with the input, level by level.
    """
    n = len(rs.positive_roots)
    index = rs.signed_index
    roots = set(roots)
    levels, stray, top = [0], [], len(roots)
    for mu in roots:
        s = index.get(_vector(rs, mu.finite))
        if s is None:
            raise ValueError(f"{mu!r} has a non-root finite part")
        k = mu.level
        if type(k) is not int:
            raise ValueError(f"{mu!r} has a level that is not an int")
        if k < 0 or (k == 0 and s >= n):
            raise ValueError(f"{mu!r} is not a positive affine root")
        if k > top:
            if (k, s) not in stray:  # a Root and a tuple finite part give one (k, s)
                stray.append((k, s))
            continue
        if k >= len(levels):
            levels += [0] * (k + 1 - len(levels))
        levels[k] |= 1 << s
    return _peel(rs, levels, stray)


def _peel_chain(rs: RootSystem, terms) -> AffineWeylElement:
    """Peel terms that end on an empty one: level k holds k delta - gamma, gamma in term k."""
    n = len(rs.positive_roots)
    return _peel(rs, [0, *(t << n for t in terms if t)])


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


class AffineFactorization(_Value):
    """w = t_z . v, v finite and z in the coroot lattice (ints), with pairings ((z, alpha_j))_j."""

    __slots__ = ("finite_part", "translation", "pairings")

    def __init__(
        self, finite_part: IntMatrix, translation: RationalVector, pairings: tuple[int, ...]
    ):
        _set_finite_part(self, finite_part)
        _set_translation(self, translation)
        _set_pairings(self, pairings)


_set_finite_part, _set_translation, _set_pairings = _setters(AffineFactorization)


def _translation_data(rs: RootSystem, z) -> tuple[tuple[int, ...], tuple[int, ...], int]:
    """Integer z, its pairings ((z, alpha_j))_j and |z|^2/2, for z in the coroot lattice."""
    z = _coords(z)
    if not in_coroot_lattice(rs, z):
        raise ValueError("translation vector is not in the coroot lattice")
    if any(type(c) is not int for c in z):
        if any(c.denominator != 1 for c in z):
            raise AssertionError("coroot-lattice vector with non-integral data")
        z = tuple(c.numerator for c in z)
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
    """The translation t_z, with a peeled reduced word; z is validated once, in its matrix."""
    m = _translation_matrix(rs, z)
    out = _peel(rs, _inversion_levels(rs, m))
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
    return AffineFactorization(v, RationalVector(z), pairs)


def star(w: AffineWeylElement, x) -> RationalVector:
    """Affine action on the finite space: x maps to v(x) + z, ints for an int x."""
    fac = factorize(w)
    coords = _vector(w.rs, x)
    v, z = fac.finite_part, fac.translation.coords
    return RationalVector(tuple(sum(a * b for a, b in zip(r, coords)) + t for r, t in zip(v, z)))


def alcove_barycenter(rs: RootSystem) -> RationalVector:
    """Barycenter of the fundamental alcove (vertices 0 and coweights/marks)."""
    n = rs.rank + 1
    return rs.from_pairings(tuple(Fraction(1, m * n) for m in rs.marks))


def _affine_levels(rs: RootSystem, y) -> tuple:
    """Levels (1 - sum c_j y_j, y_1, ..., y_p) of the p+1 affine simple roots,
    alpha_0 = delta - theta first, at the point x with pairings y_j = (x, alpha_j)."""
    return (1 - sum(map(mul, rs.marks, y)), *y)


def in_min_simplex(rs: RootSystem, x) -> bool:
    """(x, alpha) >= -1 on all simples and (x, theta) <= 2: every affine level >= -1."""
    return min(_affine_levels(rs, rs.pairings(x))) >= -1


def in_max_simplex(rs: RootSystem, x) -> bool:
    """(x, alpha) <= 1 on all simples and (x, theta) >= 0: every affine level <= 1."""
    return max(_affine_levels(rs, rs.pairings(x))) <= 1


def _wall_preimage(w: AffineWeylElement, i: int) -> tuple[int, ...]:
    """Finite part of w^{-1}(alpha_i): column i - 1 of the finite rows of
    w.inverse_matrix, and for alpha_0 = delta - theta minus the theta-sum of
    those columns.  Its delta-level is inverse_simple_levels(w)[i]."""
    rows = w.inverse_matrix[: w.rs.rank]
    return tuple(row[i - 1] if i else -sum(map(mul, w.rs.marks, row)) for row in rows)


def normalizer_by_zwall(w: AffineWeylElement) -> ParabolicLabel:
    """Parabolic label read off the walls through z, for w = w_min(ideal).

    The walls through z, the affine simple roots of level 0 in
    `inverse_simple_levels(w)`, pull back through w to Levi simple roots.
    """
    if not is_minimal_representative(w):
        raise ValueError("z-walls are read off a minimal element only")
    levi = set()
    for i, level in enumerate(inverse_simple_levels(w)):
        if level:
            continue
        finite = _wall_preimage(w, i)
        if sum(map(abs, finite)) != 1 or max(finite) != 1:
            raise AssertionError("wall does not pull back to a finite simple root")
        levi.add(finite.index(1))
    return ParabolicLabel(w.rs.rank, frozenset(levi))


def rho_hat(rs: RootSystem) -> tuple[Fraction, ...]:
    """Affine weight pairing to one with every affine simple coroot."""
    return tuple(Fraction(c, 2) for c in rs.two_rho_hat)


def check_inversion_sum(w: AffineWeylElement) -> bool:
    """Whether rho_hat - w^{-1}(rho_hat) equals the sum over N(w).

    Compared doubled, in integers: 2 rho_hat - w^{-1}(2 rho_hat) = 2 sum N(w).
    """
    rs = w.rs
    r = rs.two_rho_hat
    diff = tuple(a - sum(x * y for x, y in zip(row, r)) for a, row in zip(r, w.inverse_matrix))
    levels = _inversion_levels(rs, w.matrix)
    roots = (rs.signed_roots[s] for t in levels for s in _iter_bits(t))
    finite = (sum(col) for col in zip((0,) * rs.rank, *roots))  # p sums when N(w) is empty too
    total = (*finite, sum(k * t.bit_count() for k, t in enumerate(levels)), 0)
    return diff == tuple(2 * t for t in total)


def inverse_simple_levels(w: AffineWeylElement) -> tuple[int, ...]:
    """Delta-levels of w^{-1} on the affine simple roots, index 0 first: the affine
    levels at z, as w^{-1}(alpha_j) = v^{-1}(alpha_j) + (z, alpha_j) delta for w = t_z . v."""
    p = w.rs.rank
    return _affine_levels(w.rs, w.inverse_matrix[p][:p])


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
    return _trusted(w.rs, _length_and_layer(w)[1])

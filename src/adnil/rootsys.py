"""Root systems of simple Lie algebras with exact rational arithmetic.

Roots are integer coefficient vectors over the simple-root basis
alpha_1..alpha_p.  The invariant form is normalized so that the highest
root theta satisfies (theta, theta) = 2.  Numbering follows Bourbaki for
A, B, C, D, E; F4 is numbered with the two short simple roots first
(marks 2,4,3,2); G2 has alpha_1 short (theta = 3 alpha_1 + 2 alpha_2).
"""

from __future__ import annotations

import os
import re
from bisect import bisect_right
from fractions import Fraction
from functools import cached_property, lru_cache
from math import lcm
from operator import add, attrgetter, mul

from .linalg import adjugate

__all__ = [
    "ConfigurationError",
    "Root",
    "RationalVector",
    "RootSystem",
    "build",
    "inner",
    "leq",
    "root_sum",
    "in_coroot_lattice",
]

# Default rank caps per family; ADNIL_MAX_RANK raises the A/B/C/D caps.
_RANK_RANGE = {"A": (1, 9), "B": (2, 8), "C": (2, 8), "D": (3, 8)}
_FIXED_RANKS = {"E": (6, 7, 8), "F": (4,), "G": (2,)}


class ConfigurationError(ValueError):
    """Unsupported type label or rank."""


class _Value:
    """Base of the immutable value classes.

    The fields of a class are its __slots__ less the "_" names, which hold
    derived state; they are read once, when the class is created.  Equality
    (same class, equal fields), hash (of the field tuple) and repr are a
    frozen dataclass's, and no slot can be assigned or deleted.  The class
    checks outside input; a value the library derives is built by the static
    _make(*fields, <"_" slot>=None), which never calls __init__.  _fill(self,
    *fields) sets every slot through its descriptor, the "_" slots to None;
    it is the __init__ of a class that writes none and ends a validating
    one.  Copies and pickles call the class with the fields.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        names = tuple(f for f in cls.__slots__ if not f.startswith("_"))
        derived = [f for f in cls.__slots__ if f not in names]
        get = attrgetter(*names)
        cls._field_names = names
        cls._fields = property(get if len(names) > 1 else lambda obj: (get(obj),))
        # compiled in one exec per class, the way collections.namedtuple builds
        # __new__, so they cost what hand-written setter calls cost; a "_" slot
        # is a parameter of _make and a None global of _fill
        args, hidden = ", ".join(names), "".join(f", {f}=None" for f in derived)
        sets = "".join(f"\n _set_{f}(self, {f})" for f in cls.__slots__)
        scope = {f"_set_{f}": getattr(cls, f).__set__ for f in cls.__slots__}
        scope.update(dict.fromkeys(derived), __name__=cls.__module__, _new=object.__new__, cls=cls)
        made = f"def _make({args}{hidden}):\n self = _new(cls){sets}\n return self"
        exec(f"def _fill(self, {args}):{sets}\n{made}", scope)
        fill, make = scope["_fill"], scope["_make"]
        make.__qualname__ = f"{cls.__qualname__}._make"
        cls._fill, cls._make = fill, staticmethod(make)
        if "__init__" in vars(cls):
            fill.__qualname__ = f"{cls.__qualname__}._fill"
        else:
            fill.__qualname__ = f"{cls.__qualname__}.__init__"  # named in arity errors
            cls.__init__ = fill

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields == other._fields
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields)

    def __repr__(self) -> str:
        inside = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._field_names)
        return f"{self.__class__.__qualname__}({inside})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._fields


class Root(_Value):
    """A positive or negative root as integer simple-root coefficients."""

    __slots__ = ("coeffs",)

    @property
    def height(self) -> int:
        return sum(self.coeffs)

    def __repr__(self) -> str:
        return f"Root{self.coeffs}"


class RationalVector(_Value):
    """A vector in the span of the simple roots; each coordinate is an int or a Fraction."""

    __slots__ = ("coords",)

    def __repr__(self) -> str:
        return "RationalVector(" + ", ".join(str(c) for c in self.coords) + ")"


def _coords(x) -> tuple:
    """Coefficient tuple of a Root, RationalVector, or plain sequence."""
    if isinstance(x, Root):
        return x.coeffs
    if isinstance(x, RationalVector):
        return x.coords
    return tuple(x)


def _vector(rs: RootSystem, x) -> tuple:
    """Coefficient tuple of x, which must have one int or Fraction per simple root.

    A bool is not an int here, as in `_check_int`: True would read as 1."""
    c = _coords(x)
    if len(c) != rs.rank:
        raise ValueError(f"vector of length {len(c)} in a rank-{rs.rank} root system")
    for v in c:  # about twice as fast as all() over a generator
        if type(v) is bool or not isinstance(v, (int, Fraction)):
            raise ValueError(f"vector {c!r} has an entry that is neither an int nor a Fraction")
    return c


def _check_indices(indices, stop: int, what: str) -> None:
    """Refuse the first index that is not an int in range(stop); `what` names it."""
    for i in indices:
        if type(i) is not int or not 0 <= i < stop:
            why = "out of range" if type(i) is int else "is not an int"
            raise ValueError(f"{what} {i!r} {why}")


def _check_int(x, low: int, why: str) -> None:
    """Refuse x unless it is an int (a bool is not one) of at least low; `why` says so."""
    if type(x) is not int:
        raise ValueError(f"{x!r} is not an int")
    if x < low:
        raise ValueError(why)


def _cartan_entries(family: str, rank: int) -> tuple[tuple[int, ...], ...]:
    """Cartan matrix with entry [i][j] = <alpha_i, alpha_j-coroot>."""
    c = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]

    def edge(i: int, j: int, cij: int = -1, cji: int = -1) -> None:
        c[i][j] = cij
        c[j][i] = cji

    if family == "A":
        for i in range(rank - 1):
            edge(i, i + 1)
    elif family == "B":
        # alpha_rank is the short root.
        for i in range(rank - 2):
            edge(i, i + 1)
        edge(rank - 2, rank - 1, -2, -1)
    elif family == "C":
        # alpha_rank is the long root.
        for i in range(rank - 2):
            edge(i, i + 1)
        edge(rank - 2, rank - 1, -1, -2)
    elif family == "D":
        for i in range(rank - 2):
            edge(i, i + 1)
        edge(rank - 3, rank - 1)
    elif family == "E":
        # Chain 1-3-4-5-..., with node 2 attached to node 4.
        chain = [0] + list(range(2, rank))
        for a, b in zip(chain, chain[1:]):
            edge(a, b)
        edge(1, 3)
    elif family == "F":
        # Short roots first: rows [2,-1,0,0], [-1,2,-1,0], [0,-2,2,-1], [0,0,-1,2].
        edge(0, 1)
        edge(1, 2, -1, -2)
        edge(2, 3)
    elif family == "G":
        # alpha_1 short: rows [2,-1], [-3,2].
        edge(0, 1, -1, -3)
    return tuple(tuple(row) for row in c)


def _symmetrizer(family: str, rank: int) -> tuple[Fraction, ...]:
    """d_i = (alpha_i, alpha_i) / 2 with long roots normalized to d = 1."""
    one, half = Fraction(1), Fraction(1, 2)
    if family == "B":
        return (one,) * (rank - 1) + (half,)
    if family == "C":
        return (half,) * (rank - 1) + (one,)
    if family == "F":
        return (half, half, one, one)
    if family == "G":
        return (Fraction(1, 3), one)
    return (one,) * rank


def _positive_roots(cartan: tuple[tuple[int, ...], ...]) -> list[tuple[int, ...]]:
    """Closure of the simple roots under root strings, as coefficient tuples.

    It runs on packed roots (coefficient i in bits 4i..4i+3 of one int), each with
    its coroot pairings; a probe below zero borrows and leaves a 15 no root has.
    """
    rank = len(cartan)
    unit = [1 << 4 * i for i in range(rank)]
    rows = dict(zip(unit, cartan))  # packed root -> (<gamma, alpha_i-coroot>)_i
    frontier = list(unit)
    while frontier:
        nxt = []
        for gamma in frontier:
            row = rows[gamma]
            for i, step in enumerate(unit):
                # p = how far the alpha_i-string extends below gamma.
                p, probe = 0, gamma - step
                while probe in rows:
                    p += 1
                    probe -= step
                up = gamma + step
                if p - row[i] >= 1 and up not in rows:
                    rows[up] = tuple(map(add, row, cartan[i]))
                    nxt.append(up)
        frontier = nxt
    roots = [tuple(g >> 4 * i & 15 for i in range(rank)) for g in rows]
    if any(c > 7 for t in roots for c in t):
        raise AssertionError("a root coefficient exceeds 7, so packed sums could carry")
    return sorted(roots, key=lambda t: (sum(t), tuple(-x for x in t)))


class RootSystem:
    """Immutable container of exact root-system data.

    Attributes of note: positive_roots (height-sorted Root tuple), theta,
    marks (theta coefficients), f (index of connection), cartan, form (the
    invariant form in ints, form[i][j] = e (alpha_i, alpha_j)), form_scale
    (that e, the lcm of the symmetrizer denominators),
    fundamental_weights / fundamental_coweights, coweights (their
    coordinates in ints, over one denominator coweight_scale), rho,
    rho_check, cartan_adjugate (the integer adjugate f C^-1, a tuple of int
    tuples), and the root-poset tables over root indices: sums[i] (dict
    j -> k with gamma_i + gamma_j = gamma_k), partners[i] (bitset of the j
    with gamma_i + gamma_j a root, the keys of sums[i]), simple_bits (bitset of
    the simple roots), up[i] (bitset of the upper covers gamma_i + alpha_a),
    upsets[i] (bitset of every root >= gamma_i, gamma_i included),
    lowers[i] (bitset of the simple indices a with gamma_i - alpha_a zero or
    a positive root) and split[k] (one pair (i, a) with
    gamma_k = gamma_i + alpha_a, None for a simple root); over signed
    indices (s < N is gamma_s, N + g is -gamma_g, N the number of positive
    roots), signed_roots[s] (coefficients), signed_index (its inverse dict)
    and signed_sums[s] (dict t -> u with root s + root t = root u, so both
    orders of every difference), signed_pairing_rows[s] (the integer form
    pairings e (root s, alpha_j), j = 1..p), signed_pairing_index (its
    inverse dict), halves[k] (the bitsets 1 << i | 1 << j with gamma_i +
    gamma_j = gamma_k) and at_least[i][v] (bitset of the roots whose
    coefficient i is at least v, v = 0..marks[i]), built on first use; for
    the affine layer, affine_cartan, affine_neighbours[i] (the (j, k) with
    <alpha_j, alpha_i^vee> = -k < 0, j != i) and two_rho_hat (2 rho_hat as integers).
    """

    def __init__(self, label: str, family: str, rank: int):
        self.label = label
        self.family = family
        self.rank = rank
        self.cartan = _cartan_entries(family, rank)
        self.symmetrizer = _symmetrizer(family, rank)
        # form[i][j] = e (alpha_i, alpha_j) = cartan[i][j] e d_j, e the lcm of
        # the denominators of the d_j, so every pairing sums in integers.
        e = self.form_scale = lcm(*(d.denominator for d in self.symmetrizer))
        scaled = [int(e * d) for d in self.symmetrizer]
        self.form = tuple(tuple(c * s for c, s in zip(row, scaled)) for row in self.cartan)
        if any(self.form[i][j] != self.form[j][i] for i in range(rank) for j in range(i)):
            raise AssertionError("symmetrizer does not symmetrize the Cartan matrix")

        coeff_list = _positive_roots(self.cartan)
        self.positive_roots = tuple(Root(c) for c in coeff_list)
        self.root_index = {c: k for k, c in enumerate(coeff_list)}
        self.heights = tuple(sum(c) for c in coeff_list)
        self.simple_index = tuple(
            self.root_index[tuple(1 if j == i else 0 for j in range(rank))]
            for i in range(rank)
        )
        self.simple_bits = sum(1 << k for k in self.simple_index)

        self.theta = self.positive_roots[-1]
        top = self.heights[-1]
        if self.heights.count(top) != 1:
            raise AssertionError("highest root is not unique")
        self.marks = self.theta.coeffs
        theta_norm = inner(self, self.theta, self.theta)
        if theta_norm != 2:
            raise AssertionError(f"(theta, theta) = {theta_norm}, expected 2")

        self.f = 1 + sum(1 for c in self.marks if c == 1)
        det, adj = adjugate(self.cartan)
        self.cartan_adjugate = tuple(map(tuple, adj))
        if det != self.f:
            raise AssertionError(f"det(cartan) = {det} but index of connection = {self.f}")

        self.cartan_inverse = tuple(tuple(Fraction(v, det) for v in row) for row in adj)
        self.fundamental_weights = tuple(
            RationalVector(tuple(row)) for row in self.cartan_inverse
        )
        # form / e = cartan diag(d), so its inverse is diag(1/d) cartan^{-1}
        # = diag(e / scaled) adj / det: rows of coweights over coweight_scale.
        top = lcm(*scaled)
        self.coweight_scale = det * top
        self.coweights = tuple(
            tuple(v * e * (top // s) for v in row) for row, s in zip(adj, scaled)
        )
        self.fundamental_coweights = tuple(
            RationalVector(tuple(Fraction(v, self.coweight_scale) for v in row))
            for row in self.coweights
        )
        rho = tuple(
            sum(w.coords[j] for w in self.fundamental_weights) for j in range(rank)
        )
        two_rho = tuple(sum(r.coeffs[j] for r in self.positive_roots) for j in range(rank))
        if rho != tuple(Fraction(c, 2) for c in two_rho):
            raise AssertionError("sum of fundamental weights != half sum of roots")
        self.rho = RationalVector(rho)
        self.rho_check = self.from_pairings((1,) * rank)
        # Coxeter number: 1 + height of theta.
        self.coxeter_number = 1 + self.theta.height

        # (alpha_j, theta) is an integer because theta is long.
        y, den = self._scaled_pairings(self.marks)
        if any(v % den for v in y):
            raise AssertionError("(alpha_j, theta) not integral")
        self.theta_pairing = tuple(v // den for v in y)

        # Packed as in _positive_roots; coefficients <= 7, so no sum carries.
        # Row i stops where the two heights add to more than theta's height.
        n, heights = len(coeff_list), self.heights
        packed = [sum(c << 4 * i for i, c in enumerate(t)) for t in coeff_list]
        at = {g: k for k, g in enumerate(packed)}
        sums: list[dict[int, int]] = [{} for _ in range(n)]
        for i, gi in enumerate(packed):
            for j in range(i, bisect_right(heights, heights[-1] - heights[i])):
                k = at.get(gi + packed[j])
                if k is not None:
                    sums[i][j] = k
                    sums[j][i] = k
        up = [0] * n
        lowers = [0] * n
        split: list[tuple[int, int] | None] = [None] * n
        for a, s in enumerate(self.simple_index):
            lowers[s] |= 1 << a
            for i, k in sums[s].items():
                up[i] |= 1 << k
                lowers[k] |= 1 << a
                if split[k] is None:
                    split[k] = (i, a)
        self.sums = tuple(sums)
        self.partners = tuple(sum(1 << j for j in s) for s in sums)
        self.up = tuple(up)
        # Covers have larger indices, so one falling pass closes each up-set.
        upsets = [0] * n
        for k in range(n - 1, -1, -1):
            bits, covers = 1 << k, up[k]
            while covers:
                j = covers.bit_length() - 1
                covers ^= 1 << j
                bits |= upsets[j]
            upsets[k] = bits
        self.upsets = tuple(upsets)
        self.lowers = tuple(lowers)
        self.split = tuple(split)

        # Over (alpha_1..alpha_p, delta, Lambda), v_i is the affine simple root
        # and u_i its coroot pairing: affine_cartan[i][j] = <alpha_i, alpha_j^vee>
        # = u_j(v_i), i, j = 0..p, and affine_neighbours[i] holds the (j, k)
        # with j != i and <alpha_j, alpha_i^vee> = -k < 0.
        vs = [tuple(-c for c in self.marks) + (1, 0)]
        us = [tuple(-c for c in self.theta_pairing) + (0, 1)]
        for a in range(rank):
            vs.append(tuple(int(j == a) for j in range(rank + 2)))
            us.append(tuple(self.cartan[j][a] for j in range(rank)) + (0, 0))
        ac = self.affine_cartan = tuple(
            tuple(sum(a * b for a, b in zip(v, u)) for u in us) for v in vs
        )
        self.affine_neighbours = tuple(
            tuple((j, -row[i]) for j, row in enumerate(ac) if row[i] and j != i)
            for i in range(rank + 1)
        )
        # 2 rho_hat = 2 rho + 2 h^vee Lambda, h^vee = 1 + (rho, theta).
        two_h_check = 2 + sum(c * q for c, q in zip(two_rho, self.theta_pairing))
        self.two_rho_hat = two_rho + (0, two_h_check)

    @cached_property
    def signed_roots(self) -> tuple[tuple[int, ...], ...]:
        coeffs = tuple(r.coeffs for r in self.positive_roots)
        return coeffs + tuple(tuple(-c for c in r) for r in coeffs)

    @cached_property
    def signed_index(self) -> dict[tuple[int, ...], int]:
        return {c: s for s, c in enumerate(self.signed_roots)}

    @cached_property
    def signed_sums(self) -> tuple[dict[int, int], ...]:
        n = len(self.positive_roots)
        add: list[dict[int, int]] = [{} for _ in range(2 * n)]
        for i, row in enumerate(self.sums):
            for j, k in row.items():  # gamma_i + gamma_j = gamma_k
                add[i][j] = k
                add[n + i][n + j] = n + k
                add[k][n + i] = add[n + i][k] = j
                add[n + k][i] = add[i][n + k] = n + j
        return tuple(add)

    @cached_property
    def signed_pairing_rows(self) -> tuple[tuple[int, ...], ...]:
        # form is symmetric, so its row j pairs with alpha_j; -gamma pairs to minus gamma's row.
        rows = tuple(
            tuple(sum(map(mul, r.coeffs, row)) for row in self.form) for r in self.positive_roots
        )
        return rows + tuple(tuple(-v for v in y) for y in rows)

    @cached_property
    def signed_pairing_index(self) -> dict[tuple[int, ...], int]:
        return {y: s for s, y in enumerate(self.signed_pairing_rows)}

    @cached_property
    def halves(self) -> tuple[tuple[int, ...], ...]:
        pairs: list[list[int]] = [[] for _ in self.positive_roots]
        for i, row in enumerate(self.sums):
            for j, k in row.items():  # gamma_i + gamma_j = gamma_k
                if i < j:
                    pairs[k].append(1 << i | 1 << j)
        return tuple(map(tuple, pairs))

    @cached_property
    def at_least(self) -> tuple[tuple[int, ...], ...]:
        roots = [r.coeffs for r in self.positive_roots]
        return tuple(
            tuple(sum(1 << k for k, c in enumerate(roots) if c[i] >= v) for v in range(m + 1))
            for i, m in enumerate(self.marks)
        )

    def coroot_pairing(self, x, j: int):
        """<x, alpha_j-coroot> = 2 (x, alpha_j) / (alpha_j, alpha_j), j = 0..p-1."""
        _check_indices((j,), self.rank, "simple root index")
        c = _vector(self, x)
        return sum(c[k] * self.cartan[k][j] for k in range(self.rank))

    def _scaled_pairings(self, x) -> tuple[list[int], int]:
        """Integers y and den > 0 with y_j = den (x, alpha_j), summed in ints."""
        c = _vector(self, x)
        den = 1
        if any(type(v) is not int for v in c):
            den = lcm(*(v.denominator for v in c))  # sum den * x in integers
            c = [v.numerator * (den // v.denominator) for v in c]
        # form is symmetric, so its row j pairs with alpha_j.
        return [sum(map(mul, c, row)) for row in self.form], den * self.form_scale

    def pairings(self, x) -> tuple[Fraction, ...]:
        """The pairing vector ((x, alpha_1), ..., (x, alpha_p))."""
        y, den = self._scaled_pairings(x)
        return tuple(Fraction(v, den) for v in y)

    def from_pairings(self, y) -> RationalVector:
        """The x with (x, alpha_j) = y_j, as sum(y_i * omega_i-coweight).

        Summed in integers on the coweights, with the denominators of y
        cleared by one lcm; one Fraction is built per coordinate.
        """
        y = _vector(self, y)
        den = lcm(*(v.denominator for v in y))
        y = [v.numerator * (den // v.denominator) for v in y]
        den *= self.coweight_scale
        return RationalVector(
            tuple(Fraction(sum(map(mul, y, col)), den) for col in zip(*self.coweights))
        )

    def __repr__(self) -> str:
        return f"RootSystem({self.label})"

    def __reduce__(self):
        # copies and pickles resolve to the cached instance that build returns
        return _build_cached, (self.family, self.rank)


def _parse_label(label: str) -> tuple[str, int]:
    match = re.fullmatch(r"([A-Za-z])([1-9][0-9]*)", label)
    if match is None:
        raise ConfigurationError(f"malformed type label {label!r}")
    family = match[1].upper()
    rank = int(match[2])
    if family in _FIXED_RANKS:
        if rank not in _FIXED_RANKS[family]:
            raise ConfigurationError(f"unsupported type {family}{rank}")
        return family, rank
    if family not in _RANK_RANGE:
        raise ConfigurationError(f"unsupported family {family!r}")
    lo, hi = _RANK_RANGE[family]
    env = os.environ.get("ADNIL_MAX_RANK")
    if env is not None:
        # The label's rank rule: ASCII digits, no sign, space or leading zero.
        if re.fullmatch(r"[1-9][0-9]*", env) is None:
            raise ConfigurationError(f"bad ADNIL_MAX_RANK value {env!r}")
        hi = max(hi, int(env))
    if not lo <= rank <= hi:
        raise ConfigurationError(
            f"unsupported rank {rank} for family {family} (allowed {lo}..{hi})"
        )
    return family, rank


@lru_cache(maxsize=None)
def _build_cached(family: str, rank: int) -> RootSystem:
    return RootSystem(f"{family}{rank}", family, rank)


def build(label: str) -> RootSystem:
    """Root system for a type label such as A4, D5, E8, F4, G2.

    A label is a family letter in either case followed by the rank in ASCII
    digits without a leading zero; `RootSystem.label` is its canonical
    spelling.  Instances are cached: repeated calls with one label return
    one object.
    """
    family, rank = _parse_label(label)
    return _build_cached(family, rank)


def inner(rs: RootSystem, x, y) -> Fraction:
    """Invariant bilinear form, (theta, theta) = 2, summed on the integer form.

    (x, y) = sum_j y_j (x, alpha_j), over the integer pairings of x."""
    py, den = rs._scaled_pairings(x)
    return Fraction(sum(map(mul, _vector(rs, y), py)), den)


def leq(rs: RootSystem, mu, gamma) -> bool:
    """Root-poset order: gamma - mu has nonnegative coefficients."""
    cm, cg = _vector(rs, mu), _vector(rs, gamma)
    return all(g - m >= 0 for m, g in zip(cm, cg))


def root_sum(rs: RootSystem, mu, nu) -> Root | None:
    """mu + nu if it is a positive root, else None."""
    s = tuple(a + b for a, b in zip(_vector(rs, mu), _vector(rs, nu)))
    k = rs.root_index.get(s)
    return None if k is None else rs.positive_roots[k]


def in_coroot_lattice(rs: RootSystem, x) -> bool:
    """Whether x (ints or Fractions) lies in the integer span of the simple coroots.

    Its coroot coordinates c_i d_i = c_i form[i][i] / 2e are tested in integers.
    """
    c, form, e2 = _vector(rs, x), rs.form, 2 * rs.form_scale
    return all(v.numerator * form[i][i] % (e2 * v.denominator) == 0 for i, v in enumerate(c))

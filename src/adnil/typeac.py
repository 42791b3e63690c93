"""Coordinate combinatorics of ideals for the special linear and symplectic families.

Positive roots are index pairs: (i, j) with 1 <= i < j <= n+1 for sl_{n+1},
where (i, j) = alpha_i + ... + alpha_{j-1}, and (i, j) with i < j and
i + j <= 2n+1 for sp_{2n}, long exactly when i + j = 2n+1.  Normalizers are
named by the set of simple indices removed from the Levi (1-based here);
converters produce the 0-based Levi labels used elsewhere.
"""

from __future__ import annotations

from math import comb

from .ideals import UpperIdeal, close_upward
from .normalizers import ParabolicLabel
from .rootsys import Root, _check_int, _Value, build

__all__ = [
    "FerrersIdeal",
    "SymplecticIdeal",
    "SignedWord",
    "from_upper_ideal_A",
    "from_upper_ideal_C",
    "normalizer_A",
    "fiber_A",
    "fiber_minimum_A",
    "dual_A",
    "is_minimax_A",
    "symmetrize",
    "desymmetrize",
    "normalizer_C",
    "fiber_C",
    "fiber_minimax_C",
    "encode_word",
    "decode_word",
    "dual_C",
    "is_minimax_C",
    "ballot",
    "minimax_fiber_count_C",
    "minimax_fiber_polynomial",
]


def _check_rank(n) -> None:
    if type(n) is not int or n < 1:
        raise ValueError("rank must be an int of at least 1")


def _checked_pairs(pairs, ok_pair, what: str) -> tuple[tuple[int, int], ...]:
    """The pairs as a tuple of tuples, each a root, both coordinates increasing strictly."""
    pairs = tuple(map(tuple, pairs))
    last_i, last_j = 0, 1
    for i, j in pairs:
        if not (type(i) is int and type(j) is int and ok_pair(i, j)):
            raise ValueError(f"pair {(i, j)} is not a root of {what}")
        if i <= last_i or j <= last_j:
            raise ValueError("generator pairs must increase strictly in both slots")
        last_i, last_j = i, j
    return pairs


class FerrersIdeal(_Value):
    """An upper ideal of sl_{n+1} named by its generator pairs (i, j)."""

    __slots__ = ("n", "pairs")

    def __init__(self, n: int, pairs: tuple[tuple[int, int], ...]):
        _check_rank(n)
        pairs = _checked_pairs(pairs, lambda i, j: 1 <= i < j <= n + 1, f"sl_{n + 1}")
        self._fill(n, pairs)

    def member_pairs(self) -> tuple[tuple[int, int], ...]:
        """All pairs of the ideal: (i, j) lies above a generator (a, b) iff i<=a, j>=b."""
        out = []
        for i in range(1, self.n + 1):
            for j in range(i + 1, self.n + 2):
                if any(i <= a and j >= b for a, b in self.pairs):
                    out.append((i, j))
        return tuple(out)

    def to_upper_ideal(self) -> UpperIdeal:
        rs = build(f"A{self.n}")
        return close_upward(rs, [_root_A(self.n, i, j) for i, j in self.pairs])


class SymplecticIdeal(_Value):
    """An upper ideal of sp_{2n} named by its generator pairs (i, j)."""

    __slots__ = ("n", "pairs")

    def __init__(self, n: int, pairs: tuple[tuple[int, int], ...]):
        _check_rank(n)
        pairs = _checked_pairs(pairs, lambda i, j: 1 <= i < j and i + j <= 2 * n + 1, f"sp_{2 * n}")
        self._fill(n, pairs)

    def member_pairs(self) -> tuple[tuple[int, int], ...]:
        """All pairs of the ideal, through the symmetrized picture."""
        mirror = symmetrize(self).member_pairs()
        return tuple((i, j) for i, j in mirror if i + j <= 2 * self.n + 1)

    def to_upper_ideal(self) -> UpperIdeal:
        rs = build(f"C{self.n}")
        return close_upward(rs, [_root_C(self.n, i, j) for i, j in self.pairs])


class SignedWord(_Value):
    """Letters from {-1, 0, +1} whose partial sums stay nonnegative."""

    __slots__ = ("letters",)

    def __init__(self, letters: tuple[int, ...]):
        letters = tuple(letters)
        total = 0
        for v in letters:
            if type(v) is not int or v not in (-1, 0, 1):
                raise ValueError("letters must be -1, 0, or +1")
            total += v
            if total < 0:
                raise ValueError("partial sums must stay nonnegative")
        self._fill(letters)


def _root_A(n: int, i: int, j: int) -> Root:
    """alpha_i + ... + alpha_{j-1} as a coefficient vector."""
    return Root(tuple(1 if i <= t <= j - 1 else 0 for t in range(1, n + 1)))


def _root_C(n: int, i: int, j: int) -> Root:
    """Pair (i, j) of sp_{2n} as a coefficient vector."""
    coeffs = [0] * n
    if j <= n + 1:
        for t in range(i, j):
            coeffs[t - 1] = 1
    else:
        single_end = 2 * n - j
        for t in range(i, single_end + 1):
            coeffs[t - 1] = 1
        for t in range(max(i, single_end + 1), n):
            coeffs[t - 1] = 2
        coeffs[n - 1] = 1
    return Root(tuple(coeffs))


def _pair_from_root_C(n: int, coeffs: tuple[int, ...]) -> tuple[int, int]:
    i = next(t + 1 for t, c in enumerate(coeffs) if c)
    if 2 in coeffs:
        j = 2 * n + 1 - (coeffs.index(2) + 1)
    else:
        j = max(t + 1 for t, c in enumerate(coeffs) if c) + 1
    if _root_C(n, i, j).coeffs != coeffs:
        raise ValueError(f"coefficient vector {coeffs} is not a root of sp_{2 * n}")
    return i, j


def from_upper_ideal_A(ideal: UpperIdeal) -> FerrersIdeal:
    """Pair form of a type A upper ideal."""
    rs = ideal.rs
    if rs.family != "A":
        raise ValueError("expected a type A root system")
    pairs = []
    for g in ideal.generators():
        nonzero = [t for t, c in enumerate(g.coeffs) if c]
        pairs.append((nonzero[0] + 1, nonzero[-1] + 2))
    return FerrersIdeal._make(rs.rank, tuple(sorted(pairs)))


def from_upper_ideal_C(ideal: UpperIdeal) -> SymplecticIdeal:
    """Pair form of a type C upper ideal."""
    rs = ideal.rs
    if rs.family != "C":
        raise ValueError("expected a type C root system")
    pairs = sorted(_pair_from_root_C(rs.rank, g.coeffs) for g in ideal.generators())
    return SymplecticIdeal._make(rs.rank, tuple(pairs))


def _removed_set_A(c: FerrersIdeal) -> set[int]:
    """Simple indices removed from the Levi: first and shifted second coordinates."""
    return {i for i, _ in c.pairs} | {j - 1 for _, j in c.pairs}


def _removed_members(n, removed, below_n: bool = False) -> list[int]:
    """Check the rank n, then the removed indices: sorted ints in 1..n (1..n-1 when below_n)."""
    _check_rank(n)
    members = set(removed)
    if any(type(l) is not int or not 1 <= l <= n - below_n for l in members):
        raise ValueError(f"removed indices must lie in 1..n{'-1' if below_n else ''}")
    return sorted(members)


def _label_from_removed(rank: int, removed) -> ParabolicLabel:
    levi = frozenset(l - 1 for l in range(1, rank + 1) if l not in removed)
    return ParabolicLabel._make(rank, levi)


def normalizer_A(c: FerrersIdeal) -> ParabolicLabel:
    """Normalizer label read off the generator coordinates."""
    return _label_from_removed(c.n, _removed_set_A(c))


def fiber_A(n: int, removed) -> list[FerrersIdeal]:
    """All ideals of sl_{n+1} whose normalizer removes exactly the given simples.

    Each element is a signed word over the removed set whose letters sum to
    zero, split by `_halves` into sequences a, b of equal length; a_t <= b_t
    for every t exactly when the partial sums stay nonnegative.  Generators
    are (a_t, b_t + 1); output is lexicographic in (a, b).
    """
    members = _removed_members(n, removed)
    found = sorted(
        _halves(members, letters)
        for letters in _signed_words(len(members), with_zero=True)
        if sum(letters) == 0
    )
    return [FerrersIdeal._make(n, tuple((x, y + 1) for x, y in zip(a, b))) for a, b in found]


def fiber_minimum_A(n: int, removed) -> FerrersIdeal:
    """The unique smallest ideal with the given normalizer, by the closed form.

    With removed indices l_1 < ... < l_s, its generators are the pairs
    (l_t, l_{floor(s/2)+t} + 1) for t up to ceil(s/2).
    """
    members = _removed_members(n, removed)
    s = len(members)
    pairs = tuple(
        (members[t], members[s // 2 + t] + 1) for t in range((s + 1) // 2)
    )
    return FerrersIdeal._make(n, pairs)


def dual_A(c: FerrersIdeal) -> FerrersIdeal:
    """Dual ideal: complements of the two coordinate sets swap roles."""
    firsts = {i for i, _ in c.pairs}
    seconds = {j - 1 for _, j in c.pairs}
    new_first = [l for l in range(1, c.n + 1) if l not in seconds]
    new_second = [l for l in range(1, c.n + 1) if l not in firsts]
    return FerrersIdeal._make(c.n, tuple((a, b + 1) for a, b in zip(new_first, new_second)))


def is_minimax_A(c: FerrersIdeal) -> bool:
    """Minimax test: the two coordinate sets are disjoint."""
    return not ({i for i, _ in c.pairs} & {j - 1 for _, j in c.pairs})


def symmetrize(c: SymplecticIdeal) -> FerrersIdeal:
    """The mirror-symmetric ideal of sl_{2n} over a symplectic ideal.

    Each generator (i, j) contributes itself and its mirror
    (2n+1-j, 2n+1-i); a long generator is its own mirror.
    """
    two_n = 2 * c.n
    mirrored = {(two_n + 1 - j, two_n + 1 - i) for i, j in c.pairs}
    return FerrersIdeal._make(two_n - 1, tuple(sorted(set(c.pairs) | mirrored)))


def desymmetrize(cbar: FerrersIdeal) -> SymplecticIdeal:
    """Inverse of symmetrize; the input must be mirror-symmetric of odd rank."""
    if cbar.n % 2 == 0:
        raise ValueError("ambient rank must be odd")
    n = (cbar.n + 1) // 2
    k = len(cbar.pairs)
    for m in range(k):
        if cbar.pairs[m][0] + cbar.pairs[k - 1 - m][1] != 2 * n + 1:
            raise ValueError("ideal is not mirror-symmetric")
    return SymplecticIdeal._make(n, cbar.pairs[: (k + 1) // 2])


def normalizer_C(c: SymplecticIdeal) -> ParabolicLabel:
    """Normalizer label: coordinates of the symmetrization clipped to 1..n."""
    removed = _removed_set_A(symmetrize(c))
    return _label_from_removed(c.n, {l for l in removed if l <= c.n})


def _signed_words(s: int, with_zero: bool):
    """All words of length s with nonnegative partial sums, lexicographic.

    Depth-first on a stack of (prefix, partial sum): each prefix stacks its
    letters largest first, so the smallest is popped first.
    """
    alphabet = (1, 0, -1) if with_zero else (1, -1)
    stack = [((), 0)]
    while stack:
        prefix, total = stack.pop()
        if len(prefix) == s:
            yield prefix
            continue
        for v in alphabet:
            if total + v >= 0:
                stack.append((prefix + (v,), total + v))


def _halves(members, letters) -> tuple[list[int], list[int]]:
    """Split sorted members by a signed word: +1 first only, -1 second only, 0 both."""
    a_part = [l for l, v in zip(members, letters) if v >= 0]
    b_part = [l for l, v in zip(members, letters) if v <= 0]
    return a_part, b_part


def _ideal_from_halves(n: int, a_part, b_part) -> SymplecticIdeal:
    """Symplectic ideal from the low halves of its two symmetric sequences.

    Entries below n mirror to 2n minus themselves on the other sequence;
    an entry equal to n, present in both halves or neither, is its own
    mirror.  Generators are the first ceil(k/2) pairs (a_t, b_t + 1).
    """
    a_full = sorted(set(a_part) | {2 * n - b for b in b_part if b != n})
    b_full = sorted(set(b_part) | {2 * n - a for a in a_part if a != n})
    k = len(a_full)
    pairs = tuple((a_full[t], b_full[t] + 1) for t in range((k + 1) // 2))
    return SymplecticIdeal._make(n, pairs)


def decode_word(n: int, removed, word: SignedWord) -> SymplecticIdeal:
    """Ideal for a sign word over removed indices below n (letters as in `_halves`)."""
    members = _removed_members(n, removed, below_n=True)
    if len(word.letters) != len(members):
        raise ValueError("word length must equal the number of removed indices")
    return _ideal_from_halves(n, *_halves(members, word.letters))


def encode_word(c: SymplecticIdeal) -> SignedWord:
    """Sign word of an ideal over its removed indices below n; inverts decode_word."""
    cbar = symmetrize(c)
    a_half = {i for i, _ in cbar.pairs if i <= c.n - 1}
    b_half = {j - 1 for _, j in cbar.pairs if j - 1 <= c.n - 1}
    letters = []
    for l in sorted(a_half | b_half):
        if l in a_half and l in b_half:
            letters.append(0)
        elif l in a_half:
            letters.append(1)
        else:
            letters.append(-1)
    return SignedWord._make(tuple(letters))


def fiber_C(n: int, removed) -> list[SymplecticIdeal]:
    """All ideals of sp_{2n} whose normalizer removes exactly the given simples.

    Words over the removed indices below n enumerate the fiber; if n itself
    is removed it is inserted into both sequences.  Output is lexicographic
    in the generator pairs.
    """
    members = _removed_members(n, removed)
    core = [l for l in members if l != n]
    out = []
    for letters in _signed_words(len(core), with_zero=True):
        a_part, b_part = _halves(core, letters)
        if n in members:
            a_part.append(n)
            b_part.append(n)
        out.append(_ideal_from_halves(n, a_part, b_part))
    out.sort(key=lambda c: c.pairs)
    return out


def fiber_minimax_C(n: int, removed) -> list[SymplecticIdeal]:
    """The minimax members of a fiber: words without zero letters.

    Nonempty only when every removed index is below n.
    """
    members = _removed_members(n, removed)
    if n in members:
        return []
    return [
        _ideal_from_halves(n, *_halves(members, letters))
        for letters in _signed_words(len(members), with_zero=False)
    ]


def dual_C(c: SymplecticIdeal) -> SymplecticIdeal:
    """Dual ideal, taken through the symmetrization."""
    return desymmetrize(dual_A(symmetrize(c)))


def is_minimax_C(c: SymplecticIdeal) -> bool:
    """Minimax test through the symmetrization."""
    return is_minimax_A(symmetrize(c))


def ballot(s: int) -> int:
    """Zero-free words of length s with nonnegative partial sums, by height.

    ends[h] counts the prefixes with partial sum h; each letter moves a
    prefix one step up or, above zero, one step down.
    """
    _check_int(s, 0, "length must be nonnegative")
    ends = [1]
    for _ in range(s):
        ends = [low + high for low, high in zip([0] + ends, ends[1:] + [0, 0])]
    return sum(ends)


def minimax_fiber_count_C(s: int) -> int:
    """binom(s, floor(s/2)): minimax ideals over one normalizer with s removed simples."""
    _check_int(s, 0, "argument must be nonnegative")
    return comb(s, s // 2)


def minimax_fiber_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients (constant first) counting sp_{2n} minimax ideals by corank."""
    _check_int(n, 1, "n must be at least 1")
    return tuple(comb(n - 1, s) * comb(s, s // 2) for s in range(n))

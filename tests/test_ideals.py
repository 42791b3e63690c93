"""Upper ideals: enumeration, closure, chains, lattice operations."""

from __future__ import annotations

import hashlib
import inspect
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adnil.ideals import (
    UpperIdeal,
    _iter_bits,
    close_upward,
    complement_chain,
    enumerate_ideals,
    ideal_powers,
    is_abelian,
    is_strictly_positive,
    join,
    meet,
    weight,
)
from adnil.normalizers import normalizer
from adnil.rootsys import Root, build

# cross-checked against the degree-product closed form for the ideal count
TOTALS = {
    "A1": 2, "A2": 5, "A3": 14, "A4": 42, "A5": 132, "A6": 429,
    "B2": 6, "B3": 20, "B4": 70, "C2": 6, "C3": 20, "C4": 70,
    "D4": 50, "D5": 182, "G2": 8, "F4": 105, "E6": 833, "E7": 4160,
}

# ideals avoiding every simple root
STRICT_TOTALS = {
    "A1": 1, "A2": 2, "A3": 5, "A4": 14, "A5": 42,
    "B2": 3, "B3": 10, "B4": 35, "C2": 3, "C3": 10, "C4": 35,
    "D4": 20, "D5": 77, "G2": 5, "F4": 66,
}


# SHA-256 of repr([(bits, gens), ...]) over enumerate_ideals, taken from the
# position-scan walk that the frontier walk replaced: the order is API.
WALK_DIGESTS = {
    "G2": "a87bb7c2d1dbb74f57475db045640d18ae96b1bb4fb8cf00243e0f5601a6c744",
    "B4": "ce4a377a3d70677a12005cb86e6b5844e83d08e910228796ac13864fb69b6632",
    "C4": "ce4a377a3d70677a12005cb86e6b5844e83d08e910228796ac13864fb69b6632",
    "D5": "a3ff7f8c03afba3542b7f08cff82b5b4fd44b04a6c6d1a931bc8b5d60e7315ec",
    "F4": "f55ecd951ff0b277578b3c6dece63d16f4e20c8543bd75b628c5990eb8006749",
    "A6": "62bbc6e947f42881b1ccd77f0ff6fc0b02dab889d9a44b26e26f84d50b97c002",
    "E6": "ed28550bf8f968720f5acb882a2d30ec739936e96e568aecaac884a6346cdc85",
    "E7": "2f38ff22703afb482f484b85f28796678bb0f89f05e2747e42537f6d74bf08e0",
    "E8": "0ff082d8edc8e3f9f4286e9673bb3eab9599405eb67fb4c3a8624fc2ed2ab294",
}


def _ideals(label):
    return list(enumerate_ideals(build(label)))


def test_enumeration_totals():
    for label, total in TOTALS.items():
        assert len(_ideals(label)) == total, label


def test_enumeration_is_deterministic_and_duplicate_free():
    for label in ("A4", "B3", "G2"):
        first = [c.bits for c in _ideals(label)]
        second = [c.bits for c in _ideals(label)]
        assert first == second
        assert len(set(first)) == len(first)
        assert first[0] == 0, "empty ideal comes first"
        rs = build(label)
        assert first[-1] == (1 << len(rs.positive_roots)) - 1, "full ideal comes last"


def test_walk_order_is_pinned():
    for label, want in WALK_DIGESTS.items():
        pairs = [(c.bits, c._gens) for c in enumerate_ideals(build(label))]
        assert hashlib.sha256(repr(pairs).encode()).hexdigest() == want, label


def test_walk_yields_the_ideals_the_public_constructor_builds():
    # count_routes and the benchmark tracer see each ideal as one yield of
    # this generator function
    assert inspect.isgeneratorfunction(enumerate_ideals)
    for label in ("G2", "F4", "E6"):
        rs = build(label)
        for c in enumerate_ideals(rs):
            fresh = UpperIdeal(rs, c.bits)
            assert c == fresh and hash(c) == hash(fresh), (label, c)
            assert c.generator_indices() == fresh.generator_indices(), (label, c)
            assert repr(c) == repr(fresh)


def test_strictly_positive_totals():
    for label, total in STRICT_TOTALS.items():
        got = sum(1 for c in _ideals(label) if is_strictly_positive(c))
        assert got == total, label


def test_abelian_count_is_two_to_the_rank():
    for label in ("A1", "A2", "A3", "A4", "A5", "B2", "B3", "C3", "D4", "G2", "F4"):
        rs = build(label)
        got = sum(1 for c in enumerate_ideals(rs) if is_abelian(c))
        assert got == 2 ** rs.rank, label


def test_every_enumerated_set_is_upward_closed():
    for label in ("A3", "C3", "G2"):
        rs = build(label)
        for c in enumerate_ideals(rs):
            UpperIdeal(rs, c.bits)  # validating constructor


def test_close_upward_round_trip():
    for label in ("A4", "B3", "D4", "G2"):
        rs = build(label)
        for c in enumerate_ideals(rs):
            assert close_upward(rs, c.generators()).bits == c.bits


def test_generators_form_an_antichain_of_minimal_elements():
    rs = build("B3")
    for c in enumerate_ideals(rs):
        gen = set(c.generator_indices())
        members = list(_iter_bits(c.bits))
        for i in gen:
            assert not any((rs.up[j] >> i) & 1 for j in members)
        # every member lies above some generator
        for k in members:
            stack, seen, hit = [k], {k}, False
            while stack and not hit:
                t = stack.pop()
                if t in gen:
                    hit = True
                    break
                for j in members:
                    if (rs.up[j] >> t) & 1 and j not in seen:
                        seen.add(j)
                        stack.append(j)
            assert hit


def test_upper_ideal_validation():
    rs = build("A2")
    theta_only = 1 << rs.root_index[rs.theta.coeffs]
    UpperIdeal(rs, theta_only)
    a1_only = 1 << rs.simple_index[0]
    with pytest.raises(ValueError):
        UpperIdeal(rs, a1_only)
    with pytest.raises(ValueError):
        UpperIdeal(rs, 1 << 10)
    with pytest.raises(ValueError):
        UpperIdeal(rs, -1)


def test_close_upward_rejects_non_roots():
    rs = build("A2")
    with pytest.raises(ValueError):
        close_upward(rs, [Root((2, 0))])


def test_contains_and_roots():
    rs = build("A2")
    c = close_upward(rs, [Root((1, 0))])
    assert c.size == 2
    assert c.contains(Root((1, 1))) and c.contains(Root((1, 0)))
    assert not c.contains(Root((0, 1)))
    assert {r.coeffs for r in c.roots()} == {(1, 0), (1, 1)}


def test_ideal_powers_properties():
    for label in ("A3", "B2", "G2"):
        rs = build(label)
        for c in enumerate_ideals(rs):
            chain = ideal_powers(c)
            assert chain.powers[0].bits == c.bits
            assert chain.powers[-1].bits == 0
            assert not chain.stalled
            for a, b in zip(chain.powers, chain.powers[1:]):
                assert b.bits & ~a.bits == 0, "powers descend"
            assert is_abelian(c) == (len(chain.powers) <= 2)


def test_powers_match_pairwise_sums():
    rs = build("G2")
    full = close_upward(rs, [Root((1, 0)), Root((0, 1))])
    sq = ideal_powers(full).powers[1]
    expected = set()
    for a in full.roots():
        for b in full.roots():
            s = tuple(x + y for x, y in zip(a.coeffs, b.coeffs))
            if s in rs.root_index:
                expected.add(s)
    assert {r.coeffs for r in sq.roots()} == expected


def _all_pairs_powers(rs, bits):
    """Reference chain: I^k from every pair mu in I^{k-1}, nu in I."""
    chain = [bits]
    while chain[-1]:
        left, out = chain[-1], 0
        for i in range(len(rs.positive_roots)):
            if (left >> i) & 1:
                for j, k in rs.sums[i].items():
                    if (bits >> j) & 1:
                        out |= 1 << k
        chain.append(out)
    return chain


@pytest.mark.parametrize("label", ["G2", "A5", "B4", "C4", "D5", "F4", "E6", "E7", "E8"])
def test_powers_from_generators_match_all_pairs(label):
    # the generator lemma: [I, J] is the upward closure of the sums g + nu,
    # g a generator of I; every ideal, and every 50th one of E8
    ideals = list(enumerate_ideals(build(label)))
    if label == "E8":
        ideals = ideals[::50]
    for c in ideals:
        got = [p.bits for p in ideal_powers(c).powers]
        assert got == _all_pairs_powers(c.rs, c.bits), (label, c.bits)


def test_walk_carried_generators_match_the_scan():
    # enumerate_ideals carries the generators; an UpperIdeal built from the
    # bits alone finds them by scanning
    for label in ("G2", "B4", "C4", "D5", "F4", "E6", "E7"):
        rs = build(label)
        for c in enumerate_ideals(rs):
            scanned = UpperIdeal(rs, c.bits)
            assert c.generator_indices() == scanned.generator_indices(), (label, c.bits)
            assert c == scanned and hash(c) == hash(scanned)


def test_complement_chain_stalls_exactly_off_the_strict_cone():
    for label in ("A3", "C3", "G2"):
        rs = build(label)
        for c in enumerate_ideals(rs):
            chain = complement_chain(c)
            assert chain.powers[0].bits == c.bits
            assert chain.stalled == (not is_strictly_positive(c))
            if not chain.stalled:
                assert chain.powers[-1].bits == 0
            for a, b in zip(chain.powers, chain.powers[1:]):
                assert b.bits & ~a.bits == 0


def test_chain_of_powers_is_contained_in_complement_chain():
    # strictly positive case: k-th power sits inside the k-th chain term
    for label in ("A4", "B3", "G2"):
        rs = build(label)
        for c in enumerate_ideals(rs):
            if not is_strictly_positive(c):
                continue
            powers = ideal_powers(c).powers
            chain = complement_chain(c).powers
            for k in range(min(len(powers), len(chain))):
                assert powers[k].bits & ~chain[k].bits == 0


def test_meet_join_lattice_laws():
    ideals = _ideals("A3")
    for a in ideals:
        for b in ideals:
            m, j = meet(a, b), join(a, b)
            assert m.bits == a.bits & b.bits
            assert j.bits == a.bits | b.bits
            assert meet(a, j).bits == a.bits
            assert join(a, m).bits == a.bits


def test_meet_rejects_mixed_systems():
    a = _ideals("A2")[1]
    b = _ideals("A3")[1]
    with pytest.raises(ValueError):
        meet(a, b)


def test_weight_is_root_sum_and_injective():
    # weight reads popcounts off rs.at_least; the manual root sum is the reference
    labels = (("A3", 1), ("B3", 1), ("G2", 1), ("F4", 1), ("E6", 1), ("E7", 1), ("E8", 10))
    for label, step in labels:
        rs = build(label)
        seen = set()
        for c in itertools.islice(enumerate_ideals(rs), 0, None, step):
            w = weight(c).coords
            manual = [0] * rs.rank
            for r in c.roots():
                for k in range(rs.rank):
                    manual[k] += r.coeffs[k]
            assert w == tuple(manual) and all(type(v) is int for v in w)
            assert w not in seen
            seen.add(w)
            for j in range(rs.rank):
                assert rs.coroot_pairing(manual, j) >= 0, "weights are dominant"


def _sums(rs, left, right):
    """Coefficient vectors mu + nu that are roots, mu in left, nu in right."""
    out = set()
    for mu in left:
        for nu in right:
            s = tuple(a + b for a, b in zip(mu, nu))
            if s in rs.root_index:
                out.add(s)
    return out


@st.composite
def _e7_e8_closures(draw):
    """Upper closure of a few random positive roots of E7 or E8."""
    rs = build(draw(st.sampled_from(("E7", "E8"))))
    n = len(rs.positive_roots)
    picks = draw(st.lists(st.integers(0, n - 1), max_size=4))
    return close_upward(rs, [rs.positive_roots[g] for g in picks])


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_e7_e8_closures())
def test_mask_tables_match_coefficient_arithmetic_on_e7_e8(ideal):
    rs = ideal.rs
    members = {r.coeffs for r in ideal.roots()}
    everything = {r.coeffs for r in rs.positive_roots}

    def as_set(c):
        return {r.coeffs for r in c.roots()}

    expected, term = [members], members
    while term:
        term = _sums(rs, term, members)
        expected.append(term)
    assert [as_set(p) for p in ideal_powers(ideal).powers] == expected

    m = everything - members
    expected, used, power, stalled = [members], set(m), set(m), False
    while expected[-1]:
        power = _sums(rs, power, m)
        used |= power
        if everything - used == expected[-1]:
            stalled = True
            break
        expected.append(everything - used)
    chain = complement_chain(ideal)
    assert [as_set(p) for p in chain.powers] == expected
    assert chain.stalled == stalled

    gens = {
        g for g in members
        if not any(h != g and all(x <= y for x, y in zip(h, g)) for h in members)
    }
    assert {r.coeffs for r in ideal.generators()} == gens

    levi = set()
    for a in range(rs.rank):
        drops = (tuple(c - (j == a) for j, c in enumerate(g)) for g in gens)
        if not any(not any(d) or d in rs.root_index for d in drops):
            levi.add(a)
    assert normalizer(ideal).levi == levi

    assert is_abelian(ideal) == (not _sums(rs, members, members))

    for g in gens:
        for a in range(rs.rank):
            cover = tuple(c + (j == a) for j, c in enumerate(g))
            if cover in rs.root_index:
                with pytest.raises(ValueError, match="not upward closed"):
                    UpperIdeal(rs, ideal.bits & ~(1 << rs.root_index[cover]))
                break

import hashlib
import itertools
import math
import random
import re
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptlab import asymptotics as ay
from ptlab import partitions as pts
from ptlab.errors import ResourceLimitError
from ptlab.partitions import Pairing, Partition


def test_pairing_invariants_and_validation():
    p = Pairing((2, 1, 4, 3))
    assert p.m == 2 and p(1) == 2 and p(3) == 4
    with pytest.raises(ValueError):
        Pairing((1, 2))          # fixed points
    with pytest.raises(ValueError):
        Pairing((3, 4, 1, 2))    # odd-odd pairs
    with pytest.raises(ValueError):
        Pairing((2, 1, 3))       # odd length
    # each malformed partner is refused with its own message, at the first
    # position that breaks it
    for partner, message in (
            ((2, 1, 3), "partner array must have even positive length"),
            ((), "partner array must have even positive length"),
            ((5, 1, 4, 3), "not a fixed-point-free involution at 1"),   # entry above 2m
            ((2, 1, 0, 3), "not a fixed-point-free involution at 3"),   # entry below 1
            ((1, 2), "not a fixed-point-free involution at 1"),         # fixed point
            ((2, 1, 3, 4), "not a fixed-point-free involution at 3"),   # fixed point
            ((2, 3, 4, 1), "not a fixed-point-free involution at 1"),   # no involution
            ((3, 4, 1, 2), "pair (1, 3) is not odd-even bipartite"),
            ((2, 1, 5, 6, 3, 4), "pair (3, 5) is not odd-even bipartite")):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Pairing(partner)
    # the enumeration builds each pairing in one pass and lists what
    # from_pairs builds from each permutation of the even positions, in order
    for m in range(1, 8):
        odds, evens = range(1, 2 * m + 1, 2), range(2, 2 * m + 1, 2)
        listed = pts.enumerate_bipartite_pairings(m)
        expected = [Pairing.from_pairs(zip(odds, images))
                    for images in itertools.permutations(evens)]
        assert [p.partner for p in listed] == [p.partner for p in expected]
        assert all(type(p) is Pairing and type(p.partner) is tuple and p.m == m for p in listed)


def test_enumerate_bipartite_pairings():
    assert [repr(p) for p in pts.enumerate_bipartite_pairings(1)] == ["(1,2)"]
    assert [repr(p) for p in pts.enumerate_bipartite_pairings(2)] == \
        ["(1,2)(3,4)", "(1,4)(2,3)"]
    assert len(pts.enumerate_bipartite_pairings(3)) == 6
    for m in range(1, 7):
        ps = pts.enumerate_bipartite_pairings(m)
        assert len(ps) == math.factorial(m)
        assert len(set(ps)) == len(ps)
    with pytest.raises(ResourceLimitError):
        pts.enumerate_bipartite_pairings(9)


def test_serialization_round_trip():
    p = pts.nu1(3)
    assert repr(p) == "(1,6)(2,3)(4,5)"
    assert repr(Partition(4, [(2, 3), (1,), (4,)])) == "{1}{2,3}{4}"


def test_nu1_nu2():
    assert set(pts.nu1(3).pairs()) == {(1, 6), (3, 2), (5, 4)}
    assert set(map(frozenset, pts.nu1(3).blocks())) == \
        {frozenset(x) for x in ((1, 6), (2, 3), (4, 5))}
    assert set(map(frozenset, pts.nu2(3).blocks())) == \
        {frozenset(x) for x in ((1, 4), (3, 6), (5, 2))}
    assert repr(pts.nu1(1)) == "(1,2)"
    # cyclic convention 2m + q = q: nu1 pairs (1, 2m); nu2 pairs (2m-1, 2)
    for m in (3, 4, 5):
        assert pts.nu1(m)(1) == 2 * m
        assert pts.nu2(m)(2 * m - 1) == 2
    for bad in (1, 2):
        with pytest.raises(ValueError):
            pts.nu2(bad)


def test_delta_and_join():
    for m in (1, 2, 3, 4):
        j = pts.join(pts.nu1(m), pts.delta(m))
        assert len(j.blocks) == 1
    p = Partition(4, [(1, 2), (3, 4)])
    assert pts.join(p, p) == p
    assert pts.join(p, pts.delta(2).as_partition()) == p
    with pytest.raises(ValueError):
        pts.join(Partition(4, [(1, 2, 3, 4)]), Partition(6, [tuple(range(1, 7))]))


def random_partition(rng, n):
    labels = [rng.randrange(n) for _ in range(n)]
    blocks = {}
    for x, lab in enumerate(labels, start=1):
        blocks.setdefault(lab, []).append(x)
    return Partition(n, blocks.values())


def coarser(fine, coarse):
    return all(any(set(b) <= set(c) for c in coarse.blocks) for b in fine.blocks)


def test_join_lattice_properties():
    rng = random.Random(99)
    for _ in range(40):
        n = rng.randrange(2, 13)
        p, q, r = (random_partition(rng, n) for _ in range(3))
        assert pts.join(p, q) == pts.join(q, p)
        assert pts.join(pts.join(p, q), r) == pts.join(p, pts.join(q, r))
        assert pts.join(p, p) == p
        j = pts.join(p, q)
        assert coarser(p, j) and coarser(q, j)


def test_crossing_and_segments():
    assert pts.is_crossing(Partition(4, [(1, 3), (2, 4)]))
    q = Partition(4, [(1, 4), (2, 3)])
    assert not pts.is_crossing(q)
    assert pts.segments(q) == [(2, 3)]
    for n in range(1, 9):
        for g in pts.enumerate_nc(n):
            assert len(pts.segments(g)) >= 1
    # cyclic segments: {1, n} wraps around
    p = Partition(4, [(1, 4), (2,), (3,)])
    assert pts.segments(p) == [(2,), (3,)]
    assert (1, 4) in pts.cyclic_segments(p)


def test_enumerate_nc_catalan_and_cap():
    # every order up to the cap
    for m in range(0, pts.MAX_NC_ORDER + 1):
        ncs = pts.enumerate_nc(m)
        assert len(ncs) == len(set(ncs)) == pts.catalan(m)
        assert not any(pts.is_crossing(g) for g in ncs)
    with pytest.raises(ResourceLimitError):
        pts.enumerate_nc(pts.MAX_NC_ORDER + 1)


def restricted_growth_partitions(n):
    """Every set partition of [n], from its restricted growth string."""
    def strings(prefix, top):
        if len(prefix) == n:
            yield prefix
            return
        for label in range(top + 2):
            yield from strings(prefix + [label], max(top, label))

    for labels in strings([], -1):
        blocks = {}
        for x, lab in enumerate(labels, start=1):
            blocks.setdefault(lab, []).append(x)
        yield Partition(n, blocks.values())


def test_enumerate_nc_is_every_noncrossing_partition():
    for m in range(0, 9):
        brute = {g for g in restricted_growth_partitions(m) if not pts.is_crossing(g)}
        assert set(pts.enumerate_nc(m)) == brute


def test_nc_blocks_are_canonical_by_construction():
    for m in range(0, pts.MAX_NC_ORDER + 1):
        for blocks in pts._nc_blocks(m):
            assert [b[0] for b in blocks] == sorted(b[0] for b in blocks)
            assert all(list(b) == sorted(set(b)) for b in blocks)


def test_nc_order_is_pinned():
    # moments_to_free_cumulants subtracts in this order, so the Monte Carlo
    # cumulants' float bits depend on it
    for m, digest in ((6, "8d98b36cf2577dc4"), (9, "f8a93055ab5fc096"),
                      (10, "8dd3e3e65ec05d02")):
        got = hashlib.sha256(repr(pts._nc_blocks(m)).encode()).hexdigest()
        assert got.startswith(digest), m


def test_enumerate_nc_checks_the_cover(monkeypatch):
    build = pts._nc_blocks
    for m in (3, 9):  # built before the stub is in place, so no gap is built through it
        build(m)

    def drop_one(m):
        first, *rest = build(m)
        return (first[:-1] + (first[-1][:-1],), *rest)

    monkeypatch.setattr(pts, "_nc_blocks", drop_one)
    for m in (3, 9):
        with pytest.raises(ValueError, match="do not partition"):
            pts.enumerate_nc(m)


def test_hat_embedding():
    assert pts.hat(Partition(3, [(1,), (2, 3)])) == Partition(6, [(1, 2), (3, 4, 5, 6)])
    assert pts.hat(Partition(3, [(1, 2, 3)])) == Partition(6, [tuple(range(1, 7))])
    # hat is a bijection onto {rho in NC(2m) : rho v delta = rho}; the converse
    # inclusion is enumerated exhaustively up to m = 5 (NC(10))
    for m in (1, 2, 3, 4, 5):
        image = {pts.hat(g) for g in pts.enumerate_nc(m)}
        assert len(image) == pts.catalan(m)  # injective
        target = {Partition(2 * m, rho.blocks) for rho in pts.enumerate_nc(2 * m)
                  if pts.join(rho, pts.delta(m)) == rho}
        assert image == target
    # at m = 6 the forward property: hat(g) is noncrossing and delta-saturated
    image6 = {pts.hat(g) for g in pts.enumerate_nc(6)}
    assert len(image6) == pts.catalan(6)
    for rho in image6:
        assert not pts.is_crossing(rho)
        assert pts.join(rho, pts.delta(6)) == rho


def test_bipairing():
    # a pairing of [2(m + r)] couples the two groups [2m] and its complement
    # when it pairs some position of the first 2m beyond them: (m + r)! - m! r!
    # of them; each other pairing is one of [2m] beside one of [2r], shifted
    for m, r in ((1, 1), (2, 2), (1, 3), (3, 2)):
        pairings = pts.enumerate_bipartite_pairings(m + r)
        conn = [pi for pi in pairings if any(pi(a) > 2 * m for a in range(1, 2 * m + 1))]
        assert len(conn) == math.factorial(m + r) - math.factorial(m) * math.factorial(r)
        if (m, r) == (1, 1):
            assert [repr(pi) for pi in conn] == ["(1,4)(2,3)"]
        split = [(tuple(pi(a) for a in range(1, 2 * m + 1)),
                  tuple(pi(a) - 2 * m for a in range(2 * m + 1, 2 * (m + r) + 1)))
                 for pi in pairings if pi not in conn]
        assert sorted(split) == sorted(
            (tuple(s(a) for a in range(1, 2 * m + 1)), tuple(t(a) for a in range(1, 2 * r + 1)))
            for s in pts.enumerate_bipartite_pairings(m)
            for t in pts.enumerate_bipartite_pairings(r))


def test_moment_cumulant_conversion():
    # all free cumulants equal 1 -> free Poisson, Catalan moments
    moments = [pts.free_cumulants_to_moments(lambda w: Fraction(1), ("x",) * k)
               for k in (1, 2, 3, 4)]
    assert moments == [1, 2, 5, 14]
    # two-term Moebius: m1 = c, m2 = c^2 + c -> kappa1 = kappa2 = c
    c = Fraction(3, 7)
    table = {("x",): c, ("x", "x"): c * c + c}
    assert pts.moments_to_free_cumulants(lambda w: table[w], ("x",)) == c
    assert pts.moments_to_free_cumulants(lambda w: table[w], ("x", "x")) == c


def test_moment_cumulant_round_trip_random():
    rng = random.Random(12345)
    cache = {}

    def moment(w):
        if w not in cache:
            cache[w] = Fraction(rng.randint(-8, 8), rng.randint(1, 9))
        return cache[w]

    for n in range(1, 6):
        for _ in range(6):
            word = tuple(rng.choice("ab") for _ in range(n))
            back = pts.free_cumulants_to_moments(
                lambda sub: pts.moments_to_free_cumulants(moment, sub), word)
            assert back == moment(word)


def reference_cumulant(moment, word):
    """moments_to_free_cumulants as it was before its blocks were kept as
    positions: every proper partition of ``_nc_blocks`` visited in order,
    each block's subword built and its cumulant looked up at every visit."""
    memo = {}

    def kappa(w):
        if w in memo:
            return memo[w]
        total = moment(w)
        if len(w) > 1:
            for blocks in pts._nc_blocks(len(w)):
                if len(blocks) == 1:
                    continue
                prod = 1
                for b in blocks:
                    prod = prod * kappa(tuple(w[t - 1] for t in b))
                total = total - prod
        memo[w] = total
        return total

    return kappa(tuple(word))


def test_cumulant_recursion_keeps_its_order():
    # the Monte Carlo cumulants' float bits depend on the order of every
    # multiply and subtract, so they are checked bit for bit against the
    # reference loop; each subword's moment depends on the subword alone
    def seeded(w):
        return random.Random(repr(w))

    functionals = {
        "float": lambda w: seeded(w).uniform(-3, 3),
        "ndarray": lambda w: np.array([seeded(w).uniform(-3, 3) for _ in range(4)]),
        "int": lambda w: seeded(w).randint(-50, 50),
        "Fraction": lambda w: Fraction(seeded(w).randint(-50, 50), seeded(w).randint(1, 9)),
    }
    rng = random.Random(7)
    words = [tuple(rng.choice("abc") for _ in range(n)) for n in range(1, 8) for _ in range(4)]
    words += [tuple(range(7)), ("a",) * 7]
    for name, moment in functionals.items():
        for word in words:
            asked_got, asked_want = [], []
            got = pts.moments_to_free_cumulants(lambda w: asked_got.append(w) or moment(w), word)
            want = reference_cumulant(lambda w: asked_want.append(w) or moment(w), word)
            assert asked_got == asked_want, (name, word)  # subwords asked in the same order
            assert type(got) is type(want), (name, word)
            if name in ("float", "ndarray"):
                assert [x.hex() for x in np.ravel(got).tolist()] == \
                    [x.hex() for x in np.ravel(want).tolist()], (name, word)
            else:
                assert got == want, (name, word)
    # a moment of 0 or 0.0 is a memo hit like any other: each distinct
    # subword's moment is asked for once
    for zero in (0, 0.0):
        asked = []
        pts.moments_to_free_cumulants(lambda w: asked.append(w) or zero, tuple(range(6)))
        assert len(asked) == len(set(asked)) == 2**6 - 1
    # the per-order structure is the proper partitions of _nc_blocks, in order
    for n in range(1, pts.MAX_NC_ORDER + 1):
        blocks, parts = pts._nc_proper(n)
        assert [tuple(tuple(x + 1 for x in blocks[i]) for i in part) for part in parts] == \
            [p for p in pts._nc_blocks(n) if len(p) > 1]
        assert len(set(blocks)) == len(blocks)
    # eleven letters are refused by the noncrossing cap, with its cost
    with pytest.raises(ResourceLimitError, match=r"^m = 11 exceeds the NC enumeration cap 10$") \
            as info:
        pts.moments_to_free_cumulants(lambda w: 1, tuple(range(11)))
    assert info.value.cost == pts.catalan(11)


def nc_sum(cumulant, word):
    """free_cumulants_to_moments as the sum over NC(n) it was before the
    first-block recursion, kept as the reference."""
    word = tuple(word)
    total = Fraction(0)
    for gamma in pts.enumerate_nc(len(word)):
        prod = Fraction(1)
        for b in gamma.blocks:
            prod *= cumulant(tuple(word[t - 1] for t in b))
        total += prod
    return total


def test_first_block_recursion_matches_nc_sum_on_limit_cumulants():
    # every order <= 10 of every (b, d, c) on the grid.  The limit cumulant
    # depends on the block length only, so the NC sum's partitions are
    # grouped by their block lengths: each group's product is computed once
    # (the NC sum of the whole grid term by term takes about 30 s on a 2-core VM)
    groups = {n: Counter(tuple(len(b) for b in gamma.blocks) for gamma in pts.enumerate_nc(n))
              for n in range(1, 11)}
    for b, d in itertools.product((2, 3, 4, 5, ay.INF), repeat=2):
        for c in (Fraction(1), Fraction(2, 3), Fraction(5, 2)):
            kappa = [None] + [ay.limit_cumulant_gamma(k, b, d, c) for k in range(1, 11)]
            expected = [sum((count * math.prod((kappa[k] for k in lengths), start=Fraction(1))
                             for lengths, count in groups[n].items()), Fraction(0))
                        for n in range(1, 11)]
            assert ay.limit_moments_gamma(10, b, d, c) == expected, (b, d, c)
    # the grouping itself against the NC sum term by term, at one grid point
    kappa = lambda w: ay.limit_cumulant_gamma(len(w), 2, ay.INF, Fraction(2, 3))  # noqa: E731
    assert [nc_sum(kappa, ("w",) * n) for n in range(1, 11)] == \
        ay.limit_moments_gamma(10, 2, ay.INF, Fraction(2, 3))


@settings(max_examples=60, deadline=None)
@given(st.text(alphabet="abc", min_size=1, max_size=7), st.integers(0, 2**32 - 1))
def test_first_block_recursion_matches_nc_sum_on_mixed_words(word, seed):
    # an arbitrary cumulant per subword: the recursion must read each block
    # as the subword it selects, in order
    rng = random.Random(seed)
    cache = {}

    def cumulant(w):
        if w not in cache:
            cache[w] = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        return cache[w]

    assert pts.free_cumulants_to_moments(cumulant, tuple(word)) == nc_sum(cumulant, word)


def test_limit_order_cap_states_its_cost():
    assert len(ay.limit_moments_gamma(12, 2, 3, Fraction(1))) == 12
    n = ay.MAX_LIMIT_ORDER + 1
    with pytest.raises(ResourceLimitError, match=rf"2\^{n} - 1 = {2**n - 1}"):
        ay.limit_moments_gamma(n, 2, 3, Fraction(1))


def test_limit_moments_share_one_memo(monkeypatch):
    # each order reuses the lower orders' moments and cumulants: order n
    # asks for one new cumulant, so orders 1..8 ask for 8 in all
    calls = []
    cumulant = ay.limit_cumulant_gamma
    monkeypatch.setattr(ay, "limit_cumulant_gamma",
                        lambda m, *rest: calls.append(m) or cumulant(m, *rest))
    assert ay.limit_moments_gamma(8, 2, 3, Fraction(1)) == \
        [pts.free_cumulants_to_moments(lambda w: cumulant(len(w), 2, 3, Fraction(1)), ("w",) * n)
         for n in range(1, 9)]
    assert sorted(calls) == list(range(1, 9))

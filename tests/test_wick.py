import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ptlab import partitions as pts
from ptlab import perms as pm
from ptlab import wick as wk
from ptlab.errors import ResourceLimitError
from ptlab.perms import Identity, MatrixShape, PartialTranspose, Side, Transpose
from ptlab.wick import IndexTuple, WickWord


def word(M, P, *perms):
    return WickWord(MatrixShape(M, P), perms)


def test_word_validation():
    with pytest.raises(ValueError):
        word(4, 4)  # empty
    with pytest.raises(ValueError):
        word(4, 4, Identity(5))
    # non-symmetric permutations are rejected
    R = np.array([[1, 1, 2], [2, 3, 1], [3, 2, 3]])
    C = np.array([[1, 2, 1], [3, 2, 3], [1, 2, 3]])
    asym = pm.TablePermutation(R, C)
    assert not asym.is_symmetric()
    with pytest.raises(ValueError):
        word(3, 3, asym)


def test_weight_support_examples():
    w1 = word(4, 4, Identity(4))
    pi1 = pts.enumerate_bipartite_pairings(1)[0]
    for i in range(1, 5):
        assert wk.weight_support(pi1, w1, IndexTuple((i,), (2,)))
    w2 = word(4, 4, Identity(4), Identity(4))
    cross = pts.Pairing.from_pairs([(1, 4), (2, 3)])
    assert not wk.weight_support(cross, w2, IndexTuple((1, 1), (1, 2)))
    # sum of weights over all tuples at fixed pairing equals the count
    total = sum(
        wk.weight_support(cross, w2, IndexTuple((i1, i2), (j1, j2)))
        for i1 in range(1, 5) for i2 in range(1, 5)
        for j1 in range(1, 5) for j2 in range(1, 5))
    assert total == wk.count_admissible(cross, w2)


def test_count_admissible_hand_counts():
    M, P = 5, 3
    pi1 = pts.enumerate_bipartite_pairings(1)[0]
    assert wk.count_admissible(pi1, word(M, P, Identity(M))) == M * P
    interval = pts.Pairing.from_pairs([(1, 2), (3, 4)])
    cross = pts.Pairing.from_pairs([(1, 4), (2, 3)])
    w2 = word(M, P, Identity(M), Identity(M))
    assert wk.count_admissible(interval, w2) == M * P * P
    assert wk.count_admissible(cross, w2) == M * M * P


def test_exact_moment_examples():
    assert wk.exact_mixed_moment(word(4, 4, Identity(4))).total == 1
    assert wk.exact_mixed_moment(word(6, 5, Identity(6))).total == Fraction(5, 6)
    assert wk.exact_mixed_moment(word(4, 4, Identity(4), Identity(4))).total == 2
    rep = wk.exact_mixed_moment(word(12, 12, PartialTranspose(6, 2), PartialTranspose(4, 3)))
    assert rep.total == Fraction(23, 18)
    assert rep.total == sum(rep.per_pairing.values())
    assert all(rep.per_pairing[p] == Fraction(rep.tuple_counts[p], 12**3)
               for p in rep.per_pairing)


def test_exact_cumulant_examples():
    rng = np.random.default_rng(42)
    # kappa_1 = P/M for every symmetric word of length 1
    for sigma in (Identity(6), Transpose(6), pm.random_symmetric_table(6, rng)):
        assert wk.exact_mixed_cumulant(word(6, 5, sigma)) == Fraction(5, 6)
    # kappa_2(W, W^T) = P/M^2
    for (M, P) in ((8, 8), (12, 8)):
        assert wk.exact_mixed_cumulant(word(M, P, Identity(M), Transpose(M))) == \
            Fraction(P, M * M)


def test_kappa2_identity_mixed_kinds():
    rng = np.random.default_rng(11)
    for (M, P) in ((8, 8), (12, 8)):
        perms = [Identity(M), Transpose(M), PartialTranspose(2, M // 2),
                 PartialTranspose(M // 2, 2, Side.LEFT),
                 pm.random_symmetric_table(M, rng)]
        for s, t in itertools.combinations_with_replacement(perms, 2):
            k2 = wk.exact_mixed_cumulant(word(M, P, s, t))
            assert k2 == Fraction(P, M) * Fraction(pm.count_agreements(s, t), M * M)


def test_method_agreement_and_budget():
    w = word(6, 5, PartialTranspose(2, 3), PartialTranspose(2, 3))
    for pi in pts.enumerate_bipartite_pairings(2):
        fast = wk.count_admissible(pi, w, method="fast")
        assert fast == wk.count_admissible(pi, w, method="naive")
        assert fast == wk.count_admissible(pi, w)  # auto: the closed form
    big = word(256, 256, *(Identity(256),) * 5)
    with pytest.raises(ResourceLimitError):
        wk.count_admissible(pts.delta(5), big, method="fast")
    # the budget caps enumeration grids: the digit path builds none
    assert wk.count_admissible(pts.delta(5), big) == 256**6
    # lcm(15, 16) / gcd(15, 16) = 240: the one mixed level has radix M
    non_chain = word(240, 240, PartialTranspose(16, 15), PartialTranspose(15, 16),
                     *(Identity(240),) * 3)
    with pytest.raises(ResourceLimitError):
        wk.count_admissible(pts.delta(5), non_chain)
    with pytest.raises(ResourceLimitError):
        wk.count_admissible(pts.delta(2), word(70000, 4, *(Identity(70000),) * 2),
                            method="naive")
    with pytest.raises(ResourceLimitError) as info:
        wk.exact_mixed_moment(word(4, 4, *(Identity(4),) * 7))
    assert info.value.cost == 5040  # 7! pairings


def test_report_total_is_computed_from_per_pairing():
    w = word(4, 3, PartialTranspose(2, 2), Transpose(4))
    report = wk.exact_mixed_moment(w)
    assert report.total == sum(report.per_pairing.values()) == Fraction(15, 16)
    pi = pts.delta(1)
    empty = wk.RationalMomentReport(word(4, 4, Identity(4)), {pi: Fraction(0)}, {pi: 0})
    assert empty.total == 0
    with pytest.raises(TypeError):
        wk.RationalMomentReport(w, report.per_pairing, report.tuple_counts, Fraction(0))


@st.composite
def small_word_and_pairing(draw):
    M = draw(st.integers(1, 4))
    P = draw(st.integers(1, 3))
    m = draw(st.integers(1, 3))
    divisors = [d for d in range(1, M + 1) if M % d == 0]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    perms = []
    for _ in range(m):
        kind = draw(st.sampled_from(["I", "T", "G", "LG", "D", "R"]))
        if kind == "I":
            perms.append(Identity(M))
        elif kind == "T":
            perms.append(Transpose(M))
        elif kind in ("G", "LG"):
            d = draw(st.sampled_from(divisors))
            perms.append(PartialTranspose(M // d, d, Side.LEFT if kind == "LG" else Side.RIGHT))
        elif kind == "D":
            perms.append(pm.InducedDiagonal(draw(st.permutations(range(1, M + 1)))))
        else:
            perms.append(pm.random_symmetric_table(M, rng))
    pairings = pts.enumerate_bipartite_pairings(m)
    return word(M, P, *perms), pairings[draw(st.integers(0, len(pairings) - 1))]


@settings(max_examples=150, deadline=None)
@given(small_word_and_pairing())
def test_constraint_loop_consumers_agree(case):
    # the chunked l-equality loop serves both the count and the tuple
    # selection behind restricted counts; check each against enumeration
    w, pi = case
    fast = wk.count_admissible(pi, w, method="fast")
    assert fast == wk.count_admissible(pi, w, method="naive")
    assert fast == wk.count_admissible(pi, w)
    assert wk.count_admissible_restricted(pi, w, range(1, 2 * w.m + 1)) == fast


# ---------------------------------------------------------------------------
# the digit path against the i-grid enumeration
# ---------------------------------------------------------------------------

def enumerated_i_count(perms, M, pairs, arg_spec):
    equalities = [((t - 1, 0), (s - 1, 1)) for t, s in pairs]
    return sum(int(np.count_nonzero(mask))
               for _, mask in pm._constrained_chunks(perms, M, arg_spec, equalities))


def assert_digit_path_exact(perms, M, pairs, arg_spec):
    digit = wk._count_constrained_i(pm.digit_levels(perms), pairs, arg_spec)
    assert digit == enumerated_i_count(perms, M, pairs, arg_spec), (perms, pairs, arg_spec)


def pinned_arg_spec(m, a, b):
    """Segment-sum arguments: i_1 = a and i_{m+1} = b pinned, i_2..i_m free."""
    return [(("const", a) if k == 1 else ("var", k - 2),
             ("const", b) if k == m else ("var", k - 1)) for k in range(1, m + 1)]


def chain_letters(M, ds):
    """I, T and the right and left partial transposes with the inner sizes ds."""
    return [Identity(M), Transpose(M)] + [
        PartialTranspose(M // d, d, side) for d in ds for side in (Side.RIGHT, Side.LEFT)]


def digit_test_arg_specs(K, M):
    """Cyclic, two-cycle and pinned-endpoint arguments of K letters.

    For K = 4 only the shape of Var(Tr) of a two-letter word: two cycles of two.
    """
    two_cycles = [wk._cyclic_arg_spec(m) + wk._cyclic_arg_spec(K - m, offset=m)
                  for m in range(1, K) if K < 4 or m == 2]
    if K == 4:
        return two_cycles
    # endpoints that agree, or differ in the lowest or the highest digit
    pinned = [pinned_arg_spec(K, a, b) for a, b in ((1, 1), (1, 2), (2, 2 + M // 2), (M, M))]
    return [wk._cyclic_arg_spec(K)] + two_cycles + pinned


def test_digit_path_matches_enumeration_exhaustive():
    cells = 0
    for M, ds, longest in ((4, (2,), 4), (8, (2, 4), 3), (12, (2, 4), 3), (12, (3, 6), 3)):
        alphabet = chain_letters(M, ds)
        for K in range(1, longest + 1):
            pairings = [wk._factor_pairs(pi) for pi in pts.enumerate_bipartite_pairings(K)]
            specs = digit_test_arg_specs(K, M)
            for perms in itertools.product(alphabet, repeat=K):
                for spec in specs:
                    for pairs in pairings:
                        assert_digit_path_exact(perms, M, pairs, spec)
                        cells += 1
    assert cells > 20000


@st.composite
def chain_word_and_spec(draw):
    M = draw(st.sampled_from([2, 4, 6, 8, 12, 16]))
    chain = [1]
    while chain[-1] < M:
        chain.append(draw(st.sampled_from(
            [c for c in range(chain[-1] + 1, M + 1) if M % c == 0 and c % chain[-1] == 0])))
    m = draw(st.integers(1, 4))
    perms = []
    for _ in range(m):
        kind = draw(st.sampled_from(["I", "T", "G", "LG"]))
        if kind in ("G", "LG"):
            d = draw(st.sampled_from(chain))
            perms.append(PartialTranspose(M // d, d, Side.LEFT if kind == "LG" else Side.RIGHT))
        else:
            perms.append(Identity(M) if kind == "I" else Transpose(M))
    # arguments: up to three shared variables or constants from a short list,
    # so that two different constants often meet in one orbit
    consts = draw(st.lists(st.integers(1, M), min_size=1, max_size=3))
    arg = st.one_of(st.tuples(st.just("var"), st.integers(0, 2)),
                    st.tuples(st.just("const"), st.sampled_from(consts)))
    spec = [(draw(arg), draw(arg)) for _ in range(m)]
    pairings = pts.enumerate_bipartite_pairings(m)
    pairs = wk._factor_pairs(pairings[draw(st.integers(0, len(pairings) - 1))])
    return tuple(perms), M, pairs, spec


@settings(max_examples=300, deadline=None)
@given(chain_word_and_spec())
@example(((Identity(4),), 4, [(1, 1)], [(("const", 1), ("const", 2))]))
def test_digit_path_on_random_chain_words(case):
    assert_digit_path_exact(*case)


def test_digit_path_constant_clash_gives_zero():
    # factor 1 takes (1, x) and factor 2 takes (x, 3); under G(2,2),
    # l_1 = l_-2 needs the high digits of 1 and 3 to agree, so nothing is
    # admissible
    perms = (PartialTranspose(2, 2), PartialTranspose(2, 2))
    spec = [(("const", 1), ("var", 0)), (("var", 0), ("const", 3))]
    levels = pm.digit_levels(perms)
    assert wk._count_constrained_i(levels, [(1, 2), (2, 1)], spec) == 0
    assert enumerated_i_count(perms, 4, [(1, 2), (2, 1)], spec) == 0


#: block-size sets that form no divisor chain
NON_CHAIN_SIZES = ((2, 3), (2, 3, 6), (2, 4, 6), (3, 4), (3, 4, 6))


def has_mixed_level(perms):
    return any(isinstance(level, pm.MixedLevel) for level in pm.digit_levels(perms))


def test_mixed_levels_match_enumeration_exhaustive():
    # words with a mixed level against the full i-grid, at M = L..4L (L the
    # lcm of the sizes): every word of two letters, every word of three at
    # M = L, and a seeded sample of the others; four letters only at M = L,
    # as Var(Tr) of two-letter words
    rng = np.random.default_rng(6)
    cells = 0
    for ds in NON_CHAIN_SIZES:
        L = math.lcm(*ds)
        for M in (L, 2 * L, 3 * L, 4 * L):
            for K, sample in ((2, None), (3, None if M == L else 2), (4, 6 if M == L else 0)):
                words = [w for w in itertools.product(chain_letters(M, ds), repeat=K)
                         if has_mixed_level(w)]
                if sample is not None:
                    words = [words[k] for k in rng.choice(len(words), sample, replace=False)]
                pairings = [wk._factor_pairs(pi) for pi in pts.enumerate_bipartite_pairings(K)]
                specs = digit_test_arg_specs(K, M)
                for perms in words:
                    for spec in specs:
                        for pairs in pairings:
                            assert_digit_path_exact(perms, M, pairs, spec)
                            cells += 1
    assert cells > 20000


@st.composite
def non_chain_word_and_spec(draw):
    ds = draw(st.sampled_from(NON_CHAIN_SIZES))
    M = math.lcm(*ds) * draw(st.integers(1, 3))
    m = draw(st.integers(2, 3))
    letters = chain_letters(M, ds)
    perms = tuple(draw(st.lists(st.sampled_from(letters), min_size=m, max_size=m)
                       .filter(has_mixed_level)))
    # up to three shared variables or constants from a short list, so that
    # constants often meet in one orbit of a keep/swap or a mixed level
    consts = draw(st.lists(st.integers(1, M), min_size=1, max_size=3))
    arg = st.one_of(st.tuples(st.just("var"), st.integers(0, 2)),
                    st.tuples(st.just("const"), st.sampled_from(consts)))
    spec = [(draw(arg), draw(arg)) for _ in range(m)]
    pairings = pts.enumerate_bipartite_pairings(m)
    pairs = wk._factor_pairs(pairings[draw(st.integers(0, len(pairings) - 1))])
    return perms, M, pairs, spec


@settings(max_examples=200, deadline=None)
@given(non_chain_word_and_spec())
def test_mixed_levels_on_random_words_with_constants(case):
    assert_digit_path_exact(*case)


#: sizes {2, 3} and {12, 18} at M = 72: two mixed levels of radix 6, at
#: bases 1 and 6, below a keep/swap level of radix 2
TWO_MIXED_SIZES = (2, 3, 12, 18)


def test_two_mixed_levels_match_enumeration():
    # a word with two mixed levels needs four letters, one per size; pinned
    # constants keep the reference grid at 72^3 points or fewer
    M = 72
    rng = np.random.default_rng(72)
    words = [tuple(PartialTranspose(M // d, d, side) for d, side in zip(ds, sides))
             for ds in itertools.permutations(TWO_MIXED_SIZES)
             for sides in itertools.product((Side.RIGHT, Side.LEFT), repeat=4)]
    levels = pm.digit_levels(words[0])
    assert [(lv.base, lv.radix) for lv in levels if isinstance(lv, pm.MixedLevel)] == \
        [(1, 6), (6, 6)]
    pairings = [wk._factor_pairs(pi) for pi in pts.enumerate_bipartite_pairings(4)]
    # constants that agree, or differ at the lower mixed level, the upper one
    # or the keep/swap level
    consts = [1, 2, 7, 37, 72]
    for k in rng.choice(len(words), 10, replace=False):
        # the endpoints differ at every level: three variables, six pairings
        for t in rng.choice(len(pairings), 6, replace=False):
            assert_digit_path_exact(words[k], M, pairings[t], pinned_arg_spec(4, 2, 44))
        # two shared variables and constants: every pairing
        for _ in range(3):
            spec = [tuple(("var", int(rng.integers(2))) if rng.random() < 0.6
                          else ("const", int(rng.choice(consts))) for _ in range(2))
                    for _ in range(4)]
            for pairs in pairings:
                assert_digit_path_exact(words[k], M, pairs, spec)


@pytest.mark.parametrize("cap", [pm.MAX_SHARED_GRID, 100])
def test_shared_grid_counter_matches_enumeration(monkeypatch, cap):
    # one counter serves every pairing and argument pattern of a word, as in
    # a moment or a covariance: each count equals its own enumeration, also
    # where the grid is above the cap and enumerated per count
    monkeypatch.setattr(pm, "MAX_SHARED_GRID", cap)
    rng = np.random.default_rng(12)
    M = 12
    letters = chain_letters(M, (2, 3, 4, 6))
    cases = []
    for K in (2, 3, 3, 4, 4):
        perms = (Identity(M),) * K
        while not has_mixed_level(perms):
            perms = tuple(letters[k] for k in rng.choice(len(letters), K))
        cases.append((perms, digit_test_arg_specs(K, M) + [pinned_arg_spec(K, 2, 11)]))
    # two mixed levels of radix 6 at M = 72, three variables each
    cases.append(((PartialTranspose(36, 2), PartialTranspose(24, 3, Side.LEFT),
                   PartialTranspose(6, 12), PartialTranspose(4, 18)),
                  [pinned_arg_spec(4, 2, 44), pinned_arg_spec(4, 7, 7)]))
    for perms, specs in cases:
        K, M = len(perms), perms[0].M
        counter = pm.SharedGridCounter()
        levels = pm.digit_levels(perms)
        for spec in specs:
            for pi in pts.enumerate_bipartite_pairings(K):
                pairs = wk._factor_pairs(pi)
                assert wk._count_constrained_i(levels, pairs, spec, counter) == \
                    enumerated_i_count(perms, M, pairs, spec), (perms, pairs, spec)


def test_moment_and_covariance_share_one_grid_per_word():
    # the auto path evaluates a word's letters once for all its pairings, and
    # agrees with the full-grid reference
    M = 12
    w = word(M, 3, PartialTranspose(4, 3), PartialTranspose(3, 4), PartialTranspose(6, 2))
    auto, fast = (wk.exact_mixed_moment(w, method=m) for m in ("auto", "fast"))
    assert auto.tuple_counts == fast.tuple_counts
    assert len(w.grid_counter._grids) == 1
    w2 = word(M, 3, PartialTranspose(4, 3, Side.LEFT))
    perms, spec = w.perms + w2.perms, wk._cyclic_arg_spec(3) + wk._cyclic_arg_spec(1, offset=3)
    full = sum(3 ** wk._j_orbit_count(pi)
               * enumerated_i_count(perms, M, wk._factor_pairs(pi), spec)
               for pi in pts.enumerate_bipartite_pairings(4)
               if any(pi(k) > 6 for k in range(1, 7)))  # the pairs coupling the traces
    assert wk.exact_trace_covariance(w, w2) == Fraction(full, M**4)


# ---------------------------------------------------------------------------
# orbit tables against the i-grid enumeration
# ---------------------------------------------------------------------------

def cyclic_spec(cycles):
    """Arguments of the letters of consecutive trace cycles."""
    starts = itertools.accumulate((0,) + cycles[:-1])
    return [a for c, start in zip(cycles, starts) for a in wk._cyclic_arg_spec(c, start)]


def equality_bits(cache, M, cycles, t, s, p, q):
    """The grid points of [M]^K where coordinate 0 of letter t's image (p)
    equals coordinate 1 of letter s's (q), as a bitset; kept per key, since
    many words share their letters at t and s."""
    K = sum(cycles)
    key = (M, cycles, t, s, p.key(), q.key())
    if key not in cache:
        if (M, K) not in cache:
            cache[M, K] = next(pm._iter_var_grid(K, M))  # the whole grid: M^K <= _CHUNK
        spec = cyclic_spec(cycles)
        (image_t, _), (_, image_s) = pm._grid_images((p, q), cache[M, K], [spec[t], spec[s]])
        cache[key] = int.from_bytes(np.packbits(image_t == image_s).tobytes(), "big")
    return cache[key]


def enumerated_table_counts(cache, perms, cycles):
    """The i-count of every pairing of order K by enumerating [M]^K."""
    M = perms[0].M
    counts = []
    for f in wk._pairing_table(len(perms)).fm.tolist():
        bits = -1
        for t, s in enumerate(f):
            bits &= equality_bits(cache, M, cycles, t, s, perms[t], perms[s])
        counts.append(bits.bit_count())
    return counts


def table_counts(perms, cycles):
    """The i-count of every pairing from the orbit tables of a chain word's levels."""
    counts = np.ones(math.factorial(len(perms)), dtype=np.int64)
    for level in pm.digit_levels(perms):
        assert not isinstance(level, pm.MixedLevel)
        _, radix, swaps = level
        counts *= radix ** wk._level_orbits(cycles, swaps).astype(np.int64)
    return counts.tolist()


def cycle_count(f):
    """Cycles of the permutation f of [K] (0-based), walked one by one."""
    seen, cycles = set(), 0
    for start in range(len(f)):
        cycles += start not in seen
        while start not in seen:
            seen.add(start)
            start = f[start]
    return cycles


def test_orbit_tables_match_enumeration_exhaustive():
    # every pairing of every word of up to four letters of the chain
    # alphabets, around one trace cycle or two
    cache = {}
    cells = 0
    for M, ds in ((4, (2,)), (8, (2, 4)), (12, (2, 4)), (12, (3, 6))):
        alphabet = chain_letters(M, ds)
        for K in range(1, 5):
            splits = [(K,)] + [(m, K - m) for m in range(1, K)]
            for perms in itertools.product(alphabet, repeat=K):
                for cycles in splits:
                    counts = table_counts(perms, cycles)
                    assert counts == enumerated_table_counts(cache, perms, cycles), \
                        (perms, cycles)
                    cells += len(counts)
    assert cells == 411158
    # the bitset reference is the enumeration counter's count
    rng = np.random.default_rng(4)
    for M, ds in ((8, (2, 4)), (12, (3, 6))):
        alphabet = chain_letters(M, ds)
        for _ in range(4):
            perms = tuple(alphabet[k] for k in rng.choice(len(alphabet), 3))
            for pi, n in zip(pts.enumerate_bipartite_pairings(3),
                             enumerated_table_counts(cache, perms, (1, 2))):
                equalities = [((t - 1, 0), (s - 1, 1)) for t, s in wk._factor_pairs(pi)]
                assert n == pm._count_by_enumeration(perms, M, cyclic_spec((1, 2)),
                                                     equalities)


def test_pairing_table_j_orbits_are_the_cycles_of_f():
    for K in range(1, pts.MAX_PAIRING_ORDER + 1):
        table = wk._pairing_table(K)
        assert [p.partner for p in table.pairings] == \
            [p.partner for p in pts.enumerate_bipartite_pairings(K)]
        for row, f in enumerate(table.fm.tolist()):
            assert table.j_orbits[row] == cycle_count(f)
            assert all(table.j_ids[row][t] == table.j_ids[row][s] for t, s in enumerate(f))
            assert table.j_orbits[row] == len(set(table.j_ids[row].tolist()))


@st.composite
def long_chain_word(draw):
    M = draw(st.integers(1, 4))  # every divisor set of M <= 4 is a chain
    ds = [d for d in range(1, M + 1) if M % d == 0]
    perms = []
    for _ in range(draw(st.integers(5, 6))):
        kind = draw(st.sampled_from(["I", "T", "G", "LG"]))
        if kind in ("G", "LG"):
            d = draw(st.sampled_from(ds))
            perms.append(PartialTranspose(M // d, d, Side.LEFT if kind == "LG" else Side.RIGHT))
        else:
            perms.append(Identity(M) if kind == "I" else Transpose(M))
    return word(M, draw(st.integers(1, 3)), *perms)


def enumerated_covariance(w1, w2):
    """Cov(Tr, Tr) as the connected pairings' P^(cycles of f) times the
    enumerated i-counts."""
    m, K, (M, P) = w1.m, w1.m + w2.m, (w1.shape.M, w1.shape.P)
    perms, spec = w1.perms + w2.perms, cyclic_spec((w1.m, w2.m))
    total = 0
    for pi in pts.enumerate_bipartite_pairings(K):
        f = [s - 1 for s in pi.factor_map()]
        if any(s >= m for s in f[:m]):
            total += P ** cycle_count(f) * enumerated_i_count(perms, M, wk._factor_pairs(pi),
                                                              spec)
    return Fraction(total, M**K)


@settings(max_examples=25, deadline=None)
@given(long_chain_word())
def test_long_chain_words_match_enumeration(w):
    # the orbit tables of 5- and 6-letter words against the full i-grid, as
    # a moment and, for six letters, as a 3 + 3 covariance
    auto = wk.exact_mixed_moment(w)
    assert auto.tuple_counts == wk.exact_mixed_moment(w, method="fast").tuple_counts
    if w.m == 6:
        w1, w2 = w.subword((1, 2, 3)), w.subword((4, 5, 6))
        assert wk.exact_trace_covariance(w1, w2) == enumerated_covariance(w1, w2)


def test_orbit_tables_are_kept_per_cycles_and_swaps():
    # a 6-letter moment and a 3 + 3 covariance of the same letters share the
    # swap vector of each level, not its orbit table; and nothing is kept on
    # the word: freshly built words count the same
    def letters():
        return (PartialTranspose(2, 2), Transpose(4), Identity(4),
                PartialTranspose(2, 2, Side.LEFT), PartialTranspose(2, 2), Transpose(4))

    wk._level_orbits.cache_clear()
    w = word(4, 2, *letters())
    moment = wk.exact_mixed_moment(w)
    assert moment.tuple_counts == wk.exact_mixed_moment(w, method="fast").tuple_counts
    cov = wk.exact_trace_covariance(w.subword((1, 2, 3)), w.subword((4, 5, 6)))
    assert cov == enumerated_covariance(w.subword((1, 2, 3)), w.subword((4, 5, 6)))
    for _, _, swaps in pm.digit_levels(w.perms):
        assert wk._level_orbits((6,), swaps) is not wk._level_orbits((3, 3), swaps)
    fresh = word(4, 2, *letters())
    assert wk.exact_mixed_moment(fresh).tuple_counts == moment.tuple_counts
    assert wk.exact_trace_covariance(fresh.subword((1, 2, 3)), fresh.subword((4, 5, 6))) == cov


def test_words_above_the_pairing_cap_count_their_own_orbits():
    # nine letters have no pairing table; a lone pairing is still counted
    rng = np.random.default_rng(9)
    w = word(2, 2, *(Transpose(2) if k % 3 else Identity(2) for k in range(9)))
    for _ in range(5):
        f = rng.permutation(9) + 1
        pi = pts.Pairing.from_pairs((2 * t - 1, 2 * int(s)) for t, s in enumerate(f, start=1))
        assert wk.count_admissible(pi, w) == wk.count_admissible(pi, w, method="fast")
        assert wk._j_orbit_count(pi) == cycle_count([int(s) - 1 for s in f])


def test_budget_counts_the_points_enumerated():
    # two mixed levels of radix 6 enumerate 6^7 points each for a 4 + 3
    # covariance: 2 * 6^7, not their product 36^7
    M = 72
    w1 = word(M, M, *(PartialTranspose(M // d, d) for d in TWO_MIXED_SIZES))
    w2 = word(M, M, *(Identity(M),) * 3)
    levels = pm.digit_levels(w1.perms + w2.perms)
    pm.check_budget(levels, 7, 2 * 6**7)
    with pytest.raises(ResourceLimitError, match=r"6\^7 \+ 6\^7 = 559872") as info:
        wk.exact_trace_covariance(w1, w2, budget=2 * 6**7 - 1)
    assert info.value.cost == 2 * 6**7


def test_chain_variance_closed_form_at_large_M():
    # Var(Tr) of G(2,M/2) G(M/2,2): at M = 2^20 neither the word's symmetry
    # check nor its count builds a table (the side exceeds the table cap)
    for M in (64, 1024, 2**20):
        w = word(M, M, PartialTranspose(2, M // 2), PartialTranspose(M // 2, 2))
        assert wk.exact_trace_covariance(w, w) == \
            6 + Fraction(65, 2 * M) + Fraction(64, M * M)


def test_restricted_counts_basics():
    for m in (1, 2, 3):
        for (M, P) in ((4, 4), (6, 5)):
            perms = tuple(itertools.islice(itertools.cycle(
                [Identity(M), Transpose(M)]), m))
            w = word(M, P, *perms)
            for pi in pts.enumerate_bipartite_pairings(m):
                assert wk.count_admissible_restricted(pi, w, range(1, 2 * m + 1)) == \
                    wk.count_admissible(pi, w)
                assert wk.count_admissible_restricted(pi, w, []) == \
                    (1 if wk.count_admissible(pi, w) else 0)
    with pytest.raises(ValueError):
        wk.count_admissible_restricted(pts.delta(2), word(4, 4, Identity(4), Identity(4)), [5])


def brute_restricted(pi, w, D):
    m, M, P = w.m, w.shape.M, w.shape.P
    out = set()
    for ii in itertools.product(range(1, M + 1), repeat=m):
        for jj in itertools.product(range(1, P + 1), repeat=m):
            if not wk.weight_support(pi, w, IndexTuple(ii, jj)):
                continue
            flat = []
            for k in range(1, m + 1):
                lk, lmk = w.perms[k - 1](ii[k - 1], ii[k % m])
                flat += [lk, jj[k - 1], jj[k - 1], lmk]
            out.add(tuple(x for dd in sorted(D) for x in (flat[2 * dd - 2], flat[2 * dd - 1])))
    return len(out)


def test_restricted_counts_against_brute_force():
    rng = np.random.default_rng(3)
    for _ in range(25):
        m = int(rng.integers(1, 4))
        M = int(rng.integers(2, 5))
        P = int(rng.integers(2, 5))
        w = word(M, P, *(pm.random_symmetric_table(M, rng) for _ in range(m)))
        pis = pts.enumerate_bipartite_pairings(m)
        pi = pis[int(rng.integers(0, len(pis)))]
        size = int(rng.integers(0, 2 * m + 1))
        D = sorted(rng.choice(np.arange(1, 2 * m + 1), size=size, replace=False).tolist())
        assert wk.count_admissible_restricted(pi, w, D) == brute_restricted(pi, w, D)


def test_projection_growth_inequality():
    rng = np.random.default_rng(11)
    checked = 0
    while checked < 30:
        m = int(rng.integers(2, 5))
        M = int(rng.integers(2, 7))
        P = int(rng.integers(2, 7))
        w = word(M, P, *(pm.random_symmetric_table(M, rng) for _ in range(m)))
        pis = pts.enumerate_bipartite_pairings(m)
        pi = pis[int(rng.integers(0, len(pis)))]
        k = int(rng.integers(1, m + 1))
        if 2 * k + 2 > 2 * m:
            continue
        B = {2 * k + 1, 2 * k + 2}
        B |= {int(rng.integers(1, 2 * m + 1)) for _ in range(int(rng.integers(0, 2 * m)))}
        # close under the pairing
        while True:
            closed = B | {pi(x) for x in B}
            if closed == B:
                break
            B = closed
        B1 = B | {2 * k - 1, 2 * k} | {pi(2 * k - 1), pi(2 * k)}
        nB = wk.count_admissible_restricted(pi, w, B)
        nB1 = wk.count_admissible_restricted(pi, w, B1)
        assert nB1 <= nB * max(M, P) ** ((len(B1) - len(B)) // 2)
        checked += 1


def test_segment_sums():
    # spec examples
    w334 = word(4, 4, *(PartialTranspose(2, 2),) * 3)
    assert wk.segment_sum(pts.nu1(3), w334, 1) == Fraction(1, 4)
    w423 = word(6, 6, *(PartialTranspose(2, 3),) * 4)
    assert wk.segment_sum(pts.nu2(4), w423, 2) == Fraction(1, 4)
    # endpoint mismatch vanishes
    for m in (3, 4):
        w = word(6, 6, *(PartialTranspose(3, 2),) * m)
        for pi in (pts.nu1(m), pts.nu2(m)):
            assert wk.segment_sum(pi, w, 1, 2) == 0
    # independence of the endpoint, and the per-pairing value identity
    for m in (3, 4):
        for (b, d) in ((2, 2), (2, 3)):
            M = b * d
            w = word(M, M, *(PartialTranspose(b, d),) * m)
            for pi in (pts.nu1(m), pts.nu2(m)):
                vals = {wk.segment_sum(pi, w, a) for a in range(1, M + 1)}
                assert len(vals) == 1
                V = Fraction(wk.count_admissible(pi, w), M ** (m + 1))
                assert vals == {V}
    # domain errors
    with pytest.raises(ValueError):
        wk.segment_sum(pts.nu1(2), word(4, 4, Identity(4), Identity(4)), 1)
    with pytest.raises(ValueError):
        wk.segment_sum(pts.nu1(2), word(4, 4, PartialTranspose(2, 2),
                                        PartialTranspose(4, 1)), 1)
    with pytest.raises(ValueError):
        wk.segment_sum(pts.delta(3), word(8, 8, *(PartialTranspose(2, 4),) * 3), 1)


def test_segment_sum_against_full_enumeration():
    # doubly-naive cross-check of the factored enumeration on tiny shapes
    for m, b, d, P in ((3, 2, 2, 3), (3, 1, 3, 2)):
        M = b * d
        w = word(M, P, *(PartialTranspose(b, d),) * m)
        for pi in (pts.nu1(m), pts.nu2(m)):
            for (a, bb) in ((1, 1), (2, 2), (1, 2)):
                total = Fraction(0)
                for interior in itertools.product(range(1, M + 1), repeat=m - 1):
                    ii = (a,) + interior
                    full_i = ii + (bb,)
                    for jj in itertools.product(range(1, P + 1), repeat=m):
                        ok = True
                        for t, s in wk._factor_pairs(pi):
                            lt = w.perms[t - 1](full_i[t - 1], full_i[t])[0]
                            lms = w.perms[s - 1](full_i[s - 1], full_i[s])[1]
                            if lt != lms or jj[t - 1] != jj[s - 1]:
                                ok = False
                                break
                        if ok:
                            total += Fraction(1, M ** m)
                assert total == wk.segment_sum(pi, w, a, bb), (m, b, d, pi, a, bb)


def test_trace_covariance():
    for (M, P) in ((4, 4), (6, 5), (8, 8)):
        wI = word(M, P, Identity(M))
        assert wk.exact_trace_covariance(wI, wI) == Fraction(P, M)
    # coherence: E(Tr Tr) = Cov + E Tr * E Tr
    for (M, P) in ((4, 4), (6, 5)):
        w1 = word(M, P, Identity(M))
        w2 = word(M, P, PartialTranspose(2, M // 2))
        lhs = wk.exact_trace_product_expectation(w1, w2)
        cov = wk.exact_trace_covariance(w1, w2)
        e1 = M * wk.exact_mixed_moment(w1).total
        e2 = M * wk.exact_mixed_moment(w2).total
        assert lhs == cov + e1 * e2
    with pytest.raises(ValueError):
        wk.exact_trace_covariance(word(4, 4, Identity(4)), word(6, 6, Identity(6)))


def test_trace_covariance_boundedness_grid():
    # Cov(Tr, Tr) stays in a fixed band over the grid
    vals = []
    for M in (4, 8, 12, 16):
        w = word(M, M, PartialTranspose(2, M // 2), PartialTranspose(M // 2, 2))
        vals.append(wk.exact_trace_covariance(w, w))
    assert max(vals) < 3 * min(vals)
    assert all(v > 0 for v in vals)


def test_connected_bipairings():
    assert len(wk.connected_bipairings(1, 1)) == 1
    assert len(wk.connected_bipairings(2, 2)) == 24 - 4


def test_decomposition_identity_against_naive():
    # total moment equals the naive-path pairing sum on a small exhaustive grid
    for M, P in ((4, 4), (6, 5)):
        for m in (1, 2, 3):
            w = word(M, P, *(PartialTranspose(2, M // 2),) * m)
            naive_total = sum(
                Fraction(wk.count_admissible(pi, w, method="naive"), M ** (m + 1))
                for pi in pts.enumerate_bipartite_pairings(m))
            assert wk.exact_mixed_moment(w).total == naive_total


def test_full_join_pairings_vanish_except_nu(
):
    # non-nu pairings with full join have vanishing per-pairing values
    for m in (4, 5):
        nus = {pts.nu1(m), pts.nu2(m)}
        full = [p for p in pts.enumerate_bipartite_pairings(m)
                if len(pts.join(p, pts.delta(m)).blocks) == 1]
        assert nus <= set(full)
        for pi in full:
            Vs = []
            for M in (4, 8, 16):
                w = word(M, M, *(PartialTranspose(2, M // 2),) * m)
                Vs.append(Fraction(wk.count_admissible(pi, w), M ** (m + 1)))
            if pi in nus:
                assert Vs[-1] > 0
            else:
                assert Vs[-1] < Vs[0] and Vs[-1] <= Vs[0] / 2

import itertools
import math
import tracemalloc
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
from ptlab.wick import WickWord


def word(M, P, *perms):
    return WickWord(MatrixShape(M, P), perms)


def fast_counts(w):
    """Every pairing's count on the full i-grid: the reference the moment's
    digit levels are checked against."""
    return {pi: wk.count_admissible(pi, w, method="fast")
            for pi in pts.enumerate_bipartite_pairings(w.m)}


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
        assert wk.weight_support(pi1, w1, (i,), (2,))
    w2 = word(4, 4, Identity(4), Identity(4))
    cross = pts.Pairing.from_pairs([(1, 4), (2, 3)])
    assert not wk.weight_support(cross, w2, (1, 1), (1, 2))
    # sum of weights over all tuples at fixed pairing equals the count
    total = sum(
        wk.weight_support(cross, w2, (i1, i2), (j1, j2))
        for i1 in range(1, 5) for i2 in range(1, 5)
        for j1 in range(1, 5) for j2 in range(1, 5))
    assert total == wk.count_admissible(cross, w2)
    # both tuples must have one entry per letter, and lie in [M] and [P]
    for i, j in (((1,), (1, 1)), ((1, 1), (1,)), ((1, 1, 1), (1, 1)), ((1, 1), (1, 1, 1))):
        with pytest.raises(ValueError, match="length"):
            wk.weight_support(cross, w2, i, j)
    for i, j in (((0, 1), (1, 1)), ((1, 5), (1, 1)), ((1, 1), (1, 5))):
        with pytest.raises(ValueError, match="range"):
            wk.weight_support(cross, w2, i, j)


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
    assert rep.total == sum(Fraction(n, 12**3) for n in rep.tuple_counts.values())


def test_exact_cumulant_examples():
    rng = np.random.default_rng(42)
    # kappa_1 = P/M for every symmetric word of length 1
    for sigma in (Identity(6), Transpose(6), pm.random_symmetric_table(6, rng)):
        assert wk.exact_mixed_cumulant(word(6, 5, sigma)) == Fraction(5, 6)
    # kappa_2(W, W^T) = P/M^2
    for (M, P) in ((8, 8), (12, 8)):
        assert wk.exact_mixed_cumulant(word(M, P, Identity(M), Transpose(M))) == \
            Fraction(P, M * M)


def test_cumulant_asks_each_distinct_subword_once(monkeypatch):
    # the noncrossing recursion keeps each subword's cumulant, so the moment
    # of a subword is computed once however many blocks select it; the
    # letters are equal but distinct objects, as a parsed word's are
    M = 12
    kinds = {"G": lambda: PartialTranspose(4, 3), "T": lambda: Transpose(M),
             "I": lambda: Identity(M)}
    moment = wk.exact_mixed_moment
    calls = []

    def counted(sub, **kw):
        calls.append(sub.perms)
        return moment(sub, **kw)

    for letters, distinct in (("GTGI", 13), ("GTGIG", 23), ("GTGIGT", 45)):
        w = word(M, M, *(kinds[x]() for x in letters))
        expected = wk.exact_mixed_cumulant(w)
        calls.clear()
        monkeypatch.setattr(wk, "exact_mixed_moment", counted)
        assert wk.exact_mixed_cumulant(w) == expected
        monkeypatch.setattr(wk, "exact_mixed_moment", moment)
        subwords = {tuple(w.perms[k] for k in c) for r in range(1, w.m + 1)
                    for c in itertools.combinations(range(w.m), r)}
        assert len(calls) == len(set(calls)) == len(subwords) == distinct, letters
        assert set(calls) == subwords


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


def test_naive_walks_its_grids_in_chunks(monkeypatch):
    # with 50-point chunks the i- and j-grids of these words span several
    # chunks each, most with pinned outer coordinates; naive still equals
    # fast and auto on every pairing
    chunks = []

    def iter_var_grid(n_vars, M):
        for cols in pm._iter_var_grid(n_vars, M):
            chunks.append(M)
            yield cols

    monkeypatch.setattr(pm, "_CHUNK", 50)
    monkeypatch.setattr(wk, "_iter_var_grid", iter_var_grid)
    rng = np.random.default_rng(5)
    for w in (word(6, 4, PartialTranspose(2, 3), PartialTranspose(3, 2, Side.LEFT), Transpose(6)),
              word(4, 3, PartialTranspose(2, 2), Identity(4), pm.InducedDiagonal((2, 1, 4, 3)),
                   pm.random_symmetric_table(4, rng))):
        M, P = w.shape.M, w.shape.P
        for pi in pts.enumerate_bipartite_pairings(w.m):
            chunks.clear()
            naive = wk.count_admissible(pi, w, method="naive")
            assert chunks.count(M) > 2 and chunks.count(P) > 2
            assert naive == wk.count_admissible(pi, w, method="fast") == \
                wk.count_admissible(pi, w)


def test_naive_memory_is_bounded_by_the_chunk(monkeypatch):
    # 24^4 = 331,776 i-points walked 576 at a time: the peak stays far
    # below the whole grid's arrays (about 21 MB when built at once)
    monkeypatch.setattr(pm, "_CHUNK", 4096)
    w = word(24, 1, PartialTranspose(2, 12), PartialTranspose(4, 6), Transpose(24), Identity(24))
    pi = pts.enumerate_bipartite_pairings(4)[7]
    tracemalloc.start()
    try:
        naive = wk.count_admissible(pi, w, method="naive")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    assert naive == wk.count_admissible(pi, w)


def test_report_total_is_computed_from_per_pairing():
    w = word(4, 3, PartialTranspose(2, 2), Transpose(4))
    report = wk.exact_mixed_moment(w)
    assert report.total == sum(Fraction(n, 4**3) for n in report.tuple_counts.values()) == \
        Fraction(15, 16)
    pi = pts.delta(1)
    empty = wk.RationalMomentReport(word(4, 4, Identity(4)), {pi: 0})
    assert empty.total == 0
    with pytest.raises(TypeError):
        wk.RationalMomentReport(w, report.tuple_counts, Fraction(0))


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
    # the chunked l-equality loop and the digit levels against the (i, j) grid
    w, pi = case
    fast = wk.count_admissible(pi, w, method="fast")
    assert fast == wk.count_admissible(pi, w, method="naive")
    assert fast == wk.count_admissible(pi, w)


# ---------------------------------------------------------------------------
# the digit path against the i-grid enumeration
# ---------------------------------------------------------------------------

def enumerated_i_count(perms, M, pairs, arg_spec):
    equalities = [((t - 1, 0), (s - 1, 1)) for t, s in pairs]
    return pm._count_by_enumeration(perms, M, arg_spec, equalities)


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


def enumerated_row_counts(level, spec, fm, rows):
    """``_count_by_enumeration`` of the mixed level for each of the ``rows``
    of the factor maps ``fm``."""
    return [pm._count_by_enumeration(level.letters, level.radix, spec,
                                     [((t, 0), (s, 1)) for t, s in enumerate(fm[row])])
            for row in rows]


def test_pairing_row_counts_match_enumeration():
    # one pass per mixed level gives every pairing row's count, around one
    # trace cycle or two: each equals its own enumeration
    rng = np.random.default_rng(12)
    M = 12
    letters = chain_letters(M, (2, 3, 4, 6))
    cases = []
    for K in (2, 3, 3, 4, 4):
        perms = (Identity(M),) * K
        while not has_mixed_level(perms):
            perms = tuple(letters[k] for k in rng.choice(len(letters), K))
        cases.append(perms)
    # two mixed levels of radix 6 at M = 72
    cases.append(tuple(PartialTranspose(72 // d, d, side) for d, side in
                       zip(TWO_MIXED_SIZES, (Side.RIGHT, Side.LEFT, Side.RIGHT, Side.RIGHT))))
    for perms in cases:
        K = len(perms)
        fm = wk._pairing_table(K).fm
        for cycles in [(K,)] + [(m, K - m) for m in range(1, K)]:
            spec = cyclic_spec(cycles)
            for level in pm.digit_levels(perms):
                if isinstance(level, pm.MixedLevel):
                    assert pm.count_pairing_rows(level, spec, fm).tolist() == \
                        enumerated_row_counts(level, spec, fm, range(len(fm))), (perms, cycles)
    # the 4 + 3 covariance at M = 72: 6^7 points per level, a sample of rows
    perms = tuple(PartialTranspose(72 // d, d) for d in TWO_MIXED_SIZES) + (Identity(72),) * 3
    spec, fm = cyclic_spec((4, 3)), wk._pairing_table(7).fm
    rows = wk._connected_rows(4, 3)
    sample = rng.choice(len(rows), 12, replace=False)
    for level in pm.digit_levels(perms):
        if isinstance(level, pm.MixedLevel):
            counts = pm.count_pairing_rows(level, spec, fm[rows])
            assert counts[sample].tolist() == \
                enumerated_row_counts(level, spec, fm, rows[sample])


def test_pairing_row_counts_across_grid_chunks(monkeypatch):
    # a grid walked in many chunks merges their mask histograms, and the
    # masks are tested against the rows a few at a time
    monkeypatch.setattr(pm, "_CHUNK", 50)
    perms = (PartialTranspose(6, 2), PartialTranspose(4, 3, Side.LEFT), Transpose(12),
             PartialTranspose(3, 4))
    (level,) = [lv for lv in pm.digit_levels(perms) if isinstance(lv, pm.MixedLevel)]
    fm = wk._pairing_table(4).fm
    for cycles in ((4,), (2, 2)):
        spec = cyclic_spec(cycles)
        assert pm.count_pairing_rows(level, spec, fm).tolist() == \
            enumerated_row_counts(level, spec, fm, range(24))


def test_pairing_row_counts_match_an_unfiltered_histogram():
    # the 4 + 3 covariance at M = 72 has two mixed levels of radix 6; the
    # masks that miss a row or column of the K x K matrix are dropped before
    # the masks x rows test, which changes no row's count
    perms = tuple(PartialTranspose(72 // d, d) for d in TWO_MIXED_SIZES) + (Identity(72),) * 3
    spec, fm = cyclic_spec((4, 3)), wk._pairing_table(7).fm
    K = len(perms)
    for level in pm.digit_levels(perms):
        if not isinstance(level, pm.MixedLevel):
            continue
        grid = np.indices((level.radix,) * pm._n_vars(spec)).reshape(pm._n_vars(spec), -1) + 1
        images = [p.eval_arrays(grid[a[1]], grid[b[1]]) for p, (a, b) in zip(level.letters, spec)]
        mask = np.zeros(grid.shape[1], dtype=np.int64)
        for t in range(K):
            for s in range(K):
                mask |= (images[t][0] == images[s][1]).astype(np.int64) << (t * K + s)
        masks, hist = np.unique(mask, return_counts=True)
        want = np.array([sum(1 << (t * K + int(s)) for t, s in enumerate(row)) for row in fm])
        expected = [int(hist[(masks & w) == w].sum()) for w in want]
        assert pm.count_pairing_rows(level, spec, fm).tolist() == expected


def test_moment_and_covariance_share_one_grid_per_word(monkeypatch):
    # the auto path makes one grid pass per mixed level of a word, the first
    # time a pairing of the word is counted, and agrees with the full-grid
    # reference
    passes = []

    def count_pairing_rows(level, *args):
        passes.append(level)
        return pm.count_pairing_rows(level, *args)

    monkeypatch.setattr(wk, "count_pairing_rows", count_pairing_rows)
    M = 12
    w = word(M, 3, PartialTranspose(4, 3), PartialTranspose(3, 4), PartialTranspose(6, 2))
    auto = wk.exact_mixed_moment(w)
    assert auto.tuple_counts == fast_counts(w)
    assert len(passes) == 1 and len(w.mixed_counts) == 6
    assert wk.exact_mixed_moment(w).tuple_counts == auto.tuple_counts
    assert len(passes) == 1
    w2 = word(M, 3, PartialTranspose(4, 3, Side.LEFT))
    perms, spec = w.perms + w2.perms, wk._cyclic_arg_spec(3) + wk._cyclic_arg_spec(1, offset=3)
    full = sum(3 ** wk._j_orbit_count(pi)
               * enumerated_i_count(perms, M, wk._factor_pairs(pi), spec)
               for pi in pts.enumerate_bipartite_pairings(4)
               if any(pi(k) > 6 for k in range(1, 7)))  # the pairs coupling the traces
    assert wk.exact_trace_covariance(w, w2) == Fraction(full, M**4)
    assert len(passes) == 2


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


def auto_row_counts(perms, cycles):
    """The i-count of every pairing of order K as the Wick sums take it: the
    keep/swap levels' orbit tables times the mixed levels' one pass."""
    tables, mixed = wk._keep_swap_orbits(pm.digit_levels(perms), cycles)
    table = wk._pairing_table(len(perms))
    counts = wk._mixed_row_counts(mixed, cyclic_spec(cycles), table.fm)
    return [wk._row_count(1, table, row, tables) * n for row, n in enumerate(counts)]


def test_pairing_row_counts_match_enumeration_exhaustive():
    # every pairing of every word of up to four letters with a mixed level,
    # over the sizes {2, 3} at M = 6 and {3, 4} at M = 12, around one trace
    # cycle or two, against a bitset enumeration of [M]^K
    cache = {}
    cells = 0
    for M, ds in ((6, (2, 3)), (12, (3, 4))):
        alphabet = chain_letters(M, ds)
        for K in range(2, 5):
            splits = [(K,)] + [(m, K - m) for m in range(1, K)]
            for perms in filter(has_mixed_level, itertools.product(alphabet, repeat=K)):
                for cycles in splits:
                    counts = auto_row_counts(perms, cycles)
                    assert counts == enumerated_table_counts(cache, perms, cycles), \
                        (perms, cycles)
                    cells += len(counts)
    assert cells == 157120
    # the bitset reference is the enumeration counter's count
    rng = np.random.default_rng(5)
    for M, ds in ((6, (2, 3)), (12, (3, 4))):
        words = list(filter(has_mixed_level, itertools.product(chain_letters(M, ds), repeat=4)))
        for k in rng.choice(len(words), 3, replace=False):
            for cycles in ((4,), (1, 3), (2, 2)):
                fm = wk._pairing_table(4).fm
                level = pm.MixedLevel(1, M, words[k])
                assert enumerated_table_counts(cache, words[k], cycles) == \
                    enumerated_row_counts(level, cyclic_spec(cycles), fm, range(24))


@st.composite
def non_chain_covariance(draw):
    ds = draw(st.sampled_from(NON_CHAIN_SIZES))
    M = math.lcm(*ds) * draw(st.integers(1, 2))
    K = draw(st.integers(2, 4 if M <= 12 else 3))
    m = draw(st.integers(1, K - 1))
    letters = chain_letters(M, ds)
    perms = draw(st.lists(st.sampled_from(letters), min_size=K, max_size=K)
                 .filter(has_mixed_level))
    P = draw(st.integers(1, 3))
    return word(M, P, *perms[:m]), word(M, P, *perms[m:])


@settings(max_examples=40, deadline=None)
@given(non_chain_covariance())
def test_pairing_row_counts_on_random_covariances(words):
    # each mixed level's count of every connected row against its own
    # enumeration, and the covariance against the enumerated connected sum
    w1, w2 = words
    perms, spec = w1.perms + w2.perms, cyclic_spec((w1.m, w2.m))
    fm = wk._pairing_table(len(perms)).fm
    rows = wk._connected_rows(w1.m, w2.m)
    for level in pm.digit_levels(perms):
        if isinstance(level, pm.MixedLevel):
            assert pm.count_pairing_rows(level, spec, fm[rows]).tolist() == \
                enumerated_row_counts(level, spec, fm, rows)
    assert wk.exact_trace_covariance(w1, w2) == enumerated_covariance(w1, w2)


def test_pairing_table_j_orbits_are_the_cycles_of_f():
    for K in range(1, pts.MAX_PAIRING_ORDER + 1):
        table = wk._pairing_table(K)
        assert [p.partner for p in table.pairings] == \
            [p.partner for p in pts.enumerate_bipartite_pairings(K)]
        for row, f in enumerate(table.fm.tolist()):
            assert table.j_orbits[row] == cycle_count(f)
        if K <= 6:  # a lone pairing's one orbit_labels row reads the same
            assert [wk._j_orbit_count(p) for p in table.pairings] == table.j_orbits.tolist()


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
    assert auto.tuple_counts == fast_counts(w)
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
    assert moment.tuple_counts == fast_counts(w)
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
    # two mixed levels of radix 6 enumerate 6^7 points each for each of the
    # 4896 connected pairings of a 4 + 3 covariance: 2 * 6^7 per pairing,
    # not their product 36^7
    M = 72
    w1 = word(M, M, *(PartialTranspose(M // d, d) for d in TWO_MIXED_SIZES))
    w2 = word(M, M, *(Identity(M),) * 3)
    levels = pm.digit_levels(w1.perms + w2.perms)
    pm.check_budget(levels, 7, 2 * 6**7)
    with pytest.raises(ResourceLimitError, match=r"6\^7 \+ 6\^7 = 559872") as info:
        wk.exact_trace_covariance(w1, w2, budget=2 * 6**7 - 1)
    assert info.value.cost == 4896 * 2 * 6**7


def test_moment_budget_counts_every_pairing():
    # each of the 24 pairings of a 4-letter moment enumerates both 6^4 grids
    M = 72
    w = word(M, M, *(PartialTranspose(M // d, d) for d in TWO_MIXED_SIZES))
    cost = 24 * 2 * 6**4
    wk.exact_mixed_moment(w, budget=cost)
    with pytest.raises(ResourceLimitError, match=r"^enumeration cost 24 pairings x "
                       r"\(6\^4 \+ 6\^4 = 2592\) = 62208 exceeds budget 62207$") as info:
        wk.exact_mixed_moment(w, budget=cost - 1)
    assert info.value.cost == cost


def test_lone_count_is_charged_as_a_moment():
    # one auto count of a mixed word fills the counts of all 24 pairings
    M = 72
    w = word(M, M, *(PartialTranspose(M // d, d) for d in TWO_MIXED_SIZES))
    pi = pts.enumerate_bipartite_pairings(4)[5]
    with pytest.raises(ResourceLimitError, match=r"24 pairings x \(6\^4 \+ 6\^4"):
        wk.count_admissible(pi, w, budget=24 * 2 * 6**4 - 1)
    per_pairing = wk._count_constrained_i(w.digit_levels, wk._factor_pairs(pi),
                                          wk._cyclic_arg_spec(4))
    assert wk.count_admissible(pi, w, budget=24 * 2 * 6**4) == \
        M ** wk._j_orbit_count(pi) * per_pairing


def test_chain_variance_closed_form_at_large_M():
    # Var(Tr) of G(2,M/2) G(M/2,2): at M = 2^20 neither the word's symmetry
    # check nor its count builds a table (the side exceeds the table cap)
    for M in (64, 1024, 2**20):
        w = word(M, M, PartialTranspose(2, M // 2), PartialTranspose(M // 2, 2))
        assert wk.exact_trace_covariance(w, w) == \
            6 + Fraction(65, 2 * M) + Fraction(64, M * M)


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


def test_connected_rows_couple_the_two_cycles():
    # the rows a covariance sums are the pairings of [2(m + r)] that pair
    # some position of the first trace's 2m with one beyond them: there are
    # (m + r)! - m! r! of them
    for K in range(2, pts.MAX_PAIRING_ORDER + 1):
        pairings = pts.enumerate_bipartite_pairings(K)
        for m in range(1, K):
            rows = wk._connected_rows(m, K - m)
            assert len(rows) == math.factorial(K) - math.factorial(m) * math.factorial(K - m)
            assert rows.tolist() == [k for k, pi in enumerate(pairings)
                                     if any(pi(a) > 2 * m for a in range(1, 2 * m + 1))]
    table = wk._pairing_table(2)
    assert [repr(table.pairings[k]) for k in wk._connected_rows(1, 1)] == ["(1,4)(2,3)"]


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

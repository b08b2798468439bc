import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptlab import perms as pm
from ptlab.errors import ResourceLimitError
from ptlab.perms import Identity, PartialTranspose, Side, Transpose


def divisor_transposes(M, side=Side.RIGHT):
    return pm.all_partial_transposes(M, side)


def test_index_decompose():
    assert pm.index_decompose(7, 3) == (3, 1)
    assert pm.index_decompose(1, 5) == (1, 1)
    for b, d in ((4, 3), (5, 1), (1, 7)):
        assert pm.index_decompose(b * d, d) == (b, d)
    with pytest.raises(ValueError):
        pm.index_decompose(0, 3)


def test_eval_examples():
    g = PartialTranspose(2, 2)
    assert g(1, 2) == (2, 1)
    assert pm.extensionally_equal(PartialTranspose(4, 1), Identity(4))
    assert pm.extensionally_equal(PartialTranspose(1, 4), Transpose(4))
    with pytest.raises(ValueError):
        g(0, 1)
    with pytest.raises(ValueError):
        g(1, 5)


def pointwise_and_grid(p):
    """p(i, j) at every point of [M]^2, and ``eval_arrays`` on the grid."""
    idx = np.arange(1, p.M + 1)
    R, C = p.eval_arrays(*np.meshgrid(idx, idx, indexing="ij"))
    calls = [[p(i, j) for j in range(1, p.M + 1)] for i in range(1, p.M + 1)]
    return calls, [[(int(R[a, b]), int(C[a, b])) for b in range(p.M)] for a in range(p.M)]


def test_partial_transpose_definition_equals_the_shift_form():
    # __call__ splits each index into (block, offset) as the paper defines
    # Gamma(b, d); eval_arrays swaps the offsets by one shift array
    for M in range(1, 13):
        for d in range(1, M + 1):
            if M % d == 0:
                for side in Side:
                    calls, grid = pointwise_and_grid(PartialTranspose(M // d, d, side))
                    assert calls == grid, (M // d, d, side)


def test_every_kind_calls_its_eval_arrays():
    rng = np.random.default_rng(6)
    for M in (1, 2, 5, 6):
        table = pm.random_symmetric_table(M, rng)
        diag = pm.InducedDiagonal(rng.permutation(M) + 1)
        R, C = np.divmod(rng.permutation(M * M).reshape(M, M), M)
        crooked = pm.TablePermutation(R + 1, C + 1)  # not symmetric in general
        comp = pm.Composition([PartialTranspose(1, M, Side.LEFT), table, diag, crooked])
        for p in (Identity(M), Transpose(M), diag, table, crooked, comp):
            calls, grid = pointwise_and_grid(p)
            assert calls == grid, p
            assert all(type(x) is int for row in calls for point in row for x in point)
            for i, j in ((0, 1), (1, 0), (M + 1, 1), (1, M + 1), (-1, -1)):
                with pytest.raises(ValueError):
                    p(i, j)
        # a composition applies its letters innermost first
        assert [[comp(i, j) for j in range(1, M + 1)] for i in range(1, M + 1)] == [
            [comp.perms[0](*table(*diag(*crooked(i, j)))) for j in range(1, M + 1)]
            for i in range(1, M + 1)]


def test_apply_identity_transpose_blocks():
    rng = np.random.default_rng(0)
    M, d = 6, 3
    A = rng.normal(size=(M, M)) + 1j * rng.normal(size=(M, M))
    assert np.array_equal(pm.apply(Identity(M), A), A)
    assert np.array_equal(pm.apply(PartialTranspose(1, M), A), A.T)
    # G(2, d) transposes each d x d block in place
    res = pm.apply(PartialTranspose(2, d), A)
    for bi in range(2):
        for bj in range(2):
            blk = A[bi * d:(bi + 1) * d, bj * d:(bj + 1) * d]
            assert np.array_equal(res[bi * d:(bi + 1) * d, bj * d:(bj + 1) * d], blk.T)
    with pytest.raises(ValueError):
        pm.apply(PartialTranspose(2, d), A[:4, :4])


def test_left_partial_transpose_is_transpose_of_gamma():
    rng = np.random.default_rng(1)
    for (b, d) in ((2, 3), (3, 2), (4, 2), (2, 2)):
        M = b * d
        A = rng.normal(size=(M, M)) + 1j * rng.normal(size=(M, M))
        left = pm.apply(PartialTranspose(b, d, Side.LEFT), A)
        assert np.array_equal(left, pm.apply(PartialTranspose(b, d), A).T)
        # blocks swapped, block interiors untouched
        for bi in range(b):
            for bj in range(b):
                assert np.array_equal(
                    left[bi * d:(bi + 1) * d, bj * d:(bj + 1) * d],
                    A[bj * d:(bj + 1) * d, bi * d:(bi + 1) * d])


def test_involution_all_factorizations():
    for M in range(1, 37):
        for g in divisor_transposes(M) + divisor_transposes(M, Side.LEFT):
            assert pm.extensionally_equal(pm.compose(g, g), Identity(M)), g
    assert pm.extensionally_equal(pm.compose(Transpose(5), Transpose(5)), Identity(5))


def test_invert_random_table():
    rng = np.random.default_rng(2)
    t = pm.random_symmetric_table(5, rng)
    assert pm.extensionally_equal(pm.compose(t, pm.invert(t)), Identity(5))
    assert pm.extensionally_equal(pm.compose(pm.invert(t), t), Identity(5))
    with pytest.raises(ValueError):
        pm.compose(Identity(4), Identity(5))


def test_from_mapping_refuses_entries_outside_the_grid():
    swap = {(1, 1): (1, 1), (1, 2): (2, 1), (2, 1): (1, 2), (2, 2): (2, 2)}
    assert pm.extensionally_equal(pm.TablePermutation.from_mapping(2, swap), Transpose(2))
    # a key 0 would land on the last row through a negative index, and a key
    # M + 1 past the table; an image M + 1 would encode as another entry
    for bad, entry in (({(0, 0): (2, 2)}, r"\(0, 0\) -> \(2, 2\)"),
                       ({(3, 3): (2, 2)}, r"\(3, 3\) -> \(2, 2\)"),
                       ({(2, 2): (1, 3)}, r"\(2, 2\) -> \(1, 3\)")):
        mapping = {k: v for k, v in swap.items() if k != (2, 2)} | bad
        with pytest.raises(ValueError, match=entry + r" is outside \[1, 2\]"):
            pm.TablePermutation.from_mapping(2, mapping)


def test_empty_point_permutation_is_refused():
    # Identity(0) is refused; an empty theta was accepted with M = 0
    with pytest.raises(ValueError, match="M must be >= 1"):
        Identity(0)
    with pytest.raises(ValueError, match=r"with M >= 1"):
        pm.InducedDiagonal([])


def test_empty_tables_are_refused():
    # 0 x 0 tables failed inside numpy (a zero-size reduction in the
    # bijection check); they are refused before it, from arrays or a mapping
    with pytest.raises(ValueError, match=r"M x M arrays of equal shape, M >= 1"):
        pm.TablePermutation(np.zeros((0, 0)), np.zeros((0, 0)))
    with pytest.raises(ValueError, match=r"M x M arrays of equal shape, M >= 1"):
        pm.TablePermutation.from_mapping(0, {})


def test_is_symmetric():
    for M in (4, 6, 12):
        for g in divisor_transposes(M) + divisor_transposes(M, Side.LEFT):
            assert g.is_symmetric()
    theta = [2, 3, 1, 5, 4]
    assert pm.InducedDiagonal(theta).is_symmetric()
    # constructed non-symmetric counterexample: swap two images of a symmetric
    # table so the swap-commutation breaks
    base = pm.random_symmetric_table(3, np.random.default_rng(3))
    R, C = (a.copy() for a in base.image_arrays())
    R[0, 1], R[0, 2] = R[0, 2], R[0, 1]
    C[0, 1], C[0, 2] = C[0, 2], C[0, 1]
    crooked = pm.TablePermutation(R, C)
    assert not crooked.is_symmetric()
    assert not pm.compose(crooked, Identity(3)).is_symmetric()
    # structured kinds answer above the table cap; compositions compare tables
    big = 2 * pm.MAX_TABLE_SIDE
    for g in (Identity(big), Transpose(big), PartialTranspose(2, big // 2),
              PartialTranspose(big // 2, 2, Side.LEFT), pm.InducedDiagonal(range(big, 0, -1))):
        assert g.is_symmetric()
    with pytest.raises(ResourceLimitError):
        pm.compose(Identity(big), Transpose(big)).is_symmetric()


def test_symmetric_diagonal_characterization():
    # sigma(a, b) = (c, c) iff a = b, exhaustively for symmetric permutations
    rng = np.random.default_rng(4)
    perms = [PartialTranspose(3, 4), PartialTranspose(4, 3, Side.LEFT),
             pm.random_symmetric_table(12, rng)]
    for sigma in perms:
        for a in range(1, 13):
            for b in range(1, 13):
                u, v = sigma(a, b)
                assert (u == v) == (a == b)


def test_count_agreements_examples():
    assert pm.count_agreements(PartialTranspose(4, 1), PartialTranspose(1, 4)) == 4
    g22 = PartialTranspose(2, 2)
    assert pm.count_agreements(g22, g22) == 16
    assert pm.count_agreements(PartialTranspose(6, 2), PartialTranspose(4, 3)) == 40
    with pytest.raises(ValueError):
        pm.count_agreements(Identity(4), Identity(5))


def test_count_fixed_points_matches_agreements():
    rng = np.random.default_rng(9)
    for M in (4, 6, 8):
        s = pm.random_symmetric_table(M, rng)
        t = pm.random_symmetric_table(M, rng)
        comp = pm.compose(pm.invert(s), t)
        assert pm.count_fixed_points(comp) == pm.count_agreements(s, t)
    # partial transposes: the composition compares M x M tables, the
    # agreement count works on the pair's digit levels
    for M in (16, 64):
        for s, t in ((PartialTranspose(M // 2, 2), PartialTranspose(2, M // 2)),
                     (PartialTranspose(4, M // 4), PartialTranspose(M // 8, 8, Side.LEFT))):
            comp = pm.compose(pm.invert(s), t)
            assert pm.count_fixed_points(comp) == pm.count_agreements(s, t)
    assert pm.count_fixed_points(Identity(5)) == 25
    assert pm.count_fixed_points(Transpose(5)) == 5


def test_count_joint_examples_and_paths():
    assert pm.count_joint(PartialTranspose(4, 1), PartialTranspose(1, 4)) == 4
    s, t = PartialTranspose(6, 2), PartialTranspose(4, 3)
    assert pm.count_joint(s, t) == 40 == pm.count_agreements(s, t)
    for sigma in (Identity(7), PartialTranspose(3, 4)):
        assert pm.count_joint(sigma, sigma) == sigma.M**2
    # the matched-rows count against the direct M^3 cube of encoded images
    rng = np.random.default_rng(5)
    for M in (3, 6, 12):
        a = pm.random_symmetric_table(M, rng)
        b = pm.random_symmetric_table(M, rng)
        ea, eb = pm._encode(*a.image_arrays(), M), pm._encode(*b.image_arrays(), M)
        assert pm.count_joint(a, b) == np.count_nonzero(ea[:, :, None] == eb[:, None, :])


def test_digit_levels():
    # G(2,4), LG(4,2) and T at M = 8: sizes 1 | 2 | 4 | 8, three binary levels
    assert pm.digit_levels((PartialTranspose(2, 4), PartialTranspose(4, 2, Side.LEFT),
                            Transpose(8), Identity(8))) == [
        (1, 2, (True, False, True, False)),
        (2, 2, (True, True, True, False)),
        (4, 2, (False, True, True, False)),
    ]
    assert pm.digit_levels((Identity(1),)) == []
    # 2 and 3 are incomparable: one mixed level of radix lcm / gcd = 6 holds
    # the letters reduced to [6], and the level above it keeps
    assert pm.digit_levels((PartialTranspose(6, 2), PartialTranspose(4, 3))) == [
        pm.MixedLevel(1, 6, (PartialTranspose(3, 2), PartialTranspose(2, 3))),
        (6, 2, (False, False)),
    ]
    # sizes 4 and 6 with gcd 2: a keep/swap level below the mixed level; a
    # letter whose size bounds the mixed level acts there as I or T
    assert pm.digit_levels((PartialTranspose(3, 4), PartialTranspose(2, 6, Side.LEFT),
                            PartialTranspose(6, 2), PartialTranspose(6, 2, Side.LEFT))) == [
        (1, 2, (True, False, True, False)),
        pm.MixedLevel(2, 6, (PartialTranspose(3, 2), PartialTranspose(2, 3, Side.LEFT),
                             Identity(6), Transpose(6))),
    ]
    # sizes {2, 3} and {12, 18} at M = 72: boundaries 1, 6, 36 and 72, two
    # mixed levels of radix 6 and a keep/swap level above them
    assert pm.digit_levels((PartialTranspose(36, 2), PartialTranspose(24, 3, Side.LEFT),
                            PartialTranspose(6, 12), PartialTranspose(4, 18))) == [
        pm.MixedLevel(1, 6, (PartialTranspose(3, 2), PartialTranspose(2, 3, Side.LEFT),
                             Transpose(6), Transpose(6))),
        pm.MixedLevel(6, 6, (Identity(6), Transpose(6), PartialTranspose(3, 2),
                             PartialTranspose(2, 3))),
        (36, 2, (False, True, False, False)),
    ]
    # other kinds of letter: one mixed level of radix M with the letters as given
    diag = pm.InducedDiagonal([2, 3, 1])
    assert pm.digit_levels((Identity(3), diag)) == [pm.MixedLevel(1, 3, (Identity(3), diag))]


def chain_alphabet(M):
    return [Identity(M), Transpose(M)] + divisor_transposes(M) + \
        divisor_transposes(M, Side.LEFT)


PROJECTION_VARIANTS = [(pattern, lp, rp) for pattern in ("share_first", "share_middle",
                                                           "share_second_slot")
                       for lp in ("first", "second") for rp in ("first", "second")]


def test_chain_pair_closed_forms_match_enumeration():
    # on divisor-chain pairs every statistic is counted on the digit levels;
    # each must equal its table enumeration, over all ordered chain pairs
    checked = 0
    for M in (8, 12, 16, 24, 80):
        for s, t in itertools.product(chain_alphabet(M), repeat=2):
            if any(isinstance(level, pm.MixedLevel) for level in pm.digit_levels((s, t))):
                continue
            c = pm.count_agreements(s, t)
            assert c == pm.count_joint(s, t) == pm._count_agreements_table(s, t)
            for pattern in ("share_first", "share_middle", "share_second_slot"):
                assert pm.count_image_triples(s, t, pattern) == pm._count_matched_rows(
                    *pm._triple_value_tables(s, t, pattern, "both", "both")), (s, t, pattern)
            for pattern, lp, rp in PROJECTION_VARIANTS:
                assert pm.count_projection_agreement(s, t, lp, rp, pattern) == \
                    pm._count_matched_rows(*pm._triple_value_tables(s, t, pattern, lp, rp)), \
                    (s, t, pattern, lp, rp)
            checked += 1
    assert checked == 692 + 404


def brute_matched_rows(VL, VR):
    return sum(1 for s in range(VL.shape[0]) for f in range(VL.shape[1])
               for g in range(VR.shape[1]) if VL[s, f] == VR[s, g])


@st.composite
def value_tables(draw):
    """Two tables with one row per shared index: raw small integers, or the
    projected or encoded ("both") image tables of two random permutations."""
    rows = draw(st.integers(1, 5))
    if draw(st.booleans()):
        vals = st.integers(-3, 3)
        VL = np.array(draw(st.lists(st.lists(vals, min_size=4, max_size=4),
                                    min_size=rows, max_size=rows)), dtype=np.int64)
        VR = np.array(draw(st.lists(st.lists(vals, min_size=3, max_size=3),
                                    min_size=rows, max_size=rows)), dtype=np.int64)
        return VL, VR
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a, b = pm.random_symmetric_table(rows, rng), pm.random_symmetric_table(rows, rng)
    pattern = draw(st.sampled_from(["share_first", "share_middle", "share_second_slot"]))
    lp, rp = draw(st.sampled_from([("both", "both")] + [v[1:] for v in PROJECTION_VARIANTS]))
    return pm._triple_value_tables(a, b, pattern, lp, rp)


@settings(max_examples=200, deadline=None)
@given(value_tables())
def test_matched_rows_equals_triple_loop(tables):
    assert pm._count_matched_rows(*tables) == brute_matched_rows(*tables)


def test_statistics_validate_on_chain_pairs():
    s, t = PartialTranspose(2, 2), PartialTranspose(2, 2, Side.LEFT)
    assert not any(isinstance(level, pm.MixedLevel) for level in pm.digit_levels((s, t)))
    for fn in (pm.count_agreements, pm.count_joint,
               lambda a, b: pm.count_image_triples(a, b, "share_first"),
               lambda a, b: pm.count_projection_agreement(a, b, "first", "first",
                                                          "share_first")):
        with pytest.raises(ValueError):
            fn(s, Identity(8))
    with pytest.raises(ValueError):
        pm.count_image_triples(s, t, "bogus")
    for lp, rp, pattern in (("both", "first", "share_middle"), ("first", "both", "share_first"),
                            ("first", "third", "share_first"), ("first", "first", "bogus")):
        with pytest.raises(ValueError):
            pm.count_projection_agreement(s, t, lp, rp, pattern)


def test_chain_statistics_build_no_table():
    I = Identity(2**20)
    assert pm.count_projection_agreement(I, I, "second", "first", "share_middle") == 2**60
    s, t = PartialTranspose(4096, 2), PartialTranspose(2, 4096, Side.LEFT)
    M = 8192
    assert pm.count_agreements(s, t) == pm.count_joint(s, t) == M * M // 4
    assert not hasattr(s, "_image_cache") and not hasattr(t, "_image_cache")


def test_non_chain_triple_tables_are_refused_above_the_cap():
    # lcm(2, 2049) / gcd(2, 2049) = M, so the pair's one mixed level
    # compares M x M tables
    s, t = PartialTranspose(2049, 2), PartialTranspose(2, 2049)
    assert pm.digit_levels((s, t)) == [pm.MixedLevel(1, 4098, (s, t))]
    with pytest.raises(ResourceLimitError):
        pm.count_image_triples(s, t, "share_middle")
    with pytest.raises(ResourceLimitError):
        pm.count_projection_agreement(s, t, "second", "first", "share_middle")
    with pytest.raises(ResourceLimitError):
        pm.count_joint(s, t)


#: incomparable block sizes: every pair of their partial transposes has a mixed level
INCOMPARABLE_SIZES = ((2, 3), (3, 4), (4, 6))


def test_non_chain_statistics_match_tables():
    # each statistic of a pair with a mixed level against the tables of the
    # full pair, at M = L..4L (L = lcm of the two sizes)
    checked = 0
    for d1, d2 in INCOMPARABLE_SIZES:
        L = math.lcm(d1, d2)
        for M in (L, 2 * L, 3 * L, 4 * L):
            letters = [PartialTranspose(M // d, d, side) for d in (d1, d2) for side in Side]
            for s, t in itertools.product(letters, repeat=2):
                if s.d == t.d:
                    continue
                assert any(isinstance(level, pm.MixedLevel) for level in pm.digit_levels((s, t)))
                assert pm.count_agreements(s, t) == pm._count_agreements_table(s, t)
                for pattern in ("share_first", "share_middle", "share_second_slot"):
                    assert pm.count_image_triples(s, t, pattern) == pm._count_matched_rows(
                        *pm._triple_value_tables(s, t, pattern, "both", "both")), \
                        (s, t, pattern)
                for pattern, lp, rp in PROJECTION_VARIANTS:
                    assert pm.count_projection_agreement(s, t, lp, rp, pattern) == \
                        pm._count_matched_rows(*pm._triple_value_tables(s, t, pattern, lp, rp)), \
                        (s, t, pattern, lp, rp)
                checked += 1
    assert checked == 3 * 4 * 8


def test_non_chain_statistics_build_no_full_table():
    # sizes 2 and 3 at M = 6144: the mixed level has radix 6, so the
    # statistics compare 6 x 6 tables, far below the table cap.  On the top
    # level, of radix k, G keeps and LG swaps: c gains one free orbit, i = j,
    # and the share_middle (first, second) count two, i = l and j
    s, t = PartialTranspose(3072, 2), PartialTranspose(2048, 3, Side.LEFT)
    k = 6144 // 6
    small_s, small_t = PartialTranspose(3, 2), PartialTranspose(2, 3, Side.LEFT)
    assert pm.count_agreements(s, t) == k * pm.count_agreements(small_s, small_t)
    assert pm.count_projection_agreement(s, t, "first", "second", "share_middle") == \
        k**2 * pm.count_projection_agreement(small_s, small_t, "first", "second",
                                             "share_middle")
    assert not hasattr(s, "_image_cache") and not hasattr(t, "_image_cache")


def test_projection_counts():
    # identity vs identity, share_middle: (2nd, 1st) compares j with j -> all
    # M^3 triples; (1st, 2nd) compares i with l -> M^2 triples
    I6 = Identity(6)
    assert pm.count_projection_agreement(I6, I6, "second", "first", "share_middle") == 6**3
    assert pm.count_projection_agreement(I6, I6, "first", "second", "share_middle") == 6**2
    # bound M^3/d for the shared-second-slot pattern of a transpose with itself
    for M in (4, 6, 12):
        for g in divisor_transposes(M):
            n = pm.count_projection_agreement(g, g, "second", "second", "share_second_slot")
            assert n <= M**3 // g.d
    # mixed example: G(6,2) vs LG(4,3)
    s = PartialTranspose(6, 2)
    t = PartialTranspose(4, 3, Side.LEFT)
    n = pm.count_projection_agreement(s, t, "first", "first", "share_second_slot")
    assert n <= min(12**3 // 3, 12**3 // 6) == 288
    with pytest.raises(ValueError):
        pm.count_projection_agreement(s, t, "both", "first", "share_middle")
    with pytest.raises(ValueError):
        pm.count_projection_agreement(s, t, "first", "first", "bogus")


def test_count_image_triples_matches_count_joint():
    rng = np.random.default_rng(6)
    for M in (4, 6, 80):  # 80 takes count_joint's matched-rows path
        a = pm.random_symmetric_table(M, rng)
        b = pm.random_symmetric_table(M, rng)
        assert pm.count_image_triples(a, b, "share_first") == pm.count_joint(a, b)


def test_projection_count_bounds():
    for M in (4, 6, 8, 12):
        gammas = divisor_transposes(M)
        for p in gammas:
            for q in gammas:
                n2 = pm.count_projection_agreement(p, q, "second", "second",
                                                   "share_second_slot")
                n1 = pm.count_projection_agreement(p, q, "first", "first",
                                                   "share_second_slot")
                assert n2 <= M**3 // q.d
                assert n1 <= M**3 // q.b


def test_agreement_sandwich_small():
    for M in (4, 6, 8, 12):
        gammas = divisor_transposes(M)
        for p in gammas:
            for q in gammas:
                if p.d > q.d:
                    continue
                lcm = pm.gamma_lcm_data(p.d, q.d)
                c = pm.count_agreements(p, q)
                assert c == pm.count_joint(p, q)
                assert M * M // lcm.L**2 <= c <= M * M // lcm.L


def test_right_left_triple_bounds_small():
    for M in (12, 16):
        gammas = divisor_transposes(M)
        for p in gammas:
            for q in gammas:
                lq = PartialTranspose(q.b, q.d, Side.LEFT)
                n = pm.count_image_triples(p, lq, "share_second_slot")
                if p.d >= q.d:
                    assert n <= min(M * M // p.b, M * M // q.d)
                if q.d >= p.d:
                    assert n <= min(M * M // p.d, M * M // q.b)
                if p.d <= q.d:
                    c = pm.count_agreements(p, lq)
                    for e in range(1, q.d // p.d + 1):
                        if q.d <= 2 * p.d * e and p.d * e <= q.d:
                            assert c >= p.d * e * e


def test_composition_law_on_matrices():
    rng = np.random.default_rng(7)
    for M in (5, 12, 16):
        A = rng.normal(size=(M, M)) + 1j * rng.normal(size=(M, M))
        perms = [Transpose(M), pm.random_symmetric_table(M, rng)]
        if M % 4 == 0:
            perms.append(PartialTranspose(M // 4, 4))
        for sigma in perms:
            for tau in perms:
                lhs = pm.apply(tau, pm.apply(sigma, A))
                rhs = pm.apply(pm.compose(sigma, tau), A)
                assert np.array_equal(lhs, rhs)


def test_apply_preserves_self_adjointness_and_trace():
    rng = np.random.default_rng(8)
    M = 12
    B = rng.normal(size=(M, M)) + 1j * rng.normal(size=(M, M))
    A = B + B.conj().T
    for sigma in divisor_transposes(M) + [pm.random_symmetric_table(M, rng)]:
        out = pm.apply(sigma, A)
        assert np.allclose(out, out.conj().T)
        assert np.isclose(np.trace(out), np.trace(A))


def test_gamma_lcm_data():
    assert pm.gamma_lcm_data(2, 3) == pm.LcmData(6, 3, 2)
    assert pm.gamma_lcm_data(4, 4) == pm.LcmData(4, 1, 1)
    assert pm.gamma_lcm_data(1, 9) == pm.LcmData(9, 9, 1)
    assert pm.gamma_lcm_data(9, 1) == pm.LcmData(9, 9, 1)
    assert pm.gamma_lcm_data(6, 4) == pm.gamma_lcm_data(4, 6) == pm.LcmData(12, 3, 2)
    with pytest.raises(ValueError):
        pm.gamma_lcm_data(0, 3)


def test_table_validation_and_caps():
    with pytest.raises(ValueError):
        pm.TablePermutation(np.ones((3, 3), dtype=int), np.ones((3, 3), dtype=int))
    with pytest.raises(ValueError):
        pm.InducedDiagonal([1, 1, 2])
    with pytest.raises(ResourceLimitError):
        Identity(5000).image_arrays()


def test_structural_equality_and_hash():
    assert PartialTranspose(2, 3) == PartialTranspose(2, 3)
    assert PartialTranspose(2, 3) != PartialTranspose(3, 2)
    assert hash(Identity(4)) == hash(Identity(4))
    # structural inequality despite extensional equality
    assert PartialTranspose(4, 1) != Identity(4)
    assert pm.extensionally_equal(PartialTranspose(4, 1), Identity(4))


def test_orbit_labels_match_union_find():
    # many random graphs at once, plus a path numbered against its order,
    # which needs the most hooking rounds; each node is labelled by the
    # least node of its component
    from ptlab.partitions import _UnionFind
    rng = np.random.default_rng(9)
    cases = [(n, rng.integers(0, n, (25, e)), rng.integers(0, n, (25, e)))
             for n in (1, 2, 5, 9, 16) for e in (0, 1, 3, 8, 20)]
    path = np.arange(15, 0, -1)
    cases.append((16, path[None, :], path[None, :] - 1))
    for n, u, v in cases:
        labels = pm.orbit_labels(n, u, v)
        assert labels.shape == (u.shape[0], n)
        for g in range(u.shape[0]):
            uf = _UnionFind(n)
            for a, b in zip(u[g].tolist(), v[g].tolist()):
                uf.union(a, b)
            least = {}
            for x in range(n):
                least.setdefault(uf.find(x), x)
            assert labels[g].tolist() == [least[uf.find(x)] for x in range(n)]

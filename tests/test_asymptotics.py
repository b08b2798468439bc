from fractions import Fraction

import pytest

from ptlab import asymptotics as ay
from ptlab import perms as pm
from ptlab import wick as wk
from ptlab.asymptotics import INF, ShapeFamily
from ptlab.perms import MatrixShape, PartialTranspose, Side


def fam(side, bl, dl, samples, label=""):
    return ShapeFamily(side, bl, dl, tuple(samples), label)


GRID = (2, 4, 8, 16)
GNN = fam(Side.RIGHT, INF, INF, [(N, N, N * N) for N in GRID], "G(N,N)")
GN21 = fam(Side.RIGHT, INF, 1, [(N * N, 1, N * N) for N in GRID], "G(N^2,1)")
LGNN = fam(Side.LEFT, INF, INF, [(N, N, N * N) for N in GRID], "LG(N,N)")


def test_limit_cumulant_examples():
    assert ay.limit_cumulant_gamma(3, 2, INF, Fraction(1)) == Fraction(1, 4)
    assert ay.limit_cumulant_gamma(4, 2, 3, Fraction(1)) == Fraction(13, 36)
    assert ay.limit_cumulant_gamma(3, INF, INF, Fraction(1)) == 0
    for m in (1, 2):
        assert ay.limit_cumulant_gamma(m, 5, 7, Fraction(2, 3)) == Fraction(2, 3)
    # odd/even closed forms
    assert ay.limit_cumulant_gamma(5, 2, 3, Fraction(1)) == \
        Fraction(1, 3**4) + Fraction(1, 2**4)
    assert ay.limit_cumulant_gamma(6, 2, 3, Fraction(1)) == \
        Fraction(1, 3**4) + Fraction(1, 2**4)
    with pytest.raises(ValueError):
        ay.limit_cumulant_gamma(0, 2, 2, Fraction(1))
    with pytest.raises(ValueError):
        ay.limit_cumulant_gamma(3, -1, 2, Fraction(1))


def test_limit_cumulant_b_d_symmetry():
    for m in range(1, 10):
        assert ay.limit_cumulant_gamma(m, 2, 6, Fraction(1, 2)) == \
            ay.limit_cumulant_gamma(m, 6, 2, Fraction(1, 2))


def test_limit_moments():
    # shifted semicircle: kappa_1 = kappa_2 = 1, higher vanish
    assert ay.limit_moments_gamma(4, INF, INF, Fraction(1)) == [1, 2, 4, 9]
    # b = 1, d -> inf is the transpose family: free Poisson, Catalan moments
    assert ay.limit_moments_gamma(4, 1, INF, Fraction(1)) == [1, 2, 5, 14]
    # general free Poisson moment sum over NC(k) of c^blocks at b = 1
    c = Fraction(2, 3)
    got = ay.limit_moments_gamma(3, 1, INF, c)
    assert got == [c, c + c * c, c + 3 * c * c + c**3]


def test_family_validation():
    with pytest.raises(ValueError):
        fam(Side.RIGHT, INF, INF, [(2, 2, 5)])  # b*d != M
    with pytest.raises(ValueError):
        fam(Side.RIGHT, 2, INF, [(4, 2, 8), (8, 2, 16)])  # b-limit finite but b grows
    with pytest.raises(ValueError):
        fam(Side.RIGHT, INF, INF, [(4, 4, 16), (2, 8, 16)])  # b decreasing toward inf
    with pytest.raises(ValueError):
        ShapeFamily(Side.RIGHT, INF, INF, ())
    with pytest.raises(ValueError):
        fam(Side.RIGHT, 0, INF, [(1, 2, 2)])


def test_verdict_right_right():
    v = ay.verdict_pair(GNN, GN21)
    assert v.free and v.rule == "W1"
    v = ay.verdict_pair(GNN, GNN)
    assert not v.free and v.witness["L_trend"] == [1, 1, 1, 1]
    # finite-finite: L is a number
    G2 = fam(Side.RIGHT, INF, 2, [(N * N // 2, 2, N * N) for N in GRID])
    v = ay.verdict_pair(G2, G2)
    assert not v.free and v.witness["L_limit"] == 1
    G4 = fam(Side.RIGHT, INF, 4, [(N * N // 4, 4, N * N) for N in GRID])
    v = ay.verdict_pair(G2, G4)
    assert not v.free and v.witness["L_limit"] == 2
    # symmetry of the pair verdict
    assert ay.verdict_pair(GN21, GNN).free == ay.verdict_pair(GNN, GN21).free


def test_verdict_left_right_and_left_left():
    v = ay.verdict_pair(GNN, LGNN)
    assert v.free and v.rule == "LTR"
    assert ay.verdict_pair(LGNN, GNN).free
    # right vs left with one cross product bounded: not free
    # (right d = 2 and left b = 2 give d_right * b_left = 4)
    G_d2 = fam(Side.RIGHT, INF, 2, [(N * N // 2, 2, N * N) for N in GRID])
    LG_b2 = fam(Side.LEFT, 2, INF, [(2, N * N // 2, N * N) for N in GRID])
    v = ay.verdict_pair(G_d2, LG_b2)
    assert not v.free and v.rule == "LTR"
    assert v.witness["d_right*b_left"] == 4
    # left-left reduces to W1 via the global transpose
    LG2 = fam(Side.LEFT, INF, 2, [(N * N // 2, 2, N * N) for N in GRID])
    v = ay.verdict_pair(LG2, LG2)
    assert not v.free and v.rule == "W1" and v.witness["via"] == "global transpose"
    v = ay.verdict_pair(LGNN, fam(Side.LEFT, INF, 1, [(N * N, 1, N * N) for N in GRID]))
    assert v.free and v.rule == "W1"


def test_verdict_weak_corroboration_warning():
    # both d-limits infinite, lcm trend grows (3 -> 4) but by less than 2x
    f = fam(Side.RIGHT, INF, INF, [(6, 4, 24), (8, 6, 48)])
    g = fam(Side.RIGHT, INF, INF, [(4, 6, 24), (6, 8, 48)])
    v = ay.verdict_pair(f, g)
    assert v.free and v.warning and "weak" in v.warning
    assert v.witness["L_trend"] == [3, 4]


def test_w1_one_point_grid():
    # two d-limits infinite: only the sampled lcm trend decides, and one
    # grid value gives no trend
    G1N2 = fam(Side.RIGHT, 1, INF, [(1, 16, 16)], "G(1,N^2)")
    GNN4 = fam(Side.RIGHT, INF, INF, [(4, 4, 16)], "G(N,N)")
    with pytest.raises(ValueError, match=r"G\(N,N\) and G\(1,N\^2\)"):
        ay.verdict_pair(GNN4, G1N2)
    LG1N2 = fam(Side.LEFT, 1, INF, [(1, 16, 16)], "LG(1,N^2)")
    LGNN4 = fam(Side.LEFT, INF, INF, [(4, 4, 16)], "LG(N,N)")
    with pytest.raises(ValueError, match="at least two grid values"):
        ay.verdict_pair(LGNN4, LG1N2)
    # the declared limits decide the rest on one grid value
    v = ay.verdict_pair(GNN4, fam(Side.RIGHT, INF, 1, [(16, 1, 16)]))
    assert v.free and v.rule == "W1" and v.witness["L_trend"] == [4]
    v = ay.verdict_pair(fam(Side.RIGHT, INF, 2, [(8, 2, 16)]),
                        fam(Side.RIGHT, INF, 4, [(4, 4, 16)]))
    assert not v.free and v.witness["L_limit"] == 2
    v = ay.verdict_pair(GNN4, LGNN4)
    assert v.free and v.rule == "LTR"
    v = ay.verdict_pair(G1N2, fam(Side.LEFT, INF, 1, [(16, 1, 16)]))
    assert not v.free and v.rule == "LTR"


def test_verdict_family_scenarios():
    ks = (1, 2, 3, 4)
    # growing-b ladder: all pairs free (Cor 4.10 scenario)
    f1 = fam(Side.RIGHT, 4, INF, [(4, 4**k, 4 ** (k + 1)) for k in ks])
    f2 = fam(Side.RIGHT, INF, INF, [(2 ** (k + 1), 2 ** (k + 1), 4 ** (k + 1)) for k in ks])
    f3 = fam(Side.RIGHT, INF, 4, [(4**k, 4, 4 ** (k + 1)) for k in ks])
    matrix, overall = ay.verdict_family([f1, f2, f3])
    assert overall and all(v.free for v in matrix.values())
    # b1 finite, d3 finite, middle family square (Cor 4.11 scenario): free triple
    # (f1: b = 4 fixed; f2: b = d = 2^(k+1); f3: d = 4 fixed)
    # identical families: overall not free
    matrix, overall = ay.verdict_family([GNN, GNN, GN21])
    assert not overall
    assert not matrix[(0, 1)].free and matrix[(0, 2)].free
    with pytest.raises(ValueError):
        ay.verdict_family([GNN])
    with pytest.raises(ValueError):
        ay.verdict_pair(GNN, fam(Side.RIGHT, INF, INF, [(2, 2, 4)]))


def test_density_probe():
    G21 = fam(Side.RIGHT, INF, 2, [(N * N // 2, 2, N * N) for N in GRID])
    G12 = fam(Side.RIGHT, 2, INF, [(2, N * N // 2, N * N) for N in GRID])
    probe = ay.empirical_density_probe(G21, G12)
    assert probe["nonincreasing"]
    assert probe["densities"][-1] < probe["densities"][0]
    # identical families have density 1 everywhere
    probe = ay.empirical_density_probe(GNN, GNN)
    assert all(x == 1 for x in probe["densities"])
    # identity vs transpose: diagonal density 1/M
    GM1 = fam(Side.RIGHT, INF, 1, [(N * N, 1, N * N) for N in GRID])
    G1M = fam(Side.RIGHT, 1, INF, [(1, N * N, N * N) for N in GRID])
    probe = ay.empirical_density_probe(GM1, G1M)
    assert probe["densities"] == [Fraction(1, N * N) for N in GRID]


def test_verdict_consistency_with_exact_kappa2():
    # free verdict -> exact kappa_2 decreases along the grid and obeys the
    # lcm upper bound; non-free -> bounded below by (P/M)/L^2
    ks = []
    for M in (8, 16, 32, 64):
        s = PartialTranspose(M // 2, 2)
        t = PartialTranspose(2, M // 2)
        k2 = wk.exact_mixed_cumulant(wk.WickWord(MatrixShape(M, M), (s, t)))
        L = pm.gamma_lcm_data(2, M // 2).L
        assert k2 <= Fraction(1, L)
        ks.append(k2)
    assert all(y < x for x, y in zip(ks, ks[1:]))
    for M in (8, 16):
        t = PartialTranspose(2, M // 2)
        k2 = wk.exact_mixed_cumulant(wk.WickWord(MatrixShape(M, M), (t, t)))
        assert k2 >= 1  # L = 1 for the identical pair
    # a non-free pair with bounded L > 1: kappa_2 >= (P/M)/L^2 uniformly
    for M in (8, 16, 32):
        s = PartialTranspose(M // 2, 2)
        t = PartialTranspose(M // 4, 4)
        v = ay.verdict_pair(
            fam(Side.RIGHT, INF, 2, [(M // 2, 2, M)]),
            fam(Side.RIGHT, INF, 4, [(M // 4, 4, M)]))
        assert not v.free and v.witness["L_limit"] == 2
        k2 = wk.exact_mixed_cumulant(wk.WickWord(MatrixShape(M, M), (s, t)))
        assert k2 >= Fraction(1, 4)


def test_finite_cumulants_converge_to_limit():
    for m in (3, 4):
        for b in (2, 3):
            lim = ay.limit_cumulant_gamma(m, b, INF, Fraction(1))
            gaps = []
            for k in range(4):
                d = 2 * 2**k
                M = b * d
                w = wk.WickWord(MatrixShape(M, M), (PartialTranspose(b, d),) * m)
                gaps.append(abs(wk.exact_mixed_cumulant(w) - lim))
            assert all(y < x for x, y in zip(gaps, gaps[1:]))
            assert gaps[-1] < lim / 10

import math

import numpy as np
import pytest

from ptlab import montecarlo as mc
from ptlab import wick as wk
from ptlab.montecarlo import SamplerConfig
from ptlab.perms import Identity, MatrixShape, PartialTranspose, Side, Transpose


def word(M, P, *perms):
    return wk.WickWord(MatrixShape(M, P), perms)


def test_config_validation():
    with pytest.raises(ValueError):
        SamplerConfig(MatrixShape(4, 4), samples=0, seed=1)


def test_polar_normals_moments():
    gen = mc._substream(123, 0)
    vals = mc.polar_normals(gen, 200000)
    assert abs(vals.mean()) < 0.01
    assert abs(vals.var() - 1.0) < 0.02


def test_entry_normalization():
    # E |g_11|^2 = 1/M within 5 standard errors
    M, P, n = 8, 8, 20000
    shape = MatrixShape(M, P)
    vals = [abs(mc.sample_ginibre(shape, mc._substream(42, k))[0, 0]) ** 2
            for k in range(n)]
    mean, se = mc._fsum_mean_se(vals)
    assert abs(mean - 1 / M) <= 5 * se


def test_wishart_draws_selfadjoint_psd():
    for W in mc.sample_wishart(SamplerConfig(MatrixShape(6, 4), 25, 3)):
        assert np.allclose(W, W.conj().T)
        assert np.linalg.eigvalsh(W).min() > -1e-12
        assert abs(np.trace(W).imag) < 1e-12


def test_bit_reproducibility():
    shape = MatrixShape(8, 8)
    w = word(8, 8, PartialTranspose(2, 4), PartialTranspose(4, 2))
    a = mc.mc_mixed_moment(w, SamplerConfig(shape, 400, 7))
    b = mc.mc_mixed_moment(w, SamplerConfig(shape, 400, 7))
    assert a == b
    d = mc.mc_mixed_moment(w, SamplerConfig(shape, 400, 8))
    assert d.mean != a.mean


def test_per_draw_trace_invariance_for_symmetric_sigma():
    # tr(W^sigma) = tr(W) exactly per draw at word length 1
    shape = MatrixShape(8, 8)
    cfg = SamplerConfig(shape, 100, 11)
    stats = mc._statistics_per_sample(
        [word(8, 8, Identity(8)), word(8, 8, PartialTranspose(2, 4)),
         word(8, 8, Transpose(8))], cfg)
    assert np.array_equal(stats[0], stats[1])
    assert np.array_equal(stats[0], stats[2])


def test_mc_matches_exact_oracle():
    shape = MatrixShape(8, 8)
    cfg = SamplerConfig(shape, 20000, 42)
    words = [word(8, 8, Identity(8)),
             word(8, 8, PartialTranspose(2, 4), PartialTranspose(4, 2)),
             word(8, 8, *(PartialTranspose(2, 4),) * 3)]
    for w, rep in zip(words, mc.mc_mixed_moments(words, cfg)):
        exact = float(wk.exact_mixed_moment(w).total)
        assert abs(rep.mean - exact) <= 5 * rep.std_error


def test_mc_covariance():
    shape = MatrixShape(8, 8)
    w = word(8, 8, Identity(8))
    rep = mc.mc_covariance(w, w, SamplerConfig(shape, 20000, 5))
    exact = float(wk.exact_trace_covariance(w, w))
    assert abs(rep.mean - exact) <= 5 * rep.std_error
    with pytest.raises(ValueError):
        mc.mc_covariance(w, w, SamplerConfig(shape, 1, 5))
    with pytest.raises(ValueError):
        mc.mc_covariance(w, word(6, 6, Identity(6)), SamplerConfig(shape, 10, 5))


def test_sample_covariance_constant_is_zero():
    cov, se = mc.sample_covariance([1.5, -2.0, 3.25, 0.5], [7.0] * 4)
    assert cov == 0.0 and se == 0.0


def test_mc_cumulant_jackknife():
    shape = MatrixShape(8, 8)
    w = word(8, 8, PartialTranspose(2, 4), PartialTranspose(4, 2))
    rep = mc.mc_mixed_cumulant(w, SamplerConfig(shape, 20000, 9))
    exact = float(wk.exact_mixed_cumulant(w))
    assert abs(rep.mean - exact) <= 5 * rep.std_error
    w3 = word(8, 8, *(PartialTranspose(2, 4),) * 3)
    rep3 = mc.mc_mixed_cumulant(w3, SamplerConfig(shape, 20000, 9))
    exact3 = float(wk.exact_mixed_cumulant(w3))
    assert abs(rep3.mean - exact3) <= 5 * rep3.std_error


def test_fit_variance_slope():
    # exact power law is recovered
    fit = mc.fit_variance_slope([8, 16, 32], [1 / 64, 1 / 256, 1 / 1024])
    assert abs(fit["slope"] + 2.0) < 1e-12
    assert not fit["degenerate"]
    assert all(abs(r) < 1e-12 for r in fit["residuals"])
    # constant statistic: zero variances -> degenerate, no fit
    fit = mc.fit_variance_slope([8, 16, 32], [0.0, 0.0, 0.0])
    assert fit["degenerate"] and math.isnan(fit["slope"])
    with pytest.raises(ValueError):
        mc.fit_variance_slope([8, 16], [1.0, 2.0])


def test_variance_probe_plain_wishart_slope():
    jobs = [(M, word(M, M, Identity(M))) for M in (8, 16, 32)]
    cfg = SamplerConfig(MatrixShape(8, 8), 2000, 42)
    fit = mc.variance_scaling_probe(jobs, cfg)
    assert -2.4 <= fit["slope"] <= -1.6
    # constant statistic through the override: degenerate
    fit = mc.variance_scaling_probe(jobs, cfg, statistic=lambda W: 1.0)
    assert fit["degenerate"]


def test_as_convergence_path():
    grid = (8, 16, 32, 64, 128)
    jobs = [(M, word(M, M, Identity(M))) for M in grid]
    cfg = SamplerConfig(MatrixShape(8, 8), 1, 100)
    p1 = mc.as_convergence_path(jobs, cfg)
    p2 = mc.as_convergence_path(jobs, cfg)
    assert p1 == p2
    # 20-seed aggregate: the worst deviation from E tr W = 1 shrinks with M
    maxdev = [0.0] * len(grid)
    for seed in range(100, 120):
        path = mc.as_convergence_path(jobs, SamplerConfig(MatrixShape(8, 8), 1, seed))
        for g, v in enumerate(path):
            maxdev[g] = max(maxdev[g], abs(v - 1.0))
    assert maxdev[-1] < maxdev[0] / 4


def test_pinned_bits():
    # float.hex of every estimator at one seed: a sampler or recursion change
    # that re-rolls a single bit fails here
    shape = MatrixShape(6, 6)
    cfg = SamplerConfig(shape, 300, 2026)
    w1 = word(6, 6, Identity(6))
    w2 = word(6, 6, PartialTranspose(3, 2), Transpose(6))
    w3 = word(6, 6, PartialTranspose(2, 3), PartialTranspose(3, 2),
              PartialTranspose(2, 3, Side.LEFT))

    def bits(rep):
        return rep.mean.hex(), rep.std_error.hex()

    assert bits(mc.mc_mixed_cumulant(w3, cfg)) == (
        "0x1.3a6916ef77feep-3", "0x1.5523d7b1a47b6p-6")
    assert bits(mc.mc_covariance(w1, w2, cfg)) == (
        "0x1.617a6d981e3a7p+1", "0x1.025386208859cp-2")
    assert [bits(r) for r in mc.mc_mixed_moments([w1, w2, w3], cfg)] == [
        ("0x1.0056585b05c52p+0", "0x1.3de49cfe796f4p-7"),
        ("0x1.59b7e7f063a4bp+0", "0x1.f5635851319fbp-6"),
        ("0x1.e2bd65f8fc4e6p+0", "0x1.389693136b9cap-4"),
    ]

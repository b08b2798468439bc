import functools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ptlab import montecarlo as mc
from ptlab import partitions as pts
from ptlab import perms as pm
from ptlab import selftest
from ptlab import wick as wk
from ptlab.montecarlo import SamplerConfig
from ptlab.perms import (Identity, MatrixShape, PartialTranspose, Side, Transpose,
                         gather_indices)


def word(M, P, *perms):
    return wk.WickWord(MatrixShape(M, P), perms)


def test_config_validation():
    with pytest.raises(ValueError):
        SamplerConfig(MatrixShape(4, 4), samples=0, seed=1)


def test_seeds_outside_the_key_range_are_refused():
    # Philox keys hold 64 bits: a seed outside [0, 2^64) would alias one inside
    for seed in (-1, 2**64, 2**64 + 7):
        with pytest.raises(ValueError, match=r"outside \[0, 2\^64\)"):
            SamplerConfig(MatrixShape(4, 4), samples=1, seed=seed)
    for seed in (0, 2**64 - 1):
        assert SamplerConfig(MatrixShape(4, 4), samples=1, seed=seed).seed == seed


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
    # two different words sharing the letter G(2,4); a word of one or two
    # self-adjoint letters has a real trace (Tr AB = Tr (AB)* conjugated =
    # Tr BA), so the covariance of the real parts is the exact covariance
    g24 = PartialTranspose(2, 4)
    w1, w2 = word(8, 8, g24, PartialTranspose(4, 2)), word(8, 8, g24, Transpose(8))
    rep = mc.mc_covariance(w1, w2, SamplerConfig(shape, 20000, 5))
    exact = float(wk.exact_trace_covariance(w1, w2))
    assert exact != 0.0
    assert abs(rep.mean - exact) <= 5 * rep.std_error
    with pytest.raises(ValueError):
        mc.mc_covariance(w, w, SamplerConfig(shape, 1, 5))
    with pytest.raises(ValueError):
        mc.mc_covariance(w, word(6, 6, Identity(6)), SamplerConfig(shape, 10, 5))


def test_letters_are_self_adjoint():
    # (W^s)* = W^s for a symmetric s and a Hermitian W, the step behind the
    # exact variance of Re Tr; W is made exactly Hermitian so the check is exact
    W = next(mc.sample_wishart(SamplerConfig(MatrixShape(8, 8), 1, 6)))
    W = (W + W.conj().T) / 2
    letters = [Identity(8), Transpose(8), PartialTranspose(2, 4), PartialTranspose(4, 2),
               PartialTranspose(2, 4, Side.LEFT), pm.random_symmetric_table(8, np.random.default_rng(6))]
    for s in letters:
        rows, cols = gather_indices(s)
        assert np.array_equal(W[rows, cols].conj().T, W[rows, cols]), s


def test_exact_standard_error_of_the_real_trace():
    # Var(Re Tr X) = (Cov(X, X) + 2 Cov(X, X*) + Cov(X*, X*)) / 4, X* the reversed
    # word, against the sample variance and the standard error of a variance
    # from the fourth central moment
    g, T, I = PartialTranspose(2, 2), Transpose(4), Identity(4)
    words = [word(4, 4, g, T, I), word(4, 4, g, T, g, I), word(4, 4, g, I)]
    n = 40000
    stats = mc._statistics_per_sample(words, SamplerConfig(MatrixShape(4, 4), n, 3))
    for w, vals in zip(words, stats):
        dev = vals - vals.mean()
        var = float(np.sum(dev**2)) / (n - 1)
        se = math.sqrt((np.mean(dev**4) - var**2 * (n - 3) / (n - 1)) / n)
        exact = float(selftest._real_trace_variance(w))
        assert abs(var - exact) <= 5 * se, (w.perms, var, exact, se)


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


def two_pass_cumulant(word, config):
    """The point estimate and the jackknife as two recursions, on the means
    and on the leave-one-out means, with the subwords a recording pass lists."""
    positions = tuple(range(1, word.m + 1))
    subwords = sorted(_recorded_subwords(word.m))
    stats = mc._statistics_per_sample([word.subword(w) for w in subwords], config) / word.shape.M
    n = config.samples
    sums = [math.fsum(row.tolist()) for row in stats]
    point = float(pts.moments_to_free_cumulants(
        {w: S / n for w, S in zip(subwords, sums)}.__getitem__, positions))
    loo = {w: (S - row) / (n - 1) for w, S, row in zip(subwords, sums, stats)}
    theta = np.asarray(pts.moments_to_free_cumulants(loo.__getitem__, positions), dtype=float)
    se = math.sqrt((n - 1) / n * float(np.sum((theta - theta.mean()) ** 2)))
    return point, se


def _recorded_subwords(m):
    subwords = []
    pts.moments_to_free_cumulants(lambda s: subwords.append(s) or 0.0, tuple(range(1, m + 1)))
    return subwords


def test_cumulant_needs_every_nonempty_subword():
    # each subset of the positions is a block of a noncrossing partition
    # (the other positions singletons), so the recursion asks for all of them
    for m in range(1, 9):
        recorded = _recorded_subwords(m)
        assert len(recorded) == len(set(recorded)) == 2**m - 1
        assert all(list(w) == sorted(set(w)) for w in recorded)


def test_cumulant_point_and_jackknife_in_one_recursion():
    # one recursion over vectors of n + 1 means gives the bits of two
    # recursions, on the means and on the leave-one-out means
    g24 = PartialTranspose(2, 4)
    cases = [(word(8, 8, g24, Transpose(8), g24, PartialTranspose(4, 2, Side.LEFT)), 150, 7),
             (word(6, 4, PartialTranspose(3, 2), Transpose(6), PartialTranspose(2, 3)), 500, 11),
             (word(4, 4, *(PartialTranspose(2, 2),) * 5), 40, 1),
             (word(8, 8, g24, PartialTranspose(4, 2)), 2, 3)]
    for w, samples, seed in cases:
        cfg = SamplerConfig(w.shape, samples, seed)
        rep = mc.mc_mixed_cumulant(w, cfg)
        assert (rep.mean, rep.std_error) == two_pass_cumulant(w, cfg), w.perms


def test_cumulant_of_one_sample_has_no_standard_error():
    w = word(8, 8, PartialTranspose(2, 4), PartialTranspose(4, 2))
    cfg = SamplerConfig(w.shape, 1, 3)
    rep = mc.mc_mixed_cumulant(w, cfg)
    (x1, x2, x12), = (mc._statistics_per_sample([w.subword(s) for s in ((1,), (2,), (1, 2))],
                                                cfg) / 8).T.tolist()
    assert rep.mean == x12 - x1 * x2 and math.isnan(rep.std_error)


def test_cumulant_over_the_nc_cap_is_refused_before_any_draw(monkeypatch):
    monkeypatch.setattr(mc, "sample_wishart", lambda config: pytest.fail("drew"))
    w = word(4, 4, *(Identity(4),) * (pts.MAX_NC_ORDER + 1))
    with pytest.raises(pm.ResourceLimitError, match="NC enumeration cap 10"):
        mc.mc_mixed_cumulant(w, SamplerConfig(w.shape, 5, 1))


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
    # a NaN or negative variance is degenerate too: no fit, no NaN slope
    # passed off as a fit
    for bad in (float("nan"), -0.5):
        fit = mc.fit_variance_slope([4, 8, 16], [1.0, bad, 0.5])
        assert fit["degenerate"] and math.isnan(fit["slope"]) and fit["residuals"] == []


def test_variance_probe_refuses_one_sample():
    # one sample has no sample variance (n - 1 = 0)
    jobs = [(M, word(M, M, Identity(M))) for M in (2, 4, 8)]
    with pytest.raises(ValueError, match="samples >= 2"):
        mc.variance_scaling_probe(jobs, SamplerConfig(MatrixShape(2, 2), 1, 0))
    fit = mc.variance_scaling_probe(jobs, SamplerConfig(MatrixShape(2, 2), 2, 0))
    assert len(fit["variances"]) == 3


def test_variance_probe_refuses_a_job_off_its_word():
    # a job's M scales its variance to Tr's and is the fit's abscissa, so it
    # must be the word's side: (64, a word at M = 32) would fit a point four
    # times too large at the wrong M
    def chain(M):
        return word(M, M, PartialTranspose(2, M // 2), PartialTranspose(M // 2, 2))

    cfg = SamplerConfig(MatrixShape(8, 8), 50, 1)
    with pytest.raises(ValueError, match="job M = 64 is not its word's M = 32"):
        mc.variance_scaling_probe([(8, chain(8)), (16, chain(16)), (64, chain(32))], cfg)
    fit = mc.variance_scaling_probe([(M, chain(M)) for M in (8, 16, 32)], cfg)
    assert fit["Ms"] == [8, 16, 32]


def test_variance_probe_plain_wishart_slope():
    jobs = [(M, word(M, M, Identity(M))) for M in (8, 16, 32)]
    cfg = SamplerConfig(MatrixShape(8, 8), 2000, 42)
    fit = mc.variance_scaling_probe(jobs, cfg)
    assert -2.4 <= fit["slope"] <= -1.6


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

    # a non-square shape over 1000 samples, which spans several sampler blocks
    cfg = SamplerConfig(MatrixShape(6, 4), 1000, 77)
    v1 = word(6, 4, Identity(6))
    v2 = word(6, 4, PartialTranspose(3, 2), PartialTranspose(2, 3, Side.LEFT))
    v3 = word(6, 4, Transpose(6), PartialTranspose(2, 3), Identity(6))
    assert [bits(r) for r in mc.mc_mixed_moments([v1, v2, v3], cfg)] == [
        ("0x1.53651fcc3a5e9p-1", "0x1.0eb5d7af65e60p-8"),
        ("0x1.3bcd157d15d36p-1", "0x1.2dce0be5d7549p-7"),
        ("0x1.9c4b033c4ad8fp-1", "0x1.532e160fed8dbp-6"),
    ]
    assert bits(mc.mc_mixed_cumulant(v3, cfg)) == (
        "0x1.5ca78b5a3db52p-4", "0x1.c2905dbca888cp-8")
    assert bits(mc.mc_covariance(v1, v2, cfg)) == (
        "0x1.2de8e2a545e08p+0", "0x1.0e0c092a2101cp-4")

    jobs = [(M, word(M, M, PartialTranspose(2, M // 2), PartialTranspose(M // 2, 2)))
            for M in (4, 8, 16)]
    fit = mc.variance_scaling_probe(jobs, SamplerConfig(MatrixShape(4, 4), 500, 5))
    assert fit["slope"].hex() == "-0x1.466625f10ce97p+1"
    assert [v.hex() for v in fit["variances"]] == [
        "0x1.01d4de433e968p+0", "0x1.62da3420170edp-3", "0x1.e122c057d8da3p-6"]


# ---------------------------------------------------------------------------
# the block sampler against the per-sample sampler it replaced
# ---------------------------------------------------------------------------

def _reference_polar(gen, n):
    # the per-sample polar loop the block sampler must reproduce bit for bit
    out = np.empty(n)
    filled = 0
    while filled < n:
        need = n - filled
        batch = max(32, int(need / 0.7) + 8)
        u = 2.0 * gen.random(batch) - 1.0
        v = 2.0 * gen.random(batch) - 1.0
        s = u * u + v * v
        ok = (s > 0.0) & (s < 1.0)
        f = np.sqrt(-2.0 * np.log(s[ok]) / s[ok])
        vals = np.column_stack((u[ok] * f, v[ok] * f)).ravel()
        take = min(vals.size, need)
        out[filled:filled + take] = vals[:take]
        filled += take
    return out


def _reference_ginibre(shape, gen):
    M, P = shape.M, shape.P
    vals = _reference_polar(gen, 2 * M * P) / math.sqrt(2 * M)
    return (vals[:M * P] + 1j * vals[M * P:]).reshape(M, P)


@pytest.mark.parametrize("M,P", [(1, 1), (3, 5), (6, 4), (12, 2), (2, 64), (64, 64)])
def test_block_path_matches_per_sample_draws(M, P):
    shape = MatrixShape(M, P)
    block = mc._block_samples(shape)
    for seed in (0, 2**64 - 1, 2**63 + 5):
        Gs = [_reference_ginibre(shape, mc._substream(seed, k)) for k in range(block + 1)]
        assert all(mc.sample_ginibre(shape, mc._substream(seed, k)).tobytes() == G.tobytes()
                   for k, G in enumerate(Gs))
        stacked = mc.sample_ginibre(shape, mc._Substreams(seed, range(block + 1)))
        assert stacked.tobytes() == np.stack(Gs).tobytes()
        Ws = [G @ G.conj().T for G in Gs]
        for samples in sorted({1, max(1, block - 1), block, block + 1}):
            draws = list(mc.sample_wishart(SamplerConfig(shape, samples, seed)))
            assert len(draws) == samples
            assert all(W.tobytes() == ref.tobytes() for W, ref in zip(draws, Ws))


def test_block_traces_match_per_sample_traces():
    shape = MatrixShape(12, 6)
    w = word(12, 6, PartialTranspose(3, 4), Transpose(12), PartialTranspose(4, 3, Side.LEFT))
    cfg = SamplerConfig(shape, mc._block_samples(shape) + 3, 31)
    expected = []
    for k in range(cfg.samples):
        G = _reference_ginibre(shape, mc._substream(cfg.seed, k))
        W = G @ G.conj().T
        prod = functools.reduce(np.matmul, [W[rows, cols] for rows, cols in
                                            map(gather_indices, w.perms)])
        expected.append(math.fsum(np.diagonal(prod).real.tolist()))
    assert mc._statistics_per_sample([w], cfg)[0].tolist() == expected


def _reference_traces(words, cfg):
    # each word on each sample's own draw, one product chain per word and draw:
    # the evaluation the shared block evaluator must reproduce bit for bit
    expected = [[] for _ in words]
    for k in range(cfg.samples):
        G = _reference_ginibre(cfg.shape, mc._substream(cfg.seed, k))
        W = G @ G.conj().T
        for row, w in zip(expected, words):
            prod = functools.reduce(np.matmul, [W[rows, cols] for rows, cols in
                                                map(gather_indices, w.perms)])
            row.append(math.fsum(np.diagonal(prod).real.tolist()))
    return expected


def _criterion5_words():
    g24, g42 = PartialTranspose(2, 4), PartialTranspose(4, 2)
    I, T = Identity(8), Transpose(8)
    return [word(8, 8, *w) for w in [
        (I,), (g24,), (g24, g42), (I, T), (g24, g24, g24), (g42, g24, I), (T, T),
        (PartialTranspose(8, 1), PartialTranspose(1, 8)), (g24, I, g24, I), (g42, g42, g42, g42)]]


def _cumulant_subwords(w):
    # the subwords mc_mixed_cumulant estimates, in its order
    return [w.subword(s) for s in sorted(_recorded_subwords(w.m))]


def _evaluator_cases():
    g24 = PartialTranspose(2, 4)
    mixed = word(8, 8, g24, Transpose(8), g24, PartialTranspose(4, 2, Side.LEFT))
    g, h = PartialTranspose(2, 32), PartialTranspose(32, 2)
    g32, l23 = PartialTranspose(3, 2), PartialTranspose(2, 3, Side.LEFT)
    return {
        # M = 8: blocks of 64 draws, the last one short
        "criterion5": (_criterion5_words(), 2 * 64 + 5, 6, 10),
        # 15 subwords: G^1 to G^4, one product chain each
        "cumulant G(2,4)^4": (_cumulant_subwords(word(8, 8, *(g24,) * 4)), 64 + 7, 1, 4),
        "cumulant mixed": (_cumulant_subwords(mixed), 64 + 7, 3, 13),
        # M = 64: blocks of one draw
        "M = 64": ([word(64, 64, g, h), word(64, 64, g), word(64, 64, Transpose(64), g, g),
                    word(64, 64, g, h)], 3, 3, 3),
        # P != M, words that share letters; at (6, 4) a word multiplied in
        # reverse order, whose Re Tr is the same number, gives other bits in
        # some draws
        "P != M": ([word(6, 4, g32, l23), word(6, 4, Transpose(6), PartialTranspose(2, 3), Identity(6)),
                    word(6, 4, l23), word(6, 4, g32, l23)],
                   mc._block_samples(MatrixShape(6, 4)) + 3, 5, 3),
    }


@pytest.mark.parametrize("case", list(_evaluator_cases()))
def test_shared_evaluator_matches_per_word_traces(case):
    words, samples, letters, distinct = _evaluator_cases()[case]
    cfg = SamplerConfig(words[0].shape, samples, 31)
    evaluator = mc._WordEvaluator(words, cfg.shape.M)
    assert (len(evaluator.gathers), len(evaluator.words)) == (letters, distinct)
    assert sorted(at for _, positions in evaluator.words for at in positions) == list(range(len(words)))
    assert mc._statistics_per_sample(words, cfg).tolist() == _reference_traces(words, cfg)


def test_blocks_are_evaluated_in_the_stack_they_were_drawn_in(monkeypatch):
    words = _criterion5_words()
    cfg = SamplerConfig(words[0].shape, 2 * 64 + 5, 13)
    stacked = []
    stack = np.stack

    def counting_stack(arrays, *args, **kwargs):
        stacked.append(len(arrays))
        return stack(arrays, *args, **kwargs)

    monkeypatch.setattr(np, "stack", counting_stack)
    expected = mc._statistics_per_sample(words, cfg)
    assert stacked == []
    # draws that are copies, not rows of one stack, are stacked, to the same bits
    draw = mc.sample_wishart
    monkeypatch.setattr(mc, "sample_wishart", lambda config: (W.copy() for W in draw(config)))
    assert mc._statistics_per_sample(words, cfg).tobytes() == expected.tobytes()
    assert stacked == [64, 64, 5]


@pytest.mark.parametrize("M,P,samples", [(8, 8, 2 * 64 + 5), (64, 64, 3), (12, 6, 1)])
def test_statistics_take_one_draw_per_sample(monkeypatch, M, P, samples):
    # each sample is one next() on sample_wishart, looked up in the module, so
    # a wrapper patched into it sees every draw
    draws = []
    draw = mc.sample_wishart

    def counting(config):
        for W in draw(config):
            draws.append(W)
            yield W

    monkeypatch.setattr(mc, "sample_wishart", counting)
    mc._statistics_per_sample([word(M, P, Identity(M)), word(M, P, Transpose(M), Identity(M))],
                              SamplerConfig(MatrixShape(M, P), samples, 4))
    assert len(draws) == samples


class _StubStream:
    """Uniforms from a fixed head, then from a real substream."""

    def __init__(self, head, seed, k):
        self.head = np.asarray(head, dtype=float)
        self.tail = mc._substream(seed, k)

    def random(self, count):
        take, self.head = self.head[:count], self.head[count:]
        return np.concatenate((take, self.tail.random(count - take.size)))


class _StubBlock(mc._Substreams):
    """A block of stub streams: row k reads heads[k], then substream (seed, k)."""

    def __init__(self, heads, seed):
        super().__init__(seed, range(len(heads)))
        self.heads = heads

    def generator(self, row):
        return _StubStream(self.heads[row], self.seed, row)

    def candidates(self, batch, cols):
        return (np.stack([h[:cols] for h in self.heads]),
                np.stack([h[batch:batch + cols] for h in self.heads]))


def _first_round(batch, accepted, late, zero, rng):
    # uniforms u then v of one round with ``accepted`` pairs inside the unit
    # disc, spread over the round or packed at its end; ``zero`` puts u = v = 0
    # (s = 0, rejected) on the first rejected candidate
    where = (np.arange(batch - accepted, batch) if late
             else rng.choice(batch, accepted, replace=False))
    hit = np.zeros(batch, dtype=bool)
    hit[where] = True
    u, v = (np.where(hit, rng.choice([0.2, 0.3, 0.45, 0.7, 0.8], batch),
                     rng.choice([0.0, 0.02, 0.97], batch)) for _ in range(2))
    if zero and accepted < batch:
        i = np.flatnonzero(~hit)[0]
        u[i] = v[i] = 0.5
    return np.concatenate((u, v))


# n = 200: a round of 293 candidates, 100 pairs needed; 150 accepted at the end
# of the round fall mostly outside the candidates the block path reads first,
# 50 accepted leave the row short of pairs for the whole round
@example(n=200, rows=[(150, True, False, 1), (293, False, True, 2), (50, True, False, 3)])
@example(n=1, rows=[(0, False, True, 4)])
@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 200),
       rows=st.lists(st.tuples(st.integers(0, 300), st.booleans(), st.booleans(),
                               st.integers(0, 2**32 - 1)), min_size=1, max_size=4))
def test_rows_short_of_pairs_match_per_sample(n, rows):
    # real streams accept about 2.3 times the pairs they need in the first
    # round, so rows short of pairs are made with stub heads
    batch = max(32, int(n / 0.7) + 8)
    heads = [_first_round(batch, min(accepted, batch), late, zero, np.random.default_rng(r))
             for accepted, late, zero, r in rows]
    expected = [_reference_polar(_StubStream(h, 9, k), n) for k, h in enumerate(heads)]
    assert mc.polar_normals(_StubBlock(heads, 9), n).tobytes() == np.stack(expected).tobytes()
    assert mc.polar_normals(_StubStream(heads[0], 9, 0), n).tobytes() == expected[0].tobytes()


def test_candidates_read_the_round_of_a_fresh_generator():
    for seed, batch, cols in ((0, 32, 32), (2**64 - 1, 37, 20), (2**63 + 5, 1170, 555), (3, 190, 135)):
        block = mc._Substreams(seed, range(5, 9))
        u, v = block.candidates(batch, cols)
        for row in range(4):
            uv = mc._substream(seed, 5 + row).random(2 * batch)
            assert u[row].tobytes() == uv[:cols].tobytes()
            assert v[row].tobytes() == uv[batch:batch + cols].tobytes()


def test_one_reader_serves_blocks_of_different_seeds():
    # a run hands its one reader to every block; blocks of two seeds read in
    # alternation through it must each read their own fresh substreams
    reader = mc._PhiloxReader()
    blocks = [mc._Substreams(seed, range(3, 6), reader) for seed in (11, 2**63 + 5)]
    for batch, cols in ((37, 20), (1170, 555), (37, 20), (190, 135)):
        for block in blocks:
            u, v = block.candidates(batch, cols)
            for row, k in enumerate(block.ks):
                uv = mc._substream(block.seed, k).random(2 * batch)
                assert u[row].tobytes() == uv[:cols].tobytes()
                assert v[row].tobytes() == uv[batch:batch + cols].tobytes()


def test_variance_standard_errors():
    # the standard error of each variance is sqrt((m4 - s^4 (n - 3)/(n - 1)) / n)
    # from the same statistics; at 2000 samples each variance lies within 5
    # standard errors of its exact value
    jobs = [(M, word(M, M, PartialTranspose(2, M // 2), PartialTranspose(M // 2, 2)))
            for M in (4, 8, 16)]
    cfg = SamplerConfig(MatrixShape(4, 4), 2000, 3)
    fit = mc.variance_scaling_probe(jobs, cfg)
    for (M, w), var, se in zip(jobs, fit["variances"], fit["variance_se"]):
        vals = mc._statistics_per_sample([w], SamplerConfig(w.shape, 2000, 3))[0] / M
        dev = vals - vals.mean()
        m4 = np.mean(dev**4)
        assert se == pytest.approx(math.sqrt((m4 - var**2 * 1997 / 1999) / 2000), rel=1e-9)
        exact = float(wk.exact_trace_covariance(w, w)) / (M * M)
        assert abs(var - exact) <= 5 * se

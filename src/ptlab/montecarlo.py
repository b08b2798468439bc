"""Seeded Monte Carlo estimation of trace statistics of permuted Wishart words.

Reproducibility contract: every sample k of a run draws its Gaussians from an
independent counter-based substream keyed by (seed, k) (Philox), so results
are bit-identical for fixed (seed, samples).  Normal variates come
from the Marsaglia polar transform applied to the substream's uniforms
(pairs (u, v) are consumed in order, accepted pairs emit x then y), and trace
reductions use error-free summation (math.fsum), so equal multisets of
diagonal entries reduce to identical floats.

Gaussian convention: G has i.i.d. complex entries with E g = 0 and
E |g|^2 = 1/M, split evenly between real and imaginary parts (variance
1/(2M) each).  W = G G*.  Statistics are real parts of traces; all expected
values here are real.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from . import partitions as pts
from .perms import EntryPermutation, MatrixShape, gather_indices
from .wick import WickWord

_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class SamplerConfig:
    shape: MatrixShape
    samples: int
    seed: int

    def __post_init__(self):
        if self.samples < 1:
            raise ValueError("samples must be >= 1")


@dataclass(frozen=True)
class EstimateReport:
    mean: float
    std_error: float
    samples: int
    seed: int


def _substream(seed: int, index: int) -> np.random.Generator:
    key = np.array([seed & _MASK64, index & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def polar_normals(gen: np.random.Generator, n: int) -> np.ndarray:
    """n standard normals via the Marsaglia polar method (vectorized).

    Candidate pairs are drawn in fixed-size batches; accepted pairs emit both
    coordinates in draw order, making the output a pure function of the
    generator's uniform stream.
    """
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


def sample_ginibre(shape: MatrixShape, gen: np.random.Generator) -> np.ndarray:
    """One M x P Ginibre draw; 2MP normals, first half real parts (row-major)."""
    M, P = shape.M, shape.P
    vals = polar_normals(gen, 2 * M * P) / math.sqrt(2 * M)
    return (vals[:M * P] + 1j * vals[M * P:]).reshape(M, P)


def sample_wishart(config: SamplerConfig):
    """Yield the W = G G* draws of the run, one per sample substream."""
    for k in range(config.samples):
        gen = _substream(config.seed, k)
        G = sample_ginibre(config.shape, gen)
        yield G @ G.conj().T


def _fsum_mean_se(vals: Sequence[float]) -> tuple[float, float]:
    n = len(vals)
    mean = math.fsum(vals) / n
    if n < 2:
        return mean, float("nan")
    var = math.fsum((v - mean) ** 2 for v in vals) / (n - 1)
    return mean, math.sqrt(var / n)


def _real_trace(A: np.ndarray) -> float:
    return math.fsum(np.ascontiguousarray(np.diagonal(A)).real.tolist())


class _WordEvaluator:
    """Precomputed gather indices for tr / Tr of a word on a shared W draw."""

    def __init__(self, perms: Iterable[EntryPermutation]):
        self.gathers = [gather_indices(p) for p in perms]

    def product(self, W: np.ndarray) -> np.ndarray:
        rows, cols = self.gathers[0]
        prod = W[rows, cols]
        for rows, cols in self.gathers[1:]:
            prod = prod @ W[rows, cols]
        return prod

    def trace(self, W: np.ndarray) -> float:
        return _real_trace(self.product(W))


def _statistics_per_sample(words: Sequence[WickWord], config: SamplerConfig) -> np.ndarray:
    """Array of shape (len(words), samples) of unnormalized trace statistics."""
    for w in words:
        if w.shape != config.shape:
            raise ValueError(f"word shape {w.shape} != sampler shape {config.shape}")
    evals = [_WordEvaluator(w.perms) for w in words]
    out = np.empty((len(words), config.samples))
    for k, W in enumerate(sample_wishart(config)):
        for widx, ev in enumerate(evals):
            out[widx, k] = ev.trace(W)
    return out


def mc_mixed_moments(words: Sequence[WickWord], config: SamplerConfig) -> list[EstimateReport]:
    """Estimates of E tr(word) for several words sharing the same draws."""
    stats = _statistics_per_sample(words, config) / config.shape.M
    reports = []
    for row in stats:
        mean, se = _fsum_mean_se(row.tolist())
        reports.append(EstimateReport(mean, se, config.samples, config.seed))
    return reports


def mc_mixed_moment(word: WickWord, config: SamplerConfig) -> EstimateReport:
    """Estimate of the normalized trace moment E tr(W^{s1} ... W^{sm})."""
    return mc_mixed_moments([word], config)[0]


def sample_covariance(xs: Sequence[float], ys: Sequence[float]) -> tuple[float, float]:
    """Bessel-corrected sample covariance and the plug-in error of its mean.

    The error is the standard error of the centered products
    (x - xbar)(y - ybar); a constant sequence on either side gives (0, 0).
    """
    n = len(xs)
    if n != len(ys) or n < 2:
        raise ValueError("covariance requires two equal series of length >= 2")
    xbar = math.fsum(xs) / n
    ybar = math.fsum(ys) / n
    prods = [(x - xbar) * (y - ybar) for x, y in zip(xs, ys)]
    cov = math.fsum(prods) / (n - 1)
    pmean = math.fsum(prods) / n
    pvar = math.fsum((p - pmean) ** 2 for p in prods) / (n - 1)
    return cov, math.sqrt(pvar / n)


def mc_covariance(word1: WickWord, word2: WickWord, config: SamplerConfig) -> EstimateReport:
    """Sample covariance of the two unnormalized trace statistics, shared draws."""
    if config.samples < 2:
        raise ValueError("covariance requires samples >= 2")
    stats = _statistics_per_sample([word1, word2], config)
    cov, se = sample_covariance(stats[0].tolist(), stats[1].tolist())
    return EstimateReport(cov, se, config.samples, config.seed)


def mc_mixed_cumulant(word: WickWord, config: SamplerConfig) -> EstimateReport:
    """Plug-in estimate of the free cumulant of the word, jackknife std error.

    All subword moments are estimated from the same draws; the cumulant is
    the NC combination of the moment means, and the error is the delete-one
    jackknife over samples.
    """
    positions = tuple(range(1, word.m + 1))
    # a first pass with a recording moment lists the subwords the recursion needs
    subwords: list[tuple[int, ...]] = []
    pts.moments_to_free_cumulants(lambda w: subwords.append(w) or 0.0, positions)
    ordered = sorted(subwords)
    words = [word.subword(w) for w in ordered]
    stats = _statistics_per_sample(words, config) / config.shape.M
    n = config.samples

    means = {w: math.fsum(stats[k].tolist()) / n for k, w in enumerate(ordered)}
    point = float(pts.moments_to_free_cumulants(means.__getitem__, positions))
    if n < 2:
        return EstimateReport(point, float("nan"), n, config.seed)

    # leave-one-out means: (S - x_i) / (n - 1), vectorized over i
    loo = {}
    for k, w in enumerate(ordered):
        S = math.fsum(stats[k].tolist())
        loo[w] = (S - stats[k]) / (n - 1)
    theta = np.asarray(pts.moments_to_free_cumulants(loo.__getitem__, positions), dtype=float)
    theta_bar = theta.mean()
    se = math.sqrt((n - 1) / n * float(np.sum((theta - theta_bar) ** 2)))
    return EstimateReport(point, se, n, config.seed)


# ---------------------------------------------------------------------------
# variance scaling probe and almost-sure convergence paths
# ---------------------------------------------------------------------------

def fit_variance_slope(Ms: Sequence[int], variances: Sequence[float]) -> dict:
    """Least-squares slope of log variance against log M.

    Returns slope, intercept, per-point residuals and a ``degenerate`` flag
    (set when any variance vanishes, in which case no fit is attempted).
    """
    if len(Ms) != len(variances) or len(Ms) < 3:
        raise ValueError("need at least 3 grid points")
    if any(v <= 0.0 for v in variances):
        return {"slope": float("nan"), "intercept": float("nan"),
                "residuals": [], "degenerate": True}
    xs = np.log(np.asarray(Ms, dtype=float))
    ys = np.log(np.asarray(variances, dtype=float))
    slope, intercept = np.polyfit(xs, ys, 1)
    residuals = (ys - (slope * xs + intercept)).tolist()
    return {"slope": float(slope), "intercept": float(intercept),
            "residuals": residuals, "degenerate": False}


def variance_scaling_probe(jobs: Sequence[tuple[int, WickWord]], config: SamplerConfig,
                           statistic: Callable[[np.ndarray], float] | None = None) -> dict:
    """Variance of the normalized trace statistic along an M grid, plus fit.

    ``jobs`` is a list of (M, word); each grid point reruns the sampler with
    the same seed and sample count at that word's shape.  ``statistic``
    overrides the per-draw statistic (signature W -> float) for testing.
    """
    if len(jobs) < 3:
        raise ValueError("need a grid of at least 3 points")
    Ms, variances, tr_variances = [], [], []
    for M, word in jobs:
        cfg = SamplerConfig(word.shape, config.samples, config.seed)
        if statistic is None:
            vals = (_statistics_per_sample([word], cfg)[0] / word.shape.M).tolist()
        else:
            vals = [statistic(W) for W in sample_wishart(cfg)]
        mean = math.fsum(vals) / len(vals)
        var = math.fsum((v - mean) ** 2 for v in vals) / (len(vals) - 1)
        Ms.append(M)
        variances.append(var)
        tr_variances.append(var * M * M)
    fit = fit_variance_slope(Ms, variances)
    fit["Ms"] = Ms
    fit["variances"] = variances
    fit["Tr_variances"] = tr_variances  # unnormalized-trace variances
    return fit


def as_convergence_path(jobs: Sequence[tuple[int, WickWord]], config: SamplerConfig) -> list[float]:
    """Single-realization path: one draw per grid point from substream (seed, g).

    Returns tr(word) along the grid for one simulated omega; rerunning with
    the same seed reproduces the path bit-exactly.
    """
    path = []
    for g, (M, word) in enumerate(jobs):
        gen = _substream(config.seed, g)
        G = sample_ginibre(word.shape, gen)
        W = G @ G.conj().T
        path.append(_WordEvaluator(word.perms).trace(W) / word.shape.M)
    return path

"""Seeded Monte Carlo estimation of trace statistics of permuted Wishart words.

Reproducibility contract: every sample k of a run draws its Gaussians from an
independent counter-based substream keyed by (seed, k) (Philox), so results
are bit-identical for fixed (seed, samples).  Normal variates come
from the Marsaglia polar transform applied to the substream's uniforms
(pairs (u, v) are consumed in order, accepted pairs emit x then y), and trace
reductions use error-free summation (math.fsum), so equal multisets of
diagonal entries reduce to identical floats.

The sampler draws, transforms, multiplies and gathers a block of samples per
numpy call (at most ``_BLOCK_ENTRIES`` matrix entries).  The blocking is not
part of the contract: every sample's draw is the one a generator of its own
substream gives, whatever block it falls in.

A polar round takes each row's candidate pairs of uniforms (u01, v01), forms
u = 2 u01 - 1, v = 2 v01 - 1 and s = u u + v v, keeps the pairs with
0 < s < 1 in draw order, and emits x = u f then y = v f with
f = sqrt(-2 log(s) / s) for as many kept pairs as the row needs.  A run of
the sampler makes one Philox reader and hands it to each block; the reader
reads any substream (seed, k) from any position by setting its state, so no
block builds a generator of its own.

Gaussian convention: G has i.i.d. complex entries with E g = 0 and
E |g|^2 = 1/M, split evenly between real and imaginary parts (variance
1/(2M) each).  W = G G*.  Statistics are real parts of traces; all expected
values here are real.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import partitions as pts
from .perms import EntryPermutation, MatrixShape, gather_indices
from .wick import WickWord

#: matrix entries (M x max(M, P) per sample) the sampler works on per block;
#: larger blocks ran no faster and raised the peak memory
_BLOCK_ENTRIES = 1 << 12


@dataclass(frozen=True)
class SamplerConfig:
    shape: MatrixShape
    samples: int
    seed: int

    def __post_init__(self):
        if self.samples < 1:
            raise ValueError("samples must be >= 1")
        if not 0 <= self.seed < 1 << 64:
            raise ValueError(f"seed {self.seed} is outside [0, 2^64), the Philox key range")


@dataclass(frozen=True)
class EstimateReport:
    mean: float
    std_error: float
    samples: int
    seed: int


def _substream(seed: int, index: int) -> np.random.Generator:
    key = np.array([seed, index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _polar_batch(need: int) -> int:
    """Candidate pairs in a round of the polar method that lacks ``need`` normals."""
    return max(32, int(need / 0.7) + 8)


def _polar_round(u01: np.ndarray, v01: np.ndarray, need: int) -> tuple[np.ndarray, np.ndarray]:
    """One round of the polar method on rows of candidate pairs, one row per stream.

    ``u01`` and ``v01`` hold the uniforms of each row's candidates in draw
    order; the round overwrites them.  A row emits x then y of each accepted
    pair (0 < s < 1) until it has ``need`` values.  Returns the (rows, need)
    values and how many of them each row filled; a row's values past that
    count are not normals.
    """
    u = np.multiply(u01, 2.0, out=u01)
    u -= 1.0
    v = np.multiply(v01, 2.0, out=v01)
    v -= 1.0
    s = np.multiply(u, u)
    s += np.multiply(v, v)
    ok = s < 1.0
    ok &= s > 0.0
    rows, pairs = len(u), (need + 1) // 2
    hits = np.flatnonzero(ok)  # accepted candidates, row after row, in draw order
    if rows == 1 and hits.size >= pairs:
        # a single full row (a block of one draw, as at M = 64): its first
        # accepted candidates, without the per-row counts and index
        # arithmetic below (about 30 us of a 300 us draw)
        kept, got = hits[None, :pairs], np.array([need])
    else:
        counts = np.count_nonzero(ok, axis=1)
        got = np.minimum(2 * counts, need)
        if hits.size == 0:
            return np.empty((rows, need)), got
        # row r's j-th accepted candidate is hits[first[r] + j]; a row with
        # fewer than ``pairs`` repeats its last one (or, with none, its
        # neighbour's)
        first = np.cumsum(counts) - counts
        kept = hits[first[:, None] + np.minimum(np.arange(pairs), counts[:, None] - 1)]
    sk = s.take(kept)
    f = np.log(sk)
    f *= -2.0
    f /= sk
    np.sqrt(f, out=f)
    xy = np.empty((rows, pairs, 2))
    np.multiply(u.take(kept), f, out=xy[..., 0])
    np.multiply(v.take(kept), f, out=xy[..., 1])
    return xy.reshape(rows, 2 * pairs)[:, :need], got


class _PhiloxReader:
    """One Philox generator that reads any substream (seed, k) from any position.

    A sampler run makes one reader and hands it to each of its blocks; setting
    its state costs about 2 us, where building a Philox and a Generator and
    reading the state cost about 20 us, once per block at M = 64.
    """

    def __init__(self):
        self.bitgen = np.random.Philox(key=np.zeros(2, dtype=np.uint64))
        self.gen = np.random.Generator(self.bitgen)
        self.state = self.bitgen.state
        self.key = self.state["state"]["key"]
        self.counter = self.state["state"]["counter"]

    def read(self, seed: int, k: int, start: int, out: np.ndarray) -> None:
        """Fill ``out`` with the uniforms from ``start`` (a multiple of 4) of substream (seed, k).

        The state is set to key (seed, k), counter start // 4 and an empty
        buffer: the state of a fresh ``_substream(seed, k)`` after ``start``
        uniforms.
        """
        self.key[0] = seed
        self.key[1] = k
        self.counter[0] = start // 4
        self.bitgen.state = self.state
        self.gen.random(out=out)


class _Substreams:
    """The substreams (seed, k) of a block of samples ks, one row per sample.

    ``reader`` is the run's ``_PhiloxReader``; without one the block makes its own.
    """

    def __init__(self, seed: int, ks: range, reader: _PhiloxReader | None = None):
        self.seed = seed
        self.ks = ks
        self.reader = _PhiloxReader() if reader is None else reader

    def generator(self, row: int) -> np.random.Generator:
        return _substream(self.seed, self.ks[row])

    def candidates(self, batch: int, cols: int) -> tuple[np.ndarray, np.ndarray]:
        """The u and v uniforms of each row's first ``cols`` candidate pairs.

        In a polar round of ``batch`` pairs these are the uniforms [0, cols)
        and [batch, batch + cols) of the row's stream.  A gap of fewer than 512
        uniforms between the two ranges is read through: a second read costs
        about 4 us (reset and call), a uniform about 8 ns.
        """
        aligned = batch - batch % 4
        reads = ([(0, batch + cols)] if aligned - cols < 512
                 else [(0, cols), (aligned, batch + cols)])
        buf = np.empty((len(self.ks), sum(stop - start for start, stop in reads)))
        for row, k in enumerate(self.ks):
            at = 0
            for start, stop in reads:
                self.reader.read(self.seed, k, start, buf[row, at:at + stop - start])
                at += stop - start
        return buf[:, :cols], buf[:, buf.shape[1] - cols:]

    def normals(self, n: int) -> np.ndarray:
        """Each row's n polar normals, as ``polar_normals`` draws them from its generator.

        The round reads only as many candidates as n normals need but for a
        chance of about 1e-15 per row (8 standard deviations past the mean at
        an acceptance rate of pi/4); a row that falls short is redrawn alone.
        """
        batch = _polar_batch(n)
        pairs = (n + 1) // 2
        p = math.pi / 4
        cols = min(batch, int((pairs + 8 * math.sqrt(pairs * (1 - p))) / p) + 16)
        vals, got = _polar_round(*self.candidates(batch, cols), n)
        for row in np.flatnonzero(got < n).tolist():
            vals[row] = polar_normals(self.generator(row), n)
        return vals


def polar_normals(gen: np.random.Generator | _Substreams, n: int) -> np.ndarray:
    """n standard normals via the Marsaglia polar method (vectorized).

    Candidate pairs are drawn in rounds of ``max(32, int(need / 0.7) + 8)``,
    u then v; accepted pairs emit both coordinates in draw order, making the
    output a pure function of the generator's uniform stream.  ``gen`` is a
    numpy Generator, or a block of sample substreams; then the result has one
    row per sample, equal to what the sample's own generator gives.
    """
    if isinstance(gen, _Substreams):
        return gen.normals(n)
    out = np.empty(n)
    filled = 0
    while filled < n:
        need = n - filled
        batch = _polar_batch(need)
        uv = gen.random(2 * batch)
        vals, got = _polar_round(uv[None, :batch], uv[None, batch:], need)
        take = int(got[0])
        out[filled:filled + take] = vals[0, :take]
        filled += take
    return out


def sample_ginibre(shape: MatrixShape, gen: np.random.Generator | _Substreams) -> np.ndarray:
    """One M x P Ginibre draw; 2MP normals, first half real parts (row-major).

    From a block of sample substreams it gives the stack of their draws.
    """
    M, P = shape.M, shape.P
    vals = polar_normals(gen, 2 * M * P)
    G = np.empty(vals.shape[:-1] + (M, P), dtype=complex)
    scale = math.sqrt(2 * M)
    np.divide(vals[..., :M * P].reshape(G.shape), scale, out=G.real)
    np.divide(vals[..., M * P:].reshape(G.shape), scale, out=G.imag)
    return G


def _wishart_stack(shape: MatrixShape, seed: int, ks: range, reader: _PhiloxReader) -> np.ndarray:
    """The W = G G* draws of samples ks, stacked along the first axis, read through ``reader``."""
    G = sample_ginibre(shape, _Substreams(seed, ks, reader))
    return G @ G.conj().transpose(0, 2, 1)


def _block_samples(shape: MatrixShape) -> int:
    return max(1, _BLOCK_ENTRIES // (shape.M * max(shape.M, shape.P)))


def sample_wishart(config: SamplerConfig):
    """Yield the W = G G* draws of the run, one per sample substream.

    The draws are made ``_block_samples`` samples at a time.
    """
    step = _block_samples(config.shape)
    reader = _PhiloxReader()
    for start in range(0, config.samples, step):
        ks = range(start, min(start + step, config.samples))
        yield from _wishart_stack(config.shape, config.seed, ks, reader)


def _fsum_mean_se(vals: Sequence[float]) -> tuple[float, float]:
    n = len(vals)
    mean = math.fsum(vals) / n
    if n < 2:
        return mean, float("nan")
    var = math.fsum((v - mean) ** 2 for v in vals) / (n - 1)
    return mean, math.sqrt(var / n)


class _WordEvaluator:
    """Precomputed gather indices for tr / Tr of a word on stacks of W draws."""

    def __init__(self, perms: Iterable[EntryPermutation], M: int):
        self.gathers = [rows * M + cols for rows, cols in map(gather_indices, perms)]

    def traces(self, Ws: np.ndarray) -> list[float]:
        """Re Tr of the word on each W of the stack, one fsum per draw."""
        flat = Ws.reshape(len(Ws), -1)
        prod = flat.take(self.gathers[0], axis=1)
        for idx in self.gathers[1:]:
            prod = prod @ flat.take(idx, axis=1)
        return [math.fsum(d) for d in np.diagonal(prod, axis1=1, axis2=2).real.tolist()]


def _statistics_per_sample(words: Sequence[WickWord], config: SamplerConfig) -> np.ndarray:
    """Array of shape (len(words), samples) of unnormalized trace statistics."""
    for w in words:
        if w.shape != config.shape:
            raise ValueError(f"word shape {w.shape} != sampler shape {config.shape}")
    evals = [_WordEvaluator(w.perms, config.shape.M) for w in words]
    out = np.empty((len(words), config.samples))
    # draws go through sample_wishart, the run's one draw path, and are restacked per block
    step = _block_samples(config.shape)
    draws = sample_wishart(config)
    for start in range(0, config.samples, step):
        Ws = np.stack(list(itertools.islice(draws, step)))
        for widx, ev in enumerate(evals):
            out[widx, start:start + len(Ws)] = ev.traces(Ws)
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
    total = math.fsum(prods)
    cov = total / (n - 1)
    pmean = total / n
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

    sums = [math.fsum(row.tolist()) for row in stats]
    means = {w: S / n for w, S in zip(ordered, sums)}
    point = float(pts.moments_to_free_cumulants(means.__getitem__, positions))
    if n < 2:
        return EstimateReport(point, float("nan"), n, config.seed)

    # leave-one-out means: (S - x_i) / (n - 1), vectorized over i
    loo = {w: (S - row) / (n - 1) for w, S, row in zip(ordered, sums, stats)}
    theta = np.asarray(pts.moments_to_free_cumulants(loo.__getitem__, positions), dtype=float)
    theta_bar = theta.mean()
    se = math.sqrt((n - 1) / n * float(np.sum((theta - theta_bar) ** 2)))
    return EstimateReport(point, se, n, config.seed)


# ---------------------------------------------------------------------------
# variance scaling probe
# ---------------------------------------------------------------------------

def fit_variance_slope(Ms: Sequence[int], variances: Sequence[float]) -> dict:
    """Least-squares slope of log variance against log M.

    Returns slope, intercept, per-point residuals and a ``degenerate`` flag
    (set when any variance is not positive, NaN included, in which case no
    fit is attempted).
    """
    if len(Ms) != len(variances) or len(Ms) < 3:
        raise ValueError("need at least 3 grid points")
    if not all(v > 0.0 for v in variances):
        return {"slope": float("nan"), "intercept": float("nan"),
                "residuals": [], "degenerate": True}
    xs = np.log(np.asarray(Ms, dtype=float))
    ys = np.log(np.asarray(variances, dtype=float))
    slope, intercept = np.polyfit(xs, ys, 1)
    residuals = (ys - (slope * xs + intercept)).tolist()
    return {"slope": float(slope), "intercept": float(intercept),
            "residuals": residuals, "degenerate": False}


def variance_scaling_probe(jobs: Sequence[tuple[int, WickWord]], config: SamplerConfig) -> dict:
    """Variance of the normalized trace statistic along an M grid, plus fit.

    ``jobs`` is a list of (M, word), M the word's own side (any other M is
    refused); each grid point reruns the sampler with the same seed and
    sample count at that word's shape.  ``variance_se`` holds the standard
    error of each variance, from the sample's fourth central moment:
    Var(s^2) = mu4 / n - sigma^4 (n - 3) / (n (n - 1)).
    """
    if len(jobs) < 3:
        raise ValueError("need a grid of at least 3 points")
    if config.samples < 2:
        raise ValueError("a variance requires samples >= 2")
    for M, word in jobs:
        if M != word.shape.M:
            raise ValueError(f"job M = {M} is not its word's M = {word.shape.M}")
    Ms, variances, variance_se, tr_variances = [], [], [], []
    for M, word in jobs:
        cfg = SamplerConfig(word.shape, config.samples, config.seed)
        vals = (_statistics_per_sample([word], cfg)[0] / word.shape.M).tolist()
        n = len(vals)
        mean = math.fsum(vals) / n
        squares = [(v - mean) ** 2 for v in vals]
        var = math.fsum(squares) / (n - 1)
        mu4 = math.fsum(q * q for q in squares) / n
        Ms.append(M)
        variances.append(var)
        variance_se.append(math.sqrt(max(mu4 - var * var * (n - 3) / (n - 1), 0.0) / n))
        tr_variances.append(var * M * M)
    fit = fit_variance_slope(Ms, variances)
    fit["Ms"] = Ms
    fit["variances"] = variances
    fit["variance_se"] = variance_se
    fit["Tr_variances"] = tr_variances  # unnormalized-trace variances
    return fit

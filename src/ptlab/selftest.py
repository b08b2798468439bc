"""The deterministic acceptance suite, runnable as `ptlab selftest`.

Criteria 1-4, 6, 7 and 9 are exact (rational equalities and integer
inequalities); criteria 5 and 8 are the seeded Monte Carlo cross-checks and
run only with --all.  Each criterion is declared once, by ``_criterion``,
and returns a result object so the CLI and the pytest acceptance module
share one implementation.
"""

from __future__ import annotations

import functools
import itertools
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from . import montecarlo as mc
from . import partitions as pts
from . import perms as pm
from . import wick as wk
from .asymptotics import INF, limit_cumulant_gamma
from .perms import MatrixShape, PartialTranspose, Side


@dataclass
class CriterionResult:
    index: int
    name: str
    passed: bool
    detail: str
    seconds: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"criterion {self.index}: {status} ({self.seconds:.1f}s) {self.name} -- {self.detail}"


#: index -> (criterion, whether it is a Monte Carlo check), filled by ``_criterion``
_REGISTRY: dict[int, tuple[Callable[[], CriterionResult], bool]] = {}


def _criterion(index: int, name: str, monte_carlo: bool = False):
    """Register a criterion whose body returns its detail line.

    The registered function times the body and returns a ``CriterionResult``;
    an exception in the body is a failing result, not a crash.
    """
    def register(body: Callable[[], str]) -> Callable[[], CriterionResult]:
        @functools.wraps(body)
        def criterion() -> CriterionResult:
            t0 = time.time()
            try:
                passed, detail = True, body()
            except Exception as exc:  # noqa: BLE001 - a failing criterion is data, not a crash
                passed, detail = False, f"{type(exc).__name__}: {exc}"
            return CriterionResult(index, name, passed, detail, time.time() - t0)

        _REGISTRY[index] = (criterion, monte_carlo)
        return criterion

    return register


@_criterion(1, "agreement-count lcm sandwich, c = j")
def criterion_1():
    """The lcm sandwich and c = j equality over all factorization pairs."""
    checked = 0
    for M in (4, 6, 8, 12, 16, 24, 36):
        gammas = pm.all_partial_transposes(M)
        for p in gammas:
            for q in gammas:
                if p.d > q.d:
                    continue
                lcm = pm.gamma_lcm_data(p.d, q.d)
                c = pm.count_agreements(p, q)
                # c and j are counted on the pair's digit levels: hold j
                # to the matched-rows enumeration of its full tables as well
                j = pm.count_joint(p, q)
                rows = pm._count_matched_rows(
                    *pm._triple_value_tables(p, q, "share_first", "both", "both"))
                assert c == j == rows, \
                    f"c, j, rows differ for {p}, {q}: {c}, {j}, {rows}"
                lo, hi = M * M // lcm.L**2, M * M // lcm.L
                assert lo <= c <= hi, f"sandwich fails for {p}, {q}: {lo} <= {c} <= {hi}"
                checked += 1
    return f"{checked} ordered factorization pairs, exact"


def _criterion2_perms(M: int, P: int) -> list[pm.EntryPermutation]:
    perms: list[pm.EntryPermutation] = [pm.Identity(M), pm.Transpose(M)]
    perms += pm.all_partial_transposes(M)
    perms += pm.all_partial_transposes(M, Side.LEFT)
    rng = np.random.default_rng(20240 + 131 * M + P)
    perms += [pm.random_symmetric_table(M, rng) for _ in range(3)]
    return perms


@_criterion(2, "exact kappa_2 agreement identity")
def criterion_2():
    """Exact kappa_2 identity kappa_2 = (P/M) c(sigma, tau) / M^2."""
    checked = 0
    for (M, P) in ((8, 8), (12, 12), (12, 8)):
        shape = MatrixShape(M, P)
        perms = _criterion2_perms(M, P)
        for a in range(len(perms)):
            for b in range(a, len(perms)):
                s, t = perms[a], perms[b]
                k2 = wk.exact_mixed_cumulant(wk.WickWord(shape, (s, t)))
                rhs = Fraction(P, M) * Fraction(pm.count_agreements(s, t), M * M)
                assert k2 == rhs, f"kappa2 identity fails for {s!r}, {t!r} at {(M, P)}"
                checked += 1
    return f"{checked} pairs, rational equality"


@_criterion(3, "exact boundary segment sums")
def criterion_3():
    """Boundary segment sums: closed forms, endpoint vanishing, a-independence."""
    checked = 0
    for m in (3, 4, 5):
        for (b, d) in ((2, 2), (2, 3), (3, 2), (2, 4)):
            M = b * d
            word = wk.WickWord(MatrixShape(M, M), (PartialTranspose(b, d),) * m)
            if m % 2:
                exp1 = Fraction(1, d ** (m - 1))
                exp2 = Fraction(1, b ** (m - 1))
            else:
                exp1 = Fraction(1, d ** (m - 2))
                exp2 = Fraction(1, b ** (m - 2))
            for pairing, expected in ((pts.nu1(m), exp1), (pts.nu2(m), exp2)):
                vals = {wk.segment_sum(pairing, word, a) for a in range(1, M + 1)}
                assert vals == {expected}, \
                    f"segment sum m={m} (b,d)=({b},{d}) {pairing}: {vals} != {expected}"
                assert wk.segment_sum(pairing, word, 1, 2) == 0, "endpoint mismatch nonzero"
                checked += 1
    return f"{checked} (m, b, d, pairing) cells, all endpoints, rational equality"


@_criterion(4, "Wick auto path = fast path = naive path")
def criterion_4():
    """The three count_admissible methods agree on the exhaustive grid.

    "auto" counts on the word's digit levels.  The M = 6 alphabet mixes
    d = 2 with d = 3, so its mixed words have one mixed level of radix
    6 = M; the M = 12 alphabet's mixed words have a mixed level of radix 6
    below a keep/swap level of radix 2.
    """
    checked = 0
    grids = [([pm.Identity(M), pm.Transpose(M),
               PartialTranspose(2, M // 2), PartialTranspose(M // 2, 2)], (2, 5, 6))
             for M in (2, 4, 6)]
    grids.append(([PartialTranspose(6, 2), PartialTranspose(4, 3),
                   PartialTranspose(6, 2, Side.LEFT), pm.Transpose(12)], (2,)))
    for alphabet, Ps in grids:
        for P in Ps:
            shape = MatrixShape(alphabet[0].M, P)
            for m in (1, 2, 3):
                pairings = pts.enumerate_bipartite_pairings(m)
                for word_perms in itertools.product(alphabet, repeat=m):
                    word = wk.WickWord(shape, word_perms)
                    for pairing in pairings:
                        auto = wk.count_admissible(pairing, word)
                        fast = wk.count_admissible(pairing, word, method="fast")
                        naive = wk.count_admissible(pairing, word, method="naive")
                        assert auto == fast == naive, \
                            f"auto {auto}, fast {fast}, naive {naive} " \
                            f"at {(shape, word_perms, pairing)}"
                        checked += 1
    return f"{checked} (word, pairing) cells, exact equality"


@_criterion(5, "MC/exact agreement (1e5 samples, seed 42)", monte_carlo=True)
def criterion_5():
    """Monte Carlo agreement with the exact oracle at 5 standard errors."""
    M = P = 8
    shape = MatrixShape(M, P)
    g24, g42 = PartialTranspose(2, 4), PartialTranspose(4, 2)
    I, T = pm.Identity(M), pm.Transpose(M)
    words = [
        wk.WickWord(shape, w) for w in [
            (I,), (g24,), (g24, g42), (I, T), (g24, g24, g24),
            (g42, g24, I), (T, T), (PartialTranspose(8, 1), PartialTranspose(1, 8)),
            (g24, I, g24, I), (g42, g42, g42, g42),
        ]
    ]
    cfg = mc.SamplerConfig(shape, 100000, 42)
    reports = mc.mc_mixed_moments(words, cfg)
    zmax = 0.0
    for word, rep in zip(words, reports):
        exact = float(wk.exact_mixed_moment(word).total)
        z = abs(rep.mean - exact) / rep.std_error
        zmax = max(zmax, z)
        assert z <= 5.0, f"|MC - exact| = {z:.2f} SE for word of length {word.m}"
    return f"10 words, max |z| = {zmax:.2f} <= 5"


@_criterion(6, "finite-size freeness trend")
def criterion_6():
    """Freeness trend: kappa_2 decay for the free pair, none for the non-free."""
    free_k2 = []
    for M in (8, 16, 32, 64):
        shape = MatrixShape(M, M)
        s, t = PartialTranspose(M // 2, 2), PartialTranspose(2, M // 2)
        free_k2.append(wk.exact_mixed_cumulant(wk.WickWord(shape, (s, t))))
        same = wk.exact_mixed_cumulant(wk.WickWord(shape, (t, t)))
        assert same == 1, f"non-free pair kappa_2 = {same} != P/M = 1"
    assert all(y < x for x, y in zip(free_k2, free_k2[1:])), f"not decreasing: {free_k2}"
    assert free_k2[-1] < free_k2[0] / 4, f"kappa2(64) not < kappa2(8)/4: {free_k2}"
    return f"kappa_2 = {', '.join(str(x) for x in free_k2)}; non-free pair stays at 1"


@_criterion(7, "right-vs-left triple count bounds")
def criterion_7():
    """Finite triple-count bounds for Gamma versus left-Gamma."""
    checked = 0
    for M in (12, 16, 24):
        gammas = pm.all_partial_transposes(M)
        for p in gammas:
            for q in gammas:
                lq = PartialTranspose(q.b, q.d, Side.LEFT)
                b, d, B, D = p.b, p.d, q.b, q.d
                n = pm.count_image_triples(p, lq, "share_second_slot")
                if d >= D:
                    assert n <= min(M * M // b, M * M // D), (p, q, n)
                if D >= d:
                    assert n <= min(M * M // d, M * M // B), (p, q, n)
                n1 = pm.count_projection_agreement(p, lq, "first", "first",
                                                   "share_second_slot")
                n2 = pm.count_projection_agreement(p, lq, "second", "second",
                                                   "share_second_slot")
                assert n1 <= min(M**3 // D, M**3 // b), (p, q, n1)
                assert n2 <= min(M**3 // B, M**3 // d), (p, q, n2)
                if d <= D:
                    c = pm.count_agreements(p, lq)
                    for e in range(1, D // d + 1):
                        if D <= 2 * d * e and d * e <= D:
                            assert c >= d * e * e, (p, q, c, e)
                checked += 1
    return f"{checked} factorization pairs, exact inequalities"


@_criterion(8, "Variance scaling and covariance band", monte_carlo=True)
def criterion_8():
    """Variance scaling slope in [-2.3, -1.7] and bounded Tr covariance band."""
    jobs = []
    for M in (8, 16, 32, 64):
        shape = MatrixShape(M, M)
        word = wk.WickWord(shape, (PartialTranspose(2, M // 2),
                                   PartialTranspose(M // 2, 2)))
        jobs.append((M, word))
    cfg = mc.SamplerConfig(MatrixShape(8, 8), 10000, 42)
    fit = mc.variance_scaling_probe(jobs, cfg)
    # the exact variances and slope on the same grid: how far inside the
    # bound the sampler's target lies, and how far each Monte Carlo
    # variance lies from its exact value in standard errors, so a change
    # of the sampler's bits shows as a number
    exact_vars = [float(wk.exact_trace_covariance(w, w)) / (M * M) for M, w in jobs]
    exact = mc.fit_variance_slope([M for M, _ in jobs], exact_vars)["slope"]
    slope = fit["slope"]
    assert -2.3 <= slope <= -1.7, f"slope {slope:.3f} outside [-2.3, -1.7] (exact {exact:.4f})"
    band = max(fit["Tr_variances"]) / min(fit["Tr_variances"])
    assert band < 3.0, f"Tr-variance band max/min = {band:.2f} >= 3"
    zs = ", ".join(f"{abs(v - e) / se:.2f}"
                   for v, e, se in zip(fit["variances"], exact_vars, fit["variance_se"]))
    return (f"slope = {slope:.3f} (exact {exact:.4f}, {exact + 2.3:.3f} inside -2.3), "
            f"variance |z| = {zs} at M = 8-64, "
            f"Tr-variance band max/min = {band:.2f}")


@_criterion(9, "Limit-formula special cases")
def criterion_9():
    """Limit cumulant special cases and monotone finite-size decay."""
    for c in (Fraction(1), Fraction(2, 3), Fraction(5, 2)):
        for (b, d) in ((2, 3), (INF, 4), (INF, INF)):
            assert limit_cumulant_gamma(1, b, d, c) == c
            assert limit_cumulant_gamma(2, b, d, c) == c
    for m in range(3, 9):
        assert limit_cumulant_gamma(m, INF, INF, Fraction(1)) == 0, m
    for m in (3, 4):
        seq = []
        for bd in (2, 4, 8):
            M = bd * bd
            word = wk.WickWord(MatrixShape(M, M), (PartialTranspose(bd, bd),) * m)
            seq.append(wk.exact_mixed_cumulant(word))
        assert all(y < x for x, y in zip(seq, seq[1:])), (m, seq)
        assert seq[-1] > 0, (m, seq)
    return "kappa_1 = kappa_2 = c; shifted-semicircle regime vanishes; finite decay monotone"


ALL_CRITERIA = tuple(sorted(_REGISTRY))
DETERMINISTIC_CRITERIA = tuple(i for i in ALL_CRITERIA if not _REGISTRY[i][1])
MONTE_CARLO_CRITERIA = tuple(i for i in ALL_CRITERIA if _REGISTRY[i][1])


def run(criteria=DETERMINISTIC_CRITERIA, out=print) -> list[CriterionResult]:
    results = []
    for idx in criteria:
        res = _REGISTRY[idx][0]()
        results.append(res)
        if out is not None:
            out(res.line())
    passed = sum(r.passed for r in results)
    if out is not None:
        out(f"selftest: {passed}/{len(results)} criteria passed")
    return results

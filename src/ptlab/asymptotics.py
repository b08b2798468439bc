"""Closed-form limit cumulants of partial transposes and the freeness verdicts.

Limits are declared, never inferred: a shape family carries its declared
limits of (b_N, d_N) plus concrete sampled values used only to corroborate.
Verdict rules:

* W1   -- two right families (or two left families, via a global transpose)
          are asymptotically free iff L = lcm(d, d') / min(d, d') diverges.
* LTR  -- a right and a left family are asymptotically free iff both cross
          products d * b' and b * d' diverge.
* C49-density -- the empirical corroboration: the exact agreement density
          c(sigma_N, tau_N) / M_N^2 along the sampled grid.

Infinity is represented by math.inf with the conventions inf^negative = 0
and inf * finite = inf.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import partitions as pts
from .errors import ResourceLimitError
from .perms import PartialTranspose, Side, count_agreements

INF = math.inf

#: highest order of ``limit_moments_gamma``: orders 1-17 take about 2 s on a
#: 2-core VM (Python 3.11), and each further order doubles the time
MAX_LIMIT_ORDER = 17

#: a declared limit is a positive integer or math.inf
Limit = int | float


def is_infinite(x) -> bool:
    return x == INF


def _check_limit(x) -> None:
    if is_infinite(x):
        return
    if not (isinstance(x, int) and x >= 1):
        raise ValueError(f"limit must be a positive integer or inf, got {x!r}")


def limit_cumulant_gamma(m: int, b, d, c: Fraction) -> Fraction:
    """Limit free cumulant kappa_m of a (b, d) partial transpose family.

    kappa_1 = kappa_2 = c; for m >= 3,

        kappa_m = c * (d^(1-m) + b^(1-m))   (m odd)
        kappa_m = c * (d^(2-m) + b^(2-m))   (m even)

    with infinite block parameters contributing 0.  The m = 2 case is
    special-cased to c: at m = 2 the two boundary pairings coincide, and the
    exact finite-size covariance identity forces kappa_2 = P/M -> c.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    _check_limit(b)
    _check_limit(d)
    c = Fraction(c)
    if c <= 0:
        raise ValueError("c must be positive")
    if m <= 2:
        return c

    def power_term(base, exponent: int) -> Fraction:
        # exponent < 0 here; inf^negative = 0
        if is_infinite(base):
            return Fraction(0)
        return Fraction(1, base ** (-exponent))

    e = 1 - m if m % 2 else 2 - m
    return c * (power_term(d, e) + power_term(b, e))


def limit_moments_gamma(max_order: int, b, d, c: Fraction) -> list[Fraction]:
    """Limit moments m_1 .. m_max_order via the first-block cumulant recursion.

    The orders share one memo, so moment n adds 2^(n-1) terms to the lower
    ones and the orders up to n cost 2^n - 1 terms in all.  Orders above
    ``MAX_LIMIT_ORDER`` are refused.
    """
    if max_order < 1:
        raise ValueError("max_order must be >= 1")
    if max_order > MAX_LIMIT_ORDER:
        cost = 2**max_order - 1
        raise ResourceLimitError(
            f"limit order {max_order} exceeds the cap {MAX_LIMIT_ORDER}: the moments "
            f"up to it sum 2^{max_order} - 1 = {cost} cumulant products", cost)

    def kappa(word: tuple) -> Fraction:
        return limit_cumulant_gamma(len(word), b, d, c)

    moment = pts.free_moments(kappa)  # each order reuses the lower ones
    return [moment(("w",) * n) for n in range(1, max_order + 1)]


# ---------------------------------------------------------------------------
# shape families and verdicts
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ShapeFamily:
    """A declared family Gamma(b_N, d_N) (right) or its left variant.

    ``samples`` holds concrete (b_N, d_N, M_N) triples along the grid; they
    corroborate the declared limits but never override them.
    """

    side: Side
    b_limit: object
    d_limit: object
    samples: tuple[tuple[int, int, int], ...]
    label: str = ""

    def __post_init__(self):
        _check_limit(self.b_limit)
        _check_limit(self.d_limit)
        object.__setattr__(self, "samples", tuple(tuple(s) for s in self.samples))
        if not self.samples:
            raise ValueError("a family needs at least one sampled grid point")
        for (b, d, M) in self.samples:
            if b * d != M:
                raise ValueError(f"sample ({b}, {d}, {M}) violates b * d = M")
        self._check_consistency("b", [s[0] for s in self.samples], self.b_limit)
        self._check_consistency("d", [s[1] for s in self.samples], self.d_limit)

    def _check_consistency(self, name, vals, limit):
        if is_infinite(limit):
            if any(y < x for x, y in zip(vals, vals[1:])):
                raise ValueError(f"{name}-samples must be nondecreasing toward inf: {vals}")
        else:
            if vals[-1] != limit:
                raise ValueError(f"{name}-samples end at {vals[-1]} != declared limit {limit}")
            seen = False
            for v in vals:
                if seen and v != limit:
                    raise ValueError(f"{name}-samples leave the declared limit {limit}: {vals}")
                seen = seen or v == limit

    def perm_at(self, k: int) -> PartialTranspose:
        b, d, _ = self.samples[k]
        return PartialTranspose(b, d, self.side)

    def grid_M(self) -> list[int]:
        return [M for (_, _, M) in self.samples]


@dataclass(frozen=True)
class Verdict:
    free: bool
    rule: str  # W1 | LTR
    witness: object
    warning: str | None = None


def _shared_grid(f: ShapeFamily, g: ShapeFamily) -> None:
    if f.grid_M() != g.grid_M():
        raise ValueError(f"families sample different M grids: {f.grid_M()} vs {g.grid_M()}")


def _w1_verdict(f: ShapeFamily, g: ShapeFamily) -> Verdict:
    """The lcm divergence rule on a pair of inner block size sequences.

    When both d-limits are infinite only the sampled trend decides, so a grid
    of fewer than two values is refused.
    """
    d_f, d_g = f.d_limit, g.d_limit
    trend = [math.lcm(df, dg) // min(df, dg)
             for (_, df, _), (_, dg, _) in zip(f.samples, g.samples)]
    if not is_infinite(d_f) and not is_infinite(d_g):
        L = math.lcm(d_f, d_g) // min(d_f, d_g)
        return Verdict(free=False, rule="W1",
                       witness={"L_limit": L, "L_trend": trend})
    if is_infinite(d_f) != is_infinite(d_g):
        # lcm(k, d)/min >= d/k diverges once d passes the finite limit k
        warning = None
        if len(trend) >= 2 and trend[-1] <= trend[0]:
            warning = "corroboration weak: sampled L trend does not grow"
        return Verdict(free=True, rule="W1",
                       witness={"L_limit": "inf", "L_trend": trend}, warning=warning)
    # both infinite: only the sampled lcm trend can separate the cases
    if len(trend) < 2:
        raise ValueError(
            f"families {f.label or '?'} and {g.label or '?'} both have d -> inf, so their "
            f"W1 verdict reads the sampled lcm trend, which needs at least two grid values")
    growing = trend[-1] > trend[0]
    if not growing:
        return Verdict(free=False, rule="W1",
                       witness={"L_limit": "bounded (sampled)", "L_trend": trend})
    warning = None
    if trend[-1] < 2 * trend[0]:
        warning = "corroboration weak: sampled L trend grew by less than 2x"
    return Verdict(free=True, rule="W1",
                   witness={"L_limit": "inf (sampled trend)", "L_trend": trend},
                   warning=warning)


def _product_limit(x, y):
    return INF if is_infinite(x) or is_infinite(y) else x * y


def verdict_pair(f: ShapeFamily, g: ShapeFamily) -> Verdict:
    """Asymptotic freeness verdict for a pair of partial transpose families."""
    _shared_grid(f, g)
    if f.side is Side.RIGHT and g.side is Side.RIGHT:
        return _w1_verdict(f, g)
    if f.side is Side.LEFT and g.side is Side.LEFT:
        # a global transpose turns both left families into right ones and
        # preserves asymptotic freeness
        v = _w1_verdict(f, g)
        witness = dict(v.witness)
        witness["via"] = "global transpose"
        return Verdict(v.free, v.rule, witness, v.warning)
    right, left = (f, g) if f.side is Side.RIGHT else (g, f)
    p1 = _product_limit(right.d_limit, left.b_limit)
    p2 = _product_limit(right.b_limit, left.d_limit)
    free = is_infinite(p1) and is_infinite(p2)
    witness = {"d_right*b_left": "inf" if is_infinite(p1) else p1,
               "b_right*d_left": "inf" if is_infinite(p2) else p2}
    return Verdict(free=free, rule="LTR", witness=witness)


def verdict_family(families: list[ShapeFamily]) -> tuple[dict[tuple[int, int], Verdict], bool]:
    """Pairwise verdict matrix and the overall flag (free iff all pairs are)."""
    if len(families) < 2:
        raise ValueError("need at least 2 families")
    out: dict[tuple[int, int], Verdict] = {}
    overall = True
    for i in range(len(families)):
        for j in range(i + 1, len(families)):
            v = verdict_pair(families[i], families[j])
            out[(i, j)] = v
            overall = overall and v.free
    return out, overall


def empirical_density_probe(f: ShapeFamily, g: ShapeFamily) -> dict:
    """Exact agreement densities c(sigma_N, tau_N)/M_N^2 along the shared grid.

    Corroborates (never overrides) the declared-limit verdict.
    """
    _shared_grid(f, g)
    densities = [Fraction(count_agreements(f.perm_at(k), g.perm_at(k)), M * M)
                 for k, M in enumerate(f.grid_M())]
    nonincreasing = all(y <= x for x, y in zip(densities, densities[1:]))
    return {"rule": "C49-density", "densities": densities,
            "nonincreasing": nonincreasing,
            "first": densities[0], "last": densities[-1]}

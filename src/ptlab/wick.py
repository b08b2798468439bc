"""Exact finite-size Wick calculus for words in entry-permuted Wishart matrices.

For W = G G* with G an M x P Ginibre matrix (i.i.d. complex Gaussian entries,
E g = 0, E |g|^2 = 1/M) and symmetric entry permutations sigma_1, ..., sigma_m,

    E tr(W^{sigma_1} ... W^{sigma_m})
        = sum over bipartite pairings pi of [2m] of V(pi, sigmas),
    V(pi, sigmas) = #A(pi, sigmas) / M^(m+1),

where A counts the index tuples whose Wick weight is nonzero.  A tuple
consists of i_1..i_m in [M] and j_1..j_m in [P]; writing
(l_k, l_-k) = sigma_k(i_k, i_{k+1}) (cyclically), the weight of a pairing
that pairs position 2t-1 with 2s is nonzero iff l_t = l_-s and j_t = j_s for
every pair.  Everything in this module is exact rational arithmetic.

The Gaussian normalization E |g|^2 = 1/M (standard deviation 1/sqrt(M)) is
the unique reading under which E tr W = P/M; every identity below asserts
rational equality, no tolerances.

The j-coordinates always contribute P^(number of j-orbits).  The i-count
is a product over the word's digit levels (``perms.digit_levels``): each
l-equality splits into one equality per mixed-radix digit level.  A
keep/swap level contributes radix^(free digit orbits).  Those orbits depend
only on the pairing, the trace cycles and the level's swap pattern, so
``_level_orbits`` works them out for every pairing of the order at once
and keeps the table (one int8 per pairing) per (cycles, swaps) for the
process; the pairings and their j-orbits sit in one ``_PairingTable`` per
order.  Pinned endpoints (``segment_sum``) and the "fast" method count on
``perms.count_on_digit_levels``, the counter the permutation statistics
share.  A mixed level enumerates its radix^m grid, chunk by chunk, on the
letters reduced to that radix, per pairing.  The pairings of one word share
that grid: ``WickWord.grid_counter`` (and one ``perms.SharedGridCounter``
per covariance) evaluates the letters once and keeps each image equality's
mask, up to ``perms.MAX_SHARED_GRID`` points.  Words of ``I``, ``T``,
``G(b, d)`` and ``LG(b, d)`` thus cost (L/g)^m per mixed level, L and g the lcm and gcd of the block sizes inside
it, whatever M is; divisor-chain words have no mixed level and build no
grid.  A word with a ``D(file)``, ``P(file)``, composition or table letter
is one mixed level of radix M.  The enumeration budget applies to the
sum of the mixed levels' grids, the points enumerated.  A moment's word has
at most ``MAX_WORD_LEN`` = 6 letters; a covariance's two words together are
held to the pairing enumeration's cap, ``partitions.MAX_PAIRING_ORDER`` = 8
letters.  These caps and the table cap have no override.

``count_admissible`` has three methods: "auto" (the digit levels), "fast"
(the full i-grid as one mixed level of radix M; the reference the levels
are checked against) and "naive" (the full (i, j) grid, testing the Wick
weight directly).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from fractions import Fraction

import numpy as np

from . import partitions as pts
from .partitions import Pairing, enumerate_bipartite_pairings
from .perms import (
    EntryPermutation,
    MatrixShape,
    MixedLevel,
    PartialTranspose,
    ResourceLimitError,
    SharedGridCounter,
    Side,
    _constrained_chunks,
    _count_by_enumeration,
    check_budget,
    count_on_digit_levels,
    digit_levels,
    orbit_labels,
)

#: default refusal threshold for enumeration grid sizes
DEFAULT_BUDGET = 2**32
#: cap on the length of a moment's word (pairing count grows like m!)
MAX_WORD_LEN = 6
#: cap on the admissible i-tuples ``count_admissible_restricted`` materializes
MAX_RESTRICTED_TUPLES = 1 << 22


@dataclass(frozen=True)
class WickWord:
    """An ordered tuple of symmetric entry permutations with a matrix shape."""

    shape: MatrixShape
    perms: tuple[EntryPermutation, ...]

    def __post_init__(self):
        object.__setattr__(self, "perms", tuple(self.perms))
        if not self.perms:
            raise ValueError("word must contain at least one permutation")
        for p in self.perms:
            if p.M != self.shape.M:
                raise ValueError(f"permutation side {p.M} != shape M {self.shape.M}")
            if not p.is_symmetric():
                raise ValueError(f"permutation {p!r} is not symmetric")

    @property
    def m(self) -> int:
        return len(self.perms)

    def subword(self, positions: tuple[int, ...]) -> "WickWord":
        return WickWord(self.shape, tuple(self.perms[t - 1] for t in positions))

    @cached_property
    def digit_levels(self):
        """``perms.digit_levels`` of the letters, worked out once per word."""
        return digit_levels(self.perms)

    @cached_property
    def grid_counter(self) -> SharedGridCounter:
        """The mixed levels' grids and equality masks, shared by the counts
        of every pairing of this word."""
        return SharedGridCounter()


@dataclass(frozen=True)
class IndexTuple:
    """Free coordinates (i_1..i_m, j_1..j_m) of a tuple in I(m).

    The dependent coordinates are forced: i_{-k} = i_{k+1} (cyclically) and
    j_{-k} = j_k.
    """

    i: tuple[int, ...]
    j: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "i", tuple(self.i))
        object.__setattr__(self, "j", tuple(self.j))
        if len(self.i) != len(self.j):
            raise ValueError("i and j must have equal length")


@dataclass
class RationalMomentReport:
    """Exact mixed moment with its per-pairing decomposition."""

    word: WickWord
    per_pairing: dict[Pairing, Fraction]
    tuple_counts: dict[Pairing, int]
    total: Fraction = field(init=False)

    def __post_init__(self):
        # the pairings share the denominator M^(m+1): one sum, one reduction
        self.total = Fraction(sum(self.tuple_counts.values()),
                              self.word.shape.M ** (self.word.m + 1))


# ---------------------------------------------------------------------------
# admissible-tuple counting
# ---------------------------------------------------------------------------

def _factor_pairs(pairing: Pairing) -> list[tuple[int, int]]:
    """Pairs (t, s) with pi(2t - 1) = 2s, as factor indices in [m]."""
    return [(t, s) for t, s in enumerate(pairing.factor_map(), start=1)]


class _PairingTable:
    """The bipartite pairings of one order K as arrays.

    ``fm[row]`` is the 0-based factor map of ``pairings[row]`` (int8, K! x K),
    ``row`` maps a pairing's partner tuple to its row, and ``j_ids`` and
    ``j_orbits`` give each factor's j-orbit (the least factor in it) and each
    pairing's number of j-orbits, the orbits of t ~ f(t).
    """

    def __init__(self, K: int):
        self.pairings = enumerate_bipartite_pairings(K)
        self.row = {p.partner: k for k, p in enumerate(self.pairings)}
        self.fm = np.array([p.factor_map() for p in self.pairings], dtype=np.int8) - 1
        factors = np.arange(K)
        self.j_ids = orbit_labels(K, np.broadcast_to(factors, self.fm.shape),
                                  self.fm).astype(np.int8)
        self.j_orbits = np.count_nonzero(self.j_ids == factors, axis=1).astype(np.int8)


@lru_cache(maxsize=None)
def _pairing_table(K: int) -> _PairingTable:
    return _PairingTable(K)


@lru_cache(maxsize=None)
def _level_orbits(cycles: tuple[int, ...], swaps: tuple[bool, ...]) -> np.ndarray:
    """Free i-orbits of a keep/swap level, for every pairing of order sum(cycles).

    The letters run around the trace ``cycles`` in turn; letter t takes the
    arguments (i_t, i_next(t)) of its cycle and keeps or swaps their digits
    as ``swaps[t]`` says.  The pair (t, f(t)) equates coordinate 0 of letter
    t's image with coordinate 1 of letter f(t)'s, so it joins the variable
    that each takes: one edge per letter, one graph per pairing, all of them
    in one ``orbit_labels`` pass.  The level contributes radix^orbits, for
    any M and radix, so the table (int8, one entry per pairing) is kept per
    (cycles, swaps); there are at most 2^K swap patterns per cycle split.
    """
    fm = _pairing_table(sum(cycles)).fm
    letters = np.arange(fm.shape[1])
    starts = np.cumsum((0,) + cycles[:-1])
    nxt = np.concatenate([np.roll(letters[a:a + c], -1) for a, c in zip(starts, cycles)])
    swaps = np.array(swaps, dtype=bool)
    coord0, coord1 = np.where(swaps, nxt, letters), np.where(swaps, letters, nxt)
    labels = orbit_labels(len(letters), np.broadcast_to(coord0, fm.shape), coord1[fm])
    orbits = np.count_nonzero(labels == letters, axis=1).astype(np.int8)
    orbits.flags.writeable = False
    return orbits


def _keep_swap_orbits(levels, cycles):
    """(radix, ``_level_orbits`` table) of each keep/swap level, and the mixed levels."""
    tables = [(level[1], _level_orbits(cycles, level[2]))
              for level in levels if type(level) is not MixedLevel]
    return tables, [level for level in levels if type(level) is MixedLevel]


def _row_count(P: int, table: _PairingTable, row: int, tables) -> int:
    """P^(j-orbits) times radix^(free orbits) of each keep/swap level's
    ``tables`` at one pairing's row."""
    count = P ** int(table.j_orbits[row])
    for radix, orbits in tables:
        count *= radix ** int(orbits[row])
    return count


def _j_orbit_ids(pairing: Pairing) -> np.ndarray:
    """Orbit id per factor under the relation t ~ s for each pair (t, s):
    the pairing's row of its order's table; a pairing above the enumeration
    cap gets one ``orbit_labels`` row of its own."""
    if pairing.m > pts.MAX_PAIRING_ORDER:
        f = np.array([pairing.factor_map()]) - 1
        return orbit_labels(pairing.m, np.arange(pairing.m)[None, :], f)[0]
    table = _pairing_table(pairing.m)
    return table.j_ids[table.row[pairing.partner]]


def _j_orbit_count(pairing: Pairing) -> int:
    return len(set(_j_orbit_ids(pairing).tolist()))


def weight_support(pairing: Pairing, word: WickWord, u: IndexTuple) -> bool:
    """Whether the Wick weight v(pi, sigmas, u) is nonzero (v = M^-m if so)."""
    m = word.m
    if pairing.m != m or len(u.i) != m:
        raise ValueError("pairing / tuple length does not match the word")
    M, P = word.shape.M, word.shape.P
    if any(not 1 <= x <= M for x in u.i) or any(not 1 <= x <= P for x in u.j):
        raise ValueError("index tuple out of range for the word shape")
    l = [None] * (m + 1)
    lm = [None] * (m + 1)
    for k in range(1, m + 1):
        l[k], lm[k] = word.perms[k - 1](u.i[k - 1], u.i[k % m])
    for t, s in _factor_pairs(pairing):
        if l[t] != lm[s] or u.j[t - 1] != u.j[s - 1]:
            return False
    return True


def _count_constrained_i(levels, pairs, arg_spec, count_mixed=_count_by_enumeration) -> int:
    """Number of assignments of the i-variables satisfying all l-equalities.

    Each l_t = l_-s is the equality of image coordinate 0 of letter t and
    coordinate 1 of letter s, counted by ``perms.count_on_digit_levels`` on
    the word's digit ``levels`` (one mixed level of radix M for the whole
    i-grid), each mixed level by ``count_mixed``.
    """
    return count_on_digit_levels(levels, arg_spec,
                                 [((t - 1, 0), (s - 1, 1)) for t, s in pairs], count_mixed)


def _cyclic_arg_spec(m: int, offset: int = 0) -> list:
    """Arguments (i_k, i_{k+1}) of one trace cycle over variables offset..offset+m-1."""
    return [(("var", offset + k), ("var", offset + (k + 1) % m)) for k in range(m)]


def count_admissible(pairing: Pairing, word: WickWord, method: str = "auto",
                     budget: int | None = DEFAULT_BUDGET) -> int:
    """#A(pi, sigmas): admissible index tuples of the word under the pairing.

    Methods: "auto" counts the i-tuples on the word's digit levels; "fast"
    enumerates the whole i-grid; both multiply by P^(number of j-orbits).
    "naive" enumerates the full (i, j) grid and tests the Wick weight
    directly.  ``budget`` caps the grid points enumerated: the sum of
    radix^m over the mixed levels for "auto" (0, and never refused, for a
    divisor-chain word), M^m for "fast" and (M P)^m for "naive".
    """
    m = word.m
    if pairing.m != m:
        raise ValueError("pairing order does not match word length")
    M, P = word.shape.M, word.shape.P
    pairs = _factor_pairs(pairing)

    if method == "naive":
        cost = (M * P) ** m
        if budget is not None and cost > budget:
            raise ResourceLimitError(
                f"naive enumeration cost (M*P)^m = {cost} exceeds budget {budget}", cost)
        return _count_admissible_naive(pairing, word)

    if method not in ("auto", "fast"):
        raise ValueError(f"unknown method {method!r}")
    if method == "auto":
        levels, count_mixed = word.digit_levels, word.grid_counter
    else:
        levels, count_mixed = [MixedLevel(1, M, word.perms)], _count_by_enumeration
    check_budget(levels, m, budget)
    arg_spec = _cyclic_arg_spec(m)
    if m > pts.MAX_PAIRING_ORDER:  # no table of this order: the pairing's own orbits
        return P ** _j_orbit_count(pairing) * _count_constrained_i(levels, pairs, arg_spec,
                                                                   count_mixed)
    table = _pairing_table(m)
    row = table.row[pairing.partner]
    tables, mixed = _keep_swap_orbits(levels, (m,))
    count = _row_count(P, table, row, tables)
    if mixed:
        count *= _count_constrained_i(mixed, pairs, arg_spec, count_mixed)
    return count


def _count_admissible_naive(pairing: Pairing, word: WickWord) -> int:
    """Direct enumeration of I(m) testing every Wick pair constraint."""
    m = word.m
    M, P = word.shape.M, word.shape.P
    pairs = _factor_pairs(pairing)
    total = 0
    i_grid = np.indices((M,) * m).reshape(m, -1) + 1
    j_grid = np.indices((P,) * m).reshape(m, -1) + 1
    ls, lms = [], []
    for k in range(1, m + 1):
        lk, lmk = word.perms[k - 1].eval_arrays(i_grid[k - 1], i_grid[k % m])
        ls.append(lk)
        lms.append(lmk)
    i_mask = np.ones(i_grid.shape[1], dtype=bool)
    j_mask = np.ones(j_grid.shape[1], dtype=bool)
    for t, s in pairs:
        i_mask &= ls[t - 1] == lms[s - 1]
        j_mask &= j_grid[t - 1] == j_grid[s - 1]
    # the weight factors over disjoint (i, j) coordinates, so the joint count
    # is the product of the two masked counts
    return int(np.count_nonzero(i_mask)) * int(np.count_nonzero(j_mask))


def exact_mixed_moment(word: WickWord, method: str = "auto",
                       budget: int | None = DEFAULT_BUDGET) -> RationalMomentReport:
    """E tr(W^{sigma_1} ... W^{sigma_m}} as an exact rational, per pairing."""
    m = word.m
    if m > MAX_WORD_LEN:
        cost = math.factorial(m)
        raise ResourceLimitError(
            f"{m} letters have {m}! = {cost} pairings, over the word-length cap of "
            f"{MAX_WORD_LEN} letters", cost)
    M = word.shape.M
    per: dict[Pairing, Fraction] = {}
    counts: dict[Pairing, int] = {}
    denom = M ** (m + 1)
    for pi in enumerate_bipartite_pairings(m):
        n = count_admissible(pi, word, method=method, budget=budget)
        counts[pi] = n
        per[pi] = Fraction(n, denom)
    return RationalMomentReport(word=word, per_pairing=per, tuple_counts=counts)


def exact_mixed_cumulant(word: WickWord, budget: int | None = DEFAULT_BUDGET) -> Fraction:
    """Multivariate free cumulant kappa_m of the word at finite (M, P)."""
    cache: dict[tuple, Fraction] = {}

    def moment(sub: tuple) -> Fraction:
        key = tuple(p.key() for p in sub)
        if key not in cache:
            cache[key] = exact_mixed_moment(WickWord(word.shape, sub), budget=budget).total
        return cache[key]

    return pts.moments_to_free_cumulants(moment, word.perms)


# ---------------------------------------------------------------------------
# restricted (projected) tuple counts
# ---------------------------------------------------------------------------

def _valid_i_tuples(word: WickWord, pairing: Pairing) -> np.ndarray:
    """All i-tuples satisfying the l-equalities, as an (N, m) array."""
    m = word.m
    M = word.shape.M
    cost = M**m
    if cost > DEFAULT_BUDGET:
        raise ResourceLimitError(
            f"i-grid cost M^m = {cost} exceeds budget {DEFAULT_BUDGET}", cost)
    rows = []
    count = 0
    equalities = [((t - 1, 0), (s - 1, 1)) for t, s in _factor_pairs(pairing)]
    for cols, mask in _constrained_chunks(word.perms, M, _cyclic_arg_spec(m), equalities):
        # pinned scalars broadcast against the chunk instead of being copied
        mask, *cols = np.broadcast_arrays(mask, *cols)
        sel = np.stack([c[mask] for c in cols], axis=1)
        count += sel.shape[0]
        if count > MAX_RESTRICTED_TUPLES:
            raise ResourceLimitError(
                f"admissible i-tuple set exceeds the cap {MAX_RESTRICTED_TUPLES}", count)
        rows.append(sel)
    return np.concatenate(rows, axis=0) if rows else np.zeros((0, m), dtype=np.int64)


def count_admissible_restricted(pairing: Pairing, word: WickWord, D) -> int:
    """#A_{pi, sigmas}(D): distinct projections sigmas(u)[D] over admissible u.

    The flat vector sigmas(u) = (l_1, j_1, j_-1, l_-1, ..., l_m, j_m, j_-m,
    l_-m) is projected onto the component pairs selected by D, a subset of
    [2m].  This counts projected images, which can be smaller than the number
    of admissible tuples when D is proper.
    """
    m = word.m
    D = sorted(set(int(x) for x in D))
    if any(not 1 <= x <= 2 * m for x in D):
        raise ValueError(f"D must be a subset of [1, {2 * m}]")
    tuples = _valid_i_tuples(word, pairing)
    if tuples.shape[0] == 0:
        return 0
    P = word.shape.P

    # l-side projection: components of the selected pairs that come from l
    l_cols = []
    touched_factors = []
    for dd in D:
        k = (dd + 1) // 2
        touched_factors.append(k)
        l_cols.append((k, "l" if dd % 2 else "lm"))
    if l_cols:
        comp = []
        for k, which in l_cols:
            lk, lmk = word.perms[k - 1].eval_arrays(tuples[:, k - 1], tuples[:, k % m])
            comp.append(lk if which == "l" else lmk)
        l_proj = np.stack(comp, axis=1)
        n_l = np.unique(l_proj, axis=0).shape[0]
    else:
        n_l = 1

    # j-side projection: position 2k-1 contributes j_k, position 2k also j_k
    # (j_-k = j_k); over orbit-constant assignments, distinct projections are
    # free choices of the touched orbit values
    orbit = _j_orbit_ids(pairing)
    touched_orbits = {orbit[k - 1] for k in touched_factors}
    n_j = P ** len(touched_orbits)
    return n_l * n_j


# ---------------------------------------------------------------------------
# trace covariance (unnormalized traces, connected pairings)
# ---------------------------------------------------------------------------

def exact_trace_covariance(word1: WickWord, word2: WickWord,
                           budget: int | None = DEFAULT_BUDGET) -> Fraction:
    """Cov(Tr W^{sigmas}, Tr W^{taus}) with Tr the unnormalized trace.

    Equals M^-(m+r) times the number of admissible combined tuples, summed
    over the connected bipartite pairings of [2(m+r)] (those coupling the two
    trace cycles).
    """
    return _trace_pair_sum(word1, word2, budget, connected_only=True)


def exact_trace_product_expectation(word1: WickWord, word2: WickWord) -> Fraction:
    """E(Tr W^{sigmas} * Tr W^{taus}); all bipartite pairings, not just connected."""
    return _trace_pair_sum(word1, word2, DEFAULT_BUDGET, connected_only=False)


def _trace_pair_sum(word1: WickWord, word2: WickWord, budget: int | None,
                    connected_only: bool) -> Fraction:
    """M^-(m+r) times the admissible combined tuples of the two trace cycles.

    Sums over the bipartite pairings of [2(m+r)], only those coupling the
    two cycles when ``connected_only``; more than
    ``partitions.MAX_PAIRING_ORDER`` letters in all are refused.
    """
    if word1.shape != word2.shape:
        raise ValueError("words must share one matrix shape")
    m, r = word1.m, word2.m
    K = m + r
    M, P = word1.shape.M, word1.shape.P
    perms = word1.perms + word2.perms
    levels = digit_levels(perms)
    check_budget(levels, K, budget)
    table = _pairing_table(K)
    # a pairing couples the cycles iff some factor of the first maps beyond it
    rows = (np.flatnonzero((table.fm[:, :m] >= m).any(axis=1)) if connected_only
            else np.arange(len(table.pairings)))
    tables, mixed = _keep_swap_orbits(levels, (m, r))
    arg_spec = _cyclic_arg_spec(m) + _cyclic_arg_spec(r, offset=m)
    counter = SharedGridCounter()
    total = 0
    for row in rows.tolist():
        n = _row_count(P, table, row, tables)
        if mixed:
            n *= _count_constrained_i(mixed, _factor_pairs(table.pairings[row]), arg_spec,
                                      counter)
        total += n
    return Fraction(total, M**K)


def connected_bipairings(m: int, r: int) -> list[pts.BiPairing]:
    """The bipartite pairings of [2(m+r)] that couple the two trace groups."""
    return pts.enumerate_connected_bipairings(2 * m, 2 * r)


# ---------------------------------------------------------------------------
# segment sums (the nu_1 / nu_2 boundary sums of constant words)
# ---------------------------------------------------------------------------

def segment_sum(pairing: Pairing, word: WickWord, a: int, b: int | None = None) -> Fraction:
    """Sum of Wick weights over interior tuples with pinned trace endpoints.

    For a constant word (Gamma(b, d), ..., Gamma(b, d)) and pairing nu_1 or
    nu_2 this evaluates  sum over u in J(m) of v(pi, sigmas, (a, u, b)),
    counting the interior i-tuples on the digit levels (a constant word is a
    divisor chain, so no grid is built and no budget applies; the endpoints
    pin digits); the j-count is P^(number of j-orbits).  The i_1 = a and
    i_{m+1} = b endpoints replace the cyclic identification.
    """
    m = word.m
    perms = word.perms
    p0 = perms[0]
    if not isinstance(p0, PartialTranspose) or p0.side is not Side.RIGHT:
        raise ValueError("segment sums are defined for constant right partial transpose words")
    if any(p.key() != p0.key() for p in perms):
        raise ValueError("segment sums require a constant word")
    allowed = [pts.nu1(m)] + ([pts.nu2(m)] if m >= 3 else [])
    if pairing not in allowed:
        raise ValueError("pairing must be nu1(m) or nu2(m)")
    M, P = word.shape.M, word.shape.P
    if not 1 <= a <= M:
        raise ValueError(f"endpoint a = {a} outside [1, {M}]")
    b = a if b is None else b
    if not 1 <= b <= M:
        raise ValueError(f"endpoint b = {b} outside [1, {M}]")

    pairs = _factor_pairs(pairing)

    # interior i-count: variables i_2 .. i_m, endpoints pinned
    arg_spec = []
    for k in range(1, m + 1):
        left = ("const", a) if k == 1 else ("var", k - 2)
        right = ("const", b) if k == m else ("var", k - 1)
        arg_spec.append((left, right))
    n_i = _count_constrained_i(word.digit_levels, pairs, arg_spec)
    return Fraction(n_i * P ** _j_orbit_count(pairing), M**m)

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
``_orbits`` works them out for every pairing of the order at once, and
``_level_orbits`` keeps the table (one int8 per pairing) per (cycles,
swaps) for the process.  The j-orbits are ``_orbits`` with every letter a
cycle of its own and no swap; they are a column of the one
``_PairingTable`` per order, beside the pairings.  Pinned endpoints
(``segment_sum``) and the "fast" method count on
``perms.count_on_digit_levels``, the counter the permutation statistics
share, and read P's exponent from ``_orbits`` of the one pairing.  A mixed level
walks its radix^m grid once, chunk by chunk, on the letters reduced to that
radix, and counts every pairing row from the histogram of its points'
agreement masks (``perms.count_pairing_rows``): a word keeps the product
over its mixed levels per row of its order's table
(``WickWord.mixed_counts``, filled by the first pairing counted), and
``exact_trace_covariance``, the one sum over two trace cycles, makes the
pass over the connected rows it sums.  Words of ``I``, ``T``, ``G(b, d)``
and ``LG(b, d)`` thus cost (L/g)^m per mixed level, L and g the lcm and gcd
of the block sizes inside it, whatever M is; divisor-chain words have no
mixed level and build no grid.  A word with a ``D(file)``,
``P(file)``, composition or table letter is one mixed level of radix M.
The enumeration budget charges the sum of the mixed levels' grids once for
each pairing summed (an upper bound on the pass's mask tests), checked
before any count.  A moment's word has
at most ``MAX_WORD_LEN`` = 6 letters; a covariance's two words together are
held to the pairing enumeration's cap, ``partitions.MAX_PAIRING_ORDER`` = 8
letters.  These caps and the table cap have no override.

``count_admissible`` has three methods: "auto" (the digit levels; the only
one the moments and the covariance use), and two references the levels are
checked against: "fast" (the full i-grid as one mixed level of radix M) and
"naive" (the i- and j-grids walked chunk by chunk, testing each Wick pair
on the letters' images).  ``weight_support`` is the Wick weight of one
tuple, by its definition.
"""

from __future__ import annotations

import math
import operator
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
    Side,
    _iter_var_grid,
    check_budget,
    count_on_digit_levels,
    count_pairing_rows,
    digit_levels,
    orbit_labels,
)

#: default refusal threshold for enumeration grid sizes
DEFAULT_BUDGET = 2**32
#: cap on the length of a moment's word (pairing count grows like m!)
MAX_WORD_LEN = 6


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
    def mixed_counts(self) -> list[int]:
        """The mixed levels' count of every row of ``_pairing_table(m)``,
        one grid pass per level, shared by the counts of every pairing."""
        mixed = [level for level in self.digit_levels if type(level) is MixedLevel]
        return _mixed_row_counts(mixed, _cyclic_arg_spec(self.m), _pairing_table(self.m).fm)


@dataclass
class RationalMomentReport:
    """Exact mixed moment with its per-pairing decomposition: pairing pi
    contributes ``tuple_counts[pi]`` / M^(m+1)."""

    word: WickWord
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
    ``row`` maps a pairing's partner tuple to its row, and ``j_orbits`` gives
    each pairing's number of j-orbits: ``_orbits`` with every letter a cycle
    of its own and no swap, so the pair (t, f(t)) joins t and f(t).
    """

    def __init__(self, K: int):
        self.pairings = enumerate_bipartite_pairings(K)
        self.row = {p.partner: k for k, p in enumerate(self.pairings)}
        self.fm = np.array([p.factor_map() for p in self.pairings], dtype=np.int8) - 1
        self.j_orbits = _orbits(self.fm, (1,) * K, (False,) * K)


@lru_cache(maxsize=None)
def _pairing_table(K: int) -> _PairingTable:
    return _PairingTable(K)


def _orbits(fm: np.ndarray, cycles: tuple[int, ...], swaps: tuple[bool, ...]) -> np.ndarray:
    """Free orbits of the letters' variables, for each row f of the 0-based
    factor maps ``fm`` (int8, one entry per row).

    The letters run around the trace ``cycles`` in turn; letter t takes the
    arguments (i_t, i_next(t)) of its cycle and keeps or swaps their digits
    as ``swaps[t]`` says.  The pair (t, f(t)) equates coordinate 0 of letter
    t's image with coordinate 1 of letter f(t)'s, so it joins the variable
    that each takes: one edge per letter, one graph per row, all of them in
    one ``orbit_labels`` pass.
    """
    letters = np.arange(fm.shape[1])
    starts = np.cumsum((0,) + cycles[:-1])
    nxt = np.concatenate([np.roll(letters[a:a + c], -1) for a, c in zip(starts, cycles)])
    swaps = np.array(swaps, dtype=bool)
    coord0, coord1 = np.where(swaps, nxt, letters), np.where(swaps, letters, nxt)
    labels = orbit_labels(len(letters), np.broadcast_to(coord0, fm.shape), coord1[fm])
    orbits = np.count_nonzero(labels == letters, axis=1).astype(np.int8)
    orbits.flags.writeable = False
    return orbits


@lru_cache(maxsize=None)
def _level_orbits(cycles: tuple[int, ...], swaps: tuple[bool, ...]) -> np.ndarray:
    """``_orbits`` of a keep/swap level for every pairing of order sum(cycles).

    The level contributes radix^orbits, for any M and radix, so the table is
    kept per (cycles, swaps); there are at most 2^K swap patterns per cycle
    split.
    """
    return _orbits(_pairing_table(sum(cycles)).fm, cycles, swaps)


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


def _mixed_row_counts(mixed, arg_spec, fm) -> list[int]:
    """Each row's count on the ``mixed`` levels: the product of their
    ``perms.count_pairing_rows`` vectors, as Python ints."""
    counts = [1] * len(fm)
    for level in mixed:
        counts = [a * b for a, b in zip(counts, count_pairing_rows(level, arg_spec, fm).tolist())]
    return counts


def _j_orbit_count(pairing: Pairing) -> int:
    """Orbits of the factors under t ~ s for each pair (t, s), the exponent
    of P: ``_orbits`` of the pairing's factor map alone, for a count of one
    pairing at any order (no pairing table is built)."""
    m = pairing.m
    return int(_orbits(np.array([pairing.factor_map()]) - 1, (1,) * m, (False,) * m)[0])


def weight_support(pairing: Pairing, word: WickWord, i: tuple[int, ...],
                   j: tuple[int, ...]) -> bool:
    """Whether the Wick weight v(pi, sigmas, (i, j)) is nonzero (v = M^-m if so).

    ``i`` = (i_1..i_m) in [M]^m and ``j`` = (j_1..j_m) in [P]^m are the free
    coordinates; the dependent ones are forced, i_{-k} = i_{k+1}
    (cyclically) and j_{-k} = j_k.  Each letter is evaluated pointwise.
    """
    m = word.m
    if pairing.m != m or len(i) != m or len(j) != m:
        raise ValueError("pairing / tuple length does not match the word")
    M, P = word.shape.M, word.shape.P
    if any(not 1 <= x <= M for x in i) or any(not 1 <= x <= P for x in j):
        raise ValueError("index tuple out of range for the word shape")
    images = [p(i[k], i[(k + 1) % m]) for k, p in enumerate(word.perms)]
    return all(images[t - 1][0] == images[s - 1][1] and j[t - 1] == j[s - 1]
               for t, s in _factor_pairs(pairing))


def _count_constrained_i(levels, pairs, arg_spec) -> int:
    """Number of assignments of the i-variables satisfying all l-equalities.

    Each l_t = l_-s is the equality of image coordinate 0 of letter t and
    coordinate 1 of letter s, counted by ``perms.count_on_digit_levels`` on
    the word's digit ``levels`` (one mixed level of radix M for the whole
    i-grid), each mixed level by enumeration.
    """
    return count_on_digit_levels(levels, arg_spec,
                                 [((t - 1, 0), (s - 1, 1)) for t, s in pairs])


def _cyclic_arg_spec(m: int, offset: int = 0) -> list:
    """Arguments (i_k, i_{k+1}) of one trace cycle over variables offset..offset+m-1."""
    return [(("var", offset + k), ("var", offset + (k + 1) % m)) for k in range(m)]


def count_admissible(pairing: Pairing, word: WickWord, method: str = "auto",
                     budget: int | None = DEFAULT_BUDGET) -> int:
    """#A(pi, sigmas): admissible index tuples of the word under the pairing.

    Methods: "auto" counts the i-tuples on the word's digit levels; "fast"
    enumerates the whole i-grid; both multiply by P^(number of j-orbits).
    "naive" walks the i-grid and the j-grid chunk by chunk and tests every
    Wick pair on them directly.  "auto" reads the row of its order's pairing
    table and a mixed level's count from the word's ``mixed_counts``, which
    the first count fills for all m! pairings, so ``budget`` charges it m!
    times the sum of radix^m over the mixed levels (0, and never refused,
    for a divisor-chain word).  "fast", "naive" and "auto" above
    ``partitions.MAX_PAIRING_ORDER`` letters count the one pairing, take
    its j-orbits from ``_j_orbit_count`` and are charged M^m, (M P)^m and
    that sum.
    """
    m = word.m
    if pairing.m != m:
        raise ValueError("pairing order does not match word length")
    levels = _method_levels(word, method)
    per_pairing = method != "auto" or m > pts.MAX_PAIRING_ORDER
    check_budget(levels, m, budget, 1 if per_pairing else math.factorial(m))
    if method == "naive":
        return _count_admissible_naive(pairing, word)
    P = word.shape.P
    if per_pairing:  # the whole i-grid, or no table of this order
        return P ** _j_orbit_count(pairing) * _count_constrained_i(
            levels, _factor_pairs(pairing), _cyclic_arg_spec(m))
    table = _pairing_table(m)
    row = table.row[pairing.partner]
    tables, mixed = _keep_swap_orbits(levels, (m,))
    count = _row_count(P, table, row, tables)
    if mixed:
        count *= word.mixed_counts[row]
    return count


def _method_levels(word: WickWord, method: str) -> list:
    """The levels a count by ``method`` walks; for the budget, "naive"'s
    (i, j) grid is one level of radix M P."""
    M = word.shape.M
    if method == "auto":
        return word.digit_levels
    if method == "fast":
        return [MixedLevel(1, M, word.perms)]
    if method == "naive":
        return [MixedLevel(1, M * word.shape.P, ())]
    raise ValueError(f"unknown method {method!r}")


def _count_admissible_naive(pairing: Pairing, word: WickWord) -> int:
    """Direct enumeration of I(m) testing every Wick pair constraint, on the
    letters' images for l_t = l_-s and on the j-values for j_t = j_s.  The
    weight factors over disjoint (i, j) coordinates, so the joint count is
    the product of the i-count and the j-count, each grid walked in
    ``_iter_var_grid`` chunks."""
    m = word.m
    pairs = _factor_pairs(pairing)
    n_i = n_j = 0
    for cols in _iter_var_grid(m, word.shape.M):
        images = [p.eval_arrays(cols[k], cols[(k + 1) % m]) for k, p in enumerate(word.perms)]
        mask = np.ones(np.shape(cols[-1]), dtype=bool)
        for t, s in pairs:
            mask &= images[t - 1][0] == images[s - 1][1]
        n_i += int(np.count_nonzero(mask))
    for cols in _iter_var_grid(m, word.shape.P):
        mask = np.ones(np.shape(cols[-1]), dtype=bool)
        for t, s in pairs:
            mask &= cols[t - 1] == cols[s - 1]
        n_j += int(np.count_nonzero(mask))
    return n_i * n_j


def exact_mixed_moment(word: WickWord,
                       budget: int | None = DEFAULT_BUDGET) -> RationalMomentReport:
    """E tr(W^{sigma_1} ... W^{sigma_m}) as an exact rational, per pairing.

    The m! pairings share the word's ``mixed_counts``; ``budget`` is checked
    once, before any count, against m! times the grids.
    """
    m = word.m
    if m > MAX_WORD_LEN:
        cost = math.factorial(m)
        raise ResourceLimitError(
            f"{m} letters have {m}! = {cost} pairings, over the word-length cap of "
            f"{MAX_WORD_LEN} letters", cost)
    pairings = enumerate_bipartite_pairings(m)
    check_budget(word.digit_levels, m, budget, len(pairings))
    counts = {pi: count_admissible(pi, word, budget=None) for pi in pairings}
    return RationalMomentReport(word=word, tuple_counts=counts)


def exact_mixed_cumulant(word: WickWord, budget: int | None = DEFAULT_BUDGET) -> Fraction:
    """Multivariate free cumulant kappa_m of the word at finite (M, P).

    The recursion asks for the moment of each distinct subword once.
    """
    def moment(sub: tuple) -> Fraction:
        return exact_mixed_moment(WickWord(word.shape, sub), budget=budget).total

    return pts.moments_to_free_cumulants(moment, word.perms)


# ---------------------------------------------------------------------------
# trace covariance (unnormalized traces, connected pairings)
# ---------------------------------------------------------------------------

def _connected_rows(m: int, r: int) -> np.ndarray:
    """The rows of ``_pairing_table(m + r)`` whose pairings couple the two
    trace cycles: some factor of the first maps beyond it."""
    return np.flatnonzero((_pairing_table(m + r).fm[:, :m] >= m).any(axis=1))


def exact_trace_covariance(word1: WickWord, word2: WickWord,
                           budget: int | None = DEFAULT_BUDGET) -> Fraction:
    """Cov(Tr W^{sigmas}, Tr W^{taus}) with Tr the unnormalized trace.

    Equals M^-(m+r) times the admissible combined tuples of the two trace
    cycles, summed over the connected bipartite pairings of [2(m+r)] (those
    coupling the two cycles); more than ``partitions.MAX_PAIRING_ORDER``
    letters in all are refused.  Each mixed level makes one grid pass for
    all the rows summed, and ``budget`` is checked once against the number
    of rows times the grids.
    """
    if word1.shape != word2.shape:
        raise ValueError("words must share one matrix shape")
    m, r = word1.m, word2.m
    K, M, P = m + r, word1.shape.M, word1.shape.P
    levels = digit_levels(word1.perms + word2.perms)
    table = _pairing_table(K)
    rows = _connected_rows(m, r)
    check_budget(levels, K, budget, len(rows))
    tables, mixed = _keep_swap_orbits(levels, (m, r))
    counts = [_row_count(P, table, row, tables) for row in rows.tolist()]
    if mixed:
        arg_spec = _cyclic_arg_spec(m) + _cyclic_arg_spec(r, offset=m)
        counts = map(operator.mul, counts, _mixed_row_counts(mixed, arg_spec, table.fm[rows]))
    return Fraction(sum(counts), M**K)


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

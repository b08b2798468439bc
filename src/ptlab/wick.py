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
keep/swap level contributes radix^(free digit orbits), which depend only on
the pairing, the trace cycles and the level's swap pattern; ``_orbits``
works them out for many pairings at once.  The pairings of an order are the
rows of one ``_PairingTable``, arrays only: their factor maps, in the order
``enumerate_bipartite_pairings`` lists them, and j-orbits.  Pinned
endpoints (``segment_sum``) and the "fast" method count on
``perms.count_on_digit_levels``, the counter the permutation statistics
share, and read P's exponent from ``_orbits`` of the one pairing.

A moment and a covariance read one table of exponent groups
(``_exponent_groups``, kept per trace cycles and distinct swap patterns).
It picks its own rows of the order's table, all of them around one trace
cycle and the connected ones around two, and groups them by their vector
of j-orbits and each pattern's orbits on those rows.  Each group's value,
P and the radices raised to its exponents, is kept per (cycles, patterns,
P and radices) (``_group_values``).  The levels of a tuple of ``I``,
``T``, ``G`` and ``LG`` letters and their split into swap patterns,
radices and mixed levels are kept too (``_letter_levels``), levels only,
never a count, so neither the budget check nor a mixed level's grid pass
is skipped.  These three caches keep their ``CACHE_ENTRIES`` latest
entries each; the pairing tables, one per order, are kept for the process.
A mixed level walks its radix^m grid once, chunk by chunk, on the letters
reduced to that radix, and counts every row from the histogram of its
points' agreement masks (``perms.count_pairing_rows``).  One sum gives
every trace-cycle total (``_cycle_total``): the integer sum over groups of
the group's value times its size, or with mixed levels its rows' mixed
counts summed.  ``exact_trace_covariance`` takes it over two cycles, and a
cumulant over one cycle for each distinct subword, with no ``Pairing``
built and the noncrossing recursion run on ints.  ``exact_mixed_moment``
visits its m! pairings, each reading its row (the table's ``row`` map) of
the word's ``row_counts``.  Words of ``I``, ``T``, ``G(b, d)`` and
``LG(b, d)`` thus cost (L/g)^m per mixed level, L and g the lcm and gcd of
the block sizes inside it, whatever M is; divisor-chain words build no
grid.  A word with a ``D(file)``, ``P(file)``, composition or table letter
is one mixed level of radix M.  The enumeration budget charges the sum of
the mixed levels' grids once for each pairing summed (an upper bound on
the pass's mask tests), checked before any count.  A moment's word, or a
covariance's two words together, are held to the pairing cap,
``partitions.MAX_PAIRING_ORDER`` = 8 letters.  This cap and the table cap
have no override.

``count_admissible`` has three methods: "auto" (the digit levels; the only
one the moments and the covariance use), and two references the levels are
checked against: "fast" (the full i-grid as one mixed level of radix M) and
"naive" (the i- and j-grids walked chunk by chunk, testing each Wick pair
on the letters' images).  ``weight_support`` is the Wick weight of one
tuple, by its definition.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from . import partitions as pts
from .partitions import Pairing, enumerate_bipartite_pairings
from .perms import (
    EntryPermutation,
    Identity,
    MatrixShape,
    MixedLevel,
    PartialTranspose,
    Side,
    Transpose,
    _iter_var_grid,
    check_budget,
    count_on_digit_levels,
    count_pairing_rows,
    digit_levels,
    orbit_labels,
)

#: default refusal threshold for enumeration grid sizes
DEFAULT_BUDGET = 2**32

#: entries kept by each cache whose keys grow with the input: the letter
#: tuples' levels, the exponent groups and their values
CACHE_ENTRIES = 256


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

    @property
    def digit_levels(self) -> tuple:
        """``perms.digit_levels`` of the letters (``_letter_levels``)."""
        return _letter_levels(self.perms).levels

    @cached_property
    def row_counts(self) -> list[int]:
        """#A of every row of ``_pairing_table(m)``, shared by the counts of
        every pairing: its exponent group's P^(j-orbits) times each swap
        pattern's radix^orbits, times the row's count on each mixed level
        (one grid pass per level)."""
        _, patterns, radices, mixed = _letter_levels(self.perms)
        groups = _exponent_groups((self.m,), patterns)
        values = _group_values(groups, (self.shape.P,) + radices)
        counts = list(map(values.__getitem__, groups.group.tolist()))
        if mixed:  # the arguments are built only for a grid pass
            counts = _times_mixed_counts(counts, mixed, _cyclic_arg_spec(self.m), groups.fm)
        return counts


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
    """The bipartite pairings of order K as arrays, with no ``Pairing`` built.

    ``fm`` (int8, K! x K) lists the 0-based factor maps, the permutations of
    range(K) in lexicographic order: row k is the k-th pairing that
    ``enumerate_bipartite_pairings(K)`` lists, and an order it refuses is
    refused with its message before any row is listed.  ``j_orbits`` is
    each row's ``_orbits`` with every letter a cycle of its own and no swap.
    ``row``, partner tuple to row, is built from ``fm`` the first time a
    count of one ``Pairing`` reads it.
    """

    def __init__(self, K: int):
        pts.check_pairing_order(K)
        perms = itertools.chain.from_iterable(itertools.permutations(range(K)))
        self.fm = np.fromiter(perms, dtype=np.int8, count=K * math.factorial(K)).reshape(-1, K)
        self.j_orbits = _orbits(self.fm, (1,) * K, (False,) * K)

    @cached_property
    def row(self) -> dict[tuple[int, ...], int]:
        n, K = self.fm.shape  # pi(2t - 1) = 2 f(t) and pi(2 f(t)) = 2t - 1, 1-based
        partner = np.empty((n, 2 * K), dtype=np.int8)
        partner[:, 0::2] = 2 * self.fm + 2
        partner[np.arange(n)[:, None], 2 * self.fm + 1] = 2 * np.arange(K, dtype=np.int8) + 1
        return dict(zip(map(tuple, partner.tolist()), range(n)))


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


class LevelSplit(NamedTuple):
    """A letter tuple's ``perms.digit_levels``, its keep/swap levels' distinct
    swap ``patterns``, sorted, each one's radix (the product of its levels',
    which share its orbits) and its ``mixed`` levels."""

    levels: tuple
    patterns: tuple
    radices: tuple
    mixed: tuple


def _split_levels(levels) -> LevelSplit:
    """The ``LevelSplit`` of the digit ``levels``."""
    radices, mixed = {}, []
    for level in levels:
        if type(level) is MixedLevel:
            mixed.append(level)
        else:
            radices[level[2]] = radices.get(level[2], 1) * level[1]
    patterns = tuple(sorted(radices))
    return LevelSplit(tuple(levels), patterns, tuple(map(radices.__getitem__, patterns)),
                      tuple(mixed))


_CHAIN_KINDS = frozenset((Identity, Transpose, PartialTranspose))


def _letter_levels(perms: tuple) -> LevelSplit:
    """The ``LevelSplit`` of the letters.  A tuple of ``I``, ``T``, ``G`` and
    ``LG`` letters reads ``_chain_levels``; any other is one mixed level of
    radix M, returned at once without hashing its letters (a table letter's
    key holds its M x M tables)."""
    if _CHAIN_KINDS.issuperset(map(type, perms)):
        return _chain_levels(perms)
    return _split_levels(digit_levels(perms))


@lru_cache(maxsize=CACHE_ENTRIES)
def _chain_levels(perms: tuple) -> LevelSplit:
    """The ``LevelSplit`` of a chain-letter tuple, kept for the
    ``CACHE_ENTRIES`` latest tuples: the levels only, never a count."""
    return _split_levels(digit_levels(perms))


def _times_mixed_counts(counts: list[int], mixed, arg_spec, fm) -> list[int]:
    """``counts``, one per row of the factor maps ``fm``, times each
    ``mixed`` level's ``perms.count_pairing_rows`` vector, as Python ints."""
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
    Wick pair on them directly.  "auto" reads the pairing's row of the
    word's ``row_counts``, which the first count fills for all m! pairings,
    so ``budget`` charges it m! times the sum of radix^m over the mixed
    levels (0, and never refused, for a divisor-chain word); with no budget
    it reads no levels.  "fast", "naive" and "auto" above
    ``partitions.MAX_PAIRING_ORDER`` letters count the one pairing, take its
    j-orbits from ``_j_orbit_count`` and are charged M^m, (M P)^m and that
    sum.
    """
    m = word.m
    if pairing.m != m:
        raise ValueError("pairing order does not match word length")
    if method == "auto" and m <= pts.MAX_PAIRING_ORDER:
        if budget is not None:
            check_budget(word.digit_levels, m, budget, math.factorial(m))
        return word.row_counts[_pairing_table(m).row[pairing.partner]]
    levels = _method_levels(word, method)
    check_budget(levels, m, budget)
    if method == "naive":
        return _count_admissible_naive(pairing, word)
    # the whole i-grid, or no table of this order
    return word.shape.P ** _j_orbit_count(pairing) * _count_constrained_i(
        levels, _factor_pairs(pairing), _cyclic_arg_spec(m))


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

    The m! pairings read the word's ``row_counts``.  More than
    ``partitions.MAX_PAIRING_ORDER`` letters are refused by the pairing
    enumeration; ``budget`` is checked once, before any count, against m!
    times the grids.
    """
    pairings = enumerate_bipartite_pairings(word.m)
    check_budget(word.digit_levels, word.m, budget, len(pairings))
    counts = {pi: count_admissible(pi, word, budget=None) for pi in pairings}
    return RationalMomentReport(word=word, tuple_counts=counts)


def exact_mixed_cumulant(word: WickWord, budget: int | None = DEFAULT_BUDGET) -> Fraction:
    """Multivariate free cumulant kappa_m of the word at finite (M, P).

    The letters are interned as integer labels, equal letters sharing one,
    so the recursion's memo compares ints.  The recursion asks once for each
    distinct k-letter subword w's moment times M^(2k), the integer
    A(w) M^(k-1), A(w) = ``_cycle_total((k,), ...)``; each block product of
    the recursion then carries M^(2k) too, so it runs on ints and returns
    M^(2m) kappa_m.  No pairing is visited and no subword ``WickWord`` is
    built; a subword is refused as its moment would be.
    """
    M, P = word.shape.M, word.shape.P
    labels: dict[EntryPermutation, int] = {}
    letters = tuple(labels.setdefault(p, len(labels)) for p in word.perms)
    distinct = tuple(labels)

    def moment(sub: tuple) -> int:
        k = len(sub)
        return _cycle_total((k,), tuple(map(distinct.__getitem__, sub)), P, budget) * M ** (k - 1)

    return Fraction(pts.moments_to_free_cumulants(moment, letters), M ** (2 * word.m))


# ---------------------------------------------------------------------------
# trace-cycle totals (a moment's one cycle; a covariance's two, connected)
# ---------------------------------------------------------------------------

class _ExponentGroups:
    """The rows of one or two trace cycles grouped by exponent vector.

    ``fm`` holds the factor maps of the rows of ``_pairing_table(sum(cycles))``
    that the trace ``cycles`` sum: all of them for one cycle (m,), and for two
    (m, r) those coupling the cycles (some factor of the first maps beyond
    it).  Row k's exponent vector is its j-orbits, then its ``_orbits`` on
    these rows under each of the swap ``patterns``.  ``exponents`` lists the
    distinct vectors, in lexicographic order, ``group[k]`` is row k's index
    among them (in the smallest integer type that holds it) and ``sizes``
    counts each group's rows; none depends on M, P, a radix or a letter.
    """

    def __init__(self, cycles: tuple[int, ...], patterns: tuple[tuple[bool, ...], ...]):
        self.cycles, self.patterns = cycles, patterns
        table = _pairing_table(sum(cycles))
        self.fm, j_orbits = table.fm, table.j_orbits
        if len(cycles) > 1:  # the rows coupling the cycles
            coupled = (self.fm[:, :cycles[0]] >= cycles[0]).any(axis=1)
            self.fm, j_orbits = self.fm[coupled], j_orbits[coupled]
        columns = np.stack([j_orbits] + [_orbits(self.fm, cycles, swaps) for swaps in patterns],
                           axis=1)
        # every exponent lies in [0, K], so a row packs into one base-(K + 1)
        # key, j-orbits first, and the keys sort as the rows do.  A letter
        # switches between keep and swap only at its block size, so there
        # are at most K + 1 patterns, and 9^10 for K = 8 fits an int64
        base = sum(cycles) + 1
        keys = np.zeros(len(columns), dtype=np.int64)
        for column in columns.T:
            keys *= base
            keys += column
        _, first, group = np.unique(keys, return_index=True, return_inverse=True)
        self.group = group.astype(np.min_scalar_type(len(first)))
        self.exponents = [tuple(e) for e in columns[first].tolist()]
        self.sizes = np.bincount(self.group, minlength=len(first)).tolist()


@lru_cache(maxsize=CACHE_ENTRIES)
def _exponent_groups(cycles: tuple[int, ...],
                     patterns: tuple[tuple[bool, ...], ...]) -> _ExponentGroups:
    return _ExponentGroups(cycles, patterns)


_GROUP_VALUES: dict[tuple, tuple[int, ...]] = {}


def _group_values(groups: _ExponentGroups, bases: tuple[int, ...]) -> tuple[int, ...]:
    """One row's count over the keep/swap levels for each of the ``groups``:
    P^(j-orbits) times each swap pattern's radix^orbits, ``bases`` being
    (P,) then the patterns' radices.

    Kept by (cycles, patterns, bases), not by the groups object, which the
    group cache may drop and build again equal, for the ``CACHE_ENTRIES``
    latest keys (``_GROUP_VALUES``).
    """
    key = (groups.cycles, groups.patterns, bases)
    values = _GROUP_VALUES.get(key)
    if values is None:
        if len(_GROUP_VALUES) >= CACHE_ENTRIES:
            del _GROUP_VALUES[next(iter(_GROUP_VALUES))]  # the oldest key
        values = _GROUP_VALUES[key] = tuple(math.prod(map(pow, bases, exponents))
                                            for exponents in groups.exponents)
    return values


def _cycle_total(cycles: tuple[int, ...], letters: tuple, P: int, budget: int | None) -> int:
    """The admissible tuples summed over the rows of the trace ``cycles``
    (``_ExponentGroups``), the ``letters`` running around them in turn: the
    integer sum over exponent groups g of value_g (``_group_values``) times
    S_g, the group's row count, or with mixed levels its rows' mixed counts
    summed.  The pairing cap refuses first; then ``budget`` is checked once,
    against the number of rows times the grids, before any grid pass.
    """
    levels, patterns, radices, mixed = _letter_levels(letters)
    groups = _exponent_groups(cycles, patterns)
    check_budget(levels, len(letters), budget, len(groups.group))
    sizes = groups.sizes
    if mixed:
        sizes = [0] * len(sizes)
        arg_spec = sum(map(_cyclic_arg_spec, cycles, itertools.accumulate((0,) + cycles)), [])
        counts = _times_mixed_counts([1] * len(groups.group), mixed, arg_spec, groups.fm)
        for g, n in zip(groups.group.tolist(), counts):
            sizes[g] += n
    values = _group_values(groups, (P,) + radices)
    return sum(map(operator.mul, values, sizes))


def exact_trace_covariance(word1: WickWord, word2: WickWord,
                           budget: int | None = DEFAULT_BUDGET) -> Fraction:
    """Cov(Tr W^{sigmas}, Tr W^{taus}) with Tr the unnormalized trace.

    Equals M^-(m+r) times the admissible combined tuples of the two trace
    cycles, summed over the connected bipartite pairings of [2(m+r)] (those
    coupling the two cycles): ``_cycle_total((m, r), ...)``, by exponent
    group.  More than ``partitions.MAX_PAIRING_ORDER`` letters in all are
    refused, and ``budget`` is checked once, before any count, against the
    number of rows times the grids.
    """
    if word1.shape != word2.shape:
        raise ValueError("words must share one matrix shape")
    total = _cycle_total((word1.m, word2.m), word1.perms + word2.perms, word1.shape.P, budget)
    return Fraction(total, word1.shape.M ** (word1.m + word2.m))


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

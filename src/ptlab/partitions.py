"""Pair partitions, partition joins, noncrossing structure and the
moment/free-cumulant conversion on the noncrossing lattice.

Ground sets are [n] = {1, ..., n}.  A bipartite pairing of [2m] pairs odd
positions with even positions (k + pi(k) is odd); there are m! of them.
The noncrossing partitions of [m] are built from the block of 1 and the
intervals it leaves, in increasing order, so their blocks are canonical by
construction and ``enumerate_nc`` checks only that they cover [m].  Each
order up to ``MAX_NC_ORDER`` is built once and kept in one cache
(``_nc_blocks``), whose gaps are the cache's lower orders.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterable, Sequence

from .errors import ResourceLimitError

#: enumeration caps (factorial / Catalan growth)
MAX_PAIRING_ORDER = 8
MAX_NC_ORDER = 10


def _canonical_blocks(blocks: Iterable[Iterable[int]]) -> tuple[tuple[int, ...], ...]:
    bs = tuple(tuple(sorted(int(x) for x in b)) for b in blocks)
    return tuple(sorted(bs, key=lambda b: b[0]))


class Partition:
    """A set partition of [n] in canonical form (blocks sorted by minimum)."""

    def __init__(self, n: int, blocks: Iterable[Iterable[int]]):
        self._set(n, _canonical_blocks(blocks))

    @classmethod
    def _of_canonical(cls, n: int, blocks: tuple[tuple[int, ...], ...]) -> "Partition":
        """A partition from blocks already canonical; only the cover of [n] is checked."""
        p = cls.__new__(cls)
        p._set(n, blocks)
        return p

    def _set(self, n: int, blocks: tuple[tuple[int, ...], ...]) -> None:
        self.n = int(n)
        self.blocks = blocks
        seen = [x for b in blocks for x in b]
        if sorted(seen) != list(range(1, self.n + 1)):
            raise ValueError(f"blocks do not partition [1, {self.n}]: {blocks}")

    def __eq__(self, other):
        return isinstance(other, Partition) and (self.n, self.blocks) == (other.n, other.blocks)

    def __hash__(self):
        return hash((self.n, self.blocks))

    def __repr__(self):
        return "".join("{" + ",".join(map(str, b)) + "}" for b in self.blocks)


class Pairing:
    """A bipartite pair partition of [2m]: partner[k] = pi(k), 1-based.

    Invariants: pi is a fixed-point-free involution and k + pi(k) is odd.
    """

    def __init__(self, partner: Sequence[int]):
        partner = tuple(int(x) for x in partner)
        n = len(partner)
        if n == 0 or n % 2:
            raise ValueError("partner array must have even positive length")
        for k in range(1, n + 1):
            p = partner[k - 1]
            if not 1 <= p <= n or p == k or partner[p - 1] != k:
                raise ValueError(f"not a fixed-point-free involution at {k}")
            if (k + p) % 2 == 0:
                raise ValueError(f"pair ({k}, {p}) is not odd-even bipartite")
        self.partner = partner
        self.m = n // 2

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[int, int]]) -> "Pairing":
        pairs = list(pairs)
        n = 2 * len(pairs)
        partner = [0] * n
        for a, b in pairs:
            partner[a - 1] = b
            partner[b - 1] = a
        return cls(partner)

    def __call__(self, k: int) -> int:
        return self.partner[k - 1]

    def pairs(self) -> list[tuple[int, int]]:
        """The pairs as (odd position, even position)."""
        return [(k, self.partner[k - 1]) for k in range(1, 2 * self.m + 1, 2)]

    def factor_map(self) -> tuple[int, ...]:
        """The bijection f of [m] with pi(2t - 1) = 2 f(t)."""
        return tuple(self.partner[2 * t - 2] // 2 for t in range(1, self.m + 1))

    def blocks(self) -> tuple[tuple[int, ...], ...]:
        return _canonical_blocks((k, p) for k, p in self.pairs())

    def as_partition(self) -> Partition:
        return Partition(2 * self.m, self.blocks())

    def __eq__(self, other):
        return isinstance(other, Pairing) and self.partner == other.partner

    def __hash__(self):
        return hash(self.partner)

    def __repr__(self):
        ordered = sorted(tuple(sorted(p)) for p in self.pairs())
        return "".join(f"({a},{b})" for a, b in ordered)


def check_pairing_order(m: int) -> None:
    """Refuse an order m below 1, or above ``MAX_PAIRING_ORDER`` at cost m!."""
    if m < 1:
        raise ValueError("m must be >= 1")
    if m > MAX_PAIRING_ORDER:
        cost = math.factorial(m)
        raise ResourceLimitError(
            f"{m} letters have {m}! = {cost} pairings, over the pairing enumeration "
            f"cap of {MAX_PAIRING_ORDER} letters", cost)


def enumerate_bipartite_pairings(m: int) -> list[Pairing]:
    """All m! bipartite pairings of [2m], lexicographic in (pi(1), pi(3), ...)."""
    check_pairing_order(m)
    odds, evens = range(1, 2 * m + 1, 2), range(2, 2 * m + 1, 2)
    return [Pairing.from_pairs(zip(odds, images)) for images in itertools.permutations(evens)]


def delta(m: int) -> Pairing:
    """The interval pairing (1,2)(3,4)...(2m-1,2m) on [2m]."""
    return Pairing.from_pairs((2 * k - 1, 2 * k) for k in range(1, m + 1))


def nu1(m: int) -> Pairing:
    """The pairing (1, 2m), (2, 3), (4, 5), ..., (2m-2, 2m-1)."""
    if m < 1:
        raise ValueError("m must be >= 1")
    pairs = [(1, 2 * m)] + [(2 * k, 2 * k + 1) for k in range(1, m)]
    return Pairing.from_pairs(pairs)


def nu2(m: int) -> Pairing:
    """The pairing (1, 4), (3, 6), ..., (2m-3, 2m), (2m-1, 2); defined for m >= 3."""
    if m < 3:
        raise ValueError(f"nu2 requires m >= 3, got {m}")
    pairs = []
    for k in range(1, m + 1):
        a = 2 * k - 1
        b = (2 * k + 2) % (2 * m)
        b = b if b else 2 * m
        pairs.append((a, b))
    return Pairing.from_pairs(pairs)


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


def _blocks_of(p) -> tuple[tuple[int, ...], ...]:
    if isinstance(p, Partition):
        return p.blocks
    if isinstance(p, Pairing):
        return p.blocks()
    raise TypeError(f"expected Partition or Pairing, got {type(p)}")


def _ground_of(p) -> int:
    return p.n if isinstance(p, Partition) else 2 * p.m


def join(p, q) -> Partition:
    """Least common coarsening of two partitions of the same ground set."""
    n, nq = _ground_of(p), _ground_of(q)
    if n != nq:
        raise ValueError(f"ground set mismatch: {n} != {nq}")
    uf = _UnionFind(n + 1)
    for blocks in (_blocks_of(p), _blocks_of(q)):
        for b in blocks:
            for x in b[1:]:
                uf.union(b[0], x)
    groups: dict[int, list[int]] = {}
    for x in range(1, n + 1):
        groups.setdefault(uf.find(x), []).append(x)
    return Partition(n, groups.values())


def is_crossing(p) -> bool:
    """True iff some a < b < c < d has a, c in one block and b, d in another."""
    blocks = _blocks_of(p)
    for b1, b2 in itertools.combinations(blocks, 2):
        # merge the two sorted blocks; they cross iff the label run pattern
        # alternates at least 4 times (e.g. ABAB)
        merged = sorted([(x, 0) for x in b1] + [(x, 1) for x in b2])
        runs = 1
        for (_, l1), (_, l2) in zip(merged, merged[1:]):
            if l1 != l2:
                runs += 1
        if runs >= 4:
            return True
    return False


def segments(p) -> list[tuple[int, ...]]:
    """Blocks whose elements are consecutive integers."""
    return [b for b in _blocks_of(p) if b[-1] - b[0] == len(b) - 1]


def cyclic_segments(p) -> list[tuple[int, ...]]:
    """Blocks consecutive modulo n (the convention identifying n + q with q)."""
    n = _ground_of(p)
    out = []
    for b in _blocks_of(p):
        k = len(b)
        members = set(b)
        for start in b:
            if all((start - 1 + t) % n + 1 in members for t in range(k)):
                out.append(b)
                break
    return out


def enumerate_nc(m: int) -> list[Partition]:
    """All noncrossing partitions of [m]; there are Catalan(m) of them.

    The blocks come canonical from ``_nc_blocks``, so they are wrapped as
    they are, with only their cover of [m] checked.
    """
    if m < 0:
        raise ValueError("m must be >= 0")
    return [Partition._of_canonical(m, blocks) for blocks in _nc_blocks(m)]


@lru_cache(maxsize=None)
def _nc_blocks(m: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """The canonical blocks of each noncrossing partition of [m], built once
    per order; orders above ``MAX_NC_ORDER`` are refused.

    Recursive: the block of 1 is {1} U S; the gaps between its elements and
    the tail after its last element are intervals, partitioned independently
    (each gap's order is this cache's too).  The block of 1 comes first and
    the gaps follow in increasing order, each gap's blocks shifted by its
    start, so every partition is canonical by construction and none is
    sorted.  Under Python 3.11 ``tracemalloc`` reads about 1.9 MiB kept for
    the orders up to 9 (Catalan(9) = 4862 partitions), and order 10
    (Catalan(10) = 16796) adds about 4.1 MiB.
    """
    if m > MAX_NC_ORDER:
        raise ResourceLimitError(
            f"m = {m} exceeds the NC enumeration cap {MAX_NC_ORDER}", catalan(m))
    if m == 0:
        return ((),)
    shifted: dict[tuple[int, int], list] = {}

    def gap_parts(k: int, start: int) -> list:
        # a gap's shifted partitions, built once per (length, start)
        if (k, start) not in shifted:
            shifted[k, start] = [tuple(tuple(x + start for x in blk) for blk in blocks)
                                 for blocks in _nc_blocks(k)]
        return shifted[k, start]

    out = []
    for size in range(0, m):
        for comb in itertools.combinations(range(2, m + 1), size):
            first_block = (1,) + comb
            ends = first_block + (m + 1,)
            # an empty gap has one partition, with no blocks, so it is skipped
            gaps = [gap_parts(b - a - 1, a) for a, b in zip(ends, ends[1:]) if b > a + 1]
            for chosen in itertools.product(*gaps):
                out.append((first_block,) + tuple(itertools.chain.from_iterable(chosen)))
    return tuple(out)


def catalan(m: int) -> int:
    c = 1
    for k in range(m):
        c = c * 2 * (2 * k + 1) // (k + 2)
    return c


def hat(gamma: Partition) -> Partition:
    """Doubling embedding: block (t1, ..., tq) becomes (2t1-1, 2t1, ..., 2tq-1, 2tq)."""
    blocks = []
    for b in _blocks_of(gamma):
        blocks.append(tuple(x for t in b for x in (2 * t - 1, 2 * t)))
    return Partition(2 * _ground_of(gamma), blocks)


# ---------------------------------------------------------------------------
# moment <-> free cumulant conversion (multivariate, on ordered words)
# ---------------------------------------------------------------------------

def _subword(word: tuple, block: tuple[int, ...]) -> tuple:
    return tuple(word[t - 1] for t in block)


def moments_to_free_cumulants(moment: Callable[[tuple], Fraction], word: tuple) -> Fraction:
    """Free cumulant kappa(word) from a mixed-moment functional.

    ``moment`` maps an ordered tuple of labels to its moment; it is consulted
    once for every subword selected by a noncrossing block.  The recursion

        kappa_n(w) = m_n(w) - sum over gamma in NC(n), gamma != 1_n of
                     prod over blocks B of kappa_|B|(w[B])

    terminates because every proper noncrossing partition has blocks of size
    strictly less than n.  Moments may be ints, ``Fraction``s, floats or
    ndarrays: products start at the integer 1 and no moment is updated in
    place.
    """
    memo: dict[tuple, Fraction] = {}

    def kappa(w: tuple) -> Fraction:
        if w in memo:
            return memo[w]
        n = len(w)
        total = moment(w)
        if n > 1:
            for blocks in _nc_blocks(n):
                if len(blocks) == 1:
                    continue
                prod = 1
                for b in blocks:
                    prod = prod * kappa(_subword(w, b))
                total = total - prod
        memo[w] = total
        return total

    return kappa(tuple(word))


def free_cumulants_to_moments(cumulant: Callable[[tuple], Fraction], word: tuple) -> Fraction:
    """Mixed moment of ``word`` from a free-cumulant functional."""
    return free_moments(cumulant)(tuple(word))


def free_moments(cumulant: Callable[[tuple], Fraction]) -> Callable[[tuple], Fraction]:
    """The mixed-moment functional of a free-cumulant functional.

    The first-block recursion: m(w) sums, over the blocks V holding the
    first position, kappa(w[V]) times the moments of the gaps V leaves, which
    are intervals.  Moments and cumulants are memoized by subword across
    calls, so a word of length n costs 2^(n-1) terms per distinct subword
    (n subwords for a univariate word) instead of Catalan(n) partitions.
    """
    kappa: dict[tuple, Fraction] = {}
    memo: dict[tuple, Fraction] = {(): Fraction(1)}

    def moment(w: tuple) -> Fraction:
        if w in memo:
            return memo[w]
        n = len(w)
        total = Fraction(0)
        for size in range(n):
            for rest in itertools.combinations(range(1, n), size):
                block = (0,) + rest
                sub = tuple(w[t] for t in block)
                if sub not in kappa:
                    kappa[sub] = cumulant(sub)
                prod = kappa[sub]
                for a, b in zip(block, rest + (n,)):
                    if b > a + 1:
                        prod *= moment(w[a + 1:b])
                total += prod
        memo[w] = total
        return total

    return moment

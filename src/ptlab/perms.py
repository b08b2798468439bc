"""Entry permutations of matrix indices and their exact counting statistics.

An entry permutation is a bijection sigma of [M] x [M] (indices are 1-based
throughout the public API).  It acts on an M x M matrix A by

    (A^sigma)[i, j] = A[sigma(i, j)].

The two families that matter here are the block partial transpose
``PartialTranspose(b, d)`` (transpose each d x d block of a bd x bd matrix in
place) and its left variant (swap blocks without transposing them), together
with the counting statistics used by the freeness criteria:

* ``count_agreements(sigma, tau)``  -- number of (i, j) with sigma(i,j) = tau(i,j)
* ``count_joint(sigma, tau)``       -- number of (i, j, l) with sigma(i,j) = tau(i,l)
* ``count_image_triples``           -- triple counts comparing the full images
* ``count_projection_agreement``    -- triple counts comparing one coordinate of
  the two images over a shared index pattern

``digit_levels`` splits a word of ``I``, ``T`` and partial transposes into
mixed-radix digit levels.  On a keep/swap level every letter keeps or swaps
its two arguments' digits; on a mixed level, whose radix is the lcm over
the gcd of the block sizes inside it, the letters act as partial transposes
of that radix.  ``count_on_digit_levels`` is the one counter: it
multiplies the keep/swap levels' union-find counts by each mixed level's
count, for every statistic above and for i-counts with pinned indices.
A keep/swap level's orbits depend only on which image coordinates the
equalities join, so the Wick oracle counts them for every pairing at once:
``orbit_labels`` finds the connected components of many small graphs in one
numpy pass, and ``wick`` keeps one table of free-orbit counts per trace
cycles and swap pattern.  A mixed level enumerates its radix^variables grid
(the i-count; ``count_pairing_rows`` counts every pairing of a word in one
pass over it), or compares the image tables (c) or matches the rows of the
value tables (triples) of its reduced pair, up to the table cap.  A word
with a letter of another kind is one mixed level of radix M holding its
original letters; divisor-chain words have no mixed level.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

from .errors import ResourceLimitError
from .partitions import _UnionFind

#: Largest matrix side for which M^2-sized tables/grids are materialized.
MAX_TABLE_SIDE = 4096


class Side(enum.Enum):
    RIGHT = "right"
    LEFT = "left"


@dataclass(frozen=True)
class MatrixShape:
    """Shape parameters of a Wishart matrix: side M and inner dimension P."""

    M: int
    P: int

    def __post_init__(self):
        if self.M < 1 or self.P < 1:
            raise ValueError(f"shape parameters must be >= 1, got {self}")


def index_decompose(i: int, d: int) -> tuple[int, int]:
    """Split a 1-based index i = (alpha - 1) * d + beta into (alpha, beta).

    >>> index_decompose(7, 3)
    (3, 1)
    """
    if d < 1:
        raise ValueError("block size d must be >= 1")
    if i < 1:
        raise ValueError(f"index {i} out of range")
    return (i - 1) // d + 1, (i - 1) % d + 1


def _check_grid_side(M: int) -> None:
    if M > MAX_TABLE_SIDE:
        raise ResourceLimitError(
            f"a {M} x {M} table exceeds the table cap {MAX_TABLE_SIDE}", cost=M * M)


class EntryPermutation:
    """A bijection of [M]^2.  Subclasses define the map in ``eval_arrays``.

    Structured kinds evaluate in O(1) per lookup; only :class:`TablePermutation`
    stores the full M^2 image table.
    """

    M: int
    #: True for kinds whose image of (j, i) is the swap of their image of (i, j)
    _symmetric_by_construction = False

    def __call__(self, i: int, j: int) -> tuple[int, int]:
        """sigma(i, j) as Python ints: ``eval_arrays`` at the one point."""
        self._check_point(i, j)
        R, C = self.eval_arrays(np.int64(i), np.int64(j))
        return int(R), int(C)

    def eval_arrays(self, X: np.ndarray, Y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized evaluation on 1-based index arrays of equal shape."""
        raise NotImplementedError

    def key(self):
        """Hashable structural identity (not extensional equality)."""
        raise NotImplementedError

    def invert(self) -> "EntryPermutation":
        raise NotImplementedError

    # -- shared machinery ---------------------------------------------------

    def _check_point(self, i: int, j: int) -> None:
        if not (1 <= i <= self.M and 1 <= j <= self.M):
            raise ValueError(f"index ({i}, {j}) outside [1, {self.M}]^2")

    def image_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Full image grids (R, C) with (R[i-1, j-1], C[i-1, j-1]) = sigma(i, j).

        The letters are evaluated on a column and a row of int32 indices,
        and the grids are read-only views broadcast to M x M, so ``I``,
        ``T`` and ``D`` letters store two index vectors, not two tables.
        The structured kinds keep int32, so products of two entries need a
        wider type.
        """
        _check_grid_side(self.M)
        cached = getattr(self, "_image_cache", None)
        if cached is None:
            idx = np.arange(1, self.M + 1, dtype=np.int32)
            cached = tuple(np.broadcast_to(A, (self.M, self.M))
                           for A in self.eval_arrays(idx[:, None], idx[None, :]))
            self._image_cache = cached
        return cached

    def is_symmetric(self) -> bool:
        """True iff sigma commutes with the swap t(a, b) = (b, a).

        Only kinds not symmetric by construction build their image tables.
        """
        if self._symmetric_by_construction:
            return True
        R, C = self.image_arrays()
        return bool(np.array_equal(R.T, C))

    def __eq__(self, other):
        return isinstance(other, EntryPermutation) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())


class Identity(EntryPermutation):
    _symmetric_by_construction = True

    def __init__(self, M: int):
        if M < 1:
            raise ValueError("M must be >= 1")
        self.M = M

    def eval_arrays(self, X, Y):
        return X, Y

    def key(self):
        return ("identity", self.M)

    def invert(self):
        return self

    def __repr__(self):
        return f"Identity(M={self.M})"


class Transpose(EntryPermutation):
    _symmetric_by_construction = True

    def __init__(self, M: int):
        if M < 1:
            raise ValueError("M must be >= 1")
        self.M = M

    def eval_arrays(self, X, Y):
        return Y, X

    def key(self):
        return ("transpose", self.M)

    def invert(self):
        return self

    def __repr__(self):
        return f"Transpose(M={self.M})"


class PartialTranspose(EntryPermutation):
    """The (b, d) block partial transpose, or its left variant.

    With i = (a1 - 1) d + b1 and j = (a2 - 1) d + b2 the right version maps

        (i, j) |-> ((a1 - 1) d + b2, (a2 - 1) d + b1),

    i.e. it transposes each d x d block in place.  The left version evaluates
    the right version at the swapped point, (i, j) |-> Gamma(j, i), which at
    the matrix level is the full transpose of the partially transposed matrix
    (blocks swapped, block interiors untouched).
    """

    _symmetric_by_construction = True

    def __init__(self, b: int, d: int, side: Side = Side.RIGHT):
        if b < 1 or d < 1:
            raise ValueError(f"block parameters must be >= 1, got b={b}, d={d}")
        self.b, self.d, self.side = b, d, side
        self.M = b * d

    def __call__(self, i, j):
        # the paper's definition, kept next to the shift form of eval_arrays
        self._check_point(i, j)
        if self.side is Side.LEFT:
            i, j = j, i
        d = self.d
        a1, b1 = index_decompose(i, d)
        a2, b2 = index_decompose(j, d)
        return (a1 - 1) * d + b2, (a2 - 1) * d + b1

    def eval_arrays(self, X, Y):
        if self.side is Side.LEFT:
            X, Y = Y, X
        # the images swap the in-block offsets (X - 1) % d and (Y - 1) % d;
        # one shift array and no block-number arrays keep the temporaries few
        d = self.d
        shift = (Y - 1) % d - (X - 1) % d
        return X + shift, Y - shift

    def key(self):
        return ("pt", self.b, self.d, self.side.value)

    def invert(self):
        # both the right and the left version are involutions
        return self

    def __repr__(self):
        tag = "G" if self.side is Side.RIGHT else "LG"
        return f"{tag}({self.b},{self.d})"


class InducedDiagonal(EntryPermutation):
    """sigma(i, j) = (theta(i), theta(j)) for a point permutation theta of [M]."""

    _symmetric_by_construction = True

    def __init__(self, theta: Iterable[int]):
        theta = tuple(int(t) for t in theta)
        if sorted(theta) != list(range(1, len(theta) + 1)):
            raise ValueError("theta is not a permutation of [M] (1-based)")
        self.theta = theta
        self.M = len(theta)
        self._arr = np.asarray(theta, dtype=np.int64)

    def eval_arrays(self, X, Y):
        return self._arr[X - 1], self._arr[Y - 1]

    def key(self):
        return ("diag", self.theta)

    def invert(self):
        inv = [0] * self.M
        for k, t in enumerate(self.theta, start=1):
            inv[t - 1] = k
        return InducedDiagonal(inv)

    def __repr__(self):
        return f"InducedDiagonal(M={self.M})"


class TablePermutation(EntryPermutation):
    """Explicit tabulated bijection of [M]^2; bijectivity checked exhaustively."""

    def __init__(self, R: np.ndarray, C: np.ndarray):
        R = np.asarray(R, dtype=np.int64)
        C = np.asarray(C, dtype=np.int64)
        if R.shape != C.shape or R.ndim != 2 or R.shape[0] != R.shape[1]:
            raise ValueError("image tables must be two square arrays of equal shape")
        M = R.shape[0]
        _check_grid_side(M)
        enc = (R - 1) * M + (C - 1)
        if enc.min() < 0 or enc.max() >= M * M or np.unique(enc).size != M * M:
            raise ValueError("image table is not a bijection of [M]^2")
        self.M = M
        self._R = R
        self._C = C

    @classmethod
    def from_mapping(cls, M: int, mapping: dict) -> "TablePermutation":
        R = np.zeros((M, M), dtype=np.int64)
        C = np.zeros((M, M), dtype=np.int64)
        if len(mapping) != M * M:
            raise ValueError(f"mapping must define all {M * M} images")
        for (i, j), (u, v) in mapping.items():
            if not all(1 <= x <= M for x in (i, j, u, v)):
                raise ValueError(f"mapping entry ({i}, {j}) -> ({u}, {v}) is outside [1, {M}]")
            R[i - 1, j - 1] = u
            C[i - 1, j - 1] = v
        return cls(R, C)

    def eval_arrays(self, X, Y):
        return self._R[X - 1, Y - 1], self._C[X - 1, Y - 1]

    def image_arrays(self):
        return self._R, self._C

    def key(self):
        return ("table", self.M, self._R.tobytes(), self._C.tobytes())

    def invert(self):
        M = self.M
        R2 = np.zeros((M, M), dtype=np.int64)
        C2 = np.zeros((M, M), dtype=np.int64)
        src_i, src_j = np.meshgrid(
            np.arange(1, M + 1, dtype=np.int64),
            np.arange(1, M + 1, dtype=np.int64),
            indexing="ij",
        )
        R2[self._R - 1, self._C - 1] = src_i
        C2[self._R - 1, self._C - 1] = src_j
        return TablePermutation(R2, C2)

    def __repr__(self):
        return f"TablePermutation(M={self.M})"


class Composition(EntryPermutation):
    """Composite permutation; perms[0] is applied last (outermost)."""

    def __init__(self, perms: Iterable[EntryPermutation]):
        perms = tuple(perms)
        if not perms:
            raise ValueError("empty composition")
        M = perms[0].M
        if any(p.M != M for p in perms):
            raise ValueError("composition requires a common M")
        self.perms = perms
        self.M = M

    def eval_arrays(self, X, Y):
        for p in reversed(self.perms):
            X, Y = p.eval_arrays(X, Y)
        return X, Y

    def key(self):
        return ("comp",) + tuple(p.key() for p in self.perms)

    def invert(self):
        return Composition([p.invert() for p in reversed(self.perms)])

    def __repr__(self):
        return "Composition(" + ", ".join(repr(p) for p in self.perms) + ")"


def compose(outer: EntryPermutation, inner: EntryPermutation) -> EntryPermutation:
    """The permutation evaluating outer(inner(i, j))."""
    if outer.M != inner.M:
        raise ValueError(f"dimension mismatch: {outer.M} != {inner.M}")
    return Composition([outer, inner])


def invert(perm: EntryPermutation) -> EntryPermutation:
    return perm.invert()


def extensionally_equal(p: EntryPermutation, q: EntryPermutation) -> bool:
    """Pointwise equality of two permutations (exhaustive over [M]^2)."""
    if p.M != q.M:
        return False
    Rp, Cp = p.image_arrays()
    Rq, Cq = q.image_arrays()
    return bool(np.array_equal(Rp, Rq) and np.array_equal(Cp, Cq))


def apply(perm: EntryPermutation, A: np.ndarray) -> np.ndarray:
    """Permuted matrix A^sigma with (A^sigma)[i, j] = A[sigma(i, j)]."""
    A = np.asarray(A)
    if A.shape[-2:] != (perm.M, perm.M):
        raise ValueError(f"matrix shape {A.shape} does not match M = {perm.M}")
    R, C = perm.image_arrays()
    return A[..., R - 1, C - 1]


def gather_indices(perm: EntryPermutation) -> tuple[np.ndarray, np.ndarray]:
    """0-based (row, col) gather arrays such that A[rows, cols] = A^sigma."""
    R, C = perm.image_arrays()
    return np.subtract(R, 1, dtype=np.intp), np.subtract(C, 1, dtype=np.intp)


# ---------------------------------------------------------------------------
# digit levels
# ---------------------------------------------------------------------------

#: flattened chunk size for vectorized index grids
_CHUNK = 1 << 21


class MixedLevel(NamedTuple):
    """A digit level on which the word acts as its reduced ``letters``,
    entry permutations of [radix]^2.

    The digit of a 0-based index x here is (x // base) % radix.
    """

    base: int
    radix: int
    letters: tuple


def _level_cuts(sizes: set[int]) -> list[int]:
    """The level boundaries of a word with these sizes (1 and M among them).

    A divisor of M that divides or is divisible by every size splits the
    sizes into those that divide it, which are the smallest ones, and those
    it divides.  So each split of the sorted sizes whose first part's lcm
    divides the second part's gcd gives two boundaries, that lcm and that
    gcd; any other such divisor lies between them, where no size is, and
    would only split a keep/swap level.
    """
    ordered = sorted(sizes)
    cuts = set()
    for j in range(1, len(ordered)):
        lo, hi = math.lcm(*ordered[:j]), math.gcd(*ordered[j:])
        if hi % lo == 0:
            cuts |= {lo, hi}
    return sorted(cuts)


def digit_levels(perms) -> list:
    """Mixed-radix digit levels of a word, each handled on its own.

    The level boundaries 1 = c_0 < c_1 < ... < c_K = M are divisors of M
    that divide or are divisible by every size in {1, M, the block size d of
    every partial transpose} (``_level_cuts``); each c_k divides c_{k+1}.
    A 0-based index x has the digit (x // c_k) % (c_{k+1} / c_k) at level
    k, and each letter maps the level-k digits of its arguments to the
    level-k digits of its image, so a count is the product of the levels'
    counts.

    A level with no size strictly inside it is a keep/swap level, returned as
    (base c_k, radix c_{k+1} / c_k, swaps) with swaps[t] True iff letter t
    swaps its two digits there: ``I`` keeps at every level and ``T`` swaps;
    ``G(b, d)`` swaps below d and keeps above it, ``LG(b, d)`` keeps below d
    and swaps above it.  A level (lo, hi) with sizes inside it is a
    :class:`MixedLevel` of radix hi / lo: a letter with lo < d < hi acts on
    its digits as ``G(hi / d, d / lo)`` (or ``LG``), every other letter as
    ``I`` or ``T``.  Divisor-chain words have keep/swap levels only.  A word
    with a letter of another kind is one mixed level of radix M holding the
    original letters.
    """
    M = perms[0].M
    sizes = {1, M}
    for p in perms:
        if isinstance(p, PartialTranspose):
            sizes.add(p.d)
        elif not isinstance(p, (Identity, Transpose)):
            return [MixedLevel(1, M, tuple(perms))]
    cuts = _level_cuts(sizes)
    inner = sizes.difference(cuts)
    levels = []
    for lo, hi in zip(cuts, cuts[1:]):
        # whether each letter swaps its arguments' digits here, were no
        # size inside the level
        swaps = []
        for p in perms:
            if isinstance(p, PartialTranspose):
                below = hi <= p.d
                swaps.append(below if p.side is Side.RIGHT else not below)
            else:
                swaps.append(isinstance(p, Transpose))
        if inner and any(lo < s < hi for s in inner):
            levels.append(MixedLevel(lo, hi // lo, tuple(
                _reduced(p, lo, hi, swap) for p, swap in zip(perms, swaps))))
        else:
            levels.append((lo, hi // lo, tuple(swaps)))
    return levels


def _reduced(p: EntryPermutation, lo: int, hi: int, swaps: bool) -> EntryPermutation:
    """The action of a letter on its digits at the mixed level (lo, hi): a
    partial transpose of side hi / lo if its size lies inside, else I or T as
    ``swaps`` says; the letter itself when the level is the whole index, so
    that its cached image tables serve."""
    radix = hi // lo
    if radix == p.M:
        return p
    if isinstance(p, PartialTranspose) and lo < p.d < hi:
        return PartialTranspose(hi // p.d, p.d // lo, p.side)
    return Transpose(radix) if swaps else Identity(radix)


def _n_vars(arg_spec) -> int:
    return 1 + max((v for a, b in arg_spec for kind, v in (a, b) if kind == "var"),
                   default=-1)


def _iter_var_grid(n_vars: int, M: int):
    """Yield 1-based value arrays (one per variable) covering [M]^n_vars."""
    if n_vars == 0:
        yield []
        return
    inner = n_vars
    while inner > 1 and M**inner > _CHUNK:
        inner -= 1
    outer = n_vars - inner
    inner_grid = np.indices((M,) * inner, dtype=np.int32).reshape(inner, -1)
    inner_grid += 1
    for outer_vals in itertools.product(range(1, M + 1), repeat=outer):
        cols = [np.int64(v) for v in outer_vals]
        cols += [inner_grid[k] for k in range(inner)]
        yield cols


def _grid_images(perms, cols, arg_spec) -> list:
    """Each letter's pair of image arrays at the grid points ``cols``."""
    def resolve(spec):
        kind, v = spec
        return np.asarray(cols[v] if kind == "var" else np.int64(v))

    return [p.eval_arrays(resolve(a), resolve(b)) for p, (a, b) in zip(perms, arg_spec)]


def _count_by_enumeration(perms, M: int, arg_spec, equalities) -> int:
    """Assignments of the variables, over [M], meeting every image equality
    (see ``count_on_digit_levels`` for ``arg_spec`` and ``equalities``), by
    enumerating the grid chunk by chunk.  With no variables (all arguments
    pinned) the chunk's mask is a scalar."""
    count = 0
    for cols in _iter_var_grid(_n_vars(arg_spec), M):
        images = _grid_images(perms, cols, arg_spec)
        mask = None
        for (t, x), (s, y) in equalities:
            cond = images[t][x] == images[s][y]
            mask = cond if mask is None else (mask & cond)
        count += int(np.count_nonzero(mask))
    return count


def count_pairing_rows(level: MixedLevel, arg_spec, fm: np.ndarray) -> np.ndarray:
    """The count of a mixed level for every pairing row at once.

    Row g of the factor maps ``fm`` (rows x K, 0-based) asks for the points
    of the level's grid [radix]^variables at which image coordinate 0 of
    each letter t equals coordinate 1 of letter fm[g, t]; ``arg_spec`` gives
    the letters' variable arguments.  One pass over the grid, chunk by
    chunk, packs each point's K x K agreement bits into one uint64 (bit
    t K + s for coordinate 0 of t against coordinate 1 of s; K <= 8) and
    keeps a histogram of the distinct masks.  A mask admits a row iff it
    holds all of the row's bits (t, fm[g, t]).  Each row of ``fm`` is a
    permutation of [K], so its bits meet every row and every column of the
    K x K bit matrix: a mask that misses a whole row or column admits no row
    and is dropped before the masks x rows test, which runs about ``_CHUNK``
    cells at a time.  Returns one int64 count per row, each equal to
    ``_count_by_enumeration`` of that row's equalities.
    """
    _, radix, letters = level
    K = len(letters)
    shifts = np.arange(K * K, dtype=np.uint64).reshape(K, K)
    masks, counts = [], []
    for cols in _iter_var_grid(_n_vars(arg_spec), radix):
        images = _grid_images(letters, cols, arg_spec)
        mask = np.zeros(np.shape(cols[-1]), dtype=np.uint64)
        for t in range(K):
            for s in range(K):
                mask |= (images[t][0] == images[s][1]).astype(np.uint64) << shifts[t, s]
        chunk_masks, chunk_counts = np.unique(mask, return_counts=True)
        masks.append(chunk_masks)
        counts.append(chunk_counts)
    masks, inverse = np.unique(np.concatenate(masks), return_inverse=True)
    hist = np.zeros(len(masks), dtype=np.int64)
    np.add.at(hist, inverse, np.concatenate(counts))
    bits = np.uint64(1) << shifts
    lines = np.concatenate([np.bitwise_or.reduce(bits, axis=1),
                            np.bitwise_or.reduce(bits, axis=0)])
    want = np.bitwise_or.reduce(bits[np.arange(K), fm], axis=1)
    out = np.zeros(len(fm), dtype=np.int64)
    step = max(1, _CHUNK // max(len(fm), len(lines)))
    for a in range(0, len(masks), step):
        chunk = masks[a:a + step]
        live = ((chunk[:, None] & lines) != 0).all(axis=1)
        out += hist[a:a + step][live] @ ((chunk[live, None] & want) == want)
    return out


def check_budget(levels, n_vars: int, budget: int | None, pairings: int = 1) -> None:
    """Refuse counts whose mixed levels' grids, radix^n_vars each and
    enumerated one level at a time, sum past ``budget`` (None: no cap) once
    for each of ``pairings`` pairings.  For the one pass of
    ``count_pairing_rows`` that is an upper bound on its mask tests
    (distinct masks, at most the points, times the pairings), on top of
    walking the grid once."""
    radices = [level.radix for level in levels if type(level) is MixedLevel]
    if radices and budget is not None:  # chains: nothing to check
        grid = sum(r**n_vars for r in radices)
        cost = pairings * grid
        if cost > budget:
            terms = f"{' + '.join(f'{r}^{n_vars}' for r in radices)} = {grid}"
            if pairings > 1:
                terms = f"{pairings} pairings x ({terms}) = {cost}"
            raise ResourceLimitError(f"enumeration cost {terms} exceeds budget {budget}", cost)


def orbit_labels(n_nodes: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Connected components of many graphs on the nodes 0..n_nodes-1 at once.

    Row g of the edge arrays ``u`` and ``v`` (graphs x edges) holds graph g's
    edges u[g, e] -- v[g, e].  Returns the (graphs, n_nodes) labels: each
    node gets the least node of its component.  The graphs are laid side by
    side on one flat label array; each round hooks the larger root of every
    edge whose ends differ onto the smaller (``np.minimum.at``), then pointer
    jumping makes every label a root again.  Labels only decrease and stay
    within their component, so the rounds end, with the least node as root.
    """
    graphs = u.shape[0]
    offset = np.arange(0, graphs * n_nodes, n_nodes)[:, None]
    u, v = (u + offset).ravel(), (v + offset).ravel()
    labels = np.arange(graphs * n_nodes)
    while True:
        lu, lv = labels[u], labels[v]
        if np.array_equal(lu, lv):
            return labels.reshape(graphs, n_nodes) - offset
        np.minimum.at(labels, np.maximum(lu, lv), np.minimum(lu, lv))
        while not np.array_equal(jumped := labels[labels], labels):
            labels = jumped


def count_on_digit_levels(levels, arg_spec, equalities,
                          count_mixed=_count_by_enumeration) -> int:
    """Assignments of the variables, over [M], meeting every image equality.

    ``arg_spec`` gives each letter's two arguments, ("var", k) or ("const",
    v); ``equalities`` pairs ((letter, coord), (letter, coord)) of image
    coordinates (0 or 1) that must agree.  The count is the product of the
    counts of the letters' ``levels`` (``digit_levels``).  At a keep/swap
    level an image coordinate takes one argument's digit, so an equality
    joins two nodes (variables or constant digits); an orbit with two
    different constant digits admits nothing, otherwise the level
    contributes radix^(orbits of variables with no constant).  A mixed level
    contributes ``count_mixed(letters, radix, arg_spec, equalities)`` with
    each constant replaced by its 1-based digit there; by default its grid
    radix^variables is enumerated (``check_budget`` bounds that work).
    """
    n_vars = _n_vars(arg_spec)
    count = 1
    for level in levels:
        if isinstance(level, MixedLevel):
            base, radix, letters = level
            digits = [tuple(a if a[0] == "var" else ("const", (a[1] - 1) // base % radix + 1)
                            for a in args) for args in arg_spec]
            count *= count_mixed(letters, radix, digits, equalities)
            if not count:
                return 0
            continue
        base, radix, swaps = level
        const_nodes: dict[int, int] = {}

        def node(spec):
            kind, v = spec
            if kind == "var":
                return v
            return const_nodes.setdefault((v - 1) // base % radix,
                                          n_vars + len(const_nodes))

        # image coordinate x of letter t takes the digit of argument x, or of
        # the other argument where the letter swaps
        uf = _UnionFind(n_vars + 2 * len(arg_spec))
        for (t, x), (s, y) in equalities:
            uf.union(node(arg_spec[t][x ^ swaps[t]]), node(arg_spec[s][y ^ swaps[s]]))
        pinned = {uf.find(z) for z in const_nodes.values()}
        if len(pinned) < len(const_nodes):
            return 0
        count *= radix ** len({uf.find(v) for v in range(n_vars)} - pinned)
    return count


# ---------------------------------------------------------------------------
# counting statistics
# ---------------------------------------------------------------------------

#: the variables of sigma's and tau's arguments per triple pattern: (i, j)
#: and (i, l), (j, l) or (k, j), with i, j and l or k the variables 0, 1, 2
_PATTERNS = {"share_first": ((0, 1), (0, 2)), "share_middle": ((0, 1), (1, 2)),
             "share_second_slot": ((0, 1), (2, 1))}
#: the image coordinates each projection compares
_PROJECTIONS = {"first": (0,), "second": (1,), "both": (0, 1)}


def _check_same_M(sigma: EntryPermutation, tau: EntryPermutation) -> None:
    if sigma.M != tau.M:
        raise ValueError(f"dimension mismatch: {sigma.M} != {tau.M}")


def _encode(R: np.ndarray, C: np.ndarray, M: int) -> np.ndarray:
    return (R - 1) * M + (C - 1)


def _pair_statistic(sigma, tau, args, left_proj, right_proj, count_tables) -> int:
    """A statistic of a pair whose letters take the variables ``args``: one
    equality per compared pair of image coordinates, counted on the pair's
    digit levels.  A mixed level applies ``count_tables`` to its two letters."""
    _check_same_M(sigma, tau)
    arg_spec = [(("var", a), ("var", b)) for a, b in args]
    equalities = [((0, x), (1, y))
                  for x, y in zip(_PROJECTIONS[left_proj], _PROJECTIONS[right_proj])]
    return count_on_digit_levels(digit_levels((sigma, tau)), arg_spec, equalities,
                                 lambda letters, *_: count_tables(*letters))


def count_agreements(sigma: EntryPermutation, tau: EntryPermutation) -> int:
    """The statistic c: number of (i, j) in [M]^2 with sigma(i,j) = tau(i,j).

    Counted on the pair's digit levels; a mixed level compares the image
    tables of its reduced pair.
    """
    return _pair_statistic(sigma, tau, ((0, 1), (0, 1)), "both", "both",
                           _count_agreements_table)


def _count_agreements_table(sigma: EntryPermutation, tau: EntryPermutation) -> int:
    Rs, Cs = sigma.image_arrays()
    Rt, Ct = tau.image_arrays()
    return int(np.count_nonzero((Rs == Rt) & (Cs == Ct)))


def count_fixed_points(perm: EntryPermutation) -> int:
    """Number of (i, j) with perm(i, j) = (i, j).

    Agreements of sigma and tau equal the fixed points of
    compose(invert(sigma), tau); both formulations of the freeness criterion
    are exposed so they can be cross-checked.
    """
    return count_agreements(perm, Identity(perm.M))


def count_joint(sigma: EntryPermutation, tau: EntryPermutation) -> int:
    """The statistic j: number of (i, j, l) in [M]^3 with sigma(i,j) = tau(i,l).

    The ``share_first`` image-triple count: on the pair's digit levels j = c
    at every keep/swap level; a mixed level matches the encoded images of
    its reduced pair row by row, the rows keyed by the shared first argument.
    """
    return _count_triples(sigma, tau, "share_first", "both", "both")


def _count_triples(sigma, tau, pattern, left_proj, right_proj) -> int:
    """Triples of the pattern on which the projected images of sigma and tau
    agree, counted on the pair's digit levels; a mixed level matches the
    rows of its reduced pair's value tables."""
    if pattern not in _PATTERNS:
        raise ValueError(f"unknown pattern {pattern!r}")
    if left_proj not in _PROJECTIONS or right_proj not in _PROJECTIONS:
        raise ValueError(f"unknown projection {left_proj!r}/{right_proj!r}")
    return _pair_statistic(
        sigma, tau, _PATTERNS[pattern], left_proj, right_proj,
        lambda s, t: _count_matched_rows(
            *_triple_value_tables(s, t, pattern, left_proj, right_proj)))


def _triple_value_tables(sigma, tau, pattern, left_proj, right_proj):
    """Value tables VL[s, f], VR[s, f] indexed by (shared index, free index)."""
    M = sigma.M
    _check_grid_side(M)
    idx = np.arange(1, M + 1, dtype=np.int64)
    S, F = np.meshgrid(idx, idx, indexing="ij")
    left_args, right_args = _PATTERNS[pattern]
    shared = (set(left_args) & set(right_args)).pop()

    def table(perm, args, proj):
        R, C = perm.eval_arrays(*(S if v == shared else F for v in args))
        return R if proj == "first" else C if proj == "second" else _encode(R, C, M)

    return table(sigma, left_args, left_proj), table(tau, right_args, right_proj)


def _count_matched_rows(VL: np.ndarray, VR: np.ndarray) -> int:
    """Number of (s, f, g) with VL[s, f] == VR[s, g].

    Each entry is keyed by (row, value) as one integer; the count sums, over
    the keys on both sides, the product of their multiplicities.
    """
    lo = min(int(VL.min()), int(VR.min()))
    span = max(int(VL.max()), int(VR.max())) - lo + 1
    rows = np.arange(VL.shape[0], dtype=np.int64)[:, None] * span
    kl, nl = np.unique(rows + (VL - lo), return_counts=True)
    kr, nr = np.unique(rows + (VR - lo), return_counts=True)
    _, il, ir = np.intersect1d(kl, kr, assume_unique=True, return_indices=True)
    return int(np.dot(nl[il], nr[ir]))


def count_projection_agreement(sigma: EntryPermutation, tau: EntryPermutation,
                               left_proj: str, right_proj: str, pattern: str) -> int:
    """Triples where one coordinate of sigma's image equals one of tau's.

    ``pattern`` fixes the argument sharing: ``share_first`` tests
    sigma(i,j) vs tau(i,l), ``share_middle`` sigma(i,j) vs tau(j,l), and
    ``share_second_slot`` sigma(i,j) vs tau(k,j).  ``left_proj``/``right_proj``
    in {"first", "second"} select the compared coordinates.
    """
    if left_proj == "both" or right_proj == "both":
        raise ValueError("use count_image_triples for full-image comparison")
    return _count_triples(sigma, tau, pattern, left_proj, right_proj)


def count_image_triples(sigma: EntryPermutation, tau: EntryPermutation,
                        pattern: str) -> int:
    """Triples where the full images agree under the given sharing pattern.

    ``share_first`` recovers the statistic j = count_joint.
    """
    return _count_triples(sigma, tau, pattern, "both", "both")


@dataclass(frozen=True)
class LcmData:
    """Q = lcm(d, D) = d_min * L = d_max * ell, computed on the sorted pair."""

    Q: int
    L: int
    ell: int


def gamma_lcm_data(d: int, D: int) -> LcmData:
    """Least-common-multiple data of two inner block sizes.

    >>> gamma_lcm_data(2, 3)
    LcmData(Q=6, L=3, ell=2)
    """
    if d < 1 or D < 1:
        raise ValueError("block sizes must be positive")
    lo, hi = sorted((d, D))
    Q = math.lcm(lo, hi)
    return LcmData(Q=Q, L=Q // lo, ell=Q // hi)


def all_partial_transposes(M: int, side: Side = Side.RIGHT) -> list[PartialTranspose]:
    """Every PartialTranspose(b, d, side) with b * d = M, ordered by d."""
    out = []
    for d in range(1, M + 1):
        if M % d == 0:
            out.append(PartialTranspose(M // d, d, side))
    return out


def random_symmetric_table(M: int, rng: np.random.Generator) -> TablePermutation:
    """A uniformly structured random symmetric entry permutation.

    Symmetric permutations permute the diagonal among itself and act on the
    unordered off-diagonal pairs {(a,b), (b,a)}; each image pair may also be
    flipped.  Sampling each of those three choices independently produces a
    symmetric bijection of [M]^2.
    """
    _check_grid_side(M)
    R = np.zeros((M, M), dtype=np.int64)
    C = np.zeros((M, M), dtype=np.int64)

    diag = rng.permutation(M) + 1
    for a in range(1, M + 1):
        t = int(diag[a - 1])
        R[a - 1, a - 1] = t
        C[a - 1, a - 1] = t

    pairs = [(a, b) for a in range(1, M + 1) for b in range(a + 1, M + 1)]
    images = [pairs[k] for k in rng.permutation(len(pairs))]
    flips = rng.integers(0, 2, size=len(pairs))
    for (a, b), (u, v), flip in zip(pairs, images, flips):
        if flip:
            u, v = v, u
        R[a - 1, b - 1], C[a - 1, b - 1] = u, v
        R[b - 1, a - 1], C[b - 1, a - 1] = v, u

    return TablePermutation(R, C)

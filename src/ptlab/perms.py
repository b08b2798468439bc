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

``digit_levels`` splits a word of ``I``, ``T`` and partial transposes whose
block sizes form a divisor chain into mixed-radix digit levels on which every
letter keeps or swaps its two arguments; ``count_on_digit_levels`` counts
there, without tables, for every statistic above and the Wick oracle's
i-count.  Other pairs compare image tables (c) or match the rows of two value
tables (triples), at every M up to the table cap.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Iterable

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


@dataclass(frozen=True)
class BlockSpec:
    """Block structure (b outer blocks of side d) of a partial transpose."""

    b: int
    d: int
    side: Side = Side.RIGHT

    def __post_init__(self):
        if self.b < 1 or self.d < 1:
            raise ValueError(f"block parameters must be >= 1, got {self}")

    @property
    def M(self) -> int:
        return self.b * self.d


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


def _check_grid_side(M: int, max_side: int) -> None:
    if M > max_side:
        raise ResourceLimitError(
            f"M = {M} exceeds the table cap {max_side} (override via max_side)",
            cost=M * M,
        )


class EntryPermutation:
    """A bijection of [M]^2.  Subclasses define the pointwise map.

    Structured kinds evaluate in O(1) per lookup; only :class:`TablePermutation`
    stores the full M^2 image table.
    """

    M: int
    #: True for kinds whose image of (j, i) is the swap of their image of (i, j)
    _symmetric_by_construction = False

    def __call__(self, i: int, j: int) -> tuple[int, int]:
        raise NotImplementedError

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

    def image_arrays(self, max_side: int = MAX_TABLE_SIDE) -> tuple[np.ndarray, np.ndarray]:
        """Full image grids (R, C) with (R[i-1, j-1], C[i-1, j-1]) = sigma(i, j)."""
        _check_grid_side(self.M, max_side)
        cached = getattr(self, "_image_cache", None)
        if cached is None:
            idx = np.arange(1, self.M + 1, dtype=np.int64)
            X, Y = np.meshgrid(idx, idx, indexing="ij")
            cached = self.eval_arrays(X, Y)
            self._image_cache = cached
        return cached

    def is_symmetric(self, max_side: int = MAX_TABLE_SIDE) -> bool:
        """True iff sigma commutes with the swap t(a, b) = (b, a).

        Only kinds not symmetric by construction build their image tables.
        """
        if self._symmetric_by_construction:
            return True
        R, C = self.image_arrays(max_side)
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

    def __call__(self, i, j):
        self._check_point(i, j)
        return i, j

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

    def __call__(self, i, j):
        self._check_point(i, j)
        return j, i

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
        self.spec = BlockSpec(b, d, side)
        self.M = b * d

    @property
    def b(self) -> int:
        return self.spec.b

    @property
    def d(self) -> int:
        return self.spec.d

    @property
    def side(self) -> Side:
        return self.spec.side

    def __call__(self, i, j):
        self._check_point(i, j)
        if self.spec.side is Side.LEFT:
            i, j = j, i
        d = self.spec.d
        a1, b1 = index_decompose(i, d)
        a2, b2 = index_decompose(j, d)
        return (a1 - 1) * d + b2, (a2 - 1) * d + b1

    def eval_arrays(self, X, Y):
        if self.spec.side is Side.LEFT:
            X, Y = Y, X
        d = self.spec.d
        A1 = (X - 1) // d
        B1 = (X - 1) % d
        A2 = (Y - 1) // d
        B2 = (Y - 1) % d
        return A1 * d + B2 + 1, A2 * d + B1 + 1

    def key(self):
        return ("pt", self.spec.b, self.spec.d, self.spec.side.value)

    def invert(self):
        # both the right and the left version are involutions
        return self

    def __repr__(self):
        tag = "G" if self.spec.side is Side.RIGHT else "LG"
        return f"{tag}({self.spec.b},{self.spec.d})"


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

    def __call__(self, i, j):
        self._check_point(i, j)
        return self.theta[i - 1], self.theta[j - 1]

    def eval_arrays(self, X, Y):
        return self._arr[X - 1], self._arr[Y - 1]

    def key(self):
        return ("diag", self.theta)

    def invert(self):
        inv = [0] * self.M
        for k, t in enumerate(self.theta, start=1):
            inv[t - 1] = k
        return InducedDiagonal(inv)

    def fixed_point_count(self) -> int:
        return sum(1 for k, t in enumerate(self.theta, start=1) if k == t)

    def __repr__(self):
        return f"InducedDiagonal(M={self.M})"


class TablePermutation(EntryPermutation):
    """Explicit tabulated bijection of [M]^2; bijectivity checked exhaustively."""

    def __init__(self, R: np.ndarray, C: np.ndarray, max_side: int = MAX_TABLE_SIDE):
        R = np.asarray(R, dtype=np.int64)
        C = np.asarray(C, dtype=np.int64)
        if R.shape != C.shape or R.ndim != 2 or R.shape[0] != R.shape[1]:
            raise ValueError("image tables must be two square arrays of equal shape")
        M = R.shape[0]
        _check_grid_side(M, max_side)
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
            R[i - 1, j - 1] = u
            C[i - 1, j - 1] = v
        return cls(R, C)

    def __call__(self, i, j):
        self._check_point(i, j)
        return int(self._R[i - 1, j - 1]), int(self._C[i - 1, j - 1])

    def eval_arrays(self, X, Y):
        return self._R[X - 1, Y - 1], self._C[X - 1, Y - 1]

    def image_arrays(self, max_side: int = MAX_TABLE_SIDE):
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

    def __call__(self, i, j):
        self._check_point(i, j)
        for p in reversed(self.perms):
            i, j = p(i, j)
        return i, j

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


def extensionally_equal(p: EntryPermutation, q: EntryPermutation,
                        max_side: int = MAX_TABLE_SIDE) -> bool:
    """Pointwise equality of two permutations (exhaustive over [M]^2)."""
    if p.M != q.M:
        return False
    Rp, Cp = p.image_arrays(max_side)
    Rq, Cq = q.image_arrays(max_side)
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
    return R - 1, C - 1


# ---------------------------------------------------------------------------
# digit levels of divisor-chain words
# ---------------------------------------------------------------------------

def digit_levels(perms) -> list[tuple[int, int, tuple[bool, ...]]] | None:
    """Digit levels on which every letter of a word keeps or swaps its arguments.

    The sizes 1 = c_0 < c_1 < ... < c_K = M are the sorted set of 1, M and the
    block size d of every partial transpose.  When each c_k divides c_{k+1},
    a 0-based index x has the digits (x // c_k) % (c_{k+1} / c_k), and each
    letter maps the digits of its arguments (x, y) at level k to the digits
    of its image: (x_k, y_k) if it keeps there, (y_k, x_k) if it swaps.
    ``I`` keeps at every level and ``T`` swaps at every level; ``G(b, d)``
    swaps below d and keeps above it, ``LG(b, d)`` keeps below d and swaps
    above it.

    Returns one (base c_k, radix c_{k+1} / c_k, swaps) per level, with
    swaps[t] True iff letter t swaps there, or None when the sizes are not a
    divisor chain or a letter is of another kind.
    """
    sizes = {1, perms[0].M}
    for p in perms:
        if isinstance(p, PartialTranspose):
            sizes.add(p.d)
        elif not isinstance(p, (Identity, Transpose)):
            return None
    chain = sorted(sizes)
    if any(hi % lo for lo, hi in zip(chain, chain[1:])):
        return None
    levels = []
    for lo, hi in zip(chain, chain[1:]):
        swaps = []
        for p in perms:
            if isinstance(p, PartialTranspose):
                below = hi <= p.d
                swaps.append(below if p.side is Side.RIGHT else not below)
            else:
                swaps.append(isinstance(p, Transpose))
        levels.append((lo, hi // lo, tuple(swaps)))
    return levels


def _n_vars(arg_spec) -> int:
    return 1 + max((v for a, b in arg_spec for kind, v in (a, b) if kind == "var"),
                   default=-1)


def count_on_digit_levels(levels, arg_spec, equalities) -> int:
    """Assignments of the variables, over [M], meeting every image equality.

    ``arg_spec`` gives each letter's two arguments, ("var", k) or ("const",
    v); ``equalities`` pairs ((letter, coord), (letter, coord)) of image
    coordinates (0 or 1) that must agree.  At each of the letters' ``levels``
    an image coordinate takes one argument's digit, so an equality joins two
    nodes (variables or constant digits).  An orbit with two different
    constant digits admits nothing; otherwise the level contributes
    radix^(orbits of variables with no constant).
    """
    n_vars = _n_vars(arg_spec)
    count = 1
    for base, radix, swaps in levels:
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


def _chain_pair_statistic(levels, args, left_proj, right_proj) -> int:
    """A statistic of a divisor-chain pair whose letters take the variables
    ``args``: one equality per compared pair of image coordinates."""
    arg_spec = [(("var", a), ("var", b)) for a, b in args]
    equalities = [((0, x), (1, y))
                  for x, y in zip(_PROJECTIONS[left_proj], _PROJECTIONS[right_proj])]
    return count_on_digit_levels(levels, arg_spec, equalities)


def count_agreements(sigma: EntryPermutation, tau: EntryPermutation) -> int:
    """The statistic c: number of (i, j) in [M]^2 with sigma(i,j) = tau(i,j).

    Divisor-chain pairs are counted on their digit levels; other pairs
    compare the image tables.
    """
    _check_same_M(sigma, tau)
    levels = digit_levels((sigma, tau))
    if levels is None:
        return _count_agreements_table(sigma, tau)
    return _chain_pair_statistic(levels, ((0, 1), (0, 1)), "both", "both")


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

    The ``share_first`` image-triple count: divisor-chain pairs are counted
    on their digit levels (j = c there), other pairs match the encoded
    images row by row, the rows keyed by the shared first argument.
    """
    return _count_triples(sigma, tau, "share_first", "both", "both")


def _count_triples(sigma, tau, pattern, left_proj, right_proj) -> int:
    """Triples of the pattern on which the projected images of sigma and tau agree."""
    _check_same_M(sigma, tau)
    if pattern not in _PATTERNS:
        raise ValueError(f"unknown pattern {pattern!r}")
    if left_proj not in _PROJECTIONS or right_proj not in _PROJECTIONS:
        raise ValueError(f"unknown projection {left_proj!r}/{right_proj!r}")
    levels = digit_levels((sigma, tau))
    if levels is None:
        return _count_matched_rows(
            *_triple_value_tables(sigma, tau, pattern, left_proj, right_proj))
    return _chain_pair_statistic(levels, _PATTERNS[pattern], left_proj, right_proj)


def _triple_value_tables(sigma, tau, pattern, left_proj, right_proj):
    """Value tables VL[s, f], VR[s, f] indexed by (shared index, free index)."""
    M = sigma.M
    _check_grid_side(M, MAX_TABLE_SIDE)
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
    swapped: bool  # True when the inputs arrived as d > D and were reordered


def gamma_lcm_data(d: int, D: int) -> LcmData:
    """Least-common-multiple data of two inner block sizes.

    >>> gamma_lcm_data(2, 3)
    LcmData(Q=6, L=3, ell=2, swapped=False)
    """
    if d < 1 or D < 1:
        raise ValueError("block sizes must be positive")
    swapped = d > D
    lo, hi = (D, d) if swapped else (d, D)
    Q = math.lcm(lo, hi)
    return LcmData(Q=Q, L=Q // lo, ell=Q // hi, swapped=swapped)


def all_partial_transposes(M: int, side: Side = Side.RIGHT) -> list[PartialTranspose]:
    """Every PartialTranspose(b, d, side) with b * d = M, ordered by d."""
    out = []
    for d in range(1, M + 1):
        if M % d == 0:
            out.append(PartialTranspose(M // d, d, side))
    return out


def random_symmetric_table(M: int, rng: np.random.Generator,
                           max_side: int = MAX_TABLE_SIDE) -> TablePermutation:
    """A uniformly structured random symmetric entry permutation.

    Symmetric permutations permute the diagonal among itself and act on the
    unordered off-diagonal pairs {(a,b), (b,a)}; each image pair may also be
    flipped.  Sampling each of those three choices independently produces a
    symmetric bijection of [M]^2.
    """
    _check_grid_side(M, max_side)
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

    return TablePermutation(R, C, max_side=max_side)

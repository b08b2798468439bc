"""A golden digest of the exact oracles.

One sha256 over about 400 exact results: moments with every pairing's tuple
count, cumulants and trace covariances, over divisor-chain and non-chain
alphabets at M = 4 to 64, with P != M, point-permutation (``D``), table
and composition letters.  Any change to a count, a ``Fraction`` or the
order in which the pairings are reported changes the digest.  The words are
picked by fixed strides through ``itertools.product``, so the inputs do not
depend on a random generator.
"""

import hashlib
import itertools
import time

import numpy as np

from ptlab import wick as wk
from ptlab.perms import (Composition, Identity, InducedDiagonal, MatrixShape,
                         PartialTranspose, Side, TablePermutation, Transpose)

GOLDEN_SHA256 = "546d2e9b12d69aeb87a45ea5cb4a83d01e6982ac624436250932e4a5f8c6f8cd"
GOLDEN_COUNT = 410


def chain(M, ds):
    return [Identity(M), Transpose(M)] + [
        PartialTranspose(M // d, d, side) for d in ds for side in (Side.RIGHT, Side.LEFT)]


def general(M, d):
    """A D letter, a table letter and a composition, beside I and G(M/d, d)."""
    theta = [(3 * k + 1) % M + 1 for k in range(M)]  # a permutation when 3 does not divide M
    diag = InducedDiagonal(theta)
    block = PartialTranspose(M // d, d)
    table = TablePermutation(*(np.array(A) for A in Composition([diag, block]).image_arrays()))
    return [Identity(M), block, diag, table, Composition([block, diag])]


#: (M, P, alphabet, longest word, stride through the words of each length)
ALPHABETS = (
    (4, 3, chain(4, (2,)), 4, 19),
    (8, 5, chain(8, (2, 4)), 4, 89),
    (6, 7, chain(6, (2, 3)), 4, 67),
    (12, 5, chain(12, (3, 4)), 3, 17),
    (16, 9, chain(16, (2, 8)), 3, 19),
    (64, 40, chain(64, (2, 8, 32)), 3, 43),
    (5, 4, general(5, 5), 3, 11),
    (4, 6, general(4, 2), 3, 13),
)


def words(alphabet, longest, stride):
    for m in range(1, longest + 1):
        yield from itertools.islice(itertools.product(alphabet, repeat=m), 0, None, stride)


def results():
    """One line per exact result, in a fixed order."""
    for M, P, alphabet, longest, stride in ALPHABETS:
        shape = MatrixShape(M, P)
        for perms in words(alphabet, longest, stride):
            w = wk.WickWord(shape, perms)
            report = wk.exact_mixed_moment(w)
            counts = sorted((p.partner, n) for p, n in report.tuple_counts.items())
            yield f"moment {M} {P} {perms} {report.total} {counts}"
            if w.m > 1:
                yield f"cumulant {M} {P} {perms} {wk.exact_mixed_cumulant(w)}"
                m = w.m // 2  # the split point moves with the word's index
                w1, w2 = w.subword(tuple(range(1, m + 1))), w.subword(tuple(range(m + 1, w.m + 1)))
                yield f"covariance {M} {P} {perms[:m]} {perms[m:]} {wk.exact_trace_covariance(w1, w2)}"


def test_exact_results_match_the_golden_digest():
    start = time.perf_counter()
    lines = list(results())
    elapsed = time.perf_counter() - start
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert (len(lines), digest) == (GOLDEN_COUNT, GOLDEN_SHA256)
    assert elapsed < 5, elapsed

"""The exact Wick oracle and its cross-checks, at small sizes.

E tr(W^{s1} ... W^{sm}) decomposes over the m! bipartite pairings of [2m];
every value below is an exact rational.  The second-order free cumulant
obeys the finite-size identity

    kappa_2(W^sigma, W^tau) = (P/M) * c(sigma, tau) / M^2

with zero tolerance, and Monte Carlo sampling reproduces the exact values
within statistical error.

Run:  python demos/02_exact_wick_oracle.py
"""

from fractions import Fraction

from ptlab import (
    MatrixShape,
    PartialTranspose,
    SamplerConfig,
    WickWord,
    count_agreements,
    enumerate_bipartite_pairings,
    exact_mixed_cumulant,
    exact_mixed_moment,
    mc_mixed_moment,
)

M = P = 12
shape = MatrixShape(M, P)
s, t = PartialTranspose(6, 2), PartialTranspose(4, 3)
word = WickWord(shape, (s, t))

report = exact_mixed_moment(word)
print(f"E tr(W^{s!r} W^{t!r}) at M = P = {M}:")
for pairing in enumerate_bipartite_pairings(2):
    n = report.tuple_counts[pairing]
    print(f"  pairing {pairing!r}: {n:6d} tuples  ->  {Fraction(n, M ** 3)}")
print(f"  total = {report.total}\n")

k2 = exact_mixed_cumulant(word)
c = count_agreements(s, t)
print(f"kappa_2 = {k2}; the identity predicts (P/M) * c / M^2 "
      f"= {Fraction(P, M) * Fraction(c, M * M)}  (c = {c})")
assert k2 == Fraction(P, M) * Fraction(c, M * M)

small = WickWord(MatrixShape(8, 8), (PartialTranspose(2, 4), PartialTranspose(4, 2)))
exact = exact_mixed_moment(small).total
rep = mc_mixed_moment(small, SamplerConfig(MatrixShape(8, 8), samples=20000, seed=42))
z = (rep.mean - float(exact)) / rep.std_error
print(f"\nMonte Carlo cross-check at M = P = 8: exact = {exact},"
      f" mc = {rep.mean:.5f} +- {rep.std_error:.5f}  (z = {z:+.2f})")

"""A tour of the power-series kernel: Exp, Log, Pow and Adams twists.

Everything runs over exact polynomial coefficients in q; nothing here is
numeric.
"""

from charvar import Exp, Log, Pow, TSeries, irreducible_poly_count, q
from charvar.qpoly import ONE, ZERO, poly_str

order = 6

# Exp turns a single t into the geometric series: all coefficients 1
t_only = TSeries.from_terms(order, {1: ONE})
print("Exp(t)      =", [poly_str(c) for c in Exp(t_only).coeffs])

# with a q on the t the coefficients become powers of q
qt = TSeries.from_terms(order, {1: q})
print("Exp(q t)    =", [poly_str(c) for c in Exp(qt).coeffs])

# Log undoes it exactly
assert Log(Exp(qt)) == qt

# Pow(f, g) = Exp(g * Log f); with the geometric series as base it acts
# like raising 1/(1-t) to the power q
geometric = TSeries(order, [ONE] * (order + 1))
powed = Pow(geometric, q)
print("Pow(1/(1-t), q) coefficients:")
for n, c in enumerate(powed.coeffs):
    print(f"  t^{n}: {poly_str(c)}")

# the same operation as an infinite product over Adams twists, with
# exponents counting irreducible polynomials over F_q
from charvar import pow_product
assert Pow(geometric, ONE - q) == pow_product(geometric)
print("\nirreducible monic polynomials with nonzero constant term:")
for d in range(1, 7):
    print(f"  degree {d}: {poly_str(irreducible_poly_count(d))}")

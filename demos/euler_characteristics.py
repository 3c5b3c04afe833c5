"""Euler characteristics of the quotient varieties via exact q -> 1 limits.

Dividing each counting polynomial by (q-1)^m leaves a rational function
with no pole at q = 1; its value there is the Euler characteristic.  The
results follow a striking arithmetic pattern: the totient function for
the full count and the Moebius function for the irreducible part, each
scaled by a power of d.
"""

from charvar import euler_characteristics, mobius, totient

for m in (2, 3, 4):
    print(f"m = {m}:")
    print("   d | chi  phi(d)*d^(m-2) | chi_irr  mu(d)*d^(m-2)")
    for d in range(1, 9):
        chi, chi_irr = euler_characteristics(m, d)
        expect = totient(d) * d ** (m - 2)
        expect_irr = mobius(d) * d ** (m - 2)
        mark = "ok" if (chi, chi_irr) == (expect, expect_irr) else "XX"
        print(f"  {d:2d} | {str(chi):>4} {expect:14d} | "
              f"{str(chi_irr):>7} {expect_irr:13d}   {mark}")
    print()

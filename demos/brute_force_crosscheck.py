"""Compare the symbolic counts against direct enumeration over F_p.

For each small (d, p, m) the script walks the simultaneous-conjugation
orbits of m-tuples of invertible d x d matrices over F_p, classifies
every orbit, and checks the three totals against the polynomials
evaluated at q = p.  The census checks its own orbit total against
Burnside's count from the class sizes on every run, so that count is not
a second column here.
"""

from charvar import abs_ind_counts, abs_irr_counts, orbit_census, orbit_counts

grid = [(1, 5, 3), (2, 2, 2), (2, 2, 3), (2, 3, 2), (2, 3, 3), (3, 2, 2)]

print(" d  p  m | orbits  abs_irr  abs_ind | polynomial says")
for d, p, m in grid:
    census = orbit_census(d, p, m)
    symbolic = (orbit_counts(m, d)[d].evaluate(p),
                abs_irr_counts(m, d)[d].evaluate(p),
                abs_ind_counts(m, d)[d].evaluate(p))
    assert (census.orbits, census.abs_irr, census.abs_ind) == symbolic
    print(f"{d:2d} {p:2d} {m:2d} | {census.orbits:6d} {census.abs_irr:8d} "
          f"{census.abs_ind:8d} | {str(symbolic):>17}")

print("\nall censuses agree with the evaluated polynomials")

"""Expand the counting polynomials in powers of s = q - 1.

The semisimple counts A_d turn out to have nonnegative integer
coefficients in this basis; the absolutely irreducible counts do not,
and the first failure is easy to exhibit.
"""

from charvar import abs_irr_counts, build_table, expand_in_s, poly_str

m = 2
dmax = 6

rows = build_table(m, dmax).rows
print(f"m = {m}: A_d in powers of (q-1), d <= {dmax}\n")
for row in rows:
    print(f"  d = {row.d}: {list(row.s_coeffs)}   "
          f"nonnegative = {row.positive}")

# every row above is nonnegative
assert all(row.positive for row in rows)

# the irreducible counts break the pattern already at d = 2
print("\nabsolutely irreducible counts, same basis:")
irr = {d: expand_in_s(poly)
       for d, poly in enumerate(abs_irr_counts(m, dmax)) if d > 0}
for d, coeffs in irr.items():
    print(f"  d = {d}: {coeffs}")
d, k, c = next((d, k, c) for d, coeffs in irr.items()
               for k, c in enumerate(coeffs) if c < 0)
print(f"\nfirst negative coefficient: degree-{d} count, "
      f"coefficient of (q-1)^{k} is {c}")
print("the polynomial itself:", poly_str(abs_irr_counts(m, 2)[2]))

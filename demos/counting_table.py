"""Print the full counting-polynomial table for tuples of 2x2 and 3x3
matrices under simultaneous conjugation, for a pair of generators."""

from charvar import build_table, e_polynomial, poly_str, uv_str

m = 2
table = build_table(m, dmax=3)

print(f"free group on {m} generators, matrices up to size {table.dmax}\n")
for row in table.rows:
    print(f"size d = {row.d}")
    # A counts completely reducible representation classes, M all orbits
    print(f"  all orbits            M = {poly_str(row.orbits)}")
    print(f"  semisimple classes    A = {poly_str(row.rep_count)}")
    print(f"  absolutely irreducible  {poly_str(row.abs_irr)}")
    print(f"  absolutely indecomposable {poly_str(row.abs_ind)}")
    # the quotient E-polynomial divides out the (q-1)^m torus factor
    pgl = e_polynomial(m, row.d, group="PGL")
    print(f"  E-polynomial of the quotient: {uv_str(pgl)}")
    print(f"  Euler characteristics: {row.chi_pgl} (full), "
          f"{row.chi_pgl_irr} (irreducible part)")
    print()

# sanity: at q = 2 the d = 2 row must reproduce the brute-force values
row = table.rows[1]
print("evaluations at q = 2:",
      row.rep_count.evaluate(2), row.abs_irr.evaluate(2),
      row.abs_ind.evaluate(2), row.orbits.evaluate(2))

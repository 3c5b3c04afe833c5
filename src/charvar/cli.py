"""Command line front end.

Subcommands: `polys` prints the counting-polynomial table, `verify` runs
the internal consistency suite, `subgroups` prints free-group subgroup
counts, `permstats` lists connected permutation tuples with their
inversion weights, and `oracle` runs the finite-field brute force.

Exit codes: 0 success, 2 usage error (an --output path that cannot be
written counts as one), 3 failed verification or any internal arithmetic
failure (integrality, brute-force identity, inexact division, a pole),
4 size guard.  Output is deterministic for
a fixed command line, and JSON output re-serializes to the same bytes
after parsing.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from .combinatorics import (SizeGuardError, connected_tuples, inversions,
                            subgroup_counts, weight_poly)
from .counting import build_table, default_dmax, e_polynomial, uv_str
from .fforacle import orbit_census
from .qpoly import poly_str
from .verify import all_passed, run_verification

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VERIFY = 3
EXIT_SIZE = 4


def _add_output_flags(sub) -> None:
    sub.add_argument("--format", choices=("json", "csv", "text"),
                     default="text", help="output format (default text)")
    sub.add_argument("--output", default=None, metavar="PATH",
                     help="write to PATH instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="charvar",
        description="Exact counting polynomials for conjugation orbits of "
                    "matrix tuples, with brute-force cross-checks.")
    sub = parser.add_subparsers(dest="command", required=True)

    polys = sub.add_parser("polys", help="counting polynomial table")
    polys.add_argument("--m", type=int, required=True,
                       help="number of matrices per tuple")
    polys.add_argument("--dmax", type=int, default=None,
                       help="largest matrix size (default depends on m)")
    _add_output_flags(polys)

    verify = sub.add_parser("verify", help="run the consistency suite")
    verify.add_argument("--m", type=int, required=True)
    verify.add_argument("--dmax", type=int, default=None)
    verify.add_argument("--primes", default="2,3",
                        help="comma-separated primes for the brute force")
    _add_output_flags(verify)

    subgroups = sub.add_parser("subgroups",
                               help="index-n subgroup counts of a free group")
    subgroups.add_argument("--m", type=int, required=True,
                           help="rank of the free group")
    subgroups.add_argument("--nmax", type=int, default=8,
                           help="largest index (default 8)")
    _add_output_flags(subgroups)

    permstats = sub.add_parser(
        "permstats", help="connected permutation tuples and their weights")
    permstats.add_argument("--m", type=int, required=True)
    permstats.add_argument("--n", type=int, required=True,
                           help="degree of the permutations")
    _add_output_flags(permstats)

    oracle = sub.add_parser("oracle", help="finite-field brute force census")
    oracle.add_argument("--d", type=int, required=True, help="matrix size")
    oracle.add_argument("--p", type=int, required=True, help="field size")
    oracle.add_argument("--m", type=int, required=True,
                        help="matrices per tuple")
    _add_output_flags(oracle)
    return parser


def _csv_text(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _join(values) -> str:
    return ";".join(str(v) for v in values)


def cmd_polys(args) -> tuple:
    table = build_table(args.m, dmax=args.dmax)
    if args.format == "json":
        return json.dumps(table.to_json_dict(), indent=2) + "\n", EXIT_OK
    if args.format == "csv":
        rows = []
        for row in table.rows:
            rows.append([
                table.m, row.d,
                _join(row.rep_count.coeffs), _join(row.abs_irr.coeffs),
                _join(row.abs_ind.coeffs), _join(row.orbits.coeffs),
                "" if row.chi_pgl is None else str(row.chi_pgl),
                "" if row.chi_pgl_irr is None else str(row.chi_pgl_irr),
                _join(row.s_coeffs), str(row.positive).lower(),
            ])
        header = ["m", "d", "A", "A_irr", "A_ind", "M",
                  "chi_pgl", "chi_pgl_irr", "s_coeffs_A", "positive"]
        return _csv_text(header, rows), EXIT_OK
    lines = [f"counting polynomials for m = {table.m}, d <= {table.dmax}"]
    for row in table.rows:
        lines.append("")
        lines.append(f"d = {row.d}")
        lines.append(f"  A     = {poly_str(row.rep_count)}")
        lines.append(f"  A_irr = {poly_str(row.abs_irr)}")
        lines.append(f"  A_ind = {poly_str(row.abs_ind)}")
        lines.append(f"  M     = {poly_str(row.orbits)}")
        if table.m >= 2:
            epoly = e_polynomial(table.m, row.d, group="PGL")
            lines.append(f"  E(PGL)        = {uv_str(epoly)}")
            lines.append(f"  chi(PGL)      = {row.chi_pgl}")
            lines.append(f"  chi(PGL irr)  = {row.chi_pgl_irr}")
        else:
            lines.append("  E(PGL)        = n/a (needs m >= 2)")
        lines.append(f"  A in powers of (q-1): {list(row.s_coeffs)}"
                     f"  positive = {row.positive}")
    return "\n".join(lines) + "\n", EXIT_OK


def cmd_verify(args) -> tuple:
    try:
        primes = tuple(int(p) for p in args.primes.split(",") if p.strip())
    except ValueError:
        raise ValueError("--primes takes comma-separated integers, "
                         f"got {args.primes!r}") from None
    checks = run_verification(args.m, dmax=args.dmax, primes=primes)
    ok = all_passed(checks)
    code = EXIT_OK if ok else EXIT_VERIFY
    if args.format == "json":
        payload = {
            "m": args.m,
            "dmax": args.dmax if args.dmax is not None
                    else default_dmax(args.m),
            "primes": list(primes),
            "checks": [{"name": c.name, "passed": c.passed,
                        **({"skipped": True} if c.skipped else {}),
                        "detail": c.detail} for c in checks],
            "all_passed": ok,
        }
        return json.dumps(payload, indent=2) + "\n", code
    if args.format == "csv":
        rows = [[c.name, "skip" if c.skipped else str(c.passed).lower(),
                 c.detail] for c in checks]
        return _csv_text(["name", "passed", "detail"], rows), code
    lines = []
    for c in checks:
        mark = "skip" if c.skipped else "ok " if c.passed else "FAIL"
        lines.append(f"[{mark}] {c.name}: {c.detail}")
    summary = f"{sum(c.passed for c in checks)}/{len(checks)} checks passed"
    skipped = sum(c.skipped for c in checks)
    lines.append(f"{summary}, {skipped} skipped" if skipped else summary)
    return "\n".join(lines) + "\n", code


def cmd_subgroups(args) -> tuple:
    counts = subgroup_counts(args.m, args.nmax)
    if args.format == "json":
        payload = {"m": args.m, "nmax": args.nmax, "counts": counts}
        return json.dumps(payload, indent=2) + "\n", EXIT_OK
    if args.format == "csv":
        rows = [[n, c] for n, c in enumerate(counts, start=1)]
        return _csv_text(["n", "count"], rows), EXIT_OK
    head = (f"index-n subgroup counts of the free group of rank {args.m}, "
            f"n <= {args.nmax}")
    return head + "\n" + ",".join(str(c) for c in counts) + "\n", EXIT_OK


def cmd_permstats(args) -> tuple:
    tuples = connected_tuples(args.n, args.m)
    weights = [sum(map(inversions, tup)) for tup in tuples]
    poly = weight_poly(weights)
    if args.format == "json":
        listing = [{"perms": [list(p) for p in tup], "inversions": w}
                   for tup, w in zip(tuples, weights)]
        payload = {"m": args.m, "n": args.n,
                   "poly": [str(c) for c in poly.coeffs],
                   "tuples": listing}
        return json.dumps(payload, indent=2) + "\n", EXIT_OK
    if args.format == "csv":
        rows = [[" ".join(map(str, perm)) for perm in tup] + [w]
                for tup, w in zip(tuples, weights)]
        header = [f"perm{i}" for i in range(1, args.m)] + ["inversions"]
        return _csv_text(header, rows), EXIT_OK
    lines = [f"connected {args.m - 1}-tuples of permutations of "
             f"degree {args.n}",
             f"weight polynomial: {poly_str(poly)}"]
    for tup, w in zip(tuples, weights):
        perms = " | ".join(" ".join(map(str, p)) for p in tup)
        lines.append(f"  {perms}    inversions = {w}")
    return "\n".join(lines) + "\n", EXIT_OK


def cmd_oracle(args) -> tuple:
    census = orbit_census(args.d, args.p, args.m)
    if args.format == "json":
        return json.dumps(census._asdict(), indent=2) + "\n", EXIT_OK
    if args.format == "csv":
        return _csv_text(census._fields, [census]), EXIT_OK
    lines = [f"brute-force census of {census.m}-tuples in GL_{census.d}"
             f"(F_{census.p}), group order {census.group_order}",
             f"orbits: {census.orbits}",
             f"abs_irr: {census.abs_irr}",
             f"abs_ind: {census.abs_ind}"]
    return "\n".join(lines) + "\n", EXIT_OK


_COMMANDS = {
    "polys": cmd_polys,
    "verify": cmd_verify,
    "subgroups": cmd_subgroups,
    "permstats": cmd_permstats,
    "oracle": cmd_oracle,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        text, code = _COMMANDS[args.command](args)
    except SizeGuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SIZE
    except ArithmeticError as exc:
        print(f"error: internal identity failure: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            print(f"error: cannot write {args.output}: {exc.strerror}",
                  file=sys.stderr)
            return EXIT_USAGE
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())

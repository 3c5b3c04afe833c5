"""Command line front end.

Subcommands: `polys` prints the counting-polynomial table, `verify` runs
the internal consistency suite, `subgroups` prints free-group subgroup
counts, `permstats` lists connected permutation tuples with their
inversion weights, and `oracle` runs the finite-field brute force.

Each command runs in two phases.  It first computes everything that can
fail and returns its exit code with a writer; only then does `main` open
stdout or the --output file, and the writer renders into it one row, line
or list item at a time, so the whole output is never held as one string.
A command that fails writes nothing and leaves an existing --output file
as it was.  When the reader of stdout closes its end, the rest of the
output is dropped without a traceback and the exit code is the command's.

Exit codes: 0 success, 2 usage error (an --output path that cannot be
written counts as one), 3 failed verification or any internal arithmetic
failure (integrality, brute-force identity, inexact division, a pole),
4 size guard.  Output is deterministic for
a fixed command line, and JSON output re-serializes to the same bytes
after parsing.
"""

from __future__ import annotations

import argparse
import os
import sys
from itertools import chain, islice

from .combinatorics import (connected_tuples, inversions, subgroup_counts,
                            weight_poly)
from .counting import (TableRow, build_table, default_dmax, e_polynomial,
                       uv_str)
from .arith import SizeGuardError
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


# Encoder chunks joined per write.  A row of the polys table is one chunk
# per coefficient, so a write holds a few kilobytes of text, not the row;
# joining a whole row at a time rendered no faster.
_CHUNKS_PER_WRITE = 256


def _json_writer(payload):
    """A writer of json.dumps(payload, indent=2) + "\n"."""
    def write(out):
        import json
        out.write(json.dumps(payload, indent=2) + "\n")
    return write


def _write_json(out, head: dict, key: str, items) -> None:
    """Write json.dumps({**head, key: list(items)}, indent=2) + "\n".

    The items are built, encoded and written one at a time, so neither the
    document nor the list is ever held whole.  json.dumps renders indented
    JSON with the pure-Python generator of json.encoder; it is made here,
    with the encoder's settings, and yields each item at the list's depth,
    two levels in.  No value written here is a float, so floats keep plain
    repr.  json, like csv below, is imported by the writer that uses it,
    so a text command loads neither.
    """
    import json
    encoder = json.JSONEncoder(indent="  ")
    text = encoder.encode({**head, key: []})
    out.write(text[:-3])            # text ends with ']\n}'
    item_chunks = json.encoder._make_iterencode(
        {}, encoder.default, json.encoder.encode_basestring_ascii,
        encoder.indent, float.__repr__, encoder.key_separator,
        encoder.item_separator, encoder.sort_keys, encoder.skipkeys, False)
    separator, close = "\n    ", "]\n}\n"
    for item in items:
        chunks = chain((separator,), item_chunks(item, 2))
        while batch := "".join(islice(chunks, _CHUNKS_PER_WRITE)):
            out.write(batch)
        separator, close = ",\n    ", "\n  ]\n}\n"
        del item                    # freed before the next item is built
    out.write(close)


def _csv_cell(value):
    # a JSON value as one cell: a list joined by ';', a bool in lower case;
    # the csv module writes None as the empty cell
    if isinstance(value, list):
        return ";".join(value)
    return str(value).lower() if isinstance(value, bool) else value


def _write_csv(out, header, rows) -> None:
    import csv
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(map(_csv_cell, row) for row in rows)


def cmd_polys(args) -> tuple:
    table = build_table(args.m, dmax=args.dmax)
    if args.format == "json":
        def write(out):
            _write_json(out, {"m": table.m}, "rows",
                        map(TableRow.to_json_dict, table.rows))
        return EXIT_OK, write
    if args.format == "csv":
        # the header is spelled out: --dmax 0 prints it with no row
        return EXIT_OK, lambda out: _write_csv(
            out, ["m", "d", "A", "A_irr", "A_ind", "M", "chi_pgl",
                  "chi_pgl_irr", "s_coeffs_A", "positive"],
            ([table.m, *row.to_json_dict().values()] for row in table.rows))
    # E(PGL) can raise, so it is computed before anything is written
    epolys = [e_polynomial(table.m, row.d, group="PGL") if table.m >= 2
              else None for row in table.rows]

    def write(out):
        out.write(f"counting polynomials for m = {table.m}, "
                  f"d <= {table.dmax}\n")
        for row, epoly in zip(table.rows, epolys):
            lines = ["",
                     f"d = {row.d}",
                     f"  A     = {poly_str(row.rep_count)}",
                     f"  A_irr = {poly_str(row.abs_irr)}",
                     f"  A_ind = {poly_str(row.abs_ind)}",
                     f"  M     = {poly_str(row.orbits)}"]
            if epoly is None:
                lines.append("  E(PGL)        = n/a (needs m >= 2)")
            else:
                lines += [f"  E(PGL)        = {uv_str(epoly)}",
                          f"  chi(PGL)      = {row.chi_pgl}",
                          f"  chi(PGL irr)  = {row.chi_pgl_irr}"]
            lines.append(f"  A in powers of (q-1): {list(row.s_coeffs)}"
                         f"  positive = {row.positive}")
            out.write("\n".join(lines) + "\n")
    return EXIT_OK, write


def cmd_verify(args) -> tuple:
    try:
        primes = tuple(dict.fromkeys(
            int(p) for p in args.primes.split(",") if p.strip()))
    except ValueError:
        raise ValueError("--primes takes comma-separated integers, "
                         f"got {args.primes!r}") from None
    dmax = default_dmax(args.m) if args.dmax is None else args.dmax
    checks = run_verification(args.m, dmax=dmax, primes=primes)
    ok = all_passed(checks)
    code = EXIT_OK if ok else EXIT_VERIFY
    if args.format == "json":
        payload = {
            "m": args.m,
            "dmax": dmax,
            "primes": list(primes),
            "checks": [{"name": c.name, "passed": c.passed,
                        **({"skipped": True} if c.skipped else {}),
                        "detail": c.detail} for c in checks],
            "all_passed": ok,
        }
        return code, _json_writer(payload)
    if args.format == "csv":
        return code, lambda out: _write_csv(
            out, ["name", "passed", "detail"],
            ([c.name, "skip" if c.skipped else c.passed, c.detail]
             for c in checks))

    def write(out):
        for c in checks:
            mark = "skip" if c.skipped else "ok " if c.passed else "FAIL"
            out.write(f"[{mark}] {c.name}: {c.detail}\n")
        summary = f"{sum(c.passed for c in checks)}/{len(checks)} checks passed"
        skipped = sum(c.skipped for c in checks)
        out.write(f"{summary}, {skipped} skipped\n" if skipped
                  else summary + "\n")
    return code, write


def cmd_subgroups(args) -> tuple:
    counts = subgroup_counts(args.m, args.nmax)
    if args.format == "json":
        payload = {"m": args.m, "nmax": args.nmax, "counts": counts}
        return EXIT_OK, _json_writer(payload)
    if args.format == "csv":
        return EXIT_OK, lambda out: _write_csv(out, ["n", "count"],
                                               enumerate(counts, start=1))
    head = (f"index-n subgroup counts of the free group of rank {args.m}, "
            f"n <= {args.nmax}")
    text = head + "\n" + ",".join(str(c) for c in counts) + "\n"
    return EXIT_OK, lambda out: out.write(text)


def cmd_permstats(args) -> tuple:
    tuples = connected_tuples(args.n, args.m)
    weights = [sum(map(inversions, tup)) for tup in tuples]
    poly = weight_poly(weights)
    if args.format == "json":
        def write(out):
            head = {"m": args.m, "n": args.n,
                    "poly": [str(c) for c in poly.coeffs]}
            _write_json(out, head, "tuples",
                        ({"perms": [list(p) for p in tup], "inversions": w}
                         for tup, w in zip(tuples, weights)))
        return EXIT_OK, write
    if args.format == "csv":
        return EXIT_OK, lambda out: _write_csv(
            out, [f"perm{i}" for i in range(1, args.m)] + ["inversions"],
            ([" ".join(map(str, perm)) for perm in tup] + [w]
             for tup, w in zip(tuples, weights)))

    def write(out):
        out.write(f"connected {args.m - 1}-tuples of permutations of "
                  f"degree {args.n}\n"
                  f"weight polynomial: {poly_str(poly)}\n")
        for tup, w in zip(tuples, weights):
            perms = " | ".join(" ".join(map(str, p)) for p in tup)
            out.write(f"  {perms}    inversions = {w}\n")
    return EXIT_OK, write


def cmd_oracle(args) -> tuple:
    census = orbit_census(args.d, args.p, args.m)
    if args.format == "json":
        return EXIT_OK, _json_writer(census._asdict())
    if args.format == "csv":
        return EXIT_OK, lambda out: _write_csv(out, census._fields, [census])
    text = (f"brute-force census of {census.m}-tuples in GL_{census.d}"
            f"(F_{census.p}), group order {census.group_order}\n"
            f"orbits: {census.orbits}\n"
            f"abs_irr: {census.abs_irr}\n"
            f"abs_ind: {census.abs_ind}\n")
    return EXIT_OK, lambda out: out.write(text)


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
    # exact counts can pass CPython's cap on the digits of an int written
    # as text (4300 by default); the cap is lifted while main runs
    digits = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if digits is not None:
        sys.set_int_max_str_digits(0)
    try:
        try:
            code, write = _COMMANDS[args.command](args)
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
                    write(handle)
            except OSError as exc:
                print(f"error: cannot write {args.output}: {exc.strerror}",
                      file=sys.stderr)
                return EXIT_USAGE
            return code
        try:
            write(sys.stdout)
            sys.stdout.flush()
        except BrokenPipeError:
            # the reader closed its end: what is left goes to the null
            # device, so the flush at interpreter exit raises nothing either
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        return code
    finally:
        if digits is not None:
            sys.set_int_max_str_digits(digits)


if __name__ == "__main__":
    sys.exit(main())

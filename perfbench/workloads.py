"""The benchmark's workloads and the checks on their outputs.

Every operation runs fixed ``charvar`` command lines; the program's inputs
never depend on the benchmark seed.  The two workloads stress disjoint
layers, so that every optimisation on the ROADMAP has one workload where it
should show and one where the prediction is no change.  There are two and
not four (one per command) because the shared machine's speed drifts by up
to about 50% for tens of seconds at a time, and only runs close to a minute
long measure steadily within the time the whole benchmark may take.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class Command:
    label: str           # names the command in reports and output checks
    argv: tuple
    box: tuple = ()      # (d, p, m) of an oracle command


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    commands: tuple      # each runs once in every round of a run


ORACLE_BOXES = ((2, 3, 3), (3, 2, 2))     # (d, p, m): the largest admitted

WORKLOADS = {w.name: w for w in (
    Workload(
        "series",
        "the plethystic series kernel: polys m=2 d<=20 (class-weight sum), "
        "polys m=8 d<=12 (QPoly multiply in Log/Exp), verify m=2 d<=16 "
        "(limits, census); the oracle is idle",
        (Command("polys-deep",
                 ("polys", "--m", "2", "--dmax", "20", "--format", "json")),
         Command("polys-wide",
                 ("polys", "--m", "8", "--dmax", "12", "--format", "json")),
         Command("verify-suite",
                 ("verify", "--m", "2", "--dmax", "16", "--primes", "",
                  "--format", "json")))),
    Workload(
        "oracle-boxes",
        "finite-field brute force only, on its two largest boxes; the "
        "series kernel is bypassed",
        tuple(Command(f"oracle-{d}-{p}-{m}",
                      ("oracle", "--d", str(d), "--p", str(p), "--m", str(m)),
                      box=(d, p, m))
              for d, p, m in ORACLE_BOXES)),
)}

# sha256 of the stdout of the polys commands at the seed commit; the JSON
# table is promised byte-identical across refactors.
POLYS_DIGESTS = {
    "polys-deep":
        "06d20af3b6d848bb8de62633efbbeba908371cf769e1fcd6695cc80c624b3743",
    "polys-wide":
        "c83914ab84902db48bb580f99c26593229d35276c864512caf503f64cdfeaef9",
}

_ORACLE_LINE = re.compile(r"^(orbits|abs_irr|abs_ind): (\d+)$", re.MULTILINE)


def expected_oracle_counts(boxes=ORACLE_BOXES) -> dict:
    """(orbits, abs_irr, abs_ind) per box from the counting polynomials.

    Imports charvar from the checkout; call it before timing starts.
    """
    from charvar.counting import abs_ind_counts, abs_irr_counts, orbit_counts
    return {(d, p, m): tuple(counts(m, d)[d].evaluate(p) for counts in
                             (orbit_counts, abs_irr_counts, abs_ind_counts))
            for d, p, m in boxes}


class Checker:
    """Decides whether one command's stdout is correct."""

    def __init__(self, oracle_counts: dict, digests: dict = POLYS_DIGESTS):
        self.oracle_counts = oracle_counts
        self.digests = digests

    def __call__(self, command: Command, stdout: str) -> Optional[str]:
        """None when correct, else a one-line description of the problem."""
        if command.label in self.digests:
            digest = hashlib.sha256(stdout.encode()).hexdigest()
            if digest != self.digests[command.label]:
                return (f"{command.label}: stdout sha256 {digest} differs "
                        "from the seed's")
            return None
        if command.argv[0] == "verify":
            try:
                payload = json.loads(stdout)
            except ValueError:
                return "verify output is not JSON"
            if payload.get("all_passed") is not True or not payload.get("checks"):
                return "verify reported a failed check"
            return None
        if command.box:
            found = dict(_ORACLE_LINE.findall(stdout))
            got = tuple(int(found.get(key, -1))
                        for key in ("orbits", "abs_irr", "abs_ind"))
            if got != self.oracle_counts[command.box]:
                return (f"oracle {command.box}: counts {got} differ from the "
                        f"polynomials' {self.oracle_counts[command.box]}")
            return None
        raise KeyError(f"no output check for command {command.label!r}")

"""The benchmark's workloads: the inputs of each job and its known answer.

A workload turns the run's seeded random.Random into the arguments of one
job.  The job runs in a fresh process (job.py) and prints a JSON report;
check() compares that report with the expected answer and returns None when
it matches, else the reason it does not.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from itertools import product
from typing import Callable

GALLERY_DEPTH = 6


@dataclass(frozen=True)
class Workload:
    name: str
    make_args: Callable[[random.Random], list[str]]
    verify: Callable[[list[str], dict, object], str | None]
    expected: object


def check(workload: Workload, args: list[str], stdout: str) -> str | None:
    """None if the job's standard output is the expected answer, else why not."""
    try:
        return workload.verify(args, json.loads(stdout), workload.expected)
    except (ValueError, KeyError, TypeError, IndexError, AttributeError) as e:
        return f"malformed report: {type(e).__name__}: {e}"


# --- sc_homology: csx homology SC --max-dim 7 -----------------------------

SC_EXPECTED = {
    # H_0..H_6; the top dimension of a truncation is flagged unreliable
    "groups": ["Z", "0", "Z", "0", "Z", "0", "Z"],
    "chains": [1, 0, 1, 2, 9, 44, 265, 1854],
}


def _sc_args(rng: random.Random) -> list[str]:
    return ["homology", "SC", "--max-dim", "7", "--format", "json"]


def _sc_verify(args, report, expected) -> str | None:
    if report["chains"] != expected["chains"]:
        return f"chains {report['chains']} != {expected['chains']}"
    below_top = report["groups"][: len(expected["groups"])]
    if below_top != expected["groups"] or not report["unreliable_top"]:
        return f"groups {report['groups']} != {expected['groups']} below the top"
    return None


# --- bundle_gallery: all 16 0/1 cochains on the tetrahedron boundary ------

GALLERY_EXPECTED = {
    # H_0..H_5 by |degree|: S^2 x S^1, the Hopf sphere S^3, and RP^3
    0: ["Z", "Z", "Z", "Z", "0", "0"],
    1: ["Z", "0", "0", "Z", "0", "0"],
    2: ["Z", "Z/2", "0", "Z", "0", "0"],
}


def sphere_degree(cochain: str) -> int:
    """Signed sum over the four boundary triangles, weighted -,+,-,+."""
    return sum(s * int(b) for s, b in zip((-1, 1, -1, 1), cochain))


def _gallery_args(rng: random.Random) -> list[str]:
    cochains = ["".join(map(str, bits)) for bits in product((0, 1), repeat=4)]
    rng.shuffle(cochains)
    return cochains


def _gallery_verify(args, report, expected) -> str | None:
    rows = report["rows"]
    if [r["cochain"] for r in rows] != args:
        return "rows do not follow the job's cochains"
    for r in rows:
        deg = sphere_degree(r["cochain"])
        if r["degree"] != deg:
            return f"cochain {r['cochain']}: degree {r['degree']} != {deg}"
        if r["extends_over_3_cell"] != (deg == 0):
            return f"cochain {r['cochain']}: extends_over_3_cell is {r['extends_over_3_cell']}"
        if r["groups"] != expected[abs(deg)]:
            return f"cochain {r['cochain']}: groups {r['groups']} != {expected[abs(deg)]}"
    return None


# --- structure_audit: csx check all --max-dim 6 --seed S ------------------


def _audit_cases(d: int = 6) -> dict[str, int]:
    """Case counts of csx check all at depth d, from the sizes of the objects.

    Identities count every simplex of dimensions 0..d.  The crossed relations
    run over all word pairs through degree 4 and 2000 seeded pairs above, at
    each index i.  The two lemmas run over all words through degree 3 and two
    seeded words of degree 4.
    """
    delta2 = [math.comb(m + 3, 2) for m in range(d + 1)]  # monotone maps [m] -> [2]
    crossed = sum(
        (math.factorial(n + 1) ** 2 if n <= 4 else 2000) * (n + 1) for n in range(1, d + 1)
    )
    lemma = sum(math.factorial(n + 1) for n in range(4)) + 2
    return {
        "identities:S": sum(math.factorial(m + 1) for m in range(d + 1)),
        "identities:C": sum(m + 1 for m in range(d + 1)),
        "identities:SC": sum(math.factorial(m) for m in range(d + 1)),
        "identities:delta": sum(delta2),
        "identities:twisted": sum((m + 1) * c for m, c in enumerate(delta2)),
        "crossed:face": crossed,
        "crossed:degeneracy": crossed,
        "lemma:pullback": lemma,
        "lemma:upsilon": lemma,
    }


def _audit_args(rng: random.Random) -> list[str]:
    seed = rng.randrange(2**31)
    return ["check", "all", "--max-dim", "6", "--seed", str(seed), "--format", "json"]


def _audit_verify(args, report, expected) -> str | None:
    got = {c["name"]: (c["cases"], c["pass"]) for c in report["checks"]}
    want = {name: (cases, True) for name, cases in expected.items()}
    if got != want:
        return f"checks {got} != {want}"
    if report["pass"] is not True:
        return "report does not pass"
    return None


WORKLOADS = {
    "sc_homology": Workload("sc_homology", _sc_args, _sc_verify, SC_EXPECTED),
    "bundle_gallery": Workload("bundle_gallery", _gallery_args, _gallery_verify, GALLERY_EXPECTED),
    "structure_audit": Workload("structure_audit", _audit_args, _audit_verify, _audit_cases()),
}

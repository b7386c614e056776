"""Acceptance gate: the headline computations at full stated scale.

Each criterion is one test that prints a single pass/fail line.  All integer
results are exact; there are no tolerances anywhere.
"""

import json
import time
from itertools import product
from math import factorial

from csx.bundles import (
    TwoCochain,
    boundary_delta,
    decorate_from_cochain,
    pullback_comparison,
    total_space,
    upsilon_comparison,
)
from csx.cli import main
from csx.constructions import twisted_product
from csx.homology import (
    homology_report,
    normalized_complex,
    smith_normal_form,
    verify_transforms,
)
from csx.perms import all_perms, degeneracy_perm, face_perm, multiply
from csx.simpset import (
    audit_identities,
    build_C,
    build_SC,
    build_delta,
    nondegenerate_list,
    quotient_map,
)
from oracles import boundary_matrix, nonzero_composites, pulled_index

Z = (1, ())
ZERO = (0, ())


def _line(num, desc, ok):
    print(f"criterion {num} ({desc}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} failed: {desc}"


def _cli_json(capsys, *argv):
    code = main([*argv, "--format", "json"])
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_criterion_1_quotient_homology_signature(capsys):
    t0 = time.time()
    code, rep = _cli_json(capsys, "homology", "SC", "--max-dim", "7")
    elapsed = time.time() - t0
    groups = [(h["betti"], tuple(h["torsion"])) for h in rep["H"]]
    ok = (
        code == 0
        and groups[:6] == [Z, ZERO, Z, ZERO, Z, ZERO]
        and all(t == () for _, t in groups[:6])
        and elapsed < 300
    )
    _line(1, "alternating Z,0 homology of the quotient through dim 5", ok)


def test_criterion_2_group_is_contractible(capsys):
    t0 = time.time()
    code, rep = _cli_json(capsys, "homology", "S", "--max-dim", "6")
    elapsed = time.time() - t0
    groups = [(h["betti"], tuple(h["torsion"])) for h in rep["H"]]
    ok = (
        code == 0
        and groups[0] == Z
        and all(groups[k] == ZERO for k in range(1, 5))
        and elapsed < 600
    )
    _line(2, "word object acyclic through dim 4", ok)


def test_criterion_3_rotation_subgroup_is_a_circle():
    C = build_C(5)
    rep = homology_report(normalized_complex(C))
    nd = [len(nondegenerate_list(C, n)) for n in range(6)]
    ok = (
        rep.groups[0] == Z
        and rep.groups[1] == Z
        and all(rep.groups[k] == ZERO for k in range(2, 5))
        and nd == [1, 1, 0, 0, 0, 0]
    )
    _line(3, "rotation subgroup has circle homology and (1,1,0,...) cells", ok)


def test_criterion_4_direct_bundle_equals_pullback():
    words = [g for n in range(4) for g in all_perms(n)]
    failures = [g for g in words if not pullback_comparison(g)]
    ok = len(words) == 33 and not failures
    _line(4, "minimal bundle equals quotient pullback for all 33 words", ok)


def test_criterion_5_reorientation_comparison():
    words = [g for n in range(4) for g in all_perms(n)]
    failures = [g for g in words if not upsilon_comparison(g)]
    ok = len(words) == 33 and not failures
    _line(5, "reoriented twisted product matches inverse-word bundle, 33 words", ok)


def test_criterion_6_crossed_relations_exhaustive():
    bad = 0
    cases = 0
    for n in range(1, 5):
        for h, f in product(all_perms(n), repeat=2):
            hf = multiply(h, f)
            for i in range(n + 1):
                cases += 1
                j = pulled_index(h, i)
                if face_perm(i, hf) != multiply(face_perm(i, h), face_perm(j, f)):
                    bad += 1
                if degeneracy_perm(i, hf) != multiply(
                    degeneracy_perm(i, h), degeneracy_perm(j, f)
                ):
                    bad += 1
    ok = bad == 0 and cases == sum(
        factorial(n + 1) ** 2 * (n + 1) for n in range(1, 5)
    )
    _line(6, "crossed face and degeneracy relations exhaustive to degree 4", ok)


def test_criterion_7_orbit_counts_and_fibers():
    max_dim = 7
    q = quotient_map(max_dim)
    S, SC = q.source, q.target
    ok = True
    for n in range(max_dim + 1):
        if SC.simplex_count(n) != factorial(n):
            ok = False
        fibers = [0] * SC.simplex_count(n)
        for k in range(S.simplex_count(n)):
            fibers[q.apply(n, k)] += 1
        if any(v != n + 1 for v in fibers):
            ok = False
    _line(7, "n! rotation classes with fibers of size n+1, n <= 7", ok)


def test_criterion_8_bundle_homology_probe():
    base = boundary_delta(3)
    targets = {
        (0, 0, 0, 0): [Z, Z, Z, Z],
        (0, 1, 0, 0): [Z, ZERO, ZERO, Z],
        (0, 1, 0, 1): [Z, (0, (2,)), ZERO, Z],
    }
    ok = True
    for bits, expected in targets.items():
        t0 = time.time()
        decor = decorate_from_cochain(base, TwoCochain(bits))
        rep = homology_report(normalized_complex(total_space(decor).total))
        elapsed = time.time() - t0
        if [rep.groups[k] for k in range(4)] != expected or elapsed >= 30:
            ok = False
    _line(8, "sphere-base bundles: trivial, Hopf, and 2-twisted homology", ok)


def test_criterion_9_property_suites():
    objects = [
        build_C(5),
        build_SC(5),
        build_delta(3, 4),
        twisted_product(build_C(3), build_delta(2, 3)),
        total_space(decorate_from_cochain(boundary_delta(3), TwoCochain((0, 1, 0, 0)))).total,
    ]
    ok = all(audit_identities(X) == [] for X in objects)
    certified = 0
    for X in objects:
        cc = normalized_complex(X)
        if nonzero_composites(cc):
            ok = False
        for n in range(1, X.max_dim + 1):
            sm = boundary_matrix(cc, n)
            if sm.rows <= 200 and sm.cols <= 200:
                M = sm.to_dense()
                sf = smith_normal_form(M, transforms=True)
                if not verify_transforms(M, sf):
                    ok = False
                certified += 1
    ok = ok and certified > 0
    _line(9, "identity audits, vanishing composite boundaries, certified reductions", ok)

"""End-to-end command-line behavior: reports, formats, and exit codes."""

import argparse
import contextlib
import copy
import io
import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import csx.checks
from csx import cli
from csx.bundles import TwoCochain, boundary_delta, decorate_from_cochain, decoration_to_json, total_space
from csx.cli import effective_cap, main
from csx.simpset import TruncatedSimplicialSet, build_SC, from_rules, sset_to_json

import oracles


@pytest.fixture(autouse=True)
def two_cpus(monkeypatch):
    """check all forks its crossed sweep on two or more CPUs; here it sees two on any host."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


def hopf_decoration() -> dict:
    """The JSON form of the degree-1 decoration of the tetrahedron boundary."""
    return decoration_to_json(decorate_from_cochain(boundary_delta(3), TwoCochain((0, 1, 0, 0))))


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv, "--format", "json")
    return code, json.loads(out)


def test_enumerate_quotient_counts(capsys):
    code, rep = run_json(capsys, "enumerate", "SC", "--max-dim", "4")
    assert code == 0
    assert rep["total"] == [1, 1, 2, 6, 24]
    assert rep["nondegenerate"] == [1, 0, 1, 2, 9]


def test_enumerate_group_counts(capsys):
    code, rep = run_json(capsys, "enumerate", "S", "--max-dim", "3")
    assert code == 0
    assert rep["total"] == [1, 2, 6, 24]


def test_enumerate_bundle_counts(capsys):
    code, rep = run_json(capsys, "enumerate", "E", "--g", "2,0,1", "--max-dim", "3")
    assert code == 0
    assert rep["total"] == [3, 12, 30, 60]
    assert rep["g"] == [2, 0, 1]


def test_enumerate_needs_word(capsys):
    code = main(["enumerate", "E"])
    assert code == 2


def test_check_all_passes(capsys):
    code, rep = run_json(capsys, "check", "all", "--max-dim", "3")
    assert code == 0
    assert rep["pass"] is True
    names = {c["name"] for c in rep["checks"]}
    assert {"crossed:face", "crossed:degeneracy", "lemma:pullback", "lemma:upsilon"} <= names
    assert all(c["counterexample"] is None for c in rep["checks"])


def test_check_identities_single_target(capsys):
    code, rep = run_json(capsys, "check", "identities", "--target", "SC", "--max-dim", "5")
    assert code == 0
    assert rep["checks"][0]["name"] == "identities:SC"


def test_unknown_identities_target_is_an_input_error(capsys):
    assert main(["check", "identities", "--target", "foo"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: unknown identities target 'foo'\n"
    assert captured.out == ""


def test_homology_circle(capsys):
    code, rep = run_json(capsys, "homology", "C", "--max-dim", "3")
    assert code == 0
    assert rep["groups"][:2] == ["Z", "Z"]
    assert rep["H"][0] == {"betti": 1, "torsion": []}
    assert rep["unreliable_top"] is True


def test_homology_quotient(capsys):
    code, rep = run_json(capsys, "homology", "SC", "--max-dim", "5")
    assert code == 0
    assert rep["groups"][:5] == ["Z", "0", "Z", "0", "Z"]
    assert rep["chains"] == [1, 0, 1, 2, 9, 44]


def test_homology_bundle_by_cochain(capsys):
    code, rep = run_json(
        capsys, "homology", "bundle", "--base", "boundary3", "--cochain", "1:1"
    )
    assert code == 0
    assert rep["groups"][:4] == ["Z", "0", "0", "Z"]


@pytest.mark.parametrize(
    "argv, groups",
    [
        (["E", "--g", "0,2,1", "--max-dim", "4"], ["Z", "Z", "0", "0"]),
        (["twisted", "--n", "2", "--max-dim", "5"], ["Z", "Z", "0", "0", "0"]),
    ],
    ids=["E021", "twisted2"],
)
def test_homology_of_a_circle_bundle_over_a_simplex_is_a_circle(capsys, argv, groups):
    code, rep = run_json(capsys, "homology", *argv)
    assert code == 0
    assert rep["groups"][:-1] == groups and rep["unreliable_top"] is True


def test_homology_of_E_needs_a_word(capsys):
    assert main(["homology", "E"]) == 2
    assert capsys.readouterr().err == "error: homology E needs --g\n"


@pytest.mark.parametrize(
    "argv, build",
    [
        (["SC", "--max-dim", "5"], lambda: build_SC(5)),
        (
            ["bundle", "--base", "boundary3", "--cochain", "1:1", "3:1"],
            lambda: total_space(decorate_from_cochain(boundary_delta(3), TwoCochain((0, 1, 0, 1)))).total,
        ),
    ],
    ids=["SC5", "boundary3-0101"],
)
def test_dump_matrices_writes_the_sorted_triplets_of_each_boundary(capsys, tmp_path, argv, build):
    code, rep = run_json(capsys, "homology", *argv, "--dump-matrices", str(tmp_path))
    assert code == 0
    X = build()
    assert rep["max_dim"] == X.max_dim
    files = [tmp_path / f"boundary_{n}.txt" for n in range(1, X.max_dim + 1)]
    assert rep["matrix_files"] == [str(f) for f in files]
    for n, f in enumerate(files, 1):
        assert f.read_text(encoding="utf-8") == oracles.boundary_triplets(X, n), n


def test_bundle_report(capsys):
    code, rep = run_json(capsys, "bundle", "--base", "boundary3", "--cochain", "1:1", "3:1")
    assert code == 0
    assert rep["degree"] == 2
    assert rep["chern_cochain"] == [0, 1, 0, 1]
    assert rep["pullback_square"] == "commutes"
    assert rep["groups"][:4] == ["Z", "Z/2", "0", "Z"]
    assert rep["total_space"]["max_dim"] == 4


@pytest.mark.parametrize("other_class, square", [(False, "commutes"), (True, "BROKEN")])
def test_bundle_square_compares_classes(capsys, monkeypatch, other_class, square):
    # one classifying entry moved to another word of degree 2: a word of the same class
    # keeps the square, a word of the other class breaks it and the run exits 1
    from csx import bundles

    real = bundles.total_space

    def forged(decor, max_dim=None):
        bundle = real(decor, max_dim=max_dim)
        classes, table = bundle.quotient.table[2], [list(level) for level in bundle.classifying.table]
        word = table[2][0]
        table[2][0] = next(j for j, c in enumerate(classes) if j != word and (c != classes[word]) == other_class)
        bundle.classifying = SimpleNamespace(table=table)
        return bundle

    monkeypatch.setattr(bundles, "total_space", forged)
    code, rep = run_json(capsys, "bundle", "--base", "boundary3", "--cochain", "1:1")
    assert (code, rep["pullback_square"]) == ((1 if other_class else 0), square)


def test_bundle_decoration_file(capsys, tmp_path):
    from csx.bundles import TwoCochain, boundary_delta, decorate_from_cochain, decoration_to_json

    decor = decorate_from_cochain(boundary_delta(3), TwoCochain((0, 0, 0, 0)))
    path = tmp_path / "decor.json"
    path.write_text(json.dumps(decoration_to_json(decor)), encoding="utf-8")
    code, rep = run_json(capsys, "homology", "bundle", "--decoration", str(path))
    assert code == 0
    assert rep["groups"][:4] == ["Z", "Z", "Z", "Z"]


def test_bundle_decoration_file_with_shuffled_base_rows(capsys, tmp_path):
    # the total space follows the file's rows; its groups and the square do not depend on them
    bits = (1, 0, 1, 0)
    decor = decorate_from_cochain(boundary_delta(3), TwoCochain(bits))
    base, orders = oracles.shuffled_ids(decor.base, seed=4)
    words = [entry["values"] for entry in decoration_to_json(decor)["assignment"]]
    obj = {
        "base": sset_to_json(base),
        "assignment": [
            {"dim": n, "values": [words[n][k] for k in order]} for n, order in enumerate(orders)
        ],
    }
    path = tmp_path / "decor.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    code, rep = run_json(capsys, "bundle", "--decoration", str(path))
    assert code == 0 and rep["pullback_square"] == "commutes"
    assert rep["groups"][:-1] == ["Z", "Z/2", "0", "Z"]
    assert rep["chern_cochain"] == [bits[k] for k in orders[2]] != list(bits)
    vertices = obj["base"]["dims"][0]["payloads"]
    assert vertices != sorted(vertices)
    assert rep["total_space"]["dims"][0]["payloads"] == [f"((0)x({v}))x(0)" for v in vertices]


def test_out_writes_file(capsys, tmp_path):
    target = tmp_path / "report.json"
    code = main(["enumerate", "C", "--max-dim", "2", "--format", "json", "--out", str(target)])
    assert code == 0
    assert capsys.readouterr().out == ""
    rep = json.loads(target.read_text(encoding="utf-8"))
    assert rep["total"] == [1, 2, 3]


def test_out_into_a_missing_directory_is_an_output_error(capsys, tmp_path):
    code = main(["enumerate", "C", "--max-dim", "2", "--out", str(tmp_path / "missing" / "x.json")])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_a_reader_that_closes_early_is_an_output_error():
    read_end, write_end = os.pipe()
    os.close(read_end)
    argv = [sys.executable, "-m", "csx.cli", "enumerate", "SC", "--max-dim", "3"]
    out = subprocess.run(argv, stdout=write_end, stderr=subprocess.PIPE, text=True)
    os.close(write_end)
    assert out.returncode == 2
    assert out.stderr.startswith("error: ") and "Traceback" not in out.stderr


def test_json_output_is_byte_identical(capsys):
    _, first = run(capsys, "check", "crossed", "--max-dim", "3", "--format", "json")
    _, second = run(capsys, "check", "crossed", "--max-dim", "3", "--format", "json")
    assert first == second
    assert first.endswith("\n")


def test_text_mirrors_json(capsys):
    _, rep = run_json(capsys, "enumerate", "C", "--max-dim", "2")
    _, text = run(capsys, "enumerate", "C", "--max-dim", "2")
    for key in ("command", "which", "max_dim"):
        assert f"{key}: {rep[key]}" in text
    assert "total: 1 2 3" in text


def test_exit_codes_for_bad_input(capsys):
    assert main(["enumerate", "E", "--g", "1,1,0"]) == 2
    assert main(["homology", "bundle", "--decoration", "/no/such/file.json"]) == 2
    assert main(["homology", "bundle", "--base", "nowhere"]) == 2
    assert main(["homology", "bundle", "--base", "boundary3", "--cochain", "9:1"]) == 2
    assert main(["homology", "bundle", "--base", "boundary3", "--cochain", "oops"]) == 2


@pytest.mark.parametrize(
    "base, items, message",
    [
        ("boundary3", ["1:1", "1:0"], "cochain id 1 given twice"),
        ("point", ["0:1"], "cochain item '0:1': the base has no 2-simplices"),
        *(
            ("boundary3", [item], f"bad cochain item {item!r}; expected id:value with integer id and value")
            for item in ("x:1", "1:y", ":1", "oops")
        ),
    ],
)
@pytest.mark.parametrize("command", ["bundle", "homology"])
def test_bad_cochain_items_are_input_errors(capsys, command, base, items, message):
    argv = [command] + (["bundle"] if command == "homology" else [])
    assert main(argv + ["--base", base, "--cochain", *items]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["enumerate", "delta", "--n", "-1"],
        ["enumerate", "twisted", "--n", "-1"],
        ["check", "identities", "--target", "delta", "--n", "-2"],
        ["check", "identities", "--target", "twisted", "--n", "-2"],
        ["homology", "delta", "--n", "-1"],
    ],
)
def test_negative_simplex_dimension_is_an_input_error(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: simplex dimension n must be nonnegative")
    assert captured.out == ""


@pytest.mark.parametrize(
    "target, options",
    [
        ("S", ["--base", "boundary3", "--cochain", "0:1"]),
        ("SC", ["--cochain"]),
        ("delta", ["--decoration", "decor.json"]),
        ("C", ["--base", "point"]),
    ],
)
def test_bundle_options_on_another_homology_target_are_input_errors(capsys, target, options):
    assert main(["homology", target, "--max-dim", "2", *options]) == 2
    captured = capsys.readouterr()
    given = [opt for opt in ("--decoration", "--base", "--cochain") if opt in options]
    assert captured.err == f"error: homology {target} does not take {', '.join(given)} (bundle target only)\n"
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv, message",
    [
        (["homology", "S", "--n", "5"], "homology S does not take --n (delta and twisted targets only)"),
        (["check", "crossed", "--target", "S"], "check crossed does not take --target (identities suite only)"),
        (["enumerate", "S", "--g", "1,0"], "enumerate S does not take --g (E target only)"),
        (
            ["check", "identities", "--target", "S", "--n", "4"],
            "check identities S does not take --n (delta and twisted identities only)",
        ),
        (["homology", "SC", "--g", "0,1"], "homology SC does not take --g (E target only)"),
    ],
)
def test_per_target_options_elsewhere_are_input_errors(capsys, argv, message):
    assert main(argv + ["--max-dim", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "all", "--n", "3"],
        ["check", "identities", "--n", "3"],
        ["check", "identities", "--target", "twisted", "--n", "1"],
        ["enumerate", "twisted", "--n", "1"],
        ["homology", "delta", "--n", "1"],
        ["homology", "twisted", "--n", "1"],
    ],
)
def test_simplex_dimension_where_it_applies_is_accepted(capsys, argv):
    assert main(argv + ["--max-dim", "2"]) == 0


def test_unset_simplex_dimension_reports_its_default(capsys):
    _, given = run_json(capsys, "enumerate", "delta", "--n", "2")
    _, default = run_json(capsys, "enumerate", "delta")
    assert default == given and default["n"] == 2


@pytest.mark.parametrize("seed", [0, 1, 7, 12345])
def test_draw_is_random_sample_over_the_same_stream(seed):
    ours, theirs = random.Random(seed), random.Random(seed)
    for _ in range(20):
        for n in range(cli.HARD_CAP + 1):
            assert csx.checks._draw(ours, n) == tuple(theirs.sample(range(n + 1), n + 1))
            assert ours.getstate() == theirs.getstate()


# a class read from a file is checked where it is parsed: (value, the error line)
_BAD_WORDS = {
    "unrotated word": ("circ:1,0,2", "error: not a canonical circular word: (1, 0, 2)"),
    "repeated letter": ("circ:0,2,2", "error: not a canonical circular word: (0, 2, 2)"),
    "short word": ("circ:0,1", "error: degree 1 rotation class on a 2-simplex"),
    "no prefix": ("0,1,2", "error: expected a circ: payload, got '0,1,2'"),
    "no letters": ("circ:", "error: bad rotation class 'circ:'; expected circ: and comma-separated ints"),
    "bad letter": (
        "circ:0,a,1",
        "error: bad rotation class 'circ:0,a,1'; expected circ: and comma-separated ints",
    ),
}


@pytest.mark.parametrize(
    "case", ["string max_dim", "list payload", "int value", "top-level list", *_BAD_WORDS]
)
def test_malformed_decoration_file_is_an_input_error(capsys, tmp_path, case):
    obj = hopf_decoration()
    if case == "string max_dim":
        obj["base"]["max_dim"] = "2"
    elif case == "list payload":
        obj["base"]["dims"][0]["payloads"][0] = [0]
    elif case == "int value":
        obj["assignment"][2]["values"][0] = 5
    elif case in _BAD_WORDS:
        obj["assignment"][2]["values"][1] = _BAD_WORDS[case][0]
    else:
        obj = [obj]
    path = tmp_path / "decor.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    assert main(["bundle", "--decoration", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    if case in _BAD_WORDS:
        assert err == _BAD_WORDS[case][1] + "\n"


@pytest.mark.parametrize("case", ["repeated and extra dims", "dim above the base", "bool dim"])
def test_conflicting_decoration_dims_are_an_input_error(capsys, tmp_path, case):
    obj = hopf_decoration()
    if case == "repeated and extra dims":
        # a later flat dimension 2 would turn the Hopf sphere into S^2 x S^1
        obj["assignment"] += [
            {"dim": 2, "values": ["circ:0,1,2"] * 4},
            {"dim": 7, "values": ["circ:0"]},
        ]
    elif case == "dim above the base":
        obj["assignment"].append({"dim": 3, "values": []})
    else:
        obj["assignment"][1]["dim"] = True
    path = tmp_path / "decor.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    assert main(["homology", "bundle", "--decoration", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("drop", ["assignment", "base", "max_dim", "faces", "dim", "values"])
def test_missing_decoration_key_is_an_input_error(capsys, tmp_path, drop):
    obj = hopf_decoration()
    owner = {
        "assignment": obj,
        "base": obj,
        "max_dim": obj["base"],
        "faces": obj["base"]["dims"][1],
        "dim": obj["assignment"][2],
        "values": obj["assignment"][2],
    }[drop]
    del owner[drop]
    path = tmp_path / "decor.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    assert main(["homology", "bundle", "--decoration", str(path)]) == 2
    assert capsys.readouterr().err == f"error: missing key '{drop}'\n"


def test_construction_bug_is_not_an_input_error(monkeypatch):
    # a rule whose face leaves the payload lists is a bug in the builder
    def broken(max_dim, args):
        return from_rules(1, [[(0,)], [(0, 1)]], lambda n, p, i: (9,)), {}

    monkeypatch.setitem(cli._OBJECTS, "S", broken)
    with pytest.raises(KeyError):
        main(["homology", "S", "--max-dim", "1"])


def _exit_code_for_decoration(obj) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "decor.json"
        path.write_text(json.dumps(obj), encoding="utf-8")
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return main(["homology", "bundle", "--decoration", str(path)])


_KEYS = ("base", "assignment", "dim", "values", "max_dim", "dims", "payloads", "faces", "degeneracies")
_SCALARS = st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=8)
json_values = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(_KEYS) | st.text(max_size=4), inner, max_size=4),
    max_leaves=12,
)


@given(json_values)
@settings(max_examples=200, deadline=None)
def test_any_json_value_is_a_result_or_an_input_error(obj):
    assert _exit_code_for_decoration(obj) in (0, 2)


def _paths(node, path=()):
    """Every (container, key) position inside a JSON tree."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield node, key
        yield from _paths(child, path + (key,))


_SWAPS = (None, True, False, -1, 0, 1, 3, 7, 2**70, 1.5, "", "x", "circ:0,1,2", "circ:0,2,1", [], [0], {})


@given(st.lists(st.tuples(st.integers(0, 10**6), st.sampled_from(("delete",) + _SWAPS)), max_size=3))
@settings(max_examples=120, deadline=None)
def test_damaged_decoration_is_a_result_or_an_input_error(edits):
    obj = hopf_decoration()
    for pick, edit in edits:
        spots = list(_paths(obj))
        if not spots:  # earlier deletions emptied the object; it is checked as it is
            break
        owner, key = spots[pick % len(spots)]
        if edit == "delete":
            del owner[key]
        else:
            owner[key] = copy.deepcopy(edit)
    assert _exit_code_for_decoration(obj) in (0, 2)


def _checks_by_name(rep) -> dict:
    return {c["name"]: c for c in rep["checks"]}


def test_check_crossed_catches_a_forged_degeneracy_at_degree_3(capsys, monkeypatch):
    real = csx.checks.degeneracy_perm

    def forged(i, f):
        out = real(i, f)
        return out[::-1] if f == (0, 2, 1, 3) and i == 0 else out

    monkeypatch.setattr(csx.checks, "degeneracy_perm", forged)
    code, rep = run_json(capsys, "check", "crossed", "--max-dim", "6")
    checks = _checks_by_name(rep)
    assert code == 1 and not rep["pass"]
    assert checks["crossed:face"]["pass"]
    assert checks["crossed:degeneracy"]["counterexample"].startswith("n=3 ")


def test_check_crossed_catches_a_forged_face_at_degree_5(capsys, monkeypatch):
    real = csx.checks.face_perm

    def forged(i, f):
        out = real(i, f)
        return out[::-1] if len(f) == 6 else out

    monkeypatch.setattr(csx.checks, "face_perm", forged)
    code, rep = run_json(capsys, "check", "crossed", "--max-dim", "6")
    checks = _checks_by_name(rep)
    assert code == 1 and not rep["pass"]
    assert checks["crossed:degeneracy"]["pass"]
    assert checks["crossed:face"]["counterexample"].startswith("n=5 ")


def _forge_swapped_face_in_E(monkeypatch):
    """Swap two face entries in the top dimension of E((2, 0, 1)) only."""
    from csx import bundles

    real = bundles.E_of

    def forged(g, max_dim=None):
        bundle = real(g, max_dim)
        if g == (2, 0, 1):
            E = bundle.total
            top = [list(col) for col in E.faces[E.max_dim]]
            k = next(k for k, (a, b) in enumerate(zip(top[0], top[1])) if a != b)
            top[0][k], top[1][k] = top[1][k], top[0][k]
            faces = E.faces[:-1] + [tuple(map(tuple, top))]
            bundle.total = TruncatedSimplicialSet(E.max_dim, E.payloads, faces, E.degeneracies)
        return bundle

    monkeypatch.setattr(bundles, "E_of", forged)


def test_check_lemma_catches_a_swapped_face_entry_in_E(capsys, monkeypatch):
    _forge_swapped_face_in_E(monkeypatch)
    code, rep = run_json(capsys, "check", "lemma", "--max-dim", "6")
    assert code == 1
    assert _checks_by_name(rep)["lemma:pullback"]["counterexample"] == "g=(2, 0, 1)"


def test_check_upsilon_catches_a_swapped_face_entry_in_E(capsys, monkeypatch):
    # the upsilon lemma reads E at the inverse word: (1, 2, 0) inverts to (2, 0, 1)
    _forge_swapped_face_in_E(monkeypatch)
    code, rep = run_json(capsys, "check", "upsilon", "--max-dim", "6")
    assert code == 1
    assert _checks_by_name(rep)["lemma:upsilon"]["counterexample"] == "g=(1, 2, 0)"


def test_check_all_reports_each_lemma_at_its_own_word(capsys, monkeypatch):
    # one forged E((2, 0, 1)) serves the pullback lemma at (2, 0, 1) and the
    # upsilon lemma at its inverse; both stop after degree 2
    _forge_swapped_face_in_E(monkeypatch)
    code, rep = run_json(capsys, "check", "all", "--max-dim", "6")
    checks = _checks_by_name(rep)
    assert code == 1
    assert checks["lemma:pullback"]["counterexample"] == "g=(2, 0, 1)"
    assert checks["lemma:upsilon"]["counterexample"] == "g=(1, 2, 0)"
    assert checks["lemma:pullback"]["cases"] == checks["lemma:upsilon"]["cases"] == 1 + 2 + 6


def test_check_all_builds_each_E_once_per_run(capsys, monkeypatch):
    from csx import bundles

    real = bundles.E_of
    calls = []

    def counting(g, max_dim=None):
        calls.append((g, max_dim))
        return real(g, max_dim)

    monkeypatch.setattr(bundles, "E_of", counting)
    argv = ("check", "all", "--max-dim", "6", "--seed", "7")
    assert run_json(capsys, *argv)[0] == 0
    # the 33 words of degrees 0-3, and seed 7's two degree-4 words and their
    # inverses: each E built once, not once per lemma (70)
    assert len(calls) == len(set(calls)) == 37
    # a second run builds them all again, so no E outlives its run
    assert run_json(capsys, *argv)[0] == 0
    assert calls[37:] == calls[:37]


def _assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_check_all_runs_the_crossed_sweep_in_a_child(capsys, monkeypatch):
    monkeypatch.setattr(csx.checks, "_check_crossed", lambda cfg: [csx.checks._check_result(f"pid {os.getpid()}", 0, None)])
    code, rep = run_json(capsys, "check", "all", "--max-dim", "3")
    names = [c["name"] for c in rep["checks"]]
    assert code == 0
    # the five identity audits, then the sweep's record, then the lemmas
    assert names[5].startswith("pid ") and names[5] != f"pid {os.getpid()}"
    assert names[6:] == ["lemma:pullback", "lemma:upsilon"]
    _assert_no_child()


def test_check_all_catches_a_forged_face_at_degree_5_in_the_child(capsys, monkeypatch):
    argv = ("check", "all", "--max-dim", "6")
    real_code, real = run_json(capsys, *argv)
    assert real_code == 0
    real_face = csx.checks.face_perm

    def forged(i, f):
        out = real_face(i, f)
        return out[::-1] if len(f) == 6 else out

    monkeypatch.setattr(csx.checks, "face_perm", forged)
    code, rep = run_json(capsys, *argv)
    _assert_no_child()
    checks = _checks_by_name(rep)
    assert code == 1 and not rep["pass"]
    assert checks["crossed:face"]["counterexample"].startswith("n=5 ")
    assert checks["crossed:degeneracy"] == _checks_by_name(real)["crossed:degeneracy"]
    assert [c for c in rep["checks"] if not c["name"].startswith("crossed:")] == [
        c for c in real["checks"] if not c["name"].startswith("crossed:")
    ]


def test_an_input_error_in_the_child_exits_2(capsys, monkeypatch):
    def boom(cfg):
        raise ValueError("boom")

    monkeypatch.setattr(csx.checks, "_check_crossed", boom)
    assert main(["check", "all", "--max-dim", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: boom\n" and captured.out == ""
    _assert_no_child()


def test_an_internal_error_in_the_child_stays_a_traceback(capsys, monkeypatch):
    def bug(cfg):
        raise RuntimeError("bug")

    monkeypatch.setattr(csx.checks, "_check_crossed", bug)
    with pytest.raises(RuntimeError, match="^bug$") as info:
        main(["check", "all", "--max-dim", "3"])
    # the child's own traceback comes along as the cause
    assert "in bug" in str(info.value.__cause__)
    _assert_no_child()


def test_a_child_that_sends_nothing_is_an_internal_error(capsys, monkeypatch):
    monkeypatch.setattr(csx.checks, "_check_crossed", lambda cfg: os._exit(5))
    with pytest.raises(RuntimeError, match=r"wait status 1280\)$"):
        main(["check", "all", "--max-dim", "3"])
    _assert_no_child()


def test_a_failing_parent_suite_still_reaps_the_child(capsys, monkeypatch):
    def bug(cfg, target, args):
        raise RuntimeError("parent")

    monkeypatch.setattr(csx.checks, "_check_identities", bug)
    with pytest.raises(RuntimeError, match="^parent$"):
        main(["check", "all", "--max-dim", "3"])
    _assert_no_child()


def _fork_fails():
    raise OSError("no fork")


@pytest.mark.parametrize("fork", [None, _fork_fails], ids=["missing", "failing"])
def test_check_all_without_fork_runs_the_sweep_in_process(capsys, monkeypatch, fork):
    if fork is None:
        monkeypatch.delattr(os, "fork")
    else:
        monkeypatch.setattr(os, "fork", fork)
    assert main(["check", "all", "--max-dim", "6", "--seed", "7", "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert out.encode("utf-8") == (Path(__file__).parent / "golden" / "check_all_6_seed7.json").read_bytes()
    _assert_no_child()


def _fork_on_one_cpu():
    raise AssertionError("check all forked on one CPU")


@pytest.mark.parametrize("cpus", ["affinity", "cpu_count"])
def test_check_all_on_one_cpu_runs_the_sweep_in_process(capsys, monkeypatch, cpus):
    if cpus == "affinity":
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    else:
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
    monkeypatch.setattr(os, "fork", _fork_on_one_cpu)
    assert main(["check", "all", "--max-dim", "6", "--seed", "7", "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert out.encode("utf-8") == (Path(__file__).parent / "golden" / "check_all_6_seed7.json").read_bytes()
    _assert_no_child()


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_crossed_sweep_matches_the_word_by_word_sweep(seed):
    for max_dim in range(7):
        args = argparse.Namespace(max_dim=max_dim, seed=seed)
        assert csx.checks._check_crossed(args) == oracles.check_crossed_by_words(args)


@pytest.mark.parametrize(
    "rel, faults",
    [
        ("face_perm", [((3, 0, 2, 1), 2), ((3, 2, 1, 0), 2)]),
        ("degeneracy_perm", [((3, 1, 0, 2, 4), 0), ((1, 0, 4, 2, 3), 3)]),
        ("face_perm", [((5, 0, 4, 1, 3, 2), 4), ((2, 4, 0, 5, 3, 1), 1)]),
        # words of the pairs seed 3 draws at the faulty degree: an f of pair
        # 40 and an h of pair 1500; two faults on one word break a pair at
        # two indices, of which the first is reported
        ("degeneracy_perm", [((4, 1, 5, 0, 3, 2), 2), ((2, 4, 3, 5, 1, 0), 5)]),
        (
            "face_perm",
            [((2, 4, 1, 6, 0, 5, 3), 3), ((2, 4, 1, 6, 0, 5, 3), 5), ((6, 5, 1, 2, 4, 0, 3), 6)],
        ),
    ],
    ids=[
        "face-degree-3",
        "degeneracy-degree-4",
        "face-degree-5-sampled",
        "degeneracy-degree-5-sampled",
        "face-degree-6-sampled",
    ],
)
def test_crossed_sweep_reports_the_word_by_word_counterexample(monkeypatch, rel, faults):
    # two planted faults in one degree: the block sweep must still report the
    # first case the word-by-word loop meets
    real = getattr(csx.checks, rel)

    def forged(i, f):
        out = real(i, f)
        return out[::-1] if (f, i) in faults else out

    for module in (csx.checks, oracles):
        monkeypatch.setattr(module, rel, forged)
    args = argparse.Namespace(max_dim=6, seed=3)
    got = csx.checks._check_crossed(args)
    assert got == oracles.check_crossed_by_words(args)
    bad = next(c for c in got if c["name"] == f"crossed:{rel.split('_')[0]}")
    assert bad["counterexample"].startswith(f"n={len(faults[0][0]) - 1} ")


def test_bundle_builds_its_decoration_map_once(capsys, monkeypatch):
    from csx import bundles

    real = bundles.decoration_map
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    # every module that bound the name, so a call through any binding counts
    for mod in (bundles, cli):
        if getattr(mod, "decoration_map", None) is real:
            monkeypatch.setattr(mod, "decoration_map", counting)
    code, rep = run_json(capsys, "bundle", "--base", "boundary3", "--cochain", "1:1")
    assert code == 0 and rep["pullback_square"] == "commutes"
    assert len(calls) == 1


def test_exit_code_for_cap(capsys):
    assert main(["enumerate", "S", "--max-dim", "12"]) == 3


_WORD_26 = ",".join(map(str, range(26)))


@pytest.mark.parametrize(
    "argv",
    [
        ["homology", "delta", "--n", "40", "--max-dim", "6"],
        ["enumerate", "twisted", "--n", "40", "--max-dim", "6"],
        ["check", "identities", "--target", "delta", "--n", "10"],
        ["homology", "E", "--g", _WORD_26, "--max-dim", "4"],
        ["enumerate", "E", "--g", _WORD_26],
    ],
    ids=["homology-delta", "enumerate-twisted", "check-delta", "homology-E", "enumerate-E"],
)
def test_n_and_the_degree_of_g_are_capped_before_anything_is_built(capsys, monkeypatch, argv):
    def refuse(*args, **kwargs):
        raise AssertionError("a builder was called")

    for name in ("build_delta", "build_C", "build_S"):
        monkeypatch.setattr(cli, name, refuse)
    monkeypatch.setattr("csx.bundles.E_of", refuse)
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: --n ") or err.startswith("error: the degree of --g 25 ")
    assert err.endswith(" exceeds cap 9\n")


def test_env_var_lowers_the_cap_on_n_and_g(capsys, monkeypatch):
    monkeypatch.setenv("CSX_MAX_DIM", "3")
    assert main(["enumerate", "delta", "--n", "4", "--max-dim", "2"]) == 3
    assert main(["enumerate", "E", "--g", "1,0,3,2,4", "--max-dim", "2"]) == 3
    assert main(["enumerate", "delta", "--n", "3", "--max-dim", "2"]) == 0
    assert main(["enumerate", "E", "--g", "1,3,0,2", "--max-dim", "2"]) == 0


def test_bundle_depth_is_capped_before_anything_is_built(capsys, monkeypatch, tmp_path):
    # without --max-dim a bundle is built two above its base: a 5-simplex base goes to depth 7
    from csx import bundles

    path = tmp_path / "solid5.json"
    decor = bundles.extend_decoration(bundles.solid_delta(5), {})
    path.write_text(json.dumps(bundles.decoration_to_json(decor)), encoding="utf-8")

    def refuse(*args, **kwargs):
        raise AssertionError("SC was built")

    monkeypatch.setattr(bundles, "build_SC", refuse)
    monkeypatch.setenv("CSX_MAX_DIM", "6")
    assert main(["homology", "bundle", "--decoration", str(path)]) == 3
    assert capsys.readouterr().err == "error: decoration file needs dimension 7, above cap 6\n"
    monkeypatch.setenv("CSX_MAX_DIM", "4")
    assert main(["bundle", "--decoration", str(path), "--max-dim", "4"]) == 3
    assert capsys.readouterr().err == "error: decoration file needs dimension 5, above cap 4\n"


def test_a_bundle_without_max_dim_is_capped_at_its_own_depth(capsys, monkeypatch):
    # boundary3 is 2-dimensional, so without --max-dim its bundle is built two
    # above it, at depth 4, whatever the default depth of other targets
    from csx import bundles

    monkeypatch.setenv("CSX_MAX_DIM", "4")
    assert main(["bundle", "--base", "boundary3", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["counts"]["total"] == [4, 20, 60, 136, 260]
    for cap in ("4", "5"):
        monkeypatch.setenv("CSX_MAX_DIM", cap)
        assert main(["homology", "bundle", "--base", "boundary3", "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["max_dim"] == 4 and report["groups"] == ["Z", "Z", "Z", "Z", "0"]

    def refuse(*args, **kwargs):
        raise AssertionError("a bundle was built")

    for name in ("build_SC", "decorate_from_cochain", "total_space"):
        monkeypatch.setattr(bundles, name, refuse)
    monkeypatch.setenv("CSX_MAX_DIM", "3")
    for argv in (["homology", "bundle", "--base", "boundary3"], ["bundle", "--base", "boundary3"]):
        assert main(argv) == 3
        assert capsys.readouterr().err == "error: base boundary3 needs dimension 4, above cap 3\n"


def test_env_var_lowers_cap(monkeypatch):
    monkeypatch.setenv("CSX_MAX_DIM", "3")
    assert effective_cap() == 3
    assert main(["enumerate", "S", "--max-dim", "4"]) == 3
    monkeypatch.setenv("CSX_MAX_DIM", "99")  # may not raise the hard cap
    assert effective_cap() == 9


def test_negative_env_cap_is_an_input_error(capsys, monkeypatch):
    monkeypatch.setenv("CSX_MAX_DIM", "-1")
    assert main(["enumerate", "S", "--max-dim", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: CSX_MAX_DIM must be nonnegative, got '-1'\n"
    assert captured.out == ""
    monkeypatch.setenv("CSX_MAX_DIM", "0")
    assert main(["enumerate", "S", "--max-dim", "0"]) == 0


def test_negative_max_dim_is_an_input_error(capsys):
    assert main(["enumerate", "S", "--max-dim", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: max dim must be nonnegative\n"
    assert captured.out == ""


def test_installed_entry_point():
    out = subprocess.run(
        [sys.executable, "-m", "csx.cli", "enumerate", "SC", "--max-dim", "3", "--format", "json"],
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0
    assert json.loads(out.stdout)["total"] == [1, 1, 2, 6]

"""End-to-end command-line behavior: reports, formats, and exit codes."""

import json
import subprocess
import sys

import pytest

from csx.cli import RunConfig, effective_cap, main


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


def test_bundle_report(capsys):
    code, rep = run_json(capsys, "bundle", "--base", "boundary3", "--cochain", "1:1", "3:1")
    assert code == 0
    assert rep["degree"] == 2
    assert rep["chern_cochain"] == [0, 1, 0, 1]
    assert rep["pullback_square"] == "commutes"
    assert rep["groups"][:4] == ["Z", "Z/2", "0", "Z"]
    assert rep["total_space"]["max_dim"] == 4


def test_bundle_decoration_file(capsys, tmp_path):
    from csx.bundles import TwoCochain, boundary_delta, decorate_from_cochain, decoration_to_json

    decor = decorate_from_cochain(boundary_delta(3), TwoCochain((0, 0, 0, 0)))
    path = tmp_path / "decor.json"
    path.write_text(json.dumps(decoration_to_json(decor)), encoding="utf-8")
    code, rep = run_json(capsys, "homology", "bundle", "--decoration", str(path))
    assert code == 0
    assert rep["groups"][:4] == ["Z", "Z", "Z", "Z"]


def test_out_writes_file(capsys, tmp_path):
    target = tmp_path / "report.json"
    code = main(["enumerate", "C", "--max-dim", "2", "--format", "json", "--out", str(target)])
    assert code == 0
    assert capsys.readouterr().out == ""
    rep = json.loads(target.read_text(encoding="utf-8"))
    assert rep["total"] == [1, 2, 3]


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


@pytest.mark.parametrize("case", ["string max_dim", "list payload", "int value", "top-level list"])
def test_malformed_decoration_file_is_an_input_error(capsys, tmp_path, case):
    from csx.bundles import TwoCochain, boundary_delta, decorate_from_cochain, decoration_to_json

    obj = decoration_to_json(decorate_from_cochain(boundary_delta(3), TwoCochain((0, 1, 0, 0))))
    if case == "string max_dim":
        obj["base"]["max_dim"] = "2"
    elif case == "list payload":
        obj["base"]["dims"][0]["payloads"][0] = [0]
    elif case == "int value":
        obj["assignment"][2]["values"][0] = 5
    else:
        obj = [obj]
    path = tmp_path / "decor.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    assert main(["bundle", "--decoration", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_exit_code_for_cap(capsys):
    assert main(["enumerate", "S", "--max-dim", "12"]) == 3


def test_env_var_lowers_cap(monkeypatch):
    monkeypatch.setenv("CSX_MAX_DIM", "3")
    assert effective_cap() == 3
    assert main(["enumerate", "S", "--max-dim", "4"]) == 3
    monkeypatch.setenv("CSX_MAX_DIM", "99")  # may not raise the hard cap
    assert effective_cap() == 9


def test_run_config_validation():
    with pytest.raises(ValueError):
        RunConfig(command="enumerate", max_dim=-1)


def test_installed_entry_point():
    out = subprocess.run(
        [sys.executable, "-m", "csx.cli", "enumerate", "SC", "--max-dim", "3", "--format", "json"],
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0
    assert json.loads(out.stdout)["total"] == [1, 1, 2, 6]

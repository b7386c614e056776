"""Golden CLI outputs: canonical JSON that must not change byte for byte.

Each file under golden/ holds the exact standard output of one command.
A change to the reduction pipeline may change how a group is computed,
never what is printed.  Regenerate a file only for an intended change of
output, with the command listed next to it here.
"""

from pathlib import Path

import pytest

from csx.cli import main

GOLDEN = Path(__file__).parent / "golden"

COMMANDS = {
    "homology_SC_7.json": ["homology", "SC", "--max-dim", "7"],
    "homology_S_6.json": ["homology", "S", "--max-dim", "6"],
    "homology_C_3.json": ["homology", "C", "--max-dim", "3"],
    # boundary3 bundles of sphere degree 0, 1 and 2: S^2 x S^1, S^3, RP^3
    "homology_bundle_degree0.json": ["homology", "bundle", "--base", "boundary3"],
    "homology_bundle_degree1.json": ["homology", "bundle", "--base", "boundary3", "--cochain", "1:1"],
    "homology_bundle_degree2.json": [
        "homology", "bundle", "--base", "boundary3", "--cochain", "1:1", "3:1",
    ],
    # one command per object the CLI builds by name, and the audits over them
    "enumerate_S_4.json": ["enumerate", "S", "--max-dim", "4"],
    "enumerate_C_4.json": ["enumerate", "C", "--max-dim", "4"],
    "enumerate_SC_4.json": ["enumerate", "SC", "--max-dim", "4"],
    "enumerate_delta_2.json": ["enumerate", "delta", "--n", "2"],
    "enumerate_twisted_2.json": ["enumerate", "twisted", "--n", "2"],
    "enumerate_E_201_3.json": ["enumerate", "E", "--g", "2,0,1", "--max-dim", "3"],
    "check_all_4.json": ["check", "all", "--max-dim", "4"],
    # the benchmark's audit: exhaustive crossed sweep through degree 4, sampled above
    "check_all_6_seed7.json": ["check", "all", "--max-dim", "6", "--seed", "7"],
    "check_identities_twisted_3.json": [
        "check", "identities", "--target", "twisted", "--n", "3", "--max-dim", "4",
    ],
    # every face and degeneracy table of a pullback through the quotient map
    "bundle_degree1.json": ["bundle", "--base", "boundary3", "--cochain", "1:1"],
    # the degree-2 total space (RP^3, with torsion) and a bundle over a circle
    "bundle_degree2.json": ["bundle", "--base", "boundary3", "--cochain", "1:1", "3:1"],
    "bundle_boundary2.json": ["bundle", "--base", "boundary2"],
}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_golden_output(capsys, name):
    code = main(COMMANDS[name] + ["--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.encode("utf-8") == (GOLDEN / name).read_bytes()

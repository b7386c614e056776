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
}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_golden_output(capsys, name):
    code = main(COMMANDS[name] + ["--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.encode("utf-8") == (GOLDEN / name).read_bytes()

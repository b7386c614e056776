"""The top-level package: the README's Library snippet runs as printed."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import csx

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_snippet_prints_the_groups_of_sc(capsys):
    section = README.read_text(encoding="utf-8").split("## Library", 1)[1]
    snippet = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(snippet, {})
    assert capsys.readouterr().out == "['Z', '0', 'Z', '0', 'Z']\n"


def test_top_level_names_resolve():
    from csx import bundles

    assert all(callable(getattr(csx, name)) for name in csx.__all__)
    assert csx.__version__ == "0.1.0"
    # the comparisons resolve through csx.bundles on access, not by a copy
    assert csx.pullback_comparison is bundles.pullback_comparison
    assert csx.upsilon_comparison is bundles.upsilon_comparison
    with pytest.raises(AttributeError):
        csx.no_such_name


# Run in a fresh interpreter: what one CLI process imports, and the
# comparisons that load csx.bundles on first access.
_STARTUP_PROBE = """
import json, sys
import csx, csx.cli
csx.cli.main(["homology", "SC", "--max-dim", "3", "--format", "json"])
heavy = [m for m in ("csx.bundles", "dataclasses", "inspect") if m in sys.modules]
names = {}
exec("from csx import *", names)
print(json.dumps({
    "heavy": heavy,
    "pullback": csx.pullback_comparison((1, 0)),
    "star": sorted(k for k in names if not k.startswith("__")),
}))
"""


def test_a_homology_run_loads_no_bundles_or_dataclasses():
    src = str(Path(csx.__file__).resolve().parent.parent)
    path = os.pathsep.join([src, *filter(None, [os.environ.get("PYTHONPATH")])])
    out = subprocess.run(
        [sys.executable, "-c", _STARTUP_PROBE],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        check=True,
    ).stdout.splitlines()
    assert json.loads(out[0])["groups"] == ["Z", "0", "Z", "Z^2"]
    probe = json.loads(out[-1])
    assert probe == {"heavy": [], "pullback": True, "star": sorted(csx.__all__)}

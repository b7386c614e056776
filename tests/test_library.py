"""The top-level package: the README's Library snippet runs as printed."""

import re
from pathlib import Path

import csx

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_snippet_prints_the_groups_of_sc(capsys):
    section = README.read_text(encoding="utf-8").split("## Library", 1)[1]
    snippet = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(snippet, {})
    assert capsys.readouterr().out == "['Z', '0', 'Z', '0', 'Z']\n"


def test_top_level_names_resolve():
    assert all(callable(getattr(csx, name)) for name in csx.__all__)
    assert csx.__version__ == "0.1.0"

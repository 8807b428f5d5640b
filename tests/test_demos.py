"""The walkthroughs in demos/ run to the end against the current API.

Each demo runs in-process as ``__main__``, so a renamed function or a changed
signature fails here rather than in a reader's terminal.
"""

import re
import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_readme_lists_every_demo():
    listed = re.findall(r"python3 (demos/\S+\.py)", (ROOT / "README.md").read_text())
    assert listed == [f"demos/{path.name}" for path in DEMOS]


@pytest.mark.parametrize("path", DEMOS, ids=[path.stem for path in DEMOS])
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out.strip()

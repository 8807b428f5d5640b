"""The walkthroughs in demos/ and README's Quick start run against the current API.

Each demo runs in-process as ``__main__``, so a renamed function or a changed
signature fails here rather than in a reader's terminal.
"""

import ast
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


def test_readme_quick_start_gives_the_values_it_shows():
    # a statement followed by a comment that starts with a literal, on its
    # own line or the next, must give that literal; floats to the digits shown
    text = (ROOT / "README.md").read_text()
    block = re.search(r"## Quick start\n\n```python\n(.*?)```", text, re.S).group(1)
    lines = block.splitlines()
    namespace, checked = {}, []
    for stmt in ast.parse(block).body:
        if isinstance(stmt, ast.Expr):
            value = eval(compile(ast.Expression(stmt.value), "README", "eval"), namespace)
        else:
            exec(compile(ast.Module([stmt], []), "README", "exec"), namespace)
            value = namespace[stmt.targets[0].id] if isinstance(stmt, ast.Assign) else None
        line = lines[stmt.end_lineno - 1]
        if "  # " in line:
            word = line.split("  # ", 1)[1].split()[0]
        elif stmt.end_lineno < len(lines) and lines[stmt.end_lineno].startswith("# "):
            word = lines[stmt.end_lineno].split()[1]
        else:
            continue
        try:
            expected = ast.literal_eval(word)
        except (ValueError, SyntaxError):
            continue
        if isinstance(expected, float):
            assert f"{value:.{len(word.split('.')[1])}f}" == word
        else:
            assert value == expected
        checked.append(word)
    assert checked == ["0.756471", "0.920550", "'asymptotically-stable'", "True"]

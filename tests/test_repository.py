"""Repository-wide checks: the library's invariants survive ``python -O``,
and every demo script runs to completion."""

import ast
import os
import subprocess
import sys

import pytest

from tests.conftest import REPO

DEMOS = sorted((REPO / "demos").glob("*.py"))


def test_no_assert_statements_in_library():
    # python -O strips assert statements; invariants must raise for real
    found = []
    for path in sorted((REPO / "src" / "logcap").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found += [f"{path.name}:{n.lineno}" for n in ast.walk(tree) if isinstance(n, ast.Assert)]
    assert found == []


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_runs(path):
    env = dict(os.environ)
    src = str(REPO / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    proc = subprocess.run(
        [sys.executable, str(path)], cwd=REPO, env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr

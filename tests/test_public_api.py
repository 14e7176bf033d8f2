"""The package namespace holds what the demos and the README use."""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

import gridtep

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_every_exported_name_resolves_once():
    assert len(gridtep.__all__) == len(set(gridtep.__all__))
    missing = [n for n in gridtep.__all__ if not hasattr(gridtep, n)]
    assert not missing


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_imports_resolve_on_the_package(demo):
    names = [
        alias.name
        for node in ast.walk(ast.parse(demo.read_text()))
        if isinstance(node, ast.ImportFrom) and node.module == "gridtep"
        for alias in node.names
    ]
    assert names
    assert [n for n in names if n not in gridtep.__all__] == []


def test_readme_entry_points_resolve_on_the_package():
    text = (ROOT / "README.md").read_text()
    section = text[text.index("Lower-level entry points:"):]
    section = section[:section.index("\n\n")]
    names = re.findall(r"`([A-Za-z_]\w*)", section)
    assert "nodal_balance" in names
    assert [n for n in names if n not in gridtep.__all__] == []

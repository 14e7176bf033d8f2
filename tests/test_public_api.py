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


def demo_imports(demo: Path) -> list[str]:
    """The names a demo imports from the package."""
    return [
        alias.name
        for node in ast.walk(ast.parse(demo.read_text()))
        if isinstance(node, ast.ImportFrom) and node.module == "gridtep"
        for alias in node.names
    ]


def readme_entry_points() -> list[str]:
    """The names README's "Lower-level entry points" paragraph opens a
    code span with."""
    text = (ROOT / "README.md").read_text()
    section = text[text.index("Lower-level entry points:"):]
    section = section[:section.index("\n\n")]
    return re.findall(r"`([A-Za-z_]\w*)", section)


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_imports_resolve_on_the_package(demo):
    names = demo_imports(demo)
    assert names
    assert [n for n in names if n not in gridtep.__all__] == []


def test_readme_entry_points_resolve_on_the_package():
    names = readme_entry_points()
    assert "nodal_balance" in names
    assert [n for n in names if n not in gridtep.__all__] == []


def test_every_exported_name_is_used_by_a_demo_the_readme_or_is_an_error():
    """The namespace holds nothing beyond its three groups: what a demo
    imports, what the README's entry-point paragraph names, and the
    exception classes."""
    used = {n for demo in DEMOS for n in demo_imports(demo)}
    used |= set(readme_entry_points())

    def is_error(name):
        value = getattr(gridtep, name)
        return isinstance(value, type) and issubclass(value,
                                                      gridtep.GridTepError)

    assert [n for n in gridtep.__all__ if n not in used
            and not is_error(n)] == []

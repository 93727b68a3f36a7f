"""No module of the library imports a name that it never uses.

A deletion that leaves an import behind fails here.  A name counts as used
where it is read (``ast.Name``) or listed in ``__all__``; ``from __future__``
imports are directives, not names.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "tropic"


def unused_imports(source: str) -> list[str]:
    """The names that ``source`` imports and never reads, in order of import."""
    tree = ast.parse(source)
    imported, used = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return [name for name in imported if name not in used]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_the_guard_finds_an_unused_import():
    source = "import os, sys\nfrom math import gcd as g, lcm\nfrom . import x\nprint(sys, lcm)\n"
    assert unused_imports(source) == ["os", "g", "x"]
    assert unused_imports("from __future__ import annotations\n__all__ = ['x']\nfrom . import x\n") == []

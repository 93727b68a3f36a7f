"""No module of the library can make a float: every value it computes is exact.

Since integral coordinates, lengths and k may be plain ints, a ``/`` between
two of them would silently give a float.  The guard parses each module and
refuses ``/`` and ``/=``, float and complex literals, calls of ``float``, and
any import from ``math`` but ``gcd`` and ``lcm``.  Docstrings, comments and
other strings are not code, so they may write "length/weight".
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "tropic"
MATH_ALLOWED = {"gcd", "lcm"}


def inexact(source: str) -> list[str]:
    """Each construct of ``source`` that can make an inexact number, by line."""
    found = []
    for node in ast.walk(ast.parse(source)):
        line = getattr(node, "lineno", 0)
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            found.append((line, "/"))
        elif isinstance(node, ast.Constant) and type(node.value) in (float, complex):
            found.append((line, f"literal {node.value!r}"))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float":
            found.append((line, "float()"))
        elif isinstance(node, ast.Import):
            found += [(line, f"import {a.name}") for a in node.names if a.name.split(".")[0] == "math"]
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            found += [(line, f"math.{a.name}") for a in node.names if a.name not in MATH_ALLOWED]
    return [f"line {line}: {what}" for line, what in sorted(found, key=lambda f: f[0])]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_can_make_a_float(path):
    assert inexact(path.read_text()) == []


def test_the_guard_finds_every_inexact_construct():
    source = ("x = a / b\ny = 1.5\ny /= 2\nz = float(x) + 2j\nimport math, os.path\n"
              "from math import gcd, sqrt\nimport math.fake as m\n")
    assert inexact(source) == [
        "line 1: /", "line 2: literal 1.5", "line 3: /", "line 4: float()", "line 4: literal 2j",
        "line 5: import math", "line 6: math.sqrt", "line 7: import math.fake"]
    exact = '"""length/weight"""\nfrom math import gcd, lcm  # a / b\nk = p // q\ns = "1.5"\n'
    assert inexact(exact) == []

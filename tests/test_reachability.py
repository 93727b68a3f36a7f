"""Every function of the library is run by the CLI or named with its outside user.

ROADMAP: "no library code that neither the CLI nor the certificate reaches".
CLI commands run in process under a ``sys.setprofile`` hook that is on only
inside ``cli.run`` (and ``cli.main``), so what the harness itself calls to set
up inputs is not counted.  Each named function or method of
``src/tropic/*.py`` must be entered by some run or be listed in ``ALLOWED``
with the reason it stays; an allowed function that a run enters is a stale
entry.  Lambdas and comprehensions do not count.
"""

import ast
import json
import sys
from pathlib import Path

import pytest

from helpers import gen
from test_cli import _fixture_matrix, paths  # noqa: F401  (paths is a fixture)
from tropic import cli
from tropic.curves import TropicalCurve
from tropic.jsonio import curve_to_dict, dumps

SRC = Path(cli.__file__).resolve().parent
TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

ALLOWED = {
    "curves.TropicalCurve.build": "perfbench builds its input curves with it",
    "curves._exact": "TropicalCurve.build calls it, for perfbench",
    "latticefan.fan_from_maximal": "perfbench builds its rich fans with it",
    "latticefan.rank": "perfbench/tracer.py wraps every name in WRAPPED, rank among them",
    "latticefan.smallest_containing_cone": "perfbench/tracer.py wraps it (WRAPPED)",
    "defspace.DeformationCone.dimension": "perfbench/tracer.py's _observe_deformation_cone",
    "degeneration.dual_curve": "perfbench/tracer.py wraps it (WRAPPED)",
}


def _functions() -> dict[tuple[str, int], str]:
    """(file, first line) -> module.qualname of every def in src/tropic; the
    first line of a decorated def is its first decorator's, as in its code."""
    found = {}

    def visit(node, prefix, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{prefix}.{child.name}"
                if not isinstance(child, ast.ClassDef):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    found[str(path), first] = name
                visit(child, name, path)
            else:
                visit(child, prefix, path)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem, path)
    return found


def _write(path: Path, doc) -> str:
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    return str(path)


def test_every_library_function_is_reached_by_the_cli_or_allowed(
        paths, tmp_path, capsys, monkeypatch):  # noqa: F811
    entered: set = set()

    def hook(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    def traced(fn, *args):
        sys.setprofile(hook)
        try:
            return fn(*args)
        finally:
            sys.setprofile(None)

    for name, module in list(sys.modules.items()):  # a hit in a cache filled by an
        if name.startswith("tropic."):  # earlier test would enter no function
            for value in list(vars(module).values()):
                getattr(value, "cache_clear", lambda: None)()
    runs = [argv for _, argv in _fixture_matrix(paths, tmp_path)] + [["selftest"]]
    p1xp1 = json.loads(Path(paths["fan_p1xp1"]).read_text())
    p1xp1["cones"].remove([0, 1])  # the third quadrant, which diag's ray r0 runs through
    halves = {"ambient_dim": 2, "rays": [[1, 0], [-1, 0], [0, 1], [0, -1]],
              "cones": [[0, 1], [0, 1, 2], [0, 1, 3]]}  # the x-axis and the half-planes at it
    invalid = {"ambient_dim": 2, "vertices": [{"id": "v0", "coords": [0, 0]}],
               "edges": [{"id": "e0", "ends": ["v0", "v1"], "weight": 1}]}
    honeycomb = dumps(curve_to_dict(TropicalCurve.build(*gen.honeycomb(4, 2, (0, 0)))))
    expected = {  # the commands beyond the fixture matrix: exit code, start of stdout
        ("check", _write(tmp_path / "invalid.json", invalid)): (1, '{\n  "valid": false'),
        ("subdivide", paths["diag"], "--fan", _write(tmp_path / "p1xp1_part.json", p1xp1)): (
            1, '{\n  "error": "NotInSupport"'),
        ("subdivide", paths["tripod"], "--fan", _write(tmp_path / "halves.json", halves)): (
            1, '{\n  "error": "InvalidFan"'),
        ("superabundant", _write(tmp_path / "honeycomb4.json", honeycomb)): (0, "{"),
    }
    for argv in runs:
        assert traced(cli.run, argv) in (0, 1, 2), argv
    for argv, (code, start) in expected.items():
        capsys.readouterr()
        assert traced(cli.run, list(argv)) == code, argv
        assert capsys.readouterr().out.startswith(start), argv
    monkeypatch.setattr(sys, "argv", ["tropic", "genus", paths["tripod"]])
    with pytest.raises(SystemExit) as exit_:
        traced(cli.main)
    assert exit_.value.code == 0

    functions = _functions()
    ours = {c for c in entered if c.co_filename.startswith(str(SRC)) and c.co_name[0] != "<"}
    assert {(c.co_filename, c.co_firstlineno) for c in ours} <= functions.keys()
    reached = {functions[c.co_filename, c.co_firstlineno] for c in ours}
    gone = sorted(set(ALLOWED) - set(functions.values()))
    assert not gone, f"ALLOWED names functions that do not exist: {gone}"
    missing = sorted(set(functions.values()) - reached - set(ALLOWED))
    assert not missing, f"no CLI run reaches these, and ALLOWED does not name them: {missing}"
    stale = sorted(reached & set(ALLOWED))
    assert not stale, f"a CLI run reaches these ALLOWED entries: {stale}"


def _tracer_reads() -> tuple[set[str], set[str]]:
    """From the source of perfbench/tracer.py: the layer.name of each function
    its ``WRAPPED`` table names, and every attribute its ``OBSERVERS`` read."""
    tree = ast.parse(TRACER.read_text())
    tables = {node.targets[0].id: node.value for node in tree.body
              if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)}
    wrapped = {f"{layer}.{name}"
               for layer, names in ast.literal_eval(tables["WRAPPED"]).items() for name in names}
    observers = {v.id for v in tables["OBSERVERS"].values}
    read = {node.attr for f in tree.body if isinstance(f, ast.FunctionDef) and f.name in observers
            for node in ast.walk(f) if isinstance(node, ast.Attribute)}
    return wrapped, read


def test_allowed_entries_that_cite_the_tracer_name_what_it_reads():
    # an entry kept because perfbench/tracer.py needs it goes stale when the
    # tracer stops wrapping the function or reading the attribute
    wrapped, read = _tracer_reads()
    cited = {name for name, why in ALLOWED.items() if "perfbench/tracer.py" in why}
    assert cited, "no ALLOWED entry cites perfbench/tracer.py"
    stale = sorted(name for name in cited
                   if name not in wrapped and name.rpartition(".")[2] not in read)
    assert not stale, f"perfbench/tracer.py neither wraps nor reads these ALLOWED entries: {stale}"

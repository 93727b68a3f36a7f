"""The line budget of the library's source."""

from pathlib import Path

# ROADMAP: "src/ must not grow past <cap> lines unless an item below names
# its budget".  A change with a named budget raises this cap with it.
SRC_LINE_CAP = 2468


def test_library_source_stays_within_its_line_budget():
    src = Path(__file__).resolve().parents[1] / "src" / "tropic"
    lines = sum(p.read_text().count("\n") for p in src.glob("*.py"))
    assert lines <= SRC_LINE_CAP, f"src/tropic/*.py has {lines} lines, over the cap {SRC_LINE_CAP}"

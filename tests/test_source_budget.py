"""The line budget of the library's source."""

from pathlib import Path

# src/ must not grow past this cap unless a ROADMAP item names its budget.
# A change with a named budget raises the cap with it, and a change that
# deletes lines lowers it to the new count: the cap is a ratchet.
SRC_LINE_CAP = 2249


def test_library_source_stays_within_its_line_budget():
    src = Path(__file__).resolve().parents[1] / "src" / "tropic"
    lines = sum(p.read_text().count("\n") for p in src.glob("*.py"))
    assert lines <= SRC_LINE_CAP, f"src/tropic/*.py has {lines} lines, over the cap {SRC_LINE_CAP}"
    assert lines == SRC_LINE_CAP, f"src/tropic/*.py has {lines} lines: set SRC_LINE_CAP = {lines}"

"""Property tests, derandomized so that every run draws the same examples."""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from helpers import echelon  # noqa: E402
from tropic.latticefan import rank  # noqa: E402

DERANDOMIZED = hypothesis.settings(
    derandomize=True, database=None, max_examples=60, deadline=None
)

# mostly zeros, as in the cycle-closing matrices rank serves
ENTRIES = st.sampled_from([0, 0, 0, 0, 1, -1, 2, -2, 3])
SPARSE_MATRICES = st.integers(1, 7).flatmap(
    lambda ncols: st.lists(st.lists(ENTRIES, min_size=ncols, max_size=ncols), max_size=8)
)
NONZERO_RATIONALS = st.fractions(min_value=-9, max_value=9, max_denominator=9).filter(bool)


@DERANDOMIZED
@hypothesis.given(rows=SPARSE_MATRICES, data=st.data())
def test_rank_matches_echelon_and_ignores_row_order_and_scaling(rows, data):
    expected = len(echelon(rows)[1])
    assert rank(rows) == expected
    permuted = data.draw(st.permutations(rows))
    assert rank(permuted) == expected
    if rows:
        i = data.draw(st.integers(0, len(rows) - 1))
        c = data.draw(NONZERO_RATIONALS)
        scaled = [row if k != i else [c * x for x in row] for k, row in enumerate(rows)]
        assert rank(scaled) == expected

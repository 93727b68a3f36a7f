"""Canonical curve and fan fixtures, read from the packaged ``data/fixtures/<name>.json``.

Curves: ``line``, the origin of R^2 with opposite unit rays; ``tripod``, the
tropical line in R^2; ``unbal``, two rays only (defect (1, 1)); ``segfan``, a
weight-2 segment from (0,0) to (2,0) with weight-2 flanking rays; ``cycle3``,
a genus-1 triangle in R^2; ``speyer3``, a genus-1 planar triangle in R^3 whose
origin vertex carries both out-of-plane rays, so it fails well-spacedness and
is superabundant; ``speyer3_ws``, speyer3 rebalanced with out-of-plane ray
pairs at two cycle vertices; ``diag``, a segment through the origin with rays
in both diagonal directions; ``ratio``, a path with length/weight ratios 3/4
and 5/6, so integral rescaling needs N = 12.  Complete fans: ``fan_p2``,
``fan_p1xp1`` (the axis rays), ``fan_diag`` (the diagonal rays), and the
simplicial ``fan_cycle3``, ``fan_r3``, ``fan_r3_ws`` on the recession
directions of cycle3, speyer3 and speyer3_ws.

``CURVES`` and ``FANS`` map each name to a callable that parses the file on
every call: a shared curve would carry its cached validation and index along.
"""

from functools import partial
from importlib import resources

from .jsonio import curve_from_dict, fan_from_dict, loads

DIRECTORY = resources.files(__package__).joinpath("data/fixtures")


def _load(parse, name: str):
    return parse(loads(DIRECTORY.joinpath(f"{name}.json").read_text()))


CURVES = {name: partial(_load, curve_from_dict, name) for name in (
    "line", "tripod", "unbal", "segfan", "cycle3", "speyer3", "speyer3_ws", "diag", "ratio")}
FANS = {name: partial(_load, fan_from_dict, name) for name in (
    "fan_p2", "fan_p1xp1", "fan_diag", "fan_cycle3", "fan_r3", "fan_r3_ws")}
line, tripod, unbal, segfan, cycle3, speyer3, speyer3_wellspaced, diag, ratio_path = CURVES.values()
fan_p2, fan_p1xp1, fan_diag, fan_cycle3, fan_r3, fan_r3_wellspaced = FANS.values()
BALANCED = {name: name != "unbal" for name in CURVES}  # expected verdicts, read by selftest

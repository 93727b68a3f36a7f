"""JSON interchange for curves, fans, and certificates.

Rationals are serialized as plain integers when possible and as exact "p/q"
strings otherwise, so no value is ever routed through floating point.  All
serializers emit keys in a fixed order and sort lists, making reports
byte-identical across runs.  The readers check each list of records once for
its shape, then each field as a column, and keep an integral value, a JSON
integer or "p" or "p/q" text, as an int: a Fraction is built only for text.
"""

import json
from collections import Counter
from fractions import Fraction
from typing import Any

from .curves import BoundedEdge, CurveRay, TropicalCurve, _rational
from .degeneration import NodeData, RealizationCertificate
from .errors import DeskScaleExceeded, SchemaError, _echo
from .latticefan import Cone, Fan


_OVER_LIMIT = "a number in the report exceeds Python's integer digit limit"


def rat_to_json(x) -> int | str:
    """A rational as an int, or as "p/q" text; text over Python's integer digit
    limit is DeskScaleExceeded (an int is left for ``dumps`` to refuse)."""
    f = Fraction(x)
    if f.denominator == 1:
        return int(f)
    try:
        return str(f)
    except ValueError:
        raise DeskScaleExceeded(_OVER_LIMIT) from None


def rat_from_json(value) -> int | Fraction:
    """An integer, or a string of exactly the form "p" or "p/q" (``curves._rational``),
    as an int where integral."""
    try:
        return _rational(value)
    except ValueError as ex:
        raise SchemaError(str(ex)) from None


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise SchemaError(message)


def _object(value, what: str) -> dict:
    _require(isinstance(value, dict), f"{what} must be an object")
    return value


def _list(value, what: str, length: int | None = None) -> list:
    _require(isinstance(value, list) and (length is None or len(value) == length),
             f"{what} must be a list" + ("" if length is None else f" of {_echo(length)} entries"))
    return value


def _ints(xs, what: str):
    """xs if each is an integer (an int, not a bool), else "<what> must be an integer"."""
    _require(all(type(x) is int or isinstance(x, int) and type(x) is not bool for x in xs),
             f"{what} must be an integer")
    return xs


def _strs(xs, what: str):
    _require(all(isinstance(x, str) for x in xs), f"{what} must be a string")
    return xs


def _rats(xs) -> tuple:
    """Each x an exact rational: an int as it is, anything else through ``rat_from_json``."""
    return tuple([x if type(x) is int else rat_from_json(x) for x in xs])


def _rows(rows: list, what: str, length: int | None = None, entries: type | None = None,
          ids: list | None = None) -> list:
    """rows if each is a list (of ``length`` entries) and, with ``entries``
    int or str, each entry is one.  When one pass over all rows with exact
    types fails, the rows are checked one by one, as ``_list`` and ``_ints``
    or ``_strs`` check and word it, each named ``what``, or
    ``what.format(<its id>)`` with ``ids``; a subclass of int (not bool) or str passes there."""
    if not (all(isinstance(r, list) and (length is None or len(r) == length) for r in rows)
            and (entries is None or all(type(x) is entries for r in rows for x in r))):
        for i, r in enumerate(rows):
            label = what if ids is None else what.format(_echo(ids[i]))
            _list(r, label, length)
            if entries is not None:
                (_ints if entries is int else _strs)(r, f"{label} entry")
    return rows


def _columns(value, what: str, *keys: str) -> list[list]:
    """A list of objects that each carry every key, read as one list of values per key."""
    entries, need = _list(value, what), set(keys)
    _require(all(isinstance(e, dict) and need <= e.keys() for e in entries),
             f"{what} entries need {', '.join(map(repr, keys))}")
    return [[e[k] for e in entries] for k in keys]


# ---------------------------------------------------------------------------
# curves


def curve_to_dict(c: TropicalCurve) -> dict:
    return {
        "ambient_dim": c.ambient_dim,
        "vertices": [
            {"id": v, "coords": [rat_to_json(x) for x in pos]} for v, pos in c.vertices.items()
        ],
        "edges": [{"id": e.id, "ends": list(e.ends), "weight": e.weight} for e in c.edges],
        "rays": [
            {"id": r.id, "base": r.base, "direction": list(r.direction), "weight": r.weight}
            for r in c.rays
        ],
    }


def curve_from_dict(data) -> TropicalCurve:
    _object(data, "curve document")
    [n] = _ints([data.get("ambient_dim")], "ambient_dim")
    ids, coords = _columns(data.get("vertices"), "vertices", "id", "coords")
    if len(set(_strs(ids, "vertex id"))) < len(ids):
        seen = set()
        dup = next(v for v in ids if v in seen or seen.add(v))
        raise SchemaError(f"duplicate vertex id {_echo(dup)}")
    vertices = dict(zip(ids, map(_rats, _rows(coords, "vertex {} coordinates", n, ids=ids))))
    eids, ends, weights = _columns(data.get("edges", []), "edges", "id", "ends", "weight")
    edges = map(BoundedEdge, _strs(eids, "edge id"), map(tuple, _rows(ends, "edge ends", 2, str)),
                _ints(weights, "edge weight"))
    rids, bases, dirs, weights = _columns(
        data.get("rays", []), "rays", "id", "base", "direction", "weight")
    rays = map(CurveRay, _strs(rids, "ray id"), _strs(bases, "ray base"),
               map(tuple, _rows(dirs, "ray {} direction", n, int, rids)),
               _ints(weights, "ray weight"))
    return TropicalCurve(n, vertices, tuple(edges), tuple(rays))


# ---------------------------------------------------------------------------
# fans


def fan_to_dict(f: Fan) -> dict:
    ray_list = sorted({g for c in f.cones for g in c.generators})
    index = {g: i for i, g in enumerate(ray_list)}
    return {
        "ambient_dim": f.ambient_dim,
        "rays": [list(g) for g in ray_list],
        "cones": [[index[g] for g in c.generators] for c in f.cones],
    }


def fan_from_dict(data) -> Fan:
    _object(data, "fan document")
    [n] = _ints([data.get("ambient_dim")], "ambient_dim")
    rays = [*map(tuple, _rows(_list(data.get("rays"), "fan rays"), "fan ray", n, int))]
    cones = _rows(_list(data.get("cones"), "fan cones"), "cone ray indices", entries=int)
    if bad := [i for c in cones for i in c if not 0 <= i < len(rays)]:
        raise SchemaError(f"bad ray index {_echo(repr(bad[0]))}")
    # keep the file's cone order: certificate fields reference cones by index
    return Fan(tuple([Cone.from_rays([rays[i] for i in c], n) for c in cones]), n)


# ---------------------------------------------------------------------------
# certificates


def certificate_to_dict(cert: RealizationCertificate) -> dict:
    return {
        "curve": curve_to_dict(cert.rescaled_curve),
        "fan": fan_to_dict(cert.fan),
        "multiplier": cert.multiplier,
        "vertex_cones": dict(cert.vertex_cones),
        "node_data": [nd._asdict() for nd in cert.node_data],  # dumps writes u_q as a list
    }


def certificate_from_dict(data) -> RealizationCertificate:
    """The five fields; any other key, such as a format-1 file's ``dual_curve``,
    ``vertex_stars`` and ``base_point``, is skipped unread."""
    _object(data, "certificate document")
    curve = curve_from_dict(data.get("curve"))
    [multiplier] = _ints([data.get("multiplier")], "multiplier")
    fan = fan_from_dict(data.get("fan"))
    cones = dict(_object(data.get("vertex_cones"), "vertex_cones"))
    _ints(cones.values(), "cone index")
    edges, ks, rhos, u_qs = _columns(data.get("node_data"), "node_data", "edge", "k", "rho", "u_q")
    node_data = map(NodeData, _strs(edges, "node_data edge"), _ints(ks, "k"), _ints(rhos, "rho"),
                    map(tuple, _rows(u_qs, "u_q", entries=int)))
    return RealizationCertificate(curve, multiplier, fan, cones, tuple(node_data))


def dumps(obj: Any) -> str:
    """Deterministic JSON text: fixed key order from the serializers, two-space indent."""
    try:
        return json.dumps(obj, indent=2) + "\n"
    except ValueError:  # raised by str() of an integer over Python's digit limit
        raise DeskScaleExceeded(_OVER_LIMIT) from None


def _distinct_keys(pairs: list) -> dict:
    """A JSON object; a key given twice is a ValueError naming the first such
    key, which ``loads`` reports."""
    if len(obj := dict(pairs)) < len(pairs):
        key = next(k for k, n in Counter(k for k, _ in pairs).items() if n > 1)
        raise ValueError(f"an object repeats the key {_echo(repr(key))}")
    return obj


def loads(text: str):
    """Parse JSON text; a syntax error, a repeated key, an integer over Python's
    digit limit or nesting deeper than the recursion limit is a SchemaError."""
    try:
        return json.loads(text, object_pairs_hook=_distinct_keys)
    except (ValueError, RecursionError) as ex:  # ValueError covers json.JSONDecodeError
        raise SchemaError(f"malformed JSON: {ex}") from None

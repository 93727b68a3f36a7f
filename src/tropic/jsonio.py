"""JSON interchange for curves, fans, and certificates.

Rationals are serialized as plain integers when possible and as exact "p/q"
strings otherwise, so no value is ever routed through floating point.  All
serializers emit keys in a fixed order and sort lists, making reports
byte-identical across runs.
"""

import json
import re
from collections import Counter
from fractions import Fraction
from typing import Any

from .curves import BoundedEdge, CurveRay, TropicalCurve
from .degeneration import (
    BasePoint,
    Component,
    DualCurve,
    MarkedPoint,
    Node,
    NodeData,
    RealizationCertificate,
)
from .errors import DeskScaleExceeded, SchemaError, _echo
from .latticefan import Cone, Fan


_OVER_LIMIT = "a number in the report exceeds Python's integer digit limit"


def rat_text(x) -> str:
    """A rational as "p" or "p/q"; one over Python's integer digit limit is DeskScaleExceeded."""
    try:
        return str(Fraction(x))
    except ValueError:
        raise DeskScaleExceeded(_OVER_LIMIT) from None


def rat_to_json(x) -> int | str:
    f = Fraction(x)
    return int(f) if f.denominator == 1 else rat_text(f)


_RATIONAL = re.compile(r"-?[0-9]+(?:/[0-9]+)?")


def rat_from_json(value) -> Fraction:
    """An integer, or a string of exactly the form "p" or "p/q" (ASCII digits, optional minus)."""
    if isinstance(value, bool):
        raise SchemaError(f"expected a rational, got {_echo(repr(value))}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        if not _RATIONAL.fullmatch(value):
            raise SchemaError(f"bad rational string {_echo(repr(value))}: expected 'p' or 'p/q'")
        try:
            return Fraction(value)
        except ZeroDivisionError:
            raise SchemaError(f"bad rational string {_echo(repr(value))}: zero denominator") from None
        except ValueError as ex:  # more digits than Python converts
            raise SchemaError(f"bad rational string {_echo(repr(value))}: {ex}") from None
    raise SchemaError(f"expected int or 'p/q' string, got {type(value).__name__}")


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise SchemaError(message)


def _int(value, what: str) -> int:
    _require(isinstance(value, int) and not isinstance(value, bool), f"{what} must be an integer")
    return value


def _str(value, what: str) -> str:
    _require(isinstance(value, str), f"{what} must be a string")
    return value


def _object(value, what: str) -> dict:
    _require(isinstance(value, dict), f"{what} must be an object")
    return value


def _list(value, what: str, length: int | None = None) -> list:
    _require(isinstance(value, list) and (length is None or len(value) == length),
             f"{what} must be a list" + ("" if length is None else f" of {length} entries"))
    return value


def _int_list(value, what: str, length: int | None = None) -> tuple[int, ...]:
    return tuple(_int(x, f"{what} entry") for x in _list(value, what, length))


def _rat_list(value, what: str, length: int | None = None) -> tuple[Fraction, ...]:
    return tuple(rat_from_json(x) for x in _list(value, what, length))


def _str_pair(value, what: str) -> tuple[str, str]:
    return tuple(_str(x, f"{what} entry") for x in _list(value, what, 2))


def _as_is(value, what: str):
    """A field checked after the record's id, in a detail that names the id."""
    return value


def _records(value, what: str, make, fields: dict) -> tuple:
    """A list of objects, each with every key of ``fields``, read as ``make(*parsed)``:
    each value parsed by its key's ``(parser, error label)``, in key order."""
    records = []
    for entry in _list(value, what):
        _require(isinstance(entry, dict) and all(k in entry for k in fields),
                 f"{what} entries need {', '.join(map(repr, fields))}")
        records.append(make(*(parse(entry[k], label) for k, (parse, label) in fields.items())))
    return tuple(records)


def _by_id(value, what: str, parse) -> tuple:
    """An object read as (str(key), parse(value)) pairs, sorted by key."""
    return tuple(sorted((str(k), parse(v)) for k, v in _object(value, what).items()))


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
    n = _int(data.get("ambient_dim"), "ambient_dim")
    vertices = {}
    for vid, coords in _records(data.get("vertices"), "vertices", lambda *pair: pair, {
        "id": (_str, "vertex id"), "coords": (_as_is, "vertex coordinates"),
    }):
        _require(vid not in vertices, f"duplicate vertex id {_echo(vid)}")
        vertices[vid] = _rat_list(coords, f"vertex {_echo(vid)} coordinates", n)
    edges = _records(data.get("edges", []), "edges", BoundedEdge, {
        "id": (_str, "edge id"), "ends": (_str_pair, "edge ends"), "weight": (_int, "edge weight"),
    })
    rays = _records(
        data.get("rays", []), "rays",
        lambda rid, base, d, weight: CurveRay(
            rid, base, _int_list(d, f"ray {_echo(rid)} direction", n), weight),
        {"id": (_str, "ray id"), "base": (_str, "ray base"), "direction": (_as_is, "ray direction"),
         "weight": (_int, "ray weight")},
    )
    return TropicalCurve(n, vertices, edges, rays)


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
    n = _int(data.get("ambient_dim"), "ambient_dim")
    rays = [_int_list(entry, "fan ray", n) for entry in _list(data.get("rays"), "fan rays")]
    cones = []
    for idx_list in _list(data.get("cones"), "fan cones"):
        gens = []
        for i in _int_list(idx_list, "cone ray indices"):
            _require(0 <= i < len(rays), f"bad ray index {_echo(repr(i))}")
            gens.append(rays[i])
        cones.append(Cone.from_rays(gens, n) if gens else Cone((), n))
    # keep the file's cone order: certificate fields reference cones by index
    return Fan(tuple(cones), n)


# ---------------------------------------------------------------------------
# certificates


def certificate_to_dict(cert: RealizationCertificate) -> dict:
    return {
        "curve": curve_to_dict(cert.rescaled_curve),
        "fan": fan_to_dict(cert.fan),
        "multiplier": cert.multiplier,
        "vertex_cones": {v: idx for v, idx in cert.vertex_cones},
        "vertex_stars": {v: [list(d) for d in dirs] for v, dirs in cert.vertex_stars},
        # field order is key order; dumps writes the tuples as lists
        "dual_curve": {k: [x._asdict() for x in xs] for k, xs in cert.dual._asdict().items()},
        "node_data": [nd._asdict() for nd in cert.node_data],
        "base_point": {
            "edge_valuations": {e: rat_to_json(v) for e, v in cert.base_point.edge_valuations},
            "vertex_positions": {
                v: [rat_to_json(x) for x in pos]
                for v, pos in cert.base_point.vertex_positions
            },
        },
    }


def certificate_from_dict(data) -> RealizationCertificate:
    _object(data, "certificate document")
    dual_data = _object(data.get("dual_curve"), "dual_curve")
    dual = DualCurve(
        components=_records(dual_data.get("components", []), "components", Component, {
            "id": (_str, "component id"), "vertex": (_str, "component vertex"),
        }),
        nodes=_records(dual_data.get("nodes", []), "nodes", Node, {
            "id": (_str, "node id"), "edge": (_str, "node edge"),
            "components": (_str_pair, "node components"),
        }),
        marked_points=_records(dual_data.get("marked_points", []), "marked_points", MarkedPoint, {
            "id": (_str, "marked point id"), "ray": (_str, "marked point ray"),
            "component": (_str, "marked point component"), "contact_order": (_int, "contact_order"),
        }),
    )
    bp = _object(data.get("base_point"), "base_point")
    return RealizationCertificate(
        rescaled_curve=curve_from_dict(data.get("curve")),
        multiplier=_int(data.get("multiplier"), "multiplier"),
        fan=fan_from_dict(data.get("fan")),
        vertex_cones=_by_id(data.get("vertex_cones"), "vertex_cones",
                            lambda v: _int(v, "cone index")),
        vertex_stars=_by_id(
            data.get("vertex_stars", {}), "vertex_stars",
            lambda dirs: tuple(_int_list(d, "star direction") for d in _list(dirs, "vertex star")),
        ),
        dual=dual,
        node_data=_records(data.get("node_data"), "node_data", NodeData, {
            "edge": (_str, "node_data edge"), "k": (_int, "k"), "rho": (_int, "rho"),
            "u_q": (_int_list, "u_q"),
        }),
        base_point=BasePoint(
            edge_valuations=_by_id(bp.get("edge_valuations"), "edge_valuations", rat_from_json),
            vertex_positions=_by_id(bp.get("vertex_positions", {}), "vertex_positions",
                                    lambda v: _rat_list(v, "vertex position")),
        ),
    )


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

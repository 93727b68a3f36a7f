"""JSON interchange for curves, fans, and certificates.

Rationals are serialized as plain integers when possible and as exact "p/q"
strings otherwise, so no value is ever routed through floating point.  All
serializers emit keys in a fixed order and sort lists, making reports
byte-identical across runs.
"""

from __future__ import annotations

import json
import re
from dataclasses import asdict
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


def _entries(value, what: str, keys: tuple[str, ...]) -> list[dict]:
    """A list of objects, each carrying every key in ``keys``."""
    for entry in _list(value, what):
        _require(isinstance(entry, dict) and all(k in entry for k in keys),
                 f"{what} entries need {', '.join(repr(k) for k in keys)}")
    return value


def _int_list(value, what: str) -> tuple[int, ...]:
    return tuple(_int(x, f"{what} entry") for x in _list(value, what))


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
    _require(isinstance(data, dict), "curve document must be an object")
    n = _int(data.get("ambient_dim"), "ambient_dim")
    vertices = {}
    _require(isinstance(data.get("vertices"), list), "vertices must be a list")
    for entry in data["vertices"]:
        _require(isinstance(entry, dict) and "id" in entry and "coords" in entry,
                 "vertex entries need 'id' and 'coords'")
        vid = _str(entry["id"], "vertex id")
        _require(vid not in vertices, f"duplicate vertex id {_echo(vid)}")
        _require(isinstance(entry["coords"], list) and len(entry["coords"]) == n,
                 f"vertex {_echo(vid)} needs {n} coordinates")
        vertices[vid] = tuple(rat_from_json(x) for x in entry["coords"])
    edges = []
    for entry in _list(data.get("edges", []), "edges"):
        _require(isinstance(entry, dict) and {"id", "ends", "weight"} <= set(entry),
                 "edge entries need 'id', 'ends', 'weight'")
        ends = entry["ends"]
        _require(isinstance(ends, list) and len(ends) == 2, "edge 'ends' must list two vertices")
        edges.append(BoundedEdge(_str(entry["id"], "edge id"),
                                 (_str(ends[0], "edge end"), _str(ends[1], "edge end")),
                                 _int(entry["weight"], "edge weight")))
    rays = []
    for entry in _list(data.get("rays", []), "rays"):
        _require(isinstance(entry, dict) and {"id", "base", "direction", "weight"} <= set(entry),
                 "ray entries need 'id', 'base', 'direction', 'weight'")
        direction = entry["direction"]
        _require(isinstance(direction, list) and len(direction) == n,
                 f"ray {_echo(str(entry['id']))} direction needs {n} integer entries")
        rays.append(CurveRay(_str(entry["id"], "ray id"), _str(entry["base"], "ray base"),
                             tuple(_int(x, "direction entry") for x in direction),
                             _int(entry["weight"], "ray weight")))
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
    _require(isinstance(data, dict), "fan document must be an object")
    n = _int(data.get("ambient_dim"), "ambient_dim")
    _require(isinstance(data.get("rays"), list), "fan needs a 'rays' list")
    rays = []
    for entry in data["rays"]:
        _require(isinstance(entry, list) and len(entry) == n,
                 f"fan rays must be integer vectors of length {n}")
        rays.append(tuple(_int(x, "ray entry") for x in entry))
    _require(isinstance(data.get("cones"), list), "fan needs a 'cones' list")
    cones = []
    for idx_list in data["cones"]:
        _require(isinstance(idx_list, list), "each cone must be a list of ray indices")
        gens = []
        for i in idx_list:
            _require(0 <= _int(i, "ray index") < len(rays), f"bad ray index {_echo(repr(i))}")
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
        "dual_curve": asdict(cert.dual),
        "node_data": [asdict(nd) for nd in cert.node_data],
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
    for key in ("curve", "fan", "multiplier", "vertex_cones", "dual_curve", "node_data",
                "base_point"):
        _require(key in data, f"certificate is missing {key!r}")
    curve = curve_from_dict(data["curve"])
    fan = fan_from_dict(data["fan"])
    dual_data = _object(data["dual_curve"], "dual_curve")
    dual = DualCurve(
        components=tuple(
            Component(id=_str(x["id"], "component id"),
                      vertex=_str(x["vertex"], "component vertex"))
            for x in _entries(dual_data.get("components", []), "components", ("id", "vertex"))
        ),
        nodes=tuple(
            Node(
                id=_str(x["id"], "node id"),
                edge=_str(x["edge"], "node edge"),
                components=tuple(_str(y, "node component")
                                 for y in _list(x["components"], "node components", 2)),
            )
            for x in _entries(dual_data.get("nodes", []), "nodes", ("id", "edge", "components"))
        ),
        marked_points=tuple(
            MarkedPoint(
                id=_str(x["id"], "marked point id"),
                ray=_str(x["ray"], "marked point ray"),
                component=_str(x["component"], "marked point component"),
                contact_order=_int(x["contact_order"], "contact_order"),
            )
            for x in _entries(dual_data.get("marked_points", []), "marked_points",
                              ("id", "ray", "component", "contact_order"))
        ),
    )
    node_data = tuple(
        NodeData(
            edge=_str(x["edge"], "node_data edge"),
            k=_int(x["k"], "k"),
            rho=_int(x["rho"], "rho"),
            u_q=_int_list(x["u_q"], "u_q"),
        )
        for x in _entries(data["node_data"], "node_data", ("edge", "k", "rho", "u_q"))
    )
    bp = _object(data["base_point"], "base_point")
    _require("edge_valuations" in bp, "base_point needs edge_valuations")
    base_point = BasePoint(
        edge_valuations=tuple(
            sorted((str(k), rat_from_json(v))
                   for k, v in _object(bp["edge_valuations"], "edge_valuations").items())
        ),
        vertex_positions=tuple(
            sorted(
                (str(k), tuple(rat_from_json(x) for x in _list(v, "vertex position")))
                for k, v in _object(bp.get("vertex_positions", {}), "vertex_positions").items()
            )
        ),
    )
    stars = _object(data.get("vertex_stars", {}), "vertex_stars")
    return RealizationCertificate(
        rescaled_curve=curve,
        multiplier=_int(data["multiplier"], "multiplier"),
        fan=fan,
        vertex_cones=tuple(
            sorted((str(k), _int(v, "cone index"))
                   for k, v in _object(data["vertex_cones"], "vertex_cones").items())
        ),
        vertex_stars=tuple(
            sorted(
                (str(k), tuple(_int_list(d, "star direction") for d in _list(dirs, "vertex star")))
                for k, dirs in stars.items()
            )
        ),
        dual=dual,
        node_data=node_data,
        base_point=base_point,
    )


def dumps(obj: Any) -> str:
    """Deterministic JSON text: fixed key order from the serializers, two-space indent."""
    try:
        return json.dumps(obj, indent=2) + "\n"
    except ValueError:  # raised by str() of an integer over Python's digit limit
        raise DeskScaleExceeded(_OVER_LIMIT) from None


def loads(text: str):
    """Parse JSON text; a syntax error, an integer over Python's digit limit or
    nesting deeper than the recursion limit is a SchemaError."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as ex:  # ValueError covers json.JSONDecodeError
        raise SchemaError(f"malformed JSON: {ex}") from None

"""Preparation of a curve against a complete fan: recession support check,
subdivision so that every edge and ray lies in a single cone, and global
rescaling to integral length/weight ratios.  Completeness is not checked
here: ``latticefan.fan_validate`` certifies it for fans whose maximal cones
are simplicial and full-dimensional, and a point outside the support of any
other fan raises NotInSupport."""

from fractions import Fraction
from functools import partial
from math import gcd, lcm
from operator import sub
from typing import NamedTuple

from .curves import BoundedEdge, CurveRay, TropicalCurve, _inherit, require_valid
from .errors import DimMismatch, InvalidCurve, _echo
from .latticefan import (
    Fan, IntVec, RatVec, _locate, direction_values, hyperplane_values, not_in_support, set_bits)


class RecessionSupport(NamedTuple):
    ok: bool
    missing: tuple[tuple[str, IntVec], ...]  # (ray id, direction) not on a fan ray


class NewVertex(NamedTuple):
    id: str
    host: str
    host_kind: str  # "edge" or "ray"
    cone_before: int  # index into fan.cones of the piece before the crossing
    cone_after: int


_new_vertex, _edge, _ray = (partial(tuple.__new__, k) for k in (NewVertex, BoundedEdge, CurveRay))


class SubdivisionRecord(NamedTuple):
    output: TropicalCurve
    new_vertices: tuple[NewVertex, ...]
    piece_cones: dict[str, int]  # output edge/ray id -> index of its containing cone


class _Walk(NamedTuple):
    output: TropicalCurve  # the subdivided curve; if any host broke, vertex -> integer point
    signs: dict[str, tuple[int, int]]  # vertex -> its sign vector
    breaks: dict[str, tuple[IntVec, int]]  # break -> its integer point (y, s), in walk order
    ratios: dict[str, tuple[IntVec, int, int]]  # bounded piece -> (d, p, q), length/weight p/q
    cones: dict[str, int]  # output edge/ray id -> index of its containing cone


def _require_valid_in(c: TropicalCurve, f: Fan) -> None:
    require_valid(c)
    if c.ambient_dim != f.ambient_dim:
        raise DimMismatch(f"curve in dim {c.ambient_dim} against fan in dim {_echo(f.ambient_dim)}")


def check_recession_support(c: TropicalCurve, f: Fan) -> RecessionSupport:
    """Whether every ray direction of the curve is a ray generator of the fan."""
    _require_valid_in(c, f)
    missing = tuple((r.id, r.direction) for r in c.rays if r.direction not in f._ray_set)
    return RecessionSupport(ok=not missing, missing=missing)


def _point_at(y: IntVec, s: int) -> RatVec:
    """The integer point (y, s) as y/s: an int per integral coordinate, else a Fraction."""
    return tuple([x // s if x % s == 0 else Fraction(x, s) for x in y])


_REUSED = ("subdividing {} creates id {}, which the curve already uses; "
           "ids <id>#k and <id>:k are reserved for subdivision")


def subdivide_along_fan(c: TropicalCurve, f: Fan) -> SubdivisionRecord:
    """The walk's curve and piece cones (``_walk``), and its breaks' ``NewVertex`` records;
    the input's vertices keep their coordinates, and the breaks get theirs (``_point_at``)."""
    out, _, breaks, _, cones = _walk(c, f)
    if breaks:
        vs = {v: c.vertices.get(v) or _point_at(*p) for v, p in out.vertices.items()}
        out = _inherit(tuple.__new__(TropicalCurve, (out.ambient_dim, vs, out.edges, out.rays)), c)
    record = [_new_vertex((v, h, "edge" if h in c._edge_data else "ray",
                           cones[f"{h}:{int(k) - 1}"], cones[f"{h}:{k}"]))
              for v in breaks for h, _, k in [v.rpartition("#")]]
    return SubdivisionRecord(out, tuple(record), cones)


def _walk(c: TropicalCurve, f: Fan) -> _Walk:
    """Insert 2-valent vertices where edges or rays of the curve cross cone walls of the fan.

    An edge u->w is walked as u + t*(w-u), t in (0,1), a ray as base + t*D, t > 0.
    Each vertex v of the curve's integer image (``TropicalCurve._image``) gets
    its values A_v = n.(m v) against the fan's hyperplanes n and their sign
    vector, a pair of bit masks (positive, negative) (``hyperplane_values``);
    each distinct ray direction D's values and signs come from the fan's table
    (``direction_values``).  A host crosses n iff its start and far end (w, or
    D) have strictly opposite signs there: the set bits of (start+ & far-) |
    (start- & far+).  Its first interval has the start's signs, the far end's
    where the start's is 0.  A crossing lies at t = |a|/|b|, a = A_start and
    |b| = |A_u| + |A_w| on an edge, m|n.D| on a ray, and is keyed by the
    integer t*lb, lb the lcm of the host's |b|; the crossings at one key form
    one flip mask.  Sweeping the keys in order, each interval's vector is the
    one before with the flip mask XORed into both masks, and its memoized cell
    gives its cone (``_locate``).  Consecutive intervals in one cone merge (a
    spurious crossing), so a host breaks where the cone changes, and a break's
    vector is the interval's before it with the flip mask cleared from both.
    The walk returns (``_Walk``) the subdivided curve, every vertex's sign
    vector, the breaks' integer points in walk order, each bounded piece's
    direction and length/weight in integers, (key'-key)*p/(q*lb) from key to
    key' on a host whose own is p/q (``_ratios``; (D, 1, weight) for a ray),
    and each piece's cone, its first interval's: the host's first, or the one
    after a kept break.  New vertices are straight, 2-valent and fresh: the
    output inherits the verdicts.  If any host breaks, its vertices are
    integer points (y, s), at y/s: (m v, m) for an input v, (lb*m*u +
    key*m*x, m*lb) for a break on a host from u along x (w - u, or D), so the
    walk builds no Fraction.  A host that keeps no break
    passes through as it is, and a curve in which none breaks is its own
    output, caches and all.  New vertices are named ``<host>#k`` and pieces
    ``<host>:k``; an input curve already using such an id raises InvalidCurve
    before the id is written, the first in host order.  A traversed point
    outside the support raises NotInSupport.
    """
    _require_valid_in(c, f)

    hosts = c.edges + c.rays
    host_ids = {h.id for h in hosts}
    breaks, edge_ratios = {}, _ratios(c)
    new_edges, new_rays, ratios, pieces = [], [], {}, {}

    m, image = c._image
    own, signs = hyperplane_values(f, image)  # vertex -> n.(m v); -> their signs
    far, located = direction_values(f, {r.direction for r in c.rays}), f._located  # D -> n.D; cells

    for h in hosts:
        bounded = type(h) is BoundedEdge
        start, end = h.ends if bounded else (h.base, None)
        a, (sp, sn), base = own[start], signs[start], image[start]
        a_far, (fp, fn) = (own[end], signs[end]) if bounded else far[h.direction]
        cross = (sp & fn) | (sn & fp)  # the strictly opposite signs
        keys, cuts, lb, crossings = [(sp | fp & ~sn, sn | fn & ~sp)], (), 1, {}
        if cross:  # else one interval, the first
            real = [(1 << i, abs(a[i]), abs(a[i] - a_far[i]) if bounded else m * abs(a_far[i]))
                    for i in set_bits(cross)]
            lb = lcm(*[y for _, _, y in real])  # the crossing at t = key/lb
            for bit, x, y in real:
                t = x * (lb // y)
                crossings[t] = crossings.get(t, 0) | bit
            cuts = sorted(crossings)
            for t in cuts:
                keys.append((keys[-1][0] ^ crossings[t], keys[-1][1] ^ crossings[t]))
        cones = [(located.get(key) or _locate(f, key))[0] for key in keys]
        d, p, q = edge_ratios[h.id] if bounded else (h.direction, 1, h.weight)
        if cones[0] is not None and cones.count(cones[0]) == len(cones):  # no break kept
            (new_edges if bounded else new_rays).append(h)
            pieces[h.id] = cones[0]
            if bounded:
                ratios[h.id] = d, p, q
            continue
        direction = list(map(sub, image[end], base)) if bounded else [m * x for x in h.direction]
        if None in cones:  # name the interval's midpoint, or 1 past a ray's last crossing
            bounds = [0, *cuts, lb if bounded else (cuts[-1] if cuts else 0) + 2 * lb]
            t = bounds[(k := cones.index(None))] + bounds[k + 1]
            raise not_in_support(_point_at(
                [2 * lb * b + t * x for b, x in zip(base, direction)], 2 * m * lb))
        stops = [(start, 0, cones[0])]
        for k, t in enumerate(cuts):
            if cones[k] != cones[k + 1]:
                vid = f"{h.id}#{len(stops)}"
                if vid in image:
                    raise InvalidCurve(_REUSED.format(_echo(h.id), _echo(repr(vid))))
                breaks[vid] = tuple([lb * b + t * x for b, x in zip(base, direction)]), m * lb
                signs[vid] = keys[k][0] & ~crossings[t], keys[k][1] & ~crossings[t]
                stops.append((vid, t, cones[k + 1]))
        stops.append((end, lb, None) if bounded else (None, None, None))
        for k, ((u, t0, cone), (w, t1, _)) in enumerate(zip(stops, stops[1:])):
            pid = f"{h.id}:{k}"
            if pid in host_ids:
                raise InvalidCurve(_REUSED.format(_echo(h.id), _echo(repr(pid))))
            pieces[pid] = cone
            if w is None:
                new_rays.append(_ray((pid, u, h.direction, h.weight)))
            else:
                new_edges.append(_edge((pid, (u, w), h.weight)))
                ratios[pid] = d, (t1 - t0) * p, q * lb

    if breaks:  # else nothing broke: the input is its own subdivision, caches and all
        points = {**{v: (y, m) for v, y in image.items()}, **breaks}
        c = _inherit(TropicalCurve(c.ambient_dim, points, new_edges, new_rays), c)
    return _Walk(c, signs, breaks, ratios, pieces)


def rescale_integral(c: TropicalCurve) -> tuple[TropicalCurve, int]:
    """Scale all positions by the least N making every length/weight integral (``_dilate``)."""
    require_valid(c)
    return _dilate(c, _ratios(c), None)


def _ratios(c: TropicalCurve) -> dict[str, tuple[IntVec, int, int]]:
    """Each bounded edge -> (d, p, q): its primitive direction, and length/weight as p/q,
    from its edge data (d, g), length g/m: p = g/h and q = (m/h)*weight, h = gcd(g, m)."""
    m, data = c._image[0], c._edge_data
    return {e: (d, g // h, m // h * w)
            for e, _, w in c.edges for d, g in [data[e]] for h in [gcd(g, m)]}


def _dilate(c: TropicalCurve, ratios: dict, points: dict | None) -> tuple[TropicalCurve, int]:
    """The valid curve dilated by N, the least making each piece's length/weight
    p/q integral (``ratios``: piece -> (d, p, q)), and N, from each vertex's
    integer point (y, s) at y/s, in curve order: the walk's ``points``, else the
    curve's image, when N = 1 leaves the curve as it is.  Each N*y/s has the
    first's fractional part (the curve is connected), so the least m making it
    integral makes each m*N*y/s an int: the handed-over image.  Coordinates are
    these ints if m = 1, else ``_point_at`` over m.  It keeps the input's field
    order and verdicts, and builds its edge data from its image if asked."""
    n = lcm(*{q // gcd(p, q) for _, p, q in ratios.values()})
    if not points and n == 1:
        return c, 1
    points = points or {v: (y, m) for m, image in [c._image] for v, y in image.items()}
    y, s = next(iter(points.values()))
    m = s // gcd(s, n * gcd(*y))
    image = {v: tuple([m * n * x // s for x in y]) for v, (y, s) in points.items()}
    vs = image if m == 1 else {v: _point_at(y, m) for v, y in image.items()}
    hat = tuple.__new__(TropicalCurve, (c.ambient_dim, vs, c.edges, c.rays))
    vars(hat)["_image"] = m, image
    return _inherit(hat, c), n

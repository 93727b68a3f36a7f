"""Preparation of a curve against a complete fan: recession support check,
subdivision so that every edge and ray lies in a single cone, and global
rescaling to integral length/weight ratios.  Completeness is not checked
here: ``latticefan.fan_validate`` certifies it for fans whose maximal cones
are simplicial and full-dimensional, and a point outside the support of any
other fan raises NotInSupport."""

from fractions import Fraction
from functools import partial
from math import gcd, lcm
from operator import itemgetter, sub
from typing import NamedTuple

from .curves import BoundedEdge, CurveRay, TropicalCurve, _inherit, require_valid
from .errors import DimMismatch, InvalidCurve, _echo
from .latticefan import (
    Fan, IntVec, RatVec, _locate, direction_values, hyperplane_values, not_in_support)


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
    edges: list[BoundedEdge]  # the subdivided curve's edges and rays, in walk order
    rays: list[CurveRay]
    signs: dict[str, tuple[int, int]]  # vertex -> its sign vector
    breaks: dict[str, tuple[IntVec, IntVec, int, int]]  # break -> (b, x, t, lb), in walk order
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
    the input's vertices keep their coordinates, and each break gets its point (``_point_at``)."""
    edges, rays, _, breaks, _, cones = _walk(c, f)
    m, vs = c._image[0], dict(c.vertices)
    for v, (b, x, t, lb) in breaks.items():
        vs[v] = _point_at([lb * y + t * z for y, z in zip(b, x)], m * lb)
    out = _inherit(TropicalCurve(c.ambient_dim, vs, edges, rays), c) if breaks else c
    record = [_new_vertex((v, h, "edge" if h in c._edge_data else "ray",
                           cones[f"{h}:{int(k) - 1}"], cones[f"{h}:{k}"]))
              for v in breaks for h, _, k in [v.rpartition("#")]]
    return SubdivisionRecord(out, tuple(record), cones)


def _walk(c: TropicalCurve, f: Fan) -> _Walk:
    """Find where edges or rays of the curve cross cone walls of the fan.

    An edge u->w is walked as u + t*(w-u), t in (0,1), a ray as base + t*D, t > 0.
    Each vertex v of the curve's integer image (``TropicalCurve._image``) gets
    its values A_v = n.(m v) against the fan's hyperplanes n and their sign
    vector, a pair of bit masks (positive, negative) (``hyperplane_values``);
    each distinct ray direction D's values and signs come from the fan's table
    (``direction_values``).  A host's first interval has the start's signs, the
    far end's (w, or D) where the start's is 0, and its memoized cell gives its
    cone (``_locate``) before any crossing is read.  A host crosses n iff its
    start and far end have strictly opposite signs there: the set bits of
    (start+ & far-) | (start- & far+).  A crossing lies at t = |a|/|b|, a =
    A_start and |b| = |A_u| + |A_w| on an edge, m|n.D| on a ray, and is keyed
    by the integer t*lb, lb the lcm of the host's |b|; the crossings at one key
    form one flip mask.  Sweeping the keys in order, each interval's vector is
    the one before with the flip mask XORed into both masks, and its cell gives
    its cone.  Consecutive intervals in one cone merge (a spurious crossing),
    so a host breaks where the cone changes, and a break's vector is the
    interval's before it with the flip mask cleared from both.  The walk
    returns (``_Walk``) the subdivided curve's edges and rays, every vertex's
    sign vector and the breaks, all in walk order, each bounded piece's
    direction and length/weight in integers, (key'-key)*p/(q*lb) from key to
    key' on a host whose own is p/q (``_ratios``; (D, 1, weight) for a ray),
    and each piece's cone, its first interval's.  A break is its parameters
    (b, x, t, lb), at (lb*b + t*x)/(m*lb), with b the host's start in the image
    and x its direction there (w - u, or m*D): the walk builds no point and no
    curve.  A host that keeps no break passes through as it is.  New vertices,
    straight and 2-valent, are named ``<host>#k`` and pieces ``<host>:k``; an
    input curve already using such an id raises InvalidCurve before the id is
    written, the first in host order, a host's vertices before its pieces.  A
    traversed point outside the support raises NotInSupport.
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
        (sp, sn), (fp, fn) = signs[start], signs[end] if bounded else far[h.direction][1]
        key = sp | fp & ~sn, sn | fn & ~sp  # the first interval's
        cones, cuts, lb, crossings, kept = [(located.get(key) or _locate(f, key))[0]], (), 1, {}, []
        if cross := (sp & fn) | (sn & fp):  # the strictly opposite signs; else one interval
            a, a_far, real = own[start], own[end] if bounded else far[h.direction][0], []
            while cross:
                i = (bit := cross & -cross).bit_length() - 1
                y = abs(a[i] - a_far[i]) if bounded else m * abs(a_far[i])
                real.append((bit, abs(a[i]), y))
                lb, cross = lcm(lb, y), cross ^ bit  # the crossing at t = key/lb
            for bit, x, y in real:
                t = x * (lb // y)
                crossings[t] = crossings.get(t, 0) | bit
            kp, kn = key
            for t in (cuts := sorted(crossings)):
                key = kp ^ (flip := crossings[t]), kn ^ flip
                cones.append(cone := (located.get(key) or _locate(f, key))[0])
                if cone != cones[-2]:  # a break: the vector before it, the flip cleared
                    kept.append((t, (kp & ~flip, kn & ~flip), cones[-2]))
                kp, kn = key
        d, p, q = edge_ratios[h.id] if bounded else (h.direction, 1, h.weight)
        if cones[0] is not None and not kept:  # one cone throughout
            (new_edges if bounded else new_rays).append(h)
            pieces[h.id] = cones[0]
            if bounded:
                ratios[h.id] = d, p, q
            continue
        base = image[start]
        direction = tuple(map(sub, image[end], base) if bounded else [m * x for x in h.direction])
        if None in cones:  # name the interval's midpoint, or 1 past a ray's last crossing
            bounds = [0, *cuts, lb if bounded else (cuts[-1] if cuts else 0) + 2 * lb]
            t = bounds[(k := cones.index(None))] + bounds[k + 1]
            raise not_in_support(_point_at(
                [2 * lb * b + t * x for b, x in zip(base, direction)], 2 * m * lb))
        u, t0, j, clash = start, 0, 0, None  # the open piece's start, key and index
        for t, vector, cone in kept:
            vid, pid = f"{h.id}#{j + 1}", f"{h.id}:{j}"
            if vid in image:
                raise InvalidCurve(_REUSED.format(_echo(h.id), _echo(repr(vid))))
            clash = clash or pid in host_ids and pid  # raised after the host's vertices
            breaks[vid], signs[vid] = (base, direction, t, lb), vector
            pieces[pid] = cone
            new_edges.append(_edge((pid, (u, vid), h.weight)))
            ratios[pid] = d, (t - t0) * p, q * lb
            u, t0, j = vid, t, j + 1
        if clash or (pid := f"{h.id}:{j}") in host_ids:
            raise InvalidCurve(_REUSED.format(_echo(h.id), _echo(repr(clash or pid))))
        pieces[pid] = cones[-1]
        if bounded:
            new_edges.append(_edge((pid, (u, end), h.weight)))
            ratios[pid] = d, (lb - t0) * p, q * lb
        else:
            new_rays.append(_ray((pid, u, h.direction, h.weight)))
    return _Walk(new_edges, new_rays, signs, breaks, ratios, pieces)


def rescale_integral(c: TropicalCurve) -> tuple[TropicalCurve, int]:
    """Scale all positions by the least N making every length/weight integral (``_dilate``)."""
    require_valid(c)
    return _dilate(c, _ratios(c))


def _ratios(c: TropicalCurve) -> dict[str, tuple[IntVec, int, int]]:
    """Each bounded edge -> (d, p, q): its primitive direction, and length/weight as p/q,
    from its edge data (d, g), length g/m: p = g/h and q = (m/h)*weight, h = gcd(g, m)."""
    m, data = c._image[0], c._edge_data
    return {e: (d, g // h, m // h * w)
            for e, _, w in c.edges for d, g in [data[e]] for h in [gcd(g, m)]}


def _dilate(c: TropicalCurve, ratios: dict, walk=None) -> tuple[TropicalCurve, int]:
    """The valid curve, subdivided by the ``walk`` if given, dilated by N, the least
    making each piece's length/weight p/q integral (``ratios``: piece -> (d, p, q)),
    and N; with no break and N = 1, the curve as it is.  Each N*v has the first
    vertex's fractional part (the curve is connected), so the least m' making it
    integral makes each M*v an int, M = m'*N, a multiple of the image's m.  In
    sorted vertex order each coordinate is written once, as s*y for an input
    vertex's image y and s*b + s*t*x // lb for a break (b, x, t, lb), s = M/m:
    the handed-over image.  Coordinates are these ints if m' = 1, else
    ``_point_at`` over m'.  It sorts the walk's pieces once and keeps the verdicts."""
    n = lcm(*{q // gcd(p, q) for _, p, q in ratios.values()})
    if not (breaks := walk and walk.breaks) and n == 1:
        return c, 1
    m, image = c._image
    k = m // gcd(m, n * gcd(*next(iter(image.values()))))  # m'
    s, points = k * n // m, {}
    for v in sorted([*image, *breaks]) if breaks else image:
        if (y := image.get(v)) is None:
            b, x, t, lb = breaks[v]
            points[v] = tuple([s * u + s * t * z // lb for u, z in zip(b, x)])
        else:
            points[v] = tuple([s * x for x in y])
    pieces = [tuple(sorted(p, key=itemgetter(0))) for p in walk[:2]] if breaks else c[2:]
    vs = points if k == 1 else {v: _point_at(y, k) for v, y in points.items()}
    hat = tuple.__new__(TropicalCurve, (c.ambient_dim, vs, *pieces))
    vars(hat)["_image"] = k, points
    return _inherit(hat, c), n

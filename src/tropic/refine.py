"""Preparation of a curve against a complete fan: recession support check,
subdivision so that every edge and ray lies in a single cone, and global
rescaling to integral length/weight ratios.  Completeness is not checked
here: ``latticefan.fan_validate`` certifies it for fans whose maximal cones
are simplicial and full-dimensional, and a point outside the support of any
other fan raises NotInSupport."""

from fractions import Fraction
from math import gcd, lcm
from operator import mul, sub
from typing import NamedTuple

from .curves import (
    BoundedEdge,
    CurveRay,
    TropicalCurve,
    _inherit,
    edge_data,
    require_valid,
)
from .errors import DimMismatch, InvalidCurve, _echo
from .latticefan import (
    Fan,
    IntVec,
    RatVec,
    _locate,
    hyperplane_values,
    not_in_support,
    signs,
)


class RecessionSupport(NamedTuple):
    ok: bool
    missing: tuple[tuple[str, IntVec], ...]  # (ray id, direction) not on a fan ray


class NewVertex(NamedTuple):
    id: str
    host: str
    host_kind: str  # "edge" or "ray"
    cone_before: int  # index into fan.cones of the piece before the crossing
    cone_after: int


class SubdivisionRecord(NamedTuple):
    """The subdivided curve, its new vertices, each piece's cone, and each
    vertex's sign vector against ``Fan.hyperplanes`` (kept by rescaling)."""

    output: TropicalCurve
    new_vertices: tuple[NewVertex, ...]
    piece_cones: dict[str, int]  # output edge/ray id -> index of its containing cone
    vertex_signs: dict[str, tuple[int, ...]]  # output vertex id -> its sign vector


def _require_valid_in(c: TropicalCurve, f: Fan) -> None:
    require_valid(c)
    if c.ambient_dim != f.ambient_dim:
        raise DimMismatch(f"curve in dim {c.ambient_dim} against fan in dim {f.ambient_dim}")


def check_recession_support(c: TropicalCurve, f: Fan) -> RecessionSupport:
    """Whether every ray direction of the curve is a ray generator of the fan."""
    _require_valid_in(c, f)
    fan_rays = set(f.rays())
    missing = tuple((r.id, r.direction) for r in c.rays if r.direction not in fan_rays)
    return RecessionSupport(ok=not missing, missing=missing)


def _point_at(base: IntVec, direction: IntVec, m: int, p: int, q: int) -> RatVec:
    """(base + t*direction) / m at t = p/q, each coordinate one Fraction built from integers."""
    return tuple([Fraction(b * q + p * d, m * q) for b, d in zip(base, direction)])


def _claim(new_id: str, taken, host_id: str) -> None:
    if new_id in taken:
        raise InvalidCurve(
            f"subdividing {_echo(host_id)} creates id {_echo(repr(new_id))}, which the curve "
            "already uses; ids <id>#k and <id>:k are reserved for subdivision"
        )


def subdivide_along_fan(c: TropicalCurve, f: Fan) -> SubdivisionRecord:
    """Insert 2-valent vertices where edges or rays of the curve cross cone walls of the fan.

    Each edge u->w is walked as u + t*(w-u) for t in (0,1), each ray as
    base + t*direction for t in (0,inf).  Each vertex v of the curve's
    integer image (``TropicalCurve._image``) gets its values A_v = n.(m v)
    against the fan's hyperplanes n and their sign vector
    (``hyperplane_values``).  Along a host the walk has
    the sign of a + t*b, with a = A_u and b = A_w - A_u on an edge, a = A_base
    and b = m*(n.direction) on a ray: sign(a or b) on the first interval.  A
    real crossing, at t = |a|/|b|, needs a and b of opposite signs (and
    |a| < |b| on an edge) and negates that sign; it is keyed by the integer
    |a|*(lb/|b|) = t*lb, lb the lcm of the host's |b|, and grouped and sorted
    by key.  Sweeping the crossings gives each interval's sign vector, whose
    cone the fan memoizes (the cones' sign patterns are scanned only on a
    miss), and a break's: the vector of the interval before it with the
    hyperplanes crossing there set to 0.  Spurious crossings (hyperplane
    extensions through the interior of a cone) are discarded by merging
    consecutive pieces that land in the same cone.  Each host is one list of
    stops (vertex, key, cone of the piece after): its start, its kept breaks
    and its end (none for a ray).  Each pair of consecutive stops is a piece
    in its cone, unchecked: a stop's sign vector is 0 wherever it differs from
    the adjacent interval's (a crossing on an edge needs |a| < |b|).  Weights are
    inherited, and balancing, genus, support, and the recession fan are
    preserved: the new vertices are straight, 2-valent and fresh, so the
    output inherits the validation verdict and balancing report, and a piece
    from key to key' its host's direction and length (key'-key)*num/(den*lb)
    for a host of lattice length num/den (1 for a ray).  The only Fractions
    built are values the output stores: the coordinates of each break and
    the lengths of a broken host's pieces; a host with no kept break builds
    none and keeps its own length.  New vertices are named ``<host>#k`` and
    pieces ``<host>:k``; an input curve already using such an id raises
    InvalidCurve.  The fan is assumed complete; ``fan_validate`` certifies
    that for complete simplicial fans only, and a traversed point outside
    the support raises NotInSupport.
    """
    _require_valid_in(c, f)

    hosts = c.edges + c.rays
    host_ids = {h.id for h in hosts}
    vertices = dict(c.vertices)
    new_edges: list[BoundedEdge] = []
    new_rays: list[CurveRay] = []
    record: list[NewVertex] = []
    piece_cones: dict[str, int] = {}
    data = {}  # output edge id -> (primitive direction, lattice length)

    m, image = c._image
    own, vertex_signs = hyperplane_values(f, image)  # vertex -> n.(m v); -> their signs

    for h in hosts:
        bounded = isinstance(h, BoundedEdge)
        start, end = h.ends if bounded else (h.base, None)
        a, s, base = own[start], vertex_signs[start], image[start]
        if bounded:
            b, direction = list(map(sub, own[end], a)), list(map(sub, image[end], base))
        else:
            direction = [m * x for x in h.direction]
            b = [sum(map(mul, n, direction)) for n in f.hyperplanes]
        sb = signs(b)
        real = [(i, abs(x), abs(y)) for i, (x, y) in enumerate(zip(a, b))
                if (x < 0 < y or y < 0 < x) and (not bounded or abs(x) < abs(y))]
        lb, crossings = lcm(*[y for _, _, y in real]), {}  # the crossing at t = key/lb
        for i, x, y in real:
            crossings.setdefault(x * (lb // y), []).append(i)
        cuts = sorted(crossings)
        interval = [x or y for x, y in zip(s, sb)]
        keys = [tuple(interval)]
        for t in cuts:
            for i in crossings[t]:
                interval[i] = -interval[i]
            keys.append(tuple(interval))
        cones = [_locate(f, key) for key in keys]
        if None in cones:  # name the interval's midpoint, or 1 past a ray's last crossing
            bounds = [0, *cuts, lb if bounded else (cuts[-1] if cuts else 0) + 2 * lb]
            k = cones.index(None)
            raise not_in_support(_point_at(base, direction, m, bounds[k] + bounds[k + 1], 2 * lb))
        stops = [(start, 0, cones[0])]  # (vertex, key, cone of the piece after)
        for k, t in enumerate(cuts):
            if cones[k] != cones[k + 1]:
                vid = f"{h.id}#{len(stops)}"
                _claim(vid, vertices, h.id)
                vertices[vid] = _point_at(base, direction, m, t, lb)
                at_break = list(keys[k])
                for i in crossings[t]:
                    at_break[i] = 0
                vertex_signs[vid] = tuple(at_break)
                record.append(
                    NewVertex(vid, h.id, "edge" if bounded else "ray", cones[k], cones[k + 1]))
                stops.append((vid, t, cones[k + 1]))
        stops.append((end, lb, None) if bounded else (None, None, None))
        d, scale = edge_data(c, h.id) if bounded else (h.direction, 1)
        num, den, broken = scale.numerator, scale.denominator * lb, len(stops) > 2
        for k, ((u, t0, cone), (w, t1, _)) in enumerate(zip(stops, stops[1:])):
            pid = f"{h.id}:{k}" if broken else h.id
            if broken:
                _claim(pid, host_ids, h.id)
            if w is None:
                new_rays.append(CurveRay(pid, u, h.direction, h.weight))
            else:
                new_edges.append(BoundedEdge(pid, (u, w), h.weight))
                data[pid] = (d, Fraction((t1 - t0) * num, den) if broken else scale)
            piece_cones[pid] = cone

    out = TropicalCurve(c.ambient_dim, vertices, tuple(new_edges), tuple(new_rays))
    return SubdivisionRecord(_inherit(out, c, data), tuple(record), piece_cones, vertex_signs)


def rescale_integral(c: TropicalCurve) -> tuple[TropicalCurve, int]:
    """Scale all positions by the least N making every length/weight ratio integral.

    Only the embedding is dilated, so the output inherits the validation
    verdict, balancing report and directions, and lengths Fraction(N*num, den).
    """
    require_valid(c)
    n, data = 1, {}
    for e in c.edges:
        _, length = data[e.id] = edge_data(c, e.id)
        n = lcm(n, length.denominator * e.weight // gcd(length.numerator, e.weight))
    if n == 1:
        return c, 1
    vs = {v: tuple([Fraction(n * x.numerator, x.denominator) for x in pos])
          for v, pos in c.vertices.items()}
    hat = TropicalCurve(c.ambient_dim, vs, c.edges, c.rays)
    lengths = {i: (d, Fraction(n * x.numerator, x.denominator)) for i, (d, x) in data.items()}
    return _inherit(hat, c, lengths), n

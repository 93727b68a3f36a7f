"""Preparation of a curve against a complete fan: recession support check,
subdivision so that every edge and ray lies in a single cone, and global
rescaling to integral length/weight ratios.  Completeness is not checked
here: ``latticefan.fan_validate`` certifies it for fans whose maximal cones
are simplicial and full-dimensional, and a point outside the support of any
other fan raises NotInSupport."""

from fractions import Fraction
from functools import partial
from math import gcd, lcm
from operator import mul, sub
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
    """The subdivided curve, carrying its vertices' sign vectors, its new vertices
    and each piece's cone; a vertex's cone is ``degeneration._derive``'s, after rescaling."""

    output: TropicalCurve
    new_vertices: tuple[NewVertex, ...]
    piece_cones: dict[str, int]  # output edge/ray id -> index of its containing cone


def _require_valid_in(c: TropicalCurve, f: Fan) -> None:
    require_valid(c)
    if c.ambient_dim != f.ambient_dim:
        raise DimMismatch(f"curve in dim {c.ambient_dim} against fan in dim {f.ambient_dim}")


def check_recession_support(c: TropicalCurve, f: Fan) -> RecessionSupport:
    """Whether every ray direction of the curve is a ray generator of the fan."""
    _require_valid_in(c, f)
    missing = tuple((r.id, r.direction) for r in c.rays if r.direction not in f._ray_set)
    return RecessionSupport(ok=not missing, missing=missing)


def _point_at(base: IntVec, direction: IntVec, m: int, p: int, q: int) -> RatVec:
    """(base + t*direction) / m at t = p/q: an int per integral coordinate, else a Fraction."""
    mq = m * q
    return tuple([x // mq if (x := b * q + p * d) % mq == 0 else Fraction(x, mq)
                  for b, d in zip(base, direction)])


_REUSED = ("subdividing {} creates id {}, which the curve already uses; "
           "ids <id>#k and <id>:k are reserved for subdivision")


def subdivide_along_fan(c: TropicalCurve, f: Fan) -> SubdivisionRecord:
    """Insert 2-valent vertices where edges or rays of the curve cross cone walls of the fan.

    Each edge u->w is walked as u + t*(w-u) for t in (0,1), each ray as base +
    t*direction for t in (0,inf).  Each vertex v of the curve's integer image
    (``TropicalCurve._image``) gets its values A_v = n.(m v) against the fan's
    hyperplanes n and their sign vector, a pair of bit masks (positive,
    negative) (``hyperplane_values``); each distinct ray direction D's values
    n.D and signs, those of m D, come from the fan's table (``direction_values``).
    A host crosses n iff its two ends, its start and far end (w, or a ray's D),
    have strictly opposite signs there: the set bits of (start+ & far-) |
    (start- & far+).  Its first interval has the start's signs, the far end's
    where the start's is 0; with no crossing it is the only one.  Values are
    read only at a crossing: with a = A_start, it lies at t = |a|/|b|, |b| =
    |A_u| + |A_w| on an edge and |n.(m D)| = m|n.D| on a ray, and is keyed by
    the integer |a|*(lb/|b|) = t*lb, lb the lcm of the host's |b|; the
    crossings at one key form one flip mask.  Sweeping the keys in order, each
    interval's vector is the one before with the flip mask XORed into both
    masks, and its memoized cell gives its cone (``_locate``).  Spurious
    crossings (through the interior of a cone) are discarded by merging
    consecutive pieces in the same cone.  Each broken host is one list of stops
    (vertex, key, cone of the piece after): its start, its kept breaks and its
    end (none for a ray), and each pair of consecutive stops is a piece in its
    cone, unchecked: a stop's sign vector (a break's is the interval's before it,
    its flip mask cleared from both masks) is 0 wherever it differs from the
    adjacent interval's.  The output carries every vertex's vector, for this fan
    object only (``_signs``).
    Weights are inherited, and balancing, genus, support, and the recession fan
    are preserved: the new vertices are straight, 2-valent and fresh, so the
    output inherits the validation verdict and balancing report, and a piece
    from key to key' its host's direction and length (key'-key)*num/(den*lb)
    for a host of lattice length num/den (1 for a ray).  Fractions are built
    only for the values the output stores: a broken host's pieces' lengths and
    each break's coordinates that are not integral (the others are ints).  A
    host whose intervals all lie in one cone keeps no break and is passed
    through as it is, with its edge data, and a curve in which no host breaks is
    its own output, caches and all.  New vertices are named ``<host>#k`` and
    pieces ``<host>:k``; an input curve already using such an id raises
    InvalidCurve before the id is written, the first in host order.  The fan is
    assumed complete; ``fan_validate`` certifies that for complete simplicial
    fans only, and a traversed point outside the support raises NotInSupport.
    """
    _require_valid_in(c, f)

    hosts = c.edges + c.rays
    host_ids = {h.id for h in hosts}
    vertices = dict(c.vertices)
    # piece id -> index of its cone; output edge id -> (primitive direction, lattice length)
    new_edges, new_rays, record, piece_cones, data = [], [], [], {}, {}

    m, image = c._image
    own, vertex_signs = hyperplane_values(f, image)  # vertex -> n.(m v); -> their signs
    far, located = direction_values(f, {r.direction for r in c.rays}), f._located  # D -> n.D; cells

    for h in hosts:
        bounded = type(h) is BoundedEdge
        start, end = h.ends if bounded else (h.base, None)
        a, (sp, sn), base = own[start], vertex_signs[start], image[start]
        a_far, (fp, fn) = (own[end], vertex_signs[end]) if bounded else far[h.direction]
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
        if cones[0] is not None and cones.count(cones[0]) == len(cones):  # no break kept
            (new_edges if bounded else new_rays).append(h)
            if bounded:
                data[h.id] = c._edge_data[h.id]
            piece_cones[h.id] = cones[0]
            continue
        direction = list(map(sub, image[end], base)) if bounded else [m * x for x in h.direction]
        if None in cones:  # name the interval's midpoint, or 1 past a ray's last crossing
            bounds = [0, *cuts, lb if bounded else (cuts[-1] if cuts else 0) + 2 * lb]
            k = cones.index(None)
            raise not_in_support(_point_at(base, direction, m, bounds[k] + bounds[k + 1], 2 * lb))
        stops = [(start, 0, cones[0])]  # (vertex, key, cone of the piece after)
        for k, t in enumerate(cuts):
            if cones[k] != cones[k + 1]:
                vid = f"{h.id}#{len(stops)}"
                if vid in vertices:
                    raise InvalidCurve(_REUSED.format(_echo(h.id), _echo(repr(vid))))
                vertices[vid] = _point_at(base, direction, m, t, lb)
                vertex_signs[vid] = keys[k][0] & ~crossings[t], keys[k][1] & ~crossings[t]
                record.append(
                    _new_vertex((vid, h.id, "edge" if bounded else "ray", cones[k], cones[k + 1])))
                stops.append((vid, t, cones[k + 1]))
        stops.append((end, lb, None) if bounded else (None, None, None))
        d, scale = c._edge_data[h.id] if bounded else (h.direction, 1)
        num, den = scale.numerator, scale.denominator * lb
        for k, ((u, t0, cone), (w, t1, _)) in enumerate(zip(stops, stops[1:])):
            pid = f"{h.id}:{k}"
            if pid in host_ids:
                raise InvalidCurve(_REUSED.format(_echo(h.id), _echo(repr(pid))))
            if w is None:
                new_rays.append(_ray((pid, u, h.direction, h.weight)))
            else:
                new_edges.append(_edge((pid, (u, w), h.weight)))
                data[pid] = (d, Fraction((t1 - t0) * num, den))
            piece_cones[pid] = cone

    if record:  # else nothing broke: the input is its own subdivision, caches and all
        c = _inherit(TropicalCurve(c.ambient_dim, vertices, new_edges, new_rays), c, data)
    vars(c)["_signs"] = f, vertex_signs
    return SubdivisionRecord(c, tuple(record), piece_cones)


def rescale_integral(c: TropicalCurve) -> tuple[TropicalCurve, int]:
    """Scale all positions by the least N making every length/weight ratio integral.

    Only the embedding is dilated, so the output keeps the input's (sorted)
    field order and inherits the validation verdict, balancing report and
    directions, its integral lengths (N*num // den, computed once per edge, one
    Fraction per value), and the input's sign vectors (``_signs``: N > 0 keeps
    every sign).  It is handed its integer image (m, m*N*p) of tuples, built
    column by column from one ``as_integer_ratio`` per coordinate: N*length is
    integral on every edge of a valid, so connected, curve, so each vertex's
    N*p has the first vertex's coordinate denominators, whose lcm is the least
    m.  A coordinate is an integer over m: a plain int when m = 1, where the
    vertices are the image's own dict (JSON writes both alike).
    """
    require_valid(c)
    data = c._edge_data
    n = lcm(*{x.denominator * e.weight // gcd(x.numerator, e.weight)
              for e in c.edges for x in [data[e.id][1]]})
    if n == 1:
        return c, 1
    num, den = zip(*[x.as_integer_ratio() for p in c.vertices.values() for x in p])
    m = lcm(*[q // gcd(n, q) for q in den[:c.ambient_dim]])
    column = map(mul, num, map((n * m).__floordiv__, den))  # m*N*p, coordinate by coordinate
    image = dict(zip(c.vertices, zip(*[column] * c.ambient_dim)))
    vs = image if m == 1 else {v: tuple([Fraction(x, m) for x in q]) for v, q in image.items()}
    hat = tuple.__new__(TropicalCurve, (c.ambient_dim, vs, c.edges, c.rays))
    ks = [n * x.numerator // x.denominator for _, x in data.values()]  # N*length
    made = {k: Fraction(k) for k in set(ks)}
    lengths = {i: (d, made[k]) for (i, (d, _)), k in zip(data.items(), ks)}
    vars(hat).update(_image=(m, image), _signs=vars(c).get("_signs"))
    return _inherit(hat, c, lengths), n

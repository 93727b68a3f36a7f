"""Embedded tropical curves: weighted 1-dimensional rational polyhedral complexes in R^n.

A curve is a connected graph of vertices with exact rational positions,
bounded edges with positive integer weights, and weighted rays (unbounded
edges) with explicit primitive directions.  The defining check is the
balancing condition: at every vertex the weighted primitive outgoing
directions sum to zero.
"""

import re
from collections import defaultdict
from fractions import Fraction
from functools import cached_property
from math import gcd
from operator import add, itemgetter, sub
from typing import Iterable, Mapping, NamedTuple, Sequence

from .errors import (
    DegenerateEdge,
    DimMismatch,
    InvalidCurve,
    NoSuchVertex,
    Unbalanced,
    ValidationReport,
    _echo,
)
from .latticefan import (
    Cone,
    Fan,
    IntVec,
    RatVec,
    integer_image,
)

_RATIONAL = re.compile(r"-?[0-9]+(?:/[0-9]+)?")  # the file format's "p" or "p/q"


class BoundedEdge(NamedTuple):
    id: str
    ends: tuple[str, str]
    weight: int


class CurveRay(NamedTuple):
    id: str
    base: str
    direction: IntVec
    weight: int


class _CurveFields(NamedTuple):
    ambient_dim: int
    vertices: dict[str, RatVec]
    edges: tuple[BoundedEdge, ...]
    rays: tuple[CurveRay, ...]


class TropicalCurve(_CurveFields):
    """Immutable embedded tropical curve; treat all fields as read-only.

    Vertices, edges, and rays are kept sorted by id, so equal curves compare
    equal regardless of construction order and serialization is canonical.
    """

    def __new__(cls, ambient_dim, vertices, edges, rays):
        return super().__new__(
            cls,
            ambient_dim,
            {v: vertices[v] for v in sorted(vertices)},
            tuple(sorted(edges, key=itemgetter(0))),
            tuple(sorted(rays, key=itemgetter(0))),
        )

    _make = classmethod(lambda cls, fields: cls(*fields))  # so ``_replace`` sorts too

    @staticmethod
    def build(
        ambient_dim: int,
        vertices: Mapping[str, Sequence],
        edges: Iterable[tuple[str, tuple[str, str], int]] = (),
        rays: Iterable[tuple[str, str, Sequence[int], int]] = (),
    ) -> "TropicalCurve":
        vs = {str(k): tuple([_exact(x) for x in v]) for k, v in vertices.items()}
        es = tuple(BoundedEdge(str(i), (str(u), str(w)), _exact(k, int)) for i, (u, w), k in edges)
        rs = tuple(CurveRay(str(i), str(b), tuple([_exact(x, int) for x in d]), _exact(k, int))
                   for i, b, d, k in rays)
        return TropicalCurve(ambient_dim, vs, es, rs)

    def position(self, vertex: str) -> RatVec:
        try:
            return self.vertices[vertex]
        except KeyError:
            raise NoSuchVertex(f"no vertex {_echo(repr(vertex))}") from None

    # The caches below are built on first use, or handed over (the verdicts by ``_inherit``,
    # ``_image`` by ``refine._dilate``), and kept in the instance __dict__, outside
    # the tuple's fields, so equality, ordering and serialization see the sorted fields only.

    @cached_property
    def _pass(self) -> tuple[dict, tuple[dict, dict], list, "BalanceReport"]:
        """One pass over the edges, then the rays, in id order, on the integer image
        ``_image``: (edge data, incidence, the edges' and rays' violations in
        ``_check_structure``'s order, balancing report).  An edge u->w with known ends
        has coincident endpoints iff m u == m w; else q = m w - m u, and the first edge
        of its id gets the edge data (q/g, g) if its ends have ``ambient_dim`` coordinates
        and g = gcd(q) != 0: its direction, and its lattice length g/m as the int g.  The
        incidence is (vertex -> edges touching it, vertex -> rays based at it), for each
        vertex an edge or ray names.  Each edge with edge data adds k*d (k its weight) to
        the sum at u and -k*d at w, each ray its weighted direction at its base; the
        report, read only for a valid curve (where every edge has edge data), has the
        nonzero sums as defects, in vertex order."""
        image = self._image[1]
        dim, data, report, seen = self.ambient_dim, {}, ValidationReport([]), set()
        wrong = {v for v, p in image.items() if len(p) != dim}  # validate's DimMismatch
        edges_at, rays_at = defaultdict(list), defaultdict(list)
        # dim zeros only if a vertex has dim coordinates: else dim may not fit an index
        zero = next(((0,) * dim for p in image.values() if len(p) == dim), ())
        sums = dict.fromkeys(image, zero)
        for e in self.edges:
            eid, (u, w), k = e  # ids are echoed only in a violation's detail
            if reused := eid in seen:
                report.add("DuplicateId", f"edge id {_echo(eid)} reused")
            if k < 1:
                report.add("NonpositiveWeight", f"edge {_echo(eid)} has weight {_echo(k)}")
            edges_at[u].append(e)
            if w != u:
                edges_at[w].append(e)
            if u not in image or w not in image:
                missing = [_echo(v) for v in (u, w) if v not in image]
                report.add("NoSuchVertex", f"edge {_echo(eid)} references {missing}")
            elif (pu := image[u]) == (pw := image[w]):
                report.add("DegenerateEdge", f"edge {_echo(eid)} has coincident endpoints")
            elif not reused and not (wrong and (u in wrong or w in wrong)) and (
                    g := gcd(*(q := [*map(sub, pw, pu)]))):
                data[eid] = (d := tuple([x // g for x in q])), g
                kd = d if k == 1 else [k * x for x in d]
                sums[u], sums[w] = [*map(add, sums[u], kd)], [*map(sub, sums[w], kd)]
            seen.add(eid)
        for r in self.rays:
            rid, base, d, k = r
            if rid in seen:
                report.add("DuplicateId", f"ray id {_echo(rid)} reused")
            seen.add(rid)
            if k < 1:
                report.add("NonpositiveWeight", f"ray {_echo(rid)} has weight {_echo(k)}")
            rays_at[base].append(r)
            if base not in sums:
                report.add("NoSuchVertex",
                           f"ray {_echo(rid)} based at unknown vertex {_echo(base)}")
            else:
                sums[base] = [*map(add, sums[base], d if k == 1 else [k * x for x in d])]
            if len(d) != dim:
                report.add("DimMismatch", f"ray {_echo(rid)} direction has {len(d)} coordinates")
            elif not any(d):
                report.add("ZeroDirection", f"ray {_echo(rid)} has zero direction")
            elif gcd(*d) != 1:
                report.add("NonPrimitiveDirection", f"ray {_echo(rid)} direction {_echo(d)}")
        defects = tuple((v, tuple(t)) for v, t in sums.items() if any(t))
        balance = BalanceReport(not defects, defects)
        return data, (dict(edges_at), dict(rays_at)), report.violations, balance

    _edge_data = cached_property(lambda self: self._pass[0])  # edge id -> (direction, m*length)
    _incidence = cached_property(lambda self: self._pass[1])  # (vertex -> edges, vertex -> rays)
    _balance = cached_property(lambda self: self._pass[3])  # read only for a valid curve

    @cached_property
    def _image(self) -> tuple[int, dict[str, IntVec]]:
        """(m, vertex -> m * position), as ``integer_image``; treat it as read-only."""
        return integer_image(self.vertices)

    @cached_property
    def _validation(self) -> ValidationReport:
        return _check_structure(self)

    def edges_at(self, vertex: str) -> list[BoundedEdge]:
        return list(self._incidence[0].get(vertex, ()))

    def rays_at(self, vertex: str) -> list[CurveRay]:
        return list(self._incidence[1].get(vertex, ()))


def _rational(x) -> int | Fraction:
    """x, if it is an exact rational, as an int where integral and else as a Fraction:
    an int (not a bool), a Fraction, or text of the file format's form "p" or "p/q"
    (``_RATIONAL``) with q nonzero and digits that Python converts; anything else
    raises ValueError, saying why."""
    if type(x) is int:
        return x
    if type(x) is Fraction:
        return x.numerator if x.denominator == 1 else x
    exact = isinstance(x, (int, Fraction)) and type(x) is not bool
    if not exact and not isinstance(x, str):
        raise ValueError(f"expected int or 'p/q' string, got {type(x).__name__}")
    why = "expected 'p' or 'p/q'"
    try:
        if exact or _RATIONAL.fullmatch(x):
            f = Fraction(x)
            return f.numerator if f.denominator == 1 else f
    except ZeroDivisionError:
        why = "zero denominator"
    except ValueError as ex:  # more digits than Python converts
        why = str(ex)
    raise ValueError(f"bad rational string {_echo(repr(x))}: {why}")


def _exact(x, kind: type | tuple = (int, Fraction)):
    """x, an exact rational (``_rational``), an int where integral; with ``kind``
    int, an integer only; else InvalidCurve."""
    if type(x) is int:
        return x
    try:
        f = _rational(x)
    except ValueError:
        f = None
    if not isinstance(f, kind):
        raise InvalidCurve(f"{_echo(repr(x))} is no exact {'integer' if kind is int else 'number'}")
    return f


class BalanceReport(NamedTuple):
    balanced: bool
    defects: tuple[tuple[str, IntVec], ...]  # (vertex, nonzero weighted direction sum)


class Star(NamedTuple):
    """One-dimensional fan of outgoing directions at a vertex, with ray weights."""

    vertex: str
    fan: Fan
    ray_weights: tuple[tuple[IntVec, int], ...]


def validate(c: TropicalCurve) -> ValidationReport:
    """Check the structural invariants; lists every violation found.

    The verdict is computed once per curve instance and shared: treat the
    returned report as read-only.
    """
    return c._validation


def require_valid(c: TropicalCurve) -> None:
    report = c._validation
    if not report.valid:
        raise InvalidCurve("; ".join(f"{v.code}: {v.detail}" for v in report.violations))


def _check_structure(c: TropicalCurve) -> ValidationReport:
    report, vertices, dim = ValidationReport([]), c.vertices, c.ambient_dim
    if dim < 1:
        report.add("DimMismatch", f"ambient dimension {_echo(dim)} < 1")
    if not vertices:
        report.add("Empty", "curve has no vertices")
    for v, pos in vertices.items():
        if len(pos) != dim:
            report.add("DimMismatch", f"vertex {_echo(v)} has {len(pos)} coordinates")
    report.violations.extend(c._pass[2])
    if vertices and not _connected(c):
        report.add("Disconnected", "underlying graph is not connected")
    return report


def _connected(c: TropicalCurve) -> bool:
    vertices, incidence = c.vertices, c._incidence[0]
    start = next(iter(vertices))
    seen, stack = {start}, [start]
    while stack:
        for e in incidence.get(stack.pop(), ()):
            for w in e.ends:
                if w not in seen and w in vertices:
                    seen.add(w)
                    stack.append(w)
    return len(seen) == len(vertices)


def edge_data(c: TropicalCurve, edge_id: str) -> tuple[IntVec, Fraction]:
    """Primitive direction and lattice length of a bounded edge, oriented by
    stored endpoint order, from its edge data (d, g) in ``TropicalCurve._pass``:
    the length g/m; an edge with none raises DegenerateEdge (or, for the first
    edge of its id, NoSuchVertex for an unknown end and DimMismatch for an end
    without ``ambient_dim`` coordinates, named as ``validate`` names it)."""
    if edge_id in (data := c._edge_data):
        return data[edge_id][0], Fraction(data[edge_id][1], c._image[0])
    ends = next((e.ends for e in c.edges if e.id == edge_id), None)
    if ends is None:
        raise DegenerateEdge(f"no bounded edge {_echo(repr(edge_id))}")
    for v in ends:
        if len(pos := c.position(v)) != c.ambient_dim:  # NoSuchVertex for an unknown end
            raise DimMismatch(f"vertex {_echo(v)} has {len(pos)} coordinates")
    raise DegenerateEdge(f"edge {_echo(edge_id)} has zero length")


def _inherit(c: TropicalCurve, source: TropicalCurve) -> TropicalCurve:
    """Give ``c``, a subdivision or dilation of ``source``, the verdicts ``source`` computed."""
    vars(c).update({k: v for k, v in vars(source).items() if k in ("_validation", "_balance")})
    return c


def outgoing(c: TropicalCurve, vertex: str) -> list[tuple[IntVec, int]]:
    """Primitive outgoing directions at a vertex with weights; bounded edges counted from each end."""
    out: list[tuple[IntVec, int]] = []
    for e in c.edges_at(vertex):
        d, _ = edge_data(c, e.id)
        if e.ends[0] == vertex:
            out.append((d, e.weight))
        if e.ends[1] == vertex:
            out.append((tuple(-x for x in d), e.weight))
    for r in c.rays_at(vertex):
        out.append((r.direction, r.weight))
    return out


def is_balanced(c: TropicalCurve) -> BalanceReport:
    """Balancing condition: weighted primitive outgoing directions sum to zero at every vertex.

    The report is computed once per curve instance, in its one pass over
    its edges and rays (``TropicalCurve._pass``), and shared."""
    require_valid(c)
    return c._balance


def require_balanced(c: TropicalCurve) -> None:
    report = is_balanced(c)
    if not report.balanced:
        raise Unbalanced(f"defects at {_echo([v for v, _ in report.defects])}")


def genus(c: TropicalCurve) -> int:
    """First Betti number of the underlying graph: #edges - #vertices + 1."""
    require_valid(c)
    return len(c.edges) - len(c.vertices) + 1


def _ray_fan(directions: Iterable[IntVec], n: int) -> Fan:
    """The fan in R^n of the origin and one ray per direction."""
    return Fan.build([Cone((), n)] + [Cone((d,), n) for d in directions], n)


def recession_fan(c: TropicalCurve) -> Fan:
    """Fan of unbounded directions: one ray per distinct primitive ray direction, plus the origin."""
    require_valid(c)
    return _ray_fan({r.direction for r in c.rays}, c.ambient_dim)


def star(c: TropicalCurve, vertex: str) -> Star:
    """Fan of primitive outgoing directions at a vertex, with weights attached to rays.

    Parallel edges or rays leaving the vertex in the same direction contribute
    one ray whose weight is the sum.
    """
    require_valid(c)
    c.position(vertex)  # raises NoSuchVertex for an unknown vertex
    weights: dict[IntVec, int] = {}
    for d, w in outgoing(c, vertex):
        weights[d] = weights.get(d, 0) + w
    return Star(vertex, _ray_fan(weights, c.ambient_dim), tuple(sorted(weights.items())))


"""Embedded tropical curves: weighted 1-dimensional rational polyhedral complexes in R^n.

A curve is a connected graph of vertices with exact rational positions,
bounded edges with positive integer weights, and weighted rays (unbounded
edges) with explicit primitive directions.  The defining check is the
balancing condition: at every vertex the weighted primitive outgoing
directions sum to zero.
"""

import re
from fractions import Fraction
from functools import cached_property
from math import gcd
from operator import itemgetter, sub
from typing import Iterable, Mapping, NamedTuple, Sequence

from .errors import (
    DegenerateEdge,
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
    def _edge_by_id(self) -> dict[str, BoundedEdge]:
        return {e.id: e for e in reversed(self.edges)}  # first of any duplicate ids wins

    @cached_property
    def _incidence(self) -> dict[str, tuple[list[BoundedEdge], list[CurveRay]]]:
        """vertex -> (bounded edges touching it, rays based at it), in id order."""
        index: dict[str, tuple[list[BoundedEdge], list[CurveRay]]] = {}
        for e in self.edges:
            for v in dict.fromkeys(e.ends):
                index.setdefault(v, ([], []))[0].append(e)
        for r in self.rays:
            index.setdefault(r.base, ([], []))[1].append(r)
        return index

    @cached_property
    def _image(self) -> tuple[int, dict[str, IntVec]]:
        """(m, vertex -> m * position), as ``integer_image``; treat it as read-only."""
        return integer_image(self.vertices)

    @cached_property
    def _edge_data(self) -> dict[str, tuple[IntVec, Fraction]]:
        """edge id -> (primitive direction, lattice length), from the curve's
        integer image ``_image``: an edge u->w has q = m w - m u, direction
        q/gcd(q) and length gcd(q)/m.  The first edge of each id gets an
        entry if both ends are known and q != 0."""
        m, image = self._image
        data = {}
        for e in self._edge_by_id.values():
            u, w = image.get(e.ends[0]), image.get(e.ends[1])
            if u is not None and w is not None:
                q = list(map(sub, w, u))
                if g := gcd(*q):
                    data[e.id] = (tuple([x // g for x in q]), Fraction(g, m))
        return data

    @cached_property
    def _validation(self) -> ValidationReport:
        return _check_structure(self)

    @cached_property
    def _balance(self) -> "BalanceReport":
        return _balance_report(self)

    def edges_at(self, vertex: str) -> list[BoundedEdge]:
        return list(self._incidence.get(vertex, ((), ()))[0])

    def rays_at(self, vertex: str) -> list[CurveRay]:
        return list(self._incidence.get(vertex, ((), ()))[1])


def _exact(x, kind: type = Fraction):
    """x (an exact number or "p"/"p/q" text) as a Fraction or int (``kind``), else InvalidCurve."""
    if type(x) is kind:
        return x
    refused = isinstance(x, (bool, float)) or isinstance(x, str) and not _RATIONAL.fullmatch(x)
    try:
        f = None if refused else Fraction(x)
    except (ArithmeticError, TypeError, ValueError):  # no number, "p/0" or too many digits
        f = None
    if f is None or f.denominator != 1 and kind is int:
        raise InvalidCurve(f"{_echo(repr(x))} is no exact {'integer' if kind is int else 'number'}")
    return f if kind is Fraction else f.numerator


class InfinityPoint(NamedTuple):
    id: str
    ray: str


class CompactifiedCurve(NamedTuple):
    """A curve plus one formal point at infinity per ray."""

    base: TropicalCurve
    infinity_points: tuple[InfinityPoint, ...]


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
        report.add("DimMismatch", f"ambient dimension {dim} < 1")
    if not vertices:
        report.add("Empty", "curve has no vertices")
    for v, pos in vertices.items():
        if len(pos) != dim:
            report.add("DimMismatch", f"vertex {_echo(v)} has {len(pos)} coordinates")
    seen_ids: set[str] = set()
    data = c._edge_data
    for eid, (u, w), weight in c.edges:  # ids are echoed only in a violation's detail
        reused = eid in seen_ids
        if reused:
            report.add("DuplicateId", f"edge id {_echo(eid)} reused")
        seen_ids.add(eid)
        if weight < 1:
            report.add("NonpositiveWeight", f"edge {_echo(eid)} has weight {weight}")
        if u not in vertices or w not in vertices:
            missing = [_echo(v) for v in (u, w) if v not in vertices]
            report.add("NoSuchVertex", f"edge {_echo(eid)} references {missing}")
            continue
        pu, pw = vertices[u], vertices[w]
        # the edge data hold the first edge of each id whose ends differ in a shared coordinate
        if (pu == pw) if reused else (eid not in data and len(pu) == len(pw)):
            report.add("DegenerateEdge", f"edge {_echo(eid)} has coincident endpoints")
    for rid, base, d, weight in c.rays:
        if rid in seen_ids:
            report.add("DuplicateId", f"ray id {_echo(rid)} reused")
        seen_ids.add(rid)
        if weight < 1:
            report.add("NonpositiveWeight", f"ray {_echo(rid)} has weight {weight}")
        if base not in vertices:
            report.add("NoSuchVertex", f"ray {_echo(rid)} based at unknown vertex {_echo(base)}")
        if len(d) != dim:
            report.add("DimMismatch", f"ray {_echo(rid)} direction has {len(d)} coordinates")
        elif not any(d):
            report.add("ZeroDirection", f"ray {_echo(rid)} has zero direction")
        elif gcd(*d) != 1:
            report.add("NonPrimitiveDirection", f"ray {_echo(rid)} direction {d}")
    if vertices and not _connected(c):
        report.add("Disconnected", "underlying graph is not connected")
    return report


def _connected(c: TropicalCurve) -> bool:
    vertices, incidence = c.vertices, c._incidence
    start = next(iter(vertices))
    seen, stack = {start}, [start]
    while stack:
        for e in incidence.get(stack.pop(), ((), ()))[0]:
            for w in e.ends:
                if w in vertices and w not in seen:
                    seen.add(w)
                    stack.append(w)
    return len(seen) == len(vertices)


def edge_data(c: TropicalCurve, edge_id: str) -> tuple[IntVec, Fraction]:
    """Primitive direction and lattice length of a bounded edge, oriented by
    stored endpoint order, as ``TropicalCurve._edge_data`` computes them for
    every edge at once; an edge it has no entry for raises DegenerateEdge
    (or NoSuchVertex, for an unknown end)."""
    try:
        return c._edge_data[edge_id]
    except KeyError:
        if edge_id not in c._edge_by_id:
            raise DegenerateEdge(f"no bounded edge {_echo(repr(edge_id))}") from None
        for v in c._edge_by_id[edge_id].ends:
            c.position(v)  # NoSuchVertex for an unknown end
        raise DegenerateEdge(f"edge {_echo(edge_id)} has zero length") from None


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

    The report is computed once per curve instance, in one pass over its
    edges and rays (``_balance_report``), and shared."""
    require_valid(c)
    return c._balance


def require_balanced(c: TropicalCurve) -> None:
    report = is_balanced(c)
    if not report.balanced:
        raise Unbalanced(f"defects at {[v for v, _ in report.defects]}")


def _balance_report(c: TropicalCurve) -> BalanceReport:
    """One pass over the edges and rays of a valid curve: an edge u->w of
    weight k and direction d adds k*d to the sum at u and -k*d at w, a ray
    its weighted direction at its base.  Defects follow the vertex order."""
    totals = {v: [0] * c.ambient_dim for v in c.vertices}
    data = c._edge_data
    for e in c.edges:
        at_u, at_w = totals[e.ends[0]], totals[e.ends[1]]
        for i, x in enumerate(data[e.id][0]):
            at_u[i] += e.weight * x
            at_w[i] -= e.weight * x
    for r in c.rays:
        at_base = totals[r.base]
        for i, x in enumerate(r.direction):
            at_base[i] += r.weight * x
    defects = tuple((v, tuple(t)) for v, t in totals.items() if any(t))
    return BalanceReport(balanced=not defects, defects=defects)


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


def compactify(c: TropicalCurve) -> CompactifiedCurve:
    """Adjoin one 1-valent point at infinity per ray; the base curve is unchanged."""
    require_valid(c)
    points = tuple(InfinityPoint(id=f"inf:{r.id}", ray=r.id) for r in c.rays)
    return CompactifiedCurve(base=c, infinity_points=points)

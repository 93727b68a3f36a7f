"""Embedded tropical curves: weighted 1-dimensional rational polyhedral complexes in R^n.

A curve is a connected graph of vertices with exact rational positions,
bounded edges with positive integer weights, and weighted rays (unbounded
edges) with explicit primitive directions.  The defining check is the
balancing condition: at every vertex the weighted primitive outgoing
directions sum to zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping, Sequence

from .errors import (
    DegenerateEdge,
    InvalidCurve,
    NoSuchVertex,
    ValidationReport,
    _echo,
)
from .latticefan import (
    Cone,
    Fan,
    IntVec,
    RatVec,
    as_ratvec,
    primitive,
    primitive_and_scale,
)


@dataclass(frozen=True)
class BoundedEdge:
    id: str
    ends: tuple[str, str]
    weight: int


@dataclass(frozen=True)
class CurveRay:
    id: str
    base: str
    direction: IntVec
    weight: int


@dataclass(frozen=True, eq=True)
class TropicalCurve:
    """Immutable embedded tropical curve; treat all fields as read-only.

    Vertices, edges, and rays are kept sorted by id, so equal curves compare
    equal regardless of construction order and serialization is canonical.
    """

    ambient_dim: int
    vertices: dict[str, RatVec]
    edges: tuple[BoundedEdge, ...]
    rays: tuple[CurveRay, ...]

    def __post_init__(self):
        object.__setattr__(
            self, "vertices", {v: self.vertices[v] for v in sorted(self.vertices)}
        )
        object.__setattr__(self, "edges", tuple(sorted(self.edges, key=lambda e: e.id)))
        object.__setattr__(self, "rays", tuple(sorted(self.rays, key=lambda r: r.id)))

    @staticmethod
    def build(
        ambient_dim: int,
        vertices: Mapping[str, Sequence],
        edges: Iterable[tuple[str, tuple[str, str], int]] = (),
        rays: Iterable[tuple[str, str, Sequence[int], int]] = (),
    ) -> "TropicalCurve":
        vs = {str(k): as_ratvec(v) for k, v in vertices.items()}
        es = tuple(BoundedEdge(str(i), (str(u), str(w)), int(wt)) for i, (u, w), wt in edges)
        rs = tuple(
            CurveRay(str(i), str(b), tuple(int(c) for c in d), int(wt)) for i, b, d, wt in rays
        )
        return TropicalCurve(ambient_dim, vs, es, rs)

    def position(self, vertex: str) -> RatVec:
        try:
            return self.vertices[vertex]
        except KeyError:
            raise NoSuchVertex(f"no vertex {_echo(repr(vertex))}") from None

    # The indexes and the validation verdict below are built on first use and
    # kept in the instance __dict__; they are not dataclass fields, so
    # equality, ordering and serialization only ever see the sorted fields.

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
    def _edge_data(self) -> dict[str, tuple[IntVec, Fraction]]:
        """edge id -> (primitive direction, lattice length), filled by ``edge_data``."""
        return {}

    @cached_property
    def _validation(self) -> ValidationReport:
        return _check_structure(self)

    def edge(self, edge_id: str) -> BoundedEdge:
        try:
            return self._edge_by_id[edge_id]
        except KeyError:
            raise DegenerateEdge(f"no bounded edge {_echo(repr(edge_id))}") from None

    def edges_at(self, vertex: str) -> list[BoundedEdge]:
        return list(self._incidence.get(vertex, ((), ()))[0])

    def rays_at(self, vertex: str) -> list[CurveRay]:
        return list(self._incidence.get(vertex, ((), ()))[1])


@dataclass(frozen=True)
class InfinityPoint:
    id: str
    ray: str


@dataclass(frozen=True)
class CompactifiedCurve:
    """A curve plus one formal point at infinity per ray."""

    base: TropicalCurve
    infinity_points: tuple[InfinityPoint, ...]


@dataclass(frozen=True)
class BalanceReport:
    balanced: bool
    defects: tuple[tuple[str, IntVec], ...]  # (vertex, nonzero weighted direction sum)


@dataclass(frozen=True)
class Star:
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
    report = ValidationReport()
    if c.ambient_dim < 1:
        report.add("DimMismatch", f"ambient dimension {c.ambient_dim} < 1")
    if not c.vertices:
        report.add("Empty", "curve has no vertices")
    for v, pos in c.vertices.items():
        if len(pos) != c.ambient_dim:
            report.add("DimMismatch", f"vertex {_echo(v)} has {len(pos)} coordinates")
    seen_ids: set[str] = set()
    for e in c.edges:
        eid = _echo(e.id)
        if e.id in seen_ids:
            report.add("DuplicateId", f"edge id {eid} reused")
        seen_ids.add(e.id)
        if e.weight < 1:
            report.add("NonpositiveWeight", f"edge {eid} has weight {e.weight}")
        missing = [v for v in e.ends if v not in c.vertices]
        if missing:
            report.add("NoSuchVertex", f"edge {eid} references {[_echo(v) for v in missing]}")
            continue
        if c.vertices[e.ends[0]] == c.vertices[e.ends[1]]:
            report.add("DegenerateEdge", f"edge {eid} has coincident endpoints")
    for r in c.rays:
        rid = _echo(r.id)
        if r.id in seen_ids:
            report.add("DuplicateId", f"ray id {rid} reused")
        seen_ids.add(r.id)
        if r.weight < 1:
            report.add("NonpositiveWeight", f"ray {rid} has weight {r.weight}")
        if r.base not in c.vertices:
            report.add("NoSuchVertex", f"ray {rid} based at unknown vertex {_echo(r.base)}")
        if len(r.direction) != c.ambient_dim:
            report.add("DimMismatch", f"ray {rid} direction has {len(r.direction)} coordinates")
        elif all(x == 0 for x in r.direction):
            report.add("ZeroDirection", f"ray {rid} has zero direction")
        elif primitive(r.direction) != r.direction:
            report.add("NonPrimitiveDirection", f"ray {rid} direction {r.direction}")
    if c.vertices and not _connected(c):
        report.add("Disconnected", "underlying graph is not connected")
    return report


def _connected(c: TropicalCurve) -> bool:
    start = next(iter(c.vertices))
    seen = {start}
    stack = [start]
    while stack:
        for e in c.edges_at(stack.pop()):
            for w in e.ends:
                if w in c.vertices and w not in seen:
                    seen.add(w)
                    stack.append(w)
    return len(seen) == len(c.vertices)


def edge_data(c: TropicalCurve, edge_id: str) -> tuple[IntVec, Fraction]:
    """Primitive direction and lattice length of a bounded edge, oriented by
    stored endpoint order; computed once per edge of a curve instance."""
    if edge_id not in c._edge_data:
        e = c.edge(edge_id)
        pu, pw = c.position(e.ends[0]), c.position(e.ends[1])
        disp = tuple(b - a for a, b in zip(pu, pw))
        if all(x == 0 for x in disp):
            raise DegenerateEdge(f"edge {_echo(edge_id)} has zero length")
        c._edge_data[edge_id] = primitive_and_scale(disp)
    return c._edge_data[edge_id]


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
    """Balancing condition: weighted primitive outgoing directions sum to zero at every vertex."""
    require_valid(c)
    defects = []
    for v in c.vertices:
        total = [0] * c.ambient_dim
        for d, w in outgoing(c, v):
            for i, x in enumerate(d):
                total[i] += w * x
        if any(x != 0 for x in total):
            defects.append((v, tuple(total)))
    return BalanceReport(balanced=not defects, defects=tuple(defects))


def genus(c: TropicalCurve) -> int:
    """First Betti number of the underlying graph: #edges - #vertices + 1."""
    require_valid(c)
    return len(c.edges) - len(c.vertices) + 1


def recession_fan(c: TropicalCurve) -> Fan:
    """Fan of unbounded directions: one ray per distinct primitive ray direction, plus the origin."""
    require_valid(c)
    dirs = sorted({r.direction for r in c.rays})
    cones = [Cone((), c.ambient_dim)] + [Cone((d,), c.ambient_dim) for d in dirs]
    return Fan.build(cones, c.ambient_dim)


def star(c: TropicalCurve, vertex: str) -> Star:
    """Fan of primitive outgoing directions at a vertex, with weights attached to rays.

    Parallel edges or rays leaving the vertex in the same direction contribute
    one ray whose weight is the sum.
    """
    require_valid(c)
    if vertex not in c.vertices:
        raise NoSuchVertex(f"no vertex {_echo(repr(vertex))}")
    weights: dict[IntVec, int] = {}
    for d, w in outgoing(c, vertex):
        weights[d] = weights.get(d, 0) + w
    dirs = sorted(weights)
    cones = [Cone((), c.ambient_dim)] + [Cone((d,), c.ambient_dim) for d in dirs]
    return Star(
        vertex=vertex,
        fan=Fan.build(cones, c.ambient_dim),
        ray_weights=tuple((d, weights[d]) for d in dirs),
    )


def compactify(c: TropicalCurve) -> CompactifiedCurve:
    """Adjoin one 1-valent point at infinity per ray; the base curve is unchanged."""
    require_valid(c)
    points = tuple(InfinityPoint(id=f"inf:{r.id}", ray=r.id) for r in c.rays)
    return CompactifiedCurve(base=c, infinity_points=points)

"""Deformation cones of combinatorial types and superabundance detection.

The deformation cone of a combinatorial type lives in R^(n*V + E): vertex
position coordinates in sorted-vertex order followed by one length coordinate
per bounded edge in sorted-edge order.  Each bounded edge contributes the n
exact linear equations position(w) - position(u) - length * direction = 0,
and each length is constrained nonnegative.  Every curve of the type is an
all-positive-lengths interior point, so the cone's dimension is that of the
solution space.  ``_equations`` builds these rows once, sparse;
``deformation_cone`` writes them out densely in the order above, and
``superabundance`` takes their rank in a column order that keeps it cheap.
"""

from functools import partial
from typing import NamedTuple

from .curves import CurveRay, TropicalCurve, require_balanced, require_valid
from .latticefan import IntVec, _echelon


class TypeEdge(NamedTuple):
    id: str
    ends: tuple[str, str]
    weight: int
    direction: IntVec  # primitive, oriented by stored endpoint order


_type_edge = partial(tuple.__new__, TypeEdge)  # built by tuple's C constructor


class CombinatorialType(NamedTuple):
    """A curve with positions and lengths forgotten: graph, directions, weights."""

    ambient_dim: int
    vertices: tuple[str, ...]
    edges: tuple[TypeEdge, ...]
    rays: tuple[CurveRay, ...]


class SuperabundanceVerdict(NamedTuple):
    dimension: int
    expected: int
    excess: int

    @property
    def superabundant(self) -> bool:
        return self.excess > 0


class DeformationCone(NamedTuple):
    """Exact linear model of all curves of one combinatorial type."""

    combinatorial_type: CombinatorialType
    coordinates: tuple[str, ...]  # labels: "<vertex>[i]" blocks then "len:<edge>"
    equations: tuple[IntVec, ...]
    verdict: SuperabundanceVerdict

    @property
    def dimension(self) -> int:
        return self.verdict.dimension


def combinatorial_type(c: TropicalCurve) -> CombinatorialType:
    """Forget positions and lengths; keep the graph, primitive directions, and weights."""
    require_valid(c)
    # a curve keeps its vertices, edges and rays sorted by id
    data = c._edge_data
    edges = tuple([_type_edge((e, ends, w, data[e][0])) for e, ends, w in c.edges])
    return CombinatorialType(c.ambient_dim, tuple(c.vertices), edges, c.rays)


def _equations(t: CombinatorialType, at: dict[str, int], lengths: int) -> list[dict[int, int]]:
    """The n*E edge equations position(w) - position(u) - length_e * direction_e
    = 0, edge by edge in sorted order and coordinate by coordinate, each as
    {column: nonzero entry}: vertex v's block starts at column ``at[v]`` and
    the length of the j-th edge sits in column ``lengths + j``."""
    rows = []
    for j, e in enumerate(t.edges):
        u, w = e.ends
        for i, d in enumerate(e.direction):
            row = {at[w] + i: 1, at[u] + i: -1}
            if d:
                row[lengths + j] = -d
            rows.append(row)
    return rows


def deformation_cone(t: CombinatorialType) -> DeformationCone:
    """Equations and dimension of the cone of curves with this combinatorial type."""
    n, nvertices = t.ambient_dim, len(t.vertices)
    coordinates = tuple(
        f"{v}[{i}]" for v in t.vertices for i in range(n)
    ) + tuple(f"len:{e.id}" for e in t.edges)
    at = {v: n * k for k, v in enumerate(t.vertices)}
    rows = tuple(tuple(eq.get(j, 0) for j in range(len(coordinates)))
                 for eq in _equations(t, at, n * nvertices))
    return DeformationCone(t, coordinates, rows, superabundance(t))


def superabundance(t: CombinatorialType) -> SuperabundanceVerdict:
    """Actual and expected deformation dimension of a connected type.

    The dimension is n*V + E - rank of the edge equations (``_equations``).
    ``_echelon`` reduces them with the length columns first and then the
    vertex blocks in reverse breadth-first order from the first vertex, so
    most rows find a new pivot at once.  A tree needs no elimination: its
    equations are independent, as each edge brings a new vertex, leaving
    n + E.  The expected dimension, the virtual count ends + (n-3)(1-g) -
    sum of (valence - 3) over all vertices, is n(1-g) + E, as the valences
    sum to 2E + ends and V = E + 1 - g.
    """
    n, nvertices, nedges = t.ambient_dim, len(t.vertices), len(t.edges)
    g = nedges - nvertices + 1
    dimension = n + nedges
    if g:
        neighbours: dict[str, list[str]] = {v: [] for v in t.vertices}
        for e in t.edges:
            neighbours[e.ends[0]].append(e.ends[1])
            neighbours[e.ends[1]].append(e.ends[0])
        order = [t.vertices[0]]
        seen = set(order)
        for u in order:  # breadth-first: the list grows as it is read
            for w in neighbours[u]:
                if w not in seen:
                    seen.add(w)
                    order.append(w)
        at = {v: nedges + n * k for k, v in enumerate(reversed(order))}
        dimension = n * nvertices + nedges - len(_echelon(_equations(t, at, 0)))
    expected = n * (1 - g) + nedges
    return SuperabundanceVerdict(dimension, expected, dimension - expected)


def is_superabundant(c: TropicalCurve) -> SuperabundanceVerdict:
    """Compare actual and expected deformation dimensions; excess > 0 means superabundant."""
    require_balanced(c)
    return superabundance(combinatorial_type(c))

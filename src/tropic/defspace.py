"""Deformation cones of combinatorial types and superabundance detection.

The deformation cone of a combinatorial type lives in R^(n*V + E): vertex
position coordinates in sorted-vertex order followed by one length coordinate
per bounded edge in sorted-edge order.  Each bounded edge contributes the n
exact linear equations position(w) - position(u) - length * direction = 0,
and each length is constrained nonnegative.  Every curve of the type is an
all-positive-lengths interior point, so the cone's dimension is that of the
solution space, which ``superabundance`` counts from the cycle space without
building these equations.
"""

from collections import deque
from typing import NamedTuple

from .curves import CurveRay, TropicalCurve, edge_data, require_balanced, require_valid
from .latticefan import IntVec, _echelon


class TypeEdge(NamedTuple):
    id: str
    ends: tuple[str, str]
    weight: int
    direction: IntVec  # primitive, oriented by stored endpoint order


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
    edges = tuple(TypeEdge(e.id, e.ends, e.weight, edge_data(c, e.id)[0]) for e in c.edges)
    return CombinatorialType(c.ambient_dim, tuple(c.vertices), edges, c.rays)


def deformation_cone(t: CombinatorialType) -> DeformationCone:
    """Equations and dimension of the cone of curves with this combinatorial type."""
    n = t.ambient_dim
    vindex = {v: i for i, v in enumerate(t.vertices)}
    ncoords = n * len(t.vertices) + len(t.edges)
    coordinates = tuple(
        f"{v}[{i}]" for v in t.vertices for i in range(n)
    ) + tuple(f"len:{e.id}" for e in t.edges)
    rows: list[IntVec] = []
    for j, e in enumerate(t.edges):
        u, w = e.ends
        for i in range(n):
            row = [0] * ncoords
            row[n * vindex[w] + i] += 1
            row[n * vindex[u] + i] -= 1
            row[n * len(t.vertices) + j] = -e.direction[i]
            rows.append(tuple(row))
    return DeformationCone(
        combinatorial_type=t,
        coordinates=coordinates,
        equations=tuple(rows),
        verdict=superabundance(t),
    )


def fundamental_cycles(t: CombinatorialType) -> list[dict[int, int]]:
    """The fundamental cycles of a breadth-first spanning tree from the first
    vertex, one per non-tree edge in sorted edge order.

    Each cycle maps the index of every edge it uses to +1 where the walk
    goes from the edge's ``ends[0]`` to its ``ends[1]`` and -1 otherwise:
    along the non-tree edge (+1), then through the tree back to its start.
    """
    incident: dict[str, list[int]] = {v: [] for v in t.vertices}
    for j, e in enumerate(t.edges):
        incident[e.ends[0]].append(j)
        incident[e.ends[1]].append(j)
    root = t.vertices[0]
    # parent[v] = (tree edge to the parent, sign of v -> parent along that edge, parent)
    parent: dict[str, tuple[int, int, str] | None] = {root: None}
    depth = {root: 0}
    queue = deque([root])
    while queue:
        u = queue.popleft()
        for j in incident[u]:
            a, b = t.edges[j].ends
            w = b if a == u else a
            if w not in parent:
                parent[w] = (j, -1 if a == u else 1, u)
                depth[w] = depth[u] + 1
                queue.append(w)
    tree = {p[0] for p in parent.values() if p is not None}
    cycles: list[dict[int, int]] = []
    for j, e in enumerate(t.edges):
        if j in tree:
            continue
        # along e from ends[0] to ends[1], then up from ends[1] and down to ends[0]
        coeff = {j: 1}
        x, y = e.ends[1], e.ends[0]
        while x != y:
            if depth[x] >= depth[y]:
                k, sign, x = parent[x]
                coeff[k] = sign
            else:
                k, sign, y = parent[y]
                coeff[k] = -sign
        cycles.append(coeff)
    return cycles


def cycle_closing_matrix(t: CombinatorialType) -> list[dict[int, int]]:
    """Integer matrix C of the cycle-closing equations, shape (n*g) x E, each
    row as {column: nonzero entry}.

    Along each of the ``fundamental_cycles`` the signed edge vectors
    +-length_e * direction_e sum to zero, one row per coordinate.  Columns
    follow the sorted edge order.
    """
    return [{k: s * t.edges[k].direction[i] for k, s in loop.items() if t.edges[k].direction[i]}
            for loop in fundamental_cycles(t) for i in range(t.ambient_dim)]


def superabundance(t: CombinatorialType) -> SuperabundanceVerdict:
    """Actual and expected deformation dimension of a connected type.

    One root position and the edge lengths fix a curve of the type, and the
    lengths must close every fundamental cycle, so the dimension is
    n + E - rank(C) with C from ``cycle_closing_matrix``.  The expected
    dimension, the virtual count ends + (n-3)(1-g) - sum of (valence - 3)
    over all vertices, is n(1-g) + E, as the valences sum to 2E + ends and
    V = E + 1 - g; so the excess is n*g - rank(C), and trees need no elimination.
    """
    n, nedges = t.ambient_dim, len(t.edges)
    g = nedges - len(t.vertices) + 1
    r = len(_echelon(cycle_closing_matrix(t))) if g else 0
    dimension = n + nedges - r
    expected = n * (1 - g) + nedges
    return SuperabundanceVerdict(dimension, expected, dimension - expected)


def is_superabundant(c: TropicalCurve) -> SuperabundanceVerdict:
    """Compare actual and expected deformation dimensions; excess > 0 means superabundant."""
    require_balanced(c)
    return superabundance(combinatorial_type(c))

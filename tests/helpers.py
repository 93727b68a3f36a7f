"""Shared test utilities: independent oracles, curve generators and transforms.

The oracles here deliberately avoid the library code paths they are used to
check: ``NodeData.k`` by the node monoid, whose membership is checked by
brute-force closure, cone membership by Caratheodory subset enumeration,
rank by transposed elimination, and the deformation dimension by dense
Fraction elimination of the edge equations, written out here from the
``defspace`` docstring (``dense_edge_equations``) instead of taken from the
library's sparse rows and their integer reduction.  Subdivision is checked against the earlier
implementation that scanned the facets of every cone and walked edges and
rays in two separate loops, with each output vertex signed by Fraction dot
products, point
location against the linear scan over every cone with rational points that
preceded the sign-vector memo, the bit-mask sign vectors' location and
closure against the tuple sign vectors and per-cone (hyperplane, sign)
patterns they replaced (``sign_patterns``), the double
description against the earlier one written as nested closures, cone keys
against the generators that Caratheodory membership finds extreme, fan
validation against the earlier one that found a line by the rank of a
cone's H-description (``holds_line``), intersected every pair of cones,
tested each intersection by tight facet normals (``is_face_of``) and
enumerated every face recursively (``cone_faces``),
certificate verification against the earlier one that re-derived each field
by hand, and ``integerize`` and the cached edge data against the Fraction
formula of ``reference_primitive_and_scale``.  A curve's first read (edge
data, incidence, structure checks and balancing, one pass of
``TropicalCurve._pass``) is checked against the five separate passes that
preceded it (``reference_check_structure`` and the functions it calls, and
``reference_balance_report``).  Well-spacedness is checked against
``reference_well_spaced``: the cycle as the edges that are no bridge, span
membership by exact rank, and Dijkstra over Fraction lengths.  The expected deformation
dimension is checked against the virtual count ``expected_dimension``.
"""

from __future__ import annotations

import contextlib
import heapq
import importlib.util
import itertools
import random
from fractions import Fraction
from math import atan2, gcd, lcm
from operator import mul, sub
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence
from unittest import mock

from tropic.curves import (
    BalanceReport,
    BoundedEdge,
    CurveRay,
    TropicalCurve,
    edge_data,
    is_balanced,
    require_valid,
)
from tropic.defspace import (
    CombinatorialType,
    DeformationCone,
    combinatorial_type,
    deformation_cone,
)
from tropic import degeneration
from tropic.degeneration import CertificateCheck, RealizationCertificate, _derive
from tropic.errors import (
    DimMismatch,
    NotInSupport,
    TropicError,
    ValidationReport,
    ZeroDirection,
    _echo,
)
from tropic.latticefan import (
    Cone,
    Fan,
    IntVec,
    Matrix,
    RatVec,
    canonical_form,
    cone_halfspaces,
    cone_contains,
    dot,
    fan_from_maximal,
    integer_image,
    primitive,
    rank,
)
from tropic.refine import NewVertex, SubdivisionRecord, check_recession_support, rescale_integral
from tropic.wellspaced import Departure, WellSpacedVerdict


class NonIntegralRatio(TropicError):
    code = "NonIntegralRatio"


class NodeMonoid(NamedTuple):
    """Pushout monoid with parameter k: pairs (n1, n2) of naturals with n2 - n1 in kZ.

    Generated by (1,1), (k,0), (0,k) subject to the single pushout relation
    (k,0) + (0,k) = k*(1,1); for k = 1 this is all of N x N.
    """

    k: int

    def contains(self, n1: int, n2: int) -> bool:
        return n1 >= 0 and n2 >= 0 and (n2 - n1) % self.k == 0


def as_ratvec(coords) -> RatVec:
    """The coordinates as Fractions."""
    return tuple(Fraction(c) for c in coords)


def node_monoid(length: Fraction | int, weight: int) -> NodeMonoid:
    """Node monoid for an edge of the given lattice length and weight, the
    oracle of ``NodeData.k``: its parameter k is length/weight."""
    if weight < 1:
        raise NonIntegralRatio(f"weight must be a positive integer, got {weight}")
    ratio = Fraction(length) / weight
    if ratio <= 0 or ratio.denominator != 1:
        raise NonIntegralRatio(
            f"length/weight ratio {ratio} is not a positive integer; rescale the curve first"
        )
    return NodeMonoid(k=int(ratio))


def monoid_closure(k: int, bound: int) -> set[tuple[int, int]]:
    """All sums of {(1,1),(k,0),(0,k)} with coordinate sum <= bound."""
    gens = [(1, 1), (k, 0), (0, k)]
    seen = {(0, 0)}
    frontier = [(0, 0)]
    while frontier:
        n1, n2 = frontier.pop()
        for g1, g2 in gens:
            m = (n1 + g1, n2 + g2)
            if m[0] + m[1] <= bound and m not in seen:
                seen.add(m)
                frontier.append(m)
    return seen


def trusted_overlapping_fan() -> Fan:
    """A fan of 51 cones, in which the added cone {(1,0),(1,2)} overlaps
    {(1,0),(1,1)} and {(1,1),(1,2)}."""
    fan = fan_from_maximal([(1, i) for i in range(25)], [[i, i + 1] for i in range(24)], 2)
    return Fan.build(fan.cones + (Cone.from_rays([(1, 0), (1, 2)], 2),), 2)


def primitive_box_fan(bound: int = 2) -> Fan:
    """Complete R^2 fan whose rays are all primitive vectors of max-norm <= bound,
    in angular order; its many walls make many spurious crossing candidates."""
    rays = [(x, y) for x in range(-bound, bound + 1) for y in range(-bound, bound + 1)
            if gcd(x, y) == 1]
    rays.sort(key=lambda v: atan2(v[1], v[0]))
    return fan_from_maximal(rays, [[i, (i + 1) % len(rays)] for i in range(len(rays))], 2)


def stellar_fan(rng: random.Random, spec, steps: int):
    """A seeded complete simplicial fan: ``steps`` stellar subdivisions of the
    complete fan ``spec`` (rays, maximal ray index lists, dim) at random
    primitive vectors of max-norm <= 2 that are not yet rays.  Each maximal
    cone holding the new ray v = sum l_i g_i (l_i >= 0) is replaced by the
    cones that put v in place of each g_i with l_i > 0."""
    rays, maximal, dim = list(spec[0]), [list(m) for m in spec[1]], spec[2]
    for _ in range(steps):
        v = rng.choice([w for w in DIRECTIONS[dim] if max(map(abs, w)) <= 2 and w not in rays])
        split = []
        for idx in maximal:
            coeffs = solve_exact([[rays[i][k] for i in idx] for k in range(dim)], v)
            if any(x < 0 for x in coeffs):
                split.append(idx)
            else:
                split += [idx[:k] + [len(rays)] + idx[k + 1:] for k, x in enumerate(coeffs) if x]
        rays.append(v)
        maximal = split
    return rays, maximal, dim


def reference_primitive_and_scale(v: Sequence) -> tuple[tuple[int, ...], Fraction]:
    """A nonzero rational vector as scale * primitive with scale > 0, by the
    Fraction formula: clear the denominators by int(c * m), then divide by
    the gcd of the entries."""
    w = as_ratvec(v)
    if all(c == 0 for c in w):
        raise ZeroDirection("zero vector has no primitive direction")
    m = lcm(*(c.denominator for c in w)) if w else 1
    ints = [int(c * m) for c in w]
    g = 0
    for c in ints:
        g = gcd(g, abs(c))
    return primitive(ints), Fraction(g, m)


def edge_lengths(c: TropicalCurve) -> dict[str, tuple[IntVec, Fraction]]:
    """The curve's edge data (``TropicalCurve._edge_data``: direction, and the
    length as an int g over the image's m), each length as the Fraction g/m."""
    m = c._image[0]
    return {e: (d, Fraction(g, m)) for e, (d, g) in c._edge_data.items()}


# A curve's first read as five passes, as it was before ``TropicalCurve._pass``:
# the integer image, the edge data (one Fraction length per edge), the
# incidence index, the structure checks and the balancing report.


def reference_edge_by_id(c: TropicalCurve) -> dict[str, BoundedEdge]:
    return {e.id: e for e in reversed(c.edges)}  # first of any duplicate ids wins


def reference_incidence(c: TropicalCurve) -> dict[str, tuple[list[BoundedEdge], list[CurveRay]]]:
    """vertex -> (bounded edges touching it, rays based at it), in id order."""
    index: dict[str, tuple[list[BoundedEdge], list[CurveRay]]] = {}
    for e in c.edges:
        for v in dict.fromkeys(e.ends):
            index.setdefault(v, ([], []))[0].append(e)
    for r in c.rays:
        index.setdefault(r.base, ([], []))[1].append(r)
    return index


def reference_edge_data(c: TropicalCurve) -> dict[str, tuple[IntVec, Fraction]]:
    """edge id -> (primitive direction, lattice length), from the curve's
    integer image: an edge u->w has q = m w - m u, direction q/gcd(q) and
    length gcd(q)/m.  The first edge of each id gets an entry if both ends
    are known, both have ``ambient_dim`` coordinates and q != 0."""
    m, image = integer_image(c.vertices)
    data = {}
    for e in reference_edge_by_id(c).values():
        u, w = image.get(e.ends[0]), image.get(e.ends[1])
        if u is not None and w is not None and len(u) == len(w) == c.ambient_dim:
            q = list(map(sub, w, u))
            if g := gcd(*q):
                data[e.id] = (tuple([x // g for x in q]), Fraction(g, m))
    return data


def reference_check_structure(c: TropicalCurve) -> ValidationReport:
    report, vertices, dim = ValidationReport([]), c.vertices, c.ambient_dim
    if dim < 1:
        report.add("DimMismatch", f"ambient dimension {dim} < 1")
    if not vertices:
        report.add("Empty", "curve has no vertices")
    for v, pos in vertices.items():
        if len(pos) != dim:
            report.add("DimMismatch", f"vertex {_echo(v)} has {len(pos)} coordinates")
    seen_ids: set[str] = set()
    for eid, (u, w), weight in c.edges:
        reused = eid in seen_ids
        if reused:
            report.add("DuplicateId", f"edge id {_echo(eid)} reused")
        seen_ids.add(eid)
        if weight < 1:
            report.add("NonpositiveWeight", f"edge {_echo(eid)} has weight {_echo(weight)}")
        if u not in vertices or w not in vertices:
            missing = [_echo(v) for v in (u, w) if v not in vertices]
            report.add("NoSuchVertex", f"edge {_echo(eid)} references {missing}")
            continue
        if vertices[u] == vertices[w]:
            report.add("DegenerateEdge", f"edge {_echo(eid)} has coincident endpoints")
    for rid, base, d, weight in c.rays:
        if rid in seen_ids:
            report.add("DuplicateId", f"ray id {_echo(rid)} reused")
        seen_ids.add(rid)
        if weight < 1:
            report.add("NonpositiveWeight", f"ray {_echo(rid)} has weight {_echo(weight)}")
        if base not in vertices:
            report.add("NoSuchVertex", f"ray {_echo(rid)} based at unknown vertex {_echo(base)}")
        if len(d) != dim:
            report.add("DimMismatch", f"ray {_echo(rid)} direction has {len(d)} coordinates")
        elif not any(d):
            report.add("ZeroDirection", f"ray {_echo(rid)} has zero direction")
        elif gcd(*d) != 1:
            report.add("NonPrimitiveDirection", f"ray {_echo(rid)} direction {_echo(d)}")
    if vertices and not _reference_connected(c):
        report.add("Disconnected", "underlying graph is not connected")
    return report


def _reference_connected(c: TropicalCurve) -> bool:
    vertices, incidence = c.vertices, reference_incidence(c)
    start = next(iter(vertices))
    seen, stack = {start}, [start]
    while stack:
        for e in incidence.get(stack.pop(), ((), ()))[0]:
            for w in e.ends:
                if w in vertices and w not in seen:
                    seen.add(w)
                    stack.append(w)
    return len(seen) == len(vertices)


def reference_balance_report(c: TropicalCurve) -> BalanceReport:
    """One pass over the edges and rays of a valid curve: an edge u->w of
    weight k and direction d adds k*d to the sum at u and -k*d at w, a ray
    its weighted direction at its base.  Defects follow the vertex order."""
    totals = {v: [0] * c.ambient_dim for v in c.vertices}
    data = reference_edge_data(c)
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


def echelon(rows: Matrix) -> tuple[list[list[Fraction]], list[int]]:
    """Dense Fraction forward elimination; returns (echelon rows, pivot column indices)."""
    work = [[Fraction(x) for x in row] for row in rows]
    ncols = len(work[0]) if work else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, len(work)):
            if work[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        p = work[r][c]
        for i in range(r + 1, len(work)):
            if work[i][c] != 0:
                f = work[i][c] / p
                for j in range(c, ncols):
                    work[i][j] -= f * work[r][j]
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    return work, pivots


def bridgeless_edges(c: TropicalCurve) -> set[str]:
    """The ids of the edges whose removal leaves the graph connected: in genus 1,
    the cycle's edges."""
    def connected(edges) -> bool:
        first = next(iter(c.vertices))
        seen, stack = {first}, [first]
        while stack:
            v = stack.pop()
            for e in edges:
                if v in e.ends:
                    new = set(e.ends) - seen
                    seen |= new
                    stack.extend(new)
        return len(seen) == len(c.vertices)

    return {e.id for e in c.edges if connected([f for f in c.edges if f is not e])}


def reference_well_spaced(c: TropicalCurve) -> WellSpacedVerdict:
    """Speyer's genus-1 condition, from its definition: the cycle is the edges
    whose removal leaves the graph connected (``bridgeless_edges``); a point p
    lies in the affine span of the cycle iff p - base does not raise the exact
    rank (``echelon``) of the cycle's edge directions, and a ray leaves the
    span iff its direction raises that rank.  Distances are Dijkstra's over
    the Fraction lengths of ``edge_lengths``, from every cycle vertex, inside
    the subgraph of in-span vertices; a vertex it reaches with an edge to a
    vertex outside the span, or a ray leaving it, is a departure.  Well-spaced
    iff there is no departure or the smallest distance is attained twice."""
    lengths = edge_lengths(c)
    cycle_ids = bridgeless_edges(c)
    on_cycle = [e for e in c.edges if e.id in cycle_ids]
    directions = [lengths[e.id][0] for e in on_cycle]
    base = c.vertices[on_cycle[0].ends[0]]
    span = len(echelon(directions)[1])
    codim = c.ambient_dim - span

    def raises(v) -> bool:
        return len(echelon(directions + [list(v)])[1]) > span

    inside = {v for v, p in c.vertices.items() if not raises([a - b for a, b in zip(p, base)])}
    dist: dict[str, Fraction] = {}
    heap = sorted((Fraction(0), v) for e in on_cycle for v in e.ends)  # a sorted list is a heap
    while heap:
        d, v = heapq.heappop(heap)
        if v in dist:
            continue
        dist[v] = d
        for e in c.edges:
            if v in e.ends and all(w in inside for w in e.ends):
                heapq.heappush(heap, (d + lengths[e.id][1], e.ends[e.ends[0] == v]))
    departures = tuple(
        Departure(v, dist[v]) for v in sorted(dist)
        if any(w not in inside for e in c.edges if v in e.ends for w in e.ends)
        or any(raises(r.direction) for r in c.rays if r.base == v))
    distances = [d.distance for d in departures]
    return WellSpacedVerdict(not distances or distances.count(min(distances)) > 1, codim, departures)


def reference_canonical_form(c: Cone):
    """Key of a pointed cone as a point set: its primitive generators that the
    others do not generate (``contains_caratheodory``), sorted.  In a pointed
    cone no two distinct primitive generators lie on one ray, so these are its
    extreme rays."""
    gens = sorted(set(c.generators))
    return tuple(g for g in gens
                 if not contains_caratheodory([h for h in gens if h != g], g, c.ambient_dim))


def densify(rows: Sequence[dict[int, int]], ncols: int) -> list[list[int]]:
    """Dense rows of a matrix whose rows are given as {column: nonzero entry}."""
    return [[row.get(j, 0) for j in range(ncols)] for row in rows]


def solve_exact(rows: Matrix, rhs: Sequence) -> list[Fraction] | None:
    """One exact solution of A x = b, or None if inconsistent."""
    rows = [list(row) + [b] for row, b in zip(rows, rhs)]
    if not rows:
        return []
    n = len(rows[0]) - 1
    ech, pivots = echelon(rows)
    if n in pivots:  # pivot in the augmented column
        return None
    x = [Fraction(0)] * n
    for r in range(len(pivots) - 1, -1, -1):
        pc = pivots[r]
        s = sum(ech[r][j] * x[j] for j in range(pc + 1, n))
        x[pc] = (ech[r][n] - s) / ech[r][pc]
    return x


def contains_caratheodory(generators, point, dim) -> bool:
    """Cone membership by solving over every linearly independent generator subset."""
    point = [Fraction(x) for x in point]
    if all(x == 0 for x in point):
        return True
    gens = list(generators)
    if not gens:
        return False
    top = rank(gens)
    for size in range(1, top + 1):
        for subset in itertools.combinations(gens, size):
            if rank(subset) != size:
                continue
            rows = [[Fraction(g[i]) for g in subset] for i in range(dim)]
            sol = solve_exact(rows, point)
            if sol is not None and all(x >= 0 for x in sol):
                return True
    return False


def rank_by_transpose(rows) -> int:
    """Rank via elimination on the transpose: an independent pivot order."""
    rows = [list(r) for r in rows]
    if not rows:
        return 0
    ncols = len(rows[0])
    transposed = [[Fraction(rows[i][j]) for i in range(len(rows))] for j in range(ncols)]
    return rank(transposed)


def kernel_dimension(rows, ncols: int | None = None) -> int:
    """dim ker A = #columns - rank(A), by dense Fraction elimination."""
    rows = [row for row in rows]
    if not rows:
        if ncols is None:
            raise DimMismatch("empty matrix needs an explicit column count")
        return ncols
    n = len(rows[0])
    if ncols is not None and ncols != n:
        raise DimMismatch(f"declared {ncols} columns, rows have {n}")
    return n - len(echelon(rows)[1])


def overvalence(t: CombinatorialType) -> int:
    """Sum over vertices of valence - 3; a 2-valent vertex counts -1."""
    return 2 * len(t.edges) + len(t.rays) - 3 * len(t.vertices)


def expected_dimension(t: CombinatorialType, genus_: int, ends: int) -> int:
    """Virtual count ends + (n-3)(1-g) - overvalence for a connected type, the
    oracle of ``superabundance``'s expected n(1-g) + E: the standard trivalent
    dimension count with every vertex counted as valence - 3, unclamped."""
    return ends + (t.ambient_dim - 3) * (1 - genus_) - overvalence(t)


def dense_edge_equations(t: CombinatorialType) -> list[IntVec]:
    """The (n*E) x (n*V + E) edge equations as the ``defspace`` docstring states
    them, written out densely: n position coordinates per vertex in the type's
    vertex order, then one length per bounded edge in its edge order; an edge
    u -> w with direction d and length l gives position(w)[i] - position(u)[i]
    - l * d[i] = 0 for each coordinate i."""
    n, nvertices = t.ambient_dim, len(t.vertices)
    block = {v: n * k for k, v in enumerate(t.vertices)}
    rows = []
    for j, e in enumerate(t.edges):
        u, w = e.ends
        for i in range(n):
            row = [0] * (n * nvertices + len(t.edges))
            row[block[w] + i] += 1
            row[block[u] + i] -= 1
            row[n * nvertices + j] = -e.direction[i]
            rows.append(tuple(row))
    return rows


def dense_deformation_dimension(t: CombinatorialType) -> int:
    """Kernel dimension of ``dense_edge_equations``, by dense Fraction elimination."""
    return kernel_dimension(dense_edge_equations(t), t.ambient_dim * len(t.vertices) + len(t.edges))


# Test curves come from the benchmark's generators, loaded by path, so the
# tests and the benchmark draw from one source.
_GEN_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "gen.py"
_spec = importlib.util.spec_from_file_location("perfbench_gen", _GEN_PATH)
gen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gen)

# every primitive vector of max-norm <= 3, per ambient dimension
DIRECTIONS = {
    dim: [v for v in itertools.product(range(-3, 4), repeat=dim) if any(v) and primitive(v) == v]
    for dim in (2, 3)
}


def random_tree(rng: random.Random, dim: int, max_vertices: int) -> TropicalCurve:
    """Balanced trivalent tree with 1 to ``max_vertices`` vertices (``gen.tree``)."""
    return TropicalCurve.build(
        *gen.tree(rng, dim, rng.randint(1, max_vertices), DIRECTIONS[dim])
    )


def translated(c: TropicalCurve, offset: Sequence) -> TropicalCurve:
    off = as_ratvec(offset)
    vs = {v: tuple(a + b for a, b in zip(pos, off)) for v, pos in c.vertices.items()}
    return TropicalCurve(c.ambient_dim, vs, c.edges, c.rays)


def scaled(c: TropicalCurve, factor) -> TropicalCurve:
    f = Fraction(factor)
    assert f > 0, "scaling factor must be positive"
    vs = {v: tuple(f * a for a in pos) for v, pos in c.vertices.items()}
    return TropicalCurve(c.ambient_dim, vs, c.edges, c.rays)


def point_of_curve(c: TropicalCurve) -> tuple[RatVec, DeformationCone]:
    """Coordinates of the curve inside the deformation cone of its own type:
    vertex positions in sorted-vertex order, then the lengths of the bounded
    edges.  Asserts that the point satisfies every equation exactly and that
    every length is positive (it lies in the cone's relative interior)."""
    t = combinatorial_type(c)
    cone = deformation_cone(t)
    x = tuple(a for v in t.vertices for a in c.position(v))
    x += tuple(edge_data(c, e.id)[1] for e in t.edges)
    assert all(dot(row, x) == 0 for row in cone.equations), "violates its own type equations"
    assert all(a > 0 for a in length_coords(x, cone)), "nonpositive edge length"
    return x, cone


def length_coords(x: RatVec, cone: DeformationCone) -> list[Fraction]:
    """The entries of ``x`` at the cone's edge-length coordinates."""
    return [a for a, label in zip(x, cone.coordinates) if label.startswith("len:")]


# ---------------------------------------------------------------------------
# reference subdivision: the two-loop walker over every cone's facet normals


def _crossing_params(f: Fan, base: RatVec, direction: Sequence) -> list[Fraction]:
    """Parameters t > 0 where base + t*direction meets a wall or span hyperplane of some cone."""
    params: set[Fraction] = set()
    for cone in f.cones:
        h = cone_halfspaces(cone)
        for normal in h.equations + h.inequalities:
            a = dot(normal, direction)
            if a == 0:
                continue  # parallel to, or contained in, the hyperplane
            t = Fraction(-dot(normal, base), a)
            if t > 0:
                params.add(t)
    return sorted(params)


def _cleared(p: Sequence) -> list[int]:
    """``p`` times the lcm of its denominators: a point on the same ray."""
    p = as_ratvec(p)
    m = lcm(*(x.denominator for x in p))
    return [int(x * m) for x in p]


def relint_contains(c: Cone, p: Sequence) -> bool:
    """Whether the rational point ``p`` satisfies every span equation of ``c``
    and every facet inequality strictly (the relative-interior mode that
    ``cone_contains`` had)."""
    return _relint_contains_cleared(c, _cleared(p))


def _relint_contains_cleared(c: Cone, q: list[int]) -> bool:
    h = cone_halfspaces(c)
    return (not any(sum(map(mul, e, q)) for e in h.equations)
            and all(sum(map(mul, n, q)) > 0 for n in h.inequalities))


def reference_locate(f: Fan, p: Sequence) -> Cone:
    """The first cone of ``f.cones`` whose relative interior holds ``p``, by a
    scan over every cone (no memo)."""
    q = _cleared(p)
    for c in f.cones:
        if _relint_contains_cleared(c, q):
            return c
    raise NotInSupport(f"point {tuple(p)} is not in the support of the fan")


def signs(values: Iterable) -> tuple[int, ...]:
    return tuple((v > 0) - (v < 0) for v in values)


def point_signs(f: Fan, p: Sequence) -> tuple[int, ...]:
    """The sign vector of a rational point against ``f.hyperplanes``, by Fraction dot products."""
    return signs(dot(n, p) for n in f.hyperplanes)


def as_signs(key: tuple[int, int], size: int) -> tuple[int, ...]:
    """The sign vector (positive bits, negative bits) as a tuple of ``size`` signs."""
    pos, neg = key
    return tuple((pos >> j & 1) - (neg >> j & 1) for j in range(size))


def sign_patterns(f: Fan) -> list[tuple[tuple[int, int], ...]]:
    """Per cone, its span equations and facet normals as (index into
    ``f.hyperplanes``, sign) pairs: sign 0 for an equation, and for a normal
    the sign that orients its hyperplane as the normal.  Point location
    scanned these patterns before sign vectors became bit masks."""
    index = {n: j for j, n in enumerate(f.hyperplanes)}

    def oriented(n: IntVec) -> tuple[int, int]:
        n = primitive(n)
        sign = 1 if next(x for x in n if x) > 0 else -1
        return index[tuple(sign * x for x in n)], sign

    return [tuple([(oriented(e)[0], 0) for e in h.equations]
                  + [oriented(n) for n in h.inequalities]) for h in map(cone_halfspaces, f.cones)]


def in_interior(pattern: Sequence[tuple[int, int]], s: Sequence[int]) -> bool:
    """Whether sign vector ``s`` is in the relative interior of the cone of ``pattern``."""
    return all(s[j] == sign for j, sign in pattern)


def in_closure(pattern: Sequence[tuple[int, int]], s: Sequence[int]) -> bool:
    """Whether sign vector ``s`` is in the closed cone of ``pattern``."""
    return all(not s[j] or s[j] == sign for j, sign in pattern)


def reference_cell(f: Fan, key: tuple[int, int], patterns=None) -> tuple[int | None, int]:
    """The cell of sign vector ``key`` by a scan of every cone's pattern
    (``sign_patterns``, or ``patterns`` if given): the first cone whose relative
    interior holds it, None if none does, and the bitset of the closed cones
    that hold it."""
    s = as_signs(key, len(f.hyperplanes))
    patterns = patterns or sign_patterns(f)
    inside = [i for i, pattern in enumerate(patterns) if in_interior(pattern, s)]
    closed = sum(1 << i for i, pattern in enumerate(patterns) if in_closure(pattern, s))
    return (inside[0] if inside else None), closed


def check_cells(f: Fan) -> int:
    """Assert that every cell of ``f``'s memo (``Fan._located``) is the
    ``reference_cell`` of its sign vector; the number of cells."""
    patterns = sign_patterns(f)
    for key, cell in f._located.items():
        assert cell == reference_cell(f, key, patterns), (key, cell)
    return len(f._located)


def count_cell_reads(f: Fan) -> list:
    """Make ``f`` record in the returned list each read of its cone bitsets
    (``Fan._cells``), which point location makes on a miss of its cell memo."""
    reads = []

    class Counted(tuple):
        def __getitem__(self, j):
            reads.append(j)
            return super().__getitem__(j)

    hyperplanes, allowed = f._cells
    f.__dict__["_cells"] = hyperplanes, {s: Counted(bits) for s, bits in allowed.items()}
    return reads


def reference_check_piece(f: Fan, cone_index: int, points, direction, piece_id: str):
    """The point-based piece check that the sign-pattern one replaced: the
    endpoints, and a ray's direction, lie in the closed cone."""
    cone = f.cones[cone_index]
    for p in points:
        if not cone_contains(cone, p):
            raise NotInSupport(f"piece {piece_id}: point {tuple(p)} escapes {cone.generators}")
    if direction is not None and not cone_contains(cone, direction):
        raise NotInSupport(f"piece {piece_id}: unbounded direction {direction} leaves the cone")


def _interval_cone(f: Fan, base: RatVec, direction: Sequence, t: Fraction) -> int:
    point = tuple(b + t * d for b, d in zip(base, direction))
    return f.cones.index(reference_locate(f, point))


def _point_at(base: RatVec, direction: Sequence, t: Fraction) -> RatVec:
    return tuple(b + t * d for b, d in zip(base, direction))


def reference_subdivide(c: TropicalCurve, f: Fan) -> SubdivisionRecord:
    """Insert 2-valent vertices where edges or rays of the curve cross cone walls of the fan.

    Crossing parameters are found exactly by intersecting each edge or ray
    with every facet and span hyperplane of the fan's cones; spurious
    candidates (hyperplane extensions crossing the interior of another cone)
    are discarded by merging consecutive pieces that land in the same cone of
    the fan.  Every output piece is verified to lie in a single cone; weights
    are inherited, and balancing, genus, support, and the recession fan are
    preserved.  The fan must be complete (trusted); a traversed point outside
    its support raises NotInSupport.
    """
    require_valid(c)
    if c.ambient_dim != f.ambient_dim:
        raise DimMismatch(
            f"curve in dim {c.ambient_dim} against fan in dim {f.ambient_dim}"
        )

    vertices = dict(c.vertices)
    new_edges: list[BoundedEdge] = []
    new_rays: list[CurveRay] = []
    record: list[NewVertex] = []
    piece_cones: dict[str, int] = {}

    for e in sorted(c.edges, key=lambda e: e.id):
        pu = c.position(e.ends[0])
        pw = c.position(e.ends[1])
        direction = tuple(b - a for a, b in zip(pu, pw))
        cuts = [t for t in _crossing_params(f, pu, direction) if t < 1]
        # cone of each open piece between consecutive candidate parameters
        bounds = [Fraction(0)] + cuts + [Fraction(1)]
        cones = [
            _interval_cone(f, pu, direction, (lo + hi) / 2)
            for lo, hi in zip(bounds, bounds[1:])
        ]
        breaks = [t for t, c1, c2 in zip(cuts, cones, cones[1:]) if c1 != c2]
        piece_cone_ids = [c1 for c1, c2 in zip(cones, cones[1:]) if c1 != c2] + [cones[-1]]
        if not breaks:
            new_edges.append(e)
            piece_cones[e.id] = cones[0]
            reference_check_piece(f, cones[0], [pu, pw], None, e.id)
            continue
        chain = [e.ends[0]]
        for k, t in enumerate(breaks, start=1):
            vid = f"{e.id}#{k}"
            vertices[vid] = _point_at(pu, direction, t)
            chain.append(vid)
            record.append(
                NewVertex(
                    id=vid,
                    host=e.id,
                    host_kind="edge",
                    cone_before=piece_cone_ids[k - 1],
                    cone_after=piece_cone_ids[k],
                )
            )
        chain.append(e.ends[1])
        for k in range(len(chain) - 1):
            pid = f"{e.id}:{k}"
            new_edges.append(BoundedEdge(pid, (chain[k], chain[k + 1]), e.weight))
            piece_cones[pid] = piece_cone_ids[k]
            reference_check_piece(
                f, piece_cone_ids[k], [vertices[chain[k]], vertices[chain[k + 1]]], None, pid
            )

    for r in sorted(c.rays, key=lambda r: r.id):
        pb = c.position(r.base)
        cuts = _crossing_params(f, pb, r.direction)
        bounds = [Fraction(0)] + cuts
        cones = [
            _interval_cone(f, pb, r.direction, (lo + hi) / 2)
            for lo, hi in zip(bounds, bounds[1:])
        ]
        # representative point past the last candidate for the unbounded tail
        tail_cone = _interval_cone(f, pb, r.direction, (cuts[-1] if cuts else Fraction(0)) + 1)
        cones.append(tail_cone)
        breaks = [t for t, c1, c2 in zip(cuts, cones, cones[1:]) if c1 != c2]
        piece_cone_ids = [c1 for c1, c2 in zip(cones, cones[1:]) if c1 != c2] + [cones[-1]]
        if not breaks:
            new_rays.append(r)
            piece_cones[r.id] = tail_cone
            reference_check_piece(f, tail_cone, [pb], r.direction, r.id)
            continue
        chain = [r.base]
        for k, t in enumerate(breaks, start=1):
            vid = f"{r.id}#{k}"
            vertices[vid] = _point_at(pb, r.direction, t)
            chain.append(vid)
            record.append(
                NewVertex(
                    id=vid,
                    host=r.id,
                    host_kind="ray",
                    cone_before=piece_cone_ids[k - 1],
                    cone_after=piece_cone_ids[k],
                )
            )
        for k in range(len(chain) - 1):
            pid = f"{r.id}:{k}"
            new_edges.append(BoundedEdge(pid, (chain[k], chain[k + 1]), r.weight))
            piece_cones[pid] = piece_cone_ids[k]
            reference_check_piece(
                f, piece_cone_ids[k], [vertices[chain[k]], vertices[chain[k + 1]]], None, pid
            )
        tail_id = f"{r.id}:{len(chain) - 1}"
        new_rays.append(CurveRay(tail_id, chain[-1], r.direction, r.weight))
        piece_cones[tail_id] = piece_cone_ids[-1]
        reference_check_piece(f, piece_cone_ids[-1], [vertices[chain[-1]]], r.direction, tail_id)

    out = TropicalCurve(c.ambient_dim, vertices, tuple(new_edges), tuple(new_rays))
    return SubdivisionRecord(output=out, new_vertices=tuple(record), piece_cones=piece_cones)


def packed_certificate(c: TropicalCurve, f: Fan, rescale: bool = True) -> RealizationCertificate:
    """The certificate that ``certify`` would pack if ``c`` were its own
    subdivision, so a piece may run through several cones of ``f``, and with
    ``rescale`` False its own rescaled curve at N = 1, so a k may be no
    integer: every field is ``_derive``'s of the curve."""
    hat, n = rescale_integral(c) if rescale else (c, 1)
    nodes, _, cones = _derive(hat, f)
    return RealizationCertificate(hat, n, f, dict(cones), tuple(nodes.values()))


@contextlib.contextmanager
def handed_states():
    """Within the block, each (curve, fan, state) that certify hands
    ``degeneration._derive``, recorded in order."""
    real, handed = degeneration._derive, []

    def recording(hat, fan, state=None):
        if state is not None:
            handed.append((hat, fan, state))
        return real(hat, fan, state)

    with mock.patch.object(degeneration, "_derive", recording):
        yield handed


# The double description with nested closures that preceded the single
# loop; kept verbatim as an oracle.
def reference_double_description(
    equations: Sequence[IntVec],
    inequalities: Sequence[IntVec],
    ambient_dim: int,
) -> tuple[tuple[IntVec, ...], tuple[IntVec, ...]]:
    """Extreme rays of {x : e.x = 0, a.x >= 0} by the incremental double description method.

    Returns (lineality_basis, rays); the cone is span(lineality) + cone(rays)
    and the rays are extreme modulo lineality.  Adjacency is decided by the
    standard combinatorial test on sets of tight constraints.
    """
    lineality: list[IntVec] = [
        tuple(1 if j == i else 0 for j in range(ambient_dim)) for i in range(ambient_dim)
    ]
    rays: list[IntVec] = []
    tight: list[set[int]] = []  # per ray, indices of processed constraints at 0
    processed = 0

    def reduce_lineality(a: IntVec, keep_pivot_as_ray: bool):
        nonlocal lineality, rays, tight
        vals = [dot(a, b) for b in lineality]
        pivot = next((i for i, v in enumerate(vals) if v != 0), None)
        if pivot is None:
            return False
        b0, v0 = lineality[pivot], vals[pivot]
        if v0 < 0:
            b0 = tuple(-c for c in b0)
            v0 = -v0
        new_lin = []
        for i, b in enumerate(lineality):
            if i == pivot:
                continue
            vb = vals[i]
            new_lin.append(primitive(tuple(v0 * x - vb * y for x, y in zip(b, b0))))
        lineality = new_lin
        fixed_rays = []
        for r in rays:
            vr = dot(a, r)
            fixed_rays.append(primitive(tuple(v0 * x - vr * y for x, y in zip(r, b0))))
        rays = fixed_rays
        for t in tight:
            t.add(processed)  # adjusted rays are tight on a
        if keep_pivot_as_ray:
            rays.append(b0)
            tight.append(set(range(processed)))  # b0 was lineality: tight on all prior
        return True

    def cut_rays(a: IntVec, keep_positive: bool):
        nonlocal rays, tight
        vals = [dot(a, r) for r in rays]
        pos = [i for i, v in enumerate(vals) if v > 0]
        zero = [i for i, v in enumerate(vals) if v == 0]
        neg = [i for i, v in enumerate(vals) if v < 0]
        new_rays: list[IntVec] = []
        new_tight: list[set[int]] = []
        if keep_positive:
            for i in pos:
                new_rays.append(rays[i])
                new_tight.append(set(tight[i]))
        for i in zero:
            new_rays.append(rays[i])
            new_tight.append(tight[i] | {processed})
        for i, j in itertools.product(pos, neg):
            common = tight[i] & tight[j]
            adjacent = not any(
                k != i and k != j and common <= tight[k] for k in range(len(rays))
            )
            if not adjacent:
                continue
            combo = tuple(vals[i] * y - vals[j] * x for x, y in zip(rays[i], rays[j]))
            new_rays.append(primitive(combo))
            new_tight.append(common | {processed})
        rays = new_rays
        tight = new_tight

    for a, inequality in [(e, False) for e in equations] + [(a, True) for a in inequalities]:
        a = tuple(int(c) for c in a)
        if any(a) and not reduce_lineality(a, keep_pivot_as_ray=inequality):
            cut_rays(a, keep_positive=inequality)
        processed += 1
    return tuple(sorted(lineality)), tuple(sorted(rays))


def cone_faces(c: Cone) -> list[Cone]:
    """All faces of the cone, each generated by the stored generators lying on it."""
    seen: dict[frozenset, Cone] = {}

    def visit(gens: tuple[IntVec, ...]):
        key = frozenset(gens)
        if key in seen:
            return
        face = Cone(tuple(sorted(set(gens))), c.ambient_dim)
        seen[key] = face
        for normal in cone_halfspaces(face).inequalities:
            sub = tuple(g for g in gens if dot(normal, g) == 0)
            visit(sub)

    visit(c.generators)
    return sorted(seen.values(), key=lambda f: (len(f.generators), f.generators))


# The face test by tight facet normals that fan_validate used before it read
# the faces of a cone from its facet keys; kept as an oracle, with equality
# by mutual containment.
def cones_equal(c1: Cone, c2: Cone) -> bool:
    """Equality as point sets, lines allowed: each cone holds the other's generators."""
    return c1.ambient_dim == c2.ambient_dim and all(
        cone_contains(b, g) for a, b in ((c1, c2), (c2, c1)) for g in a.generators)


def is_face_of(face: Cone, c: Cone) -> bool:
    """Whether ``face`` equals the face of ``c`` cut out by its tight facet normals."""
    if face.ambient_dim != c.ambient_dim:
        raise DimMismatch("face test across ambient dimensions")
    if not all(cone_contains(c, g) for g in face.generators):
        return False
    h = cone_halfspaces(c)
    tight = [n for n in h.inequalities if all(dot(n, g) == 0 for g in face.generators)]
    cut = tuple(g for g in c.generators if all(dot(n, g) == 0 for n in tight))
    return cones_equal(face, Cone(cut, c.ambient_dim))


def holds_line(c: Cone) -> bool:
    """Whether the cone contains a line: its lineality space, the kernel of its
    stacked equations and facet normals, has dimension n - their rank > 0."""
    h = cone_halfspaces(c)
    return rank_by_transpose(h.equations + h.inequalities) < c.ambient_dim


def reference_intersection(c1: Cone, c2: Cone) -> Cone:
    """The intersection of two pointed cones, generated by the extreme rays of
    their joint H-description (``reference_double_description``)."""
    h1, h2 = cone_halfspaces(c1), cone_halfspaces(c2)
    lin, rays = reference_double_description(
        h1.equations + h2.equations, h1.inequalities + h2.inequalities, c1.ambient_dim)
    assert not lin, (c1, c2)
    return Cone.from_rays(rays, c1.ambient_dim)


def reference_fan_validate(f: Fan) -> ValidationReport:
    """Check that no cone holds a line (``holds_line``), face closure and that
    pairwise intersections are common faces.

    Stops at the first violation.  Always checks the fan it is given; whether
    a trusted fan is checked at all is the caller's decision.
    """
    report = ValidationReport([])
    for c in f.cones:
        if c.ambient_dim != f.ambient_dim:
            report.add("DimMismatch", f"cone {c.generators} has ambient dim {c.ambient_dim}")
            return report
    for c in f.cones:
        if holds_line(c):
            report.add("NotStronglyConvex", f"cone {c.generators} contains a line")
            return report
    present = {canonical_form(c) for c in f.cones}
    for c in f.cones:
        for face in cone_faces(c):
            if canonical_form(face) not in present:
                report.add(
                    "FaceClosureViolated",
                    f"face {face.generators} of cone {c.generators} is not in the fan",
                )
                return report
    for c1, c2 in itertools.combinations(f.cones, 2):
        inter = reference_intersection(c1, c2)
        if not (is_face_of(inter, c1) and is_face_of(inter, c2)):
            report.add(
                "NonFaceIntersection",
                f"cones {c1.generators} and {c2.generators} meet in {inter.generators}, "
                "which is not a common face",
            )
            return report
    return report


# The verifier that re-derived each field by hand, before certify and
# verify_certificate shared one derivation; kept as an oracle, on the five
# fields of the certificate, with the multiplier read by its definition.
def reference_verify(cert: RealizationCertificate) -> CertificateCheck:
    """Re-derive every certificate field from the rescaled curve and fan and compare;
    check that N is a positive int, the lcm of the denominators of the certified
    curve's length/weights (the rescaled curve's over N); and check that the curve
    maps into the fan cone by cone (PieceNotInCone) with every ray direction a ray of
    the fan (RecessionNotSupported)."""
    violations: list[str] = []
    hat = cert.rescaled_curve
    n = cert.multiplier

    report = is_balanced(hat)
    if not report.balanced:
        violations.append("Unbalanced: rescaled curve fails balancing")
    ratios = [edge_data(hat, e.id)[1] / e.weight for e in hat.edges]
    if not (type(n) is int and n >= 1):
        violations.append("MultiplierNotPositive: the multiplier must be a positive int")
    elif all(r.denominator == 1 for r in ratios) and (
            lcm(*[(r / n).denominator for r in ratios]) != n):
        violations.append("MultiplierNotLeast: N is not the lcm of the denominators")

    by_edge = {nd.edge: nd for nd in cert.node_data}
    if sorted(by_edge) != sorted(e.id for e in hat.edges):
        violations.append("NodeDataMismatch: node data edges differ from curve edges")
    for e in hat.edges:
        nd = by_edge.get(e.id)
        if nd is None:
            continue
        _, length = edge_data(hat, e.id)
        if nd.rho != e.weight:
            violations.append(f"WeightMismatch: edge {e.id} rho {nd.rho} != weight {e.weight}")
        if Fraction(nd.k) * e.weight != length:
            violations.append(f"NodeRatioMismatch: edge {e.id} k*weight != length")
        p1, p2 = hat.position(e.ends[0]), hat.position(e.ends[1])
        if tuple(nd.rho * x for x in nd.u_q) != tuple(a - b for a, b in zip(p1, p2)):
            violations.append(f"NodeSlopeMismatch: edge {e.id} rho*u_q != v1 - v2")

    for v, idx in cert.vertex_cones.items():
        if v not in hat.vertices:
            violations.append(f"VertexConeMismatch: unknown vertex {v}")
            continue
        actual = reference_locate(cert.fan, hat.position(v))
        if cert.fan.cones.index(actual) != idx:
            violations.append(f"VertexConeMismatch: vertex {v} is interior to a different cone")
    if sorted(cert.vertex_cones) != sorted(hat.vertices):
        violations.append("VertexConeMismatch: cone assignment keys differ from vertices")

    # the map to the fan is cone by cone: each piece's closure lies in the
    # cone whose relative interior holds an interior point of the piece
    for piece in hat.edges + hat.rays:
        if isinstance(piece, BoundedEdge):
            ends, direction = [hat.position(v) for v in piece.ends], None
            inner = tuple(Fraction(a + b, 2) for a, b in zip(*ends))  # ints on a rescaled curve
        else:
            ends, direction = [hat.position(piece.base)], piece.direction
            inner = tuple(a + d for a, d in zip(ends[0], direction))
        try:
            cone = cert.fan.cones.index(reference_locate(cert.fan, inner))
            reference_check_piece(cert.fan, cone, ends, direction, piece.id)
        except NotInSupport:
            violations.append(f"PieceNotInCone: {piece.id}")
    for rid, d in check_recession_support(hat, cert.fan).missing:
        violations.append(f"RecessionNotSupported: ray {rid} direction {d} is no ray of the fan")

    return CertificateCheck(ok=not violations, violations=tuple(violations))

"""Genus-1 well-spacedness: the known combinatorial obstruction to realizing
superabundant genus-1 curves.

The unique cycle is what is left once degree-1 vertices are peeled off
until none remains.  Its affine span, whose codimension is the excess
``defspace.superabundance`` counts, is cut out by ``normals``, a primitive
integer basis of the vectors orthogonal to its edge directions: a point
lies in the span iff every normal vanishes on its offset from the cycle,
and a ray stays in it iff every normal vanishes on its direction.  Off
the cycle a genus-1 graph is a forest, so each vertex has one path to the
cycle, and no shortest-path search is needed: a walk over the incidence
from the cycle's vertices (distance 0) into in-span vertices not yet
reached covers the span's connected subgraph through the cycle.  Each
vertex it reaches with an edge or ray leaving the span is a departure, at
its lattice distance from the cycle.  Both tests read the curve's integer
image m p (``TropicalCurve._image``), and the walk sums integers m * length,
so each distance d/m is the one Fraction built.  The curve is well-spaced when
there are no departures or when the minimum distance is attained at least
twice.  Only the exact affine span of the cycle is tested, not every
subspace containing it; this suffices for the catalogued failure modes and
is recorded as a limitation.
"""

from fractions import Fraction
from operator import mul
from typing import NamedTuple

from .curves import TropicalCurve, genus
from .errors import GenusNotOne
from .latticefan import IntVec, RatVec, double_description


class CycleData(NamedTuple):
    """The unique cycle of a genus-1 curve and the affine span of its support."""

    vertices: tuple[str, ...]  # in cyclic walk order, starting at the smallest id
    edges: tuple[str, ...]
    base_point: RatVec
    normals: tuple[IntVec, ...]  # basis of the vectors orthogonal to the span

    @property
    def codim(self) -> int:
        return len(self.normals)


class Departure(NamedTuple):
    vertex: str
    distance: Fraction


class WellSpacedVerdict(NamedTuple):
    well_spaced: bool
    span_codim: int
    departures: tuple[Departure, ...]


def cycle(c: TropicalCurve) -> CycleData:
    """The unique cycle, walked from its smallest vertex id along the
    smaller-id cycle edge there; requires genus exactly 1."""
    g = genus(c)
    if g != 1:
        raise GenusNotOne(f"genus is {g}, not 1")
    # peel degree-1 vertices until none is left: what stays is the cycle
    degree = {v: len(c.edges_at(v)) for v in c.vertices}
    leaves = [v for v, k in degree.items() if k == 1]
    for v in leaves:  # the list grows as it is read
        degree[v] = 0
        for e in c.edges_at(v):
            w = e.ends[e.ends[0] == v]
            if degree[w]:
                degree[w] -= 1
                if degree[w] == 1:
                    leaves.append(w)
    start = current = min(v for v, k in degree.items() if k)
    walk, steps = [start], []
    while True:
        steps.append(next(e for e in c.edges_at(current)
                          if degree[e.ends[0]] and degree[e.ends[1]] and e not in steps[-1:]))
        current = steps[-1].ends[steps[-1].ends[0] == current]
        if current == start:
            break
        walk.append(current)
    directions = [c._edge_data[e.id][0] for e in steps]
    normals, _ = double_description(directions, (), c.ambient_dim)
    return CycleData(tuple(walk), tuple(e.id for e in steps), c.position(start), normals)


def well_spaced(c: TropicalCurve) -> WellSpacedVerdict:
    """Genus-1 well-spacedness verdict with the departure vertices as witnesses.

    Vacuously well-spaced when the cycle spans the whole ambient space.
    Distances are lattice lengths of the paths to the cycle, within the
    in-span subgraph through the cycle; a departure sitting on the cycle has
    distance 0.
    """
    data = cycle(c)
    if data.codim == 0:
        return WellSpacedVerdict(well_spaced=True, span_codim=0, departures=())

    normals = data.normals
    m, image = c._image
    # every normal vanishes on p - base iff it takes the same value on m p as on m base
    level = [sum(map(mul, u, image[data.vertices[0]])) for u in normals]
    inside = {v for v, q in image.items() if [sum(map(mul, u, q)) for u in normals] == level}
    # each vertex's one path from the cycle, through in-span vertices, in units of 1/m
    dist, stack = dict.fromkeys(data.vertices, 0), list(data.vertices)
    while stack:
        v = stack.pop()
        for e in c.edges_at(v):
            w = e.ends[e.ends[0] == v]
            if w in inside and w not in dist:
                dist[w] = dist[v] + c._edge_data[e.id][1]  # m * lattice length
                stack.append(w)

    departures = tuple(
        Departure(vertex=v, distance=Fraction(dist[v], m))
        for v in sorted(dist)
        if any(w not in inside for e in c.edges_at(v) for w in e.ends)
        or any(sum(map(mul, u, r.direction)) for r in c.rays_at(v) for u in normals)
    )
    # well-spaced: no departure, or the smallest distance attained twice
    nearest = sorted(d.distance for d in departures)[:2]
    return WellSpacedVerdict(
        well_spaced=nearest[:1] == nearest[1:],
        span_codim=data.codim,
        departures=departures,
    )

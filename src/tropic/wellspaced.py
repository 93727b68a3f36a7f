"""Genus-1 well-spacedness: the known combinatorial obstruction to realizing
superabundant genus-1 curves.

The check implemented here uses the affine span of the unique cycle: collect
the connected subgraph through the cycle that stays inside that span, find
every vertex of it incident to an edge or ray leaving the span, and measure
each one's lattice distance to the cycle inside the subgraph.  The curve is
well-spaced when there are no such departure vertices or when the minimum
distance is attained at least twice.  Only the exact affine span of the
cycle is tested, not every subspace containing it; this suffices for the
catalogued failure modes and is recorded as a limitation.
"""

import heapq
from fractions import Fraction
from typing import NamedTuple

from .curves import TropicalCurve, edge_data, genus
from .errors import GenusNotOne
from .latticefan import IntVec, RatVec, rank


class CycleData(NamedTuple):
    """The unique cycle of a genus-1 curve and the affine span of its support."""

    vertices: tuple[str, ...]  # in cyclic walk order, starting at the smallest id
    edges: tuple[str, ...]
    base_point: RatVec
    span_directions: tuple[IntVec, ...]  # basis of the direction space
    codim: int


class Departure(NamedTuple):
    vertex: str
    distance: Fraction


class WellSpacedVerdict(NamedTuple):
    well_spaced: bool
    span_codim: int
    departures: tuple[Departure, ...]


def cycle(c: TropicalCurve) -> CycleData:
    """Locate the unique cycle by peeling leaves; requires genus exactly 1."""
    g = genus(c)
    if g != 1:
        raise GenusNotOne(f"genus is {g}, not 1")
    # peel leaves: the edges left alive form the cycle
    alive = {e.id for e in c.edges}
    degree = {v: len(c.edges_at(v)) for v in c.vertices}
    leaves = [v for v, d in degree.items() if d == 1]
    while leaves:
        for e in c.edges_at(leaves.pop()):
            if e.id in alive:
                alive.remove(e.id)
                for u in e.ends:
                    degree[u] -= 1
                    if degree[u] == 1:
                        leaves.append(u)
    start = min(v for v, d in degree.items() if d > 0)
    walk = [start]
    walk_edges: list[str] = []
    current = start
    while True:
        # edges_at lists edges in id order: take the smallest unwalked cycle edge
        nxt = next((e for e in c.edges_at(current) if e.id in alive), None)
        if nxt is None:
            break
        alive.remove(nxt.id)
        walk_edges.append(nxt.id)
        current = nxt.ends[1] if nxt.ends[0] == current else nxt.ends[0]
        if current == start:
            break
        walk.append(current)
    base = c.position(start)
    directions = [edge_data(c, eid)[0] for eid in walk_edges]
    basis = _row_space_basis(directions)
    return CycleData(
        vertices=tuple(walk),
        edges=tuple(walk_edges),
        base_point=base,
        span_directions=basis,
        codim=c.ambient_dim - len(basis),
    )


def _row_space_basis(rows: list[IntVec]) -> tuple[IntVec, ...]:
    basis: list[IntVec] = []
    for row in rows:
        if rank(basis + [row]) > len(basis):
            basis.append(row)
    return tuple(basis)


def _in_direction_space(span: tuple[IntVec, ...], v) -> bool:
    return rank(list(span) + [tuple(Fraction(x) for x in v)]) == len(span)


def well_spaced(c: TropicalCurve) -> WellSpacedVerdict:
    """Genus-1 well-spacedness verdict with the departure vertices as witnesses.

    Vacuously well-spaced when the cycle spans the whole ambient space.
    Distances are lattice lengths of shortest paths, within the in-span
    subgraph through the cycle; a departure sitting on the cycle has
    distance 0.
    """
    data = cycle(c)
    if data.codim == 0:
        return WellSpacedVerdict(well_spaced=True, span_codim=0, departures=())

    span = data.span_directions
    base = data.base_point

    def in_span(point: RatVec) -> bool:
        return _in_direction_space(span, tuple(p - b for p, b in zip(point, base)))

    vertices_in = {v for v in c.vertices if in_span(c.position(v))}
    edges_in = [
        e for e in c.edges if e.ends[0] in vertices_in and e.ends[1] in vertices_in
    ]
    # connected component of the cycle inside the in-span subgraph
    adj: dict[str, list[tuple[str, Fraction]]] = {v: [] for v in vertices_in}
    for e in edges_in:
        _, length = edge_data(c, e.id)
        adj[e.ends[0]].append((e.ends[1], length))
        adj[e.ends[1]].append((e.ends[0], length))
    component: set[str] = set(data.vertices)
    stack = list(data.vertices)
    while stack:
        for w, _ in adj[stack.pop()]:
            if w not in component:
                component.add(w)
                stack.append(w)

    # multi-source shortest lattice distance from the cycle
    dist: dict[str, Fraction] = {v: Fraction(0) for v in data.vertices}
    heap = [(Fraction(0), v) for v in sorted(data.vertices)]
    heapq.heapify(heap)
    while heap:
        d, v = heapq.heappop(heap)
        if d > dist[v]:
            continue
        for w, length in adj[v]:
            nd = d + length
            if w not in dist or nd < dist[w]:
                dist[w] = nd
                heapq.heappush(heap, (nd, w))

    departures: list[Departure] = []
    for v in sorted(component):
        leaves = any(
            w not in vertices_in for e in c.edges_at(v) for w in e.ends
        ) or any(not _in_direction_space(span, r.direction) for r in c.rays_at(v))
        if leaves:
            departures.append(Departure(vertex=v, distance=dist[v]))

    if not departures:
        return WellSpacedVerdict(True, data.codim, ())
    minimum = min(d.distance for d in departures)
    count = sum(1 for d in departures if d.distance == minimum)
    return WellSpacedVerdict(
        well_spaced=count >= 2,
        span_codim=data.codim,
        departures=tuple(departures),
    )

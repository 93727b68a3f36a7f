"""Shared test utilities: independent oracles and random curve generators.

The oracles here deliberately avoid the library code paths they are used to
check: monoid membership by brute-force closure, cone membership by
Caratheodory subset enumeration, rank by transposed elimination, and the
deformation dimension by dense Fraction elimination of the full edge
equations instead of the integer rank of the cycle-closing matrix.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from math import gcd

from tropic.curves import TropicalCurve
from tropic.defspace import CombinatorialType, deformation_cone
from tropic.errors import DimMismatch
from tropic.latticefan import (
    Cone,
    Fan,
    _echelon,
    fan_from_maximal,
    primitive,
    rank,
    solve_exact,
)


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
    """A fan of 51 cones marked trusted, in which the added cone {(1,0),(1,2)}
    overlaps {(1,0),(1,1)} and {(1,1),(1,2)}."""
    fan = fan_from_maximal([(1, i) for i in range(25)], [[i, i + 1] for i in range(24)], 2)
    return Fan.build(fan.cones + (Cone.from_rays([(1, 0), (1, 2)], 2),), 2, trusted_complete=True)


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
    return n - len(_echelon(rows)[1])


def dense_deformation_dimension(t: CombinatorialType) -> int:
    """Kernel dimension of the (n*E) x (n*V + E) edge equations of the deformation cone."""
    cone = deformation_cone(t)
    return kernel_dimension(cone.equations, len(cone.coordinates))


def honeycomb(d: int, dim: int = 2) -> TropicalCurve:
    """Degree-d honeycomb plane curve, placed in z = 0 when ``dim`` is 3.

    It is dual to the unimodular triangulation of the d-simplex induced by
    the lifting q(i, j) = i^2 + ij + j^2 (min convention): the vertex dual to
    an up triangle (i,j),(i+1,j),(i,j+1) is -(2i+j+1, i+2j+1), the one dual
    to the down triangle above it is -(2i+j+2, i+2j+2).  It has d^2 vertices,
    3d(d-1)/2 unit edges, 3d unit rays and genus (d-1)(d-2)/2.
    """
    pad = (0,) * (dim - 2)
    vertices, edges, rays = {}, [], []
    for i in range(d):
        for j in range(d - i):
            up = f"u{i}_{j}"
            vertices[up] = (-(2 * i + j + 1), -(i + 2 * j + 1)) + pad
            if j == 0:
                rays.append((f"r{up}y", up, (0, 1) + pad, 1))
            if i == 0:
                rays.append((f"r{up}x", up, (1, 0) + pad, 1))
            if i + j == d - 1:
                rays.append((f"r{up}z", up, (-1, -1) + pad, 1))
    for i in range(d - 1):
        for j in range(d - 1 - i):
            down = f"d{i}_{j}"
            vertices[down] = (-(2 * i + j + 2), -(i + 2 * j + 2)) + pad
            for k, up in enumerate((f"u{i}_{j}", f"u{i + 1}_{j}", f"u{i}_{j + 1}")):
                edges.append((f"e{down}_{k}", (up, down), 1))
    return TropicalCurve.build(dim, vertices, edges, rays)


def content(v) -> int:
    g = 0
    for x in v:
        g = gcd(g, abs(x))
    return g


def random_primitive(rng: random.Random, dim: int):
    while True:
        v = tuple(rng.randint(-3, 3) for _ in range(dim))
        if any(v):
            return primitive(v)


def random_balanced_trivalent_tree(
    rng: random.Random, dim: int, max_vertices: int = 6
) -> TropicalCurve:
    """Balanced genus-0 curve, every vertex trivalent, grown ray by ray."""
    while True:
        d1 = random_primitive(rng, dim)
        d2 = random_primitive(rng, dim)
        s = tuple(-(a + b) for a, b in zip(d1, d2))
        if any(s):
            break
    vertices = {"v0": tuple(Fraction(0) for _ in range(dim))}
    rays = [
        ["r0", "v0", d1, 1],
        ["r1", "v0", d2, 1],
        ["r2", "v0", primitive(s), content(s)],
    ]
    edges = []
    next_ray = 3
    target = rng.randint(1, max_vertices)
    while len(vertices) < target:
        idx = rng.randrange(len(rays))
        _, base, d, w = rays.pop(idx)
        step = Fraction(rng.randint(1, 4), rng.randint(1, 3))
        new_v = f"v{len(vertices)}"
        vertices[new_v] = tuple(p + step * x for p, x in zip(vertices[base], d))
        edges.append((f"e{len(edges)}", (base, new_v), w))
        # rebalance the new vertex: edge contributes w * (-d); rays must sum to w * d
        while True:
            e1 = random_primitive(rng, dim)
            rem = tuple(w * x - y for x, y in zip(d, e1))
            if any(rem):
                break
        rays.append([f"r{next_ray}", new_v, e1, 1])
        rays.append([f"r{next_ray + 1}", new_v, primitive(rem), content(rem)])
        next_ray += 2
    return TropicalCurve.build(
        dim,
        vertices,
        edges,
        [(rid, base, d, w) for rid, base, d, w in rays],
    )

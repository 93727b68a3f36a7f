"""Seeded input generators for the benchmark.

Everything here is plain data (vertex dicts of Fractions, edge and ray
tuples, fan rays with maximal cones), in the argument order of
``TropicalCurve.build`` and ``fan_from_maximal``, so the generators do not
depend on the package under test.  The same ``random.Random`` state gives
the same inputs.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction
from math import gcd


def _content(v) -> int:
    g = 0
    for x in v:
        g = gcd(g, abs(x))
    return g


def _primitive(v) -> tuple[int, ...]:
    g = _content(v)
    return tuple(x // g for x in v)


# ---------------------------------------------------------------------------
# fans: (rays, maximal cones as ray index lists, ambient dimension)


def rich_fan_r2():
    """The 32 primitive vectors of max-norm <= 3, sorted by angle: 32 + 32 + 1 = 65 cones."""
    rays = sorted(
        (v for v in itertools.product(range(-3, 4), repeat=2) if any(v) and _content(v) == 1),
        key=lambda v: math.atan2(v[1], v[0]),
    )
    maximal = [[i, (i + 1) % len(rays)] for i in range(len(rays))]
    return rays, maximal, 2


def rich_fan_r3():
    """The 26 vectors of {-1,0,1}^3 on the barycentric subdivision of the cube's
    boundary: 26 rays, 72 walls, 48 chambers, 147 cones."""
    rays: list[tuple[int, ...]] = []
    maximal: list[list[int]] = []

    def index(v):
        if v not in rays:
            rays.append(v)
        return rays.index(v)

    for axis in range(3):
        for sign in (1, -1):
            centre = tuple(sign if k == axis else 0 for k in range(3))
            others = [k for k in range(3) if k != axis]
            for a, b in ((0, 1), (1, 0)):
                for s in (1, -1):
                    # the midpoint of one side of the face, then its two corners
                    mid = list(centre)
                    mid[others[a]] = s
                    for t in (1, -1):
                        corner = list(mid)
                        corner[others[b]] = t
                        maximal.append([index(centre), index(tuple(mid)), index(tuple(corner))])
    return rays, maximal, 3


def fan_p2():
    """The projective plane: rays (1,0), (0,1), (-1,-1); 7 cones."""
    return [(1, 0), (0, 1), (-1, -1)], [[0, 1], [1, 2], [2, 0]], 2


def fan_p2_r3():
    """P^2 x P^1: the projective-plane fan times the line through (0,0,+-1): 21 cones."""
    rays = [(1, 0, 0), (0, 1, 0), (-1, -1, 0), (0, 0, 1), (0, 0, -1)]
    maximal = [[a, b, t] for a, b in ((0, 1), (1, 2), (2, 0)) for t in (3, 4)]
    return rays, maximal, 3


# ---------------------------------------------------------------------------
# curves: (ambient_dim, vertices, edges, rays)


def _split(rng: random.Random, d, w, directions):
    """Two directions from ``directions`` with weights balancing w*d, neither parallel to d."""
    pool = set(directions)
    for d1 in rng.sample(directions, len(directions)):
        if d1 == d or d1 == tuple(-x for x in d):
            continue
        rem = tuple(w * x - y for x, y in zip(d, d1))
        if not any(rem):
            continue
        d2 = _primitive(rem)
        if d2 in pool and d2 != d and d2 != tuple(-x for x in d):
            return (d1, 1), (d2, _content(rem))
    return None


def tree(rng: random.Random, dim: int, n_vertices: int, directions):
    """Balanced trivalent tree with exactly ``n_vertices`` vertices.

    Every ray direction is drawn from ``directions`` (primitive integer
    vectors), so the tree is supported on any fan with those rays.  It grows
    by turning a random ray into an edge of random rational length and
    splitting its weighted direction into two new rays.
    """
    directions = sorted(directions)
    while True:
        d1, d2 = rng.sample(directions, 2)
        s = tuple(-(a + b) for a, b in zip(d1, d2))
        if any(s) and _primitive(s) in directions and len({d1, d2, _primitive(s)}) == 3:
            break
    origin = tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(dim))
    vertices = {"v0": origin}
    occupied = {origin}
    rays = [("r0", "v0", d1, 1), ("r1", "v0", d2, 1), ("r2", "v0", _primitive(s), _content(s))]
    edges = []
    next_ray = 3
    while len(vertices) < n_vertices:
        i = rng.randrange(len(rays))
        rid, base, d, w = rays[i]
        split = _split(rng, d, w, directions)
        step = Fraction(rng.randint(1, 4), rng.randint(1, 3))
        pos = tuple(p + step * x for p, x in zip(vertices[base], d))
        if split is None or pos in occupied:
            continue
        rays.pop(i)
        vid = f"v{len(vertices)}"
        vertices[vid] = pos
        occupied.add(pos)
        edges.append((f"e{len(edges)}", (base, vid), w))
        for direction, weight in split:
            rays.append((f"r{next_ray}", vid, direction, weight))
            next_ray += 1
    return dim, vertices, edges, rays


def _lift(i: int, j: int) -> int:
    return i * i + j * j + (i + j) ** 2


def honeycomb(d: int, dim: int, offset):
    """Degree-d plane curve dual to the unimodular triangulation of the d-simplex.

    The triangulation is induced by the strictly convex lifting
    h(i,j) = i^2 + j^2 + (i+j)^2; the curve is the corner locus of
    min(h(i,j) + i*x + j*y), with d^2 vertices, 3d(d-1)/2 bounded edges,
    3d rays in the directions (1,0), (0,1), (-1,-1), and genus
    (d-1)(d-2)/2.  It is translated by ``offset`` (two rationals) and, for
    ``dim`` 3, placed in the plane z = 0.
    """
    triangles = []
    for i in range(d):
        for j in range(d - i):
            triangles.append(((i, j), (i + 1, j), (i, j + 1)))
            if i + j <= d - 2:
                triangles.append(((i + 1, j), (i, j + 1), (i + 1, j + 1)))
    vertices = {}
    sides: dict[tuple, list[str]] = {}
    for a, b, c in triangles:
        # h(a) + a.p = h(b) + b.p = h(c) + c.p, solved by Cramer's rule
        r1, r2 = (a[0] - b[0], a[1] - b[1]), (a[0] - c[0], a[1] - c[1])
        s1, s2 = _lift(*b) - _lift(*a), _lift(*c) - _lift(*a)
        det = r1[0] * r2[1] - r1[1] * r2[0]
        x = Fraction(s1 * r2[1] - s2 * r1[1], det) + offset[0]
        y = Fraction(r1[0] * s2 - r2[0] * s1, det) + offset[1]
        vid = f"t{a[0]}_{a[1]}_{'u' if b[1] == a[1] else 'd'}"
        vertices[vid] = (x, y) + (Fraction(0),) * (dim - 2)
        for side in ((a, b), (b, c), (a, c)):
            sides.setdefault(tuple(sorted(side)), []).append(vid)
    edges, rays = [], []
    for (p, q), owners in sorted(sides.items()):
        if len(owners) == 2:
            edges.append((f"e{len(edges)}", (owners[0], owners[1]), 1))
            continue
        if p[1] == q[1] == 0:
            direction = (0, 1)
        elif p[0] == q[0] == 0:
            direction = (1, 0)
        else:
            direction = (-1, -1)
        rays.append((f"r{len(rays)}", owners[0], direction + (0,) * (dim - 2), 1))
    return dim, vertices, edges, rays

"""Exact linear algebra, primitive lattice vectors, polyhedral cones, and fans.

Points may be rational (``fractions.Fraction``); predicates and elimination scale
them to plain Python integers, so no floating point enters any predicate.  Cones are stored
by generators (V-description); facet descriptions are derived on demand with the
double description method and cached.  Intended scale is small ("desk scale"):
ambient dimension <= 6 and a few dozen generators per cone.
"""

import itertools
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd, lcm
from operator import mul
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import (
    DeskScaleExceeded,
    DimMismatch,
    NotInSupport,
    ValidationReport,
    ZeroDirection,
    _echo,
    _echo_point,
)

RatVec = tuple[Fraction, ...]
IntVec = tuple[int, ...]

# facet descriptions are only derived at desk scale
H_DESCRIPTION_MAX_DIM = 6
H_DESCRIPTION_MAX_GENERATORS = 32


# ---------------------------------------------------------------------------
# vectors


def dot(a: Sequence, b: Sequence):
    if len(a) != len(b):
        raise DimMismatch(f"dot product of lengths {len(a)} and {len(b)}")
    return sum(x * y for x, y in zip(a, b))


def primitive(v: Sequence[int]) -> IntVec:
    """Divide an integer vector by the gcd of its entries, keeping orientation."""
    w = tuple(int(c) for c in v)
    if any(c != v[i] for i, c in enumerate(w)):
        raise ValueError("primitive() expects an integer vector")
    g = gcd(*w)
    if g == 0:
        raise ZeroDirection("zero vector has no primitive direction")
    return tuple(c // g for c in w)


def integer_image(points: dict) -> tuple[int, dict]:
    """The lcm m of all coordinate denominators of ``points`` (key -> int or
    Fraction coordinates), and per key the integer vector m p, a tuple."""
    m = lcm(*(x.denominator for p in points.values() for x in p))
    return m, {k: tuple([x.numerator * (m // x.denominator) for x in p])
               for k, p in points.items()}


def integerize(v: Sequence) -> IntVec:
    """Scale a rational vector to the primitive integer vector on the same ray."""
    return primitive(_integer_row(v))


# ---------------------------------------------------------------------------
# exact integer elimination

Matrix = Sequence[Sequence]


def _integer_row(row: Sequence) -> Sequence[int]:
    """The row scaled by the lcm of its denominators (integer rows are kept as they are)."""
    if all(type(x) is int for x in row):
        return list(row)
    fracs = [x if isinstance(x, (int, Fraction)) else Fraction(x) for x in row]
    return integer_image({0: fracs})[1][0]


def rank(rows: Matrix) -> int:
    """Rank of a dense matrix: its rows scaled to integers (``_integer_row``)
    and kept as {column: nonzero entry} for ``_echelon``."""
    rows = list(rows)
    if len({len(row) for row in rows}) > 1:
        raise DimMismatch("rows of unequal length")
    return len(_echelon({j: x for j, x in enumerate(_integer_row(row)) if x} for row in rows))


def _echelon(rows: Iterable[dict[int, int]]) -> dict[int, dict[int, int]]:
    """Pivot rows of integer rows given as {column: nonzero entry}, keyed by
    leading column, each primitive: a row is reduced (``_eliminate``) until its
    lead is new or it vanishes.  The work follows the nonzeros, so a sparse
    matrix such as the edge equations of ``defspace._equations`` costs far
    less than dense elimination, while a dense one costs more."""
    pivots: dict[int, dict[int, int]] = {}
    for r in rows:
        while r:
            lead = min(r)
            top = pivots.get(lead)
            if top is None:
                g = gcd(*r.values())
                pivots[lead] = r if g == 1 else {j: x // g for j, x in r.items()}
                break
            r = _eliminate(r, top, lead)
    return pivots


def _eliminate(r: dict[int, int], top: dict[int, int], lead: int) -> dict[int, int]:
    """p*r - a*top, p/a the ratio of top's and r's entries in column ``lead`` in lowest terms,
    p > 0, over the gcd of its entries: zero there, a positive multiple of r plus one of top."""
    g = gcd(top[lead], r[lead]) * (1 if top[lead] > 0 else -1)
    p, a = top[lead] // g, r[lead] // g
    r = {j: p * x for j, x in r.items()}
    for j, y in top.items():
        r[j] = r.get(j, 0) - a * y
    g = gcd(*r.values()) or 1
    return {j: x // g for j, x in r.items() if x}


# ---------------------------------------------------------------------------
# cones


class Cone(NamedTuple):
    """Rational polyhedral cone, stored as the nonnegative span of primitive generators."""

    generators: tuple[IntVec, ...]
    ambient_dim: int

    @staticmethod
    def from_rays(rays: Iterable[Sequence], ambient_dim: int) -> "Cone":
        gens = []
        for r in rays:
            if len(r) != ambient_dim:
                raise DimMismatch(f"generator {tuple(r)} in ambient dim {ambient_dim}")
            gens.append(integerize(r))
        gens = sorted(set(gens))
        return Cone(tuple(gens), ambient_dim)


class HRepr(NamedTuple):
    """H-description: x in cone iff e.x = 0 for all equations and f.x >= 0 for all facets."""

    equations: tuple[IntVec, ...]
    inequalities: tuple[IntVec, ...]


def double_description(
    equations: Sequence[IntVec],
    inequalities: Sequence[IntVec],
    ambient_dim: int,
) -> tuple[tuple[IntVec, ...], tuple[IntVec, ...]]:
    """Extreme rays of {x : e.x = 0, a.x >= 0} by the incremental double description method.

    Returns (lineality_basis, rays); the cone is span(lineality) + cone(rays)
    and the rays are extreme modulo lineality.  The constraints are taken in
    turn (Fukuda and Prodon, 1996).  One, a, not constant on the lineality
    space L pivots on a basis vector b0 with a.b0 > 0: the rest of L and every
    ray are reduced against b0 into a's kernel, and for an inequality b0
    becomes a ray, tight on every earlier constraint.  Otherwise a cuts the
    rays: its zero rays stay, its positive ones too for an inequality, and
    each adjacent pair of a positive and a negative ray adds its primitive
    combination on a's kernel.  Adjacency is the combinatorial test: no third
    ray is tight on every constraint both are.
    """
    lineality = [tuple(int(i == j) for j in range(ambient_dim)) for i in range(ambient_dim)]
    rays: list[IntVec] = []
    tight: list[set[int]] = []  # per ray, the indices of the constraints so far at 0
    constraints = [(e, False) for e in equations] + [(a, True) for a in inequalities]
    for k, (a, inequality) in enumerate(constraints):
        a = tuple(int(c) for c in a)
        on_lin, on_rays = [dot(a, b) for b in lineality], [dot(a, r) for r in rays]
        pivot = next((i for i, v in enumerate(on_lin) if v), None)
        if pivot is not None:
            b0, v0 = lineality.pop(pivot), on_lin.pop(pivot)
            if v0 < 0:
                b0, v0 = tuple(-y for y in b0), -v0
            lineality = [primitive(tuple(v0 * x - v * y for x, y in zip(b, b0)))
                         for b, v in zip(lineality, on_lin)]
            rays = [primitive(tuple(v0 * x - v * y for x, y in zip(r, b0)))
                    for r, v in zip(rays, on_rays)]
            for t in tight:
                t.add(k)
            if inequality:
                rays.append(b0)
                tight.append(set(range(k)))
        else:
            kept = [i for i, v in enumerate(on_rays) if v == 0 or (inequality and v > 0)]
            new_rays = [rays[i] for i in kept]
            new_tight = [tight[i] | {k} if on_rays[i] == 0 else tight[i] for i in kept]
            pos = [i for i, v in enumerate(on_rays) if v > 0]
            neg = [i for i, v in enumerate(on_rays) if v < 0]
            for i, j in itertools.product(pos, neg):
                common = tight[i] & tight[j]
                if not any(common <= t for n, t in enumerate(tight) if n != i and n != j):
                    new_rays.append(primitive(tuple(
                        on_rays[i] * y - on_rays[j] * x for x, y in zip(rays[i], rays[j]))))
                    new_tight.append(common | {k})
            rays, tight = new_rays, new_tight
    return tuple(sorted(lineality)), tuple(sorted(rays))


@lru_cache(maxsize=None)
def cone_halfspaces(c: Cone) -> HRepr:
    """Facet description of a V-cone: dualize via double description.

    The lineality of the dual cone {y : y.g >= 0} is span(generators)^perp,
    which yields the equations; its extreme rays are the facet normals.
    Only available at desk scale.
    """
    if c.ambient_dim > H_DESCRIPTION_MAX_DIM or len(c.generators) > H_DESCRIPTION_MAX_GENERATORS:
        raise DeskScaleExceeded(
            f"facet enumeration limited to dim <= {H_DESCRIPTION_MAX_DIM} and "
            f"{H_DESCRIPTION_MAX_GENERATORS} generators; got dim {_echo(c.ambient_dim)}, "
            f"{len(c.generators)} generators"
        )
    lin, rays = double_description((), c.generators, c.ambient_dim)
    return HRepr(equations=lin, inequalities=rays)


@lru_cache(maxsize=None)
def cone_extreme(c: Cone) -> tuple[tuple[IntVec, ...], tuple[IntVec, ...]]:
    """Minimal V-description (lineality basis, extreme rays) via double dualization;
    the basis is empty iff the cone is pointed.  Generators as many as the
    dimension of their span (the ambient dimension less the span equations)
    are independent: they are the extreme rays.
    """
    h = cone_halfspaces(c)
    if len(c.generators) + len(h.equations) == c.ambient_dim:
        return (), tuple(sorted(c.generators))
    return double_description(h.equations, h.inequalities, c.ambient_dim)


def canonical_form(c: Cone) -> tuple[IntVec, ...]:
    """Hashable key identifying a pointed cone as a point set: its sorted extreme
    rays.  It keys pointed cones only; ``fan_validate`` refuses a cone that holds
    a line before it keys any cone."""
    return cone_extreme(c)[1]


def cone_contains(c: Cone, p: Sequence) -> bool:
    """Exact membership of a rational point in the closed cone."""
    if len(p) != c.ambient_dim:
        raise DimMismatch(f"point of dim {len(p)} vs cone in dim {c.ambient_dim}")
    pt = _integer_row(p)  # a positive multiple of p: the same signs
    h = cone_halfspaces(c)
    if any(sum(map(mul, e, pt)) for e in h.equations):
        return False
    return all(sum(map(mul, f, pt)) >= 0 for f in h.inequalities)


# ---------------------------------------------------------------------------
# fans


class _FanFields(NamedTuple):
    cones: tuple[Cone, ...]
    ambient_dim: int


class Fan(_FanFields):
    """Collection of cones closed under faces with face-to-face intersections; its tables
    and its two memos, cells and directions (below), are built on first use, off the fields."""

    @staticmethod
    def build(cones: Iterable[Cone], ambient_dim: int) -> "Fan":
        ordered = sorted(set(cones), key=lambda c: (len(c.generators), c.generators))
        return Fan(tuple(ordered), ambient_dim)

    def rays(self) -> tuple[IntVec, ...]:
        """Primitive generators of the one-dimensional cones."""
        out = [c.generators[0] for c in self.cones if len(c.generators) == 1]
        return tuple(sorted(set(out)))

    @cached_property
    def _ray_set(self) -> frozenset[IntVec]:
        return frozenset(self.rays())

    @cached_property
    def hyperplanes(self) -> tuple[IntVec, ...]:
        """Every facet and span normal of every cone, once: primitive, first nonzero entry > 0."""
        return self._cells[0]

    @cached_property
    def _cells(self) -> tuple[tuple[IntVec, ...], dict[int, tuple[int, ...]]]:
        """``hyperplanes``, and per sign s (1, -1, 0) and hyperplane j the bitset of the
        cones whose relative interior allows sign s at j: bit i is clear iff j is a span
        equation of cone i (sign 0) or a facet normal of it (the sign that orients j as
        the normal) and s is not that sign.  Each distinct normal is oriented once."""
        rows = [[(e, 0) for e in h.equations] + [(n, 1) for n in h.inequalities]
                for h in map(cone_halfspaces, self.cones)]  # (normal, 1 for a facet)
        oriented = {n: _oriented(n) for n in {n for row in rows for n, _ in row}}
        hyperplanes = tuple(sorted({n for n, _ in oriented.values()}))
        index = {n: j for j, n in enumerate(hyperplanes)}
        allowed = {s: [(1 << len(self.cones)) - 1] * len(hyperplanes) for s in (1, -1, 0)}
        for i, row in enumerate(rows):
            for n, facet in row:
                for s in {1, -1, 0} - {oriented[n][1] * facet}:
                    allowed[s][index[oriented[n][0]]] &= ~(1 << i)
        return hyperplanes, {s: tuple(bits) for s, bits in allowed.items()}

    @cached_property
    def _located(self) -> dict[tuple[int, int], tuple[int | None, int]]:
        """sign vector against ``hyperplanes`` -> its cell; see ``_locate``."""
        return {}

    @cached_property
    def _directions(self) -> dict[IntVec, tuple[list[int], tuple[int, int]]]:
        """ray direction -> its ``hyperplane_values`` entry; see ``direction_values``."""
        return {}


def _oriented(n: IntVec) -> tuple[IntVec, int]:
    """n's hyperplane as ``Fan.hyperplanes`` lists it, and the sign that orients it as n."""
    n = primitive(n)
    sign = 1 if next(x for x in n if x) > 0 else -1
    return tuple(sign * x for x in n), sign


def hyperplane_values(f: Fan, image: dict) -> tuple[dict, dict]:
    """Per key of an integer image, the integers n.q for n in ``f.hyperplanes`` and their
    sign vector, the pair (positive bits, negative bits): bit j is set in the first iff
    n_j.q > 0, in the second iff n_j.q < 0.  n.q is summed by columns of the normals, x *
    column per nonzero coordinate x."""
    columns, values, vectors = list(zip(*f.hyperplanes)), {}, {}
    bits = [1 << j for j in range(len(f.hyperplanes))]
    for k, q in image.items():
        if len(q) != f.ambient_dim:
            raise DimMismatch(f"point of dim {len(q)} vs fan in dim {f.ambient_dim}")
        v = None
        for x, column in zip(q, columns):
            if x:
                v = [x * c for c in column] if v is None else [a + x * c for a, c in zip(v, column)]
        values[k] = v = v or [0] * len(bits)
        pos = neg = 0
        for bit, x in zip(bits, v):
            if x > 0:
                pos |= bit
            elif x:
                neg |= bit
        vectors[k] = pos, neg
    return values, vectors


def direction_values(f: Fan, directions: Iterable[IntVec]) -> dict:
    """``f._directions``, holding each of ``directions`` D: the integers n.D for n in
    ``f.hyperplanes`` and their sign vector, computed once per fan object, its
    cell memoized too (``_locate``)."""
    new = {d: d for d in directions if d not in f._directions}
    if new:
        values, vectors = hyperplane_values(f, new)
        f._directions.update({d: (values[d], vectors[d]) for d in new})
        for d in new:
            _locate(f, vectors[d])
    return f._directions


def fan_from_maximal(
    rays: Sequence[Sequence[int]],
    maximal: Sequence[Sequence[int]],
    ambient_dim: int,
) -> Fan:
    """Fan generated by simplicial maximal cones given as ray index lists.

    Face closure is taken by enumerating ray subsets, which is only correct
    for simplicial cones (linearly independent generators).
    """
    ray_vecs = [integerize(r) for r in rays]
    cones = {Cone((), ambient_dim)}
    for idx in maximal:
        subset = [ray_vecs[i] for i in idx]
        if rank(subset) != len(subset):
            raise ValueError("fan_from_maximal requires simplicial maximal cones")
        for k in range(1, len(subset) + 1):
            for combo in itertools.combinations(subset, k):
                cones.add(Cone.from_rays(combo, ambient_dim))
    return Fan.build(cones, ambient_dim)


def fan_validate(f: Fan) -> ValidationReport:
    """Check that no cone holds a line, face closure, and that any two cones
    meet in a common face.

    Stops at the first violation.  A toric variety's fan has pointed cones
    (Cox, Little and Schenck, *Toric Varieties*, 2011, 3.1.2), so a cone
    whose ``cone_extreme`` has a lineality basis is ``NotStronglyConvex``,
    before any cone is keyed.  Cones are then deduplicated as point sets by
    ``canonical_form``, and each distinct cone's facets are keyed once: each
    must be in the fan.  That closes the fan under faces, as a proper face of
    a cone is a face of one of its facets (Ziegler, *Lectures on Polytopes*,
    1995, 2.1), and the zero cone is the facet of every ray.  The maximal
    cones are then the cones that are no facet of another, and checking them
    suffices: every cone is a face tau of a maximal sigma, and if sigma and
    sigma' meet in a common face rho, then tau and a face tau' of sigma' meet
    in the intersection of two faces of rho, a face of both.

    When every maximal cone is full-dimensional and simplicial, n >= 2
    linearly independent rays in R^n, the fan is decided by its walls (the
    facets of the maximal cones; see ``_validate_by_walls``).  A wall that
    is a facet of two cones on one side is an overlap.  If every wall is a
    facet of exactly two cones, on opposite sides, count the cones that hold
    a point off the codim-2 cones.  Crossing a hyperplane at such a point
    keeps the cones that hold it inside and, for each wall through it,
    swaps the wall's cone on one side for its cone on the other, so the
    count does not change; the points off the codim-2 cones are connected,
    so the count is one constant.  The sum of the first cone's rays, inside
    that cone and in no other, makes it 1: the cones cover R^n with
    disjoint interiors, and since every wall is shared whole they meet face
    to face (the interior-facet characterization of triangulations, De
    Loera, Rambau and Santos, *Triangulations*, 2010).  Such a fan is valid
    and complete, and no two cones are intersected.  Every other fan (a
    wall that is a facet of one cone only, as on the boundary of an
    incomplete fan; cones not simplicial or not of full dimension; n = 1;
    no cones) is decided by intersecting every pair of maximal cones, and
    its completeness is not certified.  Their intersection, keyed by the
    extreme rays of their joint H-description, must have the key of a face
    of both: the cone itself or a face of a facet.
    """
    report = ValidationReport([])
    if f.ambient_dim < 1:
        report.add("DimMismatch", f"ambient dimension {_echo(f.ambient_dim)} < 1")
        return report
    for c in f.cones:
        if c.ambient_dim != f.ambient_dim:
            report.add("DimMismatch", f"cone {c.generators} has ambient dim {c.ambient_dim}")
            return report
    for c in f.cones:
        if lin := cone_extreme(c)[0]:
            report.add("NotStronglyConvex", f"cone {_echo_point(c.generators)} contains the "
                                            f"line through {_echo_point(lin[0])}")
            return report
    keys = [canonical_form(c) for c in f.cones]
    present = set(keys)
    facets: dict = {}  # canonical form -> (its first cone, [(facet key, facet normal)])
    for c, key in zip(f.cones, keys):
        if key in facets:
            continue
        facets[key] = c, []
        for normal in cone_halfspaces(c).inequalities:
            facet = tuple(g for g in c.generators if not sum(map(mul, normal, g)))
            facet_key = canonical_form(Cone(facet, f.ambient_dim))
            if facet_key not in present:
                report.add(
                    "FaceClosureViolated",
                    f"facet {_echo_point(facet)} of cone {_echo_point(c.generators)} "
                    "is not in the fan",
                )
                return report
            facets[key][1].append((facet_key, normal))
    below = {facet_key for _, walls in facets.values() for facet_key, _ in walls}
    maximal = {key: cone_walls for key, cone_walls in facets.items() if key not in below}
    n = f.ambient_dim
    if maximal and n >= 2 and all(
        len(rays) == n and not cone_halfspaces(c).equations for rays, (c, _) in maximal.items()
    ):
        walls = _validate_by_walls(maximal)
        if walls is not None:
            return walls
    faces: dict = {}  # canonical form -> the keys of its faces, its own included
    for key in sorted(facets, key=len):  # a facet has fewer rays
        faces[key] = {key}.union(*(faces[facet_key] for facet_key, _ in facets[key][1]))
    for (k1, (c1, _)), (k2, (c2, _)) in itertools.combinations(maximal.items(), 2):
        h1, h2 = cone_halfspaces(c1), cone_halfspaces(c2)
        inter = double_description(
            h1.equations + h2.equations, h1.inequalities + h2.inequalities, n)[1]
        if inter not in faces[k1] & faces[k2]:
            report.add(
                "NonFaceIntersection",
                f"cones {_echo_point(c1.generators)} and {_echo_point(c2.generators)} meet in "
                f"{_echo_point(inter)}, which is not a common face",
            )
            return report
    return report


def _validate_by_walls(maximal: dict) -> ValidationReport | None:
    """``fan_validate``'s verdict on maximal cones (canonical form -> (cone,
    its (facet key, facet normal) pairs)) that are pointed, full-dimensional
    and simplicial, in integers; None if some wall is a facet of one cone only.

    A wall is keyed by its facet key, the wall's rays; the cone lies on the
    side of the facet normal: the sign of its first nonzero entry, as
    ``Fan.hyperplanes`` normalises it.
    """
    report = ValidationReport([])
    held: dict[tuple, dict[int, Cone]] = {}  # facet key -> side -> cone
    for c, walls in maximal.values():
        for wall, normal in walls:
            other = held.setdefault(wall, {}).setdefault(_oriented(normal)[1], c)
            if other is not c:
                report.add(
                    "NonFaceIntersection",
                    f"cones {_echo_point(other.generators)} and {_echo_point(c.generators)} "
                    f"lie on one side of their common facet {_echo_point(wall)}, "
                    "so they overlap, which is not a common face",
                )
                return report
    if any(len(sides) == 1 for sides in held.values()):
        return None
    rays, (first, _) = next(iter(maximal.items()))
    inside = [sum(col) for col in zip(*rays)]  # interior to the first cone
    for c, _ in maximal.values():
        if c is not first and cone_contains(c, inside):
            report.add(
                "NonFaceIntersection",
                f"cones {_echo_point(first.generators)} and {_echo_point(c.generators)} "
                f"overlap at {_echo_point(inside)}, which is not a common face",
            )
            return report
    return report


def smallest_containing_cone(f: Fan, p: Sequence) -> Cone:
    """The first cone of ``f.cones`` whose relative interior contains ``p``
    (on a valid fan, the only one); NotInSupport if there is none."""
    index = _locate(f, hyperplane_values(f, integer_image({0: p})[1])[1][0])[0]
    if index is None:
        raise not_in_support(p)
    return f.cones[index]


def _locate(f: Fan, key: tuple[int, int]) -> tuple[int | None, int]:
    """The cell of sign vector ``key`` against ``f.hyperplanes``: the index of the first
    cone whose relative interior holds its points, None outside the support, and its
    closure mask, bit i set iff the closed cone ``f.cones[i]`` holds them.  The mask is
    the AND of the cone bitsets (``Fan._cells``) over its nonzero signs, the interiors
    that AND over its zero signs too.  Memoized per vector, misses included."""
    cell = f._located.get(key)
    if cell is None:
        (pos, neg), allowed = key, f._cells[1]
        mask = (1 << len(f.cones)) - 1
        for sign, bits in ((1, pos), (-1, neg)):
            for j in set_bits(bits):
                mask &= allowed[sign][j]
        inside = mask
        for j in set_bits(~(pos | neg) & ((1 << len(f.hyperplanes)) - 1)):
            inside &= allowed[0][j]
        cell = f._located[key] = ((inside & -inside).bit_length() - 1 if inside else None, mask)
    return cell


def set_bits(mask: int) -> Iterator[int]:
    """The indices of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def not_in_support(p: Sequence) -> NotInSupport:
    return NotInSupport(f"point {_echo_point(p)} is not in the support of the fan")

"""Exact rational linear algebra, primitive lattice vectors, polyhedral cones, and fans.

Everything here is computed over arbitrary-precision rationals (``fractions.Fraction``)
or plain Python integers; no floating point enters any predicate.  Cones are stored
by generators (V-description); facet descriptions are derived on demand with the
double description method and cached.  Intended scale is small ("desk scale"):
ambient dimension <= 6 and a few dozen generators per cone.
"""

import itertools
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd, lcm
from operator import mul
from typing import Iterable, NamedTuple, Sequence

from .errors import (
    DeskScaleExceeded,
    DimMismatch,
    NotInSupport,
    ValidationReport,
    ZeroDirection,
    _echo_point,
)

RatVec = tuple[Fraction, ...]
IntVec = tuple[int, ...]

# facet descriptions are only derived at desk scale
H_DESCRIPTION_MAX_DIM = 6
H_DESCRIPTION_MAX_GENERATORS = 32


# ---------------------------------------------------------------------------
# vectors


def as_ratvec(coords: Iterable) -> RatVec:
    return tuple(Fraction(c) for c in coords)


def dot(a: Sequence, b: Sequence):
    if len(a) != len(b):
        raise DimMismatch(f"dot product of lengths {len(a)} and {len(b)}")
    return sum(x * y for x, y in zip(a, b))


def primitive(v: Sequence[int]) -> IntVec:
    """Divide an integer vector by the gcd of its entries, keeping orientation."""
    w = tuple(int(c) for c in v)
    if any(c != v[i] for i, c in enumerate(w)):
        raise ValueError("primitive() expects an integer vector")
    g = 0
    for c in w:
        g = gcd(g, abs(c))
    if g == 0:
        raise ZeroDirection("zero vector has no primitive direction")
    return tuple(c // g for c in w)


def integer_image(points: dict) -> tuple[int, dict]:
    """The lcm m of all coordinate denominators of ``points`` (key -> int or
    Fraction coordinates), and per key the integer vector m p."""
    m = lcm(*(x.denominator for p in points.values() for x in p))
    return m, {k: [x.numerator * (m // x.denominator) for x in p] for k, p in points.items()}


def integerize(v: Sequence) -> IntVec:
    """Scale a rational vector to the primitive integer vector on the same ray."""
    return primitive(_integer_row(v))


# ---------------------------------------------------------------------------
# exact rational elimination

Matrix = Sequence[Sequence]


def _rref(rows: Matrix) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form: (nonzero rows, each with pivot 1 and zeros in
    every other pivot column, and their pivot column indices).  It is unique
    for the row space, so it also serves as a key of that space."""
    work = [[Fraction(x) for x in row] for row in rows]
    ncols = len(work[0]) if work else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == len(work):
            break
        pivot_row = next((i for i in range(r, len(work)) if work[i][c]), None)
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        p = work[r][c]
        top = work[r] = [x / p for x in work[r]]
        for i, row in enumerate(work):
            if i != r and row[c]:
                f = row[c]
                work[i] = [x - f * y for x, y in zip(row, top)]
        pivots.append(c)
        r += 1
    return work[:r], pivots


def _integer_row(row: Sequence) -> list[int]:
    """The row scaled by the lcm of its denominators (integer rows are kept as they are)."""
    if all(type(x) is int for x in row):
        return list(row)
    fracs = [x if isinstance(x, (int, Fraction)) else Fraction(x) for x in row]
    return integer_image({0: fracs})[1][0]


def rank(rows: Matrix) -> int:
    """Rank of a dense matrix: its rows scaled to integers (``_integer_row``)
    and kept as {column: nonzero entry} for ``_sparse_rank``."""
    rows = list(rows)
    if len({len(row) for row in rows}) > 1:
        raise DimMismatch("rows of unequal length")
    return _sparse_rank({j: x for j, x in enumerate(_integer_row(row)) if x} for row in rows)


def _sparse_rank(rows: Iterable[dict[int, int]]) -> int:
    """Rank of integer rows given as {column: nonzero entry}: each row is
    reduced against the pivot rows found so far, keyed by leading column, as
    p*row - a*pivot (p the pivot's leading entry, a the row's entry there,
    over their gcd), then divided by the gcd of its entries; a row left
    nonzero becomes a pivot.  The work follows the nonzeros, so a sparse
    matrix such as ``defspace.cycle_closing_matrix`` costs far less than
    dense elimination, while a dense one costs more."""
    pivots: dict[int, dict[int, int]] = {}  # leading column -> reduced row
    for r in rows:
        while r:
            lead = min(r)
            top = pivots.get(lead)
            if top is None:
                pivots[lead] = r
                break
            g = gcd(top[lead], r[lead])
            p, a = top[lead] // g, r[lead] // g
            r = {j: p * x for j, x in r.items()}
            for j, y in top.items():
                r[j] = r.get(j, 0) - a * y
            g = gcd(*r.values()) or 1
            r = {j: x // g for j, x in r.items() if x}
    return len(pivots)


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
            f"{H_DESCRIPTION_MAX_GENERATORS} generators; got dim {c.ambient_dim}, "
            f"{len(c.generators)} generators"
        )
    lin, rays = double_description((), c.generators, c.ambient_dim)
    return HRepr(equations=lin, inequalities=rays)


@lru_cache(maxsize=None)
def cone_extreme(c: Cone) -> tuple[tuple[IntVec, ...], tuple[IntVec, ...]]:
    """Minimal V-description (lineality basis, extreme rays) via double dualization.

    Generators as many as the dimension of their span (the ambient dimension
    less the span equations) are independent: they are the extreme rays.
    """
    h = cone_halfspaces(c)
    if len(c.generators) + len(h.equations) == c.ambient_dim:
        return (), tuple(sorted(c.generators))
    return double_description(h.equations, h.inequalities, c.ambient_dim)


def canonical_form(c: Cone):
    """Hashable key identifying the cone as a point set.

    Extreme rays are only determined modulo the lineality space L, so L is
    keyed by its reduced row echelon basis and each ray by the unique
    representative of r + L that vanishes on the pivot columns of that
    basis, made primitive.
    """
    lin, rays = cone_extreme(c)
    if not lin:
        return (rays, ())
    basis, pivots = _rref(lin)
    reduced = []
    for r in rays:
        v = as_ratvec(r)
        for row, p in zip(basis, pivots):
            if v[p]:
                v = tuple(x - v[p] * y for x, y in zip(v, row))
        reduced.append(integerize(v))
    return (tuple(sorted(reduced)), tuple(integerize(row) for row in basis))


def cones_equal(c1: Cone, c2: Cone) -> bool:
    return c1.ambient_dim == c2.ambient_dim and canonical_form(c1) == canonical_form(c2)


def cone_contains(c: Cone, p: Sequence) -> bool:
    """Exact membership of a rational point in the closed cone."""
    if len(p) != c.ambient_dim:
        raise DimMismatch(f"point of dim {len(p)} vs cone in dim {c.ambient_dim}")
    pt = _integer_row(p)  # a positive multiple of p: the same signs
    h = cone_halfspaces(c)
    if any(sum(map(mul, e, pt)) for e in h.equations):
        return False
    return all(sum(map(mul, f, pt)) >= 0 for f in h.inequalities)


def cone_intersection(c1: Cone, c2: Cone) -> Cone:
    if c1.ambient_dim != c2.ambient_dim:
        raise DimMismatch("intersecting cones of different ambient dimension")
    h1, h2 = cone_halfspaces(c1), cone_halfspaces(c2)
    lin, rays = double_description(
        h1.equations + h2.equations,
        h1.inequalities + h2.inequalities,
        c1.ambient_dim,
    )
    gens = list(rays)
    for b in lin:
        gens.append(b)
        gens.append(tuple(-x for x in b))
    return Cone.from_rays(gens, c1.ambient_dim)


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


# ---------------------------------------------------------------------------
# fans


class _FanFields(NamedTuple):
    cones: tuple[Cone, ...]
    ambient_dim: int


class Fan(_FanFields):
    """Collection of cones closed under faces with face-to-face intersections."""

    @staticmethod
    def build(cones: Iterable[Cone], ambient_dim: int) -> "Fan":
        ordered = sorted(set(cones), key=lambda c: (len(c.generators), c.generators))
        return Fan(tuple(ordered), ambient_dim)

    def rays(self) -> tuple[IntVec, ...]:
        """Primitive generators of the one-dimensional cones."""
        out = [c.generators[0] for c in self.cones if len(c.generators) == 1]
        return tuple(sorted(set(out)))

    @cached_property
    def hyperplanes(self) -> tuple[IntVec, ...]:
        """Every facet and span normal of every cone, once per hyperplane.

        Normals are primitive with their first nonzero entry positive, so two
        normals of the same hyperplane coincide.  Built on first use and kept
        in the instance ``__dict__``, outside the tuple's fields, as is ``patterns``.
        """
        hs = [cone_halfspaces(c) for c in self.cones]
        return tuple(sorted({_oriented(n)[0] for h in hs for n in h.equations + h.inequalities}))

    @cached_property
    def patterns(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per cone, its span equations and facet normals as (index into
        ``hyperplanes``, sign) pairs: sign 0 for an equation, and for a normal
        the sign that orients its hyperplane as the normal.  Every normal of
        every cone is ± one of ``hyperplanes``, so a point's sign vector
        against them decides its membership, cone by cone."""
        index = {n: j for j, n in enumerate(self.hyperplanes)}
        out = []
        for h in map(cone_halfspaces, self.cones):
            pattern = [(index[_oriented(e)[0]], 0) for e in h.equations]
            out.append(tuple(pattern + [(index[n], s) for n, s in map(_oriented, h.inequalities)]))
        return tuple(out)

    @cached_property
    def _located(self) -> dict[tuple[int, ...], int]:
        """sign vector against ``hyperplanes`` -> cone index; see ``_locate``."""
        return {}


def _oriented(n: IntVec) -> tuple[IntVec, int]:
    """n's hyperplane as ``Fan.hyperplanes`` lists it, and the sign that orients it as n."""
    n = primitive(n)
    sign = 1 if next(x for x in n if x) > 0 else -1
    return tuple(sign * x for x in n), sign


def signs(values: Iterable) -> tuple[int, ...]:
    return tuple([(v > 0) - (v < 0) for v in values])


def in_interior(pattern: Sequence[tuple[int, int]], s: Sequence[int]) -> bool:
    """Whether sign vector ``s`` is in the relative interior of the cone of ``pattern``."""
    return all(s[j] == sign for j, sign in pattern)


def in_closure(pattern: Sequence[tuple[int, int]], s: Sequence[int]) -> bool:
    """Whether sign vector ``s`` is in the closed cone of ``pattern`` (``Fan.patterns``)."""
    return all(s[j] in (0, sign) for j, sign in pattern)


def in_cone(f: Fan, cone: int | None, s: Sequence[int], t: Sequence[int]) -> bool:
    """Whether the closed cone ``f.cones[cone]`` holds sign vectors s and t; False for None."""
    return cone is not None and in_closure(f.patterns[cone], s) and in_closure(f.patterns[cone], t)


def hyperplane_values(f: Fan, image: dict) -> tuple[dict, dict]:
    """Per key of an integer image, the integers n.q for n in ``f.hyperplanes`` and their signs."""
    for q in image.values():
        if len(q) != f.ambient_dim:
            raise DimMismatch(f"point of dim {len(q)} vs fan in dim {f.ambient_dim}")
    values = {k: [sum(map(mul, n, q)) for n in f.hyperplanes] for k, q in image.items()}
    return values, {k: signs(v) for k, v in values.items()}


def _locate_all(f: Fan, points: dict, vectors: dict) -> dict:
    """Per key, the index of the cone of ``points[key]`` from its sign vector
    ``vectors[key]``; the first point outside the support raises NotInSupport."""
    cones = {}
    for key, p in points.items():
        cones[key] = _locate(f, vectors[key])
        if cones[key] is None:
            raise not_in_support(p)
    return cones


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
    """Check face closure and that any two cones meet in a common face.

    Stops at the first violation.  Cones are deduplicated as point sets by
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
    incomplete fan; cones not simplicial, not of full dimension, or with
    lineality; n = 1; no cones) is decided by intersecting every pair of
    maximal cones, and its completeness is not certified.
    """
    report = ValidationReport([])
    for c in f.cones:
        if c.ambient_dim != f.ambient_dim:
            report.add("DimMismatch", f"cone {c.generators} has ambient dim {c.ambient_dim}")
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
        not lin and len(rays) == n and not cone_halfspaces(c).equations
        for (rays, lin), (c, _) in maximal.items()
    ):
        walls = _validate_by_walls(maximal)
        if walls is not None:
            return walls
    for (c1, _), (c2, _) in itertools.combinations(maximal.values(), 2):
        inter = cone_intersection(c1, c2)
        if not (is_face_of(inter, c1) and is_face_of(inter, c2)):
            report.add(
                "NonFaceIntersection",
                f"cones {_echo_point(c1.generators)} and {_echo_point(c2.generators)} meet in "
                f"{_echo_point(inter.generators)}, which is not a common face",
            )
            return report
    return report


def _validate_by_walls(maximal: dict) -> ValidationReport | None:
    """``fan_validate``'s verdict on maximal cones (canonical form -> (cone,
    its (facet key, facet normal) pairs)) that are full-dimensional and
    simplicial, in integers; None if some wall is a facet of one cone only.

    A wall is keyed by its facet key, whose rays are the wall's; the cone
    lies on the side of the facet normal: the sign of its first nonzero
    entry, as ``Fan.hyperplanes`` normalises it.
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
                    f"lie on one side of their common facet {_echo_point(wall[0])}, "
                    "so they overlap, which is not a common face",
                )
                return report
    if any(len(sides) == 1 for sides in held.values()):
        return None
    (rays, _), (first, _) = next(iter(maximal.items()))
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
    vectors = hyperplane_values(f, integer_image({0: p})[1])[1]
    return f.cones[_locate_all(f, {0: p}, vectors)[0]]


def _locate(f: Fan, key: tuple[int, ...]) -> int | None:
    """The index of the first cone whose relative interior holds the points
    with sign vector ``key`` against ``f.hyperplanes`` (see ``Fan.patterns``),
    or None.  Hits are memoized, at most one per cell of the arrangement;
    misses, outside the support, are not."""
    index = f._located.get(key)
    if index is None:
        hits = (i for i, pattern in enumerate(f.patterns) if in_interior(pattern, key))
        index = next(hits, None)
        if index is not None:
            f._located[key] = index
    return index


def not_in_support(p: Sequence) -> NotInSupport:
    return NotInSupport(f"point {_echo_point(p)} is not in the support of the fan")

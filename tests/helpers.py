"""Shared test utilities: independent oracles, curve generators and transforms.

The oracles here deliberately avoid the library code paths they are used to
check: monoid membership by brute-force closure, cone membership by
Caratheodory subset enumeration, rank by transposed elimination, and the
deformation dimension by dense Fraction elimination of the full edge
equations instead of the integer rank of the cycle-closing matrix.
Subdivision is checked against the earlier implementation that scanned the
facets of every cone and walked edges and rays in two separate loops, point
location and the cones' sign patterns against the linear scan over every
cone with rational points that preceded the sign-vector memo, fan
validation against the earlier one that intersected every pair of cones,
certificate verification against the earlier one that re-derived each field
by hand, and ``primitive_and_scale`` against the Fraction formula it
replaced.
"""

from __future__ import annotations

import importlib.util
import itertools
import random
from fractions import Fraction
from math import atan2, gcd, lcm
from operator import mul
from pathlib import Path
from typing import Sequence

from tropic.curves import (
    BoundedEdge,
    CurveRay,
    TropicalCurve,
    edge_data,
    is_balanced,
    outgoing,
    require_valid,
)
from tropic.defspace import (
    CombinatorialType,
    DeformationCone,
    combinatorial_type,
    deformation_cone,
)
from tropic.degeneration import CertificateCheck, RealizationCertificate, dual_curve
from tropic.errors import DimMismatch, NotInSupport, ValidationReport, ZeroDirection
from tropic.latticefan import (
    Cone,
    Fan,
    Matrix,
    RatVec,
    as_ratvec,
    canonical_form,
    cone_faces,
    cone_halfspaces,
    cone_contains,
    cone_intersection,
    dot,
    fan_from_maximal,
    is_face_of,
    primitive,
    rank,
)
from tropic.refine import NewVertex, SubdivisionRecord, check_recession_support


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
    """The Fraction formula that ``primitive_and_scale`` replaced: clear the
    denominators by int(c * m), then divide by the gcd of the entries."""
    w = as_ratvec(v)
    if all(c == 0 for c in w):
        raise ZeroDirection("zero vector has no primitive direction")
    m = lcm(*(c.denominator for c in w)) if w else 1
    ints = [int(c * m) for c in w]
    g = 0
    for c in ints:
        g = gcd(g, abs(c))
    return primitive(ints), Fraction(g, m)


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


def dense_deformation_dimension(t: CombinatorialType) -> int:
    """Kernel dimension of the (n*E) x (n*V + E) edge equations of the deformation cone."""
    cone = deformation_cone(t)
    return kernel_dimension(cone.equations, len(cone.coordinates))


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


def point_signs(f: Fan, p: Sequence) -> tuple[int, ...]:
    """The sign vector of a rational point against ``f.hyperplanes``, by Fraction dot products."""
    return tuple((v > 0) - (v < 0) for v in (dot(n, p) for n in f.hyperplanes))


def count_pattern_scans(f: Fan) -> list:
    """Make ``f`` record in the returned list each scan over its cones' sign
    patterns, which point location makes on a miss of its sign-vector memo."""
    scans = []

    class Counted(tuple):
        def __iter__(self):
            scans.append(1)
            return super().__iter__()

    f.__dict__["patterns"] = Counted(f.patterns)
    return scans


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


def reference_fan_validate(f: Fan) -> ValidationReport:
    """Check face closure and that pairwise intersections are common faces.

    Stops at the first violation.  Always checks the fan it is given; whether
    a trusted fan is checked at all is the caller's decision.
    """
    report = ValidationReport([])
    for c in f.cones:
        if c.ambient_dim != f.ambient_dim:
            report.add("DimMismatch", f"cone {c.generators} has ambient dim {c.ambient_dim}")
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
        inter = cone_intersection(c1, c2)
        if not (is_face_of(inter, c1) and is_face_of(inter, c2)):
            report.add(
                "NonFaceIntersection",
                f"cones {c1.generators} and {c2.generators} meet in {inter.generators}, "
                "which is not a common face",
            )
            return report
    return report


# The verifier that re-derived each field by hand, before certify and
# verify_certificate shared one derivation; kept verbatim as an oracle.
def reference_verify(cert: RealizationCertificate) -> CertificateCheck:
    """Re-derive every certificate field from the rescaled curve and fan and compare,
    and check that the curve maps into the fan cone by cone (PieceNotInCone) with
    every ray direction a ray of the fan (RecessionNotSupported)."""
    violations: list[str] = []
    hat = cert.rescaled_curve
    n = cert.multiplier

    report = is_balanced(hat)
    if not report.balanced:
        violations.append("Unbalanced: rescaled curve fails balancing")

    expected_dual = dual_curve(hat) if report.balanced else None
    if expected_dual is not None and expected_dual != cert.dual:
        violations.append("DualGraphMismatch: dual curve disagrees with the underlying graph")
    for mp in cert.dual.marked_points:
        matching = [r for r in hat.rays if r.id == mp.ray]
        if not matching or matching[0].weight != mp.contact_order:
            violations.append(
                f"ContactOrderMismatch: marked point {mp.id} has contact order "
                f"{mp.contact_order}, ray weight is "
                f"{matching[0].weight if matching else 'missing'}"
            )

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

    vals = dict(cert.base_point.edge_valuations)
    if sorted(vals) != sorted(e.id for e in hat.edges):
        violations.append("BasePointMismatch: valuation keys differ from curve edges")
    for e in hat.edges:
        if e.id not in vals:
            continue
        _, length = edge_data(hat, e.id)
        if vals[e.id] * n != length / e.weight:
            violations.append(
                f"BasePointMismatch: edge {e.id} valuation {vals[e.id]} != original length/weight"
            )
    positions = dict(cert.base_point.vertex_positions)
    if sorted(positions) != sorted(hat.vertices):
        violations.append("BasePointMismatch: position keys differ from curve vertices")
    else:
        for v, pos in positions.items():
            if tuple(n * x for x in pos) != hat.position(v):
                violations.append(f"BasePointMismatch: vertex {v} position*N != rescaled position")

    for v, idx in cert.vertex_cones:
        if v not in hat.vertices:
            violations.append(f"VertexConeMismatch: unknown vertex {v}")
            continue
        actual = reference_locate(cert.fan, hat.position(v))
        if cert.fan.cones.index(actual) != idx:
            violations.append(f"VertexConeMismatch: vertex {v} is interior to a different cone")
    if sorted(v for v, _ in cert.vertex_cones) != sorted(hat.vertices):
        violations.append("VertexConeMismatch: cone assignment keys differ from vertices")

    # the map to the fan is cone by cone: each piece's closure lies in the
    # cone whose relative interior holds an interior point of the piece
    for piece in hat.edges + hat.rays:
        if isinstance(piece, BoundedEdge):
            ends, direction = [hat.position(v) for v in piece.ends], None
            inner = tuple((a + b) / 2 for a, b in zip(*ends))
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

    stars = dict(cert.vertex_stars)
    for v in hat.vertices:
        expected = tuple(sorted({d for d, _ in outgoing(hat, v)}))
        if stars.get(v) != expected:
            violations.append(f"StarMismatch: vertex {v} star directions differ")

    return CertificateCheck(ok=not violations, violations=tuple(violations))

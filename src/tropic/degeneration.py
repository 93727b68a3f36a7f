"""Special-fiber combinatorics: the dual nodal curve, node monoids and slopes,
and assembly/verification of the full realization certificate.

The certificate records, per bounded edge e of the prepared curve, the
integer k = length/weight, the weight rho, and the integer node slope
u_q = (position(v1) - position(v2)) / rho, where (v1, v2) is the stored
endpoint order of e.  Flipping the orientation negates u_q; the stored order
is the documented convention.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .curves import BoundedEdge, TropicalCurve, edge_data, is_balanced, outgoing
from .errors import (
    CertificateInconsistency,
    NonIntegralRatio,
    NotInSupport,
    RecessionNotSupported,
    Unbalanced,
)
from .latticefan import Fan, IntVec, RatVec, smallest_containing_cone
from .refine import check_piece, check_recession_support, rescale_integral, subdivide_along_fan


@dataclass(frozen=True)
class Component:
    """Rational (genus 0) component of the dual curve, one per vertex."""

    id: str
    vertex: str


@dataclass(frozen=True)
class Node:
    id: str
    edge: str
    components: tuple[str, str]


@dataclass(frozen=True)
class MarkedPoint:
    id: str
    ray: str
    component: str
    contact_order: int


@dataclass(frozen=True)
class DualCurve:
    """Nodal curve whose dual graph is the underlying graph of the tropical curve.

    Marked points and nodes are abstract labels; only incidence matters.
    The component/node/marked-point ids embed the graph isomorphism.
    """

    components: tuple[Component, ...]
    nodes: tuple[Node, ...]
    marked_points: tuple[MarkedPoint, ...]


@dataclass(frozen=True)
class NodeMonoid:
    """Pushout monoid with parameter k: pairs (n1, n2) of naturals with n2 - n1 in kZ.

    Generated by (1,1), (k,0), (0,k) subject to the single pushout relation
    (k,0) + (0,k) = k*(1,1); for k = 1 this is all of N x N.
    """

    k: int

    def contains(self, n1: int, n2: int) -> bool:
        return n1 >= 0 and n2 >= 0 and (n2 - n1) % self.k == 0


def dual_curve(c: TropicalCurve) -> DualCurve:
    """One component per vertex, one node per bounded edge, one marked point per ray."""
    bal = is_balanced(c)
    if not bal.balanced:
        raise Unbalanced(f"defects at {[v for v, _ in bal.defects]}")
    components = tuple(Component(id=f"C_{v}", vertex=v) for v in sorted(c.vertices))
    nodes = tuple(
        Node(id=f"q_{e.id}", edge=e.id, components=(f"C_{e.ends[0]}", f"C_{e.ends[1]}"))
        for e in sorted(c.edges, key=lambda e: e.id)
    )
    marked = tuple(
        MarkedPoint(id=f"p_{r.id}", ray=r.id, component=f"C_{r.base}", contact_order=r.weight)
        for r in sorted(c.rays, key=lambda r: r.id)
    )
    return DualCurve(components=components, nodes=nodes, marked_points=marked)


def node_monoid(length: Fraction | int, weight: int) -> NodeMonoid:
    """Node monoid for an edge of the given lattice length and weight."""
    if weight < 1:
        raise NonIntegralRatio(f"weight must be a positive integer, got {weight}")
    ratio = Fraction(length) / weight
    if ratio <= 0 or ratio.denominator != 1:
        raise NonIntegralRatio(
            f"length/weight ratio {ratio} is not a positive integer; rescale the curve first"
        )
    return NodeMonoid(k=int(ratio))


def node_slope(c: TropicalCurve, edge_id: str) -> IntVec:
    """Integer slope (position(v1) - position(v2)) / weight for a rescaled curve.

    With d the primitive direction from the first stored endpoint to the
    second and k = length/weight, this equals -k*d, and weight * slope
    recovers position(v1) - position(v2) exactly.
    """
    e = c.edge(edge_id)
    p1, p2 = c.position(e.ends[0]), c.position(e.ends[1])
    out = []
    for a, b in zip(p1, p2):
        q = Fraction(a - b, e.weight)
        if q.denominator != 1:
            raise CertificateInconsistency(
                f"edge {edge_id}: slope entry {q} is not an integer; was the curve rescaled?"
            )
        out.append(int(q))
    return tuple(out)


@dataclass(frozen=True)
class NodeData:
    edge: str
    k: int
    rho: int
    u_q: IntVec


@dataclass(frozen=True)
class BasePoint:
    """The curve seen as a monoid homomorphism: original length/weight per edge, plus positions."""

    edge_valuations: tuple[tuple[str, Fraction], ...]
    vertex_positions: tuple[tuple[str, RatVec], ...]


@dataclass(frozen=True)
class RealizationCertificate:
    """Combinatorial data certifying the map from the dual curve to the fan's quotient stack."""

    rescaled_curve: TropicalCurve
    multiplier: int
    fan: Fan
    vertex_cones: tuple[tuple[str, int], ...]  # vertex -> index into fan.cones
    vertex_stars: tuple[tuple[str, tuple[IntVec, ...]], ...]  # directions a refinement must contain
    dual: DualCurve
    node_data: tuple[NodeData, ...]
    base_point: BasePoint


@dataclass(frozen=True)
class CertificateCheck:
    ok: bool
    violations: tuple[str, ...]


def certify(c: TropicalCurve, f: Fan) -> RealizationCertificate:
    """Run the preparation pipeline and assemble the realization certificate.

    Subdivides along the fan, rescales to integral length/weight ratios,
    builds the dual curve, locates each vertex in the fan, and records the
    per-node (k, rho, u_q) data together with the base point, whose edge
    valuations are the pre-rescaling length/weight ratios.
    """
    bal = is_balanced(c)
    if not bal.balanced:
        raise Unbalanced(f"defects at {[v for v, _ in bal.defects]}")
    support = check_recession_support(c, f)
    if not support.ok:
        raise RecessionNotSupported(
            f"ray directions {[d for _, d in support.missing]} are not rays of the fan"
        )
    prepared = subdivide_along_fan(c, f).output
    hat, mult = rescale_integral(prepared)

    vertex_cones = tuple(
        (v, f.cone_index[smallest_containing_cone(f, hat.position(v))])
        for v in sorted(hat.vertices)
    )
    vertex_stars = tuple(
        (v, tuple(sorted({d for d, _ in outgoing(hat, v)}))) for v in sorted(hat.vertices)
    )
    node_data = []
    for e in sorted(hat.edges, key=lambda e: e.id):
        _, length = edge_data(hat, e.id)
        ratio = length / e.weight
        if ratio.denominator != 1:
            raise CertificateInconsistency(
                f"edge {e.id} has non-integral ratio {ratio} after rescaling"
            )
        node_data.append(
            NodeData(edge=e.id, k=int(ratio), rho=e.weight, u_q=node_slope(hat, e.id))
        )
    valuations = []
    for e in sorted(prepared.edges, key=lambda e: e.id):
        _, length = edge_data(prepared, e.id)
        valuations.append((e.id, length / e.weight))
    base_point = BasePoint(
        edge_valuations=tuple(valuations),
        vertex_positions=tuple((v, prepared.position(v)) for v in sorted(prepared.vertices)),
    )
    return RealizationCertificate(
        rescaled_curve=hat,
        multiplier=mult,
        fan=f,
        vertex_cones=vertex_cones,
        vertex_stars=vertex_stars,
        dual=dual_curve(hat),
        node_data=tuple(node_data),
        base_point=base_point,
    )


def verify_certificate(cert: RealizationCertificate) -> CertificateCheck:
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
        actual = smallest_containing_cone(cert.fan, hat.position(v))
        if cert.fan.cone_index[actual] != idx:
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
            cone = cert.fan.cone_index[smallest_containing_cone(cert.fan, inner)]
            check_piece(cert.fan, cone, ends, direction, piece.id)
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

"""Special-fiber combinatorics: the dual nodal curve, node monoids and slopes,
and assembly/verification of the full realization certificate.

The certificate records, per bounded edge e of the prepared curve, the
integer k = length/weight, the weight rho, and the integer node slope
u_q = (position(v1) - position(v2)) / rho = -k*d, where (v1, v2) is the
stored endpoint order of e and d the primitive direction from v1 to v2.
Flipping the orientation negates u_q; the stored order is the documented
convention.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .curves import BoundedEdge, TropicalCurve, edge_data, is_balanced, outgoing
from .errors import NonIntegralRatio, NotInSupport, RecessionNotSupported, Unbalanced, _echo
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
    components = tuple(Component(id=f"C_{v}", vertex=v) for v in c.vertices)
    nodes = tuple(
        Node(id=f"q_{e.id}", edge=e.id, components=(f"C_{e.ends[0]}", f"C_{e.ends[1]}"))
        for e in c.edges
    )
    marked = tuple(
        MarkedPoint(id=f"p_{r.id}", ray=r.id, component=f"C_{r.base}", contact_order=r.weight)
        for r in c.rays
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


def _derive(hat: TropicalCurve, fan: Fan) -> tuple[dict, dict, dict]:
    """The certificate fields that the rescaled curve and the fan fix, keyed by id.

    Per vertex, the index of its cone and its sorted outgoing primitive
    directions; per bounded edge, NodeData with k = length/weight and
    u_q = -k*d for the edge's primitive direction d.  k and u_q are integers
    on a rescaled curve and exact rationals otherwise, so a tampered
    certificate is compared, not refused.
    """
    cones = {v: fan.cone_index[smallest_containing_cone(fan, p)] for v, p in hat.vertices.items()}
    stars = {v: tuple(sorted({d for d, _ in outgoing(hat, v)})) for v in hat.vertices}
    nodes = {}
    for e in hat.edges:
        d, length = edge_data(hat, e.id)
        k = length / e.weight
        k = k.numerator if k.denominator == 1 else k
        nodes[e.id] = NodeData(edge=e.id, k=k, rho=e.weight, u_q=tuple(-k * x for x in d))
    return cones, stars, nodes


def _mismatches(label: str, derived: dict, claimed: dict) -> list[str]:
    """``label`` and the id, for each id whose value differs or that only one side holds."""
    return [
        f"{label} {_echo(i)}"
        for i in sorted(derived.keys() | claimed.keys())
        if derived.get(i) != claimed.get(i)
    ]


def certify(c: TropicalCurve, f: Fan) -> RealizationCertificate:
    """Run the preparation pipeline and assemble the realization certificate.

    Subdivides along the fan, rescales to integral length/weight ratios, and
    records the dual curve, the fields ``_derive`` computes from the rescaled
    curve, and the base point, whose edge valuations are the pre-rescaling
    length/weight ratios k/N.
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
    cones, stars, nodes = _derive(hat, f)
    return RealizationCertificate(
        rescaled_curve=hat,
        multiplier=mult,
        fan=f,
        vertex_cones=tuple(cones.items()),
        vertex_stars=tuple(stars.items()),
        dual=dual_curve(hat),
        node_data=tuple(nodes.values()),
        base_point=BasePoint(
            edge_valuations=tuple((e, Fraction(nd.k, mult)) for e, nd in nodes.items()),
            vertex_positions=tuple(prepared.vertices.items()),
        ),
    )


def verify_certificate(cert: RealizationCertificate) -> CertificateCheck:
    """Re-derive the certificate from its rescaled curve and fan and compare field
    by field, naming every vertex or edge id whose entry differs or is missing
    on one side; then check that the curve maps into the fan cone by cone
    (PieceNotInCone) with every ray direction a ray of the fan
    (RecessionNotSupported)."""
    violations: list[str] = []
    hat, n = cert.rescaled_curve, cert.multiplier
    try:
        if dual_curve(hat) != cert.dual:
            violations.append("DualGraphMismatch: dual curve disagrees with the underlying graph")
    except Unbalanced:
        violations.append("Unbalanced: rescaled curve fails balancing")

    cones, stars, nodes = _derive(hat, cert.fan)
    violations += _mismatches("VertexConeMismatch: vertex", cones, dict(cert.vertex_cones))
    violations += _mismatches("StarMismatch: vertex", stars, dict(cert.vertex_stars))
    violations += _mismatches(
        "NodeDataMismatch: edge", nodes, {nd.edge: nd for nd in cert.node_data}
    )
    # N times the base point is the rescaled curve: valuation * N = k, position * N = position
    bp = cert.base_point
    violations += _mismatches(
        "BasePointMismatch: edge",
        {e: nd.k for e, nd in nodes.items()},
        {e: val * n for e, val in bp.edge_valuations},
    )
    violations += _mismatches(
        "BasePointMismatch: vertex",
        hat.vertices,
        {v: tuple(n * x for x in pos) for v, pos in bp.vertex_positions},
    )

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
            violations.append(f"PieceNotInCone: {_echo(piece.id)}")
    for rid, d in check_recession_support(hat, cert.fan).missing:
        violations.append(
            f"RecessionNotSupported: ray {_echo(rid)} direction {d} is no ray of the fan"
        )

    return CertificateCheck(ok=not violations, violations=tuple(violations))

"""Special-fiber combinatorics: the dual nodal curve, node parameters and
slopes, and assembly/verification of the full realization certificate.

The certificate records, per bounded edge e of the prepared curve, the
integer k = length/weight, the weight rho, and the integer node slope
u_q = (position(v1) - position(v2)) / rho = -k*d, where (v1, v2) is the
stored endpoint order of e and d the primitive direction from v1 to v2.
Flipping the orientation negates u_q; the stored order is the documented
convention.
"""

from collections import Counter
from fractions import Fraction
from math import gcd
from operator import add, eq, itemgetter, mul
from typing import NamedTuple

from .curves import BoundedEdge, TropicalCurve, edge_data, require_balanced
from .errors import RecessionNotSupported, Unbalanced, _echo
from .latticefan import (
    Fan,
    IntVec,
    RatVec,
    _locate,
    _locate_all,
    hyperplane_values,
    in_cone,
    signs,
)
from .refine import check_recession_support, rescale_integral, subdivide_along_fan


class Component(NamedTuple):
    """Rational (genus 0) component of the dual curve, one per vertex."""

    id: str
    vertex: str


class Node(NamedTuple):
    id: str
    edge: str
    components: tuple[str, str]


class MarkedPoint(NamedTuple):
    id: str
    ray: str
    component: str
    contact_order: int


class DualCurve(NamedTuple):
    """Nodal curve whose dual graph is the underlying graph of the tropical curve.

    Marked points and nodes are abstract labels; only incidence matters.
    The component/node/marked-point ids embed the graph isomorphism.
    """

    components: tuple[Component, ...]
    nodes: tuple[Node, ...]
    marked_points: tuple[MarkedPoint, ...]


def dual_curve(c: TropicalCurve) -> DualCurve:
    """One component per vertex, one node per bounded edge, one marked point per ray."""
    require_balanced(c)
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


class NodeData(NamedTuple):
    edge: str
    k: int
    rho: int
    u_q: IntVec


class BasePoint(NamedTuple):
    """The curve seen as a monoid homomorphism: original length/weight per edge, plus positions."""

    edge_valuations: tuple[tuple[str, Fraction], ...]
    vertex_positions: tuple[tuple[str, RatVec], ...]


class RealizationCertificate(NamedTuple):
    """Combinatorial data certifying the map from the dual curve to the fan's quotient stack."""

    rescaled_curve: TropicalCurve
    multiplier: int
    fan: Fan
    vertex_cones: tuple[tuple[str, int], ...]  # vertex -> index into fan.cones
    vertex_stars: tuple[tuple[str, tuple[IntVec, ...]], ...]  # directions a refinement must contain
    dual: DualCurve
    node_data: tuple[NodeData, ...]
    base_point: BasePoint


class CertificateCheck(NamedTuple):
    ok: bool
    violations: tuple[str, ...]


def _derive(hat: TropicalCurve) -> tuple[dict, dict]:
    """The certificate fields that the rescaled curve alone fixes, keyed by id.

    Per vertex, its sorted outgoing primitive directions; per bounded edge,
    NodeData with k = length/weight and u_q = -k*d for the edge's primitive
    direction d.  k and u_q are integers on a rescaled curve and exact
    rationals otherwise, so a tampered certificate is compared, not refused.
    """
    stars, nodes = {v: set() for v in hat.vertices}, {}
    for e in hat.edges:
        d, length = edge_data(hat, e.id)
        stars[e.ends[0]].add(d)
        stars[e.ends[1]].add(tuple([-x for x in d]))
        p, q = length.numerator, length.denominator * e.weight
        k = p // q if p % q == 0 else Fraction(p, q)
        nodes[e.id] = NodeData(e.id, k, e.weight, tuple([-k * x for x in d]))
    for r in hat.rays:
        stars[r.base].add(r.direction)
    return {v: tuple(sorted(ds)) for v, ds in stars.items()}, nodes


def _mismatches(label: str, derived: dict, claimed: dict, same=eq) -> list[str]:
    """``label`` and the id, for each id that only one side holds or whose
    values are not ``same``; with ``eq``, equal dicts return at once."""
    if same is eq and derived == claimed:
        return []
    return [
        f"{label} {_echo(i)}"
        for i in sorted(derived.keys() | claimed.keys())
        if i not in derived or i not in claimed or not same(derived[i], claimed[i])
    ]


def certify(c: TropicalCurve, f: Fan) -> RealizationCertificate:
    """Run the preparation pipeline and assemble the realization certificate.

    Subdivides along the fan, rescales to integral length/weight ratios, and
    records the dual curve, the cone of each vertex, the fields ``_derive``
    computes from the rescaled curve, and the base point, whose edge
    valuations are the pre-rescaling length/weight ratios k/N.  Rescaling by
    N > 0 keeps every sign vector, so each vertex's cone is found from the
    sign vector the subdivision computed; a vertex outside the support of
    the fan raises NotInSupport at its rescaled position.
    """
    require_balanced(c)
    support = check_recession_support(c, f)
    if not support.ok:
        raise RecessionNotSupported(
            f"ray directions {[d for _, d in support.missing]} are not rays of the fan"
        )
    record = subdivide_along_fan(c, f)
    hat, mult = rescale_integral(record.output)
    cones = _locate_all(f, hat.vertices, record.vertex_signs)
    stars, nodes = _derive(hat)
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
            vertex_positions=tuple(record.output.vertices.items()),
        ),
    )


def verify_certificate(cert: RealizationCertificate) -> CertificateCheck:
    """Refuse a multiplier or a k that is no positive int, a multiplier N > 1
    sharing a factor with every k (certify's N, the lcm of the denominators
    of length/weight, has gcd 1 with them), and every id listed twice;
    re-derive the rest from the rescaled curve and fan, naming each id
    whose entry differs or is missing on one side; then check that the curve
    maps into the fan cone by cone (PieceNotInCone) with every ray direction
    a ray of the fan (RecessionNotSupported)."""
    violations: list[str] = []
    hat, n = cert.rescaled_curve, cert.multiplier
    try:
        if dual_curve(hat) != cert.dual:
            violations.append("DualGraphMismatch: dual curve disagrees with the underlying graph")
    except Unbalanced:
        violations.append("Unbalanced: rescaled curve fails balancing")
    if not (type(n) is int and n >= 1):
        violations.append("MultiplierNotPositive: the multiplier must be a positive int")
    bp = cert.base_point
    for field, entries in zip(("vertex_cones", "vertex_stars", "node_data", *BasePoint._fields),
                              (cert.vertex_cones, cert.vertex_stars, cert.node_data, *bp)):
        if len(set(map(itemgetter(0), entries))) < len(entries):
            ids = Counter(map(itemgetter(0), entries))
            violations += [f"DuplicateEntry: {field} {_echo(i)}" for i in sorted(ids) if ids[i] > 1]

    fan = cert.fan
    m, image = hat._image
    values, vectors = hyperplane_values(fan, image)
    cones = _locate_all(fan, hat.vertices, vectors)
    stars, nodes = _derive(hat)
    ks = [nd.k for nd in nodes.values()]
    if type(n) is int and n > 1 and all(type(k) is int for k in ks) and gcd(n, *ks) > 1:
        violations.append(
            "MultiplierNotLeast: a smaller multiplier makes every length/weight integral")
    violations += _mismatches("VertexConeMismatch: vertex", cones, dict(cert.vertex_cones))
    violations += _mismatches("StarMismatch: vertex", stars, dict(cert.vertex_stars))
    violations += _mismatches("NodeDataMismatch: edge", nodes, {
        nd.edge: nd for nd in cert.node_data if type(nd.k) is int and nd.k > 0})
    # N times the base point is the rescaled curve, compared by cross-multiplication
    violations += _mismatches(
        "BasePointMismatch: edge",
        {e: nd.k for e, nd in nodes.items()},
        dict(bp.edge_valuations),
        lambda k, val: k * val.denominator == val.numerator * n,
    )
    violations += _mismatches(
        "BasePointMismatch: vertex",
        hat.vertices,
        dict(bp.vertex_positions),
        lambda p, q: len(p) == len(q) and all(
            x.numerator * y.denominator == n * y.numerator * x.denominator for x, y in zip(p, q)),
    )

    # the map to the fan is cone by cone: each piece's closure lies in the
    # cone whose relative interior holds an interior point of the piece, so
    # the sign vectors of its ends, and of a ray's direction, are in that cone
    for piece in hat.edges + hat.rays:
        if isinstance(piece, BoundedEdge):
            u, w = piece.ends
            s, t, inner = vectors[u], vectors[w], map(add, values[u], values[w])  # 2 * midpoint
        else:
            d = [sum(map(mul, h, piece.direction)) for h in fan.hyperplanes]
            s, t = vectors[piece.base], signs(d)
            inner = [a + m * b for a, b in zip(values[piece.base], d)]  # base + direction
        if not in_cone(fan, _locate(fan, signs(inner)), s, t):
            violations.append(f"PieceNotInCone: {_echo(piece.id)}")
    for rid, d in check_recession_support(hat, fan).missing:
        violations.append(
            f"RecessionNotSupported: ray {_echo(rid)} direction {d} is no ray of the fan"
        )

    return CertificateCheck(ok=not violations, violations=tuple(violations))

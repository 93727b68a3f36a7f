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
from functools import partial
from math import gcd
from operator import itemgetter
from typing import NamedTuple

from .curves import TropicalCurve, require_balanced
from .errors import RecessionNotSupported, Unbalanced, _echo
from .latticefan import (
    Fan, IntVec, _locate, direction_values, hyperplane_values, not_in_support)
from .refine import _dilate, _ratios, _walk, check_recession_support


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
    ids = {v: f"C_{v}" for v in c.vertices}
    return DualCurve(
        tuple([_component((i, v)) for v, i in ids.items()]),
        tuple([_node((f"q_{e}", e, (ids[u], ids[w]))) for e, (u, w), _ in c.edges]),
        tuple([_marked((f"p_{r}", r, ids[b], k)) for r, b, _, k in c.rays]))


class NodeData(NamedTuple):
    edge: str
    k: int
    rho: int
    u_q: IntVec


_component, _node, _marked, _node_data = (  # records built by tuple's C constructor
    partial(tuple.__new__, k) for k in (Component, Node, MarkedPoint, NodeData))


class BasePoint(NamedTuple):
    """The curve as a monoid homomorphism: the original length/weight per edge and the
    positions, each value held as its numerator over the one ``denominator``."""

    edge_valuations: dict[str, int]
    vertex_positions: dict[str, IntVec]
    denominator: int


class RealizationCertificate(NamedTuple):
    """Combinatorial data certifying the map from the dual curve to the fan's quotient stack."""

    rescaled_curve: TropicalCurve
    multiplier: int
    fan: Fan
    vertex_cones: dict[str, int]  # vertex -> index into fan.cones
    vertex_stars: dict[str, tuple[IntVec, ...]]  # directions a refinement must contain
    dual: DualCurve
    node_data: tuple[NodeData, ...]
    base_point: BasePoint


class CertificateCheck(NamedTuple):
    ok: bool
    violations: tuple[str, ...]


def _stars(c: TropicalCurve) -> dict[str, tuple[IntVec, ...]]:
    """vertex -> its sorted outgoing primitive directions, in vertex order."""
    stars, data, back = {v: set() for v in c.vertices}, c._edge_data, {}
    for e, (u, w), _ in c.edges:
        stars[u].add(d := data[e][0])
        stars[w].add(back.get(d) or back.setdefault(d, tuple([-x for x in d])))
    for _, base, d, _ in c.rays:
        stars[base].add(d)
    return {v: tuple(sorted(ds)) for v, ds in stars.items()}


def _nodes(c: TropicalCurve, ratios: dict, n: int) -> dict:
    """Per bounded edge of ``c``, from its (d, p, q) in ``ratios``, its NodeData: k = n*p/q,
    an int where integral, rho its weight and u_q = -k*d."""
    nodes = {}
    for e, _, w in c.edges:
        d, p, q = ratios[e]
        k = x // q if (x := n * p) % q == 0 else Fraction(x, q)
        nodes[e] = _node_data((e, k, w, tuple([-k * y for y in d])))
    return nodes


def _state(hat: TropicalCurve, fan: Fan) -> tuple[dict, dict, dict]:
    """The stars, node data (N = 1) and sign vectors of a curve that certify did
    not hand ``_derive`` (read from JSON, copied or tampered), from the curve alone."""
    return _stars(hat), _nodes(hat, _ratios(hat), 1), hyperplane_values(fan, hat._image[1])[1]


def _derive(hat: TropicalCurve, fan: Fan, state: tuple | None = None
            ) -> tuple[dict, dict, DualCurve | None, dict, dict]:
    """The certificate fields that the rescaled curve and the fan fix: per
    vertex its star (sorted outgoing primitive directions); per bounded edge,
    NodeData (``_nodes``, N = 1), ints on a rescaled curve and exact rationals
    otherwise (a tampered certificate is compared, not refused); the dual
    curve, None if unbalanced; and per vertex its cell (``_locate``), closure
    mask and cone index (None outside the support), from its sign vector.
    Stars, node data and sign vectors are ``state``, which certify hands
    over (the input's stars, then the breaks'), else ``_state`` of the
    curve.  The curve keeps this read-only tuple, for that fan object only."""
    kept = vars(hat).get("_derived")
    if kept is not None and kept[0] is fan:
        return kept[1]
    try:
        dual = dual_curve(hat)
    except Unbalanced:
        dual = None
    stars, nodes, vectors = state or _state(hat, fan)
    masks, cones = {}, {}
    for v in hat.vertices:
        cones[v], masks[v] = _locate(fan, vectors[v])
    derived = stars, nodes, dual, masks, cones
    vars(hat)["_derived"] = fan, derived
    return derived


def _mismatches(label: str, derived: dict, claimed: dict) -> list[str]:
    """``label`` and the id, for each id that only one side holds or whose
    values differ: none at once if the dicts are equal."""
    if derived == claimed:
        return []
    return [f"{label} {_echo(i)}" for i in sorted(derived.keys() | claimed.keys())
            if i not in derived or i not in claimed or derived[i] != claimed[i]]


def certify(c: TropicalCurve, f: Fan) -> RealizationCertificate:
    """Run the preparation pipeline and assemble the realization certificate.

    Walks the curve against the fan (``refine._walk``) and dilates its integer
    points by the least N making every piece's length/weight p/q integral
    (``refine._dilate``); ``_nodes`` builds each piece's NodeData from the
    walk's ratios and N.  ``_derive`` packs these with the walk's sign vectors
    and the stars, the input's and the breaks', for verify.  The base point is
    the rescaled image (m, m*N*p) over D = m*N, valuations k*m: with m = 1 no
    Fraction is built.  Each per-id dict is the certificate's own, shared with
    nothing verify reads, each per-vertex one in the rescaled curve's vertex
    order.  The first vertex outside the support of the fan, in curve order,
    raises NotInSupport at its rescaled position.
    """
    require_balanced(c)
    support = check_recession_support(c, f)
    if not support.ok:
        raise RecessionNotSupported(
            f"ray directions {_echo([d for _, d in support.missing])} are not rays of the fan")
    out, signs, breaks, ratios, _ = _walk(c, f)
    hat, n = _dilate(out, ratios, out.vertices if breaks else None)
    nodes = _nodes(out, ratios, n)
    stars, nodes, dual, _, cones = _derive(hat, f, (_stars(c) | breaks, nodes, signs))
    if None in cones.values():
        raise not_in_support(hat.vertices[next(v for v, i in cones.items() if i is None)])
    m, image = hat._image
    return RealizationCertificate(
        hat, n, f, dict(cones), {v: stars[v] for v in hat.vertices}, dual, tuple(nodes.values()),
        BasePoint({e: nd.k * m for e, nd in nodes.items()}, dict(image), m * n))


def verify_certificate(cert: RealizationCertificate) -> CertificateCheck:
    """Refuse a multiplier or a k that is no positive int, a multiplier N > 1
    sharing a factor with every k (certify's N, the lcm of the denominators
    of length/weight, has gcd 1 with them), and every edge listed twice in
    ``node_data``; compare the rest, dict by dict, with ``_derive`` of the
    rescaled curve and fan (in process, the derivation certify packed), naming
    each id whose entry differs or is missing on one side, a vertex outside the
    support included.  N times the base point is the rescaled curve: its image
    (m, m*N*p) and k*m are the numerators over m*N, certify's denominator, and a
    base point over another is first put over m*N (over 0, matching nothing).  Then
    check the curve maps into the fan cone by cone, some closed cone holding
    both ends of each piece, a ray's base and direction (PieceNotInCone), with
    every ray direction a ray of the fan (RecessionNotSupported).  Each vertex's
    closure mask is read from ``_derive``, each ray direction's from its cell
    (``_locate``, memoized by ``direction_values``)."""
    violations: list[str] = []
    hat, n, fan = cert.rescaled_curve, cert.multiplier, cert.fan
    stars, nodes, dual, masks, cones = _derive(hat, fan)
    if dual is None:
        violations.append("Unbalanced: rescaled curve fails balancing")
    elif dual != cert.dual:
        violations.append("DualGraphMismatch: dual curve disagrees with the underlying graph")
    if not (type(n) is int and n >= 1):
        violations.append("MultiplierNotPositive: the multiplier must be a positive int")
    ids = Counter(map(itemgetter(0), cert.node_data))
    violations += [f"DuplicateEntry: node_data {_echo(e)}" for e in sorted(ids) if ids[e] > 1]

    m, image = hat._image
    ks = [nd.k for nd in nodes.values()]
    if type(n) is int and n > 1 and set(map(type, ks)) <= {int} and gcd(n, *ks) > 1:
        violations.append(
            "MultiplierNotLeast: a smaller multiplier makes every length/weight integral")
    violations += _mismatches("VertexConeMismatch: vertex", cones, cert.vertex_cones)
    violations += _mismatches("StarMismatch: vertex", stars, cert.vertex_stars)
    violations += _mismatches("NodeDataMismatch: edge", nodes, {
        nd.edge: nd for nd in cert.node_data if type(nd.k) is int and nd.k > 0})
    (vals, points, den), mn = cert.base_point, m * n
    if den != mn:  # each value over m*N; over a zero denominator, none matches
        over = (lambda x: x * Fraction(mn, den)) if den else (lambda x: None)
        vals = {e: over(x) for e, x in vals.items()}
        points = {v: tuple([over(x) for x in p]) for v, p in points.items()}
    violations += _mismatches("BasePointMismatch: edge", {e: nd.k * m for e, nd in nodes.items()},
                              vals)
    violations += _mismatches("BasePointMismatch: vertex", image, points)

    # the map to the fan is cone by cone: a piece lies in a closed cone iff
    # both its ends do (a ray's base and direction), as cones are convex
    directions = direction_values(fan, {r.direction for r in hat.rays})
    ends = [(e, masks[u], masks[w]) for e, (u, w), _ in hat.edges]
    ends += [(r, masks[b], _locate(fan, directions[d][1])[1]) for r, b, d, _ in hat.rays]
    violations += [f"PieceNotInCone: {_echo(pid)}" for pid, s, t in ends if not s & t]
    violations += [f"RecessionNotSupported: ray {_echo(rid)} direction {_echo(d)} "
                   "is no ray of the fan"
                   for rid, d in check_recession_support(hat, fan).missing]

    return CertificateCheck(ok=not violations, violations=tuple(violations))

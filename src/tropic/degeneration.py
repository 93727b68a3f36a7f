"""Special-fiber combinatorics: node parameters and slopes, and assembly and
verification of the realization certificate, the map from a nodal curve to
the toric Artin fan.

The certificate states that map once.  Its nodal curve is the rescaled
curve's graph: a component per vertex, a node per bounded edge, and a marked
point per ray, whose weight is its contact order (``dual_curve`` builds these
as records).  Its base point is the rescaled curve over the multiplier N,
each edge's original length/weight k/N.  The certificate records, per
bounded edge e of the prepared curve, the integer k = length/weight, the
weight rho, and the integer node slope u_q = (position(v1) - position(v2))
/ rho = -k*d, where (v1, v2) is the stored endpoint order of e and d the
primitive direction from v1 to v2.  Flipping the orientation negates u_q;
the stored order is the documented convention.
"""

from collections import Counter
from fractions import Fraction
from functools import partial
from math import gcd
from operator import itemgetter
from typing import NamedTuple

from .curves import TropicalCurve, is_balanced, require_balanced
from .errors import RecessionNotSupported, _echo
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


class RealizationCertificate(NamedTuple):
    """The map from the nodal curve to the fan's quotient stack, stated once: the
    rescaled curve, whose graph is the nodal curve's dual graph and which over
    N is the original curve, the fan, N, each vertex's cone and each node's data."""

    rescaled_curve: TropicalCurve
    multiplier: int
    fan: Fan
    vertex_cones: dict[str, int]  # vertex -> index into fan.cones
    node_data: tuple[NodeData, ...]


class CertificateCheck(NamedTuple):
    ok: bool
    violations: tuple[str, ...]


def _nodes(c: TropicalCurve, ratios: dict, n: int) -> dict:
    """Per bounded edge of ``c``, from its (d, p, q) in ``ratios``, its NodeData: k = n*p/q,
    an int where integral, rho its weight and u_q = -k*d."""
    nodes = {}
    for e, _, w in c.edges:
        d, p, q = ratios[e]
        k = x // q if (x := n * p) % q == 0 else Fraction(x, q)
        nodes[e] = _node_data((e, k, w, tuple([-k * y for y in d])))
    return nodes


def _state(hat: TropicalCurve, fan: Fan) -> tuple[dict, dict]:
    """The node data (N = 1) and sign vectors of a curve that certify did not
    hand ``_derive`` (read from JSON, copied or tampered), from the curve alone."""
    return _nodes(hat, _ratios(hat), 1), hyperplane_values(fan, hat._image[1])[1]


def _derive(hat: TropicalCurve, fan: Fan, state: tuple | None = None
            ) -> tuple[dict, dict, dict]:
    """The certificate fields that the rescaled curve and the fan fix: per
    bounded edge, NodeData (``_nodes``, N = 1), ints on a rescaled curve and
    exact rationals otherwise (a tampered certificate is compared, not
    refused); and per vertex its cell (``_locate``), closure mask and cone
    index (None outside the support), from its sign vector.  Node data and
    sign vectors are ``state``, which certify hands over (the walk's), else
    ``_state`` of the valid curve.  The curve keeps this read-only tuple, for
    that fan object only."""
    kept = vars(hat).get("_derived")
    if kept is not None and kept[0] is fan:
        return kept[1]
    nodes, vectors = state or _state(hat, fan)
    masks, cones, located = {}, {}, fan._located
    for v in hat.vertices:
        cones[v], masks[v] = located.get(key := vectors[v]) or _locate(fan, key)
    derived = nodes, masks, cones
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

    Walks the curve against the fan (``refine._walk``), which hands over its
    breaks' parameters and pieces, not a subdivided curve; ``refine._dilate``
    writes the rescaled curve from these and the input's image, dilated by the
    least N making every piece's length/weight p/q integral, and ``_nodes``
    builds each piece's NodeData from the walk's ratios and N.  ``_derive``
    packs these with the walk's sign vectors, for verify.  The nodal curve and
    the base point are not built: they are the rescaled curve's graph and the
    rescaled curve over N.  The vertex cones are the certificate's own dict,
    shared with nothing verify reads, in the rescaled curve's vertex order.
    The first vertex outside the support of the fan, in curve order, raises
    NotInSupport at its rescaled position.
    """
    require_balanced(c)
    support = check_recession_support(c, f)
    if not support.ok:
        raise RecessionNotSupported(
            f"ray directions {_echo([d for _, d in support.missing])} are not rays of the fan")
    walk = _walk(c, f)
    hat, n = _dilate(c, walk.ratios, walk)
    nodes, _, cones = _derive(hat, f, (_nodes(hat, walk.ratios, n), walk.signs))
    if None in cones.values():
        raise not_in_support(hat.vertices[next(v for v, i in cones.items() if i is None)])
    return RealizationCertificate(hat, n, f, dict(cones), tuple(nodes.values()))


def verify_certificate(cert: RealizationCertificate) -> CertificateCheck:
    """Refuse an unbalanced rescaled curve, a multiplier or a k that is no
    positive int, a multiplier N > 1 sharing a factor with every k, and every
    edge listed twice in ``node_data``.  The certified curve is the rescaled
    curve over N, so N must be the least that makes its length/weights
    integral: certify's N, the lcm of their denominators, has gcd 1 with the
    ks.  Compare the vertex cones and node data, dict by dict, with
    ``_derive`` of the rescaled curve and fan (in process, the derivation
    certify packed), naming each id whose entry differs or is missing on one
    side, a vertex outside the support included.  Then check the curve maps
    into the fan cone by cone, some closed cone holding both ends of each
    piece, a ray's base and direction (PieceNotInCone), with every ray
    direction a ray of the fan (RecessionNotSupported).  Each vertex's
    closure mask is read from ``_derive``, each ray direction's from its cell
    (``_locate``, memoized by ``direction_values``)."""
    violations: list[str] = []
    hat, n, fan = cert.rescaled_curve, cert.multiplier, cert.fan
    if not is_balanced(hat).balanced:
        violations.append("Unbalanced: rescaled curve fails balancing")
    nodes, masks, cones = _derive(hat, fan)
    if not (type(n) is int and n >= 1):
        violations.append("MultiplierNotPositive: the multiplier must be a positive int")
    if len(set(map(itemgetter(0), cert.node_data))) < len(cert.node_data):  # else none repeats
        ids = Counter(map(itemgetter(0), cert.node_data))
        violations += [f"DuplicateEntry: node_data {_echo(e)}" for e in sorted(ids) if ids[e] > 1]

    ks = [nd.k for nd in nodes.values()]
    if type(n) is int and n > 1 and set(map(type, ks)) <= {int} and gcd(n, *ks) > 1:
        violations.append(
            "MultiplierNotLeast: a smaller multiplier makes every length/weight integral")
    violations += _mismatches("VertexConeMismatch: vertex", cones, cert.vertex_cones)
    violations += _mismatches("NodeDataMismatch: edge", nodes, {
        nd.edge: nd for nd in cert.node_data if type(nd.k) is int and nd.k > 0})

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

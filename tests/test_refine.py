from fractions import Fraction

import pytest

from helpers import gen, primitive_box_fan, random_tree, reference_subdivide
from tropic import fixtures
from tropic.curves import (
    BoundedEdge,
    TropicalCurve,
    edge_data,
    genus,
    is_balanced,
    recession_fan,
    validate,
)
from tropic.errors import DimMismatch, InvalidCurve, TropicError
from tropic.latticefan import dot, fan_from_maximal
from tropic.refine import (
    check_recession_support,
    rescale_integral,
    subdivide_along_fan,
)


def test_recession_support_examples():
    assert check_recession_support(fixtures.tripod(), fixtures.fan_p2()).ok
    report = check_recession_support(fixtures.tripod(), fixtures.fan_p1xp1())
    assert not report.ok
    assert report.missing == (("r2", (-1, -1)),)
    assert check_recession_support(fixtures.segfan(), fixtures.fan_p1xp1()).ok


def test_recession_support_dim_mismatch():
    with pytest.raises(DimMismatch):
        check_recession_support(fixtures.speyer3(), fixtures.fan_p2())


def test_subdivide_line_unchanged():
    record = subdivide_along_fan(fixtures.line(), fixtures.fan_p2())
    assert not record.new_vertices
    assert record.output == fixtures.line()


def test_subdivide_tripod_unchanged():
    record = subdivide_along_fan(fixtures.tripod(), fixtures.fan_p2())
    assert not record.new_vertices


def test_subdivide_diag_cuts_at_origin():
    record = subdivide_along_fan(fixtures.diag(), fixtures.fan_p2())
    assert len(record.new_vertices) == 1
    nv = record.new_vertices[0]
    assert nv.host == "e0" and nv.host_kind == "edge"
    assert record.output.vertices[nv.id] == (Fraction(0), Fraction(0))
    assert len(record.output.edges) == 2
    # the two sides of the crossing sit in different cones
    assert nv.cone_before != nv.cone_after


def _support_pieces_by_host(c, record):
    hosts: dict[str, list[str]] = {}
    for piece_id in record.piece_cones:
        host = piece_id.split(":", 1)[0] if ":" in piece_id else piece_id
        hosts.setdefault(host, []).append(piece_id)
    return hosts


SUBDIVISION_CASES = [(name, "fan_p2") for name in
                     ("line", "tripod", "unbal", "segfan", "cycle3", "diag", "ratio")]
SUBDIVISION_CASES += [("speyer3", "fan_r3"), ("speyer3_ws", "fan_r3_ws")]


@pytest.mark.parametrize("curve_name,fan_name", SUBDIVISION_CASES)
def test_subdivision_invariants(curve_name, fan_name):
    c = fixtures.CURVES[curve_name]()
    fan = fixtures.FANS[fan_name]()
    record = subdivide_along_fan(c, fan)
    out = record.output

    # balancing verdict, genus, recession fan preserved
    assert is_balanced(out).balanced == is_balanced(c).balanced
    assert genus(out) == genus(c)
    assert recession_fan(out).rays() == recession_fan(c).rays()

    # support preserved: pieces of each host chain across it with equal
    # direction, and their lattice lengths sum to the host length
    hosts = _support_pieces_by_host(c, record)
    for e in c.edges:
        pieces = sorted(hosts[e.id])
        d_host, l_host = edge_data(c, e.id)
        total = Fraction(0)
        for pid in pieces:
            d, l = edge_data(out, pid)
            assert d == d_host
            assert next(p for p in out.edges if p.id == pid).weight == e.weight
            total += l
        assert total == l_host
    for r in c.rays:
        pieces = hosts[r.id]
        tails = [p for p in out.rays if p.id in pieces]
        assert len(tails) == 1
        assert tails[0].direction == r.direction and tails[0].weight == r.weight

    # new vertices are exactly 2-valent
    for nv in record.new_vertices:
        incident = [e for e in out.edges if nv.id in e.ends]
        incident_rays = [r for r in out.rays if r.base == nv.id]
        assert len(incident) + len(incident_rays) == 2

    # idempotence
    again = subdivide_along_fan(out, fan)
    assert not again.new_vertices
    assert again.output == out


def test_rescale_examples():
    out, n = rescale_integral(fixtures.segfan())
    assert n == 1 and out == fixtures.segfan()

    half = TropicalCurve.build(
        2,
        {"a": (0, 0), "b": (Fraction(1, 2), 0)},
        edges=[("e0", ("a", "b"), 1)],
        rays=[("r0", "a", (-1, 0), 1), ("r1", "b", (1, 0), 1)],
    )
    out, n = rescale_integral(half)
    assert n == 2
    assert edge_data(out, "e0")[1] == 1


def test_rescale_ratio_fixture():
    out, n = rescale_integral(fixtures.ratio_path())
    assert n == 12  # lcm of denominators 4 and 6
    assert edge_data(out, "e0")[1] == 9
    assert edge_data(out, "e1")[1] == 10
    assert is_balanced(out).balanced
    # combinatorial type untouched
    assert [e.id for e in out.edges] == [e.id for e in fixtures.ratio_path().edges]
    assert out.rays == fixtures.ratio_path().rays


def test_rescale_commutes_with_subdivision_up_to_scale():
    half_diag = TropicalCurve.build(
        2,
        {"a": (Fraction(-1, 2), Fraction(-1, 2)), "b": (Fraction(1, 2), Fraction(1, 2))},
        edges=[("e0", ("a", "b"), 1)],
        rays=[("r-", "a", (-1, -1), 1), ("r+", "b", (1, 1), 1)],
    )
    fan = fixtures.fan_p2()
    a = rescale_integral(subdivide_along_fan(half_diag, fan).output)[0]
    b = subdivide_along_fan(rescale_integral(half_diag)[0], fan).output
    assert sorted(a.vertices) == sorted(b.vertices)
    assert [(e.id, e.ends, e.weight) for e in a.edges] == [
        (e.id, e.ends, e.weight) for e in b.edges
    ]
    assert a.rays == b.rays
    # positions agree up to one global positive rational factor
    ref = next(v for v in a.vertices if any(a.vertices[v]))
    num = next(x for x in a.vertices[ref] if x)
    den = next(x for x in b.vertices[ref] if x)
    factor = num / den
    assert factor > 0
    for v in a.vertices:
        assert a.vertices[v] == tuple(factor * x for x in b.vertices[v])


def test_subdivision_with_multiple_crossings():
    # segment crossing two different walls of the axis fan at distinct points
    c = TropicalCurve.build(
        2,
        {"a": (-3, 1), "b": (3, -2)},
        edges=[("e0", ("a", "b"), 1)],
        rays=[("r-", "a", (-2, 1), 1), ("r+", "b", (2, -1), 1)],
    )
    assert is_balanced(c).balanced
    record = subdivide_along_fan(c, fixtures.fan_p1xp1())
    assert len(record.new_vertices) == 2
    positions = [record.output.vertices[v.id] for v in record.new_vertices]
    assert positions == [(Fraction(-1), Fraction(0)), (Fraction(0), Fraction(-1, 2))]
    assert len(record.output.edges) == 3
    # total lattice length preserved across the three pieces
    total = sum((edge_data(record.output, e.id)[1] for e in record.output.edges), Fraction(0))
    assert total == edge_data(c, "e0")[1]
    again = subdivide_along_fan(record.output, fixtures.fan_p1xp1())
    assert not again.new_vertices


def test_subdivision_of_ray_with_crossing():
    # ray from inside a cone pointing along a fan ray of the diagonal fan:
    # it first exits through a wall, then runs inside another cone
    c = TropicalCurve.build(
        2,
        {"a": (3, 1), "b": (4, 1)},
        edges=[("e0", ("a", "b"), 1)],
        rays=[
            ("r0", "a", (-1, 0), 1),
            ("r1", "b", (1, 1), 1),
            ("r2", "b", (0, -1), 1),
            ("r3", "a", (-1, 1), 1),
            ("r4", "a", (1, -1), 1),
        ],
    )
    assert is_balanced(c).balanced
    fan = fixtures.fan_diag()
    record = subdivide_along_fan(c, fan)
    # r0 from (3,1) heading west crosses the walls y=x and y=-x at (1,1) and
    # (-1,1); r2 from (4,1) heading south crosses y=-x at (4,-4)
    by_host = {}
    for v in record.new_vertices:
        by_host.setdefault(v.host, []).append(record.output.vertices[v.id])
    assert by_host["r0"] == [(Fraction(1), Fraction(1)), (Fraction(-1), Fraction(1))]
    assert by_host["r2"] == [(Fraction(4), Fraction(-4))]
    # every piece must sit in one cone (the library verifies; re-verify here)
    out = record.output
    for e in out.edges:
        cone = fan.cones[record.piece_cones[e.id]]
        from tropic.latticefan import cone_contains

        assert cone_contains(cone, out.position(e.ends[0]))
        assert cone_contains(cone, out.position(e.ends[1]))
    for r in out.rays:
        cone = fan.cones[record.piece_cones[r.id]]
        from tropic.latticefan import cone_contains

        assert cone_contains(cone, out.position(r.base))
        assert cone_contains(cone, r.direction)
    again = subdivide_along_fan(out, fan)
    assert not again.new_vertices


def test_subdivision_fuzz_random_balanced_trees():
    import random as _random

    from tropic.curves import validate

    rng = _random.Random(97)
    fans = {2: fixtures.fan_p2(), 3: fixtures.fan_r3()}
    for i in range(20):
        dim = 2 if i % 2 == 0 else 3
        tree = random_tree(rng, dim, max_vertices=4)
        fan = fans[dim]
        record = subdivide_along_fan(tree, fan)
        out = record.output
        assert validate(out).valid
        assert is_balanced(out).balanced
        assert genus(out) == 0
        assert recession_fan(out).rays() == recession_fan(tree).rays()
        for nv in record.new_vertices:
            incident = [e for e in out.edges if nv.id in e.ends]
            incident += [r for r in out.rays if r.base == nv.id]
            assert len(incident) == 2
        again = subdivide_along_fan(out, fan)
        assert not again.new_vertices, (i, dim)


def test_fan_hyperplanes_are_deduplicated_up_to_sign():
    assert fixtures.fan_p2().hyperplanes == ((0, 1), (1, -1), (1, 0))
    box = primitive_box_fan()
    assert len(box.cones) == 33
    # 16 rays, one line through each opposite pair
    assert box.hyperplanes == ((0, 1), (1, -2), (1, -1), (1, 0), (1, 1), (1, 2), (2, -1), (2, 1))


def _assert_matches_reference(c, fan):
    try:
        expected = reference_subdivide(c, fan)
    except TropicError as ex:
        with pytest.raises(type(ex)):
            subdivide_along_fan(c, fan)
        return
    assert subdivide_along_fan(c, fan) == expected


def test_walker_matches_reference_on_fixtures():
    for curve_name, curve in fixtures.CURVES.items():
        for fan_name, fan in fixtures.FANS.items():
            c, f = curve(), fan()
            if c.ambient_dim == f.ambient_dim:
                _assert_matches_reference(c, f)


def test_walker_matches_reference_on_random_trees():
    import random as _random

    rng = _random.Random(2718)
    fans = [primitive_box_fan(), fixtures.fan_p2(), fixtures.fan_diag(), fixtures.fan_r3()]
    broken = 0
    for i in range(48):
        fan = fans[i % len(fans)]
        tree = random_tree(rng, fan.ambient_dim, max_vertices=6)
        _assert_matches_reference(tree, fan)
        broken += bool(reference_subdivide(tree, fan).new_vertices)
    assert broken >= 24  # most trees cross walls, so the pieces are compared too


def test_walker_is_exact_where_the_lcm_of_a_host_crossings_is_large():
    # a host's crossing at t = |a|/|b| is keyed by the integer |a|*(L/|b|),
    # L the lcm of its |b|: on a fan with 24 hyperplanes, trees translated by
    # offsets with 6-digit denominators, and a line whose ray (3, 2) crosses
    # hyperplanes with pairwise-coprime |b| 1, 2, 3, 5 and 11 (L = 330)
    import random as _random

    from helpers import translated
    from tropic.degeneration import certify, verify_certificate

    rng = _random.Random(1729)
    fan = primitive_box_fan(4)
    assert len(fan.hyperplanes) == 24
    curves = [TropicalCurve.build(2, {"v0": (3, -1)}, [], [("r0", "v0", (3, 2), 1),
                                                           ("r1", "v0", (-3, -2), 1)])]
    for _ in range(6):
        offset = [Fraction(rng.randint(-10**6, 10**6), rng.randint(10**5, 10**6)) for _ in "xy"]
        curves.append(translated(random_tree(rng, 2, max_vertices=6), offset))
    breaks = 0
    for c in curves:
        record = subdivide_along_fan(c, fan)
        assert record == reference_subdivide(c, fan)
        out = record.output
        fresh = TropicalCurve(2, out.vertices, out.edges, out.rays)
        assert out._edge_data == {e.id: edge_data(fresh, e.id) for e in fresh.edges}
        assert verify_certificate(certify(c, fan)).ok
        breaks += len(record.new_vertices)
    assert [v.host for v in subdivide_along_fan(curves[0], fan).new_vertices].count("r0") == 5
    assert breaks >= 200, breaks


def _rich_trees(seed):
    """Seeded trees on each of perfbench's rich fans, which share one Fan per dimension."""
    import random as _random

    rng = _random.Random(seed)
    for spec, sizes in ((gen.rich_fan_r2, (4, 10, 24)), (gen.rich_fan_r3, (4, 12))):
        rays, maximal, dim = spec()
        fan = fan_from_maximal(rays, maximal, dim)
        yield fan, [TropicalCurve.build(*gen.tree(rng, dim, n, rays)) for n in sizes * 2]


def test_walker_matches_reference_on_rich_fans_with_a_full_memo():
    for fan, trees in _rich_trees(41):
        expected = [reference_subdivide(tree, fan) for tree in trees]
        assert sum(bool(r.new_vertices) for r in expected) >= len(trees) // 2
        for _ in range(2):  # the second pass reads every sign vector from the memo
            assert [subdivide_along_fan(tree, fan) for tree in trees] == expected


def _walk(curve, fan):
    """The subdivision, checked against the reference: (new vertex positions,
    generators of the cone of each piece, by piece id)."""
    record = subdivide_along_fan(curve, fan)
    assert record == reference_subdivide(curve, fan)
    positions = [record.output.vertices[v.id] for v in record.new_vertices]
    cones = {p: fan.cones[i].generators for p, i in record.piece_cones.items()}
    return positions, cones


def _path(*points, rays=()):
    """A path through ``points`` (edges e0, e1, ...) with rays (base index, direction)."""
    return TropicalCurve.build(
        2,
        {f"v{i}": p for i, p in enumerate(points)},
        edges=[(f"e{i}", (f"v{i}", f"v{i + 1}"), 1) for i in range(len(points) - 1)],
        rays=[(f"r{k}", f"v{i}", d, 1) for k, (i, d) in enumerate(rays)],
    )


def test_walker_edge_cases():
    half = Fraction(1, 2)
    # an edge inside the wall y = 0 (a = b = 0 there), crossing x = 0 at the origin
    assert _walk(_path((-1, 0), (2, 0)), fixtures.fan_p1xp1()) == (
        [(0, 0)], {"e0:0": ((-1, 0),), "e0:1": ((1, 0),)})
    # an edge starting on the hyperplane x = 0 (a = 0): its first interval has sign(b)
    assert _walk(_path((0, 1), (-2, -1)), fixtures.fan_p1xp1()) == (
        [(-1, 0)], {"e0:0": ((-1, 0), (0, 1)), "e0:1": ((-1, 0), (0, -1))})
    assert _walk(_path((0, half), (3, 2)), fixtures.fan_p1xp1()) == (
        [], {"e0": ((0, 1), (1, 0))})
    # a ray through the origin, inside the hyperplane x = y, crossing x = 0 and y = 0 at once
    assert _walk(_path((-1, -1), rays=[(0, (1, 1))]), fixtures.fan_p2()) == (
        [(0, 0)], {"r0:0": ((-1, -1),), "r0:1": ((0, 1), (1, 0))})
    # a ray whose tail follows its last cut: through the wall x = 0 into the next cone
    assert _walk(_path((2, 1), rays=[(0, (-1, 0))]), fixtures.fan_p1xp1()) == (
        [(0, 1)], {"r0:0": ((0, 1), (1, 0)), "r0:1": ((-1, 0), (0, 1))})
    # ... and one whose last cut is spurious: x = y extends a wall of fan_p2 through a cone
    assert _walk(_path((1, 3), rays=[(0, (1, 0))]), fixtures.fan_p2()) == (
        [], {"r0": ((0, 1), (1, 0))})


def test_second_subdivision_on_a_fan_locates_no_point(monkeypatch):
    from helpers import count_pattern_scans
    from tropic import latticefan, refine

    locates = []
    locate = latticefan.smallest_containing_cone

    def counting_locate(f, p):
        locates.append(p)
        return locate(f, p)

    for module in (latticefan, refine):
        if hasattr(module, "smallest_containing_cone"):
            monkeypatch.setattr(module, "smallest_containing_cone", counting_locate)
    for fan, trees in _rich_trees(43):
        scans = count_pattern_scans(fan)
        rounds = []
        for _ in range(2):
            scans.clear()
            locates.clear()
            records = [subdivide_along_fan(tree, fan) for tree in trees]
            rounds.append((len(scans), len(locates)))
        assert rounds[0][0] > 0 and rounds[1] == (0, 0), rounds
        assert any(r.new_vertices for r in records)


def _honeycombs_on_p2(seed):
    """Seeded honeycombs of degree 3-6 around the origin, so that many hosts
    cross a wall of the P^2 fan, and a warm Fan of that fan."""
    import random as _random

    rng = _random.Random(seed)
    fan = fan_from_maximal(*gen.fan_p2())
    curves = []
    for d in (3, 4, 5, 6):
        offset = (Fraction(rng.randint(-40, 40), 7), Fraction(rng.randint(-40, 40), 5))
        curves.append(TropicalCurve.build(*gen.honeycomb(d, 2, offset)))
    for c in curves:
        subdivide_along_fan(c, fan)
    return curves, fan


def test_walker_signs_each_input_vertex_once(monkeypatch):
    # one sign vector per input vertex and one per host (its direction's,
    # which also gives the first interval's); a new vertex takes its vector
    # from the sweep, that of the interval before it with the hyperplanes
    # crossing there set to 0, so the walk signs no break.  signs is counted
    # wherever a tropic module binds it, as the vertices are signed in latticefan
    import sys

    from tropic.latticefan import signs

    calls = []

    def counting(values):
        calls.append(None)
        return signs(values)

    for module in [m for k, m in sys.modules.items() if k.startswith("tropic.")]:
        if getattr(module, "signs", None) is signs:
            monkeypatch.setattr(module, "signs", counting)
    curves, fan = _honeycombs_on_p2(13)
    for c in curves:
        calls.clear()
        record = subdivide_along_fan(c, fan)
        hosts = len(c.edges) + len(c.rays)
        assert len(calls) == len(c.vertices) + hosts
        assert record == reference_subdivide(c, fan)
    assert any(subdivide_along_fan(c, fan).new_vertices for c in curves)


def test_walker_builds_fractions_only_for_kept_breaks_and_their_pieces(monkeypatch):
    # each host of the honeycombs is walked as a curve of its own, with every
    # Fraction that refine builds counted.  Crossings are keyed by integers,
    # so a host builds exactly dim Fractions per kept break (its position)
    # and, if it breaks at all, one per bounded piece (its length); a host
    # with no kept break, whether it crosses no hyperplane or only spurious
    # extensions of a wall, builds none and keeps its own length object
    from tropic import refine

    built = []

    def counting(*args):
        built.append(args)
        return Fraction(*args)

    monkeypatch.setattr(refine, "Fraction", counting)
    curves, fan = _honeycombs_on_p2(13)
    seen = {"no crossing": 0, "spurious only": 0, "breaks": 0}
    for c in curves:
        for h in c.edges + c.rays:
            if isinstance(h, BoundedEdge):
                ends = [c.vertices[v] for v in h.ends]
                alone = TropicalCurve.build(2, dict(zip(h.ends, ends)), [(h.id, h.ends, h.weight)])
            else:
                ends = [c.vertices[h.base], h.direction]  # n.base and n.d of opposite signs
                alone = TropicalCurve.build(2, {h.base: ends[0]}, [], [tuple(h)])
            crosses = any(dot(n, ends[0]) * dot(n, ends[1]) < 0 for n in fan.hyperplanes)
            breaks = len(reference_subdivide(alone, fan).new_vertices)
            pieces = breaks + 1 if isinstance(h, BoundedEdge) else breaks
            built.clear()
            out = subdivide_along_fan(alone, fan).output
            assert len(built) == (2 * breaks + pieces if breaks else 0), h
            if not breaks and h.id in out._edge_data:
                assert out._edge_data[h.id][1] is edge_data(alone, h.id)[1]
            seen["breaks" if breaks else "spurious only" if crosses else "no crossing"] += 1
    assert min(seen.values()) >= 10, seen


def test_subdivision_refuses_to_reuse_reserved_ids():
    # the diag fixture with one id renamed: e0 from (-1,-1) to (1,1) crosses
    # the origin, so subdivision creates vertex e0#1 and pieces e0:0, e0:1
    def diag(a="a", ray="r+"):
        return TropicalCurve.build(
            2,
            {a: (-1, -1), "b": (1, 1)},
            edges=[("e0", (a, "b"), 1)],
            rays=[("r-", a, (-1, -1), 1), (ray, "b", (1, 1), 1)],
        )

    assert subdivide_along_fan(diag(), fixtures.fan_p2()).output.vertices["e0#1"] == (0, 0)
    for curve, clash in ((diag(a="e0#1"), "'e0#1'"), (diag(ray="e0:1"), "'e0:1'")):
        with pytest.raises(InvalidCurve, match=clash):
            subdivide_along_fan(curve, fixtures.fan_p2())


def _inheritance_cases():
    """Every fixture x fan pair of one dimension, and seeded trees with 4 to 24
    vertices on perfbench's rich fans, every second one unbalanced by raising
    one ray's weight."""
    import random as _random

    for curve in fixtures.CURVES.values():
        for fan in fixtures.FANS.values():
            c, f = curve(), fan()
            if c.ambient_dim == f.ambient_dim:
                yield c, f
    rng = _random.Random(1212)
    for spec in (gen.rich_fan_r2, gen.rich_fan_r3):
        rays, maximal, dim = spec()
        fan = fan_from_maximal(rays, maximal, dim)
        for i, size in enumerate((4, 8, 12, 16, 20, 24) * 2):
            _, vertices, edges, tree_rays = gen.tree(rng, dim, size, rays)
            if i % 2:
                k = rng.randrange(len(tree_rays))
                rid, base, d, w = tree_rays[k]
                tree_rays[k] = (rid, base, d, w + 1)
            yield TropicalCurve.build(dim, vertices, edges, tree_rays), fan


def test_subdivided_and_rescaled_curves_inherit_what_a_fresh_curve_computes():
    # the curves subdivide_along_fan and rescale_integral build carry their
    # edge data, validation verdict and balancing report from the curve they
    # came from; each must equal what a fresh curve of the same fields computes
    seen = {"cases": 0, "unbalanced": 0, "split": 0, "rescaled": 0}
    for c, f in _inheritance_cases():
        is_balanced(c)  # as certify does, so there is a report to hand over
        try:
            record = subdivide_along_fan(c, f)
        except TropicError:
            continue
        prepared = record.output
        hat, n = rescale_integral(prepared)
        for out in (prepared, hat):
            assert {"_validation", "_balance", "_edge_data"} <= vars(out).keys()
            fresh = TropicalCurve(out.ambient_dim, out.vertices, out.edges, out.rays)
            assert validate(out) == validate(fresh)
            assert is_balanced(out) == is_balanced(fresh)  # defects in order
            assert out._edge_data == {e.id: edge_data(fresh, e.id) for e in fresh.edges}
        seen["cases"] += 1
        seen["unbalanced"] += not is_balanced(c).balanced
        seen["split"] += bool(record.new_vertices)
        seen["rescaled"] += n > 1
    assert seen["cases"] >= 34 and min(seen.values()) >= 5, seen

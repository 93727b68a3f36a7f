from fractions import Fraction

import pytest

from helpers import (
    edge_lengths, gen, primitive_box_fan, random_tree, reference_subdivide, translated)
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
from tropic.latticefan import dot, fan_from_maximal, integer_image
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


def test_an_integral_rescale_has_int_coordinates_and_is_handed_its_image():
    # the rescaled curve's image (m/g, (N/g) * m p), g = gcd(N, m), is handed
    # over and equals the one its coordinates give, both holding tuples; with
    # m/g = 1 each coordinate is that int, and the vertices are the image's
    # own dict, otherwise an int where integral and a Fraction over m/g
    # elsewhere, as the walk's breaks (``_point_at``).  The fields keep the input's
    # sorted order.  Lengths stay Fractions, so length / weight stays exact
    from tropic.latticefan import integer_image

    half = TropicalCurve.build(
        2,
        {"a": (0, 0), "b": (Fraction(1, 2), 0)},
        edges=[("e0", ("a", "b"), 1)],
        rays=[("r0", "a", (-1, 0), 1), ("r1", "b", (1, 0), 1)],
    )
    third = TropicalCurve.build(  # root (1/2, 0), one edge of length 1/3: N = 3, m = 6
        2,
        {"a": (Fraction(1, 2), 0), "b": (Fraction(5, 6), 0)},
        edges=[("e0", ("a", "b"), 1)],
        rays=[("r0", "a", (-1, 0), 1), ("r1", "b", (1, 0), 1)],
    )
    for c, n, m, positions in (
        (half, 2, 1, {"a": (0, 0), "b": (1, 0)}),
        (third, 3, 2, {"a": (Fraction(3, 2), 0), "b": (Fraction(5, 2), 0)}),
        (fixtures.ratio_path(), 12, 1, None),
    ):
        hat, multiplier = rescale_integral(c)
        assert multiplier == n
        assert "_image" in vars(hat) and hat._image == integer_image(hat.vertices)
        assert hat._image[0] == m and {type(q) for q in hat._image[1].values()} == {tuple}
        assert (hat.vertices is hat._image[1]) == (m == 1)
        assert list(hat.vertices) == sorted(hat.vertices) and hat == TropicalCurve(*hat)
        assert all(type(x) is (int if x.denominator == 1 else Fraction)
                   for p in hat.vertices.values() for x in p)
        assert m == 1 or any(type(x) is Fraction for p in hat.vertices.values() for x in p)
        assert positions is None or hat.vertices == positions
        assert hat.vertices == {v: tuple(n * x for x in p) for v, p in c.vertices.items()}
        for e in hat.edges:
            length = edge_data(hat, e.id)[1]
            assert type(length) is Fraction and length.denominator == 1
            assert type(length / e.weight) is Fraction
        assert hat == TropicalCurve.build(hat.ambient_dim, hat.vertices,
                                          [tuple(e) for e in hat.edges],
                                          [tuple(r) for r in hat.rays])


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
    factor = Fraction(num, den)  # either may be an int on a rescaled curve
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
        assert edge_lengths(out) == {e.id: edge_data(fresh, e.id) for e in fresh.edges}
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


def test_integral_break_coordinates_are_ints_and_change_no_comparison_or_json():
    # a break coordinate that is integral is a plain int, which equals and
    # hashes as the Fraction the reference walker builds: the subdivided
    # curve compares equal to the reference's all-Fraction one and writes the
    # same JSON, and so does the rescaled curve made from each
    from tropic.jsonio import curve_to_dict, dumps

    kinds = {int: 0, Fraction: 0}
    for fan, trees in _rich_trees(43):
        for tree in trees:
            out, expected = subdivide_along_fan(tree, fan).output, reference_subdivide(tree, fan)
            assert out == expected.output
            assert dumps(curve_to_dict(out)) == dumps(curve_to_dict(expected.output))
            for v in expected.new_vertices:
                assert hash(out.vertices[v.id]) == hash(expected.output.vertices[v.id])
                for x in out.vertices[v.id]:
                    assert type(x) is (int if x.denominator == 1 else Fraction)
                    kinds[type(x)] += 1
            hat, expected_hat = rescale_integral(out)[0], rescale_integral(expected.output)[0]
            assert hat == expected_hat
            assert dumps(curve_to_dict(hat)) == dumps(curve_to_dict(expected_hat))
    assert kinds[int] >= 100 and kinds[Fraction] >= 100, kinds


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
    # an edge ending exactly on the wall x = 0 (A_w = 0): no crossing, no break
    assert _walk(_path((1, 1), (0, 2)), fixtures.fan_p1xp1()) == (
        [], {"e0": ((0, 1), (1, 0))})
    # edges whose two ends lie on one hyperplane: x = y, spurious inside the
    # positive quadrant of fan_p2, and the wall x = 0, crossing y = 0 at the origin
    assert _walk(_path((1, 1), (3, 3)), fixtures.fan_p2()) == (
        [], {"e0": ((0, 1), (1, 0))})
    assert _walk(_path((0, -1), (0, 2)), fixtures.fan_p1xp1()) == (
        [(0, 0)], {"e0:0": ((0, -1),), "e0:1": ((0, 1),)})
    # a ray based on the wall x = 0 pointing away from it, and one with its
    # direction inside that wall, which crosses y = 0 at the origin
    assert _walk(_path((0, 1), rays=[(0, (1, 0))]), fixtures.fan_p1xp1()) == (
        [], {"r0": ((0, 1), (1, 0))})
    assert _walk(_path((0, -1), rays=[(0, (0, 1))]), fixtures.fan_p1xp1()) == (
        [(0, 0)], {"r0:0": ((0, -1),), "r0:1": ((0, 1),)})


def test_second_subdivision_on_a_fan_locates_no_point(monkeypatch):
    from helpers import count_cell_reads
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
        scans = count_cell_reads(fan)
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
    # one sign vector per input vertex, and one per distinct ray direction, a
    # ray's far end, once per fan object: the fan keeps each direction's
    # entry (``Fan._directions``), so no later walk on that fan signs it
    # again.  A bounded edge signs nothing, as its far end is its end vertex,
    # and a new vertex takes its vector from the sweep, that of the interval
    # before it with the hyperplanes crossing there cleared from both masks,
    # so the walk signs no break.  certify hands the walk's vectors to
    # _derive, so certify and verify sign the input's vertices once too.
    # Every key handed to hyperplane_values is counted wherever a tropic
    # module binds it
    import sys

    from tropic.degeneration import certify, verify_certificate
    from tropic.latticefan import hyperplane_values

    signed = []

    def counting(f, image):
        signed.extend(image)
        return hyperplane_values(f, image)

    for module in [m for k, m in sys.modules.items() if k.startswith("tropic.")]:
        if getattr(module, "hyperplane_values", None) is hyperplane_values:
            monkeypatch.setattr(module, "hyperplane_values", counting)
    curves, fan = _honeycombs_on_p2(13)  # walked once: the fan holds their directions
    for c in curves:
        signed.clear()
        record = subdivide_along_fan(c, fan)
        assert sorted(signed) == sorted(c.vertices)
        assert record == reference_subdivide(c, fan)
        signed.clear()
        assert verify_certificate(certify(c, fan)).ok
        assert sorted(signed) == sorted(c.vertices)
    assert any(subdivide_along_fan(c, fan).new_vertices for c in curves)
    fresh = fan_from_maximal(*gen.fan_p2())  # an equal fan, another object: a table of its own
    for k, c in enumerate(curves):
        signed.clear()  # both walks sign the vertices; the first walk on fresh, the directions
        assert subdivide_along_fan(c, fresh) == subdivide_along_fan(c, fan)
        directions = {r.direction for r in c.rays} if k == 0 else set()
        assert len(signed) == len(c.vertices) * 2 + len(directions)
        assert set(signed) == set(c.vertices) | directions


def test_walker_builds_fractions_only_for_kept_breaks(monkeypatch):
    # each host of the honeycombs is walked as a curve of its own, with every
    # Fraction that refine builds counted.  Crossings are keyed by integers,
    # and piece lengths handed over as integers, so a host builds one
    # Fraction per non-integral coordinate of a kept break (an integral one
    # is a plain int) and none for its pieces; a host with no kept break,
    # whether it crosses no hyperplane or only spurious extensions of a wall,
    # builds none and keeps its own edge data
    from tropic import refine

    built = []

    def counting(*args):
        built.append(args)
        return Fraction(*args)

    monkeypatch.setattr(refine, "Fraction", counting)
    curves, fan = _honeycombs_on_p2(13)
    seen = {"no crossing": 0, "spurious only": 0, "breaks": 0, "int": 0, "Fraction": 0}
    for c in curves:
        for h in c.edges + c.rays:
            if isinstance(h, BoundedEdge):
                ends = [c.vertices[v] for v in h.ends]
                alone = TropicalCurve.build(2, dict(zip(h.ends, ends)), [(h.id, h.ends, h.weight)])
            else:
                ends = [c.vertices[h.base], h.direction]  # n.base and n.d of opposite signs
                alone = TropicalCurve.build(2, {h.base: ends[0]}, [], [tuple(h)])
            crosses = any(dot(n, ends[0]) * dot(n, ends[1]) < 0 for n in fan.hyperplanes)
            reference = reference_subdivide(alone, fan)
            breaks = len(reference.new_vertices)
            fractional = sum(x.denominator > 1 for v in reference.new_vertices
                             for x in reference.output.vertices[v.id])
            built.clear()
            out = subdivide_along_fan(alone, fan).output
            assert len(built) == fractional, h
            assert out == reference.output
            for x in (x for v in reference.new_vertices for x in out.vertices[v.id]):
                seen[type(x).__name__] += 1
                assert type(x) is (int if x.denominator == 1 else Fraction)
            if not breaks and h.id in out._edge_data:
                assert out._edge_data[h.id] is alone._edge_data[h.id]
            seen["breaks" if breaks else "spurious only" if crosses else "no crossing"] += 1
    assert min(seen["no crossing"], seen["spurious only"], seen["breaks"]) >= 10, seen
    assert seen["int"] >= 2 and seen["Fraction"] >= 10, seen  # integral break coordinates


def test_an_unbroken_host_passes_through_as_it_is():
    # in a curve that other hosts break, a host whose intervals all lie in one
    # cone is the input's own object in the output, with its length/weight
    # from the input's edge data, in the cone of an interior point (an edge's
    # midpoint, a ray's base plus its direction)
    from helpers import reference_locate
    from tropic.refine import _walk

    curves, fan = _honeycombs_on_p2(29)
    seen = {"kept": 0, "split": 0}
    for c in curves:
        record, ratios = subdivide_along_fan(c, fan), _walk(c, fan).ratios
        assert record.new_vertices and record.output is not c
        out = {h.id: h for h in record.output.edges + record.output.rays}
        for h in c.edges + c.rays:
            if h.id not in record.piece_cones:
                seen["split"] += 1
                continue
            seen["kept"] += 1
            assert out[h.id] is h
            if isinstance(h, BoundedEdge):
                d, length = edge_data(c, h.id)
                assert ratios[h.id] == (d, length.numerator, length.denominator * h.weight)
                assert edge_data(record.output, h.id) == (d, length)
                pu, pw = (c.vertices[v] for v in h.ends)
                inner = [Fraction(x + y, 2) for x, y in zip(pu, pw)]
            else:
                inner = [x + d for x, d in zip(c.vertices[h.base], h.direction)]
            assert fan.cones[record.piece_cones[h.id]] == reference_locate(fan, inner)
    assert min(seen.values()) >= 10, seen


@pytest.mark.parametrize("curve_name,fan_name", [("tripod", "fan_p2"), ("speyer3", "fan_r3")])
def test_a_curve_with_no_break_is_its_own_subdivision(curve_name, fan_name):
    c = fixtures.CURVES[curve_name]()
    record = subdivide_along_fan(c, fixtures.FANS[fan_name]())
    assert record.output is c and record.new_vertices == ()
    assert record == reference_subdivide(c, fixtures.FANS[fan_name]())


def test_a_host_cut_only_spuriously_is_kept_whole():
    # r0 crosses x = y, which extends a wall of fan_p2 through the cone of
    # (1,0) and (0,1), and stays in that cone; e0 crosses the wall x = 0
    c = _path((1, 3), (-1, 3), rays=[(0, (1, 0))])
    record = subdivide_along_fan(c, fixtures.fan_p2())
    assert record == reference_subdivide(c, fixtures.fan_p2())
    assert [v.host for v in record.new_vertices] == ["e0"]
    assert record.output.rays == (c.rays[0],) and record.output.rays[0] is c.rays[0]
    assert fixtures.fan_p2().cones[record.piece_cones["r0"]].generators == ((0, 1), (1, 0))


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

    # a reserved-form id is no clash while its host does not break: e0 from
    # (1,1) to (2,2) stays in the open quadrant, while r- breaks at the origin
    kept = TropicalCurve.build(
        2, {"e0#1": (1, 1), "b": (2, 2)}, edges=[("e0", ("e0#1", "b"), 1)],
        rays=[("r-", "e0#1", (-1, -1), 1), ("r+", "b", (1, 1), 1)])
    record = subdivide_along_fan(kept, fixtures.fan_p2())
    assert [v.id for v in record.new_vertices] == ["r-#1"]
    assert record.output.vertices["e0#1"] == (1, 1) and "e0" in record.piece_cones

    # a ray from b in direction (-1, 0) breaks at (0, 1); named e0:1, it is a
    # host that breaks itself, and e0's piece e0:1 still clashes with it
    def crossed(a="a", ray="x", other="r-"):
        return TropicalCurve.build(
            2, {a: (-1, -1), "b": (1, 1)}, edges=[("e0", (a, "b"), 1)],
            rays=[(other, a, (-1, -1), 1), (ray, "b", (-1, 0), 1)])

    record = subdivide_along_fan(crossed(), fixtures.fan_p2())
    assert [v.id for v in record.new_vertices] == ["e0#1", "x#1"]
    # the first clash in host order is reported, a host's vertices before its
    # pieces: edges come before rays
    for curve, clash in (
        (crossed(ray="e0:1"), "subdividing e0 creates id 'e0:1'"),
        (crossed(a="x#1", other="e0:0"), "subdividing e0 creates id 'e0:0'"),
        (crossed(a="e0#1", ray="e0:1"), "subdividing e0 creates id 'e0#1'"),
        (crossed(a="x#1"), "subdividing x creates id 'x#1'"),
    ):
        with pytest.raises(InvalidCurve, match=clash):
            subdivide_along_fan(curve, fixtures.fan_p2())

    # e0 breaks at (0, 1), the new id e0#1 naming an input vertex that the
    # later hosts x and y read: the clash is refused before e0#1's sign vector
    # could replace the input vertex's, which would send x across y = 0
    later = TropicalCurve.build(
        2, {"a": (-1, 1), "b": (1, 1), "e0#1": (2, -1), "c": (3, -1)},
        edges=[("e0", ("a", "b"), 1), ("x", ("e0#1", "c"), 1), ("y", ("b", "e0#1"), 1)])
    with pytest.raises(InvalidCurve, match="subdividing e0 creates id 'e0#1'"):
        subdivide_along_fan(later, fixtures.fan_p2())


def _inheritance_cases():
    """Every fixture x fan pair of one dimension, the fixture as it is and
    translated by (1/7, 1/5, 1/3)[:dim] (where N absorbs only some of those
    denominators, the rescaled positions keep the rest), and seeded trees with
    4 to 24 vertices on perfbench's rich fans, every second one unbalanced by
    raising one ray's weight."""
    import random as _random

    for curve in fixtures.CURVES.values():
        for fan in fixtures.FANS.values():
            c, f = curve(), fan()
            if c.ambient_dim == f.ambient_dim:
                yield c, f
                yield translated(c, [Fraction(1, p) for p in (7, 5, 3)[:c.ambient_dim]]), f
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
    # the curves subdivide_along_fan and rescale_integral build carry the
    # validation verdict and balancing report of the curve they came from, and
    # build their edge data from their own image only when asked; each must
    # equal what a fresh curve of the same fields computes, and so must the
    # walk's piece lengths over weights, in integers.  With N > 1 the rescaled
    # curve is handed its integer image, built from its positions by way of
    # the first vertex's denominators, as tuples, each in the order of a fresh
    # curve; "fractional" counts the rescaled curves whose image's m is more
    # than 1
    from tropic.refine import _walk

    seen = {"cases": 0, "unbalanced": 0, "split": 0, "rescaled": 0, "fractional": 0}
    for c, f in _inheritance_cases():
        is_balanced(c)  # as certify does, so there is a report to hand over
        try:
            record = subdivide_along_fan(c, f)
        except TropicError:
            continue
        prepared = record.output
        assert prepared is c or "_pass" not in vars(prepared)
        hat, n = rescale_integral(prepared)  # builds the subdivided curve's edge data
        assert hat is prepared or "_pass" not in vars(hat)
        for out in (prepared, hat):
            assert {"_validation", "_balance"} <= vars(out).keys()
            fresh = TropicalCurve(out.ambient_dim, out.vertices, out.edges, out.rays)
            assert validate(out) == validate(fresh)
            assert is_balanced(out) == is_balanced(fresh)  # defects in order
            assert edge_lengths(out) == {e.id: edge_data(fresh, e.id) for e in fresh.edges}
            assert list(out.vertices) == list(fresh.vertices) and out == fresh
        ratios = {e: (d, Fraction(p, q)) for e, (d, p, q) in _walk(c, f).ratios.items()}
        copy = TropicalCurve(*prepared)
        assert ratios == {e.id: (d, length / e.weight) for e in copy.edges
                          for d, length in [edge_data(copy, e.id)]}
        assert (n == 1 or "_image" in vars(hat)) and hat._image == integer_image(hat.vertices)
        assert all(type(q) is tuple for q in hat._image[1].values())
        seen["cases"] += 1
        seen["unbalanced"] += not is_balanced(c).balanced
        seen["split"] += bool(record.new_vertices)
        seen["rescaled"] += n > 1
        seen["fractional"] += n > 1 and hat._image[0] > 1
    assert seen["cases"] >= 34 and min(seen.values()) >= 5, seen

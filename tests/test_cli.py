import itertools
import json
import re
from pathlib import Path

import pytest

from helpers import trusted_overlapping_fan
from tropic import fixtures
from tropic.cli import run
from tropic.jsonio import (
    curve_from_dict,
    curve_to_dict,
    dumps,
    fan_from_dict,
    fan_to_dict,
    rat_from_json,
    rat_to_json,
)


@pytest.fixture()
def paths(tmp_path):
    out = {}
    for name, fn in fixtures.CURVES.items():
        p = tmp_path / f"{name}.json"
        p.write_text(dumps(curve_to_dict(fn())))
        out[name] = str(p)
    for name, fn in fixtures.FANS.items():
        p = tmp_path / f"{name}.json"
        p.write_text(dumps(fan_to_dict(fn())))
        out[name] = str(p)
    return out


def _capture(capsys, argv):
    code = run(argv)
    text = capsys.readouterr().out
    return code, text


def test_rat_round_trip():
    from fractions import Fraction

    for value in (0, 5, -3, Fraction(1, 2), Fraction(-22, 7)):
        assert rat_from_json(rat_to_json(value)) == Fraction(value)


def test_rat_to_json_over_the_digit_limit():
    # "p/q" text over Python's integer digit limit is refused where it is made;
    # an integer stays an int, which dumps then refuses
    from fractions import Fraction

    from tropic.errors import DeskScaleExceeded

    with pytest.raises(DeskScaleExceeded):
        rat_to_json(Fraction(1, 10**5000))
    big = rat_to_json(10**5000)
    assert type(big) is int and big == 10**5000
    with pytest.raises(DeskScaleExceeded):
        dumps({"n": big})


def test_curve_round_trip_all_fixtures():
    for name, fn in fixtures.CURVES.items():
        c = fn()
        assert curve_from_dict(curve_to_dict(c)) == c, name


def test_fan_round_trip_all_fixtures():
    for name, fn in fixtures.FANS.items():
        f = fn()
        assert fan_from_dict(fan_to_dict(f)) == f, name


def test_check_exit_codes(paths, capsys):
    code, text = _capture(capsys, ["check", paths["tripod"]])
    assert code == 0
    assert json.loads(text)["balanced"] is True
    code, text = _capture(capsys, ["check", paths["unbal"]])
    assert code == 1
    report = json.loads(text)
    assert report["defects"] == [{"vertex": "v0", "defect": [1, 1]}]


def test_superabundant_exit_and_payload(paths, capsys):
    code, text = _capture(capsys, ["superabundant", paths["speyer3"]])
    assert code == 1
    assert json.loads(text) == {"dimension": 4, "expected": 3, "excess": 1}
    code, _ = _capture(capsys, ["superabundant", paths["tripod"]])
    assert code == 0


def test_a_superabundant_curve_certifies_and_verifies(paths, capsys, tmp_path):
    # every balanced curve is realizable over the toric Artin fan, superabundant
    # ones included: speyer3 (excess 1) checks, certifies on fan_r3 and verifies
    code, _ = _capture(capsys, ["check", paths["speyer3"]])
    assert code == 0
    cert_path = tmp_path / "speyer3.cert"
    assert run(["certify", paths["speyer3"], "--fan", paths["fan_r3"], "--out", str(cert_path)]) == 0
    code, text = _capture(capsys, ["verify-cert", str(cert_path)])
    assert code == 0 and json.loads(text)["ok"] is True


def test_genus_recession_star(paths, capsys):
    code, text = _capture(capsys, ["genus", paths["cycle3"]])
    assert code == 0 and json.loads(text) == {"genus": 1}
    code, text = _capture(capsys, ["recession", paths["tripod"]])
    assert code == 0
    rays = json.loads(text)["recession_fan"]["rays"]
    assert sorted(map(tuple, rays)) == [(-1, -1), (0, 1), (1, 0)]
    code, text = _capture(capsys, ["star", paths["segfan"], "--vertex", "v0"])
    assert code == 0
    assert json.loads(text)["rays"] == [
        {"direction": [-1, 0], "weight": 2},
        {"direction": [1, 0], "weight": 2},
    ]
    code, _ = _capture(capsys, ["star", paths["segfan"]])
    assert code == 2  # missing --vertex


def test_wellspaced_exit(paths, capsys):
    code, text = _capture(capsys, ["wellspaced", paths["speyer3"]])
    assert code == 1
    report = json.loads(text)
    assert report["well_spaced"] is False
    assert report["departures"] == [{"vertex": "v0", "distance": 0}]
    code, _ = _capture(capsys, ["wellspaced", paths["speyer3_ws"]])
    assert code == 0
    code, text = _capture(capsys, ["wellspaced", paths["tripod"]])
    assert code == 1
    assert json.loads(text)["error"] == "GenusNotOne"


def test_subdivide_and_rescale(paths, capsys):
    code, text = _capture(capsys, ["subdivide", paths["diag"], "--fan", paths["fan_p2"]])
    assert code == 0
    report = json.loads(text)
    assert [v["id"] for v in report["subdivision"]["new_vertices"]] == ["e0#1"]
    code, text = _capture(capsys, ["rescale", paths["ratio"]])
    assert code == 0
    assert json.loads(text)["multiplier"] == 12
    code, _ = _capture(capsys, ["subdivide", paths["diag"]])
    assert code == 2  # missing --fan


def test_certify_verify_round_trip(paths, capsys, tmp_path):
    cert_path = tmp_path / "cert.json"
    code = run(["certify", paths["segfan"], "--fan", paths["fan_p1xp1"], "--out", str(cert_path)])
    assert code == 0
    cert = json.loads(cert_path.read_text())
    assert list(cert) == ["curve", "fan", "multiplier", "vertex_cones", "node_data"]
    assert cert["node_data"] == [{"edge": "e0", "k": 1, "rho": 2, "u_q": [-1, 0]}]
    assert cert["multiplier"] == 1
    code, text = _capture(capsys, ["verify-cert", str(cert_path)])
    assert code == 0 and json.loads(text)["ok"] is True

    # tampering with one slope entry must be detected
    cert["node_data"][0]["u_q"] = [0, 0]
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(cert))
    code, text = _capture(capsys, ["verify-cert", str(tampered)])
    assert code == 1
    assert not json.loads(text)["ok"]


FORMAT_1 = Path(__file__).parent / "data" / "speyer3_format1.cert.json"


def test_a_format_1_certificate_verifies_and_is_format_2_with_three_fields_more(paths, capsys):
    # a certificate written before the map to the Artin fan was stated once
    # (speyer3 on fan_r3) holds dual_curve, vertex_stars and base_point too;
    # the reader skips them, and certify writes the rest, byte for byte
    code, text = _capture(capsys, ["verify-cert", str(FORMAT_1)])
    assert (code, json.loads(text)) == (0, {"ok": True, "violations": []})
    old = json.loads(FORMAT_1.read_text())
    assert {"dual_curve", "vertex_stars", "base_point"} <= old.keys()
    for key in ("dual_curve", "vertex_stars", "base_point"):
        del old[key]
    code, text = _capture(capsys, ["certify", paths["speyer3"], "--fan", paths["fan_r3"]])
    assert code == 0 and text == dumps(old)


def _segfan_certificate(paths, tmp_path) -> dict:
    cert_path = tmp_path / "cert.json"
    assert run(["certify", paths["segfan"], "--fan", paths["fan_p1xp1"], "--out", str(cert_path)]) == 0
    return json.loads(cert_path.read_text())


def _verify_cert_doc(capsys, tmp_path, doc):
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc))
    code, text = _capture(capsys, ["verify-cert", str(path)])
    return code, json.loads(text)


def test_verify_cert_node_without_edge_exits_2(paths, capsys, tmp_path):
    # a node's data names its edge
    cert = _segfan_certificate(paths, tmp_path)
    del cert["node_data"][0]["edge"]
    code, report = _verify_cert_doc(capsys, tmp_path, cert)
    assert (code, report["error"]) == (2, "SchemaError")


def test_verify_cert_node_data_not_a_list_exits_2(paths, capsys, tmp_path):
    cert = _segfan_certificate(paths, tmp_path)
    cert["node_data"] = {"edge": "e0"}
    code, report = _verify_cert_doc(capsys, tmp_path, cert)
    assert (code, report["error"]) == (2, "SchemaError")


def test_verify_cert_marked_point_without_component_exits_2(paths, capsys, tmp_path):
    # a marked point per ray, on the component of the ray's base
    cert = _segfan_certificate(paths, tmp_path)
    del cert["curve"]["rays"][0]["base"]
    code, report = _verify_cert_doc(capsys, tmp_path, cert)
    assert (code, report["error"]) == (2, "SchemaError")


@pytest.mark.parametrize("bad_id", [None, 5])
@pytest.mark.parametrize("field", [
    ("vertices", 0, "id"), ("edges", 0, "id"), ("edges", 0, "ends", 1),
    ("rays", 0, "id"), ("rays", 0, "base"),
])
def test_non_string_curve_ids_exit_2(tmp_path, capsys, field, bad_id):
    doc = curve_to_dict(fixtures.segfan())
    *path, key = field
    target = doc
    for step in path:
        target = target[step]
    target[key] = bad_id
    p = tmp_path / "ids.json"
    p.write_text(json.dumps(doc))
    code, text = _capture(capsys, ["check", str(p)])
    assert (code, json.loads(text)["error"]) == (2, "SchemaError")


@pytest.mark.parametrize("bad_id", [None, 5])
@pytest.mark.parametrize("field", [  # ids a certificate holds, in its curve and node data
    ("curve", "vertices", 0, "id"), ("curve", "vertices", 1, "id"),
    ("curve", "edges", 0, "id"), ("node_data", 0, "edge"),
    ("curve", "edges", 0, "ends", 0), ("curve", "rays", 0, "id"),
    ("curve", "rays", 1, "id"), ("curve", "rays", 0, "base"),
    ("curve", "edges", 0, "ends", 1),
])
def test_verify_cert_non_string_ids_exit_2(paths, capsys, tmp_path, field, bad_id):
    cert = _segfan_certificate(paths, tmp_path)
    *path, key = field
    target = cert
    for step in path:
        target = target[step]
    target[key] = bad_id
    code, report = _verify_cert_doc(capsys, tmp_path, cert)
    assert (code, report["error"]) == (2, "SchemaError")


def test_edge_ends_and_node_components_hold_exactly_two_ids(paths, capsys, tmp_path):
    for ends in (["v0"], ["v0", "v1", "v0"]):
        doc = curve_to_dict(fixtures.segfan())
        doc["edges"][0]["ends"] = ends
        p = tmp_path / "ends.json"
        p.write_text(json.dumps(doc))
        code, text = _capture(capsys, ["check", str(p)])
        assert (code, json.loads(text)["error"]) == (2, "SchemaError"), ends
        cert = _segfan_certificate(paths, tmp_path)  # a node's components: its edge's ends
        cert["curve"]["edges"][0]["ends"] = ends
        code, report = _verify_cert_doc(capsys, tmp_path, cert)
        assert (code, report["error"]) == (2, "SchemaError"), ends


def test_verify_cert_with_a_fan_of_another_dimension_exits_1(paths, capsys, tmp_path):
    cert = _segfan_certificate(paths, tmp_path)
    cert["fan"] = fan_to_dict(fixtures.fan_r3())
    code, report = _verify_cert_doc(capsys, tmp_path, cert)
    assert (code, report) == (1, {"error": "DimMismatch", "detail": "point of dim 2 vs fan in dim 3"})


def test_a_key_repeated_in_any_json_object_exits_2(paths, capsys, tmp_path):
    # json.loads alone keeps the last of two equal keys: here v0's true cone
    cert = _segfan_certificate(paths, tmp_path)
    text = json.dumps(cert)
    assert text.count('"vertex_cones": {"v0": 0, ') == 1
    doubled = tmp_path / "doubled.json"
    doubled.write_text(text.replace('"vertex_cones": {', '"vertex_cones": {"v0": 99, '))
    code, out = _capture(capsys, ["verify-cert", str(doubled)])
    assert (code, json.loads(out)) == (
        2, {"error": "SchemaError", "detail": "malformed JSON: an object repeats the key 'v0'"})
    # curves and fans too, at the top level and in a nested object
    curve = json.dumps(curve_to_dict(fixtures.segfan()))
    fan = json.dumps(fan_to_dict(fixtures.fan_p1xp1()))
    cases = [("curve", curve, "ambient_dim", "2"), ("curve", curve, "id", '"v0"'),
             ("fan", fan, "ambient_dim", "2")]
    for kind, text, key, value in cases:
        p = tmp_path / f"{kind}.json"
        pair = f'"{key}": {value}'
        p.write_text(text.replace(pair, f"{pair}, {pair}"))
        argv = ["check", str(p)] if kind == "curve" else ["subdivide", paths["segfan"], "--fan", str(p)]
        code, out = _capture(capsys, argv)
        assert (code, json.loads(out)) == (2, {
            "error": "SchemaError", "detail": f"malformed JSON: an object repeats the key '{key}'"})


def test_null_vertex_id_used_consistently_exits_2(tmp_path, capsys):
    # before ids had to be strings, this file read as a valid curve on vertex "None"
    doc = curve_to_dict(fixtures.tripod())
    doc["vertices"][0]["id"] = None
    for ray in doc["rays"]:
        ray["base"] = None
    p = tmp_path / "ids.json"
    p.write_text(json.dumps(doc))
    code, text = _capture(capsys, ["check", str(p)])
    assert (code, json.loads(text)["error"]) == (2, "SchemaError")


def test_subdivide_reserved_id_clash_exits_1(tmp_path, capsys):
    doc = curve_to_dict(fixtures.diag())
    doc["vertices"][0]["id"] = "e0#1"  # vertex a, an end of e0, which crosses the origin
    doc["edges"][0]["ends"] = ["e0#1", "b"]
    doc["rays"][1]["base"] = "e0#1"
    curve, fan = tmp_path / "clash.json", tmp_path / "fan.json"
    curve.write_text(json.dumps(doc))
    fan.write_text(dumps(fan_to_dict(fixtures.fan_p2())))
    code, text = _capture(capsys, ["subdivide", str(curve), "--fan", str(fan)])
    report = json.loads(text)
    assert (code, report["error"]) == (1, "InvalidCurve")
    assert "'e0#1'" in report["detail"]


def test_traced_benchmark_wraps_existing_functions():
    # the benchmark's tracer rebinds these names; a deleted one breaks --trace 1
    import importlib
    import importlib.util

    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for module, names in tracer.WRAPPED.items():
        mod = importlib.import_module(f"tropic.{module}")
        for name in names:
            assert callable(getattr(mod, name, None)), f"tropic.{module}.{name}"
    from tropic.latticefan import cone_halfspaces

    assert callable(cone_halfspaces.cache_info)


def test_benchmark_shim_traces_a_cli_run(tmp_path):
    # the traced cli_cold workload runs each command through perfbench/shim.py,
    # whose tracer looks up every tropic layer in sys.modules
    import os
    import subprocess
    import sys

    root = Path(__file__).resolve().parents[1]
    spans = tmp_path / "spans.json"
    shim = root / "perfbench" / "shim.py"
    proc = subprocess.run(
        [sys.executable, str(shim), str(spans), "genus", str(fixtures.DIRECTORY / "tripod.json")],
        cwd=root,
        env={**os.environ, "PYTHONPATH": str(root / "src"), "PYTHONDONTWRITEBYTECODE": "1"},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"genus": 0}
    assert "cli.run" in json.loads(spans.read_text())["names"]


def test_importing_the_cli_builds_no_dataclasses():
    # every result record is a named tuple, so no tropic process imports
    # dataclasses (or inspect, which dataclasses imports) at start-up
    import os
    import subprocess
    import sys

    root = Path(__file__).resolve().parents[1]
    probe = ("import sys; before = set(sys.modules); import tropic.cli; "
             "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))")
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": str(root / "src")},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_defcone_and_superabundant_agree(paths, capsys):
    for name, balanced in fixtures.BALANCED.items():
        if not balanced:
            continue
        _, defcone = _capture(capsys, ["defcone", paths[name]])
        _, verdict = _capture(capsys, ["superabundant", paths[name]])
        counts = {k: json.loads(defcone)[k] for k in ("dimension", "expected", "excess")}
        assert counts == json.loads(verdict), name


def test_certify_requires_recession(paths, capsys):
    code, text = _capture(capsys, ["certify", paths["tripod"], "--fan", paths["fan_p1xp1"]])
    assert code == 1
    assert json.loads(text)["error"] == "RecessionNotSupported"


def test_malformed_json_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    code, text = _capture(capsys, ["check", str(bad)])
    assert code == 2
    assert json.loads(text)["error"] == "SchemaError"
    missing = tmp_path / "missing.json"
    code, _ = _capture(capsys, ["check", str(missing)])
    assert code == 2


def _check_schema_error(tmp_path, capsys, text):
    doc = tmp_path / "doc.json"
    doc.write_text(text)
    code, out = _capture(capsys, ["check", str(doc)])
    assert code == 2
    report = json.loads(out)
    assert report["error"] == "SchemaError"
    return report["detail"]


def test_integer_over_the_digit_limit_exits_2(tmp_path, capsys):
    # a 5,000-digit coordinate: more digits than Python converts to an int
    doc = curve_to_dict(fixtures.tripod())
    doc["vertices"][0]["coords"] = ["big", 0]
    text = json.dumps(doc).replace('"big"', "7" * 5000)
    assert "malformed JSON" in _check_schema_error(tmp_path, capsys, text)


def test_deep_nesting_exits_2(tmp_path, capsys):
    assert "malformed JSON" in _check_schema_error(tmp_path, capsys, "[" * 100_000)


def test_error_details_cut_long_input_values(tmp_path, capsys):
    doc = curve_to_dict(fixtures.tripod())
    doc["vertices"][0]["coords"] = ["7" * 5000, 0]
    detail = _check_schema_error(tmp_path, capsys, json.dumps(doc))
    assert detail.startswith("bad rational string '7777") and len(detail) < 300
    doc = curve_to_dict(fixtures.tripod())
    doc["vertices"].append(dict(doc["vertices"][0]))
    assert _check_schema_error(tmp_path, capsys, json.dumps(doc)) == "duplicate vertex id v0"
    # a vertex's coordinates, a ray's direction and a repeated vertex are
    # reported by id, cut to 40 characters
    long_id, cut = "v" * 5000, "v" * 40 + "... (5000 characters)"
    tripod = curve_to_dict(fixtures.tripod())
    tripod["vertices"][0]["id"] = tripod["rays"][0]["id"] = long_id
    for ray in tripod["rays"]:
        ray["base"] = long_id
    broken = [dict(tripod, vertices=tripod["vertices"] * 2)]
    for value in ([0], [0, 0, 0], "0"):
        broken.append(dict(tripod, vertices=[dict(tripod["vertices"][0], coords=value)]))
        broken.append(dict(tripod, rays=[dict(tripod["rays"][0], direction=value), *tripod["rays"][1:]]))
    for doc in broken:
        detail = _check_schema_error(tmp_path, capsys, json.dumps(doc))
        assert cut in detail and len(detail) < 150, detail
    # so is a repeated key, as its repr
    text = json.dumps(tripod)[:-1] + f', "{long_id}": 1, "{long_id}": 2}}'
    assert _check_schema_error(tmp_path, capsys, text) == (
        f"malformed JSON: an object repeats the key '{'v' * 39}... (5002 characters)")


def test_unwritable_out_path_exits_2(paths, tmp_path, capsys):
    target = tmp_path / "no" / "such" / "dir" / "x.json"
    code, text = _capture(capsys, ["genus", paths["tripod"], "--out", str(target)])
    assert code == 2
    report = json.loads(text)
    assert report["error"] == "SchemaError"
    assert report["detail"].startswith(f"cannot write {target}: ")
    assert not target.exists()


def test_schema_violation_exits_2(tmp_path, capsys):
    doc = tmp_path / "doc.json"
    doc.write_text(json.dumps({"ambient_dim": 2, "vertices": [{"id": "a"}]}))
    code, text = _capture(capsys, ["check", str(doc)])
    assert code == 2


def test_reports_are_deterministic(paths, capsys):
    a = _capture(capsys, ["certify", paths["speyer3"], "--fan", paths["fan_r3"]])
    b = _capture(capsys, ["certify", paths["speyer3"], "--fan", paths["fan_r3"]])
    assert a == b


def test_selftest_against_packaged_fixtures(capsys):
    code, text = _capture(capsys, ["selftest"])
    assert code == 0
    report = json.loads(text)
    assert report["ok"] is True
    names = {r["name"] for r in report["results"]}
    assert {"tripod", "unbal", "speyer3", "fan_p2"} <= names


def test_fixture_tables_name_every_packaged_file():
    stems = {Path(path.name).stem for path in fixtures.DIRECTORY.iterdir()
             if path.name.endswith(".json")}
    assert set(fixtures.CURVES) == {s for s in stems if not s.startswith("fan_")}
    assert set(fixtures.FANS) == {s for s in stems if s.startswith("fan_")}
    assert set(fixtures.BALANCED) == set(fixtures.CURVES)
    assert fixtures.tripod() is not fixtures.tripod()  # a fresh curve, no shared caches


def test_defcone_report_shape(paths, capsys):
    code, text = _capture(capsys, ["defcone", paths["cycle3"]])
    assert code == 0
    report = json.loads(text)
    assert report["dimension"] == 3 and report["expected"] == 3 and report["excess"] == 0
    assert len(report["coordinates"]) == 9
    assert len(report["equations"]) == 6
    assert report["coordinates"][:2] == ["v0[0]", "v0[1]"]
    assert report["coordinates"][-1] == "len:e2"


def test_floats_rejected_in_files(tmp_path, capsys):
    doc = curve_to_dict(fixtures.tripod())
    doc["vertices"][0]["coords"] = [0.5, 0]
    path = tmp_path / "floaty.json"
    path.write_text(json.dumps(doc))
    code, text = _capture(capsys, ["check", str(path)])
    assert code == 2
    assert json.loads(text)["error"] == "SchemaError"


def test_rational_strings_parse_from_files(tmp_path, capsys):
    path = tmp_path / "half.json"
    path.write_text(json.dumps({
        "ambient_dim": 2,
        "vertices": [{"id": "a", "coords": [0, 0]}, {"id": "b", "coords": ["1/2", "1/2"]}],
        "edges": [{"id": "e0", "ends": ["a", "b"], "weight": 1}],
        "rays": [{"id": "r0", "base": "a", "direction": [-1, -1], "weight": 1},
                 {"id": "r1", "base": "b", "direction": [1, 1], "weight": 1}],
    }))
    code, text = _capture(capsys, ["rescale", str(path)])
    assert code == 0
    assert json.loads(text)["multiplier"] == 2


GOLDEN = Path(__file__).parent / "data" / "cli_matrix_golden.json"


def _fixture_matrix(paths, tmp_path):
    """(key, argv) for every subcommand on every curve fixture, plus a segfan certificate."""
    fan_for = {2: paths["fan_p2"], 3: paths["fan_r3"]}
    cert_path = tmp_path / "segfan_cert.json"
    assert run(["certify", paths["segfan"], "--fan", paths["fan_p1xp1"], "--out", str(cert_path)]) == 0
    for name in fixtures.CURVES:
        curve_file = paths[name]
        dim = fixtures.CURVES[name]().ambient_dim
        invocations = [
            ["check", curve_file],
            ["genus", curve_file],
            ["recession", curve_file],
            ["star", curve_file, "--vertex", "v0"],
            ["subdivide", curve_file, "--fan", fan_for[dim]],
            ["rescale", curve_file],
            ["defcone", curve_file],
            ["superabundant", curve_file],
            ["wellspaced", curve_file],
            ["certify", curve_file, "--fan", fan_for[dim]],
            ["verify-cert", str(cert_path)],
        ]
        for argv in invocations:
            yield f"{name} {argv[0]}", argv


def test_every_subcommand_terminates_cleanly_on_every_fixture(paths, capsys, tmp_path):
    # the exit-code contract: any subcommand on any fixture returns 0, 1, or 2
    # with a parseable report, and never raises
    for key, argv in _fixture_matrix(paths, tmp_path):
        capsys.readouterr()
        code = run(argv)
        text = capsys.readouterr().out
        assert code in (0, 1, 2), (key, code)
        assert json.loads(text) is not None, key


def test_fixture_matrix_reports_match_recorded_output(paths, capsys, tmp_path):
    # exit code and stdout of every fixture x subcommand report (certificates
    # included), byte for byte, as recorded from an earlier revision of the CLI
    golden = json.loads(GOLDEN.read_text())
    seen = set()
    for key, argv in _fixture_matrix(paths, tmp_path):
        capsys.readouterr()
        code = run(argv)
        assert {"code": code, "stdout": capsys.readouterr().out} == golden[key], key
        seen.add(key)
    assert seen == set(golden)


def test_star_rejects_invalid_curve(tmp_path, capsys):
    # two edges share the id e0, so the file is not a curve and star must not answer
    path = tmp_path / "dup.json"
    path.write_text(json.dumps({
        "ambient_dim": 2,
        "vertices": [{"id": "v0", "coords": [0, 0]}, {"id": "v1", "coords": [1, 0]},
                     {"id": "v2", "coords": [0, 1]}],
        "edges": [{"id": "e0", "ends": ["v0", "v1"], "weight": 1},
                  {"id": "e0", "ends": ["v0", "v2"], "weight": 1}],
    }))
    code, text = _capture(capsys, ["star", str(path), "--vertex", "v2"])
    assert code == 1
    report = json.loads(text)
    assert report["error"] == "InvalidCurve" and "DuplicateId" in report["detail"]


def test_the_reader_and_build_share_one_rule_for_an_exact_rational():
    # curves._rational holds the rule: the JSON reader's schema error carries
    # its reason as the detail, and TropicalCurve.build refuses the same values
    # as InvalidCurve naming the value; both take the same values alike
    import re
    from fractions import Fraction

    from tropic.curves import TropicalCurve
    from tropic.errors import InvalidCurve, SchemaError

    refused = {
        True: "expected int or 'p/q' string, got bool",
        None: "expected int or 'p/q' string, got NoneType",
        0.5: "expected int or 'p/q' string, got float",
        "0.5": "bad rational string '0.5': expected 'p' or 'p/q'",
        "1e3": "bad rational string '1e3': expected 'p' or 'p/q'",
        " 3/4 ": "bad rational string ' 3/4 ': expected 'p' or 'p/q'",
        "1_000": "bad rational string '1_000': expected 'p' or 'p/q'",
        "1/0": "bad rational string '1/0': zero denominator",
        "7" * 5000: f"bad rational string '{'7' * 39}... (5002 characters): Exceeds the limit",
    }
    for value, detail in refused.items():
        with pytest.raises(SchemaError) as info:
            rat_from_json(value)
        assert info.value.message.startswith(detail), info.value.message
        assert info.value.message == detail or len(str(value)) == 5000
        with pytest.raises(InvalidCurve, match=f"^{re.escape(repr(value)[:40])}"):
            TropicalCurve.build(1, {"a": (value,)})
    for value, number in ((3, 3), ("-3/4", Fraction(-3, 4)), ("6/3", 2), ("-0", 0),
                          (Fraction(6, 3), 2)):
        built = TropicalCurve.build(1, {"a": (value,)}).vertices["a"][0]
        assert rat_from_json(value) == number == built
        assert type(rat_from_json(value)) is type(number) is type(built), value


def test_rationals_outside_integer_or_p_over_q_are_schema_errors(tmp_path, capsys):
    from tropic.errors import SchemaError

    for text in ("0.5", "1e3", " 3/4 ", "1_000"):
        with pytest.raises(SchemaError):
            rat_from_json(text)
    doc = curve_to_dict(fixtures.tripod())
    doc["vertices"][0]["coords"] = ["1e3", 0]
    path = tmp_path / "exponent.json"
    path.write_text(json.dumps(doc))
    code, text = _capture(capsys, ["check", str(path)])
    assert code == 2
    assert json.loads(text)["error"] == "SchemaError"


def test_flags_a_subcommand_does_not_read_are_usage_errors(paths, capsys):
    # no subcommand reads --emit, and compactify is no subcommand
    for argv in (["genus", paths["segfan"], "--fan", paths["fan_p2"]],
                 ["genus", paths["segfan"], "--emit", "dot"],
                 ["verify-cert", paths["segfan"], "--expect-ordinary"],
                 ["check", paths["segfan"], "--expect-ordinary"],
                 ["certify", paths["segfan"], "--fan", paths["fan_p1xp1"], "--expect-ordinary"],
                 ["subdivide", paths["segfan"], "--fan", paths["fan_p1xp1"], "--trust-fan"],
                 ["check", paths["segfan"], "--emit", "dot"],
                 ["rescale", paths["segfan"], "--emit", "json"],
                 ["subdivide", paths["segfan"], "--fan", paths["fan_p1xp1"], "--emit", "dot"],
                 ["compactify", paths["segfan"]]):
        assert run(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "" and "usage: tropic" in captured.err, argv


def test_selftest_validates_trusted_fans(capsys, monkeypatch):
    # selftest validates every fan in the fixture tables, however large
    monkeypatch.setattr(fixtures, "FANS", {"fan_big": trusted_overlapping_fan})
    code, text = _capture(capsys, ["selftest"])
    assert code == 1
    results = {r["name"]: r for r in json.loads(text)["results"]}
    assert set(results) == set(fixtures.CURVES) | {"fan_big"}
    assert all(results[name]["passed"] for name in fixtures.CURVES)
    result = results["fan_big"]
    assert result["passed"] is False and "not a common face" in result["detail"]


def _overlapped(fan_doc: dict) -> dict:
    """The fan document with the cone {(1,1),(3,1)} and its rays added; it
    overlaps the positive quadrant of fan_p2."""
    i = len(fan_doc["rays"])
    fan_doc["rays"] += [[1, 1], [3, 1]]
    fan_doc["cones"] += [[i], [i + 1], [i, i + 1]]
    return fan_doc


def test_fan_file_marked_trusted_is_still_validated(paths, capsys, tmp_path):
    doc = _overlapped(fan_to_dict(fixtures.fan_p2()))
    doc["trusted_complete"] = True
    path = tmp_path / "overlap.json"
    path.write_text(json.dumps(doc))
    code, text = _capture(capsys, ["certify", paths["tripod"], "--fan", str(path)])
    report = json.loads(text)
    assert (code, report["error"]) == (1, "InvalidFan")
    assert report["detail"].startswith("NonFaceIntersection")


def test_subdivide_refuses_a_fan_in_ambient_dimension_below_one(paths, capsys, tmp_path):
    path = tmp_path / "dim.json"
    path.write_text(json.dumps({"ambient_dim": -1, "rays": [], "cones": [[]]}))
    code, text = _capture(capsys, ["subdivide", paths["tripod"], "--fan", str(path)])
    report = json.loads(text)
    assert (code, report["error"]) == (1, "InvalidFan")
    assert report["detail"] == "DimMismatch: ambient dimension -1 < 1"


def test_verify_cert_validates_the_certificates_fan(paths, capsys, tmp_path):
    cert_path = tmp_path / "cert.json"
    assert run(["certify", paths["tripod"], "--fan", paths["fan_p2"], "--out", str(cert_path)]) == 0
    cert = json.loads(cert_path.read_text())
    _overlapped(cert["fan"])
    code, report = _verify_cert_doc(capsys, tmp_path, cert)
    assert (code, report["error"]) == (1, "InvalidFan")
    assert report["detail"].startswith("NonFaceIntersection")


def test_verify_cert_reports_a_vertex_outside_the_support(paths, capsys, tmp_path):
    # the fourth quadrant dropped (a valid fan, but not complete) and v0 moved
    # into it: its cone is a mismatch and the pieces at v0 lie in no cone,
    # reported with the rest, as for v0 on the fan's boundary at (0, -1)
    cert = _segfan_certificate(paths, tmp_path)
    cert["fan"]["cones"].remove([1, 3])
    expected = ["Unbalanced: rescaled curve fails balancing", "VertexConeMismatch: vertex v0",
                "NodeDataMismatch: edge e0", "PieceNotInCone: e0"]
    for coords, outside in (([1, -1], ["PieceNotInCone: r0"]), ([0, -1], [])):
        cert["curve"]["vertices"][0] = {"id": "v0", "coords": coords}
        code, report = _verify_cert_doc(capsys, tmp_path, cert)
        assert (code, report) == (1, {"ok": False, "violations": expected + outside}), coords


def test_certificate_fan_with_a_stale_trusted_key_verifies(paths, capsys, tmp_path):
    cert = _segfan_certificate(paths, tmp_path)
    cert["fan"]["trusted_complete"] = False
    code, report = _verify_cert_doc(capsys, tmp_path, cert)
    assert (code, report) == (0, {"ok": True, "violations": []})


def test_bool_ray_indices_are_schema_errors(paths, capsys, tmp_path):
    doc = fan_to_dict(fixtures.fan_p2())
    doc["cones"].append([True])
    path = tmp_path / "bool.json"
    path.write_text(json.dumps(doc))
    code, text = _capture(capsys, ["subdivide", paths["tripod"], "--fan", str(path)])
    assert (code, json.loads(text)["error"]) == (2, "SchemaError")
    cert = _segfan_certificate(paths, tmp_path)
    cert["fan"]["cones"].append([False])
    code, report = _verify_cert_doc(capsys, tmp_path, cert)
    assert (code, report["error"]) == (2, "SchemaError")


def test_verify_cert_rejects_an_edge_through_several_cones(paths, capsys, tmp_path, monkeypatch):
    # certify diag with subdivision skipped: e0 keeps running through the origin cone
    from helpers import packed_certificate
    from tropic import cli

    monkeypatch.setattr(cli, "certify", packed_certificate)
    cert_path = tmp_path / "cert.json"
    assert run(["certify", paths["diag"], "--fan", paths["fan_diag"], "--out", str(cert_path)]) == 0
    monkeypatch.undo()
    assert [e["id"] for e in json.loads(cert_path.read_text())["curve"]["edges"]] == ["e0"]
    code, text = _capture(capsys, ["verify-cert", str(cert_path)])
    assert (code, json.loads(text)) == (1, {"ok": False, "violations": ["PieceNotInCone: e0"]})


def test_verify_cert_violations_cut_long_ids(paths, capsys, tmp_path):
    long_id = "e" * 5000
    cert = _segfan_certificate(paths, tmp_path)
    cert["curve"]["edges"][0]["id"] = long_id
    cert["node_data"][0].update(edge=long_id, u_q=[0, 0])
    path = tmp_path / "long.json"
    path.write_text(json.dumps(cert))
    code, text = _capture(capsys, ["verify-cert", str(path)])
    assert code == 1 and len(text) < 300
    assert json.loads(text)["violations"] == [
        "NodeDataMismatch: edge eeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeee... (5000 characters)"
    ]


def test_report_number_over_the_digit_limit_exits_1(tmp_path, capsys):
    # each coordinate is under the input limit; the multiplier has about 6,000 digits
    doc = {"ambient_dim": 1, "edges": [], "rays": [], "vertices": [
        {"id": "a", "coords": [0]},
        {"id": "b", "coords": ["1/" + "7" * 3000]},
        {"id": "c", "coords": ["1/" + "3" * 2999 + "1"]},
    ]}
    doc["edges"] = [{"id": "e0", "ends": ["a", "b"], "weight": 1},
                    {"id": "e1", "ends": ["b", "c"], "weight": 1}]
    path = tmp_path / "path.json"
    path.write_text(json.dumps(doc))
    code, text = _capture(capsys, ["rescale", str(path)])
    assert code == 1
    assert json.loads(text) == {
        "error": "DeskScaleExceeded",
        "detail": "a number in the report exceeds Python's integer digit limit",
    }


def test_rescaled_coordinates_over_the_digit_limit_exit_1(tmp_path, capsys):
    # rescaled by a multiplier of about 6,000 digits, v1..v3 sit at integers of over 4,300
    denominators = ["1" + "0" * 1499 + str(k) for k in (1, 3, 7, 9)]
    doc = {"ambient_dim": 1, "rays": [],
           "vertices": [{"id": f"v{i}", "coords": ["1/" + q]} for i, q in enumerate(denominators)],
           "edges": [{"id": f"e{i}", "ends": [f"v{i}", f"v{i + 1}"], "weight": 1} for i in range(3)]}
    path = tmp_path / "path.json"
    path.write_text(json.dumps(doc))
    code, text = _capture(capsys, ["rescale", str(path)])
    assert (code, json.loads(text)["error"]) == (1, "DeskScaleExceeded")


def test_domain_error_details_cut_long_ids(tmp_path, capsys):
    doc = curve_to_dict(fixtures.tripod())
    doc["edges"] = [{"id": "e", "ends": ["v0", "v" * 5000], "weight": 1}]
    path = tmp_path / "curve.json"
    path.write_text(json.dumps(doc))
    code, text = _capture(capsys, ["genus", str(path)])
    assert code == 1 and len(text) < 300
    report = json.loads(text)
    assert report["error"] == "InvalidCurve"
    assert report["detail"].startswith("NoSuchVertex: edge e references ['vvvv")
    # subdividing a long-named edge onto a vertex id that is already taken
    long_id = "e" * 5000
    doc = {"ambient_dim": 2, "rays": [], "vertices": [
        {"id": "a", "coords": [-1, -1]}, {"id": "b", "coords": [1, 1]},
        {"id": f"{long_id}#1", "coords": [5, 5]},
    ], "edges": [{"id": long_id, "ends": ["a", "b"], "weight": 1},
                 {"id": "f", "ends": ["b", f"{long_id}#1"], "weight": 1}]}
    path.write_text(json.dumps(doc))
    fan = tmp_path / "fan.json"
    fan.write_text(dumps(fan_to_dict(fixtures.fan_diag())))
    code, text = _capture(capsys, ["subdivide", str(path), "--fan", str(fan)])
    assert code == 1 and len(text) < 400
    assert json.loads(text)["detail"].startswith("subdividing eeee")


def test_not_in_support_details_are_short(tmp_path, capsys):
    # an edge in the fourth quadrant, at a height with a 3,000-digit denominator,
    # against fan_p1xp1 without that quadrant's cone
    low = "-1/" + "7" * 3000
    doc = curve_to_dict(fixtures.segfan())
    doc["vertices"] = [{"id": "v0", "coords": ["1/" + "3" * 3000, low]},
                       {"id": "v1", "coords": [2, low]}]
    curve = tmp_path / "curve.json"
    curve.write_text(json.dumps(doc))
    fan_doc = fan_to_dict(fixtures.fan_p1xp1())
    fan_doc["cones"].remove([1, 3])
    fan = tmp_path / "fan.json"
    fan.write_text(json.dumps(fan_doc))
    for command in ("subdivide", "certify"):
        code, text = _capture(capsys, [command, str(curve), "--fan", str(fan)])
        assert code == 1 and len(text) < 300, (command, len(text))
        report = json.loads(text)
        assert report["error"] == "NotInSupport"
        assert report["detail"].startswith("point (")


def test_number_details_are_cut(paths, tmp_path, capsys):
    # a detail repeats at most 40 characters of a number it names
    def cut(detail, label):
        assert "... (" in detail and len(detail) < 200, (label, detail)
        assert max(map(len, re.findall(r"\d+", detail))) <= 40, (label, detail)

    def written(name, doc):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    for label, field, key, value in (
        ("edge weight", "edges", "weight", -10**1000),
        ("ray weight", "rays", "weight", -10**500),
        ("ray direction", "rays", "direction", [2 * 10**200, 4 * 10**200]),
    ):
        doc = curve_to_dict(fixtures.segfan())
        doc[field][0][key] = value
        code, text = _capture(capsys, ["check", written("curve.json", doc)])
        violations = json.loads(text)["violations"]
        assert code == 1 and len(violations) == 1, (label, violations)
        cut(violations[0]["detail"], label)
    # 60 rays at one vertex, in 30 opposite pairs off the rays of fan_p2
    doc = {"ambient_dim": 2, "vertices": [{"id": "v", "coords": [0, 0]}], "edges": [], "rays": [
        {"id": f"r{i}{s}", "base": "v", "direction": [s * (10**50 + i), s], "weight": 1}
        for i in range(30) for s in (1, -1)]}
    code, text = _capture(capsys, ["certify", written("rays.json", doc), "--fan", paths["fan_p2"]])
    report = json.loads(text)
    assert (code, report["error"]) == (1, "RecessionNotSupported")
    cut(report["detail"], "certify")
    cert_path = tmp_path / "cert.json"
    assert run(["certify", paths["tripod"], "--fan", paths["fan_p2"], "--out", str(cert_path)]) == 0
    cert = json.loads(cert_path.read_text())
    cert["curve"]["rays"][0]["direction"] = [10**300 + 1, 1]
    code, report = _verify_cert_doc(capsys, tmp_path, cert)
    unsupported = [v for v in report["violations"] if v.startswith("RecessionNotSupported")]
    assert code == 1 and len(unsupported) == 1, report
    cut(unsupported[0], "verify-cert")


def test_an_ambient_dimension_past_an_index_is_reported(tmp_path, capsys):
    # a curve without vertices builds no zero vector of ambient_dim entries
    for dim in (10**30, -10**1000):
        path = tmp_path / "curve.json"
        path.write_text(json.dumps({"ambient_dim": dim, "vertices": []}))
        for command in ("check", "genus"):
            code, text = _capture(capsys, [command, str(path)])
            report = json.loads(text)
            assert code == 1 and ("valid" in report or report["error"] == "InvalidCurve"), text
            assert "Empty" in text and len(text) < 400, text


def test_details_cut_a_long_dimension_or_vertex_id(paths, tmp_path, capsys):
    # each detail repeats at most 40 characters of the dimension or id it names
    def written(name, doc):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    unbal = curve_to_dict(fixtures.unbal())
    long_id = "v" * 5000
    unbal["vertices"][0]["id"] = long_id
    for ray in unbal["rays"]:
        ray["base"] = long_id
    one_vertex = {"ambient_dim": -(10**1000 - 1), "vertices": [{"id": "a", "coords": [0]}]}
    no_vertex = {"ambient_dim": -10**1000, "vertices": []}
    fan_below = {"ambient_dim": -(10**1000 - 1), "rays": [], "cones": [[]]}
    fan_above = {"ambient_dim": 10**1000, "rays": [], "cones": [[]]}
    fan_coneless = {"ambient_dim": 10**1000, "rays": [], "cones": []}
    unbal_path = written("long_unbal.json", unbal)
    runs = {
        ("check", written("one_vertex.json", one_vertex)): (2, "SchemaError"),
        ("subdivide", paths["tripod"], "--fan", written("below.json", fan_below)): (
            1, "InvalidFan"),
        ("certify", paths["tripod"], "--fan", written("above.json", fan_above)): (
            1, "DeskScaleExceeded"),
        ("subdivide", paths["tripod"], "--fan", written("coneless.json", fan_coneless)): (
            1, "DimMismatch"),
        ("check", written("no_vertex.json", no_vertex)): (1, None),
        ("certify", unbal_path, "--fan", paths["fan_p2"]): (1, "Unbalanced"),
        ("superabundant", unbal_path): (1, "Unbalanced"),
    }
    for argv, (code, error) in runs.items():
        got, text = _capture(capsys, list(argv))
        report = json.loads(text)
        details = [report["detail"]] if error else [v["detail"] for v in report["violations"]]
        assert (got, report.get("error")) == (code, error), text
        assert "... (" in details[0] and len(details[0]) < 200, details
        assert max(map(len, re.findall(r"\d+|v+", details[0]))) <= 40, details
    code, text = _capture(capsys, ["certify", paths["unbal"], "--fan", paths["fan_p2"]])
    assert json.loads(text) == {"error": "Unbalanced", "detail": "defects at ['v0']"}


def test_a_fan_with_a_line_is_invalid(paths, capsys, tmp_path):
    # the x-axis and the two half-planes at it: no fan of a toric variety
    halves = {"ambient_dim": 2, "rays": [[1, 0], [-1, 0], [0, 1], [0, -1]],
              "cones": [[0, 1], [0, 1, 2], [0, 1, 3]]}
    fan = tmp_path / "halves.json"
    fan.write_text(json.dumps(halves))
    cert = _segfan_certificate(paths, tmp_path)
    cert["fan"] = halves
    cert_path = tmp_path / "halves_cert.json"
    cert_path.write_text(json.dumps(cert))
    for argv in (["subdivide", paths["tripod"], "--fan", str(fan)],
                 ["certify", paths["tripod"], "--fan", str(fan)],
                 ["verify-cert", str(cert_path)]):
        code, text = _capture(capsys, argv)
        assert (code, json.loads(text)) == (1, {
            "error": "InvalidFan",
            "detail": "NotStronglyConvex: cone ((-1, 0), (1, 0)) contains the line through (1, 0)",
        }), argv


def test_fan_violation_details_are_short(paths, tmp_path, capsys):
    # a cone on two (three) rays with 2,001-digit entries inside the positive
    # quadrant (octant) of fan_p2 (fan_r3): with its faces it overlaps a cone
    # of the fan, without them its faces are missing
    big = 10**2000
    for fan_name, curve_name, new_rays in (
        ("fan_p2", "tripod", [[big + 7, 1], [1, big + 9]]),
        ("fan_r3", "speyer3", [[big + 7, 1, 1], [1, big + 9, 1], [1, 1, big + 11]]),
    ):
        for with_faces, violation in ((True, "NonFaceIntersection"), (False, "FaceClosureViolated")):
            fan_doc = fan_to_dict(fixtures.FANS[fan_name]())
            first = len(fan_doc["rays"])
            added = list(range(first, first + len(new_rays)))
            fan_doc["rays"] += new_rays
            sizes = range(1, len(added) + 1) if with_faces else [len(added)]
            fan_doc["cones"] += [list(c) for k in sizes for c in itertools.combinations(added, k)]
            fan = tmp_path / "big.json"
            fan.write_text(json.dumps(fan_doc))
            code, text = _capture(capsys, ["certify", paths[curve_name], "--fan", str(fan)])
            assert code == 1 and len(text) < 300, (fan_name, violation, len(text))
            report = json.loads(text)
            assert report["error"] == "InvalidFan" and report["detail"].startswith(violation)
            assert "... (" in report["detail"]  # a generator tuple was cut

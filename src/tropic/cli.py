"""Command-line interface: batch subcommands over curve/fan JSON files.

Exit codes: 0 when the computation succeeds and any checked property holds,
1 when a check fails or a domain error occurs (unbalanced input, genus not
one, point outside the fan's support, ...), 2 for parse, schema, or usage
errors.  Every report is deterministic JSON on stdout (or --out); graph
output is available as DOT text via --emit dot where the result is a curve.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import asdict
from pathlib import Path

from . import __version__
from .curves import (
    CompactifiedCurve,
    TropicalCurve,
    compactify,
    edge_data,
    genus,
    is_balanced,
    recession_fan,
    star,
    validate,
)
from .defspace import combinatorial_type, deformation_cone, is_superabundant
from .degeneration import certify, verify_certificate
from .errors import InvalidFan, SchemaError, TropicError
from .jsonio import (
    certificate_from_dict,
    certificate_to_dict,
    curve_from_dict,
    curve_to_dict,
    dumps,
    fan_from_dict,
    fan_to_dict,
    loads,
    rat_text,
    rat_to_json,
)
from .latticefan import Fan, fan_validate
from .refine import rescale_integral, subdivide_along_fan
from .wellspaced import well_spaced


def _read_json(path: str):
    try:
        text = Path(path).read_text()
    except OSError as ex:
        raise SchemaError(f"cannot read {path}: {ex}") from None
    return loads(text)


def _load_curve(path: str) -> TropicalCurve:
    return curve_from_dict(_read_json(path))


def _valid_fan(fan: Fan) -> Fan:
    report = fan_validate(fan)
    if not report.valid:
        v = report.violations[0]
        raise InvalidFan(f"{v.code}: {v.detail}")
    return fan


def emit_dot(c: TropicalCurve | CompactifiedCurve) -> str:
    """Deterministic DOT text for a curve or compactified curve."""
    if isinstance(c, CompactifiedCurve):
        curve = c.base
        infinity = {p.ray: p.id for p in c.infinity_points}
    else:
        curve = c
        infinity = {r.id: f"inf:{r.id}" for r in curve.rays}
    lines = ["digraph tropicalcurve {"]
    for v, pos in curve.vertices.items():
        coords = ", ".join(rat_text(x) for x in pos)
        lines.append(f'  "{v}" [label="{v} ({coords})"];')
    for r in curve.rays:
        lines.append(f'  "{infinity[r.id]}" [shape=point, label=""];')
    for e in curve.edges:
        _, length = edge_data(curve, e.id)
        lines.append(
            f'  "{e.ends[0]}" -> "{e.ends[1]}" '
            f'[dir=none, label="w={e.weight}, l={rat_text(length)}"];'
        )
    for r in curve.rays:
        direction = ", ".join(str(x) for x in r.direction)
        lines.append(
            f'  "{r.base}" -> "{infinity[r.id]}" [label="w={r.weight}, d=({direction})"];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


def _validation_entries(report):
    return [{"code": v.code, "detail": v.detail} for v in report.violations]


def _cmd_check(args) -> tuple[object, int]:
    c = _load_curve(args.curve)
    report = validate(c)
    out = {"valid": report.valid, "violations": _validation_entries(report)}
    code = 0
    if not report.valid:
        out["balanced"] = False
        return out, 1
    bal = is_balanced(c)
    out["balanced"] = bal.balanced
    out["defects"] = [{"vertex": v, "defect": list(d)} for v, d in bal.defects]
    if not bal.balanced:
        code = 1
    if args.expect_ordinary and code == 0:
        verdict = is_superabundant(c)
        out["excess"] = verdict.excess
        if verdict.superabundant:
            code = 1
    if args.emit == "dot":
        return emit_dot(c), code
    return out, code


def _cmd_genus(args) -> tuple[object, int]:
    return {"genus": genus(_load_curve(args.curve))}, 0


def _cmd_recession(args) -> tuple[object, int]:
    return {"recession_fan": fan_to_dict(recession_fan(_load_curve(args.curve)))}, 0


def _cmd_star(args) -> tuple[object, int]:
    s = star(_load_curve(args.curve), args.vertex)
    return {
        "vertex": s.vertex,
        "rays": [{"direction": list(d), "weight": w} for d, w in s.ray_weights],
    }, 0


def _cmd_compactify(args) -> tuple[object, int]:
    comp = compactify(_load_curve(args.curve))
    if args.emit == "dot":
        return emit_dot(comp), 0
    return {
        "curve": curve_to_dict(comp.base),
        "infinity_points": [{"id": p.id, "ray": p.ray} for p in comp.infinity_points],
    }, 0


def _cmd_subdivide(args) -> tuple[object, int]:
    c = _load_curve(args.curve)
    fan = _valid_fan(fan_from_dict(_read_json(args.fan)))
    record = subdivide_along_fan(c, fan)
    if args.emit == "dot":
        return emit_dot(record.output), 0
    return {
        "curve": curve_to_dict(record.output),
        "subdivision": {
            "new_vertices": [asdict(v) for v in record.new_vertices],
            "piece_cones": dict(sorted(record.piece_cones.items())),
        },
    }, 0


def _cmd_rescale(args) -> tuple[object, int]:
    out, multiplier = rescale_integral(_load_curve(args.curve))
    if args.emit == "dot":
        return emit_dot(out), 0
    return {"curve": curve_to_dict(out), "multiplier": multiplier}, 0


def _cmd_defcone(args) -> tuple[object, int]:
    cone = deformation_cone(combinatorial_type(_load_curve(args.curve)))
    return {
        **asdict(cone.verdict),
        "equations": [[rat_to_json(x) for x in row] for row in cone.equations],
        "coordinates": list(cone.coordinates),
    }, 0


def _cmd_superabundant(args) -> tuple[object, int]:
    verdict = is_superabundant(_load_curve(args.curve))
    return asdict(verdict), 1 if verdict.superabundant else 0


def _cmd_wellspaced(args) -> tuple[object, int]:
    verdict = well_spaced(_load_curve(args.curve))
    report = {
        "well_spaced": verdict.well_spaced,
        "span_codim": verdict.span_codim,
        "departures": [
            {"vertex": d.vertex, "distance": rat_to_json(d.distance)}
            for d in verdict.departures
        ],
    }
    return report, 0 if verdict.well_spaced else 1


def _cmd_certify(args) -> tuple[object, int]:
    c = _load_curve(args.curve)
    fan = _valid_fan(fan_from_dict(_read_json(args.fan)))
    if args.expect_ordinary and is_superabundant(c).superabundant:
        return {"error": "Superabundant", "detail": "curve is superabundant"}, 1
    cert = certify(c, fan)
    return certificate_to_dict(cert), 0


def _cmd_verify_cert(args) -> tuple[object, int]:
    cert = certificate_from_dict(_read_json(args.certificate))
    _valid_fan(cert.fan)
    check = verify_certificate(cert)
    return {"ok": check.ok, "violations": list(check.violations)}, 0 if check.ok else 1


def fixture_dir() -> Path:
    env = os.environ.get("TROPIC_FIXTURES")
    if env:
        return Path(env)
    from .fixtures import DIRECTORY  # imported here to keep it out of every command's start-up

    return Path(str(DIRECTORY))


def _cmd_selftest(args) -> tuple[object, int]:
    from .fixtures import BALANCED

    directory = fixture_dir()
    results = []
    ok = True
    for path in sorted(directory.glob("*.json")):
        name = path.stem
        try:
            data = _read_json(str(path))
            if name.startswith("fan_"):
                fan = fan_from_dict(data)
                report = fan_validate(fan)
                passed = report.valid
                detail = "valid fan" if passed else report.violations[0].detail
                if fan_to_dict(fan_from_dict(fan_to_dict(fan))) != fan_to_dict(fan):
                    passed, detail = False, "fan serialization round-trip failed"
            else:
                curve = curve_from_dict(data)
                passed = validate(curve).valid
                detail = "valid curve"
                if passed and name in BALANCED:
                    bal = is_balanced(curve).balanced
                    passed = bal == BALANCED[name]
                    detail = f"balanced={bal}"
                if passed and curve_from_dict(curve_to_dict(curve)) != curve:
                    passed, detail = False, "curve serialization round-trip failed"
        except TropicError as ex:
            passed, detail = False, f"{ex.code}: {ex.message}"
        results.append({"name": name, "passed": passed, "detail": detail})
        ok = ok and passed
    if not results:
        return {"ok": False, "results": [], "error": f"no fixtures under {directory}"}, 1
    return {"ok": ok, "results": results}, 0 if ok else 1


# subcommand -> (handler, the arguments it reads besides --out)
_COMMANDS = {
    "check": (_cmd_check, ("curve", "--emit", "--expect-ordinary")),
    "genus": (_cmd_genus, ("curve",)),
    "recession": (_cmd_recession, ("curve",)),
    "star": (_cmd_star, ("curve", "--vertex")),
    "compactify": (_cmd_compactify, ("curve", "--emit")),
    "subdivide": (_cmd_subdivide, ("curve", "--fan", "--emit")),
    "rescale": (_cmd_rescale, ("curve", "--emit")),
    "defcone": (_cmd_defcone, ("curve",)),
    "superabundant": (_cmd_superabundant, ("curve",)),
    "wellspaced": (_cmd_wellspaced, ("curve",)),
    "certify": (_cmd_certify, ("curve", "--fan", "--expect-ordinary")),
    "verify-cert": (_cmd_verify_cert, ("certificate",)),
    "selftest": (_cmd_selftest, ()),
}

_ARGUMENTS = {
    "curve": {"help": "curve JSON file"},
    "certificate": {"help": "certificate JSON file"},
    "--out": {"help": "write the report here instead of stdout"},
    "--fan": {"required": True, "help": "fan JSON file"},
    "--vertex": {"required": True, "help": "vertex id"},
    "--emit": {"choices": ["json", "dot"], "default": "json"},
    "--expect-ordinary": {"action": "store_true", "help": "fail on superabundant curves"},
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tropic",
        description="Exact combinatorial checks and certificates for embedded tropical curves.",
    )
    parser.add_argument("--version", action="version", version=f"tropic {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (_, arguments) in _COMMANDS.items():
        p = sub.add_parser(name)
        for arg in arguments + ("--out",):
            p.add_argument(arg, **_ARGUMENTS[arg])
    return parser


def run(argv) -> int:
    """Dispatch a parsed command line; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as ex:
        return 0 if ex.code in (0, None) else 2
    try:
        payload, code = _COMMANDS[args.subcommand][0](args)
        text = payload if isinstance(payload, str) else dumps(payload)
    except TropicError as ex:
        payload, code = _error(ex)
        text = dumps(payload)
    if args.out:
        try:
            Path(args.out).write_text(text)
            return code
        except OSError as ex:
            payload, code = _error(SchemaError(f"cannot write {args.out}: {ex}"))
            text = dumps(payload)
    sys.stdout.write(text)
    return code


def _error(ex: TropicError) -> tuple[dict, int]:
    return {"error": ex.code, "detail": ex.message}, 2 if isinstance(ex, SchemaError) else 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))

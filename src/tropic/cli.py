"""Command-line interface: batch subcommands over curve/fan JSON files.

Exit codes: 0 when the computation succeeds and any checked property holds,
1 when a check fails or a domain error occurs (unbalanced input, genus not
one, point outside the fan's support, ...), 2 for parse, schema, or usage
errors.  Every report is deterministic JSON on stdout (or --out).
"""

import argparse
import sys
from pathlib import Path

from . import __version__
from .curves import TropicalCurve, genus, is_balanced, recession_fan, star, validate
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


def _cmd_check(args) -> tuple[dict, int]:
    c = _load_curve(args.curve)
    report = validate(c)
    out = {"valid": report.valid, "violations": [v._asdict() for v in report.violations]}
    if not report.valid:
        out["balanced"] = False
        return out, 1
    bal = is_balanced(c)
    out["balanced"] = bal.balanced
    out["defects"] = [{"vertex": v, "defect": list(d)} for v, d in bal.defects]
    return out, 0 if bal.balanced else 1


def _cmd_genus(args) -> tuple[dict, int]:
    return {"genus": genus(_load_curve(args.curve))}, 0


def _cmd_recession(args) -> tuple[dict, int]:
    return {"recession_fan": fan_to_dict(recession_fan(_load_curve(args.curve)))}, 0


def _cmd_star(args) -> tuple[dict, int]:
    s = star(_load_curve(args.curve), args.vertex)
    return {
        "vertex": s.vertex,
        "rays": [{"direction": list(d), "weight": w} for d, w in s.ray_weights],
    }, 0


def _cmd_subdivide(args) -> tuple[dict, int]:
    c = _load_curve(args.curve)
    fan = _valid_fan(fan_from_dict(_read_json(args.fan)))
    record = subdivide_along_fan(c, fan)
    return {
        "curve": curve_to_dict(record.output),
        "subdivision": {
            "new_vertices": [v._asdict() for v in record.new_vertices],
            "piece_cones": dict(sorted(record.piece_cones.items())),
        },
    }, 0


def _cmd_rescale(args) -> tuple[dict, int]:
    out, multiplier = rescale_integral(_load_curve(args.curve))
    return {"curve": curve_to_dict(out), "multiplier": multiplier}, 0


def _cmd_defcone(args) -> tuple[dict, int]:
    cone = deformation_cone(combinatorial_type(_load_curve(args.curve)))
    return {
        **cone.verdict._asdict(),
        "equations": [list(row) for row in cone.equations],
        "coordinates": list(cone.coordinates),
    }, 0


def _cmd_superabundant(args) -> tuple[dict, int]:
    verdict = is_superabundant(_load_curve(args.curve))
    return verdict._asdict(), 1 if verdict.superabundant else 0


def _cmd_wellspaced(args) -> tuple[dict, int]:
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


def _cmd_certify(args) -> tuple[dict, int]:
    c = _load_curve(args.curve)
    fan = _valid_fan(fan_from_dict(_read_json(args.fan)))
    return certificate_to_dict(certify(c, fan)), 0


def _cmd_verify_cert(args) -> tuple[dict, int]:
    cert = certificate_from_dict(_read_json(args.certificate))
    _valid_fan(cert.fan)
    check = verify_certificate(cert)
    return {"ok": check.ok, "violations": list(check.violations)}, 0 if check.ok else 1


def _cmd_selftest(args) -> tuple[dict, int]:
    from . import fixtures  # imported here to keep it out of every command's start-up

    results = []
    for name, load in sorted({**fixtures.CURVES, **fixtures.FANS}.items()):
        try:
            if name in fixtures.FANS:
                fan = load()
                report = fan_validate(fan)
                passed = report.valid
                detail = "valid fan" if passed else report.violations[0].detail
                if fan_to_dict(fan_from_dict(fan_to_dict(fan))) != fan_to_dict(fan):
                    passed, detail = False, "fan serialization round-trip failed"
            else:
                curve = load()
                passed = validate(curve).valid
                detail = "valid curve"
                if passed:
                    bal = is_balanced(curve).balanced
                    passed = bal == fixtures.BALANCED[name]
                    detail = f"balanced={bal}"
                if passed and curve_from_dict(curve_to_dict(curve)) != curve:
                    passed, detail = False, "curve serialization round-trip failed"
        except TropicError as ex:
            passed, detail = False, f"{ex.code}: {ex.message}"
        results.append({"name": name, "passed": passed, "detail": detail})
    ok = all(r["passed"] for r in results)
    return {"ok": ok, "results": results}, 0 if ok else 1


# subcommand -> (handler, the arguments it reads besides --out)
_COMMANDS = {
    "check": (_cmd_check, ("curve",)),
    "genus": (_cmd_genus, ("curve",)),
    "recession": (_cmd_recession, ("curve",)),
    "star": (_cmd_star, ("curve", "--vertex")),
    "subdivide": (_cmd_subdivide, ("curve", "--fan")),
    "rescale": (_cmd_rescale, ("curve",)),
    "defcone": (_cmd_defcone, ("curve",)),
    "superabundant": (_cmd_superabundant, ("curve",)),
    "wellspaced": (_cmd_wellspaced, ("curve",)),
    "certify": (_cmd_certify, ("curve", "--fan")),
    "verify-cert": (_cmd_verify_cert, ("certificate",)),
    "selftest": (_cmd_selftest, ()),
}

_ARGUMENTS = {
    "curve": {"help": "curve JSON file"},
    "certificate": {"help": "certificate JSON file"},
    "--out": {"help": "write the report here instead of stdout"},
    "--fan": {"required": True, "help": "fan JSON file"},
    "--vertex": {"required": True, "help": "vertex id"},
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
        text = dumps(payload)
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

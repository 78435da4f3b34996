"""Command-line surface: exact ring, bundle, cone and blow-down computations.

All numeric output is exact (integers or p/q strings).  Every subcommand
takes --json for one-line machine output with a stable field order, and
--spec FILE to read the same flags from a JSON document (explicit flags
win).  Exit codes: 0 success, 1 negative mathematical verdict, 2 usage
or input error.

Degrees passed via --deg/--alpha are quotient-convention degrees; with
--convention sub the same number is the normal type of the sub-convention
model (minus its degree), and only the presentation changes.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction

from .blowdown import (
    ExceptionalDivisorData,
    MatchingTripleCertificate,
    Ruling,
    VerdictKind,
    blowdown_verdict_dim6,
)
from .bundles import (
    Decomposable,
    SemiStable,
    SurfaceGenus,
    degree,
    is_semistable,
    rank,
    slope,
    sym_power,
    twist,
)
from .cohomology import (
    BundleContext,
    Convention,
    DivisorClass,
    eta_class,
    in_forward_cone,
    line_class,
    pair,
    ratio,
    top_power,
    topological_type,
)
from .cones import (
    curve_cone_decomposable,
    kahler_cone_ratio,
    kahler_membership,
)
from .oracle import (
    DEFAULT_SEED,
    GridSpec,
    cone_sweep,
    ring_sweep,
    sympow_sweep,
)

__all__ = ["main", "console_main"]

# The denominator must hold a non-zero digit: p/0 is rejected here.
_RATIONAL_RE = re.compile(r"^[+-]?\d+(?:/\d*[1-9]\d*)?$")


class UsageError(ValueError):
    pass


def _parse_rational(text: str) -> Fraction:
    if not _RATIONAL_RE.match(text):
        raise UsageError(f"malformed rational {text!r}: expected p or p/q "
                         "with q non-zero and no spaces")
    return Fraction(text)


def _parse_pair(text: str, what: str) -> tuple[Fraction, Fraction]:
    parts = text.split(",")
    if len(parts) != 2:
        raise UsageError(f"{what} must be two comma-separated rationals, got {text!r}")
    return _parse_rational(parts[0]), _parse_rational(parts[1])


def _parse_degrees(text: str) -> tuple[int, ...]:
    parts = [p for p in text.split(",") if p != ""]
    if not parts:
        raise UsageError("empty degree list")
    try:
        return tuple(int(p) for p in parts)
    except ValueError as err:
        raise UsageError(f"malformed degree list {text!r}: {err}") from None


def _parse_int_pair(text: str, what: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise UsageError(f"{what} must be two comma-separated integers, got {text!r}")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError as err:
        raise UsageError(f"malformed {what} {text!r}: {err}") from None


def _q(value: Fraction | None) -> str | None:
    return None if value is None else str(value)


def _class_json(x: Fraction, y: Fraction) -> dict:
    return {"x": str(x), "y": str(y)}


def _bundle_json(b) -> dict:
    if isinstance(b, Decomposable):
        return {"kind": "decomposable", "degrees": list(b.degrees)}
    return {"kind": "semistable", "rank": b.rank, "degree": b.degree}


def _emit(args, payload: dict, human: list[str]) -> None:
    if args.json:
        print(json.dumps(payload))
    else:
        for line in human:
            print(line)


# ---------------------------------------------------------------- ring


def _context_from_flags(rank_: int, deg: int, convention: str, genus: int) -> BundleContext:
    conv = Convention(convention)
    ctx_degree = deg if conv is Convention.QUOTIENT else -deg
    return BundleContext(rank_, ctx_degree, conv, SurfaceGenus(genus))


def cmd_ring(args) -> int:
    if args.rank < 1:
        raise UsageError(f"rank must be positive, got {args.rank}")
    ctx = _context_from_flags(args.rank, args.deg, args.convention, args.genus)
    x, y = _parse_pair(args.class_xy, "--class")
    u = DivisorClass(x, y, ctx)
    r = ratio(u)
    payload = {
        "command": "ring",
        "rank": args.rank,
        "degree": args.deg,
        "convention": args.convention,
        "genus": args.genus,
        "class": _class_json(u.x, u.y),
        "top_power": str(top_power(u)),
        "pair_line": str(pair(u, line_class(ctx))),
        "pair_eta": str(pair(u, eta_class(ctx))),
        "forward_cone": in_forward_cone(u),
        "ratio": _q(r.value),
        "topological_type": topological_type(ctx),
    }
    if r.value is None:
        ratio_line = "ratio: undefined (<u,l> = 0)"
    elif not r.in_forward_cone:
        ratio_line = f"ratio = {r.value} (outside the forward cone)"
    else:
        ratio_line = f"ratio = {r.value}"
    human = [
        f"class: {u}",
        f"model: rank {args.rank}, degree {args.deg} (quotient convention), "
        f"genus {args.genus}, {args.convention} presentation",
        f"u^n = {top_power(u)}",
        f"<u,l> = {pair(u, line_class(ctx))}",
        f"<u,eta> = {pair(u, eta_class(ctx))}",
        f"forward cone: {'yes' if in_forward_cone(u) else 'no'}",
        ratio_line,
        f"topological type: {topological_type(ctx)}",
    ]
    _emit(args, payload, human)
    return 0


# -------------------------------------------------------------- bundle


def cmd_bundle(args) -> int:
    degrees = _parse_degrees(args.degrees)
    b = Decomposable(degrees, SurfaceGenus(0))
    action = args.action
    if action == "sympow":
        if args.m < 1:
            raise UsageError(f"-m must be >= 1, got {args.m}")
        result = sym_power(b, args.m)
        payload = {
            "command": "bundle",
            "action": "sympow",
            "input": list(degrees),
            "m": args.m,
            "degrees": list(result.degrees),
            "rank": rank(result),
            "degree": degree(result),
        }
        human = [f"{','.join(map(str, result.degrees))} "
                 f"(rank {rank(result)}, degree {degree(result)})"]
    elif action == "slope":
        payload = {
            "command": "bundle",
            "action": "slope",
            "input": list(degrees),
            "slope": str(slope(b)),
        }
        human = [str(slope(b))]
    elif action == "twist":
        result = twist(b, args.t)
        payload = {
            "command": "bundle",
            "action": "twist",
            "input": list(degrees),
            "t": args.t,
            "degrees": list(result.degrees),
        }
        human = [",".join(map(str, result.degrees))]
    else:
        payload = {
            "command": "bundle",
            "action": "semistable",
            "input": list(degrees),
            "semistable": is_semistable(b),
        }
        human = ["true" if is_semistable(b) else "false"]
    _emit(args, payload, human)
    return 0


# ---------------------------------------------------------------- cone


def cmd_cone(args) -> int:
    if (args.degrees is None) == (args.semistable is None):
        raise UsageError("give exactly one of --degrees or --semistable R,D")
    genus = SurfaceGenus(args.genus)
    if args.degrees is not None:
        b = Decomposable(_parse_degrees(args.degrees), genus)
        bundle_payload = {"kind": "decomposable", "degrees": list(b.degrees),
                          "genus": args.genus}
        bundle_line = f"bundle: decomposable {list(b.degrees)}, genus {args.genus}"
    else:
        r, d = _parse_int_pair(args.semistable, "--semistable")
        if genus.g == 0 and (r < 1 or d % r != 0):
            raise UsageError(f"no such semistable bundle: rank {r} does not divide "
                             f"degree {d} over genus 0")
        b = SemiStable(r, d, genus)
        bundle_payload = {"kind": "semistable", "rank": r, "degree": d,
                          "genus": args.genus}
        bundle_line = f"bundle: semistable rank {r} degree {d}, genus {args.genus}"

    cone = curve_cone_decomposable(b)
    cone_ratio = kahler_cone_ratio(b)
    equals_forward = cone.boundary_slope == slope(b)

    member = None
    cls_payload = None
    human_member: list[str] = []
    if args.class_xy is not None:
        x, y = _parse_pair(args.class_xy, "--class")
        u = DivisorClass(x, y, cone.rays[0].ctx)
        member = kahler_membership(u, b)
        cls_payload = _class_json(x, y)
        human_member = [f"class ({x},{y}): {'Kahler' if member else 'not Kahler'}"]

    payload = {
        "command": "cone",
        "bundle": bundle_payload,
        "rays": [str(ray) for ray in cone.rays],
        "kahler_ratio": str(cone_ratio),
        "exactness": cone.exactness.value,
        "kahler_cone_equals_forward_cone": equals_forward,
        "class": cls_payload,
        "member": member,
    }
    human = [bundle_line,
             f"extremal rays: {', '.join(str(ray) for ray in cone.rays)}"]
    if equals_forward:
        human.append("Kahler cone = forward cone")
    human.append(f"Kahler cone ratio: {cone_ratio} ({cone.exactness.value})")
    human.extend(human_member)
    _emit(args, payload, human)
    return 1 if member is False else 0


# ------------------------------------------------------------ blowdown


def _certificate_json(cert: MatchingTripleCertificate,
                      ruling: Ruling | None) -> dict:
    return {
        "bundle": _bundle_json(cert.model_bundle),
        "kahler_class": _class_json(cert.kahler_class.x, cert.kahler_class.y),
        "restricted_ratio": str(cert.restricted_ratio),
        "weak": cert.weak,
        "s1_invariant": cert.s1_invariant,
        "chosen_ruling": ruling.value if ruling is not None else None,
    }


def cmd_blowdown(args) -> int:
    if args.base == "point":
        data = ExceptionalDivisorData.point()
    else:
        if args.genus is None or args.alpha is None:
            raise UsageError("surface-base blow-down needs --genus and --alpha "
                             "(or --base point)")
        areas = None
        if args.ruled_areas is not None:
            ax, ay = _parse_pair(args.ruled_areas, "--ruled-areas")
            areas = (ax, ay)
        if args.class_xy is not None:
            x, y = _parse_pair(args.class_xy, "--class")
            # --convention only relabels the presentation; the coordinates
            # agree in both conventions for the same quotient-degree alpha.
            data = ExceptionalDivisorData.over_surface(
                args.genus, args.alpha, (x, y),
                fiber_rank=args.fiber_rank, ruled_areas=areas)
        elif areas is not None:
            if not (args.genus == 0 and args.alpha == 2 and args.fiber_rank == 2):
                raise UsageError("--ruled-areas without --class only applies to "
                                 "the genus-0, alpha=2 sphere product")
            data = ExceptionalDivisorData.from_ruled_areas(*areas)
        else:
            raise UsageError("give --class X,Y (and --ruled-areas in the "
                             "sphere-product case)")

    verdict = blowdown_verdict_dim6(data)
    cert_payload = None
    if verdict.certificate is not None:
        cert_payload = _certificate_json(verdict.certificate, verdict.chosen_ruling)

    if data.is_point_base:
        base_fields = {"base": "point", "genus": None, "fiber_rank": None,
                       "alpha": None, "ratio": None}
    else:
        base_fields = {
            "base": "surface",
            "genus": data.base_genus.g,
            "fiber_rank": data.fiber_rank,
            "alpha": data.alpha,
            "ratio": str(ratio(data.omega_class).value),
        }
    payload = {
        "command": "blowdown",
        "verdict": verdict.kind.value,
        "reason": verdict.reason,
        **base_fields,
        "certificate": cert_payload,
    }
    human = [verdict.kind.value]
    if verdict.reason:
        human.append(f"reason: {verdict.reason}")
    if verdict.chosen_ruling is not None:
        human.append(f"chosen ruling: {verdict.chosen_ruling.value}")
    if cert_payload is not None:
        human.append(f"certificate: {json.dumps(cert_payload)}")
    _emit(args, payload, human)
    if verdict.kind in (VerdictKind.ALWAYS_BLOWDOWN,
                        VerdictKind.BLOWDOWN_UP_TO_DEFORMATION):
        return 0
    return 1


# --------------------------------------------------------------- check


def cmd_check(args) -> int:
    # A bound below its minimum would leave a sweep with nothing to check.
    for flag, value, least in (("--samples", args.samples, 1), ("--max-rank", args.max_rank, 1),
                               ("--max-m", args.max_m, 1), ("--max-degree", args.max_degree, 0)):
        if value is not None and value < least:
            raise UsageError(f"{flag} must be >= {least}, got {value}")
    # Flags left out fall back to the sweep's own defaults.
    sizes = {key: value for key, value in (("max_rank", args.max_rank),
                                           ("max_abs_degree", args.max_degree))
             if value is not None}
    if args.target == "ring":
        report = ring_sweep(seed=args.seed, samples=args.samples, **sizes)
    elif args.target == "sympow":
        if args.max_m is not None:
            sizes["max_m"] = args.max_m
        report = sympow_sweep(**sizes)
    else:
        grid = GridSpec() if args.max_m is None else GridSpec(max_multisection=args.max_m)
        report = cone_sweep(grid=grid, **sizes)
    payload = {
        "command": "check",
        "target": args.target,
        "all_passed": report.all_passed,
        "checks": [
            {"name": line.name, "digest": line.digest, "passed": line.passed,
             "detail": line.detail}
            for line in report.lines
        ],
    }
    human = [line.render() for line in report.lines]
    _emit(args, payload, human)
    return 0 if report.all_passed else 1


# -------------------------------------------------------------- parser


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--json", action="store_true", help="one-line JSON output")
    sub.add_argument("--spec", default=None,
                     help="JSON file providing any of this command's flags")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pbcone",
        description="Exact intersection rings, cones and blow-down certificates "
                    "for projective bundles over curves.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ring = sub.add_parser("ring", help="ring invariants of a divisor class")
    ring.add_argument("--rank", type=int, required=True)
    ring.add_argument("--deg", type=int, required=True,
                      help="quotient-convention degree of the modeling bundle")
    ring.add_argument("--convention", choices=["quotient", "sub"], default="quotient")
    ring.add_argument("--genus", type=int, default=0)
    ring.add_argument("--class", dest="class_xy", required=True, metavar="X,Y")
    _add_common(ring)
    ring.set_defaults(func=cmd_ring)

    bundle = sub.add_parser("bundle", help="line-bundle sum algebra")
    bundle_sub = bundle.add_subparsers(dest="action", required=True)
    sympow = bundle_sub.add_parser("sympow", help="symmetric power degrees")
    sympow.add_argument("--degrees", required=True, metavar="a1,...,an")
    sympow.add_argument("-m", type=int, required=True)
    _add_common(sympow)
    sympow.set_defaults(func=cmd_bundle)
    slope_p = bundle_sub.add_parser("slope", help="degree over rank")
    slope_p.add_argument("--degrees", required=True, metavar="a1,...,an")
    _add_common(slope_p)
    slope_p.set_defaults(func=cmd_bundle)
    twist_p = bundle_sub.add_parser("twist", help="tensor by a line bundle")
    twist_p.add_argument("--degrees", required=True, metavar="a1,...,an")
    twist_p.add_argument("-t", type=int, required=True)
    _add_common(twist_p)
    twist_p.set_defaults(func=cmd_bundle)
    ss = bundle_sub.add_parser("semistable", help="semistability of the sum")
    ss.add_argument("--degrees", required=True, metavar="a1,...,an")
    _add_common(ss)
    ss.set_defaults(func=cmd_bundle)

    cone = sub.add_parser("cone", help="curve cone and Kahler cone")
    cone.add_argument("--degrees", default=None, metavar="a1,...,an")
    cone.add_argument("--semistable", default=None, metavar="R,D")
    cone.add_argument("--genus", type=int, default=0)
    cone.add_argument("--class", dest="class_xy", default=None, metavar="X,Y")
    _add_common(cone)
    cone.set_defaults(func=cmd_cone)

    blow = sub.add_parser("blowdown", help="dimension-6 blow-down verdict")
    blow.add_argument("--base", choices=["point", "surface"], default="surface")
    blow.add_argument("--genus", type=int, default=None)
    blow.add_argument("--alpha", type=int, default=None,
                      help="signed normal self-intersection (quotient-convention "
                           "degree of the model bundle)")
    blow.add_argument("--class", dest="class_xy", default=None, metavar="X,Y",
                      help="restricted symplectic class")
    blow.add_argument("--convention", choices=["sub", "quotient"], default="sub")
    blow.add_argument("--fiber-rank", type=int, default=2)
    blow.add_argument("--ruled-areas", default=None, metavar="X,Y")
    _add_common(blow)
    blow.set_defaults(func=cmd_blowdown)

    check = sub.add_parser("check", help="run brute-force oracle sweeps")
    check.add_argument("target", choices=["ring", "sympow", "cone"])
    check.add_argument("--seed", type=int, default=DEFAULT_SEED)
    check.add_argument("--max-rank", type=int, default=None)
    check.add_argument("--max-m", type=int, default=None)
    check.add_argument("--max-degree", type=int, default=None)
    check.add_argument("--samples", type=int, default=50)
    _add_common(check)
    check.set_defaults(func=cmd_check)

    return parser


# Flags whose values may start with a minus sign (negative degrees or
# rationals); argparse would otherwise read them as option strings.
_VALUE_FLAGS = {"--degrees", "--class", "--ruled-areas", "--semistable"}


def _normalize_argv(argv: list[str]) -> list[str]:
    out: list[str] = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in _VALUE_FLAGS and i + 1 < len(argv) and re.match(r"^-\d", argv[i + 1]):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def _inject_spec_args(argv: list[str]) -> list[str]:
    """Expand --spec FILE into ordinary flags placed before explicit ones."""
    if "--spec" not in argv and not any(a.startswith("--spec=") for a in argv):
        return argv
    out = list(argv)
    if "--spec" in out:
        i = out.index("--spec")
        if i + 1 >= len(out):
            raise UsageError("--spec needs a file argument")
        path = out[i + 1]
        insert_at = i
        del out[i:i + 2]
    else:
        i = next(k for k, a in enumerate(out) if a.startswith("--spec="))
        path = out[i].split("=", 1)[1]
        insert_at = i
        del out[i]
    try:
        with open(path, "r", encoding="utf-8") as fh:
            spec = json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        raise UsageError(f"cannot read spec file {path!r}: {err}") from None
    if not isinstance(spec, dict):
        raise UsageError(f"spec file {path!r} must contain a JSON object")
    injected: list[str] = []
    for key, value in spec.items():
        flag = ("-" + key) if len(key) == 1 else ("--" + key.replace("_", "-"))
        if value is None or value is False:
            continue
        if value is True:
            injected.append(flag)
        elif isinstance(value, list):
            injected.extend([flag, ",".join(str(v) for v in value)])
        else:
            injected.extend([flag, str(value)])
    return out[:insert_at] + injected + out[insert_at:]


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        argv = _normalize_argv(_inject_spec_args(list(argv)))
        args = build_parser().parse_args(argv)
        return args.func(args)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()

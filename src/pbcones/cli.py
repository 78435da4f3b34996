"""Command-line surface: exact ring, bundle, cone and blow-down computations.

All numeric output is exact (integers or p/q strings).  Every subcommand
takes --json for one-line machine output with a stable field order, and
--spec FILE to read the same flags from a JSON document (explicit flags
win wherever they appear).  Exit codes: 0 success, 1 negative
mathematical verdict, 2 usage or input error.

Each cmd_* is pure: it returns (payload, human lines, exit code) and
main alone prints, so every command shares one output path.

Degrees passed via --deg/--alpha are quotient-convention degrees; with
--convention sub the same number is the normal type of the sub-convention
model (minus its degree), and only the presentation changes.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from fractions import Fraction

from .blowdown import (
    ExceptionalDivisorData,
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
    _half_plane,
    eta_class,
    line_class,
    pair,
    ratio,
    top_power,
    topological_type,
)
from .cones import (
    kahler_cone,
    kahler_cone_ratio,
    kahler_membership,
)

__all__ = ["main", "console_main"]

# The denominator must hold a non-zero digit: p/0 is rejected here.
_RATIONAL_RE = re.compile(r"^[+-]?\d+(?:/\d*[1-9]\d*)?$")

# u^n holds x^(n-1); past this rank its digits outgrow any useful answer.
MAX_RING_RANK = 1000

# The flags each check target takes, and the keyword of its oracle sweep
# that each one sets; a flag left out keeps the sweep's own default.
_SIZES = {"--max-rank": "max_rank", "--max-degree": "max_abs_degree"}
_CHECK_TARGETS = {
    "ring": {"--seed": "seed", **_SIZES, "--samples": "samples"},
    "sympow": {**_SIZES, "--max-m": "max_m"},
    "cone": {**_SIZES, "--max-m": "max_m"},
}
# Every check flag, in the order the parser lists them and a refusal names them.
_CHECK_FLAGS = list(dict.fromkeys(flag for row in _CHECK_TARGETS.values() for flag in row))

# What every cmd_* returns: the JSON payload (main adds "command" in
# front), the human-readable lines, and the exit code.
CommandResult = tuple[dict, list[str], int]


class UsageError(ValueError):
    pass


def _parse_rational(text: str) -> Fraction:
    if not _RATIONAL_RE.match(text):
        raise UsageError(f"malformed rational {text!r}: expected p or p/q "
                         "with q non-zero and no spaces")
    return Fraction(text)


def _parse_int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise UsageError(f"malformed integer {text!r}") from None


def _parse_pair(text: str, what: str, parse=_parse_rational) -> tuple:
    parts = text.split(",")
    if len(parts) != 2:
        raise UsageError(f"{what} must be two comma-separated numbers, got {text!r}")
    return parse(parts[0]), parse(parts[1])


def _parse_degrees(text: str) -> tuple[int, ...]:
    return tuple(_parse_int(p) for p in text.split(","))


def _class_json(x: Fraction, y: Fraction) -> dict:
    return {"x": str(x), "y": str(y)}


def _bundle_json(b) -> dict:
    if isinstance(b, Decomposable):
        return {"kind": "decomposable", "degrees": list(b.degrees)}
    return {"kind": "semistable", "rank": b.rank, "degree": b.degree}


# ---------------------------------------------------------------- ring


def cmd_ring(args) -> CommandResult:
    if not 1 <= args.rank <= MAX_RING_RANK:
        raise UsageError(f"rank must be between 1 and {MAX_RING_RANK}, got {args.rank}")
    conv = Convention(args.convention)
    ctx_degree = args.deg if conv is Convention.QUOTIENT else -args.deg
    ctx = BundleContext(args.rank, ctx_degree, conv, SurfaceGenus(args.genus))
    x, y = _parse_pair(args.class_xy, "--class")
    # For x = a/b and y = c/d, u^n is a^(n-1) times the half-plane numerator
    # over b^n*d, and the ratio is that numerator over a*d.  Refuse, before
    # computing them, parts whose bit lengths could mean more digits than an
    # int may print (0.30103 exceeds log10 2).
    n = args.rank
    a, b, d = x.numerator, x.denominator, y.denominator
    bits = max((n - 1) * a.bit_length() + _half_plane(x, y, ctx.top_coefficient, n).bit_length(),
               n * b.bit_length() + d.bit_length(), a.bit_length() + d.bit_length())
    digits, limit = bits * 30103 // 100000 + 1, sys.get_int_max_str_digits()
    if limit and digits > limit:
        raise UsageError(f"the answer could have {digits} digits; ints print at most {limit}")
    u = DivisorClass(x, y, ctx)
    r = ratio(u)
    top, on_line, on_eta = top_power(u), pair(u, line_class(ctx)), pair(u, eta_class(ctx))
    top_type = topological_type(ctx)
    payload = {
        "rank": args.rank,
        "degree": args.deg,
        "convention": args.convention,
        "genus": args.genus,
        "class": _class_json(u.x, u.y),
        "top_power": str(top),
        "pair_line": str(on_line),
        "pair_eta": str(on_eta),
        "forward_cone": r.in_forward_cone,
        "ratio": None if r.value is None else str(r.value),
        "topological_type": top_type,
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
        f"u^n = {top}",
        f"<u,l> = {on_line}",
        f"<u,eta> = {on_eta}",
        f"forward cone: {'yes' if r.in_forward_cone else 'no'}",
        ratio_line,
        f"topological type: {top_type}",
    ]
    return payload, human, 0


# -------------------------------------------------------------- bundle


def cmd_bundle(args) -> CommandResult:
    degrees = _parse_degrees(args.degrees)
    b = Decomposable(degrees, SurfaceGenus(0))
    payload = {"action": args.action, "input": list(degrees)}
    if args.action == "sympow":
        result = sym_power(b, args.m)
        payload.update(m=args.m, degrees=list(result.degrees),
                       rank=rank(result), degree=degree(result))
        human = (f"{','.join(map(str, result.degrees))} "
                 f"(rank {payload['rank']}, degree {payload['degree']})")
    elif args.action == "slope":
        payload["slope"] = human = str(slope(b))
    elif args.action == "twist":
        result = twist(b, args.t)
        payload.update(t=args.t, degrees=list(result.degrees))
        human = ",".join(map(str, result.degrees))
    else:
        payload["semistable"] = is_semistable(b)
        human = "true" if payload["semistable"] else "false"
    return payload, [human], 0


# ---------------------------------------------------------------- cone


def cmd_cone(args) -> CommandResult:
    if (args.degrees is None) == (args.semistable is None):
        raise UsageError("give exactly one of --degrees or --semistable R,D")
    genus = SurfaceGenus(args.genus)
    if args.degrees is not None:
        b = Decomposable(_parse_degrees(args.degrees), genus)
        described = f"decomposable {list(b.degrees)}"
    else:
        r, d = _parse_pair(args.semistable, "--semistable", _parse_int)
        b = SemiStable(r, d, genus)
        described = f"semistable rank {r} degree {d}"

    cone = kahler_cone(b)
    cone_ratio = kahler_cone_ratio(b)
    equals_forward = cone_ratio == 0
    rays = [str(ray) for ray in cone.rays]
    human = [f"bundle: {described}, genus {args.genus}", f"extremal rays: {', '.join(rays)}"]
    if equals_forward:
        human.append("Kahler cone = forward cone")
    human.append(f"Kahler cone ratio: {cone_ratio} ({cone.exactness.value})")

    member = cls = None
    if args.class_xy is not None:
        x, y = _parse_pair(args.class_xy, "--class")
        member = kahler_membership(DivisorClass(x, y, cone.rays[0].ctx), b)
        cls = _class_json(x, y)
        human.append(f"class ({x},{y}): {'Kahler' if member else 'not Kahler'}")

    payload = {
        "bundle": {**_bundle_json(b), "genus": args.genus},
        "rays": rays,
        "kahler_ratio": str(cone_ratio),
        "exactness": cone.exactness.value,
        "kahler_cone_equals_forward_cone": equals_forward,
        "class": cls,
        "member": member,
    }
    return payload, human, 1 if member is False else 0


# ------------------------------------------------------------ blowdown


def cmd_blowdown(args) -> CommandResult:
    if args.base == "point":
        surface_flags = (("--genus", args.genus), ("--alpha", args.alpha),
                         ("--class", args.class_xy), ("--ruled-areas", args.ruled_areas))
        given = [flag for flag, value in surface_flags if value is not None]
        if given:
            raise UsageError(f"--base point takes no divisor data; drop {', '.join(given)}")
        data = ExceptionalDivisorData.point()
    else:
        if args.genus is None or args.alpha is None:
            raise UsageError("surface-base blow-down needs --genus and --alpha "
                             "(or --base point)")
        if args.class_xy is None and args.ruled_areas is None:
            raise UsageError("give --class X,Y or, for the genus-0, alpha=2 sphere "
                             "product, --ruled-areas X,Y (or both)")
        data = ExceptionalDivisorData.over_surface(
            args.genus, args.alpha,
            None if args.class_xy is None else _parse_pair(args.class_xy, "--class"),
            ruled_areas=(None if args.ruled_areas is None
                         else _parse_pair(args.ruled_areas, "--ruled-areas")))

    verdict = blowdown_verdict_dim6(data)
    cert, ruling = verdict.certificate, verdict.chosen_ruling
    cert_payload = None if cert is None else {
        "bundle": _bundle_json(cert.model_bundle),
        "kahler_class": _class_json(cert.kahler_class.x, cert.kahler_class.y),
        "restricted_ratio": str(cert.restricted_ratio),
        "weak": cert.weak,
        "s1_invariant": cert.s1_invariant,
        "chosen_ruling": None if ruling is None else ruling.value,
    }
    point = data.is_point_base
    payload = {
        "verdict": verdict.kind.value,
        "reason": verdict.reason,
        "base": "point" if point else "surface",
        "genus": None if point else data.base_genus.g,
        "fiber_rank": data.fiber_rank,
        "alpha": data.alpha,
        "ratio": None if point else str(data.rho),
        "certificate": cert_payload,
    }
    human = [verdict.kind.value]
    if verdict.reason:
        human.append(f"reason: {verdict.reason}")
    if ruling is not None:
        human.append(f"chosen ruling: {ruling.value}")
    if cert_payload is not None:
        human.append(f"certificate: {json.dumps(cert_payload)}")
    positive = (VerdictKind.ALWAYS_BLOWDOWN, VerdictKind.BLOWDOWN_UP_TO_DEFORMATION)
    return payload, human, 0 if verdict.kind in positive else 1


# --------------------------------------------------------------- check


def cmd_check(args) -> CommandResult:
    row = _CHECK_TARGETS[args.target]
    given = {flag: value for flag in _CHECK_FLAGS
             if (value := getattr(args, flag[2:].replace("-", "_"))) is not None}
    ignored = [flag for flag in given if flag not in row]
    if ignored:
        raise UsageError(f"check {args.target} takes no {', '.join(ignored)}")
    # Only check needs the oracle (and its hashlib and random); importing it
    # here keeps it out of every other command's start-up.
    from . import oracle

    try:
        report = getattr(oracle, f"{args.target}_sweep")(
            **{row[flag]: value for flag, value in given.items()})
    except oracle.OracleGuardError as err:
        if err.size is None:
            raise
        # "<sweep> sweep needs <size> ...": the first occurrence is the size
        flag = next(flag for flag, size in row.items() if size == err.size)
        raise UsageError(str(err).replace(err.size, flag, 1)) from None
    payload = {
        "target": args.target,
        "all_passed": report.all_passed,
        "checks": [
            {"name": line.name, "digest": line.digest, "passed": line.passed,
             "detail": line.detail}
            for line in report.lines
        ],
    }
    human = [line.render() for line in report.lines]
    return payload, human, 0 if report.all_passed else 1


# -------------------------------------------------------------- parser


# Each parser is built once per process: building one costs far more than
# a parse, and parse_args leaves nothing behind in the parser.
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="one-line JSON output")
    common.add_argument("--spec", default=None,
                        help="JSON file providing any of this command's flags")

    parser = argparse.ArgumentParser(
        prog="pbcone",
        description="Exact intersection rings, cones and blow-down certificates "
                    "for projective bundles over curves.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ring = sub.add_parser("ring", parents=[common], help="ring invariants of a divisor class")
    ring.add_argument("--rank", type=int, required=True,
                      help=f"fiber rank n, from 1 to {MAX_RING_RANK}")
    ring.add_argument("--deg", type=int, required=True,
                      help="quotient-convention degree of the modeling bundle")
    ring.add_argument("--convention", choices=["quotient", "sub"], default="quotient")
    ring.add_argument("--genus", type=int, default=0)
    ring.add_argument("--class", dest="class_xy", required=True, metavar="X,Y")
    ring.set_defaults(func=cmd_ring)

    bundle_sub = sub.add_parser("bundle", help="line-bundle sum algebra").add_subparsers(
        dest="action", required=True)
    for action, help_text, int_flag in (("sympow", "symmetric power degrees", "-m"),
                                        ("slope", "degree over rank", None),
                                        ("twist", "tensor by a line bundle", "-t"),
                                        ("semistable", "semistability of the sum", None)):
        p = bundle_sub.add_parser(action, parents=[common], help=help_text)
        p.add_argument("--degrees", required=True, metavar="a1,...,an")
        if int_flag is not None:
            p.add_argument(int_flag, type=int, required=True)
        p.set_defaults(func=cmd_bundle)

    cone = sub.add_parser("cone", parents=[common], help="curve cone and Kahler cone")
    cone.add_argument("--degrees", default=None, metavar="a1,...,an")
    cone.add_argument("--semistable", default=None, metavar="R,D")
    cone.add_argument("--genus", type=int, default=0)
    cone.add_argument("--class", dest="class_xy", default=None, metavar="X,Y")
    cone.set_defaults(func=cmd_cone)

    blow = sub.add_parser("blowdown", parents=[common], help="dimension-6 blow-down verdict")
    blow.add_argument("--base", choices=["point", "surface"], default="surface")
    blow.add_argument("--genus", type=int, default=None)
    blow.add_argument("--alpha", type=int, default=None,
                      help="signed normal self-intersection (quotient-convention "
                           "degree of the model bundle)")
    blow.add_argument("--class", dest="class_xy", default=None, metavar="X,Y",
                      help="restricted symplectic class")
    blow.add_argument("--convention", choices=["sub", "quotient"], default=None,
                      help="no effect (the class coordinates agree in both "
                           "conventions); will be removed")
    blow.add_argument("--ruled-areas", default=None, metavar="X,Y")
    blow.set_defaults(func=cmd_blowdown)

    check = sub.add_parser("check", parents=[common], help="run brute-force oracle sweeps")
    check.add_argument("target", choices=list(_CHECK_TARGETS))
    for flag in _CHECK_FLAGS:
        takers = [target for target, row in _CHECK_TARGETS.items() if flag in row]
        check.add_argument(flag, type=int, default=None,
                           help=None if len(takers) == len(_CHECK_TARGETS)
                           else f"{' and '.join(takers)} only")
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


@functools.cache
def _spec_parser() -> argparse.ArgumentParser:
    pre = argparse.ArgumentParser(add_help=False, allow_abbrev=False, exit_on_error=False)
    pre.add_argument("--spec")
    return pre


def _expand_spec(argv: list[str]) -> list[str]:
    """Replace --spec FILE by the file's flags, placed before the first
    explicit flag so that explicit flags win wherever they appear."""
    known, rest = _spec_parser().parse_known_args(argv)
    rest = _normalize_argv(rest)
    if known.spec is None:
        return rest
    try:
        with open(known.spec, encoding="utf-8") as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as err:
        raise UsageError(f"cannot read spec file {known.spec!r}: {err}") from None
    if not isinstance(spec, dict):
        raise UsageError(f"spec file {known.spec!r} must contain a JSON object")
    if "spec" in spec:
        raise UsageError(f"spec file {known.spec!r} may not name another spec file")
    flags: list[str] = []
    for key, value in spec.items():
        flag = ("-" + key) if len(key) == 1 else ("--" + key.replace("_", "-"))
        if value is True:
            flags.append(flag)
        elif value is not None and value is not False:
            if isinstance(value, list):
                value = ",".join(str(v) for v in value)
            flags.append(f"{flag}={value}")
    at = next((i for i, tok in enumerate(rest) if tok.startswith("-")), len(rest))
    return rest[:at] + flags + rest[at:]


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = build_parser().parse_args(_expand_spec(list(argv)))
        payload, human, code = args.func(args)
    except (ValueError, argparse.ArgumentError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    if args.command == "blowdown" and args.convention is not None:
        print("notice: blowdown --convention has no effect and will be removed",
              file=sys.stderr)
    for line in [json.dumps({"command": args.command, **payload})] if args.json else human:
        print(line)
    return code


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()

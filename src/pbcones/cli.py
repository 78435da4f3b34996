"""Command-line surface: exact ring, bundle, cone and blow-down computations.

All numeric output is exact (integers or p/q strings).  Every subcommand
takes --json for one-line machine output with a stable field order, and
--spec FILE to read the same flags from a JSON document (explicit flags
win wherever they appear).  Exit codes: 0 success, 1 negative
mathematical verdict, 2 usage or input error, which prints one
"error: ..." line on stderr whether argparse or a command refused.

Each cmd_* is pure: it reads values its flags' argparse types parsed and
returns (payload, human lines, exit code); run renders a command line, --help
too, as (code, stdout, stderr), and main alone writes.  Each binds the library
names it uses when called, none at import: a command loads only the modules it
runs, and one call never mixes two imports of a library module.

Degrees passed via --deg/--alpha are quotient-convention degrees; with
ring --convention sub the same number is the normal type of the
sub-convention model (minus its degree), and only the presentation changes.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
from fractions import Fraction

__all__ = ["main", "run"]

# ASCII digits only, matched in full (int() and Fraction() would also take
# spaces, underscores and other scripts' digits).  The denominator must hold
# a non-zero digit: p/0 is rejected here.
_RATIONAL_RE = re.compile(r"[+-]?[0-9]+(?:/[0-9]*[1-9][0-9]*)?")
_INT_RE = re.compile(r"[+-]?[0-9]+")

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

# What every cmd_* returns: the JSON payload (run adds "command" in
# front), the human-readable lines, and the exit code.
CommandResult = tuple[dict, list[str], int]


class UsageError(ValueError):
    pass


class _Help(Exception):
    """--help's text, raised where argparse would print it and exit."""


class _Parser(argparse.ArgumentParser):
    """Refuses with a UsageError and raises --help's text, so that argparse
    writes nothing itself; takes no abbreviated flag.  Subparsers use it."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        raise UsageError(message)

    def print_help(self, file=None):
        raise _Help(self.format_help())


# Argparse types: each raises ArgumentTypeError, whose text argparse prints
# after the flag's name (a plain ValueError would lose the text).
def _rational(text: str) -> Fraction:
    if not _RATIONAL_RE.fullmatch(text):
        raise argparse.ArgumentTypeError(f"malformed rational {text!r}: expected p or "
                                         "p/q with q non-zero and no spaces")
    return Fraction(text)


def _int(text: str) -> int:
    try:
        if _INT_RE.fullmatch(text):
            return int(text)
    except ValueError:  # more digits than int() converts
        pass
    raise argparse.ArgumentTypeError(f"malformed integer {text!r}")


def _pair(text: str, parse=_rational) -> tuple:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected two comma-separated numbers, got {text!r}")
    return parse(parts[0]), parse(parts[1])


def _degrees(text: str) -> tuple[int, ...]:
    return tuple(_int(p) for p in text.split(","))


def _class_json(x: Fraction, y: Fraction) -> dict:
    return {"x": str(x), "y": str(y)}


def _bundle_json(b) -> dict:
    from .bundles import Decomposable
    if isinstance(b, Decomposable):
        return {"kind": "decomposable", "degrees": list(b.degrees)}
    return {"kind": "semistable", "rank": b.rank, "degree": b.degree}


# ---------------------------------------------------------------- ring


def cmd_ring(args) -> CommandResult:
    from .bundles import SurfaceGenus
    from .cohomology import (BundleContext, Convention, DivisorClass, _half_plane, eta_class,
                             line_class, pair, ratio, top_power, topological_type)

    if not 1 <= args.rank <= MAX_RING_RANK:
        raise UsageError(f"rank must be between 1 and {MAX_RING_RANK}, got {args.rank}")
    conv = Convention(args.convention)
    ctx_degree = args.deg if conv is Convention.QUOTIENT else -args.deg
    ctx = BundleContext(args.rank, ctx_degree, conv, SurfaceGenus(args.genus))
    x, y = args.class_xy
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
    from .bundles import (Decomposable, SurfaceGenus, degree, is_semistable, rank, slope,
                          sym_power, twist)

    b = Decomposable(args.degrees, SurfaceGenus(0))
    payload = {"action": args.action, "input": list(args.degrees)}
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
    from .bundles import Decomposable, SemiStable, SurfaceGenus
    from .cohomology import DivisorClass
    from .cones import kahler_cone, kahler_cone_ratio, kahler_membership

    genus = SurfaceGenus(args.genus)
    if args.degrees is not None:
        b = Decomposable(args.degrees, genus)
        described = f"decomposable {list(b.degrees)}"
    else:
        r, d = args.semistable
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
        x, y = args.class_xy
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
    from .blowdown import ExceptionalDivisorData, VerdictKind, blowdown_verdict_dim6

    if args.base == "point":
        surface_flags = (("--genus", args.genus), ("--alpha", args.alpha),
                         ("--class", args.class_xy), ("--ruled-areas", args.ruled_areas))
        given = [flag for flag, value in surface_flags if value is not None]
        if given:
            raise UsageError(f"--base point has no divisor data; drop {', '.join(given)}")
        data = ExceptionalDivisorData.point()
    else:
        if args.genus is None or args.alpha is None:
            raise UsageError("surface-base blow-down needs --genus and --alpha "
                             "(or --base point)")
        data = ExceptionalDivisorData.over_surface(args.genus, args.alpha, args.class_xy,
                                                   ruled_areas=args.ruled_areas)

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
    from . import oracle

    try:
        report = getattr(oracle, f"{args.target}_sweep")(
            **{size: value for size in row.values() if (value := getattr(args, size)) is not None})
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

    parser = _Parser(
        prog="pbcone",
        description="Exact intersection rings, cones and blow-down certificates "
                    "for projective bundles over curves.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ring = sub.add_parser("ring", parents=[common], help="ring invariants of a divisor class")
    ring.add_argument("--rank", type=_int, required=True,
                      help=f"fiber rank n, from 1 to {MAX_RING_RANK}")
    ring.add_argument("--deg", type=_int, required=True,
                      help="quotient-convention degree of the modeling bundle")
    ring.add_argument("--convention", choices=["quotient", "sub"], default="quotient")
    ring.add_argument("--genus", type=_int, default=0)
    ring.add_argument("--class", dest="class_xy", type=_pair, required=True, metavar="X,Y")
    ring.set_defaults(func=cmd_ring)

    bundle_sub = sub.add_parser("bundle", help="line-bundle sum algebra").add_subparsers(
        dest="action", required=True)
    for action, help_text, int_flag in (("sympow", "symmetric power degrees", "-m"),
                                        ("slope", "degree over rank", None),
                                        ("twist", "tensor by a line bundle", "-t"),
                                        ("semistable", "semistability of the sum", None)):
        p = bundle_sub.add_parser(action, parents=[common], help=help_text)
        p.add_argument("--degrees", type=_degrees, required=True, metavar="a1,...,an")
        if int_flag is not None:
            p.add_argument(int_flag, type=_int, required=True)
        p.set_defaults(func=cmd_bundle)

    cone = sub.add_parser("cone", parents=[common], help="curve cone and Kahler cone")
    bundle = cone.add_mutually_exclusive_group(required=True)
    bundle.add_argument("--degrees", type=_degrees, default=None, metavar="a1,...,an")
    bundle.add_argument("--semistable", type=functools.partial(_pair, parse=_int),
                        default=None, metavar="R,D")
    cone.add_argument("--genus", type=_int, default=0)
    cone.add_argument("--class", dest="class_xy", type=_pair, default=None, metavar="X,Y")
    cone.set_defaults(func=cmd_cone)

    blow = sub.add_parser("blowdown", parents=[common], help="dimension-6 blow-down verdict")
    blow.add_argument("--base", choices=["point", "surface"], default="surface")
    blow.add_argument("--genus", type=_int, default=None)
    blow.add_argument("--alpha", type=_int, default=None,
                      help="signed normal self-intersection (quotient-convention "
                           "degree of the model bundle)")
    blow.add_argument("--class", dest="class_xy", type=_pair, default=None, metavar="X,Y",
                      help="restricted symplectic class")
    blow.add_argument("--convention", choices=["sub", "quotient"], default=None,
                      help="no effect (the class coordinates agree in both "
                           "conventions); will be removed")
    blow.add_argument("--ruled-areas", type=_pair, default=None, metavar="X,Y")
    blow.set_defaults(func=cmd_blowdown)

    check_sub = sub.add_parser("check", help="run brute-force oracle sweeps").add_subparsers(
        dest="target", required=True)
    for target, row in _CHECK_TARGETS.items():
        p = check_sub.add_parser(target, parents=[common], help=f"the {target} oracle sweep")
        for flag, size in row.items():
            p.add_argument(flag, dest=size, type=_int, default=None, metavar="N")
        p.set_defaults(func=cmd_check)

    return parser


def _normalize_argv(argv: list[str]) -> list[str]:
    """Join "--flag -1..." into "--flag=-1...", since argparse reads a value
    such as "-1,0" (a negative degree or rational) as an option string."""
    out: list[str] = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok.startswith("--") and i + 1 < len(argv) and re.match(r"^-\d", argv[i + 1]):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


@functools.cache
def _spec_parser() -> argparse.ArgumentParser:
    pre = _Parser(add_help=False)
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


def run(argv: list[str]) -> tuple[int, str, str]:
    """The exit code, stdout text and stderr text of one command line."""
    try:
        args = build_parser().parse_args(_expand_spec(list(argv)))
        payload, human, code = args.func(args)
    except _Help as shown:
        return 0, str(shown), ""
    except ValueError as err:
        # one line, also where the message echoes an argument's line break
        text = "".join(c if c.isprintable() else repr(c)[1:-1] for c in str(err))
        return 2, "", f"error: {text}\n"
    notice = ""
    if args.command == "blowdown" and args.convention is not None:
        notice = "notice: blowdown --convention has no effect and will be removed\n"
    lines = [json.dumps({"command": args.command, **payload})] if args.json else human
    return code, "\n".join([*lines, ""]), notice


def main(argv: list[str] | None = None) -> int:
    code, out, err = run(sys.argv[1:] if argv is None else argv)
    sys.stderr.write(err)
    try:
        sys.stdout.write(out)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader left early.  Point stdout at devnull, so that the
        # interpreter's flush at exit cannot raise again, and keep the code.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())

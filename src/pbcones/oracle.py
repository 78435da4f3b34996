"""Brute-force oracles for the closed formulas used elsewhere.

Everything here recomputes results from first principles with machinery
deliberately separate from the main modules: the ring power expands and
rewrites monomials instead of using the closed formula, the symmetric-power
degrees come from raw exponent enumeration rather than index multisets,
and the cone check pairs classes by direct integer arithmetic.

Reports are deterministic given seed and ranges and render as
machine-readable lines

    CHECK <name> <input-digest> PASS|FAIL <detail>
"""

from __future__ import annotations

import hashlib
import math
import random
from fractions import Fraction
from itertools import combinations_with_replacement

from .bundles import Decomposable, SurfaceGenus, _Record, _setattr, sym_power, sym_rank_degree
from .cohomology import BundleContext, Convention, DivisorClass, top_power
from .cones import bundle_context, kahler_membership

__all__ = [
    "DEFAULT_SEED",
    "OracleGuardError",
    "CheckLine",
    "CheckReport",
    "GridSpec",
    "brute_ring_power",
    "enumerate_sym_quotients",
    "sample_cone_check",
    "ring_sweep",
    "sympow_sweep",
    "cone_sweep",
]

DEFAULT_SEED = 2718

_MAX_ORACLE_RANK = 6
_MAX_ORACLE_POWER = 8
_MAX_SWEEP_BUNDLES = 10**5
_MAX_SWEEP_DEGREES = 10**6
_MAX_RING_CLASSES = 10**6


class OracleGuardError(ValueError):
    """An oracle size guard was exceeded.

    A refusal of one size argument names it in `size`, so that a caller
    can reword the message under the name its own user typed.
    """

    def __init__(self, message: str, size: str | None = None) -> None:
        super().__init__(message)
        self.size = size


class CheckLine(_Record):
    __slots__ = ("name", "digest", "passed", "detail")

    def __init__(self, name: str, digest: str, passed: bool, detail: str) -> None:
        _setattr(self, "name", name)
        _setattr(self, "digest", digest)
        _setattr(self, "passed", passed)
        _setattr(self, "detail", detail)

    def render(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"CHECK {self.name} {self.digest} {status} {self.detail}"


class CheckReport(_Record):
    __slots__ = ("lines",)

    def __init__(self, lines=()) -> None:
        _setattr(self, "lines", tuple(lines))

    @property
    def all_passed(self) -> bool:
        return all(line.passed for line in self.lines)

    def render(self) -> str:
        return "\n".join(line.render() for line in self.lines)


def _line(name: str, key: str, passed: bool, detail: str) -> CheckLine:
    """The check line for key, named by the first 12 hex digits of its sha256."""
    return CheckLine(name, hashlib.sha256(key.encode("utf-8")).hexdigest()[:12], passed, detail)


def brute_ring_power(u: DivisorClass, k: int) -> Fraction:
    """(x*h + y*F)^k integrated, by binomial expansion and monomial rewriting.

    Works in integer arithmetic over the common denominator of x and y,
    independently of the closed formula in top_power.  Each of the k+1
    binomial terms c * h^a F^b is taken in one pass: a hyperplane power
    h^a with a >= n is rewritten first (h^n -> e*h^{n-1}*F, one step at a
    time), then a term with F^2 is discarded, and what is left integrates
    to its coefficient if it is the point class h^{n-1}F and to 0 if not.
    """
    n = u.ctx.rank
    if k > n:
        raise OracleGuardError(f"brute ring power only defined up to the rank ({n}), got {k}")
    e = u.ctx.top_coefficient
    qx, qy = u.x.denominator, u.y.denominator
    ax, ay = u.x.numerator * qy, u.y.numerator * qx

    total = 0
    for j in range(k + 1):
        a, b = k - j, j
        c = math.comb(k, j) * ax ** a * ay ** b
        while a >= n:  # h^n -> e * h^{n-1} F
            a, b, c = a - 1, b + 1, c * e
        if b >= 2:  # F^2 = 0
            continue
        if a == n - 1 and b == 1:  # the point class
            total += c
    return Fraction(total, (qx * qy) ** k)


def enumerate_sym_quotients(b: Decomposable, m: int) -> list[int]:
    """All summand degrees of the m-th symmetric power, by raw exponent
    enumeration over (k_1, ..., k_r) with sum m.  Sorted ascending."""
    r = len(b.degrees)
    if r > _MAX_ORACLE_RANK:
        raise OracleGuardError(f"oracle enumeration capped at rank {_MAX_ORACLE_RANK}, got {r}")
    if m > _MAX_ORACLE_POWER:
        raise OracleGuardError(f"oracle enumeration capped at power {_MAX_ORACLE_POWER}, got {m}")
    if m < 1:
        raise ValueError(f"symmetric power exponent must be >= 1, got {m}")

    # (degree so far, exponent left) for every choice of k_1..k_i; the
    # last summand takes whatever exponent is left.
    partial = [(0, m)]
    for a in b.degrees[:-1]:
        partial = [(deg + k * a, left - k) for deg, left in partial for k in range(left + 1)]
    last = b.degrees[-1]
    return sorted(deg + left * last for deg, left in partial)


class GridSpec:
    """The integer grid of classes (x, y) that the cone check samples."""

    x_min, x_max = 1, 5
    y_min, y_max = -5, 5


def sample_cone_check(b: Decomposable, max_m: int = 5) -> CheckReport:
    """Check that Kahler membership forces positive pairing with every
    enumerated multisection class bound a*l + m*eta, m from 1 to max_m.

    Pairings are computed inline as a*x + m*y over the integer grid; the
    candidate degrees a come from the symmetric-power enumeration.
    """
    section_degrees = {m: enumerate_sym_quotients(b, m) for m in range(1, max_m + 1)}
    ctx = bundle_context(b)
    # each grid coordinate with its Fraction, built once per bundle
    ys = [(y, Fraction(y)) for y in range(GridSpec.y_min, GridSpec.y_max + 1)]
    tested = 0
    violations: list[str] = []
    for x in range(GridSpec.x_min, GridSpec.x_max + 1):
        fx = Fraction(x)
        for y, fy in ys:
            if not kahler_membership(DivisorClass(fx, fy, ctx), b):
                continue
            tested += 1
            for m, degs in section_degrees.items():
                for a in degs:
                    if a * x + m * y <= 0:
                        violations.append(f"({x},{y}) pairs {a * x + m * y} with {a}l+{m}eta")
    key = (f"cone degrees={list(b.degrees)} grid=x[{GridSpec.x_min},{GridSpec.x_max}] "
           f"y[{GridSpec.y_min},{GridSpec.y_max}] m<={max_m} strict")
    detail = f"classes={tested} violations={len(violations)}"
    if violations:
        detail += f" first={violations[0]}"
    return CheckReport([_line("cone-positivity", key, not violations, detail)])


# Every value Fraction(p, q) of a sample, p in -9..9 and q in 1..9, at
# index 9*(p + 9) + (q - 1).
_SAMPLE_FRACTIONS = tuple(Fraction(p, q) for p in range(-9, 10) for q in range(1, 10))


def _random_fraction(rng: random.Random) -> Fraction:
    """Fraction(rng.randint(-9, 9), rng.randint(1, 9)), from the same bits:
    randint(a, b) draws a + r with r = getrandbits(k) for the bit length k
    of b - a + 1, redrawn until r <= b - a."""
    bits = rng.getrandbits
    p = bits(5)
    while p >= 19:
        p = bits(5)
    q = bits(4)
    while q >= 9:
        q = bits(4)
    return _SAMPLE_FRACTIONS[9 * p + q]


def _guard_least_sizes(sweep: str, max_rank: int, max_abs_degree: int, **counts: int) -> None:
    """Refuse sizes that leave a sweep nothing to check, and ranks past the
    oracle's cap: max_rank from 1 to the cap, max_abs_degree at least 0,
    and every count (samples, powers) at least 1."""
    if not 1 <= max_rank <= _MAX_ORACLE_RANK:
        raise OracleGuardError(f"{sweep} sweep needs max_rank from 1 to {_MAX_ORACLE_RANK}, "
                               f"got {max_rank}", "max_rank")
    if max_abs_degree < 0:
        raise OracleGuardError(f"{sweep} sweep needs max_abs_degree >= 0, got {max_abs_degree}",
                               "max_abs_degree")
    for name, value in counts.items():
        if value < 1:
            raise OracleGuardError(f"{sweep} sweep needs {name} >= 1, got {value}", name)


def ring_sweep(seed: int = DEFAULT_SEED, max_rank: int = 6, max_abs_degree: int = 10,
               samples: int = 50) -> CheckReport:
    """Compare the closed top-power formula with the brute ring oracle on
    random rational classes, for every rank, degree and convention."""
    _guard_least_sizes("ring", max_rank, max_abs_degree, samples=samples)
    classes = max_rank * (2 * max_abs_degree + 1) * len(Convention) * samples
    if classes > _MAX_RING_CLASSES:
        raise OracleGuardError(f"ring sweep would sample {classes} classes, more than "
                               f"{_MAX_RING_CLASSES}")
    lines = []
    rng = random.Random(seed)
    for n in range(1, max_rank + 1):
        for d in range(-max_abs_degree, max_abs_degree + 1):
            for convention in (Convention.QUOTIENT, Convention.SUB):
                ctx = BundleContext(n, d, convention)
                mismatches = 0
                for _ in range(samples):
                    u = DivisorClass(_random_fraction(rng), _random_fraction(rng), ctx)
                    if top_power(u) != brute_ring_power(u, n):
                        mismatches += 1
                key = f"ring n={n} d={d} conv={convention.value} seed={seed} samples={samples}"
                lines.append(_line("ring-top-power", key, mismatches == 0,
                                   f"n={n} d={d} conv={convention.value} seed={seed} "
                                   f"samples={samples} mismatches={mismatches}"))
    return CheckReport(lines)


def _guard_sweep_size(sweep: str, max_rank: int, max_abs_degree: int, max_m: int) -> None:
    """Refuse what _guard_least_sizes refuses; then count the degree
    multisets a sweep walks, and the summand degrees of their symmetric
    powers up to max_m, before walking them; then refuse a power past the
    oracle's cap."""
    _guard_least_sizes(sweep, max_rank, max_abs_degree, max_m=max_m)
    span = 2 * max_abs_degree + 1
    bundles = {r: math.comb(span + r - 1, r) for r in range(1, max_rank + 1)}
    if sum(bundles.values()) > _MAX_SWEEP_BUNDLES:
        raise OracleGuardError(f"{sweep} sweep over ranks up to {max_rank} and degrees up to "
                               f"{max_abs_degree} in absolute value exceeds "
                               f"{_MAX_SWEEP_BUNDLES} bundles")
    # sum over m = 1..M of C(m + r - 1, r - 1) is C(M + r, r) - 1
    degrees = sum(count * (math.comb(max_m + r, r) - 1) for r, count in bundles.items())
    if degrees > _MAX_SWEEP_DEGREES:
        raise OracleGuardError(f"{sweep} sweep up to rank {max_rank}, degree {max_abs_degree} "
                               f"and power {max_m} enumerates {degrees} summand degrees, "
                               f"more than {_MAX_SWEEP_DEGREES}")
    if max_m > _MAX_ORACLE_POWER:
        raise OracleGuardError(f"{sweep} sweep needs max_m <= {_MAX_ORACLE_POWER}, "
                               f"got {max_m}", "max_m")


def sympow_sweep(max_rank: int = 4, max_abs_degree: int = 5, max_m: int = 6) -> CheckReport:
    """Exhaustively confirm the symmetric-power rank/degree formulas and the
    minimal-degree bound against raw enumeration."""
    _guard_sweep_size("sympow", max_rank, max_abs_degree, max_m)
    lines = []
    genus0 = SurfaceGenus(0)
    span = range(-max_abs_degree, max_abs_degree + 1)
    for r in range(1, max_rank + 1):
        for m in range(1, max_m + 1):
            bundles = 0
            bad: list[str] = []
            for degrees in combinations_with_replacement(span, r):
                b = Decomposable(degrees, genus0)
                bundles += 1
                enum = enumerate_sym_quotients(b, m)
                want_rank, want_degree = sym_rank_degree(r, sum(degrees), m)
                ok = (len(enum) == want_rank
                      and sum(enum) == want_degree
                      and enum[0] == m * degrees[0]
                      and enum[-1] == m * degrees[-1]
                      and tuple(enum) == sym_power(b, m).degrees)
                if not ok:
                    bad.append(f"degrees={list(degrees)}")
            detail = (f"r={r} m={m} bundles={bundles} bad={len(bad)} first={bad[0]}" if bad
                      else f"r={r} m={m} bundles={bundles} mismatches=0")
            lines.append(_line("sympow-formulas", f"sympow r={r} m={m} span={max_abs_degree}",
                               not bad, detail))
    return CheckReport(lines)


def cone_sweep(max_rank: int = 3, max_abs_degree: int = 3, max_m: int = 5) -> CheckReport:
    """Run the cone positivity check, with multisections of degree up to
    max_m, over all decomposable bundles in range."""
    _guard_sweep_size("cone", max_rank, max_abs_degree, max_m)
    genus0 = SurfaceGenus(0)
    span = range(-max_abs_degree, max_abs_degree + 1)
    return CheckReport(line for r in range(1, max_rank + 1)
                       for degrees in combinations_with_replacement(span, r)
                       for line in sample_cone_check(Decomposable(degrees, genus0), max_m).lines)

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
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations_with_replacement

from .bundles import Decomposable, SurfaceGenus, sym_power, sym_rank_degree
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


class OracleGuardError(ValueError):
    """An oracle size guard was exceeded."""


@dataclass(frozen=True)
class CheckLine:
    name: str
    digest: str
    passed: bool
    detail: str

    def render(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"CHECK {self.name} {self.digest} {status} {self.detail}"


@dataclass
class CheckReport:
    lines: list[CheckLine] = field(default_factory=list)

    @property
    def all_passed(self) -> bool:
        return all(line.passed for line in self.lines)

    def add(self, name: str, key: str, passed: bool, detail: str) -> None:
        self.lines.append(CheckLine(name, _digest(key), passed, detail))

    def extend(self, other: "CheckReport") -> None:
        self.lines.extend(other.lines)

    def render(self) -> str:
        return "\n".join(line.render() for line in self.lines)


def _digest(key: str) -> str:
    return hashlib.sha256(key.encode("utf-8")).hexdigest()[:12]


def brute_ring_power(u: DivisorClass, k: int) -> Fraction:
    """(x*h + y*F)^k integrated, by binomial expansion and monomial rewriting.

    Works in integer arithmetic over the common denominator of x and y,
    independently of the closed formula in top_power: hyperplane powers
    h^a with a >= n are rewritten first (h^n -> e*h^{n-1}*F, one step at a
    time), and only then are monomials with F^2 discarded.
    """
    n = u.ctx.rank
    if k > n:
        raise OracleGuardError(f"brute ring power only defined up to the rank ({n}), got {k}")
    e = u.ctx.top_coefficient
    qx, qy = u.x.denominator, u.y.denominator
    ax, ay = u.x.numerator * qy, u.y.numerator * qx
    den = qx * qy

    xs = [1] * (k + 1)
    ys = [1] * (k + 1)
    for i in range(1, k + 1):
        xs[i] = xs[i - 1] * ax
        ys[i] = ys[i - 1] * ay
    raw: dict[tuple[int, int], int] = {}
    for j in range(k + 1):
        raw[(k - j, j)] = math.comb(k, j) * xs[k - j] * ys[j]

    # Rewrite hyperplane powers down below n.
    changed = True
    while changed:
        changed = False
        for (a, b), c in list(raw.items()):
            if a >= n and c:
                del raw[(a, b)]
                key = (a - 1, b + 1)
                raw[key] = raw.get(key, 0) + c * e
                changed = True

    # Discard anything with a repeated fiber factor, then integrate.
    total = 0
    for (a, b), c in raw.items():
        if b >= 2:
            continue
        if (a, b) == (n - 1, 1):
            total += c
    return Fraction(total, den ** k)


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

    degrees = b.degrees

    def degrees_of(tail_start: int, remaining: int) -> list[int]:
        if tail_start == r - 1:
            return [remaining * degrees[tail_start]]
        out = []
        for k in range(remaining + 1):
            head = k * degrees[tail_start]
            for rest in degrees_of(tail_start + 1, remaining - k):
                out.append(head + rest)
        return out

    return sorted(degrees_of(0, m))


@dataclass(frozen=True)
class GridSpec:
    """Integer sampling grid for cone checks.

    strict=False replaces the strict membership inequality with a closed
    one; this is the deliberate negative control that must produce
    boundary violations.
    """

    x_min: int = 1
    x_max: int = 5
    y_min: int = -5
    y_max: int = 5
    max_multisection: int = 5
    strict: bool = True

    def describe(self) -> str:
        kind = "strict" if self.strict else "closed"
        return (f"x[{self.x_min},{self.x_max}] y[{self.y_min},{self.y_max}] "
                f"m<={self.max_multisection} {kind}")


def sample_cone_check(b: Decomposable, grid: GridSpec = GridSpec()) -> CheckReport:
    """Check that Kahler membership forces positive pairing with every
    enumerated multisection class bound a*l + m*eta.

    Pairings are computed inline as a*x + m*y over the integer grid; the
    candidate degrees a come from the symmetric-power enumeration.
    """
    report = CheckReport()
    a1 = min(b.degrees)
    section_degrees = {
        m: enumerate_sym_quotients(b, m) for m in range(1, grid.max_multisection + 1)
    }
    ctx = bundle_context(b)
    tested = 0
    violations: list[str] = []
    for x in range(grid.x_min, grid.x_max + 1):
        for y in range(grid.y_min, grid.y_max + 1):
            if grid.strict:
                member = kahler_membership(DivisorClass(x, y, ctx), b)
            else:
                member = x > 0 and a1 * x + y >= 0
            if not member:
                continue
            tested += 1
            for m, degs in section_degrees.items():
                for a in degs:
                    if a * x + m * y <= 0:
                        violations.append(f"({x},{y}) pairs {a * x + m * y} with {a}l+{m}eta")
    key = f"cone degrees={list(b.degrees)} grid={grid.describe()}"
    if violations:
        report.add("cone-positivity", key, False,
                   f"classes={tested} violations={len(violations)} first={violations[0]}")
    else:
        report.add("cone-positivity", key, True,
                   f"classes={tested} violations=0")
    return report


def _random_fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-9, 9), rng.randint(1, 9))


def ring_sweep(seed: int = DEFAULT_SEED, max_rank: int = 6, max_abs_degree: int = 10,
               samples: int = 1000) -> CheckReport:
    """Compare the closed top-power formula with the brute ring oracle on
    random rational classes, for every rank, degree and convention."""
    if max_rank > _MAX_ORACLE_RANK:
        raise OracleGuardError(f"ring sweep capped at rank {_MAX_ORACLE_RANK}, got {max_rank}")
    report = CheckReport()
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
                report.add("ring-top-power", key, mismatches == 0,
                           f"n={n} d={d} conv={convention.value} seed={seed} "
                           f"samples={samples} mismatches={mismatches}")
    return report


def _guard_bundle_count(sweep: str, max_rank: int, max_abs_degree: int) -> None:
    """Count the degree multisets a sweep walks, before walking them."""
    span = max(2 * max_abs_degree + 1, 0)
    if sum(math.comb(span + r - 1, r) for r in range(1, max_rank + 1)) > _MAX_SWEEP_BUNDLES:
        raise OracleGuardError(f"{sweep} sweep over ranks up to {max_rank} and degrees up to "
                               f"{max_abs_degree} in absolute value exceeds "
                               f"{_MAX_SWEEP_BUNDLES} bundles")


def sympow_sweep(max_rank: int = 4, max_abs_degree: int = 5, max_m: int = 6) -> CheckReport:
    """Exhaustively confirm the symmetric-power rank/degree formulas and the
    minimal-degree bound against raw enumeration."""
    if max_rank > _MAX_ORACLE_RANK:
        raise OracleGuardError(f"sympow sweep capped at rank {_MAX_ORACLE_RANK}, got {max_rank}")
    if max_m > _MAX_ORACLE_POWER:
        raise OracleGuardError(f"sympow sweep capped at power {_MAX_ORACLE_POWER}, got {max_m}")
    _guard_bundle_count("sympow", max_rank, max_abs_degree)
    report = CheckReport()
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
            key = f"sympow r={r} m={m} span={max_abs_degree}"
            if bad:
                report.add("sympow-formulas", key, False,
                           f"r={r} m={m} bundles={bundles} bad={len(bad)} first={bad[0]}")
            else:
                report.add("sympow-formulas", key, True,
                           f"r={r} m={m} bundles={bundles} mismatches=0")
    return report


def cone_sweep(max_rank: int = 3, max_abs_degree: int = 3,
               grid: GridSpec = GridSpec()) -> CheckReport:
    """Run the cone positivity check over all decomposable bundles in range."""
    if max_rank > _MAX_ORACLE_RANK:
        raise OracleGuardError(f"cone sweep capped at rank {_MAX_ORACLE_RANK}, got {max_rank}")
    _guard_bundle_count("cone", max_rank, max_abs_degree)
    report = CheckReport()
    genus0 = SurfaceGenus(0)
    span = range(-max_abs_degree, max_abs_degree + 1)
    for r in range(1, max_rank + 1):
        for degrees in combinations_with_replacement(span, r):
            report.extend(sample_cone_check(Decomposable(degrees, genus0), grid))
    return report

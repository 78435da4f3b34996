"""Brute-force oracles for the closed formulas used elsewhere.

Everything here recomputes results from first principles with machinery
deliberately separate from the main modules: the ring power expands and
rewrites monomials instead of using the closed formula, the symmetric-power
degrees come from raw exponent enumeration rather than index multisets,
and the cone check pairs classes by direct integer arithmetic.

Reports are deterministic given seed and ranges and render as
machine-readable lines

    CHECK <name> <input-digest> PASS|FAIL <detail>

The ring sweep draws each line's classes in one call, in the calling
process, and finds the expansion terms that reach the point class once per
line; each class only fills in its coordinates.  Each sweep checks its
items (ring and cone lines, sympow bundles) on the usable CPUs in item
order (_in_shares), so a report is byte-identical in any process count.
"""

from __future__ import annotations

import hashlib
import marshal
import math
import os
import random
import sys
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
# A case is about 4 us of sweep work in one process on one CPU (3.11.7; 3.10.13
# takes up to twice as long).  A sweep counts its cases before it builds anything
# and refuses more than _MAX_CASES; from _FORK_MIN_CASES on it forks (2 ms a child).
_MAX_CASES = 500_000
_FORK_MIN_CASES = 20_000


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
    """(x*h + y*F)^k integrated, for an int k from 0 to the rank, by binomial
    expansion and monomial rewriting in integers, independently of top_power.
    Which terms reach the point class depends on the rank, e and k alone
    (_point_terms); the class fills in their coordinates (_brute_ring_ints)."""
    n = u.ctx.rank
    if not isinstance(k, int) or isinstance(k, bool) or not 0 <= k <= n:
        raise OracleGuardError(f"brute ring power needs an int k from 0 to the rank ({n}), "
                               f"got {k!r}")
    return Fraction(*_brute_ring_ints(u, k, _point_terms(n, u.ctx.top_coefficient, k)))


def _point_terms(n: int, e: int, k: int) -> list[tuple[int, int, int]]:
    """The terms of (x*h + y*F)^k at rank n that integrate to a multiple of
    the point class, as (multiplier, power of x, power of y).  In each binomial
    term C(k, j) h^(k-j) F^j, h^n is rewritten as e*h^{n-1}*F while the power
    of h is at least n, then a term with F^2 is discarded; what is left counts
    if it has the top degree n, where h^{n-1}F is all that is left."""
    terms = []
    for j in range(k + 1):
        a, b, c = k - j, j, math.comb(k, j)
        while a >= n:  # h^n -> e * h^{n-1} F
            a, b, c = a - 1, b + 1, c * e
        if b >= 2:  # F^2 = 0
            continue
        if a + b == n:  # top degree: the point class h^{n-1}F
            terms.append((c, k - j, j))
    return terms


def _brute_ring_ints(u: DivisorClass, k: int, terms: list) -> tuple[int, int]:
    """brute_ring_power(u, k) as the integers (numerator, (qx*qy)**k),
    unreduced, from the _point_terms of u's rank, e and k."""
    qx, qy = u.x.denominator, u.y.denominator
    ax, ay = u.x.numerator * qy, u.y.numerator * qx
    total = 0
    for c, i, j in terms:
        total += c * ax ** i * ay ** j
    return total, (qx * qy) ** k


def enumerate_sym_quotients(b: Decomposable, m: int) -> list[int]:
    """All summand degrees of the m-th symmetric power, by raw exponent
    enumeration over (k_1, ..., k_r) with sum m.  Sorted ascending.  A power
    m that is not an int, or is a bool, is refused."""
    if not isinstance(m, int) or isinstance(m, bool):
        raise OracleGuardError(f"oracle enumeration needs an int power m, got {m!r}")
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
    enumerated multisection class bound a*l + m*eta, m from 1 to max_m, and
    that a refused class pairs to at most 0 with the extremal section.

    Pairings are computed inline as a*x + m*y over the integer grid; the
    candidate degrees a come from the symmetric-power enumeration.  max_m
    must be an int of at least 1: with none, no class would be checked.
    """
    if not isinstance(max_m, int) or isinstance(max_m, bool) or max_m < 1:
        raise OracleGuardError(f"cone check needs an int max_m >= 1, got {max_m!r}")
    section_degrees = {m: enumerate_sym_quotients(b, m) for m in range(1, max_m + 1)}
    ctx = bundle_context(b)
    # each grid coordinate with its Fraction, built once per bundle
    ys = [(y, Fraction(y)) for y in range(GridSpec.y_min, GridSpec.y_max + 1)]
    a1 = section_degrees[1][0]  # the extremal section is a1*l + eta
    tested = 0
    violations: list[str] = []
    for x in range(GridSpec.x_min, GridSpec.x_max + 1):
        fx = Fraction(x)
        for y, fy in ys:
            if not kahler_membership(DivisorClass(fx, fy, ctx), b):
                if a1 * x + y > 0:  # nor is the fiber line a witness: it pairs to x >= 1
                    violations.append(f"({x},{y}) is refused but pairs positively with every curve")
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


def _random_indices(rng: random.Random, count: int) -> bytes:
    """count _SAMPLE_FRACTIONS indices, each that of Fraction(rng.randint(-9, 9),
    rng.randint(1, 9)) from the same bits: randint(a, b) draws a + r with
    r = getrandbits(k) for the bit length k of b - a + 1, redrawn until r <= b - a."""
    bits, indices = rng.getrandbits, bytearray(count)
    for i in range(count):
        p = bits(5)
        while p >= 19:
            p = bits(5)
        q = bits(4)
        while q >= 9:
            q = bits(4)
        indices[i] = 9 * p + q
    return bytes(indices)


def _guard_least_sizes(sweep: str, max_rank: int, max_abs_degree: int, **counts: int) -> None:
    """Refuse a size that is not an int or is a bool, sizes that leave a sweep
    nothing to check, and ranks past the oracle's cap: max_rank from 1 to the
    cap, max_abs_degree at least 0, every count (samples, powers) at least 1."""
    for name, value in dict(max_rank=max_rank, max_abs_degree=max_abs_degree, **counts).items():
        if not isinstance(value, int) or isinstance(value, bool):
            raise OracleGuardError(f"{sweep} sweep needs an int {name}, got {value!r}", name)
    if not 1 <= max_rank <= _MAX_ORACLE_RANK:
        raise OracleGuardError(f"{sweep} sweep needs max_rank from 1 to {_MAX_ORACLE_RANK}, "
                               f"got {max_rank}", "max_rank")
    if max_abs_degree < 0:
        raise OracleGuardError(f"{sweep} sweep needs max_abs_degree >= 0, got {max_abs_degree}",
                               "max_abs_degree")
    for name, value in counts.items():
        if value < 1:
            raise OracleGuardError(f"{sweep} sweep needs {name} >= 1, got {value}", name)


def _within_budget(sweep: str, cases: int) -> int:
    """cases, a sweep's count of its work, refused past _MAX_CASES."""
    if cases > _MAX_CASES:
        raise OracleGuardError(f"{sweep} sweep of {cases} cases exceeds the budget of {_MAX_CASES}")
    return cases


def _in_shares(check, cases: int, *columns: list) -> list:
    """list(map(check, *columns)), in item order.  With w usable CPUs, at
    most the number of items, share k maps items k, k + w, ...: share 0
    here, and each other share in one forked child that sends its results
    back through a pipe.  cases is the count the sweep's budget admitted
    (_within_budget); w is 1 (no fork) below _FORK_MIN_CASES cases, without
    os.fork, or while another thread runs (a fork can deadlock it)."""
    affinity = getattr(os, "sched_getaffinity", None)
    w = min(len(affinity(0)) if affinity else os.cpu_count() or 1, len(columns[0]))
    if (cases < _FORK_MIN_CASES or w < 2 or not hasattr(os, "fork")
            or "threading" in sys.modules and sys.modules["threading"].active_count() > 1):
        return list(map(check, *columns))
    shares = [[column[k::w] for column in columns] for k in range(w)]
    children, results = [], []  # children: (pid, read end of its pipe)
    try:
        for k in range(1, w):
            read, write = map(open, os.pipe(), ("rb", "wb"))
            pid = os.fork()
            if pid == 0:  # the child leaves by os._exit, never into the caller
                try:
                    read.close()
                    write.write(marshal.dumps(list(map(check, *shares[k]))))
                    write.flush()
                    os._exit(0)
                except BaseException:  # its traceback goes to stderr, its failure to the parent
                    sys.excepthook(*sys.exc_info())
                    sys.stderr.flush()
                finally:
                    os._exit(1)
            write.close()
            children.append((pid, read))
        results = [list(map(check, *shares[0]))] + [read.read() for _, read in children]
    finally:
        for pid, read in children:
            read.close()
            if not results:  # this process raised: end the children too
                import signal
                os.kill(pid, signal.SIGKILL)
        statuses = [os.waitpid(pid, 0)[1] for pid, _ in children]
    for k, status in enumerate(statuses, 1):
        if status:
            raise RuntimeError(f"{check.__qualname__.partition('.')[0]} share {k} of {w} "
                               f"exited with code {os.waitstatus_to_exitcode(status)}")
    results[1:] = map(marshal.loads, results[1:])
    return [results[i % w][i // w] for i in range(len(columns[0]))]


def ring_sweep(seed: int = DEFAULT_SEED, max_rank: int = 6, max_abs_degree: int = 10,
               samples: int = 50) -> CheckReport:
    """Compare the closed top-power formula with the brute ring oracle on
    random rational classes, for every rank, degree and convention."""
    _guard_least_sizes("ring", max_rank, max_abs_degree, samples=samples)
    # a case per class, and three per line (rank, degree, convention) for its context and digest
    cases = _within_budget("ring", max_rank * (2 * max_abs_degree + 1) * 2 * (samples + 3))
    contexts = [BundleContext(n, d, convention) for n in range(1, max_rank + 1)
                for d in range(-max_abs_degree, max_abs_degree + 1)
                for convention in (Convention.QUOTIENT, Convention.SUB)]
    rng = random.Random(seed)
    drawn = [_random_indices(rng, 2 * samples) for _ in contexts]

    def check(ctx: BundleContext, indices: bytes) -> int:
        n, draws, bad = ctx.rank, [_SAMPLE_FRACTIONS[i] for i in indices], 0
        terms = _point_terms(n, ctx.top_coefficient, n)
        for u in map(DivisorClass, draws[::2], draws[1::2], [ctx] * samples):
            top, (num, den) = top_power(u), _brute_ring_ints(u, n, terms)
            bad += top.numerator * den != num * top.denominator  # top == num / den
        return bad

    lines = []
    for ctx, bad in zip(contexts, _in_shares(check, cases, contexts, drawn)):
        about = (f"n={ctx.rank} d={ctx.degree} conv={ctx.convention.value} seed={seed} "
                 f"samples={samples}")
        lines.append(_line("ring-top-power", f"ring {about}", bad == 0,
                           f"{about} mismatches={bad}"))
    return CheckReport(lines)


def _sweep_bundles(sweep: str, max_rank: int, max_abs_degree: int, max_m: int,
                   per_bundle: int) -> tuple:
    """(bundles, cases): every genus-0 bundle in range, rank by rank in
    combinations_with_replacement order, and the sweep's cases: per_bundle a
    bundle, and a quarter a summand degree of its powers up to max_m.  Refuses
    bad sizes, a power past the cap, then cases past the budget, in that order."""
    _guard_least_sizes(sweep, max_rank, max_abs_degree, max_m=max_m)
    if max_m > _MAX_ORACLE_POWER:
        raise OracleGuardError(f"{sweep} sweep needs max_m <= {_MAX_ORACLE_POWER}, "
                               f"got {max_m}", "max_m")
    span, genus0 = range(-max_abs_degree, max_abs_degree + 1), SurfaceGenus(0)
    # C(|span| + r - 1, r) bundles of rank r; the sum over m = 1..M of their
    # C(m + r - 1, r - 1) summand degrees is C(M + r, r) - 1
    cases = _within_budget(sweep, sum(
        math.comb(len(span) + r - 1, r) * (4 * per_bundle + math.comb(max_m + r, r) - 1)
        for r in range(1, max_rank + 1)) // 4)
    return [Decomposable(ds, genus0) for r in range(1, max_rank + 1)
            for ds in combinations_with_replacement(span, r)], cases


def sympow_sweep(max_rank: int = 4, max_abs_degree: int = 5, max_m: int = 6) -> CheckReport:
    """Exhaustively confirm the symmetric-power rank/degree formulas and the
    minimal-degree bound against raw enumeration, one line per (r, m)."""
    # two cases per bundle, and one per bundle and power m
    bundles, cases = _sweep_bundles("sympow", max_rank, max_abs_degree, max_m, 2 + max_m)

    def check(b: Decomposable) -> list[bool]:  # one flag per power m = 1..max_m
        ds, oks = b.degrees, []
        for m in range(1, max_m + 1):
            enum = enumerate_sym_quotients(b, m)
            want_rank, want_degree = sym_rank_degree(len(ds), sum(ds), m)
            oks.append(len(enum) == want_rank and sum(enum) == want_degree
                       and enum[0] == m * ds[0] and enum[-1] == m * ds[-1]
                       and tuple(enum) == sym_power(b, m).degrees)
        return oks

    flags = _in_shares(check, cases, bundles)
    lines = []
    for r in range(1, max_rank + 1):
        of_rank = [(b.degrees, oks) for b, oks in zip(bundles, flags) if len(b.degrees) == r]
        for m in range(1, max_m + 1):
            bad = [ds for ds, oks in of_rank if not oks[m - 1]]
            detail = f"r={r} m={m} bundles={len(of_rank)} " + (
                f"bad={len(bad)} first=degrees={list(bad[0])}" if bad else "mismatches=0")
            lines.append(_line("sympow-formulas", f"sympow r={r} m={m} span={max_abs_degree}",
                               not bad, detail))
    return CheckReport(lines)


def cone_sweep(max_rank: int = 3, max_abs_degree: int = 3, max_m: int = 5) -> CheckReport:
    """Run the cone positivity check, with multisections of degree up to
    max_m, over all decomposable bundles in range."""
    # a case per grid class a bundle's membership is decided for
    grid = (GridSpec.x_max - GridSpec.x_min + 1) * (GridSpec.y_max - GridSpec.y_min + 1)
    bundles, cases = _sweep_bundles("cone", max_rank, max_abs_degree, max_m, grid)

    def check(b: Decomposable) -> tuple:
        line, = sample_cone_check(b, max_m).lines
        return line.name, line.digest, line.passed, line.detail

    return CheckReport(CheckLine(*line) for line in _in_shares(check, cases, bundles))

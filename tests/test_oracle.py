import hashlib
import math
import random
import re
from fractions import Fraction
from itertools import combinations_with_replacement, product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pbcones import oracle
from pbcones.cohomology import BundleContext, Convention, DivisorClass, top_power
from pbcones.bundles import SurfaceGenus, decomposable, sym_power
from pbcones.cones import matching_bundle, restricted_ratio
from pbcones.oracle import (
    OracleGuardError,
    brute_ring_power,
    cone_sweep,
    enumerate_sym_quotients,
    ring_sweep,
    sample_cone_check,
    sympow_sweep,
)

Q = Fraction


def test_brute_ring_power_examples():
    for n in (1, 2, 4, 6):
        for d in (-3, 0, 5):
            ctx = BundleContext(n, d)
            assert brute_ring_power(DivisorClass(1, 0, ctx), n) == d
            # h^{n-1}F = 1 makes (h + F)^n = e + n, with e = -d in the sub
            # convention; powers below the top degree integrate to 0
            assert brute_ring_power(DivisorClass(1, 1, ctx), n) == d + n
            assert brute_ring_power(DivisorClass(1, 1, ctx), n - 1) == 0
            sub = BundleContext(n, d, Convention.SUB)
            assert brute_ring_power(DivisorClass(1, 1, sub), n) == n - d
            if n >= 2:
                assert brute_ring_power(DivisorClass(0, 1, ctx), n) == 0


def test_brute_matches_formula_on_random_classes():
    rng = random.Random(3)
    for _ in range(500):
        n = rng.randint(1, 6)
        d = rng.randint(-10, 10)
        conv = rng.choice([Convention.QUOTIENT, Convention.SUB])
        u = DivisorClass(Q(rng.randint(-9, 9), rng.randint(1, 9)),
                         Q(rng.randint(-9, 9), rng.randint(1, 9)),
                         BundleContext(n, d, conv))
        assert brute_ring_power(u, n) == top_power(u)


# Numerators and denominators up to 10^12, and the zero coordinate.
coordinate = st.one_of(st.just(Q(0)), st.builds(Q, st.integers(-10**12, 10**12),
                                                 st.integers(1, 10**12)))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 12), st.integers(-50, 50), st.sampled_from(list(Convention)),
       coordinate, coordinate)
@example(1, 0, Convention.QUOTIENT, Q(0), Q(0))
@example(12, -7, Convention.SUB, Q(0), Q(10**12, 3))
@example(12, 5, Convention.QUOTIENT, Q(-10**12, 10**12 - 1), Q(0))
def test_top_power_matches_brute_ring_power(n, d, convention, x, y):
    u = DivisorClass(x, y, BundleContext(n, d, convention))
    assert top_power(u) == brute_ring_power(u, n)


def test_random_fraction_keeps_the_randint_stream():
    rng, twin = random.Random(7), random.Random(7)
    for _ in range(10_000):
        assert oracle._random_fraction(rng) == Q(twin.randint(-9, 9), twin.randint(1, 9))
    assert rng.getstate() == twin.getstate()


def test_ring_sweep_report_is_pinned():
    # sha256 of this report as rendered by the sweep before its sampling and
    # ring formulas were rewritten for speed; every draw and line must stay.
    report = ring_sweep(seed=1, max_rank=3, max_abs_degree=2, samples=20).render()
    assert hashlib.sha256(report.encode("utf-8")).hexdigest() == (
        "b03f11d66f6f35b503f3a3cdee873a02a8f339acacaf5c96b18f88bea6423bfd")


def test_ring_sweep_negative_control(monkeypatch):
    # A closed formula off by 10^-9 at rank 3 alone must fail exactly the
    # rank-3 lines, each on every sample.
    def off_at_rank_3(u):
        return top_power(u) + (Q(1, 10**9) if u.ctx.rank == 3 else 0)

    monkeypatch.setattr(oracle, "top_power", off_at_rank_3)
    report = ring_sweep(seed=1, max_rank=4, max_abs_degree=1, samples=5)
    assert len(report.lines) == 4 * 3 * 2
    for line in report.lines:
        rank = int(re.match(r"n=(\d+) ", line.detail).group(1))
        status = line.render().split()[3]
        if rank == 3:
            assert (status, line.passed) == ("FAIL", False), line.render()
            assert line.detail.endswith(" mismatches=5"), line.render()
        else:
            assert (status, line.passed) == ("PASS", True), line.render()
            assert line.detail.endswith(" mismatches=0"), line.render()


def test_brute_power_guard():
    with pytest.raises(OracleGuardError):
        brute_ring_power(DivisorClass(1, 1, BundleContext(2, 1)), 3)


def test_enumerate_sym_quotients_examples():
    assert enumerate_sym_quotients(decomposable(0, 2), 2) == [0, 2, 4]
    b = decomposable(-2, 1, 1)
    for m in range(1, 6):
        enum = enumerate_sym_quotients(b, m)
        assert len(enum) == math.comb(m + 2, m)
        assert min(enum) == -2 * m
        assert enum == sorted(sym_power(b, m).degrees)


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=6), st.integers(1, 8))
@example([-3, 0, 0, 2, 5, 9], 8)
@example([7], 1)
def test_enumerate_sym_quotients_matches_exponent_product(degrees, m):
    # every exponent vector (k_1..k_r) in 0..m with sum m, taken one by one
    b = decomposable(*degrees)
    brute = sorted(sum(k * a for k, a in zip(ks, b.degrees))
                   for ks in product(range(m + 1), repeat=len(b.degrees)) if sum(ks) == m)
    assert enumerate_sym_quotients(b, m) == brute


def test_enumerate_guards():
    with pytest.raises(OracleGuardError):
        enumerate_sym_quotients(decomposable(*range(7)), 2)
    with pytest.raises(OracleGuardError):
        enumerate_sym_quotients(decomposable(0, 1), 9)


def test_sweep_bundle_count_guard():
    # Rank 6 with degrees up to 8 walks C(23, 6) - 1 = 100946 bundles, just
    # past the 10^5 cap; up to 1000 it would be about 9.0e16.  The guard
    # must refuse both before enumerating anything.
    for max_abs_degree in (8, 1000):
        with pytest.raises(OracleGuardError, match="exceeds 100000 bundles"):
            sympow_sweep(max_rank=6, max_abs_degree=max_abs_degree, max_m=1)
        with pytest.raises(OracleGuardError, match="exceeds 100000 bundles"):
            cone_sweep(max_rank=6, max_abs_degree=max_abs_degree)
    with pytest.raises(OracleGuardError):
        cone_sweep(max_rank=6, max_abs_degree=-1)


def test_sweep_summand_degree_guard(monkeypatch):
    # Rank 6, degrees up to 7 and powers up to 8: 54,263 bundles, under the
    # bundle cap, but 132,939,688 enumerated summand degrees, past the 10^6
    # cap (the acceptance sweeps enumerate 142,230 and 234,795).  The guard
    # refuses before any enumeration.
    def enumerated(*args):
        raise AssertionError("the sweep enumerated before its size guard")

    monkeypatch.setattr(oracle, "enumerate_sym_quotients", enumerated)
    with pytest.raises(OracleGuardError, match="enumerates 132939688 summand degrees"):
        sympow_sweep(max_rank=6, max_abs_degree=7, max_m=8)
    with pytest.raises(OracleGuardError, match="more than 1000000"):
        cone_sweep(max_rank=6, max_abs_degree=7, max_m=8)
    with pytest.raises(OracleGuardError, match="summand degrees"):
        cone_sweep(max_rank=2, max_abs_degree=3, max_m=10**4)


def test_ring_sweep_class_count_guard():
    # 6 ranks x 21 degrees x 2 conventions x 3969 samples = 1,000,188
    # classes, just past the 10^6 cap (the acceptance run samples 252,000);
    # the guard refuses before sampling anything.
    for sizes in (dict(samples=3969), dict(max_abs_degree=100000, samples=50),
                  dict(samples=100000)):
        with pytest.raises(OracleGuardError, match="more than 1000000"):
            ring_sweep(**sizes)
    with pytest.raises(OracleGuardError):
        ring_sweep(max_rank=0)


@pytest.mark.parametrize("sweep, sizes", [
    (ring_sweep, dict(max_rank=0)),
    (ring_sweep, dict(max_abs_degree=-1)),
    (ring_sweep, dict(samples=0)),
    (sympow_sweep, dict(max_rank=0)),
    (sympow_sweep, dict(max_abs_degree=-1)),
    (sympow_sweep, dict(max_m=0)),
    (cone_sweep, dict(max_rank=0)),
    (cone_sweep, dict(max_abs_degree=-1)),
    (cone_sweep, dict(max_m=0)),
])
def test_sweeps_refuse_sizes_below_their_least(sweep, sizes):
    # Each size one below its least value would leave the sweep nothing to
    # check, and an empty report would read as all passed.
    with pytest.raises(OracleGuardError, match="sweep needs"):
        sweep(**sizes)


def test_sample_cone_check_clean():
    report = sample_cone_check(decomposable(0, 2))
    assert report.all_passed
    line = report.lines[0].render()
    assert re.match(r"^CHECK cone-positivity [0-9a-f]{12} PASS ", line)
    assert "violations=0" in line


def test_sample_cone_check_negative_control(monkeypatch):
    # closing the membership inequality admits boundary classes which pair
    # to zero with the extremal section
    def closed_membership(u, b):
        return u.x > 0 and min(b.degrees) * u.x + u.y >= 0

    monkeypatch.setattr(oracle, "kahler_membership", closed_membership)
    report = sample_cone_check(decomposable(0, 2))
    assert not report.all_passed
    assert "FAIL" in report.render()


def test_ring_sweep_small():
    report = ring_sweep(seed=1, max_rank=3, max_abs_degree=2, samples=20)
    assert report.all_passed
    # one line per (rank, degree, convention)
    assert len(report.lines) == 3 * 5 * 2
    assert all("seed=1" in line.detail for line in report.lines)


def test_sympow_sweep_small():
    report = sympow_sweep(max_rank=3, max_abs_degree=2, max_m=3)
    assert report.all_passed
    assert len(report.lines) == 9


def test_cone_sweep_small():
    report = cone_sweep(max_rank=2, max_abs_degree=2)
    assert report.all_passed


def test_reports_are_deterministic():
    a = ring_sweep(seed=5, max_rank=2, max_abs_degree=1, samples=10).render()
    b = ring_sweep(seed=5, max_rank=2, max_abs_degree=1, samples=10).render()
    assert a == b


def test_restricted_ratio_matches_enumerated_infimum():
    # Independent of the cones module: for V = O(a_1) + ... + O(a_n) over
    # P^1 with a_1 <= ... <= a_n, the Kleiman criterion on P(V + O) puts the
    # restriction ratios of ambient Kahler classes on P(V) above
    # alpha - n*min(a_1, 0).  The restricted-ratio infimum is the least of
    # these over every V of degree alpha.
    g0 = SurfaceGenus(0)
    for n in range(1, 5):
        infima: dict[int, dict[tuple[int, ...], int]] = {}
        for degrees in combinations_with_replacement(range(-8, 9), n):
            alpha = sum(degrees)
            if -6 <= alpha <= 6:
                infima.setdefault(alpha, {})[degrees] = alpha - n * min(degrees[0], 0)
        for alpha in range(-6, 7):
            least = min(infima[alpha].values())
            assert restricted_ratio(alpha, n, g0).value == least, (alpha, n)
            model = matching_bundle(alpha, n, g0).degrees
            assert infima[alpha][model] == least, (alpha, n, model)

import math
import random
import re
from fractions import Fraction

import pytest

from pbcones.cohomology import BundleContext, Convention, DivisorClass, top_power
from pbcones.bundles import decomposable, sym_power
from pbcones.oracle import (
    GridSpec,
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
    assert cone_sweep(max_rank=6, max_abs_degree=-1).lines == []


def test_sample_cone_check_clean():
    report = sample_cone_check(decomposable(0, 2))
    assert report.all_passed
    line = report.lines[0].render()
    assert re.match(r"^CHECK cone-positivity [0-9a-f]{12} PASS ", line)
    assert "violations=0" in line


def test_sample_cone_check_negative_control():
    # closing the membership inequality admits boundary classes which pair
    # to zero with the extremal section
    report = sample_cone_check(decomposable(0, 2), GridSpec(strict=False))
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

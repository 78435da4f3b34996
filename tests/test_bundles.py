import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pbcones.bundles import (
    Decomposable,
    SemiStable,
    SurfaceGenus,
    decomposable,
    degree,
    is_semistable,
    rank,
    slope,
    sym_power,
    sym_rank_degree,
    twist,
)

degree_lists = st.lists(st.integers(-8, 8), min_size=1, max_size=5)


def test_slope_examples():
    assert slope(decomposable(1, 2)) == Fraction(3, 2)
    assert slope(SemiStable(3, -4, SurfaceGenus(1))) == Fraction(-4, 3)
    assert slope(decomposable(0, 0, 0)) == 0


def test_twist_examples():
    assert twist(decomposable(0, -1), 1) == decomposable(1, 0)
    assert twist(SemiStable(2, -3, SurfaceGenus(1)), 2) == SemiStable(2, 1, SurfaceGenus(1))


@given(degree_lists, st.integers(-10, 10))
def test_twist_shifts_slope(degs, t):
    b = decomposable(*degs)
    assert slope(twist(b, t)) == slope(b) + t


@given(st.integers(1, 4), st.integers(-20, 20), st.integers(-10, 10))
def test_twist_shifts_slope_semistable(r, d, t):
    b = SemiStable(r, d * r, SurfaceGenus(0))
    assert slope(twist(b, t)) == slope(b) + t


def test_sym_power_examples():
    assert sym_power(decomposable(0, 2), 2).degrees == (0, 2, 4)
    assert sym_power(decomposable(5), 3).degrees == (15,)
    assert sym_power(decomposable(1, 1), 2).degrees == (2, 2, 2)


def test_sym_power_rejects_semistable_and_bad_m():
    with pytest.raises(ValueError, match="opaque"):
        sym_power(SemiStable(2, -2, SurfaceGenus(1)), 2)
    with pytest.raises(ValueError):
        sym_power(decomposable(1), 0)
    # C(39, 20) ~ 6.9e10 summands: refused before any enumeration
    with pytest.raises(ValueError, match="too large"):
        sym_power(decomposable(*range(20)), 20)
    # one summand, but a 10^9-tuple to sum
    with pytest.raises(ValueError, match="too large"):
        sym_power(decomposable(0), 10**9)
    # C(19999, 10000) has about 6000 digits, more than an int prints: the
    # refusal must still read as one
    with pytest.raises(ValueError, match="too large"):
        sym_power(decomposable(*[1] * 10000), 10000)


def test_sym_rank_degree_examples():
    assert sym_rank_degree(2, 1, 3) == (4, 6)
    assert sym_rank_degree(2, 2, 2) == (3, 6)
    s = sym_power(decomposable(0, 2), 2)
    assert (rank(s), degree(s)) == sym_rank_degree(2, 2, 2)
    assert sym_rank_degree(1, 7, 4) == (1, 28)


@given(st.lists(st.integers(-5, 5), min_size=1, max_size=4), st.integers(1, 6))
def test_sym_power_matches_closed_formulas(degs, m):
    b = decomposable(*degs)
    s = sym_power(b, m)
    want_rank, want_degree = sym_rank_degree(rank(b), degree(b), m)
    assert rank(s) == want_rank == math.comb(m + rank(b) - 1, m)
    assert degree(s) == want_degree
    assert min(s.degrees) == m * min(b.degrees)
    assert max(s.degrees) == m * max(b.degrees)


def test_sym_power_of_balanced_is_balanced():
    # all summands equal a -> every degree-m monomial has degree m*a
    for a in (-2, 0, 3):
        for n in (1, 2, 3):
            for m in (1, 2, 4):
                s = sym_power(decomposable(*([a] * n)), m)
                assert is_semistable(s)
                assert slope(s) == m * a


def test_is_semistable_examples():
    assert is_semistable(decomposable(2, 2, 2))
    assert not is_semistable(decomposable(0, 1))
    assert is_semistable(SemiStable(2, -3, SurfaceGenus(1)))


@given(degree_lists)
def test_semistable_iff_degree_bounds_collapse(degs):
    b = decomposable(*degs)
    lo, hi = min(b.degrees), max(b.degrees)
    assert is_semistable(b) == (lo == hi == slope(b))


def test_semistable_exists():
    # every rank and degree over positive genus; over genus 0 only the
    # balanced sums, where the rank divides the degree
    assert SemiStable(2, -3, SurfaceGenus(1)).degree == -3
    with pytest.raises(ValueError, match="does not exist"):
        SemiStable(2, -3, SurfaceGenus(0))
    assert SemiStable(2, 4, SurfaceGenus(0)).degree == 4


def test_bundle_invariants_enforced():
    with pytest.raises(ValueError):
        Decomposable((), SurfaceGenus(0))
    with pytest.raises(ValueError):
        SemiStable(0, 0, SurfaceGenus(1))
    with pytest.raises(ValueError):
        SemiStable(2, -3, SurfaceGenus(0))
    with pytest.raises(ValueError):
        SurfaceGenus(-1)


def test_degrees_stored_sorted():
    assert Decomposable((3, -1, 2), SurfaceGenus(0)).degrees == (-1, 2, 3)
    assert decomposable(2, 1) == decomposable(1, 2)

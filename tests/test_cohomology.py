import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pbcones.bundles import SurfaceGenus
from pbcones.cohomology import (
    BundleContext,
    ContextMismatchError,
    Convention,
    CurveClass,
    DivisorClass,
    convert_convention,
    eta_class,
    forward_ratio,
    in_forward_cone,
    line_class,
    pair,
    ratio,
    section_class,
    top_power,
    topological_residue,
    topological_type,
    twist_class,
)

Q = Fraction


def ctx(n, d, conv=Convention.QUOTIENT, g=0):
    return BundleContext(n, d, conv, SurfaceGenus(g))


small_fractions = st.fractions(min_value=-8, max_value=8, max_denominator=9)
nonzero_fractions = small_fractions.filter(lambda q: q != 0)


# -------------------------------------------------------- top power


def test_top_power_examples():
    assert top_power(DivisorClass(1, 2, ctx(2, 3))) == 7
    assert top_power(DivisorClass(1, 0, ctx(3, 0))) == 0
    assert top_power(DivisorClass(1, 2, ctx(2, 2, Convention.SUB))) == 2


# ---------------------------------------------------------- pairing


def test_pair_examples():
    c = ctx(2, 3)
    u = DivisorClass(1, 2, c)
    assert pair(u, line_class(c)) == 1
    assert pair(u, eta_class(c)) == 2
    assert pair(DivisorClass(4, -5, c), CurveClass(1, 1, c)) == -1


def test_pair_rejects_mismatched_contexts():
    with pytest.raises(ContextMismatchError):
        pair(DivisorClass(1, 0, ctx(2, 3)), line_class(ctx(2, 4)))


# ----------------------------------------------------- forward cone


def test_forward_cone_examples():
    assert in_forward_cone(DivisorClass(1, 0, ctx(2, 2)))
    assert not in_forward_cone(DivisorClass(0, 1, ctx(2, 2)))
    assert not in_forward_cone(DivisorClass(1, 1, ctx(2, 2, Convention.SUB)))


@given(st.integers(1, 6), st.integers(-10, 10), small_fractions, small_fractions)
def test_forward_cone_matches_inequalities(n, d, x, y):
    u = DivisorClass(x, y, ctx(n, d))
    assert in_forward_cone(u) == (top_power(u) > 0 and pair(u, line_class(u.ctx)) > 0)


# ------------------------------------------------------------ ratio


def test_ratio_examples():
    assert forward_ratio(DivisorClass(1, 0, ctx(2, 2))) == 2
    # sub convention with quotient-degree alpha = -1 (model degree +1)
    assert forward_ratio(DivisorClass(1, Q(3, 2), ctx(2, 1, Convention.SUB))) == 2


def test_ratio_flags_out_of_cone():
    r = ratio(DivisorClass(0, 1, ctx(2, 2)))
    assert r.value is None and not r.in_forward_cone
    with pytest.raises(ValueError):
        r.require()
    r2 = ratio(DivisorClass(-1, 5, ctx(2, 2)))
    assert r2.value is not None and not r2.in_forward_cone


@given(st.integers(1, 5), st.integers(-8, 8), nonzero_fractions, small_fractions)
def test_ratio_scale_invariant(n, d, x, y):
    scale = Q(7, 3)
    u = DivisorClass(x, y, ctx(n, d))
    v = DivisorClass(x * scale, y * scale, u.ctx)
    assert ratio(u).value == ratio(v).value


@given(st.integers(1, 5), st.integers(-8, 8), nonzero_fractions, small_fractions)
def test_ratio_convention_invariant(n, d, x, y):
    u = DivisorClass(x, y, ctx(n, d))
    assert ratio(u).value == ratio(convert_convention(u)).value


@given(st.integers(1, 5), st.integers(-8, 8), nonzero_fractions, small_fractions,
       st.integers(-6, 6))
def test_ratio_twist_invariant(n, d, x, y, t):
    u = DivisorClass(x, y, ctx(n, d))
    assert ratio(u).value == ratio(twist_class(u, t)).value


BIG = 10**12
wide_fractions = st.one_of(st.just(Q(0)),
                           st.builds(Fraction, st.integers(-BIG, BIG), st.integers(1, BIG)))


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 12), st.sampled_from(Convention), st.integers(-20, 20),
       wide_fractions, wide_fractions, st.booleans())
@example(2, Convention.QUOTIENT, 3, Q(1, 3), Q(5, 7), False)  # x and y denominators differ
@example(3, Convention.SUB, 4, Q(0), Q(5, 2), False)          # x = 0, y > 0
@example(2, Convention.QUOTIENT, 2, Q(-1), Q(5), False)       # x < 0, e*x + n*y > 0
@example(4, Convention.QUOTIENT, 6, Q(2, 9), Q(0), True)      # e*x + n*y = 0
def test_forward_cone_and_ratio_are_the_fraction_rule(n, conv, d, x, y, on_boundary):
    # the integer forms against the rule in Fractions, with e read off
    # the convention here
    e = d if conv is Convention.QUOTIENT else -d
    if on_boundary:
        y = -e * x / n
    u = DivisorClass(x, y, ctx(n, d, conv))
    inside = x > 0 and e * x + n * y > 0
    assert in_forward_cone(u) == inside
    r = ratio(u)
    assert r.in_forward_cone == inside
    assert r.value == (None if x == 0 else e + n * y / x)


def test_float_coordinates_are_refused():
    # a float's binary expansion is not the number that was meant
    with pytest.raises(ValueError, match=r"^coordinate x must be exact \(an int or a "
                                         r"Fraction\), got the float 0\.5$"):
        DivisorClass(0.5, 1, ctx(2, 1))
    with pytest.raises(ValueError, match=r"^coordinate y .* 0\.30000000000000004$"):
        DivisorClass(1, 0.1 + 0.2, ctx(2, 1))
    assert DivisorClass(1, Q(3, 10), ctx(2, 1)).y == Q(3, 10)


def test_eta_positive_forces_ratio_above_degree():
    # quotient convention: <u, eta> > 0 and forward cone give ratio > d
    rng = random.Random(11)
    found = 0
    while found < 200:
        n = rng.randint(1, 5)
        d = rng.randint(-8, 8)
        u = DivisorClass(Q(rng.randint(1, 9), rng.randint(1, 9)),
                         Q(rng.randint(-9, 9), rng.randint(1, 9)), ctx(n, d))
        if in_forward_cone(u) and pair(u, eta_class(u.ctx)) > 0:
            assert forward_ratio(u) > d
            found += 1


# ---------------------------------------------------- conventions


def test_convert_convention_example():
    u = DivisorClass(1, 2, ctx(2, 3))
    v = convert_convention(u)
    assert v.ctx == ctx(2, -3, Convention.SUB)
    assert (v.x, v.y) == (u.x, u.y)
    assert convert_convention(v) == u


def test_topological_type_examples():
    assert topological_type(ctx(2, -1, Convention.SUB)) == 1
    assert topological_type(ctx(3, 7, Convention.SUB)) == 2
    assert topological_type(ctx(4, 0)) == 0
    assert topological_type(ctx(4, 0, Convention.SUB)) == 0


def test_topological_type_is_residue():
    for n in range(1, 6):
        for d in range(-12, 13):
            tq = topological_type(ctx(n, d))
            ts = topological_type(ctx(n, d, Convention.SUB))
            assert 0 <= tq < n and 0 <= ts < n
            assert (tq - d) % n == 0
            assert (ts + d) % n == 0
            assert topological_residue(d, n) == d % n


def test_twist_class_example():
    u = DivisorClass(1, 1, ctx(2, 0))
    v = twist_class(u, 1)
    assert v.ctx.degree == 2 and (v.x, v.y) == (1, 0)
    assert twist_class(u, 0) == u
    with pytest.raises(ValueError):
        twist_class(DivisorClass(1, 1, ctx(2, 0, Convention.SUB)), 1)


def test_section_class_examples():
    c = ctx(2, 2)
    assert section_class(0, c) == eta_class(c)
    assert section_class(-2, c) == CurveClass(-2, 1, c)
    with pytest.raises(ValueError):
        section_class(1, ctx(2, 2, Convention.SUB))


def test_section_pairs_with_hyperplane_by_degree():
    # <hyperplane, section of a degree-a quotient> = a;
    # equivalently <tau, s> = -deg(L) for the degree--a line subbundle
    c = ctx(3, 1)
    for a in (-3, 0, 5):
        s = section_class(a, c)
        assert pair(DivisorClass(1, 0, c), s) == a

import re
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pbcones.bundles import (
    Decomposable,
    SemiStable,
    SurfaceGenus,
    decomposable,
    degree,
    rank,
    sym_power,
    twist,
)
from pbcones.cohomology import (
    BundleContext,
    Convention,
    CurveClass,
    DivisorClass,
    forward_ratio,
    in_forward_cone,
    pair,
    section_class,
    twist_class,
)
from pbcones.cones import (
    Exactness,
    NoSuchClassError,
    SemistablePlusLine,
    admissibility_bound,
    bundle_context,
    kahler_class_for_ratio,
    kahler_cone,
    kahler_cone_ratio,
    kahler_membership,
    matching_bundle,
    plus_trivial_line,
    restrict_to_divisor,
    restricted_ratio,
)

Q = Fraction
G0 = SurfaceGenus(0)
G1 = SurfaceGenus(1)
G2 = SurfaceGenus(2)


def cls(b, x, y):
    return DivisorClass(x, y, bundle_context(b))


# --------------------------------------------------------- curve cone


def test_curve_cone_examples():
    cone = kahler_cone(decomposable(0, 2))
    assert [(r.l, r.eta) for r in cone.rays] == [(1, 0), (0, 1)]
    assert cone.exactness is Exactness.EXACT

    cone = kahler_cone(decomposable(-2, -1))
    assert [(r.l, r.eta) for r in cone.rays] == [(1, 0), (-2, 1)]

    cone = kahler_cone(decomposable(3, 3))
    assert [(r.l, r.eta) for r in cone.rays] == [(1, 0), (3, 1)]
    assert cone.boundary_slope == 3
    # all degrees equal: the Kahler cone degenerates to the forward cone
    assert kahler_cone_ratio(decomposable(3, 3)) == 0


def test_curve_cone_semistable():
    cone = kahler_cone(SemiStable(2, -3, SurfaceGenus(1)))
    assert [(r.l, r.eta) for r in cone.rays] == [(1, 0)]
    assert cone.exactness is Exactness.EXACT
    assert cone.boundary_slope == Q(-3, 2)

    # genus-0 semistable bundles are balanced splittings
    cone0 = kahler_cone(SemiStable(2, 4, SurfaceGenus(0)))
    assert [(r.l, r.eta) for r in cone0.rays] == [(1, 0), (2, 1)]


# --------------------------------------------------------- membership


def test_kahler_membership_examples():
    b = decomposable(0, 2)
    assert kahler_membership(cls(b, 1, 1), b)
    assert not kahler_membership(cls(b, 1, 0), b)

    s = SemiStable(2, -3, SurfaceGenus(1))
    assert kahler_membership(cls(s, 1, 2), s)
    assert not kahler_membership(cls(s, 1, 1), s)  # -3 + 2 < 0

    v = decomposable(-1, 0, 0)
    assert kahler_membership(cls(v, 1, Q(3, 2)), v)


def test_kahler_membership_mixed_sum():
    mixed = SemistablePlusLine(SemiStable(2, -3, SurfaceGenus(1)))
    cone = kahler_cone(mixed)
    assert cone.exactness is Exactness.SUFFICIENT_ONLY
    u = DivisorClass(1, 2, bundle_context(mixed))
    assert kahler_membership(u, mixed)  # y/x = 2 > 3/2
    assert not kahler_membership(DivisorClass(1, 1, bundle_context(mixed)), mixed)
    with pytest.raises(ValueError, match="unknown"):
        kahler_cone(SemistablePlusLine(SemiStable(2, 3, SurfaceGenus(1))))


def test_kahler_membership_context_checks():
    b = decomposable(0, 2)
    wrong_rank = DivisorClass(1, 1, BundleContext(3, 2, Convention.QUOTIENT, G0))
    with pytest.raises(ValueError):
        kahler_membership(wrong_rank, b)
    sub = DivisorClass(1, 1, BundleContext(2, 2, Convention.SUB, G0))
    with pytest.raises(ValueError):
        kahler_membership(sub, b)


big = st.integers(-10**12, 10**12)
# Numerators and denominators up to 10^12, zero and negative coordinates.
coordinate = st.one_of(st.just(Q(0)), st.builds(Q, big, st.integers(1, 10**12)))
bundle_kinds = st.one_of(
    st.builds(lambda degs, g: Decomposable(tuple(degs), SurfaceGenus(g)),
              st.lists(big, min_size=1, max_size=6), st.integers(0, 2)),
    st.builds(lambda r, d, g: SemiStable(r, d, SurfaceGenus(g)),
              st.integers(1, 6), big, st.integers(1, 2)),
    # a positive degree leaves the cone of V + O unknown
    st.builds(lambda r, d, g: SemistablePlusLine(SemiStable(r, d, SurfaceGenus(g))),
              st.integers(1, 6), big, st.integers(1, 2)),
)
UNKNOWN_CONE = ("Kahler cone unknown: the trivial summand's slope is below the "
                "semistable slope")


def _mismatch(ctx, b):
    return (f"class context (rank {ctx.rank}, degree {ctx.degree}, genus {ctx.genus.g}) "
            f"does not match the bundle (rank {rank(b)}, degree {degree(b)}, "
            f"genus {b.base.g})")


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(bundle_kinds, coordinate, coordinate,
       st.one_of(st.none(), st.sampled_from([Q(-1, 10**12), Q(0), Q(1, 10**12)])))
@example(decomposable(3, 5), Q(1, 7), Q(-3, 7), None)  # on the boundary
@example(decomposable(-10**12, 0), Q(0), Q(1), None)  # x = 0
@example(SemiStable(3, -7, SurfaceGenus(1)), Q(3, 10**12), Q(7, 10**12), None)
@example(SemistablePlusLine(SemiStable(2, 0, SurfaceGenus(1))), Q(5), Q(0), None)
@example(SemistablePlusLine(SemiStable(2, 1, SurfaceGenus(1))), Q(1), Q(1), None)
def test_kahler_membership_is_the_fraction_rule(b, x, y, boundary_shift):
    # x > 0 and s*x + y > 0 in Fractions, s read off each bundle kind here;
    # boundary_shift puts y at -s*x plus a shift of 0 or 10^-12
    v = b.semistable if isinstance(b, SemistablePlusLine) else b
    s = Q(min(v.degrees)) if isinstance(v, Decomposable) else Q(v.degree, v.rank)
    if boundary_shift is not None:
        y = -s * x + boundary_shift
    ctx = bundle_context(b)
    if isinstance(b, SemistablePlusLine) and s > 0:
        with pytest.raises(ValueError, match=f"^{re.escape(UNKNOWN_CONE)}$"):
            kahler_membership(DivisorClass(x, y, ctx), b)
    else:
        assert kahler_membership(DivisorClass(x, y, ctx), b) == (x > 0 and s * x + y > 0)
    # refusals come first, in order: the sub convention, then the context
    for wrong in (BundleContext(ctx.rank + 1, ctx.degree, Convention.QUOTIENT, ctx.genus),
                  BundleContext(ctx.rank, ctx.degree - 1, Convention.QUOTIENT, ctx.genus),
                  BundleContext(ctx.rank, ctx.degree, Convention.QUOTIENT,
                                SurfaceGenus(ctx.genus.g + 1))):
        with pytest.raises(ValueError, match=f"^{re.escape(_mismatch(wrong, b))}$"):
            kahler_membership(DivisorClass(x, y, wrong), b)
        sub = BundleContext(wrong.rank, wrong.degree, Convention.SUB, wrong.genus)
        with pytest.raises(ValueError, match="^Kahler membership is computed in the "
                                             "quotient convention$"):
            kahler_membership(DivisorClass(x, y, sub), b)


def test_kahler_cone_inside_forward_cone():
    # exhaustive over all decomposable bundles with rank <= 4, |degrees| <= 5
    for r in (1, 2, 3, 4):
        for degs in combinations_with_replacement(range(-5, 6), r):
            b = decomposable(*degs)
            for x in range(1, 5):
                for y in range(-6, 7):
                    u = cls(b, x, y)
                    if kahler_membership(u, b):
                        assert in_forward_cone(u)


def test_boundary_class_pairs_to_zero_with_extremal_section():
    for degs in [(0, 2), (-2, -1), (1, 1, 4), (-3, 0, 0, 2)]:
        b = decomposable(*degs)
        a1 = min(degs)
        c1 = section_class(a1, bundle_context(b))
        for x in (1, 2, 5):
            boundary = cls(b, x, -a1 * x)
            assert not kahler_membership(boundary, b)
            assert pair(boundary, c1) == 0


def test_twist_equivariance_of_membership():
    b = decomposable(-1, 2)
    for t in (-2, 1, 3):
        bt = twist(b, t)
        for x in (1, 2):
            for y in (-3, 0, 2, 5):
                u = cls(b, x, y)
                assert kahler_membership(u, b) == kahler_membership(twist_class(u, t), bt)


def test_membership_positive_on_sym_power_sections():
    # Kahler classes pair positively with every m-section class bound
    for degs in [(0, 2), (-2, -1), (-1, 0, 3)]:
        b = decomposable(*degs)
        ctx = bundle_context(b)
        for x in range(1, 4):
            for y in range(-5, 6):
                u = cls(b, x, y)
                if not kahler_membership(u, b):
                    continue
                for m in range(1, 6):
                    for a in sym_power(b, m).degrees:
                        assert pair(u, CurveClass(a, m, ctx)) > 0


# -------------------------------------------------------------- ratio


def test_kahler_cone_ratio_examples():
    assert kahler_cone_ratio(decomposable(0, 2)) == 2
    assert kahler_cone_ratio(SemiStable(2, -3, SurfaceGenus(1))) == 0
    assert kahler_cone_ratio(decomposable(4, 4, 4)) == 0
    # the half-plane of a semistable-plus-line sum is sufficient only
    with pytest.raises(ValueError):
        kahler_cone_ratio(SemistablePlusLine(SemiStable(2, -3, SurfaceGenus(1))))


def test_genus0_semistable_equals_balanced_decomposable():
    # over genus 0 the ambient V + O of a semistable V is the balanced sum plus O
    assert plus_trivial_line(SemiStable(2, 4, G0)) == Decomposable((2, 2, 0), G0)
    for r in (1, 2, 3, 4):
        for d in range(-8, 9):
            if d % r:
                continue
            s = SemiStable(r, d, SurfaceGenus(0))
            b = decomposable(*(d // r,) * r)
            cs, cb = kahler_cone(s), kahler_cone(b)
            assert cs.rays == cb.rays, (r, d)
            assert cs.boundary_slope == cb.boundary_slope == Q(d, r)
            assert cs.exactness is cb.exactness is Exactness.EXACT
            assert kahler_cone_ratio(s) == kahler_cone_ratio(b) == 0
            for x in (-1, 0, 1, 2):
                for y in range(-12, 13):
                    u = cls(s, x, y)
                    assert kahler_membership(u, s) == kahler_membership(cls(b, x, y), b)


# -------------------------------------------------- restricted ratio


def test_matching_bundle_examples():
    assert matching_bundle(-3, 2, G0) == decomposable(-2, -1)
    assert matching_bundle(3, 2, G0) == decomposable(1, 2)
    assert matching_bundle(3, 2, G1) == decomposable(1, 2, genus=1)
    assert matching_bundle(0, 4, G2).degrees == (0, 0, 0, 0)
    assert matching_bundle(-3, 2, G1) == SemiStable(2, -3, SurfaceGenus(1))


def test_restricted_ratio_examples():
    r = restricted_ratio(-3, 2, G0)
    assert r.value == 1 and r.achieving_bundle == decomposable(-2, -1)
    r = restricted_ratio(-3, 2, G1)
    assert r.value == 0 and r.achieving_bundle == SemiStable(2, -3, SurfaceGenus(1))
    r = restricted_ratio(5, 2, G0)
    assert r.value == 5 and r.achieving_bundle == decomposable(2, 3)


def test_restricted_ratio_values_nonnegative_and_match_minimization():
    # Independent check: for the decomposable model the infimum of
    # alpha + n*y/x over the cone {x > 0, a1*x + y > 0} (a1 the minimal
    # degree of V + O) is alpha - n*a1, by y -> -a1*x.
    for alpha in range(-6, 7):
        for n in (2, 3, 4):
            for g in (G0, G1, G2):
                r = restricted_ratio(alpha, n, g)
                assert r.value >= 0
                v = r.achieving_bundle
                assert degree(v) == alpha and rank(v) == n
                ambient = plus_trivial_line(v)
                if isinstance(ambient, SemistablePlusLine):
                    # sufficient half-plane y/x > -alpha/n: infimum of
                    # alpha + n*y/x is 0
                    assert r.value == 0
                else:
                    a1 = min(ambient.degrees)
                    assert r.value == alpha - n * a1


def test_kahler_class_for_ratio_examples():
    u = kahler_class_for_ratio(-1, 2, G0, 2)
    assert (u.x, u.y) == (2, 3)
    assert forward_ratio(restrict_to_divisor(u)) == 2

    u = kahler_class_for_ratio(0, 2, G1, 1)
    assert (u.x, u.y) == (2, 1)
    assert forward_ratio(restrict_to_divisor(u)) == 1

    with pytest.raises(NoSuchClassError):
        kahler_class_for_ratio(-1, 2, G0, 1)
    # refused exactly at the infimum, as an int or a Fraction, and
    # answered 10^-12 above it, for infima 0, 1 and 5
    for alpha, n, g, infimum in ((-3, 2, G1, 0), (-1, 2, G0, 1), (5, 2, G0, 5)):
        assert restricted_ratio(alpha, n, g).value == infimum
        for at in (infimum, Q(infimum)):
            with pytest.raises(NoSuchClassError,
                               match=f"^no Kahler class restricts to ratio {infimum}: the "
                                     f"infimum over P\\(V \\+ O\\) is {infimum} and is not "
                                     f"attained$"):
                kahler_class_for_ratio(alpha, n, g, at)
        above = infimum + Q(1, 10**12)
        u = kahler_class_for_ratio(alpha, n, g, above)
        assert forward_ratio(restrict_to_divisor(u)) == above
        assert kahler_membership(u, plus_trivial_line(matching_bundle(alpha, n, g)))


def test_kahler_class_for_ratio_fractional():
    u = kahler_class_for_ratio(-3, 3, G0, Q(7, 5))
    assert (u.x, u.y) == (15, (Q(7, 5) + 3).numerator) == (15, 22)
    assert forward_ratio(restrict_to_divisor(u)) == Q(7, 5)
    v = matching_bundle(-3, 3, G0)
    assert kahler_membership(u, plus_trivial_line(v))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.integers(-20, 20), st.integers(1, 12), st.sampled_from((G0, G1, G2)),
       st.one_of(st.integers(1, 10**12),
                 st.builds(Fraction, st.integers(1, 10**12), st.integers(1, 10**12))))
def test_kahler_class_for_ratio_y_is_the_shifted_numerator(alpha, n, g, excess):
    # an int excess keeps rho0 an int, the other form the function takes
    rho0 = max(0, admissibility_bound(alpha, n, g)) + excess
    u = kahler_class_for_ratio(alpha, n, g, rho0)
    assert (u.x, u.y) == (n * Q(rho0).denominator, (rho0 - alpha).numerator)
    assert forward_ratio(restrict_to_divisor(u)) == rho0


def test_kahler_class_for_ratio_refuses_a_float():
    with pytest.raises(ValueError, match=r"^the target ratio must be exact \(an int or a "
                                         r"Fraction\), got the float 2\.5$"):
        kahler_class_for_ratio(-1, 2, G0, 2.5)
    assert kahler_class_for_ratio(-1, 2, G0, Q(5, 2)).y == 7


def test_rank_below_one_is_refused():
    # refused before any division by n, and without building a bundle:
    # positive genus would otherwise give a bound, and a class with x = 0
    for g in (G0, G1):
        for alpha in (-3, 0, 2):
            for n in (0, -2):
                for call in (lambda: kahler_class_for_ratio(alpha, n, g, 1),
                             lambda: restricted_ratio(alpha, n, g),
                             lambda: admissibility_bound(alpha, n, g)):
                    with pytest.raises(ValueError, match="rank must be positive"):
                        call()


def test_restrict_to_divisor_preserves_coordinates():
    u = kahler_class_for_ratio(2, 2, G0, 4)
    r = restrict_to_divisor(u)
    assert (r.x, r.y) == (u.x, u.y)
    assert r.ctx.rank == u.ctx.rank - 1
    assert r.ctx.degree == u.ctx.degree

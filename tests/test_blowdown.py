from dataclasses import replace
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pbcones.blowdown import (
    ExceptionalDivisorData,
    MatchingTripleCertificate,
    NotAdmissibleError,
    Ruling,
    VerdictKind,
    admissibility_bound,
    blowdown_verdict_dim6,
    build_matching_triple,
    is_admissible,
    refibred_along_second_ruling,
    validate_certificate,
)
from pbcones.bundles import (
    Decomposable,
    SemiStable,
    SurfaceGenus,
    decomposable,
    degree,
    rank,
    twist,
)
from pbcones.cohomology import (
    BundleContext,
    Convention,
    DivisorClass,
    forward_ratio,
)
from pbcones.cones import SemistablePlusLine, restrict_to_divisor

Q = Fraction


def divisor(genus, alpha, xy, n=2, areas=None):
    return ExceptionalDivisorData.over_surface(genus, alpha, xy, fiber_rank=n,
                                               ruled_areas=areas)


# ------------------------------------------------------- data checks


def test_divisor_data_validation():
    # class must live in the forward cone: ratio = -1 + 2*0 < 0
    with pytest.raises(ValueError, match="forward cone"):
        divisor(0, -1, (1, 0))
    # areas rejected away from the sphere-product case, and unless positive
    for genus, n in ((1, 2), (0, 3)):
        with pytest.raises(ValueError, match="areas only apply"):
            divisor(genus, 2, None, n=n, areas=(1, 2))
    with pytest.raises(ValueError, match="must be positive"):
        ExceptionalDivisorData.from_ruled_areas(1, -1)
    for bad in (0, Q(0), Q(-1, 3)):
        for areas in ((bad, 1), (1, bad)):
            with pytest.raises(ValueError, match="^ruling areas must be positive$"):
                ExceptionalDivisorData.from_ruled_areas(*areas)
    # inconsistent areas vs class ratio, refused with the same text
    # whichever ratio each side names
    with pytest.raises(ValueError, match="inconsistent"):
        divisor(0, 2, (1, 1), areas=(1, 3))
    with pytest.raises(ValueError, match=r"^inconsistent data: the class ratio 7/2 must "
                                         r"equal 2\*\(second area\)/\(first area\) = 9/2$"):
        divisor(0, 2, (2, Q(3, 2)), areas=(2, Q(9, 2)))
    # consistent: areas (1,2) give ratio 4 = 2 + 2*(y/x) with class (1,1)
    d = divisor(0, 2, (1, 1), areas=(1, 2))
    assert forward_ratio(d.omega_class) == 4
    # the class must be in the sub convention
    quotient = DivisorClass(1, 1, BundleContext(2, 1, Convention.QUOTIENT))
    with pytest.raises(ValueError, match="sub convention"):
        ExceptionalDivisorData(quotient)


def test_derived_fields_read_off_the_class():
    for g in (0, 1, 2):
        for n in (1, 2, 3):
            for alpha in (-3, 0, 1, 2, 4):
                if (g, n, alpha) == (0, 2, 2):
                    continue  # the sphere product, covered by from_ruled_areas
                for rho in (Q(1, 3), Q(5, 2), 7):
                    x = Q(3, 2)
                    d = divisor(g, alpha, (x, (rho - alpha) * x / n), n=n)
                    assert (d.base_genus, d.fiber_rank, d.alpha) == (SurfaceGenus(g), n, alpha)
                    assert d.rho == rho == forward_ratio(d.omega_class)
    d = divisor(1, -1, (1, Q(3, 5)))
    other = DivisorClass(2, 7, BundleContext(3, -4, Convention.SUB, SurfaceGenus(2)))
    e = ExceptionalDivisorData(other)
    assert (e.base_genus, e.fiber_rank, e.alpha, e.rho) == (SurfaceGenus(2), 3, 4, Q(29, 2))
    assert ExceptionalDivisorData(None).rho is None


def _areas(d: ExceptionalDivisorData) -> tuple:
    """The sphere product's ruling areas (x, x + y), read off its class (x, y)."""
    u = d.omega_class
    return u.x, u.x + u.y


def test_from_ruled_areas():
    d = ExceptionalDivisorData.from_ruled_areas(1, 2)
    assert d.omega_class.x == 1 and d.omega_class.y == 1
    assert forward_ratio(d.omega_class) == 4
    eq = ExceptionalDivisorData.from_ruled_areas(Q(3, 2), Q(3, 2))
    assert forward_ratio(eq.omega_class) == 2


def test_float_areas_are_refused():
    # 0.1 + 0.2 is not 3/10: taken as its binary fraction it would decide
    # the first ruling, where the exact areas leave the verdict undetermined
    exact = ExceptionalDivisorData.from_ruled_areas(Q(3, 10), Q(1, 10) + Q(2, 10))
    assert blowdown_verdict_dim6(exact).kind is VerdictKind.UNDETERMINED
    with pytest.raises(ValueError, match=r"^a ruling area must be exact \(an int or a "
                                         r"Fraction\), got the float 0\.3$"):
        ExceptionalDivisorData.from_ruled_areas(0.3, Q(3, 10))
    with pytest.raises(ValueError, match=r"got the float 0\.30000000000000004$"):
        ExceptionalDivisorData.from_ruled_areas(Q(3, 10), 0.1 + 0.2)
    # a float class coordinate is refused by the class itself
    with pytest.raises(ValueError, match=r"^coordinate y .* got the float 0\.5$"):
        divisor(1, 0, (1, 0.5))
    assert _areas(ExceptionalDivisorData.from_ruled_areas(1, 2)) == (1, 2)


positive_rationals = st.builds(Fraction, st.integers(1, 10**6), st.integers(1, 10**6))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(positive_rationals, positive_rationals)
def test_ruled_areas_round_trip(a, b):
    assert _areas(ExceptionalDivisorData.from_ruled_areas(a, b)) == (a, b)


def test_point_data():
    d = ExceptionalDivisorData.point()
    assert d.is_point_base
    assert (d.base_genus, d.fiber_rank, d.alpha, d.rho) == (None, None, None, None)
    with pytest.raises(ValueError):
        is_admissible(d)
    with pytest.raises(ValueError):
        build_matching_triple(d)


# ----------------------------------------------------- admissibility


def test_admissibility_examples():
    assert is_admissible(divisor(0, -1, (1, Q(3, 2))))
    assert not is_admissible(divisor(0, -1, (1, 1)))  # ratio 1, bound 1, strict
    # positive genus, alpha <= 0: every forward-cone class is admissible
    assert is_admissible(divisor(1, -1, (1, Q(3, 5))))  # ratio 1/5 > -1
    assert is_admissible(divisor(2, 0, (5, Q(1, 7))))
    # strict at the bound, and 10^-12 above it clears it, for bounds
    # below, at and above 0; no forward-cone class has a ratio at or below
    # 0, so a stand-in record carrying the ratio drives the comparison
    # there, and a real divisor does wherever one exists
    eps = Q(1, 10**12)
    for g, alpha, n, bound in ((1, -1, 2, -1), (1, 0, 3, 0), (2, 3, 2, 3),
                               (0, -2, 2, 0), (0, -1, 2, 1), (0, 3, 3, 3)):
        assert admissibility_bound(alpha, n, SurfaceGenus(g)) == bound
        for rho, want in ((Q(bound), False), (bound + eps, True)):
            stand_in = SimpleNamespace(is_point_base=False, rho=rho, alpha=alpha,
                                       fiber_rank=n, base_genus=SurfaceGenus(g))
            assert is_admissible(stand_in) is want, (g, alpha, n, rho)
            if rho > 0:
                assert is_admissible(divisor(g, alpha, (1, (rho - alpha) / n), n=n)) is want


def test_admissibility_bound_table():
    assert admissibility_bound(-1, 2, SurfaceGenus(0)) == 1
    assert admissibility_bound(-2, 2, SurfaceGenus(0)) == 0
    assert admissibility_bound(3, 2, SurfaceGenus(0)) == 3
    assert admissibility_bound(-1, 2, SurfaceGenus(1)) == -1
    assert admissibility_bound(7, 3, SurfaceGenus(2)) == 7


def test_blowup_divisors_satisfy_the_ratio_bound_iff_admissible():
    # a divisor built from blowing up a surface with normal degree k has
    # alpha = -k; the ratio bound and the admissibility test are the same
    # computation
    for k in range(-4, 5):
        alpha = -k
        for num in range(1, 12):
            rho = Q(num, 3)
            y = (rho - alpha) / 2
            areas = (1, rho / 2) if alpha == 2 else None
            d = divisor(0, alpha, (1, y), areas=areas)
            bound0 = admissibility_bound(alpha, 2, SurfaceGenus(0))
            assert is_admissible(d) == (rho > bound0)
            d1 = divisor(1, alpha, (1, y))
            assert is_admissible(d1) == (rho > alpha)


# ------------------------------------------------------- certificates


def test_build_matching_triple_examples():
    cert = build_matching_triple(divisor(0, -1, (1, Q(3, 2))))
    assert cert.model_bundle == decomposable(-1, 0)
    assert (cert.kahler_class.x, cert.kahler_class.y) == (2, 3)
    assert cert.weak and cert.s1_invariant
    assert cert.restricted_ratio == 2

    cert = build_matching_triple(divisor(1, -3, (1, 2)))
    assert cert.model_bundle == SemiStable(2, -3, SurfaceGenus(1))
    assert forward_ratio(restrict_to_divisor(cert.kahler_class)) == 1

    cert = build_matching_triple(divisor(0, 2, (1, 1), areas=(1, 2)))
    assert cert.model_bundle == decomposable(1, 1)
    assert forward_ratio(restrict_to_divisor(cert.kahler_class)) == 4


def test_build_matching_triple_requires_admissibility():
    with pytest.raises(NotAdmissibleError):
        build_matching_triple(divisor(0, -1, (1, 1)))


def test_certificate_fields():
    cert = build_matching_triple(divisor(0, 3, (1, Q(5, 2)), n=3))
    assert rank(cert.model_bundle) == 3
    assert degree(cert.model_bundle) == 3


def test_validate_certificate_accepts_and_rejects():
    d = divisor(0, -1, (1, Q(3, 2)))
    cert = build_matching_triple(d)
    assert validate_certificate(cert, d)

    corrupt_degree = replace(cert, model_bundle=decomposable(0, 0))
    res = validate_certificate(corrupt_degree, d)
    assert not res and any("normal degree mismatch" in f for f in res.failures)

    bad_y = DivisorClass(cert.kahler_class.x, -5, cert.kahler_class.ctx)
    corrupt_class = replace(cert, kahler_class=bad_y)
    res = validate_certificate(corrupt_class, d)
    assert not res
    assert any("Kahler cone" in f for f in res.failures)

    corrupt_flag = replace(cert, s1_invariant=False)
    res = validate_certificate(corrupt_flag, d)
    assert not res and any("circle-invariance" in f for f in res.failures)

    # class in the cone but restricting to the wrong ratio
    off_ratio = replace(cert, kahler_class=DivisorClass(2, 4, cert.kahler_class.ctx),
                        restricted_ratio=Q(3))
    res = validate_certificate(off_ratio, d)
    assert not res and any("restricted ratio mismatch" in f for f in res.failures)

    # a twisted V moves the derived ambient bundle V + O, which the class
    # no longer lives on
    twisted = replace(cert, model_bundle=twist(cert.model_bundle, 1))
    res = validate_certificate(twisted, d)
    assert not res and any("normal degree mismatch" in f for f in res.failures)
    assert any("Kahler class rejected" in f for f in res.failures)


def test_validate_certificate_negative_controls():
    d = divisor(0, -1, (1, Q(3, 2)))
    cert = build_matching_triple(d)
    res = validate_certificate(cert, ExceptionalDivisorData.point())
    assert res.failures == ("point-base divisors carry no matching triple",)

    # degree alpha = -1 kept, rank 3 against the divisor's fiber rank 2
    wrong_rank = MatchingTripleCertificate(decomposable(-1, 0, 0), cert.kahler_class,
                                           cert.restricted_ratio)
    res = validate_certificate(wrong_rank, d)
    assert "rank mismatch: model bundle rank 3 != fiber rank 2" in res.failures

    wrong_field = MatchingTripleCertificate(cert.model_bundle, cert.kahler_class, Q(5))
    res = validate_certificate(wrong_field, d)
    assert res.failures == ("certificate ratio field 5 disagrees with the actual "
                            "restriction ratio 2",)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 3), st.integers(1, 6), st.integers(-30, 30),
       st.builds(Fraction, st.integers(1, 60), st.integers(1, 12)))
@example(0, 2, 2, Q(1, 3))  # the sphere product
@example(0, 1, -30, Q(1))
@example(3, 6, 30, Q(5, 7))
def test_certificate_property(g, n, alpha, excess):
    # any ratio above the infimum gets a certificate that the independent
    # check accepts, built on the model bundle plus a trivial line
    rho = max(admissibility_bound(alpha, n, SurfaceGenus(g)), 0) + excess
    if (g, n, alpha) == (0, 2, 2):
        d = ExceptionalDivisorData.from_ruled_areas(1, rho / 2)
    else:
        d = divisor(g, alpha, (1, (rho - alpha) / n), n=n)
    assert d.rho == rho
    cert = build_matching_triple(d)
    assert validate_certificate(cert, d)
    v, ambient = cert.model_bundle, cert.ambient_bundle
    if isinstance(v, Decomposable):
        assert isinstance(ambient, Decomposable)
        assert ambient.degrees == tuple(sorted(v.degrees + (0,)))
    else:
        assert g > 0 and isinstance(ambient, SemistablePlusLine)
        assert (rank(ambient), degree(ambient)) == (n + 1, alpha)


# ------------------------------------------------------------ verdict


def test_verdict_point():
    v = blowdown_verdict_dim6(ExceptionalDivisorData.point())
    assert v.kind is VerdictKind.ALWAYS_BLOWDOWN and v.certificate is None


def test_verdict_genus2_alpha_negative():
    v = blowdown_verdict_dim6(divisor(2, -1, (1, Q(3, 5))))
    assert v.kind is VerdictKind.BLOWDOWN_UP_TO_DEFORMATION
    assert validate_certificate(v.certificate, divisor(2, -1, (1, Q(3, 5))))


def test_verdict_not_admissible():
    v = blowdown_verdict_dim6(divisor(0, 3, (1, 1)))  # ratio 5? 3+2 = 5 > 3
    assert v.kind is VerdictKind.BLOWDOWN_UP_TO_DEFORMATION
    v = blowdown_verdict_dim6(divisor(0, 3, (2, 1)))  # ratio 3 + 1 = 4 > 3
    assert v.kind is VerdictKind.BLOWDOWN_UP_TO_DEFORMATION
    v = blowdown_verdict_dim6(divisor(0, 3, (4, 1)))  # ratio 3 + 1/2 = 7/2, bound 3
    assert v.kind is VerdictKind.BLOWDOWN_UP_TO_DEFORMATION
    v = blowdown_verdict_dim6(divisor(1, 3, (1, Q(-1, 4))))  # ratio 3 - 1/2, bound 3
    assert v.kind is VerdictKind.NOT_ADMISSIBLE
    assert "does not exceed" in v.reason


def test_verdict_sphere_product():
    v = blowdown_verdict_dim6(ExceptionalDivisorData.from_ruled_areas(1, 2))
    assert v.kind is VerdictKind.BLOWDOWN_UP_TO_DEFORMATION
    assert v.chosen_ruling is Ruling.FIRST
    assert forward_ratio(restrict_to_divisor(v.certificate.kahler_class)) == 4

    v = blowdown_verdict_dim6(ExceptionalDivisorData.from_ruled_areas(2, 1))
    assert v.chosen_ruling is Ruling.SECOND
    assert forward_ratio(restrict_to_divisor(v.certificate.kahler_class)) == 4

    v = blowdown_verdict_dim6(ExceptionalDivisorData.from_ruled_areas(3, 3))
    assert v.kind is VerdictKind.UNDETERMINED
    assert "ratio = 2" in v.reason


def test_sphere_product_swap_symmetry():
    for (a, b) in [(1, 2), (Q(1, 2), Q(7, 3)), (5, 4)]:
        d = ExceptionalDivisorData.from_ruled_areas(a, b)
        swapped = ExceptionalDivisorData.from_ruled_areas(b, a)
        v1 = blowdown_verdict_dim6(d)
        v2 = blowdown_verdict_dim6(swapped)
        assert {v1.chosen_ruling, v2.chosen_ruling} == {Ruling.FIRST, Ruling.SECOND}
        assert v1.certificate.restricted_ratio == v2.certificate.restricted_ratio
    eq1 = blowdown_verdict_dim6(ExceptionalDivisorData.from_ruled_areas(2, 2))
    assert eq1.kind is VerdictKind.UNDETERMINED


def test_sphere_product_class_decides_as_its_areas():
    # the class (x, y) and the areas (x, x + y) are one divisor: same kind,
    # ruling, certificate and reason, the equal-area rho = 2 case included
    seen = set()
    for x in (Q(1, 3), Q(1), Q(5, 2)):
        for y in (Q(-1, 4) * x, Q(-1, 7), Q(0), Q(1, 2), Q(3), Q(-5, 6)):
            if x + y <= 0:
                continue
            d = divisor(0, 2, (x, y))
            by_class = blowdown_verdict_dim6(d)
            by_areas = blowdown_verdict_dim6(ExceptionalDivisorData.from_ruled_areas(x, x + y))
            assert by_class == by_areas, (x, y)
            # the ruling is the sign of y, and the other ruling's class is
            # (x + y, -y)
            assert by_class.chosen_ruling is (Ruling.FIRST if y > 0 else
                                              Ruling.SECOND if y < 0 else None)
            assert refibred_along_second_ruling(d) == divisor(0, 2, (x + y, -y))
            seen.add(by_class.chosen_ruling)
    assert seen == {Ruling.FIRST, Ruling.SECOND, None}


positive_areas = st.one_of(st.integers(1, 10**6), positive_rationals)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(positive_areas, positive_areas, st.booleans())
@example(2, 1, False)
@example(1, 2, False)
@example(Q(3, 2), Q(3, 2), False)
@example(Q(10**12 + 1, 10**12), 1, False)
def test_second_ruling_refibration(a, b, equal):
    # equal draws b = a, so equal areas come up at every size
    if equal:
        b = a
    d = ExceptionalDivisorData.from_ruled_areas(a, b)
    r = refibred_along_second_ruling(d)
    assert r == ExceptionalDivisorData.from_ruled_areas(b, a)
    assert _areas(r) == (b, a)
    assert forward_ratio(r.omega_class) == 2 * Q(a) / b
    v = blowdown_verdict_dim6(d)
    if a < b:
        assert (v.kind, v.chosen_ruling) == (VerdictKind.BLOWDOWN_UP_TO_DEFORMATION,
                                             Ruling.FIRST)
        certified = d
    elif a > b:
        assert (v.kind, v.chosen_ruling) == (VerdictKind.BLOWDOWN_UP_TO_DEFORMATION,
                                             Ruling.SECOND)
        certified = r
    else:
        assert (v.kind, v.chosen_ruling, v.certificate) == (VerdictKind.UNDETERMINED,
                                                            None, None)
        certified = None
    if certified is not None:
        # the certificate validates against the divisor it certifies: the
        # ruling blown down, whose ratio 2*(larger area)/(smaller) exceeds 2
        assert validate_certificate(v.certificate, certified)
        assert v.certificate.restricted_ratio == certified.rho == 2 * Q(max(a, b)) / min(a, b)
    with pytest.raises(ValueError, match="only the genus-0, alpha = 2, rank-2 divisor"):
        refibred_along_second_ruling(divisor(1, -1, (1, 1)))


def test_verdict_rejects_wrong_fiber_rank():
    with pytest.raises(ValueError, match="fiber rank 2"):
        blowdown_verdict_dim6(divisor(0, 3, (1, 1), n=3))


def test_verdict_monotone_in_ratio():
    # with fixed (g, n, alpha), admissibility only depends on the ratio and
    # is monotone in it
    for g in (0, 1):
        for alpha in (-2, 1):
            admissible_rhos = []
            for num in range(1, 9):
                rho = Q(num, 2)
                y = (rho - alpha) / 2
                d = divisor(g, alpha, (1, y))
                admissible_rhos.append((rho, is_admissible(d)))
            seen_true = False
            for rho, ok in admissible_rhos:
                if seen_true:
                    assert ok
                seen_true = seen_true or ok
